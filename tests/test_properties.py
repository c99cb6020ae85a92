"""Property tests over generated inputs: exact weighted norms through the
shared quadrature builder, and Plancherel / round trip of both transforms."""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

import dunklkit as dk
from dunklkit.functions import generate_corpus
from dunklkit.measure import radial_quadrature, rank1_quadrature, weighted_lp_norm

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
EXACT_FAMILIES = ["Gaussian", "DilatedGaussian", "HermiteGaussian"]
# verify-sweep's families without the bumps, whose pointwise round trip
# misses 1e-6 on the default ξ range
SPECTRAL_FAMILIES = ["Gaussian", "DilatedGaussian", "HermiteGaussian", "SeededSuperposition"]
SEEDS = st.integers(0, 2 ** 16)
POWERS = st.floats(-0.45, 2.0)       # |x|^{2a} stays integrable for every Λ ≥ 1


def _check_exact_norms(corpus, quad, a, exact):
    for f in corpus:
        (comp,) = f.components
        got = weighted_lp_norm(f, 2.0, a, quad) ** 2
        want = exact(comp)
        assert abs(got / want - 1.0) < 1e-8, (f.fid, got, want)


@PROPERTY
@given(N=st.integers(1, 6), gamma=st.floats(0.0, 2.0), a=POWERS, seed=SEEDS)
def test_radial_norms_match_closed_forms(N, gamma, a, seed):
    quad = radial_quadrature(N, gamma, 16.0, 640)
    lam = N + 2.0 * gamma
    _check_exact_norms(generate_corpus(seed, 3, EXACT_FAMILIES, mode="radial"), quad, a,
                       lambda c: c.weighted_l2_exact(a, lam, surface_const=quad.recipe["const"]))


@PROPERTY
@given(k=st.floats(0.0, 2.5), a=POWERS, seed=SEEDS)
def test_rank1_norms_match_closed_forms(k, a, seed):
    quad = rank1_quadrature(k, 16.0, 640)
    _check_exact_norms(generate_corpus(seed, 3, EXACT_FAMILIES, mode="rank1"), quad, a,
                       lambda c: c.weighted_l2_exact(a, k))


@lru_cache(maxsize=None)
def _workbench(setting):
    """Default workbench of a setting: ("rank1", k) or ("radial", N, γ)."""
    if setting[0] == "rank1":
        return dk.rank1_workbench(setting[1])
    return dk.radial_workbench(setting[1], setting[2])


SETTINGS = [("rank1", 0.0), ("rank1", 0.5), ("rank1", 1.5),
            ("radial", 3, 0.0), ("radial", 1, 0.7), ("radial", 5, 0.5)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(setting=st.sampled_from(SETTINGS), family=st.sampled_from(SPECTRAL_FAMILIES),
       seed=SEEDS)
def test_plancherel_and_round_trip(setting, family, seed):
    wb = _workbench(setting)
    (f,) = generate_corpus(seed, 1, [family], mode=setting[0])
    fld = wb.spectral(f)
    assert abs(fld.l2() / wb.norm(f, 2.0) - 1.0) < 1e-6
    vals = f.value(wb.quad.nodes)
    back = wb.transform.inverse(fld)
    assert np.max(np.abs(back - vals)) < 1e-6 * np.max(np.abs(vals))
