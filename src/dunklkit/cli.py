"""Command-line entry point: verify | sharp | wave | selftest | corpus.

Outputs are deterministic given config + seed: CSV bodies are byte-identical
across reruns (17 significant digits, no timestamps); run provenance lives
in a separate metadata.json, written on every exit path once the output
directory exists.  Exit codes: 0 ok, 1 inequality violation or Picard
divergence, 2 config/schema error (bad quadrature parameters included),
3 numerical failure (a NaN or infinite output number included: no JSON
output ever holds one), 4 internal error (any exception that is not one of
the package's own; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import inspect
import itertools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .extremal import (RecomputationError, TrialFamily, bump_scale_family,
                       inverse_power_family, power_gaussian_family, rayleigh_maximize)
from .functions import CorpusError, generate_corpus
from .inequalities import (AdmissibilityError, DegenerateFunctionError, FunctionClassError,
                           InequalitySpec, SeriesCapError, THEOREMS, WorkbenchMismatchError,
                           admissible, check_admissible, check_workbench, verify_corpus)
from .measure import QuadratureError, QuadratureInputError, weighted_lp_norm
from .rootsys import GroupClosureError, RootSystemError
from .spectral import LowFrequencyError, classical_fourier_reference
from .waveeq import (PicardDivergenceError, WaveConfig, WaveConfigError, solve_linear,
                     solve_nonlinear)
from .workbench import Workbench, radial_workbench, rank1_workbench

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

CSV_SCHEMAS = {
    "version": 1,
    "records.csv": ["function_id", "lhs", "rhs", "ratio", "notes"],
    "trace.csv (verify/sharp)": ["evaluation", "best_ratio"],
    "trace.csv (wave)": ["t", "h1_norm", "dt_norm"],
    "snapshots.csv": ["t", "x", "u"],
    "norms.csv": ["function_id", "p", "a", "value"],
}


class ConfigError(ValueError):
    pass


class NonFiniteResultError(ArithmeticError):
    """A number that a command would write out is NaN or infinite."""


# the package's own exception types, by exit code (FloatingPointError is what
# dunkl_derivative_num raises on a non-finite evaluator); anything else is internal
_CONFIG_ERRORS = (ConfigError, AdmissibilityError, CorpusError, RootSystemError,
                  WaveConfigError, WorkbenchMismatchError, QuadratureInputError)
_NUMERICAL_ERRORS = (FloatingPointError, NonFiniteResultError, DegenerateFunctionError,
                     FunctionClassError, SeriesCapError, GroupClosureError, LowFrequencyError,
                     QuadratureError, RecomputationError)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(out: Path, schema: str, rows) -> None:
    """`rows` under the columns of CSV_SCHEMAS[schema], in the file that the
    schema key names (up to its first space) inside `out`."""
    with open(out / schema.split(" ")[0], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_SCHEMAS[schema])
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    _check_finite(obj, path.name)
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _check_finite(obj, where: str) -> None:
    """A NaN or infinite float raises, and so does a float subclass (numpy's
    float64): json.dumps would write it, and refuses every other numpy value."""
    if isinstance(obj, dict):
        for key, v in obj.items():
            _check_finite(v, f"{where}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{where}[{i}]")
    elif isinstance(obj, float):
        if type(obj) is not float:
            raise TypeError(f"{where}: {type(obj).__name__} is not JSON serializable")
        if not math.isfinite(obj):
            raise NonFiniteResultError(f"{where} is {obj}")


_MISSING = object()


def _require(cfg: dict, path: str, typ, where: str = "$", default=_MISSING):
    """The field at the dotted `path`, of type `typ`; every object on the path
    must be a dict.  Given a default, a field that is missing from its
    object, or null, reads as the default."""
    cur = cfg
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(cur, dict):
            at = ".".join([where] + parts[:i])
            raise ConfigError(f"{at}: expected dict, got {type(cur).__name__}")
        if part not in cur:
            if default is not _MISSING:
                return default
            raise ConfigError(f"{where}.{'.'.join(parts[: i + 1])}: missing required field")
        cur = cur[part]
    if cur is None and default is not _MISSING:
        return default
    if typ is float and isinstance(cur, (int, float)) and not isinstance(cur, bool):
        try:
            value = float(cur)
        except OverflowError:       # an integer past the float range
            raise ConfigError(f"{where}.{path}: expected a finite number, got an integer "
                              f"too large for a float") from None
        if not math.isfinite(value):  # json.load reads NaN, Infinity and 1e999
            raise ConfigError(f"{where}.{path}: expected a finite number, got {cur!r}")
        return value
    if typ is int and isinstance(cur, int) and not isinstance(cur, bool):
        return cur
    if not isinstance(cur, typ) or isinstance(cur, bool) and typ is not bool:
        raise ConfigError(f"{where}.{path}: expected {typ.__name__}, got {type(cur).__name__}")
    return cur


# optional mode.* grid fields, passed to the workbench constructor when set
_GRID_FIELDS = {"rmax": float, "resolution": int, "xi_max": float, "xi_resolution": int}


def _build_workbench(cfg: dict, wide: bool = False) -> Workbench:
    """The workbench of the `mode` block.  `wide` (heavy-tailed families)
    makes the type default to radial and, unless rmax ≥ 1e12 is set, uses
    the wide geometric rule: rmax 1e30 with at least 3000 nodes."""
    mode = _require(cfg, "mode.type", str, default="radial" if wide else _MISSING)
    kw = {name: _require(cfg, f"mode.{name}", typ, default=None)
          for name, typ in _GRID_FIELDS.items()}
    kw = {name: v for name, v in kw.items() if v is not None}
    if wide and kw.get("rmax", 0.0) < 1e12:
        kw.update(rmax=1e30, resolution=max(kw.get("resolution", 0), 3000))
    if mode == "radial":
        return radial_workbench(_require(cfg, "mode.N", int, default=3),
                                _require(cfg, "mode.gamma", float, default=0.0), **kw)
    if mode == "rank1":
        return rank1_workbench(_require(cfg, "mode.k", float, default=0.0), **kw)
    raise ConfigError(f"$.mode.type: unknown mode {mode!r}")


def _build_spec(cfg: dict, wb: Workbench) -> InequalitySpec:
    """The spec, whose Λ = N + 2γ must be the Λ of the `mode` block."""
    params = _require(cfg, "spec.params", dict)
    spec = InequalitySpec(_require(cfg, "spec.theorem", str),
                          {k: _require(params, k, float, "$.spec.params") for k in params})
    check_workbench(spec, wb)
    return spec


def _build_corpus(cfg: dict, seed: int, mode: str):
    c = _require(cfg, "corpus", dict, default={})
    count = _require(c, "count", int, "$.corpus", 10)
    families = _require(c, "families", list, "$.corpus",
                        ["Gaussian", "DilatedGaussian", "HermiteGaussian"])
    constraints = _require(c, "constraints", dict, "$.corpus", {})
    return generate_corpus(seed, count, families, constraints, mode=mode)


# a seeded command: where its config holds the seed, and the seed without one
_SEEDS = {"verify": ("corpus.seed", 0), "corpus": ("corpus.seed", 0),
          "sharp": ("optimizer.seed", 0), "selftest": (None, 1)}


def cmd_verify(cfg: dict, out: Path, seed: int | None) -> int:
    wb = _build_workbench(cfg)
    spec = _build_spec(cfg, wb)
    rep = admissible(spec)
    corpus = _build_corpus(cfg, seed, wb.mode)
    summary = {
        "command": "verify",
        "spec": spec.to_dict(),
        "seed": seed,
        "admissible": rep.admissible,
        "failed_conditions": [
            {"id": c.cid, "statement": c.statement, "residual": c.residual}
            for c in rep.failed
        ],
    }
    if not rep.admissible:
        _write_json(out / "summary.json", summary)
        return EXIT_OK
    result = verify_corpus(spec, corpus, wb)
    _write_csv(out, "records.csv",
               [(r.function_id, r.lhs, r.rhs, r.ratio, "") for r in result.records])
    summary.update({
        "direction": result.direction,
        "known_bound": result.known_bound,
        "sup_ratio": result.empirical_constant,
        "violations": [r.function_id for r in result.violations],
    })
    _write_json(out / "summary.json", summary)
    return EXIT_VIOLATION if result.violations else EXIT_OK


_FAMILY_BUILDERS = {
    "PowerGaussian": power_gaussian_family,
    "InversePower": inverse_power_family,
    "BumpScale": bump_scale_family,
}


def _box(box: dict, tag: str) -> dict:
    """family.box: builder argument -> [lo, hi]."""
    names = inspect.signature(_FAMILY_BUILDERS[tag]).parameters
    for key, v in box.items():
        if key not in names:
            raise ConfigError(f"$.family.box.{key}: unknown field for {tag}; "
                              f"expected one of {sorted(names)}")
        if not (isinstance(v, list) and len(v) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                for x in v) and v[0] <= v[1]):
            raise ConfigError(f"$.family.box.{key}: expected [lo, hi], got {v!r}")
    return {k: tuple(v) for k, v in box.items()}


def cmd_sharp(cfg: dict, out: Path, seed: int | None) -> int:
    tag = _require(cfg, "family.tag", str, default="PowerGaussian")
    if tag not in _FAMILY_BUILDERS:
        raise ConfigError(f"$.family.tag: unknown family {tag!r}")
    box = _box(_require(cfg, "family.box", dict, default={}), tag)
    family: TrialFamily = _FAMILY_BUILDERS[tag](**box)
    wb = _build_workbench(cfg, wide=family.heavy_tails)
    if wb.mode != "radial":
        raise ConfigError(f"$.mode.type: the {tag} family is radial; got {wb.mode!r}")
    spec = _build_spec(cfg, wb)
    opt = _require(cfg, "optimizer", dict, default={})
    restarts = _require(opt, "restarts", int, "$.optimizer", 3)
    if restarts < 1:
        raise ConfigError("$.optimizer.restarts: must be ≥ 1")
    check_admissible(spec)
    ceiling = THEOREMS[spec.theorem].known_bound(spec.params)
    ran = {"seed": seed,
           "max_iters": _require(opt, "max_iters", int, "$.optimizer", 120),
           "tolerance": _require(opt, "tolerance", float, "$.optimizer", 1e-4)}
    result = rayleigh_maximize(spec, family, wb, max_iter=ran["max_iters"], tol=ran["tolerance"],
                               restarts=restarts, seed=ran["seed"], ceiling=ceiling)
    _write_json(out / "summary.json", {
        "command": "sharp",
        "spec": spec.to_dict(),
        "family": {"tag": tag, "box": {k: list(v) for k, v in family.box.items()}},
        "optimizer": ran,
        **result.to_dict(),
    })
    _write_csv(out, "trace.csv (verify/sharp)", enumerate(result.trace))
    return EXIT_OK


# optional wave.* fields: config path -> (WaveConfig field, type)
_WAVE_FIELDS = {
    "epsilon": ("epsilon", float), "p": ("p", float), "mode": ("mode", str),
    "k": ("k", float), "N": ("N", int), "gamma": ("gamma", float),
    "grid.x_max": ("x_max", float), "grid.nx": ("nx", int),
    "grid.xi_max": ("xi_max", float), "grid.nxi": ("nxi", int),
    "time.T": ("t_final", float), "time.dt": ("dt", float),
}


def cmd_wave(cfg: dict, out: Path, seed: int | None) -> int:
    w = _require(cfg, "wave", dict)
    given = {name: _require(w, path, typ, "$.wave", None)
             for path, (name, typ) in _WAVE_FIELDS.items()}
    config = WaveConfig(b=_require(w, "b", float, "$.wave"), m=_require(w, "m", float, "$.wave"),
                        **{name: v for name, v in given.items() if v is not None})
    scale = _require(w, "data.gaussian_scale", float, "$.wave", 1.0)
    if not scale > 0.0:
        raise ConfigError(f"$.wave.data.gaussian_scale: must be positive, got {scale!r}")

    def u0(x):
        return np.exp(-0.5 * (np.asarray(x) / scale) ** 2)
    u1 = None

    divergence = None
    if config.p is None:
        sol = solve_linear(config, u0, u1)
    else:
        try:
            sol = solve_nonlinear(config, u0, u1)
        except PicardDivergenceError as exc:
            divergence = exc
            sol = None
    resolved = {k: v for k, v in vars(config).items() if not k.startswith("_")}
    if sol is not None:
        # the summary first: a non-finite number in it stops the run before any CSV
        _write_json(out / "summary.json", {
            "command": "wave",
            "config": resolved,
            "delta_fit": sol.delta_fit,
            "fit_residual": sol.fit_residual,
            "iterations": sol.iterations,
            "contraction_factors": sol.contraction_factors,
            "converged": sol.converged,
            "x_norm": sol.x_norm,
        })
        _write_csv(out, "trace.csv (wave)", zip(sol.times, sol.h1_trace, sol.dt_trace))
        rows = []
        for row, ti in zip(sol.snapshots, sol.snapshot_indices):
            for xval, uval in zip(sol.x_nodes, row):
                rows.append((sol.times[ti], xval, uval))
        _write_csv(out, "snapshots.csv", rows)
        return EXIT_OK
    # an overflowing iterate ends the differences with one that is not finite,
    # which no JSON output holds: the summary lists those before it
    _write_json(out / "summary.json", {
        "command": "wave",
        "config": resolved,
        "divergence": True,
        "overflow": divergence.overflow,
        "epsilon": divergence.epsilon,
        "diff_xnorms": list(itertools.takewhile(math.isfinite, divergence.diffs)),
    })
    return EXIT_VIOLATION


def cmd_selftest(cfg: dict, out: Path, seed: int | None) -> int:
    """Plancherel + k=0 Fourier equivalence + integration by parts."""
    from .dunkl import integration_by_parts_residual
    from .functions import PolyGauss1D, gaussian
    from .measure import rank1_quadrature
    from .rootsys import build_root_system

    lines = []

    def check(text: str, value: float, tol: float) -> None:
        lines.append(f"{text} [{'pass' if value < tol else 'FAIL'}]")

    corpus = generate_corpus(seed, 6, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="rank1")
    # one kernel alive at a time: the k = 0 and k = 1/2 checks run in the loop
    for k in (0.0, 0.3, 0.5, 1.0, 2.5):
        wb = rank1_workbench(k)
        worst = max(abs(wb.spectral(f).l2() / wb.norm(f, 2.0) - 1.0) for f in corpus)
        check(f"plancherel k={k:g}: max relative error {worst:.3e}", worst, 1e-6)
        if k == 0.0:
            f = corpus[2]
            ref = classical_fourier_reference(f.value, wb.xi_quad.nodes, wb.quad.rmax)
            fourier_err = float(np.max(np.abs(wb.transform.to_full(wb.spectral(f).values) - ref)))
        elif k == 0.5:
            calibration = wb.transform.calibration_report()
    check(f"fourier k=0 agreement: max abs error {fourier_err:.3e}", fourier_err, 1e-7)

    rs = build_root_system("Rank1Z2", 1, [0.5])
    quad = rank1_quadrature(0.5, 14.0, 420)
    g1 = PolyGauss1D((0.0, 1.0), 1.0)        # odd: x e^{-x²/2}
    g2 = gaussian("rank1", s=1.4)
    resid = integration_by_parts_residual(rs, g1.value, g2.value, quad, 0)
    check(f"integration by parts residual: {resid:.3e}", resid, 1e-6)

    for ln in lines:
        print(ln)
    ok = all(ln.endswith("[pass]") for ln in lines)
    _write_json(out / "summary.json", {"command": "selftest", "ok": ok,
                                       "checks": lines, "calibration": calibration})
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_corpus(cfg: dict, out: Path, seed: int | None) -> int:
    wb = _build_workbench(cfg) if "mode" in cfg else radial_workbench(3, 0.0)
    corpus = _build_corpus(cfg, seed, wb.mode)
    _write_json(out / "corpus.json", {"seed": seed,
                                      "members": [f.to_dict() for f in corpus]})
    norms = [(_require(nc, "p", float, f"$.norms[{i}]", 2.0),
              _require(nc, "a", float, f"$.norms[{i}]", 0.0))
             for i, nc in enumerate(_require(cfg, "norms", list, default=[{}]))]
    rows = [(f.fid, p, a, weighted_lp_norm(f, p, a, wb.quad)) for f in corpus for p, a in norms]
    _write_csv(out, "norms.csv", rows)
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "sharp": cmd_sharp,
    "wave": cmd_wave,
    "selftest": cmd_selftest,
    "corpus": cmd_corpus,
}


def _load_config(args) -> dict:
    """The JSON config that --config names; {} for a command that needs none."""
    if args.config is None:
        if args.command in ("verify", "sharp", "wave"):
            raise ConfigError(f"--config is required for {args.command!r}")
        return {}
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{args.config}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _blas() -> dict:
    """The build string and thread count of numpy's bundled OpenBLAS (`wave`
    bits depend on the thread count), read through its scipy_openblas
    symbols: null where a numpy build has no such library or symbols."""
    try:
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*"))))
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        return {"build": lib.scipy_openblas_get_config64_().decode(),
                "threads": int(lib.scipy_openblas_get_num_threads64_())}
    except (OSError, AttributeError, StopIteration, UnicodeDecodeError):
        return {"build": None, "threads": None}


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc.strerror}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dunklkit",
        description="Dunkl-operator workbench: inequality verification, "
                    "sharp-constant probes, damped wave simulations")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override corpus/optimizer seed")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    args = parser.parse_args(argv)

    out, code, error, seed = None, None, None, args.seed
    try:
        out = _out_dir(args.out)
        cfg = _load_config(args)
        path, seed = _SEEDS.get(args.command, (None, None))   # wave draws nothing
        if path is not None:
            seed = _require(cfg, path, int, default=seed)
        if seed is not None and args.seed is not None:
            seed = args.seed
        if seed is not None and seed < 0:
            where = "--seed" if args.seed is not None else f"$.{path}"
            raise ConfigError(f"{where}: a seed must be ≥ 0, got {seed}")
        code = COMMANDS[args.command](cfg, out, seed)
    except _CONFIG_ERRORS as exc:
        code, error = EXIT_CONFIG, exc
        print(f"config error: {exc}", file=sys.stderr)
    except _NUMERICAL_ERRORS as exc:
        code, error = EXIT_NUMERICAL, exc
        print(f"numerical failure: {exc}", file=sys.stderr)
    except Exception as exc:
        code, error = EXIT_INTERNAL, exc
        traceback.print_exc()
    finally:
        if out is not None:
            meta = {
                "tool": "dunklkit",
                "version": __version__,
                "command": args.command,
                "seed": seed,
                "numpy": np.__version__,
                "blas": _blas(),
                "csv_schemas": CSV_SCHEMAS,
                "exit_code": code,
            }
            if error is not None:
                meta["error"] = {"class": type(error).__name__, "message": str(error)}
            _write_json(out / "metadata.json", meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
