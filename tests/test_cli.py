import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dunklkit
from dunklkit import cli
from dunklkit.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


VERIFY_CFG = {
    "mode": {"type": "radial", "N": 3, "gamma": 0.0},
    "spec": {"theorem": "FractionalHardy", "params": {"N": 3, "gamma": 0.0, "s": 1.0}},
    "corpus": {"seed": 7, "count": 20,
               "families": ["Gaussian", "DilatedGaussian", "HermiteGaussian"]},
}


def test_verify_exit0_and_summary(tmp_path):
    cfg = write(tmp_path / "cfg.json", VERIFY_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["admissible"] is True
    assert summary["sup_ratio"] <= 2.0002
    assert summary["violations"] == []
    assert (out / "records.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["exit_code"] == 0 and "error" not in meta


def test_verify_deterministic_reruns(tmp_path):
    cfg = write(tmp_path / "cfg.json", VERIFY_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_verify_inadmissible_reports(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "mode": {"type": "radial", "N": 3, "gamma": 0.0},
        "spec": {"theorem": "Hardy_Lp", "params": {"N": 3, "gamma": 0.0, "p": 5.0}},
        "corpus": {"seed": 1, "count": 2, "families": ["Gaussian"]},
    })
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["admissible"] is False
    assert summary["failed_conditions"]


def test_malformed_config_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"broken": ')
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = write(tmp_path / "m.json", {"mode": {"type": "radial"}})
    assert main(["verify", "--config", missing, "--out", str(tmp_path / "o2")]) == 2
    assert main(["verify", "--out", str(tmp_path / "o3")]) == 2    # --config required
    assert main(["verify", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path / "o4")]) == 2                # no such file


def test_unknown_mode_exit2(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "mode": {"type": "hyperbolic"},
        "spec": VERIFY_CFG["spec"],
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sharp_command(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "mode": {"type": "radial", "N": 3, "gamma": 0.0},
        "spec": {"theorem": "FractionalHardy", "params": {"N": 3, "gamma": 0.0, "s": 1.0}},
        "family": {"tag": "InversePower"},
        "optimizer": {"seed": 7},
    })
    out = tmp_path / "out"
    assert main(["sharp", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["best_ratio"] >= 1.9
    assert summary["ceiling"] == 2.0
    # the optimizer settings it ran with, defaults filled in
    assert summary["optimizer"] == {"seed": 7, "max_iters": 120, "tolerance": 1e-4}
    assert (out / "trace.csv").exists()


def test_wave_command(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "wave": {"b": 1.0, "m": 1.0, "epsilon": 0.01, "p": 3.0, "mode": "rank1",
                 "k": 0.5,
                 "grid": {"x_max": 14, "nx": 240, "xi_max": 18, "nxi": 240},
                 "time": {"T": 6.0, "dt": 0.02}},
    })
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["delta_fit"] > 0
    assert summary["converged"] is True
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,h1_norm,dt_norm"
    assert len(trace) == 302


def test_wave_config_wrong_type_exit2(tmp_path):
    base = {"b": 1.0, "m": 1.0, "p": 3.0}
    for wave in ({**base, "grid": {"nx": "many"}}, {**base, "time": 5},
                 {**base, "mode": 1}, {**base, "data": {"gaussian_scale": "wide"}}):
        cfg = write(tmp_path / "cfg.json", {"wave": wave})
        assert main(["wave", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("time", [{"T": 0.01, "dt": 0.1}, {"T": 0.2, "dt": 0.1}],
                         ids=["one_time", "fit_window_one_time"])
def test_wave_time_grid_too_short_exit2(tmp_path, time):
    # a one-point time grid, or a fit window holding one grid time, has no decay fit
    cfg = write(tmp_path / "cfg.json", {"wave": {"b": 1, "m": 1, "time": time}})
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 2
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"]["class"] == "WaveConfigError"
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("scale, message", [
    (0.0, "must be positive"), (-1.0, "must be positive"),
    (float("inf"), "expected a finite number"), (float("nan"), "expected a finite number")],
    ids=["0.0", "-1.0", "inf", "nan"])
def test_wave_bad_gaussian_scale_exit2(tmp_path, capsys, scale, message):
    cfg = write(tmp_path / "cfg.json",
                {"wave": {"b": 1, "m": 1, "data": {"gaussian_scale": scale}}})
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 2
    assert f"gaussian_scale: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


def test_wave_nonfinite_summary_exit3(tmp_path):
    # data that underflows to zero leaves no decay rate to fit: delta_fit is NaN
    cfg = write(tmp_path / "cfg.json", {
        "wave": {"b": 1.0, "m": 1.0, "data": {"gaussian_scale": 1e-150},
                 "grid": {"x_max": 12, "nx": 80, "xi_max": 14, "nxi": 80},
                 "time": {"T": 2.0, "dt": 0.05}},
    })
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 3
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["exit_code"] == 3
    assert meta["error"] == {"class": "NonFiniteResultError",
                             "message": "summary.json.delta_fit is nan"}
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


README_WAVE = {"b": 1.0, "m": 1.0, "epsilon": 0.01, "p": 3.0, "mode": "rank1", "k": 0.5,
               "grid": {"x_max": 16, "nx": 280, "xi_max": 20, "nxi": 280},
               "time": {"T": 10.0, "dt": 0.01}, "data": {"gaussian_scale": 1.0}}


def test_wave_picard_divergence_exit1(tmp_path):
    # ε = 5 on the README grid: four growing Picard differences
    cfg = write(tmp_path / "cfg.json", {"wave": {**README_WAVE, "epsilon": 5.0}})
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["divergence"] is True and summary["epsilon"] == 5.0
    diffs = summary["diff_xnorms"]
    assert len(diffs) == 4 and diffs == sorted(diffs)
    assert summary["overflow"] is False and summary["config"]["epsilon"] == 5.0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["exit_code"] == 1 and "error" not in meta
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json", "summary.json"]


def test_wave_picard_overflow_exit1(tmp_path):
    # ε = 1e8: the third iterate overflows.  That is divergence, exit 1; the
    # summary lists the differences before the infinite one, which no JSON
    # output holds, and says that an iterate overflowed
    cfg = write(tmp_path / "cfg.json", {"wave": {**README_WAVE, "epsilon": 1e8}})
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["divergence"] is True and summary["overflow"] is True
    assert summary["epsilon"] == 1e8 and len(summary["diff_xnorms"]) == 2
    assert summary["config"]["epsilon"] == 1e8 and summary["config"]["nx"] == 280
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["exit_code"] == 1 and "error" not in meta
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json", "summary.json"]


def test_metadata_records_the_blas_build_and_threads(tmp_path):
    # `wave` bits depend on the BLAS thread count, so every run records it
    cfg = write(tmp_path / "cfg.json", VERIFY_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    blas = json.loads((out / "metadata.json").read_text())["blas"]
    assert isinstance(blas["build"], str) and blas["build"]
    assert isinstance(blas["threads"], int) and blas["threads"] >= 1


def test_metadata_records_null_blas_where_the_lookup_fails(tmp_path):
    cfg = write(tmp_path / "cfg.json", VERIFY_CFG)
    out = tmp_path / "out"
    with mock.patch.object(cli.ctypes, "CDLL", side_effect=OSError("no such library")):
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["blas"] == {"build": None, "threads": None} and meta["exit_code"] == 0


@pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "3"], 3)],
                         ids=["config", "override"])
def test_metadata_records_the_seed_the_run_used(tmp_path, argv, seed):
    # the README verify run draws its corpus from seed 7, or from --seed
    cfg = write(tmp_path / "cfg.json", VERIFY_CFG)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), *argv]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == seed
    assert json.loads((out / "metadata.json").read_text())["seed"] == seed


@pytest.mark.parametrize("nonlinear", [{"p": None}, {"p": 3.0, "epsilon": 0.01}],
                         ids=["linear", "p3"])
def test_wave_strong_damping_long_time_is_finite(tmp_path, nonlinear):
    # b·T/2 = 900: e^{-bt/2} alone underflows long before T, the modes do not
    cfg = write(tmp_path / "cfg.json", {
        "wave": {"b": 30.0, "m": 1.0, "mode": "rank1", "k": 0.5, **nonlinear,
                 "grid": {"x_max": 12, "nx": 80, "xi_max": 14, "nxi": 80},
                 "time": {"T": 60.0, "dt": 0.05}},
    })
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert np.isfinite(summary["delta_fit"]) and summary["delta_fit"] > 0
    assert np.isfinite(summary["x_norm"]) and summary["converged"] is True


def test_json_outputs_reject_nan(tmp_path):
    import dunklkit.cli as cli
    with pytest.raises(cli.NonFiniteResultError, match=r"s\.json\.a\[1\]\.b is inf"):
        cli._write_json(tmp_path / "s.json", {"a": [1.0, {"b": np.array(np.inf)}]})
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("value", [np.int64(3), np.arange(2.0)], ids=["int64", "array"])
def test_json_outputs_refuse_numpy_values(tmp_path, value):
    # a numpy value that reaches an output is a bug in the command (exit 4),
    # not something to convert on the way out
    import dunklkit.cli as cli
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(tmp_path / "s.json", {"a": value})
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command, cfg", [
    ("wave", {"wave": {"b": 1, "m": 1, "grid": {"nx": 4}}}),
    ("verify", {**VERIFY_CFG, "mode": {**VERIFY_CFG["mode"], "resolution": 8}}),
], ids=["wave.nx", "verify.resolution"])
def test_bad_rule_input_exit2(tmp_path, capsys, command, cfg):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    assert "config error: resolution must be ≥ 16" in capsys.readouterr().err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"]["class"] == "QuadratureInputError"


def test_wave_null_p_is_linear(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "wave": {"b": 1.0, "m": 1.0, "p": None,
                 "grid": {"x_max": 12, "nx": 80, "xi_max": 14, "nxi": 80},
                 "time": {"T": 2.0, "dt": 0.05}},
    })
    out = tmp_path / "out"
    assert main(["wave", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["p"] is None and summary["iterations"] == 0
    assert summary["config"]["epsilon"] == 1.0 and summary["config"]["nx"] == 80


def test_selftest_command(tmp_path, capsys, monkeypatch):
    from dunklkit.spectral import DunklTransformRank1
    builds = []
    init = DunklTransformRank1.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)
    monkeypatch.setattr(DunklTransformRank1, "__init__", counting_init)
    assert main(["selftest", "--out", str(tmp_path / "o")]) == 0
    lines = capsys.readouterr().out
    assert "plancherel" in lines and "[pass]" in lines
    assert len(builds) == 5            # one kernel per multiplicity, reused by every check


def test_corpus_command(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "mode": {"type": "rank1", "k": 0.5},
        "corpus": {"seed": 3, "count": 4, "families": ["Gaussian", "HermiteGaussian"]},
        "norms": [{"p": 2.0, "a": 0.0}, {"p": 1.0, "a": 1.0}],
    })
    out = tmp_path / "out"
    assert main(["corpus", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "norms.csv").read_text().splitlines()
    assert body[0] == "function_id,p,a,value"
    assert len(body) == 9
    members = json.loads((out / "corpus.json").read_text())["members"]
    assert len(members) == 4


_RADIAL = {"type": "radial", "N": 3, "gamma": 0.0}
_SHARP_BASE = {"mode": _RADIAL, "spec": VERIFY_CFG["spec"], "family": {"tag": "BumpScale"}}
_CORPUS_BASE = {"corpus": {"seed": 1, "count": 2, "families": ["Gaussian"]}}


@pytest.mark.parametrize("command, cfg", [
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "resolution": "fine"}}),
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "gamma": "x"}}),
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "N": 3.7}}),
    ("verify", {**VERIFY_CFG, "spec": {"theorem": "FractionalHardy",
                                       "params": {"N": 3, "gamma": 0.0, "s": "one"}}}),
    ("corpus", {"corpus": {"count": "ten"}}),
    ("corpus", {"corpus": {"seed": "7"}}),
    ("corpus", {"corpus": {"families": "Gaussian"}}),
    ("corpus", {"corpus": {"constraints": [1]}}),
    ("corpus", {"corpus": 5}),
    ("corpus", {**_CORPUS_BASE, "norms": {}}),
    ("corpus", {**_CORPUS_BASE, "norms": [{"p": "two"}]}),
    ("corpus", {**_CORPUS_BASE, "norms": [5]}),
    ("sharp", {**_SHARP_BASE, "optimizer": {"max_iters": "many"}}),
    ("sharp", {**_SHARP_BASE, "family": {"tag": "BumpScale", "box": {"beta_box": [0.5, 1.0]}}}),
    ("sharp", {**_SHARP_BASE, "family": {"tag": "BumpScale", "box": {"scale_box": 2.0}}}),
    # fields of the right type that contradict each other or name nothing known
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "N": 5}}),
    ("sharp", {**_SHARP_BASE, "mode": {"type": "rank1", "k": 0.5}}),
    ("sharp", {**_SHARP_BASE, "mode": {"type": "rank1", "k": 0.5},
               "spec": {"theorem": "FractionalHardy",
                        "params": {"N": 1, "gamma": 0.5, "s": 0.5}}}),
    ("corpus", {"corpus": {"families": ["Gaussian", "Lorentzian"]}}),
    # values of the right type that the commands cannot run with
    ("corpus", {"corpus": {"count": 0}}),
    ("verify", {**VERIFY_CFG, "corpus": {"families": []}}),
    ("sharp", {**_SHARP_BASE, "optimizer": {"restarts": 0}}),
    ("sharp", {**_SHARP_BASE, "family": {"tag": "BumpScale", "box": {"scale_box": [2.0, 1.0]}}}),
    ("sharp", {**_SHARP_BASE, "spec": {"theorem": "FractionalHardy",
                                       "params": {"N": 3, "gamma": 0.0, "s": 2.0}}}),
], ids=["mode.resolution", "mode.gamma", "mode.N", "spec.params", "corpus.count",
        "corpus.seed", "corpus.families", "corpus.constraints",
        "corpus", "norms", "norms.p", "norms.entry", "optimizer.max_iters",
        "family.box.key", "family.box.value",
        "verify.mode_lambda", "sharp.mode_lambda", "sharp.mode_rank1",
        "corpus.families_unknown",
        "corpus.count_zero", "corpus.families_empty", "optimizer.restarts_zero",
        "family.box.reversed", "sharp.inadmissible"])
def test_optional_field_wrong_type_exit2(tmp_path, capsys, command, cfg):
    path = write(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, cfg", [
    ("wave", {"wave": {"b": 1, "m": 1, "time": {"dt": _NAN}}}),
    ("wave", {"wave": {"b": _INF, "m": 1}}),
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "rmax": _NAN}}),
    ("verify", {**VERIFY_CFG, "mode": {**_RADIAL, "xi_max": _INF}}),
    ("verify", {**VERIFY_CFG, "spec": {"theorem": "FractionalHardy",
                                       "params": {"N": 3, "gamma": 0.0, "s": _NAN}}}),
    ("verify", {**VERIFY_CFG, "spec": {"theorem": "Trudinger",
                                       "params": {"N": 3, "gamma": 0.0, "p": _INF, "a": 0.0}}}),
    ("sharp", {**_SHARP_BASE, "family": {"tag": "BumpScale", "box": {"scale_box": [0.5, _INF]}}}),
    ("sharp", {**_SHARP_BASE, "optimizer": {"tolerance": _NAN}}),
    ("wave", {"wave": {"b": 1, "m": 1, "grid": {"x_max": 10 ** 400}}}),
], ids=["wave.time.dt", "wave.b", "mode.rmax", "mode.xi_max", "spec.params.s",
        "spec.params.p", "family.box", "optimizer.tolerance", "wave.grid.x_max"])
def test_nonfinite_config_number_exit2(tmp_path, capsys, command, cfg):
    # json.load reads NaN and Infinity, and integers past the float range;
    # none is a value any field can take
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert json.loads((out / "metadata.json").read_text())["error"]["class"] == "ConfigError"
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


@pytest.mark.parametrize("cfg", [
    {"mode": {**_RADIAL, "N": 5},
     "spec": {"theorem": "ClassicalRellich", "params": {"N": 5, "gamma": 0.0}},
     "corpus": {"seed": 1, "count": 3, "families": ["AnnularBump"],
                "constraints": {"vanish_at_origin": True}}},
    {"mode": {"type": "rank1", "k": 0.5},
     "spec": {"theorem": "Sobolev", "params": {"N": 1, "gamma": 0.5, "p": 1.5, "q": 6.0}},
     "corpus": {"seed": 1, "count": 3, "families": ["RadialBump"]}},
], ids=["ClassicalRellich-AnnularBump", "rank1-Sobolev-RadialBump"])
def test_carrier_without_exact_hook_exit3(tmp_path, capsys, cfg):
    # a valid config whose members have no exact Laplacian or Dunkl-operator
    # hook: a numerical failure of the run, not an internal error
    out = tmp_path / "out"
    assert main(["verify", "--config", write(tmp_path / "cfg.json", cfg), "--out", str(out)]) == 3
    assert "no exact" in capsys.readouterr().err
    assert json.loads((out / "metadata.json").read_text())["error"]["class"] == "FunctionClassError"
    assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]


def test_null_optional_field_takes_default(tmp_path):
    cfg = write(tmp_path / "cfg.json", {"corpus": {"seed": None, "count": 2}, "norms": None})
    out = tmp_path / "out"
    assert main(["corpus", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "corpus.json").read_text())["seed"] == 0
    assert len((out / "norms.csv").read_text().splitlines()) == 3


def _sharp_rule(monkeypatch, tmp_path, cfg):
    """rmax and node count of the workbench cmd_sharp builds for `cfg`."""
    import dunklkit.cli as cli
    built = {}

    def fake_rayleigh(spec, family, wb, **kw):
        built["rmax"], built["n"] = wb.quad.rmax, wb.quad.recipe["resolution"]
        raise RuntimeError("stop after the workbench is built")
    monkeypatch.setattr(cli, "rayleigh_maximize", fake_rayleigh)
    with pytest.raises(RuntimeError):
        cli.cmd_sharp(cfg, tmp_path, None)
    return built


def test_sharp_leaves_config_unchanged(monkeypatch, tmp_path):
    cfg = {"spec": VERIFY_CFG["spec"], "family": {"tag": "InversePower"},
           "optimizer": {"restarts": 1, "max_iters": 2}}
    before = json.dumps(cfg, sort_keys=True)
    assert _sharp_rule(monkeypatch, tmp_path, cfg) == {"rmax": 1e30, "n": 3000}
    assert json.dumps(cfg, sort_keys=True) == before


def test_sharp_bump_scale_keeps_the_default_rule(monkeypatch, tmp_path):
    # a family without heavy tails gets the mode block's rule as it stands
    cfg = {"mode": VERIFY_CFG["mode"], "spec": VERIFY_CFG["spec"],
           "family": {"tag": "BumpScale"}, "optimizer": {"restarts": 1, "max_iters": 2}}
    assert _sharp_rule(monkeypatch, tmp_path, cfg) == {"rmax": 16.0, "n": 640}


def test_seed_flag_overrides_optimizer_seed(tmp_path):
    cfg = write(tmp_path / "cfg.json", {
        "mode": {"type": "radial", "N": 5, "gamma": 0.0},
        "spec": {"theorem": "ClassicalRellich", "params": {"N": 5, "gamma": 0.0}},
        "family": {"tag": "PowerGaussian"},
        "optimizer": {"seed": 7, "restarts": 2, "max_iters": 10},
    })
    traces = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["sharp", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
        ran = json.loads((out / "summary.json").read_text())["optimizer"]
        assert ran == {"seed": int(seed), "max_iters": 10, "tolerance": 1e-4}
    assert traces[0] != traces[1]


def _raising(exc):
    def command(cfg, out, seed):
        raise exc
    return command


@pytest.mark.parametrize("exc, code", [
    (ValueError("a library bug"), 4), (KeyError("x"), 4), (TypeError("t"), 4),
    (RuntimeError("r"), 4), (FloatingPointError("overflow"), 3),
])
def test_exception_exit_codes(monkeypatch, tmp_path, capsys, exc, code):
    # only the package's own types (and arithmetic faults) map to 2 or 3;
    # anything else is an internal error with its traceback on stderr
    import dunklkit.cli as cli
    monkeypatch.setitem(cli.COMMANDS, "selftest", _raising(exc))
    assert main(["selftest", "--out", str(tmp_path / "o")]) == code
    if code == 4:
        assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, code, error", [
    ("verify", {"mode": {"type": "hyperbolic"}, "spec": VERIFY_CFG["spec"]}, 2, "ConfigError"),
    ("corpus", {"corpus": {"count": 2}, "norms": [{"p": 0.0}]}, 3, "QuadratureError"),
    ("selftest", None, 4, "ValueError"),
])
def test_metadata_written_on_failure(monkeypatch, tmp_path, command, cfg, code, error):
    import dunklkit.cli as cli
    monkeypatch.setitem(cli.COMMANDS, "selftest", _raising(ValueError("a library bug")))
    argv = [command, "--out", str(tmp_path / "o")]
    if cfg is not None:
        argv += ["--config", write(tmp_path / "cfg.json", cfg)]
    assert main(argv) == code
    meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
    assert meta["exit_code"] == code and meta["command"] == command
    assert meta["error"]["class"] == error and meta["error"]["message"]


def test_python_m_dunklkit(tmp_path):
    src = str(Path(dunklkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "dunklkit", "selftest", "--help"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dunklkit")
