"""tools/bench_pairs.py turns alternating parent/change runs into medians,
quartiles and pairs won, in the direction each metric of BENCHMARK.json
names."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = bench_pairs
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
           {"name": "call_p50_ms", "unit": "ms", "better": "lower"}]


def _run(side, pair, throughput, p50, workload="verify-sweep", trace=0):
    metrics = {"throughput_per_s": {"value": throughput}, "call_p50_ms": {"value": p50}}
    return {"workload": workload, "side": side, "pair": pair, "trace": trace,
            "result": {"metrics": metrics}}


def test_pairs_are_won_in_the_direction_each_metric_names():
    runs = [_run("parent", 1, 100.0, 2.0), _run("change", 1, 150.0, 1.0),
            _run("change", 2, 140.0, 3.0), _run("parent", 2, 110.0, 2.5),
            _run("parent", 3, 90.0, 2.2), _run("change", 3, 80.0, 2.2),
            _run("parent", 4, 95.0, 2.1),                       # a pair left unfinished
            _run("parent", 0, 1.0, 1.0, trace=1)]               # a traced run is not a pair
    out = bench_pairs.summarize(runs, METRICS)
    assert out["change_wins"]["verify-sweep"] == {"throughput_per_s": "2/3",
                                                  "call_p50_ms": "1/3"}   # a tie wins nothing
    assert out["medians"]["verify-sweep"]["parent"]["throughput_per_s"] == 97.5
    assert out["medians"]["verify-sweep"]["change"]["call_p50_ms"] == 2.2
    assert out["quartiles_q1_q3"]["verify-sweep"]["change"]["throughput_per_s"] == [110.0, 145.0]
    text = bench_pairs.claim_text(out, "verify-sweep.throughput_per_s", METRICS)
    assert "97.5 -> 140 1/s (+43.6%)" in text and "won 2/3 pairs" in text


def test_a_failed_run_counts_in_no_pair():
    runs = [_run("parent", 1, 100.0, 2.0), {**_run("change", 1, 0.0, 0.0), "result": None}]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["change_wins"]["verify-sweep"]["throughput_per_s"] == "0/0"
    assert out["medians"]["verify-sweep"]["change"] == {}


def test_a_missing_out_directory_is_made_before_the_first_run(tmp_path, monkeypatch):
    tree = tmp_path / "tree"                     # a checkout directory serves both sides
    tree.mkdir()
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS, "run_seconds": 1}))
    out = tmp_path / "new" / "bench"
    made = []

    def run_once(tree, workload, seed, seconds, trace):
        made.append(out.is_dir())
        return {"returncode": 0, "result": _run("parent", 1, 100.0, 2.0)["result"],
                "notes": [], "stderr_tail": []}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(tree), "--change", str(tree), "--name", "t",
                             "--workload", "wave-picard=1", "--seed", "1",
                             "--out", str(out)]) == 0
    assert made == [True, True]
    assert len(json.loads((out / "BENCH_t.json").read_text())["runs"]) == 2
