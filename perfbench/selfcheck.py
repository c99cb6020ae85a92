"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against the benchmark contract, runs every workload
at the --tiny size with --trace 0 and --trace 1, and requires of each run:
exit code 0, a last line with exactly the keys correct/attempted/failed/
metrics, no failed operation (error rate 0), and exactly the metric names
and units BENCHMARK.json declares for that trace mode, all finite.  Last,
it runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark's files, where it must fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TIMEOUT_S = 180


def check_declaration(bench: dict) -> list:
    problems = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w['name']}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"metric entry {m['name']}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"bounds {bounds}")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] < max(bounds.values()):
        problems.append("setup_s must be declared in s, lower is better, with the largest bound")
    if not (1 <= len(bench["workloads"]) <= 8 and 1 <= len(bench["per_layer"]) <= 128):
        problems.append("workload or per-layer metric count out of range")
    return problems


def run(cwd: Path, workload: str, trace: int) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def check_run(bench: dict, workload: str, trace: int) -> list:
    code, out, err = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0:
        return [f"{where}: exit code {code}: {err[-400:]}"]
    result = json.loads(out.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}: {err[-600:]}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"{where}: metric names/units differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(declared.items()))}")
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or (not trace and value == 0):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def check_bare_directory(bench: dict) -> list:
    """Without src/ the benchmark must exit non-zero and print no result."""
    bare = ROOT / ".perfbench" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or '"metrics"' in out:
        return [f"bare directory: exit code {code}, output {out[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_declaration(bench)
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, w["name"], trace)
            print(f"{w['name']:<16} trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    problems += check_bare_directory(bench)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
