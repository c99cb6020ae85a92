"""Run perfbench/run.py on a parent and a change checkout in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --name corpusarrays \\
        --workload verify-sweep=10 --workload sharp-probe=5 --workload wave-picard=3 \\
        --seed 4817 --claim verify-sweep.throughput_per_s --what "one line on the change"

--parent and --change each name a git revision of this repository, exported
with `git archive` into --workdir, or a directory that already holds a
checkout (src/, perfbench/ and BENCHMARK.json).  Pair i runs the parent
first when i is odd and the change first when i is even, so a drift of the
host does not favour one side.  Each run is
`python3 perfbench/run.py --workload <w> --seed <seed> --seconds <s> --trace 0`
in its checkout, where <s> is BENCHMARK.json's `run_seconds`, the same on
both sides; its last line of output is the result.  --trace W adds one
`--trace 1` run of workload W per side.

BENCH_<name>.json (written after every run, so an interrupted session keeps
what it measured) holds, per workload and end-to-end metric of BENCHMARK.json:
the median and the quartiles of each side, and in how many pairs the change
was better, in the direction the metric names.  --claim <workload>.<metric>
adds a sentence with the median change, the parent's interquartile range
and the pairs won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def checkout(ref: str, workdir: Path, side: str) -> Path:
    """A directory holding `ref`: the directory itself, or a git archive of it."""
    if Path(ref).is_dir():
        return Path(ref).resolve()
    dest = workdir / side
    dest.mkdir(parents=True, exist_ok=False)
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", ref], stdout=fh, check=True)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **BLAS})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    # the metric lines run.py prints before its result carry each metric's note
    notes = [line for line in lines[:-1] if " n=" in line]
    return {"returncode": proc.returncode, "result": result, "notes": notes,
            "stderr_tail": proc.stderr.strip().splitlines()[-3:] if result is None else []}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(runs: list, metrics: list) -> dict:
    """Medians, quartiles and pairs won, per workload and metric."""
    out = {"medians": {}, "quartiles_q1_q3": {}, "change_wins": {}}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        pairs: dict = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0 and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        for key in ("medians", "quartiles_q1_q3", "change_wins"):
            out[key][workload] = {}
        for side in ("parent", "change"):
            vals = {m["name"]: [p[side][m["name"]]["value"] for p in pairs.values() if side in p]
                    for m in metrics}
            out["medians"][workload][side] = {k: round(statistics.median(v), 4)
                                              for k, v in vals.items() if v}
            out["quartiles_q1_q3"][workload][side] = {k: quartiles(v)
                                                      for k, v in vals.items() if v}
        full = [p for p in pairs.values() if len(p) == 2]
        for m in metrics:
            sign = 1.0 if m["better"] == "higher" else -1.0
            won = sum(sign * (p["change"][m["name"]]["value"] - p["parent"][m["name"]]["value"]) > 0
                      for p in full)
            out["change_wins"][workload][m["name"]] = f"{won}/{len(full)}"
    return out


def claim_text(summary: dict, claim: str, metrics: list) -> str:
    workload, metric = claim.split(".", 1)
    unit = next(m["unit"] for m in metrics if m["name"] == metric)
    med = {side: summary["medians"][workload][side][metric] for side in ("parent", "change")}
    q1, q3 = summary["quartiles_q1_q3"][workload]["parent"][metric]
    pct = 100.0 * (med["change"] / med["parent"] - 1.0)
    return (f"{workload} {metric}: median {med['parent']:.4g} -> {med['change']:.4g} {unit} "
            f"({pct:+.1f}%), against a parent interquartile range of {q1:.4g}-{q3:.4g} "
            f"({q3 - q1:.4g} {unit}, the gain is {abs(med['change'] - med['parent']):.4g}); "
            f"the change won {summary['change_wins'][workload][metric]} pairs")


def host() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS["OPENBLAS_NUM_THREADS"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision or checkout directory")
    ap.add_argument("--change", required=True, help="git revision or checkout directory")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME=PAIRS",
                    help="a workload and its number of pairs; repeat for more")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="WORKLOAD", help="one --trace 1 run per side")
    ap.add_argument("--claim", metavar="WORKLOAD.METRIC")
    ap.add_argument("--what", default="", help="what the change does, for the file")
    ap.add_argument("--workdir", type=Path, help="where revisions are exported")
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)   # before a run whose result it keeps

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: checkout(ref, workdir, side)
             for side, ref in (("parent", args.parent), ("change", args.change))}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.workload)]
    path = args.out / f"BENCH_{args.name}.json"
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "order": "pairs run one after another, parent first in odd pairs and change first "
                 "in even pairs; " + ", ".join(f"{w} {n} pairs" for w, n in plan)
                 + (f"; then one --trace 1 {args.trace} run per side" if args.trace else ""),
        "sides": {"parent": args.parent, "change": args.change},
        "host": host(),
        "runs": [],
    }

    def record(run: dict) -> None:
        doc["runs"].append(run)
        doc.update(summarize(doc["runs"], metrics))
        if args.claim:
            workload, metric = args.claim.split(".", 1)
            meds = doc["medians"].get(workload, {})
            if all(metric in meds.get(side, {}) for side in ("parent", "change")):
                doc["claim"] = claim_text(doc, args.claim, metrics)
        path.write_text(json.dumps(doc, indent=1) + "\n")
        res = run["result"]
        shown = {k: round(v["value"], 3) for k, v in res["metrics"].items()} if res else run
        print(f"{run['workload']} pair {run['pair']} {run['side']}: {shown}", flush=True)

    for workload, n in plan:
        for pair in range(1, n + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, args.seed, seconds, 0)
                record({"workload": workload, "side": side, "pair": pair, "trace": 0, **run})
    if args.trace:
        for side in ("parent", "change"):
            run = run_once(trees[side], args.trace, args.seed, seconds, 1)
            record({"workload": args.trace, "side": side, "pair": 0, "trace": 1, **run})
    return 0


if __name__ == "__main__":
    sys.exit(main())
