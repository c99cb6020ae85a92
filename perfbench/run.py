"""dunklkit benchmark: one workload, closed loop, in-process, public API only.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 runs the same loop untraced for half the time, then installs the
span recorder (tracing.py), sets up again and runs the loop traced; it
prints the per-layer metrics of a fixed window (the traced set-up plus the
workload's first `trace_rounds` rounds) and the tracing overhead.
--tiny shrinks every workload for the self-check (selfcheck.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run environment, the reference
loop timings and the full result go to the lines before it and to
.perfbench/ in the checkout.  The program is imported from src/ next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# One BLAS thread: on a shared 2-core host a second one made wave-picard no faster.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# README configs for the cli.command_s.<cmd> metrics
CLI_CONFIGS = {
    "verify": {
        "mode": {"type": "radial", "N": 3, "gamma": 0.0},
        "spec": {"theorem": "FractionalHardy", "params": {"N": 3, "gamma": 0.0, "s": 1.0}},
        "corpus": {"seed": 7, "count": 20,
                   "families": ["Gaussian", "DilatedGaussian", "HermiteGaussian"]},
    },
    "sharp": {
        "mode": {"type": "radial", "N": 3, "gamma": 0.0},
        "spec": {"theorem": "FractionalHardy", "params": {"N": 3, "gamma": 0.0, "s": 1.0}},
        "family": {"tag": "InversePower"},
        "optimizer": {"restarts": 3, "max_iters": 120, "tolerance": 1e-4, "seed": 7},
    },
    "wave": {
        "wave": {"b": 1.0, "m": 1.0, "epsilon": 0.01, "p": 3.0, "mode": "rank1", "k": 0.5,
                 "grid": {"x_max": 16, "nx": 280, "xi_max": 20, "nxi": 280},
                 "time": {"T": 10.0, "dt": 0.01}, "data": {"gaussian_scale": 1.0}},
    },
    "corpus": {
        "mode": {"type": "rank1", "k": 0.5},
        "corpus": {"seed": 3, "count": 4, "families": ["Gaussian", "HermiteGaussian"]},
        "norms": [{"p": 2.0, "a": 0.0}, {"p": 1.0, "a": 1.0}],
    },
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["verify-sweep", "sharp-probe", "wave-picard"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken workloads (self-check)")
    return ap.parse_args(argv)


def import_package() -> float:
    """Import dunklkit from this checkout's src/; returns the import time."""
    os.environ.update(BLAS_ENV)
    if not (SRC / "dunklkit" / "__init__.py").is_file():
        raise ImportError(f"no dunklkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dunklkit
    elapsed = time.perf_counter() - t0
    if Path(dunklkit.__file__).resolve().parent != SRC / "dunklkit":
        raise ImportError(f"dunklkit imported from {dunklkit.__file__}, not {SRC}")
    return elapsed


# ---------------------------------------------------------------------------
# environment and reference loop


def source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "dunklkit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "src_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def reference_loop() -> dict:
    """Fixed host-speed probes, reported next to the metrics, never used to
    rescale them: a pure-Python loop and a 256×256 float64 matmul."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((256, 256))

    def py_loop():
        total = 0
        for i in range(200_000):
            total += i * i
        return total

    out = {}
    for name, fn, reps in (("python_loop_ms", py_loop, 7), ("matmul_256_ms", lambda: a @ a, 31)):
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append(1e3 * (time.perf_counter() - t0))
        out[name] = statistics.median(samples)
    return out


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs rounds of operations, timing each call and checking its output."""

    def __init__(self, workload, state, seed: int, tracer=None):
        self.workload, self.state, self.seed, self.tracer = workload, state, seed, tracer
        self.durations = {}          # (round, index) -> seconds, every op
        self.labels = {}             # (round, index) -> op label
        self.latencies = []          # seconds, ops that complete work
        self.units = 0
        self.busy = 0.0
        self.attempted = 0
        self.failures = []
        self.rounds = 0
        self.peak_rss_mb = None      # ru_maxrss at the end of round workload.rss_rounds

    def run_op(self, op, key) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{key[0]}.{key[1]}"
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:                 # an op failure is counted, not fatal
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return
        finally:
            dt = time.perf_counter() - t0
            self.durations[key] = dt
            self.labels[key] = op.label
            self.busy += dt
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{op.label}: {'; '.join(problems)}")
            return
        if op.units:
            self.latencies.append(dt)
            self.units += op.units

    def run(self, seconds: float, min_rounds: int = 1, window_rounds: int = 0) -> None:
        """Whole rounds until `seconds` have passed and `min_rounds` are done;
        the tracer window closes after `window_rounds` rounds."""
        t_end = time.perf_counter() + seconds
        while self.rounds < min_rounds or time.perf_counter() < t_end:
            r = self.rounds
            for j, op in enumerate(self.workload.ops(self.state, self.seed, r)):
                self.run_op(op, (r, j))
            self.rounds += 1
            if self.rounds == self.workload.rss_rounds:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if self.tracer is not None and self.rounds >= window_rounds:
                self.tracer.window_open = False


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean of
    all order statistics.  The calls of a round cost different amounts, so
    a percentile can sit where one group of calls ends and the next begins;
    a single or interpolated order statistic jumps between the two groups
    with small shifts of host speed, the weighted mean moves smoothly."""
    if len(values) < 2:
        return values[0]
    from scipy.stats.mstats import hdquantiles
    return float(hdquantiles(values, prob=[q / 100.0])[0])


def check_anchors(workload, state, tiny: bool) -> list:
    """Compare the workload's anchors with reference.json at its tolerance."""
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    entry = ref["tiny" if tiny else "full"][workload.name]
    rtol = ref["rtol"][workload.name]
    got = workload.anchors(state)
    problems = []
    for key in sorted(set(entry) | set(got)):
        want, have = entry.get(key), got.get(key)
        if want is None or have is None or not abs(have - want) <= rtol * abs(want):
            problems.append(f"anchor {key}: {have!r} vs reference {want!r} (rtol {rtol:g})")
    return problems


# ---------------------------------------------------------------------------
# traced-run extras


def cli_commands(work: Path) -> tuple[dict, list]:
    """cli.command_s.<cmd>: each README command once, in-process."""
    from dunklkit import cli
    times, failures = {}, []
    for cmd, cfg in CLI_CONFIGS.items():
        cdir = work / cmd
        cdir.mkdir(parents=True, exist_ok=True)
        (cdir / "config.json").write_text(json.dumps(cfg))
        t0 = time.perf_counter()
        code = cli.main([cmd, "--config", str(cdir / "config.json"), "--out", str(cdir / "out")])
        times[f"cli.command_s.{cmd}"] = time.perf_counter() - t0
        if code != 0:
            failures.append(f"cli {cmd}: exit code {code}")
    return times, failures


def import_times() -> dict:
    """cli.import_s and cli.import_scipy_signal_s from a fresh interpreter's
    -X importtime (cumulative microseconds per module)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dunklkit"],
                          env=env, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr[-500:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {"cli.import_s": cumulative["dunklkit"],
            "cli.import_scipy_signal_s": cumulative.get("scipy.signal", 0.0)}


def overhead_pct(untraced: dict, traced: dict) -> float:
    """Tracing overhead over the ops both phases ran (same inputs), leaving
    out round 0, which runs in a colder process in the untraced phase."""
    common = untraced.keys() & traced.keys()
    common = {key for key in common if key[0] > 0} or common
    base = sum(untraced[k] for k in common)
    return 100.0 * (sum(traced[k] for k in common) / base - 1.0)


# ---------------------------------------------------------------------------
# the two modes; each returns ({metric: (value, samples, note)}, last loop,
# operations attempted outside that loop, failures outside that loop)


def end_to_end(workload, seed: int, seconds: float, import_s: float):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None                                 # free the previous set-up first
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    loop = Loop(workload, state, seed)
    loop.run(seconds, min_rounds=workload.rss_rounds)
    lat_ms = [1e3 * v for v in loop.latencies] or [0.0]
    calls = f"{workload.call_name} calls"
    metrics = {
        "throughput_per_s": (loop.units / loop.busy, loop.units,
                             f"{workload.unit} per busy second"),
        "call_p50_ms": (percentile(lat_ms, 50), len(loop.latencies), calls),
        "call_p90_ms": (percentile(lat_ms, 90), len(loop.latencies), calls),
        "setup_s": (import_s + statistics.median(setup_times), SETUP_REPEATS,
                    f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups"),
        "peak_rss_mb": (loop.peak_rss_mb, 1,
                        f"ru_maxrss after set-up and {workload.rss_rounds} rounds"),
    }
    return metrics, loop, 0, []


def per_layer(workload, seed: int, seconds: float, tag: str):
    import tracing
    import workloads

    plain = Loop(workload, workload.setup(seed), seed)
    plain.run(seconds / 2.0)
    plain.state = None                               # free the untraced set-up
    work = OUT / f"cli-{tag}-{os.getpid()}"
    try:
        extras, failures = cli_commands(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    extras.update(import_times())

    tracer = tracing.Tracer()
    tracer.install()
    tracer.window_open = True
    tracer.op = "setup"
    loop = Loop(workload, workload.setup(seed), seed, tracer)
    loop.run(seconds / 2.0, min_rounds=workload.trace_rounds,
             window_rounds=workload.trace_rounds)
    tracer.window_open = False
    tracer.dump(OUT / f"spans-{tag}.json")

    layer = tracer.layer_metrics(sorted({s.theorem for s, _, _ in workloads.verify_specs()}))
    layer.update(extras)
    layer["trace.overhead_pct"] = overhead_pct(plain.durations, loop.durations)
    metrics = {name: (value, 1, "") for name, value in layer.items()}
    return metrics, loop, plain.attempted + len(CLI_CONFIGS), plain.failures + failures


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    env = environment()
    ref_loop = reference_loop()

    if args.trace:
        metrics, loop, attempted, failures = per_layer(workload, args.seed, args.seconds, tag)
    else:
        metrics, loop, attempted, failures = end_to_end(workload, args.seed, args.seconds,
                                                        import_s)
    undeclared = sorted(set(metrics) ^ set(units))
    if undeclared:
        print(f"perfbench: metrics not matching BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 3

    attempted += loop.attempted + 1                  # the anchor check counts as one op
    failures += loop.failures
    try:
        anchor_problems = check_anchors(workload, loop.state, args.tiny)
    except Exception as exc:
        anchor_problems = [f"anchors: {type(exc).__name__}: {exc}"]
        traceback.print_exc(file=sys.stderr)
    failed = len(failures) + bool(anchor_problems)
    failures += anchor_problems

    for name, (value, n, note) in metrics.items():
        print(f"{name:<44} {value:>16.6g} {units[name]:<6} n={n:<6} {note}")
    print(f"rounds={loop.rounds} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:g} wall_s={time.perf_counter() - T_START:.2f}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps({**env, "reference_loop": ref_loop}))

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "samples": {k: v[1] for k, v in metrics.items()}, "env": env,
         "reference_loop": ref_loop, "failures": failures, "rounds": loop.rounds,
         "ops": [[f"{r}.{j}", loop.labels[r, j], dt] for (r, j), dt in loop.durations.items()]},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
