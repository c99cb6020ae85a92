"""Write reference.json: the anchor outputs of every workload, full and tiny.

    python3 perfbench/record_reference.py

Run it only when a change is meant to move the package's results, and say
so in that change.  run.py compares each run's anchors with these values at
the per-workload relative tolerance recorded here.
"""

import json

import run

RTOL = {
    "verify-sweep": 1e-6,       # empirical constants of fixed corpora
    "sharp-probe": 1e-3,        # simplex optima: the search path may shift with rounding
    "wave-picard": 1e-6,        # decay fits and final H¹ norms
}


def main() -> None:
    run.import_package()
    import workloads

    out = {"recorded_at": {"git_sha": run.git_sha(), "src_digest": run.source_digest()},
           "rtol": RTOL}
    for size in ("full", "tiny"):
        out[size] = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(tiny=size == "tiny")
            out[size][name] = workload.anchors(workload.setup(0))
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
