"""Count the src/ lines that the tier-1 tests never run, per module.

    python3 tools/untested_lines.py [extra pytest arguments]

Runs the tier-1 command (`pytest -q --continue-on-collection-errors`, with
src/ first on sys.path) in this process under the stdlib `trace` module, and
prints one Markdown table on stdout: for each module of src/dunklkit, the
number of executable lines that no test ran, and which lines they are.
pytest's own report goes to stderr.  Code run only in a subprocess (the
`--help` and import checks, so `__main__`) is not seen.  The exit status is
pytest's.  Standard library only; the traced run takes about 1.5 min
(2 cores), against about 1 min untraced.
"""

from __future__ import annotations

import contextlib
import os
import sys
import sysconfig
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def never_run(coverdir: Path) -> dict:
    """{module: line numbers} from trace's annotated listings of the package,
    where a line marked `>>>>>>` is executable and never ran."""
    out = {}
    for path in sorted(coverdir.glob("dunklkit.*.cover")):
        lines = path.read_text().splitlines()
        out[path.name[len("dunklkit."):-len(".cover")]] = [
            i for i, line in enumerate(lines, 1) if line.startswith(">>>>>>")]
    return out


def ranges(numbers: list) -> str:
    """3, 4, 5, 9 as "3-5, 9"."""
    spans: list = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def table(missing: dict) -> str:
    rows = ["| module | never run | lines |", "|---|---:|---|"]
    rows += [f"| {m} | {len(ns)} | {ranges(ns)} |" for m, ns in missing.items()]
    rows.append(f"| all | {sum(map(len, missing.values()))} | |")
    return "\n".join(rows)


def main(argv=None) -> int:
    import pytest
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    skip = {sys.prefix, sys.exec_prefix, sys.base_prefix, sysconfig.get_paths()["stdlib"]}
    tracer = trace.Trace(count=1, trace=0, ignoredirs=sorted(skip))
    with contextlib.redirect_stdout(sys.stderr):
        code = tracer.runfunc(pytest.main, TIER1 + list(sys.argv[1:] if argv is None else argv))
    with tempfile.TemporaryDirectory() as tmp:
        tracer.results().write_results(show_missing=True, summary=False, coverdir=tmp)
        print(table(never_run(Path(tmp))))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
