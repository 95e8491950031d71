"""Print one digest line per solve that the benchmark workloads make.

    python3 tools/solve_digest.py [--seed N] > digest.txt

Imports nlhelm from this checkout's src/ and reads perfbench/workloads.py by
path (nothing is written under perfbench/). Each workload is built and run
once, in a temporary directory, on single-threaded BLAS as the benchmark
runs it. Every solvers.solve call prints

    <workload> <index> <sha256 of the field bytes> <sha256 of repr(report)>

so two checkouts give bitwise-identical fields and SolveReports exactly when
their outputs diff empty. Failed workload checks go to standard error, and
the exit status is then 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digest every benchmark solve")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # must precede the first numpy import
    sys.path.insert(0, str(ROOT / "src"))
    from nlhelm import solvers

    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"),
                               run_name="perfbench_workloads")
    solve = solvers.solve
    failed = 0
    for name, workload in workloads["WORKLOADS"].items():
        index = 0

        def digest(*a, **kw):
            nonlocal index
            E, report = solve(*a, **kw)
            field = _sha(E.astype("<c16").tobytes())
            print(name, index, field, _sha(repr(report).encode()), flush=True)
            index += 1
            return E, report

        rec = workloads["Recorder"]()
        solvers.solve = digest
        try:
            with tempfile.TemporaryDirectory() as tmp:
                workload.execute(workload.build(args.seed), rec, Path(tmp))
        finally:
            solvers.solve = solve
        for failure in rec.failures:
            print(f"{name}: {failure}", file=sys.stderr)
        failed += rec.failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
