"""Print one digest line per solve that the benchmark workloads make, and
one per output file of small `nlhelm` CLI runs on three configs.

    python3 tools/solve_digest.py [--seed N] [--fields DIR] [--against DIR] [--repeat K] > digest.txt

Imports nlhelm from this checkout's src/ and reads perfbench/workloads.py by
path (nothing is written under perfbench/). Each workload is built and run
once, in a temporary directory, on single-threaded BLAS as the benchmark
runs it. Every solvers.solve call prints

    <workload> <index> <sha256 of the field bytes> <sha256 of repr(report)>

Then cli.main runs, in a temporary directory, `solve` and `converge
--levels 2` on a small 1D, a small Cartesian and a small cylindrical config
(CLI_CONFIGS), and `compare-nls` on the two multi-D ones, each config's runs
writing to one output directory. Every output file but report.json, which
holds the runtime, prints

    cli <config name> <file name> <sha256 of the file>

so two checkouts give bitwise-identical fields, SolveReports and CLI outputs
exactly when their outputs diff empty. Failed workload checks and failed CLI
runs go to standard error, and the exit status is then 1.

With --fields DIR every workload solve also saves its field as
DIR/<workload>-<index>.npy (DIR is created if missing), so where two
checkouts' digests differ their fields can be compared to a stated relative
tolerance, e.g. for one solve

    a, b = np.load("old/soliton-cart-0.npy"), np.load("new/soliton-cart-0.npy")
    abs(a - b).max() / abs(a).max() <= 1e-12

With --against DIR, a directory that such a run saved, every workload solve
line gains a fifth column, max|E - E_DIR| / max|E_DIR| against
DIR/<workload>-<index>.npy (or "missing"), and the exit status is 1 if any
of them exceeds AGAINST_RTOL or a file is missing.

With --repeat K everything above runs K times in one process and only the
first run's lines are printed, so the output still diffs against a parent's
plain run; the exit status is 1 if any later run's lines differ from the
first run's (each differing line goes to standard error). State that one
solve leaves behind for the next, in a shared operator say, then shows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# largest relative field difference --against accepts
AGAINST_RTOL = 1e-12

# each beam states its amplitude, whose default has differed between
# geometries; the 1D config leaves its right beam absent
CLI_CONFIGS = [
    {"name": "slab-1d", "geometry": "1d", "Zmax": 5.0, "N": 64, "k0": 4.0,
     "sigma": 1.0,
     "layers": [{"z_from": 0.0, "z_to": 2.5, "nu": 1.5, "eps": 0.0},
                {"z_from": 2.5, "z_to": 5.0, "nu": 1.0, "eps": 0.05}],
     "beam_left": {"amplitude_re": 1.0, "amplitude_im": 0.25}},
    {"name": "sech-cart", "geometry": "cartesian", "Zmax": 2.0, "N": 30,
     "extent": 6.0, "M": 60, "k0": 4.0, "sigma": 1.0,
     "layers": [{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
     "beam_left": {"shape": "sech", "r0": 1.5, "amplitude_re": 1.0,
                   "amplitude_im": 0.0, "adjust": True}},
    {"name": "gauss-cyl", "geometry": "cylindrical", "Zmax": 2.0, "N": 16,
     "extent": 1.5, "M": 12, "k0": 4.0, "sigma": 1.0,
     "layers": [{"z_from": 0.0, "z_to": 2.0, "nu": 1.0, "eps": 0.0625}],
     "beam_left": {"shape": "gaussian", "width": 0.5, "amplitude_re": 1.0,
                   "amplitude_im": 0.0, "adjust": True}},
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="digest every benchmark solve")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--fields", type=Path, metavar="DIR",
                        help="also save each workload solve's field as DIR/<workload>-<index>.npy")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare each workload solve's field with DIR/<workload>-<index>.npy")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K times in one process, print the first run and "
                             "exit 1 if a later run's lines differ")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.fields is not None:
        args.fields.mkdir(parents=True, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # must precede the first numpy import
    sys.path.insert(0, str(ROOT / "src"))

    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"),
                               run_name="perfbench_workloads")
    status, first = 0, None
    for run in range(args.repeat):
        lines = []

        def emit(*fields):
            lines.append(" ".join(map(str, fields)))
            if first is None:
                print(lines[-1], flush=True)

        ok = _digest_workloads(args, workloads, emit)
        if not _digest_cli(emit) or not ok:
            status = 1
        if first is None:
            first = lines
        elif lines != first:
            status = 1
            print(f"run {run + 1} differs from run 1:", file=sys.stderr)
            for sign, these, others in (("-", first, lines), ("+", lines, first)):
                for line in these:
                    if line not in others:
                        print(sign, line, file=sys.stderr)
    return status


def _digest_workloads(args, workloads, emit) -> bool:
    """emit one line per workload solve; returns whether every workload check
    passed and every field is within AGAINST_RTOL of --against."""
    import numpy as np
    from nlhelm import solvers

    solve = solvers.solve
    failed = 0
    differs = []
    for name, workload in workloads["WORKLOADS"].items():
        index = 0

        def digest(*a, **kw):
            nonlocal index
            E, report = solve(*a, **kw)
            line = [name, index, _sha(E.astype("<c16").tobytes()),
                    _sha(repr(report).encode())]
            if args.against is not None:
                rel = _relative_difference(E, args.against / f"{name}-{index}.npy")
                line.append("missing" if rel is None else f"{rel:.3e}")
                if rel is None or not rel <= AGAINST_RTOL:
                    print(f"{name} {index}: field {line[-1]} against {args.against}",
                          file=sys.stderr)
                    differs.append(line)
            emit(*line)
            if args.fields is not None:
                np.save(args.fields / f"{name}-{index}.npy", E)
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
    return not failed and not differs


def _relative_difference(E, path: Path) -> float | None:
    """max|E - E_path| / max|E_path| for the field saved at path (inf if its
    shape differs), or None if there is no such file."""
    import numpy as np

    if not path.is_file():
        return None
    ref = np.load(path)
    if ref.shape != E.shape:
        return float("inf")
    return float(np.abs(E - ref).max() / np.abs(ref).max())


def _digest_cli(emit) -> bool:
    """emit one line per output file of the `nlhelm` subcommands on each of
    CLI_CONFIGS; returns whether every run converged (exit status 0)."""
    from nlhelm import cli

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in CLI_CONFIGS:
            out = Path(tmp) / cfg["name"]
            path = Path(tmp) / f"{cfg['name']}.json"
            # the output directory is relative, as the config lands in
            # field.meta.json; the run's own message is not digested
            path.write_text(json.dumps({**cfg, "output_dir": cfg["name"]}))
            commands = [["solve"], ["converge", "--levels", "2"]]
            if cfg["geometry"] != "1d":
                commands.append(["compare-nls"])
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                for command in commands:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli.main([*command, str(path)])
                    if code != 0:
                        print(f"cli {cfg['name']} {command[0]}: exit status {code}",
                              file=sys.stderr)
                        ok = False
            finally:
                os.chdir(cwd)
            for file in sorted(out.iterdir()) if out.is_dir() else ():
                if file.name != "report.json":
                    emit("cli", cfg["name"], file.name, _sha(file.read_bytes()))
    return ok


if __name__ == "__main__":
    sys.exit(main())
