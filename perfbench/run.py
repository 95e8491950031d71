"""Runs one nlhelm benchmark workload and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Imports nlhelm from ./src, runs one workload
in a closed loop (one process, one solve at a time) for about S seconds, at
least one pass, and checks every result. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is the JSON result. Exits 1 if any check fails, 2 if the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One solve at a time on single-threaded BLAS: on a small shared machine this
# ran faster and steadier than one BLAS thread per core.
BLAS_THREADS = 1
EXTRA_SETUPS = 2    # set-ups timed before the first pass, for a median of >= 3
IMPORT_SAMPLES = 3  # fresh interpreters timing `import nlhelm`

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s",
    "solves_per_min": "1/min", "peak_rss_mb": "MB", "power_dev": "ratio",
    "oracle_err": "abs",
}

# per-layer metric -> (span name, "self_s" | "calls")
SPAN_METRICS = {
    "solvers.lu_s": ("solvers.sparse_lu_solve", "self_s"),
    "solvers.lu_calls": ("solvers.sparse_lu_solve", "calls"),
    "solvers.self_s": ("solvers.solve", "self_s"),
    "system.jacobian_s": ("system.jacobian_real", "self_s"),
    "system.jacobian_calls": ("system.jacobian_real", "calls"),
    "system.residual_s": ("system.residual_complex", "self_s"),
    "system.frozen_operator_s": ("system.frozen_operator", "self_s"),
    "helmholtz_nd.build_s": ("helmholtz_nd.build", "self_s"),
    "helmholtz_nd.vacuum_solve_s": ("helmholtz_nd.vacuum_solve", "self_s"),
    "helmholtz_nd.vacuum_solve_calls": ("helmholtz_nd.vacuum_solve", "calls"),
    "helmholtz_nd.vacuum_operator_s": ("helmholtz_nd.vacuum_operator", "self_s"),
    "transverse.suite_s": ("transverse.suite", "self_s"),
    "transverse.eigensolve_s": ("transverse.eigensolve", "self_s"),
    "transverse.eigensolve_calls": ("transverse.eigensolve", "calls"),
    "helmholtz_1d.build_s": ("helmholtz_1d.build", "self_s"),
    "helmholtz_1d.builds": ("helmholtz_1d.build", "calls"),
    "helmholtz_1d.vacuum_solve_s": ("helmholtz_1d.vacuum_solve", "self_s"),
    "helmholtz_1d.oracle_s": ("helmholtz_1d.oracle", "self_s"),
    "beams.incoming_s": ("beams.incoming", "self_s"),
    "beams.nls_march_s": ("beams.nls_march", "self_s"),
    "beams.flux_s": ("beams.flux", "self_s"),
    "cli.build_problem_s": ("cli.build_problem", "self_s"),
    "cli.write_s": ("cli.write", "self_s"),
    "cli.read_s": ("cli.read", "self_s"),
    "fields.real_split_s": ("fields.real_split", "self_s"),
}
# per-layer metric -> Recorder count
COUNT_METRICS = ("solvers.iterations", "solvers.relaxed_steps",
                 "solvers.wasted_iterations", "beams.nls_steps", "cli.bytes_written")


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "cli.bytes_written":
        return "bytes"
    return "ratio" if name.endswith("_frac") else "count"


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def import_seconds() -> float:
    """Median time of `import nlhelm` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import nlhelm; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_pass(workload, seed: int):
    """Build and execute one pass; returns (Recorder, wall seconds)."""
    from workloads import Recorder

    rec = Recorder()
    t0 = time.perf_counter()
    with rec.timed("setup"):
        state = workload.build(seed)
    workload.execute(state, rec, RESULTS)
    return rec, time.perf_counter() - t0


def end_to_end(workload, seed: int, seconds: float):
    setups = []
    for _ in range(EXTRA_SETUPS):
        t0 = time.perf_counter()
        workload.build(seed)
        setups.append(time.perf_counter() - t0)
    # start another pass only if it should end within `seconds`, judged by
    # the last pass; the ~30 s 2D workloads therefore always run one pass
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1][1] <= seconds:
        passes.append(run_pass(workload, seed))
    setups += [rec.times["setup"] for rec, _ in passes]
    med = statistics.median
    metrics = {
        "wall_s": med([wall for _, wall in passes]),
        "setup_s": import_seconds() + med(setups),
        "solve_s": med([rec.times["solve"] for rec, _ in passes]),
        "solves_per_min": med([60.0 * (rec.attempted - rec.failed) / wall
                               for rec, wall in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a pass whose check failed may lack an accuracy figure
        "power_dev": max(rec.accuracy.get("power_dev", math.nan) for rec, _ in passes),
        "oracle_err": max(rec.accuracy.get("oracle_err", math.nan) for rec, _ in passes),
    }
    # post_s (diagnostics and output) is reported but not a gated metric: it
    # lasts 15-150 ms, and on a shared machine its run-to-run spread exceeds
    # any allowed bound
    extra = {"post_s": med([rec.times["post"] for rec, _ in passes]),
             "pass_walls": [wall for _, wall in passes]}
    return [rec for rec, _ in passes], metrics, extra


def per_layer(workload, name: str, seed: int):
    from spans import Tracer, targets

    workload.build(seed)  # warm lazy imports so both passes start alike
    plain, plain_wall = run_pass(workload, seed)
    tracer = Tracer(run_id=f"{name}-seed{seed}")
    tracer.install(targets())
    try:
        with tracer.span("pass"):
            traced, traced_wall = run_pass(workload, seed)
    finally:
        tracer.remove()
    self_s, calls = tracer.summary()
    metrics = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        metrics[metric] = (self_s if kind == "self_s" else calls).get(span, 0)
    for metric in COUNT_METRICS:
        metrics[metric] = traced.counts[metric]
    solves = traced.counts["solvers.solves"]
    metrics["solvers.unknowns_per_solve"] = traced.counts["solvers.unknowns"] / solves
    solve_total = sum(s["end"] - s["start"] for s in tracer.spans
                      if s["name"] == "solvers.solve")
    metrics["trace.attributed_frac"] = 1.0 - self_s["solvers.solve"] / solve_total
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - plain_wall

    missing = sorted(workload.spans - calls.keys())
    if missing:
        traced.failed += 1
        traced.failures.append(f"expected spans recorded no call: {', '.join(missing)}")
    spans_file = RESULTS / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.spans))
    return [plain, traced], metrics, {"spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlhelm" / "__init__.py").is_file():
        print(f"error: nlhelm sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import nlhelm

    if Path(nlhelm.__file__).resolve().parent != SRC / "nlhelm":
        print(f"error: imported nlhelm from {nlhelm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    env = environment(args.seed, nproc)

    if args.trace:
        recs, metrics, extra = per_layer(workload, args.workload, args.seed)
    else:
        recs, metrics, extra = end_to_end(workload, args.seed, args.seconds)
    attempted = sum(rec.attempted for rec in recs)
    failed = sum(rec.failed for rec in recs)
    failures = [f for rec in recs for f in rec.failures]
    counts = dict(recs[-1].counts)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace,
                  environment=env, counts=counts, failures=failures, **extra)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print("counts " + json.dumps(counts, sort_keys=True))
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} solves)")
    if "post_s" in extra:
        print(f"post_s = {extra['post_s']:.6g} s (reported, not gated)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
