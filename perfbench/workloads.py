"""The benchmark workloads: set-up, solves, diagnostics and correctness checks.

Each workload is a `build(seed)` that constructs every problem (timed as
set-up) and an `execute(state, rec, workdir)` that solves and checks them.
Calls into nlhelm go through module attributes (``solvers.solve``,
``beams.poynting_flux``, ...) so that the traced run sees every one of them.
"""

from __future__ import annotations

import math
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nlhelm import beams, cli, fields, helmholtz_1d, helmholtz_nd, solvers


class Recorder:
    """Timings, solve outcomes, exact counts and accuracy figures of one pass."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.accuracy: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.last_solve_s = 0.0
        self._errors: list[str] | None = None  # failures of the open case

    @contextmanager
    def timed(self, bucket: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[bucket] += time.perf_counter() - t0

    @contextmanager
    def case(self, name: str):
        """One solve and its checks. A raise or a failed check fails the solve."""
        self.attempted += 1
        self._errors = []
        try:
            yield
        except Exception:  # a solve that raises is a failed solve, not a crash
            self._errors.append(traceback.format_exc().strip())
        if self._errors:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(self._errors))
        self._errors = None

    def check(self, ok: bool, what: str):
        if not ok:
            self._errors.append(what)

    def solve(self, problem, expected: str = "converged", **kwargs):
        """solvers.solve, timed and counted; checks the outcome is `expected`
        ("converged" or a divergence reason)."""
        t0 = time.perf_counter()
        E, report = solvers.solve(problem, **kwargs)
        self.last_solve_s = time.perf_counter() - t0
        self.times["solve"] += self.last_solve_s
        c = self.counts
        c["solvers.solves"] += 1
        c["solvers.unknowns"] += 2 * problem.size
        c["solvers.iterations"] += report.iterations
        c["solvers.relaxed_steps"] += sum(
            h.applied_step_norm < h.step_norm for h in report.history)
        if not report.converged:
            c["solvers.wasted_iterations"] += report.iterations
        outcome = "converged" if report.converged else report.divergence_reason
        self.check(outcome == expected, f"outcome {outcome}, expected {expected}")
        return E, report

    def worst(self, name: str, value: float):
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), float(value))


@dataclass(frozen=True)
class Workload:
    build: Callable
    execute: Callable
    spans: frozenset  # span names that must fire in a traced pass


def _power_deviation(E, grid, k0) -> float:
    """Max relative beam-power deviation over nodes 2..N-2."""
    return beams.poynting_flux(E, grid, k0).power_deviation(2, grid.N - 2)


def _entry_profile_error(E, target) -> float:
    """Max deviation of |E| on the entry face from the intended beam profile."""
    return float(np.abs(np.abs(E[3, :]) - target).max())


# --- soliton-cart: the CLI path of the soliton-2d-desk preset ---------------

def build_soliton(seed):
    cfg = cli.preset("soliton-2d-desk")
    problem, grid, mat, config = cli.build_problem(cfg)
    return cfg, problem, grid, mat, config


def execute_soliton(state, rec: Recorder, workdir: Path):
    cfg, problem, grid, mat, config = state
    with rec.case(cfg.name):
        E, report = rec.solve(problem, config=config, method=cfg.solver)
        with rec.timed("post"):
            flux = beams.poynting_flux(E, grid, mat.k0)
            axis = beams.on_axis_index(grid)
            s = flux.S_z[(flux.z >= 2.0) & (flux.z <= 38.0), axis]
            flatness = (s.max() - s.min()) / s.mean()
            peak = beams.oscillation_spectrum(
                np.abs(E[3:grid.N + 4, axis]) ** 2, grid.h_z)
            power_dev = flux.power_deviation(2, grid.N - 2)
            with tempfile.TemporaryDirectory(dir=workdir) as tmp:
                out = Path(tmp)
                cli.write_outputs(out, cfg, E, grid, mat, report, rec.last_solve_s)
                # report.json is left out: it records the varying solve time
                rec.counts["cli.bytes_written"] += sum(
                    f.stat().st_size for f in out.iterdir() if f.name != "report.json")
                _, E_back = cli.read_field(out / "field.bin")
        rec.check(flatness <= 0.05, f"on-axis S_z varies by {flatness:.4f} > 0.05")
        rec.check(peak.found and abs(peak.frequency - 2 * mat.k0) <= 0.05 * 2 * mat.k0,
                  f"|E|^2 oscillation peak {peak.frequency:.4f} not within 5% of 2k0")
        rec.check(power_dev <= 0.01, f"beam-power deviation {power_dev:.5f} > 0.01")
        rec.check(E_back.shape == E.shape and E_back.tobytes() == E.tobytes(),
                  "field file does not round-trip bit-exact")
        rec.worst("power_dev", power_dev)
        x = grid.transverse_coords()
        rec.worst("oracle_err", _entry_profile_error(
            E, 1.0 / np.cosh(x / cfg.beam_left["r0"])))


# --- collapse-cyl: axisymmetric collapse arrest -----------------------------

def build_collapse(seed):
    cfg = cli.preset("collapse-cyl-desk")
    layer = cfg.layers[0]
    mat = fields.MaterialStack(k0=cfg.k0, sigma=cfg.sigma, layers=(
        fields.Layer(layer["z_from"], layer["z_to"], layer["nu"], layer["eps"]),))
    beam = dict(shape=cfg.beam_left["shape"], width=cfg.beam_left["width"])
    coarse = fields.build_grid_multi(cfg.Zmax, cfg.N // 2, cfg.extent, cfg.M // 2,
                                     cfg.geometry)
    problem = helmholtz_nd.HelmholtzProblem(coarse, mat, einc_left=beams.make_incoming(
        beams.BeamSpec(**beam, adjust=True), coarse, mat))
    fine = fields.build_grid_multi(cfg.Zmax, cfg.N, cfg.extent, cfg.M, cfg.geometry)
    raw = beams.make_incoming(beams.BeamSpec(**beam, adjust=False), fine, mat)
    return mat, problem, coarse, fine, raw, beam["width"]


def execute_collapse(state, rec: Recorder, workdir: Path):
    mat, problem, grid, fine, raw, width = state
    eps = mat.layers[0].eps
    with rec.case("collapse-cyl 216x72"):
        E, _ = rec.solve(problem)
        with rec.timed("post"):
            power_dev = _power_deviation(E, grid, mat.k0)
            nls = beams.nls_march(fine, mat.k0, eps, mat.sigma, raw, dz=fine.h_z)
        rec.counts["beams.nls_steps"] += len(nls.z) - 1
        amp2 = np.abs(E) ** 2
        peak = eps * amp2.max()
        z_focus = float(np.argmax(amp2[3:grid.N + 4, 0])) * grid.h_z
        rec.check(bool(np.isfinite(amp2).all()) and 3.0 <= peak <= 6.0,
                  f"eps*max|E|^2 = {peak:.4f} outside [3, 6]")
        rec.check(5.0 <= z_focus <= 7.5, f"on-axis focus z = {z_focus:.4f} outside [5, 7.5]")
        rec.check(nls.blew_up and nls.z_star is not None and nls.z_star < 9.0,
                  f"paraxial march did not flag blow-up before z=9 (z*={nls.z_star})")
        rec.worst("power_dev", power_dev)
        rec.worst("oracle_err", _entry_profile_error(
            E, np.exp(-(grid.transverse_coords() / width) ** 2)))


# --- small-batch: many small solves, each building its own problem ----------

K0 = 4.0
SLAB = 5.0                                  # 1D slab length
LINEAR_N = (64, 128, 256, 512, 1024, 2048)  # nested grids for the oracle check
KERR_N = 256
KERR_METHODS = (("newton", "converged"), ("freezing", "converged"), ("born", "MaxIter"))
# (Zmax, N, method, expected outcome); all share h_z = 16/102 and M = 56
SOLITON_SLABS = ((16.0, 102, "born", "converged"), (32.0, 204, "born", "converged"),
                 (48.0, 306, "born", "converged"), (64.0, 408, "born", "NaN"),
                 (16.0, 102, "freezing", "converged"))


def _soliton_slab(Zmax, N):
    mat = fields.MaterialStack(k0=K0, sigma=1.0,
                               layers=(fields.Layer(0.0, Zmax, 1.0, 1.0 / 16.0),))
    grid = fields.build_grid_multi(Zmax, N, 6.0, 56, "cartesian")
    beam = beams.make_incoming(
        beams.BeamSpec(shape="sech", r0=math.sqrt(2.0), adjust=True), grid, mat)
    return helmholtz_nd.HelmholtzProblem(grid, mat, einc_left=beam)


def build_small(seed):
    rng = np.random.default_rng(seed)
    # (a) linear 3-layer stack, boundaries on nodes of the coarsest grid
    h0 = SLAB / LINEAR_N[0]
    edges = [0.0, (20 + int(rng.integers(-2, 3))) * h0,
             (44 + int(rng.integers(-2, 3))) * h0, SLAB]
    nus = 1.5 + rng.uniform(-0.05, 0.05, size=3)
    stack = fields.MaterialStack(k0=K0, sigma=1.0, layers=tuple(
        fields.Layer(edges[i], edges[i + 1], float(nus[i]), 0.0) for i in range(3)))
    inc = helmholtz_1d.Incoming1D(EincL=1.0)
    linear = [helmholtz_1d.Problem1D(fields.build_grid_1d(SLAB, N), stack, inc)
              for N in LINEAR_N]
    # (b) amplitude continuation and (c) the three methods on one Kerr slab
    kerr = fields.MaterialStack(k0=K0, sigma=1.0,
                                layers=(fields.Layer(0.0, SLAB, 1.0, 0.05),))
    grid = fields.build_grid_1d(SLAB, KERR_N)
    amps = 2.0 * np.arange(1, 31) / 30.0 + rng.uniform(-0.02, 0.02, size=30)
    continuation = [helmholtz_1d.Problem1D(grid, kerr, helmholtz_1d.Incoming1D(EincL=a))
                    for a in amps]
    methods = [helmholtz_1d.Problem1D(grid, kerr, helmholtz_1d.Incoming1D(EincL=1.75))
               for _ in KERR_METHODS]
    # (d) 2D born sweep over the slab length, (e) freezing
    slabs = [_soliton_slab(Zmax, N) for Zmax, N, _, _ in SOLITON_SLABS]
    return stack, inc, linear, continuation, methods, slabs


def execute_small(state, rec: Recorder, workdir: Path):
    stack, inc, linear, continuation, methods, slabs = state
    errs = []
    for problem in linear:
        grid = problem.grid
        with rec.case(f"linear stack N={grid.N}"):
            E, _ = rec.solve(problem)
            with rec.timed("post"):
                oracle = helmholtz_1d.transfer_matrix_linear(stack, inc)
                z = grid.z(np.arange(0, grid.N + 1))
                errs.append(float(np.abs(E[3:grid.N + 4] - oracle.evaluate(z)).max()))
            if len(errs) > 2:  # the 64 -> 128 pair is not yet asymptotic
                rate = math.log2(errs[-2] / errs[-1])
                rec.check(3.5 <= rate <= 4.5,
                          f"oracle error rate {rate:.3f} outside [3.5, 4.5]")
            if grid.N == LINEAR_N[-1]:
                rec.check(errs[-1] <= 1e-8, f"oracle error {errs[-1]:.3e} > 1e-8")
                rec.worst("oracle_err", errs[-1])

    guess = None
    for i, problem in enumerate(continuation):
        with rec.case(f"continuation step {i}"):
            guess, _ = rec.solve(problem, config=solvers.NewtonConfig(initial_guess=guess))
            with rec.timed("post"):
                dev = _power_deviation(guess, problem.grid, K0)
            rec.check(dev <= 1e-5, f"1D flux deviation {dev:.3e} > 1e-5")

    for problem, (method, expected) in zip(methods, KERR_METHODS):
        with rec.case(f"kerr slab {method}"):
            rec.solve(problem, expected=expected, method=method)

    for problem, (Zmax, _, method, expected) in zip(slabs, SOLITON_SLABS):
        with rec.case(f"soliton slab Zmax={Zmax:g} {method}"):
            E, report = rec.solve(problem, expected=expected, method=method)
            if report.converged:
                with rec.timed("post"):
                    dev = _power_deviation(E, problem.grid, K0)
                rec.check(dev <= 0.01, f"beam-power deviation {dev:.5f} > 0.01")
                rec.worst("power_dev", dev)


_COMMON = {"solvers.solve", "solvers.sparse_lu_solve", "fields.real_split",
           "system.jacobian_real", "system.residual_complex", "helmholtz_nd.build",
           "transverse.suite", "transverse.eigensolve", "beams.incoming", "beams.flux"}

WORKLOADS = {
    "soliton-cart": Workload(build_soliton, execute_soliton, frozenset(
        _COMMON | {"cli.build_problem", "cli.write", "cli.read"})),
    "collapse-cyl": Workload(build_collapse, execute_collapse, frozenset(
        _COMMON | {"beams.nls_march"})),
    "small-batch": Workload(build_small, execute_small, frozenset(
        _COMMON | {"system.frozen_operator", "helmholtz_nd.vacuum_solve",
                   "helmholtz_nd.vacuum_operator", "helmholtz_1d.build",
                   "helmholtz_1d.vacuum_solve", "helmholtz_1d.oracle"})),
}
