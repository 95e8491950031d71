"""Nonlinear solution strategies over assembled Kerr systems.

Three strategies share one problem type (helmholtz_nd.HelmholtzProblem:
the algebra of _system.KerrSystem, a vacuum solve, a separable inverse of
A_lin and the mirror fold), two loops and one linear-solve step:

* newton_solve: relaxed Newton on the real-split unknowns with an exact
  sparse Jacobian; the workhorse. A linear problem goes to freezing_solve,
  which solves it exactly in one step.
* freezing_solve: the frozen-coefficient loop (_frozen_iteration), which
  freezes |E|^{2 sigma} and re-solves the resulting linear
  variable-coefficient system by sparse LU.
* born_solve: the same loop with the LU replaced by a short fixed-point
  sweep preconditioned by the uniform (vacuum) operator A0, inverted by
  separation of variables; it applies A_lin - A0 and C diag(w) separately.

Newton and freezing make their sparse solves through _LinearSolve. On
systems of at least REUSE_MIN_UNKNOWNS real unknowns, newton_solve keeps
the last LU of its Jacobian and solves later steps by GCROT(m,k) (scipy's
gcrotmk) right-preconditioned with it, refactoring when a Krylov solve
misses its acceptance test, is slow, or spends the factor's Krylov budget:
each LU may precondition LU_COST_SOLVES iterations in all, its own cost in
triangular solves. The Krylov solve recycles: up to
KRYLOV_RESTART directions of its search space, and its last solution, are
carried from one Newton step to the next and projected out before any
triangular solve. They are built on the live factor and dropped with it, so
at most one factor and its directions are alive.

Cold start: from e = 0 the Jacobian is real_split(A_lin), and where the
system has an exact inverse of A_lin that needs no sparse factor
(HelmholtzProblem.linear_inverse: on a nu = 1 slab, the vacuum solve's
transform pair and tridiagonal solve with a capacitance correction in mode
space on the slab-face rows) newton_solve hands it to
_LinearSolve as the first live factor, applied through a complex view of
the real-split vectors (_SeparableFactor). The first step is then solved as
any reuse step is: from the inverse's solution, by GCROT if that misses the
contract, by a fresh LU if GCROT misses it too. It is retired by the same
rule, less the budget: one application costs a fraction of a triangular
solve on an LU, so it is never charged.

Inexact steps: while Newton's steps are damped, a Krylov solve on a live
factor only has to meet ||J d + F||_inf <= FORCING ||F||_inf; such a step
is "forced". Every other solve (the first step, each step after a full one and
every LU) meets the residual contract of sparse_lu_solve, so the full-step
tail is exact Newton, and convergence is declared only on an exact step.

Mirror fold: when the problem has a mirror and the initial field is
symmetric under it, each strategy runs on its half section, an ordinary
problem with its own Jacobian and vacuum inverse (HelmholtzProblem.fold), and
_finish unfolds the field once; the reuse rule stays that of the full
problem.

All three return (field, SolveReport) and never raise on non-convergence;
controlled failure is reported through the SolveReport.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._system import KerrSystem
from .errors import SingularMatrix
from .fields import from_real_split, to_real_split

if TYPE_CHECKING:
    from .helmholtz_nd import HelmholtzProblem

__all__ = [
    "NewtonConfig",
    "SolveReport",
    "HistoryEntry",
    "newton_solve",
    "freezing_solve",
    "born_solve",
    "sparse_lu_solve",
    "solve",
]


@dataclass(frozen=True)
class NewtonConfig:
    """Shared solver configuration (the non-Newton solvers read the tolerance
    and iteration cap; born additionally reads born_inner_iterations)."""

    omega: float = 0.5                 # relaxation factor in (0, 1]
    switch_threshold: float = 0.01     # step norm below which full steps resume
    convergence_tol: float = 1e-12
    max_iterations: int = 200
    initial_guess: np.ndarray | None = None  # complex field; None means zero
    born_inner_iterations: int = 5

    def __post_init__(self):
        if not (0.0 < self.omega <= 1.0):
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")
        for name in ("convergence_tol", "switch_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_iterations", "born_inner_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
        if (self.initial_guess is not None
                and not np.isfinite(np.asarray(self.initial_guess, dtype=np.complex128)).all()):
            raise ValueError("initial_guess must be finite")


@dataclass(frozen=True)
class HistoryEntry:
    step_norm: float          # ||delta E||_inf before relaxation scaling
    residual_norm: float      # ||F||_inf at the iterate the step was computed from
    applied_step_norm: float  # ||scaled step||_inf actually added


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    history: list[HistoryEntry] = field(default_factory=list)
    max_amplitude: float = 0.0
    # "MaxIter" | "NaN" | "LinearSolveFail" | "OutOfMemory"
    divergence_reason: str | None = None
    # SuperLU factorizations behind accepted steps; Newton's separable cold
    # start (HelmholtzProblem.linear_inverse) is not counted
    factorizations: int = 0
    krylov_iterations: int = 0    # preconditioned Krylov iterations over all steps
    forced_steps: int = 0         # Newton steps accepted under the forcing test
    # largest LU fill, as lu.nnz: the nonzeros SuperLU stores for L and U
    # (lu.L and lu.U would build CSC copies cached on the reused factor)
    lu_fill: int = 0
    mirror_folded: bool = False   # solved on the half section of the mirror fold


# relative scale of the residual contract of sparse_lu_solve; a system or
# field invariant under a mirror to this scale counts as symmetric
CONTRACT_SCALE = 1e-10
# Newton systems with at least this many real unknowns reuse their last LU as
# a Krylov preconditioner; below it one LU per step is no slower (measured on
# small-batch's 1D solves) and is the tests' reference path. It lies between
# the largest 1D systems (~4,000) and the 2D desk problems (>= 12,000).
REUSE_MIN_UNKNOWNS = 10_000
# preconditioned iterations of the one Krylov cycle a step may take, and the
# directions GCROT(m,k) carries from one Newton step to the next on one factor
KRYLOV_RESTART = 20
# a preconditioned solve slower than this means the factor has gone stale
REFACTOR_ITERATIONS = 15
# the cost of one SuperLU factorization in triangular solves on its factor
# (~0.4 s per LU against ~12 ms per solve at 32,112 real unknowns on a 2-core
# VM): a factor is retired once the Krylov iterations it preconditions
# exceed this
LU_COST_SOLVES = 40
# an exact Krylov solve stops at this fraction of the contract bound, in the
# 2-norm (which bounds the inf-norm), so accepted steps track the direct ones
# to ~1e-12
KRYLOV_TARGET = 1e-2
# forcing term of damped Newton steps; 0.0 solves every step to the contract
FORCING = 0.1


def _contract_bound(J_norm: float, x: np.ndarray, rhs: np.ndarray) -> float:
    """Largest inf-norm residual a linear solve may leave:
    1e-10 (||J||_inf ||x||_inf + ||rhs||_inf), given J_norm = ||J||_inf."""
    return CONTRACT_SCALE * (J_norm * np.abs(x).max() + np.abs(rhs).max())


def _contract_violation(J: sp.spmatrix, J_norm: float, x: np.ndarray,
                        rhs: np.ndarray) -> str | None:
    """Why x fails the residual contract of a linear solve, or None if it
    meets it. J_norm is ||J||_inf (see _contract_bound)."""
    if not np.all(np.isfinite(x.view(np.float64) if np.iscomplexobj(x) else x)):
        return "produced non-finite values"
    resid = np.abs(J @ x - rhs).max()
    bound = _contract_bound(J_norm, x, rhs)
    if resid > bound:
        return f"residual {resid:.3e} exceeds contract bound {bound:.3e}"
    return None


def sparse_lu_solve(J: sp.spmatrix, rhs: np.ndarray, *, return_factor: bool = False):
    """Direct sparse solve with a residual acceptance contract.

    Raises SingularMatrix if factorization fails or the solution residual
    exceeds 1e-10 * (||J||_inf ||x||_inf + ||rhs||_inf). Returns x, or
    (x, lu) with the SuperLU factor when return_factor is set.
    """
    rhs = np.asarray(rhs).reshape(-1)
    try:
        lu = spla.splu(J.tocsc())
        x = lu.solve(rhs)
    except (RuntimeError, ValueError) as exc:
        raise SingularMatrix(f"sparse LU failed: {exc}") from exc
    violation = _contract_violation(J, np.abs(J).sum(axis=1).max(), x, rhs)
    if violation is not None:
        raise SingularMatrix(f"sparse LU {violation}")
    return (x, lu) if return_factor else x


def _krylov_solve(J: sp.spmatrix, rhs: np.ndarray, lu, forcing: float = 0.0,
                  recycled: list | None = None) -> tuple[np.ndarray | None, int]:
    """One GCROT(m,k) cycle on J x = rhs, right-preconditioned by the LU of an
    earlier Jacobian and started from lu.solve(rhs).

    recycled is the Krylov space carried between calls: the (c, u) pairs of
    scipy's gcrotmk, updated in place. Its directions are projected out of
    the start before any triangular solve, so a nearby later system needs
    fewer preconditioned iterations; None starts from an empty space. The
    cycle runs at most KRYLOV_RESTART preconditioned iterations (one more for
    each recycled direction gcrotmk drops as dependent), and its residual
    estimate is the true 2-norm residual.

    Returns (x, iterations), iterations the triangular solves after x0; x is
    None unless it meets the residual contract of sparse_lu_solve or, with
    forcing > 0, is finite with ||J x - rhs||_inf <= forcing ||rhs||_inf.
    """
    x0 = lu.solve(rhs)
    if forcing:
        atol = forcing * np.abs(rhs).max()

        def accept(x):
            return bool(np.all(np.isfinite(x))) and np.abs(J @ x - rhs).max() <= atol
    else:
        J_norm = np.abs(J).sum(axis=1).max()
        atol = KRYLOV_TARGET * _contract_bound(J_norm, x0, rhs)

        def accept(x):
            return _contract_violation(J, J_norm, x, rhs) is None
    if accept(x0):
        return x0, 0
    if recycled is None:
        recycled = []
    iterations = 0

    def precondition(v):
        nonlocal iterations
        iterations += 1
        return lu.solve(v)

    precond = spla.LinearOperator(J.shape, matvec=precondition, dtype=rhs.dtype)
    # gcrotmk's cycle runs m + max(k - len(CU), 0) iterations, so m is cut
    # while the recycled space is short to hold it at KRYLOV_RESTART
    m = min(len(recycled), KRYLOV_RESTART)
    x, _ = spla.gcrotmk(J, rhs, x0=x0, M=precond, rtol=0.0, atol=atol,
                        m=m, k=KRYLOV_RESTART, CU=recycled, discard_C=True,
                        maxiter=1)
    return (x if accept(x) else None), iterations


def _start(problem: HelmholtzProblem, config: NewtonConfig):
    """(system, e, gather) of a run: the system it iterates on, its initial
    field and the gather unfolding its field, None unless system is the
    problem's half section from its fold."""
    e = np.zeros(problem.size, dtype=np.complex128)
    if config.initial_guess is not None:
        e = np.array(config.initial_guess, dtype=np.complex128).reshape(-1)
        if e.shape[0] != problem.size:
            raise ValueError(
                f"initial guess has {e.shape[0]} nodes, problem has {problem.size}")
    half = problem.fold(e)
    return (problem, e, None) if half is None else half


class _SeparableFactor:
    """An exact inverse of a complex operator, applied with a SuperLU
    factor's solve signature to interleaved real-split vectors through a
    zero-copy complex view."""

    def __init__(self, inverse):
        self.inverse = inverse

    def solve(self, v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v, dtype=np.float64)
        return self.inverse(v.view(np.complex128)).view(np.float64)


class _LinearSolve:
    """The sparse linear solves of one run, with their SolveReport telemetry.

    With reuse the last LU preconditions GCROT(m,k) (see _krylov_solve) and is
    refactored when that misses its test, takes over REFACTOR_ITERATIONS
    iterations, or brings the iterations on the factor past LU_COST_SOLVES
    (counts only, so a run is reproducible); without it every call factors
    afresh.
    The recycled Krylov space is carried from call to call on one factor and
    dropped with it, so at most one factor and its space are alive.

    factor, anything with a SuperLU factor's solve (Newton's cold start
    passes a _SeparableFactor), is the first live factor: the first call
    solves with it as any reuse step does, and it is neither counted as a
    factorization nor charged to a budget.
    """

    def __init__(self, *, reuse: bool, factor=None):
        self.reuse = reuse
        self.lu = factor
        # Krylov iterations self.lu may still precondition; a separable
        # factor is far cheaper to apply than an LU and is never charged
        self.budget = math.inf
        self.recycled: list = []  # gcrotmk's (c, u) pairs, built on self.lu
        self.forced = False  # whether the last x was accepted under forcing
        self.factorizations = self.krylov_iterations = self.forced_steps = 0
        self.lu_fill = 0

    def __call__(self, J: sp.spmatrix, rhs: np.ndarray, forcing: float = 0.0):
        """(x, None), or (None, reason) when the solve fails. With forcing > 0
        a Krylov x on the live factor passes at the forcing test of
        _krylov_solve; a fresh LU is always held to the contract."""
        x = None
        self.forced = False
        try:
            if self.lu is not None:
                x, its = _krylov_solve(J, rhs, self.lu, forcing, self.recycled)
                self.krylov_iterations += its
                self.budget -= its
                if x is None or its > REFACTOR_ITERATIONS or self.budget < 0:
                    # stale or spent; dropped before splu so one factor is alive
                    self.lu, self.recycled = None, []
                if x is not None and forcing:
                    self.forced = True
                    self.forced_steps += 1
            if x is None:
                x, lu = sparse_lu_solve(J, rhs, return_factor=True)
                self.factorizations += 1
                self.lu_fill = max(self.lu_fill, lu.nnz)
                self.lu = lu if self.reuse else None
                self.budget = LU_COST_SOLVES
        except SingularMatrix:
            return None, "LinearSolveFail"
        except MemoryError:
            return None, "OutOfMemory"
        return x, None

    def telemetry(self) -> dict:
        return dict(factorizations=self.factorizations,
                    krylov_iterations=self.krylov_iterations,
                    forced_steps=self.forced_steps, lu_fill=self.lu_fill)


def _finish(problem: HelmholtzProblem, gather: np.ndarray | None, e: np.ndarray,
            history: list[HistoryEntry], reason: str | None, **counts):
    """(field, SolveReport), e unfolded by gather unless that is None; a
    reason of None means the run converged, and counts are the SolveReport's
    telemetry fields."""
    if gather is not None:
        e = e[gather]
    report = SolveReport(
        converged=reason is None,
        iterations=len(history),
        history=history,
        max_amplitude=float(np.abs(e).max()),
        divergence_reason=reason,
        mirror_folded=gather is not None,
        **counts,
    )
    return e.reshape(problem.field_shape), report


def newton_solve(problem: HelmholtzProblem, config: NewtonConfig | None = None):
    """Relaxed Newton iteration: delta = -J^{-1} F, step omega/max(1, ||delta||)
    while ||delta||_inf >= switch_threshold, full steps after; converged when
    ||delta||_inf < convergence_tol.

    Large systems (see REUSE_MIN_UNKNOWNS) solve for delta by GCROT(m,k)
    preconditioned with the last LU while that stays within
    REFACTOR_ITERATIONS iterations per step and LU_COST_SOLVES in all; a step
    whose Krylov solve misses its test is factored afresh, and a slow step or
    one that spends the budget makes the next step factor. From e = 0 the
    system's linear_inverse, where it has one, is the first live factor (see
    the module docstring). A mirror-symmetric problem iterates on its half
    section.

    Inexact steps: when the previous step was damped and a factor is live,
    the Krylov solve is forced: it is accepted once finite with
    ||J delta + F||_inf <= FORCING ||F||_inf. Every other step (the first,
    which has no previous step, included), and every step solved by a fresh
    LU, meets the residual contract of sparse_lu_solve; convergence is
    declared only on such an exact step. SolveReport.forced_steps counts the
    forced ones.

    A linear problem (no Kerr term) is solved by freezing_solve, whose one
    exact solve is the first full Newton step; relaxing it would only add
    steps and LUs."""
    if not problem.has_kerr:
        return freezing_solve(problem, config)
    config = config or NewtonConfig()
    system, e, gather = _start(problem, config)
    reuse = 2 * problem.size >= REUSE_MIN_UNKNOWNS
    # the Jacobian at e = 0 is real_split(A_lin)
    inverse = system.linear_inverse() if reuse and not e.any() else None
    linear = _LinearSolve(reuse=reuse, factor=None if inverse is None
                          else _SeparableFactor(inverse))
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    damped = False  # whether the previous step was; the first step is exact
    for _ in range(config.max_iterations):
        F = system.residual_complex(e)
        resid_norm = float(np.abs(F).max())
        if not np.isfinite(resid_norm):
            reason = "NaN"
            break
        d, failure = linear(system.jacobian_real(e), -to_real_split(F),
                            FORCING if damped else 0.0)
        if failure is not None:
            reason = failure
            break
        delta = from_real_split(d, (system.size,))
        step_norm = float(np.abs(delta).max())
        if not np.isfinite(step_norm):
            reason = "NaN"
            break
        damped = step_norm >= config.switch_threshold
        t = config.omega / max(1.0, step_norm) if damped else 1.0
        e = e + t * delta
        history.append(HistoryEntry(step_norm, resid_norm, t * step_norm))
        if step_norm < config.convergence_tol and not linear.forced:
            reason = None
            break
    return _finish(problem, gather, e, history, reason, **linear.telemetry())


def _frozen_iteration(system: KerrSystem, config: NewtonConfig, e: np.ndarray,
                      inner, exact: bool):
    """Fixed point of E <- inner(|E|^{2 sigma}, E) until the iterates stop
    moving; (field, history, reason) for _finish, reason None once converged.

    inner(w, e) returns (x, None), or (field, reason) to stop with that
    field. With exact the first solve is the solution and ends the loop."""
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    for _ in range(config.max_iterations):
        w = system.kerr_weights(e)
        if not np.all(np.isfinite(w)):
            reason = "NaN"
            break
        x, failure = inner(w, e)
        if failure is not None:
            e, reason = x, failure
            break
        delta = float(np.abs(x - e).max())
        resid_norm = float(np.abs(system.residual_complex(x)).max())
        e = x
        history.append(HistoryEntry(delta, resid_norm, delta))
        if exact or delta < config.convergence_tol:
            reason = None
            break
        if not np.isfinite(delta):
            reason = "NaN"
            break
    return e, history, reason


def freezing_solve(problem: HelmholtzProblem, config: NewtonConfig | None = None):
    """Outer fixed-point iteration on the frozen-coefficient linear system:
    solve (A_lin + C diag(|E^j|^{2 sigma})) E^{j+1} = b until the iterates
    stop moving. A mirror-symmetric problem iterates on its half section."""
    config = config or NewtonConfig()
    system, e, gather = _start(problem, config)
    linear = _LinearSolve(reuse=False)

    def frozen_lu(w, e):
        x, failure = linear(system.frozen_operator(w), system.b)
        return (e if x is None else x), failure

    return _finish(problem, gather, *_frozen_iteration(
        system, config, e, frozen_lu, exact=not system.has_kerr),
        **linear.telemetry())


def born_solve(problem: HelmholtzProblem, config: NewtonConfig | None = None):
    """Freezing outer loop with born_inner_iterations vacuum-preconditioned
    sweeps E <- A0^{-1} (b - (A_lin - A0) E - C (w E)) per outer step, w the
    frozen |E|^{2 sigma} and A0 the uniform linear operator, solved by
    separation of variables; A(w) - A0 is applied term by term, not built.

    A mirror-symmetric problem sweeps on its half section, with that
    problem's own A0."""
    config = config or NewtonConfig()
    system, e, gather = _start(problem, config)
    D_base = (system.A_lin - system.vacuum_operator()).tocsr()
    exact = D_base.nnz == 0 and not system.has_kerr

    def vacuum_sweeps(w, e):
        x, reason = e, None
        # a diverging sweep may overflow to inf mid-iteration; that is a
        # reported outcome, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(config.born_inner_iterations):
                rhs = system.b - D_base @ x - system.C @ (w * x)
                if not np.all(np.isfinite(rhs)):
                    reason = "NaN"
                    break
                x = system.vacuum_solve(rhs)
        if reason is None and not np.all(np.isfinite(x)):
            reason = "NaN"
        return x, reason

    return _finish(problem, gather, *_frozen_iteration(system, config, e,
                                                       vacuum_sweeps, exact))


METHODS = {
    "newton": newton_solve,
    "freezing": freezing_solve,
    "born": born_solve,
}


def solve(problem: HelmholtzProblem, config: NewtonConfig | None = None,
          method: str = "newton"):
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown solver {method!r}; choose from {sorted(METHODS)}") from None
    return fn(problem, config)
