"""Nonlinear solution strategies over assembled Kerr systems.

Three strategies share one problem interface (see _system.KerrSystem), two
loops and one linear-solve step:

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
the last LU of its Jacobian and solves later steps by GMRES preconditioned
with it, refactoring only when a Krylov solve is slow or misses the residual
contract of sparse_lu_solve.

Mirror fold: when the problem has a mirror and the initial field is
symmetric under it, each strategy runs on its half section, an ordinary
problem with its own Jacobian and vacuum inverse (_system.mirror_fold), and
_finish unfolds the field once; the reuse rule stays that of the full
problem.

All three return (field, SolveReport) and never raise on non-convergence;
controlled failure is reported through the SolveReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._system import CONTRACT_SCALE, KerrSystem, mirror_fold
from .errors import SingularMatrix
from .fields import from_real_split, to_real_split

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
        if self.convergence_tol <= 0 or self.switch_threshold <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


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
    factorizations: int = 0       # sparse LU factorizations behind accepted steps
    krylov_iterations: int = 0    # GMRES inner iterations over all steps
    # largest LU fill, as lu.nnz: the nonzeros SuperLU stores for L and U
    # (lu.L and lu.U would build CSC copies cached on the reused factor)
    lu_fill: int = 0
    mirror_folded: bool = False   # solved on the half section of the mirror fold


# Newton systems with at least this many real unknowns reuse their last LU as
# a GMRES preconditioner; below it one LU per step is cheaper than the Krylov
# bookkeeping. It sits between the largest 1D systems (~4,000) and the 2D
# desk problems (>= 12,000).
REUSE_MIN_UNKNOWNS = 10_000
KRYLOV_RESTART = 20
# a preconditioned solve slower than this means the factor has gone stale
REFACTOR_ITERATIONS = 15
# GMRES stops at this fraction of the contract bound, in the 2-norm (which
# bounds the inf-norm), so accepted steps track the direct ones to ~1e-12
KRYLOV_TARGET = 1e-2


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


def _krylov_solve(J: sp.spmatrix, rhs: np.ndarray, lu) -> tuple[np.ndarray | None, int]:
    """One restart cycle of GMRES on J x = rhs, preconditioned by the LU of an
    earlier Jacobian and started from lu.solve(rhs).

    Returns (x, inner iterations); x is None unless it meets the residual
    contract of sparse_lu_solve.
    """
    x0 = lu.solve(rhs)
    J_norm = np.abs(J).sum(axis=1).max()
    if _contract_violation(J, J_norm, x0, rhs) is None:
        return x0, 0
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    def precondition(v):
        # gmres opens with M(rhs), only to scale its tolerance: that is x0
        return x0.copy() if np.array_equal(v, rhs) else lu.solve(v)

    precond = spla.LinearOperator(J.shape, matvec=precondition, dtype=rhs.dtype)
    x, _ = spla.gmres(J, rhs, x0=x0, M=precond, rtol=0.0,
                      atol=KRYLOV_TARGET * _contract_bound(J_norm, x0, rhs),
                      restart=KRYLOV_RESTART, maxiter=1,
                      callback=count, callback_type="pr_norm")
    return (x if _contract_violation(J, J_norm, x, rhs) is None else None), iterations


def _start(problem: KerrSystem, config: NewtonConfig):
    """(system, e, gather) of a run: the system it iterates on, its initial
    field and the gather unfolding its field, None unless system is the
    problem's half section from _system.mirror_fold."""
    e = np.zeros(problem.size, dtype=np.complex128)
    if config.initial_guess is not None:
        e = np.array(config.initial_guess, dtype=np.complex128).reshape(-1)
        if e.shape[0] != problem.size:
            raise ValueError(
                f"initial guess has {e.shape[0]} nodes, problem has {problem.size}")
    half = mirror_fold(problem, e)
    return (problem, e, None) if half is None else half


class _LinearSolve:
    """The sparse linear solves of one run, with their SolveReport telemetry.

    With reuse the last LU preconditions GMRES (see _krylov_solve) and is
    refactored only when that misses the contract or takes over
    REFACTOR_ITERATIONS iterations; without it every call factors afresh. At
    most one factor is alive.
    """

    def __init__(self, *, reuse: bool):
        self.reuse = reuse
        self.lu = None
        self.factorizations = self.krylov_iterations = self.lu_fill = 0

    def __call__(self, J: sp.spmatrix, rhs: np.ndarray):
        """(x, None), or (None, reason) when the solve fails."""
        x = None
        try:
            if self.lu is not None:
                x, its = _krylov_solve(J, rhs, self.lu)
                self.krylov_iterations += its
                if x is None or its > REFACTOR_ITERATIONS:
                    self.lu = None  # stale; dropped before splu so one factor is alive
            if x is None:
                x, lu = sparse_lu_solve(J, rhs, return_factor=True)
                self.factorizations += 1
                self.lu_fill = max(self.lu_fill, lu.nnz)
                self.lu = lu if self.reuse else None
        except SingularMatrix:
            return None, "LinearSolveFail"
        except MemoryError:
            return None, "OutOfMemory"
        return x, None

    def telemetry(self) -> dict:
        return dict(factorizations=self.factorizations,
                    krylov_iterations=self.krylov_iterations,
                    lu_fill=self.lu_fill)


def _finish(problem: KerrSystem, gather: np.ndarray | None, e: np.ndarray,
            converged: bool, history: list[HistoryEntry], reason: str | None,
            **counts):
    """(field, SolveReport), e unfolded by gather unless that is None; counts
    are the SolveReport's telemetry fields."""
    if gather is not None:
        e = e[gather]
    report = SolveReport(
        converged=converged,
        iterations=len(history),
        history=history,
        max_amplitude=float(np.abs(e).max()) if e.size else 0.0,
        divergence_reason=None if converged else reason,
        mirror_folded=gather is not None,
        **counts,
    )
    return e.reshape(problem.field_shape), report


def newton_solve(problem: KerrSystem, config: NewtonConfig | None = None):
    """Relaxed Newton iteration: delta = -J^{-1} F, step omega/max(1, ||delta||)
    while ||delta||_inf >= switch_threshold, full steps after; converged when
    ||delta||_inf < convergence_tol.

    Large systems (see REUSE_MIN_UNKNOWNS) solve for delta by GMRES
    preconditioned with the last LU while that stays within
    REFACTOR_ITERATIONS iterations; a step whose Krylov solve misses the
    residual contract is factored afresh. A mirror-symmetric problem iterates
    on its half section.

    A linear problem (no Kerr term) is solved by freezing_solve, whose one
    exact solve is the first full Newton step; relaxing it would only add
    steps and LUs."""
    if not problem.has_kerr:
        return freezing_solve(problem, config)
    config = config or NewtonConfig()
    linear = _LinearSolve(reuse=2 * problem.size >= REUSE_MIN_UNKNOWNS)
    system, e, gather = _start(problem, config)
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    converged = False
    for _ in range(config.max_iterations):
        F = system.residual_complex(e)
        resid_norm = float(np.abs(F).max())
        if not np.isfinite(resid_norm):
            reason = "NaN"
            break
        d, failure = linear(system.jacobian_real(e), -to_real_split(F))
        if failure is not None:
            reason = failure
            break
        delta = from_real_split(d, (system.size,))
        step_norm = float(np.abs(delta).max())
        if not np.isfinite(step_norm):
            reason = "NaN"
            break
        if step_norm >= config.switch_threshold:
            t = config.omega / max(1.0, step_norm)
        else:
            t = 1.0
        e = e + t * delta
        history.append(HistoryEntry(step_norm, resid_norm, t * step_norm))
        if step_norm < config.convergence_tol:
            converged = True
            break
    return _finish(problem, gather, e, converged, history, reason,
                   **linear.telemetry())


def _frozen_iteration(system: KerrSystem, config: NewtonConfig, e: np.ndarray,
                      inner, exact: bool):
    """Fixed point of E <- inner(|E|^{2 sigma}, E) until the iterates stop
    moving; (field, converged, history, reason) for _finish.

    inner(w, e) returns (x, None), or (field, reason) to stop with that
    field. With exact the first solve is the solution and ends the loop."""
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    converged = False
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
            converged = True
            break
        if not np.isfinite(delta):
            reason = "NaN"
            break
    return e, converged, history, reason


def freezing_solve(problem: KerrSystem, config: NewtonConfig | None = None):
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


def born_solve(problem: KerrSystem, config: NewtonConfig | None = None):
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
    sweeps = 1 if exact else config.born_inner_iterations

    def vacuum_sweeps(w, e):
        x, reason = e, None
        # a diverging sweep may overflow to inf mid-iteration; that is a
        # reported outcome, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(sweeps):
                rhs = system.b - D_base @ x
                if system.has_kerr:
                    rhs -= system.C @ (w * x)
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


def solve(problem: KerrSystem, config: NewtonConfig | None = None,
          method: str = "newton"):
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown solver {method!r}; choose from {sorted(METHODS)}") from None
    return fn(problem, config)
