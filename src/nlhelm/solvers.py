"""Nonlinear solution strategies over assembled Kerr systems.

Three strategies share one problem interface (see _system.KerrSystem):

* newton_solve: relaxed Newton on the real-split unknowns with an exact
  sparse Jacobian; the workhorse.
* freezing_solve: outer iteration that freezes |E|^{2 sigma} and re-solves
  the resulting linear variable-coefficient system by sparse LU.
* born_solve: freezing outer loop whose inner linear solves are replaced by a
  short fixed-point sweep preconditioned by the uniform (vacuum) operator,
  which is inverted by separation of variables.

On systems of at least REUSE_MIN_UNKNOWNS real unknowns, newton_solve keeps
the last LU of its Jacobian and solves later steps by GMRES preconditioned
with it, refactoring only when a Krylov solve is slow or misses the residual
contract of sparse_lu_solve.

All three return (field, SolveReport) and never raise on non-convergence;
controlled failure is reported through the SolveReport.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._system import KerrSystem
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


def _contract_bound(J: sp.spmatrix, x: np.ndarray, rhs: np.ndarray) -> float:
    """Largest inf-norm residual a linear solve may leave:
    1e-10 (||J||_inf ||x||_inf + ||rhs||_inf)."""
    return 1e-10 * (np.abs(J).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())


def _contract_violation(J: sp.spmatrix, x: np.ndarray, rhs: np.ndarray) -> str | None:
    """Why x fails the residual contract of a linear solve, or None if it
    meets it."""
    if not np.all(np.isfinite(x.view(np.float64) if np.iscomplexobj(x) else x)):
        return "produced non-finite values"
    resid = np.abs(J @ x - rhs).max()
    bound = _contract_bound(J, x, rhs)
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
    violation = _contract_violation(J, x, rhs)
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
    if _contract_violation(J, x0, rhs) is None:
        return x0, 0
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    precond = spla.LinearOperator(J.shape, matvec=lu.solve, dtype=rhs.dtype)
    x, _ = spla.gmres(J, rhs, x0=x0, M=precond, rtol=0.0,
                      atol=KRYLOV_TARGET * _contract_bound(J, x0, rhs),
                      restart=KRYLOV_RESTART, maxiter=1,
                      callback=count, callback_type="pr_norm")
    return (x if _contract_violation(J, x, rhs) is None else None), iterations


def _initial_field(problem: KerrSystem, config: NewtonConfig) -> np.ndarray:
    if config.initial_guess is None:
        return np.zeros(problem.size, dtype=np.complex128)
    e0 = np.asarray(config.initial_guess, dtype=np.complex128).reshape(-1)
    if e0.shape[0] != problem.size:
        raise ValueError(
            f"initial guess has {e0.shape[0]} nodes, problem has {problem.size}"
        )
    return e0.copy()


def _finish(problem: KerrSystem, e: np.ndarray, converged: bool,
            history: list[HistoryEntry], reason: str | None,
            factorizations: int = 0, krylov_iterations: int = 0):
    report = SolveReport(
        converged=converged,
        iterations=len(history),
        history=history,
        max_amplitude=float(np.abs(e).max()) if e.size else 0.0,
        divergence_reason=None if converged else reason,
        factorizations=factorizations,
        krylov_iterations=krylov_iterations,
    )
    return e.reshape(problem.field_shape), report


def newton_solve(problem: KerrSystem, config: NewtonConfig | None = None):
    """Relaxed Newton iteration: delta = -J^{-1} F, step omega/max(1, ||delta||)
    while ||delta||_inf >= switch_threshold, full steps after; converged when
    ||delta||_inf < convergence_tol.

    Large systems (see REUSE_MIN_UNKNOWNS) solve for delta by GMRES
    preconditioned with the last LU while that stays within
    REFACTOR_ITERATIONS iterations; a step whose Krylov solve misses the
    residual contract is factored afresh."""
    config = config or NewtonConfig()
    e = _initial_field(problem, config)
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    converged = False
    reuse = 2 * problem.size >= REUSE_MIN_UNKNOWNS
    lu = None
    factorizations = krylov_iterations = 0
    for _ in range(config.max_iterations):
        F = problem.residual_complex(e)
        resid_norm = float(np.abs(F).max())
        if not np.isfinite(resid_norm):
            reason = "NaN"
            break
        J = problem.jacobian_real(e)
        rhs = -to_real_split(F)
        d = None
        try:
            if lu is not None:
                d, its = _krylov_solve(J, rhs, lu)
                krylov_iterations += its
                if d is None or its > REFACTOR_ITERATIONS:
                    lu = None  # stale; dropped before splu so one factor is alive
            if d is None:
                d, lu = sparse_lu_solve(J, rhs, return_factor=True)
                factorizations += 1
                if not reuse:
                    lu = None
        except SingularMatrix:
            reason = "LinearSolveFail"
            break
        except MemoryError:
            reason = "OutOfMemory"
            break
        delta = from_real_split(d, (problem.size,))
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
    return _finish(problem, e, converged, history, reason,
                   factorizations, krylov_iterations)


def freezing_solve(problem: KerrSystem, config: NewtonConfig | None = None):
    """Outer fixed-point iteration on the frozen-coefficient linear system:
    solve (A_lin + C diag(|E^j|^{2 sigma})) E^{j+1} = b until the iterates
    stop moving."""
    config = config or NewtonConfig()
    e = _initial_field(problem, config)
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    converged = False
    factorizations = 0
    for _ in range(config.max_iterations):
        w = problem.kerr_weights(e)
        if not np.all(np.isfinite(w)):
            reason = "NaN"
            break
        A = problem.frozen_operator(w)
        try:
            e_new = sparse_lu_solve(A, problem.b)
        except SingularMatrix:
            reason = "LinearSolveFail"
            break
        except MemoryError:
            reason = "OutOfMemory"
            break
        factorizations += 1
        delta = float(np.abs(e_new - e).max())
        resid_norm = float(np.abs(problem.residual_complex(e_new)).max())
        e = e_new
        history.append(HistoryEntry(delta, resid_norm, delta))
        if not problem.has_kerr:
            converged = True  # linear problem: first solve is exact
            break
        if not np.isfinite(delta):
            reason = "NaN"
            break
        if delta < config.convergence_tol:
            converged = True
            break
    return _finish(problem, e, converged, history, reason, factorizations)


def born_solve(problem: KerrSystem, config: NewtonConfig | None = None):
    """Freezing outer loop with inner vacuum-preconditioned sweeps:
    E <- A0^{-1} (b - (A(w) - A0) E), repeated born_inner_iterations times per
    outer step, A0 being the uniform linear operator solved by separation of
    variables."""
    config = config or NewtonConfig()
    e = _initial_field(problem, config)
    history: list[HistoryEntry] = []
    reason = "MaxIter"
    converged = False
    A0 = problem.vacuum_operator()
    D_base = (problem.A_lin - A0).tocsr()
    trivial_diff = D_base.nnz == 0 and not problem.has_kerr
    for _ in range(config.max_iterations):
        w = problem.kerr_weights(e)
        if not np.all(np.isfinite(w)):
            reason = "NaN"
            break
        if problem.has_kerr:
            D = (D_base + problem.C @ sp.diags(w, format="csr")).tocsr()
        else:
            D = D_base
        x = e
        inner = 1 if trivial_diff else config.born_inner_iterations
        blew_up = False
        # a diverging sweep may overflow to inf mid-iteration; that is a
        # reported outcome, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            for _k in range(inner):
                rhs = problem.b - D @ x
                if not np.all(np.isfinite(rhs)):
                    blew_up = True
                    break
                x = problem.vacuum_solve(rhs)
        if blew_up or not np.all(np.isfinite(x)):
            e = x
            reason = "NaN"
            break
        delta = float(np.abs(x - e).max())
        resid_norm = float(np.abs(problem.residual_complex(x)).max())
        e = x
        history.append(HistoryEntry(delta, resid_norm, delta))
        if trivial_diff:
            converged = True
            break
        if not np.isfinite(delta):
            reason = "NaN"
            break
        if delta < config.convergence_tol:
            converged = True
            break
    return _finish(problem, e, converged, history, reason)


_METHODS = {
    "newton": newton_solve,
    "freezing": freezing_solve,
    "born": born_solve,
}


def solve(problem: KerrSystem, config: NewtonConfig | None = None,
          method: str = "newton"):
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown solver {method!r}; choose from {sorted(_METHODS)}") from None
    return fn(problem, config)
