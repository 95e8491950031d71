"""Tests for the three solution strategies and the sparse direct-solve
contract: convergence behavior, relaxation bookkeeping, controlled failure
reporting, and determinism.

The iteration mathematics is checked against recomputed invariants (applied
step sizes, quadratic tail contraction) and against cross-method agreement
on problems where every method is in its convergence domain.
"""

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nlhelm import (
    BeamSpec,
    HelmholtzProblem,
    Incoming1D,
    Layer,
    MaterialStack,
    NewtonConfig,
    SingularMatrix,
    build_grid_1d,
    build_grid_multi,
    born_solve,
    build_problem_1d,
    freezing_solve,
    make_incoming,
    newton_solve,
    poynting_flux,
    solve,
    solve_1d,
    solvers,
    sparse_lu_solve,
)
from nlhelm import helmholtz_nd
from nlhelm._system import KerrSystem

K0 = 4.0


def slab(nu, eps, Z=5.0):
    return MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, Z, nu, eps),))


def kerr_problem(eps=0.0625, nu=1.5, N=128):
    return build_problem_1d(
        build_grid_1d(5.0, N), slab(nu, eps), Incoming1D(EincL=1.0)
    )


def soliton_slab():
    """2D Kerr slab driven by a sech beam: 12,208 real unknowns, above
    REUSE_MIN_UNKNOWNS, so Newton reuses its factorization."""
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 16.0, 1.0, 1.0 / 16.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = build_grid_multi(16.0, 102, 6.0, 56, "cartesian")
    beam = make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0), adjust=True), grid, mat)
    return HelmholtzProblem(grid, mat, einc_left=beam)


def counter_propagating_pair():
    """The soliton slab driven through both faces by unadjusted sech beams of
    r0 = sqrt(2), the right one at amplitude 0.5."""
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 16.0, 1.0, 1.0 / 16.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = build_grid_multi(16.0, 102, 6.0, 56, "cartesian")
    left, right = (make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0),
                                          amplitude=amplitude, side=side), grid, mat)
                   for amplitude, side in ((1.0, "left"), (0.5, "right")))
    return grid, HelmholtzProblem(grid, mat, einc_left=left, einc_right=right)


def weak_kerr_slab_2d(geometry, extent):
    """32 x 12 weak-Kerr slab (nu = 1, eps = 0.05) driven by a Gaussian beam."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        grid = build_grid_multi(4.0, 32, extent, 12, geometry)
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.05),))
    einc = np.exp(-(grid.transverse_coords() / 1.5) ** 2).astype(complex)
    return HelmholtzProblem(grid, mat, einc_left=einc)


def born_assembled_reference(problem, config):
    """The Born iteration with D = (A_lin - A0) + C diag(w) assembled as one
    sparse matrix per outer step; (field, outer iterations)."""
    D_base = (problem.A_lin - problem.vacuum_operator()).tocsr()
    e = np.zeros(problem.size, dtype=np.complex128)
    for iteration in range(1, config.max_iterations + 1):
        D = (D_base + problem.C @ sp.diags(problem.kerr_weights(e), format="csr")).tocsr()
        x = e
        for _ in range(config.born_inner_iterations):
            x = problem.vacuum_solve(problem.b - D @ x)
        delta, e = np.abs(x - e).max(), x
        if delta < config.convergence_tol:
            break
    return e.reshape(problem.field_shape), iteration


def unfolded(problem):
    """The same problem with its mirror dropped: the full-size reference."""
    problem.mirror = None
    return problem


def spy_factorizations(monkeypatch):
    """Record (rows, lu.nnz) of every sparse_lu_solve call."""
    seen = []
    real = solvers.sparse_lu_solve

    def spy(J, rhs, return_factor=False):
        x, lu = real(J, rhs, return_factor=True)
        seen.append((J.shape[0], lu.nnz))
        return (x, lu) if return_factor else x

    monkeypatch.setattr(solvers, "sparse_lu_solve", spy)
    return seen


def spy_separable_solves(monkeypatch):
    """Record the size of every real-split vector that a separable cold-start
    factor solves for."""
    seen = []
    real = solvers._SeparableFactor.solve

    def spy(self, v):
        seen.append(v.size)
        return real(self, v)

    monkeypatch.setattr(solvers._SeparableFactor, "solve", spy)
    return seen


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(omega=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(omega=1.2)
        with pytest.raises(ValueError):
            NewtonConfig(max_iterations=0)
        for count in (0, -3):
            with pytest.raises(ValueError, match="born_inner_iterations must be at least 1"):
                NewtonConfig(born_inner_iterations=count)
        with pytest.raises(ValueError):
            NewtonConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(switch_threshold=-1.0)

    @pytest.mark.parametrize("name", ["convergence_tol", "switch_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            NewtonConfig(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_initial_guess_rejected(self, value):
        guess = np.zeros(8, dtype=complex)
        guess[3] = value
        with pytest.raises(ValueError, match="initial_guess must be finite"):
            NewtonConfig(initial_guess=guess)
        with pytest.raises(ValueError, match="initial_guess must be finite"):
            dataclasses.replace(NewtonConfig(), initial_guess=guess)

    @pytest.mark.parametrize("name", ["max_iterations", "born_inner_iterations"])
    @pytest.mark.parametrize("value", [2.5, math.nan, True], ids=["float", "nan", "bool"])
    def test_non_integral_iteration_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            NewtonConfig(**{name: value})

    def test_numpy_integer_iteration_counts_accepted(self):
        config = NewtonConfig(max_iterations=np.int64(3), born_inner_iterations=np.int64(3))
        for method in ("newton", "born"):
            _, report = solvers.solve(kerr_problem(), config=config, method=method)
            assert 1 <= report.iterations <= 3

    def test_initial_guess_size_checked(self):
        problem = kerr_problem()
        with pytest.raises(ValueError):
            newton_solve(problem, NewtonConfig(initial_guess=np.zeros(3)))


class TestSparseLu:
    def test_identity(self):
        rhs = np.arange(1.0, 6.0)
        x = sparse_lu_solve(sp.eye(5, format="csr"), rhs)
        assert np.array_equal(x, rhs)

    def test_banded_system_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        n = 60
        main = 6.0 + rng.normal(size=n)
        lo, hi = rng.normal(size=n - 1), rng.normal(size=n - 1)
        A = sp.diags([lo, main, hi], offsets=[-1, 0, 1], format="csr")
        rhs = rng.normal(size=n)
        x = sparse_lu_solve(A, rhs)
        assert x == pytest.approx(np.linalg.solve(A.toarray(), rhs), abs=1e-10)

    def test_singular_matrix_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularMatrix):
            sparse_lu_solve(A, np.ones(2))

    def test_factor_returned_on_request(self):
        A = sp.diags([2.0, 4.0, 8.0], format="csr")
        x, lu = sparse_lu_solve(A, np.ones(3), return_factor=True)
        assert np.array_equal(x, [0.5, 0.25, 0.125])
        assert np.array_equal(lu.solve(np.ones(3)), x)


class TestKrylovSolve:
    @staticmethod
    def banded(rng, n=200):
        main = 6.0 + rng.normal(size=n)
        lo, hi = rng.normal(size=n - 1), rng.normal(size=n - 1)
        return sp.diags([lo, main, hi], offsets=[-1, 0, 1], format="csr")

    def test_perturbed_system_meets_contract(self):
        # an LU of a nearby matrix preconditions GMRES to within the
        # residual contract of the direct solve
        rng = np.random.default_rng(3)
        A = self.banded(rng)
        J = (A + sp.diags(1e-3 * rng.normal(size=A.shape[0]))).tocsr()
        rhs = rng.normal(size=A.shape[0])
        x, iterations = solvers._krylov_solve(J, rhs, spla.splu(A.tocsc()))
        assert x is not None
        assert 1 <= iterations <= solvers.KRYLOV_RESTART
        bound = 1e-10 * (abs(J).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
        assert np.abs(J @ x - rhs).max() <= bound

    def test_one_triangular_solve_per_inner_iteration(self):
        # lu.solve(rhs) for x0 and one preconditioner application per inner
        # iteration; the right-preconditioned cycle needs no M(r0)
        rng = np.random.default_rng(3)
        A = self.banded(rng)
        J = (A + sp.diags(1e-3 * rng.normal(size=A.shape[0]))).tocsr()
        rhs = rng.normal(size=A.shape[0])
        lu, solved = spla.splu(A.tocsc()), []

        class CountingLu:
            def solve(self, v):
                solved.append(v.copy())
                return lu.solve(v)

        x, iterations = solvers._krylov_solve(J, rhs, CountingLu())
        assert x is not None and iterations > 0
        assert len(solved) == iterations + 1
        assert sum(np.array_equal(v, rhs) for v in solved) == 1

    @staticmethod
    def nearby_systems(rng, count, n=200):
        """(lu of a banded A, [(J_k, rhs_k)]): J_k = A + (1 + k/100) D with D
        large on ten nodes, so the Kerr-like change is localized as between
        Newton steps."""
        A = TestKrylovSolve.banded(rng, n)
        d = 1e-2 * rng.normal(size=n)
        d[90:100] = 3.0 * rng.normal(size=10)
        systems = [((A + sp.diags((1 + k / 100) * d)).tocsr(), rng.normal(size=n))
                   for k in range(count)]
        return spla.splu(A.tocsc()), systems

    def test_recycled_space_cuts_iterations_on_nearby_systems(self):
        lu, systems = self.nearby_systems(np.random.default_rng(3), 6)
        recycled, iterations = [], []
        for J, rhs in systems:
            x, its = solvers._krylov_solve(J, rhs, lu, recycled=recycled)
            assert x is not None
            iterations.append(its)
        _, fresh = solvers._krylov_solve(J, rhs, lu)
        assert 0 < len(recycled) <= solvers.KRYLOV_RESTART + 1
        # the first system has nothing to recycle; the space then grows
        assert iterations[0] == fresh
        assert iterations[-1] < fresh
        assert iterations == sorted(iterations)[::-1]
        bound = 1e-10 * (abs(J).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())
        assert np.abs(J @ x - rhs).max() <= bound

    def test_call_without_space_is_independent_of_earlier_calls(self):
        lu, systems = self.nearby_systems(np.random.default_rng(3), 3)
        (J, rhs), *others = systems
        x_before, its_before = solvers._krylov_solve(J, rhs, lu)
        recycled = []
        for J_other, rhs_other in others:
            solvers._krylov_solve(J_other, rhs_other, lu, recycled=recycled)
        x_after, its_after = solvers._krylov_solve(J, rhs, lu)
        assert len(recycled) > 0
        assert its_after == its_before > 0
        assert np.array_equal(x_after, x_before)

    def test_space_lives_and_dies_with_the_factor(self):
        # _LinearSolve carries the space from step to step on one factor and
        # drops it with that factor
        _, [(J1, r1), (J2, r2), (J3, r3)] = self.nearby_systems(
            np.random.default_rng(3), 3)
        linear = solvers._LinearSolve(reuse=True)
        linear(J1, r1)
        assert linear.factorizations == 1 and linear.recycled == []
        linear(J2, r2)
        first = linear.lu
        assert linear.factorizations == 1 and len(linear.recycled) > 0
        unrelated = self.banded(np.random.default_rng(4))
        x, failure = linear(unrelated, r3)
        assert failure is None and x is not None
        assert linear.factorizations == 2 and linear.lu is not first
        assert linear.recycled == []

    def test_unrelated_preconditioner_declines(self):
        rng = np.random.default_rng(4)
        J = self.banded(rng)
        lu = spla.splu(sp.eye(J.shape[0], format="csc"))
        x, iterations = solvers._krylov_solve(J, rng.normal(size=J.shape[0]), lu)
        assert x is None
        assert iterations == solvers.KRYLOV_RESTART

    def test_forcing_accepts_in_fewer_iterations(self):
        # the forcing test ||J x - rhs||_inf <= eta ||rhs||_inf stops GMRES
        # well before the contract does
        rng = np.random.default_rng(3)
        A = self.banded(rng)
        J = (A + sp.diags(1e-1 * rng.normal(size=A.shape[0]))).tocsr()
        rhs = rng.normal(size=A.shape[0])
        lu = spla.splu(A.tocsc())
        _, exact = solvers._krylov_solve(J, rhs, lu)
        eta = 1e-3
        x, forced = solvers._krylov_solve(J, rhs, lu, eta)
        assert x is not None
        assert 0 < forced < exact
        assert np.abs(J @ x - rhs).max() <= eta * np.abs(rhs).max()

    def test_unrelated_preconditioner_declines_forced_solve(self):
        # an indefinite band that one unpreconditioned cycle cannot bring
        # within even the loosest forcing term
        rng = np.random.default_rng(4)
        n = 200
        J = sp.diags([rng.normal(size=n - 1), 1.0 + rng.normal(size=n),
                      rng.normal(size=n - 1)], offsets=[-1, 0, 1], format="csr")
        lu = spla.splu(sp.eye(n, format="csc"))
        x, iterations = solvers._krylov_solve(J, rng.normal(size=n), lu,
                                              solvers.FORCING)
        assert x is None
        assert iterations == solvers.KRYLOV_RESTART


def assert_quadratic_tail(report):
    """After the switch to full steps the error contracts quadratically until
    it hits the arithmetic floor."""
    steps = [h.step_norm for h in report.history]
    checked = 0
    for s, s_next in zip(steps, steps[1:]):
        if s < 0.01 and s_next > 1e-13:
            assert s_next <= 10.0 * s * s
            checked += 1
    assert checked >= 2


class TestNewton:
    def test_converges_on_kerr_slab(self):
        problem = kerr_problem()
        E, report = newton_solve(problem)
        assert report.converged
        assert report.iterations <= 40
        assert report.divergence_reason is None
        assert report.iterations == len(report.history)
        assert report.max_amplitude == pytest.approx(np.abs(E).max())
        assert np.abs(problem.residual_complex(E)).max() < 1e-8
        # below REUSE_MIN_UNKNOWNS: one LU per step, no Krylov solves
        assert report.factorizations == report.iterations
        assert report.krylov_iterations == report.forced_steps == 0

    def test_relaxation_bookkeeping(self):
        # while the step is large the applied step is omega * delta / max(1,
        # |delta|); once below the switch threshold, steps go in whole
        omega = 0.37
        _, report = newton_solve(kerr_problem(eps=0.5), NewtonConfig(omega=omega))
        assert report.converged
        for entry in report.history:
            if entry.step_norm >= 0.01:
                expect = omega * entry.step_norm / max(1.0, entry.step_norm)
            else:
                expect = entry.step_norm
            assert entry.applied_step_norm == pytest.approx(expect, rel=1e-12)

    def test_quadratic_tail(self):
        _, report = newton_solve(kerr_problem())
        assert_quadratic_tail(report)

    def test_warm_start_one_iteration(self):
        problem = kerr_problem()
        E, _ = newton_solve(problem)
        _, report = newton_solve(problem, NewtonConfig(initial_guess=E))
        assert report.converged
        assert report.iterations == 1

    def test_linear_stack_one_exact_step(self):
        # without a Kerr term the first full step is the solution, so no
        # relaxed steps and one LU
        problem = build_problem_1d(build_grid_1d(5.0, 128), slab(1.5, 0.0),
                                   Incoming1D(EincL=1.0))
        E, report = newton_solve(problem)
        assert report.converged
        assert report.iterations == report.factorizations == 1
        assert np.abs(problem.residual_complex(E)).max() < 1e-8

    def test_divergence_reported_not_raised(self):
        config = NewtonConfig(max_iterations=60)
        _, report = newton_solve(kerr_problem(eps=10.0), config)
        assert not report.converged
        assert report.divergence_reason == "MaxIter"
        assert report.iterations == 60
        assert len(report.history) == 60

    def test_iteration_cap_respected(self):
        _, report = newton_solve(kerr_problem(), NewtonConfig(max_iterations=3))
        assert not report.converged
        assert report.iterations <= 3

    @pytest.mark.parametrize("failure,reason", [
        (MemoryError, "OutOfMemory"),
        (RuntimeError, "LinearSolveFail"),  # what splu raises on a singular matrix
    ], ids=["OutOfMemory", "LinearSolveFail"])
    @pytest.mark.parametrize("method", [newton_solve, freezing_solve])
    def test_linear_failure_reported_not_raised(self, method, failure, reason,
                                                monkeypatch):
        def failing_splu(*args, **kwargs):
            raise failure("splu failed")

        monkeypatch.setattr(spla, "splu", failing_splu)
        _, report = method(kerr_problem())
        assert not report.converged
        assert report.divergence_reason == reason
        assert report.iterations == 0
        assert report.factorizations == 0

    def test_overflowing_guess_stops_on_non_finite_residual(self):
        # |E|^2 of 1e200 overflows, so the first residual is not finite
        problem = kerr_problem()
        guess = np.full(problem.size, 1e200, dtype=complex)
        _, report = newton_solve(problem, NewtonConfig(initial_guess=guess))
        assert not report.converged
        assert report.divergence_reason == "NaN"
        assert report.iterations == len(report.history) == 0
        assert report.factorizations == 0


    def test_overflowing_step_stops_on_non_finite_step_norm(self, monkeypatch):
        # a finite real-split step of 1.5e308 entries has a complex modulus
        # of sqrt(2) 1.5e308, which overflows: relaxed to zero length, it
        # would leave the iterate in place until the iteration cap
        real = solvers.sparse_lu_solve

        def huge_step(J, rhs, **kwargs):
            x, lu = real(J, rhs, **kwargs)
            return np.full_like(x, 1.5e308), lu

        monkeypatch.setattr(solvers, "sparse_lu_solve", huge_step)
        with np.errstate(over="ignore"):
            _, report = newton_solve(kerr_problem(), NewtonConfig(max_iterations=5))
        assert report.divergence_reason == "NaN"
        assert report.iterations == len(report.history) == 0


class TestNonFiniteFixedPoint:
    def test_born_sweep_turning_non_finite_is_not_recorded(self, monkeypatch):
        # the one sweep of the first outer step returns inf from a finite
        # right-hand side: the run ends NaN before that step enters history
        monkeypatch.setattr(HelmholtzProblem, "vacuum_solve",
                            lambda self, rhs: np.full_like(rhs, np.inf))
        _, report = born_solve(kerr_problem(nu=1.0),
                               NewtonConfig(born_inner_iterations=1))
        assert report.divergence_reason == "NaN"
        assert report.iterations == len(report.history) == 0

    def test_overflowing_change_at_the_cap_is_nan(self, monkeypatch):
        # the one frozen solve allowed overflows |x - e|; the next
        # iteration's Kerr weights would catch it, but there is none
        real = solvers.sparse_lu_solve

        def huge_solution(J, rhs, **kwargs):
            x, lu = real(J, rhs, **kwargs)
            return np.full_like(x, 1.5e308 + 1.5e308j), lu

        monkeypatch.setattr(solvers, "sparse_lu_solve", huge_solution)
        with np.errstate(over="ignore", invalid="ignore"):
            _, report = freezing_solve(kerr_problem(), NewtonConfig(max_iterations=1))
        assert report.divergence_reason == "NaN"
        assert report.iterations == 1
        assert math.isinf(report.history[0].step_norm)


class SkewedFactor:
    """A SuperLU factor whose solves come back wrong: all NaN, or off by a
    relative 1e-6; either breaks the residual contract of sparse_lu_solve."""

    def __init__(self, lu, skew):
        self.lu, self.skew, self.nnz = lu, skew, lu.nnz

    def solve(self, rhs):
        x = self.lu.solve(rhs)
        return np.full_like(x, np.nan) if self.skew == "nan" else x * (1 + 1e-6)


# how sparse_lu_solve names each skew's contract miss
CONTRACT_MISSES = {"nan": "produced non-finite values", "off": "exceeds contract bound"}


class TestContractRejection:
    @staticmethod
    def skew_splu(monkeypatch, skew):
        real = spla.splu
        monkeypatch.setattr(spla, "splu",
                            lambda A, *args, **kw: SkewedFactor(real(A, *args, **kw), skew))

    @pytest.mark.parametrize("skew", CONTRACT_MISSES)
    def test_sparse_lu_solve_names_the_miss(self, skew, monkeypatch):
        self.skew_splu(monkeypatch, skew)
        A = sp.diags([np.full(49, -1.0), np.full(50, 4.0), np.full(49, -1.0)],
                     [-1, 0, 1], format="csr")
        with pytest.raises(SingularMatrix, match=CONTRACT_MISSES[skew]):
            sparse_lu_solve(A, np.ones(50))

    @pytest.mark.parametrize("skew", CONTRACT_MISSES)
    @pytest.mark.parametrize("method", [newton_solve, freezing_solve])
    def test_miss_reported_not_raised(self, method, skew, monkeypatch):
        self.skew_splu(monkeypatch, skew)
        _, report = method(kerr_problem())
        assert not report.converged
        assert report.divergence_reason == "LinearSolveFail"
        assert report.iterations == report.factorizations == 0


@pytest.fixture(scope="module")
def slab_2d():
    """The 2D soliton slab solved on the direct path (one LU per step)."""
    problem = soliton_slab()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "REUSE_MIN_UNKNOWNS", 10 * 2 * problem.size)
        E, report = newton_solve(problem)
    assert report.converged
    assert report.factorizations == report.iterations
    assert report.forced_steps == 0
    return problem, E, report


def assert_matches_direct(E, report, E_direct, direct):
    assert report.converged
    assert report.iterations == direct.iterations
    # steps below ~1e-13 sit at the rounding floor of the residual and
    # carry no digits to compare
    assert [h.step_norm for h in report.history] == pytest.approx(
        [h.step_norm for h in direct.history], rel=1e-10, abs=1e-13)
    assert np.abs(E - E_direct).max() <= 1e-12 * np.abs(E_direct).max()


class TestFactorReuse:
    # these compare exact steps one by one, so forcing is off
    def test_matches_direct_path_with_fewer_factorizations(self, slab_2d, monkeypatch):
        monkeypatch.setattr(solvers, "FORCING", 0.0)
        problem, E_direct, direct = slab_2d
        assert 2 * problem.size >= solvers.REUSE_MIN_UNKNOWNS
        cold = spy_separable_solves(monkeypatch)
        E, report = newton_solve(problem)
        assert_matches_direct(E, report, E_direct, direct)
        assert report.factorizations < report.iterations
        assert report.krylov_iterations > 0
        assert cold  # from the separable cold start

    def test_failed_krylov_steps_refactor(self, slab_2d, monkeypatch):
        # a Krylov solve that never improves its start leaves every step that
        # needs it to a fresh LU in the same step; the cold start (step 0)
        # takes the separable inverse, not an LU
        problem, E_direct, direct = slab_2d
        calls = []

        def stalled_gcrotmk(A, b, x0=None, **kwargs):
            calls.append(1)
            return x0.copy(), 1

        monkeypatch.setattr(spla, "gcrotmk", stalled_gcrotmk)
        monkeypatch.setattr(solvers, "FORCING", 0.0)
        E, report = newton_solve(problem)
        assert report.divergence_reason is None
        assert_matches_direct(E, report, E_direct, direct)
        assert len(calls) > 0
        assert report.factorizations == len(calls)
        assert report.krylov_iterations == 0

    @staticmethod
    def exact_in_ten(monkeypatch):
        """(J, rhs) of a small sparse system, with every Krylov solve made to
        return its exact solution after 10 iterations."""
        J = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(8, 8), format="csr")
        rhs = np.arange(1.0, 9.0)
        x = np.linalg.solve(J.toarray(), rhs)
        monkeypatch.setattr(solvers, "_krylov_solve",
                            lambda *args, **kwargs: (x.copy(), 10))
        return J, rhs

    def test_factor_retired_once_its_krylov_budget_is_spent(self, monkeypatch):
        # the first call factors; the next five spend 50 > LU_COST_SOLVES
        # iterations on that factor, so the seventh factors afresh
        J, rhs = self.exact_in_ten(monkeypatch)
        seen = spy_factorizations(monkeypatch)
        linear = solvers._LinearSolve(reuse=True)
        for _ in range(7):
            x, failure = linear(J, rhs)
            assert failure is None and x is not None
        assert linear.factorizations == len(seen) == 2
        assert linear.krylov_iterations == 50

    def test_separable_factor_is_never_charged(self, monkeypatch):
        # not even by a budget that would retire an LU after every call
        monkeypatch.setattr(solvers, "LU_COST_SOLVES", 0)
        J, rhs = self.exact_in_ten(monkeypatch)
        seen = spy_factorizations(monkeypatch)
        factor = solvers._SeparableFactor(lambda v: v)
        linear = solvers._LinearSolve(reuse=True, factor=factor)
        for _ in range(10):
            x, failure = linear(J, rhs)
            assert failure is None and x is not None
        assert linear.factorizations == 0 and seen == []
        assert linear.lu is factor and linear.krylov_iterations == 100

    def test_budget_retires_keep_exact_newton(self, slab_2d, monkeypatch):
        # with forcing off every step is exact, so retiring factors early only
        # moves the LUs: 2 with the default budget, 4 with a budget of 10
        monkeypatch.setattr(solvers, "FORCING", 0.0)
        monkeypatch.setattr(solvers, "LU_COST_SOLVES", 10)
        problem, E_direct, direct = slab_2d
        E, report = newton_solve(problem)
        assert_matches_direct(E, report, E_direct, direct)
        assert report.factorizations == 4


class TestSeparableColdStart:
    # Newton from e = 0 on the reuse path solves step 0 with the separable
    # inverse of A_lin (HelmholtzProblem.linear_inverse) in place of an LU
    def test_step_zero_makes_no_lu(self, monkeypatch):
        seen = spy_factorizations(monkeypatch)
        cold = spy_separable_solves(monkeypatch)
        _, report = newton_solve(soliton_slab(), NewtonConfig(max_iterations=2))
        assert report.iterations == 2 and report.mirror_folded
        assert seen == [] and report.factorizations == 0
        # step 0's solve, then step 1's Krylov solve preconditioned by it
        assert len(cold) == 2 + report.krylov_iterations

    def test_1d_slab_takes_the_separable_cold_start(self, monkeypatch):
        # a 1D problem is a HelmholtzProblem, so on the reuse path it has the
        # same separable inverse of A_lin as a 2D section
        mat = slab(1.0, 0.05)

        def kerr_slab_1d():
            return build_problem_1d(build_grid_1d(5.0, 256), mat, Incoming1D(EincL=1.75))

        E_direct, direct = newton_solve(kerr_slab_1d())
        monkeypatch.setattr(solvers, "REUSE_MIN_UNKNOWNS", 0)
        seen = spy_factorizations(monkeypatch)
        cold = spy_separable_solves(monkeypatch)
        E, report = newton_solve(kerr_slab_1d())
        assert report.converged and cold
        assert seen == [] and report.factorizations == 0
        assert (report.iterations, report.krylov_iterations) == (18, 41)
        assert np.abs(E - E_direct).max() <= 1e-12 * np.abs(E_direct).max()

    def test_warm_start_factors_at_step_zero(self, slab_2d, monkeypatch):
        problem, E_direct, _ = slab_2d
        seen = spy_factorizations(monkeypatch)
        cold = spy_separable_solves(monkeypatch)
        _, report = newton_solve(problem, NewtonConfig(initial_guess=0.5 * E_direct,
                                                       max_iterations=1))
        assert report.mirror_folded and report.factorizations == 1
        assert len(seen) == 1 and cold == []

    @staticmethod
    def spoil_inverse(monkeypatch, spoil):
        """Make every linear_inverse spoil(inverse) in place of inverse."""
        real = HelmholtzProblem.linear_inverse
        monkeypatch.setattr(HelmholtzProblem, "linear_inverse",
                            lambda self: spoil(real(self)))

    def test_inverse_near_the_contract_is_polished_without_an_lu(self, monkeypatch):
        # 1.001 A_lin^{-1} b misses the contract; one GCROT iteration
        # preconditioned by it meets it, as on any reuse step
        E_ref, ref = newton_solve(soliton_slab())
        self.spoil_inverse(monkeypatch, lambda inverse: lambda rhs: 1.001 * inverse(rhs))
        seen = spy_factorizations(monkeypatch)
        _, first = newton_solve(soliton_slab(), NewtonConfig(max_iterations=1))
        assert seen == [] and first.factorizations == 0 and first.krylov_iterations > 0
        E, report = newton_solve(soliton_slab())
        assert report.converged and report.iterations == ref.iterations
        assert report.forced_steps == ref.forced_steps
        assert report.factorizations == ref.factorizations == len(seen)
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()

    def test_inverse_missing_the_contract_falls_back_to_lu(self, monkeypatch):
        # an identity "inverse" leaves GCROT short of the contract after
        # KRYLOV_RESTART iterations, so step 0 factors
        E_ref, ref = newton_solve(soliton_slab())
        self.spoil_inverse(monkeypatch, lambda inverse: lambda rhs: rhs.copy())
        seen = spy_factorizations(monkeypatch)
        _, first = newton_solve(soliton_slab(), NewtonConfig(max_iterations=1))
        assert first.factorizations == len(seen) == 1
        assert first.krylov_iterations == solvers.KRYLOV_RESTART
        seen.clear()
        E, report = newton_solve(soliton_slab())
        assert report.converged and report.iterations == ref.iterations
        assert report.forced_steps == ref.forced_steps
        assert report.factorizations == ref.factorizations + 1 == len(seen)
        assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()


@pytest.fixture(scope="module")
def forced_slab():
    """Newton on the 2D soliton slab with the default forcing, and for each
    linear solve (forcing, forced, ||J x - rhs||_inf, ||rhs||_inf, contract
    bound of sparse_lu_solve)."""
    solves = []
    call = solvers._LinearSolve.__call__

    def spy(self, J, rhs, forcing=0.0):
        x, failure = call(self, J, rhs, forcing)
        if x is not None:
            J_norm = np.abs(J).sum(axis=1).max()
            solves.append((forcing, self.forced, np.abs(J @ x - rhs).max(),
                           np.abs(rhs).max(), solvers._contract_bound(J_norm, x, rhs)))
        return x, failure

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._LinearSolve, "__call__", spy)
        E, report = newton_solve(soliton_slab())
    assert report.converged
    assert len(solves) == report.iterations
    return E, report, solves


class TestForcing:
    def test_matches_direct_path(self, slab_2d, forced_slab):
        _, E_direct, _ = slab_2d
        E, report, solves = forced_slab
        assert report.forced_steps == sum(forced for _, forced, *_ in solves) > 0
        assert np.abs(E - E_direct).max() <= 1e-12 * np.abs(E_direct).max()

    def test_forced_solves_meet_forcing_test_others_the_contract(self, forced_slab):
        _, _, solves = forced_slab
        for forcing, forced, resid, rhs_norm, bound in solves:
            if forced:
                assert forcing == solvers.FORCING
                assert resid <= forcing * rhs_norm
            else:
                assert resid <= bound

    def test_first_step_is_exact(self, forced_slab):
        # it has no step before it, so it meets the contract, never forced
        _, _, solves = forced_slab
        forcing, forced, resid, _, bound = solves[0]
        assert forcing == 0.0 and not forced and resid <= bound

    def test_steps_after_the_first_full_step_are_exact(self, forced_slab):
        _, report, solves = forced_slab
        full = [h.step_norm < NewtonConfig().switch_threshold for h in report.history]
        first = full.index(True)
        assert not any(forced for _, forced, *_ in solves[first + 1:])
        assert not solves[-1][1]  # converged on an exact step

    def test_quadratic_tail(self, forced_slab):
        _, report, _ = forced_slab
        assert_quadratic_tail(report)

    def test_matches_unfolded_reference(self):
        (_, report), (_, ref) = assert_matches_unfolded(newton_solve)
        assert report.forced_steps > 0 and ref.forced_steps > 0

    def test_forcing_off_forces_nothing(self, slab_2d, monkeypatch):
        monkeypatch.setattr(solvers, "FORCING", 0.0)
        problem, E_direct, _ = slab_2d
        E, report = newton_solve(problem)
        assert report.converged and report.forced_steps == 0
        assert np.abs(E - E_direct).max() <= 1e-12 * np.abs(E_direct).max()


class TestCounterPropagatingPair:
    def test_net_power_constant_and_matches_direct_path(self, monkeypatch):
        grid, problem = counter_propagating_pair()
        E, report = newton_solve(problem)
        assert report.converged and report.mirror_folded
        assert report.factorizations < report.iterations  # on the reuse path
        # the net power of the two beams is constant across the slab, away
        # from the entry and exit rows (as acceptance check 11)
        assert poynting_flux(E, grid, K0).power_deviation(2, grid.N - 2) <= 0.01
        monkeypatch.setattr(solvers, "REUSE_MIN_UNKNOWNS", 10 * 2 * problem.size)
        E_direct, direct = newton_solve(problem)
        assert direct.converged and direct.factorizations == direct.iterations
        assert np.abs(E - E_direct).max() <= 1e-12 * np.abs(E_direct).max()


class TestCrossMethod:
    def test_freezing_matches_newton_on_kerr_slab(self):
        problem = kerr_problem()
        E_newton, _ = newton_solve(problem)
        E_frozen, report = freezing_solve(problem)
        assert report.converged
        assert np.abs(E_frozen - E_newton).max() < 1e-10
        assert report.factorizations == report.iterations
        assert report.krylov_iterations == report.forced_steps == 0

    def test_born_matches_newton_at_weak_kerr(self):
        # nu = 1 keeps the vacuum preconditioner exact for the linear part,
        # so the inner sweeps only have to track the weak nonlinearity
        grid = build_grid_1d(5.0, 128)
        mat, inc = slab(1.0, 0.01), Incoming1D(EincL=1.0)
        E_newton, _ = solve_1d(grid, mat, inc, method="newton")
        E_born, report = solve_1d(grid, mat, inc, method="born")
        assert report.converged
        assert np.abs(E_born - E_newton).max() < 1e-8
        assert report.factorizations == report.krylov_iterations == 0
        assert report.forced_steps == report.lu_fill == 0
        assert not report.mirror_folded

    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_born_2d_matches_newton_and_assembled_sweep(self, geometry, extent):
        # nu = 1 with a weak Kerr layer: the eps jump at the faces gives
        # interface rows, so the sweep applies both A_lin - A0 and C diag(w)
        problem = weak_kerr_slab_2d(geometry, extent)
        E_newton, _ = newton_solve(problem)
        E_born, report = solve(problem, method="born")
        assert report.converged
        assert np.abs(E_born - E_newton).max() <= 1e-8
        E_ref, iterations = born_assembled_reference(problem, NewtonConfig())
        assert report.iterations == iterations
        assert np.abs(E_born - E_ref).max() <= 1e-12 * np.abs(E_ref).max()

    def test_born_blow_up_reported_as_nan(self):
        # nu = 1.5 puts the linear contrast outside the vacuum sweep's
        # convergence domain
        _, report = solve(kerr_problem(), method="born")
        assert not report.converged
        assert report.divergence_reason == "NaN"
        assert report.iterations == len(report.history) > 0

    def test_born_exact_on_contrast_free_linear_stack(self):
        # A_lin is the vacuum operator, so the first sweep is the solution
        problem = build_problem_1d(build_grid_1d(5.0, 64), slab(1.0, 0.0),
                                   Incoming1D(EincL=1.0))
        E_frozen, _ = freezing_solve(problem)
        E_born, report = solve(problem, method="born")
        assert report.converged
        assert report.iterations == len(report.history) == 1
        assert np.abs(E_born - E_frozen).max() < 1e-10

    def test_dispatch_validates_method(self):
        with pytest.raises(ValueError):
            solve(kerr_problem(), method="gauss")


class TestSolveTelemetry:
    @pytest.mark.parametrize("method", [newton_solve, freezing_solve])
    def test_lu_fill_is_largest_factorization(self, method, monkeypatch):
        seen = spy_factorizations(monkeypatch)
        _, report = method(kerr_problem())
        assert report.converged
        assert len(seen) == report.factorizations
        assert report.lu_fill == max(nnz for _, nnz in seen) > 0
        assert not report.mirror_folded


def assert_matches_unfolded(solver):
    """Run solver on the soliton slab, folded and on the full-size reference;
    check that both end alike after as many iterations, that the fields agree
    to 1e-12 relative and that the folded one is exactly symmetric. Returns
    both (field, SolveReport) pairs, folded first."""
    (E, report), (E_ref, ref) = (solver(soliton_slab()),
                                 solver(unfolded(soliton_slab())))
    assert report.mirror_folded and not ref.mirror_folded
    assert (report.converged, report.divergence_reason, report.iterations) == (
        ref.converged, ref.divergence_reason, ref.iterations)
    assert np.abs(E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()
    assert np.array_equal(E, E[:, ::-1])
    return (E, report), (E_ref, ref)


@pytest.fixture(scope="module")
def mirror_pair():
    """Newton on the 2D soliton slab, folded and on the full-size reference,
    with exact steps only (forcing off)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "FORCING", 0.0)
        return assert_matches_unfolded(newton_solve)


class TestMirrorFold:
    def test_half_section_is_the_algebraic_fold(self):
        # reference: the fold of the full system, X[H] @ S and b[H], with H
        # the orbit representatives and S the 0/1 unfold matrix (a column
        # per orbit, a 1 at both of its nodes)
        problem = soliton_slab()
        mirror, n = problem.mirror, problem.size
        H = np.flatnonzero(np.arange(n) < mirror)
        gather = np.empty(n, dtype=np.int64)
        gather[H] = gather[mirror[H]] = np.arange(H.size)
        S = sp.csr_matrix((np.ones(n), (np.arange(n), gather)), shape=(n, H.size))
        half = problem.half_section()
        M = problem.grid.M
        assert np.array_equal(half.grid.transverse_coords(),
                              problem.grid.transverse_coords()[:M // 2])
        for name in ("A_lin", "C"):
            want, got = (getattr(problem, name)[H] @ S).tocsr(), getattr(half, name).copy()
            want.sort_indices()
            got.sort_indices()
            assert np.array_equal(want.indptr, got.indptr)
            assert np.array_equal(want.indices, got.indices)
            assert abs(got - want).max() <= 1e-13 * abs(want).max()
        # b passes through each section's dense injection matrix, built from
        # its own eigenbasis, whose entries reach twice max|b|: it differs by
        # 2.3e-13 relative here
        assert np.abs(half.b - problem.b[H]).max() <= 1e-12 * np.abs(problem.b).max()

    def test_newton_matches_unfolded_reference(self, mirror_pair):
        (E, report), (E_ref, ref) = mirror_pair
        assert_matches_direct(E, report, E_ref, ref)
        assert [h.residual_norm for h in report.history] == pytest.approx(
            [h.residual_norm for h in ref.history], rel=1e-10, abs=1e-13)
        assert report.factorizations == ref.factorizations
        assert 0 < report.lu_fill < ref.lu_fill / 2

    def test_folded_field_exactly_symmetric(self, mirror_pair):
        (E, _), _ = mirror_pair
        assert np.array_equal(E, E[:, ::-1])

    def test_linear_systems_are_half_size(self, monkeypatch):
        problem = soliton_slab()
        seen = spy_factorizations(monkeypatch)
        cold = spy_separable_solves(monkeypatch)
        # a whole run: the cold start takes the separable inverse, and the
        # first LU comes only once a Krylov solve on it falls short
        _, report = newton_solve(problem)
        assert report.mirror_folded and report.factorizations > 0 and cold
        # half of the 2 * size real-split unknowns
        assert [rows for rows, _ in seen] == [problem.size] * report.factorizations
        assert set(cold) == {problem.size}

    @pytest.mark.parametrize("method", [newton_solve, freezing_solve, born_solve])
    def test_runs_build_nothing_full_size(self, method, monkeypatch):
        # the run iterates on the half system: no full-size residual,
        # Jacobian or frozen operator is ever built
        sizes = []
        for name in ("jacobian_real", "residual_complex", "frozen_operator"):
            def spy(self, v, real=getattr(KerrSystem, name)):
                sizes.append((self.size, v.size))
                return real(self, v)
            monkeypatch.setattr(KerrSystem, name, spy)
        problem = soliton_slab()
        _, report = method(problem, NewtonConfig(max_iterations=3))
        assert report.mirror_folded and report.iterations == 3
        assert sizes and set(sizes) == {(problem.size // 2, problem.size // 2)}

    def test_asymmetric_initial_guess_takes_full_path(self, mirror_pair):
        (E, _), _ = mirror_pair
        guess = E.copy()
        guess[:, : E.shape[1] // 2] *= 1.001
        E_full, report = newton_solve(soliton_slab(), NewtonConfig(initial_guess=guess))
        assert report.converged
        assert not report.mirror_folded
        assert np.abs(E_full - E).max() <= 1e-10 * np.abs(E).max()

    def test_freezing_matches_unfolded_reference(self):
        (_, report), (_, ref) = assert_matches_unfolded(freezing_solve)
        assert 0 < report.lu_fill < ref.lu_fill

    def test_born_matches_unfolded_reference(self, monkeypatch):
        rhs_sizes, factor_sizes = [], []
        vacuum_solve = HelmholtzProblem.vacuum_solve
        factor = scipy.linalg.lapack.zgttrf

        def spy_solve(self, rhs):
            rhs_sizes.append(rhs.size)
            return vacuum_solve(self, rhs)

        def spy_factor(*args, **kwargs):
            factor_sizes.append(args[1].size)
            return factor(*args, **kwargs)

        monkeypatch.setattr(HelmholtzProblem, "vacuum_solve", spy_solve)
        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", spy_factor)
        # slab_2d's problem shares the soliton slab's operator, and with it
        # any vacuum factor an earlier test built; an operator table of this
        # test's own makes every operator here a fresh one
        monkeypatch.setattr(helmholtz_nd, "_OPERATORS", weakref.WeakValueDictionary())
        (E, report), _ = assert_matches_unfolded(born_solve)
        assert report.converged
        n, sweeps = E.size, report.iterations * NewtonConfig().born_inner_iterations
        assert rhs_sizes == [n // 2] * sweeps + [n] * sweeps
        # the half section factors the tridiagonals of its own M/2 modes
        # once, the reference those of all M
        assert factor_sizes == [n // 2, n]


class TestDeterminism:
    def test_repeat_solves_bitwise_identical(self):
        E1, r1 = newton_solve(kerr_problem())
        E2, r2 = newton_solve(kerr_problem())
        assert np.array_equal(E1, E2)
        assert r1.iterations == r2.iterations
        assert [h.step_norm for h in r1.history] == [
            h.step_norm for h in r2.history
        ]

    def test_repeat_folded_born_bitwise_identical(self):
        problem = soliton_slab()
        E1, r1 = born_solve(problem)
        E2, r2 = born_solve(problem)
        E3, r3 = born_solve(soliton_slab())
        assert r1.mirror_folded and r1.converged
        assert np.array_equal(E1, E2) and np.array_equal(E1, E3)
        assert r1.history == r2.history == r3.history

    def test_repeat_budget_retiring_solves_bitwise_identical(self, monkeypatch):
        # the Krylov budget counts iterations, never time
        monkeypatch.setattr(solvers, "FORCING", 0.0)
        monkeypatch.setattr(solvers, "LU_COST_SOLVES", 10)
        E1, r1 = newton_solve(soliton_slab())
        E2, r2 = newton_solve(soliton_slab())
        assert r1.factorizations == 4  # the budget retired two factors
        assert np.array_equal(E1, E2) and r1 == r2

    def test_repeat_reuse_solves_bitwise_identical(self):
        problem = soliton_slab()
        E1, r1 = newton_solve(problem)
        E2, r2 = newton_solve(problem)
        assert r1.factorizations < r1.iterations
        assert r1.forced_steps > 0
        assert np.array_equal(E1, E2)
        assert (r1.factorizations, r1.krylov_iterations, r1.forced_steps) == (
            r2.factorizations, r2.krylov_iterations, r2.forced_steps)
        assert [h.step_norm for h in r1.history] == [
            h.step_norm for h in r2.history
        ]
