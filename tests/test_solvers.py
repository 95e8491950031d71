"""Tests for the three solution strategies and the sparse direct-solve
contract: convergence behavior, relaxation bookkeeping, controlled failure
reporting, and determinism.

The iteration mathematics is checked against recomputed invariants (applied
step sizes, quadratic tail contraction) and against cross-method agreement
on problems where every method is in its convergence domain.
"""

import math
import warnings

import numpy as np
import pytest
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
    build_problem_1d,
    freezing_solve,
    make_incoming,
    newton_solve,
    solve,
    solve_1d,
    solvers,
    sparse_lu_solve,
)

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


def raise_memory_error(*args, **kwargs):
    raise MemoryError("out of memory")


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(omega=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(omega=1.2)
        with pytest.raises(ValueError):
            NewtonConfig(max_iterations=0)
        with pytest.raises(ValueError):
            NewtonConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(switch_threshold=-1.0)

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

    def test_unrelated_preconditioner_declines(self):
        rng = np.random.default_rng(4)
        J = self.banded(rng)
        lu = spla.splu(sp.eye(J.shape[0], format="csc"))
        x, iterations = solvers._krylov_solve(J, rng.normal(size=J.shape[0]), lu)
        assert x is None
        assert iterations == solvers.KRYLOV_RESTART


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
        assert report.krylov_iterations == 0

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
        # after the switch to full steps the error contracts quadratically
        # until it hits the arithmetic floor
        _, report = newton_solve(kerr_problem())
        steps = [h.step_norm for h in report.history]
        checked = 0
        for s, s_next in zip(steps, steps[1:]):
            if s < 0.01 and s_next > 1e-13:
                assert s_next <= 10.0 * s * s
                checked += 1
        assert checked >= 2

    def test_warm_start_one_iteration(self):
        problem = kerr_problem()
        E, _ = newton_solve(problem)
        _, report = newton_solve(problem, NewtonConfig(initial_guess=E))
        assert report.converged
        assert report.iterations == 1

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

    @pytest.mark.parametrize("method", [newton_solve, freezing_solve])
    def test_out_of_memory_reported_not_raised(self, method, monkeypatch):
        monkeypatch.setattr(spla, "splu", raise_memory_error)
        _, report = method(kerr_problem())
        assert not report.converged
        assert report.divergence_reason == "OutOfMemory"
        assert report.iterations == 0
        assert report.factorizations == 0


@pytest.fixture(scope="module")
def slab_2d():
    """The 2D soliton slab solved on the direct path (one LU per step)."""
    problem = soliton_slab()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "REUSE_MIN_UNKNOWNS", 10 * 2 * problem.size)
        E, report = newton_solve(problem)
    assert report.converged
    assert report.factorizations == report.iterations
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
    def test_matches_direct_path_with_fewer_factorizations(self, slab_2d):
        problem, E_direct, direct = slab_2d
        assert 2 * problem.size >= solvers.REUSE_MIN_UNKNOWNS
        E, report = newton_solve(problem)
        assert_matches_direct(E, report, E_direct, direct)
        assert report.factorizations < report.iterations
        assert report.krylov_iterations > 0

    def test_failed_krylov_steps_refactor(self, slab_2d, monkeypatch):
        # a GMRES that never improves its start leaves every step that needs
        # it to a fresh LU in the same step
        problem, E_direct, direct = slab_2d
        calls = []

        def stalled_gmres(A, b, x0=None, **kwargs):
            calls.append(1)
            return x0.copy(), 1

        monkeypatch.setattr(spla, "gmres", stalled_gmres)
        E, report = newton_solve(problem)
        assert report.divergence_reason is None
        assert_matches_direct(E, report, E_direct, direct)
        assert len(calls) > 0
        assert report.factorizations == 1 + len(calls)
        assert report.krylov_iterations == 0


class TestCrossMethod:
    def test_freezing_matches_newton_on_kerr_slab(self):
        problem = kerr_problem()
        E_newton, _ = newton_solve(problem)
        E_frozen, report = freezing_solve(problem)
        assert report.converged
        assert np.abs(E_frozen - E_newton).max() < 1e-10
        assert report.factorizations == report.iterations
        assert report.krylov_iterations == 0

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

    def test_dispatch_validates_method(self):
        with pytest.raises(ValueError):
            solve(kerr_problem(), method="gauss")


class TestDeterminism:
    def test_repeat_solves_bitwise_identical(self):
        E1, r1 = newton_solve(kerr_problem())
        E2, r2 = newton_solve(kerr_problem())
        assert np.array_equal(E1, E2)
        assert r1.iterations == r2.iterations
        assert [h.step_norm for h in r1.history] == [
            h.step_norm for h in r2.history
        ]

    def test_repeat_reuse_solves_bitwise_identical(self):
        problem = soliton_slab()
        E1, r1 = newton_solve(problem)
        E2, r2 = newton_solve(problem)
        assert r1.factorizations < r1.iterations
        assert np.array_equal(E1, E2)
        assert (r1.factorizations, r1.krylov_iterations) == (
            r2.factorizations, r2.krylov_iterations)
        assert [h.step_norm for h in r1.history] == [
            h.step_norm for h in r2.history
        ]
