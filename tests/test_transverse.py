"""Tests for the transverse machinery: boundary closures, the ghost-cell
extension matrix, operator construction, and the mode decomposition.

Oracles: exact outgoing exponentials for the radiation closure, the Riccati
equation obeyed by the cylindrical far-field logarithmic derivative, and the
closed-form cosine eigensystem of the mirror-closed section.
"""

import warnings

import numpy as np
import pytest

from nlhelm import (
    IllConditionedEigenbasis,
    SingularClosure,
    TransverseClosure,
    abc_ghost_row,
    build_grid_multi,
    build_transverse_operator,
    build_transverse_suite,
    characteristic_root,
    default_closures,
    eigensolve_transverse,
    extension_matrix,
    hankel_ratio_alpha,
    radiation_closure,
    sommerfeld_alpha,
    symmetric_closure,
)

K0 = 4.0


def quiet_grid(Zmax, N, extent, M, geometry):
    """Toy cross-sections here are often deliberately skinny; silence the
    aspect-ratio advisory."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_grid_multi(Zmax, N, extent, M, geometry)


def symmetric_suite(M, extent=6.0, k0=K0, geometry="cartesian"):
    grid = quiet_grid(5.0, 40, extent, M, geometry)
    sym = symmetric_closure()
    return grid, build_transverse_suite(grid, k0, bottom=sym, top=sym)


class TestAlphas:
    def test_sommerfeld_is_plane_wave_log_derivative(self):
        # d/dx log e^{i nu0 k0 x} = i nu0 k0
        assert sommerfeld_alpha(K0) == 1j * K0
        assert sommerfeld_alpha(K0, nu0=1.5) == 1.5j * K0

    def test_hankel_ratio_satisfies_riccati(self):
        # g = E'/E for an outgoing cylindrical wave obeys
        # g' + g^2 + g/rho + k0^2 = 0; check with a finite-difference g'
        k0, R, d = 3.0, 4.0, 1e-5
        g = hankel_ratio_alpha(k0, R)
        gp = (hankel_ratio_alpha(k0, R + d) - hankel_ratio_alpha(k0, R - d)) / (2 * d)
        assert abs(gp + g * g + g / R + k0 * k0) < 1e-8

    def test_hankel_ratio_asymptotics(self):
        # far field approaches the planar value i k0 - 1/(2 Rmax)
        k0, R = 20.0, 10.0
        assert hankel_ratio_alpha(k0, R) == pytest.approx(
            1j * k0 - 1.0 / (2.0 * R), abs=2e-4
        )

    def test_hankel_ratio_needs_resolved_rim(self):
        with pytest.raises(ValueError):
            hankel_ratio_alpha(0.1, 1.0)


class TestClosures:
    def test_closure_validation(self):
        with pytest.raises(ValueError):
            TransverseClosure(kind="radiation")  # block required
        with pytest.raises(ValueError):
            TransverseClosure(kind="symmetric", block=np.eye(2, 3))
        with pytest.raises(ValueError):
            TransverseClosure(kind="dirichlet")
        with pytest.raises(ValueError):
            radiation_closure(1j * K0, 0.1, "left")
        with pytest.raises(ValueError):
            radiation_closure(1j * K0, -0.1, "top")

    @pytest.mark.parametrize("block", [
        np.ones(3), np.ones((3, 3)), np.ones((2, 4)), np.ones((2, 2)),
        np.full((2, 3), np.nan),
    ], ids=["row", "3x3", "2x4", "2x2", "nan"])
    def test_malformed_block_rejected(self, block):
        # extension_matrix would copy a single row into both ghost rows and
        # drop a 3x3 block's third row, so construction checks the shape
        with pytest.raises(ValueError, match="finite 2x3 matrix"):
            TransverseClosure(kind="radiation", block=block)

    def test_closures_compare_and_hash_by_value(self):
        # the shared operator table keys by the closures themselves
        a = radiation_closure(4j, 0.25, "top")
        b = radiation_closure(4j, 0.25, "top")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != radiation_closure(4j, 0.25, "bottom")
        assert symmetric_closure() == symmetric_closure()

    @pytest.mark.parametrize("side", ["top", "bottom"])
    def test_radiation_ghosts_fourth_order(self, side):
        # ghost predictions for the exact outgoing exponential converge at
        # fourth order: halving h shrinks the error about sixteenfold
        Xmax, alpha = 12.0, sommerfeld_alpha(K0)
        errs = []
        for M in (256, 512):
            h = 2.0 * Xmax / M
            x = -Xmax + (np.arange(-2, M + 2) + 0.5) * h
            closure = radiation_closure(alpha, h, side)
            if side == "top":
                owned = np.exp(1j * K0 * x[2:-2])
                ghosts = closure.block @ owned[[M - 3, M - 2, M - 1]]
                exact = np.exp(1j * K0 * x[[M + 2, M + 3]])
            else:
                owned = np.exp(-1j * K0 * x[2:-2])
                ghosts = closure.block @ owned[[0, 1, 2]]
                exact = np.exp(-1j * K0 * x[[0, 1]])
            errs.append(np.max(np.abs(ghosts - exact)))
        assert 12.0 < errs[0] / errs[1] < 20.0

    def test_bottom_block_mirrors_top(self):
        top = radiation_closure(1j * K0, 0.25, "top")
        bottom = radiation_closure(1j * K0, 0.25, "bottom")
        assert bottom.block[0] == pytest.approx(top.block[1][::-1])
        assert bottom.block[1] == pytest.approx(top.block[0][::-1])

    def test_singular_alpha_detected(self):
        # the 2x2 ghost elimination degenerates at alpha*h = 46/15
        with pytest.raises(SingularClosure):
            radiation_closure(46.0 / 15.0, 1.0, "top")


class TestExtension:
    def test_symmetric_pattern(self):
        X = extension_matrix(4, symmetric_closure(), symmetric_closure()).toarray()
        expect = np.zeros((8, 4))
        expect[2:6] = np.eye(4)
        expect[0, 1] = expect[1, 0] = 1.0  # bottom ghosts mirror 1, 0
        expect[6, 3] = expect[7, 2] = 1.0  # top ghosts mirror M-1, M-2
        assert np.array_equal(X, expect)

    def test_single_node_reflects_everything(self):
        # all four ghosts bounce back onto the single owned node
        X = extension_matrix(1, symmetric_closure(), symmetric_closure()).toarray()
        assert np.array_equal(X, np.ones((5, 1)))

    def test_radiation_blocks_installed(self):
        closure = radiation_closure(1j * K0, 0.25, "top")
        bottom = radiation_closure(1j * K0, 0.25, "bottom")
        M = 8
        X = extension_matrix(M, bottom, closure).toarray()
        assert X[M + 2, M - 3 : M] == pytest.approx(closure.block[0])
        assert X[M + 3, M - 3 : M] == pytest.approx(closure.block[1])
        assert X[0, :3] == pytest.approx(bottom.block[0])
        assert X[1, :3] == pytest.approx(bottom.block[1])

    def test_radiation_needs_enough_nodes(self):
        closure = radiation_closure(1j * K0, 0.25, "top")
        with pytest.raises(ValueError):
            extension_matrix(7, symmetric_closure(), closure)
        with pytest.raises(ValueError):
            extension_matrix(0, symmetric_closure(), symmetric_closure())


class TestOperators:
    def test_two_node_compact_correction(self):
        _, suite = symmetric_suite(2)
        h = suite.grid.h_perp
        assert suite.compact_correction.toarray() * h**2 == pytest.approx(
            np.array([[-1.0, 1.0], [1.0, -1.0]])
        )

    def test_mirror_section_cosine_eigenvalues(self):
        # with mirror walls the discrete eigenvectors are cos(theta_l (m+1/2))
        # and every stencil block acts diagonally with a closed-form symbol
        grid, suite = symmetric_suite(12)
        M, h, hz = grid.M, grid.h_perp, grid.h_z
        theta = np.pi * np.arange(M) / M
        mu2 = (2.0 * np.cos(theta) - 2.0) / h**2
        mu4 = (-30.0 + 32.0 * np.cos(theta) - 2.0 * np.cos(2.0 * theta)) / (12.0 * h**2)
        muf = (6.0 - 8.0 * np.cos(theta) + 2.0 * np.cos(2.0 * theta)) / h**4
        lam = mu4 - hz**2 / 12.0 * muf - K0**2 * hz**2 / 12.0 * mu2

        eig = eigensolve_transverse(suite.laplacian, K0, hz)
        assert eig.eigenvalues == pytest.approx(lam, abs=1e-12)

        m = np.arange(M)
        for l in range(M):
            v = np.cos(theta[l] * (m + 0.5))
            v = v / v[np.argmax(np.abs(v))]
            got = eig.modes[:, l]
            assert min(np.max(np.abs(got - v)), np.max(np.abs(got + v))) < 1e-12

    def test_cylindrical_quadratic_exact(self):
        # (d_rr + d_r / rho) rho^2 = 4 exactly away from the radiation rim
        grid = quiet_grid(5.0, 40, 4.0, 16, "cylindrical")
        suite = build_transverse_suite(grid, K0)
        rho = grid.transverse_coords()
        for op in (suite.compact_correction, suite.interface_laplacian):
            vals = (op @ rho**2)[:12]
            assert vals == pytest.approx(np.full(12, 4.0), abs=1e-12)

    def test_dense_operator_matches_suite(self):
        grid, suite = symmetric_suite(8)
        sym = symmetric_closure()
        dense = build_transverse_operator(grid, K0, bottom=sym, top=sym)
        assert np.array_equal(dense, suite.laplacian.toarray())

    def test_default_closures(self):
        # narrow sections fall back to mirrors; production sections radiate
        narrow = quiet_grid(5.0, 40, 6.0, 4, "cartesian")
        b, t = default_closures(narrow, K0)
        assert b.kind == t.kind == "symmetric"

        cart = quiet_grid(5.0, 40, 6.0, 16, "cartesian")
        b, t = default_closures(cart, K0)
        assert b.kind == t.kind == "radiation"

        cyl = quiet_grid(5.0, 40, 4.0, 16, "cylindrical")
        b, t = default_closures(cyl, K0)
        assert b.kind == "symmetric"
        assert t.kind == "radiation"

    def test_production_eigensystem_quality(self):
        # diagonalization residual and root properties at production closures
        for geometry, extent in (("cartesian", 6.0), ("cylindrical", 4.0)):
            grid = quiet_grid(5.0, 40, extent, 16, geometry)
            suite = build_transverse_suite(grid, K0)
            eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
            L = suite.laplacian.toarray()
            resid = np.abs(L @ eig.modes - eig.modes * eig.eigenvalues).max()
            assert resid < 1e-10 * np.abs(L).max()
            assert np.max(np.abs(eig.roots)) <= 1.0 + 1e-12
            ksq = (K0**2 + eig.eigenvalues) / (1.0 + K0**2 * grid.h_z**2 / 12.0)
            char = eig.roots + 1.0 / eig.roots - (2.0 - ksq * grid.h_z**2)
            assert np.max(np.abs(char)) < 1e-10
            assert np.abs(eig.modes_inverse @ eig.modes - np.eye(16)).max() < 1e-10

    def test_mode_columns_pivot_normalized_and_sorted(self):
        grid = quiet_grid(5.0, 40, 6.0, 16, "cartesian")
        suite = build_transverse_suite(grid, K0)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        assert np.abs(eig.modes).max(axis=0) == pytest.approx(np.ones(16))
        k_perp_sq = -eig.eigenvalues
        assert np.all(np.diff(k_perp_sq.real) >= -1e-9)

    def test_defective_operator_rejected(self):
        with pytest.raises(IllConditionedEigenbasis):
            eigensolve_transverse(np.array([[1.0, 1.0], [0.0, 1.0]]), K0, 0.1)


class TestGhostRows:
    def test_zero_maps_to_zero(self):
        grid, suite = symmetric_suite(8)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        out = abc_ghost_row(eig, np.zeros(8), np.zeros(8))
        assert np.all(out == 0.0)

    def test_single_mode_propagation(self):
        # with no incoming beam the ghost column is one outward step of the
        # edge column: an eigenvector picks up exactly its root
        grid, suite = symmetric_suite(8)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        for l in (0, 3, 7):
            psi = eig.modes[:, l]
            out = abc_ghost_row(eig, np.zeros(8), psi)
            assert out == pytest.approx(eig.roots[l] * psi, abs=1e-12)

    def test_single_mode_injection(self):
        grid, suite = symmetric_suite(8)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        uinc = np.zeros(8, dtype=complex)
        uinc[2] = 1.0
        q = eig.roots[2]
        beta = (1.0 / q - q) * q**-3
        out = abc_ghost_row(eig, uinc, np.zeros(8))
        assert out == pytest.approx(beta * eig.modes[:, 2], abs=1e-12)

    def test_ghost_column_equivalent_in_physical_space(self):
        grid, suite = symmetric_suite(8)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        rng = np.random.default_rng(3)
        einc = rng.normal(size=8) + 1j * rng.normal(size=8)
        edge = rng.normal(size=8) + 1j * rng.normal(size=8)
        via_modes = abc_ghost_row(eig, eig.modes_inverse @ einc, edge)
        assert eig.ghost_column(einc, edge) == pytest.approx(via_modes, abs=1e-12)

    def test_single_node_section_reduces_to_slab_closure(self):
        # M=1 mirrors away the transverse operator entirely, so the mode root
        # and weights must equal the one-dimensional boundary closure
        grid = quiet_grid(5.0, 40, 6.0, 1, "cartesian")
        suite = build_transverse_suite(grid, K0)
        assert abs(suite.laplacian.toarray()[0, 0]) < 1e-15
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        slab = characteristic_root(K0, grid.h_z)
        assert eig.roots[0] == pytest.approx(slab.q, abs=1e-14)
        ghost = abc_ghost_row(eig, np.array([1.0]), np.array([0.5]))
        expect = slab.injection_weight + 0.5 * slab.propagation_weight
        assert ghost[0] == pytest.approx(expect, abs=1e-14)
