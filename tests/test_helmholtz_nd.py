"""Tests for the multi-dimensional assembly: per-node row evaluators against
the matrix assembly, mode transparency of the two-way boundary rows, Kerr
Jacobian blocks, vacuum separable solves, and the slab reduction at M=1.

Oracles: exact plane waves and mode fields, finite differences for the
Jacobian, and closed-form Wirtinger derivatives for the Kerr blocks.
"""

import dataclasses
import gc
import math
import runpy
import warnings
import weakref
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nlhelm import (
    BeamSpec,
    GridMultiD,
    HelmholtzProblem,
    Incoming1D,
    Layer,
    MaterialStack,
    NodeClass,
    Problem1D,
    assemble_jacobian,
    assemble_residual,
    build_grid_1d,
    build_grid_multi,
    build_transverse_suite,
    classify_nodes,
    eigensolve_transverse,
    from_real_split,
    kerr_jacobian_block,
    make_incoming,
    newton_solve,
    radiation_closure,
    residual_exterior,
    residual_interface,
    residual_interior_cartesian,
    residual_interior_cylindrical,
    sample_material,
    solve_nd,
    solvers,
    sommerfeld_alpha,
    symmetric_closure,
    to_real_split,
)
from nlhelm import helmholtz_nd
from nlhelm._system import KerrSystem, kerr_block_entries, real_split_matrix
from nlhelm.helmholtz_nd import _material_rows, mirror_invariant

K0 = 4.0
SYM = symmetric_closure()


def quiet_grid(Zmax, N, extent, M, geometry):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_grid_multi(Zmax, N, extent, M, geometry)


def vacuum(Zmax=5.0):
    return MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, Zmax, 1.0, 0.0),))


def two_layer(Zmax=4.0):
    return MaterialStack(
        k0=K0,
        sigma=1.0,
        layers=(Layer(0.0, Zmax / 2, 1.3, 0.08), Layer(Zmax / 2, Zmax, 1.0, 0.02)),
    )


def three_layer():
    # one genuine jump at z = 1.5 and one matched partition point at z = 3
    return MaterialStack(
        k0=K0,
        sigma=1.0,
        layers=(Layer(0.0, 1.5, 1.3, 0.08), Layer(1.5, 3.0, 1.1, 0.02),
                Layer(3.0, 4.0, 1.1, 0.02)),
    )


def random_field(grid, seed=11):
    rng = np.random.default_rng(seed)
    shape = (grid.N + 7, grid.M)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestPerNodeRows:
    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_per_node_matches_assembly(self, geometry, extent):
        # every non-boundary row of the assembled system must agree with the
        # standalone row evaluator chosen by the node's material situation
        grid = quiet_grid(4.0, 32, extent, 12, geometry)
        interior = (
            residual_interior_cartesian
            if geometry == "cartesian"
            else residual_interior_cylindrical
        )
        for mat in (two_layer(), three_layer()):
            problem = HelmholtzProblem(
                grid, mat, einc_left=np.linspace(0.5, 1.0, 12).astype(complex)
            )
            E = random_field(grid)
            res = problem.residual_complex(E.reshape(-1)).reshape(grid.N + 7, grid.M)
            classes = classify_nodes(grid.longitudinal(), mat)
            for n in range(-2, grid.N + 3):
                nu_l, eps_l = sample_material(mat, grid.longitudinal(), n, "left")
                nu_r, eps_r = sample_material(mat, grid.longitudinal(), n, "right")
                cls = classes[n + 3]
                for m in range(grid.M):
                    if cls is NodeClass.INTERFACE and (nu_l != nu_r or eps_l != eps_r):
                        v = residual_interface(E, n, m, problem)
                    elif cls is NodeClass.EXTERIOR:
                        v = residual_exterior(E, n, m, problem)
                    else:
                        v = interior(E, n, m, problem)
                    assert v == pytest.approx(res[n + 3, m], abs=1e-11)

    def test_geometry_guards(self):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cylindrical")
        problem = HelmholtzProblem(grid, vacuum(4.0), bottom=SYM, top=SYM)
        E = random_field(grid)
        with pytest.raises(ValueError):
            residual_interior_cartesian(E, 4, 2, problem)
        cart = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        problem_c = HelmholtzProblem(cart, vacuum(4.0), bottom=SYM, top=SYM)
        with pytest.raises(ValueError):
            residual_interior_cylindrical(random_field(cart), 4, 2, problem_c)

    def test_constant_field_closed_form(self):
        # mirror walls keep constants intact, so every transverse derivative
        # vanishes and the residual reduces to the point nonlinearity
        c = 0.8 - 0.6j  # |c| = 1
        mat = MaterialStack(
            k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.05),)
        )
        grid = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        problem = HelmholtzProblem(grid, mat, bottom=SYM, top=SYM)
        E = np.full((grid.N + 7, grid.M), c)
        inside = residual_interior_cartesian(E, 5, 3, problem)
        assert inside == pytest.approx(K0**2 * (c + 0.05 * abs(c) ** 2 * c), abs=1e-12)
        outside = residual_exterior(E, -2, 3, problem)
        assert outside == pytest.approx(K0**2 * c, abs=1e-12)

        cyl = quiet_grid(4.0, 32, 4.0, 8, "cylindrical")
        problem_cyl = HelmholtzProblem(cyl, vacuum(4.0), bottom=SYM, top=SYM)
        inside = residual_interior_cylindrical(E, 5, 3, problem_cyl)
        assert inside == pytest.approx(K0**2 * c, abs=1e-12)

    def test_interior_rows_fourth_order_on_plane_wave(self):
        # the compact row truncation error on an exact tilted plane wave
        # falls about sixteenfold when both steps are halved
        phi = 0.35
        kx, kz = K0 * np.sin(phi), K0 * np.cos(phi)
        errs = []
        for N, M in ((40, 32), (80, 64)):
            grid = quiet_grid(5.0, N, 5.0, M, "cartesian")
            problem = HelmholtzProblem(grid, vacuum(), bottom=SYM, top=SYM)
            zz = np.array([grid.z(n) for n in range(-3, grid.N + 4)])
            xx = grid.transverse_coords()
            E = np.exp(1j * (kz * zz[:, None] + kx * xx[None, :]))
            worst = 0.0
            for n in range(2, grid.N - 1, grid.N // 10):
                for m in range(4, grid.M - 4, grid.M // 8):
                    worst = max(worst, abs(residual_interior_cartesian(E, n, m, problem)))
            errs.append(worst)
        assert 12.0 < errs[0] / errs[1] < 20.0


class TestModeTransparency:
    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_incoming_modes_annihilated(self, geometry, extent):
        # for each transverse mode, the field psi_l q_l^n injected with
        # amplitude psi_l satisfies every assembled row, boundary rows included
        grid = quiet_grid(5.0, 40, extent, 16, geometry)
        suite = build_transverse_suite(grid, K0)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        R = grid.N + 7
        for l in range(grid.M):
            psi, q = eig.modes[:, l], eig.roots[l]
            E = np.outer(q ** (np.arange(R) - 3.0), psi)
            problem = HelmholtzProblem(grid, vacuum(), einc_left=psi)
            res = problem.residual_complex(E.reshape(-1))
            scale = np.abs(problem.A_lin).max()
            assert np.abs(res).max() < 1e-11 * scale

    def test_linear_solve_reproduces_mode_field(self):
        # end to end: solving the linear vacuum problem with a single incoming
        # mode returns that mode's exact discrete field
        grid = quiet_grid(5.0, 40, 6.0, 16, "cartesian")
        suite = build_transverse_suite(grid, K0)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        l = 2
        psi, q = eig.modes[:, l], eig.roots[l]
        E, report = solve_nd(grid, vacuum(), einc_left=psi)
        assert report.converged
        exact = np.outer(q ** (np.arange(grid.N + 7) - 3.0), psi)
        assert np.abs(E.reshape(grid.N + 7, grid.M) - exact).max() < 1e-10


class TestRightFace:
    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_right_face_mirrors_left_face(self, geometry, extent):
        # on a z-symmetric Kerr slab, driving the right face is the z-reversal
        # (row n <-> N - n) of driving the left face
        grid = quiet_grid(4.0, 32, extent, 12, geometry)
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.2, 0.05),))
        einc = np.exp(-(grid.transverse_coords() / 1.5) ** 2).astype(complex)
        left = HelmholtzProblem(grid, mat, einc_left=einc)
        right = HelmholtzProblem(grid, mat, einc_right=einc)
        shape = left.field_shape
        assert np.array_equal(right.b.reshape(shape), left.b.reshape(shape)[::-1])
        E_left, report_left = newton_solve(left)
        E_right, report_right = newton_solve(right)
        assert report_left.converged and report_right.converged
        assert report_left.iterations > 1
        assert np.abs(E_right - E_left[::-1]).max() <= 1e-12 * np.abs(E_left).max()


class TestKerrBlocks:
    def test_cubic_block_at_unity(self):
        assert kerr_jacobian_block(1.0, 1.0) == pytest.approx(
            np.array([[3.0, 0.0], [0.0, 1.0]])
        )

    def test_quintic_block(self):
        assert kerr_jacobian_block(1.0 + 1.0j, 2.0) == pytest.approx(
            np.array([[12.0, 8.0], [8.0, 12.0]])
        )

    def test_zero_field_block(self):
        assert np.array_equal(kerr_jacobian_block(0.0, 1.0), np.zeros((2, 2)))

    def test_cubic_entries_are_the_closed_form_bit_for_bit(self):
        # A^(sigma - 1) = A^0 is exactly 1.0 for every float, so the cubic
        # entries are the closed form without it, also at 0, inf and NaN
        values = [0.0, 1e-200, 1e200, np.inf, np.nan, 0.7, -1.3]
        er, ei = (v.ravel() for v in np.meshgrid(values, values))
        e = np.empty(er.size, dtype=complex)
        e.real, e.imag = er, ei
        with np.errstate(over="ignore", invalid="ignore"):
            entries = kerr_block_entries(e, 1.0)
            amp = er * er + ei * ei
            closed = (amp + 2.0 * er * er, 2.0 * er * ei, amp + 2.0 * ei * ei)
        for got, want in zip(entries, closed):
            assert got.tobytes() == want.tobytes()

    def test_sub_cubic_block_is_zero_with_a_warning_at_zero_only(self):
        # for 0 < sigma < 1 the derivative is singular at E = 0: that node
        # gets a zero block and a warning, every other node its closed form
        e = np.array([0.0, 1.0 + 1.0j, 0.3 - 0.2j])
        with pytest.warns(UserWarning, match="singular at E=0"):
            a, b, c = kerr_block_entries(e, 0.5)
        assert (a[0], b[0], c[0]) == (0.0, 0.0, 0.0)
        amp = np.abs(e[1:]) ** 2
        er, ei = e[1:].real, e[1:].imag
        assert a[1:] == pytest.approx(amp ** 0.5 + er * er / amp ** 0.5)
        assert b[1:] == pytest.approx(er * ei / amp ** 0.5)
        assert c[1:] == pytest.approx(amp ** 0.5 + ei * ei / amp ** 0.5)
        with pytest.warns(UserWarning, match="singular at E=0"):
            assert np.array_equal(kerr_jacobian_block(0.0, 0.5), np.zeros((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = kerr_jacobian_block(1.0 + 1.0j, 0.5)
        assert np.isfinite(block).all()
        assert block == pytest.approx(np.array([[1.5, 0.5], [0.5, 1.5]]) * math.sqrt(2.0))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_block_matches_finite_differences(self, sigma):
        rng = np.random.default_rng(5)
        t = 1e-7
        for _ in range(10):
            e = complex(rng.normal(), rng.normal())

            def P(re, im):
                w = complex(re, im)
                return abs(w) ** (2 * sigma) * w

            block = kerr_jacobian_block(e, sigma)
            for j, (dre, dim) in enumerate(((t, 0.0), (0.0, t))):
                d = (
                    np.array(
                        [
                            (P(e.real + dre, e.imag + dim)).real
                            - (P(e.real - dre, e.imag - dim)).real,
                            (P(e.real + dre, e.imag + dim)).imag
                            - (P(e.real - dre, e.imag - dim)).imag,
                        ]
                    )
                    / (2 * t)
                )
                assert block[:, j] == pytest.approx(d, rel=1e-5, abs=1e-6)


def four_term_jacobian(problem, e):
    """The real-split Jacobian written out entry by entry: each entry g of C
    times the Kerr block [[a, b], [b, c]] of its column's node, as four
    real entries, added to real_split(A_lin). The reference for
    KerrSystem.jacobian_real."""
    coo = problem.C.tocoo()
    i, j = coo.row.astype(np.int64), coo.col.astype(np.int64)
    gr, gi = coo.data.real, coo.data.imag
    a, b, c = kerr_block_entries(e[j], problem.sigma)
    rows = np.concatenate([2 * i, 2 * i, 2 * i + 1, 2 * i + 1])
    cols = np.concatenate([2 * j, 2 * j + 1, 2 * j, 2 * j + 1])
    vals = np.concatenate([gr * a - gi * b, gr * b - gi * c,
                           gi * a + gr * b, gi * b + gr * c])
    n = 2 * problem.size
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return (real_split_matrix(problem.A_lin) + K).tocsr()


def hand_built_real_split(A):
    """real_split_matrix written out entry by entry: each complex entry's
    four real entries concatenated as COO, then converted to CSR."""
    coo = A.tocoo()
    i, j, v = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    rows = np.concatenate([2 * i, 2 * i, 2 * i + 1, 2 * i + 1])
    cols = np.concatenate([2 * j, 2 * j + 1, 2 * j, 2 * j + 1])
    vals = np.concatenate([v.real, -v.imag, v.imag, v.real])
    n = 2 * A.shape[0]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, 2 * A.shape[1])).tocsr()


class TestRealSplit:
    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_kronecker_identity_is_the_hand_built_layout(self, geometry, extent):
        problem = kerr_slab(geometry, extent)
        assert problem.suite.top.kind == "radiation"
        for A in (problem.A_lin, problem.C):
            got, want = real_split_matrix(A), hand_built_real_split(A)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_acts_on_real_split_vectors_as_the_matrix(self, geometry, extent):
        problem = kerr_slab(geometry, extent)
        rng = np.random.default_rng(17)
        x = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
        for A in (problem.A_lin, problem.C):
            want = to_real_split(A @ x)
            got = real_split_matrix(A) @ to_real_split(x)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestAssembledSystem:
    def test_real_split_and_complex_inputs_agree(self):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        problem = HelmholtzProblem(grid, two_layer(), bottom=SYM, top=SYM)
        E = random_field(grid)
        rc = assemble_residual(E, problem)
        rs = assemble_residual(to_real_split(E.reshape(-1)), problem)
        assert np.array_equal(rc, rs)
        assert rc.shape == (2 * problem.size,)

    def test_wrong_size_rejected(self):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        problem = HelmholtzProblem(grid, two_layer(), bottom=SYM, top=SYM)
        with pytest.raises(ValueError):
            assemble_residual(np.zeros(problem.size - 3, dtype=complex), problem)

    def test_incoming_profile_length_checked(self):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        with pytest.raises(ValueError):
            HelmholtzProblem(grid, vacuum(4.0), einc_left=np.ones(5, dtype=complex))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_non_finite_incoming_profile_rejected(self, side):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cartesian")
        profile = np.ones(grid.M, dtype=complex)
        profile[3] = np.nan
        with pytest.raises(ValueError, match=f"^{side} incoming profile must be finite$"):
            HelmholtzProblem(grid, vacuum(4.0), **{f"einc_{side}": profile})

    def test_assembly_deterministic(self):
        grid = quiet_grid(4.0, 32, 4.0, 8, "cylindrical")
        E = random_field(grid)
        a = HelmholtzProblem(grid, two_layer())
        b = HelmholtzProblem(grid, two_layer())
        assert np.array_equal(assemble_residual(E, a), assemble_residual(E, b))
        Ja, Jb = assemble_jacobian(E, a), assemble_jacobian(E, b)
        assert np.array_equal(Ja.indptr, Jb.indptr)
        assert np.array_equal(Ja.indices, Jb.indices)
        assert np.array_equal(Ja.data, Jb.data)

    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_jacobian_matches_directional_differences(self, geometry, extent):
        grid = quiet_grid(3.0, 16, extent, 8, geometry)
        problem = HelmholtzProblem(
            grid,
            MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 3.0, 1.2, 0.1),)),
            einc_left=np.ones(8, dtype=complex),
        )
        rng = np.random.default_rng(23)
        x = rng.normal(size=2 * problem.size) * 0.5
        d = rng.normal(size=2 * problem.size)
        d /= np.linalg.norm(d)
        J = assemble_jacobian(x, problem)
        t = 1e-6
        fd = (assemble_residual(x + t * d, problem)
              - assemble_residual(x - t * d, problem)) / (2 * t)
        err = np.linalg.norm(J @ d - fd) / np.linalg.norm(fd)
        assert err < 1e-6

    @pytest.mark.parametrize("sigma", [1.0, 2.0], ids=["cubic", "quintic"])
    @pytest.mark.parametrize("dims", ["1d", "2d"])
    def test_jacobian_equals_four_term_assembly(self, dims, sigma):
        mat = MaterialStack(k0=K0, sigma=sigma, layers=(Layer(0.0, 4.0, 1.2, 0.0625),))
        if dims == "1d":
            problem = Problem1D(build_grid_1d(4.0, 64), mat, Incoming1D(EincL=1.0))
        else:
            grid = quiet_grid(4.0, 32, 6.0, 12, "cartesian")
            beam = np.exp(-(grid.transverse_coords() / 1.5) ** 2).astype(complex)
            problem = HelmholtzProblem(grid, mat, einc_left=beam)
        E, report = newton_solve(problem)
        assert report.converged
        for e in (np.zeros(problem.size, dtype=complex), E.reshape(-1)):
            J, ref = problem.jacobian_real(e), four_term_jacobian(problem, e)
            assert np.array_equal(J.indptr, ref.indptr)
            assert np.array_equal(J.indices, ref.indices)
            assert J.data.tobytes() == ref.data.tobytes()

    def test_row_sparsity_pattern(self):
        # interior rows couple one longitudinal neighbor and two transverse
        # neighbors; interface rows reach three nodes along z; boundary rows
        # are dense across the section but stay within one longitudinal step
        grid = quiet_grid(4.0, 32, 4.0, 12, "cartesian")
        mat = MaterialStack(
            k0=K0,
            sigma=1.0,
            layers=(Layer(0.0, 2.0, 1.3, 0.0), Layer(2.0, 4.0, 1.0, 0.0)),
        )
        problem = HelmholtzProblem(grid, mat, bottom=SYM, top=SYM)
        A = problem.A_lin.tocsr()
        M = grid.M

        def deltas(n, m):
            row = A[(n + 3) * M + m]
            cols = row.indices
            return (
                np.abs(cols // M - (n + 3)).max(),
                np.abs(cols % M - m).max(),
            )

        dn, dm = deltas(10, 6)       # interior, mid-section
        assert dn <= 1 and dm <= 2
        dn, dm = deltas(16, 6)       # genuine jump at z = 2
        assert dn <= 3 and dm <= 2
        dn, _ = deltas(-2, 6)        # exterior
        assert dn <= 1
        dn, dm = deltas(-3, 6)       # two-way boundary row
        assert dn <= 1 and dm == max(6, M - 1 - 6)


class TestSectionMirror:
    @staticmethod
    def beam_problem(geometry="cartesian", M=56, bottom=None, top=None,
                     layers=(Layer(0.0, 4.0, 1.0, 0.0625),), **beam):
        mat = MaterialStack(k0=K0, sigma=1.0, layers=layers)
        grid = quiet_grid(4.0, 32, 6.0, M, geometry)
        einc = make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0), **beam), grid, mat)
        return HelmholtzProblem(grid, mat, einc_left=einc, bottom=bottom, top=top)

    def test_centred_beam_is_mirror_symmetric(self):
        problem = self.beam_problem()
        nodes = np.arange(problem.size).reshape(problem.field_shape)
        assert np.array_equal(problem.mirror, nodes[:, ::-1].reshape(-1))

    @pytest.mark.parametrize("case", [
        dict(tilt_angle=0.1),
        dict(center=0.3),
        dict(geometry="cylindrical"),
        dict(M=55),
        dict(bottom=SYM),  # unlike walls: A_lin itself is asymmetric
        # invariant, but its 6-node half is too narrow for a radiation wall
        dict(M=12),
    ])
    def test_no_mirror_unless_invariant(self, case):
        assert self.beam_problem(**case).mirror is None

    # invariant cases: like walls, mirror-closed walls (read by every
    # transverse operator), and an interior nu jump, which brings in
    # interface rows and interface_laplacian
    SYMMETRIC = [dict(), dict(bottom=SYM, top=SYM),
                 dict(layers=(Layer(0.0, 2.0, 1.0, 0.0625), Layer(2.0, 4.0, 1.3, 0.0625)))]

    @pytest.mark.parametrize("case", [
        SYMMETRIC[0],
        dict(tilt_angle=0.1),
        dict(center=0.3),
        dict(geometry="cylindrical"),
        dict(M=55),
        dict(bottom=SYM),
        *SYMMETRIC[1:],
    ])
    def test_block_decision_matches_assembled_system(self, case):
        # oracle: m <-> M-1-m applied to the assembled A_lin, C and b; odd M
        # is excluded because its middle node would be a fixed point
        problem = self.beam_problem(**case)
        grid = problem.grid
        mirror = np.arange(problem.size).reshape(problem.field_shape)[:, ::-1].reshape(-1)
        invariant = grid.M % 2 == 0 and all(
            mirror_invariant(x, mirror) for x in (problem.b, problem.C, problem.A_lin))
        if invariant:
            assert np.array_equal(problem.mirror, mirror)
        else:
            assert problem.mirror is None
        assert invariant == (case in self.SYMMETRIC)

    def test_slab_has_no_mirror(self):
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.5, 0.0625),))
        problem = Problem1D(build_grid_1d(5.0, 40), mat, Incoming1D(EincL=1.0))
        assert problem.mirror is None


@pytest.fixture(params=["1d", "2d"])
def linear_stack(request):
    """A linear layered stack (C = 0) with two genuine nu jumps."""
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(
        Layer(0.0, 1.5, 1.3, 0.0), Layer(1.5, 3.0, 1.1, 0.0), Layer(3.0, 4.0, 1.5, 0.0)))
    if request.param == "1d":
        return Problem1D(build_grid_1d(4.0, 64), mat, Incoming1D(EincL=1.0))
    return HelmholtzProblem(quiet_grid(4.0, 32, 4.0, 8, "cartesian"), mat,
                            einc_left=np.ones(8, dtype=complex))


class TestLinearCase:
    """A linear problem is the Kerr system with C = 0: the general formulas
    give A_lin's own matrices."""

    def test_frozen_operator_is_A_lin(self, linear_stack):
        assert not linear_stack.has_kerr
        w = np.random.default_rng(7).uniform(0.5, 2.0, linear_stack.size)
        A, F = linear_stack.A_lin, linear_stack.frozen_operator(w)
        assert np.array_equal(F.indptr, A.indptr)
        assert np.array_equal(F.indices, A.indices)
        assert F.data.tobytes() == A.data.tobytes()

    def test_jacobian_is_real_split_A_lin(self, linear_stack):
        rng = np.random.default_rng(8)
        E = rng.normal(size=linear_stack.size) + 1j * rng.normal(size=linear_stack.size)
        J = assemble_jacobian(E, linear_stack)
        assert np.array_equal(J.toarray(), real_split_matrix(linear_stack.A_lin).toarray())


class TestSlabReduction:
    def test_single_column_equals_1d_problem(self):
        # M=1 with mirror closures must assemble exactly the slab system
        grid = quiet_grid(5.0, 40, 6.0, 1, "cartesian")
        mat = MaterialStack(
            k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.5, 0.0625),)
        )
        nd = HelmholtzProblem(grid, mat, einc_left=np.array([1.0 + 0.0j]))
        oned = Problem1D(build_grid_1d(5.0, 40), mat, Incoming1D(EincL=1.0))
        assert np.abs((nd.A_lin - oned.A_lin).toarray()).max() < 1e-12
        assert np.abs((nd.C - oned.C).toarray()).max() < 1e-12
        assert np.abs(nd.b - oned.b).max() < 1e-12

    def test_grid_1d_is_the_single_column(self):
        # a Grid1D assembles as given: bit for bit the system of Problem1D
        # and of the explicit M = 1 column, on the 1D field shape
        grid = build_grid_1d(5.0, 40)
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(
            Layer(0.0, 2.5, 1.5, 0.0), Layer(2.5, 5.0, 1.0, 0.0625)))
        EincL, EincR = 1.0 - 0.5j, -0.25
        slab = HelmholtzProblem(grid, mat, [EincL], [EincR])
        column = GridMultiD(N=40, Zmax=5.0, h_z=grid.h, M=1, extent=0.5,
                            h_perp=1.0, geometry="cartesian")
        for other in (Problem1D(grid, mat, Incoming1D(EincL=EincL, EincR=EincR)),
                      HelmholtzProblem(column, mat, [EincL], [EincR])):
            for name in ("A_lin", "C"):
                A, B = getattr(slab, name), getattr(other, name)
                assert np.array_equal(A.indptr, B.indptr)
                assert np.array_equal(A.indices, B.indices)
                assert A.data.tobytes() == B.data.tobytes()
            assert slab.b.tobytes() == other.b.tobytes()
        assert slab.field_shape == (grid.N + 7,)


class TestMaterialRows:
    def test_recipes_match_per_node_sampling(self):
        mat = three_layer()
        grid = build_grid_1d(4.0, 32)
        classes = classify_nodes(grid, mat)
        want_W, want_eps, want_interface = [], [], []
        for n in range(-2, grid.N + 3):
            nu_l, eps_l = sample_material(mat, grid, n, "left")
            nu_r, eps_r = sample_material(mat, grid, n, "right")
            jump = classes[n + 3] is NodeClass.INTERFACE and (nu_l, eps_l) != (nu_r, eps_r)
            want_interface.append(jump)
            want_W.append(0.5 * (nu_l**2 + nu_r**2) if jump else nu_r * nu_r)
            want_eps.append(0.5 * (eps_l + eps_r) if jump else eps_r)
        W, eps, interface = _material_rows(grid, mat)
        assert np.array_equal(interface, want_interface)
        assert np.array_equal(W, want_W)
        assert np.array_equal(eps, want_eps)
        assert interface.sum() == 3


class TestVacuumSolve:
    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_separable_solve_inverts_vacuum_operator(self, geometry, extent):
        grid = quiet_grid(4.0, 32, extent, 12, geometry)
        problem = HelmholtzProblem(grid, vacuum(4.0))
        rng = np.random.default_rng(7)
        rhs = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
        x = problem.vacuum_solve(rhs)
        resid = problem.vacuum_operator() @ x - rhs
        assert np.abs(resid).max() < 1e-10 * np.abs(rhs).max()

    @pytest.mark.parametrize(
        "geometry,extent", [("cartesian", 6.0), ("cylindrical", 4.0)]
    )
    def test_one_banded_call_equals_per_mode_solves(self, geometry, extent):
        # reference: one tridiagonal solve per transverse mode; the banded
        # call does the same arithmetic, so the results must be identical
        grid = quiet_grid(4.0, 32, extent, 12, geometry)
        problem = HelmholtzProblem(grid, vacuum(4.0))
        eig = problem.eigensystem
        R, M, h = grid.num_nodes, grid.M, grid.h_z
        c = (1.0 + K0 * K0 * h * h / 12.0) / (h * h)
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
        U = rhs.reshape(R, M) @ eig.modes_inverse.T
        out = np.empty_like(U)
        for l in range(M):
            bands = np.zeros((3, R), dtype=complex)
            bands[0, 1:] = c
            bands[2, :-1] = c
            bands[1, :] = -2.0 * c + K0 * K0 + eig.eigenvalues[l]
            bands[1, 0] += c * eig.roots[l]
            bands[1, -1] += c * eig.roots[l]
            out[:, l] = scipy.linalg.solve_banded((1, 1), bands, U[:, l])
        want = (out @ eig.modes.T).reshape(-1)
        assert np.array_equal(problem.vacuum_solve(rhs), want)

    def test_tridiagonals_factored_once_per_problem(self, monkeypatch):
        # the mode-major tridiagonal LU is computed on the first call and
        # reused; a 1D problem is a single-column problem and factors likewise
        calls = []
        factor = scipy.linalg.lapack.zgttrf

        def counted(*args, **kwargs):
            calls.append(args[1].size)
            return factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", counted)
        grid = quiet_grid(4.0, 32, 6.0, 12, "cartesian")
        slab = Problem1D(build_grid_1d(4.0, 32), vacuum(4.0), Incoming1D(EincL=1.0))
        rng = np.random.default_rng(9)
        for problem in (HelmholtzProblem(grid, vacuum(4.0)), slab):
            rhs = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
            first = problem.vacuum_solve(rhs)
            for _ in range(3):
                assert np.array_equal(problem.vacuum_solve(rhs), first)
        assert calls == [grid.num_nodes * grid.M, slab.grid.num_nodes]


    def test_zero_pivot_raises(self, monkeypatch):
        factor = scipy.linalg.lapack.zgttrf

        def zero_pivot(*args, **kwargs):
            *lu, _ = factor(*args, **kwargs)
            return (*lu, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf", zero_pivot)
        problem = HelmholtzProblem(quiet_grid(4.0, 32, 6.0, 12, "cartesian"), vacuum(4.0))
        with pytest.raises(np.linalg.LinAlgError, match="^singular vacuum operator$"):
            problem.vacuum_solve(np.ones(problem.size, dtype=complex))


def kerr_slab(geometry="cartesian", extent=6.0, nu=1.0, right=False, split=False):
    """32 x 12 Kerr slab (eps = 1/16) under a Gaussian beam, optionally with a
    second beam of half the amplitude entering through the right face. With
    split, eps drops to 1/32 at z = 2, a jump that adds an interior interface
    row to the two face rows where A_lin departs from the vacuum operator."""
    layers = ((Layer(0.0, 2.0, nu, 0.0625), Layer(2.0, 4.0, nu, 0.03125)) if split
              else (Layer(0.0, 4.0, nu, 0.0625),))
    mat = MaterialStack(k0=K0, sigma=1.0, layers=layers)
    grid = quiet_grid(4.0, 32, extent, 12, geometry)
    beam = np.exp(-(grid.transverse_coords() / 1.5) ** 2).astype(complex)
    return HelmholtzProblem(grid, mat, einc_left=beam,
                            einc_right=0.5 * beam if right else None)


def inverse_case(case):
    if case == "half_section":
        return TestSectionMirror.beam_problem().half_section()
    if case == "slab_1d":
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.0625),))
        return Problem1D(build_grid_1d(4.0, 32), mat, Incoming1D(EincL=1.0))
    return kerr_slab(**case)


INVERSE_CASES = [
    dict(geometry="cartesian", extent=6.0),
    dict(geometry="cylindrical", extent=4.0),
    dict(right=True),
    "half_section",
    "slab_1d",
]
INVERSE_IDS = ["cartesian", "cylindrical", "einc-right", "half-section", "slab-1d"]


class TestLinearInverse:
    @pytest.mark.parametrize("case", INVERSE_CASES, ids=INVERSE_IDS)
    def test_meets_sparse_lu_contract_against_A_lin(self, case):
        problem = inverse_case(case)
        A = problem.A_lin
        # the slab faces are where A_lin departs from the vacuum operator
        assert (A - problem.vacuum_operator()).count_nonzero() > 0
        inverse = problem.linear_inverse()
        rng = np.random.default_rng(11)
        noise = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
        for rhs in (problem.b, noise):
            x = inverse(rhs)
            assert solvers._contract_violation(A, np.abs(A).sum(axis=1).max(),
                                               x, rhs) is None

    @pytest.mark.parametrize("case", [
        *INVERSE_CASES, dict(split=True),
        dict(geometry="cylindrical", extent=4.0, split=True),
    ], ids=[*INVERSE_IDS, "two-eps-cartesian", "two-eps-cylindrical"])
    def test_equals_direct_sparse_solve(self, case):
        problem = inverse_case(case)
        M = problem.grid.M
        rows = np.unique((problem.A_lin - problem.vacuum_operator()).tocoo().row // M)
        # the two faces, and an interface row where eps jumps inside the slab
        assert rows.size == (3 if "split" in case else 2)
        inverse = problem.linear_inverse()
        rng = np.random.default_rng(13)
        noise = rng.normal(size=problem.size) + 1j * rng.normal(size=problem.size)
        for rhs in (problem.b, noise):
            want = spla.spsolve(problem.A_lin.tocsc(), rhs)
            assert np.abs(inverse(rhs) - want).max() <= 1e-12 * np.abs(want).max()

    def test_set_up_once_then_one_tridiagonal_solve_per_application(self, monkeypatch):
        # the capacitance set-up and each application work in the transverse
        # eigenbasis on the vacuum factor: no vacuum solve is made
        vacuum_calls, solves = [], []
        vacuum_solve = HelmholtzProblem.vacuum_solve
        zgttrs = scipy.linalg.lapack.zgttrs

        def spy_vacuum(self, rhs):
            vacuum_calls.append(rhs.size)
            return vacuum_solve(self, rhs)

        def spy_zgttrs(*args, **kwargs):
            solves.append(np.shape(args[5]))
            return zgttrs(*args, **kwargs)

        monkeypatch.setattr(HelmholtzProblem, "vacuum_solve", spy_vacuum)
        monkeypatch.setattr(scipy.linalg.lapack, "zgttrs", spy_zgttrs)
        problem = kerr_slab()
        inverse = problem.linear_inverse()
        # the Green's functions of every mode at both face rows: one solve
        # with a right-hand side per face
        assert solves == [(problem.size, 2)]
        solves.clear()
        x = inverse(problem.b)
        assert solves == [(problem.size,)]
        # set up once per problem
        assert np.array_equal(problem.linear_inverse()(problem.b), x)
        assert solves == [(problem.size,)] * 2
        assert vacuum_calls == []

    def test_declines_on_a_dense_interior(self):
        # nu = 1.5 makes every slab row differ from the vacuum operator
        assert kerr_slab(nu=1.5).linear_inverse() is None


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def cylinder_slab(amplitude, N=64, M=72):
    """Cylindrical Kerr slab (nu = 1, eps = 1/16, Zmax = Rmax = 4) under a
    Gaussian beam of the given amplitude. At the default 64 x 72 it has
    10,224 real unknowns, so Newton starts from the separable inverse."""
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.0625),))
    grid = quiet_grid(4.0, N, 4.0, M, "cylindrical")
    beam = amplitude * np.exp(-(grid.transverse_coords() / 1.5) ** 2)
    return HelmholtzProblem(grid, mat, einc_left=beam.astype(complex))


def operator_bytes(problem):
    """b, A_lin and C of a problem, as bytes."""
    arrays = [problem.b] + [getattr(A, part) for A in (problem.A_lin, problem.C)
                            for part in ("data", "indices", "indptr")]
    return [a.tobytes() for a in arrays]


class TestOperatorSharing:
    """Problems that differ only in their incoming beams share one operator
    (transverse suite, eigensystem, A_lin, C and what is built from them),
    which lives exactly as long as some problem holds it."""

    def test_beams_share_one_operator(self):
        beams = [dict(), dict(right=True)]
        # each built while no other problem on its operator is alive
        alone = [operator_bytes(kerr_slab(**kw)) for kw in beams]
        p, q = (kerr_slab(**kw) for kw in beams)
        p.jacobian_real(p.b)
        for name in ("A_lin", "C", "_real_split", "suite", "eigensystem"):
            assert getattr(p, name) is getattr(q, name)
        assert not np.array_equal(p.b, q.b)
        assert [operator_bytes(p), operator_bytes(q)] == alone

    def test_separable_inverse_set_up_once_per_operator(self, monkeypatch):
        factored, vacuum = [], []
        zgttrf, assemble = scipy.linalg.lapack.zgttrf, helmholtz_nd._assemble
        monkeypatch.setattr(scipy.linalg.lapack, "zgttrf",
                            lambda *a: factored.append(a[1].size) or zgttrf(*a))

        def spy(grid, k0, W, eps, *args):
            # the vacuum operator A0 is the assembly with eps = 0 on every row
            vacuum.append(not eps.any())
            return assemble(grid, k0, W, eps, *args)

        monkeypatch.setattr(helmholtz_nd, "_assemble", spy)
        gc.collect()  # no operator left over from an earlier test is found
        p, q = kerr_slab(), kerr_slab(right=True)
        p.linear_inverse()
        q.linear_inverse()
        assert len(factored) == 1
        assert vacuum == [False, True]  # A_lin and C, then A0

    def test_problem_keeps_only_its_own_state(self):
        # everything built from the operator is kept on the operator
        p = kerr_slab("cylindrical", 4.0)
        _, report = solvers.solve(p)
        assert report.converged and not report.mirror_folded
        p.linear_inverse()(p.b)
        assert set(vars(p)) == {"grid", "mat", "sigma", "size", "field_shape",
                                "einc_left", "einc_right", "b", "mirror",
                                "_operator", "suite", "eigensystem"}

    def test_kerr_system_caches_nothing(self):
        assert not [name for name, value in vars(KerrSystem).items()
                    if isinstance(value, cached_property)]

    @pytest.mark.parametrize("change", ["eps", "k0", "N", "closure"])
    def test_any_other_key_gets_its_own_operator(self, change):
        grid = quiet_grid(4.0, 32, 6.0, 12, "cartesian")
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.0625),))

        def walls():
            # equal closures built apart, as the key compares them by value
            alpha = sommerfeld_alpha(K0)
            return dict(bottom=radiation_closure(alpha, grid.h_perp, "bottom"),
                        top=radiation_closure(alpha, grid.h_perp, "top"))

        def problem(grid=grid, mat=mat, **closures):
            closures = closures or walls()
            beam = np.exp(-grid.transverse_coords() ** 2).astype(complex)
            return HelmholtzProblem(grid, mat, einc_left=beam, **closures)

        base, twin = problem(), problem()
        other = {
            "eps": lambda: problem(mat=dataclasses.replace(
                mat, layers=(Layer(0.0, 4.0, 1.0, 0.03125),))),
            "k0": lambda: problem(mat=dataclasses.replace(mat, k0=4.5)),
            "N": lambda: problem(grid=quiet_grid(4.0, 40, 6.0, 12, "cartesian")),
            "closure": lambda: problem(bottom=SYM, top=SYM),
        }[change]()
        assert base.A_lin is twin.A_lin and base.eigensystem is twin.eigensystem
        for name in ("A_lin", "C", "suite", "eigensystem"):
            assert getattr(other, name) is not getattr(base, name)

    def test_operator_freed_with_its_last_problem(self, monkeypatch):
        suites = []
        build = helmholtz_nd.build_transverse_suite
        monkeypatch.setattr(helmholtz_nd, "build_transverse_suite",
                            lambda *a: suites.append(a[0]) or build(*a))
        # freed by reference counting alone, so no cycle may hold it
        gc.disable()
        try:
            p, q = kerr_slab(), kerr_slab(right=True)
            assert len(suites) == 1
            # what is built on first use is kept on the operator as well
            p.jacobian_real(p.b)
            q.linear_inverse()(q.b)
            newton_solve(p)
            operator = weakref.ref(p._operator)
            del p
            assert operator() is not None
            del q
            assert operator() is None
            kerr_slab()
            assert len(suites) == 2
        finally:
            gc.enable()

    def test_discarded_benchmark_build_frees_its_operators(self):
        # the benchmark times set-ups whose results it drops; a surviving
        # operator would make the next set-up a warm one
        build = runpy.run_path(str(WORKLOADS), run_name="perfbench_workloads")[
            "WORKLOADS"]["small-batch"].build
        gc.disable()
        try:
            before = len(helmholtz_nd._OPERATORS)
            state = build(3)
            # 6 linear grids, 1 Kerr slab for 33 problems, 4 soliton slabs
            assert len(helmholtz_nd._OPERATORS) == before + 11
            del state
            assert len(helmholtz_nd._OPERATORS) == before
        finally:
            gc.enable()

    def test_continuation_builds_one_operator(self, monkeypatch):
        calls = []
        for name in ("build_transverse_suite", "eigensolve_transverse"):
            fn = getattr(helmholtz_nd, name)
            monkeypatch.setattr(helmholtz_nd, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.0, 0.05),))
        grid = build_grid_1d(5.0, 96)
        problems = [Problem1D(grid, mat, Incoming1D(EincL=a))
                    for a in np.linspace(0.05, 1.5, 30)]
        assert calls == ["build_transverse_suite", "eigensolve_transverse"]
        assert len({id(p.A_lin) for p in problems}) == 1
        assert len({p.b.tobytes() for p in problems}) == 30

    @pytest.mark.parametrize("method,slab", [
        ("newton", cylinder_slab),
        ("born", lambda a: cylinder_slab(a, N=32, M=12)),
        ("freezing", lambda a: cylinder_slab(a, N=32, M=12)),
    ], ids=["newton-separable-start", "born", "freezing"])
    def test_solve_after_another_on_the_operator_is_the_lone_solve(self, method, slab):
        E_lone, lone = solvers.solve(slab(1.0), method=method)
        p, q = slab(0.8), slab(1.0)
        assert p.A_lin is q.A_lin
        solvers.solve(p, method=method)
        E, report = solvers.solve(q, method=method)
        assert E.tobytes() == E_lone.tobytes()
        assert repr(report) == repr(lone)


@pytest.fixture
def assembled(monkeypatch):
    """The transverse node count M of the grid of every _assemble call."""
    calls = []
    assemble = helmholtz_nd._assemble

    def spy(grid, *args):
        calls.append(grid.M)
        return assemble(grid, *args)

    monkeypatch.setattr(helmholtz_nd, "_assemble", spy)
    gc.collect()  # no operator left over from an earlier test is found
    return calls


def slab_1d(eps=0.0625, EincL=1.0):
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.2, eps),))
    return Problem1D(build_grid_1d(4.0, 48), mat, Incoming1D(EincL=EincL))


LAZY_CASES = {
    "1d": lambda right=False: slab_1d(EincL=0.5 if right else 1.0),
    "cartesian": lambda right=False: kerr_slab(right=right),
    "cylindrical": lambda right=False: kerr_slab("cylindrical", 4.0, right=right),
}


class TestLazyAssembly:
    """A_lin and C are assembled on first use, once per operator, so a solve
    on the mirror fold assembles only its half section."""

    @pytest.mark.parametrize("case", list(LAZY_CASES))
    def test_construction_assembles_nothing(self, case, assembled):
        problem = LAZY_CASES[case]()
        assert (problem.size, problem.field_shape) == (
            problem.grid.num_nodes * problem.grid.M, problem.grid.field_shape)
        problem.has_kerr, problem.mirror
        assert assembled == []

    @pytest.mark.parametrize("case", list(LAZY_CASES))
    def test_operator_holds_only_its_inputs_before_first_use(self, case, assembled):
        # until first use the operator holds what it was built from and
        # nothing derived: _assemble reads the suite's operators by name
        problem = LAZY_CASES[case]()
        problem.has_kerr, problem.mirror
        assert set(vars(problem._operator)) == {"grid", "k0", "suite", "eigensystem", "rows"}

    @pytest.mark.parametrize("use", [
        lambda p: p.A_lin,
        lambda p: p.C,
        lambda p: p.residual_complex(p.b),
        lambda p: p.jacobian_real(p.b),
    ], ids=["A_lin", "C", "residual_complex", "jacobian_real"])
    @pytest.mark.parametrize("case", list(LAZY_CASES))
    def test_first_use_assembles_once_per_operator(self, case, use, assembled):
        p = LAZY_CASES[case]()
        assert assembled == []
        use(p)
        assert assembled == [p.grid.M]
        use(p)
        q = LAZY_CASES[case](right=True)
        use(q)
        assert not np.array_equal(p.b, q.b)
        assert q.A_lin is p.A_lin and q.C is p.C
        assert assembled == [p.grid.M]

    # A_lin and C once; Born's A_lin - A0 and the capacitance set-up of the
    # separable start each assemble the half's vacuum operator too
    @pytest.mark.parametrize("method,M,N,calls", [
        ("newton", 56, 32, 1),
        # 10,224 real unknowns: Newton starts from the half's separable inverse
        ("newton", 72, 64, 2),
        ("born", 56, 40, 2),
        ("freezing", 56, 48, 1),
    ], ids=["newton", "newton-separable-start", "born", "freezing"])
    def test_folded_solve_assembles_only_the_half(self, method, M, N, calls, assembled):
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.0625),))
        grid = quiet_grid(4.0, N, 6.0, M, "cartesian")
        einc = make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0)), grid, mat)
        problem = HelmholtzProblem(grid, mat, einc_left=einc)
        assert assembled == []
        _, report = solvers.solve(problem, method=method)
        assert report.mirror_folded and report.converged
        assert assembled == [M // 2] * calls

    @pytest.mark.parametrize("case", [
        "1d-linear", "1d-kerr", "1d-three-layer", "1d-negative-eps",
        "cartesian-linear", "cartesian-kerr", "cylindrical-linear", "cylindrical-kerr",
    ])
    def test_has_kerr_is_C_nonzero_without_assembling(self, case, assembled):
        if case == "1d-three-layer":
            problem = Problem1D(build_grid_1d(4.0, 64), three_layer(), Incoming1D(EincL=1.0))
        elif case.startswith("1d"):
            problem = slab_1d({"1d-linear": 0.0, "1d-kerr": 0.0625,
                               "1d-negative-eps": -0.05}[case])
        else:
            geometry, kind = case.split("-")
            eps = 0.1 if kind == "kerr" else 0.0
            mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, eps),))
            grid = quiet_grid(4.0, 32, 4.0, 12, geometry)
            problem = HelmholtzProblem(grid, mat, einc_left=np.ones(12, dtype=complex))
        has_kerr = problem.has_kerr
        assert assembled == []
        assert has_kerr == (problem.C.nnz > 0) == (not case.endswith("linear"))

    def test_discarded_build_frees_its_operators(self, assembled):
        gc.disable()
        try:
            problems = [LAZY_CASES[case]() for case in LAZY_CASES]
            operators = [weakref.ref(p._operator) for p in problems]
            problems[0].A_lin  # freed whether assembled or not
            assert assembled == [1]
            del problems
            assert [op() for op in operators] == [None] * 3
        finally:
            gc.enable()
