"""Tests for the multi-dimensional assembly: per-node row evaluators against
the matrix assembly, mode transparency of the two-way boundary rows, Kerr
Jacobian blocks, vacuum separable solves, and the slab reduction at M=1.

Oracles: exact plane waves and mode fields, finite differences for the
Jacobian, and closed-form Wirtinger derivatives for the Kerr blocks.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from nlhelm import (
    BeamSpec,
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
    residual_exterior,
    residual_interface,
    residual_interior_cartesian,
    residual_interior_cylindrical,
    sample_material,
    solve_nd,
    solvers,
    symmetric_closure,
    to_real_split,
)
from nlhelm._system import kerr_block_entries, mirror_invariant, real_split_matrix
from nlhelm.helmholtz_nd import _material_rows

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

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
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
    def beam_problem(geometry="cartesian", M=56, bottom=None, **beam):
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, 1.0, 0.0625),))
        grid = quiet_grid(4.0, 32, 6.0, M, geometry)
        einc = make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0), **beam), grid, mat)
        return HelmholtzProblem(grid, mat, einc_left=einc, bottom=bottom)

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

    @pytest.mark.parametrize("case", [
        dict(),
        dict(tilt_angle=0.1),
        dict(center=0.3),
        dict(geometry="cylindrical"),
        dict(M=55),
        dict(bottom=SYM),
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
        assert invariant == (case == {})

    def test_slab_has_no_mirror(self):
        mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.5, 0.0625),))
        problem = Problem1D(build_grid_1d(5.0, 40), mat, Incoming1D(EincL=1.0))
        assert problem.mirror is None


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
        # reused; a 1D problem shares it through its single-column problem
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


def kerr_slab(geometry="cartesian", extent=6.0, nu=1.0, right=False):
    """32 x 12 Kerr slab (eps = 1/16) under a Gaussian beam, optionally with a
    second beam of half the amplitude entering through the right face."""
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 4.0, nu, 0.0625),))
    grid = quiet_grid(4.0, 32, extent, 12, geometry)
    beam = np.exp(-(grid.transverse_coords() / 1.5) ** 2).astype(complex)
    return HelmholtzProblem(grid, mat, einc_left=beam,
                            einc_right=0.5 * beam if right else None)


class TestLinearInverse:
    @pytest.mark.parametrize("case", [
        dict(geometry="cartesian", extent=6.0),
        dict(geometry="cylindrical", extent=4.0),
        dict(right=True),
        "half_section",
    ], ids=["cartesian", "cylindrical", "einc-right", "half-section"])
    def test_meets_sparse_lu_contract_against_A_lin(self, case):
        if case == "half_section":
            problem = TestSectionMirror.beam_problem().half_section()
        else:
            problem = kerr_slab(**case)
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

    def test_set_up_once_then_two_vacuum_solves_per_application(self, monkeypatch):
        calls = []
        vacuum_solve = HelmholtzProblem.vacuum_solve

        def spy(self, rhs):
            calls.append(rhs.size)
            return vacuum_solve(self, rhs)

        monkeypatch.setattr(HelmholtzProblem, "vacuum_solve", spy)
        problem = kerr_slab()
        inverse = problem.linear_inverse()
        # one vacuum solve per capacitance column: a row of each face
        assert calls == [problem.size] * 2 * problem.grid.M
        calls.clear()
        x = inverse(problem.b)
        # set up once per problem
        assert np.array_equal(problem.linear_inverse()(problem.b), x)
        assert calls == [problem.size] * 4

    def test_declines_on_a_dense_interior(self):
        # nu = 1.5 makes every slab row differ from the vacuum operator
        assert kerr_slab(nu=1.5).linear_inverse() is None
