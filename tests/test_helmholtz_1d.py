"""Tests for the 1D slab solver: dispersion roots, boundary closures,
assembly, the exact linear oracle, and the end-to-end solve.

Expected values come from closed-form scattering formulas (Fresnel
coefficients, the Airy slab sums) and from a brute-force oracle that solves
the interface-matching linear system directly, never from the code under
test.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhelm import (
    DegenerateRoot,
    Incoming1D,
    Layer,
    MaterialStack,
    NewtonConfig,
    OracleRequiresLinear,
    UnresolvedWave,
    assemble_1d,
    build_grid_1d,
    build_problem_1d,
    characteristic_root,
    extract_reflection_transmission,
    field_zeros,
    homogeneous_stack,
    root_from_ksq,
    solve_1d,
    transfer_matrix_linear,
)

K0 = 4.0


def slab(nu, eps=0.0, Zmax=5.0, k0=K0, sigma=1.0):
    return MaterialStack(k0=k0, sigma=sigma, layers=(Layer(0.0, Zmax, nu, eps),))


def airy_slab(nu, L, k0):
    """Closed-form reflection/transmission of a single linear slab in vacuum.

    r is the vacuum->medium Fresnel amplitude, beta the one-pass optical
    phase; the transmitted amplitude is referenced at the exit face.
    """
    r = (1.0 - nu) / (1.0 + nu)
    beta = nu * k0 * L
    denom = 1.0 - r * r * cmath.exp(2j * beta)
    R = r * (1.0 - cmath.exp(2j * beta)) / denom
    T = (1.0 - r * r) * cmath.exp(1j * beta) / denom
    return R, T


def brute_force_stack(mat, inc):
    """Independent scattering oracle: match E and E' at every material
    boundary and solve the resulting dense linear system.

    Region fields are a_i e^{i nu_i k0 (z - s_i)} + b_i e^{-i nu_i k0 (z - s_i)}
    with s_i the region reference (0 for the left exterior, layer start for
    layers, Zmax for the right exterior). Returns (R, T, evaluate).
    """
    k0 = mat.k0
    nus = [1.0] + [lay.nu for lay in mat.layers] + [1.0]
    starts = [0.0] + [lay.z_from for lay in mat.layers] + [mat.Zmax]
    edges = [lay.z_from for lay in mat.layers] + [mat.Zmax]
    P = len(nus)

    # unknown vector: [R, a_1, b_1, ..., a_{P-2}, b_{P-2}, T]
    n_unk = 2 * (P - 2) + 2
    A = np.zeros((n_unk, n_unk), dtype=complex)
    rhs = np.zeros(n_unk, dtype=complex)

    def cols(i):
        """(a-column, b-column, known a, known b) for region i."""
        if i == 0:
            return None, 0, inc.EincL, None
        if i == P - 1:
            return n_unk - 1, None, None, inc.EincR
        return 2 * i - 1, 2 * i, None, None

    row = 0
    for j, zj in enumerate(edges):
        for deriv in (False, True):
            for i, sign in ((j, 1.0), (j + 1, -1.0)):
                ph = cmath.exp(1j * nus[i] * k0 * (zj - starts[i]))
                fa, fb = ph, 1.0 / ph
                if deriv:
                    fa *= 1j * nus[i] * k0
                    fb *= -1j * nus[i] * k0
                ca, cb, ka, kb = cols(i)
                if ca is not None:
                    A[row, ca] += sign * fa
                else:
                    rhs[row] -= sign * fa * ka
                if cb is not None:
                    A[row, cb] += sign * fb
                else:
                    rhs[row] -= sign * fb * kb
            row += 1
    sol = np.linalg.solve(A, rhs)
    R, T = sol[0], sol[-1]

    coeff = [(inc.EincL, R)]
    for i in range(1, P - 1):
        coeff.append((sol[2 * i - 1], sol[2 * i]))
    coeff.append((T, inc.EincR))

    def evaluate(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        region = np.searchsorted(np.asarray(edges), z, side="right")
        out = np.empty(z.shape, dtype=complex)
        for i in range(P):
            sel = region == i
            if sel.any():
                a, b = coeff[i]
                ph = np.exp(1j * nus[i] * k0 * (z[sel] - starts[i]))
                out[sel] = a * ph + b / ph
        return out

    return R, T, evaluate


class TestCharacteristicRoot:
    def test_exact_unit_circle_root(self):
        # k^2 h^2 = 1 gives q + 1/q = 1, i.e. q = e^{i pi/3} on the forward branch
        q = root_from_ksq(1.0, 1.0)
        assert q == pytest.approx(cmath.exp(1j * math.pi / 3), abs=1e-14)

    def test_exact_decaying_root(self):
        # k^2 h^2 = -4 gives q + 1/q = 6, decaying branch q = 3 - 2 sqrt(2)
        q = root_from_ksq(-4.0, 1.0)
        assert q == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)
        assert abs(q) < 1.0

    def test_characteristic_equation_satisfied(self):
        rng = np.random.default_rng(7)
        for k0 in rng.uniform(0.5, 4.0, size=20):
            h = 0.3
            closure = characteristic_root(k0, h)
            q = closure.q
            k_sq = k0 * k0 / (1.0 + k0 * k0 * h * h / 12.0)
            assert q + 1.0 / q == pytest.approx(2.0 - k_sq * h * h, abs=1e-12)

    def test_propagating_root_unit_modulus_forward(self):
        for lam_over_h in (8, 16, 32):
            h = 2.0 * math.pi / K0 / lam_over_h
            q = characteristic_root(K0, h).q
            assert abs(q) == pytest.approx(1.0, abs=1e-12)
            assert q.imag > 0.0

    def test_root_matches_continuum_phase(self):
        # q approximates e^{i k0 h} with a fifth-order phase error
        h = 0.5 / K0  # k0 h = 0.5
        q = characteristic_root(K0, h).q
        assert abs(q - cmath.exp(1j * K0 * h)) < 1e-4

    def test_phase_error_fifth_order_halving(self):
        # |q - e^{i k0 h}| drops by about 2^5 = 32 when h is halved
        h = 2.0 * math.pi / K0 / 10.0
        err = [
            abs(characteristic_root(K0, hh).q - cmath.exp(1j * K0 * hh))
            for hh in (h, h / 2.0)
        ]
        factor = err[0] / err[1]
        assert 28.0 <= factor <= 36.0

    def test_unresolved_wave_raises(self):
        with pytest.raises(UnresolvedWave):
            characteristic_root(3.0, 1.0)  # k0 h = 3 > sqrt(6)
        with pytest.raises(UnresolvedWave):
            root_from_ksq(4.0, 1.0)  # boundary of the resolvable band

    def test_degenerate_root_raises(self):
        with pytest.raises(DegenerateRoot):
            root_from_ksq(2.0, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            characteristic_root(0.0, 0.1)
        with pytest.raises(ValueError):
            characteristic_root(K0, -0.1)

    def test_closure_weights(self):
        closure = characteristic_root(K0, 0.1)
        q = closure.q
        assert closure.propagation_weight == q
        assert closure.injection_weight * q**3 == pytest.approx(1.0 / q - q, abs=1e-14)


class TestTransferOracle:
    def test_vacuum_passthrough(self):
        mat = slab(1.0, Zmax=3.0)
        inc = Incoming1D(EincL=0.7 - 0.2j)
        res = transfer_matrix_linear(mat, inc)
        assert res.R == pytest.approx(0.0, abs=1e-14)
        assert res.T == pytest.approx(inc.EincL * cmath.exp(1j * K0 * 3.0), abs=1e-13)
        z = np.linspace(-1.0, 4.0, 17)
        assert res.evaluate(z) == pytest.approx(inc.EincL * np.exp(1j * K0 * z))

    def test_airy_slab_closed_form(self):
        # the production-scale slab: nu = 1.5 over [0, 5] in vacuum
        nu, L = 1.5, 5.0
        res = transfer_matrix_linear(slab(nu, Zmax=L), Incoming1D(EincL=1.0))
        R_cf, T_cf = airy_slab(nu, L, K0)
        assert res.R == pytest.approx(R_cf, abs=1e-13)
        assert res.T == pytest.approx(T_cf, abs=1e-13)
        assert abs(res.R) ** 2 + abs(res.T) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_quarter_wave_closed_form(self):
        nu = 1.5
        L = (math.pi / 2.0) / (nu * K0)
        res = transfer_matrix_linear(slab(nu, Zmax=L), Incoming1D(EincL=1.0))
        r = (1.0 - nu) / (1.0 + nu)
        assert res.R == pytest.approx(2.0 * r / (1.0 + r * r), abs=1e-13)

    def test_half_wave_transparency(self):
        nu = 1.5
        L = math.pi / (nu * K0)
        res = transfer_matrix_linear(slab(nu, Zmax=L), Incoming1D(EincL=1.0))
        assert abs(res.R) == pytest.approx(0.0, abs=1e-13)
        assert abs(res.T) == pytest.approx(1.0, abs=1e-13)

    def test_fresnel_single_interface_emulation(self):
        # a right-side incoming wave tuned to cancel the back-reflection of
        # the exit face leaves the pure single-interface solution, so the
        # in-medium amplitude is the Fresnel value 2/(1+nu)
        nu, Zmax = 1.5, 2.0
        t = 2.0 / (1.0 + nu)
        inc = Incoming1D(
            EincL=1.0,
            EincR=t * cmath.exp(1j * nu * K0 * Zmax) * (1.0 - nu) / 2.0,
        )
        res = transfer_matrix_linear(slab(nu, Zmax=Zmax), inc)
        assert res.R == pytest.approx((1.0 - nu) / (1.0 + nu), abs=1e-12)
        inside = np.abs(res.evaluate(np.linspace(0.0, Zmax, 9)))
        assert inside == pytest.approx(np.full(9, t), abs=1e-11)

    def test_two_layer_stack_matches_brute_force(self):
        mat = MaterialStack(
            k0=3.7,
            sigma=1.0,
            layers=(Layer(0.0, 1.1, 1.4, 0.0), Layer(1.1, 2.0, 2.2, 0.0)),
        )
        inc = Incoming1D(EincL=0.9 - 0.3j, EincR=0.25 + 0.1j)
        res = transfer_matrix_linear(mat, inc)
        R_bf, T_bf, eval_bf = brute_force_stack(mat, inc)
        assert res.R == pytest.approx(R_bf, abs=1e-12)
        assert res.T == pytest.approx(T_bf, abs=1e-12)
        z = np.linspace(-0.8, 2.8, 31)
        assert res.evaluate(z) == pytest.approx(eval_bf(z), abs=1e-11)

    def test_nonlinear_stack_rejected(self):
        with pytest.raises(OracleRequiresLinear):
            transfer_matrix_linear(slab(1.5, eps=0.1), Incoming1D(EincL=1.0))

    @settings(max_examples=40, deadline=None)
    @given(
        nus=st.lists(st.floats(0.5, 2.5), min_size=1, max_size=3),
        lens=st.lists(st.floats(0.3, 1.5), min_size=3, max_size=3),
        k0=st.floats(1.0, 6.0),
        re_l=st.floats(-1.0, 1.0),
        im_l=st.floats(-1.0, 1.0),
        re_r=st.floats(-1.0, 1.0),
        im_r=st.floats(-1.0, 1.0),
    )
    def test_energy_conserved_for_lossless_stacks(
        self, nus, lens, k0, re_l, im_l, re_r, im_r
    ):
        layers, z = [], 0.0
        for nu, L in zip(nus, lens):
            layers.append(Layer(z, z + L, nu, 0.0))
            z += L
        mat = MaterialStack(k0=k0, sigma=1.0, layers=tuple(layers))
        inc = Incoming1D(EincL=complex(re_l, im_l), EincR=complex(re_r, im_r))
        res = transfer_matrix_linear(mat, inc)
        inflow = abs(inc.EincL) ** 2 + abs(inc.EincR) ** 2
        outflow = abs(res.R) ** 2 + abs(res.T) ** 2
        assert outflow == pytest.approx(inflow, abs=1e-9 * max(1.0, inflow))


class TestAssembly:
    def test_incoming_plane_wave_annihilated(self):
        # E_n = Einc q^n satisfies every row, including both boundary rows
        grid = build_grid_1d(5.0, 40)
        mat = homogeneous_stack(K0, 5.0)
        q = characteristic_root(K0, grid.h).q
        inc = Incoming1D(EincL=1.0)
        E = q ** (np.arange(grid.num_nodes) - 3.0)
        res = assemble_1d(grid, mat, inc, E)
        assert np.max(np.abs(res)) < 1e-12 / grid.h**2

    def test_two_wave_field_annihilated(self):
        grid = build_grid_1d(5.0, 40)
        mat = homogeneous_stack(K0, 5.0)
        q = characteristic_root(K0, grid.h).q
        EL, ER = 0.7 - 0.2j, 0.3 + 0.5j
        n = np.arange(grid.num_nodes) - 3.0
        E = EL * q**n + ER * q ** (grid.N - n)
        res = assemble_1d(grid, mat, Incoming1D(EincL=EL, EincR=ER), E)
        assert np.max(np.abs(res)) < 1e-12 / grid.h**2

    def test_outgoing_waves_pass_with_zero_incoming(self):
        # a left-going wave satisfies every row except the right boundary row
        # (where it would be an unsourced incoming wave), and vice versa
        grid = build_grid_1d(5.0, 40)
        mat = homogeneous_stack(K0, 5.0)
        q = characteristic_root(K0, grid.h).q
        n = np.arange(grid.num_nodes) - 3.0
        tol = 1e-12 / grid.h**2

        res_left = assemble_1d(grid, mat, Incoming1D(), (0.4 + 0.1j) * q ** (-n))
        assert np.max(np.abs(res_left[:-1])) < tol
        assert abs(res_left[-1]) > tol

        res_right = assemble_1d(
            grid, mat, Incoming1D(), (0.2 - 0.6j) * q ** (n - grid.N)
        )
        assert np.max(np.abs(res_right[1:])) < tol
        assert abs(res_right[0]) > tol

    def test_zero_field_zero_incoming(self):
        grid = build_grid_1d(5.0, 16)
        res = assemble_1d(grid, slab(1.5), Incoming1D(), np.zeros(grid.num_nodes))
        assert np.all(res == 0.0)

    def test_incoming_source_enters_only_boundary_row(self):
        grid = build_grid_1d(5.0, 16)
        res = assemble_1d(
            grid, slab(1.5), Incoming1D(EincL=1.0), np.zeros(grid.num_nodes)
        )
        assert res[0] != 0.0
        assert np.all(res[1:] == 0.0)

    def test_wrong_length_rejected(self):
        grid = build_grid_1d(5.0, 16)
        with pytest.raises(ValueError):
            assemble_1d(grid, slab(1.5), Incoming1D(), np.zeros(grid.num_nodes - 1))

    @pytest.mark.parametrize("inc,side", [
        (Incoming1D(EincL=np.nan), "left"),
        (Incoming1D(EincL=1.0, EincR=np.inf), "right"),
    ])
    def test_non_finite_incoming_wave_rejected(self, inc, side):
        with pytest.raises(ValueError, match=f"^{side} incoming profile must be finite$"):
            build_problem_1d(build_grid_1d(5.0, 16), slab(1.5), inc)

    def test_interface_row_couples_seven_nodes(self):
        # genuine jump at z = 2.5 -> one-sided matching row over n-3..n+3
        mat = MaterialStack(
            k0=K0,
            sigma=1.0,
            layers=(Layer(0.0, 2.5, 1.5, 0.1), Layer(2.5, 5.0, 1.0, 0.0)),
        )
        grid = build_grid_1d(5.0, 16)
        problem = build_problem_1d(grid, mat, Incoming1D(EincL=1.0))
        row = problem.A_lin[grid.index(8)].toarray().ravel()
        assert np.count_nonzero(row) == 7

    def test_problem_grid_is_the_given_grid(self):
        grid = build_grid_1d(5.0, 64)
        problem = build_problem_1d(grid, slab(1.5, eps=0.05), Incoming1D(EincL=1.0))
        assert problem.grid is grid
        assert field_zeros(problem.grid).shape == problem.field_shape == (71,)

    def test_matched_partition_point_stays_compact(self):
        # splitting a uniform slab in two must not change the operator
        grid = build_grid_1d(5.0, 16)
        whole = slab(1.5, eps=0.1)
        split = MaterialStack(
            k0=K0,
            sigma=1.0,
            layers=(Layer(0.0, 2.5, 1.5, 0.1), Layer(2.5, 5.0, 1.5, 0.1)),
        )
        inc = Incoming1D(EincL=1.0)
        p_whole = build_problem_1d(grid, whole, inc)
        p_split = build_problem_1d(grid, split, inc)
        assert (p_whole.A_lin != p_split.A_lin).nnz == 0
        assert (p_whole.C != p_split.C).nnz == 0
        assert np.array_equal(p_whole.b, p_split.b)


class TestClosedFormRows:
    """Assembled rows against the scheme's formulas, written out here.

    At h = 5/256 a transverse stencil residue left in the single-column
    system (e.g. from a non-unit transverse step) perturbs the dispersion
    root enough to move the boundary forcing by ~2e-14, above the 1e-14
    tolerance used throughout.
    """

    IFACE_W = np.array([4.0, -27.0, 108.0, -170.0, 108.0, -27.0, 4.0]) / 66.0
    LAYERS = ((0.0, 1.875, 1.3, 0.08), (1.875, 3.75, 1.1, 0.02),
              (3.75, 5.0, 1.45, 0.05))

    @pytest.fixture(scope="class")
    def system(self):
        mat = MaterialStack(k0=K0, sigma=1.0,
                            layers=tuple(Layer(*lay) for lay in self.LAYERS))
        grid = build_grid_1d(5.0, 256)
        inc = Incoming1D(EincL=0.8 - 0.3j, EincR=0.4 + 0.5j)
        return grid, inc, build_problem_1d(grid, mat, inc)

    @staticmethod
    def row(matrix, r):
        return matrix[r].toarray().ravel()

    def expected(self, grid, entries):
        out = np.zeros(grid.num_nodes, dtype=complex)
        for col, value in entries.items():
            out[col] = value
        return out

    def test_boundary_rows(self, system):
        grid, inc, problem = system
        h = grid.h
        c = (1.0 + K0**2 * h * h / 12.0) / (h * h)
        closure = characteristic_root(K0, h)
        last = grid.num_nodes - 1
        for r, inner, einc in ((0, 1, inc.EincL), (last, last - 1, inc.EincR)):
            want = self.expected(grid, {r: -2.0 * c + c * closure.q + K0**2, inner: c})
            np.testing.assert_allclose(self.row(problem.A_lin, r), want,
                                       rtol=1e-14, atol=0)
            assert not self.row(problem.C, r).any()
            assert problem.b[r] == pytest.approx(
                -c * closure.injection_weight * einc, rel=1e-14, abs=0)
        assert np.all(problem.b[1:-1] == 0.0)

    def test_compact_row(self, system):
        grid, _, problem = system
        h = grid.h
        _, _, nu, eps = self.LAYERS[0]
        r = grid.index(40)
        off = 1.0 / (h * h) + K0**2 * nu**2 / 12.0
        diag = -2.0 / (h * h) + (10.0 / 12.0) * K0**2 * nu**2
        want_a = self.expected(grid, {r - 1: off, r: diag, r + 1: off})
        want_c = self.expected(grid, {r - 1: K0**2 * eps / 12.0,
                                      r: (10.0 / 12.0) * K0**2 * eps,
                                      r + 1: K0**2 * eps / 12.0})
        np.testing.assert_allclose(self.row(problem.A_lin, r), want_a,
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(self.row(problem.C, r), want_c,
                                   rtol=1e-14, atol=0)

    def test_interface_row(self, system):
        grid, _, problem = system
        h = grid.h
        (_, _, nu_l, eps_l), (_, _, nu_r, eps_r) = self.LAYERS[:2]
        r = grid.index(96)  # z = 1.875
        weight = 6.0 * h * K0**2 / 11.0
        entries = {r + j: w / h for j, w in zip(range(-3, 4), self.IFACE_W)}
        entries[r] += weight * 0.5 * (nu_l**2 + nu_r**2)
        np.testing.assert_allclose(self.row(problem.A_lin, r),
                                   self.expected(grid, entries), rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            self.row(problem.C, r),
            self.expected(grid, {r: weight * 0.5 * (eps_l + eps_r)}),
            rtol=1e-14, atol=0)

    def test_single_interface_transmission_closed_form(self):
        # test_02's error budget: left of the vacuum -> nu interface at node
        # 0 the discrete field is q1^n + R q1^-n, right of it T q2^n, with q1
        # and q2 the discrete roots. Continuity (1 + R = T) and the interface
        # row fix R and T; test_02's half-space emulation reproduces this T,
        # whose |T| - 2/(1+nu) is the -3.37e-5 that test_02 fails on.
        nu, N = 1.5, 80
        grid = build_grid_1d(N * (2.0 * math.pi / K0) / 40.0, N)  # 40 per wavelength
        h = grid.h
        q1, q2 = characteristic_root(K0, h).q, characteristic_root(nu * K0, h).q
        n = np.arange(-3, 4)
        w = self.IFACE_W / h
        w[3] += (6.0 * h / 11.0) * K0**2 * 0.5 * (1.0 + nu**2)
        left, right = n < 0, n >= 0  # node 0 holds T
        R, T = np.linalg.solve(
            [[1.0, -1.0],
             [np.sum(w[left] * q1 ** -n[left]), np.sum(w[right] * q2 ** n[right])]],
            [-1.0, -np.sum(w[left] * q1 ** n[left])])
        assert abs(T) - 2.0 / (1.0 + nu) == pytest.approx(-3.3652e-5, abs=1e-9)

        mat = slab(nu, Zmax=grid.Zmax)
        n_fit = np.arange(10, 71)
        basis = np.stack([q2**n_fit, q2 ** (-n_fit)], axis=1)

        def medium_waves(einc_right):
            E, _ = solve_1d(grid, mat, Incoming1D(EincL=1.0, EincR=einc_right))
            return np.linalg.lstsq(basis, E[n_fit + 3], rcond=None)[0]

        # the right-incoming amplitude that cancels the wave returning from
        # the exit face leaves the pure transmitted wave, as in test_02
        w0, w1 = medium_waves(0.0), medium_waves(0.1)
        s = -w0[1] * 0.1 / (w1[1] - w0[1])
        transmitted = w0[0] + (w1[0] - w0[0]) * (s / 0.1)
        assert abs(transmitted - T) <= 1e-12

class TestExtract:
    def test_planted_amplitudes_recovered(self):
        grid = build_grid_1d(5.0, 40)
        closure = characteristic_root(K0, grid.h)
        q = closure.q
        inc = Incoming1D(EincL=0.8 + 0.1j, EincR=0.05 - 0.3j)
        R_true, T_true = -0.33 + 0.21j, 0.46 - 0.52j
        n = np.arange(grid.num_nodes) - 3.0
        E = np.where(
            n <= grid.N // 2,
            inc.EincL * q**n + R_true * q ** (-n),
            T_true * q ** (n - grid.N) + inc.EincR * q ** (grid.N - n),
        )
        R, T = extract_reflection_transmission(E, grid, closure, inc)
        assert R == pytest.approx(R_true, abs=1e-12)
        assert T == pytest.approx(T_true, abs=1e-12)


class TestSolve:
    def test_linear_slab_matches_oracle_fourth_order(self):
        mat = slab(1.5)
        inc = Incoming1D(EincL=1.0)
        oracle = transfer_matrix_linear(mat, inc)
        errs = []
        for N in (64, 128):
            grid = build_grid_1d(5.0, N)
            E, report = solve_1d(grid, mat, inc)
            assert report.converged
            z = np.array([grid.z(n) for n in range(grid.N + 1)])
            sl = slice(grid.index(0), grid.index(grid.N) + 1)
            errs.append(np.max(np.abs(E[sl] - oracle.evaluate(z))))
        assert 11.0 < errs[0] / errs[1] < 22.0
        assert errs[1] < 2e-4

    def test_linear_flux_identity_machine_exact(self):
        mat = slab(1.5)
        inc = Incoming1D(EincL=1.0)
        grid = build_grid_1d(5.0, 64)
        E, _ = solve_1d(grid, mat, inc)
        R, T = extract_reflection_transmission(
            E, grid, characteristic_root(K0, grid.h), inc
        )
        assert abs(R) ** 2 + abs(T) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_many_layer_stack_fourth_order_against_oracle(self):
        # 20 layers of thickness 0.25, nu alternating 1.0/1.5; errors against
        # the transfer matrix read 1.8e-4 .. 6.4e-8 at 8 .. 64 nodes per layer
        layers = tuple(Layer(0.25 * i, 0.25 * (i + 1), (1.0, 1.5)[i % 2], 0.0)
                       for i in range(20))
        mat = MaterialStack(k0=K0, sigma=1.0, layers=layers)
        inc = Incoming1D(EincL=1.0)
        oracle = transfer_matrix_linear(mat, inc)
        errs = []
        for per_layer in (8, 16, 32, 64):
            grid = build_grid_1d(5.0, 20 * per_layer)
            E, report = solve_1d(grid, mat, inc)
            assert report.converged
            z = np.array([grid.z(n) for n in range(grid.N + 1)])
            sl = slice(grid.index(0), grid.index(grid.N) + 1)
            errs.append(np.max(np.abs(E[sl] - oracle.evaluate(z))))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates >= 3.5), rates
        R, T = extract_reflection_transmission(
            E, grid, characteristic_root(K0, grid.h), inc
        )
        assert abs(abs(R) ** 2 + abs(T) ** 2 - 1.0) <= 1e-12

    def test_freezing_one_shots_linear_problem(self):
        # with no Kerr term the frozen system is the full system, so the
        # first LU solve is already the answer even at high contrast
        mat = slab(1.5)
        inc = Incoming1D(EincL=1.0)
        grid = build_grid_1d(5.0, 64)
        E_newton, _ = solve_1d(grid, mat, inc, method="newton")
        E_frozen, report = solve_1d(grid, mat, inc, method="freezing")
        assert report.converged
        assert report.iterations == 1
        assert np.max(np.abs(E_frozen - E_newton)) < 1e-12

    def test_born_converges_at_weak_contrast_only(self):
        # the vacuum-preconditioned sweep has a finite convergence domain:
        # fine at nu = 1.05, divergent (reported, not raised) at nu = 1.5
        inc = Incoming1D(EincL=1.0)
        grid = build_grid_1d(5.0, 64)
        weak = slab(1.05)
        E_newton, _ = solve_1d(grid, weak, inc, method="newton")
        E_born, report = solve_1d(grid, weak, inc, method="born")
        assert report.converged
        assert np.max(np.abs(E_born - E_newton)) < 1e-10

        _, report = solve_1d(grid, slab(1.5), inc, method="born")
        assert not report.converged
        assert report.divergence_reason is not None

    def test_nonlinear_energy_balance(self):
        mat = slab(1.5, eps=0.0625)
        inc = Incoming1D(EincL=1.0)
        grid = build_grid_1d(5.0, 256)
        E, report = solve_1d(grid, mat, inc)
        assert report.converged
        R, T = extract_reflection_transmission(
            E, grid, characteristic_root(K0, grid.h), inc
        )
        assert abs(R) ** 2 + abs(T) ** 2 == pytest.approx(1.0, abs=1e-5)

    def test_weak_nonlinearity_scales_linearly(self):
        inc = Incoming1D(EincL=1.0)
        grid = build_grid_1d(5.0, 128)
        E_lin, _ = solve_1d(grid, slab(1.5), inc)
        shift = {}
        for eps in (1e-4, 1e-5):
            E, report = solve_1d(grid, slab(1.5, eps=eps), inc)
            assert report.converged
            shift[eps] = np.max(np.abs(E - E_lin))
        assert shift[1e-4] < 1e-2
        assert 9.0 < shift[1e-4] / shift[1e-5] < 11.0

    def test_zero_incoming_gives_zero_field(self):
        grid = build_grid_1d(5.0, 32)
        E, report = solve_1d(grid, slab(1.5, eps=0.1), Incoming1D())
        assert report.converged
        assert report.iterations == 1
        assert np.max(np.abs(E)) == 0.0

    def test_unresolved_grid_raises(self):
        grid = build_grid_1d(5.0, 8)  # k0 h = 2.5 > sqrt(6)
        with pytest.raises(UnresolvedWave):
            solve_1d(grid, slab(1.5), Incoming1D(EincL=1.0))

    def test_solver_honors_config(self):
        mat = slab(1.5, eps=0.0625)
        grid = build_grid_1d(5.0, 64)
        config = NewtonConfig(max_iterations=2)
        _, report = solve_1d(grid, mat, Incoming1D(EincL=1.0), config=config)
        assert not report.converged
        assert report.iterations <= 2
