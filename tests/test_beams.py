"""Tests for beam construction, the paraxial reference march, and the
physical diagnostics (energy flux, oscillation spectra, power ratios, grid
convergence bookkeeping).

Oracles: closed-form Gaussian diffraction and bright-soliton solutions of
the paraxial equation, exact plane-wave fluxes, and manufactured convergence
families with a planted error order.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from nlhelm import (
    AdjustmentUndefined,
    BeamSpec,
    Incoming1D,
    MaterialStack,
    Layer,
    NonNestedGrids,
    Problem1D,
    UnsupportedProfile,
    UnsupportedTilt,
    adjust_for_nls,
    build_grid_1d,
    build_grid_multi,
    critical_power_ratio,
    field_zeros,
    grid_convergence_study,
    interpolate_field,
    make_incoming,
    nls_march,
    on_axis_index,
    oscillation_spectrum,
    poynting_flux,
    soliton_profile,
    solve,
)
from nlhelm.stencils import central

K0 = 4.0


def quiet_grid(Zmax, N, extent, M, geometry):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_grid_multi(Zmax, N, extent, M, geometry)


def kerr_stack(eps, nu=1.0, Zmax=5.0, k0=K0, sigma=1.0):
    return MaterialStack(k0=k0, sigma=sigma, layers=(Layer(0.0, Zmax, nu, eps),))


class TestBeamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeamSpec(shape="ring")
        with pytest.raises(ValueError):
            BeamSpec(shape="sech")  # r0 missing
        with pytest.raises(ValueError):
            BeamSpec(shape="gaussian", width=-1.0)
        with pytest.raises(ValueError):
            BeamSpec(shape="custom")  # samples missing
        with pytest.raises(ValueError):
            BeamSpec(shape="sech", r0=1.0, tilt_angle=math.pi / 2)
        with pytest.raises(ValueError):
            BeamSpec(shape="sech", r0=1.0, side="top")

    def test_sech_and_gaussian_sampling(self):
        grid = quiet_grid(5.0, 40, 6.0, 15, "cartesian")
        x = grid.transverse_coords()
        mat = kerr_stack(0.0)
        sech = make_incoming(BeamSpec(shape="sech", r0=1.5, amplitude=2.0), grid, mat)
        assert sech == pytest.approx(2.0 / np.cosh(x / 1.5))
        gauss = make_incoming(
            BeamSpec(shape="gaussian", width=2.0, center=0.4), grid, mat
        )
        assert gauss == pytest.approx(np.exp(-(((x - 0.4) / 2.0) ** 2)))

    def test_custom_samples(self):
        grid = quiet_grid(5.0, 40, 6.0, 8, "cartesian")
        samples = np.arange(8.0)
        out = make_incoming(
            BeamSpec(shape="custom", samples=samples, amplitude=0.5),
            grid,
            kerr_stack(0.0),
        )
        assert out == pytest.approx(0.5 * samples)
        with pytest.raises(ValueError):
            make_incoming(
                BeamSpec(shape="custom", samples=np.ones(5)), grid, kerr_stack(0.0)
            )

    def test_tilt_phase_ramp(self):
        grid = quiet_grid(5.0, 40, 6.0, 16, "cartesian")
        x = grid.transverse_coords()
        theta = 0.25
        out = make_incoming(
            BeamSpec(shape="gaussian", width=2.0, tilt_angle=theta),
            grid,
            kerr_stack(0.0),
        )
        expect = np.exp(-((x / 2.0) ** 2)) * np.exp(1j * K0 * math.sin(theta) * x)
        assert out == pytest.approx(expect)

    def test_tilt_rejected_on_cylindrical_sections(self):
        grid = quiet_grid(5.0, 40, 4.0, 16, "cylindrical")
        with pytest.raises(UnsupportedTilt):
            make_incoming(
                BeamSpec(shape="gaussian", width=1.0, tilt_angle=0.1),
                grid,
                kerr_stack(0.0),
            )


class TestAdjustment:
    def test_linear_vacuum_is_identity(self):
        profile = np.array([0.3, 1.0, 0.4 - 0.2j])
        assert adjust_for_nls(profile, 1.0, 0.0, 1.0) == pytest.approx(profile)

    def test_closed_form_factors(self):
        # radicand 1 + eps|E|^2 = 4 gives the factor (1 + 2)/2 = 1.5
        out = adjust_for_nls(np.array([1.0]), 1.0, 3.0, 1.0)
        assert out[0] == pytest.approx(1.5)
        # the production soliton peak: eps = 1/16, unit amplitude
        out = adjust_for_nls(np.array([1.0]), 1.0, 0.0625, 1.0)
        assert out[0] == pytest.approx((1.0 + math.sqrt(1.0625)) / 2.0)

    def test_adjust_applied_at_entry_material(self):
        grid = quiet_grid(5.0, 40, 6.0, 15, "cartesian")
        mat = kerr_stack(0.0625)
        spec = BeamSpec(shape="sech", r0=1.0, adjust=True)
        out = make_incoming(spec, grid, mat)
        center = on_axis_index(grid)
        assert out[center] == pytest.approx((1.0 + math.sqrt(1.0625)) / 2.0)

    def test_too_defocusing_rejected(self):
        with pytest.raises(AdjustmentUndefined):
            adjust_for_nls(np.array([1.0]), 1.0, -2.0, 1.0)


class TestSolitonProfile:
    def test_unit_peak_at_production_parameters(self):
        # k0 = 4, eps = 1/16, r0 = sqrt(2) puts the peak exactly at one
        assert soliton_profile(4.0, 0.0625, math.sqrt(2.0), 0.0) == pytest.approx(
            1.0
        )

    def test_amplitude_formula(self):
        k0, eps, r0 = 8.0, 0.15, 1.0
        peak = abs(soliton_profile(k0, eps, r0, 0.0))
        assert peak == pytest.approx(math.sqrt(2.0) / (k0 * r0 * math.sqrt(eps)))

    def test_longitudinal_phase(self):
        k0, eps, r0, z = 4.0, 0.0625, math.sqrt(2.0), 0.7
        got = soliton_profile(k0, eps, r0, 0.0, z=z)
        expect_phase = k0 * z * (1.0 + 0.5 / (k0 * r0) ** 2)
        assert np.angle(got) == pytest.approx(
            math.atan2(math.sin(expect_phase), math.cos(expect_phase))
        )

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError):
            soliton_profile(4.0, 0.0, 1.0, 0.0)


class TestOnAxis:
    def test_axis_indices(self):
        assert on_axis_index(quiet_grid(5.0, 40, 4.0, 16, "cylindrical")) == 0
        assert on_axis_index(quiet_grid(5.0, 40, 6.0, 15, "cartesian")) == 7
        x = quiet_grid(5.0, 40, 6.0, 16, "cartesian")
        idx = on_axis_index(x)
        coords = x.transverse_coords()
        assert abs(coords[idx]) == np.abs(coords).min()


class TestFlux:
    def test_plane_wave_unit_flux(self):
        grid = build_grid_1d(5.0, 64)
        z = np.array([grid.z(n) for n in range(-3, grid.N + 4)])
        A = 0.8 - 0.3j
        flux = poynting_flux(A * np.exp(1j * K0 * z), grid, K0)
        inner = slice(1, -1)  # rows served by the 4th-order stencil
        assert np.abs(flux.S_z[inner] - abs(A) ** 2).max() < 1e-3
        assert np.abs(flux.S_z - abs(A) ** 2).max() < 2e-2
        assert flux.power_deviation(0, grid.N) < 1e-12

    def test_plane_wave_flux_fourth_order(self):
        A = 0.8 - 0.3j
        devs = []
        for N in (64, 128):
            grid = build_grid_1d(5.0, N)
            z = np.array([grid.z(n) for n in range(-3, grid.N + 4)])
            flux = poynting_flux(A * np.exp(1j * K0 * z), grid, K0)
            devs.append(np.abs(flux.S_z[1:-1] - abs(A) ** 2).max())
        assert 12.0 < devs[0] / devs[1] < 20.0

    def test_counter_propagating_net_flux(self):
        grid = build_grid_1d(5.0, 64)
        z = np.array([grid.z(n) for n in range(-3, grid.N + 4)])
        A, B = 0.8 - 0.3j, 0.25 + 0.1j
        E = A * np.exp(1j * K0 * z) + B * np.exp(-1j * K0 * z)
        flux = poynting_flux(E, grid, K0)
        net = abs(A) ** 2 - abs(B) ** 2
        assert np.abs(flux.S_z[1:-1] - net).max() < 1e-3

    def test_section_power_closed_forms(self):
        A = 0.8 - 0.3j
        cart = quiet_grid(5.0, 64, 6.0, 32, "cartesian")
        z = np.array([cart.z(n) for n in range(-3, cart.N + 4)])
        E = A * np.exp(1j * K0 * z)[:, None] * np.ones(32)
        flux = poynting_flux(E, cart, K0)
        assert np.abs(flux.power[1:-1] - 2.0 * 6.0 * abs(A) ** 2).max() < 1e-2

        cyl = quiet_grid(5.0, 64, 3.0, 32, "cylindrical")
        flux = poynting_flux(A * np.exp(1j * K0 * z)[:, None] * np.ones(32), cyl, K0)
        assert np.abs(flux.power[1:-1] - 0.5 * 3.0**2 * abs(A) ** 2).max() < 5e-3

    @pytest.mark.parametrize("geometry", ["1d", "cartesian", "cylindrical"])
    def test_matches_per_row_reference_bitwise(self, geometry):
        # reference: each row's derivative summed term by term in stencil
        # order, as a per-row loop computes it
        if geometry == "1d":
            grid = build_grid_1d(5.0, 48)
            shape = (grid.N + 7,)
        else:
            grid = quiet_grid(5.0, 48, 3.0, 10, geometry)
            shape = (grid.N + 7, 10)
        rng = np.random.default_rng(11)
        E = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        F = E.reshape(grid.N + 7, -1)
        w4, h = central(1, 4), grid.h
        want = np.empty((grid.N + 5, F.shape[1]))
        for i, n in enumerate(range(-2, grid.N + 3)):
            r = n + 3
            if -1 <= n <= grid.N + 1:
                dE = sum(w * F[r + off] for off, w in zip(w4.offsets, w4.weights)) / h
            else:
                dE = (F[r + 1] - F[r - 1]) / (2.0 * h)
            want[i] = (np.conj(F[r]) * dE).imag / K0
        flux = poynting_flux(E, grid, K0)
        if geometry == "1d":
            want_power = want[:, 0]
        elif geometry == "cylindrical":
            want_power = (want * grid.transverse_coords()).sum(axis=1) * grid.h_perp
        else:
            want_power = want.sum(axis=1) * grid.h_perp
        assert np.array_equal(flux.S_z, want.reshape(flux.S_z.shape))
        assert np.array_equal(flux.power, want_power)

    def test_power_deviation_checks_range(self):
        grid = build_grid_1d(5.0, 64)
        z = np.array([grid.z(n) for n in range(-3, grid.N + 4)])
        flux = poynting_flux(np.exp(1j * K0 * z), grid, K0)
        with pytest.raises(ValueError):
            flux.power_deviation(grid.N + 10, grid.N + 20)


class TestSpectrum:
    def test_planted_oscillation_recovered(self):
        h = 0.02
        z = np.arange(512) * h
        peak = oscillation_spectrum(1.0 + 0.1 * np.cos(8.0 * z), h)
        assert peak.found
        assert peak.frequency == pytest.approx(8.0, abs=0.1)

    def test_constant_signal_reports_nothing(self):
        peak = oscillation_spectrum(np.full(128, 3.7), 0.01)
        assert not peak.found

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            oscillation_spectrum(np.ones(32), 0.01)


class TestNlsMarch:
    def test_cartesian_gaussian_diffraction(self):
        grid = quiet_grid(2.0, 40, 12.0, 256, "cartesian")
        x = grid.transverse_coords()
        res = nls_march(grid, K0, 0.0, 1.0, np.exp(-(x**2)), dz=0.02)
        assert not res.blew_up
        den = 1.0 + 2j * res.z[-1] / K0
        exact = den**-0.5 * np.exp(-(x**2) / den)
        assert np.abs(res.final - exact).max() < 5e-3

    def test_cylindrical_gaussian_diffraction(self):
        grid = quiet_grid(2.0, 40, 12.0, 256, "cylindrical")
        rho = grid.transverse_coords()
        res = nls_march(grid, K0, 0.0, 1.0, np.exp(-(rho**2)), dz=0.02)
        den = 1.0 + 2j * res.z[-1] / K0
        exact = den**-1.0 * np.exp(-(rho**2) / den)
        assert np.abs(res.final - exact).max() < 5e-3

    def test_soliton_stationary(self):
        # the closed-form bright soliton keeps its peak and advances its
        # on-axis phase at 1/(2 k0 r0^2) per unit length
        eps, r0 = 0.0625, math.sqrt(2.0)
        grid = quiet_grid(40.0, 80, 12.0, 112, "cartesian")
        phi0 = soliton_profile(K0, eps, r0, grid.transverse_coords())
        res = nls_march(grid, K0, eps, 1.0, phi0, dz=0.1)
        assert not res.blew_up
        assert np.abs(res.peak - res.peak[0]).max() / res.peak[0] < 0.01
        slope = np.polyfit(res.z, np.unwrap(np.angle(res.on_axis)), 1)[0]
        assert slope == pytest.approx(1.0 / (2.0 * K0 * r0**2), rel=0.01)

    def test_supercritical_beam_blows_up(self):
        grid = quiet_grid(9.0, 90, 3.5, 144, "cylindrical")
        rho = grid.transverse_coords()
        res = nls_march(grid, 8.0, 0.15, 1.0, np.exp(-(rho**2)), dz=0.05)
        assert res.blew_up
        assert 0.0 < res.z_star < 9.0

    def test_subcritical_beam_survives(self):
        grid = quiet_grid(9.0, 90, 3.5, 144, "cylindrical")
        rho = grid.transverse_coords()
        res = nls_march(
            grid, 8.0, 0.15, 1.0, math.sqrt(0.5) * np.exp(-(rho**2)), dz=0.05
        )
        assert not res.blew_up
        assert res.z_star is None
        assert res.peak.max() < 2.0 * res.peak[0]

    def test_unsettled_pass_halves_the_step(self, monkeypatch):
        # a strong Kerr phase over dz = 0.5 moves the corrector by more than a
        # tenth of the field: the step is retried at half the length until
        # the pass settles, although every banded solve is finite
        finite = []
        real = scipy.linalg.solve_banded

        def spy(*args, **kwargs):
            x = real(*args, **kwargs)
            finite.append(bool(np.isfinite(x).all()))
            return x

        monkeypatch.setattr(scipy.linalg, "solve_banded", spy)
        grid = quiet_grid(2.0, 16, 3.0, 24, "cartesian")
        x = grid.transverse_coords()
        res = nls_march(grid, K0, 1.0, 1.0, 3.0 * np.exp(-(x**2)), dz=0.5)
        assert not res.blew_up and res.z_star is None
        assert res.z[-1] == pytest.approx(2.0)
        halvings = np.log2(0.5 / np.diff(res.z))
        assert halvings[0] >= 1
        assert np.array_equal(halvings, np.round(halvings))
        assert all(finite)
        # two banded solves per pass, accepted or not
        assert len(finite) > 2 * (len(res.z) - 1)

    def test_non_finite_corrector_halves_the_step(self, monkeypatch):
        # the first pass's corrector, the second banded solve, comes back
        # NaN: the step is retried at half the length, which the linear
        # march then keeps to the end
        calls = []
        real = scipy.linalg.solve_banded

        def nan_first_corrector(*args, **kwargs):
            calls.append(None)
            x = real(*args, **kwargs)
            return np.full_like(x, np.nan) if len(calls) == 2 else x

        monkeypatch.setattr(scipy.linalg, "solve_banded", nan_first_corrector)
        grid = quiet_grid(2.0, 16, 3.0, 24, "cartesian")
        x = grid.transverse_coords()
        res = nls_march(grid, K0, 0.0, 1.0, np.exp(-(x**2)), dz=0.25)
        assert not res.blew_up and res.z_star is None
        assert np.array_equal(np.diff(res.z), np.full(16, 0.125))
        assert np.all(np.isfinite(res.final))
        assert len(calls) == 2 + 2 * 16

    def test_step_below_floor_reports_last_accepted_z(self, monkeypatch):
        # after three accepted steps every banded solve fails: dz halves 17
        # times, to below its floor dz 2^-16, and the march stops at z = 0.75
        calls = []
        real = scipy.linalg.solve_banded

        def failing_after_three_steps(*args, **kwargs):
            calls.append(None)
            x = real(*args, **kwargs)
            return x if len(calls) <= 6 else np.full_like(x, np.nan)

        monkeypatch.setattr(scipy.linalg, "solve_banded", failing_after_three_steps)
        grid = quiet_grid(2.0, 16, 3.0, 24, "cartesian")
        x = grid.transverse_coords()
        res = nls_march(grid, K0, 0.0, 1.0, np.exp(-(x**2)), dz=0.25)
        assert res.blew_up
        assert res.z_star == res.z[-1] == 0.75
        assert len(res.z) == len(res.peak) == 4
        assert len(calls) == 6 + 17

    def test_validation_and_bookkeeping(self):
        grid = quiet_grid(2.0, 40, 6.0, 64, "cartesian")
        x = grid.transverse_coords()
        with pytest.raises(ValueError):
            nls_march(grid, K0, 0.0, 1.0, np.exp(-(x**2)), dz=0.0)
        with pytest.raises(ValueError):
            nls_march(grid, K0, 0.0, 1.0, np.ones(5), dz=0.1)
        res = nls_march(grid, K0, 0.0, 1.0, np.exp(-(x**2)), dz=0.1)
        assert res.z[0] == 0.0
        assert res.z[-1] == pytest.approx(2.0)
        assert np.all(np.diff(res.z) > 0)
        assert len(res.peak) == len(res.z) == len(res.on_axis)
        assert res.axis_index == on_axis_index(grid)


class TestCriticalPower:
    def test_reference_value(self):
        spec = BeamSpec(shape="gaussian", width=1.0)
        assert critical_power_ratio(0.15, 8.0, spec) == pytest.approx(
            1.2887, abs=2e-4
        )

    def test_threshold_inversion(self):
        # eps = 4 * 1.8623 / k0^2 puts a unit gaussian exactly at threshold
        k0 = 8.0
        spec = BeamSpec(shape="gaussian", width=1.0)
        assert critical_power_ratio(4.0 * 1.8623 / k0**2, k0, spec) == pytest.approx(
            1.0
        )

    def test_scalings(self):
        spec = BeamSpec(shape="gaussian", width=1.0)
        assert critical_power_ratio(0.0, 8.0, spec) == 0.0
        double_amp = BeamSpec(shape="gaussian", width=1.0, amplitude=2.0)
        assert critical_power_ratio(0.15, 8.0, double_amp) == pytest.approx(
            4.0 * critical_power_ratio(0.15, 8.0, spec)
        )

    def test_gaussian_only(self):
        with pytest.raises(UnsupportedProfile):
            critical_power_ratio(0.15, 8.0, BeamSpec(shape="sech", r0=1.0))


class TestConvergenceStudy:
    def manufactured_family(self, levels=3, N0=16):
        # plant a pure h^4 error on a smooth background; the pairwise
        # differences then shrink exactly sixteenfold
        grids, fields = [], []
        for lvl in range(levels):
            N = N0 * 2**lvl
            g = build_grid_1d(2.0, N)
            z = np.array([g.z(n) for n in range(-3, g.N + 4)])
            fields.append(np.exp(1j * z) + g.h**4 * np.cos(3.0 * z))
            grids.append(g)
        return fields, grids

    def test_planted_fourth_order_recovered(self):
        fields, grids = self.manufactured_family()
        table = grid_convergence_study(fields, grids)
        assert table.levels == [(16, 1), (32, 1), (64, 1)]
        assert table.rates[0] == pytest.approx(4.0, abs=0.1)

    def test_rows_layout(self):
        fields, grids = self.manufactured_family()
        rows = grid_convergence_study(fields, grids).rows()
        assert len(rows) == 3
        assert rows[0][2] is not None and rows[0][3] is None
        assert rows[1][3] is not None
        assert rows[2][2] is None

    def test_multid_pair_difference(self):
        grids, fields = [], []
        for lvl in range(2):
            g = quiet_grid(2.0, 16 * 2**lvl, 3.0, 8 * 2**lvl, "cartesian")
            z = np.array([g.z(n) for n in range(-3, g.N + 4)])
            x = g.transverse_coords()
            fields.append(np.exp(1j * z)[:, None] * np.exp(-(x**2) / 4.0))
            grids.append(g)
        table = grid_convergence_study(fields, grids)
        assert table.diffs[0] < 1e-3  # same smooth function on both levels

    def test_non_nested_rejected(self):
        fields, grids = self.manufactured_family(levels=2)
        bad = build_grid_1d(2.0, 3 * grids[0].N)
        with pytest.raises(NonNestedGrids):
            grid_convergence_study(
                [fields[0], np.zeros(bad.num_nodes)], [grids[0], bad]
            )
        other_domain = build_grid_1d(4.0, 2 * grids[0].N)
        with pytest.raises(NonNestedGrids):
            grid_convergence_study(
                [fields[0], np.zeros(other_domain.num_nodes)],
                [grids[0], other_domain],
            )
        multi = quiet_grid(2.0, 2 * grids[0].N, 3.0, 8, "cartesian")
        with pytest.raises(NonNestedGrids):
            grid_convergence_study(
                [fields[0], np.zeros((multi.N + 7, 8))], [grids[0], multi]
            )
        with pytest.raises(ValueError):
            grid_convergence_study([fields[0]], [grids[0]])

    @pytest.mark.parametrize("M,extent,geometry", [
        (12, 3.0, "cartesian"), (16, 4.0, "cartesian"), (16, 3.0, "cylindrical")],
        ids=["M-not-doubled", "other-extent", "other-geometry"])
    def test_transverse_not_nested_rejected(self, M, extent, geometry):
        gc, gf = (quiet_grid(2.0, 16, 3.0, 8, "cartesian"),
                  quiet_grid(2.0, 32, extent, M, geometry))
        with pytest.raises(NonNestedGrids, match="transverse grids not nested: M 8->"):
            grid_convergence_study([field_zeros(gc), field_zeros(gf)], [gc, gf])

    def test_too_few_coarse_cells_rejected(self):
        gc, gf = (quiet_grid(2.0, 16, 3.0, 2, "cartesian"),
                  quiet_grid(2.0, 32, 3.0, 4, "cartesian"))
        with pytest.raises(NonNestedGrids, match="at least 4 coarse cells"):
            grid_convergence_study([field_zeros(gc), field_zeros(gf)], [gc, gf])

    def test_problem_grids_give_the_grid_table(self):
        # a Problem1D's grid is the Grid1D it was built on, so its solves
        # feed the study as they are
        mat = kerr_stack(0.05)
        problems = [Problem1D(build_grid_1d(5.0, N), mat, Incoming1D(EincL=1.0))
                    for N in (32, 64, 128)]
        fields = [solve(p)[0] for p in problems]
        table = grid_convergence_study(fields, [p.grid for p in problems])
        assert table == grid_convergence_study(
            fields, [build_grid_1d(5.0, N) for N in (32, 64, 128)])
        assert table.levels == [(32, 1), (64, 1), (128, 1)]
        assert table.rates[0] > 3.5


class TestInterpolate:
    def test_linear_functions_exact_1d(self):
        ga, gb = build_grid_1d(3.0, 16), build_grid_1d(3.0, 32)
        za = ga.z_nodes()
        E = (2.0 - 1.0j) * za + 0.5j
        out = interpolate_field(E, ga, gb)
        zb = gb.z_nodes()
        assert out == pytest.approx((2.0 - 1.0j) * zb + 0.5j, abs=1e-12)

    def test_bilinear_exact_multid(self):
        ga = quiet_grid(3.0, 16, 2.0, 8, "cartesian")
        gb = quiet_grid(3.0, 32, 2.0, 16, "cartesian")
        za, xa = ga.z_nodes(), ga.transverse_coords()
        E = (1.0 + za)[:, None] * (2.0 - xa)[None, :]
        out = interpolate_field(E.astype(complex), ga, gb)
        zb, xb = gb.z_nodes(), gb.transverse_coords()
        expect = (1.0 + zb)[:, None] * (2.0 - xb)[None, :]
        # transverse extremes extrapolate flat, so compare the interior
        assert out[:, 1:-1] == pytest.approx(expect[:, 1:-1], abs=1e-12)

    @staticmethod
    def loop_reference(E, grid_from, grid_to):
        """Column-then-row np.interp loops: the unvectorised resampling."""
        z_from, z_to = grid_from.z_nodes(), grid_to.z_nodes()
        x_from, x_to = grid_from.transverse_coords(), grid_to.transverse_coords()
        mid = np.empty((z_to.size, E.shape[1]), dtype=np.complex128)
        for mcol in range(E.shape[1]):
            mid[:, mcol] = (np.interp(z_to, z_from, E[:, mcol].real)
                            + 1j * np.interp(z_to, z_from, E[:, mcol].imag))
        out = np.empty((z_to.size, x_to.size), dtype=np.complex128)
        for row in range(z_to.size):
            out[row] = (np.interp(x_to, x_from, mid[row].real)
                        + 1j * np.interp(x_to, x_from, mid[row].imag))
        return out

    @pytest.mark.parametrize("geometry,extent", [("cartesian", 2.0),
                                                 ("cylindrical", 2.0)])
    @pytest.mark.parametrize("coarse_to_fine", [True, False])
    def test_matches_loop_reference_bitwise(self, geometry, extent, coarse_to_fine):
        # the same slope and offset per interval as np.interp, so the same
        # bits; cylindrical targets also reach past the source's end nodes
        grids = [quiet_grid(3.0, 16, extent, 8, geometry),
                 quiet_grid(3.0, 32, extent, 13, geometry)]
        ga, gb = grids if coarse_to_fine else grids[::-1]
        rng = np.random.default_rng(5)
        E = rng.normal(size=(ga.N + 7, ga.M)) + 1j * rng.normal(size=(ga.N + 7, ga.M))
        out = interpolate_field(E, ga, gb)
        assert out.flags.c_contiguous
        assert np.array_equal(out, self.loop_reference(E, ga, gb))
        la, lb = build_grid_1d(3.0, ga.N), build_grid_1d(3.0, gb.N)
        za, zb = la.z_nodes(), lb.z_nodes()
        assert np.array_equal(interpolate_field(E[:, 0], la, lb),
                              np.interp(zb, za, E[:, 0].real)
                              + 1j * np.interp(zb, za, E[:, 0].imag))

    def test_1d_onto_cartesian_repeats_the_column(self):
        # a Grid1D is the single cartesian column at x = 0, so resampling
        # onto a wider section holds the column flat across it
        la, gb = build_grid_1d(3.0, 16), quiet_grid(3.0, 32, 2.0, 8, "cartesian")
        E = np.exp(1j * la.z_nodes())
        out = interpolate_field(E, la, gb)
        assert out.shape == gb.field_shape
        column = interpolate_field(E, la, build_grid_1d(3.0, 32))
        assert np.array_equal(out, np.repeat(column[:, None], 8, axis=1))
        with pytest.raises(ValueError, match="between geometries"):
            interpolate_field(E, la, quiet_grid(3.0, 32, 2.0, 8, "cylindrical"))

    def test_geometry_mismatch_rejected(self):
        ga = quiet_grid(3.0, 16, 2.0, 8, "cartesian")
        gb = quiet_grid(3.0, 16, 2.0, 8, "cylindrical")
        E = np.zeros((ga.N + 7, 8), dtype=complex)
        with pytest.raises(ValueError):
            interpolate_field(E, ga, gb)
