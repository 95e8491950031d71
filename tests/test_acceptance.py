"""End-to-end acceptance checks for the layered Kerr Helmholtz solver.

One test per headline capability, each printing a single pass/fail line
under ``pytest -v``.  The expensive nonlinear solves are shared between
checks through module-scoped fixtures; everything is sized for a small
single-core machine, with the collapse run and the solver-ordering sweep
as the long poles (a few minutes each).
"""

import cmath
import math
import time
import warnings

import numpy as np
import pytest

from nlhelm import (
    BeamSpec,
    HelmholtzProblem,
    Incoming1D,
    Layer,
    MaterialStack,
    NewtonConfig,
    assemble_jacobian,
    assemble_residual,
    build_grid_1d,
    build_grid_multi,
    build_transverse_suite,
    characteristic_root,
    eigensolve_transverse,
    extract_reflection_transmission,
    grid_convergence_study,
    interpolate_field,
    make_incoming,
    nls_march,
    on_axis_index,
    oscillation_spectrum,
    poynting_flux,
    solve,
    solve_1d,
    transfer_matrix_linear,
)

K0 = 4.0
EPS_SOLITON = 1.0 / 16.0  # k0^-2 at k0 = 4: the nonparaxial soliton regime


def quiet_grid(Zmax, N, extent, M, geometry):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return build_grid_multi(Zmax, N, extent, M, geometry)


def soliton_problem(Zmax, N, Xmax, M, adjust=True):
    """Kerr slab driven by the sech profile whose paraxial limit is a soliton."""
    mat = MaterialStack(k0=K0, sigma=1.0,
                        layers=(Layer(0.0, Zmax, 1.0, EPS_SOLITON),))
    grid = quiet_grid(Zmax, N, Xmax, M, "cartesian")
    beam = make_incoming(BeamSpec(shape="sech", r0=math.sqrt(2.0), adjust=adjust),
                         grid, mat)
    return grid, mat, HelmholtzProblem(grid, mat, einc_left=beam)


# --- shared expensive solves --------------------------------------------------


@pytest.fixture(scope="module")
def desk_soliton():
    grid, mat, problem = soliton_problem(40.0, 382, 12.0, 112)
    E, report = solve(problem)
    return grid, mat, E, report


@pytest.fixture(scope="module")
def desk_raw():
    grid, mat, problem = soliton_problem(40.0, 382, 12.0, 112, adjust=False)
    E, report = solve(problem)
    return grid, mat, E, report


@pytest.fixture(scope="module")
def convergence_levels():
    fields, grids, reports = [], [], []
    guess = None
    for level in range(3):
        N, M = 48 * 2**level, 20 * 2**level
        grid, _, problem = soliton_problem(20.0, N, 8.0, M)
        E, report = solve(problem, config=NewtonConfig(initial_guess=guess))
        fields.append(E)
        grids.append(grid)
        reports.append(report)
        if level < 2:
            finer = quiet_grid(20.0, 2 * N, 8.0, 2 * M, "cartesian")
            guess = interpolate_field(E, grid, finer)
    return fields, grids, reports


@pytest.fixture(scope="module")
def collapse_run():
    # warm-start the fine grid from a half-resolution solve so the Newton
    # iteration starts inside its basin at the focus
    k0, eps = 8.0, 0.15
    mat = MaterialStack(k0=k0, sigma=1.0, layers=(Layer(0.0, 9.0, 1.0, eps),))
    spec = BeamSpec(shape="gaussian", width=1.0, adjust=True)
    coarse = quiet_grid(9.0, 216, 3.5, 72, "cylindrical")
    E_c, report_c = solve(
        HelmholtzProblem(coarse, mat, einc_left=make_incoming(spec, coarse, mat)))
    assert report_c.converged
    fine = quiet_grid(9.0, 432, 3.5, 144, "cylindrical")
    problem = HelmholtzProblem(fine, mat, einc_left=make_incoming(spec, fine, mat))
    E, report = solve(
        problem, config=NewtonConfig(initial_guess=interpolate_field(E_c, coarse, fine)))
    return fine, mat, E, report


# --- checks -------------------------------------------------------------------


def test_01_linear_slab_matches_transfer_matrix():
    t0 = time.perf_counter()
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.5, 0.0),))
    inc = Incoming1D(EincL=1.0)
    oracle = transfer_matrix_linear(mat, inc)
    errs = []
    for N in (32, 64, 128):  # about 10 / 20 / 40 nodes per vacuum wavelength
        grid = build_grid_1d(5.0, N)
        E, report = solve_1d(grid, mat, inc)
        assert report.converged
        z = grid.z(np.arange(0, grid.N + 1))
        errs.append(np.abs(E[3:grid.N + 4] - oracle.evaluate(z)).max())
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(3.5 <= rate <= 4.5 for rate in rates)
    R, T = extract_reflection_transmission(
        E, grid, characteristic_root(K0, grid.h), inc)
    assert abs(R) ** 2 + abs(T) ** 2 == pytest.approx(1.0, abs=1e-8)
    assert time.perf_counter() - t0 < 1.0


def test_02_single_interface_refraction():
    t0 = time.perf_counter()
    nu = 1.5
    lam0 = 2.0 * math.pi / K0
    N = 80
    Zmax = N * lam0 / 40.0  # exactly 40 nodes per vacuum wavelength
    grid = build_grid_1d(Zmax, N)
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, Zmax, nu, 0.0),))
    q_med = characteristic_root(nu * K0, grid.h).q
    n_fit = np.arange(10, 71)
    basis = np.stack([q_med**n_fit, q_med ** (-n_fit)], axis=1)

    def medium_waves(einc_right):
        E, report = solve_1d(grid, mat, Incoming1D(EincL=1.0, EincR=einc_right))
        assert report.converged
        coef, *_ = np.linalg.lstsq(basis, E[n_fit + 3], rcond=None)
        return coef  # (rightward, leftward) amplitudes inside the medium

    # Emulate a half-space medium inside the finite slab: both in-medium wave
    # amplitudes are affine in the right-incoming control amplitude, so two
    # solves determine the control that annihilates the wave returning from
    # the exit face, leaving a pure transmitted wave at the entry interface.
    w0 = medium_waves(0.0)
    w1 = medium_waves(0.1)
    s = -w0[1] * 0.1 / (w1[1] - w0[1])
    transmitted = w0[0] + (w1[0] - w0[0]) * (s / 0.1)
    # The entry-interface row matches one-sided first derivatives with O(h^4)
    # truncation; closed-form analysis of that row gives |T| - 0.8 = -3.37e-5
    # at this resolution (1e-6 would need ~100 nodes per wavelength), and the
    # solve reproduces it.  The tolerance is kept as stated rather than
    # widened to what the scheme delivers, so this check currently fails.
    assert abs(abs(transmitted) - 2.0 / (1.0 + nu)) <= 1e-6
    assert time.perf_counter() - t0 < 1.0


def test_03_characteristic_root_fifth_order():
    t0 = time.perf_counter()
    hs = [0.1 / 2**i for i in range(4)]
    errs = [abs(characteristic_root(K0, h).q - cmath.exp(1j * K0 * h)) for h in hs]
    factors = [errs[i] / errs[i + 1] for i in range(3)]
    assert all(28.0 <= f <= 36.0 for f in factors)
    assert time.perf_counter() - t0 < 1.0


def test_04_transverse_eigensystem_and_boundary_transparency():
    t0 = time.perf_counter()
    mat = MaterialStack(k0=K0, sigma=1.0, layers=(Layer(0.0, 5.0, 1.0, 0.0),))
    for geometry, extent in (("cartesian", 6.0), ("cylindrical", 4.0)):
        grid = quiet_grid(5.0, 40, extent, 64, geometry)
        suite = build_transverse_suite(grid, K0)
        eig = eigensolve_transverse(suite.laplacian, K0, grid.h_z)
        L = suite.laplacian
        eig_resid = np.abs(L @ eig.modes - eig.modes * eig.eigenvalues).max()
        assert eig_resid / np.abs(L).max() <= 1e-10

        # A pure left-going mode psi q^{-n} must be annihilated by the left
        # boundary row.  That row reads only nodes -3 and -2, so the test
        # field is clipped there (evanescent modes overflow if extended).
        problem = HelmholtzProblem(grid, mat)  # no incoming data: b = 0
        c = (1.0 + (K0 * grid.h_z) ** 2 / 12.0) / grid.h_z**2
        worst = 0.0
        for l in range(grid.M):
            psi, q, lam = eig.modes[:, l], eig.roots[l], eig.eigenvalues[l]
            E = np.zeros((grid.num_nodes, grid.M), dtype=np.complex128)
            E[0] = q**3 * psi
            E[1] = q**2 * psi
            resid = np.abs(problem.residual_complex(E.reshape(-1))[: grid.M]).max()
            scale = ((c + abs(lam) + K0**2)
                     * max(abs(q) ** 3, abs(q) ** 2) * np.abs(psi).max())
            worst = max(worst, resid / scale)
        assert worst <= 1e-11
    assert time.perf_counter() - t0 < 10.0


def test_05_jacobian_matches_directional_finite_difference():
    t0 = time.perf_counter()
    for sigma in (1.0, 2.0):
        mat = MaterialStack(k0=K0, sigma=sigma,
                            layers=(Layer(0.0, 3.0, 1.2, 0.1),))
        grid = quiet_grid(3.0, 24, 6.0, 16, "cartesian")
        beam = make_incoming(BeamSpec(shape="gaussian", width=2.0), grid, mat)
        problem = HelmholtzProblem(grid, mat, einc_left=beam)
        rng = np.random.default_rng(7)
        e = rng.normal(size=2 * problem.size) * 0.5
        d = rng.normal(size=2 * problem.size)
        d /= np.abs(d).max()
        step = 1e-6
        jd = assemble_jacobian(e, problem) @ d
        fd = (assemble_residual(e + step * d, problem)
              - assemble_residual(e - step * d, problem)) / (2.0 * step)
        assert np.linalg.norm(fd - jd) <= 1e-5 * np.linalg.norm(jd)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.slow
def test_06_desk_soliton_flux_and_oscillation(desk_soliton):
    grid, mat, E, report = desk_soliton
    assert report.converged
    flux = poynting_flux(E, grid, mat.k0)
    axis = on_axis_index(grid)
    on_axis = flux.S_z[:, axis]
    inside = (flux.z >= 2.0) & (flux.z <= 38.0)
    s = on_axis[inside]
    assert (s.max() - s.min()) / s.mean() <= 0.05
    # the forward/backward interference inside the slab beats at twice the
    # carrier wavenumber
    amp2 = np.abs(E[3:grid.N + 4, axis]) ** 2
    peak = oscillation_spectrum(amp2, grid.h_z)
    assert peak.found
    assert abs(peak.frequency - 2.0 * mat.k0) <= 0.05 * (2.0 * mat.k0)


def test_07_nonlinear_grid_convergence_rate(convergence_levels):
    fields, grids, reports = convergence_levels
    assert all(report.converged for report in reports)
    table = grid_convergence_study(fields, grids)
    assert table.rates
    assert all(rate >= 3.5 for rate in table.rates)


@pytest.mark.slow
def test_08_collapse_arrested_where_paraxial_model_blows_up(collapse_run):
    grid, mat, E, report = collapse_run
    eps = 0.15
    assert report.converged
    amp2 = np.abs(E) ** 2
    assert np.isfinite(amp2).all()
    assert 3.0 <= eps * amp2.max() <= 6.0
    axis = on_axis_index(grid)
    z_star = float(np.argmax(amp2[3:grid.N + 4, axis])) * grid.h_z
    assert 5.0 <= z_star <= 7.5
    # the paraxial march of the same beam does not arrest: it must flag
    # blow-up before the exit face
    rho = grid.transverse_coords()
    nls = nls_march(grid, mat.k0, eps, 1.0, np.exp(-(rho**2)), dz=grid.h_z)
    assert nls.blew_up
    assert nls.z_star is not None and nls.z_star < 9.0


@pytest.mark.slow
def test_09_method_convergence_domains_are_ordered():
    cases = ((16.0, 102), (32.0, 204), (48.0, 306), (64.0, 407),
             (96.0, 611), (128.0, 815))
    largest = {}
    for method in ("born", "freezing", "newton"):
        largest[method] = None
        for Zmax, N in cases:
            _, _, problem = soliton_problem(Zmax, N, 6.0, 56)
            _, report = solve(problem, method=method)
            if report.converged:
                largest[method] = Zmax
    assert largest["born"] is not None
    assert largest["born"] <= largest["freezing"] <= largest["newton"]
    assert largest["born"] < largest["newton"]


@pytest.mark.slow
def test_10_beam_adjustment_improves_entry_profile(desk_soliton, desk_raw):
    grid, _, E_adj, report_adj = desk_soliton
    _, _, E_raw, report_raw = desk_raw
    assert report_adj.converged and report_raw.converged
    x = grid.transverse_coords()
    target = 1.0 / np.cosh(x / math.sqrt(2.0))
    err_adj = np.abs(np.abs(E_adj[3, :]) - target).max()
    err_raw = np.abs(np.abs(E_raw[3, :]) - target).max()
    assert err_adj < err_raw


@pytest.mark.slow
def test_11_flux_conservation_at_production_resolution(
        desk_soliton, desk_raw, convergence_levels, collapse_run):
    # Beam power must be z-independent to 1% for every converged nonlinear
    # run, measured away from the entry/exit rows where the z-derivative
    # stencil crosses the material kink and drops to second order.
    fields, grids, _ = convergence_levels
    runs = [
        (desk_soliton[2], desk_soliton[0], desk_soliton[1].k0),
        (desk_raw[2], desk_raw[0], desk_raw[1].k0),
        (fields[-1], grids[-1], K0),
        (collapse_run[2], collapse_run[0], collapse_run[1].k0),
    ]
    for field, grid, k0 in runs:
        dev = poynting_flux(field, grid, k0).power_deviation(2, grid.N - 2)
        assert dev <= 0.01
    # halving both steps on the desk run improves conservation ~16x
    coarse_grid, _, problem = soliton_problem(40.0, 191, 12.0, 56)
    E_c, report_c = solve(problem)
    assert report_c.converged
    dev_c = poynting_flux(E_c, coarse_grid, K0).power_deviation(2, coarse_grid.N - 2)
    fine_grid, _, E_f, _ = desk_soliton
    dev_f = poynting_flux(E_f, fine_grid, K0).power_deviation(2, fine_grid.N - 2)
    assert 8.0 <= dev_c / dev_f <= 32.0
