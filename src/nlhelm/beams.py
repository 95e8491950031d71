"""Incoming-beam construction, paraxial (Schrodinger) reference marching, and
physical diagnostics: energy flux, beam power, oscillation spectra, and grid
convergence studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    AdjustmentUndefined,
    NonNestedGrids,
    UnsupportedProfile,
    UnsupportedTilt,
)
from .fields import Grid1D, GridMultiD, MaterialStack, sample_material
from .stencils import central

__all__ = [
    "BeamSpec",
    "make_incoming",
    "adjust_for_nls",
    "soliton_profile",
    "FluxProfile",
    "poynting_flux",
    "SpectrumPeak",
    "oscillation_spectrum",
    "NlsMarchResult",
    "nls_march",
    "critical_power_ratio",
    "ConvergenceTable",
    "grid_convergence_study",
    "interpolate_field",
    "on_axis_index",
]


@dataclass(frozen=True)
class BeamSpec:
    """Incoming transverse beam description.

    shape: "sech" (scale r0), "gaussian" (scale width) or "custom" (explicit
    samples). amplitude scales the unit-peak shape; center shifts it; a
    nonzero tilt_angle multiplies by the phase ramp e^{i k0 sin(tilt) x}.
    adjust applies the paraxial-to-full amplitude correction at sampling time.
    """

    shape: str
    r0: float | None = None
    width: float | None = None
    samples: np.ndarray | None = None
    amplitude: complex = 1.0
    center: float = 0.0
    tilt_angle: float = 0.0
    side: str = "left"
    adjust: bool = False

    def __post_init__(self):
        if self.shape not in ("sech", "gaussian", "custom"):
            raise ValueError(f"unknown beam shape {self.shape!r}")
        if self.shape == "sech" and not (self.r0 and self.r0 > 0):
            raise ValueError("sech beam needs r0 > 0")
        if self.shape == "gaussian" and not (self.width and self.width > 0):
            raise ValueError("gaussian beam needs width > 0")
        if self.shape == "custom" and self.samples is None:
            raise ValueError("custom beam needs samples")
        if not abs(self.tilt_angle) < math.pi / 2:
            raise ValueError("tilt angle must satisfy |angle| < pi/2")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def adjust_for_nls(profile: np.ndarray, nu: float, eps: float,
                   sigma: float) -> np.ndarray:
    """Map a paraxial input profile to the full-model incoming profile by the
    pointwise factor (1 + sqrt(nu^2 + eps |E|^{2 sigma})) / 2."""
    profile = np.asarray(profile, dtype=np.complex128)
    radicand = nu * nu + eps * (profile.real ** 2 + profile.imag ** 2) ** sigma
    if np.any(radicand < 0):
        raise AdjustmentUndefined(
            "defocusing nonlinearity too strong: negative radicand in the "
            "amplitude adjustment"
        )
    return profile * (1.0 + np.sqrt(radicand)) / 2.0


def make_incoming(spec: BeamSpec, grid: GridMultiD,
                  mat: MaterialStack) -> np.ndarray:
    """Sample the beam on the transverse grid (complex, length M)."""
    x = grid.transverse_coords()
    xi = x - spec.center
    if spec.shape == "sech":
        profile = spec.amplitude / np.cosh(xi / spec.r0)
    elif spec.shape == "gaussian":
        profile = spec.amplitude * np.exp(-((xi / spec.width) ** 2))
    else:
        samples = np.asarray(spec.samples, dtype=np.complex128).reshape(-1)
        if samples.shape[0] != grid.M:
            raise ValueError(
                f"custom beam has {samples.shape[0]} samples, grid has {grid.M}"
            )
        profile = spec.amplitude * samples
    profile = profile.astype(np.complex128)
    if spec.tilt_angle != 0.0:
        if grid.geometry == "cylindrical":
            raise UnsupportedTilt("tilted beams break cylindrical symmetry")
        profile = profile * np.exp(1j * mat.k0 * math.sin(spec.tilt_angle) * xi)
    if spec.adjust:
        n_entry, side = (0, "right") if spec.side == "left" else (grid.N, "left")
        nu, eps = sample_material(mat, grid, n_entry, side)
        profile = adjust_for_nls(profile, nu, eps, mat.sigma)
    return profile


def soliton_profile(k0: float, eps: float, r0: float, x, z: float = 0.0):
    """Closed-form paraxial soliton: amplitude sqrt(2)/(k0 r0 sqrt(eps)),
    envelope sech(x/r0), longitudinal phase k0 z (1 + (k0 r0)^-2 / 2)."""
    if eps <= 0:
        raise ValueError("soliton profile needs eps > 0")
    amp = math.sqrt(2.0) / (k0 * r0 * math.sqrt(eps))
    phase = k0 * z * (1.0 + 0.5 / (k0 * r0) ** 2)
    return amp / np.cosh(np.asarray(x, dtype=float) / r0) * np.exp(1j * phase)


def on_axis_index(grid: GridMultiD | Grid1D) -> int:
    """Transverse index of the cell nearest the beam axis."""
    if grid.geometry == "cylindrical":
        return 0
    return int(np.argmin(np.abs(grid.transverse_coords())))


@dataclass(frozen=True)
class FluxProfile:
    """Longitudinal energy flux S_z and its transverse quadrature (beam power)
    per longitudinal node n = -2 .. N+2."""

    n: np.ndarray        # longitudinal node numbers
    z: np.ndarray        # node coordinates
    S_z: np.ndarray      # (len(n), M) in multi-D, (len(n),) in 1D
    power: np.ndarray    # beam power per slice

    def power_deviation(self, n_from: int, n_to: int) -> float:
        """Max relative deviation of the beam power from the mid-slice value
        over node range [n_from, n_to]."""
        mask = (self.n >= n_from) & (self.n <= n_to)
        p = self.power[mask]
        if p.size == 0:
            raise ValueError("empty node range")
        ref = p[p.size // 2]
        return float(np.max(np.abs(p - ref)) / abs(ref))


def poynting_flux(E: np.ndarray, grid, k0: float) -> FluxProfile:
    """S_z = Im(E* dE/dz)/k0 with 4th-order longitudinal derivatives where the
    stencil fits (|n| <= N+1) and 2nd-order one node further out; beam power
    integrates S_z over the cross-section (trapezoid-free cell sum; no 2 pi
    factor in cylindrical geometry)."""
    E = np.asarray(E, dtype=np.complex128)
    F = E.reshape(len(E), -1)
    N, h = grid.N, grid.h
    w4 = central(1, 4)
    ns = np.arange(-2, N + 3)
    rows = grid.index(ns)
    # fourth-order inside, each sum taken term by term in stencil order
    dE = np.empty((ns.size, F.shape[1]), dtype=np.complex128)
    dE[1:-1] = sum(w * F[rows[1:-1] + off]
                   for off, w in zip(w4.offsets, w4.weights)) / h
    dE[[0, -1]] = (F[rows[[0, -1]] + 1] - F[rows[[0, -1]] - 1]) / (2.0 * h)
    S = (np.conj(F[rows]) * dE).imag / k0
    if grid.geometry == "cylindrical":
        power = (S * grid.transverse_coords()).sum(axis=1) * grid.h_perp
    else:
        power = S.sum(axis=1) * grid.h_perp
    return FluxProfile(n=ns, z=ns * float(h), S_z=S.reshape(ns.size, *E.shape[1:]),
                       power=power)


@dataclass(frozen=True)
class SpectrumPeak:
    found: bool
    frequency: float


def oscillation_spectrum(samples, h_z: float) -> SpectrumPeak:
    """Dominant spatial frequency of a real sample train (DC excluded), with
    parabolic sub-bin refinement. Needs at least 64 samples; a constant
    signal reports found=False."""
    s = np.asarray(samples, dtype=float).reshape(-1)
    if s.size < 64:
        raise ValueError(f"need at least 64 samples, got {s.size}")
    y = s - s.mean()
    if np.max(np.abs(y)) <= 1e-12 * max(1.0, np.max(np.abs(s))):
        return SpectrumPeak(found=False, frequency=0.0)
    mag = np.abs(np.fft.rfft(y))
    mag[0] = 0.0
    k = int(np.argmax(mag))
    shift = 0.0
    if 1 <= k <= mag.size - 2:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        den = a - 2.0 * b + c
        if den != 0.0:
            shift = float(np.clip(0.5 * (a - c) / den, -0.5, 0.5))
    freq = 2.0 * math.pi * (k + shift) / (s.size * h_z)
    return SpectrumPeak(found=True, frequency=freq)


@dataclass(frozen=True)
class NlsMarchResult:
    blew_up: bool
    z_star: float | None
    z: np.ndarray
    peak: np.ndarray
    on_axis: np.ndarray
    final: np.ndarray
    axis_index: int


def _nls_laplacian_bands(grid: GridMultiD) -> np.ndarray:
    """Banded (3, M) transverse Laplacian with a zero Dirichlet rim; the
    cylindrical form is the conservative flux form, regular at the axis."""
    M, h = grid.M, grid.h_perp
    ab = np.zeros((3, M))
    if grid.geometry == "cartesian":
        ab[0, 1:] = 1.0 / h ** 2
        ab[2, :-1] = 1.0 / h ** 2
        ab[1, :] = -2.0 / h ** 2
        return ab
    rho = grid.transverse_coords()
    rho_half_up = rho + 0.5 * h
    rho_half_dn = np.maximum(rho - 0.5 * h, 0.0)  # rho_{-1/2} = 0 at the axis
    ab[0, 1:] = (rho_half_up[:-1] / rho[:-1]) / h ** 2
    ab[2, :-1] = (rho_half_dn[1:] / rho[1:]) / h ** 2
    ab[1, :] = -(rho_half_up + rho_half_dn) / rho / h ** 2
    return ab


def _banded_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = ab[1] * x
    y[:-1] += ab[0, 1:] * x[1:]
    y[1:] += ab[2, :-1] * x[:-1]
    return y


def nls_march(grid: GridMultiD, k0: float, eps: float, sigma: float,
              initial: np.ndarray, dz: float) -> NlsMarchResult:
    """Crank-Nicolson march of the paraxial envelope equation
    2 i k0 phi_z + Lap_perp phi + k0^2 eps |phi|^{2 sigma} phi = 0
    from z = 0 to grid.Zmax.

    One predictor/corrector pass handles the nonlinear coefficient per step.
    A step is rejected (and dz halved) when the pass fails to settle; blow-up
    is declared at 20x the initial peak or when dz underflows its floor, and
    reported through (blew_up, z_star) rather than an exception.
    """
    if dz <= 0:
        raise ValueError("dz must be positive")
    phi = np.asarray(initial, dtype=np.complex128).reshape(-1).copy()
    if phi.shape[0] != grid.M:
        raise ValueError(f"initial profile has {phi.shape[0]} samples, grid has {grid.M}")
    lap = _nls_laplacian_bands(grid)
    axis = on_axis_index(grid)
    peak0 = float(np.abs(phi).max())
    zs, peaks, on_axis = [0.0], [peak0], [phi[axis]]
    z = 0.0
    dz_cur = float(dz)
    dz_floor = float(dz) * 2.0 ** -16
    blew_up = False
    z_star = None

    def cn_step(phi0: np.ndarray, step: float):
        gamma = 2j * k0 / step

        def solve_with(w):
            mid = lap.astype(np.complex128)
            mid[1] = mid[1] + k0 * k0 * eps * w
            rhs = gamma * phi0 - 0.5 * _banded_matvec(mid, phi0)
            a_band = 0.5 * mid
            a_band[1] = a_band[1] + gamma
            return scipy.linalg.solve_banded((1, 1), a_band, rhs)

        w0 = (phi0.real ** 2 + phi0.imag ** 2) ** sigma
        pred = solve_with(w0)
        if not np.all(np.isfinite(pred.view(np.float64))):
            return None
        mid_phi = 0.5 * (phi0 + pred)
        w1 = (mid_phi.real ** 2 + mid_phi.imag ** 2) ** sigma
        corr = solve_with(w1)
        if not np.all(np.isfinite(corr.view(np.float64))):
            return None
        change = np.abs(corr - pred).max()
        if change > 0.1 * max(np.abs(corr).max(), 1e-9 * peak0):
            return None  # fixed-point pass did not settle
        return corr

    while z < grid.Zmax * (1.0 - 1e-12):
        step = min(dz_cur, grid.Zmax - z)
        new = cn_step(phi, step)
        if new is None:
            dz_cur *= 0.5
            if dz_cur < dz_floor:
                blew_up = True
                z_star = z
                break
            continue
        z += step
        phi = new
        zs.append(z)
        peaks.append(float(np.abs(phi).max()))
        on_axis.append(phi[axis])
        if peaks[-1] > 20.0 * peak0:
            blew_up = True
            z_star = z
            break
    return NlsMarchResult(
        blew_up=blew_up,
        z_star=z_star,
        z=np.asarray(zs),
        peak=np.asarray(peaks),
        on_axis=np.asarray(on_axis),
        final=phi,
        axis_index=axis,
    )


#: collapse threshold constant of the critical cylindrical focusing problem
_CRITICAL_POWER_CONST = 1.8623


def critical_power_ratio(eps: float, k0: float, profile: BeamSpec) -> float:
    """Input-power to critical-power ratio of a Gaussian beam on a cylindrical
    section: power A^2 w^2/4 against the threshold 1.8623/(eps k0^2)."""
    if not isinstance(profile, BeamSpec) or profile.shape != "gaussian":
        raise UnsupportedProfile(
            "critical power ratio is defined for gaussian beams only"
        )
    amp_sq = abs(profile.amplitude) ** 2
    return eps * k0 * k0 * amp_sq * profile.width ** 2 / (4.0 * _CRITICAL_POWER_CONST)


@dataclass(frozen=True)
class ConvergenceTable:
    """Pairwise coarse-vs-fine field differences on coincident nodes and the
    implied convergence rates (log2 of successive ratios)."""

    levels: list[tuple[int, int]]  # (N, M) per grid
    diffs: list[float]             # len(levels) - 1
    rates: list[float]             # len(levels) - 2

    def rows(self):
        """CSV-ready rows: (N, M, diff_to_next, rate)."""
        out = []
        for i, (N, M) in enumerate(self.levels):
            diff = self.diffs[i] if i < len(self.diffs) else None
            rate = self.rates[i - 1] if 1 <= i <= len(self.rates) else None
            out.append((N, M, diff, rate))
        return out


_MIDPOINT_W = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0


def _pair_difference(Ec: np.ndarray, gc, Ef: np.ndarray, gf) -> float:
    """Max difference between a coarse field and the fine field restricted to
    the coarse nodes: z-nodes coincide (fine index 2n), transverse values are
    interpolated to the coarse cell centers by 4-point midpoint cubic."""
    n = np.arange(0, gc.N + 1)
    rows_c, rows_f = gc.index(n), gf.index(2 * n)
    if Ec.ndim == 1:
        return float(np.abs(Ec[rows_c] - Ef[rows_f]).max())
    Mc = gc.M
    m = np.arange(1, Mc - 1)
    fine = Ef[rows_f]
    interp = (_MIDPOINT_W[0] * fine[:, 2 * m - 1] + _MIDPOINT_W[1] * fine[:, 2 * m]
              + _MIDPOINT_W[2] * fine[:, 2 * m + 1] + _MIDPOINT_W[3] * fine[:, 2 * m + 2])
    return float(np.abs(Ec[rows_c][:, m] - interp).max())


def grid_convergence_study(fields, grids) -> ConvergenceTable:
    """Convergence table over a factor-2 nested family (coarsest first).

    Raises NonNestedGrids unless every consecutive pair shares the domain and
    doubles both node counts.
    """
    if len(fields) != len(grids) or len(grids) < 2:
        raise ValueError("need matching fields and grids, at least two levels")
    for gc, gf in zip(grids, grids[1:]):
        if isinstance(gc, Grid1D) != isinstance(gf, Grid1D):
            raise NonNestedGrids("mixed grid kinds in the family")
        if gf.N != 2 * gc.N or abs(gf.Zmax - gc.Zmax) > 1e-12 * gc.Zmax:
            raise NonNestedGrids(
                f"longitudinal grids not nested: N {gc.N}->{gf.N}, "
                f"Zmax {gc.Zmax}->{gf.Zmax}"
            )
        if isinstance(gc, GridMultiD):
            if (gf.M != 2 * gc.M or gf.geometry != gc.geometry
                    or abs(gf.extent - gc.extent) > 1e-12 * gc.extent):
                raise NonNestedGrids(
                    f"transverse grids not nested: M {gc.M}->{gf.M}"
                )
            if gc.M < 4:
                raise NonNestedGrids(
                    "transverse interpolation needs at least 4 coarse cells"
                )
    levels = [(g.N, g.M) for g in grids]
    diffs = [
        _pair_difference(fields[i], grids[i], fields[i + 1], grids[i + 1])
        for i in range(len(grids) - 1)
    ]
    rates = [float(np.log2(diffs[i] / diffs[i + 1])) for i in range(len(diffs) - 1)]
    return ConvergenceTable(levels=levels, diffs=diffs, rates=rates)


def interpolate_field(E: np.ndarray, grid_from, grid_to) -> np.ndarray:
    """Linear resampling of a stored field onto another grid of the same
    geometry; intended for warm starts, not for accuracy-critical use."""
    E = np.asarray(E, dtype=np.complex128).reshape(grid_from.num_nodes, grid_from.M)
    if grid_from.geometry != grid_to.geometry:
        raise ValueError("cannot interpolate between geometries")
    mid = _interp_rows(grid_to.z_nodes(), grid_from.z_nodes(), E)
    return np.ascontiguousarray(_interp_rows(
        grid_to.transverse_coords(), grid_from.transverse_coords(), mid.T).T
    ).reshape(grid_to.field_shape)


def _interp_rows(x: np.ndarray, xp: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Linear interpolation along axis 0 of the complex (len(xp), k) array F
    at x: np.interp on the real and imaginary part of every column, with its
    arithmetic (one slope per interval, flat beyond the end nodes)."""
    if xp.size == 1:
        return np.repeat(F[:1], x.size, axis=0)
    f = np.ascontiguousarray(F).view(np.float64)
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, xp.size - 2)
    slope = (f[j + 1] - f[j]) / (xp[j + 1] - xp[j])[:, None]
    out = slope * (x - xp[j])[:, None] + f[j]
    out[x <= xp[0]] = f[0]
    out[x >= xp[-1]] = f[-1]
    return out.view(np.complex128)
