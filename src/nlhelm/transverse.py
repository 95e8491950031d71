"""Transverse (cross-beam) discrete machinery for the multi-dimensional solver.

The cross-section is discretized on cell-centered nodes with two ghost cells
on each side. Ghost values are expressed through boundary closures:

* symmetric closure: mirror reflection about the boundary (used on the axis
  of a cylindrical section, or on both walls of an even-symmetric Cartesian
  section);
* radiation closure: a one-sided first-derivative stencil with curvature
  correction enforcing dE/dx = alpha E at the wall, combined with a quartic
  extrapolation for the outermost ghost.

Everything downstream consumes the closures through an extension matrix X
mapping the M owned values to M+4 extended values; transverse operators are
(stencil matrix) @ X, so closures fold into both the linear operator and the
Kerr coupling pattern automatically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.special import hankel1

from .errors import (DegenerateRoot, IllConditionedEigenbasis, SingularClosure,
                     UnresolvedWave)
from .fields import Grid1D, GridMultiD
from .stencils import central

__all__ = [
    "TransverseClosure",
    "symmetric_closure",
    "radiation_closure",
    "sommerfeld_alpha",
    "hankel_ratio_alpha",
    "extension_matrix",
    "TransverseSuite",
    "build_transverse_suite",
    "build_transverse_operator",
    "TransverseEigensystem",
    "eigensolve_transverse",
    "root_from_ksq",
    "abc_ghost_row",
    "default_closures",
]

#: minimum owned-node count for a radiation closure (the elimination couples
#: nodes M-3..M+1 and must not reach the opposite wall)
MIN_NODES_RADIATION = 8


@dataclass(frozen=True)
class TransverseClosure:
    """Ghost-cell closure for one wall of the cross-section.

    ``block`` is the 2x3 matrix giving the two ghost values from the three
    nearest owned values, ordered outward: for the top wall rows are
    (E_M, E_{M+1}) against columns (E_{M-3}, E_{M-2}, E_{M-1}); for the bottom
    wall rows are (E_{-2}, E_{-1}) against columns (E_0, E_1, E_2).
    ``block`` is None for the symmetric closure, which is resolved by pure
    index reflection (this also covers very small sections where reflected
    indices bounce off both walls).
    """

    kind: str  # "symmetric" | "radiation"
    block: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "radiation"):
            raise ValueError(f"unknown closure kind {self.kind!r}")
        if (self.block is None) != (self.kind == "symmetric"):
            raise ValueError("closure block must be given exactly for radiation kind")


def symmetric_closure() -> TransverseClosure:
    return TransverseClosure(kind="symmetric")


def sommerfeld_alpha(k0: float, nu0: float = 1.0) -> complex:
    """Outgoing-wave logarithmic derivative for a planar far field."""
    return 1j * nu0 * k0


def hankel_ratio_alpha(k0: float, Rmax: float, nu0: float = 1.0) -> complex:
    """Outgoing-wave logarithmic derivative for a cylindrical far field,
    d/drho log H0^(1)(nu0 k0 rho) at rho = Rmax."""
    x = nu0 * k0 * Rmax
    if x < 1.0:
        raise ValueError(
            f"cylindrical radiation closure needs nu0*k0*Rmax >= 1, got {x:.4g}"
        )
    return -nu0 * k0 * hankel1(1, x) / hankel1(0, x)


def radiation_closure(alpha: complex, h_perp: float, side: str) -> TransverseClosure:
    """Build the 2x3 ghost-elimination block enforcing dE/dn = alpha*E at the
    wall (outward normal) to fourth order.

    The wall condition combines the antisymmetric 4-node first-derivative
    stencil over the last four cells with a curvature correction, and the
    outermost ghost comes from quartic extrapolation; solving the 2x2 system
    for the two ghosts yields the block.
    """
    if h_perp <= 0:
        raise ValueError("h_perp must be positive")
    # Wall-centered coefficients on nodes (M-2, M-1, M, M+1) for the top wall:
    # first derivative [1, -27, 27, -1]/(24 h) with curvature companion
    # [-1, 9, 9, -1]/(16 h^2) * h ... folded so that c.E = 24 h alpha E_wall
    # becomes c.E = 0 with the alpha term absorbed into the even combination.
    base = np.array([1.0, -27.0, 27.0, -1.0], dtype=np.complex128)
    even = np.array([-1.0, 9.0, 9.0, -1.0], dtype=np.complex128)
    c = base - 1.5 * alpha * h_perp * even
    cm2, cm1, c0, c1 = c
    den = c0 + 4.0 * c1
    if abs(den) < 1e-14 * max(1.0, np.abs(c).max()):
        raise SingularClosure(
            f"radiation closure is singular for alpha*h = {alpha * h_perp:.4g}"
        )
    # Quartic ghost extrapolation E_{M+1} = -E_{M-3} + 4E_{M-2} - 6E_{M-1} + 4E_M
    # eliminates the outer ghost; solve for u = E_M, v = E_{M+1} in terms of
    # (a, b, e) = (E_{M-3}, E_{M-2}, E_{M-1}).
    row_u = np.array([c1, -(cm2 + 4.0 * c1), -(cm1 - 6.0 * c1)]) / den
    row_v = np.array([-c0, 4.0 * c0 - 4.0 * cm2, -(4.0 * cm1 + 6.0 * c0)]) / den
    if side == "top":
        block = np.vstack([row_u, row_v])
    elif side == "bottom":
        # mirror: ghosts (E_{-2}, E_{-1}) from (E_0, E_1, E_2)
        block = np.vstack([row_v[::-1], row_u[::-1]])
    else:
        raise ValueError(f"side must be 'top' or 'bottom', got {side!r}")
    return TransverseClosure(kind="radiation", block=block)


def _reflect_index(m: int, M: int) -> int:
    # resolve a mirrored ghost index, bouncing off both walls if needed
    while not 0 <= m < M:
        m = -1 - m if m < 0 else 2 * M - 1 - m
    return m


def extension_matrix(M: int, bottom: TransverseClosure,
                     top: TransverseClosure) -> sp.csr_matrix:
    """(M+4) x M matrix mapping owned values to extended values
    (ghosts m = -2, -1 then owned 0..M-1 then ghosts M, M+1); extended row
    index is m + 2."""
    if M < 1:
        raise ValueError("need at least one transverse node")
    for closure in (bottom, top):
        if closure.kind == "radiation" and M < MIN_NODES_RADIATION:
            raise ValueError(
                f"radiation closure needs at least {MIN_NODES_RADIATION} "
                f"transverse nodes, got {M}"
            )
    X = sp.lil_matrix((M + 4, M), dtype=np.complex128)
    for m in range(M):
        X[m + 2, m] = 1.0
    if bottom.kind == "symmetric":
        for gm in (-2, -1):
            X[gm + 2, _reflect_index(gm, M)] += 1.0
    else:
        X[0, [0, 1, 2]] = bottom.block[0]
        X[1, [0, 1, 2]] = bottom.block[1]
    if top.kind == "symmetric":
        for gm in (M, M + 1):
            X[gm + 2, _reflect_index(gm, M)] += 1.0
    else:
        X[M + 2, [M - 3, M - 2, M - 1]] = top.block[0]
        X[M + 3, [M - 3, M - 2, M - 1]] = top.block[1]
    return X.tocsr()


def _stencil_matrix(M: int, derivative: int, accuracy: int,
                    h: float) -> sp.csr_matrix:
    """M x (M+4) application of a central stencil on the extended vector."""
    coeffs = central(derivative, accuracy)
    return sp.diags(np.array(coeffs.weights) / coeffs.scale(h),
                    np.array(coeffs.offsets) + 2, shape=(M, M + 4), format="csr")


def default_closures(grid: GridMultiD | Grid1D,
                     k0: float) -> tuple[TransverseClosure, TransverseClosure]:
    """Standard boundary treatment: radiating walls for a Cartesian section,
    symmetric axis plus radiating rim for a cylindrical one. Sections too
    narrow for the 4-node wall stencil fall back to symmetric closures; in
    particular M=1 then reduces exactly to the slab problem."""
    if grid.M < MIN_NODES_RADIATION:
        return symmetric_closure(), symmetric_closure()
    if grid.geometry == "cylindrical":
        alpha = hankel_ratio_alpha(k0, grid.extent)
        return symmetric_closure(), radiation_closure(alpha, grid.h_perp, "top")
    alpha = sommerfeld_alpha(k0)
    return (radiation_closure(alpha, grid.h_perp, "bottom"),
            radiation_closure(alpha, grid.h_perp, "top"))


@dataclass(frozen=True)
class TransverseSuite:
    """All transverse operators for one cross-section, acting on owned values
    (closures already folded in). Shapes are M x M sparse.

    * laplacian: fourth-order transverse Laplacian L_perp entering exterior
      and boundary rows;
    * compact_correction: second-order Laplacian T2 used in the compact
      correction of material rows;
    * interface_laplacian: fourth-order Laplacian T_L entering interface rows;
    * row_coupler: A_t = L_perp + (k0^2 h_z^2 / 12) T2, the transverse part of
      a generic material row before the material-weighted corrections.

    bottom and top are the wall closures it was built with, defaults resolved.
    """

    grid: GridMultiD | Grid1D
    bottom: TransverseClosure
    top: TransverseClosure
    extension: sp.csr_matrix
    laplacian: sp.csr_matrix
    compact_correction: sp.csr_matrix
    interface_laplacian: sp.csr_matrix
    row_coupler: sp.csr_matrix


def build_transverse_suite(grid: GridMultiD | Grid1D, k0: float,
                           bottom: TransverseClosure | None = None,
                           top: TransverseClosure | None = None) -> TransverseSuite:
    if bottom is None or top is None:
        d_bottom, d_top = default_closures(grid, k0)
        bottom = bottom or d_bottom
        top = top or d_top
    M, h = grid.M, grid.h_perp
    X = extension_matrix(M, bottom, top)
    S = {key: _stencil_matrix(M, *key, h) @ X
         for key in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 4), (2, 4))}
    hz2_12 = grid.h_z ** 2 / 12.0
    if grid.geometry == "cartesian":
        T2 = S[(2, 2)]
        T4 = S[(2, 4)]
        fourth = S[(4, 2)]
    else:
        rho = grid.transverse_coords()
        R1 = sp.diags(1.0 / rho)
        R2 = sp.diags(1.0 / rho ** 2)
        R3 = sp.diags(1.0 / rho ** 3)
        T2 = S[(2, 2)] + R1 @ S[(1, 2)]
        T4 = S[(2, 4)] + R1 @ S[(1, 4)]
        # double Laplacian in radial coordinates
        fourth = (R3 @ S[(1, 2)] - R2 @ S[(2, 2)]
                  + 2.0 * (R1 @ S[(3, 2)]) + S[(4, 2)])
    A_t = (T4 - hz2_12 * fourth).tocsr()
    L_perp = (A_t - (k0 ** 2 * hz2_12) * T2).tocsr()
    return TransverseSuite(
        grid=grid,
        bottom=bottom,
        top=top,
        extension=X,
        laplacian=L_perp,
        compact_correction=T2.tocsr(),
        interface_laplacian=T4.tocsr(),
        row_coupler=A_t,
    )


def build_transverse_operator(grid: GridMultiD, k0: float,
                              bottom: TransverseClosure | None = None,
                              top: TransverseClosure | None = None) -> np.ndarray:
    """Dense M x M fourth-order transverse Laplacian with closures folded in."""
    return build_transverse_suite(grid, k0, bottom, top).laplacian.toarray()


@dataclass(frozen=True)
class TransverseEigensystem:
    """Diagonalization of the transverse Laplacian plus the per-mode
    longitudinal root machinery for the mode-by-mode boundary closure.

    Modes are sorted by transverse wavenumber squared (-eigenvalue), real part
    ascending then imaginary part; each eigenvector is scaled so its largest-
    modulus entry equals one.
    """

    modes: np.ndarray          # Psi, columns are eigenvectors (M x M)
    eigenvalues: np.ndarray    # lambda_l of L_perp, sorted as above
    modes_inverse: np.ndarray  # Psi^{-1}
    roots: np.ndarray          # per-mode stable characteristic root q_l

    @property
    def M(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def propagation_matrix(self) -> np.ndarray:
        """Q = Psi diag(q_l) Psi^{-1}: one-step outward propagation of a
        boundary column."""
        return (self.modes * self.roots) @ self.modes_inverse

    @cached_property
    def injection_matrix(self) -> np.ndarray:
        """B = Psi diag((1/q_l - q_l) q_l^{-3}) Psi^{-1}: weight applied to the
        incoming beam profile in the boundary-row forcing."""
        return (self.modes * injection_weight(self.roots)) @ self.modes_inverse

    def ghost_column(self, einc: np.ndarray, edge: np.ndarray) -> np.ndarray:
        """Extended column just outside the domain: incoming injection plus
        one-step propagation of the edge column."""
        return self.injection_matrix @ einc + self.propagation_matrix @ edge


def abc_ghost_row(eigsys: TransverseEigensystem, uinc: np.ndarray,
                  boundary_column: np.ndarray) -> np.ndarray:
    """Ghost column just outside either end of the domain.

    `uinc` is the incoming beam already transformed to mode space
    (modes_inverse @ einc); `boundary_column` is the physical field column at
    the outermost stored node. Returns the physical ghost column

        Psi diag((1/q - q) q^-3) uinc + Psi diag(q) Psi^-1 boundary_column,

    which is eigsys.ghost_column(Psi uinc, boundary_column). With M=1 this is
    exactly the slab ghost relation of the one-dimensional boundary closure.
    """
    return eigsys.ghost_column(eigsys.modes @ uinc, boundary_column)


def injection_weight(q):
    """(1/q - q) q^-3: the weight of the incoming amplitude in the ghost
    value one step outside the domain, for a characteristic root q (a
    scalar, or an array of per-mode roots)."""
    return (1.0 / q - q) * q ** (-3)


def root_from_ksq(k_sq: complex, h: float) -> complex:
    """Root of q + 1/q = 2 - k^2 h^2 on the outgoing/damped branch.

    Used per transverse mode by the boundary closure, where k^2 may be
    complex. Branch rule: if both roots sit on the unit circle (propagating
    mode) take Im q > 0 (the forward wave); otherwise take |q| < 1 so the
    outgoing branch decays away from the slab.
    """
    k2h2 = complex(k_sq) * h * h
    if abs(k2h2.imag) <= 1e-14 * max(1.0, abs(k2h2.real)) and k2h2.real >= 4.0:
        raise UnresolvedWave(
            f"k^2 h^2 = {k2h2.real:.6g} >= 4: wave not resolved by the grid"
        )
    if abs(k2h2 - 2.0) < 1e-14 * max(1.0, abs(k2h2)):
        raise DegenerateRoot("k^2 h^2 = 2: characteristic parameterization singular")
    s = 2.0 - k2h2
    d = cmath.sqrt(s * s - 4.0)
    if (s.conjugate() * d).real < 0.0:
        d = -d
    q_big = (s + d) / 2.0  # |q_big| >= 1, no cancellation
    q_small = 1.0 / q_big
    if abs(abs(q_big) - 1.0) <= 1e-12 and abs(abs(q_small) - 1.0) <= 1e-12:
        return q_big if q_big.imag > 0 else q_small
    return q_small


def eigensolve_transverse(L_perp: np.ndarray | sp.spmatrix, k0: float,
                          h_z: float) -> TransverseEigensystem:
    """Diagonalize the transverse Laplacian and attach per-mode roots.

    Raises IllConditionedEigenbasis when the eigenbasis condition number
    exceeds 1e12 (defective or near-defective operator).
    """
    L = L_perp.toarray() if sp.issparse(L_perp) else np.asarray(L_perp)
    lam, V = scipy.linalg.eig(L)
    k_perp_sq = -lam
    order = np.lexsort((k_perp_sq.imag, k_perp_sq.real))
    lam = lam[order]
    V = V[:, order]
    for j in range(V.shape[1]):
        pivot = V[np.argmax(np.abs(V[:, j])), j]
        V[:, j] = V[:, j] / pivot
    cond = float(np.linalg.cond(V))
    if not np.isfinite(cond) or cond > 1e12:
        raise IllConditionedEigenbasis(
            f"transverse eigenbasis condition number {cond:.3e} exceeds 1e12"
        )
    V_inv = np.linalg.inv(V)
    factor = 1.0 + k0 ** 2 * h_z ** 2 / 12.0
    roots = np.array([root_from_ksq((k0 ** 2 + l) / factor, h_z) for l in lam])
    return TransverseEigensystem(
        modes=V,
        eigenvalues=lam,
        modes_inverse=V_inv,
        roots=roots,
    )
