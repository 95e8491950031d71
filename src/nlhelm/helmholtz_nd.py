"""Residual and Jacobian assembly for the 2D Cartesian and cylindrically
symmetric schemes, and for the 1D slab as their single-column case.

Longitudinal structure: compact 3-node material rows, 7-node
derivative-matching rows at genuine material jumps, and two-way boundary
rows at n = -3 and n = N+3. Every longitudinal row carries M transverse
unknowns; transverse derivatives (through the closures of the transverse
module) appear as M x M blocks. The material enters only through per-row
coefficient arrays (nu^2, eps, and whether the row is an interface row), so
each operator is a fixed sum of Kronecker products kron(Z, B): Z an R x R
longitudinal matrix of those coefficients, B one of six transverse blocks.

The boundary rows use the transverse eigensystem: the ghost column one step
outside the domain is a per-mode combination of incoming injection and
one-step outward propagation, giving dense M x M blocks at those two rows
only. The same eigenbasis splits the uniform vacuum operator into M
tridiagonal systems, which `vacuum_solve` factors once per problem and
applies on each call. A_lin differs from that operator only on the rows
of material jumps and of nu != 1; where those are few (a nu = 1 slab: its
two faces), `linear_inverse` applies A_lin^{-1} exactly by two vacuum
solves and a small capacitance system on those rows. With M=1 and mirror
closures on both walls every transverse block is a scalar and the system is
the slab problem that `helmholtz_1d` exposes.

Unknown ordering is n-major, m-minor; the real split interleaves (Re, Im)
per node (see fields.to_real_split).

A Cartesian section with even M whose transverse blocks and boundary-row
forcing are invariant under m <-> M-1-m (a centred, untilted, even beam
between like walls, each half wide enough for its wall closure) gets that
reflection within each row as its `mirror`. Its `half_section()` is the
problem on the first M/2 nodes of each row (x <= 0), closed at x = 0 by the
mirror closure that closes a cylindrical section at its axis; the solvers
iterate on it (see _system.mirror_fold). The field a solver returns and
every output stay full size.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import solvers
from ._system import KerrSystem, kerr_block_entries, mirror_invariant
from .fields import (
    GridMultiD,
    MaterialStack,
    cell_material,
    from_real_split,
    sample_material,
    to_real_split,
)
from .transverse import (
    MIN_NODES_RADIATION,
    TransverseClosure,
    TransverseEigensystem,
    TransverseSuite,
    build_transverse_suite,
    eigensolve_transverse,
    symmetric_closure,
)
from .stencils import apply_stencil, central, one_sided_first_derivative_4node

__all__ = [
    "HelmholtzProblem",
    "solve_nd",
    "assemble_residual",
    "assemble_jacobian",
    "kerr_jacobian_block",
    "residual_interior_cartesian",
    "residual_interior_cylindrical",
    "residual_exterior",
    "residual_interface",
]

# 7-node interface combination on offsets -3..3, times h: the 4-node
# one-sided first derivative to the right minus the one to the left
_ONE_SIDED_W = one_sided_first_derivative_4node()[0].weights
_IFACE_W = np.array([*_ONE_SIDED_W[:0:-1], 2.0 * _ONE_SIDED_W[0], *_ONE_SIDED_W[1:]])


def _material_rows(grid: GridMultiD, mat: MaterialStack):
    """Coefficients of the non-boundary rows n = -2 .. N+2, as arrays indexed
    by n+2: (W, eps, interface).

    A row at a genuine jump of nu or eps (interface True) is a 7-node
    derivative-matching row with W and eps the averages of nu^2 and eps over
    its two sides; every other row is a compact row with the nu^2 and eps of
    the cell to its right. Matched partitions (no jump in either coefficient)
    take the compact row, which their smoothness makes fourth-order accurate.
    """
    # each cell [n, n+1], n = -3 .. N+2; cells on either side of a node
    # differ only at partition points
    nu, eps = cell_material(mat, grid, np.arange(-3, grid.N + 3))
    interface = (nu[:-1] != nu[1:]) | (eps[:-1] != eps[1:])
    W = nu * nu
    return (np.where(interface, 0.5 * (W[:-1] + W[1:]), W[1:]),
            np.where(interface, 0.5 * (eps[:-1] + eps[1:]), eps[1:]),
            interface)


def _transverse_blocks(suite: TransverseSuite, eig: TransverseEigensystem,
                       k0: float, h: float):
    """The M x M blocks the operators are Kronecker sums over:
    (I, A_t, T2, T_L, two-way boundary block, compact block of C)."""
    I_M = sp.identity(suite.laplacian.shape[0], dtype=np.complex128, format="csr")
    c = (1.0 + k0 * k0 * h * h / 12.0) / (h * h)
    # ghost column eliminated through per-mode one-step propagation
    boundary = (c * sp.csr_matrix(eig.propagation_matrix) + suite.laplacian
                + (-2.0 * c + k0 * k0) * I_M)
    compact = (10.0 / 12.0) * I_M - (h * h / 12.0) * suite.compact_correction
    return (I_M, suite.row_coupler, suite.compact_correction,
            suite.interface_laplacian, boundary, compact)


def _assemble(grid: GridMultiD, k0: float, W: np.ndarray, eps: np.ndarray,
              interface: np.ndarray, blocks: tuple, eig: TransverseEigensystem,
              einc_left: np.ndarray | None, einc_right: np.ndarray | None):
    """(A_lin, C, b) for the per-row coefficients of _material_rows.

    A_lin and C are fixed sums of kron(Z, B): B one of the `blocks` of
    _transverse_blocks, Z an R x R longitudinal matrix of per-row
    coefficients, zero on the rows the term does not touch. Rows 0 and R-1
    are the two-way boundary rows.
    """
    R, M, h = grid.num_nodes, grid.M, grid.h_z
    I_M, A_t, T2, T_L, boundary, compact = blocks
    c = (1.0 + k0 * k0 * h * h / 12.0) / (h * h)
    W, eps = np.pad(W, 1), np.pad(eps, 1)
    iface, compact_row = np.pad(interface, 1), np.pad(~interface, 1)
    edge = ~(iface | compact_row)
    k2W, k2eps = k0 * k0 * W, k0 * k0 * eps

    def term(bands, B):
        """kron(Z, B) with Z coupling row r to row r + j by bands[j][r]."""
        Z = sp.diags([v[max(0, -j):R - max(0, j)] for j, v in bands.items()],
                     list(bands), shape=(R, R))
        return sp.kron(Z, B, format="coo")

    # identity-block couplings: the compact rows' 3-node stencil, the
    # interface rows' 7-node one and the boundary rows' inner neighbour
    bands = {j: iface * (w / h) for j, w in zip(range(-3, 4), _IFACE_W)}
    bands[0] = (bands[0] + iface * ((6.0 * h / 11.0) * k2W)
                + compact_row * (-2.0 / (h * h) + (10.0 / 12.0) * k0 * k0 * W))
    for j in (-1, 1):
        bands[j] = bands[j] + compact_row * (1.0 / (h * h) + k2W / 12.0)
    bands[1][0] = bands[-1][-1] = c
    A = (term({0: compact_row * 1.0}, A_t)
         + term({0: compact_row * -(k2W * h * h / 12.0)}, T2)
         + term(bands, I_M)
         + term({0: iface * (6.0 * h / 11.0)}, T_L)
         + term({0: edge * 1.0}, boundary))
    c_off = compact_row * (k2eps / 12.0)
    C = (term({0: compact_row * k2eps}, compact)
         + term({-1: c_off, 0: iface * (6.0 * h * k0 * k0 * eps / 11.0), 1: c_off}, I_M))

    b = np.zeros(R * M, dtype=np.complex128)
    if einc_left is not None:
        b[:M] = -c * (eig.injection_matrix @ einc_left)
    if einc_right is not None:
        b[-M:] = -c * (eig.injection_matrix @ einc_right)
    # C has no nonzeros on a linear stack; keep its dtype that of A_lin
    return A.tocsr(), C.tocsr().astype(np.complex128, copy=False), b


class HelmholtzProblem(KerrSystem):
    """Assembled multi-dimensional problem in the shared solver interface."""

    def __init__(self, grid: GridMultiD, mat: MaterialStack,
                 einc_left: np.ndarray | None = None,
                 einc_right: np.ndarray | None = None,
                 bottom: TransverseClosure | None = None,
                 top: TransverseClosure | None = None):
        self.grid = grid
        self.mat = mat
        self.einc_left = self._check_profile(einc_left)
        self.einc_right = self._check_profile(einc_right)
        self.suite = build_transverse_suite(grid, mat.k0, bottom, top)
        self.eigensystem = eigensolve_transverse(
            self.suite.laplacian, mat.k0, grid.h_z)
        self._blocks = _transverse_blocks(self.suite, self.eigensystem,
                                          mat.k0, grid.h_z)
        A, C, b = _assemble(grid, mat.k0, *_material_rows(grid, mat),
                            self._blocks, self.eigensystem,
                            self.einc_left, self.einc_right)
        super().__init__(A, C, b, mat.sigma,
                         field_shape=(grid.num_nodes, grid.M))
        self.mirror = self._section_mirror()

    def _section_mirror(self) -> np.ndarray | None:
        """m <-> M-1-m within each row, kept only for a Cartesian section
        with even M (no node on the axis) whose half can carry its bottom
        wall, and whose transverse blocks and boundary-row forcing are
        invariant under it, which makes the assembled system invariant."""
        grid, M = self.grid, self.grid.M
        narrow = self.suite.bottom.kind == "radiation" and M // 2 < MIN_NODES_RADIATION
        if grid.geometry != "cartesian" or M % 2 or narrow:
            return None
        flip = np.arange(M)[::-1]
        parts = (*self._blocks, self.b[:M], self.b[-M:])
        if all(mirror_invariant(x, flip) for x in parts):
            return (np.arange(grid.num_nodes)[:, None] * M + flip).reshape(-1)
        return None

    def half_section(self) -> HelmholtzProblem:
        """The problem on the x <= 0 half of a mirror-symmetric section: the
        first M/2 nodes of each row, at their true coordinates, between the
        section's bottom wall and a mirror closure at x = 0, as a cylindrical
        section is closed at its axis (see _system.mirror_fold)."""
        m = self.grid.M // 2
        left, right = (None if e is None else e[:m]
                       for e in (self.einc_left, self.einc_right))
        return HelmholtzProblem(dataclasses.replace(self.grid, M=m), self.mat,
                                left, right, bottom=self.suite.bottom,
                                top=symmetric_closure())

    def _check_profile(self, einc):
        if einc is None:
            return None
        einc = np.asarray(einc, dtype=np.complex128).reshape(-1)
        if einc.shape[0] != self.grid.M:
            raise ValueError(
                f"incoming profile has {einc.shape[0]} samples, grid has {self.grid.M}"
            )
        return einc

    @property
    def k0(self) -> float:
        return self.mat.k0

    def vacuum_operator(self) -> sp.csr_matrix:
        """Uniform linear operator: every non-boundary row a compact row
        with W = 1, eps = 0. Assembled on each call and not kept: each solve
        needs it once (Born's A_lin - A0, the capacitance set-up), and a kept
        copy would stay resident through Newton's later LUs."""
        n = self.grid.num_nodes - 2
        A0, _, _ = _assemble(
            self.grid, self.k0, np.ones(n), np.zeros(n), np.zeros(n, dtype=bool),
            self._blocks, self.eigensystem, None, None)
        return A0

    @cached_property
    def _vacuum_inverse(self):
        """(forward transform, gttrf factor, back transform) of vacuum_solve,
        built on first use. The factor is that of the M per-mode tridiagonal
        systems stacked mode-major; zero off-diagonals between mode blocks
        uncouple them."""
        eig, R, h, k0 = self.eigensystem, self.grid.num_nodes, self.grid.h_z, self.k0
        c = (1.0 + k0 * k0 * h * h / 12.0) / (h * h)
        off = np.full(eig.M * R - 1, c, dtype=np.complex128)
        off[R - 1::R] = 0.0
        main = np.repeat((-2.0 * c + k0 * k0 + eig.eigenvalues)[:, None], R, axis=1)
        main[:, [0, -1]] += (c * eig.roots)[:, None]
        *factor, info = scipy.linalg.lapack.zgttrf(off, main.reshape(-1), off)
        if info:
            raise np.linalg.LinAlgError("singular vacuum operator")
        return eig.modes_inverse.T, factor, eig.modes.T

    @cached_property
    def _capacitance(self):
        """(rows r, D_r, LU of S) of the capacitance method for A_lin, built
        on first use, or None where it declines.

        A_lin = A0 + E_r D_r, with r the rows where D = A_lin - A0 is nonzero,
        D_r those rows of D and E_r the identity columns r; then
        A_lin^{-1} = A0^{-1} - A0^{-1} E_r S^{-1} D_r A0^{-1} with the k x k
        capacitance S = I + D_r A0^{-1} E_r (k = len(r)). S is filled one
        column, and so one vacuum solve, at a time: no n x k block is held (a
        multi-column vacuum solve is no faster per column). Declined when S
        would not be small next to A_lin: k^2 > A_lin.nnz, as for a nu != 1
        interior or a dense grating."""
        D = (self.A_lin - self.vacuum_operator()).tocsr()
        rows = np.flatnonzero(np.diff(D.indptr))
        k = rows.size
        if k * k > self.A_lin.nnz:
            return None
        D_r = D[rows]
        S = np.identity(k, dtype=np.complex128)
        unit = np.zeros(self.size, dtype=np.complex128)
        for j, r in enumerate(rows):
            unit[r] = 1.0
            S[:, j] += D_r @ self.vacuum_solve(unit)
            unit[r] = 0.0
        return rows, D_r, scipy.linalg.lu_factor(S)

    def linear_inverse(self):
        """A_lin^{-1} by the capacitance method (see _capacitance) as a
        function of a complex vector, or None where it declines; set up on
        the first call. Each application makes two vacuum solves."""
        if self._capacitance is None:
            return None
        rows, D_r, S = self._capacitance

        def solve(rhs: np.ndarray) -> np.ndarray:
            z = rhs.copy()
            z[rows] -= scipy.linalg.lu_solve(S, D_r @ self.vacuum_solve(rhs))
            return self.vacuum_solve(z)

        return solve

    def vacuum_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Invert the vacuum operator by separation of variables: transform
        each row into the transverse eigenbasis, apply the LU of the per-mode
        tridiagonal systems (gttrf, once per problem), transform back."""
        R = self.grid.num_nodes
        forward, factor, back = self._vacuum_inverse
        U = rhs.reshape(R, -1) @ forward
        out, _ = scipy.linalg.lapack.zgttrs(*factor, U.T.reshape(-1))
        # row-major (R, M) as per-mode solves would fill it, so the
        # back-transform is the same BLAS call, bit for bit
        out = np.ascontiguousarray(out.reshape(-1, R).T)
        return (out @ back).reshape(-1)


def solve_nd(grid: GridMultiD, mat: MaterialStack,
             einc_left: np.ndarray | None = None,
             einc_right: np.ndarray | None = None,
             config=None, method: str = "newton"):
    """Build and solve; returns (field (N+7, M), SolveReport)."""
    problem = HelmholtzProblem(grid, mat, einc_left, einc_right)
    return solvers.solve(problem, config=config, method=method)


def _as_complex_nodes(E: np.ndarray, problem: HelmholtzProblem) -> np.ndarray:
    """Accept a complex field (any shape) or a real-split vector."""
    arr = np.asarray(E)
    if not np.iscomplexobj(arr) and arr.ndim == 1 and arr.size == 2 * problem.size:
        return from_real_split(arr, -1)
    e = arr.astype(np.complex128, copy=False).reshape(-1)
    if e.shape[0] != problem.size:
        raise ValueError(f"field has {e.shape[0]} nodes, problem has {problem.size}")
    return e


def assemble_residual(E: np.ndarray, problem: HelmholtzProblem) -> np.ndarray:
    """Real-split residual vector of the assembled equations at E.

    E may be the complex field (shape (N+7, M) or flattened) or an
    interleaved real-split vector of twice the node count.
    """
    return to_real_split(problem.residual_complex(_as_complex_nodes(E, problem)))


def assemble_jacobian(E: np.ndarray, problem: HelmholtzProblem) -> sp.csr_matrix:
    """Exact real-split Jacobian of assemble_residual at E."""
    return problem.jacobian_real(_as_complex_nodes(E, problem))


def kerr_jacobian_block(E_value: complex, sigma: float) -> np.ndarray:
    """2x2 real Jacobian of the map E -> |E|^{2 sigma} E at one node,
    unscaled (the assembly multiplies by eps k0^2 and stencil weights).

    For 0 < sigma < 1 at E = 0 the derivative is singular; a zero block is
    substituted (with a warning from the shared kernel).
    """
    e = np.asarray([complex(E_value)])
    a, b, c = kerr_block_entries(e, sigma)
    return np.array([[a[0], b[0]], [b[0], c[0]]])


# --- direct per-node row evaluation ------------------------------------------
#
# These evaluate single rows straight from the stencil table, independently of
# the Kronecker assembly; the test-suite cross-checks the two routes.

def _extended_row(problem: HelmholtzProblem, values: np.ndarray) -> np.ndarray:
    return problem.suite.extension @ values


def _transverse_derivs(problem: HelmholtzProblem, ext: np.ndarray, m: int):
    """(lap4, t2, fourth) of the extended transverse row at owned index m:
    fourth-order Laplacian, second-order Laplacian, and the composite
    fourth-derivative correction entering the compact rows."""
    h = problem.grid.h_perp
    idx = m + 2
    d = {key: apply_stencil(ext, central(*key), idx, h)
         for key in ((1, 2), (2, 2), (3, 2), (4, 2), (1, 4), (2, 4))}
    if problem.grid.geometry == "cartesian":
        return d[(2, 4)], d[(2, 2)], d[(4, 2)]
    rho = problem.grid.transverse_coords()[m]
    lap4 = d[(2, 4)] + d[(1, 4)] / rho
    t2 = d[(2, 2)] + d[(1, 2)] / rho
    fourth = (d[(1, 2)] / rho ** 3 - d[(2, 2)] / rho ** 2
              + 2.0 * d[(3, 2)] / rho + d[(4, 2)])
    return lap4, t2, fourth


def _kerr_field(E: np.ndarray, sigma: float) -> np.ndarray:
    a = E.real ** 2 + E.imag ** 2
    return a ** sigma * E


def _residual_generic(problem: HelmholtzProblem, E: np.ndarray, n: int, m: int,
                      W: float, eps: float) -> complex:
    grid = problem.grid
    r = grid.index(n)
    h, k0 = grid.h_z, problem.k0
    sigma = problem.mat.sigma
    dzz = (E[r - 1, m] - 2.0 * E[r, m] + E[r + 1, m]) / (h * h)
    lap4, t2E, fourth = _transverse_derivs(problem, _extended_row(problem, E[r]), m)
    comp = W * ((10.0 / 12.0) * E[r, m]
                + (1.0 / 12.0) * (E[r - 1, m] + E[r + 1, m])
                - (h * h / 12.0) * t2E)
    if eps != 0.0:
        P_rows = _kerr_field(E[r - 1:r + 2], sigma)
        _, t2P, _ = _transverse_derivs(
            problem, _extended_row(problem, P_rows[1]), m)
        comp = comp + eps * ((10.0 / 12.0) * P_rows[1, m]
                             + (1.0 / 12.0) * (P_rows[0, m] + P_rows[2, m])
                             - (h * h / 12.0) * t2P)
    return dzz + lap4 - (h * h / 12.0) * fourth + k0 * k0 * comp


def residual_interior_cartesian(E: np.ndarray, n: int, m: int,
                                problem: HelmholtzProblem) -> complex:
    """Compact material row at an interior node of a Cartesian section."""
    if problem.grid.geometry != "cartesian":
        raise ValueError("problem is not Cartesian")
    nu, eps = sample_material(problem.mat, problem.grid, n, "right")
    return _residual_generic(problem, E, n, m, nu * nu, eps)


def residual_interior_cylindrical(E: np.ndarray, n: int, m: int,
                                  problem: HelmholtzProblem) -> complex:
    """Compact material row at an interior node of a cylindrical section."""
    if problem.grid.geometry != "cylindrical":
        raise ValueError("problem is not cylindrical")
    nu, eps = sample_material(problem.mat, problem.grid, n, "right")
    return _residual_generic(problem, E, n, m, nu * nu, eps)


def residual_exterior(E: np.ndarray, n: int, m: int,
                      problem: HelmholtzProblem) -> complex:
    """Constant-coefficient linear row outside the material slab."""
    return _residual_generic(problem, E, n, m, 1.0, 0.0)


def residual_interface(E: np.ndarray, n: int, m: int,
                       problem: HelmholtzProblem) -> complex:
    """Derivative-matching row at a genuine material jump."""
    grid = problem.grid
    r = grid.index(n)
    h, k0 = grid.h_z, problem.k0
    nu_l, eps_l = sample_material(problem.mat, grid, n, "left")
    nu_r, eps_r = sample_material(problem.mat, grid, n, "right")
    Wavg = 0.5 * (nu_l ** 2 + nu_r ** 2)
    eps_avg = 0.5 * (eps_l + eps_r)
    seven = sum(w * E[r + j, m] for j, w in zip(range(-3, 4), _IFACE_W)) / h
    ext = _extended_row(problem, E[r])
    idx = m + 2
    hp = grid.h_perp
    t_L = apply_stencil(ext, central(2, 4), idx, hp)
    if grid.geometry == "cylindrical":
        rho = grid.transverse_coords()[m]
        t_L = t_L + apply_stencil(ext, central(1, 4), idx, hp) / rho
    out = seven + (6.0 * h / 11.0) * (k0 * k0 * Wavg * E[r, m] + t_L)
    if eps_avg != 0.0:
        P = _kerr_field(E[r:r + 1], problem.mat.sigma)[0, m]
        out = out + (6.0 * h * k0 * k0 / 11.0) * eps_avg * P
    return out
