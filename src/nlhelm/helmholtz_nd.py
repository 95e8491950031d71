"""Residual and Jacobian assembly for the 2D Cartesian and cylindrically
symmetric schemes, and for the 1D slab as their single-column case.

Longitudinal structure: compact 3-node material rows, 7-node
derivative-matching rows at genuine material jumps, and two-way boundary
rows at n = -3 and n = N+3. Every longitudinal row carries M transverse
unknowns; transverse derivatives (through the closures of the transverse
module) appear as M x M blocks. The material enters only through per-row
coefficient arrays (nu^2, eps, and whether the row is an interface row), so
each operator is a fixed sum of Kronecker products kron(Z, B): Z an R x R
longitudinal matrix of those coefficients, B the identity, one of the
transverse suite's operators, or the boundary or compact-C combination.

The boundary rows use the transverse eigensystem: the ghost column one step
outside the domain is a per-mode combination of incoming injection and
one-step outward propagation, giving dense M x M blocks at those two rows
only. The same eigenbasis splits the uniform vacuum operator into M
tridiagonal systems, factored once per operator, and one mode-space pipeline
applies them: forward transform, one tridiagonal solve, an optional
correction, back transform. `vacuum_solve` is that pipeline. A_lin differs
from the vacuum operator only on the rows of material jumps and of nu != 1;
where those are few (a nu = 1 slab: its two faces), `linear_inverse` is the
same pipeline with a rank-k correction from the per-mode Green's functions
at those rows and a small capacitance system. With M=1 and mirror
closures on both walls every transverse block is a scalar and the system is
the slab problem: a `Grid1D` is that single column, and every geometry,
`helmholtz_1d.Problem1D` included, reaches the solvers as this one class.

Unknown ordering is n-major, m-minor; the real split interleaves (Re, Im)
per node (see fields.to_real_split).

A Cartesian section with even M whose transverse operators and boundary-row
forcing are invariant under m <-> M-1-m (a centred, untilted, even beam
between like walls, each half wide enough for its wall closure) gets that
reflection within each row as its `mirror`. Its `half_section()` is the
problem on the first M/2 nodes of each row (x <= 0), closed at x = 0 by the
mirror closure that closes a cylindrical section at its axis; the solvers
iterate on it from a symmetric start (see `fold`). The field a solver
returns and every output stay full size.

A problem is an operator and a right-hand side: the incoming beams enter
only b, on the two boundary rows, and the rest is an `_Operator`, shared by
the live problems that differ only in their beams (see `_Operator`).
"""

from __future__ import annotations

import dataclasses
import weakref
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import solvers
from ._system import KerrSystem, kerr_block_entries, real_split_matrix
from .fields import (
    Grid1D,
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


def mirror_invariant(x, mirror: np.ndarray) -> bool:
    """Whether a vector, or a dense or sparse square matrix, is invariant
    under the index permutation `mirror`: the largest entrywise change is
    within the solvers' CONTRACT_SCALE of the largest |entry|."""
    y = x[mirror][:, mirror] if x.ndim == 2 else x[mirror]
    return abs(y - x).max() <= solvers.CONTRACT_SCALE * abs(x).max()


def _material_rows(grid: GridMultiD | Grid1D, mat: MaterialStack):
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


def _ghost_weight(k0: float, h: float) -> float:
    """c = (1 + k0^2 h^2 / 12) / h^2, the weight of the ghost column that the
    two-way boundary rows eliminate (the vacuum rows' off-diagonal)."""
    return (1.0 + k0 * k0 * h * h / 12.0) / (h * h)


def _assemble(grid: GridMultiD | Grid1D, k0: float, W: np.ndarray, eps: np.ndarray,
              interface: np.ndarray, suite: TransverseSuite, eig: TransverseEigensystem):
    """(A_lin, C) for the per-row coefficients of _material_rows.

    A_lin and C are fixed sums of kron(Z, B): Z an R x R longitudinal matrix
    of per-row coefficients, zero on the rows the term does not touch, and B
    the identity, an operator of the suite, or one of two combinations formed
    here: the two-way boundary block of rows 0 and R-1 and the compact block
    of C.
    """
    R, M, h = grid.num_nodes, grid.M, grid.h_z
    I_M = sp.identity(M, dtype=np.complex128, format="csr")
    c = _ghost_weight(k0, h)
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
    # ghost column eliminated through per-mode one-step propagation
    boundary = (c * sp.csr_matrix(eig.propagation_matrix) + suite.laplacian
                + (-2.0 * c + k0 * k0) * I_M)
    A = (term({0: compact_row * 1.0}, suite.row_coupler)
         + term({0: compact_row * -(k2W * h * h / 12.0)}, suite.compact_correction)
         + term(bands, I_M)
         + term({0: iface * (6.0 * h / 11.0)}, suite.interface_laplacian)
         + term({0: edge * 1.0}, boundary))
    compact = (10.0 / 12.0) * I_M - (h * h / 12.0) * suite.compact_correction
    c_off = compact_row * (k2eps / 12.0)
    C = (term({0: compact_row * k2eps}, compact)
         + term({-1: c_off, 0: iface * (6.0 * h * k0 * k0 * eps / 11.0), 1: c_off}, I_M))
    # C has no nonzeros on a linear stack; keep its dtype that of A_lin
    return A.tocsr(), C.tocsr().astype(np.complex128, copy=False)


def _forcing(grid: GridMultiD | Grid1D, k0: float, eig: TransverseEigensystem,
             einc_left: np.ndarray | None, einc_right: np.ndarray | None) -> np.ndarray:
    """b: zero but on the two boundary rows, where the two-way boundary
    condition injects the incoming profiles."""
    M = grid.M
    c = _ghost_weight(k0, grid.h_z)
    b = np.zeros(grid.num_nodes * M, dtype=np.complex128)
    if einc_left is not None:
        b[:M] = -c * (eig.injection_matrix @ einc_left)
    if einc_right is not None:
        b[-M:] = -c * (eig.injection_matrix @ einc_right)
    return b


class _Operator:
    """The part of a problem that its incoming beams do not change, shared by
    every live problem on an equal grid, material and pair of wall closures.
    Built with the first such problem: the transverse suite and eigensystem
    and the per-row coefficients of _material_rows. Built from them on first
    use, and kept: A_lin and C, their real splits, the vacuum factor and the
    capacitance set-up. So constructing a problem assembles nothing, and a
    solve on the mirror fold assembles only its half section's. Nothing is
    changed in place once built. It holds no reference to a problem, so
    reference counting alone frees it with the last problem that holds it."""

    def __init__(self, grid: GridMultiD | Grid1D, mat: MaterialStack,
                 bottom: TransverseClosure | None, top: TransverseClosure | None):
        self.grid, self.k0 = grid, mat.k0
        # looked up as module globals at call time, where a tracer may wrap them
        self.suite = build_transverse_suite(grid, mat.k0, bottom, top)
        self.eigensystem = eigensolve_transverse(self.suite.laplacian, mat.k0, grid.h_z)
        self.rows = _material_rows(grid, mat)

    @cached_property
    def assembled(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """(A_lin, C), from one _assemble call."""
        return _assemble(self.grid, self.k0, *self.rows, self.suite, self.eigensystem)

    @cached_property
    def real_split(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """real_split_matrix of A_lin and of C, built with the first Jacobian."""
        A_lin, C = self.assembled
        return real_split_matrix(A_lin), real_split_matrix(C)

    def vacuum_operator(self) -> sp.csr_matrix:
        """Uniform linear operator A0: every non-boundary row a compact row
        with W = 1, eps = 0. Assembled on each call and not kept: each Born
        solve needs it once (A_lin - A0), the capacitance set-up once, and a
        kept copy would stay resident through Newton's later LUs."""
        n = self.grid.num_nodes - 2
        A0, _ = _assemble(self.grid, self.k0, np.ones(n), np.zeros(n),
                          np.zeros(n, dtype=bool), self.suite, self.eigensystem)
        return A0

    @cached_property
    def vacuum_inverse(self):
        """(forward transform, gttrf factor, back transform) of the
        problems' _mode_solve. The factor is that of the M per-mode tridiagonal
        systems stacked mode-major; zero off-diagonals uncouple the blocks."""
        eig, R, k0 = self.eigensystem, self.grid.num_nodes, self.k0
        c = _ghost_weight(k0, self.grid.h_z)
        off = np.full(eig.M * R - 1, c, dtype=np.complex128)
        off[R - 1::R] = 0.0
        main = np.repeat((-2.0 * c + k0 * k0 + eig.eigenvalues)[:, None], R, axis=1)
        main[:, [0, -1]] += (c * eig.roots)[:, None]
        *factor, info = scipy.linalg.lapack.zgttrf(off, main.reshape(-1), off)
        if info:
            raise np.linalg.LinAlgError("singular vacuum operator")
        return eig.modes_inverse.T, factor, eig.modes.T

    @cached_property
    def capacitance(self):
        """The correction of _mode_solve that makes it A_lin^{-1} by the
        capacitance method, or None where the method declines.

        A_lin = A0 + E_r D_r, with r every node of the longitudinal rows P
        where D = A_lin - A0 is nonzero and E_r the identity columns r; then
        A_lin^{-1} = A0^{-1} - A0^{-1} E_r S^{-1} D_r A0^{-1} with the k x k
        capacitance S = I + D_r A0^{-1} E_r (k = M len(P)). In the transverse
        eigenbasis V, A0^{-1} E_r is the per-mode Green's functions
        G[l, :, j] = g_l(., P[j]), one tridiagonal solve; D_r reads only the
        rows Q, so column block j of S - I is the sum over q in Q of
        D_r[:, q] V diag(G[:, q, j]) V^{-1}. No vacuum solve is made. The
        correction of a mode-space solution y is G V^{-1} S^{-1} D_r y on
        rows Q. Declined when S would not be small next to A_lin:
        k^2 > A_lin.nnz, as for a nu != 1 interior or a dense grating."""
        M, R, eig = self.grid.M, self.grid.num_nodes, self.eigensystem
        A_lin, _ = self.assembled
        D = (A_lin - self.vacuum_operator()).tocsr()
        P = np.unique(np.flatnonzero(np.diff(D.indptr)) // M)
        p, k = P.size, P.size * M
        if k * k > A_lin.nnz:
            return None
        D_r = D[np.ravel(P[:, None] * M + np.arange(M))]
        Q = np.unique(D_r.indices // M)
        D_r = D_r[:, np.ravel(Q[:, None] * M + np.arange(M))].toarray()
        units = np.zeros((M, R, p), dtype=np.complex128)
        units[:, P, np.arange(p)] = 1.0
        G, _ = scipy.linalg.lapack.zgttrs(*self.vacuum_inverse[1], units.reshape(-1, p))
        G = G.reshape(M, R, p)
        DV = D_r.reshape(k, -1, M) @ eig.modes
        S = (np.einsum("kql,lqj->kjl", DV, G[:, Q]) @ eig.modes_inverse).reshape(k, k)
        S = scipy.linalg.lu_factor(S + np.identity(k))
        forward, _, back = self.vacuum_inverse

        def correction(y: np.ndarray) -> np.ndarray:
            z = scipy.linalg.lu_solve(S, D_r @ (y[:, Q].T @ back).reshape(-1))
            a = z.reshape(-1, M) @ forward
            return (G @ a.T[:, :, None])[..., 0]

        return correction


# every live operator, keyed by (grid, material, bottom, top closure); the
# closures, None for the default, compare and hash by value
_OPERATORS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _operator(grid: GridMultiD | Grid1D, mat: MaterialStack,
              bottom: TransverseClosure | None,
              top: TransverseClosure | None) -> _Operator:
    """The live operator for this key, built if there is none."""
    key = (grid, mat, bottom, top)
    op = _OPERATORS.get(key)
    if op is None:
        op = _OPERATORS[key] = _Operator(grid, mat, bottom, top)
    return op


class HelmholtzProblem(KerrSystem):
    """Assembled problem of any geometry, the 1D slab included: the Kerr
    algebra of KerrSystem plus the vacuum solve, the separable inverse of
    A_lin and the mirror fold that the solvers use. It holds its incoming
    profiles, b and mirror; the rest is its operator (see _Operator), whose
    key includes the wall closures `bottom` and `top` (None by default)."""

    def __init__(self, grid: GridMultiD | Grid1D, mat: MaterialStack,
                 einc_left: np.ndarray | None = None,
                 einc_right: np.ndarray | None = None,
                 bottom: TransverseClosure | None = None,
                 top: TransverseClosure | None = None):
        self.grid, self.mat = grid, mat
        self.sigma = float(mat.sigma)
        self.size, self.field_shape = grid.num_nodes * grid.M, grid.field_shape
        self.einc_left = self._check_profile(einc_left, "left")
        self.einc_right = self._check_profile(einc_right, "right")
        self._operator = op = _operator(grid, mat, bottom, top)
        self.suite, self.eigensystem = op.suite, op.eigensystem
        self.b = _forcing(grid, mat.k0, op.eigensystem, self.einc_left, self.einc_right)
        self.mirror = self._section_mirror()

    @property
    def A_lin(self) -> sp.csr_matrix:
        return self._operator.assembled[0]

    @property
    def C(self) -> sp.csr_matrix:
        return self._operator.assembled[1]

    @property
    def _real_split(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        return self._operator.real_split

    @property
    def has_kerr(self) -> bool:
        """Whether C is nonzero: whether any row has eps != 0, read without
        assembling C."""
        return bool(self._operator.rows[1].any())

    def _section_mirror(self) -> np.ndarray | None:
        """m <-> M-1-m within each row, kept only for a Cartesian section
        with even M (no node on the axis) whose half can carry its bottom
        wall, and whose transverse operators (those _assemble reads) and
        boundary-row forcing are invariant under it, which makes the
        assembled system invariant."""
        grid, M, suite = self.grid, self.grid.M, self.suite
        narrow = suite.bottom.kind == "radiation" and M // 2 < MIN_NODES_RADIATION
        if grid.geometry != "cartesian" or M % 2 or narrow:
            return None
        flip = np.arange(M)[::-1]
        parts = (suite.row_coupler, suite.compact_correction, suite.interface_laplacian,
                 suite.laplacian, self.eigensystem.propagation_matrix,
                 self.b[:M], self.b[-M:])
        if all(mirror_invariant(x, flip) for x in parts):
            return (np.arange(grid.num_nodes)[:, None] * M + flip).reshape(-1)
        return None

    def half_section(self) -> HelmholtzProblem:
        """The problem on the x <= 0 half of a mirror-symmetric section: the
        first M/2 nodes of each row, at their true coordinates, between the
        section's bottom wall and a mirror closure at x = 0, as a cylindrical
        section is closed at its axis (see fold)."""
        m = self.grid.M // 2
        left, right = (None if e is None else e[:m]
                       for e in (self.einc_left, self.einc_right))
        return HelmholtzProblem(dataclasses.replace(self.grid, M=m), self.mat,
                                left, right, bottom=self.suite.bottom,
                                top=symmetric_closure())

    def fold(self, e: np.ndarray):
        """(half, e[H], gather) for a start e symmetric under the mirror, or
        None when there is none or e is not symmetric under it. half is
        half_section(), whose nodes are the orbit representatives H in
        order; a half field x unfolds as x[gather]."""
        mirror = self.mirror
        if mirror is None or not mirror_invariant(e, mirror):
            return None
        n = mirror.size
        H = np.flatnonzero(np.arange(n) < mirror)
        gather = np.empty(n, dtype=np.int64)
        gather[H] = gather[mirror[H]] = np.arange(H.size)
        return self.half_section(), e[H], gather

    def _check_profile(self, einc, side: str):
        if einc is None:
            return None
        einc = np.asarray(einc, dtype=np.complex128).reshape(-1)
        if einc.shape[0] != self.grid.M:
            raise ValueError(f"{side} incoming profile has {einc.shape[0]} samples, "
                             f"grid has {self.grid.M}")
        if not np.isfinite(einc).all():
            raise ValueError(f"{side} incoming profile must be finite")
        return einc

    @property
    def k0(self) -> float:
        return self.mat.k0

    def vacuum_operator(self) -> sp.csr_matrix:
        """The vacuum operator A0, assembled on each call (see _Operator)."""
        return self._operator.vacuum_operator()

    def linear_inverse(self):
        """A_lin^{-1} by the capacitance method (see _Operator.capacitance)
        as a function of a complex vector, or None where it declines."""
        correction = self._operator.capacitance
        if correction is None:
            return None
        return lambda rhs: self._mode_solve(rhs, correction)

    def vacuum_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Invert the vacuum operator by separation of variables (_mode_solve)."""
        return self._mode_solve(rhs)

    def _mode_solve(self, rhs: np.ndarray, correction=None) -> np.ndarray:
        """The mode-space pipeline of vacuum_solve and linear_inverse: each
        row of rhs into the transverse eigenbasis, one zgttrs over the stacked
        per-mode tridiagonals, less correction(y) of that (M, R) solution y
        if given, and back."""
        R = self.grid.num_nodes
        forward, factor, back = self._operator.vacuum_inverse
        U = rhs.reshape(R, -1) @ forward
        y, _ = scipy.linalg.lapack.zgttrs(*factor, U.T.reshape(-1))
        y = y.reshape(-1, R)
        if correction is not None:
            y -= correction(y)
        # row-major (R, M) as per-mode solves would fill it, so the
        # back-transform is the same BLAS call, bit for bit
        return (np.ascontiguousarray(y.T) @ back).reshape(-1)


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
