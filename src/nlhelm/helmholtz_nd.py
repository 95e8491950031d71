"""Residual and Jacobian assembly for the 2D Cartesian and cylindrically
symmetric schemes, and for the 1D slab as their single-column case.

Longitudinal structure: compact 3-node material rows, 7-node
derivative-matching rows at genuine material jumps, and two-way boundary
rows at n = -3 and n = N+3. Every longitudinal row carries M transverse
unknowns; transverse derivatives (through the closures of the
transverse module) appear as M x M blocks, so the global operator is built
as a sum of Kronecker products of longitudinal coupling patterns with
transverse blocks.

The boundary rows use the transverse eigensystem: the ghost column one step
outside the domain is a per-mode combination of incoming injection and
one-step outward propagation, giving dense M x M blocks at those two rows
only. With M=1 and mirror closures on both walls every transverse block is
a scalar and the system is the slab problem that `helmholtz_1d` exposes.

Unknown ordering is n-major, m-minor; the real split interleaves (Re, Im)
per node (see fields.to_real_split).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import solvers
from ._system import KerrSystem, kerr_block_entries
from .fields import (
    EXTERIOR_EPS,
    EXTERIOR_NU,
    GridMultiD,
    MaterialStack,
    from_real_split,
    interface_nodes,
    sample_material,
    to_real_split,
)
from .transverse import (
    TransverseClosure,
    TransverseEigensystem,
    TransverseSuite,
    build_transverse_suite,
    eigensolve_transverse,
)
from .stencils import apply_stencil, central

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

# 7-node interface combination: difference of the two one-sided first
# derivatives, already multiplied by 66 (divide by 66 h when applying)
_IFACE_W = np.array([4.0, -27.0, 108.0, -170.0, 108.0, -27.0, 4.0]) / 66.0


def _material_rows(grid: GridMultiD, mat: MaterialStack):
    """Per-row recipe for the non-boundary rows n = -2 .. N+2.

    Returns a list of ("generic", nu^2, eps) or ("interface", avg nu^2,
    avg eps) tuples indexed by n+2. Matched partitions (no jump in either
    coefficient) take the generic compact row, which their smoothness makes
    fourth-order accurate.
    """
    nodes = interface_nodes(grid, mat)
    exterior = (EXTERIOR_NU, EXTERIOR_EPS)
    # (nu, eps) on each cell [n, n+1], n = -3 .. N+2
    cells = [exterior] * (nodes[0] + 3)
    for lay, lo, hi in zip(mat.layers, nodes, nodes[1:]):
        cells += [(lay.nu, lay.eps)] * (hi - lo)
    cells += [exterior] * (grid.N + 3 - nodes[-1])
    partitions = set(nodes)
    rows = []
    for n, ((nu_l, eps_l), (nu_r, eps_r)) in enumerate(zip(cells, cells[1:]), start=-2):
        if n in partitions and (nu_l != nu_r or eps_l != eps_r):
            rows.append(("interface", 0.5 * (nu_l ** 2 + nu_r ** 2),
                         0.5 * (eps_l + eps_r)))
        else:
            rows.append(("generic", nu_r * nu_r, eps_r))
    return rows


def _assemble(grid: GridMultiD, k0: float, rows, suite: TransverseSuite,
              eig: TransverseEigensystem,
              einc_left: np.ndarray | None, einc_right: np.ndarray | None):
    """(A_lin, C, b) for the given per-row recipes."""
    R, M, h = grid.num_nodes, grid.M, grid.h_z
    I_M = sp.identity(M, dtype=np.complex128, format="csr")
    T2 = suite.compact_correction
    A_t = suite.row_coupler
    T_L = suite.interface_laplacian
    L_perp = suite.laplacian
    c = (1.0 + k0 * k0 * h * h / 12.0) / (h * h)

    a_pieces: list[sp.spmatrix] = []
    c_pieces: list[sp.spmatrix] = []
    # scalar longitudinal couplings (kron'd with the transverse identity)
    za_r, za_c, za_v = [], [], []
    zc_r, zc_c, zc_v = [], [], []

    def sel(row_ids):
        data = np.ones(len(row_ids))
        return sp.coo_matrix((data, (row_ids, row_ids)), shape=(R, R))

    # group the generic rows by material so each material contributes one
    # Kronecker block
    groups: dict[tuple[float, float], list[int]] = {}
    interfaces: list[tuple[int, float, float]] = []
    for i, recipe in enumerate(rows):
        r = i + 1  # rows[] covers n = -2..N+2, global row index n+3
        kind, W, eps = recipe
        if kind == "generic":
            groups.setdefault((W, eps), []).append(r)
        else:
            interfaces.append((r, W, eps))

    for (W, eps), rids in groups.items():
        off = 1.0 / (h * h) + k0 * k0 * W / 12.0
        diag_block = (A_t - (k0 * k0 * W * h * h / 12.0) * T2
                      + (-2.0 / (h * h) + (10.0 / 12.0) * k0 * k0 * W) * I_M)
        a_pieces.append(sp.kron(sel(rids), diag_block, format="coo"))
        for r in rids:
            za_r.extend((r, r))
            za_c.extend((r - 1, r + 1))
            za_v.extend((off, off))
        if eps != 0.0:
            ck = k0 * k0 * eps
            c_block = ck * ((10.0 / 12.0) * I_M - (h * h / 12.0) * T2)
            c_pieces.append(sp.kron(sel(rids), c_block, format="coo"))
            for r in rids:
                zc_r.extend((r, r))
                zc_c.extend((r - 1, r + 1))
                zc_v.extend((ck / 12.0, ck / 12.0))

    for r, Wavg, epsavg in interfaces:
        for j, w in zip(range(-3, 4), _IFACE_W):
            za_r.append(r)
            za_c.append(r + j)
            za_v.append(w / h)
        block = (6.0 * h / 11.0) * (k0 * k0 * Wavg * I_M + T_L)
        a_pieces.append(sp.kron(sel([r]), block, format="coo"))
        if epsavg != 0.0:
            zc_r.append(r)
            zc_c.append(r)
            zc_v.append(6.0 * h * k0 * k0 * epsavg / 11.0)

    # two-way boundary rows: ghost eliminated through per-mode propagation
    Q = sp.csr_matrix(eig.propagation_matrix)
    abc_block = c * Q + L_perp + (-2.0 * c + k0 * k0) * I_M
    for r, inner in ((0, 1), (R - 1, R - 2)):
        a_pieces.append(sp.kron(sel([r]), abc_block, format="coo"))
        za_r.append(r)
        za_c.append(inner)
        za_v.append(c)

    Z_a = sp.coo_matrix((za_v, (za_r, za_c)), shape=(R, R))
    A = sp.kron(Z_a, I_M, format="coo")
    for piece in a_pieces:
        A = A + piece
    if zc_r or c_pieces:
        Z_c = sp.coo_matrix((zc_v, (zc_r, zc_c)), shape=(R, R))
        C = sp.kron(Z_c, I_M, format="coo")
        for piece in c_pieces:
            C = C + piece
        C = C.tocsr()
    else:
        C = sp.csr_matrix((R * M, R * M), dtype=np.complex128)

    b = np.zeros(R * M, dtype=np.complex128)
    if einc_left is not None:
        b[:M] = -c * (eig.injection_matrix @ einc_left)
    if einc_right is not None:
        b[-M:] = -c * (eig.injection_matrix @ einc_right)
    return A.tocsr(), C, b


class HelmholtzProblem(KerrSystem):
    """Assembled multi-dimensional problem in the shared solver interface."""

    def __init__(self, grid: GridMultiD, mat: MaterialStack,
                 einc_left: np.ndarray | None = None,
                 einc_right: np.ndarray | None = None,
                 bottom: TransverseClosure | None = None,
                 top: TransverseClosure | None = None):
        self.grid = grid
        self.mat = mat
        self.suite = build_transverse_suite(grid, mat.k0, bottom, top)
        self.eigensystem = eigensolve_transverse(
            self.suite.laplacian, mat.k0, grid.h_z)
        self.einc_left = self._check_profile(einc_left)
        self.einc_right = self._check_profile(einc_right)
        A, C, b = _assemble(grid, mat.k0, _material_rows(grid, mat),
                            self.suite, self.eigensystem,
                            self.einc_left, self.einc_right)
        super().__init__(A, C, b, mat.sigma,
                         field_shape=(grid.num_nodes, grid.M))
        self._vacuum: sp.csr_matrix | None = None
        self._mode_bands: np.ndarray | None = None

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
        """Uniform linear operator: every non-boundary row generic (1, 0)."""
        if self._vacuum is None:
            rows = [("generic", 1.0, 0.0)] * (self.grid.num_nodes - 2)
            A0, _, _ = _assemble(self.grid, self.k0, rows, self.suite,
                                 self.eigensystem, None, None)
            self._vacuum = A0
        return self._vacuum

    def vacuum_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Invert the vacuum operator by separation of variables: transform
        each longitudinal row into the transverse eigenbasis, solve the M
        uncoupled tridiagonal systems as one banded system, transform back."""
        grid, eig = self.grid, self.eigensystem
        R, M = grid.num_nodes, grid.M
        if self._mode_bands is None:
            h, k0 = grid.h_z, self.k0
            c = (1.0 + k0 * k0 * h * h / 12.0) / (h * h)
            # mode-major (3, M*R) bands; the off-diagonals are zero across
            # mode-block boundaries, so the blocks stay uncoupled
            bands = np.zeros((3, M, R), dtype=np.complex128)
            bands[0, :, 1:] = c
            bands[2, :, :-1] = c
            bands[1] = (-2.0 * c + k0 * k0 + eig.eigenvalues)[:, None]
            bands[1, :, 0] += c * eig.roots
            bands[1, :, -1] += c * eig.roots
            self._mode_bands = bands.reshape(3, M * R)
        U = rhs.reshape(R, M) @ eig.modes_inverse.T
        out = scipy.linalg.solve_banded((1, 1), self._mode_bands, U.T.reshape(-1))
        # row-major (R, M) as per-mode solves would fill it, so the
        # back-transform is the same BLAS call, bit for bit
        out = np.ascontiguousarray(out.reshape(M, R).T)
        return (out @ eig.modes.T).reshape(-1)


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
