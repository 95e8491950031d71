"""Internal: assembled-system container of the discrete problems.

`helmholtz_nd.HelmholtzProblem` assembles every geometry, the 1D slab
included (`helmholtz_1d.Problem1D` wraps its single-column case).

A discrete problem is F(E) = A_lin E + C P(E) - b, with E the complex field
flattened n-major, P(E) = |E|^{2 sigma} E applied pointwise, A_lin the
field-independent part (difference operators, boundary closures, material
terms on E) and C the coupling coefficients multiplying P. The solvers in
`solvers` only see this interface.

A system may carry a mirror: a fixed-point-free involution of the nodes under
which A_lin, C and b are invariant (to CONTRACT_SCALE). Such a system is a
section that is its half mirrored, and its half_section() is that half as a
problem of its own, closed by a mirror closure on the symmetry plane. For a
symmetric start the solvers iterate on the half (see mirror_fold).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

__all__ = ["KerrSystem", "real_split_matrix", "kerr_block_entries",
           "mirror_invariant", "mirror_fold"]

# relative scale of the residual contract of solvers.sparse_lu_solve; a
# system or field invariant under a mirror to this scale counts as symmetric
CONTRACT_SCALE = 1e-10


def mirror_invariant(x, mirror: np.ndarray) -> bool:
    """Whether a vector, or a dense or sparse square matrix, is invariant
    under the index permutation `mirror`: the largest entrywise change is
    within CONTRACT_SCALE of the largest |entry|."""
    y = x[mirror][:, mirror] if x.ndim == 2 else x[mirror]
    return abs(y - x).max() <= CONTRACT_SCALE * abs(x).max()


def real_split_matrix(A: sp.spmatrix) -> sp.csr_matrix:
    """Real 2x2-block representation of a complex matrix.

    Complex entry a+ib at (i, j) becomes [[a, -b], [b, a]] at rows/cols
    (2i, 2i+1) x (2j, 2j+1), matching the interleaved (Re, Im) vector layout.
    """
    coo = A.tocoo()
    i, j, v = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    rows = np.concatenate([2 * i, 2 * i, 2 * i + 1, 2 * i + 1])
    cols = np.concatenate([2 * j, 2 * j + 1, 2 * j, 2 * j + 1])
    vals = np.concatenate([v.real, -v.imag, v.imag, v.real])
    n = 2 * A.shape[0]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, 2 * A.shape[1])).tocsr()


def kerr_block_entries(e: np.ndarray, sigma: float):
    """Entries (a, b, c) of the 2x2 derivative blocks of P = |E|^{2 sigma} E.

    With A = Re(E)^2 + Im(E)^2 the block is [[a, b], [b, c]]:
        a = A^sigma + 2 sigma Re(E)^2 A^(sigma-1)
        b = 2 sigma Re(E) Im(E) A^(sigma-1)
        c = A^sigma + 2 sigma Im(E)^2 A^(sigma-1)
    At E = 0 the block is zero for sigma >= 1; for 0 < sigma < 1 the
    derivative is singular there and we substitute a zero block (with a
    warning), which only arises outside the supported exponents.
    """
    er, ei = e.real, e.imag
    amp = er * er + ei * ei
    if sigma == 1:
        pow_m1 = np.ones_like(amp)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            pow_m1 = amp ** (sigma - 1.0)
        bad = ~np.isfinite(pow_m1)
        if bad.any():
            if sigma < 1:
                warnings.warn("Kerr derivative singular at E=0 for sigma<1; using zero block")
            pow_m1 = np.where(bad, 0.0, pow_m1)
    asig = amp**sigma
    two_sig = 2.0 * sigma
    a = asig + two_sig * er * er * pow_m1
    b = two_sig * er * ei * pow_m1
    c = asig + two_sig * ei * ei * pow_m1
    return a, b, c


class KerrSystem:
    """Assembled discrete system with a pointwise Kerr nonlinearity."""

    def __init__(self, A_lin: sp.spmatrix, C: sp.spmatrix, b: np.ndarray,
                 sigma: float, field_shape: tuple[int, ...]):
        self.A_lin = A_lin.tocsr()
        self.C = C.tocsr()
        self.b = np.asarray(b, dtype=np.complex128).reshape(-1)
        self.sigma = float(sigma)
        self.field_shape = tuple(field_shape)
        self.size = self.A_lin.shape[0]
        assert self.A_lin.shape == (self.size, self.size)
        assert self.b.shape == (self.size,)
        # real_split_matrix of A_lin and C, built with the first Jacobian
        self._A_real: sp.csr_matrix | None = None
        self._C_real: sp.csr_matrix | None = None
        # node involution the system is invariant under, or None
        self.mirror: np.ndarray | None = None

    @property
    def has_kerr(self) -> bool:
        return self.C.nnz > 0

    def kerr_weights(self, e: np.ndarray) -> np.ndarray:
        """|E|^{2 sigma} per node. Overflow on a diverging iterate is allowed
        to land as inf; the solvers detect and report it."""
        with np.errstate(over="ignore"):
            amp = e.real**2 + e.imag**2
            return amp**self.sigma

    def residual_complex(self, e: np.ndarray) -> np.ndarray:
        # evaluated on diverging iterates too, where overflow to inf is the
        # honest result that the solvers then report
        with np.errstate(over="ignore", invalid="ignore"):
            r = self.A_lin @ e - self.b
            if self.has_kerr:
                r = r + self.C @ (self.kerr_weights(e) * e)
            return r

    def frozen_operator(self, w: np.ndarray) -> sp.csr_matrix:
        """A_lin + C diag(w): the linear operator with |E|^{2 sigma} frozen at w."""
        if not self.has_kerr:
            return self.A_lin
        return (self.A_lin + self.C @ sp.diags(w, format="csr")).tocsr()

    def jacobian_real(self, e: np.ndarray) -> sp.csr_matrix:
        """Exact Jacobian of the real-split residual at the complex field e:
        real_split(A_lin) + real_split(C) D(e), D(e) the block diagonal of
        the nodes' 2x2 Kerr derivative blocks (kerr_block_entries)."""
        if self._A_real is None:
            self._A_real = real_split_matrix(self.A_lin)
            self._C_real = real_split_matrix(self.C)
        if not self.has_kerr:
            return self._A_real
        a, b, c = kerr_block_entries(e, self.sigma)
        blocks = np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)
        n = np.arange(self.size + 1)
        D = sp.bsr_matrix((blocks, n[:-1], n), shape=self._C_real.shape)
        K = self._C_real @ D
        # the product leaves its rows' columns unsorted; sorted, the sum is
        # canonical CSR
        K.sort_indices()
        return (self._A_real + K).tocsr()

    # Born's inner sweeps and Newton's cold start (through linear_inverse)
    # need a fast application of the uniform linear operator's inverse;
    # subclasses provide it.
    def vacuum_operator(self) -> sp.csr_matrix:
        raise NotImplementedError

    def vacuum_solve(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def linear_inverse(self):
        """A function applying A_lin^{-1} to a complex vector without a
        sparse factor, or None where the system has none."""
        return None


def mirror_fold(system: KerrSystem, e: np.ndarray):
    """(half, e[H], gather) for fields symmetric under the system's mirror,
    or None when it has none or the start e is not symmetric under it.

    half is system.half_section(), whose nodes are the orbit representatives
    H in order; a half field x unfolds as x[gather].
    """
    mirror = system.mirror
    if mirror is None or not mirror_invariant(e, mirror):
        return None
    n = mirror.size
    H = np.flatnonzero(np.arange(n) < mirror)
    gather = np.empty(n, dtype=np.int64)
    gather[H] = gather[mirror[H]] = np.arange(H.size)
    return system.half_section(), e[H], gather
