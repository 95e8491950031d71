"""Internal: the algebra of an assembled Kerr system.

A discrete problem is F(E) = A_lin E + C P(E) - b, with E the complex field
flattened n-major, P(E) = |E|^{2 sigma} E applied pointwise, A_lin the
field-independent part (difference operators, boundary closures, material
terms on E) and C the coupling coefficients multiplying P; a linear problem
is the case C = 0, which each formula here covers. KerrSystem evaluates
the residual, frozen operators and the exact real-split Jacobian,
real_split(A_lin) + real_split(C) D(E), over the matrices that its
subclass `helmholtz_nd.HelmholtzProblem` provides (see `_Operator` there).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

__all__ = ["KerrSystem", "real_split_matrix", "kerr_block_entries"]


def real_split_matrix(A: sp.spmatrix) -> sp.csr_matrix:
    """Real 2x2-block representation of a complex matrix, the Kronecker
    identity Re A (x) I2 + Im A (x) J2 with J2 = [[0, -1], [1, 0]]: entry
    a+ib at (i, j) becomes [[a, -b], [b, a]] at rows/cols (2i, 2i+1) x
    (2j, 2j+1), the interleaved (Re, Im) layout of fields.to_real_split.
    Summed as BSR, each entry keeps its whole block, zeros included.
    """
    J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    return (sp.kron(A.real, np.identity(2), format="bsr")
            + sp.kron(A.imag, J2, format="bsr")).tocsr()


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
    """The algebra of an assembled discrete system with a pointwise Kerr
    nonlinearity. It has no constructor and caches nothing: a subclass
    provides A_lin and C (complex CSR, size x size), _real_split (their
    real_split_matrix pair), b (complex, size), sigma and size."""

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
            return self.A_lin @ e - self.b + self.C @ (self.kerr_weights(e) * e)

    def frozen_operator(self, w: np.ndarray) -> sp.csr_matrix:
        """A_lin + C diag(w): the linear operator with |E|^{2 sigma} frozen at w."""
        return (self.A_lin + self.C @ sp.diags(w, format="csr")).tocsr()

    def jacobian_real(self, e: np.ndarray) -> sp.csr_matrix:
        """Exact Jacobian of the real-split residual at the complex field e:
        real_split(A_lin) + real_split(C) D(e), D(e) the block diagonal of
        the nodes' 2x2 Kerr derivative blocks (kerr_block_entries)."""
        A_real, C_real = self._real_split
        a, b, c = kerr_block_entries(e, self.sigma)
        blocks = np.stack([a, b, b, c], axis=-1).reshape(-1, 2, 2)
        n = np.arange(self.size + 1)
        D = sp.bsr_matrix((blocks, n[:-1], n), shape=C_real.shape)
        K = C_real @ D
        # the product leaves its rows' columns unsorted; sorted, the sum is
        # canonical CSR
        K.sort_indices()
        return (A_real + K).tocsr()
