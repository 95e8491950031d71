"""One-dimensional nonlinear Helmholtz boundary-value problem.

The slab is the single-column case of the multi-dimensional scheme: a
`Grid1D` is one Cartesian transverse node, and `Problem1D` is a
`helmholtz_nd.HelmholtzProblem` assembled on it with mirror closures on both
walls. It has that problem's compact 4th-order rows in the layers and
exterior, 7-node one-sided rows at material interfaces and two-way boundary
rows, which inject the prescribed incoming waves while passing outgoing waves
through the discrete dispersion root q; and its vacuum solve and separable
inverse of A_lin. This module adds the 1D front end, the closure data for R/T
extraction, and an exact transfer-matrix oracle for linear stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import solvers
from .errors import OracleRequiresLinear
from .fields import Grid1D, MaterialStack
from .helmholtz_nd import HelmholtzProblem
from .transverse import injection_weight, root_from_ksq

__all__ = [
    "Abc1DClosure",
    "Incoming1D",
    "characteristic_root",
    "Problem1D",
    "assemble_1d",
    "build_problem_1d",
    "transfer_matrix_linear",
    "solve_1d",
    "extract_reflection_transmission",
]


@dataclass(frozen=True)
class Abc1DClosure:
    """Ghost-node elimination data: E_ghost = injection*Einc + propagation*E_edge."""

    q: complex

    @property
    def propagation_weight(self) -> complex:
        return self.q

    @property
    def injection_weight(self) -> complex:
        return injection_weight(self.q)


@dataclass(frozen=True)
class Incoming1D:
    EincL: complex = 0.0
    EincR: complex = 0.0


def characteristic_root(k0: float, h: float) -> Abc1DClosure:
    """Discrete dispersion root for the exterior medium.

    k^2 = k0^2 / (1 + k0^2 h^2 / 12) is the scheme's effective wavenumber; in
    the propagating regime |q| = 1 and q = e^{i k0 h} (1 + O(h^5)).
    """
    if k0 <= 0 or h <= 0:
        raise ValueError("k0 and h must be positive")
    k_sq = k0 * k0 / (1.0 + k0 * k0 * h * h / 12.0)
    return Abc1DClosure(q=root_from_ksq(k_sq, h))


class Problem1D(HelmholtzProblem):
    """The slab as the single-column multi-D problem on its Grid1D: one
    transverse node with mirror closures on both walls (the default at
    M = 1) and a unit transverse step, so the mirrored transverse stencils
    cancel to rounding level. The field has the grid's shape (N+7,).
    """

    def __init__(self, grid: Grid1D, mat: MaterialStack, inc: Incoming1D):
        super().__init__(grid, mat, einc_left=np.array([inc.EincL]),
                         einc_right=np.array([inc.EincR]))

    # defined here, not only inherited, so that perfbench/spans.py can time
    # the 1D vacuum solves apart from the multi-D ones
    def vacuum_solve(self, rhs: np.ndarray) -> np.ndarray:
        return super().vacuum_solve(rhs)


def build_problem_1d(grid: Grid1D, mat: MaterialStack, inc: Incoming1D) -> Problem1D:
    return Problem1D(grid, mat, inc)


def assemble_1d(grid: Grid1D, mat: MaterialStack, inc: Incoming1D,
                E: np.ndarray) -> np.ndarray:
    """Residual of the discrete equations at the field E (complex, length N+7)."""
    E = np.asarray(E, dtype=np.complex128).reshape(-1)
    if E.shape[0] != grid.num_nodes:
        raise ValueError(f"field length {E.shape[0]} != {grid.num_nodes}")
    return Problem1D(grid, mat, inc).residual_complex(E)


def solve_1d(grid: Grid1D, mat: MaterialStack, inc: Incoming1D,
             config=None, method: str = "newton"):
    """Solve the 1D problem; returns (field, SolveReport)."""
    problem = Problem1D(grid, mat, inc)
    return solvers.solve(problem, config=config, method=method)


def extract_reflection_transmission(E: np.ndarray, grid: Grid1D,
                                    closure: Abc1DClosure,
                                    inc: Incoming1D) -> tuple[complex, complex]:
    """Outgoing amplitudes (R at the left, T at the right) of a solved field.

    Decomposes the exterior solution in the discrete two-wave basis: on the
    left E_n = EincL q^n + R q^-n, on the right E_n = T q^(n-N) + EincR q^-(n-N).
    """
    q = closure.q
    E = np.asarray(E).reshape(-1)
    R = (E[grid.index(-1)] - inc.EincL / q) / q
    T = (E[grid.index(grid.N + 1)] - inc.EincR / q) / q
    return R, T


# --- exact linear oracle ----------------------------------------------------

@dataclass(frozen=True)
class TransferMatrixResult:
    R: complex
    T: complex
    evaluate: Callable[[np.ndarray], np.ndarray]


def _interface_matrix(nu_a: float, nu_b: float) -> np.ndarray:
    r = nu_a / nu_b
    return 0.5 * np.array([[1.0 + r, 1.0 - r], [1.0 - r, 1.0 + r]], dtype=np.complex128)


def transfer_matrix_linear(mat: MaterialStack, inc: Incoming1D) -> TransferMatrixResult:
    """Exact reflection/transmission of a linear layered stack by 2x2
    interface/propagation composition, plus a field evaluator for any z.

    Raises OracleRequiresLinear if any layer has eps != 0.
    """
    if not mat.is_linear():
        raise OracleRequiresLinear("transfer-matrix oracle is linear only")
    k0 = mat.k0
    # regions: left exterior, layers, right exterior; (nu, z_start) with
    # coefficients referenced at z_start (left exterior referenced at 0)
    nus = [1.0] + [lay.nu for lay in mat.layers] + [1.0]
    starts = [0.0] + [lay.z_from for lay in mat.layers] + [mat.Zmax]

    # maps[i]: (EincL, R) to region i+1's coefficients, i.e. the composition
    # through its left interface; the last one is the whole stack
    M, maps = np.eye(2, dtype=np.complex128), []
    for i in range(1, len(nus)):
        M = _interface_matrix(nus[i - 1], nus[i]) @ M
        maps.append(M)
        if i < len(nus) - 1:
            L = mat.layers[i - 1].z_to - mat.layers[i - 1].z_from
            ph = np.exp(1j * nus[i] * k0 * L)
            M = np.diag([ph, 1.0 / ph]) @ M
    # [T, EincR]^T = M [EincL, R]^T
    R = (inc.EincR - M[1, 0] * inc.EincL) / M[1, 1]
    T = M[0, 0] * inc.EincL + M[0, 1] * R

    v = np.array([inc.EincL, R], dtype=np.complex128)
    coeff = [v] + [m @ v for m in maps]

    edges = [lay.z_from for lay in mat.layers] + [mat.Zmax]

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        region = np.searchsorted(np.asarray(edges), z, side="right")
        out = np.empty(z.shape, dtype=np.complex128)
        for i in range(len(nus)):
            sel = region == i
            if not sel.any():
                continue
            a, bb = coeff[i]
            ph = np.exp(1j * nus[i] * k0 * (z[sel] - starts[i]))
            out[sel] = a * ph + bb / ph
        return out[0] if scalar else out

    return TransferMatrixResult(R=complex(R), T=complex(T), evaluate=evaluate)
