"""Grids, material stacks, node classification and field containers.

Longitudinal grids carry N+7 stored nodes n = -3..N+3 (three exterior nodes on
each side of the slab [0, Zmax]); the ghost nodes n = -4 and N+4 exist only as
concepts eliminated into the boundary rows. Transverse grids are cell-centered
so no node sits on the cylindrical axis. A 1D grid is the single Cartesian
column M = 1 of the multi-D scheme; every grid states its field shape.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InterfaceOffGrid, InvalidGrid

__all__ = [
    "Grid1D",
    "GridMultiD",
    "Layer",
    "MaterialStack",
    "NodeClass",
    "build_grid_1d",
    "build_grid_multi",
    "classify_nodes",
    "sample_material",
    "homogeneous_stack",
    "interface_nodes",
    "field_zeros",
    "to_real_split",
    "from_real_split",
]

EXTERIOR_NU = 1.0
EXTERIOR_EPS = 0.0

# relative tolerance for "interface sits on a node"
_NODE_SNAP = 1e-12


class NodeClass(Enum):
    EXTERIOR = "exterior"
    INTERIOR = "interior"
    INTERFACE = "interface"
    ABC_ROW = "abc_row"


class _Longitudinal:
    """Longitudinal node bookkeeping shared by the grids, in terms of their
    step self.h."""

    @property
    def delta(self) -> float:
        """Offset of the boundary row from the slab: 3h."""
        return 3.0 * self.h

    @property
    def num_nodes(self) -> int:
        return self.N + 7

    def z(self, n) -> np.ndarray | float:
        return np.asarray(n, dtype=float) * self.h if np.ndim(n) else float(n) * self.h

    def z_nodes(self) -> np.ndarray:
        return np.arange(-3, self.N + 4, dtype=float) * self.h

    def index(self, n: int | np.ndarray) -> int | np.ndarray:
        """Storage index of longitudinal node(s) n (n = -3 maps to 0)."""
        return n + 3


@dataclass(frozen=True)
class Grid1D(_Longitudinal):
    """Uniform longitudinal grid: nodes z_n = n*h for n = -3..N+3, and the
    single transverse column of the multi-D scheme (class constants, not
    fields): one Cartesian node at x = 0 with a unit step."""

    N: int
    Zmax: float
    h: float

    M = 1
    h_perp = 1.0
    geometry = "cartesian"

    @property
    def h_z(self) -> float:
        return self.h

    @property
    def field_shape(self) -> tuple[int]:
        return (self.num_nodes,)

    def transverse_coords(self) -> np.ndarray:
        return np.zeros(1)


@dataclass(frozen=True)
class GridMultiD(_Longitudinal):
    """Longitudinal grid as Grid1D plus a cell-centered transverse grid.

    Cartesian: x_m = -Xmax + (m+1/2) h_perp, m = 0..M-1, h_perp = 2 Xmax / M.
    Cylindrical: rho_m = (m+1/2) h_perp, h_perp = Rmax / M; every rho_m > 0.
    """

    N: int
    Zmax: float
    h_z: float
    M: int
    extent: float  # Xmax (cartesian) or Rmax (cylindrical)
    h_perp: float
    geometry: str  # "cartesian" | "cylindrical"

    @property
    def h(self) -> float:
        # longitudinal step, for APIs shared with Grid1D
        return self.h_z

    @property
    def field_shape(self) -> tuple[int, int]:
        return (self.num_nodes, self.M)  # row-major in n, contiguous in m

    def transverse_coords(self) -> np.ndarray:
        m = np.arange(self.M, dtype=float) + 0.5
        if self.geometry == "cartesian":
            return -self.extent + m * self.h_perp
        return m * self.h_perp

    def longitudinal(self) -> Grid1D:
        return Grid1D(N=self.N, Zmax=self.Zmax, h=self.h_z)


@dataclass(frozen=True)
class Layer:
    z_from: float
    z_to: float
    nu: float
    eps: float


@dataclass(frozen=True)
class MaterialStack:
    """Piecewise-constant material partition of [0, Zmax].

    The exterior (z < 0 and z > Zmax) is fixed linear with nu=1, eps=0.
    sigma is the nonlinearity exponent (1 = cubic, 2 = quintic).
    """

    k0: float
    sigma: float
    layers: tuple[Layer, ...]

    def __post_init__(self):
        # a tuple, given any sequence, so the stack hashes: problems key
        # their shared operator by it (helmholtz_nd)
        object.__setattr__(self, "layers", tuple(self.layers))
        _check_positive_finite(k0=self.k0, sigma=self.sigma)
        if not self.layers:
            raise InvalidGrid("material stack needs at least one layer")
        for i, lay in enumerate(self.layers):
            for name, value in vars(lay).items():
                if not math.isfinite(value):
                    raise InvalidGrid(f"layers[{i}].{name} must be finite, got {value}")
        if self.layers[0].z_from != 0.0:
            raise InvalidGrid("first layer must start at z=0")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.z_to != b.z_from:
                raise InvalidGrid(
                    f"layers must be contiguous: {a.z_to!r} != {b.z_from!r}"
                )
        for lay in self.layers:
            if not lay.z_to > lay.z_from:
                raise InvalidGrid("layer endpoints must be strictly increasing")
            if lay.nu <= 0:
                raise InvalidGrid(f"nu must be positive, got {lay.nu}")

    @property
    def Zmax(self) -> float:
        return self.layers[-1].z_to

    def partition_points(self) -> list[float]:
        return [self.layers[0].z_from] + [lay.z_to for lay in self.layers]

    def is_linear(self) -> bool:
        return all(lay.eps == 0.0 for lay in self.layers)


def _check_positive_finite(**values):
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise InvalidGrid(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value, least: int):
    """A node count: an integer (NumPy's too; a float is not truncated)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidGrid(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidGrid(f"{name} must be at least {least}, got {value}")


def homogeneous_stack(k0: float, Zmax: float, nu: float = 1.0, eps: float = 0.0,
                      sigma: float = 1.0) -> MaterialStack:
    """Single-layer stack covering [0, Zmax]."""
    return MaterialStack(k0=k0, sigma=sigma, layers=(Layer(0.0, Zmax, nu, eps),))


def build_grid_1d(Zmax: float, N: int) -> Grid1D:
    """Uniform grid with h = Zmax/N. Requires N >= 8 (the interface and
    boundary stencils need 7 nodes on the interior side)."""
    _check_count("N", N, 8)
    _check_positive_finite(Zmax=Zmax)
    return Grid1D(N=int(N), Zmax=float(Zmax), h=float(Zmax) / int(N))


def build_grid_multi(Zmax: float, N: int, extent: float, M: int,
                     geometry: str) -> GridMultiD:
    """Cell-centered multi-D grid; warns (does not fail) when the two steps
    differ by more than a factor of 4."""
    if geometry not in ("cartesian", "cylindrical"):
        raise InvalidGrid(f"unknown geometry {geometry!r}")
    _check_count("N", N, 8)
    _check_count("M", M, 1)
    _check_positive_finite(Zmax=Zmax, extent=extent)
    h_z = float(Zmax) / int(N)
    width = 2.0 * extent if geometry == "cartesian" else float(extent)
    h_perp = width / int(M)
    ratio = max(h_z, h_perp) / min(h_z, h_perp)
    if ratio > 4.0:
        warnings.warn(
            f"grid steps h_z={h_z:.4g}, h_perp={h_perp:.4g} differ by {ratio:.2f}x; "
            "the scheme is designed for comparable steps",
            stacklevel=2,
        )
    return GridMultiD(N=int(N), Zmax=float(Zmax), h_z=h_z, M=int(M),
                      extent=float(extent), h_perp=h_perp, geometry=geometry)


def interface_nodes(grid, mat: MaterialStack) -> list[int]:
    """Longitudinal node index of every partition point (including 0 and N).

    Raises InterfaceOffGrid if a partition point misses every node by more
    than 1e-12 * h.
    """
    h = grid.h
    out = []
    for zt in mat.partition_points():
        n = round(zt / h)
        if abs(zt - n * h) > _NODE_SNAP * h:
            raise InterfaceOffGrid(zt)
        out.append(int(n))
    if out[0] != 0 or out[-1] != grid.N:
        raise InterfaceOffGrid(mat.partition_points()[-1],
                               "material partition does not span [0, Zmax] of the grid")
    return out


def classify_nodes(grid, mat: MaterialStack) -> list[NodeClass]:
    """Class per longitudinal node n = -3..N+3, as a list indexed by n+3.

    Every partition point (including the slab edges 0 and N) is INTERFACE,
    regardless of whether the coefficients actually jump there; the
    assembler separately falls back to the ordinary compact row when the
    materials match across a partition point, since smoothness then makes
    it fourth-order accurate.
    """
    iface = set(interface_nodes(grid, mat))
    N = grid.N
    out = []
    for n in range(-3, N + 4):
        if n == -3 or n == N + 3:
            out.append(NodeClass.ABC_ROW)
        elif n in iface:
            out.append(NodeClass.INTERFACE)
        elif 0 < n < N:
            out.append(NodeClass.INTERIOR)
        else:
            out.append(NodeClass.EXTERIOR)
    return out


def cell_material(mat: MaterialStack, grid, cells):
    """(nu, eps) of the cells [n, n+1] for n in cells, an int or an int
    array: the layer whose node range holds the cell, the exterior (1, 0)
    outside the slab. The one lookup of the material a node sees."""
    nu = np.array([EXTERIOR_NU, *(lay.nu for lay in mat.layers), EXTERIOR_NU])
    eps = np.array([EXTERIOR_EPS, *(lay.eps for lay in mat.layers), EXTERIOR_EPS])
    layer = np.searchsorted(interface_nodes(grid, mat), cells, side="right")
    return nu[layer], eps[layer]


def sample_material(mat: MaterialStack, grid, n: int, side: str) -> tuple[float, float]:
    """(nu, eps) at longitudinal node n, taking the requested one-sided limit:
    the cell [n-1, n] on the left, [n, n+1] on the right.

    Away from interfaces both sides agree. The exterior is (1, 0).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if n < -3 or n > grid.N + 3:
        raise ValueError(f"node {n} outside stored range")
    nu, eps = cell_material(mat, grid, n - (side == "left"))
    return float(nu), float(eps)


# --- field containers -------------------------------------------------------

def field_zeros(grid) -> np.ndarray:
    """Zero complex field over the stored nodes, of the grid's field_shape."""
    return np.zeros(grid.field_shape, dtype=np.complex128)


def to_real_split(E: np.ndarray) -> np.ndarray:
    """Complex field -> real vector of twice the length, interleaved
    (Re, Im) per node, nodes flattened n-major m-minor: a copy of the
    complex128 buffer read as float64."""
    return np.array(E, dtype=np.complex128, order="C").reshape(-1).view(np.float64)


def from_real_split(v: np.ndarray, shape) -> np.ndarray:
    """Inverse of to_real_split, a copy of the float64 buffer read as
    complex128: bit for bit, signed zeros, infinities and NaNs included."""
    flat = np.array(v, dtype=np.float64, order="C").reshape(-1)
    return flat.view(np.complex128).reshape(shape)
