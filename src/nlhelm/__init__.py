"""Fourth-order frequency-domain solver for beams in layered Kerr media.

The package solves the scalar nonlinear Helmholtz problem on 1D slab and
2D Cartesian / cylindrical grids with two-way radiating boundaries, and
ships the supporting tooling: compact finite-difference stencils, transverse
operator eigendecompositions, Newton / freezing / Born iterations, beam
construction and diagnostics, and a batch CLI.
"""

from .errors import *
from .fields import *
from .stencils import *
from .transverse import *
from .helmholtz_nd import *
from .helmholtz_1d import *
from .solvers import *
from .beams import *
from . import beams, errors, fields, helmholtz_1d, helmholtz_nd, solvers, stencils, transverse

__version__ = "1.0.0"

# each module's __all__ is the one list of its public names
__all__ = [name for module in (errors, fields, stencils, transverse, helmholtz_nd,
                               helmholtz_1d, solvers, beams)
           for name in module.__all__]
