"""Exception types shared across the package.

Every error raised by the library derives from NlhError so callers can catch
the whole family at once (the CLI maps them to exit code 1).
"""

__all__ = [
    "NlhError", "InvalidGrid", "InterfaceOffGrid", "UnsupportedStencil",
    "StencilOutOfRange", "UnresolvedWave", "DegenerateRoot", "OracleRequiresLinear",
    "IllConditionedEigenbasis", "SingularClosure", "UnsupportedTilt",
    "AdjustmentUndefined", "UnsupportedProfile", "NonNestedGrids", "SingularMatrix",
    "ConfigError",
]


class NlhError(Exception):
    """Base class for all library errors."""


class InvalidGrid(NlhError):
    """Grid parameters violate a precondition (N too small, nonpositive extent...)."""


class InterfaceOffGrid(NlhError):
    """A material interface does not coincide with a grid node.

    Carries the offending interface position in .position.
    """

    def __init__(self, position: float, message: str | None = None):
        self.position = position
        super().__init__(message or f"interface at z={position!r} does not lie on a grid node")


class UnsupportedStencil(NlhError):
    """Requested (derivative, accuracy) pair is not in the supported operator set."""


class StencilOutOfRange(NlhError):
    """Stencil application would read outside the stored node range."""


class UnresolvedWave(NlhError):
    """k^2 h^2 >= 4: fewer than ~pi points per wavelength, the characteristic
    root has no meaningful branch."""


class DegenerateRoot(NlhError):
    """k^2 h^2 = 2: the characteristic equation's standard parameterization is
    singular."""


class OracleRequiresLinear(NlhError):
    """Transfer-matrix oracle called with a nonlinear (eps != 0) layer."""


class IllConditionedEigenbasis(NlhError):
    """Transverse eigenvector matrix is numerically singular (cond > 1e12) or
    the eigensolve failed."""


class SingularClosure(NlhError):
    """Radiation boundary closure has a vanishing elimination denominator."""


class UnsupportedTilt(NlhError):
    """Tilted beam requested in a geometry that cannot represent it."""


class AdjustmentUndefined(NlhError):
    """Beam amplitude adjustment has a negative radicand (strongly defocusing)."""


class UnsupportedProfile(NlhError):
    """Operation defined only for a specific beam profile family."""


class NonNestedGrids(NlhError):
    """Convergence study grids are not related by factor-2 refinement."""


class SingularMatrix(NlhError):
    """Sparse direct solve failed or produced an unacceptable residual."""


class ConfigError(NlhError):
    """Run configuration is malformed; message names the offending field."""
