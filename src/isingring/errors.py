"""Exception and warning types shared across the package, and the integer
check its API boundaries share."""

import operator


def _check_integer(name: str, value) -> int:
    """``value`` as an int; ValueError unless it is a Python or numpy integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


class CapacityError(ValueError):
    """Requested ring size exceeds ``MAX_SITES``."""


class EigensolverError(RuntimeError):
    """Eigensolver failed to produce a trustworthy eigenpair."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual norm {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class QuadratureError(RuntimeError):
    """The correlator quadrature's error estimate exceeds its tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class NonXStateWarning(UserWarning):
    """Input lacked the X sparsity pattern; the numerical search alone sets the value."""


class ConvergenceWarning(UserWarning):
    """An iterative optimization stopped on budget rather than on tolerance."""
