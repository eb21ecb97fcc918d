"""Exception and warning types shared across the package."""


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
    """Adaptive quadrature could not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class NonXStateWarning(UserWarning):
    """Input lacked the X sparsity pattern; the numerical search alone sets the value."""


class ConvergenceWarning(UserWarning):
    """An iterative optimization stopped on budget rather than on tolerance."""
