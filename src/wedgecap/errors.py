"""Exception hierarchy shared across the package."""


class WedgecapError(Exception):
    """Base class for all library errors."""


class GeometryError(WedgecapError, ValueError):
    """Invalid geometric specification."""


class DegenerateOpeningError(GeometryError):
    """Wedge opening angle alpha1 >= 2*pi (the degenerate slit)."""


class PoleEndpointError(GeometryError):
    """Angular interval touches a coordinate pole without the singular-endpoint mode."""


class CodimensionRangeError(GeometryError):
    """Codimension k outside 1..N."""


class UnknownStratumError(WedgecapError, KeyError):
    """Referenced stratum id does not exist in the polyhedron."""


class DomainError(WedgecapError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a kernel singularity."""


class AccuracyError(WedgecapError, RuntimeError):
    """Quadrature did not reach the requested tolerance.

    Carries the best available value and its error estimate.
    """

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


class DivergenceError(WedgecapError, RuntimeError):
    """Integral is divergent for the supplied parameters; use a cutoff probe."""


class SolverError(WedgecapError, RuntimeError):
    """Optimization did not converge.  Carries the achieved gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class ResolutionError(WedgecapError, ValueError):
    """Sampling grid too coarse for the requested norm."""


class ConfigurationError(WedgecapError, ValueError):
    """Inconsistent or incomplete run configuration."""


class AnomalyError(WedgecapError, RuntimeError):
    """A numerical experiment contradicts an analytic prediction.

    Raised loudly, with the raw experiment report attached, instead of
    returning a quietly failed report.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
