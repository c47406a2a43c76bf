"""Exception and warning types shared across the package."""

__all__ = (
    "DcError",
    "NumericalError",
    "LineSearchError",
    "EvaluationOverflow",
    "GenerationError",
    "SchemaError",
    "TheoryWarning",
    "SchemaWarning",
)


class DcError(Exception):
    """Base class for solver-level failures."""


class NumericalError(DcError):
    """A linear solve or inner minimization could not be completed reliably."""


class LineSearchError(DcError):
    """A line search exhausted its backtracking budget without acceptance."""


class EvaluationOverflow(NumericalError):
    """An objective evaluation would overflow (its guard tripped).

    Line searches read it as a rejected trial point; at an accepted point
    it ends a solve as NumericalFailure, as any NumericalError does.
    """

    def __init__(self, max_exponent, limit, quantity="exponent"):
        super().__init__(f"{quantity} {max_exponent:.3g} exceeds overflow guard {limit:.3g}")


class GenerationError(DcError):
    """The network generator could not satisfy its structural constraints."""


class SchemaError(DcError, ValueError):
    """An input file (a model, a trace or table, a series or a mass file)
    failed structural validation.

    Carries the offending field, or the file's path, so CLI output can
    point at it.  It is also a ValueError, the error of a bad value.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class TheoryWarning(UserWarning):
    """A configuration leaves the convergence guarantees unsupported."""


class SchemaWarning(UserWarning):
    """A model is structurally valid but violates a soft modelling convention."""
