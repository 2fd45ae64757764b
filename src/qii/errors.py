"""Exception types shared across the package."""

import csv
from contextlib import contextmanager


class QiiError(Exception):
    """Base class for all library errors."""


class ZeroVector(QiiError):
    """Vector norm too small to normalize."""


class DimensionMismatch(QiiError):
    """Operands with incompatible dimensions."""


class DegenerateAtTolerance(QiiError):
    """Requested a single band whose gap is below the degeneracy tolerance."""


class NonFiniteDerivative(QiiError):
    """Finite differences produced non-finite values."""


class IllConditionedSegment(QiiError):
    """Consecutive loop states are (nearly) orthogonal."""


class WrongDimension(QiiError):
    """Operation requires a specific Hilbert-space dimension."""


class PoleDegenerate(QiiError):
    """No usable reference point for the solid-angle triangulation."""


class BadResolution(QiiError):
    """Too few samples for a well-defined loop."""


class DegenerateSpec(QiiError):
    """Loop specification produces invalid (near-orthogonal) segments."""


class OutOfRange(QiiError):
    """Parameter outside its admissible interval."""


class AreaExceedsSphere(QiiError):
    """Enclosed area larger than the total sphere area."""


class EmptyInput(QiiError):
    """Aggregate operation received no data."""


class NotCyclic(QiiError):
    """Trajectory endpoints do not coincide projectively."""


class NormDrift(QiiError):
    """Integrator norm drift exceeded its tolerance."""


class SingularAtDiracPoint(QiiError):
    """Closed-form metric evaluated at k = 0."""


@contextmanager
def file_errors(path):
    """Re-raise a parse error inside (bytes, JSON, number, CSV line) as OutOfRange naming `path`."""
    try:
        yield
    except (ValueError, csv.Error) as exc:
        raise OutOfRange(f"{path}: {exc}") from None
