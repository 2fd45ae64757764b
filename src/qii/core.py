"""State-vector primitives and small dense Hermitian linear algebra.

A "state vector" is any 1-D complex numpy array with unit norm; all
functions here are pure and never mutate their inputs.  Matrices are
small (M <= ~16), so everything goes through dense numpy routines.
"""

import numpy as np

from .config import TOL
from .errors import (DegenerateAtTolerance, DimensionMismatch, NotHermitian,
                     ZeroVector)


def as_cvector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("vector has non-finite entries")
    return arr


def normalize(v) -> np.ndarray:
    """Return v / ||v||, preserving direction."""
    arr = as_cvector(v)
    nrm = np.linalg.norm(arr)
    if nrm <= TOL.zero_vector:
        raise ZeroVector(f"cannot normalize a vector of norm {nrm}")
    return arr / nrm


def overlap(a, b) -> complex:
    """Inner product <a|b> with the first argument conjugated."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"overlap of shapes {a.shape} and {b.shape}")
    return complex(np.vdot(a, b))


def projector(psi) -> np.ndarray:
    """Rank-one projector |psi><psi| for a normalized state."""
    arr = as_cvector(psi)
    if abs(np.linalg.norm(arr) - 1.0) > TOL.norm:
        raise ZeroVector("projector requires a normalized state")
    return np.outer(arr, arr.conj())


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] == 0:
        raise DimensionMismatch(f"expected square matrices, got shape {h.shape}")
    scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    if np.any(np.abs(h - h.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
              > TOL.hermitian * scale):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return h


def eigh(h, require_gap_at: int | None = None):
    """Eigendecomposition of a Hermitian matrix, or of an (n, M, M) stack.

    Returns (values, vectors) with values ascending and vectors[..., i, :]
    the normalized eigenvector belonging to values[..., i].  For a single
    matrix and a band index require_gap_at, raises DegenerateAtTolerance
    if its gap to a neighboring eigenvalue is below the degeneracy
    tolerance (an ill-posed band selection).
    """
    h = _check_hermitian(h)
    vals, vecs = np.linalg.eigh(h)
    if require_gap_at is not None:
        if h.ndim != 2:
            raise DimensionMismatch("a band gap check needs a single matrix")
        i = require_gap_at
        if i < 0 or i >= len(vals):
            raise DimensionMismatch(f"band index {i} out of range")
        scale = float(np.abs(vals).max())
        gap = np.inf
        if i > 0:
            gap = min(gap, vals[i] - vals[i - 1])
        if i < len(vals) - 1:
            gap = min(gap, vals[i + 1] - vals[i])
        if gap < TOL.degeneracy * max(scale, TOL.zero_vector):
            raise DegenerateAtTolerance(
                f"band {i} gap {gap:.3e} below {TOL.degeneracy:.0e} * ||H||")
    return vals, vecs.swapaxes(-2, -1).copy()


def gauge_fix(psi) -> np.ndarray:
    """Rotate the global phase so the first non-negligible entry is real positive.

    psi is one state or an (n, M) stack of states, fixed row by row.
    """
    arr = np.asarray(psi, dtype=complex)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise DimensionMismatch(f"expected states of shape (M,) or (n, M), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    big = np.abs(arr) > TOL.gauge_zero
    if not np.all(big.any(axis=-1)):
        raise ZeroVector("all entries below the gauge-fixing threshold")
    lead = np.take_along_axis(arr, big.argmax(axis=-1)[..., None], axis=-1)
    return arr / (lead / np.abs(lead))


class ProjectivePoint:
    """Canonical representative of a ray in CP^(M-1).

    The stored representative has unit norm and its first non-negligible
    entry real positive, so gauge fixing is idempotent and representatives
    of the same ray compare equal.
    """

    __slots__ = ("rep",)

    def __init__(self, v):
        self.rep = gauge_fix(normalize(v))
        self.rep.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.rep.shape[0]

    def distance(self, other: "ProjectivePoint") -> float:
        """Geodesic Fubini-Study distance to another point."""
        ov = min(1.0, abs(overlap(self.rep, other.rep)))
        return float(np.arccos(ov))

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.dim != other.dim:
            return False
        return abs(abs(overlap(self.rep, other.rep)) - 1.0) <= TOL.projective_eq

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.rep, precision=6)})"
