"""Generators, refinement, perturbation, and splitting of discretized loops.

All generators return `geometry.Loop` values; randomness is always driven
by an explicit seed or Generator so property suites are reproducible.
"""

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import TOL
from .errors import (BadResolution, DegenerateSpec, EmptyInput,
                     IllConditionedSegment, OutOfRange, WrongDimension,
                     ZeroVector)
from .geometry import _COLUMN_MAJOR_BELOW, Loop, _row_norms

__all__ = [
    "FourierLoopSpec", "min_resolution", "check_fourier_shape", "bloch_circle", "bloch_states",
    "great_circle", "spherical_polygon", "fourier_loop", "random_fourier_spec",
    "perturb_circle", "refine", "split_self_intersections",
    "save_loop", "load_loop",
]


def bloch_states(theta, phi) -> np.ndarray:
    """Spinors (cos(theta/2), e^{i phi} sin(theta/2)) for angle arrays."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return np.stack([np.cos(theta / 2.0) * np.ones_like(phi),
                     np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1)


def bloch_circle(theta: float, n: int) -> Loop:
    """Constant-polar-angle circle on the Bloch sphere, n samples."""
    if n < 3:
        raise BadResolution(f"need n >= 3 samples, got {n}")
    if not 0.0 < theta < np.pi:
        raise OutOfRange(f"polar angle {theta} outside (0, pi)")
    phi = 2.0 * np.pi * np.arange(n) / n
    return Loop(bloch_states(theta, phi))


def _vectors_to_states(vecs: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(vecs[:, 2], -1.0, 1.0))
    phi = np.arctan2(vecs[:, 1], vecs[:, 0])
    return bloch_states(theta, phi)


def _unit_axis(axis) -> np.ndarray:
    """`axis` as a unit 3-vector; rejects other shapes and axes without a
    finite non-zero norm."""
    axis = np.asarray(axis, dtype=float)
    if axis.shape != (3,):
        raise WrongDimension(f"great-circle axis must be a 3-vector, got shape {axis.shape}")
    norm = np.linalg.norm(axis)
    if not (np.isfinite(norm) and norm > TOL.zero_vector):
        raise ZeroVector(f"great-circle axis {axis.tolist()} has no finite non-zero norm")
    return axis / norm


def great_circle(axis, n: int, turns: int = 1) -> Loop:
    """Great circle of the Bloch sphere normal to `axis`, traversed `turns` times."""
    if n < 3:
        raise BadResolution(f"need n >= 3 samples, got {n}")
    if turns < 1:
        raise OutOfRange(f"need turns >= 1, got {turns}")
    axis = _unit_axis(axis)
    # deterministic frame: cross with the least-aligned basis vector
    seed = np.zeros(3)
    seed[np.abs(axis).argmin()] = 1.0
    u = np.cross(axis, seed)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    t = 2.0 * np.pi * turns * np.arange(n) / n
    vecs = np.outer(np.cos(t), u) + np.outer(np.sin(t), v)
    return Loop(_vectors_to_states(vecs))


def _slerp_vectors(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Great-circle interpolation between unit 3-vectors a, b at fractions ts."""
    ang = np.arccos(np.clip(np.dot(a, b), -1.0, 1.0))
    if ang < 1e-12:
        return np.repeat(a[None, :], len(ts), axis=0)
    return (np.outer(np.sin((1.0 - ts) * ang), a)
            + np.outer(np.sin(ts * ang), b)) / np.sin(ang)


def spherical_polygon(n_vertices: int, theta: float, n_per_edge: int) -> Loop:
    """Geodesic polygon with vertices at polar angle theta, equal azimuths."""
    if n_vertices < 3:
        raise BadResolution(f"need at least 3 vertices, got {n_vertices}")
    if n_per_edge < 1 or n_vertices * n_per_edge < 3:
        raise BadResolution("too few samples per edge")
    if not 0.0 < theta < np.pi:
        raise OutOfRange(f"polar angle {theta} outside (0, pi)")
    phis = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    verts = np.stack([np.sin(theta) * np.cos(phis),
                      np.sin(theta) * np.sin(phis),
                      np.full(n_vertices, np.cos(theta))], axis=1)
    ts = np.arange(n_per_edge) / n_per_edge
    pieces = [_slerp_vectors(verts[i], verts[(i + 1) % n_vertices], ts)
              for i in range(n_vertices)]
    return Loop(_vectors_to_states(np.concatenate(pieces, axis=0)))


def min_resolution(k: int) -> int:
    """Fewest samples that resolve Fourier harmonics up to k."""
    return 8 * (k + 1)


def check_fourier_shape(m_dim: int, k: int, n: int):
    """The shape rule of every Fourier loop: M >= 2, k >= 0 and n >= min_resolution(k)."""
    if m_dim < 2:
        raise OutOfRange("need at least a two-level system")
    if k < 0:
        raise OutOfRange("harmonic cutoff must be >= 0")
    if n < min_resolution(k):
        raise BadResolution(f"n = {n} under-resolves harmonics up to {k}; "
                            f"need n >= {min_resolution(k)}")


def check_seed(seed: int):
    """A seed of a numpy generator or seed sequence is a non-negative integer."""
    if seed < 0:
        raise OutOfRange(f"seed must be a non-negative integer, got {seed}")


@dataclass(frozen=True)
class FourierLoopSpec:
    """Loop z_i(t) = sum_m c_{i,m} e^{i m t} in the (1, z) chart of CP^{M-1}.

    coeffs has shape (m_dim - 1, 2*k + 1) with harmonics ordered
    -k .. 0 .. k; the loop is sampled at n equispaced t values.
    """

    m_dim: int
    coeffs: np.ndarray
    k: int
    n: int

    def __post_init__(self):
        check_fourier_shape(self.m_dim, self.k, self.n)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.m_dim - 1, 2 * self.k + 1):
            raise OutOfRange(
                f"coeffs shape {coeffs.shape} != {(self.m_dim - 1, 2 * self.k + 1)}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def with_resolution(self, n: int) -> "FourierLoopSpec":
        return FourierLoopSpec(self.m_dim, self.coeffs, self.k, n)


@lru_cache(maxsize=32)
def _fourier_basis(n: int, k: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(n) / n
    modes = np.arange(-k, k + 1)
    basis = np.exp(1j * np.outer(t, modes))          # (n, 2k+1)
    basis.setflags(write=False)
    return basis


def fourier_states(spec: FourierLoopSpec) -> np.ndarray:
    """The loop's n normalized samples (1, z(t_j)) / |(1, z(t_j))| at
    t_j = 2 pi j / n, as an (n, M) array.

    For M < 8 the array is column-major (Fortran order): a row norm then
    adds M columns of n amplitudes instead of reducing each short row on
    its own, about three times as fast at M = 3 and n = 2048.  The values
    are the same bit for bit as in the row-major layout, which wider
    states keep (`geometry._COLUMN_MAJOR_BELOW`).
    """
    order = "F" if spec.m_dim < _COLUMN_MAJOR_BELOW else "C"
    states = np.empty((spec.n, spec.m_dim), dtype=complex, order=order)
    states[:, 0] = 1.0
    states[:, 1:] = _fourier_basis(spec.n, spec.k) @ spec.coeffs.T
    states /= _row_norms(states)[:, None]
    return states


def fourier_loop(spec: FourierLoopSpec) -> Loop:
    """Sample the Fourier-parametrized loop; reject ill-conditioned specs."""
    try:
        return Loop(fourier_states(spec))
    except IllConditionedSegment as exc:   # n >= 8 rows: a near-orthogonal segment
        raise DegenerateSpec(str(exc)) from None


def random_fourier_spec(m_dim: int, k: int, n: int, rng, scale: float = 0.6) -> FourierLoopSpec:
    """Random spec with harmonic amplitudes decaying like 1/(1+|m|)."""
    check_fourier_shape(m_dim, k, n)   # before any draw
    if isinstance(rng, (int, np.integer)):
        check_seed(rng)
        rng = np.random.default_rng(rng)
    modes = np.arange(-k, k + 1)
    sigma = scale / (1.0 + np.abs(modes))
    shape = (m_dim - 1, 2 * k + 1)
    coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * sigma
    return FourierLoopSpec(m_dim=m_dim, coeffs=coeffs, k=k, n=n)


def perturb_circle(theta: float, eps: float, mode: int, n: int) -> Loop:
    """Bloch circle with modulated polar angle theta + eps*cos(mode*phi)."""
    if eps < 0 or mode < 1:
        raise OutOfRange("need eps >= 0 and mode >= 1")
    if n < 3:
        raise BadResolution(f"need n >= 3 samples, got {n}")
    if not (0.0 < theta - eps and theta + eps < np.pi):
        raise OutOfRange(f"theta +- eps leaves (0, pi): {theta} +- {eps}")
    phi = 2.0 * np.pi * np.arange(n) / n
    return Loop(bloch_states(theta + eps * np.cos(mode * phi), phi))


def refine(loop: Loop, factor: int) -> Loop:
    """Insert factor-1 geodesic intermediates per segment.

    Representatives are phase-aligned so <psi_j|psi_{j+1}> > 0 before
    interpolating; the spherical interpolation then runs along the
    projective geodesic, keeping the refinement gauge independent.
    """
    if factor < 2:
        raise BadResolution("refinement factor must be >= 2")
    states = loop.states
    nxt, ovl, mod = loop._overlaps
    aligned = nxt * np.exp(-1j * np.angle(ovl))[:, None]
    alpha = np.arccos(np.clip(mod, 0.0, 1.0))[:, None]
    tiny = alpha < 1e-12  # degenerate segment: fall back to linear weights
    sin_alpha = np.sin(np.where(tiny, 1.0, alpha))
    out = np.empty((loop.n, factor, loop.dim), dtype=complex)
    for step in range(factor):
        t = step / factor
        w0 = np.where(tiny, 1.0 - t, np.sin((1.0 - t) * alpha) / sin_alpha)
        w1 = np.where(tiny, t, np.sin(t * alpha) / sin_alpha)
        out[:, step, :] = w0 * states + w1 * aligned
    flat = out.reshape(loop.n * factor, loop.dim)
    return Loop(flat / np.linalg.norm(flat, axis=1, keepdims=True))


_KEY_SEED = 20250320      # fixed, so the candidate sets are reproducible
_PAIR_CHUNK = 1 << 20     # candidate pairs tested per block
_EPS = float(np.finfo(float).eps)
_NO_PAIRS = np.empty((0, 2), dtype=np.intp)
_NO_PAIRS.setflags(write=False)


@lru_cache(maxsize=32)
def _key_vector(m: int) -> np.ndarray:
    """conj(v) for a fixed-seed random unit vector v in C^m, read-only."""
    rng = np.random.default_rng(_KEY_SEED)
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    v_conj = (v / np.linalg.norm(v)).conj()
    v_conj.setflags(write=False)
    return v_conj


def _coincidence_key(states: np.ndarray):
    """(key, squared row norms) of the rows x of `states`, with
    key(x) = |<v|x>|^2 / <x|x> = tr(A P_x) for A = |v><v| (`_key_vector`).

    <v|x> and <x|x> each add the m columns of an elementwise product, so
    the states are read in their own layout.  A BLAS matvec is faster on
    one thread, but OpenBLAS threads it from about n = 1500 at m = 3, and
    on a loaded two-core host some runs then stalled for about 8 ms a call.

    Rounding, with gamma_n ~ n eps / 2: the complex dot of length m errs by
    at most sqrt(2) gamma_{m+1} |v| |x| and |<v|x>|^2 by gamma_2 more, so
    the numerator errs by under (sqrt(2) (m + 1) + 1) eps |x|^2; the
    squared norm errs by gamma_{m+1} relative, and the division by eps / 2.
    Since the key is at most |v|^2 ~ 1, one key errs by under (2m + 4) eps.
    """
    sq = np.add.reduce((states.conj() * states).real, axis=1)
    w = np.add.reduce(states * _key_vector(states.shape[1]), axis=1)
    return (w.conj() * w).real / sq, sq


def _coincidence_pairs(states: np.ndarray, tol: float) -> np.ndarray:
    """Index pairs (j, k), k > j+1 and not cyclically adjacent, whose
    projective distance is below tol, in row-major order.

    Sweep and prune on a gauge-invariant key: state x gets
    key(x) = tr(A P_x) with P_x = |x><x| / <x|x> and A = |v><v| for a fixed
    random unit vector v, so ||A||_F = |v|^2 = 1.  Then
    |key(a) - key(b)| <= ||P_a - P_b||_F = sqrt(2) sin d(a, b), so every
    pair with |<a|b>| >= cos(tol) lies within a window of width
    sqrt(2) sin(tol), widened for the rounding of the inputs.  Only the
    pairs inside the window of the sorted keys get the exact overlap test,
    so the pairs do not depend on how the key is rounded, as long as the
    window covers that rounding.

    The window compares two keys, each within (2m + 4) eps of its exact
    value (`_coincidence_key`); the stored v has |v|^2 <= 1 + (m + 3) eps,
    which widens the sqrt(2) sin d bound by under 1.5 (m + 3) eps; and
    width and ranked + width are rounded once more each (keys lie in
    [0, |v|^2], width < 2), by under 6 eps together.  So the window must cover
    (5.5 m + 18.5) eps, which the 32 m^2 eps slack does for every m >= 1.
    """
    n, m = states.shape
    key, sq = _coincidence_key(states)
    cos_tol = math.cos(tol)
    # a computed |<a|b>| >= cos(tol) bounds the true cos d below by c
    c = min(1.0, (cos_tol - 16 * m * _EPS) / sq.max())
    sin_d = math.sqrt((1.0 - c) * (1.0 + c)) if c > 0.0 else 1.0
    width = math.sqrt(2.0) * sin_d + 32 * m * m * _EPS
    order = key.argsort()
    ranked = key[order]
    # a window pair (a, b) makes every sorted neighbour pair between them one
    # too, so the rows that start a window are the neighbour hits: O(n)
    hits = ranked[1:] <= ranked[:-1] + width
    if not hits.any():
        return _NO_PAIRS
    lows = np.flatnonzero(hits)
    counts = np.searchsorted(ranked, ranked[lows] + width, side="right") - lows - 1
    ends = np.cumsum(counts)
    codes = []
    first = 0
    while first < lows.size:
        done = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _PAIR_CHUNK, side="right")))
        cnt = counts[first:last]
        low = np.repeat(lows[first:last], cnt)
        high = low + 1 + np.arange(low.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        x, y = order[low], order[high]
        j, k = np.minimum(x, y), np.maximum(x, y)
        keep = (k - j >= 2) & ((j != 0) | (k != n - 1))
        j, k = j[keep], k[keep]
        close = np.abs(np.einsum("ij,ij->i", states[j], states[k].conj())) >= cos_tol
        codes.append(j[close].astype(np.int64) * n + k[close])
        first = last
    codes = np.sort(np.concatenate(codes))   # j*n + k: row-major order
    if codes.size == 0:
        return _NO_PAIRS
    pairs = np.empty((codes.size, 2), dtype=np.intp)
    np.divmod(codes, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def _first_split(members: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 lo: int, hi: int):
    """First pair in positions [lo, hi) of the global pair list that splits
    the piece `members` into two pieces of at least 3 states each.

    Returns (position, local j, local k), or None.  Scans in growing
    blocks, so the cost follows the distance to the first hit.
    """
    size = members.size
    block = 64
    while lo < hi:
        stop = min(hi, lo + block)
        r, c = rows[lo:stop], cols[lo:stop]
        j = np.searchsorted(members, r)
        k = np.searchsorted(members, c)
        # r < c, so k == size whenever j == size: c lies past the piece
        inside = k < size
        inside[inside] = (members[j[inside]] == r[inside]) & (members[k[inside]] == c[inside])
        gap = k - j
        ok = inside & (gap >= 3) & (size - gap >= 3)
        if ok.any():
            i = int(ok.argmax())
            return lo + i, int(j[i]), int(k[i])
        lo = stop
        block *= 2
    return None


def _split_states(states: np.ndarray, tol: float, out: list):
    """Append the simple sub-loops of `states` to `out`.

    Greedy: a piece is cut at its first coincident pair (j, k) in row-major
    order whose two pieces keep at least 3 states each, into the cut piece
    [j, k) and the remainder [:j] + [k:], the cut piece first.  The pairs
    are found once; each piece is an increasing array of original indices
    and sees the global pairs of its members under its own adjacency and
    size rules.  Pairs ahead of a chosen pair stay unusable in both pieces,
    so the remainder resumes at the cut's end row and the cut piece scans
    only the rows [j, k) after the chosen pair.
    """
    n = states.shape[0]
    pairs = _coincidence_pairs(states, tol)
    if pairs.size == 0:
        out.append(states)
        return
    rows, cols = pairs[:, 0], pairs[:, 1]
    # (members, first pair position, end position); LIFO keeps the cut piece first
    stack = [(np.arange(n), 0, rows.size)]
    while stack:
        members, lo, hi = stack.pop()
        hit = _first_split(members, rows, cols, lo, hi)
        if hit is None:
            out.append(states if members.size == n else states[members])
            continue
        at, j, k = hit
        mid = int(np.searchsorted(rows, members[k], side="left"))
        stack.append((np.concatenate([members[:j], members[k:]]), mid, hi))
        stack.append((members[j:k], at + 1, mid))


def split_self_intersections(loop: Loop, tol: float = TOL.split) -> list[Loop]:
    """Break a self-intersecting loop into simple sub-loops.

    Splits greedily at the first coincident index pair, then splits the
    pieces the same way; the returned sub-loops together retrace the
    original loop.
    Returns [loop] unchanged when no coincidence is found.
    """
    if tol <= 0:
        raise OutOfRange("coincidence tolerance must be positive")
    parts: list[np.ndarray] = []
    _split_states(loop.states, tol, parts)
    if len(parts) == 1:
        return [loop]
    return [Loop(p) for p in parts]


def save_loop(path, loop: Loop, generator: str = "", parameters: dict | None = None,
              seed: int | None = None):
    """Write a loop as CSV with a JSON header line.

    The header (first line, '#'-prefixed) records M, n, the generator
    name, its parameters, and the seed; data rows are index followed by
    re/im of each amplitude.
    """
    header = {"m": loop.dim, "n": loop.n, "generator": generator,
              "parameters": parameters or {}, "seed": seed}
    cols = ",".join(f"re_{i},im_{i}" for i in range(loop.dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(f"index,{cols}\n")
        for idx, row in enumerate(loop.states):
            parts = [f"{v:.17g}" for amp in row for v in (amp.real, amp.imag)]
            fh.write(",".join([f"{idx}"] + parts) + "\n")


def load_loop(path) -> tuple[Loop, dict]:
    """Read a loop written by save_loop; rows are renormalized."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("missing JSON header line")
        meta = json.loads(first[1:].strip())
        fh.readline()  # column names
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise EmptyInput(f"{path}: loop file has no data rows")
    data = np.array([[float(x) for x in row[1:]] for row in rows])
    if data.shape[1] % 2:
        raise WrongDimension(f"{path}: loop rows must hold re/im pairs")
    states = data[:, 0::2] + 1j * data[:, 1::2]
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms) & (norms > TOL.zero_vector)):
        raise ZeroVector(f"{path}: a row has zero or non-finite amplitudes")
    states = states / norms
    return Loop(states), meta
