"""Quantum-geometric quantities of discretized loops and parametrized charts.

A loop is an ordered cyclic sequence of normalized states; its two
macroscopic invariants are the Fubini-Study length (sum of geodesic
segment distances arccos|<psi_j|psi_{j+1}>|) and the Berry phase (the
Pancharatnam phase of the cyclic overlap product).  Both are manifestly
gauge invariant, so no gauge smoothing is ever needed.  A chart maps real
parameters to states; its geometric tensor comes from central differences
of the state projector.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

from .config import TOL
from .errors import (DimensionMismatch, IllConditionedSegment, NonFiniteDerivative,
                     OutOfRange, PoleDegenerate, WrongDimension, ZeroVector)


def principal_phase(x: float) -> float:
    """Reduce a phase to (-pi, pi], keeping a phase already in range as it is.

    Shifting by pi would round a small phase to the spacing of doubles near
    pi.  Values within TOL.branch_guard of -pi are reported as +pi: the two
    signs label the same phase mod 2*pi and the printed convention picks +pi.
    """
    if not -np.pi + TOL.branch_guard < x <= np.pi:
        x = (x + np.pi) % (2.0 * np.pi) - np.pi
        if x <= -np.pi + TOL.branch_guard:
            return np.pi
    return float(x)


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed discretized path of pure states.

    states has shape (n, M) with n >= 3; the sequence is cyclic, the
    closing segment being states[n-1] -> states[0].  Rows must be
    normalized and consecutive rows must not be (nearly) orthogonal.
    The stored copy is column-major and read-only, whatever the input's
    layout: a per-row sum then adds the M columns left to right at every
    width, so a loop's bits do not depend on how its states were laid out.
    Loops compare and hash by identity, since their arrays cannot.
    """

    states: np.ndarray
    _overlaps: tuple = field(init=False, repr=False)   # the gate's pass

    def __post_init__(self):
        arr = np.array(self.states, dtype=complex, order="F")   # checked as stored
        if arr.ndim != 2:
            raise WrongDimension(f"loop states must be 2-D, got shape {arr.shape}")
        _check_size(arr)
        if not (np.abs(_row_norms(arr) - 1.0) <= TOL.norm).all():   # nan rows fail too
            raise ZeroVector("loop states must be normalized")
        overlaps = _gated_pass(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "_overlaps", overlaps)

    @classmethod
    def _of_unit_rows(cls, states: np.ndarray) -> "Loop":
        """The loop of a fresh column-major (n, M) complex array whose rows
        are unit by construction (the band spinors): the size rule and the
        segment gate run, the row-norm check and the copy do not, and the
        array is made read-only in place, so no caller may keep writing to it."""
        _check_size(states)
        overlaps = _gated_pass(states)
        states.setflags(write=False)
        loop = object.__new__(cls)
        object.__setattr__(loop, "states", states)
        object.__setattr__(loop, "_overlaps", overlaps)
        return loop

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def reversed(self) -> "Loop":
        return Loop(self.states[::-1])


@dataclass(frozen=True)
class LoopSummary:
    """Gauge-invariant scalars of one loop.

    gamma_total is the accumulated phase before principal-value
    reduction; it only differs from gamma_b when the summary was
    produced by sub-loop aggregation.
    """

    d_fs: float
    gamma_b: float
    gamma_total: float
    n_segments: int
    convergence_est: float


def _check_size(states: np.ndarray):
    """Loop's size rule: a cyclic path needs at least 3 states."""
    if states.shape[0] < 3:
        raise IllConditionedSegment("a loop needs at least 3 states")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: np.linalg.norm(rows, axis=1)'s own
    arithmetic, without its per-call argument handling."""
    return np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1))


def _overlap_pass(states: np.ndarray):
    """(successor rows, cyclic overlaps <psi_j|psi_{j+1}>, their moduli);
    the successors are np.roll(states, -1, axis=0) made by one slice
    concatenation.  The moduli serve the segment gate and the chord
    angles alike."""
    nxt = np.concatenate((states[1:], states[:1]))
    ovl = np.einsum("ij,ij->i", states.conj(), nxt)
    return nxt, ovl, np.abs(ovl)


def _gated_pass(states: np.ndarray):
    """`_overlap_pass` behind the segment gate that every loop scalar needs."""
    overlaps = _overlap_pass(states)
    mod = overlaps[2]
    if mod.min() <= TOL.segment_overlap:
        raise IllConditionedSegment(
            f"consecutive overlap {mod.min():.3e} below {TOL.segment_overlap:.0e} "
            f"at segment {int(mod.argmin())}")
    return overlaps


def _chord_angles(a: np.ndarray, b: np.ndarray, ovl=None, mod=None) -> np.ndarray:
    """Fubini-Study angles atan2(|b - a <a|b>|, |<a|b>|) of the row pairs,
    given ovl = <a|b> and mod = |ovl| if made.  Unlike arccos|<a|b>|, it
    keeps every digit of a short chord and needs no clamp of mod to 1."""
    if ovl is None:
        ovl = np.einsum("ij,ij->i", a.conj(), b)
        mod = np.abs(ovl)
    return np.arctan2(_row_norms(b - a * ovl[:, None]), mod)


def _distance(states: np.ndarray, overlaps=None) -> float:   # ungated
    return float(np.add.reduce(_chord_angles(states, *(overlaps or _overlap_pass(states)))))


def _berry_phase(ovl: np.ndarray) -> float:
    # Summing the segment angles (each well inside (-pi, pi)) instead of
    # taking arg of the product avoids underflow of the product magnitude;
    # arctan2(imag, real) is np.angle's own arithmetic.
    return principal_phase(-float(np.add.reduce(np.arctan2(ovl.imag, ovl.real))))


def _scalars(states: np.ndarray, overlaps=None) -> tuple[float, float]:
    """(d_fs, gamma_b) from one gated overlap pass, `overlaps` if already made."""
    overlaps = overlaps or _gated_pass(states)
    return _distance(states, overlaps), _berry_phase(overlaps[1])


def segment_distance(a, b) -> float:
    """Geodesic Fubini-Study distance arccos|<a|b>| in [0, pi/2]."""
    a = np.asarray(a, dtype=complex).reshape(1, -1)
    b = np.asarray(b, dtype=complex).reshape(1, -1)
    return float(_chord_angles(a, b)[0])


def loop_distance(loop: Loop) -> float:
    """Fubini-Study length of the cyclic chord sequence.

    Exact for geodesic polygons; converges to the continuum length from
    below under refinement of a smooth loop.
    """
    return _distance(loop.states, loop._overlaps)


def loop_berry_phase(loop: Loop) -> float:
    """Pancharatnam phase -arg prod_j <psi_j|psi_{j+1}> in (-pi, pi]."""
    return _berry_phase(loop._overlaps[1])


def bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors <psi|sigma|psi> for an (n, 2) state array."""
    a, b = states[:, 0], states[:, 1]
    ab = a.conj() * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)


def _solid_angle_reference(n: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Pick a triangulation reference far from the antipode of every loop vertex.

    Only an antipode breaks a van Oosterom-Strackee triangle, whose
    numerator and denominator both vanish there; a reference on a vertex
    adds triangles of zero area.  Nearness to an antipode is measured by
    1 + n.ref (double precision cannot resolve angular separations through
    inner products any finer).  Candidates: the centroid direction, inside
    a small or convex loop, so the fan adds small triangles however small
    the loop; the mean normal, the sum of the edge cross products `cross`,
    for loops such as great circles whose centroid vanishes; then seeded
    random directions.
    """
    rng = np.random.default_rng(20240718)
    for v in chain((n.mean(axis=0), cross.sum(axis=0)),
                   (rng.normal(size=3) for _ in range(128))):
        norm = np.linalg.norm(v)
        if norm > 1e-6 and 1.0 + (n @ (v / norm)).min() > TOL.pole_align:
            return v / norm
    raise PoleDegenerate("no usable reference direction found")


def bloch_solid_angle(loop: Loop) -> float:
    """Signed solid angle enclosed by the Bloch image of a two-band loop.

    Triangulates the loop from a reference point and sums the signed
    spherical excesses (van Oosterom-Strackee), then reduces mod 4*pi
    into (-2*pi, 2*pi] -- the smaller of the two possible solid angles --
    by `principal_phase` of the half angle.
    Positive for counterclockwise circulation seen from outside the
    enclosed cap.  Serves as the independent oracle for |gamma_B| = Omega/2.
    """
    if loop.dim != 2:
        raise WrongDimension(f"Bloch sphere requires dimension 2, got {loop.dim}")
    n = bloch_vectors(loop.states)
    nxt = np.concatenate((n[1:], n[:1]))
    cross = np.cross(n, nxt)
    ref = _solid_angle_reference(n, cross)
    num = cross @ ref
    den = 1.0 + n @ ref + np.einsum("ij,ij->i", n, nxt) + nxt @ ref
    return 2.0 * principal_phase(float(np.arctan2(num, den).sum()))


def summarize(loop: Loop) -> LoopSummary:
    """Bundle distance, Berry phase, and a convergence estimate.

    The estimate compares against the half-resolution subsampled loop;
    for a loop that is already a geodesic polygon it is ~machine epsilon.
    """
    d, g = _scalars(loop.states, loop._overlaps)   # the full loop reuses Loop's pass
    if loop.n >= 6:
        half = loop.states[::2]
        try:
            d_half, g_half = _scalars(half)
            est = max(abs(d - d_half), abs(principal_phase(g - g_half)))
        except IllConditionedSegment:
            # subsampling can join nearly orthogonal states on wild loops
            est = abs(d - _distance(half))
    else:
        est = 0.0
    return LoopSummary(d_fs=d, gamma_b=g, gamma_total=g,
                       n_segments=loop.n, convergence_est=float(est))


def aggregate_summary(parts: list[LoopSummary]) -> LoopSummary:
    """Combine sub-loop summaries: distances and phases add.

    gamma_total carries the accumulated (unreduced) phase; gamma_b is its
    principal value.
    """
    d = sum(s.d_fs for s in parts)
    total = sum(s.gamma_b for s in parts)
    return LoopSummary(
        d_fs=d,
        gamma_b=principal_phase(total),
        gamma_total=total,
        n_segments=sum(s.n_segments for s in parts),
        convergence_est=max(s.convergence_est for s in parts),
    )


@dataclass(frozen=True)
class Chart:
    """Map from d real parameters to normalized states, with an FD step."""

    map: Callable[[np.ndarray], np.ndarray]
    d: int
    step: float = TOL.fd_step

    def __post_init__(self):
        if self.step <= 0:
            raise OutOfRange("finite-difference step must be positive")


@dataclass(frozen=True, eq=False)
class QGTensor:
    """Quantum geometric tensor chi = g - (i/2) F at one chart point.

    g is the (real symmetric, positive semidefinite) quantum metric and
    F the (real antisymmetric) Berry curvature.  convergence_est is the
    max-abs change of chi when the difference step is halved.
    """

    chi: np.ndarray
    g: np.ndarray
    f: np.ndarray
    convergence_est: float


def _as_cvector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise OutOfRange("vector has non-finite entries")
    return arr


def normalize(v) -> np.ndarray:
    """Return v / ||v||, preserving direction."""
    arr = _as_cvector(v)
    nrm = np.linalg.norm(arr)
    if nrm <= TOL.zero_vector:
        raise ZeroVector(f"cannot normalize a vector of norm {nrm}")
    return arr / nrm


def projector(psi) -> np.ndarray:
    """Rank-one projector |psi><psi| for a normalized state."""
    arr = _as_cvector(psi)
    if abs(np.linalg.norm(arr) - 1.0) > TOL.norm:
        raise ZeroVector("projector requires a normalized state")
    return np.outer(arr, arr.conj())


def _projector_at(chart: Chart, lam: np.ndarray) -> np.ndarray:
    psi = normalize(chart.map(lam))
    return projector(psi)


def _chi_parts(chart: Chart, lam0: np.ndarray, h: float, p0: np.ndarray):
    d = chart.d
    dps = []
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = h
        dp = (_projector_at(chart, lam0 + e) - _projector_at(chart, lam0 - e)) / (2.0 * h)
        if not np.all(np.isfinite(dp.real)) or not np.all(np.isfinite(dp.imag)):
            raise NonFiniteDerivative(f"non-finite projector difference along axis {mu}")
        dps.append(dp)
    g = np.empty((d, d))
    f = np.empty((d, d))
    for mu in range(d):
        for nu in range(mu, d):
            g[mu, nu] = g[nu, mu] = 0.5 * np.trace(dps[mu] @ dps[nu]).real
            im = -2.0 * np.trace(p0 @ dps[mu] @ dps[nu]).imag
            f[mu, nu] = im
            f[nu, mu] = -im
        f[mu, mu] = 0.0
    return g, f


def qgt_at(chart: Chart, lam0, richardson: bool = True) -> QGTensor:
    """Quantum geometric tensor by central differences of the projector.

    Projector differences bypass any phase convention of the chart map:
    g_{mu nu} = Re Tr[dP_mu dP_nu] / 2 and F_{mu nu} = -2 Im Tr[P dP_mu dP_nu].
    With richardson=True the evaluation is repeated at half the step and
    the max-abs change of chi is exposed as convergence_est.
    """
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))
    if lam0.shape != (chart.d,):
        raise WrongDimension(f"chart expects {chart.d} parameters, got {lam0.shape}")
    p0 = _projector_at(chart, lam0)
    g, f = _chi_parts(chart, lam0, chart.step, p0)
    chi = g - 0.5j * f
    est = 0.0
    if richardson:
        g2, f2 = _chi_parts(chart, lam0, chart.step / 2.0, p0)
        est = float(np.abs(chi - (g2 - 0.5j * f2)).max())
    return QGTensor(chi=chi, g=g, f=f, convergence_est=est)
