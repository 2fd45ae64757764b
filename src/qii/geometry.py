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
from typing import Callable

import numpy as np

from .config import TOL
from .errors import (DimensionMismatch, IllConditionedSegment, NonFiniteDerivative,
                     PoleDegenerate, WrongDimension, ZeroVector)


# np.add.reduce sums a contiguous run of 8 or more numbers pairwise and a
# shorter run left to right, while it sums across the columns of a
# column-major array left to right at any width.  Below this width, row
# norms are therefore the same bit for bit in either layout, and only such
# states are kept column-major.
_COLUMN_MAJOR_BELOW = 8


def principal_phase(x: float, guard: float = TOL.branch_guard) -> float:
    """Reduce a phase to (-pi, pi], resolving the branch edge to +pi.

    Values within `guard` of -pi are reported as +pi: at the branch point
    the two signs label the same phase mod 2*pi and the printed convention
    picks +pi.
    """
    y = (x + np.pi) % (2.0 * np.pi) - np.pi
    if y <= -np.pi + guard:
        return np.pi
    return float(y)


@dataclass(frozen=True)
class Loop:
    """Closed discretized path of pure states.

    states has shape (n, M) with n >= 3; the sequence is cyclic, the
    closing segment being states[n-1] -> states[0].  Rows must be
    normalized and consecutive rows must not be (nearly) orthogonal.
    The stored copy keeps the input's layout for M < 8 (a column-major
    `fourier_states` array stays column-major) and is row-major otherwise.
    """

    states: np.ndarray
    _overlaps: tuple = field(init=False, repr=False, compare=False)   # the gate's pass

    def __post_init__(self):
        arr = np.asarray(self.states, dtype=complex)
        if arr.ndim != 2:
            raise WrongDimension(f"loop states must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 3:
            raise IllConditionedSegment("a loop needs at least 3 states")
        if not (np.abs(_row_norms(arr) - 1.0) <= TOL.norm).all():   # nan rows fail too
            raise ValueError("loop states must be normalized")
        overlaps = _overlap_pass(arr)
        mod = overlaps[2]
        if mod.min() <= TOL.segment_overlap:
            raise IllConditionedSegment(
                f"consecutive overlap {mod.min():.3e} below {TOL.segment_overlap:.0e} "
                f"at segment {int(mod.argmin())}")
        arr = arr.copy(order="K" if arr.shape[1] < _COLUMN_MAJOR_BELOW else "C")
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)
        object.__setattr__(self, "_overlaps", overlaps)

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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: np.linalg.norm(rows, axis=1)'s own
    arithmetic, without its per-call argument handling."""
    return np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1))


def _overlap_pass(states: np.ndarray):
    """(successor rows, cyclic overlaps <psi_j|psi_{j+1}>, their moduli);
    the successors are np.roll(states, -1, axis=0) made by one slice
    concatenation.  The moduli serve the segment gate, the chord angles
    and the phase gate alike."""
    nxt = np.concatenate((states[1:], states[:1]))
    ovl = np.einsum("ij,ij->i", states.conj(), nxt)
    return nxt, ovl, np.abs(ovl)


def _distance(states: np.ndarray, overlaps=None) -> float:
    # atan2(sin, cos) with the sine taken from the orthogonal residual is
    # uniformly accurate; arccos alone loses half the digits near 1.
    nxt, ovl, mod = overlaps or _overlap_pass(states)
    sin = _row_norms(nxt - states * ovl[:, None])
    return float(np.add.reduce(np.arctan2(sin, mod)))


def _berry_phase(states: np.ndarray, overlaps=None) -> float:
    _, ovl, mod = overlaps or _overlap_pass(states)
    low = mod.min()
    if low < TOL.segment_overlap:
        raise IllConditionedSegment(f"overlap {low:.3e} too small for a Berry phase")
    # Summing the segment angles (each well inside (-pi, pi)) instead of
    # taking arg of the product avoids underflow of the product magnitude;
    # arctan2(imag, real) is np.angle's own arithmetic.
    return principal_phase(-float(np.add.reduce(np.arctan2(ovl.imag, ovl.real))))


def _scalars(states: np.ndarray, overlaps=None) -> tuple[float, float]:
    """(d_fs, gamma_b) from one overlap pass, `overlaps` if already made."""
    overlaps = overlaps or _overlap_pass(states)
    return _distance(states, overlaps), _berry_phase(states, overlaps)


def segment_distance(a, b) -> float:
    """Geodesic Fubini-Study distance arccos|<a|b>| in [0, pi/2]."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ov = np.vdot(a, b)
    sin = np.linalg.norm(b - a * ov)
    return float(np.arctan2(sin, min(1.0, abs(ov))))


def loop_distance(loop: Loop) -> float:
    """Fubini-Study length of the cyclic chord sequence.

    Exact for geodesic polygons; converges to the continuum length from
    below under refinement of a smooth loop.
    """
    return _distance(loop.states, loop._overlaps)


def loop_berry_phase(loop: Loop) -> float:
    """Pancharatnam phase -arg prod_j <psi_j|psi_{j+1}> in (-pi, pi]."""
    return _berry_phase(loop.states, loop._overlaps)


def bloch_vectors(states: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors <psi|sigma|psi> for an (n, 2) state array."""
    a, b = states[:, 0], states[:, 1]
    ab = a.conj() * b
    return np.stack([2.0 * ab.real, 2.0 * ab.imag, np.abs(a) ** 2 - np.abs(b) ** 2], axis=1)


def _solid_angle_reference(n: np.ndarray) -> np.ndarray:
    """Pick a triangulation reference far from every loop vertex.

    Alignment is measured by 1 - |n.ref| (double precision cannot resolve
    angular separations through inner products any finer).  Candidates:
    the north pole, the centroid antipode, the mean normal, then seeded
    random directions.
    """
    def ok(ref):
        return (1.0 - np.abs(n @ ref).max()) > TOL.pole_align

    candidates = [np.array([0.0, 0.0, 1.0])]
    centroid = n.mean(axis=0)
    if np.linalg.norm(centroid) > 1e-6:
        candidates.append(-centroid / np.linalg.norm(centroid))
    normal = np.cross(n, np.roll(n, -1, axis=0)).sum(axis=0)
    if np.linalg.norm(normal) > 1e-6:
        candidates.append(normal / np.linalg.norm(normal))
    for ref in candidates:
        if ok(ref):
            return ref
    rng = np.random.default_rng(20240718)
    for _ in range(128):
        ref = rng.normal(size=3)
        ref /= np.linalg.norm(ref)
        if ok(ref):
            return ref
    raise PoleDegenerate("no usable reference direction found")


def bloch_solid_angle(loop: Loop) -> float:
    """Signed solid angle enclosed by the Bloch image of a two-band loop.

    Triangulates the loop from a reference point and sums the signed
    spherical excesses (van Oosterom-Strackee), then reduces mod 4*pi
    into (-2*pi, 2*pi] -- the smaller of the two possible solid angles.
    Positive for counterclockwise circulation seen from outside the
    enclosed cap.  Serves as the independent oracle for |gamma_B| = Omega/2.
    """
    if loop.dim != 2:
        raise WrongDimension(f"Bloch sphere requires dimension 2, got {loop.dim}")
    n = bloch_vectors(loop.states)
    ref = _solid_angle_reference(n)
    nxt = np.roll(n, -1, axis=0)
    num = np.einsum("i,ji->j", ref, np.cross(n, nxt))
    den = 1.0 + n @ ref + np.einsum("ij,ij->i", n, nxt) + nxt @ ref
    total = 2.0 * np.arctan2(num, den).sum()
    reduced = total % (4.0 * np.pi)
    if reduced > 2.0 * np.pi:
        reduced -= 4.0 * np.pi
    if reduced <= -2.0 * np.pi + 2.0 * TOL.branch_guard:
        reduced = 2.0 * np.pi
    return float(reduced)


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
            est = max(abs(d - d_half), abs(principal_phase(g - g_half, guard=0.0)))
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
            raise ValueError("finite-difference step must be positive")


@dataclass(frozen=True)
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
        raise ValueError("vector has non-finite entries")
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
