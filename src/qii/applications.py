"""Physical bounds implied by the weak quantum isoperimetric inequality:
Wannier-spread, quantum-speed-limit, electron-phonon, and superfluid-weight
chains, each reported as an ordered sequence of values that must be
monotone nonincreasing.

Units: hbar = 1 throughout; lattice constants enter explicitly via the
model spec.  Each chain carries a unit annotation and free-form notes.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import NormDrift, NotCyclic, OutOfRange
from .geometry import Loop, aggregate_summary, segment_distance, summarize
from .models import (ModelSpec, _fermi_circle, _gated_bloch, _metric, _spinors, bloch,
                     bz_grid, fourier_bloch, metric_grid)
from .loops import split_self_intersections

__all__ = [
    "BoundChain", "Trajectory", "SpeedLimitReport", "wannier_omega1",
    "wannier_bound_chain", "evolve", "speed_limit_residual",
    "speed_limit_report", "adiabatic_cone_demo", "eph_bound_chain",
    "superfluid_weight_1d", "random_gapped_bloch_spec",
]


@dataclass(frozen=True)
class BoundChain:
    """Ordered (label, value) pairs, each entry claimed >= the next."""

    entries: tuple
    unit: str = ""
    notes: tuple = ()

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=float)

    def max_rise(self) -> float:
        """Largest increase between consecutive entries (<= 0 when monotone)."""
        v = self.values
        return float(np.diff(v).max()) if len(v) > 1 else 0.0

    def is_monotone(self, tol: float | None = None) -> bool:
        """No rise above tol, by default 1e-6 * max(1, max |value|): central
        differences leave ~1e-8 relative rises on chains of magnitude ~40."""
        if tol is None:
            tol = TOL.saturation_floor * float(np.abs(self.values).max(initial=1.0))
        return self.max_rise() <= tol

    def is_saturated(self, tol: float = 1e-6) -> bool:
        v = self.values
        return bool(v.max() - v.min() <= tol)


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step Schroedinger evolution record.

    energies_var[i] is Delta E at times[i]; d_accum[i] the Fubini-Study
    path length accumulated up to times[i] (nondecreasing, open path).
    """

    times: np.ndarray
    states: np.ndarray
    energies_var: np.ndarray
    d_accum: np.ndarray


@dataclass(frozen=True)
class SpeedLimitReport:
    """Anandan-Aharonov residual plus the Berry-phase time bound."""

    residual: float
    chain: BoundChain

    @property
    def margin(self) -> float:
        v = self.chain.values
        return float(v[0] - v[1])


def wannier_omega1(spec: ModelSpec, band: str = "lower", n_k: int = 256) -> float:
    """Gauge-invariant Wannier spread: (a / 2 pi) * integral of Tr g over the BZ.

    The periodic trapezoid rule reduces to the grid mean of Tr g; units
    are length^2.
    """
    if spec.dim_k != 1:
        raise OutOfRange("the Wannier chain is implemented for 1D models")
    return float(np.mean(metric_grid(spec, band, bz_grid(spec, n_k))[:, 0, 0]))


def _band_chain(spec: ModelSpec, band: str, n_k: int):
    """(wannier_omega1, summarize(bz_loop(...)), |n(k)| on the loop's momenta)
    from one Bloch evaluation: the metric's stacked k rows are the loop's momenta."""
    if spec.dim_k != 1:
        raise OutOfRange("the Wannier chain is implemented for 1D models")
    ks = bz_grid(spec, n_k)
    vec, norm = _gated_bloch(spec, ks, ks)
    omega1 = float(np.mean(_metric(vec, norm, 1)[:, 0, 0]))
    return omega1, summarize(Loop(_spinors(vec[:n_k], norm[:n_k], band))), norm[:n_k]


def wannier_bound_chain(spec: ModelSpec, band: str = "lower",
                        n_k: int = 256) -> BoundChain:
    """Chain Omega_1 >= (a d / 2 pi)^2 >= (a gamma / 2 pi)^2 for a 1D band."""
    omega1, s, _ = _band_chain(spec, band, n_k)
    a = spec.a
    return BoundChain(entries=(
        ("omega_1", omega1),
        ("(a*d_fs/2pi)^2", (a * s.d_fs / (2.0 * np.pi)) ** 2),
        ("(a*gamma_b/2pi)^2", (a * s.gamma_b / (2.0 * np.pi)) ** 2),
    ), unit="length^2", notes=(spec.describe(),))


def evolve(h_of_t, psi0, duration: float, steps: int) -> Trajectory:
    """Fixed-step RK4 integration of i d/dt psi = H(t) psi (hbar = 1).

    The state is renormalized after every step; a pre-renormalization
    drift beyond the tolerance raises NormDrift.  Delta E(t) and the
    accumulated Fubini-Study length are recorded at every step.
    """
    if steps < 1:
        raise OutOfRange(f"need at least one integration step, got {steps}")
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    dt = duration / steps
    times = np.linspace(0.0, duration, steps + 1)
    states = np.empty((steps + 1, psi.size), dtype=complex)
    dvar = np.empty(steps + 1)
    d_acc = np.empty(steps + 1)

    def rhs(h, v):
        return -1j * (h @ v)

    def delta_e(h, v):
        # ||(H - <H>) psi|| equals sqrt(<H^2> - <H>^2) without cancellation
        hv = h @ v
        mean = np.vdot(v, hv).real
        return float(np.linalg.norm(hv - mean * v))

    h_now = np.asarray(h_of_t(times[0]), dtype=complex)
    states[0] = psi
    dvar[0] = delta_e(h_now, psi)
    d_acc[0] = 0.0
    for i in range(steps):
        t = times[i]
        h_mid = np.asarray(h_of_t(t + 0.5 * dt), dtype=complex)
        h_next = np.asarray(h_of_t(t + dt), dtype=complex)
        k1 = rhs(h_now, psi)
        k2 = rhs(h_mid, psi + 0.5 * dt * k1)
        k3 = rhs(h_mid, psi + 0.5 * dt * k2)
        k4 = rhs(h_next, psi + dt * k3)
        new = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        nrm = np.linalg.norm(new)
        if abs(nrm - 1.0) > TOL.norm_drift:
            raise NormDrift(f"norm drift {abs(nrm - 1.0):.3e} at step {i}")
        new = new / nrm
        d_acc[i + 1] = d_acc[i] + segment_distance(psi, new)
        psi = new
        states[i + 1] = psi
        dvar[i + 1] = delta_e(h_next, psi)
        h_now = h_next
    return Trajectory(times=times, states=states, energies_var=dvar, d_accum=d_acc)


def speed_limit_residual(traj: Trajectory) -> float:
    """max_t |d(d_FS)/dt - Delta E| over the trajectory (hbar = 1)."""
    dt = np.diff(traj.times)
    rate = np.diff(traj.d_accum) / dt
    mid = 0.5 * (traj.energies_var[:-1] + traj.energies_var[1:])
    return float(np.abs(rate - mid).max())


def speed_limit_report(traj: Trajectory, gamma_b: float,
                       closure_tol: float = 1e-5) -> SpeedLimitReport:
    """Check tau >= gamma_B / <Delta E> for a projectively closed trajectory."""
    if segment_distance(traj.states[0], traj.states[-1]) > closure_tol:
        raise NotCyclic("trajectory endpoints differ projectively")
    tau = float(traj.times[-1] - traj.times[0])
    mean_de = float(np.trapezoid(traj.energies_var, traj.times) / tau)
    # a stationary cycle has <Delta E> = gamma = 0 and a trivial bound
    bound = gamma_b / mean_de if mean_de > 0.0 else 0.0
    chain = BoundChain(entries=(
        ("tau", tau),
        ("gamma_b/<Delta E>", bound),
    ), unit="time (hbar/energy)")
    return SpeedLimitReport(residual=speed_limit_residual(traj), chain=chain)


def check_cone_angle(theta_c: float):
    """The precession cone of `adiabatic_cone_demo` needs 0 < theta_c < pi/2."""
    if not 0.0 < theta_c < np.pi / 2:
        raise OutOfRange(f"cone angle must lie in (0, pi/2), got {theta_c}")


def adiabatic_cone_demo(theta_c: float, omega0: float = 1.0, ratio: float = 50.0,
                        steps: int = 20000):
    """Precessing-field cycle whose trajectory is exactly cyclic.

    The field precesses at cone angle theta_c with period ratio/omega0
    times 2 pi; starting from the co-rotating-frame eigenstate, the lab
    trajectory traces a constant-polar-angle circle (clockwise, so the
    Berry phase is positive) and returns to its initial ray after one
    drive period.  Returns (trajectory, gamma_b, SpeedLimitReport).
    """
    check_cone_angle(theta_c)
    if not 0.0 < ratio < np.inf:
        raise OutOfRange(f"period ratio must be positive and finite, got {ratio}")
    omega_d = omega0 / ratio

    def h_of_t(t):
        phi = -omega_d * t
        n = np.array([np.sin(theta_c) * np.cos(phi),
                      np.sin(theta_c) * np.sin(phi),
                      np.cos(theta_c)])
        return 0.5 * omega0 * np.array([[n[2], n[0] - 1j * n[1]],
                                        [n[0] + 1j * n[1], -n[2]]])

    # co-rotating-frame effective field; its upper eigenstate is cyclic
    h_eff = h_of_t(0.0) + 0.5 * omega_d * np.array([[1, 0], [0, -1]], dtype=complex)
    _, vecs = np.linalg.eigh(h_eff)
    psi0 = vecs[:, 1]
    tau = 2.0 * np.pi / omega_d
    traj = evolve(h_of_t, psi0, tau, steps)
    gamma = summarize(Loop(traj.states[:-1])).gamma_b
    return traj, gamma, speed_limit_report(traj, gamma)


def eph_bound_chain(spec: ModelSpec, e_f: float, n: int = 512) -> BoundChain:
    """Fermi-surface chain for the electron-phonon geometric coupling.

    integral of Tr g over the FS >= integral of g_ll along the FS
    >= d_fs^2 / l_fs >= gamma_b^2 / l_fs, with d and gamma aggregated
    over sub-loops when the surface winds several times.  The overall
    proportionality constant of lambda_geo is not reported, only the
    bound structure.
    """
    k_f, directions = _fermi_circle(spec, e_f, n)
    n_eff, l_fs = len(directions), 2.0 * np.pi * k_f
    ks = k_f * directions   # the loop's momenta are the metric's centres
    vec, norm = _gated_bloch(spec, ks, ks)
    loop = Loop(_spinors(vec[:n_eff], norm[:n_eff], "upper"))
    g = _metric(vec, norm, 2)
    that = np.stack([-directions[:, 1], directions[:, 0]], axis=1)
    trace_int = np.trace(g, axis1=1, axis2=2).sum() * l_fs / n_eff
    tangential_int = np.einsum("ni,nij,nj->", that, g, that) * l_fs / n_eff
    agg = aggregate_summary([summarize(p) for p in split_self_intersections(loop)])
    return BoundChain(entries=(
        ("int_FS Tr[g] dsigma", float(trace_int)),
        ("int g_ll dk_l", float(tangential_int)),
        ("d_fs^2/l_fs", agg.d_fs**2 / l_fs),
        ("gamma_b^2/l_fs", agg.gamma_total**2 / l_fs),
    ), unit="length", notes=(spec.describe(), f"E_F={e_f}"))


def superfluid_weight_1d(spec: ModelSpec, u: float, nu: float,
                         n_k: int = 256) -> BoundChain:
    """Superfluid-weight chain for an attractive-U 1D model (hbar = 1).

    D_s = (U / pi^2 M) nu (1 - nu) * integral of Tr g over the BZ, bounded
    below by (a U / 2 pi^3 M) nu (1 - nu) d_fs^2 and the gamma_b^2 analog.
    For the fully dimerized SSH chain the physically relevant minimal
    metric gives d = gamma = 0 and the whole chain collapses to zero.
    """
    if not 0.0 < nu < 1.0:
        raise OutOfRange("filling factor must lie in (0, 1)")
    if not 0.0 < u < np.inf:
        raise OutOfRange(f"attraction U must be finite and positive, got {u}")
    if spec.dim_k != 1:
        raise OutOfRange("the superfluid-weight chain is implemented for 1D models")
    m_bands = spec.bands
    notes = [spec.describe(), f"U={u}", f"nu={nu}"]
    if spec.kind == "ssh" and spec.params["v"] * spec.params["w"] == 0.0:
        notes.append("dimerized SSH: minimal quantum metric gives d=gamma=0")
        return BoundChain(entries=(
            ("D_s", 0.0), ("d_fs^2 bound", 0.0), ("gamma_b^2 bound", 0.0),
        ), unit="energy*length", notes=tuple(notes))
    omega1, s, upper = _band_chain(spec, "lower", n_k)   # E_+ = |n(k)|
    if upper.max() - upper.min() > 1e-9 * max(upper.max(), 1e-30):
        notes.append("dispersive bands: flat-band formula used as a diagnostic")
    integral = omega1 * 2.0 * np.pi / spec.a
    factor = u * nu * (1.0 - nu)
    d_s = factor / (np.pi**2 * m_bands) * integral
    pref = spec.a * factor / (2.0 * np.pi**3 * m_bands)
    return BoundChain(entries=(
        ("D_s", d_s),
        ("d_fs^2 bound", pref * s.d_fs**2),
        ("gamma_b^2 bound", pref * s.gamma_b**2),
    ), unit="energy*length", notes=tuple(notes))


def random_gapped_bloch_spec(rng, n_harmonics: int = 2, gap_ratio: float = 0.25,
                             a: float = 1.0) -> ModelSpec:
    """Random smooth two-band 1D model with a guaranteed direct gap.

    Draws Bloch-vector Fourier coefficients until min_k |n(k)| exceeds
    gap_ratio * max_k |n(k)| on a dense grid; deterministic given the
    generator state.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    ks = np.linspace(0.0, 2.0 * np.pi / a, 256, endpoint=False)
    while True:
        const = rng.normal(size=3)
        cosc = rng.normal(size=(n_harmonics, 3)) / np.arange(1, n_harmonics + 1)[:, None]
        sinc = rng.normal(size=(n_harmonics, 3)) / np.arange(1, n_harmonics + 1)[:, None]
        spec = fourier_bloch(const, cosc, sinc, a)
        norms = np.linalg.norm(bloch(spec, ks), axis=1)
        if norms.min() >= gap_ratio * norms.max():
            return spec
