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
from .geometry import (Loop, _chord_angles, _row_norms, loop_berry_phase, loop_distance,
                       segment_distance)
from .models import (ModelSpec, _fermi_circle, band_geometry, bloch, bz_grid, fourier_bloch,
                     metric_grid)
from .loops import check_seed, split_self_intersections

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


@dataclass(frozen=True, eq=False)
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
    are length^2.  The metric is the same for both bands.
    """
    check_1d_model(spec, "Wannier")
    return _grid_mean(metric_grid(spec, band, bz_grid(spec, n_k)))


def check_1d_model(spec: ModelSpec, chain: str):
    """The Wannier and superfluid-weight chains integrate over a 1D Brillouin zone."""
    if spec.dim_k != 1:
        raise OutOfRange(f"the {chain} chain is implemented for 1D models")


def _grid_mean(g) -> float:
    """Brillouin-zone mean of g_kk: np.mean's own sum, then one division."""
    return float(np.add.reduce(g[:, 0, 0]) / len(g))


def _band_chain(spec: ModelSpec, band: str, n_k: int):
    """(wannier_omega1, d_fs, gamma_b of bz_loop(...), |n(k)| on its momenta) from
    one band_geometry call; d and gamma read the overlap pass of its band
    loop's segment gate."""
    check_1d_model(spec, "Wannier")
    loop, g, norm = band_geometry(spec, bz_grid(spec, n_k), band)
    return _grid_mean(g), loop_distance(loop), loop_berry_phase(loop), norm


def wannier_bound_chain(spec: ModelSpec, band: str = "lower",
                        n_k: int = 256) -> BoundChain:
    """Chain Omega_1 >= (a d / 2 pi)^2 >= (a gamma / 2 pi)^2 for a 1D band."""
    omega1, d_fs, gamma_b, _ = _band_chain(spec, band, n_k)
    a = spec.a
    return BoundChain(entries=(
        ("omega_1", omega1),
        ("(a*d_fs/2pi)^2", (a * d_fs / (2.0 * np.pi)) ** 2),
        ("(a*gamma_b/2pi)^2", (a * gamma_b / (2.0 * np.pi)) ** 2),
    ), unit="length^2", notes=(spec.describe(),))


def evolve(h_of_t, psi0, duration: float, steps: int) -> Trajectory:
    """Fixed-step RK4 integration of i d/dt psi = H(t) psi (hbar = 1).

    The state is renormalized after every step; a pre-renormalization
    drift beyond the tolerance, or a non-finite norm, raises NormDrift.
    The loop keeps each state and H psi; Delta E(t) and the accumulated
    Fubini-Study length are then one array pass each over them.
    """
    check_steps(steps)
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    dt = duration / steps
    times = np.linspace(0.0, duration, steps + 1)
    states = np.empty((steps + 1, psi.size), dtype=complex)
    hpsi = np.empty_like(states)   # matmul's out= does not broadcast a wrong-shape H
    states[0] = psi
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite ends in NormDrift
        hv = np.matmul(np.asarray(h_of_t(times[0]), dtype=complex), psi, out=hpsi[0])
        for i in range(steps):
            h_mid = np.asarray(h_of_t(times[i] + 0.5 * dt), dtype=complex)
            h_next = np.asarray(h_of_t(times[i] + dt), dtype=complex)
            k1 = -1j * hv
            k2 = -1j * (h_mid @ (psi + 0.5 * dt * k1))
            k3 = -1j * (h_mid @ (psi + 0.5 * dt * k2))
            k4 = -1j * (h_next @ (psi + dt * k3))
            new = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            nrm = np.linalg.norm(new)
            if not abs(nrm - 1.0) <= TOL.norm_drift:   # a nan norm fails too
                raise NormDrift(f"norm drift {abs(nrm - 1.0):.3e} at step {i}")
            psi = states[i + 1] = new / nrm
            hv = np.matmul(h_next, psi, out=hpsi[i + 1])
    # ||(H - <H>) psi|| equals sqrt(<H^2> - <H>^2) without cancellation
    mean = np.einsum("ij,ij->i", states.conj(), hpsi).real
    dvar = _row_norms(hpsi - mean[:, None] * states)
    d_acc = np.concatenate(([0.0], np.cumsum(_chord_angles(states[:-1], states[1:]))))
    return Trajectory(times=times, states=states, energies_var=dvar, d_accum=d_acc)


def speed_limit_residual(traj: Trajectory) -> float:
    """max_t |d(d_FS)/dt - Delta E| over the trajectory (hbar = 1)."""
    dt = np.diff(traj.times)
    rate = np.diff(traj.d_accum) / dt
    mid = 0.5 * (traj.energies_var[:-1] + traj.energies_var[1:])
    return float(np.abs(rate - mid).max())


def speed_limit_report(traj: Trajectory, gamma_b: float) -> SpeedLimitReport:
    """Check tau >= gamma_B / <Delta E> for a trajectory closed to within 1e-5."""
    if segment_distance(traj.states[0], traj.states[-1]) > 1e-5:
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


def check_steps(steps: int):
    """Fixed-step evolution needs at least one step."""
    if steps < 1:
        raise OutOfRange(f"need at least one integration step, got {steps}")


def check_period_ratio(ratio: float):
    """The drive period of `adiabatic_cone_demo` is 2 pi ratio, ratio in (0, inf)."""
    if not 0.0 < ratio < np.inf:
        raise OutOfRange(f"period ratio must be positive and finite, got {ratio}")


def check_pairing(u: float, nu: float):
    """The superfluid-weight chain needs a filling 0 < nu < 1 and a finite attraction U > 0."""
    if not 0.0 < nu < 1.0:
        raise OutOfRange(f"filling factor must lie in (0, 1), got {nu}")
    if not 0.0 < u < np.inf:
        raise OutOfRange(f"attraction U must be finite and positive, got {u}")


def adiabatic_cone_demo(theta_c: float, ratio: float = 50.0, steps: int = 20000):
    """Precessing-field cycle whose trajectory is exactly cyclic.

    With hbar omega0 = 1 the unit of energy, the field precesses at cone
    angle theta_c with period 2 pi ratio / omega0.  From the co-rotating-frame
    eigenstate, the lab trajectory traces a constant-polar-angle circle
    (clockwise, so the Berry phase is positive) and returns to its initial
    ray after one drive period.  Returns (trajectory, gamma_b, SpeedLimitReport).
    """
    check_cone_angle(theta_c)
    check_period_ratio(ratio)
    omega_d = 1.0 / ratio

    def h_of_t(t):
        phi = -omega_d * t
        n = np.array([np.sin(theta_c) * np.cos(phi),
                      np.sin(theta_c) * np.sin(phi),
                      np.cos(theta_c)])
        return 0.5 * np.array([[n[2], n[0] - 1j * n[1]],
                               [n[0] + 1j * n[1], -n[2]]])

    # co-rotating-frame effective field; its upper eigenstate is cyclic
    h_eff = h_of_t(0.0) + 0.5 * omega_d * np.array([[1, 0], [0, -1]], dtype=complex)
    _, vecs = np.linalg.eigh(h_eff)
    psi0 = vecs[:, 1]
    tau = 2.0 * np.pi / omega_d
    traj = evolve(h_of_t, psi0, tau, steps)
    gamma = loop_berry_phase(Loop(traj.states[:-1]))
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
    loop, g, _ = band_geometry(spec, k_f * directions, "upper")
    that = np.stack([-directions[:, 1], directions[:, 0]], axis=1)
    trace_int = np.trace(g, axis1=1, axis2=2).sum() * l_fs / n_eff
    tangential_int = np.einsum("ni,nij,nj->", that, g, that) * l_fs / n_eff
    # distances and unreduced phases add over sub-loops, as in aggregate_summary
    parts = split_self_intersections(loop)
    d_fs = sum(loop_distance(p) for p in parts)
    gamma_total = sum(loop_berry_phase(p) for p in parts)
    return BoundChain(entries=(
        ("int_FS Tr[g] dsigma", float(trace_int)),
        ("int g_ll dk_l", float(tangential_int)),
        ("d_fs^2/l_fs", d_fs**2 / l_fs),
        ("gamma_b^2/l_fs", gamma_total**2 / l_fs),
    ), unit="length", notes=(spec.describe(), f"E_F={e_f}"))


def superfluid_weight_1d(spec: ModelSpec, u: float, nu: float,
                         n_k: int = 256) -> BoundChain:
    """Superfluid-weight chain for an attractive-U 1D model (hbar = 1).

    D_s = (U / pi^2 M) nu (1 - nu) * integral of Tr g over the BZ, bounded
    below by (a U / 2 pi^3 M) nu (1 - nu) d_fs^2 and the gamma_b^2 analog.
    For the fully dimerized SSH chain the physically relevant minimal
    metric gives d = gamma = 0 and the whole chain collapses to zero.
    """
    check_pairing(u, nu)
    check_1d_model(spec, "superfluid-weight")
    m_bands = spec.bands
    notes = [spec.describe(), f"U={u}", f"nu={nu}"]
    if spec.kind == "ssh" and spec.params["v"] * spec.params["w"] == 0.0:
        notes.append("dimerized SSH: minimal quantum metric gives d=gamma=0")
        return BoundChain(entries=(
            ("D_s", 0.0), ("d_fs^2 bound", 0.0), ("gamma_b^2 bound", 0.0),
        ), unit="energy*length", notes=tuple(notes))
    omega1, d_fs, gamma_b, upper = _band_chain(spec, "lower", n_k)   # E_+ = |n(k)|
    top = upper.max()
    if top - upper.min() > 1e-9 * max(top, 1e-30):
        notes.append("dispersive bands: flat-band formula used as a diagnostic")
    integral = omega1 * 2.0 * np.pi / spec.a
    factor = u * nu * (1.0 - nu)
    d_s = factor / (np.pi**2 * m_bands) * integral
    pref = spec.a * factor / (2.0 * np.pi**3 * m_bands)
    return BoundChain(entries=(
        ("D_s", d_s),
        ("d_fs^2 bound", pref * d_fs**2),
        ("gamma_b^2 bound", pref * gamma_b**2),
    ), unit="energy*length", notes=tuple(notes))


_MAX_DRAWS = 10_000   # about a second of draws


def random_gapped_bloch_spec(rng, gap_ratio: float = 0.25) -> ModelSpec:
    """Random smooth two-band 1D model with a guaranteed direct gap.

    Draws two harmonics of Bloch-vector Fourier coefficients (a = 1) until
    min_k |n(k)| exceeds gap_ratio * max_k |n(k)| on a dense grid;
    deterministic given the generator state.  gap_ratio must lie in [0, 1):
    a ratio of 1 or more asks for a constant |n(k)|, which no draw gives.
    Past _MAX_DRAWS draws (none of 20 000 cleared 0.9) it raises OutOfRange.
    """
    if not 0.0 <= gap_ratio < 1.0:
        raise OutOfRange(f"gap ratio must lie in [0, 1), got {gap_ratio}")
    if isinstance(rng, (int, np.integer)):
        check_seed(rng)
        rng = np.random.default_rng(rng)
    ks = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    for _ in range(_MAX_DRAWS):
        const = rng.normal(size=3)
        cosc = rng.normal(size=(2, 3)) / np.arange(1, 3)[:, None]
        sinc = rng.normal(size=(2, 3)) / np.arange(1, 3)[:, None]
        spec = fourier_bloch(const, cosc, sinc)
        norms = np.linalg.norm(bloch(spec, ks), axis=1)
        if norms.min() >= gap_ratio * norms.max():
            return spec
    raise OutOfRange(f"none of {_MAX_DRAWS} draws reached gap ratio {gap_ratio}")
