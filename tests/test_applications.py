import dataclasses

import numpy as np
import pytest

from oracles import (chart_metric_grid, composed_eph_values, composed_superfluid_values,
                     composed_wannier_values, hamiltonian, per_k_band_states,
                     two_level_propagator, unwrapped_winding_metric_integral)
from qii import applications, geometry, models
from qii.applications import (BoundChain, adiabatic_cone_demo, eph_bound_chain,
                              evolve, random_gapped_bloch_spec,
                              speed_limit_report, superfluid_weight_1d,
                              wannier_bound_chain, wannier_omega1)
from qii.config import TOL
from qii.errors import DegenerateAtTolerance, NonFiniteDerivative, NotCyclic, OutOfRange
from qii.geometry import Loop, aggregate_summary, summarize
from qii.loops import split_self_intersections
from qii.models import (band_states, bloch_table, bz_grid, bz_loop, creutz, dirac,
                        fermi_surface_loop, fourier_bloch, metric_grid,
                        rhombohedral, ssh)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# --- wannier ---

def test_wannier_ssh_topological_quarter():
    # equator at unit angular speed: g_kk = 1/4 everywhere, Omega_1 = a^2/4
    assert wannier_omega1(ssh(0, 1), n_k=64) == pytest.approx(0.25, abs=1e-8)


def test_wannier_creutz_quarter():
    assert wannier_omega1(creutz(1.0), n_k=64) == pytest.approx(0.25, abs=1e-8)


def test_wannier_ssh_trivial_against_winding_oracle():
    v, w, n_k = 2.0, 1.0, 512
    ks = 2 * np.pi * np.arange(n_k) / n_k
    phis = np.arctan2(w * np.sin(ks), v + w * np.cos(ks))
    expected = unwrapped_winding_metric_integral(phis, 2 * np.pi / n_k) / (2 * np.pi)
    got = wannier_omega1(ssh(v, w), n_k=n_k)
    assert got == pytest.approx(expected, rel=1e-3)
    assert got > 0


def test_is_monotone_default_floor_scales_with_the_chain():
    # default tol: TOL.saturation_floor * max(1, max |value|)
    def chain(*values):
        return BoundChain(entries=tuple((str(i), v) for i, v in enumerate(values)))
    assert chain(40.0, 40.0 + 3e-5).is_monotone()
    assert not chain(40.0, 40.0 + 3e-5).is_monotone(1e-6)
    assert not chain(40.0, 40.0 + 5e-5).is_monotone()
    assert chain(0.5, 0.5 + 0.9e-6).is_monotone()
    assert not chain(0.5, 0.5 + 2e-6).is_monotone()
    assert chain(-40.0).is_monotone() and chain().is_monotone()


def test_wannier_chain_saturated_flat_cases():
    for spec in (ssh(0, 1), creutz(1.0)):
        chain = wannier_bound_chain(spec, n_k=128)
        assert chain.is_monotone(1e-6)
        assert chain.is_saturated(1e-6)
        assert chain.values[0] == pytest.approx(0.25, abs=1e-6)


def test_wannier_chain_trivial_ssh():
    chain = wannier_bound_chain(ssh(2, 1), n_k=256)
    vals = chain.values
    assert chain.is_monotone(1e-9)
    assert vals[0] > vals[1] + 1e-3          # strict first inequality
    assert vals[2] == pytest.approx(0.0, abs=1e-9)  # gamma = 0


def test_wannier_needs_1d():
    with pytest.raises(OutOfRange):
        wannier_omega1(dirac(1.0))


# --- evolve ---

def test_evolve_stationary_eigenstate():
    traj = evolve(lambda t: 0.5 * SZ, [1, 0], 5.0, 500)
    assert np.abs(traj.energies_var).max() < 1e-12
    assert traj.d_accum[-1] < 1e-6


def test_evolve_rabi_arc():
    # H = sigma_x/2 from |0>: Delta E = 1/2 and d(T) = T/2
    duration = 2.0
    traj = evolve(lambda t: 0.5 * SX, [1, 0], duration, 2000)
    np.testing.assert_allclose(traj.energies_var, 0.5, atol=1e-12)
    assert traj.d_accum[-1] == pytest.approx(duration / 2, abs=1e-8)
    # against the closed-form propagator
    psi_exact = two_level_propagator(0.5 * SX, duration) @ np.array([1, 0], dtype=complex)
    fidelity = abs(np.vdot(psi_exact, traj.states[-1]))
    assert fidelity == pytest.approx(1.0, abs=1e-9)


def test_evolve_matches_exact_propagator_random():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = rng.normal(size=3)
        h = 0.5 * (n[0] * SX + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * SZ)
        psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi0 /= np.linalg.norm(psi0)
        traj = evolve(lambda t: h, psi0, 3.0, 3000)
        exact = two_level_propagator(h, 3.0) @ psi0
        assert abs(np.vdot(exact, traj.states[-1])) == pytest.approx(1.0, abs=1e-9)


def test_anandan_aharonov_residual_random_drives():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        c = rng.normal(size=(3, 3))

        def h_of_t(t, c=c):
            n = c[:, 0] + np.cos(t) * c[:, 1] + np.sin(2 * t) * c[:, 2]
            return 0.5 * (n[0] * SX + n[1] * np.array([[0, -1j], [1j, 0]]) + n[2] * SZ)

        traj = evolve(h_of_t, [1, 0], 3.0, 10_000)
        from qii.applications import speed_limit_residual
        worst = max(worst, speed_limit_residual(traj))
    assert worst <= 1e-4


# --- speed limit ---

def test_adiabatic_cone_demo_bounds():
    theta_c = np.pi / 3
    traj, gamma, report = adiabatic_cone_demo(theta_c, ratio=50.0, steps=20000)
    # adiabatic-theorem oracle: gamma ~ pi (1 - cos theta_c), positive
    assert gamma > 0
    assert gamma == pytest.approx(np.pi * (1 - np.cos(theta_c)), abs=0.06)
    # exact circle oracle at the effective tilt angle
    omega_d = 1.0 / 50.0
    theta_eff = np.arctan2(np.sin(theta_c), np.cos(theta_c) + omega_d)
    assert gamma == pytest.approx(np.pi * (1 - np.cos(theta_eff)), abs=1e-4)
    assert report.residual < 1e-6
    assert report.margin > 0
    tau = report.chain.values[0]
    assert report.chain.values[1] == pytest.approx(tau * np.tan(theta_eff / 2), rel=1e-3)


def test_speed_limit_stationary_trivial():
    traj = evolve(lambda t: 0.5 * SZ, [1, 0], 2.0, 400)
    report = speed_limit_report(traj, 0.0)
    assert report.residual < 1e-9
    assert report.chain.values[1] == 0.0


def test_speed_limit_rabi_cycle_saturates():
    # a full Rabi cycle traces a great circle: d = gamma = pi, and the
    # Berry-phase time bound becomes an equality
    from qii.geometry import Loop, summarize
    traj = evolve(lambda t: 0.5 * SX, [1, 0], 2 * np.pi, 4000)
    gamma = summarize(Loop(traj.states[:-1])).gamma_b
    assert abs(gamma) == pytest.approx(np.pi, abs=1e-7)
    report = speed_limit_report(traj, abs(gamma))
    assert report.chain.values[0] == pytest.approx(2 * np.pi)
    assert report.margin == pytest.approx(0.0, abs=1e-6)


def test_evolve_and_cone_demo_reject_bad_parameters():
    with pytest.raises(OutOfRange):
        evolve(lambda t: SX, [1, 0], 1.0, 0)
    with pytest.raises(OutOfRange):
        adiabatic_cone_demo(1.0, ratio=0.0)
    for ratio in (np.inf, np.nan):   # inf made the drive frequency 0: ZeroDivisionError
        with pytest.raises(OutOfRange):
            adiabatic_cone_demo(1.0, ratio=ratio, steps=10)
    for theta_c in (0.0, np.pi / 2, 2.0, -0.5, np.nan):
        with pytest.raises(OutOfRange, match="cone angle"):
            adiabatic_cone_demo(theta_c, steps=10)


def test_speed_limit_rejects_open_trajectory():
    traj = evolve(lambda t: 0.5 * SX, [1, 0], 1.0, 200)
    with pytest.raises(NotCyclic):
        speed_limit_report(traj, 0.0)


def test_evolve_detects_norm_drift():
    from qii.errors import NormDrift
    with pytest.raises(NormDrift):
        evolve(lambda t: 5.0 * SX, [1, 0], 10.0, 3)


# --- electron-phonon ---

@pytest.mark.parametrize("v_f,e_f", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
def test_eph_dirac_topological_bound(v_f, e_f):
    chain = eph_bound_chain(dirac(v_f), e_f, n=256)
    expected = np.pi * v_f / (2 * e_f)
    np.testing.assert_allclose(chain.values, expected, atol=1e-6)
    assert chain.is_monotone(1e-6)


def test_eph_rhombohedral_chain():
    chain = eph_bound_chain(rhombohedral(2), 1.0, n=256)
    assert chain.is_monotone(1e-6)
    l_fs = 2 * np.pi  # k_F = 1 for scale 1, E_F = 1
    assert chain.values[3] == pytest.approx((2 * np.pi) ** 2 / l_fs, abs=1e-6)
    # g_rr = 0 and constant angular speed: the whole chain saturates
    np.testing.assert_allclose(chain.values, np.pi * 4 / (2 * 1.0), atol=1e-6)


# --- superfluid weight ---

def test_sfweight_creutz_saturated():
    chain = superfluid_weight_1d(creutz(1.0), u=1.0, nu=0.5, n_k=128)
    np.testing.assert_allclose(chain.values, 1.0 / (16.0 * np.pi), atol=1e-8)
    assert chain.is_monotone(1e-9)


def test_sfweight_dimerized_ssh_minimal_metric():
    chain = superfluid_weight_1d(ssh(0, 1), u=1.0, nu=0.5)
    np.testing.assert_allclose(chain.values, 0.0)
    assert any("minimal" in note for note in chain.notes)


def test_sfweight_generic_ssh_strict():
    chain = superfluid_weight_1d(ssh(2, 1), u=1.0, nu=0.3, n_k=256)
    vals = chain.values
    assert chain.is_monotone(1e-9)
    assert vals[0] > vals[1] > 0
    assert vals[2] == pytest.approx(0.0, abs=1e-12)
    assert any("dispersive" in note for note in chain.notes)


def test_sfweight_validates_filling():
    with pytest.raises(OutOfRange):
        superfluid_weight_1d(creutz(1.0), u=1.0, nu=1.5)


@pytest.mark.parametrize("u", [np.nan, np.inf, -np.inf, -1.0, 0.0])
def test_sfweight_needs_a_finite_positive_attraction(u):
    # the dimerized SSH chain returns before any k-space work, and still checks U
    for spec in (creutz(1.0), ssh(0, 1)):
        with pytest.raises(OutOfRange, match="U must be finite and positive"):
            superfluid_weight_1d(spec, u=u, nu=0.5)


# --- random gapped models ---

def test_random_model_chains_monotone():
    rng = np.random.default_rng(0)
    for _ in range(25):
        spec = random_gapped_bloch_spec(rng)
        wchain = wannier_bound_chain(spec, n_k=96)
        schain = superfluid_weight_1d(spec, u=1.0, nu=0.5, n_k=96)
        assert wchain.is_monotone(1e-6)
        assert schain.is_monotone(1e-6)


# --- chains against the per-k oracles ---

def _oracle_wannier(spec, n_k):
    ks = bz_grid(spec, n_k)
    s = summarize(Loop(per_k_band_states(spec, ks, "lower")))
    omega = np.mean(chart_metric_grid(spec, "lower", ks)[:, 0, 0])
    return np.array([omega, (spec.a * s.d_fs / (2 * np.pi)) ** 2,
                     (spec.a * s.gamma_b / (2 * np.pi)) ** 2])


def _oracle_eph(spec, e_f, n):
    loop, l_fs = models.fermi_surface_loop(spec, e_f, n)
    alphas = 2 * np.pi * np.arange(loop.n) / loop.n
    ks = l_fs / (2 * np.pi) * np.c_[np.cos(alphas), np.sin(alphas)]
    g = chart_metric_grid(spec, "upper", ks)
    that = np.c_[-np.sin(alphas), np.cos(alphas)]
    parts = split_self_intersections(Loop(per_k_band_states(spec, ks, "upper")))
    agg = aggregate_summary([summarize(p) for p in parts])
    return np.array([sum(np.trace(x) for x in g) * l_fs / loop.n,
                     sum(t @ x @ t for t, x in zip(that, g)) * l_fs / loop.n,
                     agg.d_fs**2 / l_fs, agg.gamma_total**2 / l_fs])


def test_chain_values_match_per_k_oracle():
    rng = np.random.default_rng(3)
    specs = [random_gapped_bloch_spec(rng) for _ in range(4)] + [ssh(2, 1, a=1.3), creutz(1.0)]
    for spec in specs:
        expected = _oracle_wannier(spec, 96)
        np.testing.assert_allclose(wannier_bound_chain(spec, n_k=96).values, expected,
                                   rtol=1e-12, atol=1e-14)
        factor = 0.7 * 0.3 * (1 - 0.3) / (np.pi**2 * 2)
        d_s = superfluid_weight_1d(spec, u=0.7, nu=0.3, n_k=96).values[0]
        assert d_s == pytest.approx(factor * expected[0] * 2 * np.pi / spec.a, rel=1e-12)
    for spec, e_f in ((dirac(1.3), 0.7), (rhombohedral(3), 1.1), (rhombohedral(5, 0.8), 1.4)):
        np.testing.assert_allclose(eph_bound_chain(spec, e_f, 128).values,
                                   _oracle_eph(spec, e_f, 128), rtol=1e-12)


def test_chains_make_no_per_k_calls(monkeypatch):
    # a deterministic guard against a per-k relapse: no chain calls numpy's
    # eigensolver or the generic tensor path, whatever the k count
    calls = {"eigh": 0, "qgt_at": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(geometry, "qgt_at", counting("qgt_at", geometry.qgt_at))
    spec = random_gapped_bloch_spec(5)
    chains = (lambda n: wannier_bound_chain(spec, n_k=n),
              lambda n: superfluid_weight_1d(spec, 1.0, 0.5, n_k=n),
              lambda n: eph_bound_chain(rhombohedral(2), 1.0, n))
    for chain in chains:
        for n in (32, 512):
            chain(n)
            assert calls == {"eigh": 0, "qgt_at": 0}


_K24 = np.linspace(0.1, 2 * np.pi, 24, endpoint=False)
# one model of every 1D kind; the table model has a non-unit lattice constant
_ONE_D = [ssh(0, 1), ssh(1, 0), ssh(2, 1), ssh(1, 2, a=1.3), creutz(1.0),
          bloch_table(_K24 / 1.7, np.c_[1.4 + np.cos(_K24), np.sin(_K24), 0.3 * np.cos(2 * _K24)],
                      a=1.7)] + [random_gapped_bloch_spec(r) for r in range(3)]


@pytest.mark.parametrize("n_k", [24, 97])
@pytest.mark.parametrize("spec", _ONE_D, ids=lambda s: s.describe())
def test_1d_chains_equal_their_composition_exactly(spec, n_k):
    # one Bloch evaluation per chain gives the values of metric_grid, then
    # summarize(bz_loop(...)), bit for bit
    for band in ("lower", "upper"):
        got = tuple(wannier_bound_chain(spec, band, n_k).values)
        assert got == composed_wannier_values(spec, band, n_k)
    got = tuple(superfluid_weight_1d(spec, 1.3, 0.4, n_k).values)
    assert got == composed_superfluid_values(spec, 1.3, 0.4, n_k)


def test_eph_chains_equal_their_composition_exactly():
    # fermi_surface_loop, metric_grid at k_F, split_self_intersections and
    # summarize give the fused chain's values bit for bit; the energies cover
    # radii whose l_fs / 2 pi is one rounding off k_F
    rng = np.random.default_rng(8)
    cases = [(dirac(v_f), e_f, e_f / v_f) for v_f, e_f in rng.uniform(0.5, 2.0, (4, 2))]
    cases += [(rhombohedral(layers, scale), e_f, (e_f / scale) ** (1.0 / layers))
              for layers in range(1, 6) for scale, e_f in rng.uniform(0.5, 2.0, (3, 2))]
    radii_off = 0
    for spec, e_f, k_f in cases:
        radii_off += 2 * np.pi * k_f / (2 * np.pi) != k_f
        for n in (64, 97):
            got = tuple(eph_bound_chain(spec, e_f, n).values)
            assert got == composed_eph_values(spec, e_f, n)
    assert radii_off > 0


def _closing_after_a_step(n_k):
    # n(k) = (1 - cos(k - c), sin(k - c), 0) closes its gap at c = k_j + h only
    c = bz_grid(ssh(1, 1), n_k)[n_k // 3] + TOL.fd_step
    return fourier_bloch([1, 0, 0], [[-np.cos(c), -np.sin(c), 0]],
                         [[-np.sin(c), np.cos(c), 0]])


def _nan_bloch(monkeypatch, kind):
    real = models._KINDS[kind]
    monkeypatch.setitem(models._KINDS, kind, dataclasses.replace(
        real, bloch=lambda spec, ks: np.full((len(ks), 3), np.nan)))


_CHAINS = {
    "wannier": lambda spec: wannier_bound_chain(spec, n_k=24),
    "superfluid": lambda spec: superfluid_weight_1d(spec, 1.0, 0.5, n_k=24),
}


# error type and message of each chain as recorded before the chains shared
# one Bloch evaluation
@pytest.mark.parametrize("chain", list(_CHAINS))
@pytest.mark.parametrize("case, error, message", [
    ("closing at k", DegenerateAtTolerance,
     "gap 2.449e-16 at k = 3.141592653589793 below 1e-09 * model scale"),
    ("closing at k + h", DegenerateAtTolerance,
     "gap 2.220e-16 at k = 2.0944951023931955 below 1e-09 * model scale"),
    ("non-finite", NonFiniteDerivative, "non-finite Bloch-vector difference"),
])
def test_1d_chain_errors_are_pinned(monkeypatch, chain, case, error, message):
    spec = {"closing at k": ssh(1, 1), "closing at k + h": _closing_after_a_step(24),
            "non-finite": ssh(2, 1)}[case]
    if case == "non-finite":
        _nan_bloch(monkeypatch, "ssh")
    with pytest.raises(error) as info:
        _CHAINS[chain](spec)
    assert str(info.value) == message


@pytest.mark.parametrize("case, e_f, error, message", [
    ("closing at k", 1e-12, DegenerateAtTolerance,
     "gap 2.000e-12 at k = [1.e-12 0.e+00] below 1e-09 * model scale"),
    # k_F = h: k + h e_1 is the Dirac point at alpha = pi
    ("closing at k + h", TOL.fd_step, DegenerateAtTolerance,
     "gap 2.449e-20 at k = [0.0000000e+00 1.2246468e-20] below 1e-09 * model scale"),
    ("non-finite", 1.0, ValueError, "vector has non-finite entries"),
])
def test_eph_chain_errors_are_pinned(monkeypatch, case, e_f, error, message):
    if case == "non-finite":
        _nan_bloch(monkeypatch, "dirac")
    with pytest.raises(error) as info:
        eph_bound_chain(dirac(1.0), e_f, 32)
    assert str(info.value) == message


def test_chains_evaluate_the_bloch_vectors_once(monkeypatch):
    # the loop's states, the metric and superfluid's flatness note come from
    # one Bloch call on the stacked k, k +- h e_i
    calls = []
    real = models.bloch

    def spy(spec, ks):
        calls.append(len(ks))
        return real(spec, ks)

    monkeypatch.setattr(models, "bloch", spy)
    monkeypatch.setattr(applications, "bloch", spy)
    spec = random_gapped_bloch_spec(5)
    for n in (32, 96):
        for chain, expected in ((lambda: wannier_bound_chain(spec, n_k=n), [3 * n]),
                                (lambda: superfluid_weight_1d(spec, 1.0, 0.5, n_k=n), [3 * n]),
                                (lambda: eph_bound_chain(dirac(1.0), 1.0, n), [5 * n])):
            calls.clear()
            chain()
            assert calls == expected


def test_chains_make_one_overlap_pass_per_summarized_loop(monkeypatch):
    # Loop's segment gate makes the full-resolution pass and summarize
    # reuses it; only the half-resolution estimate makes one of its own
    sizes = []
    real = geometry._overlap_pass

    def spy(states):
        sizes.append(len(states))
        return real(states)

    monkeypatch.setattr(geometry, "_overlap_pass", spy)
    spec = random_gapped_bloch_spec(5)
    for chain, expected in (
            (lambda: wannier_bound_chain(spec, n_k=96), [96, 48]),
            (lambda: superfluid_weight_1d(spec, 1.0, 0.5, n_k=96), [96, 48]),
            (lambda: eph_bound_chain(dirac(1.0), 1.0, 256), [256, 128]),
            # the gates of the whole Fermi loop and its two sub-loops, then
            # the halves of the sub-loops
            (lambda: eph_bound_chain(rhombohedral(2), 1.0, 256), [256, 128, 128, 64, 64])):
        sizes.clear()
        chain()
        assert sizes == expected


def test_band_paths_never_call_eigh(monkeypatch):
    # the two-band states and metrics are closed forms of the Bloch vector
    calls = []
    numpy_eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(1)
        return numpy_eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    spec, flat = random_gapped_bloch_spec(5), rhombohedral(2)
    ks = bz_grid(spec, 64)
    band_states(spec, ks, "upper")
    bz_loop(spec, "lower", 64)
    fermi_surface_loop(flat, 1.0, 64)
    metric_grid(spec, "lower", ks)
    metric_grid(flat, "upper", np.c_[ks, ks[::-1]])
    wannier_bound_chain(spec, n_k=64)
    superfluid_weight_1d(spec, 1.0, 0.5, n_k=64)
    eph_bound_chain(flat, 1.0, 64)
    assert calls == []
    np.linalg.eigh(hamiltonian(spec, 0.3))   # the spy does see a direct call
    assert calls == [1]


_K64 = np.linspace(0.05, 2 * np.pi, 64, endpoint=False)
_TABLE = np.c_[0.5 + np.cos(_K64), np.sin(_K64), 0.3 * np.cos(2 * _K64)]


@pytest.mark.parametrize("build", [
    lambda s: fourier_bloch([0, 0, 2 * s], [[s, 0, 0]], [[0, s, 0]]),
    lambda s: bloch_table(_K64, s * _TABLE),
], ids=["fourier_bloch", "table"])
def test_chains_do_not_overflow_past_1e154(build):
    # |n| past about 1e154 overflows a sum of squares; the chains depend on
    # the direction of n(k) only
    for chain in (lambda m: wannier_bound_chain(m, n_k=64),
                  lambda m: superfluid_weight_1d(m, 1.0, 0.5, n_k=64)):
        big, small = chain(build(1e200)), chain(build(1.0))
        np.testing.assert_allclose(big.values, small.values, rtol=1e-12)
        assert big.notes == small.notes
