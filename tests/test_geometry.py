import numpy as np
import pytest

from oracles import (brute_berry_phase, brute_distance, cap_area,
                     roll_berry_phase, roll_distance)
from qii.config import TOL
from qii.errors import IllConditionedSegment, WrongDimension, ZeroVector
from qii.geometry import (Chart, Loop, _scalars, bloch_solid_angle, bloch_vectors,
                          loop_berry_phase, loop_distance, normalize, principal_phase,
                          projector, qgt_at, segment_distance, summarize)
from qii.loops import (bloch_circle, bloch_states, fourier_loop, fourier_states,
                       great_circle, random_fourier_spec)


def _constant_loop(n=16, m=2):
    state = np.zeros(m, dtype=complex)
    state[0] = 1.0
    return Loop(np.tile(state, (n, 1)))


def _random_loop(seed, m=2, n=256):
    return fourier_loop(random_fourier_spec(m, 2, n, seed))


def _random_state(rng, m):
    v = rng.normal(size=m) + 1j * rng.normal(size=m)
    return v / np.linalg.norm(v)


# --- normalize ---

def test_normalize_identity():
    np.testing.assert_allclose(normalize([1, 0]), [1, 0])


def test_normalize_symmetric():
    np.testing.assert_allclose(normalize([1, 1]), np.array([1, 1]) / np.sqrt(2))


def test_normalize_345():
    np.testing.assert_allclose(normalize([3j, 4]), [0.6j, 0.8])


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize([0.0, 0.0])


# --- projector ---

def test_projector_pole():
    np.testing.assert_allclose(projector([1, 0]), [[1, 0], [0, 0]])


def test_projector_plus_state():
    p = projector(np.array([1, 1]) / np.sqrt(2))
    np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])


def test_projector_conjugation():
    p = projector(np.array([1, 1j]) / np.sqrt(2))
    np.testing.assert_allclose(p, [[0.5, -0.5j], [0.5j, 0.5]])


def test_projector_idempotent_trace_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = projector(_random_state(rng, rng.integers(2, 7)))
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(p).imag) < 1e-12


# --- Loop invariants ---

def test_loop_rejects_too_short():
    with pytest.raises(IllConditionedSegment):
        Loop(np.array([[1, 0], [0, 1]], dtype=complex))


def test_loop_rejects_orthogonal_neighbors():
    states = np.array([[1, 0], [0, 1], [1, 0]], dtype=complex)
    with pytest.raises(IllConditionedSegment):
        Loop(states)


def test_loop_rejects_nan_states():
    states = np.array([[1, 0], [np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        Loop(states)


def test_loop_states_read_only():
    loop = bloch_circle(1.0, 8)
    with pytest.raises(ValueError):
        loop.states[0, 0] = 0.0


# --- segment_distance ---

def test_segment_distance_self():
    # arccos near 1 cannot resolve below ~sqrt(eps)
    v = np.array([1, 1j]) / np.sqrt(2)
    assert segment_distance(v, v) == pytest.approx(0.0, abs=1e-7)


def test_segment_distance_poles():
    assert segment_distance([1, 0], [0, 1]) == pytest.approx(np.pi / 2)


def test_segment_distance_half_polar_angle():
    state = bloch_states(np.pi / 2, 0.3)[0]
    assert segment_distance([1, 0], state) == pytest.approx(np.pi / 4)


# --- loop_distance / loop_berry_phase ---

def test_constant_loop_zero():
    loop = _constant_loop()
    assert loop_distance(loop) == pytest.approx(0.0, abs=1e-12)
    assert loop_berry_phase(loop) == pytest.approx(0.0, abs=1e-12)


def test_equator_distance_and_phase_exact():
    # great circles are geodesics: the chord sum is exact at any n
    loop = bloch_circle(np.pi / 2, 8)
    assert loop_distance(loop) == pytest.approx(np.pi, abs=1e-12)
    assert loop_berry_phase(loop) == pytest.approx(np.pi, abs=1e-12)
    loop = bloch_circle(np.pi / 2, 4096)
    assert loop_distance(loop) == pytest.approx(np.pi, abs=1e-9)
    assert loop_berry_phase(loop) == pytest.approx(np.pi, abs=1e-9)


def test_circle_distance_converges_to_cap_perimeter():
    theta = np.pi / 3
    loop = bloch_circle(theta, 4096)
    assert loop_distance(loop) == pytest.approx(np.pi * np.sin(theta), abs=1e-5)


def test_circle_phase_matches_half_solid_angle():
    theta = np.pi / 3
    loop = bloch_circle(theta, 4096)
    gamma = loop_berry_phase(loop)
    assert gamma == pytest.approx(-np.pi * (1 - np.cos(theta)), abs=1e-5)
    assert abs(gamma) == pytest.approx(cap_area(theta, radius=1.0) / 2, abs=1e-5)


def test_matches_brute_force_oracles():
    loop = _random_loop(5, m=3, n=64)
    states = [list(row) for row in loop.states]
    assert loop_distance(loop) == pytest.approx(brute_distance(states), abs=1e-12)
    assert loop_berry_phase(loop) == pytest.approx(brute_berry_phase(states), abs=1e-12)


def test_gauge_invariance():
    rng = np.random.default_rng(42)
    loop = _random_loop(9, m=4, n=128)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=loop.n))
    rotated = Loop(loop.states * phases[:, None])
    assert abs(loop_distance(rotated) - loop_distance(loop)) < 1e-12
    assert abs(loop_berry_phase(rotated) - loop_berry_phase(loop)) < 1e-12


def test_orientation_reversal():
    loop = _random_loop(13, m=2, n=128)
    rev = loop.reversed()
    assert loop_distance(rev) == pytest.approx(loop_distance(loop), abs=1e-12)
    assert loop_berry_phase(rev) == pytest.approx(-loop_berry_phase(loop), abs=1e-12)


def test_principal_phase_branch():
    assert principal_phase(np.pi) == pytest.approx(np.pi)
    assert principal_phase(-np.pi) == pytest.approx(np.pi)
    assert principal_phase(-np.pi + 1e-12) == pytest.approx(np.pi)
    assert principal_phase(3 * np.pi / 2) == pytest.approx(-np.pi / 2)


# --- bloch_solid_angle ---

def test_solid_angle_constant_loop():
    assert bloch_solid_angle(_constant_loop()) == pytest.approx(0.0, abs=1e-12)


def test_solid_angle_circle_cap():
    loop = bloch_circle(np.pi / 3, 2048)
    assert bloch_solid_angle(loop) == pytest.approx(np.pi, abs=1e-4)


def test_solid_angle_equator_hemisphere():
    loop = bloch_circle(np.pi / 2, 2048)
    assert bloch_solid_angle(loop) == pytest.approx(2 * np.pi, abs=1e-9)


def test_solid_angle_wrong_dimension():
    with pytest.raises(WrongDimension):
        bloch_solid_angle(_random_loop(1, m=3))


def test_solid_angle_reference_moved_off_loop():
    # this great circle passes through both poles; the default reference
    # must be abandoned without changing the (signed) area
    loop = great_circle([1.0, 0.0, 0.0], 1024)
    assert abs(bloch_solid_angle(loop)) == pytest.approx(2 * np.pi, abs=1e-9)


def test_solid_angle_halves_berry_phase_random():
    # |gamma| = Omega/2 holds exactly for the discrete geodesic polygon
    for seed in range(300):
        loop = _random_loop(seed, m=2, n=96)
        gamma = loop_berry_phase(loop)
        omega = bloch_solid_angle(loop)
        assert abs(abs(gamma) - abs(omega) / 2) < 1e-9


def test_bloch_vectors_unit_norm():
    loop = _random_loop(21, m=2, n=64)
    norms = np.linalg.norm(bloch_vectors(loop.states), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


# --- summarize ---

def test_summarize_equator():
    s = summarize(bloch_circle(np.pi / 2, 4096))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-6)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-6)
    assert s.n_segments == 4096
    assert s.convergence_est < 1e-5


def test_summarize_constant():
    s = summarize(_constant_loop(n=32))
    assert s.d_fs == 0.0
    assert s.gamma_b == 0.0
    assert s.convergence_est == 0.0


def test_summarize_quarter_circle():
    theta = np.pi / 4
    s = summarize(bloch_circle(theta, 2048))
    assert s.d_fs == pytest.approx(np.pi * np.sin(theta), abs=1e-5)
    assert abs(s.gamma_b) == pytest.approx(np.pi * (1 - np.cos(theta)), abs=1e-5)


def _scalar_cases():
    for m in (2, 3, 4):
        for seed in range(4):
            spec = random_fourier_spec(m, 2, 256 + 64 * seed, 100 * m + seed)
            yield fourier_states(spec.coeffs, spec.n)
    for turns in (2, 3, 8):
        for per_turn in (4, 16, 64):
            yield great_circle([1.0, 0.3, -0.2], per_turn * turns, turns=turns).states


def _roll_summary(states):
    d, g = roll_distance(states), roll_berry_phase(states)
    half = states[::2]
    try:
        est = max(abs(d - roll_distance(half)),
                  abs(principal_phase(g - roll_berry_phase(half), guard=0.0)))
    except IllConditionedSegment:
        est = abs(d - roll_distance(half))
    return d, g, est


def test_one_pass_scalars_match_roll_oracle_bit_for_bit():
    # the fused (d, gamma) pass equals separate np.roll passes exactly, on
    # random Fourier loops, multi-turn great circles and their [::2] halves;
    # 4 samples a turn makes the halves join orthogonal states
    fallbacks = 0
    for states in _scalar_cases():
        for arr in (states, states[::2]):
            try:
                want = (roll_distance(arr), roll_berry_phase(arr))
            except IllConditionedSegment:
                with pytest.raises(IllConditionedSegment):
                    _scalars(arr)
                fallbacks += 1
                continue
            assert _scalars(arr) == want
        s = summarize(Loop(states))
        assert (s.d_fs, s.gamma_b, s.convergence_est) == _roll_summary(states)
    assert fallbacks == 3


# --- qgt_at ---

def _two_band_chart(step=TOL.fd_step):
    # z1 chart |z> = (1, z)/sqrt(1+|z|^2) with lam = (Re z, Im z)
    def chart_map(lam):
        z = lam[0] + 1j * lam[1]
        return np.array([1.0, z]) / np.sqrt(1.0 + abs(z) ** 2)
    return Chart(map=chart_map, d=2, step=step)


def test_qgt_fubini_study_at_origin():
    t = qgt_at(_two_band_chart(), [0.0, 0.0])
    # chi_11 = 1/(1+|z|^2)^2 = 1 at z = 0, isotropic in (Re z, Im z)
    assert t.g[0, 0] == pytest.approx(1.0, abs=1e-7)
    assert t.g[1, 1] == pytest.approx(1.0, abs=1e-7)
    assert t.g[0, 1] == pytest.approx(0.0, abs=1e-7)
    assert t.convergence_est < 1e-6


def test_qgt_fubini_study_unit_circle():
    t = qgt_at(_two_band_chart(), [1.0, 0.0])
    assert t.g[0, 0] == pytest.approx(0.25, abs=1e-7)


def test_qgt_chi_decomposition_and_psd():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        base = rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m))
        freq = rng.normal(size=2)

        def chart_map(lam, base=base, freq=freq):
            v = base[0] + np.sin(freq[0] * lam[0]) * base[1] + np.cos(freq[1] * lam[1]) * base[2]
            return v / np.linalg.norm(v)

        t = qgt_at(Chart(map=chart_map, d=2), rng.uniform(-1, 1, size=2),
                   richardson=False)
        np.testing.assert_allclose(t.chi, t.g - 0.5j * t.f, atol=1e-10)
        assert np.linalg.eigvalsh(t.g).min() > -1e-10
        np.testing.assert_allclose(t.g, t.g.T, atol=1e-12)
        np.testing.assert_allclose(t.f, -t.f.T, atol=1e-12)


def test_qgt_gauge_independent():
    def noisy_map(lam):
        clean = _two_band_chart().map(lam)
        return np.exp(1j * (3.1 * lam[0] - 0.7 * lam[1])) * clean

    t_clean = qgt_at(_two_band_chart(), [0.4, -0.2])
    t_noisy = qgt_at(Chart(map=noisy_map, d=2), [0.4, -0.2])
    np.testing.assert_allclose(t_noisy.chi, t_clean.chi, atol=1e-9)


def test_qgt_non_finite_map():
    from qii.errors import NonFiniteDerivative

    def bad_map(lam):
        return np.array([1.0, np.inf * lam[0]])

    with pytest.raises((NonFiniteDerivative, ValueError)):
        qgt_at(Chart(map=bad_map, d=1), [0.5])
