import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qii.core import (ProjectivePoint, eigh, gauge_fix, normalize, overlap,
                      projector)
from qii.errors import (DegenerateAtTolerance, DimensionMismatch,
                        NotHermitian, ZeroVector)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


# --- overlap ---

def test_overlap_orthogonal_poles():
    assert overlap([1, 0], [0, 1]) == 0


def test_overlap_identity():
    v = np.array([1, 1]) / np.sqrt(2)
    assert overlap(v, v) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_overlap_matches_half_angle(theta):
    # |<north|z1>| = cos(theta/2) for the Bloch parameterization
    z = np.array([np.cos(theta / 2), np.exp(0.7j) * np.sin(theta / 2)])
    assert abs(overlap([1, 0], z)) == pytest.approx(np.cos(theta / 2), abs=1e-14)


def test_overlap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        overlap([1, 0], [1, 0, 0])


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_overlap_conjugate_symmetry(seed, m):
    rng = np.random.default_rng(seed)
    a, b = _random_state(rng, m), _random_state(rng, m)
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-14)


# --- eigh ---

def test_eigh_sigma_z():
    vals, vecs = eigh(SZ)
    np.testing.assert_allclose(vals, [-1, 1])
    assert abs(abs(overlap(vecs[0], [0, 1])) - 1) < 1e-12
    assert abs(abs(overlap(vecs[1], [1, 0])) - 1) < 1e-12


def test_eigh_sigma_x():
    vals, vecs = eigh(SX)
    np.testing.assert_allclose(vals, [-1, 1])
    assert abs(abs(overlap(vecs[0], np.array([1, -1]) / np.sqrt(2))) - 1) < 1e-12
    assert abs(abs(overlap(vecs[1], np.array([1, 1]) / np.sqrt(2))) - 1) < 1e-12


def test_eigh_ssh_closed_form():
    # 2x2 SSH Hamiltonian at k = 0, v = 1, w = 2: eigenvalues -+|v + w e^{-ik}| = -+3
    v, w, k = 1.0, 2.0, 0.0
    h = (v + w * np.cos(k)) * SX + w * np.sin(k) * SY
    vals, _ = eigh(h)
    np.testing.assert_allclose(vals, [-3, 3], atol=1e-12)


def test_eigh_not_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eigh_degenerate_band_request():
    with pytest.raises(DegenerateAtTolerance):
        eigh(np.zeros((2, 2), dtype=complex), require_gap_at=0)


def test_eigh_reconstructs_random_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = rng.integers(2, 9)
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        h = a + a.conj().T
        vals, vecs = eigh(h)
        rebuilt = (vecs.T * vals) @ vecs.conj()
        scale = max(np.abs(vals).max(), 1e-30)
        assert np.abs(rebuilt - h).max() <= 1e-10 * scale


def test_eigh_stack_matches_single_matrices():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(20, 3, 3)) + 1j * rng.normal(size=(20, 3, 3))
    h = a + a.conj().swapaxes(1, 2)
    vals, vecs = eigh(h)
    for i in range(20):
        one_vals, one_vecs = eigh(h[i])
        np.testing.assert_array_equal(vals[i], one_vals)
        np.testing.assert_array_equal(vecs[i], one_vecs)
    h[7, 0, 1] += 1.0
    with pytest.raises(NotHermitian):
        eigh(h)


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


# --- gauge fixing / ProjectivePoint ---

@given(st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi))
@settings(max_examples=60, deadline=None)
def test_gauge_fix_idempotent_and_phase_free(seed, alpha):
    rng = np.random.default_rng(seed)
    v = _random_state(rng, 4)
    fixed = gauge_fix(v)
    np.testing.assert_allclose(gauge_fix(fixed), fixed, atol=1e-14)
    np.testing.assert_allclose(gauge_fix(np.exp(1j * alpha) * v), fixed, atol=1e-12)


def test_gauge_fix_stack_matches_rows():
    rng = np.random.default_rng(4)
    states = np.array([_random_state(rng, 3) for _ in range(12)])
    states[5, 0] = 0.0   # the first entry vanishes: the second one is made real
    fixed = gauge_fix(states)
    for i in range(12):
        np.testing.assert_array_equal(fixed[i], gauge_fix(states[i]))
    states[2] = 0.0
    with pytest.raises(ZeroVector):
        gauge_fix(states)


def test_projective_point_equality():
    rng = np.random.default_rng(3)
    v = _random_state(rng, 3)
    assert ProjectivePoint(v) == ProjectivePoint(np.exp(0.9j) * v)
    assert ProjectivePoint([1, 0, 0]) != ProjectivePoint([0, 1, 0])


def test_projective_point_distance_poles():
    d = ProjectivePoint([1, 0]).distance(ProjectivePoint([0, 1]))
    assert d == pytest.approx(np.pi / 2)
