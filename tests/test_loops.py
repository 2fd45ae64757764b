import tracemalloc

import numpy as np
import pytest

from oracles import (cap_area, cap_perimeter, gram_coincidence_pairs,
                     gram_split, spherical_polygon_perimeter)
from qii.config import TOL
from qii.errors import BadResolution, DegenerateSpec, EmptyInput, OutOfRange
from qii.geometry import (Loop, bloch_solid_angle, loop_berry_phase,
                          loop_distance, summarize)
from qii.loops import (FourierLoopSpec, _coincidence_pairs, bloch_circle,
                       bloch_states, fourier_loop, great_circle, load_loop,
                       perturb_circle, random_fourier_spec, refine, save_loop,
                       spherical_polygon, split_self_intersections)
from qii.models import fermi_surface_loop, rhombohedral


def _figure_eight(rho=np.pi / 5, n=512):
    """Two caps of angular radius rho tangent at one point, traversed with
    opposite orientations; touch point sampled exactly in both circles."""
    phi = 2.0 * np.pi * np.arange(n) / n
    first = bloch_states(rho, phi).copy()  # circle about the north pole
    # second circle: rotate the first about the y axis by 2*rho, reversed
    half = np.exp(1j * rho * np.array([[0, -1], [1, 0]]) * -1j)  # rotation spinor
    c, s = np.cos(rho), np.sin(rho)
    rot = np.array([[c, -s], [s, c]], dtype=complex)  # exp(-i sigma_y rho)
    second = (rot @ first.T).T[::-1]
    # both start (after rolling) at the shared point theta=rho, phi=0
    touch = bloch_states(rho, 0.0)[0]
    j = int(np.argmax(np.abs(second @ touch.conj())))
    second = np.roll(second, -j, axis=0)
    return Loop(np.concatenate([first, second]))


# --- bloch_circle ---

def test_bloch_circle_equator_summary():
    s = summarize(bloch_circle(np.pi / 2, 512))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-9)


def test_bloch_circle_shrinks_to_zero():
    s = summarize(bloch_circle(1e-3, 512))
    assert s.d_fs == pytest.approx(np.pi * 1e-3, rel=1e-4)
    assert abs(s.gamma_b) < 1e-5


def test_bloch_circle_quarter():
    s = summarize(bloch_circle(np.pi / 4, 2048))
    assert s.d_fs == pytest.approx(np.pi * np.sin(np.pi / 4), abs=1e-5)
    assert abs(s.gamma_b) == pytest.approx(np.pi * (1 - np.cos(np.pi / 4)), abs=1e-5)


def test_bloch_circle_validation():
    with pytest.raises(BadResolution):
        bloch_circle(1.0, 2)
    with pytest.raises(OutOfRange):
        bloch_circle(0.0, 16)


# --- great_circle ---

def test_great_circle_z_axis_is_equator():
    s = summarize(great_circle([0, 0, 1], 256))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-9)


def test_great_circle_rotation_invariance():
    s = summarize(great_circle([1, 0, 0], 4096))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-6)
    assert abs(s.gamma_b) == pytest.approx(np.pi, abs=1e-6)


def test_great_circle_two_turns_splits():
    loop = great_circle([0, 0, 1], 1024, turns=2)
    parts = split_self_intersections(loop)
    assert len(parts) == 2
    total_d = sum(loop_distance(p) for p in parts)
    total_g = sum(loop_berry_phase(p) for p in parts)
    assert total_d == pytest.approx(2 * np.pi, abs=1e-8)
    assert total_g == pytest.approx(2 * np.pi, abs=1e-8)


# --- spherical_polygon ---

def test_spherical_polygon_perimeter_against_trig_oracle():
    loop = spherical_polygon(3, np.pi / 4, 1024)
    assert loop_distance(loop) == pytest.approx(
        spherical_polygon_perimeter(3, np.pi / 4, radius=0.5), abs=1e-6)


def test_spherical_polygon_converges_to_circle():
    theta = np.pi / 4
    s = summarize(spherical_polygon(256, theta, 16))
    assert s.d_fs == pytest.approx(np.pi * np.sin(theta), abs=1e-3)
    assert abs(s.gamma_b) == pytest.approx(np.pi * (1 - np.cos(theta)), abs=1e-3)


def test_spherical_polygon_equator_degenerate_square():
    s = summarize(spherical_polygon(4, np.pi / 2, 512))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-9)


# --- fourier_loop ---

def test_fourier_zero_spec_is_constant():
    spec = FourierLoopSpec(m_dim=3, coeffs=np.zeros((2, 3)), k=1, n=64)
    s = summarize(fourier_loop(spec))
    assert s.d_fs == pytest.approx(0.0, abs=1e-9)
    assert s.gamma_b == pytest.approx(0.0, abs=1e-9)


def test_fourier_unit_harmonic_is_equator():
    coeffs = np.zeros((1, 3), dtype=complex)
    coeffs[0, 2] = 1.0  # z(t) = e^{it}
    s = summarize(fourier_loop(FourierLoopSpec(m_dim=2, coeffs=coeffs, k=1, n=512)))
    assert s.d_fs == pytest.approx(np.pi, abs=1e-9)
    assert s.gamma_b == pytest.approx(np.pi, abs=1e-9)


def test_fourier_random_weak_margin_nonnegative():
    s = summarize(fourier_loop(random_fourier_spec(3, 2, 2048, 42)))
    assert s.d_fs - s.gamma_b >= 0.0


def test_fourier_spec_validation():
    with pytest.raises(BadResolution):
        FourierLoopSpec(m_dim=2, coeffs=np.zeros((1, 3)), k=1, n=8)
    with pytest.raises(OutOfRange):
        FourierLoopSpec(m_dim=2, coeffs=np.zeros((1, 5)), k=1, n=64)


# --- perturb_circle ---

def test_perturb_zero_eps_is_circle():
    a = perturb_circle(np.pi / 3, 0.0, 2, 256)
    b = bloch_circle(np.pi / 3, 256)
    np.testing.assert_allclose(a.states, b.states, atol=1e-14)


def test_perturb_phase_shift_scales_quadratically():
    theta, n = np.pi / 3, 8192
    g0 = loop_berry_phase(bloch_circle(theta, n))
    eps = np.array([1e-2, 5e-3, 2.5e-3])
    dg = [abs(loop_berry_phase(perturb_circle(theta, e, 2, n)) - g0) for e in eps]
    slope = np.polyfit(np.log(eps), np.log(dg), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_perturb_increases_distance():
    theta, n = np.pi / 3, 8192
    d0 = loop_distance(bloch_circle(theta, n))
    assert loop_distance(perturb_circle(theta, 1e-2, 2, n)) >= d0


def test_perturb_out_of_range():
    with pytest.raises(OutOfRange):
        perturb_circle(0.05, 0.1, 1, 64)


# --- refine ---

def test_refine_constant_loop():
    state = np.array([1, 0], dtype=complex)
    loop = Loop(np.tile(state, (8, 1)))
    refined = refine(loop, 4)
    assert refined.n == 32
    np.testing.assert_allclose(refined.states, np.tile(state, (32, 1)), atol=1e-14)


def test_refine_preserves_geodesic_polygon_distance():
    loop = bloch_circle(np.pi / 4, 16)
    d0 = loop_distance(loop)
    refined = refine(loop, 8)
    assert refined.n == 128
    assert loop_distance(refined) >= d0 - 1e-12
    assert loop_distance(refined) == pytest.approx(d0, abs=1e-9)


def test_refine_equator_monotone():
    loop = bloch_circle(np.pi / 2, 8)
    refined = refine(loop, 8)
    assert loop_distance(refined) >= loop_distance(loop) - 1e-12
    assert loop_distance(refined) == pytest.approx(np.pi, abs=1e-9)


def test_resampled_circle_convergence_is_quadratic():
    theta = np.pi / 4
    target = np.pi * np.sin(theta)
    errs = [target - loop_distance(bloch_circle(theta, n)) for n in (64, 128, 256)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_refine_gauge_invariant():
    rng = np.random.default_rng(17)
    loop = bloch_circle(np.pi / 3, 32)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=loop.n))
    rotated = Loop(loop.states * phases[:, None])
    a, b = refine(loop, 4), refine(rotated, 4)
    assert loop_distance(a) == pytest.approx(loop_distance(b), abs=1e-12)
    assert loop_berry_phase(a) == pytest.approx(loop_berry_phase(b), abs=1e-12)


# --- split_self_intersections ---

def test_split_simple_circle_returns_itself():
    loop = bloch_circle(np.pi / 3, 256)
    parts = split_self_intersections(loop)
    assert len(parts) == 1
    assert parts[0] is loop


def test_split_double_equator():
    loop = great_circle([0, 0, 1], 2048, turns=2)
    parts = split_self_intersections(loop)
    assert len(parts) == 2
    for p in parts:
        s = summarize(p)
        assert s.d_fs == pytest.approx(np.pi, abs=1e-8)
        assert s.gamma_b == pytest.approx(np.pi, abs=1e-8)


def test_split_preserves_total_distance():
    loop = great_circle([0, 0, 1], 1024, turns=3)
    parts = split_self_intersections(loop)
    total = sum(loop_distance(p) for p in parts)
    assert abs(total - loop_distance(loop)) <= loop.n * 1e-12


def test_split_figure_eight_opposite_phases():
    loop = _figure_eight()
    parts = split_self_intersections(loop)
    assert len(parts) == 2
    gammas = sorted(loop_berry_phase(p) for p in parts)
    cap = np.pi * (1 - np.cos(np.pi / 5))
    assert gammas[0] == pytest.approx(-cap, abs=1e-3)
    assert gammas[1] == pytest.approx(cap, abs=1e-3)
    omegas = sorted(bloch_solid_angle(p) for p in parts)
    assert omegas[0] == pytest.approx(-2 * cap, abs=2e-3)
    assert omegas[1] == pytest.approx(2 * cap, abs=2e-3)


def _assert_matches_gram(states, tol=TOL.split):
    np.testing.assert_array_equal(_coincidence_pairs(states, tol),
                                  gram_coincidence_pairs(states, tol))
    want = gram_split(states, tol)
    got = split_self_intersections(Loop(states), tol)
    assert len(got) == len(want)
    for part, ref in zip(got, want):
        np.testing.assert_array_equal(part.states, ref)


@pytest.mark.parametrize("tol", [TOL.split, 0.05, 0.2])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_split_matches_gram_oracle_fourier(m, tol):
    checked = 0
    for i in range(20):
        rng = np.random.default_rng([m, i])
        try:
            loop = fourier_loop(random_fourier_spec(m, int(rng.integers(1, 5)), 256, rng))
        except DegenerateSpec:
            continue
        _assert_matches_gram(loop.states, tol)
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("turns", [2, 3, 5, 8, 13, 21, 32])
def test_split_matches_gram_oracle_great_circles(turns):
    axis = np.random.default_rng(turns).normal(size=3)
    for per_turn in (8, 16, 64):
        _assert_matches_gram(great_circle(axis, per_turn * turns, turns=turns).states)


@pytest.mark.parametrize("n_layers", [1, 2, 3, 4, 5])
def test_split_matches_gram_oracle_fermi_surface(n_layers):
    for nk in (128, 512):
        loop, _ = fermi_surface_loop(rhombohedral(n_layers), 1.3, nk)
        _assert_matches_gram(loop.states)


def test_split_thousand_turns_iteratively():
    loop = great_circle([0.3, -1.0, 2.0], 16 * 1000, turns=1000)
    parts = split_self_intersections(loop)
    assert len(parts) == 1000
    total = sum(summarize(p).d_fs for p in parts)
    assert total == pytest.approx(1000 * np.pi, abs=1e-5)


def test_split_memory_is_linear_in_n():
    loop = great_circle([1.0, 2.0, 3.0], 1 << 15)
    tracemalloc.start()
    try:
        parts = split_self_intersections(loop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parts == [loop]
    assert peak < 64 << 20  # an n x n boolean mask alone would take 1 GiB


# --- serialization ---

def test_loop_csv_roundtrip(tmp_path):
    loop = fourier_loop(random_fourier_spec(3, 2, 64, 123))
    path = tmp_path / "loop.csv"
    save_loop(path, loop, generator="fourier", parameters={"k": 2}, seed=123)
    loaded, meta = load_loop(path)
    assert meta["m"] == 3 and meta["n"] == 64
    assert meta["generator"] == "fourier"
    assert meta["parameters"] == {"k": 2}
    assert meta["seed"] == 123
    np.testing.assert_allclose(loaded.states, loop.states, atol=1e-15)


def test_load_loop_without_rows(tmp_path):
    path = tmp_path / "loop.csv"
    save_loop(path, bloch_circle(1.0, 8))
    header = path.read_text().splitlines()[:2]
    path.write_text("\n".join(header) + "\n")
    with pytest.raises(EmptyInput):
        load_loop(path)
