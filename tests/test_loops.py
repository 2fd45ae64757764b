import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (cap_area, cap_perimeter, gram_coincidence_pairs,
                     gram_split, row_major_fourier_states,
                     spherical_polygon_perimeter, stepwise_refine)
from qii.config import TOL
from qii.errors import (BadResolution, DegenerateSpec, EmptyInput,
                        IllConditionedSegment, OutOfRange, WrongDimension,
                        ZeroVector)
from qii.geometry import (Loop, _overlap_pass, _row_norms, bloch_solid_angle,
                          loop_berry_phase, loop_distance, summarize)
from qii.loops import (FourierLoopSpec, _coincidence_key, _coincidence_pairs,
                       _fourier_basis, _key_vector, _split_states, bloch_circle,
                       bloch_states, fourier_loop, fourier_states, great_circle,
                       load_loop, min_resolution, perturb_circle,
                       random_fourier_spec, refine, save_loop, spherical_polygon,
                       split_self_intersections)
from qii.models import band_geometry, bz_grid, bz_loop, fermi_surface_loop, rhombohedral, ssh


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


@pytest.mark.parametrize("axis, error", [
    ([1.0, 2.0], WrongDimension),
    ([[0.0, 0.0, 1.0]], WrongDimension),
    ([0.0, 0.0, 0.0], ZeroVector),
    ([np.nan, 0.0, 1.0], ZeroVector),
    ([np.inf, 0.0, 1.0], ZeroVector),
])
def test_great_circle_rejects_a_bad_axis(axis, error):
    with pytest.raises(error, match="axis"):
        great_circle(axis, 64)


def test_great_circle_needs_a_turn():
    with pytest.raises(OutOfRange):
        great_circle([0, 0, 1], 64, turns=0)


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


@pytest.mark.parametrize("n_vertices", [3, 64])
@pytest.mark.parametrize("n_per_edge", [1, 2, 64])
@pytest.mark.parametrize("theta", [1e-3, 0.05, 3.1, np.pi - 1e-3])
def test_spherical_polygon_perimeter_is_the_closed_form(n_vertices, n_per_edge, theta):
    # the edges are refine's geodesics, on which the chord sum is exact, so
    # only rounding separates it from n asin(sin theta sin(pi / n)), near the
    # poles too, where a round trip through Bloch vectors once lost 8e-12
    exact = n_vertices * math.asin(math.sin(theta) * math.sin(math.pi / n_vertices))
    loop = spherical_polygon(n_vertices, theta, n_per_edge)
    assert loop.n == n_vertices * n_per_edge
    assert loop_distance(loop) == pytest.approx(exact, rel=1e-13, abs=0.0)


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


@pytest.mark.parametrize("m_dim, k", [(3, -1), (0, 2)])
def test_random_fourier_spec_checks_the_shape_before_drawing(m_dim, k):
    rng = np.random.default_rng(0)
    with pytest.raises(OutOfRange):
        random_fourier_spec(m_dim, k, 64, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_random_fourier_spec_rejects_a_negative_seed():
    with pytest.raises(OutOfRange, match="non-negative"):
        random_fourier_spec(3, 2, 64, -3)


def test_fourier_loop_with_orthogonal_samples_is_a_degenerate_spec():
    # z(t_0) = a and z(t_1) = -1 / conj(a): samples 0 and 1 are orthogonal,
    # which Loop's segment gate rejects and fourier_loop reports as the spec's fault
    a = 0.5 + 0.3j
    c1 = (a + 1.0 / np.conj(a)) / (1.0 - np.exp(2j * np.pi / 16))
    spec = FourierLoopSpec(m_dim=2, coeffs=[[0.0, a - c1, c1]], k=1, n=16)
    with pytest.raises(DegenerateSpec, match="consecutive overlap"):
        fourier_loop(spec)


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


@pytest.mark.parametrize("make", [
    lambda: bloch_circle(1.0, 16), lambda: great_circle([1, 2, 3], 17),
    lambda: Loop(np.tile([1.0 + 0j, 0.0], (8, 1))),
    *(lambda m=m: fourier_loop(random_fourier_spec(m, 2, 64, m)) for m in (3, 5, 8, 10)),
], ids=["circle", "great-circle", "constant", "m3", "m5", "m8", "m10"])
@pytest.mark.parametrize("factor", [2, 3, 64])
def test_refine_equals_the_stepwise_loop(make, factor):
    # one broadcast over the steps does each step's arithmetic unchanged
    loop = make()
    np.testing.assert_array_equal(refine(loop, factor).states,
                                  stepwise_refine(loop.states, factor))


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
    got: list = []
    _split_states(states, tol, got)
    if tol == TOL.split:   # the public split's fixed tolerance
        public = split_self_intersections(Loop(states))
        assert len(public) == len(got)
        for loop, part in zip(public, got):
            np.testing.assert_array_equal(loop.states, part)
    assert len(got) == len(want)
    for part, ref in zip(got, want):
        np.testing.assert_array_equal(part, ref)


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


@pytest.mark.parametrize("m", [3, 9])
def test_pairs_match_gram_oracle_on_strided_copies(m):
    # the key reads a float view of the rows, so reversed (negative-stride)
    # and Fortran-ordered copies must give their own exact pairs; m = 9 is
    # past the sizes whose key used to be precomputed
    coeffs = np.zeros((m - 1, 5), dtype=complex)
    coeffs[:, 4] = 1.0   # harmonic +2 only: traversed twice, n/2 exact pairs
    cases = [fourier_loop(FourierLoopSpec(m_dim=m, coeffs=coeffs, k=2, n=256))]
    for i in range(8):
        rng = np.random.default_rng([m, i, 7])
        try:
            cases.append(fourier_loop(random_fourier_spec(m, int(rng.integers(1, 5)), 256, rng)))
        except DegenerateSpec:
            continue
    assert len(cases) >= 6
    found = 0
    for loop in cases:
        for arr in (loop.states, loop.states[::-1], np.asfortranarray(loop.states)):
            for tol in (TOL.split, 0.2):
                pairs = _coincidence_pairs(arr, tol)
                np.testing.assert_array_equal(pairs, gram_coincidence_pairs(arr, tol))
                found += len(pairs)
    assert found > 0


@pytest.mark.parametrize("m", range(2, 10))
def test_coincidence_key_within_its_rounding_bound(m):
    # _coincidence_key's docstring: each key within (2m + 4) eps of the exact
    # |<v|x>|^2 / <x|x> and each squared norm within (m + 1) eps / 2
    # relative, taken here in extended precision with the stored v, whose
    # |v|^2 is within (m + 3) eps of 1
    eps = np.finfo(float).eps
    if np.finfo(np.longdouble).eps >= eps:
        pytest.skip("the reference needs a long double wider than a double")
    v_conj = _key_vector(m)
    assert abs(np.vdot(v_conj, v_conj).real - 1.0) <= (m + 3) * eps
    rng = np.random.default_rng([m, 11])
    n = 512
    x = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    x[::2] = v_conj.conj() + 1e-3 * x[::2]   # keys near their largest value, 1
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= 1.0 + rng.uniform(-TOL.norm, TOL.norm, size=(n, 1))   # norms off by up to TOL.norm
    assert np.abs(np.linalg.norm(x, axis=1) - 1.0).max() > 0.1 * TOL.norm
    v_long = v_conj.astype(np.clongdouble)
    for arr in (x, np.asfortranarray(x), x[::-1], np.asfortranarray(x)[::-1]):
        key, sq = _coincidence_key(arr)
        exact = arr.astype(np.clongdouble)
        w = (exact * v_long).sum(axis=1)
        exact_sq = (exact.real ** 2 + exact.imag ** 2).sum(axis=1)
        assert np.abs(key - (w.real ** 2 + w.imag ** 2) / exact_sq).max() <= (2 * m + 4) * eps
        assert (np.abs(sq - exact_sq) <= (m + 1) * eps / 2 * exact_sq).all()


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


def _equator_and_meridian(delta, n=16):
    """Equator samples, then a meridian that crosses the equator at Bloch
    azimuth delta past samples n/4 and 3n/4: two non-adjacent pairs at
    projective distance delta / 2, all other pairs far apart."""
    t = 2.0 * np.pi * np.arange(n) / n
    return np.concatenate([bloch_states(np.pi / 2, t),
                           bloch_states(np.pi / 2 - t, np.full(n, t[n // 4] + delta))])


@pytest.mark.parametrize("tol, ratios", [(1e-7, (0.5, 2.0, 1e3)),
                                         (1e-3, (0.99, 1.01, 30.0)),
                                         (0.05, (0.99, 1.01, 1.5))])
def test_pairs_near_the_window_match_gram_oracle(monkeypatch, tol, ratios):
    # the closest non-adjacent pair just inside and just outside tol, and
    # (at the split tolerance) far enough out that no sorted key neighbours
    # share a window: both sides of the O(n) no-pair exit match the oracle
    sorted_lookups = []
    searchsorted = np.searchsorted

    def spy(*args, **kwargs):
        sorted_lookups.append(1)
        return searchsorted(*args, **kwargs)

    exits = set()
    for ratio in ratios + (None,):
        states = (bloch_circle(np.pi / 3, 64).states if ratio is None
                  else _equator_and_meridian(2.0 * ratio * tol))
        sorted_lookups.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", spy)
            pairs = _coincidence_pairs(states, tol)
        exits.add(not sorted_lookups)
        assert (len(pairs) == 2) == (ratio is not None and ratio < 1.0)
        _assert_matches_gram(states, tol)
        parts = []
        _split_states(states, tol, parts)
        assert (parts[0] is states) == (len(pairs) == 0)
    if tol == TOL.split:
        assert exits == {True, False}


def test_fourier_states_match_concatenated_rows():
    for m in (2, 3, 4):
        spec = random_fourier_spec(m, 2, 256, m)
        z = _fourier_basis(spec.n, spec.k) @ spec.coeffs.T
        rows = np.concatenate([np.ones((spec.n, 1), dtype=complex), z], axis=1)
        want = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        np.testing.assert_array_equal(fourier_states(spec.coeffs, spec.n), want)


def test_fourier_states_are_column_major_and_match_the_row_major_oracle():
    # below 8 amplitudes a row norm sums left to right in either layout; from
    # 8 on numpy sums a contiguous row pairwise.  Either order errs by at most
    # (M - 1) u relative in the squared norm (u = eps / 2), so the two norms
    # differ by at most (M - 1) u, and each square root and quotient rounds
    # once more: all entries of a row move by one factor, within (M + 3) u
    rng = np.random.default_rng(2025)
    for m in range(2, 9):
        for k in range(6):
            for n in (64, 97, 256, 1000, 2048):
                spec = random_fourier_spec(m, k, n, rng)
                states = fourier_states(spec.coeffs, spec.n)
                want = row_major_fourier_states(spec)
                assert states.flags.f_contiguous
                if m < 8:
                    assert states.tobytes() == want.tobytes()
                else:
                    u = np.finfo(float).eps / 2
                    np.testing.assert_allclose(states, want, rtol=(m + 3) * u, atol=0)


def _producers(tmp_path):
    """Every maker of loop states, with the loop it made."""
    spec = random_fourier_spec(3, 2, 256, 8)
    doubled = Loop(np.concatenate([fourier_states(spec.coeffs, spec.n)] * 2))
    save_loop(tmp_path / "loop.csv", doubled)
    ring = ssh(0.3, 1.0)
    yield "bloch_circle", bloch_circle(0.7, 64)
    yield "great_circle", great_circle([0.3, -1.0, 2.0], 64, turns=2)
    yield "spherical_polygon 1", spherical_polygon(5, 0.7, 1)
    yield "spherical_polygon 64", spherical_polygon(5, 0.7, 64)
    yield "perturb_circle", perturb_circle(0.7, 0.1, 3, 64)
    for m in (3, 8, 10):
        yield f"fourier_loop {m}", fourier_loop(random_fourier_spec(m, 2, 256, m))
    yield "refine", refine(doubled, 3)
    yield "reversed", doubled.reversed()
    parts = split_self_intersections(doubled)
    assert len(parts) == 2
    for i, part in enumerate(parts):
        yield f"split part {i}", part
    yield "load_loop", load_loop(tmp_path / "loop.csv")[0]
    yield "bz_loop", bz_loop(ring, n=64)
    yield "fermi_surface_loop", fermi_surface_loop(rhombohedral(3), 1.0, 96)[0]
    yield "band_geometry", band_geometry(ring, bz_grid(ring, 64))[0]
    for m in (3, 8):
        states = fourier_states(random_fourier_spec(m, 2, 256, 8).coeffs, 256)
        yield f"Loop of a row-major array {m}", Loop(np.ascontiguousarray(states))


def test_every_producer_returns_column_major_read_only_states(tmp_path):
    for name, loop in _producers(tmp_path):
        flags = loop.states.flags
        assert flags.f_contiguous and not flags.writeable, name


@st.composite
def _layout_cases(draw):
    """Fourier loops of 2 to 16 amplitudes, some traversed 2 or 3 times so
    that they split, as (column-major states, row-major copy)."""
    m = draw(st.integers(2, 16))
    k = draw(st.integers(0, 3))
    n = draw(st.integers(min_resolution(k), 300))
    turns = draw(st.sampled_from([1, 1, 2, 3]))
    scale = draw(st.sampled_from([0.05, 0.6, 2.0]))
    spec = random_fourier_spec(m, k, n, draw(st.integers(0, 2**32 - 1)), scale=scale)
    states = np.asfortranarray(np.concatenate([fourier_states(spec.coeffs, spec.n)] * turns))
    return states, np.ascontiguousarray(states)


def _doubled_layouts(m):
    """A Fourier loop of m amplitudes traversed twice, as _layout_cases gives it."""
    spec = random_fourier_spec(m, 2, 64, m)
    states = np.concatenate([fourier_states(spec.coeffs, spec.n)] * 2)
    return states, np.ascontiguousarray(states)


@given(_layout_cases())
@example(_doubled_layouts(8))
@example(_doubled_layouts(10))
@example(_doubled_layouts(16))
@settings(max_examples=200, deadline=None)
def test_layouts_agree_bit_for_bit(case):
    # tobytes and repr tell -0.0 from 0.0, which == does not.  The raw arrays
    # agree below 8 amplitudes, where a row sums left to right in either
    # layout; a Loop copies every input column-major, so loops agree at any width
    f_states, c_states = case
    assert f_states.flags.f_contiguous and c_states.flags.c_contiguous
    if f_states.shape[1] < 8:
        assert _row_norms(f_states).tobytes() == _row_norms(c_states).tobytes()
        for got, want in zip(_overlap_pass(f_states), _overlap_pass(c_states)):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(_coincidence_pairs(f_states, TOL.split),
                                      _coincidence_pairs(c_states, TOL.split))
    try:
        c_loop = Loop(c_states)
    except IllConditionedSegment:
        with pytest.raises(IllConditionedSegment):
            Loop(f_states)
        return
    f_loop = Loop(f_states)
    assert f_loop.states.tobytes() == c_loop.states.tobytes()
    assert repr(summarize(f_loop)) == repr(summarize(c_loop))
    f_parts = split_self_intersections(f_loop)
    c_parts = split_self_intersections(c_loop)
    assert len(f_parts) == len(c_parts)
    for f_part, c_part in zip(f_parts, c_parts):
        assert f_part.states.tobytes() == c_part.states.tobytes()
        assert repr(summarize(f_part)) == repr(summarize(c_part))


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


def _brute_force_pairs(states, tol):
    """Every non-adjacent pair (j, k), through the finder's own einsum overlap
    test, in row-major order."""
    n = len(states)
    found = []
    for d in range(2, n - 1):   # offset n - 1 is the closing pair (0, n - 1)
        j = np.arange(n - d)
        close = np.abs(np.einsum("ij,ij->i", states[j], states[j + d].conj())) >= math.cos(tol)
        found.append(np.stack([j[close], j[close] + d], axis=1))
    pairs = np.concatenate(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def test_dense_pairs_take_linear_memory_and_match_brute_force():
    # every key of a tiny circle lies in one window, so all n^2 / 2 candidates
    # are tested; one sorted offset at a time, no pass holds more than n pairs
    states = bloch_circle(2e-7, 2000).states
    tracemalloc.start()
    try:
        pairs = _coincidence_pairs(states, TOL.split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) > 600_000
    assert peak < 48 << 20   # the pairs alone take 10 MiB
    np.testing.assert_array_equal(pairs, _brute_force_pairs(states, TOL.split))


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
