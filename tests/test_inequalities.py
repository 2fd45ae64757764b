import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (cap_area, cap_perimeter, scalars_longdouble, spherical_polygon_area,
                     spherical_polygon_perimeter, spin_coherent_circle, spin_coherent_polygon)
from qii import geometry
from qii.errors import AreaExceedsSphere, EmptyInput, IllConditionedSegment
from qii.geometry import (Loop, aggregate_summary, loop_berry_phase, loop_distance,
                          principal_phase, summarize)
from qii.inequalities import (_rounding_bound, aggregate_subloops, plane_check,
                              sphere_check, strong_qii, tol_for, weak_qii)
from qii.loops import (bloch_circle, bloch_states, fourier_loop, fourier_states,
                       great_circle, perturb_circle, random_fourier_spec,
                       spherical_polygon, split_self_intersections)
from qii.models import fermi_surface_loop, rhombohedral


def _regular_polygon(n, radius=1.0):
    p = 2 * n * radius * np.sin(np.pi / n)
    a = 0.5 * n * radius**2 * np.sin(2 * np.pi / n)
    return p, a


# --- plane_check ---

def test_plane_circle_saturates():
    r = plane_check(2 * np.pi, np.pi)
    assert r.margin == pytest.approx(0.0, abs=1e-12)
    assert r.saturated


def test_plane_polygon_quotients():
    # (N/pi) tan(pi/N): 1.653, 1.273, 1.103 for N = 3, 4, 6
    for n, expected in [(3, 1.653), (4, 1.273), (6, 1.103)]:
        r = plane_check(*_regular_polygon(n))
        assert r.inputs["quotient"] == pytest.approx((n / np.pi) * np.tan(np.pi / n), rel=1e-12)
        assert r.inputs["quotient"] == pytest.approx(expected, abs=1e-3)
        assert r.margin > 0 and not r.saturated


def test_plane_large_n_limits_to_one():
    r = plane_check(*_regular_polygon(10_000))
    assert r.inputs["quotient"] == pytest.approx(1.0, abs=1e-6)


# --- sphere_check ---

def test_sphere_cap_saturates():
    for theta in (0.4, np.pi / 4, 1.2):
        r = sphere_check(cap_perimeter(theta), cap_area(theta), 0.5)
        assert r.margin == pytest.approx(0.0, abs=1e-12)
        assert r.saturated


def test_sphere_great_circle_on_unit_sphere():
    r = sphere_check(2 * np.pi, 2 * np.pi, 1.0)
    assert r.margin == pytest.approx(0.0, abs=1e-12)
    assert r.saturated


def test_sphere_triangle_positive_margin():
    p = spherical_polygon_perimeter(3, np.pi / 4, radius=0.5)
    a = spherical_polygon_area(3, np.pi / 4, radius=0.5)
    r = sphere_check(p, a, 0.5)
    assert r.margin > 0 and not r.saturated


def test_sphere_area_too_large():
    with pytest.raises(AreaExceedsSphere):
        sphere_check(1.0, 20.0, 0.5)


# --- strong_qii ---

def test_strong_saturated_for_circles():
    for theta in (0.3, np.pi / 2, 1.2, 2.8):
        rep = strong_qii(summarize(bloch_circle(theta, 4096)))
        assert abs(rep.margin) < 1e-5
        assert rep.saturated


def test_strong_constant_loop():
    s = summarize(bloch_circle(1e-9 + 1e-10, 64))  # nearly a point
    rep = strong_qii(s)
    assert rep.margin == pytest.approx(0.0, abs=1e-9)


def test_strong_random_two_band_nonnegative():
    rep = strong_qii(summarize(fourier_loop(random_fourier_spec(2, 2, 2048, 7))))
    assert rep.margin >= -1e-6


def test_strong_conjecture_flagged():
    rep = strong_qii(summarize(fourier_loop(random_fourier_spec(4, 2, 512, 3))), conjecture=True)
    assert rep.inputs["conjecture"] is True


# --- weak_qii ---

def test_weak_equator_saturated():
    rep = weak_qii(summarize(bloch_circle(np.pi / 2, 2048)))
    assert rep.margin == pytest.approx(0.0, abs=1e-9)
    assert rep.saturated


def test_weak_quarter_circle_value():
    rep = weak_qii(summarize(bloch_circle(np.pi / 4, 4096)))
    expected = np.pi * np.sin(np.pi / 4) - np.pi * (1 - np.cos(np.pi / 4))
    # gamma is negative for this orientation; signed margin is d - gamma
    assert rep.inputs["margin_abs"] == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(1.3012, abs=1e-4)
    assert rep.margin > 0


def test_weak_holds_on_random_loops_all_dims():
    # scaled-down version of the release property (full scale in acceptance)
    for m in (2, 3, 4, 5):
        rng_seed = m - 2
        for i in range(250):
            spec = random_fourier_spec(m, 2, 1024, 1000 * rng_seed + i)
            rep = weak_qii(summarize(fourier_loop(spec)))
            assert rep.margin >= -1e-6


def test_strong_holds_on_random_split_two_band_loops():
    # scaled-down version of the 1e4-loop property (full scale via CLI verify --strong)
    rng = np.random.default_rng(99)
    checked = 0
    for i in range(400):
        spec = random_fourier_spec(2, 2, 1024, int(rng.integers(2**31)))
        loop = fourier_loop(spec)
        for part in split_self_intersections(loop):
            s = summarize(part)
            rep = strong_qii(s, conjecture=len(part.states) != loop.n)
            assert rep.margin >= -tol_for(s)
            checked += 1
    assert checked >= 400


def test_points_below_quarter_circle():
    # (d, |gamma|) of short two-band loops stays on/below the quarter circle
    for seed in range(200):
        s = summarize(fourier_loop(random_fourier_spec(2, 1, 512, seed, scale=0.3)))
        if s.d_fs <= np.pi:
            assert (abs(s.gamma_b) - np.pi) ** 2 + s.d_fs**2 >= np.pi**2 - tol_for(s)


# --- aggregate_subloops ---

def test_aggregate_double_equator():
    parts = split_self_intersections(great_circle([0, 0, 1], 2048, turns=2))
    rep = aggregate_subloops([summarize(p) for p in parts])
    assert rep.lhs == pytest.approx(2 * np.pi, abs=1e-8)
    assert rep.rhs == pytest.approx(2 * np.pi, abs=1e-8)
    assert rep.saturated
    assert rep.inputs["gamma_total"] == pytest.approx(2 * np.pi, abs=1e-8)


def test_aggregate_opposite_orientations_strict():
    # two tangent caps traversed with opposite orientations: the signed
    # gamma contributions cancel, leaving a strictly positive margin
    from test_loops import _figure_eight
    parts = split_self_intersections(_figure_eight())
    rep = aggregate_subloops([summarize(p) for p in parts])
    assert rep.inputs["gamma_total"] == pytest.approx(0.0, abs=2e-3)
    assert rep.margin > 1.0


def test_aggregate_empty():
    with pytest.raises(EmptyInput):
        aggregate_subloops([])



# --- violation predicate ---

@pytest.mark.parametrize("make", [
    lambda: weak_qii(summarize(bloch_circle(1.0, 256))),
    lambda: strong_qii(summarize(bloch_circle(1.0, 256))),
    lambda: plane_check(2 * np.pi, np.pi),
], ids=["weak", "strong", "plane"])
def test_violated_only_below_minus_tol(make):
    # loop reports gate at the polygon's rounding bound, the plane at its tol
    rep = make()
    if rep.name == "plane":
        assert rep.bound == rep.tol
    else:
        s = rep.inputs
        assert rep.bound == _rounding_bound(s["n_segments"], s["d_fs"]) < 1e-9 < rep.tol
    assert not rep.violated
    assert not dataclasses.replace(rep, margin=-rep.bound).violated
    assert dataclasses.replace(rep, margin=np.nextafter(-rep.bound, -np.inf)).violated


# --- polygon-exact strong margins ---

def _assert_polygon_margins(loop):
    """The strong QII holds for every geodesic polygon, so the strong margin
    of `loop` and of each of its split parts is at least minus the rounding
    bound.  Returns the least margin."""
    least = np.inf
    for part in [loop] + split_self_intersections(loop):
        s = summarize(part)
        margin = strong_qii(s).margin
        assert margin >= -_rounding_bound(s.n_segments, s.d_fs), (margin, s)
        least = min(least, margin)
    return least


_THETA = st.floats(0.05, np.pi - 0.05)
_N = st.integers(8, 2048)


@given(_THETA, _N)
@settings(max_examples=150, deadline=None)
def test_strong_margin_within_rounding_on_bloch_circles(theta, n):
    _assert_polygon_margins(bloch_circle(theta, n))


@given(_THETA, st.floats(0.0, 1.0), st.integers(1, 6), _N)
@settings(max_examples=150, deadline=None)
def test_strong_margin_within_rounding_on_perturbed_circles(theta, frac, mode, n):
    eps = frac * 0.99 * min(theta, np.pi - theta)
    _assert_polygon_margins(perturb_circle(theta, eps, mode, n))


@given(st.integers(3, 24), _THETA, st.integers(1, 16))
@settings(max_examples=150, deadline=None)
def test_strong_margin_within_rounding_on_spherical_polygons(vertices, theta, per_edge):
    _assert_polygon_margins(spherical_polygon(vertices, theta, per_edge))


@given(st.integers(0, 3), st.integers(8, 512), st.integers(0, 2**32 - 1),
       st.floats(0.1, 2.0))
@settings(max_examples=200, deadline=None)
def test_strong_margin_within_rounding_on_two_band_fourier_loops(k, n, seed, scale):
    # any n >= 8, also below the Fourier shape rule: a coarse sample is
    # still a geodesic polygon, which the theorem covers
    coeffs = random_fourier_spec(2, k, 8 * (k + 1), seed, scale=scale).coeffs
    try:
        loop = Loop(fourier_states(coeffs, n))
    except IllConditionedSegment:
        assume(False)
    _assert_polygon_margins(loop)


def test_strong_margin_within_rounding_on_great_circles():
    # the saturating case: every margin is a rounding residue of zero
    rng = np.random.default_rng(8)
    for turns in (1, 2, 3, 5):
        for n in (8 * turns, 64 * turns, 200 * turns):
            least = _assert_polygon_margins(great_circle(rng.normal(size=3), n, turns=turns))
            assert abs(least) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.2, 2.9])
@pytest.mark.parametrize("two_j", [2, 3, 4])
def test_spin_coherent_circles_match_their_closed_form(two_j, theta):
    # spin-j coherent-state circles in CP^2j: the chord sums are the closed-form
    # polygon values to within the rounding bound, and tend to the smooth
    # circle's sqrt(2j) pi sin(theta) and -2j pi (1 - cos(theta)) mod 2 pi
    for n in (64, 4096, 16384):
        s = summarize(Loop(spin_coherent_circle(two_j, theta, n)))
        d_n, gamma_n = spin_coherent_polygon(two_j, theta, n)
        bound = _rounding_bound(n, d_n)
        assert abs(s.d_fs - d_n) <= bound
        assert abs(principal_phase(s.gamma_b - gamma_n)) <= bound
    assert abs(s.d_fs - np.sqrt(two_j) * np.pi * np.sin(theta)) < 1e-6
    assert abs(principal_phase(s.gamma_b + two_j * np.pi * (1 - np.cos(theta)))) < 1e-6
    if two_j == 2:   # the j = 1 margin; (1 - cos(theta))^2 holds only for theta <= pi/2
        margin = strong_qii(s).margin
        assert abs(margin - 2 * np.pi**2 * (1 - abs(np.cos(theta))) ** 2) < 1e-6


@pytest.mark.parametrize("turns", [1, 2])
def test_lowered_distance_term_fails_the_rounding_bound(monkeypatch, turns):
    # a mutant that lowers d by 1e-10 (one chord term) on a great circle, or
    # on the parts of a twice-wound one, at n = 256: the bound catches it,
    # tol_for's 1e-6 floor would not
    loop = great_circle([0.3, -0.2, 1.0], 256, turns=turns)
    _assert_polygon_margins(loop)
    distance = geometry._distance
    monkeypatch.setattr(geometry, "_distance",
                        lambda states, overlaps=None: distance(states, overlaps) - 1e-10)
    with pytest.raises(AssertionError):
        _assert_polygon_margins(loop)
    for part in split_self_intersections(loop):
        s = summarize(part)
        rep = strong_qii(s)
        assert rep.violated and -tol_for(s) <= rep.margin < -1e-10


# --- the rounding bound against extended precision ---

_HEADROOM = 0.05   # largest margin error / rounding bound the property allows
_LONGDOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="longdouble is double on this platform, so it cannot measure float64 rounding")


def _margin_errors(loop):
    """|float64 margin - extended-precision margin| / rounding bound, for the
    weak and the strong margin of `loop`'s samples.  The phase is defined
    mod 2 pi, so the weak error is taken mod 2 pi."""
    s = summarize(loop)
    d, gamma, pi = scalars_longdouble(loop.states)
    weak, strong = weak_qii(s), strong_qii(s)
    dw = np.longdouble(weak.margin) - (d - gamma)
    dw -= 2 * pi * np.round(dw / (2 * pi))
    ds = np.longdouble(strong.margin) - ((abs(gamma) - pi) ** 2 + d**2 - pi**2)
    return float(abs(dw)) / weak.bound, float(abs(ds)) / strong.bound


@st.composite
def _rounding_cases(draw):
    n = draw(st.integers(64, 4096))
    theta = draw(_THETA)
    family = draw(st.sampled_from(["fourier", "circle", "perturbed", "polygon"]))
    if family == "fourier":
        m, k = draw(st.integers(2, 5)), draw(st.integers(1, 2))
        coeffs = random_fourier_spec(m, k, n, draw(st.integers(0, 2**32 - 1))).coeffs
        try:
            return Loop(fourier_states(coeffs, n))
        except IllConditionedSegment:
            assume(False)
    if family == "circle":
        return bloch_circle(theta, n)
    if family == "perturbed":
        eps = draw(st.floats(0.0, 1.0)) * 0.99 * min(theta, np.pi - theta)
        return perturb_circle(theta, eps, draw(st.integers(1, 6)), n)
    vertices = draw(st.integers(3, 64))
    return spherical_polygon(vertices, theta, -(-n // vertices))


@_LONGDOUBLE
@given(_rounding_cases())
@settings(max_examples=200, deadline=None)
def test_margin_rounding_error_is_far_inside_the_bound(loop):
    # a circle near the south pole winds its segment phases through about
    # 2 pi whatever d is, so its phase keeps a few ulps of 2 pi: at n = 64-96
    # that reaches 1.3e-2 of the bound (dense scan); Fourier loops stay below
    # 1e-3.  1/20 leaves room for unsampled loops and still catches the
    # arccos distance (next test)
    assert max(_margin_errors(loop)) <= _HEADROOM


@_LONGDOUBLE
def test_arccos_distance_fails_the_rounding_property(monkeypatch):
    # arccos(|<a|b>|) loses half the digits of a short chord; the bound's
    # derivation rests on the arctan2 form
    loop = bloch_circle(1.0, 4096)
    assert max(_margin_errors(loop)) <= _HEADROOM

    def arccos_distance(states, overlaps=None):
        _, _, mod = overlaps or geometry._overlap_pass(states)
        return float(np.add.reduce(np.arccos(np.minimum(1.0, mod))))

    monkeypatch.setattr(geometry, "_distance", arccos_distance)
    assert max(_margin_errors(loop)) > _HEADROOM


# --- crossings do not void the two-band theorem ---

def _f(gamma):
    """F(gamma) = |gamma| (2 pi - |gamma|) on the principal value: the strong
    QII reads d^2 >= F(gamma)."""
    g = abs(principal_phase(gamma))
    return g * (2.0 * np.pi - g)


def test_f_is_subadditive_on_random_phase_pairs():
    rng = np.random.default_rng(17)
    pairs = np.concatenate([rng.uniform(-3 * np.pi, 3 * np.pi, size=(2000, 2)),
                            rng.uniform(-0.1, 0.1, size=(500, 2)),
                            np.pi + rng.uniform(-0.1, 0.1, size=(500, 2))])
    for a, b in pairs:
        # slack: the rounding of F's own arithmetic, values up to pi^2
        assert _f(a + b) <= _f(a) + _f(b) + 1e-13


def _multi_turn_circle(theta, n, turns):
    return Loop(bloch_states(theta, 2.0 * np.pi * turns * np.arange(n) / n))


@pytest.mark.parametrize("make", [
    lambda: great_circle([0.2, 1.0, -0.4], 96, turns=3),
    lambda: _multi_turn_circle(0.7, 120, 2),
    lambda: _multi_turn_circle(2.2, 300, 5),
    lambda: fermi_surface_loop(rhombohedral(2), 1.3, 256)[0],
    lambda: fermi_surface_loop(rhombohedral(3), 0.8, 384)[0],
    lambda: fermi_surface_loop(rhombohedral(5), 1.9, 640)[0],
], ids=["great-x3", "circle-x2", "circle-x5", "rhombo-2", "rhombo-3", "rhombo-5"])
def test_whole_margin_dominates_the_sum_of_part_margins(make):
    # d = sum d_i and gamma = sum gamma_i mod 2 pi, so d^2 >= sum d_i^2 and,
    # by subadditivity, F(gamma) <= sum F(gamma_i)
    loop = make()
    parts = split_self_intersections(loop)
    assert len(parts) > 1
    summaries = [summarize(p) for p in parts]
    whole = aggregate_summary(summaries)
    part_margins = sum(strong_qii(s).margin for s in summaries)
    slack = _rounding_bound(whole.n_segments, whole.d_fs)
    assert whole.d_fs**2 - _f(whole.gamma_total) >= part_margins - slack

