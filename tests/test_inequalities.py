import dataclasses

import numpy as np
import pytest

from oracles import (cap_area, cap_perimeter, spherical_polygon_area,
                     spherical_polygon_perimeter)
from qii.errors import AreaExceedsSphere, EmptyInput
from qii.geometry import loop_berry_phase, loop_distance, summarize
from qii.inequalities import (aggregate_subloops, plane_check, sphere_check,
                              strong_qii, tol_for, weak_qii)
from qii.loops import (bloch_circle, fourier_loop, great_circle,
                       random_fourier_spec, split_self_intersections)


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
    rep = make()
    assert not rep.violated
    assert not dataclasses.replace(rep, margin=-rep.tol).violated
    assert dataclasses.replace(rep, margin=np.nextafter(-rep.tol, -np.inf)).violated
