import hashlib

import numpy as np
import pytest

from oracles import list_nelder_mead
from qii import search
from qii.config import TOL
from qii.errors import BadResolution, DegenerateSpec, OutOfRange
from qii.geometry import summarize
from qii.inequalities import strong_qii
from qii.loops import (FourierLoopSpec, _split_states, fourier_loop, fourier_states,
                       random_fourier_spec, split_self_intersections)
from qii.search import (SearchConfig, extremality_scan,
                        minimize_margin, qii_objective)


def _equator_spec(n=256):
    coeffs = np.zeros((1, 5), dtype=complex)
    coeffs[0, 3] = 1.0  # z(t) = e^{it}
    return FourierLoopSpec(m_dim=2, coeffs=coeffs, k=2, n=n)


# --- qii_objective ---

def test_objective_equator_saturates():
    assert qii_objective(_equator_spec()) == pytest.approx(0.0, abs=1e-9)


def test_objective_near_point_loop():
    coeffs = np.zeros((1, 5), dtype=complex)
    coeffs[0, 3] = 1e-6
    spec = FourierLoopSpec(m_dim=2, coeffs=coeffs, k=2, n=128)
    assert qii_objective(spec) == pytest.approx(0.0, abs=1e-9)


def test_objective_random_m3_nonnegative():
    spec = random_fourier_spec(3, 2, 512, 1)
    margin = qii_objective(spec)
    assert margin >= -1e-6


def test_objective_is_the_strong_report_margin():
    # one margin expression: an unsplit loop scores exactly its report's margin
    spec = random_fourier_spec(3, 2, 512, 1)
    assert qii_objective(spec) == strong_qii(summarize(fourier_loop(spec))).margin


def _winding_spec(m, n, seed):
    """k = 2 spec of harmonic +2 only: the loop is traversed twice, so
    states j and j + n/2 coincide and it splits."""
    coeffs = np.zeros((m - 1, 5), dtype=complex)
    coeffs[:, 4] = np.random.default_rng(seed).normal(size=m - 1) + 1.0
    return FourierLoopSpec(m_dim=m, coeffs=coeffs, k=2, n=n)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_objective_is_the_least_subloop_report_margin(m, n):
    # the search's objective and verify's reports share one scalar path,
    # bit for bit, on loops that stay whole and on loops that split
    specs = [random_fourier_spec(m, 2, n, seed) for seed in range(4)]
    specs += [_winding_spec(m, n, seed) for seed in range(2)]
    if m == 2:
        specs.append(_equator_spec(n))
        coeffs = np.zeros((1, 5), dtype=complex)
        coeffs[0, 4] = 1.0  # double equator
        specs.append(FourierLoopSpec(m_dim=2, coeffs=coeffs, k=2, n=n))
    split = 0
    for spec in specs:
        try:
            parts = split_self_intersections(fourier_loop(spec))
        except DegenerateSpec:
            with pytest.raises(DegenerateSpec):
                qii_objective(spec)
            continue
        split += len(parts) > 1
        want = min(strong_qii(summarize(p)).margin for p in parts)
        assert qii_objective(spec) == want
    assert split >= 2


def test_objective_and_summarize_skip_the_norm_and_angle_wrappers(monkeypatch):
    # row norms and segment angles are computed with the wrappers' own
    # arithmetic; a wrapper call costs more than the work at n = 256
    spec = random_fourier_spec(3, 2, 256, 4)
    loop = fourier_loop(spec)
    assert split_self_intersections(loop) == [loop]
    calls = []
    for module, name in ((np.linalg, "norm"), (np, "angle")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    qii_objective(spec)
    summarize(loop)
    assert calls == []


def test_objective_splits_before_checking():
    # double equator would "violate" unsplit; split it saturates
    coeffs = np.zeros((1, 5), dtype=complex)
    coeffs[0, 4] = 1.0  # z(t) = e^{2it}: winds twice
    spec = FourierLoopSpec(m_dim=2, coeffs=coeffs, k=2, n=512)
    assert qii_objective(spec) == pytest.approx(0.0, abs=1e-8)


# --- minimize_margin ---

def test_search_config_validation():
    with pytest.raises(OutOfRange):
        SearchConfig(m_dim=1)
    with pytest.raises(OutOfRange):
        SearchConfig(m_dim=2, budget=10)
    # 198 dimensions: a budget of 100 could not fill the first simplex
    with pytest.raises(OutOfRange, match="at least 200 evaluations"):
        SearchConfig(m_dim=10, k=5, budget=100)
    assert minimize_margin(SearchConfig(m_dim=10, k=5, budget=200, restarts=1)).evals == 200
    # every evaluation's spec is valid once the config is
    with pytest.raises(OutOfRange):
        SearchConfig(m_dim=3, k=-1)
    with pytest.raises(BadResolution):
        SearchConfig(m_dim=3, k=1, n=15)
    for bound in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(OutOfRange):
            SearchConfig(m_dim=3, coeff_bound=bound)
    with pytest.raises(OutOfRange, match="non-negative"):
        SearchConfig(m_dim=3, seed=-1)


def test_search_samples_each_in_box_evaluation_once(monkeypatch):
    # the bench derives its penalty fraction from search.fourier_states calls
    cfg = SearchConfig(m_dim=3, k=1, n=64, budget=400, restarts=2, seed=4,
                       coeff_bound=0.4)
    sampled, in_box = [], []
    real_states, real_simplex = search.fourier_states, search._nelder_mead

    def states(coeffs, n):
        sampled.append(n)
        return real_states(coeffs, n)

    def simplex(fn, *args):
        def recording(x):
            in_box.append(np.abs(x).max() <= cfg.coeff_bound)
            return fn(x)
        return real_simplex(recording, *args)

    monkeypatch.setattr(search, "fourier_states", states)
    monkeypatch.setattr(search, "_nelder_mead", simplex)
    res = minimize_margin(cfg)
    assert len(in_box) == res.evals and 0 < sum(in_box) < res.evals
    assert sampled[:sum(in_box)] == [cfg.n] * sum(in_box)
    assert len(sampled) == sum(in_box) + (res.margin_at_n < 0.0)   # the recheck


def test_search_evaluation_matches_a_fresh_spec(monkeypatch):
    # the refilled coefficient array holds x[:half] + 1j x[half:] bit for bit,
    # and the best spec is the array of the best evaluation
    cfg = SearchConfig(m_dim=4, k=2, n=64, budget=200, restarts=1, seed=9)
    seen = []
    real_states = search.fourier_states
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(20, cfg.dims))
    half = cfg.dims // 2

    def states(coeffs, n):
        assert coeffs.shape == (cfg.m_dim - 1, 2 * cfg.k + 1) and n == cfg.n
        seen.append(coeffs.copy())
        return real_states(coeffs, n)

    def simplex(fn, x0, step, max_evals):
        for x in xs:
            seen.clear()
            fn(x)
            want = (x[:half] + 1j * x[half:]).reshape(cfg.m_dim - 1, 2 * cfg.k + 1)
            assert seen[0].tobytes() == want.tobytes()
        return x0, 0.0, 20

    monkeypatch.setattr(search, "fourier_states", states)
    monkeypatch.setattr(search, "_nelder_mead", simplex)
    res = minimize_margin(cfg)
    best = xs[res.history[-1][0] - 1]
    assert res.best_spec.coeffs.tobytes() == (best[:half] + 1j * best[half:]).tobytes()
    assert res.best_spec.n == cfg.n and res.best_spec.k == cfg.k
    assert res.margin_at_n == qii_objective(res.best_spec)


def test_objective_forms_cyclic_overlaps_once(monkeypatch):
    # a guard against a second overlap pass on an unsplit loop: count the
    # einsum calls that pair each state with its cyclic successor
    spec = random_fourier_spec(3, 2, 256, 4)
    states = fourier_states(spec.coeffs, spec.n)
    parts = []
    _split_states(states, TOL.split, parts)
    assert len(parts) == 1
    passes = []
    einsum = np.einsum

    def spy(subscripts, *ops, **kwargs):
        if (subscripts == "ij,ij->i" and ops[0].shape == states.shape
                and np.array_equal(ops[1], np.roll(ops[0].conj(), -1, axis=0))):
            passes.append(1)
        return einsum(subscripts, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    qii_objective(spec)
    assert len(passes) == 1


def _orthogonal_step(n):
    """Coefficients of a k = 1 loop with z(0) = 1 and z(2 pi / n) = -1:
    its first two states are orthogonal."""
    w = np.exp(2j * np.pi / n)
    c_minus, c_plus = np.linalg.solve([[1, 1], [1 / w, w]], [1, -1])
    return np.array([[c_minus, 0.0, c_plus]])


def test_search_scores_a_degenerate_spec_as_penalty(monkeypatch):
    cfg = SearchConfig(m_dim=2, k=1, n=16, budget=100, restarts=1, coeff_bound=3.0)
    coeffs = _orthogonal_step(cfg.n)
    x = np.concatenate([coeffs.real.ravel(), coeffs.imag.ravel()])
    assert np.abs(x).max() < cfg.coeff_bound
    with pytest.raises(DegenerateSpec):
        qii_objective(FourierLoopSpec(cfg.m_dim, coeffs, cfg.k, cfg.n))
    seen = []
    monkeypatch.setattr(search, "_nelder_mead",
                        lambda fn, x0, step, max_evals: seen.append(fn(x)))
    minimize_margin(cfg)
    assert seen == [search._PENALTY]


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _kinked(x):
    return float(np.abs(x - 0.3).sum() + 0.1 * np.abs(x).max())


def _bowl(x):
    return float(x @ x)


def _trajectory(minimizer, fn, x0, max_evals):
    calls = []

    def recording(x):
        val = fn(x)
        calls.append((x.tobytes(), val))
        return val
    best_x, best_f, evals = minimizer(recording, x0.copy(), 0.1, max_evals)
    return calls, (best_x.tobytes(), float(best_f), evals)


@pytest.mark.parametrize("fn", [_rosenbrock, _kinked, _bowl])
def test_nelder_mead_matches_list_oracle(fn):
    # the array simplex evaluates the same points in the same order as the
    # list-based one, stops exactly at max_evals, and returns the same
    # result whenever the oracle did not run past its budget
    x0 = np.random.default_rng(3).uniform(-1.0, 1.0, size=3)
    for max_evals in list(range(5, 160)) + [600, 5000]:
        got, got_result = _trajectory(search._nelder_mead, fn, x0, max_evals)
        want, want_result = _trajectory(list_nelder_mead, fn, x0, max_evals)
        assert len(got) == got_result[2] == min(len(want), max_evals)
        assert got == want[:len(got)]
        if len(want) <= max_evals:
            assert got_result == want_result


def test_nelder_mead_converges_before_budget():
    _, (_, best_f, evals) = _trajectory(search._nelder_mead, _bowl, np.ones(2), 5000)
    assert evals < 5000 and best_f < 1e-18


# best margin, margin at n, history length and sha256 of repr(history),
# recorded before the array simplex and the fused overlap pass
_PINNED = {
    0: (0.04739613131710563, 59,
        "e31bae06ec249b4f3eb020ac124df6228df950f5ee8eec40c0d6289ff9296da3"),
    1: (0.0023117783091564093, 51,
        "b6c88c1963433812a44d66edd4895a508c0b69db017b8913faf238f8a81e33df"),
    2: (0.011207190316222082, 52,
        "77069b695f5b165eb4612ee319b7aaa3dd5e055b46238044d9e80744aa3e9581"),
}


@pytest.mark.parametrize("seed", sorted(_PINNED))
def test_search_results_pinned(seed):
    cfg = SearchConfig(m_dim=3, k=1, n=64, budget=300, restarts=2, seed=seed)
    res = minimize_margin(cfg)
    best, length, digest = _PINNED[seed]
    assert res.best_margin == res.margin_at_n == best
    assert len(res.history) == length
    assert hashlib.sha256(repr(res.history).encode()).hexdigest() == digest
    assert res.evals == cfg.budget and res.status == "budget_exhausted"


def test_search_two_band_finds_circles():
    cfg = SearchConfig(m_dim=2, k=1, n=128, budget=4000, restarts=4, seed=7)
    res = minimize_margin(cfg)
    assert res.best_margin >= -TOL.violation
    assert not res.violation
    # every restart converges first here (3258 evaluations), so the budget is
    # an upper bound that an exhausted search meets exactly
    assert res.evals <= cfg.budget
    assert (res.status == "budget_exhausted") == (res.evals == cfg.budget)


def test_search_stops_exactly_at_budget():
    # seed 7 at budget 2500 once ended on a step that evaluated 2501 times
    cfg = SearchConfig(m_dim=3, k=2, n=256, budget=2500, restarts=5, seed=7)
    res = minimize_margin(cfg)
    assert not res.violation
    assert res.evals == cfg.budget and res.status == "budget_exhausted"
    assert max(e for e, _ in res.history) <= cfg.budget


def test_search_five_band_no_violation():
    cfg = SearchConfig(m_dim=5, k=1, n=128, budget=3000, restarts=2, seed=5)
    res = minimize_margin(cfg)
    assert res.best_margin >= -TOL.violation
    assert not res.violation


def test_search_reproducible():
    cfg = SearchConfig(m_dim=3, k=1, n=128, budget=1500, restarts=2, seed=11)
    a, b = minimize_margin(cfg), minimize_margin(cfg)
    assert a.best_margin == b.best_margin
    assert a.evals == b.evals
    assert a.history == b.history
    np.testing.assert_array_equal(a.best_spec.coeffs, b.best_spec.coeffs)


def test_search_recheck_at_higher_resolution():
    # coarse resolution biases circle margins negative; the 4n re-check
    # must pull the reported value back above the violation tolerance
    cfg = SearchConfig(m_dim=2, k=1, n=64, budget=3000, restarts=3, seed=3)
    res = minimize_margin(cfg)
    if res.margin_at_n < 0:
        assert res.best_margin > res.margin_at_n
    assert res.best_margin >= -TOL.violation
    assert res.status in {"budget_exhausted", "completed"}
    # the reported margin re-evaluates the stored spec
    re_eval = qii_objective(res.best_spec.with_resolution(search.RECHECK_FACTOR * cfg.n))
    if res.margin_at_n < 0:
        assert res.best_margin == pytest.approx(re_eval, abs=1e-12)


# --- extremality_scan ---

def test_extremality_modes_scale_quadratically():
    slopes = extremality_scan(np.pi / 3, [1, 3], [1e-2, 5e-3, 2.5e-3, 1.25e-3], n=4096)
    for slope in slopes.values():
        assert slope == pytest.approx(2.0, abs=0.1)


def test_extremality_excludes_zero_eps():
    slopes = extremality_scan(np.pi / 3, [2], [0.0, 1e-2, 5e-3, 2.5e-3], n=2048)
    assert slopes[2] == pytest.approx(2.0, abs=0.15)


def test_extremality_needs_enough_points():
    with pytest.raises(OutOfRange):
        extremality_scan(np.pi / 3, [1], [0.0], n=512)
    # eps this small leaves gamma bit-identical to the circle's
    with pytest.raises(OutOfRange, match="move the phase"):
        extremality_scan(1.0, [1], [1e-300, 2e-300], n=64)
