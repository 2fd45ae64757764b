"""Derivative-free search for strong-QII violations over Fourier loops.

The objective is the minimum strong-QII margin over the simple sub-loops
of a Fourier-parametrized loop; a persistent negative value would be a
counterexample to the M > 2 conjecture.  Optimization is a multi-restart
Nelder-Mead simplex (derivative-free because |gamma| and the splitting
step are non-smooth), deterministic for a given seed.  Chord sums
under-estimate distances, which biases margins slightly negative at
coarse resolution, so any candidate below zero is re-evaluated at
RECHECK_FACTOR times the resolution before being reported.
"""

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .errors import DegenerateSpec, OutOfRange
from .geometry import _overlap_pass, _scalars, loop_berry_phase, principal_phase
from .inequalities import _strong_margin
from .loops import (FourierLoopSpec, _split_states, bloch_circle,
                    check_fourier_shape, check_seed, fourier_states, perturb_circle)

__all__ = [
    "SearchConfig", "SearchResult", "qii_objective", "minimize_margin",
    "extremality_scan",
]

_PENALTY = 100.0
RECHECK_FACTOR = 4   # a best margin below zero is re-evaluated at this many times n


@dataclass(frozen=True)
class SearchConfig:
    """Search settings, checked once: every evaluation's coefficients then
    form a valid `FourierLoopSpec` of shape (m_dim - 1, 2k + 1) at n."""

    m_dim: int
    k: int = 2
    n: int = 256
    budget: int = 10_000
    restarts: int = 5
    seed: int = 0
    coeff_bound: float = 1.5

    def __post_init__(self):
        check_fourier_shape(self.m_dim, self.k, self.n)
        least = max(100, self.dims + 2)   # a first simplex: dims + 1 vertices and a step
        if self.budget < least:
            raise OutOfRange(f"budget must be at least {least} evaluations, got {self.budget}")
        if not 0.0 < self.coeff_bound < np.inf:
            raise OutOfRange(f"coefficient box must be positive and finite, "
                             f"got {self.coeff_bound}")
        if self.restarts < 1:
            raise OutOfRange("need at least one restart")
        check_seed(self.seed)

    @property
    def dims(self) -> int:
        return 2 * (self.m_dim - 1) * (2 * self.k + 1)

    def to_dict(self) -> dict:
        return {"m": self.m_dim, "k": self.k, "n": self.n, "budget": self.budget,
                "restarts": self.restarts, "seed": self.seed,
                "coeff_bound": self.coeff_bound}


@dataclass(frozen=True)
class SearchResult:
    best_margin: float
    best_spec: FourierLoopSpec
    evals: int
    history: tuple
    status: str
    violation: bool
    margin_at_n: float


def qii_objective(spec: FourierLoopSpec) -> float:
    """Strong-QII margin of a Fourier loop, split into simple sub-loops first."""
    return _margin(fourier_states(spec.coeffs, spec.n))


def _margin(states: np.ndarray) -> float:
    """`qii_objective` of sampled states.  The cyclic overlaps of the full
    loop and their moduli gate it and, when it does not split, give its
    distance and phase as well."""
    overlaps = _overlap_pass(states)
    low = overlaps[2].min()
    if low <= TOL.segment_overlap:
        raise DegenerateSpec(f"consecutive overlap {low:.3e} too small")
    parts: list[np.ndarray] = []
    _split_states(states, TOL.split, parts)
    scalars = [_scalars(states, overlaps)] if parts[0] is states else map(_scalars, parts)
    return float(min(_strong_margin(d, g) for d, g in scalars))


def _nelder_mead(fn, x0: np.ndarray, step: float, max_evals: int):
    """Reflect/expand/contract/shrink simplex descent that evaluates fn at
    most max_evals times (at least d+1); returns (best_x, best_f, evals_used).
    fn may get rows of the simplex array, which later steps overwrite."""
    d = len(x0)
    simplex = np.tile(x0, (d + 1, 1))
    simplex[1:][np.diag_indices(d)] += step
    fvals = np.array([fn(v) for v in simplex])
    evals = d + 1
    while evals < max_evals:
        order = np.argsort(fvals)
        simplex, fvals = simplex[order], fvals[order]
        if (fvals[-1] - fvals[0] < 1e-13
                and np.abs(simplex[1:] - simplex[0]).max() < 1e-10):
            break
        centroid = simplex[:-1].sum(axis=0) / d   # np.mean, without its overhead
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        evals += 1
        if f_r < fvals[0] and evals < max_evals:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            evals += 1
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        elif evals < max_evals:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = fn(contracted)
            evals += 1
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                # shrink toward the best vertex, as far as the budget lets
                k = min(d, max_evals - evals)
                simplex[1:k + 1] = simplex[0] + 0.5 * (simplex[1:k + 1] - simplex[0])
                fvals[1:k + 1] = [fn(v) for v in simplex[1:k + 1]]
                evals += k
    best = int(np.argmin(fvals))
    return simplex[best], fvals[best], evals


def minimize_margin(cfg: SearchConfig) -> SearchResult:
    """Multi-restart simplex descent on the strong-QII margin.

    Deterministic for a given config.  A best margin below zero at the
    working resolution is re-evaluated at RECHECK_FACTOR * n; only a
    persistent value below the violation tolerance is flagged (and would
    constitute a counterexample to the conjecture).
    """
    evals = 0
    history = []
    best_x, best_f = None, np.inf
    # the one coefficient array every evaluation refills: the search vector
    # is x = (Re c, Im c) of its row-major flattening c
    coeffs = np.empty((cfg.m_dim - 1, 2 * cfg.k + 1), dtype=complex)
    real, imag = coeffs.real.reshape(-1), coeffs.imag.reshape(-1)
    half = cfg.dims // 2

    def objective(x):
        nonlocal evals, best_x, best_f
        evals += 1
        top = np.abs(x).max()
        if top > cfg.coeff_bound:
            val = _PENALTY * (1.0 + top - cfg.coeff_bound)
        else:
            real[:], imag[:] = x[:half], x[half:]
            try:
                val = _margin(fourier_states(coeffs, cfg.n))
            except DegenerateSpec:
                val = _PENALTY
        if val < best_f:
            best_f, best_x = val, x.copy()
            history.append((evals, float(val)))
        return val

    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        if cfg.budget - evals < cfg.dims + 2:  # not enough left for a simplex
            break
        x0 = np.random.default_rng(child).uniform(-cfg.coeff_bound, cfg.coeff_bound,
                                                  size=cfg.dims)
        _nelder_mead(objective, x0, 0.1 * cfg.coeff_bound, cfg.budget - evals)

    real[:], imag[:] = best_x[:half], best_x[half:]
    best_spec = FourierLoopSpec(cfg.m_dim, coeffs, cfg.k, cfg.n)
    margin_at_n = float(best_f)
    best_margin = (qii_objective(best_spec.with_resolution(RECHECK_FACTOR * cfg.n))
                   if margin_at_n < 0.0 else margin_at_n)
    return SearchResult(
        best_margin=best_margin, best_spec=best_spec, evals=evals, history=tuple(history),
        status="budget_exhausted" if evals >= cfg.budget else "completed",
        violation=bool(best_margin < -TOL.violation), margin_at_n=margin_at_n)


def extremality_scan(theta: float, modes, eps_grid, n: int = 8192) -> dict:
    """Fitted eps-scaling exponent of |delta gamma| per perturbation mode.

    Perturbs a constant-polar-angle circle by eps*cos(mode*phi) and fits
    log|gamma(eps) - gamma(0)| against log eps; a slope >= 2 confirms
    that circles are Berry-phase extremal to first order.  Zero eps
    values (log-undefined) are excluded automatically.
    """
    eps_grid = [e for e in eps_grid if e > 0.0]
    if len(eps_grid) < 2:
        raise OutOfRange("need at least two nonzero eps values")
    gamma0 = loop_berry_phase(bloch_circle(theta, n))
    slopes = {}
    for mode in modes:
        deltas = []
        for eps in eps_grid:
            gamma = loop_berry_phase(perturb_circle(theta, eps, mode, n))
            deltas.append(abs(principal_phase(gamma - gamma0, guard=0.0)))
        kept = [(e, d) for e, d in zip(eps_grid, deltas) if d > 0.0]
        if len(kept) < 2:
            raise OutOfRange(f"mode {mode}: fewer than two eps values move the phase")
        xs = np.log([e for e, _ in kept])
        ys = np.log([d for _, d in kept])
        slopes[int(mode)] = float(np.polyfit(xs, ys, 1)[0])
    return slopes
