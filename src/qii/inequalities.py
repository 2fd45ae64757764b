"""Classical and quantum isoperimetric inequality checks with margin reports.

Margins are oriented so that a feasible instance has margin >= 0, and each
report carries two thresholds:

- ``tol``, two-sided: ``saturated`` is |margin| <= tol.  For a loop it is
  max(floor, 10 * convergence_est), since saturation compares with the
  smooth loop, whose length the chord sums under-estimate.
- ``bound``, one-sided: ``IneqReport.violated`` (margin < -bound) is the
  one violation predicate, and every exit-2 verdict reads it.  A loop's
  chord sums are exact for its geodesic polygon (Samuel and Bhandari, PRL
  60, 2339 (1988); Mukunda and Simon, Ann. Phys. 228, 205 (1993)), and the
  QII hold for polygons too, so loop reports gate at `_rounding_bound`.
  The plane and sphere checks gate at tol = TOL.saturation_floor.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import TOL
from .errors import AreaExceedsSphere, EmptyInput, OutOfRange
from .geometry import LoopSummary, aggregate_summary

__all__ = [
    "IneqReport", "tol_for", "plane_check", "sphere_check", "strong_qii",
    "weak_qii", "aggregate_subloops",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class IneqReport:
    """One inequality instance: lhs >= rhs with margin = lhs - rhs."""

    name: str
    lhs: float
    rhs: float
    margin: float
    saturated: bool
    tol: float
    bound: float
    inputs: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        """True when the margin falls below -bound."""
        return self.margin < -self.bound


def _report(name, lhs, rhs, tol, inputs, margin=None, bound=None) -> IneqReport:
    margin = lhs - rhs if margin is None else margin
    return IneqReport(name=name, lhs=float(lhs), rhs=float(rhs),
                      margin=float(margin), saturated=bool(abs(margin) <= tol),
                      tol=float(tol), bound=float(tol if bound is None else bound),
                      inputs=inputs)


def _rounding_bound(n: int, d: float) -> float:
    """Rounding bound 64 n eps (1 + d)^2 on the weak and strong margins of an
    n-segment polygon of Fubini-Study length d.

    d is a sum of n terms arctan2(|residual|, |<a|b>|), and the phase a sum
    of n terms arctan2(Im, Re) of the overlaps.  For overlaps of modulus of
    order one, each term carries a few ulps from the overlap and residual
    sums, the normalization of the rows and arctan2 itself: at most c = 10
    eps.  Adding the n terms costs at most n eps times their absolute sum:
    d for the distance, and P, the absolute sum of the segment phase angles,
    for the phase.  So d errs by c n eps (1 + d), gamma by c n eps (1 + P).

    The strong margin (|gamma| - pi)^2 + d^2 - pi^2 errs by about
    2 d dd + 2 ||gamma| - pi| dgamma <= 2 pi c n eps (1 + d)^2 when P <= d
    (the 2 d dd term needs the square), and the weak margin d - gamma by at
    most c n eps (2 + d + P), inside it.  Hence 64 >= 2 pi c.  But d does
    not bound P: a Bloch circle near the south pole winds its segment phases
    through about 2 pi whatever d is.  It comes closest, 1.3e-2 x the bound
    at theta = 3.069, n = 79, and still holds about 75x inside it, as a term
    carries a few ulps, far below c.  A polygon margin below -bound is a
    counterexample, not rounding.
    """
    return 64.0 * _EPS * n * (1.0 + d) ** 2


def tol_for(summary: LoopSummary) -> float:
    """Saturation tolerance max(TOL.saturation_floor, 10 convergence_est) of a loop."""
    return max(TOL.saturation_floor, 10.0 * summary.convergence_est)


def plane_check(perimeter: float, area: float) -> IneqReport:
    """Planar isoperimetric inequality P^2 >= 4 pi A, saturated at TOL.saturation_floor."""
    if perimeter < 0 or area < 0:
        raise OutOfRange("perimeter and area must be nonnegative")
    inputs = {"perimeter": perimeter, "area": area}
    if area > 0:
        inputs["quotient"] = perimeter**2 / (4.0 * np.pi * area)
    return _report("plane", perimeter**2, 4.0 * np.pi * area, TOL.saturation_floor, inputs)


def sphere_check(perimeter: float, area: float, radius: float) -> IneqReport:
    """Spherical isoperimetric inequality P^2 >= 4 pi A - A^2/R^2 (tol as plane_check)."""
    if radius <= 0:
        raise OutOfRange("sphere radius must be positive")
    if perimeter < 0 or area < 0:
        raise OutOfRange("perimeter and area must be nonnegative")
    if area > 4.0 * np.pi * radius**2:
        raise AreaExceedsSphere(f"area {area} exceeds sphere area")
    rhs = 4.0 * np.pi * area - area**2 / radius**2
    inputs = {"perimeter": perimeter, "area": area, "radius": radius}
    if rhs > 0:
        inputs["quotient"] = perimeter**2 / rhs
    return _report("sphere", perimeter**2, rhs, TOL.saturation_floor, inputs)


def _strong_margin(d_fs: float, gamma_b: float) -> float:
    """(|gamma| - pi)^2 + d^2 - pi^2; the search calls it without a report."""
    return (abs(gamma_b) - np.pi) ** 2 + d_fs**2 - np.pi**2


def strong_qii(summary: LoopSummary, conjecture: bool = False) -> IneqReport:
    """Strong quantum isoperimetric inequality (|gamma|-pi)^2 + d^2 >= pi^2.

    A theorem for every two-band loop: the margin of a loop with crossings
    is at least the sum of the margins of its simple parts.  Pass
    conjecture=True for M > 2, which the report records in its inputs.
    """
    margin = _strong_margin(summary.d_fs, summary.gamma_b)
    inputs = {"d_fs": summary.d_fs, "gamma_b": summary.gamma_b,
              "n_segments": summary.n_segments, "conjecture": conjecture}
    return _report("strong_qii", margin + np.pi**2, np.pi**2, tol_for(summary),
                   inputs, margin, _rounding_bound(summary.n_segments, summary.d_fs))


def weak_qii(summary: LoopSummary) -> IneqReport:
    """Weak quantum isoperimetric inequality d_FS >= gamma_B.

    The margin uses the signed Berry phase as stated; the magnitude
    variant d - |gamma| (implied by orientation reversal) is echoed in
    the inputs as margin_abs.
    """
    inputs = {"d_fs": summary.d_fs, "gamma_b": summary.gamma_b,
              "n_segments": summary.n_segments,
              "margin_abs": summary.d_fs - abs(summary.gamma_b)}
    return _report("weak_qii", summary.d_fs, summary.gamma_b, tol_for(summary),
                   inputs, bound=_rounding_bound(summary.n_segments, summary.d_fs))


def aggregate_subloops(summaries: list[LoopSummary]) -> IneqReport:
    """Sub-loop weak QII: sum_i d_i >= sum_i gamma_i for a split loop."""
    if not summaries:
        raise EmptyInput("no sub-loop summaries to aggregate")
    agg = aggregate_summary(list(summaries))
    inputs = {"sum_d_fs": agg.d_fs, "gamma_total": agg.gamma_total,
              "n_subloops": len(summaries),
              "subloops": [(s.d_fs, s.gamma_b) for s in summaries]}
    return _report("aggregate", agg.d_fs, agg.gamma_total, tol_for(agg),
                   inputs, bound=_rounding_bound(agg.n_segments, agg.d_fs))

