"""Classical and quantum isoperimetric inequality checks with margin reports.

Margins are oriented so that a feasible instance has margin >= 0; a
report is flagged saturated when |margin| falls within its tolerance.
Saturation tolerances scale with the discretization quality of the loop
summary: tol(n) = max(floor, 10 * convergence_est), because chord sums
under-estimate lengths and a fixed tiny tolerance would spuriously fail
coarse loops.

``IneqReport.violated`` (margin < -tol; exactly -tol passes) is the one
violation predicate: every CLI verdict on an inequality reads it.
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


@dataclass(frozen=True)
class IneqReport:
    """One inequality instance: lhs >= rhs with margin = lhs - rhs."""

    name: str
    lhs: float
    rhs: float
    margin: float
    saturated: bool
    tol: float
    inputs: dict = field(default_factory=dict)

    @property
    def violated(self) -> bool:
        """True when the margin falls below -tol."""
        return self.margin < -self.tol


def _report(name, lhs, rhs, tol, inputs, margin=None) -> IneqReport:
    margin = lhs - rhs if margin is None else margin
    return IneqReport(name=name, lhs=float(lhs), rhs=float(rhs),
                      margin=float(margin), saturated=bool(abs(margin) <= tol),
                      tol=float(tol), inputs=inputs)


def tol_for(summary: LoopSummary, floor: float = TOL.saturation_floor) -> float:
    """Discretization-aware saturation tolerance for a loop summary."""
    return max(floor, 10.0 * summary.convergence_est)


def plane_check(perimeter: float, area: float,
                tol: float = TOL.saturation_floor) -> IneqReport:
    """Planar isoperimetric inequality P^2 >= 4 pi A."""
    if perimeter < 0 or area < 0:
        raise OutOfRange("perimeter and area must be nonnegative")
    inputs = {"perimeter": perimeter, "area": area}
    if area > 0:
        inputs["quotient"] = perimeter**2 / (4.0 * np.pi * area)
    return _report("plane", perimeter**2, 4.0 * np.pi * area, tol, inputs)


def sphere_check(perimeter: float, area: float, radius: float,
                 tol: float = TOL.saturation_floor) -> IneqReport:
    """Spherical isoperimetric inequality P^2 >= 4 pi A - A^2/R^2."""
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
    return _report("sphere", perimeter**2, rhs, tol, inputs)


def _strong_margin(d_fs: float, gamma_b: float) -> float:
    """(|gamma| - pi)^2 + d^2 - pi^2; the search calls it without a report."""
    return (abs(gamma_b) - np.pi) ** 2 + d_fs**2 - np.pi**2


def strong_qii(summary: LoopSummary, conjecture: bool = False) -> IneqReport:
    """Strong quantum isoperimetric inequality (|gamma|-pi)^2 + d^2 >= pi^2.

    Proven for simple two-band loops; pass conjecture=True for M > 2 or
    post-split inputs, which flags the report instead of erroring.
    """
    margin = _strong_margin(summary.d_fs, summary.gamma_b)
    inputs = {"d_fs": summary.d_fs, "gamma_b": summary.gamma_b,
              "n_segments": summary.n_segments, "conjecture": conjecture}
    return _report("strong_qii", margin + np.pi**2, np.pi**2, tol_for(summary),
                   inputs, margin)


def weak_qii(summary: LoopSummary) -> IneqReport:
    """Weak quantum isoperimetric inequality d_FS >= gamma_B.

    The margin uses the signed Berry phase as stated; the magnitude
    variant d - |gamma| (implied by orientation reversal) is echoed in
    the inputs as margin_abs.
    """
    inputs = {"d_fs": summary.d_fs, "gamma_b": summary.gamma_b,
              "n_segments": summary.n_segments,
              "margin_abs": summary.d_fs - abs(summary.gamma_b)}
    return _report("weak_qii", summary.d_fs, summary.gamma_b,
                   tol_for(summary), inputs)


def aggregate_subloops(summaries: list[LoopSummary]) -> IneqReport:
    """Sub-loop weak QII: sum_i d_i >= sum_i gamma_i for a split loop."""
    if not summaries:
        raise EmptyInput("no sub-loop summaries to aggregate")
    agg = aggregate_summary(list(summaries))
    inputs = {"sum_d_fs": agg.d_fs, "gamma_total": agg.gamma_total,
              "n_subloops": len(summaries),
              "subloops": [(s.d_fs, s.gamma_b) for s in summaries]}
    return _report("aggregate", agg.d_fs, agg.gamma_total,
                   tol_for(agg), inputs)

