"""Numerical tolerances, centralized.

Every threshold the library uses lives in one record so that tests, the
CLI, and the inequality reports all reference the same source of truth.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-12            # |  ||v|| - 1 | allowed for a state vector
    degeneracy: float = 1e-9       # band gap below degeneracy*||H|| is ill-posed
    zero_vector: float = 1e-300    # norms at or below this cannot be normalized
    gauge_zero: float = 1e-10      # "first nonzero entry" threshold for gauge fixing
    segment_overlap: float = 1e-9  # consecutive loop states must overlap above this
    split: float = 1e-7            # projective coincidence threshold when splitting
    fd_step: float = 1e-4          # central-difference step for the geometric tensor
    pole_align: float = 1e-9       # 1 + n.ref below this (an antipode) moves the solid-angle ref
    branch_guard: float = 1e-9     # principal_phase reports phases this close to -pi as +pi
    saturation_floor: float = 1e-6 # minimum saturation tolerance in reports
    norm_drift: float = 1e-6       # max integrator norm drift per step
    violation: float = 1e-5        # read by the benchmark's search check and two search
                                   # tests; verdicts use inequalities.IneqReport.violated


TOL = Tolerances()
