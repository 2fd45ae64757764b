"""Quantum isoperimetric inequalities for loops of pure states.

Computes Fubini-Study loop distances, Berry phases, quantum geometric
tensors, and Bloch solid angles; verifies the strong and weak quantum
isoperimetric inequalities; and evaluates the physical bound chains they
imply (Wannier spread, quantum speed limit, electron-phonon coupling,
superfluid weight).
"""

__version__ = "0.1.0"

from .applications import (BoundChain, SpeedLimitReport, Trajectory,
                           adiabatic_cone_demo, eph_bound_chain, evolve,
                           speed_limit_report, speed_limit_residual,
                           superfluid_weight_1d, wannier_bound_chain,
                           wannier_omega1)
from .config import TOL, Tolerances
from .geometry import (Chart, Loop, LoopSummary, QGTensor, bloch_solid_angle,
                       bloch_vectors, loop_berry_phase, loop_distance, normalize,
                       principal_phase, projector, qgt_at, segment_distance,
                       summarize)
from .inequalities import (IneqReport, aggregate_subloops, plane_check,
                           sphere_check, strong_qii, tol_for, weak_qii)
from .loops import (FourierLoopSpec, bloch_circle, fourier_loop, great_circle,
                    load_loop, perturb_circle, random_fourier_spec, refine,
                    save_loop, spherical_polygon, split_self_intersections)
from .models import (ModelSpec, band_chart, band_state, band_states, bloch,
                     bloch_table, bloch_table_from_csv, bz_grid, bz_loop, creutz,
                     dirac, dirac_metric, fermi_surface_loop, fourier_bloch,
                     metric_grid, model_from_json, rhombohedral, ssh)
from .search import (SearchConfig, SearchResult, extremality_scan,
                     minimize_margin, qii_objective)
