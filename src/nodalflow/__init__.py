"""Descending-flow computation of sign-changing critical points for
nonsmooth energies of the form 1/2 ||u||^2 - lambda * int j(x, u)."""

from .cones import (ConeNeighborhood, InvarianceReport, ProjectionResult,
                    RegionLabel, check_schauder, fit_mu0, project_cone, region_of)
from .config import ConfigError, RunConfig, config_hash, load_config
from .energy import (EnergyProblem, PSReport, SetSlopeResult, SlopeResult,
                     SubdifferentialBox, energies, energy, ps_monitor, slope,
                     slope_on_set, subdifferential_box)
from .flow import (FlowConfig, FlowState, Termination, Trajectory, integrate_flow,
                   monitor_invariance, pseudo_gradient, resume_flow)
from .linking import (GapViolation, LinkingFrame, MinimaxReport, NoLinkingWindow,
                      NotConverged, SurfaceMesh, build_frame, deform_surface,
                      estimate_alpha_beta, minimax_iterate, sample_t_sphere)
from .mesh import (DiscreteSpace, GridSpec, build_space, field_from_csv,
                   field_to_csv, sign_changes)
from .potential import (ClarkeInterval, HypothesisReport, PiecewisePotential,
                        abs_potential, capped_power_potential, check_hypotheses,
                        clarke_interval, eval_j, gen_dir_derivative,
                        polynomial_potential, power_potential, two_slope_potential)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
