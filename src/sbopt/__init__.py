"""Penalty-based first-order solvers for simple bilevel optimization.

Minimize an upper-level convex objective over the solution set of a convex
lower-level objective by solving the single-level penalized problem
F + gamma*(G - G*) with accelerated proximal gradient or projected
subgradient methods, choosing gamma from Holderian error-bound constants and
certifying (eps_F, eps_G)-optimality afterwards.
"""

import logging

from .adaptive import (LadderConfig, LadderStage, apb_apg, apb_apg_sc,
                       ladder_entry_index)
from .apg import (ApgConfig, SolverTrace, gradient_mapping_norm,
                  iteration_budget, next_theta, pb_apg, pb_apg_sc, sc_budget)
from .errors import (BudgetOverflow, ConfigError, DimensionMismatch,
                     InfeasibleStart, InvalidErrorBound, InvalidLadder,
                     InvalidStrongConvexity, MissingLowerOpt,
                     NonComposableProx, Nonconvergence, NonFiniteIterate,
                     ParseError, RelaxationUnreachable, SboptError,
                     UnsupportedTerm)
from .model import (BilevelInstance, NonsmoothTerm, PenalizedObjective,
                    SmoothTerm, assemble_penalized, elastic_net_problem,
                    l_f_elastic_net, l_f_min_norm, lambda_max_gram,
                    least_squares_smooth_term, lipschitz_least_squares,
                    lipschitz_logistic, logistic_min_norm_problem,
                    logistic_smooth_term, max_affine, min_norm_problem,
                    squared_norm_term)
from .penalty import (Certificate, PenaltyPlan, certify, gamma_star,
                      gamma_total, implied_lower_gap, make_plan,
                      suboptimality_lower_bound)
from .prox import ProxSpec, compose_prox, project_box, project_l1_ball, prox_l1
from .reference import (ReferenceReport, lower_opt_value,
                        min_norm_least_squares, upper_opt_value)
from .subgrad import (Diminishing, Domain, StronglyConvex, SubgradConfig,
                      assemble_subgradient, subgrad_solve, subgradient_oracle)

__version__ = "0.1.0"

# The run log: reference checkpoints, ladder stages, and runs and power
# iterations at their cap.  Silent unless the application configures logging.
logging.getLogger("sbopt").addHandler(logging.NullHandler())
