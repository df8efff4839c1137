"""High-accuracy ground-truth values: the lower-level optimum G*, the
upper-level optimum F* over the lower solution set, and min-norm least
squares.

G* for a least-squares lower level comes from the minimum-norm solution of
the normal equations; composite lower levels fall back to one accelerated
run with gradient restart (O'Donoghue and Candes, 2015), stopped by its
gradient-mapping norm.  F* is approximated by solving the penalized problem
at an escalating penalty until the residual meets a stated relaxation, or,
for least-squares lower levels, until a dual/feasible bracket on F* is
narrow enough; the report records which rule stopped and the evidence.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apg import (ApgConfig, SolverTrace, _accelerate, gradient_mapping_norm,
                  pb_apg, pb_apg_sc)
from .errors import Nonconvergence, RelaxationUnreachable
from .model import (BilevelInstance, NonsmoothTerm, PenalizedObjective,
                    assemble_penalized)
from .prox import compose_prox, prox_l1

log = logging.getLogger(__name__)

MIN_NORM_TOL = 1e-13
GROWTH = 10.0
STEP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ReferenceReport:
    """A reference value with its convergence evidence."""

    g_star: Optional[float]
    f_star: Optional[float]
    method: str
    residual_certificate: float
    relaxation_epsilon: Optional[float] = None
    achieved_lower_gap: Optional[float] = None
    x: Optional[np.ndarray] = None
    iterations: int = 0
    f_star_lower: Optional[float] = None
    f_star_upper: Optional[float] = None
    f_star_method: Optional[str] = None
    f_star_solves: int = 0
    f_star_iterations: int = 0


def min_norm_least_squares(A, b) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||Ax - b||.

    Conjugate gradient on the normal equations A'A x = A'b started at zero;
    iterates stay in the row space of A, so the limit is the min-norm
    solution even for rank-deficient A.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    g = A.T @ b
    x = np.zeros(n)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return x
    r = g.copy()
    p = r.copy()
    rs = float(r @ r)
    threshold = MIN_NORM_TOL * (1.0 + gnorm)
    for _ in range(10 * n + 100):
        if math.sqrt(rs) <= threshold:
            break
        Ap = A.T @ (A @ p)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            break
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _lower_objective(instance: BilevelInstance) -> PenalizedObjective:
    """The lower level g1 + g2 alone, packaged for the accelerated engines."""
    psi = compose_prox(NonsmoothTerm.zero(), instance.g2, 1.0)
    return PenalizedObjective(gamma=1.0, phi=instance.g1, psi=psi)


def lower_opt_value(instance: BilevelInstance, tolerance: float = 1e-12,
                    max_iters: int = 10_000_000,
                    chunk: int = 50_000) -> ReferenceReport:
    """Lower-level optimal value G* with a convergence certificate.

    Unconstrained least-squares lower levels use the min-norm route and a
    normal-equation residual certificate; anything else is one accelerated
    run with gradient restart from zero, which stops at the first iterate
    whose gradient-mapping norm is at most ``tolerance``.  That norm costs a
    gradient, so it is computed, and logged, at checkpoints 1, 2, 4, ...
    spaced at most ``chunk`` apart, and where the free L||y_k - x_{k+1}||,
    the norm at y_k, meets ``tolerance``.  Reaching ``max_iters`` raises
    Nonconvergence with the last value and its certificate.
    """
    g1, g2 = instance.g1, instance.g2
    if g1.tag == "least_squares" and g1.payload is not None:
        A, b = g1.payload
        x_hat = min_norm_least_squares(A, b)
        if g2.value(x_hat) == 0.0:
            resid = float(np.linalg.norm(A.T @ (A @ x_hat - b)))
            return ReferenceReport(g_star=g1.value(x_hat), f_star=None,
                                   method="min_norm_least_squares",
                                   residual_certificate=resid, x=x_hat)

    objective = _lower_objective(instance)
    if not objective.phi.lipschitz_grad > 0:
        raise Nonconvergence("lower level has no smooth part to drive")
    checkpoint, gm = 1, math.inf

    def certified(k, x, y_step):
        nonlocal checkpoint, gm
        if k >= checkpoint:
            checkpoint = k + min(k, chunk)
        elif objective.l_gamma * math.sqrt(y_step.dot(y_step)) > tolerance:
            return False
        gm = gradient_mapping_norm(objective, x)
        log.debug("G* checkpoint: %d iterations, gradient-mapping norm %.3g",
                  k, gm)
        return gm <= tolerance

    x, trace = _accelerate(objective, np.zeros(instance.dim), max_iters, None,
                           ApgConfig(epsilon=1e-18, restart=True),
                           SolverTrace(every=max_iters), time.perf_counter(),
                           certified)
    if trace.terminal_reason != "certified":
        log.warning("G* reference run hit its %d-iteration cap", max_iters)
        raise Nonconvergence(
            f"lower-level reference run hit the {max_iters}-iteration cap",
            best_value=instance.lower_value(x),
            certificate=gradient_mapping_norm(objective, x))
    return ReferenceReport(g_star=instance.lower_value(x), f_star=None,
                           method="accelerated_restart", x=x,
                           residual_certificate=gm,
                           iterations=trace.total_iterations)


# A point x counts as feasible for {x : A x = c} when ||A x - c|| is at
# most this times 1 + ||c||: rounding level for a least-squares correction.
FEASIBLE_RESIDUAL = 1e-10


def _upper_end(inst: BilevelInstance, A, c, points) -> Optional[float]:
    """The smallest F over the points that are feasible for {x : A x = c}
    up to FEASIBLE_RESIDUAL, or None when none is."""
    bound = FEASIBLE_RESIDUAL * (1.0 + float(np.linalg.norm(c)))
    return min((inst.upper_value(p) for p in points
                if np.linalg.norm(A @ p - c) <= bound), default=None)


def _dual_bracket(inst: BilevelInstance):
    """The F* bracket of a penalized solution, as ``bracket(gamma, x) ->
    (lower, upper)``, when g1 is least squares and g2 zero, so the lower
    solution set is {x : A x = c} with c = A x_hat for the min-norm x_hat,
    and F = (tau/2)||x||^2 + w||x||_1 with tau > 0 (w = 0 for a zero f2).
    None otherwise.

    Lower: the dual of min F s.t. A x = c at lambda = gamma (c - A x)/m,
    D(lambda) = lambda'c - ||soft(A'lambda, w)||^2 / (2 tau) <= F* (weak
    duality holds for any lambda).  Upper: ``_upper_end`` over two points
    x + d, with d zero off a set S of coordinates and d_S =
    min_norm_least_squares(A[:, S], c - A x), for S = every coordinate and
    S = the m coordinates of largest |A'lambda|, which hold supp(x) when it
    has at most m nonzeros: at the penalized minimizer |A'lambda| =
    tau |x| + w > w on supp(x) and <= w off it.  A point counts only when
    its residual is at rounding level."""
    f1, g1, w = inst.f1, inst.g1, inst.f2.l1_weight
    if (f1.tag != "squared_norm" or g1.tag != "least_squares" or w is None
            or inst.g2.l1_weight != 0.0 or not f1.payload[0] > 0.0):
        return None
    A, b = g1.payload
    m = A.shape[0]
    c, tau = A @ min_norm_least_squares(A, b), f1.payload[0]

    def corrected(x, r, support):
        x_f = x.copy()
        x_f[support] += min_norm_least_squares(A[:, support], r)
        return x_f

    def bracket(gamma, x):
        r = c - A @ x
        lam = (gamma / m) * r
        v = A.T @ lam
        u = prox_l1(v, w)
        supports = (slice(None), np.argsort(np.abs(v))[-m:])
        points = [corrected(x, r, s) for s in supports]
        return (float(lam @ c) - float(u @ u) / (2.0 * tau),
                _upper_end(inst, A, c, points))
    return bracket


def upper_opt_value(instance: BilevelInstance, g_star: float,
                    relaxation: float = 1e-10, gamma0: float = 1e3,
                    gamma_cap: float = 1e12,
                    max_iters_per_solve: int = 200_000) -> ReferenceReport:
    """Approximate F* = min F(x) subject to G(x) - G* <= relaxation.

    Solves the penalized problem at gamma with the gradient-restarted
    accelerated engine, escalating gamma GROWTH-fold, and stops after the first
    solve x that meets either rule:

    - ``relaxation``: G(x) - G* <= relaxation;
    - ``dual_bracket``: on the route of ``_dual_bracket`` (least-squares
      g1, g2 = 0, f1 = (tau/2)||x||^2 with tau > 0, f2 L1 or zero), its
      bracket is at most l_F (rho * relaxation)^(1/alpha) wide, the
      accuracy the relaxation rule claims.

    F* is F(x), or on the bracket route the bracket's lower end, which is
    certified.  ``f_star_method`` names the rule, ``f_star_lower`` and
    ``f_star_upper`` the last bracket (None off its route), and
    ``achieved_lower_gap`` is G(x) - G*, above the relaxation when the
    bracket stopped first.  Raises RelaxationUnreachable past the
    escalation cap.  A solve that ends on ``max_iters_per_solve`` certifies
    nothing, so it raises Nonconvergence carrying F at its last iterate and
    that iterate's gradient-mapping norm.
    """
    if not relaxation > 0:
        raise ValueError("relaxation must be positive")
    inst = instance.with_lower_opt_value(g_star)
    bracket = _dual_bracket(inst)
    width = (inst.subgrad_diameter
             * (inst.rho * relaxation) ** (1.0 / inst.alpha))
    x = np.zeros(instance.dim)
    gamma = gamma0
    solves = iterations = 0
    lower = upper = None
    while gamma <= gamma_cap:
        objective = assemble_penalized(inst, gamma)
        cfg = ApgConfig(epsilon=1e-18, max_iters=max_iters_per_solve,
                        step_tolerance=STEP_TOLERANCE, restart=True,
                        record_every=max_iters_per_solve)
        mu = objective.strong_convexity
        x, trace = (pb_apg_sc(objective, mu, x, cfg) if mu > 0
                    else pb_apg(objective, x, cfg))
        solves += 1
        iterations += trace.total_iterations
        if trace.terminal_reason == "max_iters":
            log.warning("F* reference solve at gamma=%g hit its %d-iteration "
                        "cap", gamma, max_iters_per_solve)
            raise Nonconvergence(
                f"upper-level reference solve at gamma={gamma:g} hit its "
                f"{max_iters_per_solve}-iteration cap",
                best_value=inst.upper_value(x),
                certificate=gradient_mapping_norm(objective, x))
        gap = inst.lower_gap(x)
        if bracket is not None:
            lower, upper = bracket(gamma, x)
        log.debug("F* gamma=%g: %d iterations, lower gap %.3g, bracket "
                  "[%s, %s]", gamma, trace.total_iterations, gap, lower, upper)
        bracketed = upper is not None and upper - lower <= width
        if bracketed or gap <= relaxation:
            return ReferenceReport(
                g_star=g_star,
                f_star=inst.upper_value(x) if lower is None else lower,
                method=f"penalty_escalation(gamma={gamma:g})",
                residual_certificate=gradient_mapping_norm(objective, x),
                relaxation_epsilon=relaxation, achieved_lower_gap=gap, x=x,
                f_star_lower=lower, f_star_upper=upper,
                f_star_method="dual_bracket" if bracketed else "relaxation",
                f_star_solves=solves, f_star_iterations=iterations)
        gamma *= GROWTH
    raise RelaxationUnreachable(
        f"residual stayed above {relaxation:g} up to gamma={gamma_cap:g}")
