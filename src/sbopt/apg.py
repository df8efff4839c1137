"""Accelerated proximal gradient engines for the penalized objective.

``pb_apg`` runs the accelerated scheme with the momentum sequence generated
by ``next_theta`` (equality root, starting from theta = 1) and the iteration
budget that certifies a target accuracy from the smoothness constant and an
initial-distance bound.  ``pb_apg_sc`` is the constant-momentum variant for a
strongly convex smooth part, with its two warm-up steps and geometric rate.

Runs are single threaded and deterministic: identical inputs produce
identical iterates.  Wall-clock stamps in traces are the only
non-reproducible field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidStrongConvexity, NonFiniteIterate
from .model import PenalizedObjective


@dataclass
class ApgConfig:
    """Run parameters.

    ``epsilon`` is the accuracy target driving the theoretical iteration
    budget; ``radius_bound`` is the distance bound R with ||x0 - x*|| <= R
    (defaults to ||x0|| + 1 when omitted).  ``step_tolerance`` > 0 enables the
    practical stop on ||x_{k+1} - x_k||.  ``restart`` enables function-value
    restart of the momentum; leave it off when the theoretical rate must hold
    verbatim.
    """

    epsilon: float
    radius_bound: Optional[float] = None
    max_iters: Optional[int] = None
    step_tolerance: float = 0.0
    restart: bool = False
    record_every: int = 1
    keep_iterates: bool = False

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.radius_bound is not None and self.radius_bound <= 0:
            raise ValueError("radius_bound must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass
class SolverTrace:
    """Per-iteration metrics of one solver run.

    ``ks`` is strictly increasing and ``elapsed`` nondecreasing; the terminal
    iterate is always recorded.  ``f_values`` and ``g_gaps`` hold NaN when the
    objective carries no instance link.  ``phi_best`` is populated by the
    subgradient solver only.
    """

    ks: list = field(default_factory=list)
    phi_values: list = field(default_factory=list)
    f_values: list = field(default_factory=list)
    g_gaps: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    phi_best: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    terminal_reason: str = ""
    total_iterations: int = 0

    def record(self, objective, k, x, step_norm, t0, best=None):
        # Stamped before the evaluations below, so a row's timestamp does
        # not include the cost of recording that row.
        self.elapsed.append(time.perf_counter() - t0)
        self.ks.append(k)
        self.phi_values.append(objective.value(x))
        self.f_values.append(objective.f_value(x) if objective.f_value else math.nan)
        self.g_gaps.append(objective.g_gap(x) if objective.g_gap else math.nan)
        self.step_norms.append(step_norm)
        if best is not None:
            self.phi_best.append(best)


def next_theta(theta: float) -> float:
    """Successor of the momentum parameter: the positive root t of
    (1 - t)/t^2 = 1/theta^2, i.e. t = (-theta^2 + theta*sqrt(theta^2+4))/2.

    The hypothesis (1 - t_{k+1})/t_{k+1}^2 <= 1/t_k^2 then holds with
    equality, which is the deterministic choice.  The root is evaluated in the
    cancellation-free form 2*theta/(theta + sqrt(theta^2+4)) and nudged up by
    ulps if rounding lands on the violating side of the equality."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    t = 2.0 * theta / (theta + math.sqrt(theta * theta + 4.0))
    target = 1.0 / (theta * theta)
    while (1.0 - t) / (t * t) > target:
        t = math.nextafter(t, 1.0)
    return t


def iteration_budget(l_gamma: float, radius: float, epsilon: float) -> int:
    """Smallest K >= 0 with 2*l_gamma*radius^2/(K+1)^2 <= epsilon."""
    if l_gamma <= 0 or radius <= 0 or epsilon <= 0:
        raise ValueError("l_gamma, radius and epsilon must be positive")
    v = radius * math.sqrt(2.0 * l_gamma / epsilon)
    k = max(0, math.floor(v) - 1)
    while 2.0 * l_gamma * radius * radius / ((k + 1) * (k + 1)) > epsilon:
        k += 1
    return k


def sc_budget(l_gamma: float, mu: float, radius: float, epsilon: float) -> int:
    """Smallest k >= 0 with ((l_gamma+mu)/2) * radius^2 * (1-sqrt(mu/l_gamma))^k
    <= epsilon."""
    if mu <= 0 or mu > l_gamma:
        raise InvalidStrongConvexity(
            f"need 0 < mu <= l_gamma, got mu={mu}, l_gamma={l_gamma}")
    if radius <= 0 or epsilon <= 0:
        raise ValueError("radius and epsilon must be positive")
    c = 0.5 * (l_gamma + mu) * radius * radius
    if c <= epsilon:
        return 0
    q = 1.0 - math.sqrt(mu / l_gamma)
    if q <= 0.0:
        return 1
    k = max(0, math.floor(math.log(epsilon / c) / math.log(q)))
    while c * q**k > epsilon:
        k += 1
    return k


def _check_finite(x, trace):
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterate("solver produced a non-finite iterate", trace)


def _step_norm(x_next, x, trace) -> float:
    """||x_next - x|| for 1-D iterates, as np.linalg.norm computes it
    (sqrt of the dot product).  The finiteness scan of x_next runs only when
    the norm is not finite: x is finite, so a non-finite x_next always makes
    the norm non-finite, and NonFiniteIterate fires on the same iterates as
    a scan on every step would."""
    d = x_next - x
    step_norm = math.sqrt(d.dot(d))
    if not math.isfinite(step_norm):
        _check_finite(x_next, trace)
    return step_norm


def _default_radius(x0, config):
    if config.radius_bound is not None:
        return config.radius_bound
    return float(np.linalg.norm(x0)) + 1.0


def pb_apg(objective: PenalizedObjective, x0: np.ndarray,
           config: ApgConfig):
    """Accelerated proximal gradient on  phi_gamma + psi_gamma.

    Starts from x_{-1} = x_0 with momentum parameters t_{-1} = t_0 = 1 (so the
    first extrapolation is zero) and iterates

        y_k     = x_k + t_k (1/t_{k-1} - 1) (x_k - x_{k-1})
        x_{k+1} = prox_{psi/L}( y_k - grad phi(y_k)/L ).

    Runs for min(iteration_budget, max_iters) iterations or until the step
    norm drops to ``step_tolerance``.  With the true distance bound R the
    final value satisfies  Phi(x_K) - Phi* <= 2 L R^2/(K+1)^2.

    Returns the final iterate and the trace.
    """
    if objective.phi.lipschitz_grad <= 0:
        raise ValueError("the smooth part must have a positive Lipschitz constant")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteIterate("x0 is not finite", None)

    radius = _default_radius(x0, config)
    budget = iteration_budget(objective.l_gamma, radius, config.epsilon)
    cap = budget if config.max_iters is None else min(budget, config.max_iters)

    trace = SolverTrace()
    t0 = time.perf_counter()
    x_prev = x0.copy()
    x = x0.copy()
    th_prev = th = 1.0
    phi_mark = objective.value(x) if config.restart else 0.0
    trace.record(objective, 0, x, 0.0, t0)
    if config.keep_iterates:
        trace.iterates.append(x.copy())

    reason = "budget_reached"
    if config.max_iters is not None and config.max_iters < budget:
        reason = "max_iters"
    for k in range(cap):
        coeff = th * (1.0 / th_prev - 1.0)
        y = x + coeff * (x - x_prev)
        x_next = objective.prox_step(y - objective.grad_step(y))
        step_norm = _step_norm(x_next, x, trace)
        th_prev, th = th, next_theta(th)
        x_prev, x = x, x_next
        if config.keep_iterates:
            trace.iterates.append(x.copy())
        if config.restart:
            val = objective.value(x)
            if val > phi_mark:
                th_prev, th = 1.0, 1.0
                x_prev = x
            phi_mark = val
        done = (k + 1 == cap) or (config.step_tolerance > 0.0
                                  and step_norm <= config.step_tolerance)
        if (k + 1) % config.record_every == 0 or done:
            trace.record(objective, k + 1, x, step_norm, t0)
        if done:
            if k + 1 < cap:
                reason = "step_tolerance"
            trace.total_iterations = k + 1
            break
    else:
        trace.total_iterations = 0
    trace.terminal_reason = reason
    return x, trace


def pb_apg_sc(objective: PenalizedObjective, mu: float, x_init: np.ndarray,
              config: ApgConfig):
    """Constant-momentum accelerated proximal gradient for mu-strongly convex
    smooth parts.

    Performs the two warm-up steps

        y~ = y_0 - grad phi(x_{-1})/L,    x~ = prox(y~ - grad phi(y~)/L)

    with x_{-1} = y_0 = x_init, then iterates with momentum
    (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu)).  With
    max(||y_0 - x*||, ||x~ - x*||) <= R the recorded values satisfy
    Phi(x_k) - Phi* <= ((L+mu)/2) R^2 (1 - sqrt(mu/L))^k, where k counts
    post-warm-up iterations (the k = 0 row is x~).
    """
    L = objective.l_gamma
    if mu <= 0 or mu > L * (1 + 1e-12):
        raise InvalidStrongConvexity(f"need 0 < mu <= L_gamma, got mu={mu}, L={L}")
    x_init = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x_init)):
        raise NonFiniteIterate("x_init is not finite", None)

    radius = _default_radius(x_init, config)
    budget = sc_budget(L, mu, radius, config.epsilon)
    cap = budget if config.max_iters is None else min(budget, config.max_iters)
    beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))

    trace = SolverTrace()
    t0 = time.perf_counter()
    y_tilde = x_init - objective.grad_step(x_init)
    x = objective.prox_step(y_tilde - objective.grad_step(y_tilde))
    _check_finite(x, trace)
    x_prev = x.copy()
    phi_mark = objective.value(x) if config.restart else 0.0
    trace.record(objective, 0, x, 0.0, t0)
    if config.keep_iterates:
        trace.iterates.append(x.copy())

    reason = "budget_reached"
    if config.max_iters is not None and config.max_iters < budget:
        reason = "max_iters"
    for k in range(cap):
        y = x + beta * (x - x_prev)
        x_next = objective.prox_step(y - objective.grad_step(y))
        step_norm = _step_norm(x_next, x, trace)
        x_prev, x = x, x_next
        if config.keep_iterates:
            trace.iterates.append(x.copy())
        if config.restart:
            val = objective.value(x)
            if val > phi_mark:
                x_prev = x
            phi_mark = val
        done = (k + 1 == cap) or (config.step_tolerance > 0.0
                                  and step_norm <= config.step_tolerance)
        if (k + 1) % config.record_every == 0 or done:
            trace.record(objective, k + 1, x, step_norm, t0)
        if done:
            if k + 1 < cap:
                reason = "step_tolerance"
            trace.total_iterations = k + 1
            break
    else:
        trace.total_iterations = 0
    trace.terminal_reason = reason
    return x, trace


def gradient_mapping_norm(objective: PenalizedObjective, x: np.ndarray) -> float:
    """Norm of L * (x - prox_{psi/L}(x - grad phi(x)/L)); zero exactly at
    composite minimizers.  The prox-gradient map itself is scale-invariant,
    so for a scaled objective only the leading constant changes."""
    moved = objective.prox_step(x - objective.grad_step(x))
    return objective.l_gamma * float(np.linalg.norm(x - moved))
