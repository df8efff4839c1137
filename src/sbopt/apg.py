"""Accelerated proximal gradient engines for the penalized objective.

``pb_apg`` runs the accelerated scheme with the momentum sequence generated
by ``next_theta`` (equality root, starting from theta = 1) and the iteration
budget that certifies a target accuracy from the smoothness constant and an
initial-distance bound.  ``pb_apg_sc`` is the constant-momentum variant for a
strongly convex smooth part, with its two warm-up steps and geometric rate.
Both run one loop, which differs only in its momentum policy.  Its forward
step is y - grad_step(y), or the one product M y + c where the smooth part
is quadratic (see ``model._affine_step``).

Optional adaptive restart uses the composite gradient test of O'Donoghue and
Candes (Adaptive restart for accelerated gradient schemes, Found. Comput.
Math. 15, 2015): the momentum is reset when
(y_k - x_{k+1}) . (x_{k+1} - x_k) > 0.  The test needs no objective value,
so a restarted run evaluates the objective only on the rows it records.

Runs are single threaded and deterministic: identical inputs produce
identical iterates.  Wall-clock stamps in traces are the only
non-reproducible field.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetOverflow, InvalidStrongConvexity, NonFiniteIterate
from .model import PenalizedObjective, _affine_step, is_count


@dataclass
class ApgConfig:
    """Run parameters.

    ``epsilon`` is the accuracy target driving the theoretical iteration
    budget; ``radius_bound`` is the distance bound R with ||x0 - x*|| <= R
    (defaults to ||x0|| + 1 when omitted).  ``step_tolerance`` > 0 enables the
    practical stop on ||x_{k+1} - x_k||.  ``restart`` enables gradient
    restart of the momentum (O'Donoghue and Candes, 2015), which evaluates no
    objective value; leave it off when the theoretical rate must hold
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
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not (self.radius_bound is None or 0 < self.radius_bound < math.inf):
            raise ValueError("radius_bound must be positive and finite")
        if self.max_iters is not None and not is_count(self.max_iters):
            raise ValueError("max_iters must be None or a nonnegative integer")
        if not 0 <= self.step_tolerance < math.inf:
            raise ValueError("step_tolerance must be nonnegative and finite")
        if not is_count(self.record_every, 1):
            raise ValueError("record_every must be a positive integer")


# Rows a SolverTrace holds at most.  A trace that reaches it keeps every
# other row (the first included) and doubles its recording stride, so a run
# of any length records at most this many rows.
TRACE_ROW_LIMIT = 2**16


@dataclass
class SolverTrace:
    """Per-iteration metrics of one solver run.

    ``ks`` is strictly increasing and ``elapsed`` nondecreasing; the terminal
    iterate is always recorded.  Each row is one ``PenalizedObjective.row``
    call, with NaN F and G gaps when the objective has no instance link.
    ``phi_best`` is populated by the subgradient solver only.  ``restarts``
    counts the momentum resets of a restarted accelerated run.  The solvers
    record iteration k when k % ``every`` == 0 (see TRACE_ROW_LIMIT);
    ``rows_recorded`` counts every row recorded, dropped ones included.

    ``oracle_calls`` is filled when the run ends, from its iteration count,
    warm-up steps and rows recorded: the objective-level ``gradient``
    (grad_step, or a penalized subgradient), ``prox`` (prox_step), ``value``
    (one objective evaluation, or one trace row) and ``projection``
    (Domain.project) calls that the solver made.  A forward step in the
    affine form M y + c counts as one gradient: it is the gradient step in
    closed form.  That form is chosen from the smooth part's ``tag`` and
    ``payload``, which the route trusts, as ``lower_opt_value`` and
    ``_dual_bracket`` trust the terms'.
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
    restarts: int = 0
    every: int = 1
    rows_recorded: int = 0
    oracle_calls: dict = field(default_factory=dict)

    def record(self, objective, k, x, step_norm, t0, best=None, value=None):
        # Stamped before the evaluations below, so a row's timestamp does
        # not include the cost of recording that row.
        stamp = time.perf_counter() - t0
        if len(self.ks) >= TRACE_ROW_LIMIT:
            for column in (self.ks, self.phi_values, self.f_values,
                           self.g_gaps, self.step_norms, self.elapsed,
                           self.phi_best):
                del column[1::2]
            self.every *= 2
        self.rows_recorded += 1
        self.elapsed.append(stamp)
        self.ks.append(k)
        phi, f, g_gap = objective.row(x, value)
        self.phi_values.append(phi)
        self.f_values.append(f)
        self.g_gaps.append(g_gap)
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
    """Smallest K >= 0 with c/(K+1)^2 <= epsilon, c = 2*l_gamma*radius^2;
    BudgetOverflow when c, c/epsilon or 2*l_gamma/epsilon overflows."""
    if not (l_gamma > 0 and radius > 0 and epsilon > 0):
        raise ValueError("l_gamma, radius and epsilon must be positive")
    c = 2.0 * l_gamma * radius * radius
    v = radius * math.sqrt(2.0 * l_gamma / epsilon)
    if not (math.isfinite(c / epsilon) and math.isfinite(v)):
        raise BudgetOverflow("the iteration budget is not finite")

    def meets(j):
        return c / ((j + 1.0) * (j + 1.0)) <= epsilon

    # the first k from floor(v) - 1 that meets the bound, by bisection: past
    # 2^53 the rounded v can lie many integers below it (1e138 at
    # l_gamma = 8.988e307, radius = epsilon = 1), too many for unit steps
    k, hi = max(0, math.floor(v) - 1), 2 * math.floor(v) + 2
    while k < hi:
        mid = (k + hi) // 2
        k, hi = (k, mid) if meets(mid) else (mid + 1, hi)
    return k


def sc_budget(l_gamma: float, mu: float, radius: float, epsilon: float) -> int:
    """Smallest k >= 0 with ((l_gamma+mu)/2) * radius^2 * (1-sqrt(mu/l_gamma))^k
    <= epsilon; BudgetOverflow when float rounding leaves no finite k."""
    if not 0 < mu <= l_gamma:
        raise InvalidStrongConvexity(
            f"need 0 < mu <= l_gamma, got mu={mu}, l_gamma={l_gamma}")
    if not (radius > 0 and epsilon > 0):
        raise ValueError("radius and epsilon must be positive")
    c = 0.5 * (l_gamma + mu) * radius * radius
    if c <= epsilon:
        return 0
    q = 1.0 - math.sqrt(mu / l_gamma)
    if q <= 0.0:
        return 1
    if not (q < 1.0 and epsilon / c > 0.0):
        raise BudgetOverflow("the iteration budget is not finite")
    k = max(0, math.floor(math.log(epsilon / c) / math.log(q)))
    while c * q**k > epsilon:
        k += 1
    return k


def _check_finite(x, trace):
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterate("solver produced a non-finite iterate", trace)


def _step_norm(d, x_next, trace) -> float:
    """||d|| for the 1-D step d = x_next - x, as np.linalg.norm computes it
    (sqrt of the dot product).  The finiteness scan of x_next runs only when
    the norm is not finite: x is finite, so a non-finite x_next always makes
    the norm non-finite, and NonFiniteIterate fires on the same iterates as
    a scan on every step would."""
    step_norm = math.sqrt(d.dot(d))
    if not math.isfinite(step_norm):
        _check_finite(x_next, trace)
    return step_norm


def _default_radius(x0, config):
    if config.radius_bound is not None:
        return config.radius_bound
    return float(np.linalg.norm(x0)) + 1.0


def _accelerate(objective: PenalizedObjective, x: np.ndarray, budget: int,
                beta: Optional[float], config: ApgConfig, trace: SolverTrace,
                t0: float, certified=None):
    """The accelerated loop shared by both engines, started at x = x_0 with
    x_{-1} = x_0.

    The momentum policy is the constant ``beta``, or, when ``beta`` is None,
    t_k (1/t_{k-1} - 1) with t_{-1} = t_0 = 1 and t_{k+1} = next_theta(t_k).
    With ``config.restart`` the momentum is reset whenever the composite
    gradient restart test (y_k - x_{k+1}) . (x_{k+1} - x_k) > 0 holds.
    With restart on, ``certified(k, x_k, y_{k-1} - x_k)`` runs after each
    iteration k, and a true return ends the run as "certified".

    The run allocates its arrays once: x_{k-1}, x_k and x_{k+1} rotate
    through three of them, and y_k, the prox input and the step go into
    three more, which grad_step and prox_step fill through ``out``; the
    gradient under grad_step is new at each call.  A restart copies x_k into
    x_{k-1}.  Each array is computed by the NumPy operations of
    y = x + c (x - x_prev),
    x_next = prox_step(y - grad_step(y)),  in that order, so the iterates
    keep every bit of that form, or, where ``_affine_step(objective.phi)``
    gives (M, c), of  M y + c  in place of  y - grad_step(y).  The returned
    x is never written again.
    """
    cap = budget if config.max_iters is None else min(budget, config.max_iters)
    reason = "max_iters" if cap < budget else "budget_reached"
    x_prev, x, x_next = x.copy(), x.copy(), np.empty_like(x)
    y, v, d = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    grad_step, prox_step = objective.grad_step, objective.prox_step
    M, c = _affine_step(objective.phi) or (None, None)
    record, keep = trace.record, config.keep_iterates
    restart, tol = config.restart, config.step_tolerance
    # Momentum by j, the iterations since the last (re)start: each restart
    # begins again at t_{-1} = t_0 = 1, so each coefficient is computed once
    # and kept, 8 bytes each; (th_prev, th) is (t_{j-1}, t_j) at j = len.
    coeffs, th_prev, th, j = array("d"), 1.0, 1.0, 0
    record(objective, 0, x, 0.0, t0)
    if keep:
        trace.iterates.append(x.copy())
    for k in range(cap):
        if beta is None and j == len(coeffs):
            coeffs.append(th * (1.0 / th_prev - 1.0))
            th_prev, th = th, next_theta(th)
        coeff = coeffs[j] if beta is None else beta
        j += 1
        np.subtract(x, x_prev, y)
        y *= coeff
        y += x
        if M is None:
            np.subtract(y, grad_step(y, v), v)
        else:
            M.dot(y, v)
            v += c
        prox_step(v, x_next)
        step_norm = _step_norm(np.subtract(x_next, x, d), x_next, trace)
        x_prev, x, x_next = x, x_next, x_prev
        if keep:
            trace.iterates.append(x.copy())
        # y - x_{k+1} is the prox-gradient step taken at y, so a positive
        # product means the momentum carried the iterate uphill.
        if restart and np.subtract(y, x, v).dot(d) > 0.0:
            j = 0
            np.copyto(x_prev, x)
            trace.restarts += 1
        stop = certified is not None and certified(k + 1, x, v)
        done = stop or (k + 1 == cap) or (tol > 0.0 and step_norm <= tol)
        if (k + 1) % trace.every == 0 or done:
            record(objective, k + 1, x, step_norm, t0)
        if done:
            if stop or k + 1 < cap:
                reason = "certified" if stop else "step_tolerance"
            trace.total_iterations = k + 1
            break
    trace.terminal_reason = reason
    trace.oracle_calls = {"gradient": trace.total_iterations,
                          "prox": trace.total_iterations,
                          "value": trace.rows_recorded, "projection": 0}
    return x, trace


def pb_apg(objective: PenalizedObjective, x0: np.ndarray,
           config: ApgConfig):
    """Accelerated proximal gradient on  phi_gamma + psi_gamma.

    Starts from x_{-1} = x_0 with momentum parameters t_{-1} = t_0 = 1 (so the
    first extrapolation is zero) and iterates

        y_k     = x_k + t_k (1/t_{k-1} - 1) (x_k - x_{k-1})
        x_{k+1} = prox_{psi/L}( y_k - grad phi(y_k)/L ).

    Runs for min(iteration_budget, max_iters) iterations or until the step
    norm drops to ``step_tolerance``.  With the true distance bound R and
    restart off, the final value satisfies
    Phi(x_K) - Phi* <= 2 L R^2/(K+1)^2.  A restart sets t_{k-1} = t_k = 1
    and x_k = x_{k+1}, so the next extrapolation is zero.

    Returns the final iterate and the trace.
    """
    if not objective.phi.lipschitz_grad > 0:
        raise ValueError("the smooth part must have a positive Lipschitz constant")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteIterate("x0 is not finite", None)

    radius = _default_radius(x0, config)
    budget = iteration_budget(objective.l_gamma, radius, config.epsilon)
    t0 = time.perf_counter()
    trace = SolverTrace(every=config.record_every)
    return _accelerate(objective, x0, budget, None, config, trace, t0)


def pb_apg_sc(objective: PenalizedObjective, mu: float, x_init: np.ndarray,
              config: ApgConfig):
    """Constant-momentum accelerated proximal gradient for mu-strongly convex
    smooth parts.

    Performs the two warm-up steps

        y~ = y_0 - grad phi(x_{-1})/L,    x~ = prox(y~ - grad phi(y~)/L)

    with x_{-1} = y_0 = x_init, then iterates from x~ with momentum
    (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu)).  With
    max(||y_0 - x*||, ||x~ - x*||) <= R and restart off, the recorded values
    satisfy Phi(x_k) - Phi* <= ((L+mu)/2) R^2 (1 - sqrt(mu/L))^k, where k
    counts post-warm-up iterations (the k = 0 row is x~).  A restart sets
    x_k = x_{k+1}, so the next extrapolation is zero.
    """
    L = objective.l_gamma
    if not 0 < mu <= L * (1 + 1e-12):
        raise InvalidStrongConvexity(f"need 0 < mu <= L_gamma, got mu={mu}, L={L}")
    x_init = np.asarray(x_init, dtype=float)
    if not np.all(np.isfinite(x_init)):
        raise NonFiniteIterate("x_init is not finite", None)

    mu = min(mu, L)  # the check above lets rounding put mu up to 1e-12 over L
    radius = _default_radius(x_init, config)
    budget = sc_budget(L, mu, radius, config.epsilon)
    beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))

    trace = SolverTrace(every=config.record_every)
    t0 = time.perf_counter()
    y_tilde = x_init - objective.grad_step(x_init)
    x = objective.prox_step(y_tilde - objective.grad_step(y_tilde))
    _check_finite(x, trace)
    x, trace = _accelerate(objective, x, budget, beta, config, trace, t0)
    trace.oracle_calls["gradient"] += 2
    trace.oracle_calls["prox"] += 1
    return x, trace


def gradient_mapping_norm(objective: PenalizedObjective, x: np.ndarray) -> float:
    """Norm of L * (x - prox_{psi/L}(x - grad phi(x)/L)); zero exactly at
    composite minimizers.  The prox-gradient map itself is scale-invariant,
    so for a scaled objective only the leading constant changes."""
    moved = objective.prox_step(x - objective.grad_step(x))
    return objective.l_gamma * float(np.linalg.norm(x - moved))
