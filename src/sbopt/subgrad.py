"""Projected subgradient method on the penalized objective
phi + f2 + gamma*g2, whose terms are Lipschitz on the working domain C.

The update is  x_{k+1} = Proj_C(x_k - eta_k xi_k)  with xi_k a subgradient of
the penalized objective: the gradient of the smooth part phi, which is a
subgradient, plus those of f2 and g2, taken from the terms themselves; C is
an indicator term.  Two step schedules are supported: the diminishing
R/(l_gamma sqrt(k+1)) schedule and, for a strongly convex objective on a
bounded C, 2/(mu (k+1)).  The returned point is the best iterate by
objective value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .apg import SolverTrace, _step_norm
from .errors import (InfeasibleStart, InvalidStrongConvexity,
                     UnsupportedTerm)
from .model import (BilevelInstance, NonsmoothTerm, PenalizedObjective,
                    _combine_smooth, is_count)
from .prox import ProxSpec


@dataclass(frozen=True)
class Domain:
    """Constraint set as its indicator term (``NonsmoothTerm.zero()`` for all
    of R^n); the projection is the term's prox, built once here."""

    term: NonsmoothTerm
    _project: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.term.norm_bound is None:
            raise UnsupportedTerm("a domain needs an indicator term or the zero term")
        object.__setattr__(self, "_project", self.term.prox(1.0))

    @staticmethod
    def all_space() -> "Domain":
        return Domain(NonsmoothTerm.zero())

    @staticmethod
    def l1_ball(radius: float) -> "Domain":
        return Domain(NonsmoothTerm.indicator_l1_ball(radius))

    @staticmethod
    def box(lo, hi) -> "Domain":
        return Domain(NonsmoothTerm.indicator_box(lo, hi))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.term.norm_bound)

    def project(self, x: np.ndarray, out=None) -> np.ndarray:
        """Projection of x, into ``out`` when given, which must not overlap
        x."""
        return self._project(x, 1.0, out)

    def contains(self, x: np.ndarray) -> bool:
        return self.term.value(x) == 0.0


@dataclass(frozen=True)
class Diminishing:
    """Step eta_k = radius / (l_gamma * sqrt(k+1)); radius bounds
    ||x0 - x*_gamma||."""

    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")

    def step(self, k: int, l_gamma: float) -> float:
        return self.radius / (l_gamma * math.sqrt(k + 1.0))


@dataclass(frozen=True)
class StronglyConvex:
    """Step eta_k = 2 / (mu * (k+1)) for a mu-strongly convex objective."""

    mu: float

    def __post_init__(self):
        if not 0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")

    def step(self, k: int, l_gamma: float) -> float:
        return 2.0 / (self.mu * (k + 1.0))


@dataclass(frozen=True)
class SubgradConfig:
    schedule: object
    max_iters: int
    domain: Domain
    record_every: int = 1
    max_seconds: Optional[float] = None
    keep_iterates: bool = False

    def __post_init__(self):
        if not is_count(self.max_iters, 1):
            raise ValueError("max_iters must be positive")
        if not is_count(self.record_every, 1):
            raise ValueError("record_every must be a positive integer")
        if not (self.max_seconds is None or self.max_seconds > 0):
            raise ValueError("max_seconds must be None or positive")


def subgradient_oracle(term: NonsmoothTerm, x: np.ndarray) -> np.ndarray:
    """A deterministic member of the subdifferential of a nonsmooth term at
    x, ``term.subgradient(x)``, which rejects indicators."""
    return term.subgradient(x)


def assemble_subgradient(instance: BilevelInstance, gamma: float,
                         domain: Domain) -> PenalizedObjective:
    """The penalized objective of ``instance`` in subgradient mode, linked
    to it: phi = f1 + gamma*g1 and psi = f2 + gamma*g2 with no prox, where a
    term that is the domain's own (``Domain(instance.g2)``) is the zero
    term.  ``subgrad_lipschitz`` is (l_f1 + l_f2) + gamma*(l_g1 + l_g2): the
    terms' ``grad_bound`` or ``subgradient_bound`` (None reads 0) on the
    ball of radius ``domain.term.norm_bound``.  Another indicator, or a
    bound that is not finite, raises UnsupportedTerm."""
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    f1, g1, n, r = instance.f1, instance.g1, instance.dim, domain.term.norm_bound
    f2, g2 = (NonsmoothTerm.zero() if term is domain.term else term
              for term in (instance.f2, instance.g2))
    if f2.is_indicator or g2.is_indicator:
        raise UnsupportedTerm("an indicator has no subgradient: make it the domain")
    l_gamma = ((f1.grad_bound(r, n) + (f2.subgradient_bound(n) or 0.0))
               + gamma * (g1.grad_bound(r, n) + (g2.subgradient_bound(n) or 0.0)))
    if not math.isfinite(l_gamma):
        raise UnsupportedTerm(f"the subgradient bound on the domain is {l_gamma}")
    return PenalizedObjective(gamma=gamma, phi=_combine_smooth(f1, g1, gamma),
                              psi=ProxSpec(f2, g2, gamma, prox=None),
                              subgrad_lipschitz=l_gamma, instance=instance)


def subgrad_solve(objective: PenalizedObjective, x0: np.ndarray,
                  config: SubgradConfig):
    """Projected subgradient run returning the best iterate by value.

    The best value is nonincreasing by construction and every iterate lies in
    the domain exactly.  With the diminishing schedule and a valid radius the
    best-value gap after K steps is at most
    (l_gamma/4)(R^2 + 2 log 2)/sqrt(K+2); with the strongly convex schedule it
    is at most 2 l_gamma^2 / (mu (K+1)).  The step direction is
    scale * (grad phi + xi_f2 + gamma xi_g2), where a zero term adds
    nothing; l_gamma, ``objective.subgrad_lipschitz``, must bound its norm
    on the domain.
    """
    x0 = np.asarray(x0, dtype=float)
    if not config.domain.contains(x0):
        raise InfeasibleStart("x0 lies outside the projection domain")
    if isinstance(config.schedule, StronglyConvex) and not config.domain.bounded:
        raise InvalidStrongConvexity(
            "the strongly convex schedule requires a bounded domain")
    l_gamma = objective.subgrad_lipschitz
    if l_gamma is None or not l_gamma > 0:
        raise UnsupportedTerm("objective carries no subgradient Lipschitz constant")

    scale, phi, psi = objective.scale, objective.phi, objective.psi
    terms = [(term, weight) for term, weight in ((psi.f2, 1.0),
                                                 (psi.g2, psi.gamma))
             if term.kind != "zero"]

    def value_and_subgrad(x, out):
        # objective.value(x), with phi's value and gradient from one call,
        # and the step direction at x written into out
        value, sub = phi.value_grad(x)
        for term, weight in terms:
            sub = np.add(sub, weight * subgradient_oracle(term, x), out)
        np.multiply(sub, scale, out)
        return scale * (value + psi.evaluate(x))

    # The run allocates its arrays once: x_k and x_{k+1} rotate through two,
    # the subgradient step and the step go into two more, and the best
    # iterate is copied into its own.
    step, project = config.schedule.step, config.domain.project
    max_iters, max_seconds = config.max_iters, config.max_seconds
    keep = config.keep_iterates
    trace = SolverTrace(every=config.record_every)
    record = trace.record
    t0 = time.perf_counter()
    x, x_next = x0.copy(), np.empty_like(x0)
    sub, d = np.empty_like(x0), np.empty_like(x0)
    best_val = value_and_subgrad(x, sub)
    x_best = x.copy()
    record(objective, 0, x, 0.0, t0, best=best_val, value=best_val)
    if keep:
        trace.iterates.append(x.copy())

    reason = "max_iters"
    for k in range(max_iters):
        sub *= step(k, l_gamma)
        project(np.subtract(x, sub, sub), x_next)
        step_norm = _step_norm(np.subtract(x_next, x, d), x_next, trace)
        x, x_next = x_next, x
        if keep:
            trace.iterates.append(x.copy())
        val = value_and_subgrad(x, sub)
        if val < best_val:
            best_val = val
            np.copyto(x_best, x)
        out_of_time = (max_seconds is not None
                       and time.perf_counter() - t0 >= max_seconds)
        done = (k + 1 == max_iters) or out_of_time
        if (k + 1) % trace.every == 0 or done:
            record(objective, k + 1, x, step_norm, t0, best=best_val, value=val)
        if done:
            if out_of_time and k + 1 < max_iters:
                reason = "time_budget"
            trace.total_iterations = k + 1
            break
    trace.terminal_reason = reason
    iters = trace.total_iterations
    trace.oracle_calls = {"gradient": iters + 1, "prox": 0,
                          "value": iters + 1 + trace.rows_recorded,
                          "projection": iters}
    return x_best, trace
