"""Projected subgradient method for the fully nonsmooth case (no smooth
parts; the objective is f2 + gamma*g2 with both terms Lipschitz on the
working domain C).

The update is  x_{k+1} = Proj_C(x_k - eta_k xi_k)  with xi_k a subgradient of
the penalized objective, taken from the terms themselves; C is an indicator
term.  Two step schedules are supported: the diminishing
R/(l_gamma sqrt(k+1)) schedule and, for a strongly convex f2 on a bounded C,
2/(mu (k+1)).  The returned point is the best iterate by objective value.
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
from .model import NonsmoothTerm, PenalizedObjective, SmoothTerm, is_count
from .prox import ProxSpec, penalized_sum


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
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def step(self, k: int, l_gamma: float) -> float:
        return self.radius / (l_gamma * math.sqrt(k + 1.0))


@dataclass(frozen=True)
class StronglyConvex:
    """Step eta_k = 2 / (mu * (k+1)) for a mu-strongly convex f2."""

    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

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


def subgradient_oracle(term, x: np.ndarray) -> np.ndarray:
    """A deterministic member of the subdifferential at x: the gradient of a
    smooth term, else ``term.subgradient(x)``, which rejects indicators."""
    return term.grad(x) if isinstance(term, SmoothTerm) else term.subgradient(x)


def _value_and_subgradient(term: NonsmoothTerm, x: np.ndarray):
    """Value and subgradient of a nonsmooth term at x: one call of a custom
    term's fused oracle when it has one, else ``value`` and
    ``subgradient_oracle``."""
    if term.value_subgrad_oracle is not None:
        value, sub = term.value_subgrad_oracle(x)
        return float(value), sub
    return term.value(x), subgradient_oracle(term, x)


def assemble_nonsmooth(f2: NonsmoothTerm, g2: NonsmoothTerm, gamma: float,
                       instance=None) -> PenalizedObjective:
    """Penalized objective f2 + gamma*g2 in subgradient mode: no smooth part,
    no prox requirement, l_gamma = l_f2 + gamma*l_g2 from the term constants.
    A given ``instance`` is linked, so traces report its F and G - G*."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if f2.lipschitz is None or g2.lipschitz is None:
        raise UnsupportedTerm("subgradient mode needs Lipschitz constants on both terms")
    psi = ProxSpec(f2=f2, g2=g2, gamma=gamma, prox=None)
    return PenalizedObjective(gamma=gamma, phi=SmoothTerm.zero(), psi=psi,
                              subgrad_lipschitz=f2.lipschitz + gamma * g2.lipschitz,
                              instance=instance)


def subgrad_solve(objective: PenalizedObjective, x0: np.ndarray,
                  config: SubgradConfig):
    """Projected subgradient run returning the best iterate by value.

    The best value is nonincreasing by construction and every iterate lies in
    the domain exactly.  With the diminishing schedule and a valid radius the
    best-value gap after K steps is at most
    (l_gamma/4)(R^2 + 2 log 2)/sqrt(K+2); with the strongly convex schedule it
    is at most 2 l_gamma^2 / (mu (K+1)).  The step uses the subgradients of
    f2 and g2 alone, so an objective with a smooth part raises
    UnsupportedTerm.
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
    if objective.phi.tag != "zero":
        raise UnsupportedTerm("subgradient mode takes no smooth part; fold it "
                              "into a nonsmooth term")

    f2, g2, gamma = objective.psi.f2, objective.psi.g2, objective.psi.gamma
    scale, phi = objective.scale, objective.phi

    def value_and_subgrad(x, out):
        # objective.value(x), and the penalized subgradient at x written into
        # out, with each term evaluated once and the same arithmetic as the
        # separate calls: scale * (s_f + gamma * s_g)
        v_f, s_f = _value_and_subgradient(f2, x)
        v_g, s_g = _value_and_subgradient(g2, x)
        np.multiply(gamma, s_g, out)
        out += s_f
        out *= scale
        return scale * (phi.value(x) + penalized_sum(v_f, v_g, gamma))

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
