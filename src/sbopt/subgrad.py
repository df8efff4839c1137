"""Projected subgradient method for the fully nonsmooth case (no smooth
parts; the objective is f2 + gamma*g2 with both terms Lipschitz on the
working domain C).

The update is  x_{k+1} = Proj_C(x_k - eta_k xi_k)  with xi_k a subgradient of
the penalized objective.  Two step schedules are supported: the diminishing
R/(l_gamma sqrt(k+1)) schedule and, for a strongly convex f2 on a bounded C,
2/(mu (k+1)).  The returned point is the best iterate by objective value.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apg import SolverTrace, _step_norm
from .errors import (InfeasibleStart, InvalidStrongConvexity,
                     UnsupportedTerm)
from .model import NonsmoothTerm, PenalizedObjective, SmoothTerm, _frozen_copy
from .prox import ProxSpec, project_box, project_l1_ball


@dataclass(frozen=True)
class Domain:
    """Constraint set with exact projection: all of R^n, an L1 ball, or a box."""

    kind: str
    radius: float = 0.0
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    @staticmethod
    def all_space() -> "Domain":
        return Domain(kind="all")

    @staticmethod
    def l1_ball(radius: float) -> "Domain":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return Domain(kind="l1_ball", radius=radius)

    @staticmethod
    def box(lo, hi) -> "Domain":
        lo = _frozen_copy(lo)
        hi = _frozen_copy(hi)
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi")
        return Domain(kind="box", lo=lo, hi=hi)

    @property
    def bounded(self) -> bool:
        return self.kind != "all"

    def project(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "all":
            return x
        if self.kind == "l1_ball":
            return project_l1_ball(x, self.radius)
        return project_box(x, self.lo, self.hi)

    def contains(self, x: np.ndarray) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "l1_ball":
            return float(np.sum(np.abs(x))) <= self.radius * (1 + 1e-12)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))


@dataclass(frozen=True)
class Diminishing:
    """Step eta_k = radius / (l_gamma * sqrt(k+1)); radius bounds
    ||x0 - x*_gamma||."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class StronglyConvex:
    """Step eta_k = 2 / (mu * (k+1)) for a mu-strongly convex f2."""

    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")


@dataclass(frozen=True)
class SubgradConfig:
    schedule: object
    max_iters: int
    domain: Domain
    record_every: int = 1
    max_seconds: Optional[float] = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


def subgradient_oracle(term, x: np.ndarray) -> np.ndarray:
    """A deterministic member of the subdifferential at x.

    For the L1 norm this is weight*sign(x) (0 at zeros); smooth terms return
    their gradient; custom terms use their own oracle.  Indicator kinds are
    rejected: constraint sets belong in the projection domain.
    """
    if isinstance(term, SmoothTerm):
        return term.grad(x)
    if term.kind == "zero":
        return np.zeros_like(x)
    if term.kind == "l1":
        return term.weight * np.sign(x)
    if term.kind == "custom" and term.subgrad_oracle is not None:
        return term.subgrad_oracle(x)
    raise UnsupportedTerm(f"no subgradient oracle for term kind '{term.kind}'")


def _value_and_subgradient(term: NonsmoothTerm, x: np.ndarray):
    """Value and subgradient of a nonsmooth term at x: one call of a custom
    term's fused oracle when it has one, else ``value`` and
    ``subgradient_oracle``."""
    if term.value_subgrad_oracle is not None:
        value, sub = term.value_subgrad_oracle(x)
        return float(value), sub
    return term.value(x), subgradient_oracle(term, x)


def assemble_nonsmooth(f2: NonsmoothTerm, g2: NonsmoothTerm, gamma: float,
                       f_value=None, g_gap=None) -> PenalizedObjective:
    """Penalized objective f2 + gamma*g2 in subgradient mode: no smooth part,
    no prox requirement, l_gamma = l_f2 + gamma*l_g2 from the term constants."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if f2.lipschitz is None or g2.lipschitz is None:
        raise UnsupportedTerm("subgradient mode needs Lipschitz constants on both terms")
    psi = ProxSpec(f2=f2, g2=g2, gamma=gamma, kinds=(f2.kind, g2.kind), prox=None)
    return PenalizedObjective(gamma=gamma, phi=SmoothTerm.zero(), psi=psi,
                              subgrad_lipschitz=f2.lipschitz + gamma * g2.lipschitz,
                              f_value=f_value, g_gap=g_gap)


def subgrad_solve(objective: PenalizedObjective, x0: np.ndarray,
                  config: SubgradConfig):
    """Projected subgradient run returning the best iterate by value.

    The best value is nonincreasing by construction and every iterate lies in
    the domain exactly.  With the diminishing schedule and a valid radius the
    best-value gap after K steps is at most
    (l_gamma/4)(R^2 + 2 log 2)/sqrt(K+2); with the strongly convex schedule it
    is at most 2 l_gamma^2 / (mu (K+1)).
    """
    x0 = np.asarray(x0, dtype=float)
    if not config.domain.contains(x0):
        raise InfeasibleStart("x0 lies outside the projection domain")
    if isinstance(config.schedule, StronglyConvex) and not config.domain.bounded:
        raise InvalidStrongConvexity(
            "the strongly convex schedule requires a bounded domain")
    l_gamma = objective.subgrad_lipschitz
    if l_gamma is None or l_gamma <= 0:
        raise UnsupportedTerm("objective carries no subgradient Lipschitz constant")

    f2, g2, gamma = objective.psi.f2, objective.psi.g2, objective.psi.gamma
    scale, phi = objective.scale, objective.phi

    def value_and_subgrad(x):
        # objective.value(x) and the penalized subgradient at x, with each
        # term evaluated once and the same arithmetic as the separate calls
        v_f, s_f = _value_and_subgradient(f2, x)
        v_g, s_g = _value_and_subgradient(g2, x)
        psi = math.inf if math.isinf(v_f) or math.isinf(v_g) else v_f + gamma * v_g
        return scale * (phi.value(x) + psi), scale * (s_f + gamma * s_g)

    trace = SolverTrace()
    t0 = time.perf_counter()
    x = x0.copy()
    best_val, sub = value_and_subgrad(x)
    x_best = x.copy()
    trace.record(objective, 0, x, 0.0, t0, best=best_val)
    if config.keep_iterates:
        trace.iterates.append(x.copy())

    reason = "max_iters"
    for k in range(config.max_iters):
        if isinstance(config.schedule, Diminishing):
            eta = config.schedule.radius / (l_gamma * math.sqrt(k + 1.0))
        else:
            eta = 2.0 / (config.schedule.mu * (k + 1.0))
        x_next = config.domain.project(x - eta * sub)
        step_norm = _step_norm(x_next, x, trace)
        x = x_next
        if config.keep_iterates:
            trace.iterates.append(x.copy())
        val, sub = value_and_subgrad(x)
        if val < best_val:
            best_val = val
            x_best = x.copy()
        out_of_time = (config.max_seconds is not None
                       and time.perf_counter() - t0 >= config.max_seconds)
        done = (k + 1 == config.max_iters) or out_of_time
        if (k + 1) % config.record_every == 0 or done:
            trace.record(objective, k + 1, x, step_norm, t0, best=best_val)
        if done:
            if out_of_time and k + 1 < config.max_iters:
                reason = "time_budget"
            trace.total_iterations = k + 1
            break
    trace.terminal_reason = reason
    return x_best, trace
