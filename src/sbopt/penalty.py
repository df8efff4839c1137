"""Penalty calculus: the critical parameter gamma*, the working penalty
gamma, the suboptimality lower bound, and a posteriori certification of
(eps_F, eps_G)-optimality against reference values.

For error-bound exponent alpha > 1 the critical parameter decays in the
target accuracy; at alpha = 1 penalization is exact once gamma exceeds
rho * l_F and the formulas lose their epsilon dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidErrorBound, MissingLowerOpt
from .model import BilevelInstance


def _validate(alpha: float, rho: float, l_f: float, epsilon: float) -> None:
    if not alpha >= 1.0:
        raise InvalidErrorBound(f"alpha must be >= 1, got {alpha}")
    if not (rho > 0.0 and l_f > 0.0 and epsilon > 0.0):
        raise InvalidErrorBound("rho, l_f and epsilon must be positive")


def gamma_star(alpha: float, rho: float, l_f: float, epsilon: float) -> float:
    """Critical penalty parameter.

    alpha > 1:  rho * l_f^alpha * (alpha-1)^(alpha-1) * alpha^(-alpha)
                * epsilon^(1-alpha);
    alpha = 1:  rho * l_f  (independent of epsilon).

    (alpha-1)^(alpha-1) uses the convention 0^0 = 1, so the expression is
    continuous as alpha tends to 1 from above.
    """
    _validate(alpha, rho, l_f, epsilon)
    if alpha == 1.0:
        return rho * l_f
    p = alpha - 1.0
    return rho * l_f**alpha * p**p * alpha**(-alpha) * epsilon**(1.0 - alpha)


def gamma_total(alpha: float, rho: float, l_f: float, epsilon: float,
                beta: float) -> float:
    """Working penalty: gamma* plus the margin that converts an epsilon-optimal
    point of the penalized problem into an (epsilon, l_f^-beta eps^beta)-optimal
    point of the bilevel problem (margin 2*l_f^beta*eps^(1-beta) for alpha > 1,
    half that for alpha = 1)."""
    _validate(alpha, rho, l_f, epsilon)
    if not beta > 0.0:
        raise InvalidErrorBound(f"beta must be positive, got {beta}")
    margin = l_f**beta * epsilon**(1.0 - beta)
    if alpha > 1.0:
        margin *= 2.0
    return gamma_star(alpha, rho, l_f, epsilon) + margin


def suboptimality_lower_bound(alpha: float, rho: float, l_f: float,
                              epsilon: float, beta: float) -> float:
    """Intrinsic lower bound on F(x) - F* at any certified point:
    -l_f * (rho * l_f^-beta * eps^beta)^(1/alpha)."""
    _validate(alpha, rho, l_f, epsilon)
    if not beta > 0.0:
        raise InvalidErrorBound(f"beta must be positive, got {beta}")
    return -l_f * (rho * l_f**(-beta) * epsilon**beta) ** (1.0 / alpha)


def implied_lower_gap(gamma: float, alpha: float, rho: float, l_f: float,
                      epsilon: float) -> float:
    """Guaranteed residual bound 2*eps/(gamma - gamma*) for an eps-optimal
    point of the penalized problem at an arbitrary gamma; +inf when gamma
    does not clear gamma*."""
    gs = gamma_star(alpha, rho, l_f, epsilon)
    if gamma <= gs:
        return math.inf
    return 2.0 * epsilon / (gamma - gs)


@dataclass(frozen=True)
class PenaltyPlan:
    """A penalty choice with its guaranteed optimality targets."""

    epsilon: float
    beta: float
    alpha: float
    rho: float
    l_f: float
    gamma_star: float
    gamma: float
    guaranteed_upper_gap: float
    guaranteed_lower_gap: float
    lower_bound_F: float


def make_plan(alpha: float, rho: float, l_f: float, epsilon: float,
              beta: float) -> PenaltyPlan:
    """Assemble the full plan: gamma strictly above gamma*, upper-gap target
    epsilon, lower-gap target l_f^-beta * eps^beta."""
    gs = gamma_star(alpha, rho, l_f, epsilon)
    g = gamma_total(alpha, rho, l_f, epsilon, beta)
    return PenaltyPlan(
        epsilon=epsilon, beta=beta, alpha=alpha, rho=rho, l_f=l_f,
        gamma_star=gs, gamma=g,
        guaranteed_upper_gap=epsilon,
        guaranteed_lower_gap=l_f**(-beta) * epsilon**beta,
        lower_bound_F=suboptimality_lower_bound(alpha, rho, l_f, epsilon, beta),
    )


@dataclass(frozen=True)
class Certificate:
    """Measured optimality gaps of a candidate point against the plan targets.

    ``f_gap`` and ``f_ok`` are None when no upper-level reference value was
    supplied.  ``passed`` requires the lower-level flag and, when available,
    the upper-level flag.
    """

    g_gap: float
    f_gap: Optional[float]
    f_value: float
    target_upper_gap: float
    target_lower_gap: float
    lower_bound_F: float
    g_ok: bool
    f_ok: Optional[bool]
    tol: float

    @property
    def passed(self) -> bool:
        return self.g_ok and (self.f_ok is not False)


def certify(instance: BilevelInstance, x: np.ndarray, plan: PenaltyPlan,
            f_star: Optional[float] = None, tol: float = 1e-9) -> Certificate:
    """Check a candidate against the plan: lower-level residual within the
    guaranteed target, and (when f_star is known) upper-level gap inside
    [lower_bound_F - tol, epsilon + tol]."""
    if instance.lower_opt_value is None:
        raise MissingLowerOpt("compute the lower-level optimal value first")
    g_gap = instance.lower_gap(x)
    f_value = instance.upper_value(x)
    g_ok = g_gap <= plan.guaranteed_lower_gap + tol
    f_gap = f_ok = None
    if f_star is not None:
        f_gap = f_value - f_star
        f_ok = (plan.lower_bound_F - tol) <= f_gap <= (plan.epsilon + tol)
    return Certificate(g_gap=g_gap, f_gap=f_gap, f_value=f_value,
                       target_upper_gap=plan.epsilon,
                       target_lower_gap=plan.guaranteed_lower_gap,
                       lower_bound_F=plan.lower_bound_F,
                       g_ok=g_ok, f_ok=f_ok, tol=tol)
