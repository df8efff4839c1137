"""Adaptive penalty ladders with warm start.

The outer loop runs stages k = 0, 1, 2, ... with penalty gamma_k =
gamma0 * nu^k and target accuracy eps_k = eps0 / eta^k, each stage
warm-started at the previous stage's output.  The loop exits after running
the first stage whose eps_k has reached ``stop_epsilon``.

``ladder_entry_index`` is the stage index N past which gamma_k clears the
critical parameter for eps_k, so that every later stage output carries the
certified (eps_k, 2*eps_k/(gamma_k - gamma*_k)) optimality pair.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apg import ApgConfig, pb_apg, pb_apg_sc
from .errors import InvalidErrorBound, InvalidLadder
from .model import BilevelInstance, assemble_penalized
from .penalty import gamma_star

log = logging.getLogger(__name__)
MAX_STAGES = 200


@dataclass(frozen=True)
class LadderConfig:
    """Ladder parameters: gamma multiplier nu > 1 and accuracy divisor
    eta > 1, with stop_epsilon reached within MAX_STAGES stages.  For
    certified runs with alpha > 1 the multiplier must dominate:
    nu > eta^(alpha-1)."""

    gamma0: float
    nu: float
    eta: float
    epsilon0: float
    stop_epsilon: float = 1e-10

    def __post_init__(self):
        if not (self.gamma0 > 0 and self.epsilon0 > 0 and self.stop_epsilon > 0):
            raise InvalidLadder("gamma0, epsilon0 and stop_epsilon must be positive")
        if not (self.nu > 1.0 and self.eta > 1.0):
            raise InvalidLadder(f"need nu > 1 and eta > 1, got nu={self.nu}, eta={self.eta}")
        try:
            last = self.epsilon0 / self.eta ** (MAX_STAGES - 1)
        except OverflowError:  # eta^(MAX_STAGES - 1) is past the float range
            last = 0.0
        if last > self.stop_epsilon * (1.0 + 1e-9):
            raise InvalidLadder(
                f"eps_k = epsilon0 / eta^k does not reach stop_epsilon="
                f"{self.stop_epsilon:g} within {MAX_STAGES} stages "
                f"(epsilon0={self.epsilon0:g}, eta={self.eta:g})")


@dataclass
class LadderStage:
    """One outer stage: its penalty, target accuracy, output and trace.

    ``radius_certified`` tells whether the stage ran with a certified
    distance bound: one fixed by the caller, or carried from the previous
    stage's strong convexity.  Otherwise the engine fell back to the
    uncertified ||x|| + 1, and the stage's iteration budget certifies
    nothing."""

    index: int
    gamma: float
    epsilon: float
    x: np.ndarray
    trace: object
    g_gap: Optional[float] = None
    radius_certified: bool = False


def ladder_entry_index(alpha: float, rho: float, l_f: float, epsilon0: float,
                       gamma0: float, nu: float, eta: float) -> int:
    """Smallest stage index N with gamma0 * nu^N >= gamma*(eps_N); 0 when the
    initial gamma already clears the threshold."""
    if not alpha >= 1.0:
        raise InvalidErrorBound(f"alpha must be >= 1, got {alpha}")
    if not (nu > 1.0 and eta > 1.0):
        raise InvalidLadder(f"need nu > 1 and eta > 1, got nu={nu}, eta={eta}")
    if alpha == 1.0:
        base = nu
        arg = rho * l_f / gamma0
    else:
        base = eta ** (1.0 - alpha) * nu
        if base <= 1.0:
            raise InvalidLadder(
                f"need nu > eta^(alpha-1) when alpha > 1, got nu={nu}, eta={eta}")
        arg = gamma_star(alpha, rho, l_f, epsilon0) / gamma0
    if arg <= 1.0:
        return 0
    n = max(0, math.floor(math.log(arg) / math.log(base)))
    while base**n < arg * (1.0 - 1e-12):
        n += 1
    return n


def _run_ladder(instance: BilevelInstance, x0, ladder: LadderConfig,
                apg_cfg: ApgConfig, engine: str):
    x = np.asarray(x0, dtype=float)
    stages = []
    radius = apg_cfg.radius_bound
    fixed_radius = radius is not None
    for k in range(MAX_STAGES):
        gamma_k = ladder.gamma0 * ladder.nu**k
        eps_k = ladder.epsilon0 / ladder.eta**k
        objective = assemble_penalized(instance, gamma_k)
        cfg = dataclasses.replace(apg_cfg, epsilon=eps_k, radius_bound=radius)
        x, trace = (pb_apg_sc(objective, objective.strong_convexity, x, cfg)
                    if engine == "apg_sc" else pb_apg(objective, x, cfg))
        g_gap = (None if instance.lower_opt_value is None
                 else instance.lower_gap(x))
        log.debug("ladder stage %d: gamma=%g, eps=%g, %d iterations, %s, "
                  "G gap %s", k, gamma_k, eps_k, trace.total_iterations,
                  trace.terminal_reason, g_gap)
        if trace.terminal_reason == "max_iters":
            log.warning("ladder stage %d (gamma=%g) ended on its %d-iteration "
                        "cap", k, gamma_k, cfg.max_iters)
        stages.append(LadderStage(index=k, gamma=gamma_k, epsilon=eps_k,
                                  x=x.copy(), trace=trace, g_gap=g_gap,
                                  radius_certified=radius is not None))
        if eps_k <= ladder.stop_epsilon * (1.0 + 1e-9):
            break
        if not fixed_radius:
            # Distance bound carried to the next warm start: for a strongly
            # convex stage the eps_k-optimal output lies within
            # sqrt(2 eps_k / mu) of the stage minimizer.
            mu_k = objective.strong_convexity
            radius = math.sqrt(2.0 * eps_k / mu_k) if mu_k > 0 else None
    return x, stages


def apb_apg(instance: BilevelInstance, x0, ladder: LadderConfig,
            apg_cfg: ApgConfig):
    """Adaptive ladder with the plain accelerated engine per stage."""
    return _run_ladder(instance, x0, ladder, apg_cfg, "apg")


def apb_apg_sc(instance: BilevelInstance, x0, ladder: LadderConfig,
               apg_cfg: ApgConfig):
    """Adaptive ladder with the strongly convex engine per stage; requires a
    strongly convex smooth upper part."""
    return _run_ladder(instance, x0, ladder, apg_cfg, "apg_sc")
