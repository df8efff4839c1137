"""Exact scaled proximal mappings and their gamma-weighted combinations.

Every mapping here is closed form.  ``compose_prox`` produces the prox of
f2 + gamma*g2: when one side is zero it is the other term's own
``NonsmoothTerm.prox``; its rules for pairs of kinds are the only per-kind
logic here.  Anything outside that closure raises NonComposableProx
rather than falling back to an inexact scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonComposableProx


def copy_into(y, out=None) -> np.ndarray:
    """y as a new float array, or copied into ``out`` (returned) when given."""
    if out is None:
        return np.array(y, dtype=float)
    np.copyto(out, y)
    return out


def prox_l1(y: np.ndarray, lam: float, out=None) -> np.ndarray:
    """Soft threshold: componentwise sign(y) * max(|y| - lam, 0), written
    into ``out`` when given."""
    mag = np.abs(y)
    mag -= lam
    np.maximum(mag, 0.0, out=mag)
    # sign(y) times the magnitude, not copysign: the two differ at y = -0.0
    out = np.sign(y, out)
    out *= mag
    return out


def project_l1_ball(y: np.ndarray, radius: float, out=None) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_1 <= radius}, written into
    ``out`` when given, which must not overlap y.

    Sort-based exact method (Duchi et al., ICML 2008): the threshold comes
    from the last index k of the sorted magnitudes u with
    (k+1) u_k > sum_{i<=k} u_i - radius.  Ties at the threshold are resolved
    by the closed-form shift, so the result is deterministic.  Rounding can
    leave the shrunk point an ulp outside the ball; the excess is then
    shaved evenly off the support, at most five times, so the output passes
    its own feasibility check and the projection is exactly idempotent.  The
    shave runs over the whole vector: an entry at 0 stays 0 under
    max(p - delta, 0), and only the support counts in delta.
    """
    y = np.asarray(y, dtype=float)
    p = np.abs(y, out)
    # np.add.reduce is the pairwise sum p.sum() runs, without its wrapper
    if float(np.add.reduce(p)) <= radius:
        np.copyto(p, y)
        return p
    u = p.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    above = u * np.arange(1.0, u.size + 1.0) > css - radius  # no int cast
    k = u.size - 1 - int(above[::-1].argmax())
    p -= (css[k] - radius) / (k + 1)
    np.maximum(p, 0.0, out=p)
    for _ in range(5):
        excess = float(np.add.reduce(p)) - radius
        if excess <= 0.0:
            break
        p -= excess / np.count_nonzero(p)
        np.maximum(p, 0.0, out=p)
    p *= np.sign(y)
    return p


def project_box(y: np.ndarray, lo, hi, out=None) -> np.ndarray:
    return np.clip(y, lo, hi, out=out)


@dataclass(frozen=True)
class ProxSpec:
    """A describable nonsmooth term  psi = f2 + gamma*g2  with its exact prox.

    ``prox(y, t, out=None)`` solves  argmin_x psi(x) + ||x - y||^2 / (2t)
    in closed form, into ``out`` when given.  ``prox`` is None for
    subgradient-mode pairs that have no supported combined prox.
    ``evaluate`` is extended-real: indicator parts contribute +inf outside
    their sets and the infinity never enters further arithmetic.
    """

    f2: object
    g2: object
    gamma: float
    prox: Optional[Callable[..., np.ndarray]]

    def evaluate(self, x: np.ndarray) -> float:
        return penalized_sum(self.f2.value(x), self.g2.value(x), self.gamma)


def penalized_sum(v_f: float, v_g: float, gamma: float) -> float:
    """v_f + gamma*v_g, or +inf when either is infinite (see ``ProxSpec``)."""
    return math.inf if math.isinf(v_f) or math.isinf(v_g) else v_f + gamma * v_g


def compose_prox(f2, g2, gamma: float) -> ProxSpec:
    """Exact prox of f2 + gamma*g2.

    Supported pairs: either side zero; l1 + l1 (weights add); l1 + box
    indicator (soft threshold then clamp); box + box (intersection); L1 ball
    + L1 ball (smaller radius).  Indicator parts are unaffected by gamma.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    kinds = (f2.kind, g2.kind)

    prox = None
    if f2.kind == "zero":
        prox = g2.prox(gamma)
    elif g2.kind == "zero":
        prox = f2.prox(1.0)
    elif kinds == ("l1", "l1"):
        w = f2.weight + gamma * g2.weight
        prox = lambda y, t, out=None: prox_l1(y, t * w, out)
    elif kinds == ("l1", "box"):
        w, lo, hi = f2.weight, g2.lo, g2.hi
        prox = lambda y, t, out=None: project_box(
            prox_l1(y, t * w, out), lo, hi, out)
    elif kinds == ("box", "l1"):
        w, lo, hi = gamma * g2.weight, f2.lo, f2.hi
        prox = lambda y, t, out=None: project_box(
            prox_l1(y, t * w, out), lo, hi, out)
    elif kinds == ("box", "box"):
        lo = np.maximum(f2.lo, g2.lo)
        hi = np.minimum(f2.hi, g2.hi)
        if not np.all(lo <= hi):
            raise NonComposableProx("box intersection is empty")
        prox = lambda y, t, out=None: project_box(y, lo, hi, out)
    elif kinds == ("l1_ball", "l1_ball"):
        r = min(f2.radius, g2.radius)
        prox = lambda y, t, out=None: project_l1_ball(y, r, out)

    if prox is None:
        raise NonComposableProx(f"no exact combined prox for pair {kinds}")
    return ProxSpec(f2=f2, g2=g2, gamma=gamma, prox=prox)
