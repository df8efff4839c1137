"""Shared test utilities: seeded instance suites, independent oracles
(finite differences, grid search), and a LIBSVM emitter for round trips."""

from __future__ import annotations

import math
import time

import numpy as np

from sbopt.model import (BilevelInstance, NonsmoothTerm, PenalizedObjective,
                         SmoothTerm)
from sbopt.prox import compose_prox
from sbopt.subgrad import Domain, assemble_subgradient


# ---------------------------------------------------------------------------
# finite differences


def central_diff(f, x, h=None):
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# grid search


def grid_min_1d(f, lo, hi, step=1e-3, refine_step=1e-7):
    """Exhaustive 1-D grid search with a local refinement pass around the
    coarse argmin (valid for the convex objectives used here)."""
    xs = np.arange(lo, hi + step, step)
    vals = f(xs)
    x0 = xs[int(np.argmin(vals))]
    xs = np.arange(x0 - 2 * step, x0 + 2 * step, refine_step)
    vals = f(xs)
    return float(xs[int(np.argmin(vals))])


def grid_prox_separable(coord_funcs, y, t, lo=-5.0, hi=5.0, step=1e-3):
    """Grid-search prox of a coordinate-separable psi: solves the 1-D problem
    psi_j(x) + (x - y_j)^2/(2t) exhaustively per coordinate."""
    out = np.zeros(len(coord_funcs))
    for j, pf in enumerate(coord_funcs):
        yj = y[j]
        out[j] = grid_min_1d(lambda v: pf(v) + (v - yj) ** 2 / (2.0 * t),
                             lo, hi, step=step)
    return out


def grid_project_l1_ball_2d(y, radius, lo=-5.0, hi=5.0, step=1e-3):
    """Full two-dimensional grid search for the L1-ball projection."""
    xs = np.arange(lo, hi + step, step)
    best_val = math.inf
    best = None
    for x1 in xs:
        room = radius - abs(x1)
        if room < 0:
            continue
        feas = xs[np.abs(xs) <= room]
        if feas.size == 0:
            continue
        vals = (x1 - y[0]) ** 2 + (feas - y[1]) ** 2
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = vals[i]
            best = np.array([x1, feas[i]])
    return best


def grid_project_l1_ball_3d(y, radius, lo=-5.0, hi=5.0,
                            coarse=0.05, fine=1e-3):
    """Two-stage grid search (coarse sweep, then a fine window around the
    coarse argmin; the prox objective is 1-strongly convex, so the true
    minimizer lies within one coarse step of the sweep winner)."""
    def sweep(lo3, hi3, step):
        xs = [np.arange(lo3[j], hi3[j] + step, step) for j in range(3)]
        best_val = math.inf
        best = None
        for x1 in xs[0]:
            for x2 in xs[1]:
                room = radius - abs(x1) - abs(x2)
                if room < 0:
                    continue
                feas = xs[2][np.abs(xs[2]) <= room]
                if feas.size == 0:
                    continue
                vals = (x1 - y[0]) ** 2 + (x2 - y[1]) ** 2 + (feas - y[2]) ** 2
                i = int(np.argmin(vals))
                if vals[i] < best_val:
                    best_val = vals[i]
                    best = np.array([x1, x2, feas[i]])
        return best

    c = sweep(np.full(3, lo), np.full(3, hi), coarse)
    w = 2 * coarse
    return sweep(c - w, c + w, fine)


# ---------------------------------------------------------------------------
# seeded composite suite (quadratic + L1) for budget certification


def quad_l1_objective(seed):
    """Strongly convex quadratic plus weighted L1, dimension <= 30.

    Returns (objective, Q, b, w, mu, L) with mu/L the exact extreme
    eigenvalues of Q.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    m = n + 5
    M = rng.normal(size=(m, n))
    mu0 = 0.05 + 0.5 * rng.random()
    Q = M.T @ M / m + mu0 * np.eye(n)
    b = rng.normal(size=n)
    w = 0.1 + rng.random()
    eigs = np.linalg.eigvalsh(Q)
    mu, L = float(eigs[0]), float(eigs[-1])

    phi = SmoothTerm(lambda x: 0.5 * float(x @ (Q @ x)) + float(b @ x),
                     lambda x: Q @ x + b, L, mu)
    psi = compose_prox(NonsmoothTerm.l1_norm(w), NonsmoothTerm.zero(), 1.0)
    objective = PenalizedObjective(gamma=1.0, phi=phi, psi=psi)
    return objective, Q, b, w, mu, L


# ---------------------------------------------------------------------------
# seeded Lipschitz suite (separable piecewise linear [+ quadratic]) for the
# subgradient bounds


class SeparableLipschitz:
    """Phi(x) = sum_j [ c_j|x_j - z_j| + h_j max(0, a_j x_j + d_j)
    (+ (mu_j/2)(x_j - s_j)^2) ] on the box [-2, 2]^n."""

    def __init__(self, seed, strongly_convex=False):
        rng = np.random.default_rng(seed)
        self.n = int(rng.integers(2, 11))
        self.c = 0.5 + 1.5 * rng.random(self.n)
        self.z = rng.uniform(-1.0, 1.0, self.n)
        self.h = rng.random(self.n)
        self.a = rng.choice([-1.0, 1.0], self.n) * rng.uniform(0.5, 1.5, self.n)
        self.d = rng.uniform(-1.0, 1.0, self.n)
        self.sc = strongly_convex
        if strongly_convex:
            self.mu_j = 0.5 + 1.5 * rng.random(self.n)
            self.s = rng.uniform(-1.0, 1.0, self.n)
        else:
            self.mu_j = np.zeros(self.n)
            self.s = np.zeros(self.n)
        self.domain = Domain.box(np.full(self.n, -2.0), np.full(self.n, 2.0))
        self.x0 = rng.uniform(-2.0, 2.0, self.n)

    def coord_value(self, j, v):
        out = self.c[j] * np.abs(v - self.z[j])
        out = out + self.h[j] * np.maximum(0.0, self.a[j] * v + self.d[j])
        if self.sc:
            out = out + 0.5 * self.mu_j[j] * (v - self.s[j]) ** 2
        return out

    def value(self, x):
        return float(sum(self.coord_value(j, x[j]) for j in range(self.n)))

    def subgrad(self, x):
        g = self.c * np.sign(x - self.z)
        g = g + np.where(self.a * x + self.d > 0.0, self.h * self.a, 0.0)
        if self.sc:
            g = g + self.mu_j * (x - self.s)
        return g

    @property
    def mu(self):
        return float(np.min(self.mu_j)) if self.sc else 0.0

    @property
    def lipschitz(self):
        per = self.c + self.h * np.abs(self.a) + self.mu_j * (2.0 + np.abs(self.s))
        return float(np.linalg.norm(per))

    def minimizer(self):
        """Per-coordinate grid search over the box (coarse + refine)."""
        out = np.zeros(self.n)
        for j in range(self.n):
            out[j] = grid_min_1d(lambda v: self.coord_value(j, v), -2.0, 2.0,
                                 step=1e-3, refine_step=1e-7)
        return out

    def objective(self, gamma=1.0):
        f2 = NonsmoothTerm.custom(self.value, subgrad_oracle=self.subgrad,
                                  lipschitz=self.lipschitz)
        return assemble_subgradient(single_level(f2, self.n), gamma,
                                    self.domain)


def single_level(f2, dim, f1=None):
    """The instance whose upper level is f1 + f2, with f1 zero unless given,
    over a zero lower level: a single-level problem for
    ``assemble_subgradient``."""
    return BilevelInstance(dim=dim, f1=f1 or SmoothTerm.zero(), f2=f2,
                           g1=SmoothTerm.zero(), g2=NonsmoothTerm.zero(),
                           alpha=1.0, rho=1.0, subgrad_diameter=1.0)


# ---------------------------------------------------------------------------
# analytic 1-D toys


def toy_quadratic_instance():
    """F = (1/2)(x-1)^2, G = x^2: error-bound exponent 2 with rho = 1,
    l_F = 1, X_opt = {0}, F* = 1/2, G* = 0."""
    f1 = SmoothTerm(lambda x: 0.5 * float((x[0] - 1.0) ** 2),
                    lambda x: x - 1.0, 1.0, 1.0)
    g1 = SmoothTerm(lambda x: float(x[0] ** 2), lambda x: 2.0 * x, 2.0, 2.0)
    return BilevelInstance(dim=1, f1=f1, f2=NonsmoothTerm.zero(), g1=g1,
                           g2=NonsmoothTerm.zero(), alpha=2.0, rho=1.0,
                           subgrad_diameter=1.0, lower_opt_value=0.0)


def toy_sharp_instance():
    """F = (1/2)(x-1)^2, G = |x|: weak sharp minima (exponent 1, rho = 1),
    l_F = 1, X_opt = {0}."""
    f1 = SmoothTerm(lambda x: 0.5 * float((x[0] - 1.0) ** 2),
                    lambda x: x - 1.0, 1.0, 1.0)
    return BilevelInstance(dim=1, f1=f1, f2=NonsmoothTerm.zero(),
                           g1=SmoothTerm.zero(), g2=NonsmoothTerm.l1_norm(1.0),
                           alpha=1.0, rho=1.0, subgrad_diameter=1.0,
                           lower_opt_value=0.0)


# ---------------------------------------------------------------------------
# LIBSVM emission (round-trip counterpart of the parser)


def emit_libsvm(dataset):
    """One line per row of the dense matrix, listing its nonzeros."""
    lines = []
    for label, row in zip(dataset.labels, dataset.features):
        toks = [f"{label:.17g}"]
        toks += [f"{j + 1}:{row[j]:.17g}" for j in np.flatnonzero(row)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# LAPACK calls


def eigh_calls(monkeypatch, delay: float = 0.0) -> list:
    """The shapes of the matrices passed to ``np.linalg.eigh`` from now on,
    for the rest of the test; each call first sleeps ``delay`` seconds."""
    eigh, shapes = np.linalg.eigh, []

    def counted(a):
        shapes.append(a.shape)
        time.sleep(delay)
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes
