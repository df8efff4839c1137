"""Seeded synthetic problem generators for the two benchmark families.

``lrp``: min-norm point of an L1-ball-constrained logistic fit (Gaussian
features, noisy sign labels).  ``lsrp``: sparse solution of an
over-parameterized least-squares fit via an elastic-net upper objective.
Both are deterministic in the seed.
"""

from __future__ import annotations

import numpy as np

from ..model import (BilevelInstance, elastic_net_problem,
                     logistic_min_norm_problem)

LRP_ANCHOR_SCALE = 0.5
LRP_NOISE_SCALE = 0.5
LRP_LABEL_NOISE = 0.05
LSRP_FEATURE_SCALE = 12.0
LSRP_SPARSITY = 5
LSRP_NOISE = 0.1


def synth_lrp(m: int, n: int, seed: int, theta: float = 10.0) -> BilevelInstance:
    """Logistic instance: labels sign(a'w + noise) with the ground truth w
    concentrated on the first feature.

    The fitted classifier then spends its whole L1 budget on that feature, so
    the constrained minimizer sits at a vertex of the ball with the gradient
    strictly inside the normal cone.  That is the sharp (weak-sharp-minima)
    regime: penalization becomes exact at moderate gamma and the residual
    floor drops to zero, which keeps desk-scale runs well under their gap
    targets.
    """
    rng = np.random.default_rng(seed)
    A = LRP_NOISE_SCALE * rng.normal(size=(m, n)) / np.sqrt(n)
    A[:, 0] = LRP_ANCHOR_SCALE * rng.normal(size=m)
    w = np.zeros(n)
    w[0] = 1.0
    z = A @ w + LRP_LABEL_NOISE * rng.normal(size=m)
    b = np.where(z >= 0.0, 1.0, -1.0)
    return logistic_min_norm_problem(A, b, l1_radius=theta)


def synth_lsrp(m: int, n: int, seed: int, tau: float = 0.02) -> BilevelInstance:
    """Least-squares instance; with n > m the lower solution set is an affine
    subspace, so the upper objective genuinely selects among minimizers.

    The feature scale sets the curvature of the residual transverse to the
    solution set; 12 keeps penalized residuals below 1e-7 from gamma = 5000
    up."""
    rng = np.random.default_rng(seed)
    A = LSRP_FEATURE_SCALE * rng.normal(size=(m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=min(LSRP_SPARSITY, n), replace=False)
    x_true[support] = rng.normal(size=support.size)
    b = A @ x_true + LSRP_NOISE * rng.normal(size=m)
    return elastic_net_problem(A, b, tau=tau)


def synth_instance(family: str, m: int, n: int, seed: int,
                   **kwargs) -> BilevelInstance:
    if family == "lrp":
        return synth_lrp(m, n, seed, **kwargs)
    if family == "lsrp":
        return synth_lsrp(m, n, seed, **kwargs)
    raise ValueError(f"unknown synthetic family {family!r}")
