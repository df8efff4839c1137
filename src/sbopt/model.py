"""Problem representation: composite terms, bilevel instances, penalized assembly.

An instance carries two composite objectives, upper F = f1 + f2 and lower
G = g1 + g2, where f1, g1 are smooth with Lipschitz gradients and f2, g2 are
prox-friendly nonsmooth terms.  ``assemble_penalized`` folds them into the
single-level objective  phi_gamma + psi_gamma  with
phi_gamma = f1 + gamma*g1  and  psi_gamma = f2 + gamma*g2.

All oracles are pure functions of their input vector; instances and
objectives are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import prox as _prox
from .errors import DimensionMismatch, InvalidErrorBound, MissingLowerOpt


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class SmoothTerm:
    """A convex function with value/gradient oracles and known constants.

    ``lipschitz_grad`` bounds the gradient's Lipschitz constant;
    ``strong_convexity`` is 0 for merely convex terms.  ``tag``/``payload``
    carry the loss family and its data for the shipped losses, so reference
    computations can pick closed-form routes.
    """

    value_oracle: Callable[[np.ndarray], float]
    gradient_oracle: Callable[[np.ndarray], np.ndarray]
    lipschitz_grad: float
    strong_convexity: float = 0.0
    tag: Optional[str] = None
    payload: Optional[tuple] = None
    value_grad_oracle: Optional[Callable[[np.ndarray], tuple]] = None

    def value(self, x: np.ndarray) -> float:
        return float(self.value_oracle(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_oracle(x)

    def value_grad(self, x: np.ndarray):
        """Value and gradient at one point, from one fused oracle call when
        the term has one, else from the two separate oracles."""
        if self.value_grad_oracle is None:
            return self.value(x), self.grad(x)
        value, grad = self.value_grad_oracle(x)
        return float(value), grad

    @staticmethod
    def zero() -> "SmoothTerm":
        return SmoothTerm(lambda x: 0.0, np.zeros_like, 0.0, 0.0)


@dataclass(frozen=True)
class NonsmoothTerm:
    """A prox-friendly or Lipschitz nonsmooth convex term, tagged by kind.

    Supported kinds: ``zero``, ``l1`` (weighted L1 norm), ``l1_ball``
    (indicator of an L1 ball), ``box`` (indicator of a box), and ``custom``
    (user oracles).  Indicator kinds evaluate to 0 inside the set and +inf
    outside.  ``lipschitz`` is only meaningful for terms used in subgradient
    mode and must be a bound over the working domain.  A custom term may add
    ``value_subgrad_oracle``, returning value and subgradient from one call,
    for solvers that need both at the same point.
    """

    kind: str
    weight: float = 1.0
    radius: float = 0.0
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    value_oracle: Optional[Callable[[np.ndarray], float]] = None
    prox_oracle: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    subgrad_oracle: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lipschitz: Optional[float] = None
    value_subgrad_oracle: Optional[Callable[[np.ndarray], tuple]] = None

    @staticmethod
    def zero() -> "NonsmoothTerm":
        return NonsmoothTerm(kind="zero", lipschitz=0.0)

    @staticmethod
    def l1_norm(weight: float = 1.0) -> "NonsmoothTerm":
        if weight <= 0:
            raise ValueError("l1 weight must be positive")
        return NonsmoothTerm(kind="l1", weight=weight)

    @staticmethod
    def indicator_l1_ball(radius: float) -> "NonsmoothTerm":
        if radius <= 0:
            raise ValueError("l1 ball radius must be positive")
        return NonsmoothTerm(kind="l1_ball", radius=radius)

    @staticmethod
    def indicator_box(lo, hi) -> "NonsmoothTerm":
        lo = _frozen_copy(lo)
        hi = _frozen_copy(hi)
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi elementwise")
        return NonsmoothTerm(kind="box", lo=lo, hi=hi)

    @staticmethod
    def custom(value_oracle, prox_oracle=None, subgrad_oracle=None,
               lipschitz=None, value_subgrad_oracle=None) -> "NonsmoothTerm":
        return NonsmoothTerm(kind="custom", value_oracle=value_oracle,
                             prox_oracle=prox_oracle,
                             subgrad_oracle=subgrad_oracle,
                             lipschitz=lipschitz,
                             value_subgrad_oracle=value_subgrad_oracle)

    def value(self, x: np.ndarray) -> float:
        """Extended-real evaluation; indicators return +inf outside their set."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return self.weight * float(np.abs(x).sum())
        if self.kind == "l1_ball":
            return 0.0 if float(np.abs(x).sum()) <= self.radius * (1 + 1e-12) else math.inf
        if self.kind == "box":
            inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
            return 0.0 if inside else math.inf
        return float(self.value_oracle(x))

    @property
    def is_indicator(self) -> bool:
        return self.kind in ("l1_ball", "box")


def max_affine(A, c) -> NonsmoothTerm:
    """Piecewise-linear term  x -> max_i (A[i] @ x + c[i]).

    The subgradient oracle returns the row of the lowest active index, so
    ties resolve deterministically.
    """
    A = _frozen_copy(A)
    c = _frozen_copy(c)

    def value(x):
        return float(np.max(A @ x + c))

    def subgrad(x):
        return A[int(np.argmax(A @ x + c))].copy()

    lip = float(np.max(np.linalg.norm(A, axis=1))) if A.size else 0.0
    return NonsmoothTerm.custom(value, subgrad_oracle=subgrad, lipschitz=lip)


# ---------------------------------------------------------------------------
# bilevel instance


@dataclass(frozen=True)
class BilevelInstance:
    """A simple bilevel problem: minimize F over the minimizers of G.

    ``alpha`` and ``rho`` are the Holderian error-bound constants of the
    lower-level residual (alpha >= 1, rho > 0); ``subgrad_diameter`` bounds
    the norms of upper-level subgradients over the lower-level solution set.
    ``lower_opt_value`` is filled by the reference module once computed.
    """

    dim: int
    f1: SmoothTerm
    f2: NonsmoothTerm
    g1: SmoothTerm
    g2: NonsmoothTerm
    alpha: float
    rho: float
    subgrad_diameter: float
    lower_opt_value: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.alpha < 1.0:
            raise InvalidErrorBound(f"alpha must be >= 1, got {self.alpha}")
        if self.rho <= 0.0:
            raise InvalidErrorBound(f"rho must be positive, got {self.rho}")
        if self.subgrad_diameter <= 0.0:
            raise ValueError("subgrad_diameter must be positive")

    @property
    def error_bound(self):
        return (self.alpha, self.rho)

    def upper_value(self, x: np.ndarray) -> float:
        return self.f1.value(x) + self.f2.value(x)

    def lower_value(self, x: np.ndarray) -> float:
        return self.g1.value(x) + self.g2.value(x)

    def lower_gap(self, x: np.ndarray) -> float:
        """Residual G(x) - G*; requires the reference value to be set."""
        if self.lower_opt_value is None:
            raise MissingLowerOpt("lower_opt_value has not been computed")
        return self.lower_value(x) - self.lower_opt_value

    def with_lower_opt_value(self, g_star: float) -> "BilevelInstance":
        return dataclasses.replace(self, lower_opt_value=float(g_star))


# ---------------------------------------------------------------------------
# penalized objective


@dataclass(frozen=True)
class PenalizedObjective:
    """The single-level objective  scale * (phi_gamma + psi_gamma).

    ``phi`` and ``psi`` are the unscaled smooth and nonsmooth parts; ``scale``
    multiplies the whole objective (used to realize the algebraic equivalence
    of c*Phi_gamma with step constant c*L_gamma, where the common factor
    cancels out of the prox-gradient step exactly).

    ``l_gamma`` is the reported smoothness constant scale*(L_f1 + gamma*L_g1).
    ``subgrad_lipschitz``, when available, is l_f2 + gamma*l_g2 for the fully
    nonsmooth mode.
    """

    gamma: float
    phi: SmoothTerm
    psi: _prox.ProxSpec
    scale: float = 1.0
    subgrad_lipschitz: Optional[float] = None
    f_value: Optional[Callable[[np.ndarray], float]] = None
    g_gap: Optional[Callable[[np.ndarray], float]] = None

    @property
    def l_gamma(self) -> float:
        return self.scale * self.phi.lipschitz_grad

    @property
    def strong_convexity(self) -> float:
        return self.scale * self.phi.strong_convexity

    def value(self, x: np.ndarray) -> float:
        return self.scale * (self.phi.value(x) + self.psi.evaluate(x))

    def smooth_value(self, x: np.ndarray) -> float:
        return self.scale * self.phi.value(x)

    def smooth_grad(self, x: np.ndarray) -> np.ndarray:
        return self.scale * self.phi.grad(x)

    # Solver-facing steps.  Both are computed from the unscaled parts so that
    # the scale factor cancels exactly: grad(c*phi)/(c*L) == grad(phi)/L and
    # prox of (c*psi)/(c*L) == prox of psi/L.
    def grad_step(self, y: np.ndarray) -> np.ndarray:
        """Gradient step component  grad(phi_gamma)(y) / L_gamma."""
        return self.phi.grad(y) / self.phi.lipschitz_grad

    def prox_step(self, v: np.ndarray) -> np.ndarray:
        """Scaled prox  prox_{psi_gamma / L_gamma}(v)."""
        return self.psi.prox(v, 1.0 / self.phi.lipschitz_grad)

    def scaled(self, c: float) -> "PenalizedObjective":
        """A view of c times this objective (step constant becomes c*L_gamma)."""
        if c <= 0:
            raise ValueError("scale factor must be positive")
        sub = None if self.subgrad_lipschitz is None else c * self.subgrad_lipschitz
        return dataclasses.replace(self, scale=c * self.scale, subgrad_lipschitz=sub)


def _combine_smooth(f1: SmoothTerm, g1: SmoothTerm, gamma: float) -> SmoothTerm:
    def value(x):
        return f1.value(x) + gamma * g1.value(x)

    def grad(x):
        return f1.grad(x) + gamma * g1.grad(x)

    return SmoothTerm(value, grad,
                      f1.lipschitz_grad + gamma * g1.lipschitz_grad,
                      f1.strong_convexity + gamma * g1.strong_convexity)


def assemble_penalized(instance: BilevelInstance, gamma: float) -> PenalizedObjective:
    """Build phi_gamma = f1 + gamma*g1 and psi_gamma = f2 + gamma*g2.

    Raises NonComposableProx when the (f2, g2) pair has no supported exact
    combined prox.  The resulting objective reports F values and lower-level
    residuals in solver traces when the instance's G* is available.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    phi = _combine_smooth(instance.f1, instance.g1, gamma)
    psi = _prox.compose_prox(instance.f2, instance.g2, gamma)

    sub = None
    if instance.f2.lipschitz is not None and instance.g2.lipschitz is not None:
        sub = instance.f2.lipschitz + gamma * instance.g2.lipschitz

    g_gap = None
    if instance.lower_opt_value is not None:
        g_star = instance.lower_opt_value
        g_gap = lambda x: instance.lower_value(x) - g_star
    return PenalizedObjective(gamma=gamma, phi=phi, psi=psi,
                              subgrad_lipschitz=sub,
                              f_value=instance.upper_value, g_gap=g_gap)


# ---------------------------------------------------------------------------
# shipped smooth losses and their constants


def lambda_max_gram(A, tol: float = 1e-12, max_iters: int = 10_000) -> float:
    """Largest eigenvalue of A'A by power iteration with a deterministic start.

    Returns 0 for a zero matrix.  Convergence is declared when the Rayleigh
    quotient changes by at most tol*max(1, lambda) between sweeps.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    n = A.shape[1]
    v = np.ones(n) + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


def lipschitz_logistic(A) -> float:
    """Gradient Lipschitz constant lambda_max(A'A) / (4m) of the mean logistic loss."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    return lambda_max_gram(A) / (4.0 * m)


def lipschitz_least_squares(A) -> float:
    """Gradient Lipschitz constant lambda_max(A'A) / m of the mean squared loss."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    return lambda_max_gram(A) / m


# Each loss is three functions, and each formula exists once: ``parts``
# computes what value and gradient share, ``value`` and ``grad`` finish
# from it.  The public *_value_grad functions and the oracles of the shipped
# terms are all built from these.

def _logistic_parts(A, b, x):
    """Margins t = b * (A x) and z = exp(-|t|)."""
    t = b * (A @ x)
    return t, np.exp(-np.abs(t))


def _logistic_value(t, z) -> float:
    # softplus(-t) = max(-t, 0) + log1p(exp(-|t|)), which cannot overflow;
    # the mean is np.mean's own sum-then-divide, without its dispatch cost
    losses = np.maximum(-t, 0.0) + np.log1p(z)
    return float(losses.sum()) / losses.shape[0]


def _logistic_grad(A, b, t, z):
    sig_neg_t = np.where(t >= 0, z / (1.0 + z), 1.0 / (1.0 + z))
    return -(A.T @ (b * sig_neg_t)) / A.shape[0]


def _least_squares_parts(A, b, x):
    return (A @ x - b,)


def _least_squares_value(r) -> float:
    return float(r @ r) / (2.0 * r.shape[0])


def _least_squares_grad(A, b, r):
    return (A.T @ r) / A.shape[0]


_LOGISTIC = (_logistic_parts, _logistic_value, _logistic_grad)
_LEAST_SQUARES = (_least_squares_parts, _least_squares_value, _least_squares_grad)


def _public_value_grad(loss, A, b, x):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.ndim != 2 or A.shape[0] != b.shape[0] or A.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"A is {A.shape}, b is {b.shape}, x is {x.shape}")
    parts, value, grad = loss
    p = parts(A, b, x)
    return value(*p), grad(A, b, *p)


def logistic_value_grad(A, b, x):
    """Mean logistic loss (1/m) sum log(1 + exp(-b_i a_i'x)) and its gradient.

    Uses the softplus form max(s, 0) + log1p(exp(-|s|)) so large margins do
    not overflow.  Labels must be +-1.
    """
    return _public_value_grad(_LOGISTIC, A, b, x)


def least_squares_value_grad(A, b, x):
    """Mean squared loss (1/2m) ||Ax - b||^2 and its gradient."""
    return _public_value_grad(_LEAST_SQUARES, A, b, x)


def _frozen_copy(a) -> np.ndarray:
    """A private read-only float copy, so a term's oracles and its cached
    constants cannot drift apart when the caller's array changes."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _loss_term(loss, A, b, lipschitz, tag) -> SmoothTerm:
    """A shipped loss as a term.  It keeps read-only copies of A and b and
    checks their shapes here, once; each oracle call then only compares the
    shape of x.  ``value`` skips the gradient's A'(.) product, ``grad`` skips
    the value, and ``value_grad`` computes the shared parts once."""
    A = _frozen_copy(A)
    b = _frozen_copy(b)
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise DimensionMismatch(f"A is {A.shape}, b is {b.shape}")
    shape = (A.shape[1],)
    parts, value, grad = loss

    def parts_at(x):
        if type(x) is not np.ndarray:
            x = np.asarray(x, dtype=float)
        if x.shape != shape:
            raise DimensionMismatch(f"x is {x.shape}, expected {shape}")
        return parts(A, b, x)

    def value_grad(x):
        p = parts_at(x)
        return value(*p), grad(A, b, *p)

    return SmoothTerm(lambda x: value(*parts_at(x)),
                      lambda x: grad(A, b, *parts_at(x)),
                      lipschitz(A), 0.0, tag=tag, payload=(A, b),
                      value_grad_oracle=value_grad)


def logistic_smooth_term(A, b) -> SmoothTerm:
    return _loss_term(_LOGISTIC, A, b, lipschitz_logistic, "logistic")


def least_squares_smooth_term(A, b) -> SmoothTerm:
    return _loss_term(_LEAST_SQUARES, A, b, lipschitz_least_squares,
                      "least_squares")


def squared_norm_term(weight: float = 1.0) -> SmoothTerm:
    """(weight/2) ||x||^2, which is weight-strongly convex and weight-smooth."""
    return SmoothTerm(lambda x: 0.5 * weight * float(x @ x),
                      lambda x: weight * x, weight, weight)


# ---------------------------------------------------------------------------
# l_F estimators (heuristic; the diameter of upper subgradients over the
# lower solution set is not computable in general)


def l_f_min_norm(l1_radius: float) -> float:
    """For F = (1/2)||x||^2 with the lower solution set inside an L1 ball:
    ||grad F(x)|| = ||x||_2 <= ||x||_1 <= radius."""
    return float(l1_radius)


def l_f_elastic_net(tau: float, dim: int, norm_bound: float) -> float:
    """For F = (tau/2)||x||^2 + ||x||_1 with solutions of Euclidean norm at
    most norm_bound: ||tau x + s|| <= tau*norm_bound + sqrt(dim)."""
    return tau * norm_bound + math.sqrt(dim)


# ---------------------------------------------------------------------------
# shipped problem constructors


def min_norm_problem(A, b, l1_radius: Optional[float] = None,
                     alpha: float = 2.0, rho: float = 1.0,
                     l_f: Optional[float] = None) -> BilevelInstance:
    """Smallest-Euclidean-norm solution of a least-squares lower level,
    optionally constrained to an L1 ball.

    Least-squares residuals satisfy a quadratic-growth error bound, hence
    alpha = 2 by default; rho = 1 is a placeholder (the sharp constant is
    2m over the smallest positive eigenvalue of A'A) and should be passed
    explicitly for derived-mode penalties."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    g2 = (NonsmoothTerm.indicator_l1_ball(l1_radius)
          if l1_radius is not None else NonsmoothTerm.zero())
    if l_f is None:
        l_f = l_f_min_norm(l1_radius) if l1_radius is not None else math.sqrt(n) + 1.0
    return BilevelInstance(dim=n, f1=squared_norm_term(1.0),
                           f2=NonsmoothTerm.zero(),
                           g1=least_squares_smooth_term(A, b), g2=g2,
                           alpha=alpha, rho=rho, subgrad_diameter=l_f)


def logistic_min_norm_problem(A, b, l1_radius: float = 10.0,
                              alpha: float = 2.0, rho: float = 1.0,
                              l_f: Optional[float] = None) -> BilevelInstance:
    """Smallest-norm minimizer of the L1-ball-constrained logistic loss.

    Logistic residuals satisfy a quadratic-growth error bound (alpha = 2
    default); rho = 1 is a placeholder to override with a measured
    constant."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if l_f is None:
        l_f = l_f_min_norm(l1_radius)
    return BilevelInstance(dim=n, f1=squared_norm_term(1.0),
                           f2=NonsmoothTerm.zero(),
                           g1=logistic_smooth_term(A, b),
                           g2=NonsmoothTerm.indicator_l1_ball(l1_radius),
                           alpha=alpha, rho=rho, subgrad_diameter=l_f)


def elastic_net_problem(A, b, tau: float = 0.02,
                        alpha: float = 2.0, rho: float = 1.0,
                        l_f: Optional[float] = None,
                        norm_bound: float = 10.0) -> BilevelInstance:
    """Sparse solution of a least-squares lower level via an elastic-net
    upper objective (tau/2)||x||^2 + ||x||_1.

    The lower level is least squares, so alpha = 2 by default with rho = 1
    as an overridable placeholder."""
    A = np.asarray(A, dtype=float)
    n = A.shape[1]
    if l_f is None:
        l_f = l_f_elastic_net(tau, n, norm_bound)
    return BilevelInstance(dim=n, f1=squared_norm_term(tau),
                           f2=NonsmoothTerm.l1_norm(1.0),
                           g1=least_squares_smooth_term(A, b),
                           g2=NonsmoothTerm.zero(),
                           alpha=alpha, rho=rho, subgrad_diameter=l_f)

