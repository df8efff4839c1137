"""Problem representation: composite terms, bilevel instances, penalized assembly.

An instance carries two composite objectives, upper F = f1 + f2 and lower
G = g1 + g2, where f1, g1 are smooth with Lipschitz gradients and f2, g2 are
prox-friendly nonsmooth terms.  ``assemble_penalized`` folds them into the
single-level objective  phi_gamma + psi_gamma  with
phi_gamma = f1 + gamma*g1  and  psi_gamma = f2 + gamma*g2.

Every oracle is a function of its input vector alone.  A gradient, prox or
projection given an ``out`` array, which belongs to the caller, writes its
result there and changes nothing else.  Instances and objectives are
immutable after construction, hold no buffers, and are safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import prox as _prox
from .errors import (DimensionMismatch, InvalidErrorBound, MissingLowerOpt,
                     UnsupportedTerm)


def is_count(value, least: int = 0) -> bool:
    """Whether ``value`` is an int or NumPy integer, not a bool, >= least."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class SmoothTerm:
    """A convex function with value/gradient oracles and known constants.

    ``lipschitz_grad`` bounds the gradient's Lipschitz constant;
    ``strong_convexity`` is 0 for merely convex terms.  ``tag``/``payload``
    carry the loss family and its data for the shipped losses, so reference
    computations can pick closed-form routes; ``zero()`` is tagged "zero".
    ``assemble_penalized``'s phi of a squared norm and least squares is
    tagged "penalized_least_squares", with (tau, gamma, A, b), so the
    accelerated engine can take its forward step in affine form.
    """

    value_oracle: Callable[[np.ndarray], float]
    gradient_oracle: Callable[[np.ndarray], np.ndarray]
    lipschitz_grad: float
    strong_convexity: float = 0.0
    tag: Optional[str] = None
    payload: Optional[tuple] = None
    value_grad_oracle: Optional[Callable[[np.ndarray], tuple]] = None
    grad_bound_oracle: Optional[Callable[[float, int], float]] = None

    def value(self, x: np.ndarray) -> float:
        return float(self.value_oracle(x))

    def grad(self, x: np.ndarray, out=None) -> np.ndarray:
        """The gradient at x; with ``out``, written into it and returned.
        Only an oracle marked by ``_fills_out`` is passed out; any other,
        such as a wrapper put in its place, runs on x alone and its result
        is copied in."""
        oracle = self.gradient_oracle
        if out is None:
            return oracle(x)
        if getattr(oracle, "fills_out", False):
            return oracle(x, out)
        return _prox.copy_into(oracle(x), out)

    def value_grad(self, x: np.ndarray):
        """Value and gradient at one point, from one fused oracle call when
        the term has one, else from the two separate oracles."""
        if self.value_grad_oracle is None:
            return self.value(x), self.grad(x)
        value, grad = self.value_grad_oracle(x)
        return float(value), grad

    def grad_bound(self, radius: float, dim: int) -> float:
        """A bound on ||grad(x)|| over the ball ||x|| <= radius of R^dim: the
        term's ``grad_bound_oracle`` if it has one, else L*radius + ||grad(0)||."""
        if self.grad_bound_oracle is not None:
            return self.grad_bound_oracle(radius, dim)
        return (self.lipschitz_grad * radius
                + float(np.linalg.norm(self.grad(np.zeros(dim)))))

    @staticmethod
    def zero() -> "SmoothTerm":
        return SmoothTerm(lambda x: 0.0, np.zeros_like, 0.0, 0.0, tag="zero")


_KINDS = ("zero", "l1", "l1_ball", "box", "custom")


@dataclass(frozen=True)
class NonsmoothTerm:
    """A prox-friendly or Lipschitz nonsmooth convex term, tagged by kind.

    Supported kinds: ``zero``, ``l1`` (weighted L1 norm), ``l1_ball``
    (indicator of an L1 ball), ``box`` (indicator of a box), and ``custom``
    (user oracles); another kind raises UnsupportedTerm.  The methods below
    are the one place that says what each kind means.  ``lipschitz`` is only
    meaningful for terms used in subgradient mode and must be a bound over
    the working domain.  A custom term may add ``value_subgrad_oracle``,
    returning value and subgradient from one call, for solvers that need
    both at the same point.
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

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedTerm(f"unknown term kind {self.kind!r} "
                                  f"(known: {', '.join(_KINDS)})")

    @staticmethod
    def zero() -> "NonsmoothTerm":
        return NonsmoothTerm(kind="zero", lipschitz=0.0)

    @staticmethod
    def l1_norm(weight: float = 1.0) -> "NonsmoothTerm":
        if not weight > 0:
            raise ValueError("l1 weight must be positive")
        return NonsmoothTerm(kind="l1", weight=weight)

    @staticmethod
    def indicator_l1_ball(radius: float) -> "NonsmoothTerm":
        if not radius > 0:
            raise ValueError("l1 ball radius must be positive")
        return NonsmoothTerm(kind="l1_ball", radius=radius)

    @staticmethod
    def indicator_box(lo, hi) -> "NonsmoothTerm":
        lo = _frozen_copy(lo)
        hi = _frozen_copy(hi)
        if lo.shape != hi.shape or not np.all(lo <= hi):
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
        """Extended-real evaluation; indicators return +inf outside their set
        (an L1 ball with a relative 1e-12 slack, a box exactly)."""
        if self.kind == "l1":
            return self.weight * float(np.abs(x).sum())
        if self.kind == "l1_ball":
            inside = float(np.abs(x).sum()) <= self.radius * (1 + 1e-12)
            return 0.0 if inside else math.inf
        if self.kind == "box":
            return 0.0 if np.all(x >= self.lo) and np.all(x <= self.hi) else math.inf
        return float(self.value_oracle(x)) if self.kind == "custom" else 0.0

    def prox(self, c: float):
        """Exact prox of c*term as a function of (y, t, out=None), or None if
        it has none (see ``ProxSpec``).  A custom prox oracle takes (y, t)
        alone; its result is copied into out."""
        if self.kind == "zero":
            return lambda y, t, out=None: _prox.copy_into(y, out)
        if self.kind == "l1":
            w = c * self.weight
            return lambda y, t, out=None: _prox.prox_l1(y, t * w, out)
        if self.kind == "l1_ball":
            r = self.radius
            return lambda y, t, out=None: _prox.project_l1_ball(y, r, out)
        if self.kind == "box":
            lo, hi = self.lo, self.hi
            return lambda y, t, out=None: _prox.project_box(y, lo, hi, out)
        oracle = self.prox_oracle
        return None if oracle is None else (
            lambda y, t, out=None: _prox.copy_into(oracle(y, t * c), out))

    def subgradient(self, x: np.ndarray) -> np.ndarray:
        """weight*sign(x) for the L1 norm, or the custom oracle's; indicators
        raise UnsupportedTerm, as constraint sets belong in a domain."""
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "l1":
            return self.weight * np.sign(x)
        if self.kind == "custom" and self.subgrad_oracle is not None:
            return self.subgrad_oracle(x)
        raise UnsupportedTerm(f"no subgradient oracle for term kind '{self.kind}'")

    def subgradient_bound(self, dim: int) -> Optional[float]:
        """Norm bound of ``subgradient`` in R^dim, or None for the kinds that
        add no subgradient (zero, and indicators, which belong in a domain)."""
        if self.kind == "l1":
            return self.weight * math.sqrt(dim)
        if self.kind == "custom" and self.lipschitz is None:
            raise UnsupportedTerm("a custom term needs lipschitz for a subgradient bound")
        return self.lipschitz if self.kind == "custom" else None

    @property
    def norm_bound(self) -> Optional[float]:
        """Euclidean norm bound of an indicator's set (inf for zero), else None."""
        if self.kind == "l1_ball":
            return self.radius
        if self.kind == "box":
            return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))
        return math.inf if self.kind == "zero" else None

    @property
    def l1_weight(self) -> Optional[float]:
        """w when the term is w*||x||_1, 0 for the zero term, else None."""
        if self.kind == "l1":
            return self.weight
        return 0.0 if self.kind == "zero" else None

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
        if not is_count(self.dim, 1):
            raise ValueError("dim must be a positive integer")
        if not self.alpha >= 1.0:
            raise InvalidErrorBound(f"alpha must be >= 1, got {self.alpha}")
        if not self.rho > 0.0:
            raise InvalidErrorBound(f"rho must be positive, got {self.rho}")
        if not self.subgrad_diameter > 0.0:
            raise ValueError("subgrad_diameter must be positive")

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
    nonsmooth mode.  ``instance``, when set, is the instance it penalizes.
    """

    gamma: float
    phi: SmoothTerm
    psi: _prox.ProxSpec
    scale: float = 1.0
    subgrad_lipschitz: Optional[float] = None
    instance: Optional[BilevelInstance] = None

    @property
    def l_gamma(self) -> float:
        return self.scale * self.phi.lipschitz_grad

    @property
    def strong_convexity(self) -> float:
        return self.scale * self.phi.strong_convexity

    def value(self, x: np.ndarray) -> float:
        return self.scale * (self.phi.value(x) + self.psi.evaluate(x))

    def row(self, x: np.ndarray, value: Optional[float] = None) -> tuple:
        """(Phi, F, G - G*) at x from one evaluation of each instance term,
        summed as ``value`` sums them; a caller holding Phi passes it in.
        F and G - G* are NaN without a link, G - G* also before G* is set."""
        inst = self.instance
        if inst is None:
            return (self.value(x) if value is None else value), math.nan, math.nan
        f1, f2 = inst.f1.value(x), inst.f2.value(x)
        g1, g2 = inst.g1.value(x), inst.g2.value(x)
        if value is None:
            psi = _prox.penalized_sum(f2, g2, self.gamma)
            value = self.scale * ((f1 + self.gamma * g1) + psi)
        g_star = inst.lower_opt_value
        return value, f1 + f2, math.nan if g_star is None else (g1 + g2) - g_star

    # Solver-facing steps.  Both are computed from the unscaled parts so that
    # the scale factor cancels exactly: grad(c*phi)/(c*L) == grad(phi)/L and
    # prox of (c*psi)/(c*L) == prox of psi/L.
    # With ``out`` (a solver run's buffer) each writes its result there.
    def grad_step(self, y: np.ndarray, out=None) -> np.ndarray:
        """Gradient step component  grad(phi_gamma)(y) / L_gamma."""
        phi = self.phi
        g = phi.grad(y, np.empty(np.shape(y)) if out is None else out)
        g /= phi.lipschitz_grad
        return g

    def prox_step(self, v: np.ndarray, out=None) -> np.ndarray:
        """Scaled prox  prox_{psi_gamma / L_gamma}(v)."""
        return self.psi.prox(v, 1.0 / self.phi.lipschitz_grad, out)

    def scaled(self, c: float) -> "PenalizedObjective":
        """A view of c times this objective (step constant becomes c*L_gamma)."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        sub = None if self.subgrad_lipschitz is None else c * self.subgrad_lipschitz
        return dataclasses.replace(self, scale=c * self.scale, subgrad_lipschitz=sub)


def _fills_out(oracle):
    """Mark a gradient oracle that takes (x, out=None) and, given out, writes
    the gradient there."""
    oracle.fills_out = True
    return oracle


def _combine_smooth(f1: SmoothTerm, g1: SmoothTerm, gamma: float) -> SmoothTerm:
    # The terms are frozen, so their oracles are looked up once, here, and
    # so is SmoothTerm.grad's choice for out: g1's oracle itself, or g1.grad,
    # which copies into out
    upper_grad, oracle = f1.gradient_oracle, g1.gradient_oracle
    lower_into = oracle if getattr(oracle, "fills_out", False) else g1.grad

    def value(x):
        return f1.value(x) + gamma * g1.value(x)

    @_fills_out
    def grad(x, out=None):
        # f1.grad(x) + gamma * g1.grad(x), each rounding as in that form
        upper = upper_grad(x)
        g = lower_into(x, np.empty(np.shape(x)) if out is None else out)
        g *= gamma
        g += upper
        return g

    # (tau/2)||x||^2 + (gamma/2m)||A x - b||^2, for _affine_step
    quadratic = (f1.tag == "squared_norm" and g1.tag == "least_squares"
                 and f1.payload is not None and g1.payload is not None)
    return SmoothTerm(value, grad,
                      f1.lipschitz_grad + gamma * g1.lipschitz_grad,
                      f1.strong_convexity + gamma * g1.strong_convexity,
                      tag="penalized_least_squares" if quadratic else None,
                      payload=(*f1.payload, gamma, *g1.payload)
                      if quadratic else None)


def _affine_step(phi: SmoothTerm):
    """(M, c) with y - grad(y)/L = M y + c up to rounding, L =
    phi.lipschitz_grad, when phi is ``_combine_smooth``'s (tau/2)||x||^2 +
    (gamma/2m)||A x - b||^2 with A m x n, n <= 2m: M = (1 - tau/L) I -
    (gamma/(m L)) A'A and c = (gamma/(m L)) A'b.  None for any other phi.
    The width rule is measured (``BENCH_18.json`` "route_cutoff"): up to
    n = 2m the product by M is faster than the gradient's two by A, or
    within 8 %, at m = 30 to 800; past it, slower from m = 200 on."""
    if phi.tag != "penalized_least_squares" or not phi.lipschitz_grad > 0:
        return None
    tau, gamma, A, b = phi.payload
    m, n = A.shape
    if n > 2 * m:
        return None
    L = phi.lipschitz_grad
    s = gamma / (m * L)
    M = _gram(A) * -s
    M.flat[::n + 1] += 1.0 - tau / L
    return M, (A.T @ b) * s


# A'A by id(A), for as long as A lives: a penalty ladder and the F* solves
# run many gamma over one least-squares term
_GRAMS = {}


def _gram(A: np.ndarray) -> np.ndarray:
    G = _GRAMS.get(id(A))
    if G is None:
        # by matrix-vector products: matrix products page in 0.3 MB of BLAS
        G = np.empty((A.shape[1],) * 2)
        for row, col in zip(G, A.T):
            np.matmul(A.T, col, out=row)
        G.flags.writeable = False
        if not A.flags.writeable:  # as a term's private copy of A
            _GRAMS[id(A)] = G
            weakref.finalize(A, _GRAMS.pop, id(A), None)
    return G


def assemble_penalized(instance: BilevelInstance, gamma: float) -> PenalizedObjective:
    """Build phi_gamma = f1 + gamma*g1 and psi_gamma = f2 + gamma*g2.

    Raises NonComposableProx when the (f2, g2) pair has no supported exact
    combined prox.  The objective is linked to ``instance``, so traces report
    F, and lower-level residuals once the instance's G* is available.
    """
    if not 0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    phi = _combine_smooth(instance.f1, instance.g1, gamma)
    psi = _prox.compose_prox(instance.f2, instance.g2, gamma)
    return PenalizedObjective(gamma=gamma, phi=phi, psi=psi, instance=instance)


# ---------------------------------------------------------------------------
# shipped smooth losses and their constants

GRAM_TOL = 1e-12
GRAM_MAX_SWEEPS = 10_000


def lambda_max_gram(A) -> float:
    """Largest eigenvalue of A'A by power iteration with a deterministic start.

    Returns 0 for a zero matrix.  Convergence is declared when the Rayleigh
    quotient changes by at most GRAM_TOL*max(1, lambda) between sweeps.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    n = A.shape[1]
    v = np.ones(n) + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    # the same bits as ``A.T @ (A @ v)``, ``np.linalg.norm(w)`` and ``v @ w``
    # with less call overhead; dot and matmul agree where both sides of A
    # exceed 1, as in ``_loss_term``
    mv = np.ndarray.dot if min(A.shape) > 1 else np.matmul
    At = A.T
    lam = 0.0
    for _ in range(GRAM_MAX_SWEEPS):
        w = mv(At, mv(A, v))
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            return 0.0
        lam_new = float(v.dot(w))
        v = w / nw
        if abs(lam_new - lam) <= GRAM_TOL * max(1.0, abs(lam_new)):
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
# terms are all built from these.  ``mv(M, v, out)`` is the matrix-vector
# product: np.matmul, or ndarray.dot where _loss_term finds it gives the
# same bits.

def _logistic_parts(A, b, x, mv=np.matmul):
    """Margins t = b * (A x) and z = exp(-|t|), one new array each."""
    t = mv(A, x)
    t *= b
    z = np.abs(t)
    return t, np.exp(np.negative(z, z), z)


def _logistic_value(t, z) -> float:
    # softplus(-t) = log1p(exp(-|t|)) - min(t, 0), which cannot overflow;
    # the mean is np.mean's own pairwise sum-then-divide, without its wrappers
    losses = np.log1p(z)
    losses -= np.minimum(t, 0.0)
    return float(np.add.reduce(losses)) / losses.shape[0]


def _logistic_grad(A, b, t, z, out=None, mv=np.matmul):
    # sigma(-t) = z / (1 + z) for t >= 0 and 1 / (1 + z) below, as one division
    s = np.maximum(z, t < 0)  # z <= 1, so this picks 1 where t < 0
    s /= z + 1.0
    s *= b
    g = mv(A.T, s, out)
    g /= -float(A.shape[0])  # as the int divides, with less scalar handling
    return g


def _least_squares_parts(A, b, x, mv=np.matmul):
    r = mv(A, x)
    r -= b
    return (r,)


def _least_squares_value(r) -> float:
    return float(r @ r) / (2.0 * r.shape[0])


def _least_squares_grad(A, b, r, out=None, mv=np.matmul):
    g = mv(A.T, r, out)
    g /= float(A.shape[0])  # as the int divides, with less scalar handling
    return g


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
    # When both sides of A exceed 1, ndarray.dot calls the same BLAS gemv as
    # matmul, at less cost per call; with a side of 1 it takes scalar or
    # dot-product routes, whose rounding and signed zeros can differ.
    mv = np.ndarray.dot if min(A.shape) > 1 else np.matmul

    def checked(x):
        if type(x) is not np.ndarray:
            x = np.asarray(x, dtype=float)
        if x.shape != shape:
            raise DimensionMismatch(f"x is {x.shape}, expected {shape}")
        return x

    def parts_at(x):
        return parts(A, b, checked(x), mv)

    @_fills_out
    def grad_at(x, out=None):
        # checked(x) on the solvers' path only when it can change x or raise
        if type(x) is not np.ndarray or x.shape != shape:
            x = checked(x)
        return grad(A, b, *parts(A, b, x, mv), out, mv)

    def value_grad(x):
        p = parts_at(x)
        return value(*p), grad(A, b, *p, None, mv)

    return SmoothTerm(lambda x: value(*parts_at(x)), grad_at,
                      lipschitz(A), 0.0, tag=tag, payload=(A, b),
                      value_grad_oracle=value_grad)


def logistic_smooth_term(A, b) -> SmoothTerm:
    term = _loss_term(_LOGISTIC, A, b, lipschitz_logistic, "logistic")
    # ||grad|| <= mean_i ||a_i|| on all of R^n: labels are +-1 and 0 < sigma < 1
    return dataclasses.replace(term, grad_bound_oracle=lambda radius, dim: float(
        np.mean(np.linalg.norm(term.payload[0], axis=1))))


def least_squares_smooth_term(A, b) -> SmoothTerm:
    return _loss_term(_LEAST_SQUARES, A, b, lipschitz_least_squares,
                      "least_squares")


def squared_norm_term(weight: float = 1.0) -> SmoothTerm:
    """(weight/2) ||x||^2, which is weight-strongly convex and weight-smooth."""
    @_fills_out
    def grad(x, out=None):
        return np.multiply(weight, x, out)

    return SmoothTerm(lambda x: 0.5 * weight * float(x @ x), grad, weight,
                      weight, tag="squared_norm", payload=(weight,))


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

