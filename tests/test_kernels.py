"""The logistic helpers and the L1-ball projection against frozen copies of
their earlier, plainer forms: every output must match bit for bit
(compared through ``tobytes``, so -0.0 and NaN payloads count), and so must
every iterate of the projected-subgradient loop that runs on them."""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sbopt import prox
from sbopt.bench.run import _subgrad_baseline
from sbopt.bench.synth import synth_lrp
from sbopt.model import (SmoothTerm, _logistic_grad, _logistic_parts,
                         _logistic_value, logistic_smooth_term,
                         logistic_value_grad)
from sbopt.reference import lower_opt_value
from sbopt.subgrad import Diminishing, SubgradConfig, subgrad_solve

# ---------------------------------------------------------------------------
# frozen references (do not edit: they pin the bits of the shipped kernels)


def frozen_logistic_parts(A, b, x):
    t = b * (A @ x)
    return t, np.exp(-np.abs(t))


def frozen_logistic_value(t, z) -> float:
    losses = np.maximum(-t, 0.0) + np.log1p(z)
    return float(losses.sum()) / losses.shape[0]


def frozen_logistic_grad(A, b, t, z):
    sig_neg_t = np.where(t >= 0, z / (1.0 + z), 1.0 / (1.0 + z))
    return -(A.T @ (b * sig_neg_t)) / A.shape[0]


def frozen_project_l1_ball(y, radius):
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    if float(a.sum()) <= radius:
        return y.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    k = int(np.nonzero(u * j > css - radius)[0][-1])
    theta = (css[k] - radius) / (k + 1)
    p = np.maximum(a - theta, 0.0)
    for _ in range(5):
        excess = float(p.sum()) - radius
        if excess <= 0.0:
            break
        support = p > 0.0
        p[support] = np.maximum(p[support] - excess / support.sum(), 0.0)
    return np.sign(y) * p


def frozen_logistic_term(A, b) -> SmoothTerm:
    def value_grad(x):
        t, z = frozen_logistic_parts(A, b, x)
        return frozen_logistic_value(t, z), frozen_logistic_grad(A, b, t, z)

    shipped = logistic_smooth_term(A, b)
    return SmoothTerm(lambda x: value_grad(x)[0], lambda x: value_grad(x)[1],
                      shipped.lipschitz_grad, value_grad_oracle=value_grad,
                      grad_bound_oracle=shipped.grad_bound_oracle)


# ---------------------------------------------------------------------------


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _logistic_cases():
    rng = np.random.default_rng(20)
    for _ in range(400):
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
        b = rng.choice([-1.0, 1.0], size=m)
        # margins from 1e-3 up to far beyond +-40, where exp(-|t|) underflows
        x = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        yield A, b, x
    A = np.array([[1.0, -1.0], [0.0, 0.0], [2.0, 2.0], [-1.0, 1.0]])
    b = np.array([1.0, -1.0, -1.0, 1.0])
    for x in ([0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [3.0, 3.0], [1.0, 1.0],
              [40.0, 0.0], [-40.0, 0.0], [41.0, 0.0], [800.0, -800.0]):
        yield A, b, np.array(x)
    yield np.array([[2.5]]), np.array([-1.0]), np.array([-0.0])


class TestLogisticHelpers:
    def test_parts_value_and_grad(self):
        for A, b, x in _logistic_cases():
            t, z = _logistic_parts(A, b, x)
            t0, z0 = frozen_logistic_parts(A, b, x)
            assert _same(t, t0) and _same(z, z0)
            assert (_logistic_value(t, z).hex()
                    == frozen_logistic_value(t0, z0).hex())
            assert _same(_logistic_grad(A, b, t, z),
                         frozen_logistic_grad(A, b, t0, z0))

    def test_public_function_and_term_oracles(self):
        for A, b, x in _logistic_cases():
            t0, z0 = frozen_logistic_parts(A, b, x)
            v0 = frozen_logistic_value(t0, z0)
            g0 = frozen_logistic_grad(A, b, t0, z0)
            v, g = logistic_value_grad(A, b, x)
            assert v.hex() == v0.hex() and _same(g, g0)
            term = logistic_smooth_term(A, b)
            v, g = term.value_grad(x)
            assert v.hex() == v0.hex() and _same(g, g0)
            assert term.value(x).hex() == v0.hex()
            assert _same(term.grad(x), g0)

    def test_helpers_leave_their_inputs_alone(self):
        A, b, x = next(_logistic_cases())
        t, z = _logistic_parts(A, b, x)
        t_bytes, z_bytes = t.tobytes(), z.tobytes()
        _logistic_value(t, z)
        _logistic_grad(A, b, t, z)
        assert t.tobytes() == t_bytes and z.tobytes() == z_bytes


def _projection_cases():
    rng = np.random.default_rng(21)
    for _ in range(3000):
        n = int(rng.integers(1, 60))
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.3:
            # exact ties in magnitude, with both signs
            y = rng.choice([-1.0, 1.0], size=n) * rng.choice(
                [0.5, 1.0, 2.0], size=n)
        if rng.random() < 0.3:
            y[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
        l1 = float(np.abs(y).sum())
        if l1 == 0.0:
            yield y, 1.0
            continue
        yield y, l1 * rng.uniform(0.01, 1.2)
        yield y, l1                               # on the sphere
        yield y, math.nextafter(l1, 0.0)          # 1 ulp outside the ball
        yield y, math.nextafter(l1, math.inf)     # 1 ulp inside the ball
    yield np.array([3.0]), 1.0
    yield np.array([-0.0]), 1.0
    yield np.array([-3.0, 3.0, 3.0, -3.0]), 6.0
    yield np.array([0.1] * 10), 0.3


class TestProjectL1Ball:
    def test_bit_identical_to_the_frozen_form(self):
        for y, r in _projection_cases():
            assert _same(prox.project_l1_ball(y, r),
                         frozen_project_l1_ball(y, r)), (y, r)

    def test_output_is_a_new_array_and_input_untouched(self):
        y = np.array([3.0, -1.0, 0.5])
        before = y.tobytes()
        for r in (10.0, 1.0):
            p = prox.project_l1_ball(y, r)
            assert p is not y and y.tobytes() == before


class TestSubgradientLoopIterates:
    """A small logistic L1-ball baseline run on the shipped kernels takes the
    same iterates, bit for bit, as the frozen kernels inside a plain
    projected-subgradient loop."""

    @pytest.fixture(scope="class")
    def setup(self):
        instance = synth_lrp(60, 15, 3)
        ref = lower_opt_value(instance)
        instance = instance.with_lower_opt_value(ref.g_star)
        return instance, ref.x

    def test_every_iterate(self, setup):
        instance, x_ref = setup
        gamma, iters = 50.0, 400
        objective, domain, radius = _subgrad_baseline(instance, gamma, x_ref)
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=iters,
                            domain=domain, record_every=13, keep_iterates=True)
        x0 = domain.project(np.zeros(instance.dim))
        _, trace = subgrad_solve(objective, x0, cfg)

        A, b = instance.g1.payload
        frozen = frozen_logistic_term(A, b)
        l_gamma = objective.subgrad_lipschitz
        r_ball = domain.term.radius
        x = x0.copy()
        want = [x.copy()]
        for k in range(iters):
            # f1 = (1/2)||x||^2, f2 = 0 and g2 is the domain here
            _, s_g = frozen.value_grad(x)
            sub = 1.0 * (1.0 * x + gamma * s_g)
            eta = radius / (l_gamma * math.sqrt(k + 1.0))
            x = frozen_project_l1_ball(x - eta * sub, r_ball)
            want.append(x.copy())
        assert len(trace.iterates) == len(want)
        for k, (got, ref) in enumerate(zip(trace.iterates, want)):
            assert _same(got, ref), k
