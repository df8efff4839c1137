"""The loss helpers, the soft threshold, the L1-ball projection, the Gram
power iteration and the accelerated engine against frozen copies of their
earlier, plainer and allocating forms: every output must match bit for bit
(compared through ``tobytes``, so -0.0 and NaN payloads count), and so must
every iterate of the projected-subgradient and accelerated loops that run on
them."""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sbopt import prox
from sbopt.apg import (ApgConfig, iteration_budget, next_theta, pb_apg,
                       pb_apg_sc, sc_budget)
from sbopt.bench.run import _subgrad_baseline
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.model import (SmoothTerm, _affine_step, _least_squares_grad,
                         _least_squares_parts, _logistic_grad,
                         _logistic_parts, _logistic_value,
                         assemble_penalized, lambda_max_gram,
                         least_squares_smooth_term, logistic_smooth_term)
from sbopt.reference import lower_opt_value
from sbopt.subgrad import (Diminishing, Domain, SubgradConfig,
                           assemble_subgradient, subgrad_solve)

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


def frozen_least_squares_parts(A, b, x):
    return (A @ x - b,)


def frozen_least_squares_grad(A, b, r):
    return (A.T @ r) / A.shape[0]


def frozen_prox_l1(y, lam):
    return np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)


def frozen_accelerate(forward, prox_step, x, cap, beta, restart,
                      step_tolerance, keep):
    """The allocating accelerated loop on the forward step ``forward(y)``
    (y - grad_step(y), or M y + c): returns the last iterate, the
    iterations run, the restarts and (with ``keep``) every iterate."""
    x = x_prev = x.copy()
    th_prev = th = 1.0
    iterates = [x.copy()] if keep else None
    restarts = iters = 0
    for k in range(cap):
        coeff = beta if beta is not None else th * (1.0 / th_prev - 1.0)
        y = x + coeff * (x - x_prev)
        x_next = prox_step(forward(y))
        d = x_next - x
        step_norm = math.sqrt(d.dot(d))
        if beta is None:
            th_prev, th = th, next_theta(th)
        x_prev, x = x, x_next
        if keep:
            iterates.append(x.copy())
        if restart and (y - x).dot(d) > 0.0:
            th_prev, th = 1.0, 1.0
            x_prev = x
            restarts += 1
        iters = k + 1
        if step_tolerance > 0.0 and step_norm <= step_tolerance:
            break
    return x, iters, restarts, iterates


def frozen_steps(instance, gamma):
    """grad_step, the engine's forward step and prox_step of
    assemble_penalized(instance, gamma) for a shipped instance (f1 =
    (w/2)||x||^2; g1 least squares or logistic; an L1 f2 with a zero g2, or
    a zero f2 with an L1-ball g2), built on the frozen kernels.  The forward
    step is y - grad_step(y), or M y + c for least squares with n <= 2m,
    with A'A formed column by column."""
    A, b = instance.g1.payload
    (w,) = instance.f1.payload
    L = instance.f1.lipschitz_grad + gamma * instance.g1.lipschitz_grad
    if instance.g1.tag == "least_squares":
        parts, grad = frozen_least_squares_parts, frozen_least_squares_grad
    else:
        parts, grad = frozen_logistic_parts, frozen_logistic_grad

    def grad_step(y):
        return (w * y + gamma * grad(A, b, *parts(A, b, y))) / L

    m, n = A.shape
    if instance.g1.tag == "least_squares" and n <= 2 * m:
        s = gamma / (m * L)
        gram = np.array([A.T @ A[:, j] for j in range(n)])
        M = (1.0 - w / L) * np.eye(n) - s * gram
        c = s * (A.T @ b)

        def forward(y):
            return M @ y + c
    else:
        def forward(y):
            return y - grad_step(y)

    if instance.f2.kind == "l1":
        lam = (1.0 / L) * (1.0 * instance.f2.weight)
        return grad_step, forward, lambda v: frozen_prox_l1(v, lam)
    r = instance.g2.radius
    return grad_step, forward, lambda v: frozen_project_l1_ball(v, r)


def frozen_run(instance, gamma, engine, config):
    """The engine's run on the frozen steps and the allocating loop."""
    objective = assemble_penalized(instance, gamma)
    grad_step, forward, prox_step = frozen_steps(instance, gamma)
    x0 = np.zeros(instance.dim)
    radius = float(np.linalg.norm(x0)) + 1.0
    L = objective.l_gamma
    if engine == "pb_apg":
        budget, beta = iteration_budget(L, radius, config.epsilon), None
    else:
        mu = objective.strong_convexity
        budget = sc_budget(L, mu, radius, config.epsilon)
        beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
        y_tilde = x0 - grad_step(x0)
        x0 = prox_step(y_tilde - grad_step(y_tilde))
    cap = min(budget, config.max_iters)
    return frozen_accelerate(forward, prox_step, x0, cap, beta,
                             config.restart, config.step_tolerance,
                             config.keep_iterates)


def frozen_lambda_max_gram(A) -> float:
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    n = A.shape[1]
    v = np.ones(n) + np.arange(n) / max(n, 1)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(10_000):
        w = A.T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= 1e-12 * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    return lam


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

    def test_term_oracles(self):
        for A, b, x in _logistic_cases():
            t0, z0 = frozen_logistic_parts(A, b, x)
            v0 = frozen_logistic_value(t0, z0)
            g0 = frozen_logistic_grad(A, b, t0, z0)
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

    def _run_against_the_frozen_loop(self, instance, objective, domain,
                                     radius, gamma, iters=400):
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

    def test_every_iterate(self, setup):
        instance, x_ref = setup
        gamma = 50.0
        objective, domain, radius = _subgrad_baseline(instance, gamma, x_ref)
        self._run_against_the_frozen_loop(instance, objective, domain,
                                          radius, gamma)

    def test_every_iterate_through_the_public_assembler(self, setup):
        # one call from the instance, with g2's own ball as the domain
        instance, _ = setup
        gamma, domain = 50.0, Domain(instance.g2)
        objective = assemble_subgradient(instance, gamma, domain)
        self._run_against_the_frozen_loop(instance, objective, domain, 2.0,
                                          gamma)

    def test_every_iterate_with_an_l1_upper_term(self):
        # least squares under an elastic-net upper level: f2 = ||x||_1 adds
        # its subgradient, and the domain is the baseline's own L1 ball
        instance = synth_lsrp(30, 45, 2)
        x_ref = lower_opt_value(instance).x
        instance = instance.with_lower_opt_value(0.0)
        gamma, iters = 50.0, 400
        objective, domain, radius = _subgrad_baseline(instance, gamma, x_ref)
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=iters,
                            domain=domain, record_every=13, keep_iterates=True)
        x0 = domain.project(np.zeros(instance.dim))
        _, trace = subgrad_solve(objective, x0, cfg)

        A, b = instance.g1.payload
        tau = instance.f1.payload[0]
        l_gamma = objective.subgrad_lipschitz
        r_ball = domain.term.radius
        x = x0.copy()
        want = [x.copy()]
        for k in range(iters):
            s_g = frozen_least_squares_grad(
                A, b, *frozen_least_squares_parts(A, b, x))
            sub = 1.0 * ((gamma * s_g + tau * x) + np.sign(x))
            eta = radius / (l_gamma * math.sqrt(k + 1.0))
            x = frozen_project_l1_ball(x - eta * sub, r_ball)
            want.append(x.copy())
        assert len(trace.iterates) == len(want)
        for k, (got, ref) in enumerate(zip(trace.iterates, want)):
            assert _same(got, ref), k


def _least_squares_cases():
    rng = np.random.default_rng(22)
    for A, _, x in _logistic_cases():
        b = rng.normal(size=A.shape[0]) * (rng.random(A.shape[0]) < 0.7)
        b[rng.random(A.shape[0]) < 0.1] = -0.0
        yield A, b, x


class TestLeastSquaresHelpers:
    def test_parts_and_grad(self):
        for A, b, x in _least_squares_cases():
            (r,) = _least_squares_parts(A, b, x)
            (r0,) = frozen_least_squares_parts(A, b, x)
            assert _same(r, r0)
            g0 = frozen_least_squares_grad(A, b, r0)
            assert _same(_least_squares_grad(A, b, r), g0)

    def test_term_oracles(self):
        for A, b, x in _least_squares_cases():
            (r0,) = frozen_least_squares_parts(A, b, x)
            v0 = float(r0 @ r0) / (2.0 * r0.shape[0])
            g0 = frozen_least_squares_grad(A, b, r0)
            term = least_squares_smooth_term(A, b)
            v, g = term.value_grad(x)
            assert v.hex() == v0.hex() and _same(g, g0)
            assert term.value(x).hex() == v0.hex()
            assert _same(term.grad(x), g0)

    def test_terms_match_matmul_on_every_shape(self):
        # a term's ndarray.dot stands in for matmul only when both sides of
        # A exceed 1; signed zeros and zero rows are where they could differ
        # (zero entries of A times a negative residual or weight give -0.0
        # through ndarray.dot's scalar route, +0.0 through gemv)
        rng = np.random.default_rng(23)
        for m, n in [(1, 1), (1, 5), (5, 1), (2, 2), (7, 3), (40, 90)]:
            A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
            A[rng.random((m, n)) < 0.2] = -0.0
            A[0] = 0.0
            A[:, 0] = 0.0
            b = rng.choice([-1.0, 1.0], size=m) * (1.0 + rng.random(m))
            for x in (rng.normal(size=n), np.full(n, -0.0), np.zeros(n)):
                for make, frozen in (
                        (least_squares_smooth_term,
                         lambda A, b, x: frozen_least_squares_grad(
                             A, b, *frozen_least_squares_parts(A, b, x))),
                        (logistic_smooth_term,
                         lambda A, b, x: frozen_logistic_grad(
                             A, b, *frozen_logistic_parts(A, b, x)))):
                    rhs = b if make is least_squares_smooth_term else np.sign(b)
                    term = make(A, rhs)
                    want = frozen(A, rhs, x)
                    assert _same(term.grad(x), want)
                    assert _same(term.value_grad(x)[1], want)


class TestProxL1:
    def test_bit_identical_to_the_frozen_form(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            n = int(rng.integers(1, 60))
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            y[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            lam = float(rng.choice([0.0, 1e-3, 0.5, 2.0]) * np.abs(y).max())
            want = frozen_prox_l1(y, lam)
            assert _same(prox.prox_l1(y, lam), want)
            out = np.full(n, np.nan)
            assert prox.prox_l1(y, lam, out) is out and _same(out, want)
        # the sign of zero: -0.0 in, +0.0 out, as sign(-0.0) * 0.0 gives
        assert _same(prox.prox_l1(np.array([-0.0, -0.1]), 0.5), [0.0, -0.0])


ENGINE_INSTANCES = {
    "lsrp3": lambda: synth_lsrp(100, 190, 3),
    "lsrp4": lambda: synth_lsrp(100, 190, 4),
    "lsrp3_wide": lambda: synth_lsrp(40, 190, 3),
    "lrp7": lambda: synth_lrp(200, 50, 7),
}
# the instances whose engine runs take the affine forward step M y + c
AFFINE = ("lsrp3", "lsrp4")


class TestAcceleratedEngineIterates:
    """The buffered engine takes the frozen allocating loop's iterates, bit
    for bit, on the frozen kernels: in the affine form M y + c on
    least-squares instances with n <= 2m, in the gradient form on the
    logistic and the wide (n > 2m) least-squares instance."""

    @pytest.fixture(scope="class")
    def instances(self):
        return {name: make() for name, make in ENGINE_INSTANCES.items()}

    @pytest.mark.parametrize("name", sorted(ENGINE_INSTANCES))
    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    @pytest.mark.parametrize("restart", [False, True])
    def test_every_iterate(self, instances, name, engine, restart):
        instance = instances[name]
        gamma = 1e5
        cfg = ApgConfig(epsilon=1e-9, max_iters=3000, step_tolerance=1e-10,
                        restart=restart, record_every=100,
                        keep_iterates=True)
        objective = assemble_penalized(instance, gamma)
        assert (_affine_step(objective.phi) is not None) == (name in AFFINE)
        x0 = np.zeros(instance.dim)
        if engine == "pb_apg":
            x, trace = pb_apg(objective, x0, cfg)
        else:
            x, trace = pb_apg_sc(objective, objective.strong_convexity, x0,
                                 cfg)
        x_f, iters, restarts, iterates = frozen_run(instance, gamma, engine,
                                                    cfg)
        assert trace.total_iterations == iters
        assert trace.restarts == restarts
        assert len(trace.iterates) == len(iterates) == iters + 1
        for k, (got, want) in enumerate(zip(trace.iterates, iterates)):
            assert _same(got, want), k
        assert _same(x, x_f)

    def test_restarts_are_exercised(self, instances):
        # the comparison above runs through restarts, not only around them
        cfg = ApgConfig(epsilon=1e-9, max_iters=3000, restart=True)
        objective = assemble_penalized(instances["lsrp3"], 1e5)
        _, trace = pb_apg_sc(objective, objective.strong_convexity,
                             np.zeros(190), cfg)
        assert trace.restarts > 0

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_full_length_runs(self, seed, engine):
        # the benchmark's pb_apg / pb_apg_sc runs, to their step stop; the
        # counts are compared with the frozen loop in this process because
        # the BLAS kernels, and so the counts, depend on the CPU
        instance = ENGINE_INSTANCES[f"lsrp{seed}"]()
        cfg = ApgConfig(epsilon=1e-9, max_iters=400_000, step_tolerance=1e-10,
                        restart=True, record_every=100)
        objective = assemble_penalized(instance, 1e5)
        x0 = np.zeros(instance.dim)
        if engine == "pb_apg":
            x, trace = pb_apg(objective, x0, cfg)
        else:
            x, trace = pb_apg_sc(objective, objective.strong_convexity, x0,
                                 cfg)
        x_f, iters, restarts, _ = frozen_run(instance, 1e5, engine, cfg)
        assert trace.terminal_reason == "step_tolerance"
        assert (trace.total_iterations, trace.restarts) == (iters, restarts)
        assert _same(x, x_f)


def _gram_cases():
    rng = np.random.default_rng(40)
    for shape in [(1, 1), (1, 7), (7, 1), (1, 190), (190, 1), (2, 2),
                  (100, 190), (200, 50), (450, 100)]:
        yield rng.normal(size=shape) * 12.0
    for _ in range(60):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        yield rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
    yield (rng.random((450, 100)) < 0.1).astype(float)
    yield np.zeros((5, 3))
    yield np.zeros((1, 4))
    yield np.zeros((0, 3))
    yield np.zeros((3, 0))
    yield np.array([[-0.0, 0.0], [0.0, -0.0]])
    yield np.array([[1e-200, 0.0], [0.0, 1e-200]])
    yield np.array([[3.0, 4.0]])


class TestLambdaMaxGram:
    def test_bit_identical_to_the_frozen_form(self):
        for A in _gram_cases():
            got, want = lambda_max_gram(A), frozen_lambda_max_gram(A)
            assert type(got) is float
            assert got.hex() == want.hex(), A.shape

    def test_list_input_and_input_untouched(self):
        A = np.arange(12.0).reshape(3, 4)
        before = A.tobytes()
        assert (lambda_max_gram(A.tolist()).hex()
                == frozen_lambda_max_gram(A).hex())
        lambda_max_gram(A)
        assert A.tobytes() == before
