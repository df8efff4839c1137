"""Accelerated engines: momentum sequence, budgets, convergence on analytic
and seeded instances, scaling equivalence, determinism."""

import math

import numpy as np
import pytest

from helpers import quad_l1_objective, toy_quadratic_instance
from sbopt.apg import (ApgConfig, iteration_budget, next_theta, pb_apg,
                       pb_apg_sc, sc_budget)
from sbopt.errors import InvalidStrongConvexity, NonFiniteIterate
from sbopt.model import (NonsmoothTerm, PenalizedObjective, SmoothTerm,
                         assemble_penalized)
from sbopt.prox import compose_prox
from sbopt.reference import min_norm_least_squares


def _plain_objective(value, grad, L, mu=0.0):
    phi = SmoothTerm(value, grad, L, mu)
    psi = compose_prox(NonsmoothTerm.zero(), NonsmoothTerm.zero(), 1.0)
    return PenalizedObjective(gamma=1.0, phi=phi, psi=psi)


class TestNextTheta:
    def test_golden_ratio_start(self):
        assert next_theta(1.0) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    def test_small_theta_limit(self):
        assert next_theta(1e-8) < 1e-8

    def test_classic_rate_bound(self):
        th = 1.0
        for k in range(101):
            assert th <= 2.0 / (k + 2.0) + 1e-12
            th = next_theta(th)

    def test_recursion_hypothesis_holds_with_equality(self):
        th = 1.0
        for _ in range(200):
            nxt = next_theta(th)
            assert (1.0 - nxt) / (nxt * nxt) <= 1.0 / (th * th) + 1e-15
            assert (1.0 - nxt) / (nxt * nxt) == pytest.approx(1.0 / (th * th),
                                                              rel=1e-9)
            th = nxt

    def test_domain_check(self):
        with pytest.raises(ValueError):
            next_theta(0.0)
        with pytest.raises(ValueError):
            next_theta(1.5)


class TestIterationBudget:
    def test_hand_values(self):
        assert iteration_budget(2.0, 1.0, 0.01) == 19
        assert iteration_budget(1.0, 1.0, 1e-6) == 1414
        assert iteration_budget(0.005, 1.0, 0.01) == 0  # L = eps/(2 R^2)

    def test_defining_inequality_is_tight(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            L = 10 ** rng.uniform(-3, 4)
            R = 10 ** rng.uniform(-2, 2)
            eps = 10 ** rng.uniform(-8, 1)
            K = iteration_budget(L, R, eps)
            assert 2 * L * R * R / (K + 1) ** 2 <= eps
            if K > 0:
                assert 2 * L * R * R / K**2 > eps

    def test_budget_past_two_to_the_53_is_found_by_search(self):
        # the rounded sqrt lands about 1e138 below the budget here, which a
        # search by unit steps does not cross
        c = 2.0 * 8.988e307
        K = iteration_budget(8.988e307, 1.0, 1.0)
        assert c / (K + 1.0) ** 2 <= 1.0
        assert K == pytest.approx(math.sqrt(c), rel=1e-15)

    def test_monotone_in_epsilon(self):
        budgets = [iteration_budget(3.0, 1.0, e) for e in np.logspace(-8, 0, 17)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))


class TestScBudget:
    def test_hand_values(self):
        assert sc_budget(4.0, 1.0, 1.0, 2.5) == 0
        assert sc_budget(4.0, 1.0, 1.0, 1e-6) == 22

    def test_defining_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L = 10 ** rng.uniform(-2, 4)
            mu = L * rng.uniform(1e-4, 1.0)
            R = 10 ** rng.uniform(-1, 1)
            eps = 10 ** rng.uniform(-9, 0)
            k = sc_budget(L, mu, R, eps)
            c = 0.5 * (L + mu) * R * R
            q = 1.0 - math.sqrt(mu / L)
            assert c * q**k <= eps
            if k > 0:
                assert c * q ** (k - 1) > eps

    def test_monotone_in_epsilon(self):
        budgets = [sc_budget(9.0, 1.0, 1.0, e) for e in np.logspace(-9, 0, 19)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    def test_invalid_mu(self):
        with pytest.raises(InvalidStrongConvexity):
            sc_budget(1.0, 2.0, 1.0, 0.1)
        with pytest.raises(InvalidStrongConvexity):
            sc_budget(1.0, 0.0, 1.0, 0.1)


class TestPbApg:
    def test_quadratic_reaches_value_bound(self):
        # phi = x^2/2: value bound eps implies |x| <= sqrt(2 eps)
        obj = _plain_objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                               1.0, 1.0)
        eps = 1e-8
        x, trace = pb_apg(obj, np.ones(1), ApgConfig(epsilon=eps, radius_bound=1.0))
        assert abs(x[0]) <= math.sqrt(2 * eps)
        assert trace.terminal_reason == "budget_reached"

    def test_toy_penalized_matches_closed_form(self):
        inst = toy_quadratic_instance()
        gamma = 9.0 / (4.0 * 0.01)
        obj = assemble_penalized(inst, gamma)
        x, _ = pb_apg(obj, np.zeros(1), ApgConfig(epsilon=1e-10, radius_bound=1.0,
                                                  max_iters=200_000))
        assert abs(x[0] - 1.0 / (1.0 + 2.0 * gamma)) < 1e-6

    def test_lsrp_synthetic_g_gap(self):
        from sbopt.bench.synth import synth_lsrp
        inst = synth_lsrp(40, 10, seed=12)
        A, b = inst.g1.payload
        x_hat = min_norm_least_squares(A, b)
        g_star = inst.lower_value(x_hat)
        inst = inst.with_lower_opt_value(g_star)
        obj = assemble_penalized(inst, 1e4)
        x, trace = pb_apg(obj, np.zeros(10),
                          ApgConfig(epsilon=1e-10, max_iters=100_000,
                                    step_tolerance=1e-12, restart=True,
                                    record_every=1000))
        assert inst.lower_gap(x) < 1e-6

    def test_step_tolerance_termination(self):
        obj = _plain_objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
        x, trace = pb_apg(obj, np.ones(2),
                          ApgConfig(epsilon=1e-14, step_tolerance=1e-6))
        assert trace.terminal_reason == "step_tolerance"
        assert trace.step_norms[-1] <= 1e-6

    def test_max_iters_termination(self):
        obj = _plain_objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
        x, trace = pb_apg(obj, np.ones(2), ApgConfig(epsilon=1e-14, max_iters=7))
        assert trace.terminal_reason == "max_iters"
        assert trace.total_iterations == 7

    def test_trace_monotone_keys(self):
        obj, _, b, _, _, _ = quad_l1_objective(100)
        _, trace = pb_apg(obj, np.zeros(b.size),
                          ApgConfig(epsilon=1e-4, record_every=3))
        assert all(a < b for a, b in zip(trace.ks, trace.ks[1:]))
        assert all(a <= b for a, b in zip(trace.elapsed, trace.elapsed[1:]))
        assert trace.ks[-1] == trace.total_iterations

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_detection(self):
        # declared smoothness far below the truth makes the step explode
        obj = _plain_objective(lambda x: float(x @ x), lambda x: 2.0 * x, 0.01)
        with pytest.raises(NonFiniteIterate) as err:
            pb_apg(obj, np.ones(1), ApgConfig(epsilon=1e-20, radius_bound=1e6))
        assert err.value.trace is not None  # diagnostic trace attached

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_detection_sc(self):
        obj = _plain_objective(lambda x: float(x @ x), lambda x: 2.0 * x,
                               0.01, mu=0.001)
        with pytest.raises(NonFiniteIterate) as err:
            pb_apg_sc(obj, 0.001, np.ones(1),
                      ApgConfig(epsilon=1e-300, radius_bound=1e6))
        assert err.value.trace is not None
        assert err.value.trace.ks  # rows were recorded before the blow-up

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_raises(self, engine, bad):
        obj = _plain_objective(lambda x: float(x @ x), lambda x: 2.0 * x,
                               2.0, mu=2.0)
        x0 = np.array([1.0, bad])
        with pytest.raises(NonFiniteIterate) as err:
            if engine == "pb_apg":
                pb_apg(obj, x0, ApgConfig(epsilon=1e-6))
            else:
                pb_apg_sc(obj, 2.0, x0, ApgConfig(epsilon=1e-6))
        assert err.value.trace is None

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_nan_gradient_raises_at_first_bad_iterate(self, engine):
        calls = []

        def grad(x):
            calls.append(1)
            return np.full_like(x, np.nan) if len(calls) >= 5 else 2.0 * x

        obj = _plain_objective(lambda x: float(x @ x), grad, 2.0, mu=2.0)
        cfg = ApgConfig(epsilon=1e-12, max_iters=50, keep_iterates=True)
        with pytest.raises(NonFiniteIterate) as err:
            if engine == "pb_apg":
                pb_apg(obj, np.ones(3), cfg)
            else:
                pb_apg_sc(obj, 1.0, np.ones(3), cfg)
        trace = err.value.trace
        assert trace is not None
        # pb_apg spends one gradient per iteration and pb_apg_sc two more on
        # its warm-up, so the NaN from the fifth call makes iterate 5 or 3
        # non-finite; every iterate before it is in the trace
        last = 4 if engine == "pb_apg" else 2
        assert trace.ks == list(range(last + 1))
        assert len(trace.iterates) == last + 1
        assert all(np.all(np.isfinite(it)) for it in trace.iterates)

    def test_determinism(self):
        obj, _, b, _, _, _ = quad_l1_objective(101)
        x0 = np.zeros(b.size)
        cfg = ApgConfig(epsilon=1e-6, keep_iterates=True)
        x1, t1 = pb_apg(obj, x0, cfg)
        x2, t2 = pb_apg(obj, x0, cfg)
        np.testing.assert_array_equal(x1, x2)
        assert t1.phi_values == t2.phi_values
        for a, b_ in zip(t1.iterates, t2.iterates):
            np.testing.assert_array_equal(a, b_)

    def test_restart_converges_on_ill_conditioned_quadratic(self):
        rng = np.random.default_rng(7)
        d = np.concatenate([[1e-3], 10 ** rng.uniform(-2, 0, 8), [1.0]])
        shift = rng.normal(size=10)

        def value(x):
            return 0.5 * float((x - shift) @ (d * (x - shift)))

        def grad(x):
            return d * (x - shift)

        obj = _plain_objective(value, grad, 1.0, float(d.min()))
        cfg_plain = ApgConfig(epsilon=1e-30, max_iters=3000)
        cfg_restart = ApgConfig(epsilon=1e-30, max_iters=3000, restart=True)
        x_p, _ = pb_apg(obj, np.zeros(10), cfg_plain)
        x_r, tr_r = pb_apg(obj, np.zeros(10), cfg_restart)
        assert value(x_r) <= value(x_p) + 1e-12
        assert value(x_r) < 1e-16
        assert tr_r.restarts > 0

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_restart_evaluates_values_only_on_recorded_rows(self, engine):
        d = np.logspace(-3, 0, 10)
        calls = []

        def value(x):
            calls.append(1)
            return 0.5 * float(x @ (d * x))

        obj = _plain_objective(value, lambda x: d * x, 1.0, 1e-3)
        cfg = ApgConfig(epsilon=1e-30, max_iters=1000, restart=True,
                        record_every=100)
        if engine == "pb_apg":
            _, trace = pb_apg(obj, np.ones(10), cfg)
        else:
            _, trace = pb_apg_sc(obj, 1e-3, np.ones(10), cfg)
        assert trace.restarts > 0
        assert trace.total_iterations == 1000
        assert len(calls) == len(trace.ks) == 11


class TestPbApgSc:
    def test_exact_step_when_mu_equals_l(self):
        obj = _plain_objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(),
                               1.0, 1.0)
        x, trace = pb_apg_sc(obj, 1.0, np.full(3, 2.5), ApgConfig(epsilon=1e-12))
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_toy_matches_closed_form(self):
        inst = toy_quadratic_instance()
        gamma = 9.0 / (4.0 * 0.01)
        obj = assemble_penalized(inst, gamma)
        mu = obj.strong_convexity
        budget = sc_budget(obj.l_gamma, mu, 1.0, 1e-12)
        x, trace = pb_apg_sc(obj, mu, np.zeros(1),
                             ApgConfig(epsilon=1e-12, radius_bound=1.0))
        assert trace.total_iterations <= budget
        assert abs(x[0] - 1.0 / (1.0 + 2.0 * gamma)) < 1e-9

    def test_faster_than_plain_at_equal_epsilon(self):
        from sbopt.bench.synth import synth_lrp
        from sbopt.reference import lower_opt_value
        inst = synth_lrp(50, 20, seed=3)
        ref = lower_opt_value(inst, tolerance=1e-12)
        inst = inst.with_lower_opt_value(ref.g_star)
        obj = assemble_penalized(inst, 1e4)
        eps = 1e-6
        cfg = ApgConfig(epsilon=eps, radius_bound=2.0, record_every=10_000)
        x_a, tr_a = pb_apg(obj, np.zeros(20), cfg)
        x_s, tr_s = pb_apg_sc(obj, 1.0, np.zeros(20), cfg)
        assert tr_s.total_iterations < tr_a.total_iterations
        assert inst.lower_gap(x_s) < 1e-8
        assert inst.lower_gap(x_a) < 1e-8

    def test_mu_within_the_rounding_slack_runs_at_l(self):
        # pb_apg_sc admits mu up to L (1 + 1e-12) and runs such a mu as L,
        # where sc_budget alone rejects anything above L
        obj = assemble_penalized(toy_quadratic_instance(), 1.0)
        L = obj.l_gamma
        cfg = ApgConfig(epsilon=1e-6)
        x_over, tr_over = pb_apg_sc(obj, L * (1 + 1e-13), np.zeros(1), cfg)
        x_at, tr_at = pb_apg_sc(obj, L, np.zeros(1), cfg)
        np.testing.assert_array_equal(x_over, x_at)
        assert tr_over.total_iterations == tr_at.total_iterations

    def test_invalid_mu_rejected(self):
        obj = _plain_objective(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
        with pytest.raises(InvalidStrongConvexity):
            pb_apg_sc(obj, 2.0, np.zeros(1), ApgConfig(epsilon=1e-6))


class TestScalingEquivalence:
    """Iterates on c*Phi with step constant c*L coincide bitwise with the
    unscaled run; the common factor cancels out of the prox-gradient step."""

    def test_bit_identical_iterates(self):
        inst = toy_quadratic_instance()
        gamma = 225.0
        base = assemble_penalized(inst, gamma)
        x0 = np.array([0.8])
        cfg = ApgConfig(epsilon=1e-30, max_iters=1000, keep_iterates=True,
                        record_every=1000)
        _, ref = pb_apg(base, x0, cfg)
        for c in (1.0 / gamma, 2.0, 10.0):
            _, tr = pb_apg(base.scaled(c), x0, cfg)
            assert len(tr.iterates) == len(ref.iterates)
            for a, b in zip(ref.iterates, tr.iterates):
                np.testing.assert_array_equal(a, b)

    def test_bit_identical_with_l1_prox(self):
        obj, Q, b, w, mu, L = quad_l1_objective(123)
        x0 = np.zeros(b.size)
        cfg = ApgConfig(epsilon=1e-30, max_iters=500, keep_iterates=True,
                        record_every=500)
        _, ref = pb_apg(obj, x0, cfg)
        for c in (0.125, 2.0, 10.0):
            _, tr = pb_apg(obj.scaled(c), x0, cfg)
            for a, b_ in zip(ref.iterates, tr.iterates):
                np.testing.assert_array_equal(a, b_)

    def test_scaled_values_report_scale(self):
        obj, Q, b, w, mu, L = quad_l1_objective(124)
        x = np.ones(b.size)
        assert obj.scaled(2.0).value(x) == pytest.approx(2.0 * obj.value(x))
