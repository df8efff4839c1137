"""Trace rows and the subgradient baseline's bounds: a linked objective's
``row`` evaluates each instance term once and agrees with ``value`` bit for
bit, smooth terms bound their gradients on a ball, and the baseline refuses
an unbounded domain."""

import dataclasses
import math

import numpy as np
import pytest

from sbopt.apg import ApgConfig, pb_apg, pb_apg_sc
from sbopt.bench.run import _subgrad_baseline
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.errors import UnsupportedTerm
from sbopt.model import (NonsmoothTerm, PenalizedObjective, SmoothTerm,
                         assemble_penalized, elastic_net_problem,
                         least_squares_smooth_term, logistic_smooth_term,
                         min_norm_problem)
from sbopt.prox import compose_prox
from sbopt.subgrad import Diminishing, SubgradConfig, subgrad_solve


def _elastic_net_in_a_box(seed=0, m=15, n=8):
    rng = np.random.default_rng(seed)
    A, b = rng.normal(size=(m, n)), rng.normal(size=m)
    inst = elastic_net_problem(A, b, tau=0.1)
    # a box g2 makes all four terms nontrivial; l1 + box has an exact prox
    box = NonsmoothTerm.indicator_box(np.full(n, -5.0), np.full(n, 5.0))
    return dataclasses.replace(inst, g2=box).with_lower_opt_value(0.25)


class TestOneEvaluationPerRow:
    """Each recorded row of an accelerated run calls the value oracle of
    each of f1, f2, g1 and g2 once, and no other value oracle."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {}
        for cls in (SmoothTerm, NonsmoothTerm):
            original = cls.value

            def counted(self, x, original=original):
                counts[id(self)] = counts.get(id(self), 0) + 1
                return original(self, x)

            monkeypatch.setattr(cls, "value", counted)
        return counts

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    @pytest.mark.parametrize("restart", [False, True])
    def test_each_term_once_per_row(self, counts, engine, restart):
        inst = _elastic_net_in_a_box()
        objective = assemble_penalized(inst, 20.0)
        cfg = ApgConfig(epsilon=1e-9, max_iters=60, restart=restart,
                        record_every=7)
        x0 = np.zeros(inst.dim)
        if engine == "pb_apg":
            _, trace = pb_apg(objective, x0, cfg)
        else:
            _, trace = pb_apg_sc(objective, objective.strong_convexity, x0, cfg)
        rows = len(trace.ks)
        assert rows == 60 // 7 + 2
        terms = {id(t): name for name, t in (("f1", inst.f1), ("f2", inst.f2),
                                             ("g1", inst.g1), ("g2", inst.g2))}
        assert {terms.get(k, k): v for k, v in counts.items()} == {
            "f1": rows, "f2": rows, "g1": rows, "g2": rows}


class TestRow:
    def test_linked_row_equals_value_and_instance(self):
        inst = _elastic_net_in_a_box(seed=3)
        rng = np.random.default_rng(4)
        for objective in (assemble_penalized(inst, 7.0),
                          assemble_penalized(inst, 7.0).scaled(0.3)):
            for x in [rng.normal(size=inst.dim) for _ in range(5)]:
                phi, f, g_gap = objective.row(x)
                assert phi == objective.value(x)
                assert f == inst.upper_value(x)
                assert g_gap == inst.lower_gap(x)

    def test_plus_inf_rule_outside_the_set(self):
        inst = _elastic_net_in_a_box()
        objective = assemble_penalized(inst, 7.0)
        x = np.full(inst.dim, 6.0)
        phi, f, g_gap = objective.row(x)
        assert phi == objective.value(x) == math.inf
        assert f == inst.upper_value(x) and g_gap == math.inf

    def test_nan_where_there_is_no_link_or_no_g_star(self):
        inst = _elastic_net_in_a_box()
        x = np.linspace(-1.0, 1.0, inst.dim)
        no_g_star = dataclasses.replace(inst, lower_opt_value=None)
        phi, f, g_gap = assemble_penalized(no_g_star, 2.0).row(x)
        assert f == inst.upper_value(x) and math.isnan(g_gap)
        unlinked = PenalizedObjective(gamma=1.0, phi=inst.g1,
                                      psi=compose_prox(NonsmoothTerm.zero(),
                                                       inst.g2, 1.0))
        phi, f, g_gap = unlinked.row(x)
        assert phi == unlinked.value(x)
        assert math.isnan(f) and math.isnan(g_gap)

    def test_given_value_is_not_evaluated_again(self, monkeypatch):
        inst = _elastic_net_in_a_box()
        objective = assemble_penalized(inst, 2.0)
        monkeypatch.setattr(PenalizedObjective, "value",
                            lambda self, x: pytest.fail("value called"))
        x = np.zeros(inst.dim)
        assert objective.row(x, 12.5)[0] == 12.5
        unlinked = dataclasses.replace(objective, instance=None)
        assert unlinked.row(x, 12.5)[0] == 12.5


class TestGradientBoundOnABall:
    def test_logistic_bound_is_the_mean_row_norm(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(37, 9))
        b = rng.choice([-1.0, 1.0], size=37)
        term = logistic_smooth_term(A, b)
        mean_row_norm = float(np.mean(np.linalg.norm(A, axis=1)))
        for radius in (0.5, 10.0, 1e6):
            assert term.grad_bound(radius, 9) == mean_row_norm
        for scale in (1.0, 30.0):
            x = scale * rng.normal(size=9)
            assert np.linalg.norm(term.grad(x)) <= mean_row_norm

    @pytest.mark.parametrize("seed", range(20))
    def test_least_squares_bound_matches_the_closed_form(self, seed):
        # L R + ||grad(0)|| is (lambda_max R + ||A'b||) / m in other
        # rounding: the two agree to a few units of relative rounding
        # (at most 1.93 eps over 4000 random cases)
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(5, 60)), int(rng.integers(2, 60))
        A, b = rng.normal(size=(m, n)), rng.normal(size=m)
        term = least_squares_smooth_term(A, b)
        eps = np.finfo(float).eps
        for radius in (0.1, 3.0, 250.0, float(rng.uniform(0.0, 100.0))):
            lam = term.lipschitz_grad * m  # lambda_max(A'A)
            closed = (lam * radius + float(np.linalg.norm(A.T @ b))) / m
            bound = term.grad_bound(radius, n)
            assert abs(bound - closed) <= 4.0 * eps * closed
            x = rng.normal(size=n)
            x *= radius / np.linalg.norm(x)
            assert np.linalg.norm(term.grad(x)) <= bound

    def test_default_bound_is_l_r_plus_gradient_at_zero(self):
        term = SmoothTerm(lambda x: 0.5 * float(x @ x) + x.sum(),
                          lambda x: x + 1.0, 1.0)
        assert term.grad_bound(2.0, 4) == 2.0 + 2.0

    def test_zero_slope_bounds_all_of_r_n(self):
        # L = 0 adds 0 on any ball, where L R was 0 * inf = NaN
        assert SmoothTerm.zero().grad_bound(math.inf, 3) == 0.0
        affine = SmoothTerm(lambda x: float(x.sum()), np.ones_like, 0.0)
        assert affine.grad_bound(math.inf, 4) == 2.0


class TestSubgradientBaselineDomain:
    def _min_norm(self):
        rng = np.random.default_rng(1)
        return min_norm_problem(rng.normal(size=(20, 5)), rng.normal(size=20))

    @pytest.mark.parametrize("lo,hi", [(-math.inf, math.inf), (-1.0, math.inf)])
    def test_unbounded_box_raises(self, lo, hi):
        inst = dataclasses.replace(
            self._min_norm(),
            g2=NonsmoothTerm.indicator_box(np.full(5, lo), np.full(5, hi)))
        with pytest.raises(UnsupportedTerm):
            _subgrad_baseline(inst, 10.0, np.zeros(5))

    def test_bounded_box_builds(self):
        inst = dataclasses.replace(
            self._min_norm(),
            g2=NonsmoothTerm.indicator_box(np.full(5, -2.0), np.full(5, 2.0)))
        objective, domain, _ = _subgrad_baseline(inst, 10.0, np.zeros(5))
        assert domain.bounded and math.isfinite(objective.subgrad_lipschitz)

    def test_non_indicator_g2_stays_in_psi(self):
        inst = dataclasses.replace(self._min_norm(),
                                   g2=NonsmoothTerm.l1_norm(3.0))
        gamma, x = 10.0, np.ones(5)
        objective, domain, radius = _subgrad_baseline(inst, gamma, np.zeros(5))
        # F + gamma*G with gamma*g2 = 150; without g2 it would read 26.50
        assert objective.value(x) == pytest.approx(176.4955545873, abs=1e-9)
        assert objective.value(x) == pytest.approx(
            inst.upper_value(x) + gamma * inst.lower_value(x), rel=1e-15)
        assert objective.psi.g2 is inst.g2 and objective.psi.prox is None
        xbound = domain.term.norm_bound
        assert objective.subgrad_lipschitz == inst.f1.grad_bound(xbound, 5) \
            + gamma * (inst.g1.grad_bound(xbound, 5) + 3.0 * math.sqrt(5))
        # the first step adds gamma * 3 sign(x0) to grad phi
        x0 = np.full(5, -0.1)
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=1,
                            domain=domain, keep_iterates=True)
        _, trace = subgrad_solve(objective, x0, cfg)
        direction = x0 + gamma * (inst.g1.grad(x0) - 3.0)
        eta = radius / objective.subgrad_lipschitz
        np.testing.assert_allclose(
            trace.iterates[1], domain.project(x0 - eta * direction),
            rtol=1e-15)

    @pytest.mark.parametrize("make", [synth_lrp, synth_lsrp])
    def test_lower_bound_comes_from_the_term(self, make):
        inst = make(30, 12, 2)
        x_ref = np.full(inst.dim, 0.1)
        gamma = 4.0
        objective, domain, _ = _subgrad_baseline(inst, gamma, x_ref)
        xbound, n = domain.term.norm_bound, inst.dim
        # an indicator g2 is the domain, and psi holds the zero term instead
        assert objective.psi.g2.kind == "zero" and objective.psi.f2 is inst.f2
        l_upper = (inst.f1.grad_bound(xbound, n)
                   + (inst.f2.subgradient_bound(n) or 0.0))
        assert objective.subgrad_lipschitz == (
            l_upper + gamma * inst.g1.grad_bound(xbound, n))


class TestBoundedTraceRows:
    """A trace at TRACE_ROW_LIMIT rows keeps every other row and doubles its
    stride: rows stay a strictly increasing subset of the unthinned run's,
    the terminal row is kept, and the count stays within the limit."""

    LIMIT = 16

    def _runs(self, monkeypatch, run):
        import sbopt.apg as apg
        full = run()
        monkeypatch.setattr(apg, "TRACE_ROW_LIMIT", self.LIMIT)
        thinned = run()
        return full, thinned

    def _check(self, full, thinned):
        (x_full, tr_full), (x_thin, tr) = full, thinned
        np.testing.assert_array_equal(x_full, x_thin)
        assert len(tr_full.ks) > 4 * self.LIMIT
        assert 0 < len(tr.ks) <= self.LIMIT
        assert all(a < b for a, b in zip(tr.ks, tr.ks[1:]))
        assert tr.ks[0] == 0 and tr.ks[-1] == tr.total_iterations
        assert tr.total_iterations == tr_full.total_iterations
        assert tr.every > 1 and all(k % tr.every == 0 for k in tr.ks[:-1])
        rows = {k: i for i, k in enumerate(tr_full.ks)}
        for j, k in enumerate(tr.ks):
            i = rows[k]
            for column in ("phi_values", "f_values", "g_gaps", "step_norms",
                           "phi_best"):
                full_col, thin_col = getattr(tr_full, column), getattr(tr, column)
                if full_col:
                    assert thin_col[j] == full_col[i]
        assert len(tr.elapsed) == len(tr.ks)

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_accelerated_engines(self, monkeypatch, engine):
        inst = _elastic_net_in_a_box()
        obj = assemble_penalized(inst, 10.0)
        cfg = ApgConfig(epsilon=1e-12, max_iters=301, restart=True)

        def run():
            if engine == "pb_apg":
                return pb_apg(obj, np.zeros(8), cfg)
            return pb_apg_sc(obj, obj.strong_convexity, np.zeros(8), cfg)

        self._check(*self._runs(monkeypatch, run))

    def test_subgradient_solver(self, monkeypatch):
        inst = synth_lrp(30, 6, 2)
        inst = inst.with_lower_opt_value(0.5)
        obj, domain, radius = _subgrad_baseline(inst, 10.0, np.zeros(6))
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=203,
                            domain=domain)
        self._check(*self._runs(monkeypatch,
                                lambda: subgrad_solve(obj, np.zeros(6), cfg)))
