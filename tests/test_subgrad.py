"""Projected subgradient solver: oracles, feasibility, best-iterate bounds."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import SeparableLipschitz, single_level
from sbopt.apg import ApgConfig, pb_apg_sc
from sbopt.bench.run import _build_instance, _subgrad_baseline, build_config
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.errors import (InfeasibleStart, InvalidStrongConvexity,
                          UnsupportedTerm)
from sbopt.model import (NonsmoothTerm, assemble_penalized,
                         elastic_net_problem, max_affine, squared_norm_term)
from sbopt.reference import lower_opt_value
from sbopt.subgrad import (Diminishing, Domain, StronglyConvex, SubgradConfig,
                           assemble_subgradient, subgrad_solve,
                           subgradient_oracle)


class TestSubgradientOracle:
    def test_l1_sign_convention(self):
        t = NonsmoothTerm.l1_norm(1.0)
        np.testing.assert_array_equal(
            subgradient_oracle(t, np.array([2.0, 0.0, -1.0])),
            np.array([1.0, 0.0, -1.0]))

    def test_smooth_part_steps_along_its_gradient(self):
        # phi = (1/2)||x||^2 with a zero psi: the first step is x0 - eta_0 x0,
        # and its gradient bound on the ball of radius 3 is 3
        domain = Domain.l1_ball(3.0)
        obj = assemble_subgradient(single_level(
            NonsmoothTerm.zero(), 2, f1=squared_norm_term(1.0)), 1.0, domain)
        assert obj.subgrad_lipschitz == 3.0
        x0 = np.array([0.3, -1.2])
        cfg = SubgradConfig(schedule=Diminishing(2.0), max_iters=1,
                            domain=domain, keep_iterates=True)
        _, trace = subgrad_solve(obj, x0, cfg)
        np.testing.assert_array_equal(trace.iterates[1], x0 - (2.0 / 3.0) * x0)

    def test_indicator_rejected(self):
        with pytest.raises(UnsupportedTerm):
            subgradient_oracle(NonsmoothTerm.indicator_l1_ball(1.0), np.zeros(2))

    def test_validity_on_random_directions(self):
        rng = np.random.default_rng(0)
        terms = [NonsmoothTerm.l1_norm(0.7),
                 max_affine(rng.normal(size=(5, 3)), rng.normal(size=5))]
        for term in terms:
            value = (lambda v: term.value(v)) if term.kind != "custom" \
                else term.value_oracle
            for _ in range(10):
                x = rng.normal(size=3)
                g = subgradient_oracle(term, x)
                for _ in range(10):
                    y = rng.normal(size=3)
                    assert term.value(y) >= term.value(x) + g @ (y - x) - 1e-10


class TestDomain:
    def test_projections_and_membership(self):
        ball = Domain.l1_ball(1.0)
        assert ball.contains(np.array([0.4, -0.5]))
        assert not ball.contains(np.array([1.2, 0.0]))
        box = Domain.box(np.array([-1.0]), np.array([1.0]))
        np.testing.assert_array_equal(box.project(np.array([3.0])), [1.0])
        allsp = Domain.all_space()
        assert allsp.contains(np.array([1e9]))
        assert not allsp.bounded

    def test_box_does_not_alias_caller_arrays(self):
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        box = Domain.box(lo, hi)
        hi[:] = lo
        inside = np.array([0.5, -0.5])
        assert box.contains(inside)
        np.testing.assert_array_equal(box.project(inside), inside)


class TestAbsoluteValueExample:
    """Phi = |x| on [-1, 1] from x0 = 1 with the diminishing schedule."""

    def _objective(self):
        f2 = NonsmoothTerm.custom(lambda x: float(np.sum(np.abs(x))),
                                  subgrad_oracle=np.sign, lipschitz=1.0)
        return assemble_subgradient(single_level(f2, 1), 1.0,
                                    Domain.box(np.array([-1.0]), np.array([1.0])))

    def test_best_value_decreases_and_meets_bound(self):
        obj = self._objective()
        domain = Domain.box(np.array([-1.0]), np.array([1.0]))
        radius = 2.0
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=3000,
                            domain=domain)
        x_best, trace = subgrad_solve(obj, np.ones(1), cfg)
        l_gamma = obj.subgrad_lipschitz
        bests = trace.phi_best
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        for i, k in enumerate(trace.ks):
            if k < 10:
                continue  # the sqrt(K) form kicks in past the first steps
            bound = (l_gamma / 4.0) * (radius**2 + 2 * math.log(2.0)) / math.sqrt(k + 2.0)
            assert bests[i] <= bound + 1e-12
        assert trace.phi_best[-1] < 0.05

    def test_start_at_minimizer_stays_optimal(self):
        obj = self._objective()
        cfg = SubgradConfig(schedule=Diminishing(1.0), max_iters=50,
                            domain=Domain.box(np.array([-1.0]), np.array([1.0])))
        x_best, trace = subgrad_solve(obj, np.zeros(1), cfg)
        assert x_best[0] == 0.0
        assert all(b == 0.0 for b in trace.phi_best)


class TestStronglyConvexExample:
    """Phi = |x| + x^2/2 on [-2, 2], mu = 1: gap <= 2 l^2/(mu (K+1))."""

    def _objective(self):
        f2 = NonsmoothTerm.custom(
            lambda x: float(np.sum(np.abs(x)) + 0.5 * x @ x),
            subgrad_oracle=lambda x: np.sign(x) + x,
            lipschitz=3.0)
        return assemble_subgradient(single_level(f2, 1), 1.0,
                                    Domain.box(np.array([-2.0]), np.array([2.0])))

    def test_bound_at_checkpoints(self):
        obj = self._objective()
        domain = Domain.box(np.array([-2.0]), np.array([2.0]))
        l_gamma = obj.subgrad_lipschitz
        for K in (10, 100, 1000):
            cfg = SubgradConfig(schedule=StronglyConvex(1.0), max_iters=K,
                                domain=domain)
            _, trace = subgrad_solve(obj, np.ones(1), cfg)
            assert trace.phi_best[-1] <= 2 * l_gamma**2 / (1.0 * (K + 1)) + 1e-12

    def test_all_space_rejected(self):
        obj = self._objective()
        cfg = SubgradConfig(schedule=StronglyConvex(1.0), max_iters=10,
                            domain=Domain.all_space())
        with pytest.raises(InvalidStrongConvexity):
            subgrad_solve(obj, np.zeros(1), cfg)


class TestFeasibilityAndErrors:
    def test_iterates_stay_feasible(self):
        inst = SeparableLipschitz(11)
        obj = inst.objective()
        cfg = SubgradConfig(schedule=Diminishing(4.0), max_iters=500,
                            domain=inst.domain, keep_iterates=True)
        _, trace = subgrad_solve(obj, inst.domain.project(inst.x0), cfg)
        for x in trace.iterates:
            assert inst.domain.contains(x)

    def test_infeasible_start_rejected(self):
        inst = SeparableLipschitz(12)
        obj = inst.objective()
        cfg = SubgradConfig(schedule=Diminishing(4.0), max_iters=10,
                            domain=inst.domain)
        with pytest.raises(InfeasibleStart):
            subgrad_solve(obj, np.full(inst.n, 5.0), cfg)

    def test_smooth_part_meets_the_diminishing_bound(self):
        # the step adds grad phi to the f2 subgradient; without it the run
        # keeps x0 = 0, as sign(0) = 0, and reports Phi(0) as best
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 4))
        inst = elastic_net_problem(A, A @ np.ones(4), tau=0.5)
        gamma, ball, radius = 10.0, 10.0, 5.0
        penalized = assemble_penalized(inst, gamma)
        # ||grad phi + xi_f2|| on the L1 ball, which lies in the 2-norm ball
        l_gamma = (inst.f1.grad_bound(ball, 4) + inst.f2.subgradient_bound(4)
                   + gamma * inst.g1.grad_bound(ball, 4))
        obj = dataclasses.replace(penalized, subgrad_lipschitz=l_gamma)
        x_star, _ = pb_apg_sc(penalized, penalized.strong_convexity,
                              np.zeros(4), ApgConfig(epsilon=1e-13))
        # the minimizer lies inside the domain, within radius of x0 = 0
        assert np.abs(x_star).sum() < ball
        assert np.linalg.norm(x_star) < radius
        phi_star = penalized.value(x_star)
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=2000,
                            domain=Domain.l1_ball(ball), record_every=100)
        _, trace = subgrad_solve(obj, np.zeros(4), cfg)
        bests = trace.phi_best
        assert all(a >= b for a, b in zip(bests, bests[1:]))
        for i, k in enumerate(trace.ks):
            if k < 10:
                continue
            bound = (l_gamma / 4.0) * (radius**2 + 2 * math.log(2.0)) \
                / math.sqrt(k + 2.0)
            assert bests[i] - phi_star <= bound + 1e-12
        # the bound is loose here (23 at K = 2000, above Phi(0) - Phi* =
        # 17.7), so the run that stays at 0 would meet it; this one gets
        # within 1e-8
        assert bests[-1] - phi_star <= 1e-7
        # a single-level objective and its scaled view still run
        inst = SeparableLipschitz(13)
        cfg = SubgradConfig(schedule=Diminishing(4.0), max_iters=10,
                            domain=inst.domain)
        for obj in (inst.objective(), inst.objective().scaled(2.0)):
            subgrad_solve(obj, inst.domain.project(inst.x0), cfg)

    def test_missing_lipschitz_rejected(self):
        f2 = NonsmoothTerm.custom(lambda x: 0.0, subgrad_oracle=np.zeros_like)
        with pytest.raises(UnsupportedTerm):
            assemble_subgradient(single_level(f2, 1), 1.0, Domain.all_space())


class TestAssembleSubgradient:
    """One call builds the subgradient-mode objective of an instance."""

    # subgrad_lipschitz of the harness baseline at gamma = 1e5, as
    # float.hex, from when it built its objective by hand
    FROZEN_BOUNDS = {"lrp-bench": "0x1.02c9094a61a03p+16",
                     "lsrp-bench": "0x1.321947bc9e0edp+30"}

    @pytest.mark.parametrize("preset", sorted(FROZEN_BOUNDS))
    def test_bound_keeps_the_baselines_bits(self, preset):
        cfg = build_config({"preset": preset})
        inst = _build_instance(cfg)
        x_ref = lower_opt_value(inst).x
        baseline, domain, _ = _subgrad_baseline(inst, cfg.gamma, x_ref)
        objective = assemble_subgradient(inst, cfg.gamma, domain)
        for obj in (objective, baseline):
            assert obj.subgrad_lipschitz.hex() == self.FROZEN_BOUNDS[preset]
            assert obj.instance is inst and obj.psi.prox is None

    def test_objective_is_the_whole_penalized_one(self):
        # phi = f1 + gamma g1 and psi = f2 + gamma g2, not f2 + gamma g2 alone
        inst = synth_lsrp(20, 12, 1)
        gamma, x = 3.0, np.full(inst.dim, 0.05)
        objective = assemble_subgradient(inst, gamma, Domain.l1_ball(5.0))
        assert objective.value(x) == pytest.approx(
            inst.upper_value(x) + gamma * inst.lower_value(x), rel=1e-15)
        assert objective.psi.f2 is inst.f2 and objective.psi.g2 is inst.g2

    def test_indicator_that_is_not_the_domain_raises(self):
        inst = synth_lrp(30, 6, 2)  # g2 is an L1 ball
        assemble_subgradient(inst, 1.0, Domain(inst.g2))
        for domain in (Domain.l1_ball(5.0), Domain.all_space()):
            with pytest.raises(UnsupportedTerm, match="make it the domain"):
                assemble_subgradient(inst, 1.0, domain)
        ball = dataclasses.replace(inst, f2=inst.g2, g2=NonsmoothTerm.zero())
        with pytest.raises(UnsupportedTerm, match="make it the domain"):
            assemble_subgradient(ball, 1.0, Domain.l1_ball(5.0))

    def test_zero_smooth_parts_run_on_all_of_r_n(self):
        f2 = NonsmoothTerm.custom(lambda x: float(np.sum(np.abs(x))),
                                  subgrad_oracle=np.sign, lipschitz=2.0)
        objective = assemble_subgradient(single_level(f2, 3), 1.0,
                                         Domain.all_space())
        assert objective.subgrad_lipschitz == 2.0
        cfg = SubgradConfig(schedule=Diminishing(1.0), max_iters=5,
                            domain=Domain.all_space())
        x_best, _ = subgrad_solve(objective, np.ones(3), cfg)
        assert np.abs(x_best).sum() < 3.0


class TestSeededSuiteBounds:
    def test_diminishing_bound_on_seeded_instances(self):
        for seed in range(200, 205):
            inst = SeparableLipschitz(seed)
            obj = inst.objective()
            x_star = inst.minimizer()
            phi_star = inst.value(x_star)
            x0 = inst.domain.project(inst.x0)
            radius = float(np.linalg.norm(x0 - x_star)) + 1e-9
            K = 2000
            cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=K,
                                domain=inst.domain, record_every=100)
            _, trace = subgrad_solve(obj, x0, cfg)
            l_gamma = obj.subgrad_lipschitz
            for i, k in enumerate(trace.ks):
                if k < 10:
                    continue
                bound = (l_gamma / 4.0) * (radius**2 + 2 * math.log(2.0)) \
                    / math.sqrt(k + 2.0)
                assert trace.phi_best[i] - phi_star <= bound + 1e-9

    def test_strongly_convex_bound_on_seeded_instances(self):
        for seed in range(300, 305):
            inst = SeparableLipschitz(seed, strongly_convex=True)
            obj = inst.objective()
            x_star = inst.minimizer()
            phi_star = inst.value(x_star)
            x0 = inst.domain.project(inst.x0)
            K = 2000
            cfg = SubgradConfig(schedule=StronglyConvex(inst.mu), max_iters=K,
                                domain=inst.domain, record_every=100)
            _, trace = subgrad_solve(obj, x0, cfg)
            l_gamma = obj.subgrad_lipschitz
            for i, k in enumerate(trace.ks):
                if k == 0:
                    continue
                bound = 2 * l_gamma**2 / (inst.mu * (k + 1.0))
                assert trace.phi_best[i] - phi_star <= bound + 1e-9

    def test_best_iterate_matches_reported_value(self):
        inst = SeparableLipschitz(400)
        obj = inst.objective()
        x0 = inst.domain.project(inst.x0)
        cfg = SubgradConfig(schedule=Diminishing(5.0), max_iters=300,
                            domain=inst.domain)
        x_best, trace = subgrad_solve(obj, x0, cfg)
        assert obj.value(x_best) == trace.phi_best[-1]


class TestTimeBudget:
    def test_time_budget_stops_early(self):
        inst = SeparableLipschitz(500)
        obj = inst.objective()
        cfg = SubgradConfig(schedule=Diminishing(5.0), max_iters=10_000_000,
                            domain=inst.domain, max_seconds=0.1,
                            record_every=1000)
        _, trace = subgrad_solve(obj, inst.domain.project(inst.x0), cfg)
        assert trace.terminal_reason == "time_budget"
        assert trace.total_iterations < 10_000_000
