"""Adaptive penalty ladders: entry index, bookkeeping, warm start, stage
certificates."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import toy_quadratic_instance, toy_sharp_instance
from sbopt.adaptive import (MAX_STAGES, LadderConfig, apb_apg, apb_apg_sc,
                            ladder_entry_index)
from sbopt.apg import ApgConfig, pb_apg
from sbopt.errors import InvalidLadder
from sbopt.model import assemble_penalized
from sbopt.penalty import implied_lower_gap


class TestLadderEntryIndex:
    def test_hand_values(self):
        # ceil(log_20(320)) = 2
        assert ladder_entry_index(1.0, 1.0, 10.0, 1.0, 1.0 / 32.0, 20.0, 10.0) == 2
        # gamma0 already past the threshold
        assert ladder_entry_index(1.0, 1.0, 10.0, 1.0, 10.0, 20.0, 10.0) == 0
        # alpha=2: gamma*(eps0=1) = 1/4 <= gamma0 = 1
        assert ladder_entry_index(2.0, 1.0, 1.0, 1.0, 1.0, 4.0, 2.0) == 0

    def test_requires_dominating_nu_for_alpha_above_one(self):
        with pytest.raises(InvalidLadder):
            ladder_entry_index(2.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0)

    def test_entry_is_tight(self):
        # smallest N with gamma0 * nu^N >= gamma*(eps0) * eta^(N(alpha-1))
        alpha, rho, l_f, eps0, gamma0, nu, eta = 2.0, 2.0, 3.0, 0.1, 0.01, 8.0, 2.0
        n = ladder_entry_index(alpha, rho, l_f, eps0, gamma0, nu, eta)
        from sbopt.penalty import gamma_star
        gs = lambda k: gamma_star(alpha, rho, l_f, eps0 / eta**k)
        assert gamma0 * nu**n >= gs(n) * (1 - 1e-12)
        if n > 0:
            assert gamma0 * nu ** (n - 1) < gs(n - 1)

    def test_bad_ladder_parameters(self):
        with pytest.raises(InvalidLadder):
            ladder_entry_index(1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 2.0)


class TestLadderBookkeeping:
    def test_gamma_and_epsilon_sequences_exact(self):
        inst = toy_quadratic_instance()
        ladder = LadderConfig(gamma0=1.0 / 32.0, nu=20.0, eta=10.0,
                              epsilon0=1e-6, stop_epsilon=1e-10)
        _, stages = apb_apg(inst, np.zeros(1), ladder,
                            ApgConfig(epsilon=1e-6, radius_bound=2.0,
                                      max_iters=5000))
        assert len(stages) == 5  # eps hits 1e-10 at stage 4
        for k, st in enumerate(stages):
            assert st.gamma == (1.0 / 32.0) * 20.0**k
            assert st.epsilon == 1e-6 / 10.0**k
        assert stages[-1].gamma == 5000.0

    def test_single_stage_ladder_equals_one_apg_call(self):
        inst = toy_quadratic_instance()
        cfg = ApgConfig(epsilon=0.5, radius_bound=2.0)
        ladder = LadderConfig(gamma0=3.0, nu=2.0, eta=2.0, epsilon0=0.5,
                              stop_epsilon=0.5)
        x_ladder, stages = apb_apg(inst, np.zeros(1), ladder, cfg)
        assert len(stages) == 1
        x_direct, _ = pb_apg(assemble_penalized(inst, 3.0), np.zeros(1), cfg)
        np.testing.assert_array_equal(x_ladder, x_direct)

    def test_radius_certified_marks_stages(self):
        ladder = LadderConfig(gamma0=1.0, nu=2.0, eta=10.0, epsilon0=1e-2,
                              stop_epsilon=1e-4)
        cfg = ApgConfig(epsilon=1.0, max_iters=500)
        sharp = toy_sharp_instance()
        flat = dataclasses.replace(
            sharp, f1=dataclasses.replace(sharp.f1, strong_convexity=0.0))
        assert assemble_penalized(sharp, 1.0).strong_convexity > 0.0
        assert assemble_penalized(flat, 1.0).strong_convexity == 0.0
        # stage 0 starts from the ||x0|| + 1 fallback; a strongly convex
        # stage carries a certified radius to the next one
        _, stages = apb_apg(sharp, np.zeros(1), ladder, cfg)
        assert [st.radius_certified for st in stages] == [False, True, True]
        # a stage with mu == 0 has no radius to carry
        _, stages = apb_apg(flat, np.zeros(1), ladder, cfg)
        assert [st.radius_certified for st in stages] == [False, False, False]
        # a radius fixed by the caller holds for every stage
        _, stages = apb_apg(flat, np.zeros(1), ladder,
                            dataclasses.replace(cfg, radius_bound=2.0))
        assert [st.radius_certified for st in stages] == [True, True, True]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidLadder):
            LadderConfig(gamma0=1.0, nu=1.0, eta=2.0, epsilon0=1.0)
        with pytest.raises(InvalidLadder):
            LadderConfig(gamma0=1.0, nu=2.0, eta=0.5, epsilon0=1.0)
        with pytest.raises(InvalidLadder):
            LadderConfig(gamma0=-1.0, nu=2.0, eta=2.0, epsilon0=1.0)
        # an infinite one failed only when a stage ran, after stage 0 for
        # nu and eta
        good = dict(gamma0=1.0, nu=2.0, eta=2.0, epsilon0=1.0,
                    stop_epsilon=1e-10)
        for key in good:
            with pytest.raises(InvalidLadder, match="must be finite"):
                LadderConfig(**{**good, key: math.inf})

    def test_unreachable_stop_epsilon_rejected(self):
        # 1e-6 / 1.01^k reaches 1e-10 only after about 926 stages
        with pytest.raises(InvalidLadder):
            LadderConfig(gamma0=1.0, nu=2.0, eta=1.01, epsilon0=1e-6,
                         stop_epsilon=1e-10)
        # the last stage the loop runs is k = MAX_STAGES - 1
        last = 2.0 ** -(MAX_STAGES - 1)
        LadderConfig(gamma0=1.0, nu=2.0, eta=2.0, epsilon0=1.0,
                     stop_epsilon=last)
        with pytest.raises(InvalidLadder):
            LadderConfig(gamma0=1.0, nu=2.0, eta=2.0, epsilon0=1.0,
                         stop_epsilon=last / 2.0)
        # eta^(MAX_STAGES - 1) past the float range: reached at once
        LadderConfig(gamma0=1.0, nu=2.0, eta=1e3, epsilon0=1.0,
                     stop_epsilon=1e-10)


class TestTheoremStageGuarantee:
    """1-D quadratic toy with theory-valid (nu, eta): every stage at or past
    the entry index meets the certified residual bound."""

    def test_stage_outputs_meet_bound(self):
        inst = toy_quadratic_instance()
        alpha, rho, l_f = 2.0, 1.0, 1.0
        gamma0, nu, eta, eps0 = 1.0, 4.0, 2.0, 0.5
        n_entry = ladder_entry_index(alpha, rho, l_f, eps0, gamma0, nu, eta)
        ladder = LadderConfig(gamma0=gamma0, nu=nu, eta=eta, epsilon0=eps0,
                              stop_epsilon=eps0 / 2.0**8)
        _, stages = apb_apg(inst, np.zeros(1), ladder,
                            ApgConfig(epsilon=eps0, radius_bound=2.0))
        assert len(stages) == 9
        for st in stages[n_entry:]:
            bound = implied_lower_gap(gamma0 * nu**st.index, alpha, rho, l_f,
                                      eps0 / eta**st.index)
            assert st.g_gap <= bound + 1e-12

    def test_stage_bound_is_infinite_below_entry(self):
        # gamma0 far below gamma*: early stages carry no certificate
        assert implied_lower_gap(1e-8, 2.0, 1.0, 1.0, 1e-6) == math.inf

    def test_stage_threshold_matches_explicit_power_form(self):
        # gamma*(eps0/eta^k) equals gamma*(eps0) * eta^(k(alpha-1))
        from sbopt.penalty import gamma_star
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = 1.0 + 2.0 * rng.random()
            rho = 10 ** rng.uniform(-1, 1)
            l_f = 10 ** rng.uniform(-1, 1)
            eps0 = 10 ** rng.uniform(-6, 0)
            eta = 1.0 + 9.0 * rng.random()
            k = int(rng.integers(0, 8))
            via_eps = gamma_star(alpha, rho, l_f, eps0 / eta**k)
            explicit = gamma_star(alpha, rho, l_f, eps0) * eta ** (k * (alpha - 1.0))
            assert via_eps == pytest.approx(explicit, rel=1e-9)

    def test_entry_index_property(self):
        # N is the non-negative ceiling of log_{eta^(1-alpha) nu}(gamma*/gamma0)
        from sbopt.penalty import gamma_star
        rng = np.random.default_rng(4)
        for _ in range(50):
            alpha = 1.0 + 1.5 * rng.random()
            rho = 10 ** rng.uniform(-1, 1)
            l_f = 10 ** rng.uniform(-1, 1)
            eps0 = 10 ** rng.uniform(-4, 0)
            eta = 1.5 + rng.random()
            nu = eta ** (alpha - 1.0) * (1.5 + rng.random())
            gamma0 = 10 ** rng.uniform(-3, 2)
            n = ladder_entry_index(alpha, rho, l_f, eps0, gamma0, nu, eta)
            base = eta ** (1.0 - alpha) * nu
            arg = gamma_star(alpha, rho, l_f, eps0) / gamma0
            expected = max(0, math.ceil(math.log(arg) / math.log(base) - 1e-9)) \
                if arg > 1.0 else 0
            assert n == expected, (alpha, rho, l_f, eps0, gamma0, nu, eta)


class TestExactPenalizationLadder:
    def test_stages_past_entry_are_feasible_to_machine_precision(self):
        inst = toy_sharp_instance()
        gamma0, nu = 0.3, 2.0
        n_entry = ladder_entry_index(1.0, 1.0, 1.0, 1.0, gamma0, nu, 2.0)
        assert n_entry == 2  # gamma_2 = 1.2 > rho*l_F = 1
        ladder = LadderConfig(gamma0=gamma0, nu=nu, eta=2.0, epsilon0=1.0,
                              stop_epsilon=1.0 / 2.0**6)
        _, stages = apb_apg(inst, np.ones(1), ladder,
                            ApgConfig(epsilon=1.0, radius_bound=2.0,
                                      max_iters=500))
        for st in stages[n_entry:]:
            assert st.g_gap == 0.0
            assert st.x[0] == 0.0


class TestWarmStartMonotonicity:
    def test_stage_gaps_non_increasing(self):
        inst = toy_quadratic_instance()
        ladder = LadderConfig(gamma0=0.5, nu=4.0, eta=2.0, epsilon0=0.25,
                              stop_epsilon=0.25 / 2.0**10)
        for runner in (apb_apg, apb_apg_sc):
            _, stages = runner(inst, np.zeros(1), ladder,
                               ApgConfig(epsilon=0.25, radius_bound=2.0))
            gaps = [st.g_gap for st in stages]
            assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestBenchmarkLadderShape:
    def test_lrp_ladder_tracks_direct_high_penalty_run(self):
        # gamma0 = 1/32 with multiplier 20 and accuracy divisor 10, stopping
        # once eps reaches 1e-10: the final gap stays within a factor 10 of
        # a direct run at gamma = 1e5
        from sbopt.bench.synth import synth_lrp
        from sbopt.reference import lower_opt_value

        inst = synth_lrp(60, 15, seed=7)
        ref = lower_opt_value(inst, tolerance=1e-12)
        inst = inst.with_lower_opt_value(ref.g_star)
        apg_cfg = ApgConfig(epsilon=1e-6, max_iters=100_000,
                            step_tolerance=1e-10, restart=True,
                            record_every=10_000)
        ladder = LadderConfig(gamma0=1.0 / 32.0, nu=20.0, eta=10.0,
                              epsilon0=1e-6, stop_epsilon=1e-10)
        x_ladder, stages = apb_apg(inst, np.zeros(15), ladder, apg_cfg)
        assert stages[-1].epsilon <= 1e-10
        x_direct, _ = pb_apg(assemble_penalized(inst, 1e5), np.zeros(15),
                             apg_cfg)
        gap_ladder = inst.lower_gap(x_ladder)
        gap_direct = inst.lower_gap(x_direct)
        assert gap_ladder <= 10.0 * gap_direct + 1e-12


class TestStageGapsFromTraceRows:
    @pytest.mark.parametrize("runner", [apb_apg, apb_apg_sc])
    @pytest.mark.parametrize("preset", ["lrp-bench", "lsrp-bench"])
    def test_stage_gap_is_the_lower_gap_of_its_output(self, preset, runner):
        # a stage reads G - G* from its trace's last row, which the engine
        # records at the stage output, summed as lower_gap sums it
        from sbopt.bench.run import (_apg_config, _build_instance,
                                     _ladder_config, build_config)
        from sbopt.reference import lower_opt_value

        cfg = build_config({"preset": preset})
        inst = _build_instance(cfg)
        inst = inst.with_lower_opt_value(lower_opt_value(inst).g_star)
        _, stages = runner(inst, np.zeros(inst.dim), _ladder_config(cfg),
                           _apg_config(cfg, cfg.epsilon0))
        assert len(stages) > 1
        for stage in stages:
            assert stage.g_gap == inst.lower_gap(stage.x)


class TestScVariant:
    def test_same_shapes_as_plain(self):
        inst = toy_quadratic_instance()
        ladder = LadderConfig(gamma0=1.0, nu=4.0, eta=2.0, epsilon0=0.5,
                              stop_epsilon=0.5 / 2.0**6)
        x_plain, st_plain = apb_apg(inst, np.zeros(1), ladder,
                                    ApgConfig(epsilon=0.5, radius_bound=2.0))
        x_sc, st_sc = apb_apg_sc(inst, np.zeros(1), ladder,
                                 ApgConfig(epsilon=0.5, radius_bound=2.0))
        assert len(st_plain) == len(st_sc)
        assert [s.gamma for s in st_plain] == [s.gamma for s in st_sc]
        gamma_last = st_plain[-1].gamma
        x_star = 1.0 / (1.0 + 2.0 * gamma_last)
        assert abs(x_plain[0] - x_star) < 1e-6
        assert abs(x_sc[0] - x_star) < 1e-6
