"""F* bracket on the least-squares route: weak duality below, a feasible
point above, and the stop at the first bracket narrow enough.  Off that
route F* keeps the relaxation rule bit for bit."""

import numpy as np
import pytest

from helpers import eigh_calls, toy_quadratic_instance
from sbopt import reference
from sbopt.bench.synth import synth_instance, synth_lrp, synth_lsrp
from sbopt.model import elastic_net_problem, min_norm_problem
from sbopt.prox import prox_l1
from sbopt.reference import (FEASIBLE_RESIDUAL, _dual_bracket, _upper_end,
                             lower_opt_value, min_norm_least_squares,
                             upper_opt_value)

# F* of lsrp-bench (seed 3) from a restarted dual ascent run to a width
# of 1e-12
LSRP_BENCH_F_STAR = 2.5970352755


def _lsrp(m, n, seed, **kwargs):
    inst = synth_instance("lsrp", m, n, seed, **kwargs)
    return inst.with_lower_opt_value(lower_opt_value(inst).g_star)


def _upper(inst, relaxation=1e-9):
    return upper_opt_value(inst, inst.lower_opt_value, relaxation=relaxation)


def _route(inst):
    """A, c = A x_hat, tau and w of an elastic-net instance."""
    A, b = inst.g1.payload
    return A, A @ min_norm_least_squares(A, b), inst.f1.payload[0], 1.0


def _width(inst, relaxation=1e-9):
    return inst.subgrad_diameter * (inst.rho * relaxation) ** (1 / inst.alpha)


class TestWeakDuality:
    @pytest.mark.parametrize("seed", range(4))
    def test_dual_value_is_below_every_feasible_value(self, seed):
        rng = np.random.default_rng(seed)
        inst = _lsrp(12, 30, seed, tau=float(rng.uniform(0.01, 1.0)))
        A, c, _, _ = _route(inst)
        bracket = _dual_bracket(inst)
        for _ in range(20):
            # random x and gamma make lambda = gamma (c - A x)/m arbitrary
            x = rng.normal(size=30) * rng.uniform(0.01, 3.0)
            gamma = 10.0 ** rng.uniform(-2, 6)
            lower, upper = bracket(gamma, x)
            for _ in range(10):
                z = rng.normal(size=30)
                feasible = z + min_norm_least_squares(A, c - A @ z)
                assert np.linalg.norm(A @ feasible - c) <= 1e-9
                assert lower <= inst.upper_value(feasible) + 1e-12
            if upper is not None:
                assert lower <= upper

    def test_dual_value_is_the_lagrangian_minimum(self):
        # D(lambda) = min_x F(x) + lambda'(c - A x), attained at
        # soft(A'lambda, w)/tau; other points give larger Lagrangian values
        rng = np.random.default_rng(7)
        inst = _lsrp(10, 25, 7, tau=0.3)
        A, c, tau, w = _route(inst)
        m = A.shape[0]
        for gamma in (1.0, 1e3):
            x = rng.normal(size=25)
            lam = (gamma / m) * (c - A @ x)
            lower, _ = _dual_bracket(inst)(gamma, x)

            def lagrangian(z):
                return inst.upper_value(z) + lam @ (c - A @ z)

            x_lam = prox_l1(A.T @ lam, w) / tau
            assert lagrangian(x_lam) == pytest.approx(lower, rel=1e-12, abs=1e-12)
            for _ in range(20):
                z = x_lam + 0.1 * rng.normal(size=25)
                assert lagrangian(z) >= lower - 1e-12


class TestLsrpBenchBracket:
    def test_seed_3_stops_after_gamma_1e3(self):
        # a correction on the support of x_gamma closes the bracket at the
        # first gamma; the dense min-norm correction alone needed 1e4
        inst = _lsrp(100, 190, 3, tau=0.02)
        up = _upper(inst)
        assert up.f_star_method == "dual_bracket"
        assert up.method == "penalty_escalation(gamma=1000)"
        assert (up.f_star_solves, up.f_star_iterations) == (1, 3031)
        assert up.f_star == up.f_star_lower
        assert up.f_star_lower <= LSRP_BENCH_F_STAR <= up.f_star_upper
        assert up.f_star_upper - up.f_star_lower <= _width(inst)
        assert up.relaxation_epsilon == 1e-9
        assert isinstance(up.f_star, float)
        # the relaxation is not met yet: the bracket stopped the escalation
        assert up.achieved_lower_gap > 1e-9

    def test_seed_4_stops_after_gamma_1e3(self):
        inst = _lsrp(100, 190, 4, tau=0.02)
        up = _upper(inst)
        assert up.f_star_method == "dual_bracket"
        assert up.method == "penalty_escalation(gamma=1000)"
        assert (up.f_star_solves, up.f_star_iterations) == (1, 7116)
        assert up.f_star_lower <= up.f_star_upper

    # (f_star_solves, f_star_iterations) per generator seed, frozen: how the
    # min-norm corrections round must not change where the escalation stops.
    # The solves take the affine forward step (``model._affine_step``) with
    # L from the spectrum of A (``model.lipschitz_least_squares``)
    ESCALATIONS = {
        3: (1, 3031), 4: (1, 7116), 5: (1, 3566), 6: (2, 9699),
        7: (1, 3265), 8: (1, 4515), 9: (2, 6197), 10: (1, 4795),
        11: (2, 6870), 12: (1, 4058), 13: (2, 5055), 14: (1, 3926),
        15: (1, 3042), 16: (1, 3181), 17: (1, 3347), 18: (1, 6011),
        19: (1, 3956), 20: (1, 3189), 21: (2, 5016), 22: (1, 2789),
    }

    @pytest.mark.parametrize("seed", range(3, 23))
    def test_support_corrections_never_cost_a_solve(self, seed, monkeypatch):
        # record each gamma's bracket next to the upper end of the min-norm
        # correction alone: the escalation only ever stops sooner, and no
        # upper end falls below its lower end.  A correction on supp(x)
        # alone would never lower the upper end: it is infeasible, or its F
        # is not below the reported upper end
        inst = _lsrp(100, 190, seed, tau=0.02)
        A, c, _, _ = _route(inst)
        rows = []

        def spy(instance):
            bracket = _dual_bracket(instance)

            def recorded(gamma, x):
                lower, upper = bracket(gamma, x)
                x_f = x + min_norm_least_squares(A, c - A @ x)
                support = np.flatnonzero(x)
                x_s = x.copy()
                x_s[support] += min_norm_least_squares(A[:, support], c - A @ x)
                rows.append((lower, upper, inst.upper_value(x_f),
                             _upper_end(instance, A, c, [x_s])))
                return lower, upper
            return recorded

        monkeypatch.setattr(reference, "_dual_bracket", spy)
        up = _upper(inst)
        assert len(rows) == up.f_star_solves
        assert (up.f_star_solves, up.f_star_iterations) == (
            self.ESCALATIONS[seed])
        for lower, upper, min_norm_upper, supp_upper in rows:
            assert lower <= upper <= min_norm_upper
            assert supp_upper is None or supp_upper >= upper
        # at every gamma before the stop the min-norm bracket was too wide
        # as well, so it would have taken at least as many solves
        assert all(mn - lo > _width(inst) for lo, _, mn, _ in rows[:-1])
        assert up.f_star_lower <= up.f_star_upper

    def test_relaxation_rule_stops_when_the_width_is_out_of_reach(self):
        # a tiny rho shrinks the width tolerance, not the relaxation: the
        # relaxation rule stops the escalation, and the bracket stays on
        # record with its lower end as F*
        import dataclasses
        inst = dataclasses.replace(_lsrp(20, 40, 2, tau=0.5), rho=1e-20)
        up = _upper(inst)
        assert up.f_star_method == "relaxation"
        assert up.achieved_lower_gap <= 1e-9
        assert up.f_star == up.f_star_lower <= up.f_star_upper
        assert up.f_star_upper - up.f_star_lower > _width(inst)


class TestUpperEnd:
    def test_a_point_off_the_solution_set_is_rejected(self):
        # residual 1e-6, far above rounding level: the point's F is no
        # bound on F*, whatever its value
        inst = _lsrp(12, 30, 0, tau=0.3)
        A, c, _, _ = _route(inst)
        rng = np.random.default_rng(0)
        z = rng.normal(size=30)
        feasible = z + min_norm_least_squares(A, c - A @ z)
        step = min_norm_least_squares(A, rng.normal(size=12))
        off = feasible + 1e-6 * step / np.linalg.norm(A @ step)
        assert np.linalg.norm(A @ off - c) == pytest.approx(1e-6, rel=1e-6)
        assert np.linalg.norm(A @ feasible - c) <= (
            FEASIBLE_RESIDUAL * (1.0 + np.linalg.norm(c)))
        assert _upper_end(inst, A, c, [off]) is None
        assert _upper_end(inst, A, c, [off, feasible]) == (
            inst.upper_value(feasible))


class TestOneDecomposition:
    """G* and the F* bracket share one eigh of A's smaller Gram matrix; only
    a wide bracket's top-m correction, on a copy of m columns, takes its
    own."""

    def test_lsrp_bench_run(self, monkeypatch, tmp_path):
        # the term's L comes from G*'s decomposition too, with no power
        # iteration, so the run takes the same two eigh calls as before
        from sbopt import model
        from sbopt.bench.run import build_config, run_experiment
        shapes = eigh_calls(monkeypatch)
        monkeypatch.setattr(model, "lambda_max_gram",
                            lambda A: pytest.fail("power iteration"))
        report = run_experiment(build_config({"preset": "lsrp-bench",
                                              "out_dir": str(tmp_path)}))
        assert report.upper.f_star_solves == 1
        assert shapes == [(100, 100)] * 2

    def test_tall_elastic_net(self, monkeypatch):
        # m >= n: the top m columns are every column, so the bracket has
        # only the dense correction
        rng = np.random.default_rng(0)
        inst = elastic_net_problem(rng.normal(size=(60, 12)),
                                   rng.normal(size=60))
        shapes = eigh_calls(monkeypatch)
        up = upper_opt_value(inst, lower_opt_value(inst).g_star,
                             relaxation=1e-9)
        assert up.f_star_method == "dual_bracket"
        assert up.f_star_lower <= up.f_star_upper
        assert shapes == [(12, 12)]


class TestMinNormProblem:
    @pytest.mark.parametrize("seed", range(3))
    def test_f_star_is_half_the_min_norm_squared(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(20, 40))
        b = rng.normal(size=20)
        inst = min_norm_problem(A, b)
        inst = inst.with_lower_opt_value(lower_opt_value(inst).g_star)
        up = _upper(inst)
        x_hat = min_norm_least_squares(A, b)
        assert up.f_star_method == "dual_bracket"
        width = up.f_star_upper - up.f_star_lower
        assert 0.0 <= width <= _width(inst)
        assert abs(up.f_star - 0.5 * float(x_hat @ x_hat)) <= width + 1e-15


def _ball_instance():
    rng = np.random.default_rng(11)
    return min_norm_problem(rng.normal(size=(20, 5)), rng.normal(size=20),
                            l1_radius=0.5)


class TestOffRouteBitIdentity:
    """F* off the bracket route, as float.hex: the toy and logistic values
    from before the affine forward step, the two least-squares values (on
    that step's route) from after it, and tau_0's from after L came from
    the spectrum of A."""

    @pytest.mark.parametrize("make, relaxation, expected", [
        (toy_quadratic_instance, 1e-10, "0x1.fffeb0754c5ecp-2"),
        (lambda: synth_lrp(40, 10, 6), 1e-9, "0x1.9000000000000p+5"),
        (lambda: synth_lsrp(20, 30, 1, tau=0.0), 1e-9,
         "0x1.08efe3ee55f61p+2"),
        (_ball_instance, 1e-9, "0x1.fa748447ddafbp-5"),
    ], ids=["toy", "synth_lrp", "tau_0", "l1_ball"])
    def test_f_star_unchanged(self, make, relaxation, expected):
        inst = make()
        assert _dual_bracket(inst) is None
        g_star = lower_opt_value(inst).g_star
        up = upper_opt_value(inst, g_star, relaxation=relaxation)
        assert up.f_star.hex() == expected
        assert up.f_star_method == "relaxation"
        assert up.f_star_lower is None and up.f_star_upper is None
        assert up.achieved_lower_gap <= relaxation
        assert up.f_star_solves >= 1


@pytest.mark.parametrize("problem", ["lsrp-synth", "lrp-synth"])
def test_report_json_records_how_f_star_was_found(tmp_path, problem):
    import json

    from sbopt.bench.run import build_config, run_experiment
    cfg = build_config({"problem": problem, "m": 20, "n": 40, "seed": 2,
                        "solvers": "pb_apg", "gamma": 1e3, "max_iters": 50,
                        "out_dir": str(tmp_path)})
    report = run_experiment(cfg)
    refs = json.loads((tmp_path / "report.json").read_text())["references"]
    assert refs["f_star"] == report.upper.f_star
    assert refs["f_star_solves"] >= 1 and refs["f_star_iterations"] >= 1
    if problem == "lsrp-synth":
        assert refs["f_star_method"] == "dual_bracket"
        assert refs["f_star"] == refs["f_star_lower"] <= refs["f_star_upper"]
    else:
        assert refs["f_star_method"] == "relaxation"
        assert refs["f_star_lower"] is None and refs["f_star_upper"] is None
