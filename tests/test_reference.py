"""Reference oracles: min-norm least squares, G*, F* via penalty escalation."""

import numpy as np
import pytest

from helpers import toy_quadratic_instance
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.bench.synth import synth_instance
from sbopt.errors import Nonconvergence, RelaxationUnreachable
from sbopt.reference import (lower_opt_value, min_norm_least_squares,
                             upper_opt_value)


class TestMinNormLeastSquares:
    def test_hand_cases(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 0.0])
        np.testing.assert_allclose(min_norm_least_squares(A, b), [1.0, 0.0],
                                   atol=1e-12)
        A = np.array([[1.0, 1.0]])
        b = np.array([2.0])
        np.testing.assert_allclose(min_norm_least_squares(A, b), [1.0, 1.0],
                                   atol=1e-12)
        np.testing.assert_array_equal(
            min_norm_least_squares(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_normal_equation_residual_certificate(self):
        rng = np.random.default_rng(1)
        for m, n in ((10, 4), (4, 10), (8, 8)):
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            x = min_norm_least_squares(A, b)
            resid = np.linalg.norm(A.T @ (A @ x - b))
            assert resid <= 1e-10 * (1 + np.linalg.norm(A.T @ b))

    def test_matches_svd_solution(self):
        rng = np.random.default_rng(2)
        for m, n in ((12, 5), (5, 12)):
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            want = np.linalg.lstsq(A, b, rcond=None)[0]
            np.testing.assert_allclose(min_norm_least_squares(A, b), want,
                                       rtol=1e-9, atol=1e-11)

    def test_null_space_orthogonality_with_duplicate_columns(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(8, 4))
        A = np.hstack([B, B[:, :2]])  # columns 4,5 duplicate 0,1
        b = rng.normal(size=8)
        x = min_norm_least_squares(A, b)
        # e_0 - e_4 and e_1 - e_5 span sampled null directions
        for i, j in ((0, 4), (1, 5)):
            z = np.zeros(6)
            z[i], z[j] = 1.0, -1.0
            assert abs(x @ z) <= 1e-9 * (1 + np.linalg.norm(x))


class TestLowerOptValue:
    def test_consistent_system_gives_zero(self):
        rng = np.random.default_rng(4)
        inst = synth_lsrp(20, 40, seed=4)  # n > m: b in range(A)
        report = lower_opt_value(inst)
        assert report.method == "min_norm_least_squares"
        assert abs(report.g_star) <= 1e-12

    def test_min_norm_and_long_run_agree(self):
        inst = synth_lsrp(40, 60, seed=1)
        report = lower_opt_value(inst)
        # independent route: accelerated run on the lower level alone
        import dataclasses

        from sbopt.apg import ApgConfig, pb_apg
        from sbopt.model import PenalizedObjective, NonsmoothTerm
        from sbopt.prox import compose_prox
        psi = compose_prox(NonsmoothTerm.zero(), inst.g2, 1.0)
        obj = PenalizedObjective(gamma=1.0, phi=inst.g1, psi=psi)
        x, _ = pb_apg(obj, np.zeros(60),
                      ApgConfig(epsilon=1e-18, max_iters=200_000,
                                step_tolerance=1e-14, restart=True,
                                record_every=200_000))
        long_run_value = inst.lower_value(x)
        assert abs(report.g_star - long_run_value) <= 1e-10 * (1 + abs(report.g_star))

    def test_logistic_route_certificate(self):
        inst = synth_lrp(30, 8, seed=5)
        report = lower_opt_value(inst, tolerance=1e-12)
        assert report.method == "accelerated_restart"
        assert report.residual_certificate <= 1e-12
        assert report.g_star > 0.0

    def test_logistic_route_stops_at_first_certified_checkpoint(self):
        from sbopt.apg import ApgConfig, pb_apg
        from sbopt.reference import _lower_objective
        inst = synth_lrp(30, 8, seed=5)
        report = lower_opt_value(inst)
        assert report.method == "accelerated_restart"
        assert report.iterations <= 400
        # one uninterrupted 50,000-iteration restarted run
        x, _ = pb_apg(_lower_objective(inst), np.zeros(8),
                      ApgConfig(epsilon=1e-18, max_iters=50_000,
                                step_tolerance=0.0, restart=True,
                                record_every=50_000))
        bound = (2.0 * (1.0 + np.linalg.norm(report.x))
                 * report.residual_certificate
                 + 1e-12 * (1.0 + abs(report.g_star)))
        assert abs(report.g_star - inst.lower_value(x)) <= bound

    def test_lrp_bench_certifies_within_sixteen_iterations(self):
        # one restarted run certifies the lrp-bench instance after 11
        # iterations, and G* keeps the bits a 100-iteration run gives
        report = lower_opt_value(synth_lrp(200, 50, 7))
        assert report.method == "accelerated_restart"
        assert report.iterations <= 16
        assert report.residual_certificate <= 1e-12
        assert report.g_star.hex() == "0x1.f787f8469c821p-4"

    def test_1d_quadratic(self):
        import dataclasses
        inst = dataclasses.replace(toy_quadratic_instance(), lower_opt_value=None)
        report = lower_opt_value(inst, tolerance=1e-12)
        assert abs(report.g_star) <= 1e-15

    def test_iteration_cap_raises_nonconvergence(self, caplog):
        import dataclasses
        import logging

        from sbopt.errors import Nonconvergence
        from sbopt.model import SmoothTerm
        rng = np.random.default_rng(8)
        # eigenvalues 1 down to 1e-3 (cond 1e3): the certificate is still
        # about 1e-4 after 150 iterations, far above the tolerance
        V, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        Q = (V * np.logspace(0, -3, 4)) @ V.T
        c = rng.normal(size=4)
        g1 = SmoothTerm(lambda x: 0.5 * float((x - c) @ (Q @ (x - c))),
                        lambda x: Q @ (x - c),
                        float(np.linalg.eigvalsh(Q)[-1]))
        inst = dataclasses.replace(toy_quadratic_instance(), lower_opt_value=None)
        inst = dataclasses.replace(inst, dim=4, g1=g1)
        caplog.set_level(logging.DEBUG, logger="sbopt.reference")
        # at tolerance 1e-30 the free pre-test never fires, so the log shows
        # the checkpoints alone: they double from 1, chunk = 8 caps their
        # spacing in the first case, and the cap ends both runs off one
        for max_iters, chunk, expected in (
                (50, 8, [1, 2, 4, 8, 16, 24, 32, 40, 48]),
                (150, 50_000, [1, 2, 4, 8, 16, 32, 64, 128])):
            caplog.clear()
            with pytest.raises(Nonconvergence) as err:
                lower_opt_value(inst, tolerance=1e-30, max_iters=max_iters,
                                chunk=chunk)
            assert err.value.best_value is not None
            assert err.value.certificate is not None
            checks = [int(r.getMessage().split()[2]) for r in caplog.records
                      if r.getMessage().startswith("G* checkpoint")]
            assert checks == expected

    def test_accelerated_route_is_one_engine_call(self, monkeypatch):
        import sbopt.reference as reference
        calls = []

        def counting_accelerate(*args, _run=reference._accelerate):
            x, trace = _run(*args)
            calls.append(trace.terminal_reason)
            return x, trace

        monkeypatch.setattr(reference, "_accelerate", counting_accelerate)
        for inst in (synth_lrp(200, 50, 7), _sparse_logistic(0)):
            calls.clear()
            report = lower_opt_value(inst)
            assert report.method == "accelerated_restart"
            assert calls == ["certified"]


def _sparse_logistic(s):
    """Logistic loss on a 100x30 0/1 matrix of density 0.1, labels from a
    noisy linear rule, on an L1 ball of radius 5."""
    from sbopt.model import logistic_min_norm_problem
    rng = np.random.default_rng(200 + s)
    A = (rng.random((100, 30)) < 0.1).astype(float)
    w = rng.normal(size=30)
    b = np.where(A @ w + 0.3 * rng.normal(size=100) >= 0, 1.0, -1.0)
    return logistic_min_norm_problem(A, b, l1_radius=5.0)


def _ls_l1_ball(i, m, n, r):
    from sbopt.model import min_norm_problem
    rng = np.random.default_rng(100 + i)
    return min_norm_problem(rng.normal(size=(m, n)), rng.normal(size=m),
                            l1_radius=r)


# (name, instance builder, iterations of one uninterrupted restarted run to
# the 1e-12 certificate)
_G_STAR_SWEEP = (
    [(f"lrp200x50/s{s}", lambda s=s: synth_lrp(200, 50, s), it)
     for s, it in enumerate((13, 12, 13, 12, 13, 12, 12, 11, 13, 12))]
    + [(f"ls_l1ball/{m}x{n}/r{r}",
        lambda i=i, m=m, n=n, r=r: _ls_l1_ball(i, m, n, r), it)
       for i, (m, n, r, it) in enumerate(
           ((40, 20, 1.0, 49), (40, 20, 0.3, 50), (20, 40, 1.0, 121),
            (20, 40, 0.3, 116), (60, 30, 2.0, 79), (30, 60, 0.5, 151)))]
    + [(f"sparse_logistic/s{s}", lambda s=s: _sparse_logistic(s), it)
       for s, it in enumerate((63, 86, 71, 74, 64, 65))])


@pytest.mark.parametrize("build, single_run", [c[1:] for c in _G_STAR_SWEEP],
                         ids=[c[0] for c in _G_STAR_SWEEP])
def test_g_star_sweep_stops_with_one_run(build, single_run):
    from sbopt.apg import ApgConfig, pb_apg
    from sbopt.reference import _lower_objective
    inst = build()
    report = lower_opt_value(inst)
    assert report.method == "accelerated_restart"
    assert report.iterations <= single_run
    assert report.residual_certificate <= 1e-12
    x, _ = pb_apg(_lower_objective(inst), np.zeros(inst.dim),
                  ApgConfig(epsilon=1e-18, max_iters=2_000, restart=True,
                            record_every=2_000))
    bound = (2.0 * (1.0 + np.linalg.norm(report.x))
             * report.residual_certificate
             + 1e-12 * (1.0 + abs(report.g_star)))
    assert abs(report.g_star - inst.lower_value(x)) <= bound


class TestUpperOptValue:
    def test_1d_toy_limit(self):
        inst = toy_quadratic_instance()
        report = upper_opt_value(inst, g_star=0.0, relaxation=1e-10)
        assert report.f_star == pytest.approx(0.5, abs=2e-5)
        assert report.achieved_lower_gap <= 1e-10

    def test_relaxation_monotonicity(self):
        inst = toy_quadratic_instance()
        values = [upper_opt_value(inst, 0.0, relaxation=r).f_star
                  for r in (1e-4, 1e-6, 1e-8)]
        # larger relaxation = larger feasible set = smaller optimal value
        assert values[0] <= values[1] + 1e-12
        assert values[1] <= values[2] + 1e-12

    def test_constant_upper_level(self):
        import dataclasses

        from sbopt.model import SmoothTerm
        base = toy_quadratic_instance()
        const = SmoothTerm(lambda x: 3.5, np.zeros_like, 1e-12, 0.0)
        inst = dataclasses.replace(base, f1=const)
        report = upper_opt_value(inst, g_star=0.0, relaxation=1e-6)
        assert report.f_star == pytest.approx(3.5, abs=1e-12)

    def test_never_beats_solver_output(self):
        from sbopt.apg import ApgConfig, pb_apg_sc
        from sbopt.model import assemble_penalized
        inst = synth_lrp(40, 10, seed=6)
        ref = lower_opt_value(inst)
        inst2 = inst.with_lower_opt_value(ref.g_star)
        up = upper_opt_value(inst2, ref.g_star, relaxation=1e-9)
        obj = assemble_penalized(inst2, 1e5)
        x, _ = pb_apg_sc(obj, 1.0, np.zeros(10),
                         ApgConfig(epsilon=1e-12, max_iters=100_000,
                                   step_tolerance=1e-13, restart=True,
                                   record_every=10_000))
        assert up.f_star <= inst2.upper_value(x) + 1e-6

    def test_unreachable_relaxation(self):
        inst = toy_quadratic_instance()
        with pytest.raises(RelaxationUnreachable):
            upper_opt_value(inst, g_star=0.0, relaxation=1e-30,
                            gamma0=1.0, gamma_cap=1e3,
                            max_iters_per_solve=2000)

    def test_solve_on_its_cap_raises(self):
        # on the lsrp-bench instance every 500-iteration solve stops on its
        # cap; F at such a point (3.489 at gamma 1e5, against a true 2.597)
        # certifies nothing and must not come back as F*
        inst = synth_instance("lsrp", 100, 190, 3, tau=0.02)
        ref = lower_opt_value(inst)
        with pytest.raises(Nonconvergence) as err:
            upper_opt_value(inst, ref.g_star, relaxation=1e-9,
                            max_iters_per_solve=500)
        assert np.isfinite(err.value.best_value)
        assert err.value.certificate > 0.0

    def test_theorem_lower_bound_against_reference(self):
        # suboptimality of certified points never undershoots the bound
        from sbopt.apg import ApgConfig, pb_apg
        from sbopt.model import assemble_penalized
        from sbopt.penalty import make_plan
        inst = toy_quadratic_instance()
        up = upper_opt_value(inst, 0.0, relaxation=1e-12)
        for eps in (1e-1, 1e-2, 1e-3):
            plan = make_plan(2.0, 1.0, 1.0, eps, 2.0)
            obj = assemble_penalized(inst, plan.gamma)
            x, _ = pb_apg(obj, np.zeros(1),
                          ApgConfig(epsilon=eps, radius_bound=1.0))
            f_gap = inst.upper_value(x) - up.f_star
            assert f_gap >= plan.lower_bound_F - 1e-9
