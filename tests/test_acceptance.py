"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and enforcing the stated budget.

Run with  pytest tests/test_acceptance.py -v -s  for the per-criterion lines.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest

from helpers import (SeparableLipschitz, grid_project_l1_ball_2d,
                     grid_project_l1_ball_3d, grid_prox_separable,
                     quad_l1_objective, toy_quadratic_instance,
                     toy_sharp_instance)
from sbopt.adaptive import LadderConfig, apb_apg, ladder_entry_index
from sbopt.apg import (ApgConfig, iteration_budget, pb_apg, pb_apg_sc,
                       sc_budget)
from sbopt.bench.run import build_config, run_experiment
from sbopt.model import NonsmoothTerm, assemble_penalized
from sbopt.penalty import (gamma_star, gamma_total, implied_lower_gap,
                           suboptimality_lower_bound)
from sbopt.prox import compose_prox, project_box, project_l1_ball, prox_l1
from sbopt.subgrad import Diminishing, StronglyConvex, SubgradConfig, \
    subgrad_solve

FROZEN = os.path.join(os.path.dirname(__file__), "data",
                      "quad_l1_reference.json")


def criterion(number, label, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL "
                      f"({time.perf_counter() - t0:.2f}s) {label}")
                raise
            elapsed = time.perf_counter() - t0
            print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {label}")
            assert elapsed < budget_s, f"runtime budget {budget_s}s exceeded"
        return run
    return wrap


@criterion(1, "penalty-calculus exactness", budget_s=1.0)
def test_criterion_1_penalty_calculus():
    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12), (got, want)

    close(gamma_star(2.0, 1.0, 1.0, 0.1), 2.5)
    close(gamma_star(1.0, 2.0, 3.0, 0.37), 6.0)
    close(gamma_star(3.0, 1.0, 2.0, 1.0), 32.0 / 27.0)
    close(gamma_total(2.0, 1.0, 1.0, 0.1, 2.0), 22.5)
    close(gamma_total(1.0, 1.0, 1.0, 0.5, 1.0), 2.0)
    close(suboptimality_lower_bound(2.0, 1.0, 1.0, 0.1, 2.0), -0.1)
    close(suboptimality_lower_bound(1.0, 4.0, 2.0, 0.5, 1.0), -2.0)
    for alpha in (1.5, 2.0, 3.0):
        close(suboptimality_lower_bound(alpha, 1.0, 1.0, 0.2, alpha), -0.2)
    # the alpha = 1 branch ignores epsilon entirely
    assert len({gamma_star(1.0, 2.0, 3.0, e) for e in (1e-8, 0.37, 11.0)}) == 1
    for e in (1e-4, 0.1, 3.0):
        assert gamma_total(1.0, 1.0, 1.0, e, 1.0) > gamma_star(1.0, 1.0, 1.0, e)


@criterion(2, "1-D analytic theorem check", budget_s=5.0)
def test_criterion_2_analytic_toy():
    inst = toy_quadratic_instance()
    for eps in (1e-1, 1e-2, 1e-3):
        gamma = gamma_total(2.0, 1.0, 1.0, eps, 2.0)
        obj = assemble_penalized(inst, gamma)
        x, _ = pb_apg(obj, np.zeros(1), ApgConfig(epsilon=eps, radius_bound=1.0))
        g_gap = inst.lower_gap(x)
        f_gap = inst.upper_value(x) - 0.5
        lb = suboptimality_lower_bound(2.0, 1.0, 1.0, eps, 2.0)
        assert g_gap <= eps**2, (eps, g_gap)
        assert lb - 1e-9 <= f_gap <= eps + 1e-9, (eps, f_gap)


@criterion(3, "exact penalization at alpha = 1", budget_s=1.0)
def test_criterion_3_exact_penalization():
    inst = toy_sharp_instance()
    for gamma in (1.01, 2.0, 10.0):
        obj = assemble_penalized(inst, gamma)
        x, _ = pb_apg(obj, np.ones(1),
                      ApgConfig(epsilon=1e-12, radius_bound=2.0, max_iters=500))
        assert abs(x[0] - 0.0) <= 1e-12, (gamma, x)


def _frozen_entries():
    with open(FROZEN, "r", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


@criterion(4, "APG budget certification on 50 seeded instances", budget_s=60.0)
def test_criterion_4_apg_budget():
    entries = _frozen_entries()
    assert len(entries) == 50
    for e in entries:
        objective, Q, b, w, mu, L = quad_l1_objective(e["seed"])
        x_star = np.asarray(e["x_star"])
        phi_star = e["phi_star"]
        x0 = np.zeros(b.size)
        radius = float(np.linalg.norm(x0 - x_star))
        for eps in (1e-2, 1e-4):
            if radius == 0.0:
                # start already optimal: the certification holds at 0 steps
                assert objective.value(x0) - phi_star <= eps
                continue
            budget = iteration_budget(L, radius, eps)
            x, trace = pb_apg(objective, x0,
                              ApgConfig(epsilon=eps, radius_bound=radius,
                                        record_every=max(budget, 1)))
            assert trace.total_iterations == budget
            gap = objective.value(x) - phi_star
            assert gap <= eps * (1 + 1e-9), (e["seed"], eps, gap)


@criterion(5, "strongly convex rate and budget on 50 seeded instances",
           budget_s=60.0)
def test_criterion_5_sc_rate():
    entries = _frozen_entries()
    for e in entries:
        objective, Q, b, w, mu, L = quad_l1_objective(e["seed"])
        x_star = np.asarray(e["x_star"])
        phi_star = e["phi_star"]
        x0 = np.zeros(b.size)
        # warm-up point fixes the distance bound R of the rate statement
        _, probe = pb_apg_sc(objective, mu, x0,
                             ApgConfig(epsilon=1.0, max_iters=0,
                                       keep_iterates=True))
        x_tilde = probe.iterates[0]
        radius = max(float(np.linalg.norm(x0 - x_star)),
                     float(np.linalg.norm(x_tilde - x_star)))
        eps = 1e-4
        if radius == 0.0:
            assert objective.value(x0) - phi_star <= eps
            continue
        budget = sc_budget(L, mu, radius, eps)
        x, trace = pb_apg_sc(objective, mu, x0,
                             ApgConfig(epsilon=eps, radius_bound=radius))
        assert trace.total_iterations == budget
        assert objective.value(x) - phi_star <= eps * (1 + 1e-9)
        # per-iteration geometric bound
        q = 1.0 - math.sqrt(mu / L)
        c = 0.5 * (L + mu) * radius * radius
        for i, k in enumerate(trace.ks):
            gap = trace.phi_values[i] - phi_star
            assert gap <= c * q**k * (1 + 1e-9) + 1e-12, (e["seed"], k, gap)


@criterion(6, "subgradient best-value bounds on 20 seeded instances",
           budget_s=120.0)
def test_criterion_6_subgradient_bounds():
    checkpoints = (100, 1000, 10000)
    # sqrt(K) bound, diminishing schedule
    for seed in range(600, 620):
        inst = SeparableLipschitz(seed)
        obj = inst.objective()
        x_star = inst.minimizer()
        phi_star = inst.value(x_star)
        x0 = inst.domain.project(inst.x0)
        radius = float(np.linalg.norm(x0 - x_star)) + 1e-9
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=10_000,
                            domain=inst.domain, record_every=100)
        _, trace = subgrad_solve(obj, x0, cfg)
        l_gamma = obj.subgrad_lipschitz
        rows = {k: i for i, k in enumerate(trace.ks)}
        for K in checkpoints:
            bound = (l_gamma / 4.0) * (radius**2 + 2.0 * math.log(2.0)) \
                / math.sqrt(K + 2.0)
            gap = trace.phi_best[rows[K]] - phi_star
            assert gap <= bound + 1e-9, (seed, K, gap, bound)
    # 1/K bound, strongly convex schedule
    for seed in range(700, 720):
        inst = SeparableLipschitz(seed, strongly_convex=True)
        obj = inst.objective()
        x_star = inst.minimizer()
        phi_star = inst.value(x_star)
        x0 = inst.domain.project(inst.x0)
        cfg = SubgradConfig(schedule=StronglyConvex(inst.mu), max_iters=10_000,
                            domain=inst.domain, record_every=100)
        _, trace = subgrad_solve(obj, x0, cfg)
        l_gamma = obj.subgrad_lipschitz
        rows = {k: i for i, k in enumerate(trace.ks)}
        for K in checkpoints:
            bound = 2.0 * l_gamma**2 / (inst.mu * (K + 1.0))
            gap = trace.phi_best[rows[K]] - phi_star
            assert gap <= bound + 1e-9, (seed, K, gap, bound)


@criterion(7, "adaptive ladder stage certificates", budget_s=10.0)
def test_criterion_7_adaptive_ladder():
    assert ladder_entry_index(1.0, 1.0, 10.0, 1.0, 1.0 / 32.0, 20.0, 10.0) == 2
    assert ladder_entry_index(2.0, 1.0, 1.0, 1.0, 1.0, 4.0, 2.0) == 0
    inst = toy_quadratic_instance()
    alpha, rho, l_f = 2.0, 1.0, 1.0
    gamma0, nu, eta, eps0 = 1.0, 4.0, 2.0, 0.5
    n_entry = ladder_entry_index(alpha, rho, l_f, eps0, gamma0, nu, eta)
    ladder = LadderConfig(gamma0=gamma0, nu=nu, eta=eta, epsilon0=eps0,
                          stop_epsilon=eps0 / 2.0**10)
    _, stages = apb_apg(inst, np.zeros(1), ladder,
                        ApgConfig(epsilon=eps0, radius_bound=2.0))
    assert len(stages) == 11
    checked = 0
    for st in stages[n_entry:]:
        bound = implied_lower_gap(gamma0 * nu**st.index, alpha, rho, l_f,
                                  eps0 / eta**st.index)
        assert st.g_gap <= bound + 1e-12, (st.index, st.g_gap, bound)
        checked += 1
    assert checked == len(stages) - n_entry


@criterion(8, "scaling equivalence (bit-identical iterates)", budget_s=30.0)
def test_criterion_8_scaling_equivalence():
    inst = toy_quadratic_instance()
    gamma = 225.0
    base = assemble_penalized(inst, gamma)
    x0 = np.array([0.8])
    cfg = ApgConfig(epsilon=1e-30, max_iters=1000, keep_iterates=True,
                    record_every=1000)
    _, ref = pb_apg(base, x0, cfg)
    assert len(ref.iterates) == 1001
    for c in (1.0 / gamma, 2.0, 10.0):
        _, tr = pb_apg(base.scaled(c), x0, cfg)
        for a, b in zip(ref.iterates, tr.iterates):
            assert np.array_equal(a, b), c
    # composite instance with an L1 prox exercising the psi path
    obj, Q, b, w, mu, L = quad_l1_objective(321)
    x0 = np.zeros(b.size)
    _, ref = pb_apg(obj, x0, cfg)
    for c in (1.0 / gamma, 2.0, 10.0):
        _, tr = pb_apg(obj.scaled(c), x0, cfg)
        for a, b_ in zip(ref.iterates, tr.iterates):
            assert np.array_equal(a, b_), c


@criterion(9, "desk-scale experiment reproduction", budget_s=300.0)
def test_criterion_9_desk_experiments(tmp_path):
    apg_solvers = ("pb_apg", "apb_apg", "pb_apg_sc", "apb_apg_sc")
    for preset in ("lrp-bench", "lsrp-bench"):
        out = tmp_path / preset
        cfg = build_config({"preset": preset, "out_dir": str(out)})
        report = run_experiment(cfg)

        # (a) every accelerated variant reaches the gap target
        for name in apg_solvers:
            res = report.solvers[name]
            assert res.error is None, (preset, name, res.error)
            assert res.lower_gap <= 1e-7, (preset, name, res.lower_gap)

        # (a) two orders of magnitude below the projected-subgradient
        # baseline at equal wall time
        from sbopt.bench.run import _subgrad_baseline
        from sbopt.bench.synth import synth_instance
        from sbopt.reference import lower_opt_value
        family = "lrp" if preset.startswith("lrp") else "lsrp"
        instance = synth_instance(family, cfg.m, cfg.n, cfg.seed)
        ref = lower_opt_value(instance)
        instance = instance.with_lower_opt_value(report.lower.g_star)
        objective, domain, radius = _subgrad_baseline(instance, cfg.gamma,
                                                      ref.x)
        wall = max(report.solvers[n].wall_seconds for n in apg_solvers)
        sg_cfg = SubgradConfig(schedule=Diminishing(radius),
                               max_iters=10_000_000, domain=domain,
                               max_seconds=max(wall, 0.05), record_every=1000)
        x_best, _ = subgrad_solve(objective, domain.project(np.zeros(cfg.n)),
                                  sg_cfg)
        baseline_gap = instance.lower_gap(x_best)
        for name in apg_solvers:
            assert report.solvers[name].lower_gap <= baseline_gap / 100.0, (
                preset, name, report.solvers[name].lower_gap, baseline_gap)

        # (b) staircase: per-stage final residuals non-increasing
        ladder = report.solvers["apb_apg"]
        stage_gaps = []
        for gamma_k, eps_k, trace in ladder.segments:
            stage_gaps.append(trace.g_gaps[-1])
        assert all(a >= b - 1e-12 for a, b in zip(stage_gaps, stage_gaps[1:])), (
            preset, stage_gaps)

        # (c) emitted summary with all certificates passing
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("method,")
        assert len(summary) == 1 + len(apg_solvers)
        for line in summary[1:]:
            assert line.endswith(",pass"), line


@pytest.mark.skipif("SBOPT_A1A" not in os.environ,
                    reason="set SBOPT_A1A to a local a1a LIBSVM file")
def test_criterion_9_optional_a1a(tmp_path):
    # advisory reproduction against the published desk numbers
    cfg = build_config({"preset": "lrp-a1a", "data": os.environ["SBOPT_A1A"],
                        "out_dir": str(tmp_path)})
    report = run_experiment(cfg)
    res = report.solvers["pb_apg"]
    assert res.lower_gap <= 1e-6
    assert abs(res.upper_value - 4.94) <= 0.1 * 4.94


@criterion(10, "prox oracle equivalence", budget_s=30.0)
def test_criterion_10_prox_oracles():
    rng = np.random.default_rng(10)
    # soft threshold and box projection against exhaustive coordinate search
    for _ in range(3):
        y = rng.uniform(-4, 4, size=3)
        t = 10 ** rng.uniform(-1.5, 0.5)
        got = prox_l1(y, t)
        want = grid_prox_separable([lambda v: np.abs(v)] * 3, y, t)
        assert np.max(np.abs(got - want)) <= 2e-3
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        got = project_box(y, lo, hi)
        want = grid_prox_separable(
            [lambda v: np.where((v >= -1.0) & (v <= 1.0), 0.0, np.inf)] * 3,
            y, 1.0)
        assert np.max(np.abs(got - want)) <= 2e-3
        spec = compose_prox(NonsmoothTerm.l1_norm(1.0),
                            NonsmoothTerm.indicator_box(lo, hi), 2.0)
        got = spec.prox(y, t)
        want = grid_prox_separable(
            [lambda v: np.abs(v) + np.where((v >= -1.0) & (v <= 1.0), 0.0,
                                            np.inf)] * 3, y, t)
        assert np.max(np.abs(got - want)) <= 2e-3
    # L1-ball projection against full grid search
    for _ in range(2):
        y = rng.uniform(-4, 4, size=2)
        r = 1.0 + 2.0 * rng.random()
        got = project_l1_ball(y, r)
        want = grid_project_l1_ball_2d(y, r)
        assert np.max(np.abs(got - want)) <= 2e-3
    y = rng.uniform(-4, 4, size=3)
    got = project_l1_ball(y, 1.5)
    want = grid_project_l1_ball_3d(y, 1.5)
    assert np.max(np.abs(got - want)) <= 2e-3
    # Moreau optimality of the soft threshold to 1e-10
    for _ in range(100):
        y = rng.normal(size=5) * 3
        t = 10 ** rng.uniform(-2, 1)
        p = prox_l1(y, t)
        res = (y - p) / t
        assert np.all(np.abs(res) <= 1.0 + 1e-10)
        nz = p != 0
        assert np.allclose(res[nz], np.sign(p[nz]), atol=1e-10)
    # projection optimality: the projected point is feasible and no grid
    # point gets closer (covered by the grid equivalence above); idempotence
    for _ in range(20):
        y = rng.normal(size=4) * 4
        p = project_l1_ball(y, 1.2)
        assert np.array_equal(project_l1_ball(p, 1.2), p)
