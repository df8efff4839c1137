"""Hot-path oracles of the shipped losses: the fused oracle agrees bit for
bit with the value-only and gradient-only ones, and the engines take the
same iterates through a shipped term as through a plain term that has only
those two."""

import dataclasses
import json

import numpy as np
import pytest

from sbopt import prox as prox_module
from sbopt.apg import ApgConfig, _step_norm, pb_apg, pb_apg_sc
from sbopt.bench.run import _subgrad_baseline, build_config, run_experiment
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.model import (NonsmoothTerm, SmoothTerm, _affine_step,
                         _logistic_value, assemble_penalized,
                         least_squares_smooth_term, logistic_smooth_term)
from sbopt.prox import ProxSpec
from sbopt.subgrad import Diminishing, Domain, SubgradConfig, subgrad_solve

def _plain(term: SmoothTerm) -> SmoothTerm:
    """The same loss with the term's separate value and gradient oracles
    and no fused one, and the same constants, tag and payload (so the
    engines pick the same forward step for both)."""
    return SmoothTerm(term.value_oracle, term.gradient_oracle,
                      term.lipschitz_grad, term.strong_convexity,
                      tag=term.tag, payload=term.payload)


# least squares with n <= 2m takes the affine forward step M y + c; with
# n > 2m, like the logistic loss, the gradient step y - grad_step(y)
LSRP = {"affine": lambda: synth_lsrp(30, 45, 2),
        "gradient": lambda: synth_lsrp(20, 45, 2)}


def _instances():
    lrp = synth_lrp(40, 12, 4)
    return [(f"lsrp_{route}", make().with_lower_opt_value(0.0))
            for route, make in LSRP.items()] + [
        ("lrp", lrp.with_lower_opt_value(0.5))]


def _assert_same_run(run_a, run_b):
    (x_a, tr_a), (x_b, tr_b) = run_a, run_b
    assert len(tr_a.iterates) == len(tr_b.iterates) > 1
    for it_a, it_b in zip(tr_a.iterates, tr_b.iterates):
        np.testing.assert_array_equal(it_a, it_b)
    np.testing.assert_array_equal(x_a, x_b)
    assert tr_a.ks == tr_b.ks
    assert tr_a.phi_values == tr_b.phi_values
    assert tr_a.f_values == tr_b.f_values
    assert tr_a.g_gaps == tr_b.g_gaps
    assert tr_a.step_norms == tr_b.step_norms
    assert tr_a.phi_best == tr_b.phi_best
    assert tr_a.terminal_reason == tr_b.terminal_reason


class TestOraclesMatchPublicFunctions:
    """The fused ``value_grad`` against the public ``value`` and ``grad``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_agreement_including_large_margins(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(3, 30)), int(rng.integers(2, 20))
        A = rng.normal(size=(m, n))
        labels = rng.choice([-1.0, 1.0], size=m)
        targets = rng.normal(size=m)
        for x in (rng.normal(size=n), 40.0 * rng.normal(size=n)):
            for make, b in ((logistic_smooth_term, labels),
                            (least_squares_smooth_term, targets)):
                term = make(A, b)
                value, grad = term.value(x), term.grad(x)
                fused_value, fused_grad = term.value_grad(x)
                assert type(fused_value) is float and fused_value == value
                np.testing.assert_array_equal(fused_grad, grad)
        # the scaled points above reach margins well past the softplus cutoff
        assert np.max(np.abs(labels * (A @ x))) > 40.0

    def test_fallback_value_grad_uses_both_oracles(self):
        term = SmoothTerm(lambda x: 0.5 * float(x @ x), lambda x: 2.0 * x, 1.0)
        value, grad = term.value_grad(np.array([1.0, -2.0]))
        assert value == 2.5
        np.testing.assert_array_equal(grad, [2.0, -4.0])


class TestReductionsMatchTheirNumpyForms:
    """The hot path computes these reductions with less dispatch; each must
    equal the NumPy call it stands for, bit for bit."""

    def test_reductions(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(1, 600))
            x = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6)
            x_prev = rng.normal(size=size) * 10.0 ** rng.uniform(-6, 6)
            t, z = x, np.exp(-np.abs(x))
            assert _logistic_value(t, z) == float(
                np.mean(np.maximum(-t, 0.0) + np.log1p(z)))
            l1 = NonsmoothTerm.l1_norm(0.3)
            assert l1.value(x) == 0.3 * float(np.sum(np.abs(x)))
            assert (_step_norm(x - x_prev, x, None)
                    == float(np.linalg.norm(x - x_prev)))


class TestEnginesTakeTheSameIterates:
    """Shipped terms against plain terms without the fused oracle."""

    def _pair(self, instance, gamma):
        plain = dataclasses.replace(instance, g1=_plain(instance.g1))
        return assemble_penalized(instance, gamma), assemble_penalized(plain, gamma)

    @pytest.mark.parametrize("restart", [False, True])
    def test_pb_apg(self, restart):
        for _, instance in _instances():
            shipped, plain = self._pair(instance, 50.0)
            cfg = ApgConfig(epsilon=1e-9, max_iters=300, restart=restart,
                            record_every=7, keep_iterates=True)
            x0 = np.zeros(instance.dim)
            _assert_same_run(pb_apg(shipped, x0, cfg), pb_apg(plain, x0, cfg))

    @pytest.mark.parametrize("restart", [False, True])
    def test_pb_apg_sc(self, restart):
        for _, instance in _instances():
            shipped, plain = self._pair(instance, 50.0)
            cfg = ApgConfig(epsilon=1e-9, max_iters=300, restart=restart,
                            record_every=7, keep_iterates=True)
            x0 = np.zeros(instance.dim)
            mu = shipped.strong_convexity
            _assert_same_run(pb_apg_sc(shipped, mu, x0, cfg),
                             pb_apg_sc(plain, mu, x0, cfg))

    def test_subgrad_solve(self):
        # phi = f1 + gamma*g1 from its fused oracle on g1's, against phi
        # from its separate value and gradient on g1's separate ones
        gamma = 3.0
        psi = ProxSpec(f2=NonsmoothTerm.l1_norm(0.1),
                       g2=NonsmoothTerm.l1_norm(0.02), gamma=gamma, prox=None)
        cfg = SubgradConfig(schedule=Diminishing(2.0), max_iters=250,
                            domain=Domain.l1_ball(5.0), record_every=9,
                            keep_iterates=True)
        for _, instance in _instances():
            shipped, plain = self._pair(instance, gamma)
            plain = dataclasses.replace(plain, phi=dataclasses.replace(
                plain.phi, value_grad_oracle=None))
            x0 = np.zeros(instance.dim)
            _assert_same_run(*(subgrad_solve(dataclasses.replace(
                objective, psi=psi, subgrad_lipschitz=10.0), x0, cfg)
                for objective in (shipped, plain)))


class TestSubgradientBaselineOracleCalls:
    @pytest.mark.parametrize("record_every", [1, 1000])
    def test_one_loss_evaluation_per_iteration(self, record_every):
        instance = synth_lrp(40, 12, 4)
        counts = {"value": 0, "grad": 0, "value_grad": 0}

        def counted(name, oracle):
            def wrapper(x):
                counts[name] += 1
                return oracle(x)
            return wrapper

        g1 = instance.g1
        instance = dataclasses.replace(instance, g1=dataclasses.replace(
            g1, value_oracle=counted("value", g1.value_oracle),
            gradient_oracle=counted("grad", g1.gradient_oracle),
            value_grad_oracle=counted("value_grad", g1.value_grad_oracle)))
        objective, domain, radius = _subgrad_baseline(
            instance, 10.0, np.zeros(instance.dim))
        setup = dict(counts)
        iters = 200
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=iters,
                            domain=domain, record_every=record_every)
        _, trace = subgrad_solve(objective, domain.project(np.zeros(instance.dim)),
                                 cfg)
        used = {k: counts[k] - setup[k] for k in counts}
        # one fused evaluation per iteration plus one at the start; the
        # value-only calls are the trace's, one per recorded row
        assert used["value_grad"] == iters + 1
        assert used["grad"] == 0
        assert used["value"] == len(trace.ks)


class TestOracleCallCounts:
    """The counts each solver reports, derived at exit, against counting
    wrappers on the terms' oracles and the prox and projection."""

    @staticmethod
    def _counted(instance, counts, monkeypatch):
        def counted(name, oracle):
            def wrapper(x):
                counts[name] += 1
                return oracle(x)
            return wrapper

        def counted_module(name):
            original = getattr(prox_module, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(prox_module, name, wrapper)

        counted_module("prox_l1")
        counted_module("project_l1_ball")
        g1 = instance.g1
        return dataclasses.replace(instance, g1=dataclasses.replace(
            g1, value_oracle=counted("value", g1.value_oracle),
            gradient_oracle=counted("grad", g1.gradient_oracle),
            value_grad_oracle=counted("value_grad", g1.value_grad_oracle)))

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_accelerated(self, monkeypatch, engine, record_every):
        for route, make in LSRP.items():
            counts = dict.fromkeys(("value", "grad", "value_grad", "prox_l1",
                                    "project_l1_ball"), 0)
            with monkeypatch.context() as patch:
                self._check_accelerated(make(), counts, patch, engine,
                                        record_every, route)

    def _check_accelerated(self, lsrp, counts, patch, engine, record_every,
                           route):
        instance = self._counted(lsrp.with_lower_opt_value(0.0), counts,
                                 patch)
        objective = assemble_penalized(instance, 50.0)
        assert (_affine_step(objective.phi) is None) == (route == "gradient")
        cfg = ApgConfig(epsilon=1e-9, max_iters=300, restart=True,
                        record_every=record_every)
        x0 = np.zeros(instance.dim)
        if engine == "pb_apg":
            _, trace = pb_apg(objective, x0, cfg)
        else:
            _, trace = pb_apg_sc(objective, objective.strong_convexity, x0,
                                 cfg)
        calls = trace.oracle_calls
        assert all(type(v) is int for v in calls.values())
        warm = engine == "pb_apg_sc"
        assert calls == {"gradient": 300 + 2 * warm, "prox": 300 + warm,
                         "value": len(trace.ks), "projection": 0}
        # the affine step M y + c is the gradient step in closed form: it
        # counts as one gradient, and calls the loss oracle only in the
        # warm-up steps of pb_apg_sc
        assert counts["grad"] == (calls["gradient"] if route == "gradient"
                                  else 2 * warm)
        assert calls["prox"] == counts["prox_l1"]
        assert calls["value"] == counts["value"] == trace.rows_recorded
        assert counts["value_grad"] == counts["project_l1_ball"] == 0

    def test_subgradient(self, monkeypatch):
        counts = dict.fromkeys(
            ("value", "grad", "value_grad", "prox_l1", "project_l1_ball"), 0)
        instance = self._counted(synth_lrp(40, 12, 4), counts, monkeypatch)
        objective, domain, radius = _subgrad_baseline(
            instance, 10.0, np.zeros(instance.dim))
        x0 = domain.project(np.zeros(instance.dim))
        before = dict(counts)
        cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=200,
                            domain=domain, record_every=9)
        _, trace = subgrad_solve(objective, x0, cfg)
        used = {k: counts[k] - before[k] for k in counts}
        calls = trace.oracle_calls
        assert calls == {"gradient": 201, "prox": 0,
                         "value": 201 + len(trace.ks), "projection": 200}
        assert calls["gradient"] == used["value_grad"] + used["grad"]
        assert calls["value"] == used["value_grad"] + used["value"]
        assert calls["projection"] == used["project_l1_ball"]

    def test_report_json_sums_the_segments(self, tmp_path):
        cfg = build_config({"preset": "lsrp-bench", "m": 20, "n": 30,
                            "max_iters": 2000, "out_dir": str(tmp_path),
                            "fixed_clock": True})
        report = run_experiment(cfg)
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            solvers = json.load(fh)["solvers"]
        for name, res in report.solvers.items():
            want = {k: sum(t.oracle_calls[k] for _, _, t in res.segments)
                    for k in ("gradient", "prox", "value", "projection")}
            assert solvers[name]["oracle_calls"] == want
            assert want["gradient"] >= res.total_iterations > 0
