"""Who owns the engines' arrays: each run allocates its own buffers and never
writes an array after returning it, so results survive later runs, a shared
objective gives the serial bits on several threads at once, and every array
a run hands out (iterates, stage outputs, the best iterate) is its own."""

import sys
import threading

import numpy as np
import pytest

from helpers import eigh_calls
from sbopt.adaptive import LadderConfig, apb_apg, apb_apg_sc
from sbopt.apg import ApgConfig, pb_apg, pb_apg_sc
from sbopt.bench.run import _subgrad_baseline
from sbopt.bench.synth import synth_lrp, synth_lsrp
from sbopt.model import assemble_penalized, least_squares_smooth_term
from sbopt.reference import lower_opt_value
from sbopt.subgrad import Diminishing, SubgradConfig, subgrad_solve

CFG = ApgConfig(epsilon=1e-9, max_iters=600, step_tolerance=1e-10,
                restart=True, record_every=50)
THREADS = 4


@pytest.fixture(scope="module")
def lsrp():
    instance = synth_lsrp(30, 45, 2)
    return instance.with_lower_opt_value(lower_opt_value(instance).g_star)


@pytest.fixture(scope="module")
def lrp():
    instance = synth_lrp(40, 12, 4)
    ref = lower_opt_value(instance)
    return instance.with_lower_opt_value(ref.g_star), ref.x


def _engines(objective):
    mu = objective.strong_convexity
    return {"pb_apg": lambda x0, cfg: pb_apg(objective, x0, cfg),
            "pb_apg_sc": lambda x0, cfg: pb_apg_sc(objective, mu, x0, cfg)}


def _subgrad(instance, x_ref, iters=300, keep=False):
    objective, domain, radius = _subgrad_baseline(instance, 10.0, x_ref)
    cfg = SubgradConfig(schedule=Diminishing(radius), max_iters=iters,
                        domain=domain, record_every=7, keep_iterates=keep)
    x0 = domain.project(np.zeros(instance.dim))
    return objective, lambda: subgrad_solve(objective, x0, cfg)


def _trace_rows(trace):
    return (trace.ks, trace.phi_values, trace.f_values, trace.g_gaps,
            trace.step_norms, trace.total_iterations, trace.restarts)


class TestReturnedArrays:
    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_x_survives_later_runs_on_the_same_objective(self, lsrp, engine):
        run = _engines(assemble_penalized(lsrp, 50.0))[engine]
        x0 = np.zeros(lsrp.dim)
        x1, _ = run(x0, CFG)
        first = x1.tobytes()
        run(x0, CFG)
        run(np.ones(lsrp.dim), CFG)
        assert x1.tobytes() == first

    def test_subgrad_best_iterate_survives_later_runs(self, lrp):
        instance, x_ref = lrp
        _, run = _subgrad(instance, x_ref)
        x1, _ = run()
        first = x1.tobytes()
        run()
        assert x1.tobytes() == first

    def test_warm_started_stage_leaves_its_input_alone(self, lsrp):
        objective = assemble_penalized(lsrp, 50.0)
        x1, _ = pb_apg(objective, np.zeros(lsrp.dim), CFG)
        first = x1.tobytes()
        pb_apg(assemble_penalized(lsrp, 500.0), x1, CFG)
        assert x1.tobytes() == first


def _run_threads(work, count):
    """``work(i)`` on ``count`` threads with a short switch interval, so the
    runs interleave; each join is bounded and must find its thread done."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestSharedObjective:
    """More threads than the CI runners have cores, on one objective."""

    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_threads_give_the_serial_bits(self, lsrp, engine):
        run = _engines(assemble_penalized(lsrp, 50.0))[engine]
        cfg = ApgConfig(epsilon=1e-9, max_iters=1500, restart=True,
                        record_every=50)
        starts = [np.full(lsrp.dim, 0.1 * i) for i in range(THREADS)]
        serial = [run(x0, cfg) for x0 in starts]
        results = [None] * THREADS

        def work(i):
            results[i] = run(starts[i], cfg)

        _run_threads(work, THREADS)
        for (x_s, tr_s), (x_t, tr_t) in zip(serial, results):
            assert x_t.tobytes() == x_s.tobytes()
            assert _trace_rows(tr_t) == _trace_rows(tr_s)

    def test_first_reads_of_a_lazy_constant(self, monkeypatch):
        # a least-squares term's L is evaluated on its first read; threads
        # that read it first at once all get the one float, from one eigh
        A, b = synth_lsrp(30, 45, 2).g1.payload
        want = least_squares_smooth_term(A, b).lipschitz_grad
        shapes = eigh_calls(monkeypatch)
        term = least_squares_smooth_term(A, b)
        start = threading.Barrier(THREADS)
        results, errors = [None] * THREADS, []

        def work(i):
            try:
                start.wait(timeout=60)
                results[i] = term.lipschitz_grad
            except BaseException as exc:  # a thread's error fails the test
                errors.append(exc)

        _run_threads(work, THREADS)
        assert errors == []
        assert all(type(L) is float and L == want for L in results)
        assert shapes == [(30, 30)]

    def test_first_reads_of_a_derived_array(self, monkeypatch):
        # threads that ask at once for G* of one fresh least-squares
        # instance share one eigh; a slow eigh holds the race window open
        instance = synth_lsrp(100, 190, 3)
        shapes = eigh_calls(monkeypatch, delay=0.05)
        start = threading.Barrier(THREADS)
        results, errors = [None] * THREADS, []

        def work(i):
            try:
                start.wait(timeout=60)
                results[i] = lower_opt_value(instance).g_star
            except BaseException as exc:  # a thread's error fails the test
                errors.append(exc)

        _run_threads(work, THREADS)
        assert errors == []
        assert shapes == [(100, 100)]
        assert len(set(results)) == 1 and results[0] is not None

    def test_threads_subgrad(self, lrp):
        instance, x_ref = lrp
        _, run = _subgrad(instance, x_ref)
        x_s, tr_s = run()
        results = [None] * THREADS

        def work(i):
            results[i] = run()

        _run_threads(work, THREADS)
        for x_t, tr_t in results:
            assert x_t.tobytes() == x_s.tobytes()
            assert tr_t.phi_best == tr_s.phi_best


def _distinct(arrays):
    return all(not np.shares_memory(a, b)
               for i, a in enumerate(arrays) for b in arrays[i + 1:])


class TestDistinctArrays:
    @pytest.mark.parametrize("engine", ["pb_apg", "pb_apg_sc"])
    def test_kept_iterates(self, lsrp, engine):
        run = _engines(assemble_penalized(lsrp, 50.0))[engine]
        cfg = ApgConfig(epsilon=1e-9, max_iters=40, restart=True,
                        keep_iterates=True)
        x, trace = run(np.zeros(lsrp.dim), cfg)
        assert len(trace.iterates) == trace.total_iterations + 1
        assert _distinct(trace.iterates + [x])
        assert trace.iterates[-1].tobytes() == x.tobytes()
        # consecutive rows differ: each row is its iterate, not a buffer
        assert any(a.tobytes() != b.tobytes()
                   for a, b in zip(trace.iterates, trace.iterates[1:]))

    @pytest.mark.parametrize("runner", [apb_apg, apb_apg_sc])
    def test_ladder_stage_outputs(self, lsrp, runner):
        ladder = LadderConfig(gamma0=1.0, nu=10.0, eta=10.0, epsilon0=1e-4,
                              stop_epsilon=1e-7)
        cfg = ApgConfig(epsilon=1e-4, max_iters=300, step_tolerance=1e-10,
                        restart=True, keep_iterates=True)
        x, stages = runner(lsrp, np.zeros(lsrp.dim), ladder, cfg)
        assert len(stages) > 1
        outputs = [s.x for s in stages]
        assert _distinct(outputs + [x])
        rows = [it for s in stages for it in s.trace.iterates]
        assert _distinct(outputs + rows)
        for s in stages:
            assert s.x.tobytes() == s.trace.iterates[-1].tobytes()

    def test_subgrad_best_iterate_is_the_best_one(self, lrp):
        instance, x_ref = lrp
        objective, run = _subgrad(instance, x_ref, iters=400, keep=True)
        x_best, trace = run()
        values = [objective.value(it) for it in trace.iterates]
        best = min(values)
        first = values.index(best)
        assert x_best.tobytes() == trace.iterates[first].tobytes()
        assert trace.phi_best[-1] == best
        # the best iterate is not the last one here, so a buffer that kept
        # moving would have shown
        assert first < len(values) - 1
        assert _distinct(trace.iterates + [x_best])
