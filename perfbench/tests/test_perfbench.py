"""The benchmark's own tests: input generator, metric names, spans, the
speed probe, set-up-only runs and a smoke run of the closed loop at tiny
sizes.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import json

import numpy as np
import pytest

import record_expected
import run
import spans
import speed
import workloads
from sbopt.bench.data import parse_libsvm

BENCH = run.load_benchmark()
E2E = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]

TINY = {
    "lsrp": workloads.Workload(
        "tiny-lsrp",
        {"problem": "lsrp-synth", "m": 12, "n": 20, "seed": 3, "gamma": 1e3,
         "gamma0": 1.0, "nu": 20.0, "eta": 10.0, "epsilon0": 1e-4,
         "stop_epsilon": 1e-6, "max_iters": 3000, "record_every": 50,
         "cert_g_target": 1.0},
        ["pb_apg", "apb_apg_sc"]),
    "libsvm": workloads.Workload(
        "tiny-libsvm",
        {"preset": "lrp-a1a", "max_iters": 3000, "subgrad_max_iters": 200,
         "cert_g_target": 1.0},
        ["pb_apg", "subgrad"], libsvm=(40, 8, 0.3)),
}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("record"))
    return {k: record_expected.record(w, 0, work) for k, w in TINY.items()}


def _run(key, recorded, trace, log=None):
    lines = []
    result = run.run_workload(TINY[key], 5, 0.0, trace, recorded[key],
                              log=lines.append if log is None else log)
    return result, lines


class TestGenerator:
    def test_same_seed_same_bytes(self):
        assert (workloads.libsvm_text(4, 60, 15, 0.1)
                == workloads.libsvm_text(4, 60, 15, 0.1))

    def test_seed_permutes_one_problem(self):
        a = workloads.libsvm_text(1, 60, 15, 0.1)
        b = workloads.libsvm_text(2, 60, 15, 0.1)
        assert a != b
        da = parse_libsvm(a, coerce_binary_labels=True)
        db = parse_libsvm(b, coerce_binary_labels=True)
        assert (da.n_rows, da.n_cols) == (db.n_rows, db.n_cols) == (60, 15)
        Xa, Xb = da.to_dense(), db.to_dense()
        assert Xa.sum() == Xb.sum()
        # same multiset of column sums and of labelled row sums
        assert sorted(Xa.sum(axis=0)) == sorted(Xb.sum(axis=0))
        assert (sorted(zip(da.labels, Xa.sum(axis=1)))
                == sorted(zip(db.labels, Xb.sum(axis=1))))

    def test_labels_are_zero_one(self):
        labels = {line.split()[0] for line in
                  workloads.libsvm_text(0, 80, 20, 0.1).splitlines()}
        assert labels == {"0", "1"}


class TestSpec:
    def test_workloads_match_benchmark(self):
        assert (list(workloads.load_workloads())
                == [w["name"] for w in BENCH["workloads"]])
        assert set(workloads.load_expected()) == set(workloads.load_workloads())

    def test_layer_table_matches_benchmark(self):
        with open(workloads.SPEC_PATH, encoding="utf-8") as fh:
            table = json.load(fh)["per_layer"]
        assert list(table) == PER_LAYER
        names = {w["name"] for w in BENCH["workloads"]}
        for entry in table.values():
            for metric, on in entry["moves"].items():
                assert metric in E2E + list(run.PHASES) and set(on) <= names


class TestSmoke:
    def test_end_to_end_names(self, recorded):
        result, lines = _run("lsrp", recorded, trace=False)
        assert result["failed"] == 0, lines
        assert list(result["metrics"]) == E2E
        assert all(v > 0 for v in result["metrics"].values())
        phases = result["phases"]
        assert phases["ref_s"] == pytest.approx(phases["gstar_s"] + phases["fstar_s"])

    def test_per_layer_names(self, recorded):
        result, lines = _run("libsvm", recorded, trace=True)
        assert result["failed"] == 0, lines
        assert sorted(result["metrics"]) == sorted(PER_LAYER)
        m = result["metrics"]
        assert m["subgrad.iters"] == 200 and m["bench.data.parse_s"] > 0
        assert m["bench.data.parse_mb_per_s"] > 0
        assert 0 < m["reference.lower.useful_ratio"] <= 1

    def test_gate_reports_a_wrong_reference(self, recorded):
        wrong = dict(recorded["lsrp"], f_star=recorded["lsrp"]["f_star"] + 1.0)
        lines = []
        result = run.run_workload(TINY["lsrp"], 5, 0.0, False, wrong,
                                  log=lines.append)
        assert result["failed"] == result["attempted"] // 4  # F* of each rep
        assert list(result["metrics"]) == E2E  # times are still reported
        assert all("F*" in line for line in lines)


class TestSpans:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        from sbopt.bench import run as runmod

        values = workloads.make_inputs(
            TINY["lsrp"], 0, str(tmp_path_factory.mktemp("spans")))
        tracer = spans.Tracer()
        tracer.experiment = 1
        tracer.install()
        try:
            runmod.run_experiment(runmod.build_config(values))
        finally:
            tracer.uninstall()
        return tracer.experiment_spans(1)

    def test_uninstall_restores_the_library(self):
        import sbopt.apg
        import sbopt.model
        import sbopt.reference

        before = (sbopt.reference.pb_apg, sbopt.model.PenalizedObjective.value)
        tracer = spans.Tracer()
        tracer.install()
        assert sbopt.reference.pb_apg is not before[0]
        tracer.uninstall()
        assert (sbopt.reference.pb_apg,
                sbopt.model.PenalizedObjective.value) == before
        assert sbopt.apg.pb_apg is before[0]

    def test_spans_nest(self, traced):
        sp = traced
        assert len(sp) > 100
        child = np.flatnonzero(sp.parent >= 0)
        parent = sp.parent[child]
        assert np.all(parent < child)
        assert np.all(sp.start[parent] <= sp.start[child])
        assert np.all(sp.end[child] <= sp.end[parent])
        assert sp.calls("bench.run.run_experiment") == 1
        assert np.count_nonzero(sp.parent < 0) == 1

    def test_self_times_non_negative_and_add_up(self, traced):
        sp = traced
        assert np.all(sp.self_time >= 0)
        root = sp.duration[sp.parent < 0].sum()
        assert sum(sp.layer_self_s().values()) == pytest.approx(root / 1e9)
        parts = spans.engine_breakdown(sp)
        span = parts.pop("span")
        assert span > 0 and sum(parts.values()) == pytest.approx(span)


class TestSpeedProbe:
    def _probe(self, starts, durations):
        probe = speed.Probe()
        probe.start_ns = list(starts)
        for d in durations:
            probe._busy.append(probe._busy[-1] + d)
        return probe

    def test_scales_by_the_kernel_time_inside_the_interval(self):
        ref = int(speed.REF_S * 1e9)
        n = speed.MIN_SAMPLES
        # n samples at reference speed, then n at half speed from t = 1 s
        starts = [i * 10**6 for i in range(n)] + [10**9 + i * 5 * 10**6
                                                  for i in range(n)]
        probe = self._probe(starts, [ref] * n + [2 * ref] * n)
        a, b = 10**9, 10**9 + n * 5 * 10**6
        # wall time minus the handler's time, at twice the reference speed
        assert probe.seconds(a, b) == pytest.approx((b - a - 2 * n * ref) / 2e9)

    def test_short_interval_takes_the_last_samples(self):
        ref = int(speed.REF_S * 1e9)
        n = speed.MIN_SAMPLES
        probe = self._probe([i * 10**6 for i in range(n)], [ref] * n)
        assert probe.seconds(10**9, 10**9 + 5000) == pytest.approx(5e-6)

    def test_samples_on_the_timer_and_restores_the_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        probe = speed.Probe()
        probe.start()
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 0.3e9:
            sum(range(1000))
        t1 = time.perf_counter_ns()
        probe.stop()
        assert signal.getsignal(signal.SIGALRM) is before
        assert len(probe.start_ns) > speed.MIN_SAMPLES + 2
        assert 0 < probe.seconds(t0, t1)


def test_setup_once_stops_before_the_reference(tmp_path):
    from sbopt.bench import run as runmod

    values = workloads.make_inputs(TINY["libsvm"], 0, str(tmp_path))
    cfg = runmod.build_config(values)
    orig = runmod.lower_opt_value
    probe = speed.Probe()
    probe.start()
    try:
        assert 0 < run.setup_once(cfg, probe) < 5.0
    finally:
        probe.stop()
    assert runmod.lower_opt_value is orig
