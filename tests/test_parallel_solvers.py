"""Solvers on forked helpers: ``run_experiment`` writes the same files, error
rows and log records on both paths, raises what a helper raised, and leaves
no child behind.  ``FORK_MIN_S`` picks the path: 0 forks whenever forking
is safe, infinity never forks."""

import logging
import math
import os
import shutil
import threading
import time

import pytest

from sbopt.bench import run as run_module
from sbopt.bench.run import build_config, parse_config_file, run_experiment
from sbopt.errors import Nonconvergence

# the two configs of test_solver_error_leaves_its_files_out: the second
# solver of each raises an SboptError
ERROR_CONFIGS = [
    "problem = lsrp-synth\nm = 20\nn = 30\nseed = 1\ntau = 0\n"
    "solvers = pb_apg,pb_apg_sc\ngamma = 1e3\n",
    "preset = lsrp-bench\nm = 20\nn = 30\n"
    "solvers = pb_apg,apb_apg_sc\ngamma0 = 1e250\n"]
DESK = {"preset": "lrp-desk", "m": 40, "n": 10,
        "solvers": "pb_apg,pb_apg_sc", "fixed_clock": True}


@pytest.fixture
def forked(monkeypatch):
    """Force the forked path, or skip where run_experiment cannot take it."""
    if not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the forked path needs os.fork and two usable CPUs")
    threads = len(os.listdir("/proc/self/task"))
    if threads > 1:
        pytest.skip(f"this process runs {threads} OS threads (a BLAS pool), "
                    "so run_experiment takes the serial path")
    monkeypatch.setattr(run_module, "FORK_MIN_S", 0.0)


def _run(values, caplog):
    """The report and the chosen path, from the DEBUG record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sbopt"):
        report = run_experiment(build_config(values))
    chosen = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("solvers: ")]
    assert len(chosen) == 1
    return report, chosen[0]


def _files_on_both_paths(values, out, monkeypatch, caplog):
    """Every file of one run per path, written to the same ``out`` (which
    report.json records), as {name: bytes}."""
    got = []
    for fork_min_s, path in ((math.inf, "serial"), (0.0, "forked")):
        monkeypatch.setattr(run_module, "FORK_MIN_S", fork_min_s)
        shutil.rmtree(out, ignore_errors=True)
        _, chosen = _run({**values, "out_dir": str(out)}, caplog)
        assert chosen.startswith(f"solvers: {path} path")
        got.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return got


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("preset", ["lsrp-bench", "lrp-bench"])
def test_fixed_clock_files_are_the_same_bytes(tmp_path, monkeypatch, caplog,
                                              forked, preset):
    serial, parallel = _files_on_both_paths(
        {"preset": preset, "fixed_clock": True}, tmp_path / "out",
        monkeypatch, caplog)
    assert sorted(serial) == sorted(
        ["pb_apg.csv", "apb_apg.csv", "pb_apg_sc.csv", "apb_apg_sc.csv",
         "summary.csv", "report.json"])
    assert serial == parallel
    _no_child_left()


@pytest.mark.parametrize("text", ERROR_CONFIGS, ids=["no-mu", "overflow"])
def test_error_configs_write_the_same_bytes(tmp_path, monkeypatch, caplog,
                                            forked, text):
    cfg = tmp_path / "err.cfg"
    cfg.write_text(text)
    values = {**parse_config_file(str(cfg)), "fixed_clock": True}
    serial, parallel = _files_on_both_paths(values, tmp_path / "out",
                                            monkeypatch, caplog)
    bad = values["solvers"].split(",")[1]
    assert f"{bad}.csv" not in serial and b",error" in serial["summary.csv"]
    assert serial == parallel


def _one_solver_each(tmp_path, monkeypatch, act):
    """Patch ``_run_one_solver`` so that it notes each caller's pid and, on
    the forked path, the parent first waits (up to 10 s) until a helper has
    noted its own, so that the parent and one helper run one solver each;
    each call then returns ``act(in_parent, name, *args)``."""
    parent, marks = os.getpid(), tmp_path / "pids"
    marks.touch()

    def run_one(name, *args, **kwargs):
        with open(marks, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        deadline = time.monotonic() + 10.0
        while (os.getpid() == parent and run_module.FORK_MIN_S == 0.0
               and time.monotonic() < deadline
               and set(marks.read_text().split()) <= {str(parent)}):
            time.sleep(0.01)
        return act(os.getpid() == parent, name, *args, **kwargs)

    monkeypatch.setattr(run_module, "_run_one_solver", run_one)
    return lambda: set(marks.read_text().split()) - {str(parent)}


def _stub_error(in_parent, name, *args, **kwargs):
    raise Nonconvergence(f"{name}: stub cap")


def test_helper_error_row_matches_the_serial_one(tmp_path, monkeypatch,
                                                 caplog, forked):
    helpers = _one_solver_each(tmp_path, monkeypatch, _stub_error)
    serial, parallel = _files_on_both_paths(DESK, tmp_path / "out",
                                            monkeypatch, caplog)
    assert len(helpers()) == 1  # one of the two error rows came from it
    assert serial == parallel
    assert serial["summary.csv"].count(b",error\n") == 2
    assert b"Nonconvergence: pb_apg_sc: stub cap" in serial["report.json"]
    _no_child_left()


@pytest.mark.parametrize("where", ["helper", "parent"])
def test_other_errors_propagate_and_leave_no_child(tmp_path, monkeypatch,
                                                   caplog, forked, where):
    real = run_module._run_one_solver

    def act(in_parent, name, *args, **kwargs):
        if in_parent == (where == "parent"):
            raise ZeroDivisionError(f"{name} divided by zero")
        return real(name, *args, **kwargs)

    helpers = _one_solver_each(tmp_path, monkeypatch, act)
    with pytest.raises(ZeroDivisionError, match="divided by zero"):
        _run(DESK, caplog)
    assert len(helpers()) == 1
    _no_child_left()
    # and after a normal return
    monkeypatch.setattr(run_module, "_run_one_solver", real)
    assert _run(DESK, caplog)[1].startswith("solvers: forked path, 2 ")
    _no_child_left()


def test_helper_log_records_arrive_in_solver_order(caplog, forked):
    caplog.set_level(logging.WARNING, logger="sbopt")
    _, chosen = _run({**DESK, "m": 200, "n": 50, "max_iters": 5}, caplog)
    assert chosen.startswith("solvers: forked path, 2 process(es)")
    caps = [r.getMessage() for r in caplog.records
            if r.getMessage().endswith("-iteration cap")]
    assert caps == ["pb_apg ended on its 5-iteration cap",
                    "pb_apg_sc ended on its 5-iteration cap"]


def test_a_second_thread_keeps_the_serial_path(monkeypatch, caplog):
    monkeypatch.setattr(run_module, "FORK_MIN_S", 0.0)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _, chosen = _run(DESK, caplog)
    finally:
        stop.set()
        thread.join()
    assert chosen.startswith("solvers: serial path, 1 process(es)")


def test_a_quick_f_star_keeps_the_serial_path(caplog):
    # lrp-desk's F* takes milliseconds, under the shipped FORK_MIN_S
    _, chosen = _run(DESK, caplog)
    assert chosen.startswith("solvers: serial path, 1 process(es)")
