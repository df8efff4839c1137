"""The ``sbopt`` run log: silent by default, DEBUG records at G*
checkpoints, F* gammas and ladder stages, and a WARNING whenever an engine
run, a ladder stage or a reference run ends on its iteration cap, or a
min-norm G* fails its certificate."""

import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import sbopt
from helpers import toy_quadratic_instance
from sbopt.adaptive import LadderConfig, apb_apg
from sbopt.apg import ApgConfig
from sbopt.bench.run import build_config, run_experiment
from sbopt.bench.synth import synth_instance, synth_lrp, synth_lsrp
from sbopt.errors import Nonconvergence
from sbopt.model import min_norm_problem
from sbopt.reference import lower_opt_value, upper_opt_value


def _messages(caplog, level):
    return [r.getMessage() for r in caplog.records
            if r.levelno == level and r.name.startswith("sbopt")]


def test_silent_by_default():
    code = ("import logging, sbopt; "
            "logging.getLogger('sbopt.reference').warning('unseen')")
    src = os.path.dirname(os.path.dirname(sbopt.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stderr == "" and out.stdout == ""
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("sbopt").handlers)


def test_g_star_checkpoints(caplog):
    caplog.set_level(logging.DEBUG, logger="sbopt")
    report = lower_opt_value(synth_lrp(30, 8, seed=5))
    checkpoints = [m for m in _messages(caplog, logging.DEBUG)
                   if m.startswith("G* checkpoint")]
    assert checkpoints
    assert f"{report.iterations} iterations" in checkpoints[-1]


def test_f_star_gammas(caplog):
    caplog.set_level(logging.DEBUG, logger="sbopt")
    inst = synth_instance("lsrp", 20, 40, 2, tau=0.5)
    g_star = lower_opt_value(inst).g_star
    up = upper_opt_value(inst, g_star, relaxation=1e-9)
    gammas = [m for m in _messages(caplog, logging.DEBUG)
              if m.startswith("F* gamma=")]
    assert len(gammas) == up.f_star_solves
    assert repr(up.f_star_lower) in gammas[-1]
    assert not _messages(caplog, logging.WARNING)


def test_ladder_stages_and_a_capped_stage(caplog):
    caplog.set_level(logging.DEBUG, logger="sbopt")
    ladder = LadderConfig(gamma0=1.0, nu=10.0, eta=10.0, epsilon0=1e-2,
                          stop_epsilon=1e-4)
    _, stages = apb_apg(toy_quadratic_instance(), np.zeros(1), ladder,
                        ApgConfig(epsilon=1e-2, max_iters=3))
    debug = [m for m in _messages(caplog, logging.DEBUG)
             if m.startswith("ladder stage")]
    assert len(debug) == len(stages) == 3
    capped = [s.index for s in stages if s.trace.terminal_reason == "max_iters"]
    warnings = _messages(caplog, logging.WARNING)
    assert capped and len(warnings) == len(capped)
    assert all("3-iteration cap" in m for m in warnings)


def test_capped_engine_run_in_an_experiment(caplog, tmp_path):
    caplog.set_level(logging.WARNING, logger="sbopt")
    cfg = build_config({"preset": "lrp-desk", "max_iters": 5})
    report = run_experiment(cfg)
    assert report.solvers["pb_apg"].total_iterations == 5
    assert _messages(caplog, logging.WARNING) == [
        "pb_apg ended on its 5-iteration cap"]


@pytest.mark.parametrize("which", ["lower", "upper", "min_norm"])
def test_capped_reference_run_warns_and_raises(caplog, which):
    caplog.set_level(logging.WARNING, logger="sbopt")
    rng = np.random.default_rng(11)
    # the L1 ball binds, so G* takes the accelerated route
    inst = min_norm_problem(rng.normal(size=(20, 5)), rng.normal(size=20),
                            l1_radius=0.5)
    with pytest.raises(Nonconvergence) as raised:
        if which == "lower":
            # the gradient-mapping norm first meets 1e-300, at 0.0, after
            # 41 iterations; at 20 it is 1.9e-9
            lower_opt_value(inst, tolerance=1e-300, max_iters=20)
        elif which == "upper":
            upper_opt_value(inst, lower_opt_value(inst).g_star,
                            max_iters_per_solve=2)
        else:
            # the scaled normal-equation residual is 2.6e-17, above 1e-30
            lower_opt_value(synth_lsrp(100, 190, 3), tolerance=1e-30)
    (message,) = _messages(caplog, logging.WARNING)
    if which == "min_norm":
        assert "certificate" in message and raised.value.certificate > 0
    else:
        assert "cap" in message
