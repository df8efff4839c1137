"""Experiment orchestration: build a problem, compute references, run the
requested solvers, certify, and emit CSV traces plus a summary table.

Config files are plain text ``key = value`` lines ('#' comments allowed);
command-line flags override file values and presets fill defaults.  Emitted
numbers carry 17 significant digits.  The ``fixed_clock`` switch zeroes the
elapsed column so that identical configs produce byte-identical files.
Solvers may run side by side on forked helpers (see ``_run_solvers``); the
files are the same bytes either way.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import pickle
import time
import typing
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import penalty
from ..adaptive import LadderConfig, apb_apg, apb_apg_sc
from ..apg import ApgConfig, gradient_mapping_norm, pb_apg, pb_apg_sc
from ..errors import ConfigError, InvalidLadder, SboptError
from ..model import (BilevelInstance, NonsmoothTerm, assemble_penalized,
                     elastic_net_problem, is_count, logistic_min_norm_problem)
from ..reference import ReferenceReport, lower_opt_value, upper_opt_value
from ..subgrad import (Diminishing, Domain, SubgradConfig,
                       assemble_subgradient, subgrad_solve)
from .data import augment_collinear, minmax_scale, parse_libsvm_path
from .synth import synth_instance

log = logging.getLogger(__name__)

CSV_HEADER = "iter,elapsed_s,F_value,G_gap,step_norm,gamma,eps_stage"
SUMMARY_HEADER = ("method,total_iterations,lower_level_value,lower_level_gap,"
                  "upper_level_value,upper_level_gap,certificate")

# How F* was found: the ReferenceReport fields report.json copies as is
F_STAR_KEYS = ("f_star_lower", "f_star_upper", "f_star_method",
               "f_star_solves", "f_star_iterations")

# The solver-level oracle calls each solver's report.json entry counts
# (see SolverTrace.oracle_calls), summed over its ladder stages
ORACLE_CALL_KEYS = ("gradient", "prox", "value", "projection")

KNOWN_SOLVERS = ("pb_apg", "apb_apg", "pb_apg_sc", "apb_apg_sc", "subgrad")
KNOWN_PROBLEMS = ("lrp-synth", "lsrp-synth", "lrp-libsvm", "lsrp-libsvm")

# Solvers run on forked helpers only when the F* reference, the same engine
# on the same objective, took at least this many seconds.  A fork plus
# waitpid costs about 1.5 ms, and a helper's copy-on-write faults several
# more: forking on every run moved the lrp-bench medians (F* about 5 ms)
# from 10.8-15.1 to 15.8-18.2 ms, while lsrp-bench (F* about 55 ms) fell
# from 1.5 to 0.8 s on two CPUs.
FORK_MIN_S = 0.02

# Benchmark parameter set: direct penalty 1e5, practical step stop 1e-10,
# ladder 1/32 * 20^k with accuracies 1e-6 / 10^k down to 1e-10.
_BENCH: Dict[str, object] = {
    "solvers": "pb_apg,apb_apg,pb_apg_sc,apb_apg_sc",
    "gamma": 1e5, "gamma0": 1.0 / 32.0, "nu": 20.0, "eta": 10.0,
    "epsilon0": 1e-6, "stop_epsilon": 1e-10, "step_tol": 1e-10,
    "restart": True, "cert_g_target": 1e-7, "record_every": 100,
}

PRESETS: Dict[str, Dict[str, object]] = {
    # Desk-scale single-solver smoke run.
    "lrp-desk": {
        "problem": "lrp-synth", "m": 200, "n": 50, "seed": 7,
        "solvers": "pb_apg", "gamma": 1e4, "step_tol": 1e-10,
        "restart": True, "cert_g_target": 1e-7, "record_every": 100,
    },
    "lrp-bench": {"problem": "lrp-synth", "m": 200, "n": 50, "seed": 7,
                  **_BENCH},
    "lsrp-bench": {"problem": "lsrp-synth", "m": 100, "n": 190, "seed": 3,
                   **_BENCH},
    # Requires a user-supplied LIBSVM file via data=...; advisory targets.
    "lrp-a1a": {
        "problem": "lrp-libsvm", "solvers": "pb_apg",
        "gamma": 1e5, "step_tol": 1e-10, "restart": True,
        "cert_g_target": 1e-6, "record_every": 100,
    },
}


@dataclass
class ExperimentConfig:
    problem: str
    solvers: List[str]
    data: Optional[str] = None
    m: int = 100
    n: int = 50
    seed: int = 0
    gamma: Optional[float] = None
    epsilon: Optional[float] = None
    beta: Optional[float] = None
    alpha: Optional[float] = None
    rho: Optional[float] = None
    lf: Optional[float] = None
    gamma0: Optional[float] = None
    nu: Optional[float] = None
    eta: Optional[float] = None
    epsilon0: Optional[float] = None
    stop_epsilon: float = 1e-10
    max_iters: int = 400_000
    step_tol: float = 1e-10
    restart: bool = True
    record_every: int = 100
    subgrad_max_iters: int = 20_000
    theta: float = 10.0
    tau: float = 0.02
    relaxation: float = 1e-9
    cert_g_target: float = 1e-6
    cert_f_target: float = math.inf
    out_dir: Optional[str] = None
    fixed_clock: bool = False


@dataclass
class SolverResult:
    name: str
    total_iterations: int = 0
    lower_value: float = math.nan
    lower_gap: float = math.nan
    upper_value: float = math.nan
    upper_gap: float = math.nan
    cert_passed: bool = False
    wall_seconds: float = 0.0
    error: Optional[str] = None
    # at x_final for the objective of the last gamma; None for subgrad
    gradient_mapping_norm: Optional[float] = None
    x_final: Optional[np.ndarray] = None
    segments: list = field(default_factory=list)  # (gamma, eps_stage, trace)


@dataclass
class RunReport:
    config: dict
    lower: ReferenceReport  # G*, as lower_opt_value returns it
    upper: ReferenceReport  # F*, as upper_opt_value returns it
    solvers: Dict[str, SolverResult] = field(default_factory=dict)
    wall_total: float = 0.0
    files: List[str] = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        return all(r.cert_passed for r in self.solvers.values() if r.error is None)

    @property
    def any_solver_error(self) -> bool:
        return any(r.error is not None for r in self.solvers.values())


# ---------------------------------------------------------------------------
# config handling


# Each key parses to the type of its ExperimentConfig field (the element
# type of an Optional or List); ``solvers`` stays a comma-separated string.
_KEY_TYPES = {name: (typing.get_args(hint) or (hint,))[0] for name, hint
              in typing.get_type_hints(ExperimentConfig).items()}
_KEY_TYPES["preset"] = str


def parse_config_file(path: str) -> Dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    raw: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"expected 'key = value' at line {line_no}",
                                  field=os.path.basename(path))
            key, value = stripped.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def _convert(key: str, value):
    if not isinstance(value, str):
        return value
    key_type = _KEY_TYPES[key]
    try:
        if key_type is bool:
            if value.lower() in ("1", "true", "yes", "on"):
                return True
            if value.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if key_type in (int, float):
            return key_type(value)
    except ValueError:
        raise ConfigError(f"cannot parse value {value!r}", field=key)
    return value


# The range each numeric key must lie in; an unset (None) key is not checked.
_RANGES = (
    (("m", "n", "max_iters", "record_every", "subgrad_max_iters"),
     lambda v: is_count(v, 1), "a positive integer"),
    (("seed",), is_count, "a nonnegative integer"),
    (("gamma", "epsilon", "beta", "rho", "lf", "gamma0", "epsilon0",
      "stop_epsilon", "theta", "relaxation"),
     lambda v: 0.0 < v < math.inf, "positive and finite"),
    (("step_tol", "tau"), lambda v: 0.0 <= v < math.inf,
     "nonnegative and finite"),
    (("alpha",), lambda v: 1.0 <= v < math.inf, "at least 1 and finite"),
    (("nu", "eta"), lambda v: 1.0 < v < math.inf, "above 1 and finite"),
)


def build_config(values: Dict[str, object]) -> ExperimentConfig:
    """Merge a preset (if named) under the given values and validate."""
    merged: Dict[str, object] = {}
    preset = values.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} "
                              f"(known: {', '.join(sorted(PRESETS))})", field="preset")
        merged.update(PRESETS[preset])
    for key, value in values.items():
        if key == "preset" or value is None:
            continue
        merged[key] = value

    for key in merged:
        if key not in _KEY_TYPES:
            raise ConfigError("unknown configuration key", field=key)
    merged = {k: _convert(k, v) for k, v in merged.items()}

    problem = merged.get("problem")
    if problem is None:
        raise ConfigError("a problem (or preset) is required", field="problem")
    if problem not in KNOWN_PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r} "
                          f"(known: {', '.join(KNOWN_PROBLEMS)})", field="problem")
    solvers_raw = merged.get("solvers", "")
    solvers = [s.strip() for s in str(solvers_raw).split(",") if s.strip()]
    if not solvers:
        raise ConfigError("at least one solver is required", field="solvers")
    for i, s in enumerate(solvers):
        if s not in KNOWN_SOLVERS:
            raise ConfigError(f"unknown solver {s!r} "
                              f"(known: {', '.join(KNOWN_SOLVERS)})", field="solvers")
        if s in solvers[:i]:
            raise ConfigError(f"solver {s!r} is listed twice", field="solvers")

    kwargs = {k: v for k, v in merged.items() if k != "solvers"}
    cfg = ExperimentConfig(solvers=solvers, **kwargs)

    if cfg.problem.endswith("libsvm") and not cfg.data:
        raise ConfigError("libsvm problems need a data path", field="data")
    needs_gamma = [s for s in solvers if s in ("pb_apg", "pb_apg_sc", "subgrad")]
    if needs_gamma and cfg.gamma is None and (cfg.epsilon is None or cfg.beta is None):
        raise ConfigError(
            f"solvers {needs_gamma} need either gamma or (epsilon, beta)",
            field="gamma")
    needs_ladder = [s for s in solvers if s.startswith("apb")]
    if needs_ladder:
        for key in ("gamma0", "nu", "eta", "epsilon0"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"ladder solvers {needs_ladder} need {key}",
                                  field=key)
    for keys, in_range, rule in _RANGES:
        for key in keys:
            value = getattr(cfg, key)
            if value is not None and not in_range(value):
                raise ConfigError(f"must be {rule}, got {value!r}", field=key)
    if needs_ladder:
        try:
            _ladder_config(cfg)
        except InvalidLadder as exc:
            raise ConfigError(str(exc), field="stop_epsilon")
    return cfg


def _ladder_config(cfg: ExperimentConfig) -> LadderConfig:
    return LadderConfig(gamma0=cfg.gamma0, nu=cfg.nu, eta=cfg.eta,
                        epsilon0=cfg.epsilon0, stop_epsilon=cfg.stop_epsilon)


# ---------------------------------------------------------------------------
# problem construction


def _build_instance(cfg: ExperimentConfig) -> BilevelInstance:
    overrides = {key: value for key, value in (
        ("alpha", cfg.alpha), ("rho", cfg.rho), ("subgrad_diameter", cfg.lf))
        if value is not None}

    if cfg.problem == "lrp-synth":
        instance = synth_instance("lrp", cfg.m, cfg.n, cfg.seed, theta=cfg.theta)
    elif cfg.problem == "lsrp-synth":
        instance = synth_instance("lsrp", cfg.m, cfg.n, cfg.seed, tau=cfg.tau)
    elif cfg.problem == "lrp-libsvm":
        data = parse_libsvm_path(cfg.data, coerce_binary_labels=True)
        # the loss term keeps its own read-only copy of the matrix
        instance = logistic_min_norm_problem(data.features, data.labels,
                                             l1_radius=cfg.theta)
    else:  # lsrp-libsvm: scale to [0,1], add intercept and collinear columns
        data = parse_libsvm_path(cfg.data)
        data = minmax_scale(data)
        data = augment_collinear(data, copies=min(90, data.n_cols),
                                 add_intercept=True)
        instance = elastic_net_problem(data.features, data.labels, tau=cfg.tau)
    if overrides:
        instance = dataclasses.replace(instance, **overrides)
    return instance


def _resolve_gamma(cfg: ExperimentConfig, instance: BilevelInstance):
    """Direct gamma wins; otherwise derive it from the error-bound constants."""
    if cfg.gamma is not None:
        return cfg.gamma, None
    plan = penalty.make_plan(instance.alpha, instance.rho,
                             instance.subgrad_diameter, cfg.epsilon, cfg.beta)
    return plan.gamma, plan


# ---------------------------------------------------------------------------
# solver runs


def _apg_config(cfg: ExperimentConfig, epsilon: float) -> ApgConfig:
    return ApgConfig(epsilon=epsilon, max_iters=cfg.max_iters,
                     step_tolerance=cfg.step_tol, restart=cfg.restart,
                     record_every=cfg.record_every)


def _subgrad_baseline(instance: BilevelInstance, gamma: float, x_ref):
    """The baseline's ``assemble_subgradient`` objective, its domain and its
    step radius ||x_ref|| + 1: an indicator g2 is the projection domain,
    else an L1 ball of twice ||x_ref||_1, and at least 2."""
    g2 = instance.g2
    domain = Domain(g2 if g2.is_indicator else NonsmoothTerm.indicator_l1_ball(
        2.0 * max(1.0, float(np.sum(np.abs(x_ref))))))
    radius = float(np.linalg.norm(x_ref)) + 1.0
    return assemble_subgradient(instance, gamma, domain), domain, radius


def _run_one_solver(name: str, cfg: ExperimentConfig,
                    instance: BilevelInstance, gamma: float, x_ref):
    """Returns (x_final, segments) with segments = [(gamma, eps_stage, trace)]."""
    x0 = np.zeros(instance.dim)
    run_eps = cfg.epsilon if cfg.epsilon is not None else 1e-9
    if name in ("pb_apg", "pb_apg_sc"):
        objective = assemble_penalized(instance, gamma)
        if name == "pb_apg":
            x, trace = pb_apg(objective, x0, _apg_config(cfg, run_eps))
        else:
            mu = objective.strong_convexity
            if mu <= 0:
                raise ConfigError("pb_apg_sc needs a strongly convex smooth "
                                  "upper part", field="solvers")
            x, trace = pb_apg_sc(objective, mu, x0, _apg_config(cfg, run_eps))
        if trace.terminal_reason == "max_iters":
            log.warning("%s ended on its %d-iteration cap", name, cfg.max_iters)
        return x, [(gamma, run_eps, trace)]
    if name in ("apb_apg", "apb_apg_sc"):
        ladder = _ladder_config(cfg)
        runner = apb_apg_sc if name == "apb_apg_sc" else apb_apg
        x, stages = runner(instance, x0, ladder, _apg_config(cfg, cfg.epsilon0))
        return x, [(s.gamma, s.epsilon, s.trace) for s in stages]
    if name == "subgrad":
        objective, domain, radius = _subgrad_baseline(instance, gamma, x_ref)
        sg_cfg = SubgradConfig(schedule=Diminishing(radius),
                               max_iters=cfg.subgrad_max_iters, domain=domain,
                               record_every=cfg.record_every)
        x, trace = subgrad_solve(objective, domain.project(x0), sg_cfg)
        return x, [(gamma, run_eps, trace)]
    raise ConfigError(f"unknown solver {name!r}", field="solvers")


def _outcome(name: str, cfg: ExperimentConfig, instance: BilevelInstance,
             gamma: float, x_ref) -> SolverResult:
    """The run's x_final, segments and wall time, or the error of the
    SboptError it raised."""
    res, t0 = SolverResult(name=name), time.perf_counter()
    try:
        res.x_final, res.segments = _run_one_solver(name, cfg, instance,
                                                    gamma, x_ref)
    except SboptError as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    else:
        res.wall_seconds = time.perf_counter() - t0
    return res


class _Hold(logging.Handler):
    """Holds records as ``QueueHandler.prepare`` leaves them: the message
    formatted, and no arguments or exception left to pickle."""

    def __init__(self):
        super().__init__()
        self.held: list = []

    def emit(self, record):
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.held.append(record)


def _run_solvers(cfg: ExperimentConfig, fstar_s: float,
                 *args) -> Dict[str, SolverResult]:
    """Each solver's ``_outcome(name, cfg, *args)``, in solver order.  If
    F* took ``FORK_MIN_S`` or more and this process runs one OS thread (a
    forked child of more may deadlock), up to one process per CPU runs
    them: each takes its next solver's index from one pipe, a byte at a
    time (such a read is atomic), and forked helpers pickle what they ran
    to their own pipes.  The sbopt log records are held, then handled in
    solver order."""
    try:
        procs = (1 if fstar_s < FORK_MIN_S or not hasattr(os, "fork")
                 or len(os.listdir("/proc/self/task")) > 1
                 else min(len(cfg.solvers), len(os.sched_getaffinity(0))))
    except (OSError, AttributeError):  # no /proc or no sched_getaffinity
        procs = 1
    log.debug("solvers: %s path, %d process(es), F* took %.4f s",
              "forked" if procs > 1 else "serial", procs, fstar_s)
    if procs == 1:
        return {name: _outcome(name, cfg, *args) for name in cfg.solvers}

    def take():  # name -> (outcome, the log records it made)
        done = {}
        while index := os.read(queue, 1):
            name, start = cfg.solvers[index[0]], len(sink.held)
            done[name] = _outcome(name, cfg, *args), sink.held[start:]
        return done

    queue, w = os.pipe()
    os.write(w, bytes(range(len(cfg.solvers))))
    os.close(w)
    sbopt_log, sink, helpers, sent = logging.getLogger("sbopt"), _Hold(), [], []
    saved = sbopt_log.handlers, sbopt_log.propagate
    sbopt_log.handlers, sbopt_log.propagate = [sink], False
    try:
        for _ in range(procs - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # a helper: it never returns
                try:
                    with open(w, "wb") as fh:
                        try:
                            pickle.dump(take(), fh)
                        except BaseException as exc:  # the parent raises it
                            pickle.dump(exc, fh)
                finally:
                    os._exit(0)
            os.close(w)
            helpers.append((pid, open(r, "rb")))
        done = take()
    finally:
        sbopt_log.handlers, sbopt_log.propagate = saved
        os.read(queue, len(cfg.solvers))  # after a raise, helpers stop early
        os.close(queue)
        for pid, fh in helpers:
            with fh:
                sent.append(fh.read())
            os.waitpid(pid, 0)
    for data in sent:
        got = pickle.loads(data)  # EOFError if a helper died unheard
        if isinstance(got, BaseException):
            raise got
        done.update(got)
    for name in cfg.solvers:
        for record in done[name][1]:
            logging.getLogger(record.name).handle(record)
    return {name: done[name][0] for name in cfg.solvers}


# ---------------------------------------------------------------------------
# emission


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_solver_csv(path: str, segments, fixed_clock: bool) -> None:
    lines = [CSV_HEADER]
    offset = 0
    for gamma, eps_stage, trace in segments:
        for i, k in enumerate(trace.ks):
            elapsed = 0.0 if fixed_clock else trace.elapsed[i]
            lines.append(",".join([
                str(offset + k), _fmt(elapsed), _fmt(trace.f_values[i]),
                _fmt(trace.g_gaps[i]), _fmt(trace.step_norms[i]),
                _fmt(gamma), _fmt(eps_stage)]))
        offset += trace.total_iterations
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_summary_csv(path: str, report: RunReport) -> None:
    lines = [SUMMARY_HEADER]
    for name, res in report.solvers.items():
        cert = "error" if res.error is not None else ("pass" if res.cert_passed else "fail")
        lines.append(",".join([
            name, str(res.total_iterations), _fmt(res.lower_value),
            _fmt(res.lower_gap), _fmt(res.upper_value), _fmt(res.upper_gap),
            cert]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _report_json(report: RunReport, fixed_clock: bool) -> str:
    lower, upper = report.lower, report.upper
    payload = {
        "config": report.config,
        "references": {
            "g_star": lower.g_star,
            "g_star_certificate": lower.residual_certificate,
            "g_star_method": lower.method,
            "g_star_iterations": lower.iterations,
            "f_star": upper.f_star,
            "relaxation": upper.relaxation_epsilon,
            "achieved_relaxation_gap": upper.achieved_lower_gap,
            **{key: getattr(upper, key) for key in F_STAR_KEYS},
        },
        "solvers": {
            name: {
                "total_iterations": res.total_iterations,
                "lower_level_value": res.lower_value,
                "lower_level_gap": res.lower_gap,
                "upper_level_value": res.upper_value,
                "upper_level_gap": res.upper_gap,
                "certificate": res.cert_passed,
                "error": res.error,
                "wall_seconds": 0.0 if fixed_clock else res.wall_seconds,
                "terminal_reason": (res.segments[-1][2].terminal_reason
                                    if res.segments else None),
                "restarts": sum(t.restarts for _, _, t in res.segments),
                "stages_on_cap": sum(t.terminal_reason == "max_iters"
                                     for _, _, t in res.segments),
                "gradient_mapping_norm": res.gradient_mapping_norm,
                "oracle_calls": {key: sum(t.oracle_calls[key]
                                          for _, _, t in res.segments)
                                 for key in ORACLE_CALL_KEYS},
            } for name, res in report.solvers.items()
        },
        "wall_total": 0.0 if fixed_clock else report.wall_total,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# entry point


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Compute references, run every configured solver, certify and emit."""
    t_start = time.perf_counter()
    instance = _build_instance(cfg)
    gamma, plan = _resolve_gamma(cfg, instance)

    ref = lower_opt_value(instance)
    instance = instance.with_lower_opt_value(ref.g_star)
    t_upper = time.perf_counter()
    upper = upper_opt_value(instance, ref.g_star, relaxation=cfg.relaxation)
    report = RunReport(dataclasses.asdict(cfg), ref, upper)
    report.solvers = _run_solvers(cfg, time.perf_counter() - t_upper,
                                  instance, gamma, ref.x)

    for name, res in report.solvers.items():
        if res.error is not None:
            continue
        x, segments = res.x_final, res.segments
        res.total_iterations = sum(t.total_iterations for _, _, t in segments)
        res.lower_value = instance.lower_value(x)
        res.lower_gap = res.lower_value - ref.g_star
        res.upper_value = instance.upper_value(x)
        res.upper_gap = res.upper_value - upper.f_star
        if name != "subgrad":
            res.gradient_mapping_norm = gradient_mapping_norm(
                assemble_penalized(instance, segments[-1][0]), x)
        if name == "subgrad":
            # a baseline, not a certified solver: any gap that is a number
            res.cert_passed = not math.isnan(res.lower_gap)
        elif plan is not None:
            cert = penalty.certify(instance, x, plan, f_star=upper.f_star)
            res.cert_passed = cert.passed
        else:
            res.cert_passed = (res.lower_gap <= cfg.cert_g_target
                               and res.upper_gap <= cfg.cert_f_target)

    report.wall_total = time.perf_counter() - t_start

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, res in report.solvers.items():
            if res.error is not None:
                continue
            path = os.path.join(cfg.out_dir, f"{name}.csv")
            _write_solver_csv(path, res.segments, cfg.fixed_clock)
            report.files.append(path)
        summary = os.path.join(cfg.out_dir, "summary.csv")
        _write_summary_csv(summary, report)
        report.files.append(summary)
        report_path = os.path.join(cfg.out_dir, "report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(_report_json(report, cfg.fixed_clock) + "\n")
        report.files.append(report_path)
    return report
