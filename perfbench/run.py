"""sbopt benchmark: one workload through ``sbopt.bench.run_experiment``.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload lrp-ref --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One client runs one experiment at a time in a closed loop: the next
repetition starts when the previous one ends, and none starts that would end
after ``--seconds``.  A first repetition warms up and is not timed.  Every
repetition writes its CSV traces and summary with a fixed clock and is
checked (see ``check_rep``).  Before each repetition the set-up phase of
``run_experiment`` runs alone a few times (see ``setup_once``).  A speed
probe interleaved with the workload scales every reported time to seconds
at a fixed reference speed of the machine (see ``speed.py``).  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``, as medians over
repetitions; ``--trace 1`` alternates traced and untraced repetitions and
reports the per-layer metrics from the traced ones and the phase split from
the untraced ones.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before NumPy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# The phase split of run_experiment.  Every run prints it; only its sum
# ``ref_s`` and ``total_s`` are bounded, because each workload bypasses some
# phase, and a phase of a few milliseconds swings with the machine's load
# far beyond any useful bound.
PHASES = ("gstar_s", "fstar_s", "solve_s")
# Set-up-only runs of run_experiment before each repetition.
SETUPS_PER_REP = 10


def load_benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> Dict[str, str]:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class _SetupDone(Exception):
    """Raised in place of the G* reference to end a set-up-only run."""


def setup_once(cfg, probe) -> float:
    """Scaled seconds from entering ``run_experiment`` until it calls the G*
    reference, which is replaced by a stop for this one call: data
    generation or parse, ``to_dense``, Lipschitz power iteration, gamma."""
    from sbopt.bench import run as runmod

    orig = runmod.lower_opt_value

    def stop(*args, **kwargs):
        raise _SetupDone(time.perf_counter_ns())

    runmod.lower_opt_value = stop
    t0 = time.perf_counter_ns()
    try:
        runmod.run_experiment(cfg)
    except _SetupDone as done:
        return probe.seconds(t0, done.args[0])
    finally:
        runmod.lower_opt_value = orig
    raise RuntimeError("run_experiment did not call lower_opt_value")


@dataclass
class Rep:
    """One repetition: its times, its operations and the gate's failures.

    ``total_s`` and ``phases`` are scaled by the speed probe, ``wall_s``
    is the unscaled wall time."""

    total_s: float = 0.0
    wall_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    ops: int = 0
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    emit_s: float = 0.0
    emit_bytes: int = 0


def _digests(out_dir: str, solvers) -> Dict[str, str]:
    """Per solver: hash of its summary row and its CSV trace."""
    rows = {}
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        for line in fh.read().splitlines()[1:]:
            rows[line.split(b",", 1)[0].decode()] = line
    out = {}
    for name in solvers:
        h = hashlib.sha256(rows.get(name, b""))
        path = os.path.join(out_dir, f"{name}.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        out[name] = h.hexdigest()
    return out


def g_star_tolerance(ref, recorded: dict) -> float:
    """|G*_run - G*_recorded| allowed by the two certificates: each value is
    within certificate * distance of the true G*, the distance bounded from
    the reference point, plus float slack."""
    radius = 2.0 * (1.0 + float(np.linalg.norm(ref.x)))
    return (radius * (ref.residual_certificate + recorded["g_star_certificate"])
            + 1e-12 * (1.0 + abs(recorded["g_star"])))


def f_star_tolerance(instance, upper, recorded: dict) -> float:
    """|F*_run - F*_recorded| allowed by the relaxation: a point with
    G - G* <= relaxation lies within (rho * relaxation)^(1/alpha) of the
    lower solution set, over which F moves by at most l_F per unit
    distance; both values carry that error, plus float slack."""
    dist = (instance.rho * upper.relaxation_epsilon) ** (1.0 / instance.alpha)
    return (2.0 * instance.subgrad_diameter * dist
            + 1e-9 * (1.0 + abs(recorded["f_star"])))


def check_rep(rep: Rep, report, kept, recorded: dict, baseline) -> None:
    """The correctness gate.  Each reference and each solver run is one
    operation; it fails if it raised an SboptError, if its certificate
    failed, if G* or F* left the tolerance around the value recorded at the
    seed commit, or if a solver's fixed-clock CSV or summary row differs
    from the first repetition's bytes."""
    _, ref = kept["reference.lower"]
    if abs(ref.g_star - recorded["g_star"]) > g_star_tolerance(ref, recorded):
        rep.failures.append(f"G*: {ref.g_star!r} is outside the tolerance "
                            f"around the recorded {recorded['g_star']!r}")
    args, upper = kept["reference.upper"]
    if abs(upper.f_star - recorded["f_star"]) > f_star_tolerance(
            args[0], upper, recorded):
        rep.failures.append(f"F*: {upper.f_star!r} is outside the tolerance "
                            f"around the recorded {recorded['f_star']!r}")
    for name, res in report.solvers.items():
        if res.error is not None:
            rep.failures.append(f"{name}: {res.error}")
        elif not res.cert_passed:
            rep.failures.append(f"{name}: certificate failed (G gap "
                                f"{res.lower_gap:.3g}, F gap {res.upper_gap:.3g})")
        elif baseline is not None and rep.digests[name] != baseline.get(name):
            rep.failures.append(f"{name}: fixed-clock CSV or summary bytes "
                                "differ from the first repetition")


def one_rep(cfg, tracer, probe, recorded: dict, baseline) -> Rep:
    """Run one experiment under ``tracer`` and gate its outputs; times are
    scaled by ``probe``."""
    from sbopt.bench import run as runmod
    from sbopt.errors import SboptError

    rep = Rep(ops=2 + len(cfg.solvers))
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    tracer.kept.clear()
    tracer.experiment += 1
    tracer.install()
    t0 = time.perf_counter_ns()
    try:
        report = runmod.run_experiment(cfg)
    except SboptError as exc:
        report = None
        rep.failures = [f"{op}: {type(exc).__name__}: {exc}"
                        for op in ["G*", "F*"] + cfg.solvers]
    finally:
        t1 = time.perf_counter_ns()
        tracer.uninstall()
    rep.wall_s = (t1 - t0) / 1e9
    rep.total_s = probe.seconds(t0, t1)
    if report is None:
        return rep

    sp = tracer.experiment_spans(tracer.experiment)

    def phase(name):
        m = sp.mask(name)
        return sum(probe.seconds(int(a), int(b))
                   for a, b in zip(sp.start[m], sp.end[m]))

    # Solvers run from the return of the F* reference to the end of
    # report.wall_total; their summed wall_seconds take that window's scale.
    solve_a = int(sp.end[sp.mask("reference.upper")][-1])
    solve_b = t0 + int(report.wall_total * 1e9)
    solve_wall = sum(r.wall_seconds for r in report.solvers.values())
    rep.phases = {
        "gstar_s": phase("reference.lower"),
        "fstar_s": phase("reference.upper"),
        "solve_s": solve_wall * probe.seconds(solve_a, solve_b)
                   / max((solve_b - solve_a) / 1e9, 1e-9),
    }
    rep.phases["ref_s"] = rep.phases["gstar_s"] + rep.phases["fstar_s"]
    rep.emit_s = rep.wall_s - report.wall_total
    rep.emit_bytes = sum(os.path.getsize(p) for p in report.files)
    rep.digests = _digests(cfg.out_dir, cfg.solvers)
    check_rep(rep, report, tracer.kept, recorded, baseline)
    return rep


def first_certified_iters(instance, iters: int) -> int:
    """Iterations after which the G* certificate first holds, found by
    probing the public ``chunk`` argument at doubling values: one chunk of
    c iterations repeats the first c iterations of the full run.  Exact to
    within a factor of two."""
    from sbopt.errors import Nonconvergence
    from sbopt.reference import lower_opt_value

    c = 1
    while c < iters:
        try:
            lower_opt_value(instance, max_iters=c, chunk=c)
            return c
        except Nonconvergence:
            c *= 2
    return iters


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 recorded: dict, log=print) -> dict:
    """Closed-loop run of one workload.

    Returns ``attempted``, ``failed``, ``metrics`` (end-to-end, or per-layer
    when ``trace``), the phase split and the repetition counts.  Metrics are
    medians over the timed (or traced) repetitions that completed.  ``log``
    receives the lines that name failed operations and the solver engines'
    time split.
    """
    from sbopt.bench.run import build_config

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    phase = spans.Tracer(names=spans.REFERENCES)
    full = spans.Tracer()
    reps: List[Rep] = []
    timed: List[Rep] = []
    setups: List[float] = []
    probe = speed.Probe()
    layer: List[Dict[str, float]] = []
    useful = None
    try:
        values = workloads.make_inputs(workload, seed, work_dir)
        values.update(out_dir=os.path.join(work_dir, "out"), fixed_clock=True)
        cfg = build_config(values)

        probe.start()
        warm = one_rep(cfg, phase, probe, recorded, None)
        reps.append(warm)
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            traced = trace and len(layer) <= len(timed)
            setups.extend(setup_once(cfg, probe) for _ in range(SETUPS_PER_REP))
            rep = one_rep(cfg, full if traced else phase, probe, recorded,
                          warm.digests)
            reps.append(rep)
            if not traced:
                timed.append(rep)
            elif rep.phases:
                sp = full.experiment_spans(full.experiment)
                if useful is None:
                    (instance, *_), _ = full.kept["reference.lower"]
                    lower_iters = int(sp.count[sp.mask("reference.lower")].sum())
                    useful = first_certified_iters(instance, lower_iters)
                m = spans.layer_metrics(sp, useful, rep.emit_s, rep.emit_bytes)
                m["trace.total_s"] = rep.total_s
                layer.append(m)
                for part, us in spans.engine_breakdown(sp).items():
                    log(f"  solver engines, µs/iteration: {part:<32} {us:10.3f}")
            enough = timed and (layer or not trace)
            now = time.perf_counter()
            if enough and now - start + (now - cycle_start) > seconds:
                break
        if trace:
            full.write_json(
                os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json"),
                {"workload": workload.name, "seed": seed, **environment()})
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [(i, f) for i, r in enumerate(reps) for f in r.failures]
    for i, f in failures:
        log(f"FAIL {workload.name} repetition {i}"
            f"{' (warm-up)' if i == 0 else ''}: {f}")
    # Times are reported from every repetition that completed, also when
    # the gate failed; a repetition that raised has no phase split.
    done = [r for r in timed if r.phases]
    phases = {k: _median([r.phases[k] for r in done])
              for k in (done[0].phases if done else ())}
    metrics: Dict[str, float] = {}
    if trace and layer and done:
        metrics = {k: _median([m[k] for m in layer]) for k in layer[0]}
        metrics["trace.overhead_s"] = (metrics.pop("trace.total_s")
                                       - _median([r.total_s for r in done]))
        metrics.update({f"phase.{k}": phases[k] for k in PHASES})
    elif not trace and done:
        metrics = {"total_s": _median([r.total_s for r in done]),
                   "setup_s": _median(setups), "ref_s": phases["ref_s"],
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw = {"total_s": _median([r.wall_s for r in done]) if done else 0.0,
           "kernel_s": probe.mean_kernel_s()}
    return {"attempted": sum(r.ops for r in reps), "failed": len(failures),
            "metrics": metrics, "phases": phases, "raw": raw,
            "reps": len(timed), "traced_reps": len(layer),
            "setups": len(setups)}


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    names = list(workloads.load_workloads())
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name from perfbench/spec.json, or 'all'")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "sbopt")):
        print(f"perfbench: no sbopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return _run_all(args)
    known = workloads.load_workloads()
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(known)}, all)", file=sys.stderr)
        return 2
    workload = known[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    bench = load_benchmark()
    listed = bench["per_layer" if args.trace else "end_to_end"]

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"workload {workload.name}, seed {seed}: closed loop, one client, "
          f"{args.seconds:g} s")
    result = run_workload(workload, seed, args.seconds, bool(args.trace),
                          workloads.load_expected()[workload.name])
    print(f"repetitions: {result['reps']} timed, {result['traced_reps']} traced, "
          f"1 warm-up discarded, {result['setups']} set-up-only")
    print(f"speed probe: mean kernel {result['raw']['kernel_s'] * 1e3:.4f} ms, "
          f"reference {speed.REF_S * 1e3:g} ms; unscaled total_s median "
          f"{result['raw']['total_s']:.6f} s")
    metrics = {}
    if result["metrics"]:
        for entry in listed:
            value = result["metrics"][entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']:<36} {value:>16.6f} {entry['unit']}")
    for key in PHASES if result["phases"] else ():
        print(f"  {key:<36} {result['phases'][key]:>16.6f} s (phase split, "
              "untraced median, not bounded)")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<36} {ratio:>16.6f} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
