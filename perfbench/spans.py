"""Outside-in span tracing of sbopt.

``Tracer.install`` wraps public functions and class methods of the library
from here, without touching its source: every module attribute that holds a
target function is replaced by a wrapper (so ``from .x import f`` sites are
covered too) and methods are replaced on their class.  Each call records one
span: name, start, end, parent span, experiment id and, for the targets that
report work done, a count taken from the return value.  Spans are kept in
memory in flat arrays and written as JSON at the end of a run.

The per-layer metrics are derived from one experiment's spans; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

_ENGINE = ("apg.pb_apg", "apg.pb_apg_sc")
_LADDER = ("adaptive.apb_apg", "adaptive.apb_apg_sc")


def _iterations(args, result):
    return result[1].total_iterations


# (span name, module, attribute path, count taken from the call's arguments
# and return value)
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("bench.run.run_experiment", "sbopt.bench.run", "run_experiment", None),
    ("bench.synth.synth_instance", "sbopt.bench.synth", "synth_instance", None),
    ("bench.data.parse_libsvm_path", "sbopt.bench.data", "parse_libsvm_path",
     lambda args, r: os.path.getsize(args[0])),
    ("bench.data.to_dense", "sbopt.bench.data", "Dataset.to_dense", None),
    ("reference.lower", "sbopt.reference", "lower_opt_value",
     lambda args, r: r.iterations),
    ("reference.upper", "sbopt.reference", "upper_opt_value", None),
    ("reference.min_norm_ls", "sbopt.reference", "min_norm_least_squares", None),
    ("apg.pb_apg", "sbopt.apg", "pb_apg", _iterations),
    ("apg.pb_apg_sc", "sbopt.apg", "pb_apg_sc", _iterations),
    ("apg.trace_record", "sbopt.apg", "SolverTrace.record", None),
    ("apg.gradient_mapping_norm", "sbopt.apg", "gradient_mapping_norm", None),
    ("adaptive.apb_apg", "sbopt.adaptive", "apb_apg", lambda args, r: len(r[1])),
    ("adaptive.apb_apg_sc", "sbopt.adaptive", "apb_apg_sc",
     lambda args, r: len(r[1])),
    ("model.grad_step", "sbopt.model", "PenalizedObjective.grad_step", None),
    ("model.value", "sbopt.model", "PenalizedObjective.value", None),
    ("model.lambda_max_gram", "sbopt.model", "lambda_max_gram", None),
    ("prox.prox_step", "sbopt.model", "PenalizedObjective.prox_step", None),
    ("prox.project_l1_ball", "sbopt.prox", "project_l1_ball", None),
    ("subgrad.subgrad_solve", "sbopt.subgrad", "subgrad_solve", _iterations),
    ("subgrad.project", "sbopt.subgrad", "Domain.project", None),
    ("subgrad.oracle", "sbopt.subgrad", "subgradient_oracle", None),
]

# The two reference computations.  The untraced run records only these, for
# the phase split of run_experiment; every tracer keeps their last arguments
# and result for the correctness gate.
REFERENCES = ("reference.lower", "reference.upper")

LAYERS = ("bench.run", "bench.synth", "bench.data", "reference", "apg",
          "adaptive", "model", "prox", "subgrad")


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Records spans around the calls into the library.

    ``names`` restricts the wrapped targets.  ``kept`` holds the arguments
    and result of the last call of each of ``REFERENCES``.
    """

    def __init__(self, names=None):
        self.targets = [t for t in TARGETS if names is None or t[0] in names]
        self.names = [t[0] for t in self.targets]
        self.kept: Dict[str, tuple] = {}
        self.experiment = 0
        self._patched: list = []
        self._stack = [-1]
        self.name = array("i")
        self.parent = array("q")
        self.exp = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name_id: int, fn, counter, keep: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(name_id)
            tracer.parent.append(tracer._stack[-1])
            tracer.exp.append(tracer.experiment)
            tracer.start.append(0)
            tracer.end.append(0)
            tracer.count.append(0)
            tracer._stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if counter is not None:
                tracer.count[idx] = counter(args, result)
            if keep:
                tracer.kept[tracer.names[name_id]] = (args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; ``uninstall`` restores the originals."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "sbopt" or n.startswith("sbopt."))]
        for name_id, (name, mod_name, attr, counter) in enumerate(self.targets):
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name_id, orig, counter,
                                              name in REFERENCES))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name_id, orig, counter, name in REFERENCES)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    # -- output -------------------------------------------------------------

    def experiment_spans(self, experiment: int) -> "Spans":
        exp = np.frombuffer(self.exp, dtype=np.int32)
        rows = np.flatnonzero(exp == experiment)
        first = rows[0] if rows.size else 0
        parent = np.frombuffer(self.parent, dtype=np.int64)[rows]
        parent = np.where(parent >= 0, parent - first, -1)
        return Spans(self.names,
                     np.frombuffer(self.name, dtype=np.int32)[rows].astype(np.int64),
                     parent,
                     np.frombuffer(self.start, dtype=np.int64)[rows],
                     np.frombuffer(self.end, dtype=np.int64)[rows],
                     np.frombuffer(self.count, dtype=np.int64)[rows])

    def write_json(self, path: str, meta: dict):
        """Columnar JSON: one list per span field, times in ns."""
        payload = {
            "meta": meta,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "experiment": self.exp.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "count": self.count.tolist(),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class Spans:
    """The spans of one experiment, parents indexed within it (-1 for none).

    Spans are stored in call order, so a parent always precedes its children.
    """

    def __init__(self, names, name, parent, start, end, count):
        self.names = list(names)
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.count = count
        self.duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent],
                               weights=self.duration[has_parent],
                               minlength=len(name))
        self.self_time = self.duration - children

    def __len__(self):
        return len(self.name)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def any_of(self, names) -> np.ndarray:
        out = np.zeros(len(self), dtype=bool)
        for n in names:
            out |= self.mask(n)
        return out

    def under(self, names) -> np.ndarray:
        """True for spans with an ancestor (or themselves) among ``names``."""
        marked = self.any_of(names).tolist()
        parent = self.parent.tolist()
        for i, p in enumerate(parent):
            if p >= 0 and marked[p]:
                marked[i] = True
        return np.asarray(marked, dtype=bool)

    def total_s(self, name: str) -> float:
        return float(self.duration[self.mask(name)].sum()) / 1e9

    def mean_us(self, name: str) -> float:
        m = self.mask(name)
        return float(self.duration[m].mean()) / 1e3 if m.any() else 0.0

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def layer_self_s(self) -> Dict[str, float]:
        layer = np.array([LAYERS.index(layer_of(n)) for n in self.names],
                         dtype=np.int64)
        per = np.bincount(layer[self.name], weights=self.self_time,
                          minlength=len(LAYERS))
        return {LAYERS[i]: float(per[i]) / 1e9 for i in range(len(LAYERS))}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: Spans, useful_lower_iters: int, emit_s: float,
                  emit_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one experiment.  ``useful_lower_iters`` is the
    probed iteration count at which the G* certificate first holds."""
    engine = sp.any_of(_ENGINE)
    in_reference = sp.under(REFERENCES)
    solver_engine = engine & ~in_reference
    upper_engine = engine & sp.under(("reference.upper",))
    ladder = sp.any_of(_LADDER)
    ladder_child = engine & (sp.parent >= 0)
    ladder_child[ladder_child] = ladder[sp.parent[ladder_child]]
    value_in_engine = sp.mask("model.value") & sp.under(_ENGINE)

    lower_iters = int(sp.count[sp.mask("reference.lower")].sum())
    solver_iters = int(sp.count[solver_engine].sum())
    engine_iters = int(sp.count[engine].sum())
    sg_iters = int(sp.count[sp.mask("subgrad.subgrad_solve")].sum())
    parse_s = sp.total_s("bench.data.parse_libsvm_path")
    parse_bytes = int(sp.count[sp.mask("bench.data.parse_libsvm_path")].sum())

    m = {
        "reference.lower.iters": lower_iters,
        "reference.lower.us_per_iter": _ratio(
            sp.total_s("reference.lower") * 1e6, lower_iters),
        "reference.lower.useful_ratio": (
            min(useful_lower_iters, lower_iters) / lower_iters
            if lower_iters else 1.0),
        "reference.upper.solves": int(upper_engine.sum()),
        "reference.upper.iters": int(sp.count[upper_engine].sum()),
        "reference.min_norm_ls.s": sp.total_s("reference.min_norm_ls"),
        "apg.iters": solver_iters,
        "apg.us_per_iter": _ratio(
            float(sp.duration[solver_engine].sum()) / 1e3, solver_iters),
        "apg.self_us_per_iter": _ratio(
            float(sp.self_time[solver_engine].sum()) / 1e3, solver_iters),
        "apg.trace_record.calls": sp.calls("apg.trace_record"),
        "apg.trace_record.us": sp.mean_us("apg.trace_record"),
        "apg.gradient_mapping_norm.calls": sp.calls("apg.gradient_mapping_norm"),
        "adaptive.stages": int(sp.count[ladder].sum()),
        "adaptive.iters": int(sp.count[ladder_child].sum()),
        "model.grad_step.calls": sp.calls("model.grad_step"),
        "model.grad_step.us": sp.mean_us("model.grad_step"),
        "model.value.calls": sp.calls("model.value"),
        "model.value.us": sp.mean_us("model.value"),
        "model.value_per_iter": _ratio(int(value_in_engine.sum()), engine_iters),
        "model.lambda_max_gram.s": sp.total_s("model.lambda_max_gram"),
        "prox.prox_step.calls": sp.calls("prox.prox_step"),
        "prox.prox_step.us": sp.mean_us("prox.prox_step"),
        "prox.project_l1_ball.us": sp.mean_us("prox.project_l1_ball"),
        "subgrad.iters": sg_iters,
        "subgrad.us_per_iter": _ratio(
            sp.total_s("subgrad.subgrad_solve") * 1e6, sg_iters),
        "subgrad.project.us": sp.mean_us("subgrad.project"),
        "subgrad.oracle.us": sp.mean_us("subgrad.oracle"),
        "bench.data.parse_s": parse_s,
        "bench.data.parse_mb_per_s": _ratio(parse_bytes / 1e6, parse_s),
        "bench.data.to_dense_s": sp.total_s("bench.data.to_dense"),
        "bench.synth.s": sp.total_s("bench.synth.synth_instance"),
        "bench.run.emit_s": emit_s,
        "bench.run.emit_bytes": emit_bytes,
    }
    for layer, seconds in sp.layer_self_s().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(sp)
    return m


def engine_breakdown(sp: Spans) -> Dict[str, float]:
    """µs per iteration of the solver engines, split into the engine's own
    loop and its direct children; the parts add up to ``span``."""
    engine = sp.any_of(_ENGINE) & ~sp.under(REFERENCES)
    iters = int(sp.count[engine].sum())
    child = np.zeros(len(sp), dtype=bool)
    has_parent = sp.parent >= 0
    child[has_parent] = engine[sp.parent[has_parent]]
    out = {"loop": _ratio(float(sp.self_time[engine].sum()) / 1e3, iters)}
    for i, n in enumerate(sp.names):
        part = child & (sp.name == i)
        if part.any():
            out[n] = _ratio(float(sp.duration[part].sum()) / 1e3, iters)
    out["span"] = _ratio(float(sp.duration[engine].sum()) / 1e3, iters)
    return out
