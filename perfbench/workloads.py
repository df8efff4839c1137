"""The benchmark's workloads: their configs and the inputs made from a seed.

Every workload is a fixed problem instance.  The seed permutes the input
without changing the problem: it reorders the solvers and, where the
workload reads a generated LIBSVM file, permutes its rows and columns.
Iteration counts, and so every phase time, are a property of the instance
(on ``lsrp-bench`` they vary twofold across generator seeds), so a seed that
drew a new instance would swamp any regression bound.  A permuted input
keeps the work, G* and F* of the instance, which is what lets one recorded
reference value per workload gate every seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The a1a-like base matrix is drawn from this seed; the workload seed only
# permutes it.
LIBSVM_BASE_SEED = 20240203


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` holds ``build_config`` values; ``solvers`` is their solver
    list, which the seed reorders.  ``libsvm`` is ``(rows, cols, density)``
    of the generated data file, or None for the synthetic presets.
    """

    name: str
    config: Dict[str, object]
    solvers: List[str]
    default_seed: int = 0
    libsvm: Optional[tuple] = None


def load_workloads(path: str = SPEC_PATH) -> Dict[str, Workload]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {}
    for w in spec["workloads"]:
        config = dict(w["config"])
        solvers = config.pop("solvers").split(",")
        libsvm = tuple(w["libsvm"]) if w.get("libsvm") else None
        out[w["name"]] = Workload(w["name"], config, solvers,
                                  w["default_seed"], libsvm)
    return out


def libsvm_text(seed: int, rows: int, cols: int, density: float) -> str:
    """A sparse binary LIBSVM file in the shape of a1a: 0/1 features at the
    given density and 0/1 labels from a noisy linear rule.

    The matrix comes from ``LIBSVM_BASE_SEED``; ``seed`` permutes its rows
    and columns, so every seed yields the same logistic problem up to a
    relabelling of samples and features.  The same seed gives identical
    bytes.
    """
    rng = np.random.default_rng(LIBSVM_BASE_SEED)
    X = rng.random((rows, cols)) < density
    # every column and row keeps a nonzero, so the parsed width is ``cols``
    for j in np.flatnonzero(~X.any(axis=0)):
        X[j % rows, j] = True
    for i in np.flatnonzero(~X.any(axis=1)):
        X[i, i % cols] = True
    w = rng.normal(size=cols)
    z = X @ w + 0.5 * rng.normal(size=rows)
    y = (z > np.median(z)).astype(int)

    perm = np.random.default_rng(seed)
    row_order = perm.permutation(rows)
    X = X[row_order][:, perm.permutation(cols)]
    y = y[row_order]
    lines = [" ".join([str(label)] + [f"{j + 1}:1" for j in np.flatnonzero(row)])
             for label, row in zip(y, X)]
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int, work_dir: str) -> Dict[str, object]:
    """``build_config`` values for one seed; writes the data file, if the
    workload has one, into ``work_dir``."""
    order = np.random.default_rng(seed).permutation(len(workload.solvers))
    values = dict(workload.config)
    values["solvers"] = ",".join(workload.solvers[i] for i in order)
    if workload.libsvm is not None:
        path = os.path.join(work_dir, "data.libsvm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(libsvm_text(seed, *workload.libsvm))
        values["data"] = path
    return values


def load_expected(path: str = EXPECTED_PATH) -> Dict[str, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
