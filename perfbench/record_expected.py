"""Record the reference values that the benchmark's correctness gate
compares against: G* with its certificate and F* for each workload at its
default seed, written to ``perfbench/expected.json``.

Run from the root of the repository at the commit whose values should be
recorded:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # pins BLAS threads before NumPy loads
import spans
import workloads


def record(workload, seed: int, work_dir: str) -> dict:
    """One experiment of ``workload``; returns its G*, certificate and F*."""
    from sbopt.bench import run as runmod

    values = workloads.make_inputs(workload, seed, work_dir)
    values["out_dir"] = None
    tracer = spans.Tracer(names=spans.REFERENCES)
    tracer.install()
    try:
        runmod.run_experiment(runmod.build_config(values))
    finally:
        tracer.uninstall()
    _, ref = tracer.kept["reference.lower"]
    _, upper = tracer.kept["reference.upper"]
    return {"g_star": ref.g_star, "g_star_certificate": ref.residual_certificate,
            "f_star": upper.f_star}


def main() -> int:
    sys.path.insert(0, run.SRC)
    out = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as work_dir:
        for name, workload in workloads.load_workloads().items():
            out[name] = record(workload, workload.default_seed, work_dir)
            print(name, out[name], flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
