"""Command-line entry point for the benchmark harness.

Exit codes: 0 all certificates pass, 1 certificate failure, 2 configuration
error (unknown key, unparsable or out-of-range value, unreadable config or
data file, malformed data file), 3 solver error or failed reference
computation.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError, ParseError, SboptError
from .run import KNOWN_PROBLEMS, KNOWN_SOLVERS, PRESETS, build_config, \
    parse_config_file, run_experiment


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sbopt-bench",
        description="Run penalty-based bilevel solvers on a benchmark problem "
                    "and emit CSV traces plus a summary table.")
    p.add_argument("--config", help="path to a 'key = value' config file")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameter preset (file/flags override it)")
    p.add_argument("--problem", choices=KNOWN_PROBLEMS)
    p.add_argument("--data", help="LIBSVM file for *-libsvm problems")
    p.add_argument("--solver", action="append", choices=KNOWN_SOLVERS,
                   help="solver to run (repeatable)")
    p.add_argument("--gamma", type=float, help="direct penalty parameter")
    p.add_argument("--epsilon", type=float, help="target accuracy")
    p.add_argument("--beta", type=float, help="lower-gap exponent")
    p.add_argument("--alpha", type=float, help="error-bound exponent override")
    p.add_argument("--rho", type=float, help="error-bound constant override")
    p.add_argument("--lf", type=float, help="upper subgradient bound override")
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, help="synthetic row count")
    p.add_argument("--n", type=int, help="synthetic column count")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--step-tol", dest="step_tol", type=float)
    p.add_argument("--fixed-clock", dest="fixed_clock", action="store_true",
                   default=None, help="zero the elapsed column for "
                   "byte-reproducible output")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        values = {}
        if args.config:
            values.update(parse_config_file(args.config))
        for key, v in vars(args).items():
            if key not in ("config", "solver") and v is not None:
                values[key] = v
        if args.solver:
            values["solvers"] = ",".join(args.solver)
        cfg = build_config(values)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    except (OSError, ParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SboptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print(f"G* = {report.g_star:.12e}   "
          f"F* = {report.f_star:.12e} (relaxation {report.relaxation:g})")
    for name, res in report.solvers.items():
        if res.error is not None:
            print(f"{name:>12}: ERROR {res.error}")
            continue
        flag = "pass" if res.cert_passed else "FAIL"
        print(f"{name:>12}: iters={res.total_iterations:<8d} "
              f"G-gap={res.lower_gap:.6e} F-gap={res.upper_gap:+.6e} "
              f"cert={flag}")
    if report.files:
        print("wrote: " + ", ".join(report.files))

    if report.any_solver_error:
        return 3
    return 0 if report.all_certified else 1


if __name__ == "__main__":
    sys.exit(main())
