"""Experiment harness: config validation, CSV schema, determinism, exit codes."""

import json
import tracemalloc
import typing

import numpy as np
import pytest

from sbopt.bench import cli as cli_module
from sbopt.bench import run as run_module
from sbopt.bench.cli import main as cli_main
from sbopt.bench.data import (augment_collinear, minmax_scale,
                              parse_libsvm_path)
from sbopt.bench.run import (CSV_HEADER, SUMMARY_HEADER, ExperimentConfig,
                             build_config, parse_config_file, run_experiment)
from sbopt.errors import ConfigError, Nonconvergence

FAST = {
    "problem": "lrp-synth", "m": 40, "n": 10, "seed": 7,
    "solvers": "pb_apg", "gamma": 1e4, "step_tol": 1e-10, "restart": True,
    "max_iters": 50_000, "cert_g_target": 1e-7, "record_every": 10,
    "relaxation": 1e-8, "fixed_clock": True,
}


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, as JSON.parse and jq do."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestConfigValidation:
    def test_unknown_solver(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "solvers": "pb_apg,warp_drive"})
        assert "solvers" in str(err.value)

    def test_empty_solver_list(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "solvers": ""})
        assert "solvers" in str(err.value)

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            build_config({**FAST, "problem": "mystery"})

    def test_problem_or_preset_required(self):
        bad = dict(FAST)
        del bad["problem"]
        with pytest.raises(ConfigError) as err:
            build_config(bad)
        assert "problem" in str(err.value)

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "wibble": "1"})
        assert "wibble" in str(err.value)

    def test_gamma_or_plan_required(self):
        bad = dict(FAST)
        del bad["gamma"]
        with pytest.raises(ConfigError):
            build_config(bad)
        # theorem entry point instead of direct gamma
        ok = build_config({**bad, "epsilon": 1e-3, "beta": 2.0})
        assert ok.gamma is None and ok.epsilon == 1e-3

    def test_ladder_parameters_required(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "solvers": "apb_apg"})
        assert "gamma0" in str(err.value)

    def test_libsvm_needs_data(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "problem": "lrp-libsvm"})
        assert "data" in str(err.value)

    def test_bad_value_parse(self):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "gamma": "not-a-number"})
        assert "gamma" in str(err.value)

    @pytest.mark.parametrize("key", ["m", "n", "max_iters", "record_every",
                                     "subgrad_max_iters", "seed"])
    @pytest.mark.parametrize("value", [1.5, 7.0, True, -1])
    def test_count_keys_take_integers_only(self, key, value):
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, key: value})
        assert key in str(err.value)

    def test_count_keys_take_numpy_integers(self):
        cfg = build_config({**FAST, "m": np.int64(40), "n": np.int32(10),
                            "seed": np.int64(0), "max_iters": np.uint32(50)})
        assert (cfg.m, cfg.n, cfg.seed, cfg.max_iters) == (40, 10, 0, 50)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_config({"preset": "nope"})

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("problem = lrp-synth  # comment\n\n# a comment line\n"
                        "   \nsolvers = pb_apg\ngamma = 1e4\nm = 40\nn = 10\n")
        values = parse_config_file(str(path))
        cfg = build_config(values)
        assert cfg.problem == "lrp-synth" and cfg.gamma == 1e4

    def test_config_file_syntax_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("problem lrp-synth\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_every_typed_field_parses_from_its_string(self):
        samples = {bool: True, int: 7, float: 1.5, str: "text"}
        hints = typing.get_type_hints(ExperimentConfig)
        by_type = {}
        for name, hint in hints.items():
            if name in ("problem", "solvers"):
                continue
            kind = (typing.get_args(hint) or (hint,))[0]
            by_type.setdefault(kind, set()).add(name)
            value = samples[kind]
            cfg = build_config({**FAST, name: str(value)})
            parsed = getattr(cfg, name)
            assert type(parsed) is kind and parsed == value, name
            if kind is bool:
                assert getattr(build_config({**FAST, name: "off"}), name) is False
                with pytest.raises(ConfigError) as err:
                    build_config({**FAST, name: "maybe"})
                assert name in str(err.value)
        assert by_type[bool] == {"restart", "fixed_clock"}
        assert by_type[int] == {"m", "n", "seed", "max_iters", "record_every",
                                "subgrad_max_iters"}
        assert by_type[str] == {"data", "out_dir"}
        assert len(by_type[float]) == 17
        with pytest.raises(ConfigError) as err:
            build_config({**FAST, "seed": "1.5"})
        assert "seed" in str(err.value)


class TestRunExperiment:
    def test_csv_schema_and_summary(self, tmp_path):
        cfg = build_config({**FAST, "out_dir": str(tmp_path)})
        report = run_experiment(cfg)
        csv = (tmp_path / "pb_apg.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert CSV_HEADER == "iter,elapsed_s,F_value,G_gap,step_norm,gamma,eps_stage"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert summary[1].startswith("pb_apg,")
        assert summary[1].endswith(",pass")
        payload = json.loads((tmp_path / "report.json").read_text())
        refs = payload["references"]
        assert refs["g_star"] == report.lower.g_star
        # the evidence behind G*: the logistic lower level takes the
        # certified accelerated route and reports the iterations it ran
        assert refs["g_star_method"] == report.lower.method == "accelerated_restart"
        assert refs["g_star_iterations"] == report.lower.iterations > 0
        # why the solver stopped and how often its momentum restarted
        solver = payload["solvers"]["pb_apg"]
        (_, _, trace), = report.solvers["pb_apg"].segments
        assert solver["terminal_reason"] == trace.terminal_reason == "step_tolerance"
        assert solver["restarts"] == trace.restarts > 0

    def test_summary_gaps_match_recompute(self, tmp_path):
        cfg = build_config({**FAST, "solvers": "pb_apg,apb_apg",
                            "gamma0": 1.0 / 32.0, "nu": 20.0, "eta": 10.0,
                            "epsilon0": 1e-6, "stop_epsilon": 1e-8,
                            "out_dir": str(tmp_path)})
        report = run_experiment(cfg)
        inst_gaps = {}
        from sbopt.bench.synth import synth_lrp
        inst = synth_lrp(40, 10, 7)
        inst = inst.with_lower_opt_value(report.lower.g_star)
        for name, res in report.solvers.items():
            g = inst.lower_gap(res.x_final)
            f = inst.upper_value(res.x_final) - report.upper.f_star
            assert abs(g - res.lower_gap) <= 1e-12
            assert abs(f - res.upper_gap) <= 1e-12

    def test_derived_gamma_is_planned_and_certified(self):
        # with no gamma, the gamma comes from the penalty plan of the
        # instance's alpha (2 for lrp) and the rho and lf overrides, and
        # pb_apg's certificate is penalty.certify at its final iterate
        import dataclasses

        from sbopt import penalty
        from sbopt.bench.synth import synth_instance
        cfg = build_config({"problem": "lrp-synth", "m": 200, "n": 50,
                            "seed": 7, "solvers": "pb_apg,subgrad",
                            "epsilon": 1e-3, "beta": 1.0, "rho": 2.0,
                            "lf": 10.0})
        report = run_experiment(cfg)
        plan = penalty.make_plan(2.0, 2.0, 10.0, 1e-3, 1.0)
        for res in report.solvers.values():
            assert res.error is None
            assert [gamma for gamma, _, _ in res.segments] == [plan.gamma]
        inst = dataclasses.replace(synth_instance("lrp", 200, 50, 7),
                                   rho=2.0, subgrad_diameter=10.0)
        inst = inst.with_lower_opt_value(report.lower.g_star)
        res = report.solvers["pb_apg"]
        cert = penalty.certify(inst, res.x_final, plan,
                               f_star=report.upper.f_star)
        assert res.cert_passed == cert.passed

    def test_deterministic_csv_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_experiment(build_config({**FAST, "out_dir": str(out)}))
        for name in ("pb_apg.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # report.json echoes the out_dir, so compare it modulo that field
        payloads = []
        for out in (out1, out2):
            p = json.loads((out / "report.json").read_text())
            p["config"].pop("out_dir")
            payloads.append(p)
        assert payloads[0] == payloads[1]

    def test_trace_final_row_matches_certificate_inputs(self, tmp_path):
        cfg = build_config({**FAST, "out_dir": str(tmp_path)})
        report = run_experiment(cfg)
        res = report.solvers["pb_apg"]
        _, _, trace = res.segments[-1]
        assert trace.g_gaps[-1] == pytest.approx(res.lower_gap, abs=1e-12)
        assert trace.f_values[-1] == pytest.approx(res.upper_value, abs=1e-12)

    def test_solver_error_recorded_without_aborting_siblings(self):
        # tau = 0 removes the strong convexity pb_apg_sc requires; the error
        # is recorded per solver and the sibling still completes
        cfg = build_config({
            "problem": "lsrp-synth", "m": 20, "n": 30, "seed": 1, "tau": 0.0,
            "solvers": "pb_apg,pb_apg_sc", "gamma": 1e4,
            "max_iters": 20_000, "step_tol": 1e-10, "relaxation": 1e-6,
            "cert_g_target": 1e-5})
        report = run_experiment(cfg)
        assert report.solvers["pb_apg"].error is None
        assert report.solvers["pb_apg_sc"].error is not None
        assert report.any_solver_error

    def test_solver_error_leaves_its_files_out(self, tmp_path):
        # an erroring solver writes no trace CSV; summary.csv gives it an
        # error row, and the CLI exits 3
        cases = [
            # tau = 0 leaves pb_apg_sc no strong convexity
            "problem = lsrp-synth\nm = 20\nn = 30\nseed = 1\ntau = 0\n"
            "solvers = pb_apg,pb_apg_sc\ngamma = 1e3\n",
            # the first ladder stage's iteration budget overflows a float
            "preset = lsrp-bench\nm = 20\nn = 30\n"
            "solvers = pb_apg,apb_apg_sc\ngamma0 = 1e250\n"]
        for i, text in enumerate(cases):
            cfg = tmp_path / f"err{i}.cfg"
            cfg.write_text(text)
            values = parse_config_file(str(cfg))
            good, bad = values["solvers"].split(",")
            out = tmp_path / f"out{i}"
            report = run_experiment(build_config({**values,
                                                  "out_dir": str(out)}))
            assert report.solvers[bad].error is not None
            assert (out / f"{good}.csv").exists()
            assert not (out / f"{bad}.csv").exists()
            rows = (out / "summary.csv").read_text().splitlines()
            assert rows[0] == SUMMARY_HEADER
            assert [r.split(",")[0] for r in rows[1:]] == [good, bad]
            assert rows[2].split(",")[-1] == "error"
            assert rows[1].split(",")[-1] != "error"
            # the error row's NaN values are nulls in report.json
            solvers = strict_json((out / "report.json").read_text())["solvers"]
            assert solvers[bad]["lower_level_value"] is None
            assert cli_main(["--config", str(cfg),
                             "--out-dir", str(tmp_path / f"cli{i}")]) == 3

    def test_solver_error_exit_code(self, tmp_path):
        cfg = tmp_path / "err.cfg"
        cfg.write_text("problem = lsrp-synth\nm = 20\nn = 30\nseed = 1\n"
                       "tau = 0\nsolvers = pb_apg_sc\ngamma = 1e4\n"
                       "max_iters = 20000\nrelaxation = 1e-6\n")
        assert cli_main(["--config", str(cfg)]) == 3

    def test_ladder_csv_carries_stage_columns(self, tmp_path):
        cfg = build_config({**FAST, "solvers": "apb_apg",
                            "gamma0": 1.0 / 32.0, "nu": 20.0, "eta": 10.0,
                            "epsilon0": 1e-6, "stop_epsilon": 1e-8,
                            "out_dir": str(tmp_path)})
        run_experiment(cfg)
        rows = (tmp_path / "apb_apg.csv").read_text().splitlines()[1:]
        gammas = sorted({float(r.split(",")[5]) for r in rows})
        assert gammas == [1.0 / 32.0 * 20.0**k for k in range(3)]
        eps = sorted({float(r.split(",")[6]) for r in rows}, reverse=True)
        assert eps == [1e-6 / 10.0**k for k in range(3)]

    @pytest.mark.parametrize("max_iters", [3, 50_000])
    def test_exit_evidence_per_solver(self, tmp_path, max_iters):
        # report.json counts the segments that ended on max_iters, so a
        # capped mid-ladder stage shows, and gives the gradient-mapping
        # norm at the final iterate for the last gamma (null for subgrad)
        from sbopt.apg import gradient_mapping_norm
        from sbopt.bench.synth import synth_lrp
        from sbopt.model import assemble_penalized
        cfg = build_config({**FAST, "solvers": "pb_apg,apb_apg,subgrad",
                            "gamma0": 1.0 / 32.0, "nu": 20.0, "eta": 10.0,
                            "epsilon0": 1e-6, "stop_epsilon": 1e-8,
                            "max_iters": max_iters, "subgrad_max_iters": 50,
                            "out_dir": str(tmp_path)})
        report = run_experiment(cfg)
        solvers = json.loads((tmp_path / "report.json").read_text())["solvers"]
        capped = max_iters == 3
        assert solvers["pb_apg"]["stages_on_cap"] == int(capped)
        assert solvers["apb_apg"]["stages_on_cap"] == (3 if capped else 0)
        if capped:
            assert solvers["apb_apg"]["terminal_reason"] == "max_iters"
        assert solvers["subgrad"]["stages_on_cap"] == 1
        assert solvers["subgrad"]["gradient_mapping_norm"] is None
        inst = synth_lrp(40, 10, 7)
        for name in ("pb_apg", "apb_apg"):
            res = report.solvers[name]
            objective = assemble_penalized(inst, res.segments[-1][0])
            gm = gradient_mapping_norm(objective, res.x_final)
            assert solvers[name]["gradient_mapping_norm"] == gm
            assert (gm > 1e-3) if capped else (gm < 1e-4)


class TestDeskPreset:
    def test_lrp_desk_reaches_gap_target(self, tmp_path):
        # the shipped desk preset at its real size (200 x 50, gamma = 1e4)
        cfg = build_config({"preset": "lrp-desk", "out_dir": str(tmp_path)})
        report = run_experiment(cfg)
        res = report.solvers["pb_apg"]
        assert res.lower_gap <= 1e-7
        assert res.cert_passed
        assert (tmp_path / "summary.csv").exists()
        # strict JSON: at the parent every report held "cert_f_target":
        # Infinity, which JSON.parse and jq reject
        payload = strict_json((tmp_path / "report.json").read_text())
        assert payload["config"]["cert_f_target"] is None
        assert payload["config"]["cert_g_target"] == 1e-7


class TestLibsvmProblem:
    def test_lrp_from_file(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(30):
            a0 = rng.normal()
            label = 1 if a0 >= 0 else -1
            if i % 10 == 0:
                label = -label
            lines.append(f"{label} 1:{a0:.6f} 2:{0.2 * rng.normal():.6f}")
        path = tmp_path / "toy.libsvm"
        path.write_text("\n".join(lines) + "\n")
        cfg = build_config({
            "problem": "lrp-libsvm", "data": str(path), "solvers": "pb_apg",
            "gamma": 1e4, "step_tol": 1e-10, "max_iters": 50_000,
            "cert_g_target": 1e-4, "relaxation": 1e-8})
        report = run_experiment(cfg)
        assert report.solvers["pb_apg"].cert_passed
        assert report.solvers["pb_apg"].lower_gap <= 1e-4

    def test_lsrp_from_file(self, tmp_path):
        # 60 x 12 0/1 features at 30 % density with a nonzero in every
        # column, so the parsed width is 12; after min-max scaling, 12
        # collinear copies and an intercept the problem has 25 columns
        rng = np.random.default_rng(0)
        X = rng.random((60, 12)) < 0.3
        for j in np.flatnonzero(~X.any(axis=0)):
            X[j % 60, j] = True
        y = X @ rng.normal(size=12) + 0.1 * rng.normal(size=60)
        path = tmp_path / "toy.libsvm"
        path.write_text("".join(
            " ".join([f"{v:.6f}"] + [f"{j + 1}:1" for j in np.flatnonzero(row)])
            + "\n" for v, row in zip(y, X)))
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = build_config({
                "problem": "lsrp-libsvm", "data": str(path),
                "solvers": "pb_apg", "gamma": 1e5, "step_tol": 1e-10,
                "cert_g_target": 1e-7, "out_dir": str(out),
                "fixed_clock": True})
            report = run_experiment(cfg)
            res = report.solvers["pb_apg"]
            assert res.x_final.shape == (25,)
            assert report.lower.method == "min_norm_least_squares"
            record = vars(report.upper)
            assert record["f_star_method"] == "dual_bracket"
            assert record["f_star_lower"] <= record["f_star_upper"]
            assert res.error is None and res.cert_passed
            outputs.append([(out / name).read_bytes()
                            for name in ("pb_apg.csv", "summary.csv")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("problem", ["lrp-libsvm", "lsrp-libsvm"])
    def test_build_holds_two_copies_of_the_matrix(self, tmp_path, problem):
        # 300 x 80 0/1 features at 10 % density, 0/1 labels; the build holds
        # the parsed (for lsrp: scaled and augmented) matrix and the loss
        # term's private copy, plus the parser's 24 bytes per nonzero
        rng = np.random.default_rng(5)
        X = rng.random((300, 80)) < 0.1
        X[0] = True  # every column holds a nonzero, so the width is 80
        path = tmp_path / "data.libsvm"
        path.write_text("".join(
            " ".join([str(int(rng.random() < 0.5))]
                     + [f"{j + 1}:1" for j in np.flatnonzero(row)]) + "\n"
            for row in X))
        cfg = build_config({"problem": problem, "data": str(path),
                            "solvers": "pb_apg", "gamma": 1e4})
        tracemalloc.start()
        try:
            instance = run_module._build_instance(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        A = instance.g1.payload[0]
        assert peak <= 2.2 * A.nbytes
        if problem == "lrp-libsvm":
            fresh = parse_libsvm_path(path, coerce_binary_labels=True)
        else:
            fresh = augment_collinear(minmax_scale(parse_libsvm_path(path)),
                                      copies=80, add_intercept=True)
        assert A.tobytes() == fresh.to_dense().tobytes()


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        rc = cli_main(["--preset", "lrp-desk", "--m", "40", "--n", "10",
                       "--max-iters", "50000",
                       "--out-dir", str(tmp_path / "run"), "--fixed-clock"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cert=pass" in out

        # argparse rejects invalid choices with the same exit code
        with pytest.raises(SystemExit) as err:
            cli_main(["--problem", "mystery"])
        assert err.value.code == 2
        rc = cli_main(["--problem", "lrp-synth"])  # no solvers configured
        assert rc == 2

        # unreachable certificate target -> exit 1
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("preset = lrp-desk\nm = 40\nn = 10\n"
                       "cert_f_target = -1\n")
        rc = cli_main(["--config", str(cfg)])
        assert rc == 1

    def test_solver_flag_repeatable(self, tmp_path, capsys):
        rc = cli_main(["--problem", "lrp-synth", "--m", "40", "--n", "10",
                       "--seed", "7", "--gamma", "1e4",
                       "--solver", "pb_apg", "--solver", "pb_apg_sc",
                       "--max-iters", "50000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pb_apg" in out and "pb_apg_sc" in out

    @pytest.mark.parametrize("argv", [
        ["--solver", "pb_apg", "--solver", "pb_apg"],
        ["--solver", "pb_apg", "--solver", "subgrad", "--solver", "pb_apg"]])
    def test_repeated_solver_flag_is_a_config_error(self, capsys, argv):
        # at the parent the solver ran twice and was reported once
        assert cli_main(["--preset", "lrp-desk", "--m", "40", "--n", "10",
                         *argv]) == 2
        assert ("config error: solvers: solver 'pb_apg' is listed twice"
                in capsys.readouterr().err)

    def test_unallocatable_width_exits_2(self, tmp_path, capsys):
        # at the parent np.zeros raised ValueError: a traceback and exit 1
        path = tmp_path / "wide.libsvm"
        path.write_text(f"1 {2 ** 63 - 1}:1\n")
        assert cli_main(["--preset", "lrp-a1a", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert "input error: a dense 1 x 9223372036854775807" in err
        assert "Traceback" not in err

    def test_unallocatable_synthetic_size_exits_2(self, capsys):
        # at the parent rng.normal raised ValueError: a traceback and exit 1
        assert cli_main(["--problem", "lrp-synth", "--m", "10000000000",
                         "--n", "10000000000", "--solver", "pb_apg",
                         "--gamma", "1e4"]) == 2
        err = capsys.readouterr().err
        assert ("config error: a 10000000000 x 10000000000 synthetic "
                "instance cannot be allocated" in err)
        assert "Traceback" not in err

    def test_synthetic_memory_error_exits_2(self, monkeypatch, capsys):
        # at the parent the MemoryError escaped cli.main
        def exhausted(family, m, n, seed, **kwargs):
            raise MemoryError(f"no memory for {m} x {n}")

        monkeypatch.setattr(run_module, "synth_instance", exhausted)
        assert cli_main(["--problem", "lsrp-synth", "--m", "40", "--n", "10",
                         "--solver", "pb_apg", "--gamma", "1e4"]) == 2
        assert ("config error: a 40 x 10 synthetic instance cannot be "
                "allocated (no memory for 40 x 10)" in capsys.readouterr().err)

    def test_every_flag_reaches_the_config(self, monkeypatch):
        seen = {}

        def capture(values):
            seen.update(values)
            raise ConfigError("captured", field="none")

        monkeypatch.setattr(cli_module, "build_config", capture)
        rc = cli_main(["--preset", "lrp-desk", "--problem", "lrp-synth",
                       "--data", "d.txt", "--solver", "pb_apg",
                       "--gamma", "2", "--epsilon", "3", "--beta", "4",
                       "--alpha", "5", "--rho", "6", "--lf", "7",
                       "--seed", "8", "--m", "9", "--n", "10",
                       "--out-dir", "o", "--max-iters", "11",
                       "--step-tol", "12", "--fixed-clock"])
        assert rc == 2
        assert seen == {"preset": "lrp-desk", "problem": "lrp-synth",
                        "data": "d.txt", "solvers": "pb_apg", "gamma": 2.0,
                        "epsilon": 3.0, "beta": 4.0, "alpha": 5.0,
                        "rho": 6.0, "lf": 7.0, "seed": 8, "m": 9, "n": 10,
                        "out_dir": "o", "max_iters": 11, "step_tol": 12.0,
                        "fixed_clock": True}

    @pytest.mark.parametrize("key,value", [
        ("gamma", "-1"), ("gamma", "nan"), ("m", "0"), ("seed", "-1"),
        ("alpha", "0.5"), ("rho", "-1"), ("relaxation", "0"),
        ("step_tol", "-1"), ("theta", "0"), ("tau", "-1"), ("eta", "1"),
        ("solvers", "pb_apg,pb_apg"), ("cert_g_target", "nan"),
        ("cert_f_target", "nan"),
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, capsys,
                                                  key, value):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"preset = lrp-desk\nm = 40\nn = 10\n{key} = {value}\n")
        assert cli_main(["--config", str(cfg)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err

    def test_unreachable_ladder_is_a_config_error(self, tmp_path, capsys):
        # eps_k = 1e-6 / 1.01^k needs about 926 stages to reach 1e-10
        cfg = tmp_path / "ladder.cfg"
        cfg.write_text("preset = lrp-bench\nm = 40\nn = 10\neta = 1.01\n")
        assert cli_main(["--config", str(cfg)]) == 2
        assert "config error: stop_epsilon: " in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, "1 2:1 1:1\n"],
                             ids=["missing", "malformed"])
    def test_bad_data_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "data.libsvm"
        if text is not None:
            path.write_text(text)
        rc = cli_main(["--problem", "lrp-libsvm", "--data", str(path),
                       "--solver", "pb_apg", "--gamma", "1e4"])
        assert rc == 2
        assert "input error: " in capsys.readouterr().err

    @pytest.mark.parametrize("raw, reason", [
        (b"+1 1:1\n-1 2:\xe9\n", "line 2: byte 0xe9 is not UTF-8 text"),
        (b"+1 1:1\n# caf\xe9\n-1 2:1\n", "line 2: byte 0xe9 is not UTF-8"),
        (b"+1 1:1\n-1 2:x\n-1 2:\xff\n", "line 2: non-numeric feature"),
        (b"+1 1:1\r\n-1 2:1\r\n+1 1:\xc3", "line 3: byte 0xc3 is not"),
        (b"+1 99999999999999999999:1\n", "line 1: feature index "
                                          "99999999999999999999 is past")],
        ids=["value", "comment", "earlier-line", "crlf-truncated", "int64"])
    def test_undecodable_or_out_of_range_data_exits_2(self, tmp_path, capsys,
                                                      raw, reason):
        # at the parent a UnicodeDecodeError or OverflowError escaped with a
        # traceback and exit code 1, the code of a failed certificate
        path = tmp_path / "bad.libsvm"
        path.write_bytes(raw)
        rc = cli_main(["--problem", "lrp-libsvm", "--data", str(path),
                       "--solver", "pb_apg", "--gamma", "1e3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "input error: " in err and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("problem", ["lrp-libsvm", "lsrp-libsvm"])
    @pytest.mark.parametrize("text, reason", [
        ("+1 1:0.5 2:1\n-1 1:nan\n", "line 2: feature value"),
        ("+1 1:0.5 2:1\n-1 2:inf\n", "line 2: feature value"),
        ("+1 1:0.5 2:1\n-1 1:1e400\n", "line 2: feature value"),
        ("+1 1:0.5\nnan 1:1\n", "line 2: label"),
        ("", "no data rows"), ("# header only\n\n", "no data rows")],
        ids=["nan", "inf", "1e400", "nan-label", "empty", "no-rows"])
    def test_non_finite_or_empty_data_exits_2(self, tmp_path, capsys,
                                              problem, text, reason):
        # at the parent these raised ValueError, OverflowError or
        # ZeroDivisionError, or failed a solver, instead of an input error
        path = tmp_path / "data.libsvm"
        path.write_text(text)
        rc = cli_main(["--problem", problem, "--data", str(path),
                       "--solver", "pb_apg", "--gamma", "1e4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "input error: " in err and reason in err
        assert "Traceback" not in err

    def test_failed_reference_exits_3_without_traceback(self, monkeypatch,
                                                        capsys):
        def stop(instance):
            raise Nonconvergence("reference cap reached")

        monkeypatch.setattr(run_module, "lower_opt_value", stop)
        assert cli_main(["--preset", "lrp-desk", "--m", "40", "--n", "10"]) == 3
        err = capsys.readouterr().err
        assert "Nonconvergence: reference cap reached" in err
        assert "Traceback" not in err

    def test_help_lists_presets(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        assert "--preset" in out
