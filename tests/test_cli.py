"""Command-line interface: subcommands, exit codes, and output contracts."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import entrisk
from entrisk import cli, errors, experiment, logrisk, type2
from entrisk.cli import cli_main
from entrisk.errors import ConfigError, EntriskError
from entrisk.experiment import ExperimentConfig
from entrisk.risk import EmpiricalRiskProfile

FIXTURES = Path(__file__).parent / "fixtures"
BENCHMARK_CHECK = Path(__file__).parent.parent / "perfbench" / "check.py"
BENCHMARK_WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.json"


def write_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "predictor": "linear_regression",
        "loss": "squared",
        "grid_min": [0.25],
        "grid_max": [0.25],
        "grid_resolution": [1],
        "reference": "uniform",
        "dataset": "synthetic",
        "true_model": [0.5],
        "noise": 0.1,
        "n": 6,
        "data_seed": 5,
        "lambda_min": 0.5,
        "lambda_max": 2.0,
        "lambda_count": 3,
        "output_csv": "out.csv",
        "output_json": "out.json",
        "seed": 1,
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def copy_two_atom_fixture(tmp_path: Path) -> Path:
    for name in ("two_atom_config.json", "two_atom_data.csv"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path / "two_atom_config.json"


def count_calls(monkeypatch, module, name: str) -> list:
    """Count calls of ``module.name`` through every package module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (entrisk, experiment, logrisk, type2, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


COMMANDS = {
    "sweep": ["sweep"],
    "solve": ["solve", "--lambda", "1.0", "--type", "2"],
    "verify": ["verify"],
}


class TestVerify:
    def test_constant_risk_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # single-atom grid: constant risks
        assert cli_main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "pass" in out

    def test_two_atom_fixture_passes(self, tmp_path):
        cfg = copy_two_atom_fixture(tmp_path)
        assert cli_main(["verify", "--config", str(cfg)]) == 0

    def test_failed_median_solve_fails_fuzz_and_prints_every_line(self, tmp_path, capsys):
        # Every factor is far below the pole guard, so the median-factor
        # solve of the optimality fuzz raises too.
        cfg = write_config(tmp_path, grid_min=[-1.0], grid_max=[1.0], grid_resolution=[5],
                           lambda_min=1e-21, lambda_max=1e-19, lambda_count=3)
        assert cli_main(["verify", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().out.splitlines()
        # No row solved, so no check reports a measured value.
        assert lines == [
            "info grid_argmin_outside_support: False",
            "FAIL all_rows_ok",
            "pass residual_le_1e-12 (worst=n/a)",
            "pass identity_gap_le_1e-9 (worst=n/a)",
            "pass bound_margin_positive (min=n/a)",
            "pass theorem2_gap_le_1e-9 (worst=n/a)",
            "pass k_bar_strictly_increasing",
            "pass k_bar_above_pole (min=n/a)",
            "pass support_collapse",
            "FAIL type1_optimality_fuzz (BracketFailure)",
            "FAIL type2_optimality_fuzz (BracketFailure)",
        ]

    def test_objective_that_overflows_past_lambda_prints_no_warning(self, tmp_path, capsys):
        # At lam = 1.7e308 the median factor's F(P) + lam overflows; its gaps are 0.
        cfg = write_config(tmp_path, loss="absolute", grid_min=[-0.0], grid_max=[3.0],
                           grid_resolution=[2], true_model=[1.7e308], noise=1e300, n=2,
                           data_seed=1, lambda_min=1e-300, lambda_max=1.7e308, lambda_count=2)
        assert cli_main(["verify", "--config", str(cfg)]) == 2  # all_rows_ok fails
        out, err = capsys.readouterr()
        assert "pass type1_optimality_fuzz (worst=0)" in out
        assert "pass type2_optimality_fuzz (worst=0)" in out
        assert err == ""

    def test_bound_margin_stays_finite_where_lam_plus_delta_star_overflows(self, tmp_path, capsys):
        # At lam = 1.7e308 the risks are about 7.9e307, so lam + delta_star
        # overflows while the margin lam + delta_star - R(P2) is finite.
        cfg = write_config(tmp_path, loss="absolute", grid_min=[-0.0], grid_max=[3.0],
                           grid_resolution=[2], true_model=[1.7e308], noise=1e300, n=2,
                           data_seed=1, lambda_min=1e-300, lambda_max=1.7e308, lambda_count=2)
        assert cli_main(["sweep", "--config", str(cfg)]) == 2  # the first row fails
        row = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
        lam, risk2, margin, status = float(row[0]), float(row[4]), float(row[6]), row[-1]
        _, _, aligned = experiment.generate_instance(ExperimentConfig.from_json_file(cfg))
        assert status == "ok" and lam + aligned.delta_star == float("inf")
        assert margin == (lam - risk2) + aligned.delta_star == 1.7e308
        capsys.readouterr()
        assert cli_main(["verify", "--config", str(cfg)]) == 2
        assert "pass bound_margin_positive (min=1.7e+308)" in capsys.readouterr().out.splitlines()

    def test_mid_size_golden_stdout(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        cfg = tmp_path / "grid10_restricted_config.json"
        assert cli_main(["verify", "--config", str(cfg)]) == 0
        golden = (FIXTURES / "grid10_restricted_verify_golden.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden


class TestSolve:
    @pytest.mark.parametrize("lam", ["-1", "-1e5", "-inf", "nan", "0"])
    def test_nonpositive_lambda_is_validation_error(self, tmp_path, capsys, lam):
        # float() reads each of these, so the command's own check rejects it.
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", lam, "--type", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: field '--lambda': must be > 0")

    @pytest.mark.parametrize("options", [
        ["--config", "{cfg}", "--lambda", "1.0", "--type", "2"],
        ["--config={cfg}", "--lambda=1.0", "--type=2"],
        ["--type", "2", "--lambda", "1.0", "--config", "{cfg}"],
        # A repeated option keeps its last value.
        ["--config", "missing.json", "--lambda", "5", "--type", "1",
         "--config={cfg}", "--lambda", "1.0", "--type", "2"],
    ], ids=["separate_values", "equals_values", "any_order", "repeated_options"])
    def test_solution_json_round_trips(self, tmp_path, capsys, options):
        cfg = copy_two_atom_fixture(tmp_path)
        code = cli_main(["solve", *(option.format(cfg=cfg) for option in options)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == 2
        assert payload["k_bar"] == pytest.approx(0.7071067811865475, abs=1e-9)
        assert payload["weights"] == pytest.approx([0.70710678, 0.29289322], abs=1e-6)

    def test_type1_solution_reports_log_partition(self, tmp_path, capsys):
        cfg = copy_two_atom_fixture(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "1.0", "--type", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log_partition"] == pytest.approx(-0.3798854930417224, abs=1e-12)

    def test_type1_support_lists_only_atoms_with_weight(self, tmp_path, capsys):
        # At this factor the tilt underflows the atoms of largest risk to zero.
        cfg = write_config(tmp_path, grid_min=[-2.0], grid_max=[2.0], grid_resolution=[9])
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "0.001", "--type", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["support"]) == len(payload["weights"]) < 9

    def test_type1_tilt_that_is_not_finite_is_an_error(self, tmp_path, capsys):
        # The one risk of this instance is positive; risk / 5e-324 overflows.
        # The error names the factor, and no warning is issued.
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "5e-324", "--type", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ("solver error: lam=5e-324: L/lam overflows on every atom, "
                       "no tilted weight is finite\n")

    @pytest.mark.parametrize("direction", ["1", "2"])
    def test_infinite_lambda_is_validation_error(self, tmp_path, capsys, direction):
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "inf", "--type", direction])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: field '--lambda': must be finite, got inf\n"


class TestSweep:
    def test_golden_fixture_csv(self, tmp_path):
        cfg = copy_two_atom_fixture(tmp_path)
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        produced = (tmp_path / "two_atom_sweep.csv").read_bytes()
        assert produced == (FIXTURES / "two_atom_sweep_golden.csv").read_bytes()

    def test_two_runs_byte_identical(self, tmp_path):
        cfg = copy_two_atom_fixture(tmp_path)
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        first = (tmp_path / "two_atom_sweep.csv").read_bytes()
        first_json = (tmp_path / "two_atom_summary.json").read_bytes()
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "two_atom_sweep.csv").read_bytes() == first
        assert (tmp_path / "two_atom_summary.json").read_bytes() == first_json

    def test_summary_json_contains_flags_and_digest(self, tmp_path):
        cfg = copy_two_atom_fixture(tmp_path)
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "two_atom_summary.json").read_text())
        assert summary["invariants"]["identity_gap_le_1e-9"] is True
        assert summary["invariants"]["k_bar_strictly_increasing"] is True
        assert len(summary["instance_digest"]) == 64
        assert summary["config"]["loss"] == "absolute"

    @pytest.mark.parametrize("change, same", [
        ({"lambda_min": 0.25, "lambda_max": 4.0, "lambda_count": 5}, True),
        ({"output_csv": "other.csv", "output_json": "other.json"}, True),
        ({"seed": 2}, True),
        ({"data_seed": 6}, False),
        ({"reference_scale": 0.7}, False),
        ({"seed": None}, True),  # None leaves the key out
    ])
    def test_summary_digest_names_the_instance(self, tmp_path, change, same):
        base = {"grid_min": [-1.0], "grid_max": [1.0], "grid_resolution": [5],
                "reference": "gaussian", "reference_mean": [0.0], "reference_scale": 0.5}
        digests, sweeps = [], []
        for overrides in (base, {**base, **change}):
            path = write_config(tmp_path, **overrides)
            raw = json.loads(path.read_text())
            path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
            assert cli_main(["sweep", "--config", str(path)]) == 0
            cfg = ExperimentConfig.from_json_file(path)
            summary = json.loads((tmp_path / cfg.output_json).read_text())
            q, data, _ = experiment.generate_instance(cfg)
            assert summary["instance_digest"] == experiment.instance_digest(q, data)
            digests.append(summary["instance_digest"])
            sweeps.append((tmp_path / cfg.output_csv).read_bytes())
        assert (digests[0] == digests[1]) == same
        if "seed" in change:  # read by nothing: the sweep keeps every byte
            assert sweeps[0] == sweeps[1]

    def test_missing_output_csv_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_csv=None)
        # json.dumps writes null; strip it to omit the key entirely
        raw = json.loads(cfg.read_text())
        del raw["output_csv"]
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        assert "output_csv" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"output_json": "out.csv"}, "field 'output_json': names the same file as 'output_csv'"),
        ({"output_csv": "config.json"}, "field 'output_csv': names the same file as 'config'"),
        ({"dataset": "csv", "csv_path": "data.csv", "output_json": "./data.csv"},
         "field 'output_json': names the same file as 'csv_path'"),
    ], ids=["json_over_csv", "csv_over_config", "json_over_dataset"])
    def test_output_that_names_an_input_or_the_other_output_is_validation_error(
        self, tmp_path, capsys, monkeypatch, overrides, message
    ):
        (tmp_path / "data.csv").write_text("x1,y\n0.5,1\n0.25,0\n", encoding="utf-8")
        cfg = write_config(tmp_path, **overrides)
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        builds = count_calls(monkeypatch, experiment, "generate_instance")
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert builds == [] and {path: path.read_bytes() for path in tmp_path.iterdir()} == files


class TestSharedPipeline:
    def test_sweep_builds_instance_once_and_solves_type2_once_per_lambda(
        self, tmp_path, monkeypatch
    ):
        cfg = write_config(tmp_path, grid_min=[-1.0], grid_max=[1.0], grid_resolution=[5])
        builds = count_calls(monkeypatch, experiment, "generate_instance")
        solves = count_calls(monkeypatch, type2, "solve_type2")
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert len(builds) == 1
        assert [args[1] for args in solves] == pytest.approx([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("lambda_count", [1, 3])
    def test_command_builds_lambda_grid_once(self, tmp_path, monkeypatch, command, lambda_count):
        # The config's validation builds the grid (for more than one factor)
        # and the command reuses it.
        cfg = write_config(tmp_path, grid_min=[-1.0], grid_max=[1.0], grid_resolution=[5],
                           lambda_count=lambda_count)
        grids = count_calls(monkeypatch, experiment, "lambda_grid")
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert len(grids) == 1

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("reference", ["uniform", "restricted"])
    def test_command_builds_lattice_axes_once(self, tmp_path, monkeypatch, command, reference):
        # The config's validation builds the axes and the grid reuses them;
        # a restricted reference also scores the whole grid.
        box = {"reference_box_min": [-1.0, -1.0], "reference_box_max": [0.0, 1.0]}
        cfg = write_config(tmp_path, grid_min=[-1.0, -1.0], grid_max=[1.0, 1.0],
                           grid_resolution=[5, 4], true_model=[0.5, -0.5], reference=reference,
                           **(box if reference == "restricted" else {}))
        axes = count_calls(monkeypatch, experiment, "_axes")
        assert cli_main([command, "--config", str(cfg)]) == 0
        assert len(axes) == 1

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("reference", ["uniform", "restricted"])
    def test_command_builds_instance_record_once(self, tmp_path, monkeypatch, command, reference):
        # The risks are evaluated in one pass and aligned once, into the
        # record every solve and check reads: on supp(Q) for a uniform
        # reference, over the whole grid for a restricted one, whose atoms
        # outside supp(Q) the record then holds.
        box = {"reference_box_min": [-1.0, -1.0], "reference_box_max": [0.0, 1.0]}
        cfg = write_config(tmp_path, grid_min=[-1.0, -1.0], grid_max=[1.0, 1.0],
                           grid_resolution=[5, 4], true_model=[0.5, -0.5], reference=reference,
                           **(box if reference == "restricted" else {}))
        aligned = []
        original = EmpiricalRiskProfile.aligned

        def counted(profile, atoms):
            aligned.append(atoms)
            return original(profile, atoms)

        # On the class: experiment binds aligned_risks, not the method.
        monkeypatch.setattr(EmpiricalRiskProfile, "aligned", counted)
        profiles = count_calls(monkeypatch, experiment, "risk_profile")
        assert cli_main([command, "--config", str(cfg)]) == 0
        (q,) = aligned
        ((atoms, *_),) = profiles
        if reference == "restricted":
            assert q.num_atoms < 20 and atoms.grid is q.grid
            assert atoms.index.tolist() == list(range(20))
        else:
            assert atoms is q

    @pytest.mark.parametrize("seed", [1001, 7])
    def test_verify_on_the_misspecified_benchmark_solves_each_factor_once(
        self, tmp_path, monkeypatch, seed
    ):
        # One risk pass over the 3,600-atom grid, and one solve per direction
        # and factor: the optimality checks read the sweep's median solutions.
        workloads = json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))
        raw = dict(workloads["workloads"]["verify-misspecified"]["config"],
                   **{key: seed for key in workloads["seed_fields"]})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        profiles = count_calls(monkeypatch, experiment, "risk_profile")
        solves1 = count_calls(monkeypatch, experiment, "solve_type1")
        solves2 = count_calls(monkeypatch, experiment, "solve_type2")
        assert cli_main(["verify", "--config", str(config)]) == 0
        assert [args[0].num_atoms for args in profiles] == [3600]
        lambdas = ExperimentConfig.from_dict(raw).lambdas.tolist()
        assert [args[1] for args in solves1] == [args[1] for args in solves2] == lambdas
        assert len(lambdas) == 20

    @pytest.mark.parametrize("lambda_min", [0.5, 1e-20])  # 1e-20: first row fails
    def test_summary_flags_match_verify_lines(self, tmp_path, capsys, lambda_min):
        cfg = write_config(tmp_path, grid_min=[-1.0], grid_max=[1.0], grid_resolution=[5],
                           lambda_min=lambda_min)
        sweep_code = cli_main(["sweep", "--config", str(cfg)])
        flags = json.loads((tmp_path / "out.json").read_text())["invariants"]
        capsys.readouterr()
        verify_code = cli_main(["verify", "--config", str(cfg)])
        markers = {}
        for line in capsys.readouterr().out.splitlines():
            marker, name = line.split(" ")[:2]
            markers[name] = marker
        assert sweep_code == verify_code == (0 if lambda_min == 0.5 else 2)
        assert flags["all_rows_ok"] is (lambda_min == 0.5)
        assert flags == {name: markers[name] == "pass" for name in flags}


class TestInstanceFailures:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_data_csv_is_io_error(self, tmp_path, command):
        cfg = write_config(tmp_path, dataset="csv", csv_path="missing.csv")
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("content", [
        b"x1,y\n0.5,\xff\xfe\n",  # not UTF-8
        b"x1,y\n0.5," + b"1" * 200_000 + b"\n",  # a cell over the csv module's field limit
    ], ids=["non_utf8", "oversize_cell"])
    def test_unreadable_data_csv_is_validation_error(self, tmp_path, capsys, command, content):
        (tmp_path / "data.csv").write_bytes(content)
        cfg = write_config(tmp_path, dataset="csv", csv_path="data.csv")
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field 'csv_path': ") and "data.csv" in err
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("cell", ["1_5", " 0.5 ", "\uff11"])  # \uff11: full-width 1
    def test_cell_beyond_ascii_decimals_is_validation_error(self, tmp_path, capsys, command, cell):
        # float() reads each of these cells; the dataset grammar does not.
        (tmp_path / "data.csv").write_text(f"x1,y\n0.5,1\n0.25,{cell}\n", encoding="utf-8")
        cfg = write_config(tmp_path, dataset="csv", csv_path="data.csv")
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 3, column 2" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("content, message", [
        ("", "{path}: empty file, header row required"),
        ("x1,y\n", "{path}: no data rows"),
        ("x1,y\n0.5,1\n0.25,1e999\n", "{path}: row 3, column 2: '1e999' is not finite"),
        ("x1,x2,y\n0.5,0.25,1\n", "field 'csv_path': dataset pattern dimension 2 "
                                    "does not match predictor dimension 1"),
    ], ids=["empty_file", "no_rows", "overflowing_decimal", "pattern_dimension"])
    def test_rejected_data_csv_is_validation_error(self, tmp_path, capsys, command, content,
                                                   message):
        (tmp_path / "data.csv").write_text(content, encoding="utf-8")
        cfg = write_config(tmp_path, dataset="csv", csv_path="data.csv")
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message.format(path=tmp_path / 'data.csv')}\n"


GAUSSIAN = {"reference": "gaussian", "reference_mean": [0.25]}


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("lambda_min", {"lambda_min": "abc"}),
            ("lambda_max", {"lambda_max": "1.0"}),
            ("noise", {"noise": "abc"}),
            ("reference_scale", {**GAUSSIAN, "reference_scale": "abc"}),
            ("true_model", {"true_model": [True]}),
            ("noise", {"noise": float("inf")}),
            ("noise", {"noise": float("nan")}),
            ("reference_scale", {**GAUSSIAN, "reference_scale": float("inf")}),
            ("lambda_min", {"lambda_min": float("-inf")}),
            ("lambda_max", {"lambda_max": float("inf")}),
            ("lambda_max", {"lambda_max": 10**400}),
            ("n", {"n": True}),
            ("seed", {"seed": True}),
            ("data_seed", {"data_seed": False}),
            ("lambda_count", {"lambda_count": True}),
            ("grid_resolution", {"grid_resolution": [True]}),
            ("intercept", {"intercept": "false"}),
            ("intercept", {"intercept": 0}),
            ("noise", {"predictor": "linear_threshold_classifier", "loss": "zero_one",
                       "noise": 5.0}),
            ("seed", {"seed": -1}),
            # A key of another reference or dataset kind is read all the same.
            ("reference_scale", {"reference_scale": -5}),
            ("csv_path", {"csv_path": 7}),
            ("reference_box_min", {"reference_box_min": "x"}),
            ("true_model", {"dataset": "csv", "csv_path": "data.csv", "true_model": [0.5, 1.0]}),
        ],
    )
    def test_malformed_field_is_validation_error(self, tmp_path, capsys, field, overrides):
        cfg = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ExperimentConfig.from_json_file(cfg)
        assert cli_main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("grid_max", {"grid_min": [0.0, -1.5], "grid_max": [0.0, 1.5],
                          "grid_resolution": [12, 12], "true_model": [0.7, -0.3]}),
            ("grid_max", {"grid_min": [-1e308], "grid_max": [1e308], "grid_resolution": [3]}),
            ("lambda_max", {"lambda_min": 0.5, "lambda_max": 0.5, "lambda_count": 3}),
            ("lambda_max", {"lambda_min": 0.5, "lambda_max": 0.5 * (1 + 1e-15),
                            "lambda_count": 10}),
            ("reference_mean", {**GAUSSIAN, "reference_mean": [1e308], "reference_scale": 1.0}),
            ("reference_scale", {**GAUSSIAN, "reference_scale": 1e-170}),
            ("true_model", {"intercept": True, "grid_min": [0.25, 0.25],
                            "grid_max": [0.25, 0.25], "grid_resolution": [1, 1],
                            "true_model": [1e308, 1e308], "n": 50}),
            ("grid_max", {"grid_min": [-1e200], "grid_max": [1e200], "grid_resolution": [3]}),
            ("grid_max", {"grid_min": [-1e154], "grid_max": [1e154], "grid_resolution": [3],
                          "n": 50}),
        ],
        ids=["degenerate_axis", "overflowing_axis", "equal_lambdas", "lambdas_within_rounding",
             "overflowing_gaussian_distance", "underflowing_gaussian_scale",
             "overflowing_labels", "overflowing_risks", "overflowing_risk_sum"],
    )
    def test_degenerate_grid_is_validation_error(
        self, tmp_path, capsys, command, field, overrides
    ):
        cfg = write_config(tmp_path, **overrides)
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_risk_overflow_outside_support_is_validation_error(self, tmp_path, capsys, command):
        # supp(Q) is the atom at 0; only the grid atoms outside it overflow.
        # Every command builds the instance with the whole grid's risks.
        cfg = write_config(tmp_path, grid_min=[-1e200], grid_max=[1e200], grid_resolution=[3],
                           reference="restricted", reference_box_min=[-1.0],
                           reference_box_max=[1.0])
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "'grid_max'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()


#: The classes that mark bad input, and so exit 1 with ``error:``.
INPUT_ERRORS = {"ConfigError", "MalformedHeader", "RowArity", "NonFiniteCell"}
PACKAGE_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, EntriskError)),
    key=lambda cls: cls.__name__,
)


class TestErrorLabels:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("error", [*PACKAGE_ERRORS, OSError], ids=lambda cls: cls.__name__)
    def test_error_class_sets_exit_code_and_label(
        self, tmp_path, capsys, monkeypatch, command, error
    ):
        def failing(cfg):
            raise error("planted")

        monkeypatch.setattr(cli, "generate_instance", failing)
        cfg = write_config(tmp_path)
        code = cli_main([*COMMANDS[command], "--config", str(cfg)])
        if error is OSError:
            expected = (3, "i/o error: planted\n")
        elif error.__name__ in INPUT_ERRORS:
            expected = (1, "error: planted\n")
        else:
            expected = (2, "solver error: planted\n")
        out, err = capsys.readouterr()
        assert (code, err, out) == (*expected, "")

    def test_type2_factor_below_the_pole_guard_is_solver_error(self, tmp_path, capsys):
        # Nine atoms with more than one risk value; a one-atom grid solves at any factor.
        cfg = write_config(tmp_path, grid_min=[-2.0], grid_max=[2.0], grid_resolution=[9])
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "1e-300", "--type", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("solver error: empty bracket: lam=1e-300 ")


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert cli_main(["verify", "--config", str(tmp_path / "nope.json")]) == 3

    def test_invalid_json_is_validation_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli_main(["verify", "--config", str(path)]) == 1

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert cli_main(["verify", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: config is not valid UTF-8 JSON")

    def test_unknown_key_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mystery=1)
        assert cli_main(["verify", "--config", str(cfg)]) == 1
        assert "mystery" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [],
        ["train", "--config", "{cfg}"],
        ["--config", "{cfg}"],
        ["solve", "--nonsense"],
        ["verify", "--config", "{cfg}", "extra"],
        ["sweep", "--config", "{cfg}", "--lambda", "1.0"],
        ["sweep", "--conf", "{cfg}"],
        ["sweep", "--config"],
        ["verify", "--config", "--config", "{cfg}"],
        ["solve", "--config", "{cfg}", "--type", "2", "--lambda"],
        ["sweep"],
        ["solve", "--config", "{cfg}", "--type", "2"],
        ["solve", "--config", "{cfg}", "--lambda", "1.0"],
        ["solve", "--config", "{cfg}", "--lambda", "1.0", "--type", "3"],
        ["solve", "--config", "{cfg}", "--lambda", "1.0", "--type", "02"],
        ["solve", "--config", "{cfg}", "--lambda", "1.0", "--type="],
        ["solve", "--config", "{cfg}", "--lambda", "abc", "--type", "2"],
        ["solve", "--config", "{cfg}", "--lambda=", "--type", "2"],
        ["solve", "--config", "{cfg}", "--lambda", "abc", "--lambda", "1.0", "--type", "2"],
    ], ids=[
        "no_command", "unknown_command", "option_before_command", "unknown_option",
        "positional_argument", "option_of_another_command", "option_prefix",
        "missing_value_at_end", "option_as_value", "missing_lambda_value",
        "missing_config", "missing_lambda", "missing_type", "type_not_a_choice",
        "type_not_exactly_a_choice", "empty_type", "lambda_not_a_float", "empty_lambda",
        "rejected_value_before_a_valid_one",
    ])
    def test_usage_error_is_validation_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        assert cli_main([arg.format(cfg=cfg) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: entrisk ")
        assert err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["-h"],
        ["--help"],
        ["sweep", "-h"],
        ["solve", "--help"],
        ["solve", "--config", "{cfg}", "--help", "--lambda", "abc"],
        ["--help", "train"],
    ], ids=["short", "long", "short_after_command", "long_after_command", "among_options",
            "before_unknown_command"])
    def test_help_exits_zero(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        assert cli_main([arg.format(cfg=cfg) for arg in argv]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: entrisk ") and err == ""
        for word in ("sweep", "solve", "verify", "--config", "--lambda", "--type", "--help"):
            assert word in out

    def test_sweep_loads_no_argument_parser(self, tmp_path):
        # A fresh process: argparse, gettext and locale cost a cold start
        # on every run, and nothing in the package needs them.
        cfg = write_config(tmp_path)
        script = (
            "import sys\n"
            "from entrisk.cli import cli_main\n"
            f"code = cli_main(['sweep', '--config', {str(cfg)!r}])\n"
            "loaded = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "print(code, loaded)\n"
        )
        src = str(Path(entrisk.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestBenchmarkContract:
    """The benchmark parses verify's check lines and sweep's summary flags."""

    @pytest.fixture(scope="class")
    def check(self):
        # Run from its source text, so no bytecode cache is written beside it.
        module = types.ModuleType("benchmark_check")
        source = BENCHMARK_CHECK.read_text(encoding="utf-8")
        exec(compile(source, str(BENCHMARK_CHECK), "exec"), module.__dict__)
        return module

    def test_verify_lines_satisfy_the_benchmark_check(self, check, tmp_path, capsys):
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        assert cli_main(["verify", "--config", str(tmp_path / "grid10_restricted_config.json")]) == 0
        out = capsys.readouterr().out
        assert check.check_verify(out) == []
        assert set(check.verify_worst(out)) == set(check.THRESHOLDS)

    def test_verify_workload_prints_and_passes_every_benchmark_check(self, check, tmp_path, capsys):
        # check.py fails a run on a missing or failing line among VERIFY_CHECKS;
        # every other line verify prints must pass too.
        _, stdout = run_benchmark_workload("verify-misspecified", tmp_path, capsys)
        printed = check.parse_verify(stdout.decode())
        assert set(check.VERIFY_CHECKS) <= set(printed)
        assert {"all_rows_ok", "k_bar_above_pole"} <= set(printed)
        assert [name for name, (ok, _) in printed.items() if not ok] == []

    def test_sweep_summary_satisfies_the_benchmark_check(self, check, tmp_path, capsys):
        shutil.copy(FIXTURES / "grid12_gaussian_config.json", tmp_path)
        cfg = tmp_path / "grid12_gaussian_config.json"
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        lambda_count = json.loads(cfg.read_text(encoding="utf-8"))["lambda_count"]
        assert check.check_sweep_summary(capsys.readouterr().out, lambda_count) == []


def run_benchmark_workload(
    name: str, tmp_path: Path, capsys, *argv: str
) -> tuple[dict, bytes]:
    """Run benchmark workload ``name`` at seed 1001 in ``tmp_path``: its config and stdout.

    ``argv``, when given, replaces the workload's command: the same config
    runs under another subcommand and its options.
    """
    workloads = json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))
    workload = workloads["workloads"][name]
    config = dict(workload["config"], **{key: 1001 for key in workloads["seed_fields"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    command, *options = argv or [workload["command"]]
    assert cli_main([command, "--config", str(path), *options]) == 0
    return config, capsys.readouterr().out.encode()


class TestBenchmarkOutputs:
    """The benchmark workloads at seed 1001 keep their output bytes.

    The sha256 values are of the sweep CSV (sweep workloads), of the
    standard output (verify), and of the sweep summary JSON and standard
    output, which hold the invariant values and the instance digest, all as
    printed once the Newton steps on 1/g read float sums of g where their
    distance from 1 is certain, and the Gibbs tilt was divided once by its
    exact sum: that moved Type-1 and Type-2 columns and invariant values in
    their last bits. A performance change that keeps the solver's iterates
    must leave them as they are. The
    ``solve`` pins hold the JSON that command prints for one factor on the
    ``sweep-path`` config. The summary pins carry the instance digest over
    the instance's ``<f8`` bytes (README, "JSON summary"); the CSV, verify
    and ``solve`` pins did not move when it replaced the text digest. The
    verify pin moved when its two optimality lines became the excess
    identities and began printing their worst gap, and again when verify
    began to solve zero-one instances on the risk histogram.
    """

    @pytest.mark.parametrize("name, sha256", [
        ("sweep-path", "7c8b9d35767c3a3ce20356e7335ccf2d678d8c3771f5b31ec3491057ec06283d"),
        ("sweep-wide", "5f38a9e75fc25220ec37909d4528beca6a18665d88398c9afeae86f1f9c4e04e"),
        ("verify-misspecified", "c6f52bd06afa8b3c58c33f78d03ce7718b3d2d9e58dec1e3b1226967ac926cfa"),
    ])
    def test_output_bytes(self, name, sha256, tmp_path, capsys):
        config, stdout = run_benchmark_workload(name, tmp_path, capsys)
        if "output_csv" in config:
            stdout = (tmp_path / config["output_csv"]).read_bytes()
        assert hashlib.sha256(stdout).hexdigest() == sha256

    @pytest.mark.parametrize("name, summary_sha256, stdout_sha256", [
        (
            "sweep-path",
            "e310551c57d410454e827009f826ebbaab5aa018d27321642016bd629432c9ef",
            "f38885633a1bec8a1fe321673accdf30527501e8ffae6b2ab02774dbcd2b0e8b",
        ),
        (
            "sweep-wide",
            "06e95da674dfbc41e1180e9d0b67f2d1378ed99adb5ad47f361c1d47c69a8f68",
            "d458923d133edcdd8590211318755ec94b33200b6eb5f0bd03283daadc229dd5",
        ),
    ])
    def test_sweep_summary_bytes(self, name, summary_sha256, stdout_sha256, tmp_path, capsys):
        config, stdout = run_benchmark_workload(name, tmp_path, capsys)
        summary = (tmp_path / config["output_json"]).read_bytes()
        assert hashlib.sha256(summary).hexdigest() == summary_sha256
        assert hashlib.sha256(stdout).hexdigest() == stdout_sha256

    @pytest.mark.parametrize("direction, lam, sha256", [
        # The tilt underflows 3,157 of the 4,096 atoms to zero weight.
        ("1", "0.001", "146d7ea9eca98aaba2898ae474a1a44e96e5d09e2081a57f90cae36ff72d122f"),
        ("1", "50", "9f163b84146053603391f0f9b91035b54d62958c8cc329d5be1064bc9a476204"),
        ("2", "0.37", "f243994a5f2d7ea6156ff54ad3f96f456f3c1e1ff5f30bcab2e69eae78c839dc"),
    ])
    def test_solve_bytes(self, direction, lam, sha256, tmp_path, capsys):
        _, stdout = run_benchmark_workload(
            "sweep-path", tmp_path, capsys, "solve", "--type", direction, "--lambda", lam
        )
        assert hashlib.sha256(stdout).hexdigest() == sha256
