"""Command-line interface: subcommands, exit codes, and output contracts."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import entrisk
from entrisk import cli, experiment, logrisk, type2
from entrisk.cli import cli_main
from entrisk.errors import ConfigError
from entrisk.experiment import ExperimentConfig

FIXTURES = Path(__file__).parent / "fixtures"


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
        assert lines[0] == "info grid_argmin_outside_support: False"
        assert [line.split(" ")[1] for line in lines[1:]] == [
            "all_rows_ok", "residual_le_1e-12", "identity_gap_le_1e-9",
            "bound_margin_positive", "theorem2_gap_le_1e-9",
            "k_bar_strictly_increasing", "support_collapse",
            "type1_optimality_fuzz", "type2_optimality_fuzz",
        ]
        assert lines[-2:] == [
            "FAIL type1_optimality_fuzz (BracketFailure)",
            "FAIL type2_optimality_fuzz (BracketFailure)",
        ]

    def test_mid_size_golden_stdout(self, tmp_path, capsys):
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        cfg = tmp_path / "grid10_restricted_config.json"
        assert cli_main(["verify", "--config", str(cfg)]) == 0
        golden = (FIXTURES / "grid10_restricted_verify_golden.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden


class TestSolve:
    def test_negative_lambda_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "-1", "--type", "2"])
        assert code == 1
        assert "lambda" in capsys.readouterr().err

    def test_solution_json_round_trips(self, tmp_path, capsys):
        cfg = copy_two_atom_fixture(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "1.0", "--type", "2"])
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

    @pytest.mark.parametrize("direction", ["1", "2"])
    def test_infinite_lambda_is_validation_error(self, tmp_path, capsys, direction):
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--lambda", "inf", "--type", direction])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: field '--lambda': must be finite, got inf\n"

    def test_bad_type_choice_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli_main(["solve", "--config", str(cfg), "--lambda", "1", "--type", "3"]) == 1


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

    def test_missing_output_csv_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_csv=None)
        # json.dumps writes null; strip it to omit the key entirely
        raw = json.loads(cfg.read_text())
        del raw["output_csv"]
        cfg.write_text(json.dumps(raw))
        assert cli_main(["sweep", "--config", str(cfg)]) == 1
        assert "output_csv" in capsys.readouterr().err


class TestSharedPipeline:
    def test_sweep_builds_instance_once_and_solves_type2_once_per_lambda(
        self, tmp_path, monkeypatch
    ):
        cfg = write_config(tmp_path, grid_min=[-1.0], grid_max=[1.0], grid_resolution=[5])
        builds = count_calls(monkeypatch, experiment, "generate_instance")
        solves = count_calls(monkeypatch, type2, "solve_type2")
        assert cli_main(["sweep", "--config", str(cfg)]) == 0
        assert len(builds) == 1
        assert [args[2] for args in solves] == pytest.approx([0.5, 1.0, 2.0])

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
    def test_non_utf8_data_csv_is_solver_error(self, tmp_path, capsys, command):
        (tmp_path / "data.csv").write_bytes(b"x1,y\n0.5,\xff\xfe\n")
        cfg = write_config(tmp_path, dataset="csv", csv_path="data.csv")
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 2
        assert "solver error" in capsys.readouterr().err


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
        ],
        ids=["degenerate_axis", "overflowing_axis", "equal_lambdas", "lambdas_within_rounding"],
    )
    def test_degenerate_grid_is_validation_error(
        self, tmp_path, capsys, command, field, overrides
    ):
        cfg = write_config(tmp_path, **overrides)
        assert cli_main([*COMMANDS[command], "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err


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

    def test_usage_error_maps_to_validation(self):
        assert cli_main(["solve", "--nonsense"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out
