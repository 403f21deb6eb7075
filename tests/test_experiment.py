"""Config validation, instance generation, sweeps, and CSV I/O."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk import experiment, measures, type1, type2
from entrisk.errors import (
    ConfigError,
    EntriskError,
    MalformedHeader,
    NonFiniteCell,
    RowArity,
)
from entrisk.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    Invariant,
    SweepRecord,
    build_reference,
    emit_csv,
    emit_dataset_csv,
    emit_summary_json,
    generate_instance,
    grid_argmin_outside_support,
    grid_points,
    ingest_csv_dataset,
    instance_digest,
    invariant_checks,
    lambda_grid,
    loss_spec,
    optimality_fuzz,
    outside_profile,
    predictor_spec,
    run_sweep,
    sweep_records,
    sweep_summary,
)
from entrisk.cli import cli_main
from entrisk.measures import kl_divergence, make_measure, measure_on, total_variation
from entrisk.risk import Dataset, EmpiricalRiskProfile, risk_profile
from entrisk.type1 import solve_type1, type1_objective
from entrisk.type2 import escape_threshold, solve_type2, support_escape_slope, type2_objective
from entrisk.logrisk import verify_theorem2

from conftest import (
    lattice_points,
    profile_from,
    random_solver_instance,
    solution_measure,
    uniform_on,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPTS = Path(__file__).parent.parent / "scripts"
BENCHMARK_WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.json"
SRC = Path(__file__).parent.parent / "src"


def benchmark_config(workload: str, seed: int) -> dict:
    """The raw config of a benchmark workload with ``seed`` in its seed fields."""
    workloads = json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))
    return dict(workloads["workloads"][workload]["config"],
                **{key: seed for key in workloads["seed_fields"]})


def base_config(**overrides) -> dict:
    raw = {
        "predictor": "linear_regression",
        "loss": "squared",
        "grid_min": [-1.0],
        "grid_max": [1.0],
        "grid_resolution": [5],
        "reference": "uniform",
        "dataset": "synthetic",
        "true_model": [0.5],
        "noise": 0.1,
        "n": 8,
        "data_seed": 3,
        "lambda_min": 0.1,
        "lambda_max": 10.0,
        "lambda_count": 5,
        "seed": 11,
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_valid_config_parses(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.dim == 1 and cfg.lambda_count == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown field.*bogus"):
            ExperimentConfig.from_dict(base_config(bogus=1))

    def test_missing_required_key_named(self):
        raw = base_config()
        del raw["loss"]
        with pytest.raises(ConfigError, match="'loss'"):
            ExperimentConfig.from_dict(raw)

    def test_nonpositive_lambda_min_named(self):
        with pytest.raises(ConfigError, match="'lambda_min'"):
            ExperimentConfig.from_dict(base_config(lambda_min=0.0))

    def test_gaussian_requires_scale(self):
        raw = base_config(reference="gaussian", reference_mean=[0.0])
        with pytest.raises(ConfigError, match="'reference_scale'"):
            ExperimentConfig.from_dict(raw)

    def test_gaussian_scale_positive(self):
        raw = base_config(
            reference="gaussian", reference_mean=[0.0], reference_scale=0.0
        )
        with pytest.raises(ConfigError, match="'reference_scale'"):
            ExperimentConfig.from_dict(raw)

    def test_resolution_must_be_positive_int(self):
        with pytest.raises(ConfigError, match="grid_resolution"):
            ExperimentConfig.from_dict(base_config(grid_resolution=[0]))

    def test_restricted_box_must_cover_an_atom(self):
        raw = base_config(
            reference="restricted",
            reference_box_min=[5.0],
            reference_box_max=[6.0],
        )
        cfg = ExperimentConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="sub-box"):
            generate_instance(cfg)

    def test_oversize_grid_rejected(self):
        plane = {"grid_min": [-1.0, -1.0], "grid_max": [1.0, 1.0], "true_model": [0.5, 0.1]}
        with pytest.raises(ConfigError, match="'grid_resolution'.*10000000000 atoms"):
            ExperimentConfig.from_dict(base_config(**plane, grid_resolution=[100000, 100000]))
        with pytest.raises(ConfigError, match="'grid_resolution'"):
            ExperimentConfig.from_dict(base_config(grid_resolution=[experiment.MAX_GRID_ATOMS + 1]))
        assert ExperimentConfig.from_dict(
            base_config(grid_resolution=[experiment.MAX_GRID_ATOMS], n=1)
        ).grid_resolution == (experiment.MAX_GRID_ATOMS,)

    def test_oversize_atoms_times_data_rejected(self):
        n = experiment.MAX_LOSS_EVALUATIONS // 1000 + 1
        with pytest.raises(ConfigError, match="'n'"):
            ExperimentConfig.from_dict(base_config(grid_resolution=[1000], n=n))
        assert ExperimentConfig.from_dict(base_config(grid_resolution=[1000], n=n - 1)).n == n - 1

    def test_oversize_lambda_count_rejected_before_grid(self, monkeypatch):
        monkeypatch.setattr(experiment, "lambda_grid", None)  # must not be reached
        for count in (experiment.MAX_LAMBDA_COUNT + 1, 2**40):
            with pytest.raises(ConfigError, match=f"'lambda_count': {count} factors"):
                ExperimentConfig.from_dict(base_config(lambda_count=count))
        monkeypatch.undo()
        cfg = ExperimentConfig.from_dict(base_config(lambda_count=experiment.MAX_LAMBDA_COUNT))
        assert len(lambda_grid(cfg)) == experiment.MAX_LAMBDA_COUNT

    def test_extreme_bounds_parse_or_raise_config_error(self):
        with pytest.raises(ConfigError, match="'grid_max': axis 0 must span 3 distinct finite"):
            ExperimentConfig.from_dict(
                base_config(grid_min=[-1e308], grid_max=[1e308], grid_resolution=[3])
            )
        largest = sys.float_info.max
        grid = lambda_grid(ExperimentConfig.from_dict(
            base_config(lambda_min=1.0, lambda_max=largest, lambda_count=5)
        ))
        assert grid[-1] == largest and np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)

    def test_size_limits_admit_committed_and_planned_configs(self):
        plane = {"grid_min": [-1.0, -1.0], "grid_max": [1.0, 1.0], "true_model": [0.5, 0.1]}
        # A 250k-atom grid at n = 200.
        ExperimentConfig.from_dict(base_config(**plane, grid_resolution=[500, 500], n=200))
        root = Path(__file__).parent.parent
        workloads = json.loads((root / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
        configs = [w["config"] for w in workloads["workloads"].values()]
        configs += [json.loads(path.read_text(encoding="utf-8"))
                    for path in sorted(FIXTURES.glob("*_config.json"))]
        for raw in configs:
            ExperimentConfig.from_dict({"data_seed": 0, "seed": 0, **raw})

    def test_oversize_csv_dataset_rejected_before_risks(self, tmp_path, monkeypatch):
        emit_dataset_csv(Dataset(np.zeros((3, 1)), np.zeros(3)), tmp_path / "data.csv")
        raw = {key: value for key, value in base_config(dataset="csv", csv_path="data.csv").items()
               if key not in ("true_model", "noise", "n", "data_seed")}
        cfg = ExperimentConfig.from_dict(raw, base_dir=tmp_path)
        monkeypatch.setattr(experiment, "MAX_LOSS_EVALUATIONS", 14)  # 5 atoms x 3 rows = 15
        monkeypatch.setattr(experiment, "risk_profile", None)  # must not be reached
        with pytest.raises(ConfigError, match="'csv_path'.*5 atoms x 3 data rows"):
            generate_instance(cfg)
        monkeypatch.undo()
        assert generate_instance(cfg)[2].num_atoms == 5

    def test_label_flip_noise_at_most_one(self):
        classifier = {"predictor": "linear_threshold_classifier", "loss": "zero_one"}
        assert ExperimentConfig.from_dict(base_config(**classifier, noise=1.0)).noise == 1.0
        with pytest.raises(ConfigError, match="'noise'"):
            ExperimentConfig.from_dict(base_config(**classifier, noise=1.5))
        # Regression noise is an amplitude, not a probability.
        assert ExperimentConfig.from_dict(base_config(noise=5.0)).noise == 5.0


# Arbitrary JSON values, nan and infinities included, nested up to a few levels.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)

VALID_CONFIGS = [
    base_config(),
    base_config(intercept=True, grid_min=[-1.0, -1.0], grid_max=[1.0, 1.0],
                grid_resolution=[3, 3], true_model=[0.5, 0.1],
                reference="gaussian", reference_mean=[0.0, 0.0], reference_scale=0.5),
    base_config(predictor="linear_threshold_classifier", loss="zero_one",
                reference="restricted", reference_box_min=[-1.0], reference_box_max=[0.0]),
    {key: value for key, value in base_config(dataset="csv", csv_path="data.csv").items()
     if key not in ("true_model", "noise", "n", "data_seed")},
]


class TestConfigFuzz:
    @given(
        st.sampled_from(VALID_CONFIGS),
        st.dictionaries(st.sampled_from(sorted(experiment._KNOWN_KEYS)), JSON_VALUES,
                        max_size=6),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_dict_parses_or_raises_config_error(self, base, overrides, data):
        raw = {**base, **overrides}
        for key in data.draw(st.lists(st.sampled_from(sorted(raw)), max_size=3, unique=True)):
            del raw[key]
        try:
            ExperimentConfig.from_dict(raw)
        except ConfigError:
            pass


def per_float_digest(q, data: Dataset) -> str:
    """The instance digest's canonical text, each float formatted on its own: the oracle."""
    h = hashlib.sha256()
    for left, right in ((q.coords, q.weights), (data.patterns, data.labels)):
        table = np.column_stack([left, right])
        line = ",".join(["%.17g"] * left.shape[1]) + ";%.17g\n"
        h.update(((line * len(table)) % tuple(table.ravel().tolist())).encode())
    return h.hexdigest()


#: Doubles whose renderings are easy to merge or to get wrong.
EDGE_DOUBLES = [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


class TestInstanceDigest:
    def test_hand_instance(self):
        q = make_measure([[0.5], [-0.0], [1.0]], [1.0, 1.0, 2.0])
        big = 1.7976931348623157e308
        data = Dataset([[0.0], [-0.0], [5e-324]], [-big, 0.1, big])
        text = (
            "0.5;0.25\n-0;0.25\n1;0.5\n"
            "0;-1.7976931348623157e+308\n-0;0.10000000000000001\n"
            "4.9406564584124654e-324;1.7976931348623157e+308\n"
        )
        digest = "57e96dbb5a3a6e4de3f82fcbed82b1da7ed12aeb9e7d57756478245fb21a1f67"
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert instance_digest(q, data) == per_float_digest(q, data) == digest

    @pytest.mark.parametrize("model_dim", [1, 3])
    @pytest.mark.parametrize("pattern_dim", [1, 3])
    def test_equals_per_float_rendering(self, rng, model_dim, pattern_dim):
        # Uniform weights repeat one value; 0.0 and -0.0 share a column of the
        # patterns and of the labels, and of the coordinates where rows differ.
        coords = rng.uniform(-1.0, 1.0, (12, model_dim))
        coords[: len(EDGE_DOUBLES) - 1, -1] = EDGE_DOUBLES[1:]
        if model_dim > 1:
            coords[len(EDGE_DOUBLES) - 1, -1] = 0.0
        patterns = rng.uniform(-1.0, 1.0, (9, pattern_dim))
        patterns[: len(EDGE_DOUBLES), 0] = EDGE_DOUBLES
        labels = np.array([*EDGE_DOUBLES[::-1], 0.0, -0.0, 1.0, 1.0])
        data = Dataset(patterns, labels)
        for weights in (np.ones(12), np.tile([1.0, 3.0], 6)):
            q = make_measure(coords, weights)
            assert instance_digest(q, data) == per_float_digest(q, data)

    def test_tables_longer_than_a_rendering_block(self, rng):
        # 5,000 atoms of 2 values and 9,000 data points of 4: several blocks
        # each, with more distinct values than the memo of renderings keeps.
        q = make_measure(rng.uniform(-1.0, 1.0, (5_000, 1)), rng.uniform(0.5, 1.0, 5_000))
        patterns = np.round(rng.uniform(-1.0, 1.0, (9_000, 3)), 2)
        data = Dataset(patterns, np.where(rng.random(9_000) < 0.5, -0.0, 0.0))
        assert instance_digest(q, data) == per_float_digest(q, data)


class TestInstanceGeneration:
    def test_lattice_example(self):
        cfg = ExperimentConfig.from_dict(base_config(grid_resolution=[3]))
        grid = grid_points(cfg)
        assert grid.tolist() == [[-1.0], [0.0], [1.0]]

    def test_two_dim_lattice_size(self):
        cfg = ExperimentConfig.from_dict(
            base_config(
                grid_min=[-1.0, 0.0],
                grid_max=[1.0, 1.0],
                grid_resolution=[3, 2],
                true_model=[0.5, 0.5],
            )
        )
        assert len(grid_points(cfg)) == 6

    def test_same_config_gives_identical_instance(self):
        cfg = ExperimentConfig.from_dict(base_config())
        q1, d1, p1 = generate_instance(cfg)
        q2, d2, p2 = generate_instance(cfg)
        assert instance_digest(q1, d1) == instance_digest(q2, d2)
        assert np.array_equal(p1.risks, p2.risks)

    def test_gaussian_reference_weights_decay_from_mean(self):
        cfg = ExperimentConfig.from_dict(
            base_config(
                reference="gaussian", reference_mean=[-1.0], reference_scale=0.4
            )
        )
        q = build_reference(cfg, grid_points(cfg))
        assert q.weights[0] == q.weights.max()
        assert all(a >= b for a, b in zip(q.weights, q.weights[1:]))

    def test_restricted_reference_excludes_true_model(self):
        # Sub-box keeps only atoms <= 0 while the data comes from 0.8: the
        # full-grid minimizers sit outside supp(Q).
        cfg = ExperimentConfig.from_dict(
            base_config(
                grid_resolution=[21],
                reference="restricted",
                reference_box_min=[-1.0],
                reference_box_max=[0.0],
                true_model=[0.8],
                noise=0.05,
                n=30,
            )
        )
        q, data, profile = generate_instance(cfg)
        assert np.all(q.coords[:, 0] <= 0.0)
        assert grid_argmin_outside_support(cfg, q, data, profile)

    def test_full_grid_reference_argmin_is_inside_without_risk_evaluation(self, monkeypatch):
        cfg = ExperimentConfig.from_dict(base_config(true_model=[0.8]))
        q, data, profile = generate_instance(cfg)

        def no_risks(*args):
            raise AssertionError("whole-grid risk evaluated")

        monkeypatch.setattr(experiment, "risk_profile", no_risks)
        assert outside_profile(cfg, q, data) is None
        assert not grid_argmin_outside_support(cfg, q, data, profile)

    def test_restricted_reference_evaluates_each_grid_risk_once(self, tmp_path, monkeypatch):
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        cfg = tmp_path / "grid10_restricted_config.json"
        evaluated = []

        def recorded(q, *args):
            evaluated.extend(map(tuple, q.coords.tolist()))
            return risk_profile(q, *args)

        monkeypatch.setattr(experiment, "risk_profile", recorded)
        assert cli_main(["verify", "--config", str(cfg)]) == 0
        grid = grid_points(ExperimentConfig.from_json_file(cfg))
        assert sorted(evaluated) == sorted(map(tuple, grid.tolist()))

    @pytest.mark.parametrize("workload, seed, atoms, risks_sha256", [
        ("sweep-wide", 1001, 6400,
         "79f334ea332b1072342158253a2ded782e26ce588e1a062c57ba3aebf41864e1"),
        ("sweep-wide", 7, 6400,
         "62056a3dd5f035544d43285187fdaf556f2d5fbff9ec11fc5e96b805652d6f5f"),
        ("sweep-path", 1001, 4096,
         "e9c2081300101447a797641cff776f8ed2ce4ca71d7b0e6ece27082858b75805"),
        ("sweep-path", 7, 4096,
         "0fb543266affa4de404513ab9c6226f6be95472580b2c8405efa69d3b2d1b7e0"),
    ])
    def test_risk_bits_on_the_sweep_benchmarks(self, workload, seed, atoms, risks_sha256):
        # Absolute (sweep-wide) and squared (sweep-path) risks, as math.fsum
        # of each atom's losses over n gives them from PredictorSpec.scores.
        _, _, profile = generate_instance(ExperimentConfig.from_dict(benchmark_config(workload, seed)))
        assert profile.risks.size == atoms
        assert hashlib.sha256(profile.risks.tobytes()).hexdigest() == risks_sha256

    def test_instance_build_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on its first call, which costs every
        # command start-up time and peak memory; a fresh interpreter shows it.
        code = (
            "import json, sys\n"
            "from entrisk.experiment import ExperimentConfig, generate_instance\n"
            "generate_instance(ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(benchmark_config("sweep-wide", 1001))],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout == "False\n"

    def test_classification_labels_are_signs(self):
        cfg = ExperimentConfig.from_dict(
            base_config(
                predictor="linear_threshold_classifier",
                loss="zero_one",
                noise=0.2,
            )
        )
        _, data, _ = generate_instance(cfg)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}


class TestHotPaths:
    def test_sweep_and_verify_pass_on_restricted_grid(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(FIXTURES / "grid10_restricted_config.json")
        q, data, profile = generate_instance(cfg)
        records = sweep_records(q, profile, lambda_grid(cfg))
        assert all(r.status == "ok" for r in records)
        assert optimality_fuzz(q, profile, float(lambda_grid(cfg)[2]), cfg.seed) == (True, True)
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        for command in ("sweep", "verify"):
            argv = [command, "--config", str(tmp_path / "grid10_restricted_config.json")]
            assert cli_main(argv) == 0



def load_script(monkeypatch, name: str):
    """Import ``scripts/<name>.py`` as a module; the path entry it adds is undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScriptOutputs:
    """The example scripts keep their output bytes."""

    def test_demo_sweep_files(self, monkeypatch, tmp_path, capsys):
        script = load_script(monkeypatch, "demo_sweep")
        monkeypatch.setattr(script, "ROOT", tmp_path)
        script.main()
        capsys.readouterr()
        digests = {name: hashlib.sha256((tmp_path / "results" / name).read_bytes()).hexdigest()
                   for name in ("demo_sweep.csv", "demo_sweep.json")}
        assert digests == {
            "demo_sweep.csv": "8a867655a7fff7e1aa0902b23ff0c73ff9c3d01c5f53d4cd6bfe9f15da12f100",
            "demo_sweep.json": "208fcf405a7eca4eba551fe0cf737251fdd9bd47c9f44e287a10f79be36ae1d2",
        }

    def test_misspecified_reference_stdout(self, monkeypatch, capsys):
        load_script(monkeypatch, "misspecified_reference").main()
        assert capsys.readouterr().out == (
            "reference support: 21 atoms in [-1, 0]\n"
            "whole-grid risk minimizer(s) at theta = [0.8] (outside supp Q)\n"
            "solution support == supp(Q): True\n"
            "heaviest solution atom: theta = +0.000, weight 0.0701\n"
            "optimal objective on supp(Q):        0.571215\n"
            "escape slope (min_out L + k_bar):    4.616e-01\n"
            "escape pays below lambda* =          0.480541\n"
        )


class TestMisspecifiedReference:
    def test_main_reports_collapse_and_a_positive_escape_slope(self, monkeypatch, capsys):
        load_script(monkeypatch, "misspecified_reference").main()
        lines = capsys.readouterr().out.splitlines()
        assert "solution support == supp(Q): True" in lines
        (slope_line,) = [line for line in lines if line.startswith("escape slope")]
        assert float(slope_line.split(":")[1]) > 0.0
        assert lines[-1] == "escape pays below lambda* =          0.480541"

    def test_outside_profile_holds_the_grid_atoms_outside_supp_q(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        q, data, profile = generate_instance(cfg)
        outside = outside_profile(cfg, q, data)
        assert outside.grid is q.grid
        assert sorted(outside.index.tolist() + q.index.tolist()) == list(range(len(q.grid)))
        assert np.all(outside.coords[:, 0] > 0.0)
        assert outside.coords[outside.risks == outside.delta_star, 0].tolist() == [0.8]

    def test_escape_slope_changes_sign_as_lambda_falls(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        q, data, profile = generate_instance(cfg)
        outside = outside_profile(cfg, q, data)
        for lam, expected in ((1.0, 0.46), (0.5, 0.016), (0.3, -0.13), (0.1, -0.21),
                              (0.01, -0.22)):
            slope = support_escape_slope(outside, solve_type2(q, profile, lam))
            assert (slope > 0.0) == (expected > 0.0)
            assert slope == pytest.approx(expected, abs=5e-3)

    def test_escape_threshold_is_where_the_slope_changes_sign(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        q, data, profile = generate_instance(cfg)
        outside = outside_profile(cfg, q, data)
        lam_star = escape_threshold(q, profile, outside)
        assert lam_star == pytest.approx(0.48054101363, rel=1e-10)
        below, above = (support_escape_slope(outside, solve_type2(q, profile, lam_star * f))
                        for f in (1.0 - 1e-9, 1.0 + 1e-9))
        assert below == pytest.approx(-3.8e-10, rel=0.01)
        assert above == pytest.approx(3.8e-10, rel=0.01)

    @staticmethod
    def misspecified_benchmark(seed: int):
        """The verify-misspecified workload's config at ``seed``, its instance and outside profile."""
        cfg = ExperimentConfig.from_dict(benchmark_config("verify-misspecified", seed))
        q, data, profile = generate_instance(cfg)
        return cfg, q, profile, outside_profile(cfg, q, data)

    @pytest.mark.parametrize("seed, expected", [(1001, 0.6747), (7, 0.6599)])
    def test_escape_threshold_on_the_misspecified_benchmark(self, seed, expected):
        # The factors below lambda* are exactly those where escaping pays:
        # 9 of the 20 factors of the verify-misspecified workload.
        cfg, q, profile, outside = self.misspecified_benchmark(seed)
        lam_star = escape_threshold(q, profile, outside)
        assert lam_star == pytest.approx(expected, abs=5e-5)
        lambdas = lambda_grid(cfg)
        slopes = [support_escape_slope(outside, solve_type2(q, profile, lam)) for lam in lambdas]
        assert [s <= 0.0 for s in slopes] == [lam < lam_star for lam in lambdas]
        assert sum(s <= 0.0 for s in slopes) == 9

    @pytest.mark.parametrize("seed, profile_sha256, outside_sha256", [
        (1001, "aca8ad37be7e6a718804e9a64ab105f81581015e38c8af5f96a9319a344c7ceb",
         "6e1a84fe95270a55fa9f7384c48ac5c01634865b8a96d16c1f361f6d88b3d03b"),
        (7, "4af2836af88148bbba0bc927c60083da15ffde07896d5f5d839d16c83f1715b4",
         "64074102a4a41e3a3479b8effc26d2059585120c331581b1b1132c3be73c7a8b"),
    ])
    def test_risk_bits_on_the_misspecified_benchmark(self, seed, profile_sha256, outside_sha256):
        # The zero-one risks of the 900 atoms in supp(Q) and the 2,700 outside
        # it, as math.fsum of each atom's losses over n gives them.
        _, _, profile, outside = self.misspecified_benchmark(seed)
        assert (profile.risks.size, outside.risks.size) == (900, 2700)
        assert hashlib.sha256(profile.risks.tobytes()).hexdigest() == profile_sha256
        assert hashlib.sha256(outside.risks.tobytes()).hexdigest() == outside_sha256


def per_draw_fuzz(q, profile, lam, seed):
    """The optimality fuzz one measure at a time, as first written: the oracle.

    Returns ``(type1_ok, type2_ok)`` and, per direction, the smallest
    objective of a draw farther than 1e-9 from the solution.
    """
    # The solves go through experiment's bindings, which the tests below
    # replace to move the verdict.
    p1 = solution_measure(q, experiment.solve_type1(q, profile, lam))
    p2 = solution_measure(q, experiment.solve_type2(q, profile, lam))
    obj1 = type1_objective(p1, q, profile, lam)
    obj2 = type2_objective(p2, q, profile, lam)
    rng = np.random.default_rng(seed)
    ok1 = ok2 = True
    best1 = best2 = math.inf
    for _ in range(200):
        rand = measure_on(q.grid, q.index, rng.dirichlet(np.ones(q.num_atoms)))
        if total_variation(rand, p1) > 1e-9:
            value = type1_objective(rand, q, profile, lam)
            ok1 = ok1 and value > obj1
            best1 = min(best1, value)
        if total_variation(rand, p2) > 1e-9:
            value = type2_objective(rand, q, profile, lam)
            ok2 = ok2 and value > obj2
            best2 = min(best2, value)
    return (ok1, ok2), (best1, best2)


def reference_floors(rand, q_weights, risks, lam):
    """The screen's floors with every step in an array of its own, as first written."""
    with np.errstate(divide="ignore", invalid="ignore"):
        products = rand * risks
        risk = products.sum(axis=1)
        risk_mass = np.abs(products).sum(axis=1)
        floors = []
        for p, ratios in ((rand, rand / q_weights), (q_weights, q_weights / rand)):
            terms = p * np.log(ratios)
            estimate = risk + lam * np.maximum(terms.sum(axis=1), 0.0)
            bound = experiment._SCREEN_EPS * (risk_mass + lam * np.abs(terms).sum(axis=1))
            floors.append(estimate - (bound + experiment._SCREEN_TINY * (1.0 + lam)))
    return floors[0], floors[1]


def score_solution_at(monkeypatch, name: str, value: float) -> None:
    """Make ``optimality_fuzz`` score one direction's solution at ``value``.

    The fuzz scores each solution by the first call of that direction's
    ``experiment.<name>``, before any draw; later calls score draws as before.
    """
    original = getattr(experiment, name)
    calls = []

    def patched(rows, *args):
        calls.append(rows)
        return np.array([value]) if len(calls) == 1 else original(rows, *args)

    monkeypatch.setattr(experiment, name, patched)


def scripted_generator(rows: np.ndarray):
    """A ``default_rng`` stand-in whose Dirichlet draws are ``rows``, in order."""

    class Scripted:
        def __init__(self, seed):
            self.next = 0

        def dirichlet(self, alpha, size=None):
            count = 1 if size is None else size
            block = rows[self.next:self.next + count].copy()
            self.next += count
            assert block.shape == (count, len(alpha))
            return block[0] if size is None else block

    return Scripted


class TestOptimalityFuzz:
    """The blocked fuzz agrees with the per-draw oracle, down to the best draw's bits."""

    def assert_matches_oracle(self, monkeypatch, q, profile, lam, seed=5):
        verdicts, best = per_draw_fuzz(q, profile, lam, seed)
        assert optimality_fuzz(q, profile, lam, seed) == verdicts
        # A solution objective equal to the best draw's fails the check, one
        # ulp below it passes, one ulp above it fails: the blocked fuzz saw
        # exactly that smallest value, rescoring the draws its screen leaves open.
        for direction, name in enumerate(("type1_objective_rows", "type2_objective_rows")):
            if not math.isfinite(best[direction]):
                continue
            original = getattr(experiment, name)
            for threshold, expected in ((best[direction], False),
                                        (math.nextafter(best[direction], -math.inf), True),
                                        (math.nextafter(best[direction], math.inf), False)):
                score_solution_at(monkeypatch, name, threshold)
                assert optimality_fuzz(q, profile, lam, seed)[direction] is expected
                monkeypatch.setattr(experiment, name, original)
        return verdicts

    def test_random_instances(self, monkeypatch):
        rng = np.random.default_rng(808)
        for _ in range(12):
            q, profile = random_solver_instance(rng, max_atoms=60)
            lam = float(10.0 ** rng.uniform(-2.0, 2.0))
            seed = int(rng.integers(0, 2**31))
            assert self.assert_matches_oracle(monkeypatch, q, profile, lam, seed) == (True, True)

    def test_tilt_that_drops_atoms(self, monkeypatch):
        q, profile = random_solver_instance(np.random.default_rng(3), max_atoms=30)
        lam = 1e-3
        weights = experiment.solve_type1(q, profile, lam).weights
        assert weights.shape == q.weights.shape and np.any(weights == 0.0)
        self.assert_matches_oracle(monkeypatch, q, profile, lam)

    def test_hand_built_block_with_a_zero_weight_and_a_solution_draw(self, monkeypatch):
        m, lam = 6, 0.5
        q = make_measure(lattice_points(m), np.linspace(1.0, 2.0, m))
        profile = EmpiricalRiskProfile.from_risks(lattice_points(m), [0.3, 1.0, 0.1, 2.0, 0.7, 1.4])
        rows = np.random.default_rng(9).dirichlet(np.ones(m), size=200)
        rows[0] = experiment.solve_type1(q, profile, lam).weights  # skipped for Type 1
        rows[1] = experiment.solve_type2(q, profile, lam).weights  # skipped for Type 2
        rows[2, 4] = 0.0  # D(Q || P) is +inf, D(P || Q) skips the atom
        rows[3, [0, 5]] = 0.0
        monkeypatch.setattr(np.random, "default_rng", scripted_generator(rows))
        assert self.assert_matches_oracle(monkeypatch, q, profile, lam) == (True, True)
        # Solutions one factor off lose to the exact optima drawn in rows 0 and 1.
        for name in ("solve_type1", "solve_type2"):
            original = getattr(experiment, name)
            monkeypatch.setattr(experiment, name,
                                lambda q, p, l, f=original, **kw: f(q, p, 2.0 * l, **kw))
        assert self.assert_matches_oracle(monkeypatch, q, profile, lam) == (False, False)

    @staticmethod
    def verify_shape_instance():
        """900 atoms in supp(Q), as on the verify-misspecified workload."""
        axis = np.linspace(-2.0, 0.0, 30)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = make_measure(grid, np.ones(len(grid)))
        risks = np.random.default_rng(4).uniform(0.0, 1.0, len(grid))
        return q, EmpiricalRiskProfile.on_grid(q.grid, q.index, risks)

    def test_screen_settles_every_draw_of_the_verify_shape(self, monkeypatch):
        q, profile = self.verify_shape_instance()
        # The solutions first, so that every count below belongs to scoring.
        for solve in ("solve_type1", "solve_type2"):
            sol = getattr(experiment, solve)(q, profile, 1.0)
            monkeypatch.setattr(experiment, solve, lambda *args, s=sol, **kw: s)
        calls = collections.Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("tv_rows", "type1_objective_rows", "type2_objective_rows"):
            counted(experiment, name)
        counted(math, "log")
        assert optimality_fuzz(q, profile, 1.0, 7) == (True, True)
        # Only the two solutions are scored exactly, one math.log per atom each.
        assert calls == {"type1_objective_rows": 1, "type2_objective_rows": 1,
                         "log": 2 * q.num_atoms}

    @staticmethod
    def fuzz_with_rows_per_block(monkeypatch, q, profile, lam, seed, rows):
        """The fuzz's verdicts and both directions' floors, screening ``rows`` draws at a time."""
        monkeypatch.setattr(experiment, "BLOCK_DOUBLES", rows * q.num_atoms)
        floors = []
        original = experiment._objective_floors

        def recorded(rand, *args):
            assert rand.shape[0] <= rows
            floors.append(original(rand, *args))
            return floors[-1]

        monkeypatch.setattr(experiment, "_objective_floors", recorded)
        verdicts = optimality_fuzz(q, profile, lam, seed)
        monkeypatch.undo()
        return verdicts, [np.concatenate(f).tobytes() for f in zip(*floors)]

    def test_floors_and_verdicts_do_not_depend_on_the_block_size(self, monkeypatch):
        rng = np.random.default_rng(99)
        instances = [(*self.verify_shape_instance(), 1.0, 7)]
        for _ in range(4):
            q, profile = random_solver_instance(rng, max_atoms=60)
            instances.append((q, profile, float(10.0 ** rng.uniform(-2.0, 2.0)),
                              int(rng.integers(0, 2**31))))
        for q, profile, lam, seed in instances:
            # The floors of the draws scored one at a time, by the same formula
            # with every step in an array of its own.
            rand = np.random.default_rng(seed).dirichlet(np.ones(q.num_atoms), size=200)
            rand /= experiment.exact_row_sums(rand)[:, None]
            risks = profile.aligned(q)
            expected = [np.concatenate(f).tobytes() for f in zip(*(
                reference_floors(row[None], q.weights, risks, lam) for row in rand))]
            results = [self.fuzz_with_rows_per_block(monkeypatch, q, profile, lam, seed, rows)
                       for rows in (1, 4, 18)]
            assert results[0][1] == expected
            assert results[1] == results[0] and results[2] == results[0]

    def test_floors_write_neither_input(self):
        q, profile = self.verify_shape_instance()
        rand = np.random.default_rng(1).dirichlet(np.ones(q.num_atoms), size=18)
        rand[3, :5] = 0.0  # a zero weight: nan ratios and an infinite log
        kept = rand.copy(), q.weights.copy()
        rand.flags.writeable = False
        assert not q.weights.flags.writeable
        floors = experiment._objective_floors(rand, q.weights, profile.aligned(q), 1.0)
        assert np.array_equal(rand, kept[0]) and np.array_equal(q.weights, kept[1])
        assert all(np.isnan(f[3]) and np.isfinite(np.delete(f, 3)).all() for f in floors)

    def test_temporaries_stay_within_a_few_blocks(self):
        # The 200 draws of 900 atoms alone take 1.4 MB at once.
        q, profile = self.verify_shape_instance()
        tracemalloc.start()
        try:
            assert optimality_fuzz(q, profile, 1.0, 7) == (True, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20


class TestLambdaGrid:
    def test_single_point(self):
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=0.25, lambda_max=0.25, lambda_count=1)
        )
        assert list(lambda_grid(cfg)) == [0.25]

    def test_endpoints_exact_and_ascending(self):
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-3, lambda_max=1e3, lambda_count=9)
        )
        grid = lambda_grid(cfg)
        assert grid[0] == 1e-3 and grid[-1] == 1e3
        assert np.all(np.diff(grid) > 0)


class TestRunSweep:
    def test_constant_risk_instance_rows(self, tmp_path):
        # zero_one loss with a grid whose every atom misclassifies everything
        # the same way would be contrived; instead use a single-atom grid,
        # where risks are constant by construction.
        cfg = ExperimentConfig.from_dict(
            base_config(
                grid_min=[0.5],
                grid_max=[0.5],
                grid_resolution=[1],
                lambda_min=0.5,
                lambda_max=2.0,
                lambda_count=3,
            )
        )
        q, _, profile = generate_instance(cfg)
        c = float(profile.risks[0])
        records = run_sweep(cfg)
        assert [r.status for r in records] == ["ok"] * 3
        for r in records:
            assert r.risk_type1 == pytest.approx(c, abs=1e-12)
            assert r.risk_type2 == pytest.approx(c, abs=1e-12)
            assert r.k_bar_type2 == pytest.approx(r.lam - c, abs=1e-12)
            assert r.theorem2_gap <= 1e-12

    def test_two_atom_row_matches_oracles(self):
        cfg = ExperimentConfig.from_json_file(FIXTURES / "two_atom_config.json")
        records = run_sweep(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.status == "ok"
        assert r.k_bar_type2 == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert r.risk_type2 == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-6)
        assert r.risk_type1 == pytest.approx(1.0 / (1.0 + math.e), abs=1e-9)
        assert r.identity_gap <= 1e-9
        assert r.bound_margin > 0.0

    def test_rows_ascending_and_k_bar_increasing(self):
        cfg = ExperimentConfig.from_dict(base_config(lambda_count=7))
        records = run_sweep(cfg)
        lams = [r.lam for r in records]
        kbars = [r.k_bar_type2 for r in records]
        assert lams == sorted(lams)
        assert all(a < b for a, b in zip(kbars, kbars[1:]))

    def test_summary_flags_all_pass(self):
        cfg = ExperimentConfig.from_dict(base_config())
        records = run_sweep(cfg)
        q, data, profile = generate_instance(cfg)
        summary = sweep_summary(cfg, records, q, data, profile)
        assert all(summary["invariants"].values())
        assert summary["rows_ok"] == len(records)

    def test_invariant_checks_report_failed_rows_and_worst_values(self):
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-20, lambda_max=1.0, lambda_count=3)
        )
        q, _, profile = generate_instance(cfg)
        records = sweep_records(q, profile, lambda_grid(cfg))
        ok = records[1:]
        checks = {c.name: c for c in invariant_checks(records, profile.delta_star)}
        assert checks["all_rows_ok"] == Invariant("all_rows_ok", None, None, False, "")
        worst = max(r.residual for r in ok)
        assert checks["residual_le_1e-12"] == Invariant(
            "residual_le_1e-12", 1e-12, worst, True, f"worst={worst:.3g}"
        )
        margin = min(r.bound_margin for r in ok)
        assert checks["bound_margin_positive"] == Invariant(
            "bound_margin_positive", 0.0, margin, True, f"min={margin:.3g}"
        )
        gap = min(r.k_bar_type2 for r in ok) + profile.delta_star
        assert checks["k_bar_above_pole"] == Invariant(
            "k_bar_above_pole", 0.0, gap, True, f"min={gap:.3g}"
        )
        assert checks["theorem2_gap_le_1e-9"].holds
        assert checks["k_bar_strictly_increasing"].holds and checks["support_collapse"].holds

    def test_invariant_table_order_and_failures(self):
        ok = SweepRecord(1.0, 0.0, -0.5, 0.1, 1.5, 0.0, -0.5, 0.0, math.inf, 0.0, 3, 0.0, "ok")
        checks = invariant_checks([ok, ok], 0.25)
        assert [c.name for c in checks] == [
            "all_rows_ok", "residual_le_1e-12", "identity_gap_le_1e-9",
            "bound_margin_positive", "theorem2_gap_le_1e-9",
            "k_bar_strictly_increasing", "k_bar_above_pole", "support_collapse",
        ]
        failed = {c.name for c in checks if not c.holds}
        assert failed == {
            "bound_margin_positive", "k_bar_strictly_increasing",
            "k_bar_above_pole", "support_collapse",
        }
        pole = next(c for c in checks if c.name == "k_bar_above_pole")
        assert (pole.worst, pole.detail) == (-0.25, "min=-0.25")

    def test_summary_reports_the_invariant_table(self):
        cfg = ExperimentConfig.from_dict(base_config(lambda_count=4))
        q, data, profile = generate_instance(cfg)
        records = sweep_records(q, profile, lambda_grid(cfg))
        summary = sweep_summary(cfg, records, q, data, profile)
        checks = invariant_checks(records, profile.delta_star)
        assert list(summary["invariants"]) == [c.name for c in checks]
        assert list(summary["invariant_values"]) == [c.name for c in checks]
        for c in checks:
            assert summary["invariants"][c.name] is True
            assert summary["invariant_values"][c.name] == {
                "threshold": c.threshold, "worst": c.worst
            }
        assert summary["invariant_values"]["support_collapse"] == {
            "threshold": None, "worst": None
        }

    def test_summary_json_has_no_nan_or_infinity(self, tmp_path):
        # Every row fails, so the failed rows' nan fields reach no worst value.
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-21, lambda_max=1e-20, lambda_count=2)
        )
        q, data, profile = generate_instance(cfg)
        records = sweep_records(q, profile, lambda_grid(cfg))
        margin = invariant_checks(records, profile.delta_star)[3]
        assert (margin.name, margin.worst, margin.detail) == (
            "bound_margin_positive", None, "min=n/a"
        )
        summary = sweep_summary(cfg, records, q, data, profile)
        assert summary["invariant_values"]["bound_margin_positive"]["worst"] is None
        path = tmp_path / "summary.json"
        emit_summary_json(summary, path)
        json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

    def test_no_ok_row_reports_no_worst_value(self):
        # Every factor is far below the pole guard: no row solves, nothing is measured.
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-21, lambda_max=1e-19, lambda_count=3)
        )
        q, data, profile = generate_instance(cfg)
        records = sweep_records(q, profile, lambda_grid(cfg))
        assert {r.status for r in records} == {"BracketFailure"}
        checks = invariant_checks(records, profile.delta_star)
        assert not checks[0].holds
        measured = [(c.name, c.worst, c.holds, c.detail) for c in checks if c.threshold is not None]
        assert measured == [
            ("residual_le_1e-12", None, True, "worst=n/a"),
            ("identity_gap_le_1e-9", None, True, "worst=n/a"),
            ("bound_margin_positive", None, True, "min=n/a"),
            ("theorem2_gap_le_1e-9", None, True, "worst=n/a"),
            ("k_bar_above_pole", None, True, "min=n/a"),
        ]
        summary = sweep_summary(cfg, records, q, data, profile)
        assert all(v["worst"] is None for v in summary["invariant_values"].values())

    def test_solver_failure_marks_row_without_abort(self, tmp_path):
        # lambda far below the pole guard makes the bracket empty on that row
        # only; later rows still solve.
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-20, lambda_max=1.0, lambda_count=3)
        )
        records = run_sweep(cfg)
        assert records[0].status == "BracketFailure"
        assert math.isnan(records[0].k_bar_type2)
        assert [r.status for r in records[1:]] == ["ok", "ok"]
        path = tmp_path / "with_failure.csv"
        emit_csv(records, path)
        first_row = path.read_text().splitlines()[1].split(",")
        assert first_row[-1] == "BracketFailure"
        assert first_row[2] == "nan"


class TestSweepDivergences:
    """The KL columns, summed in phi form from the solves' own log-ratios."""

    def test_type1_column_where_tilted_weights_underflow(self):
        # At lam = 1e-3 every atom but the argmin has weight exp(-1000) or
        # less, which underflows: P1 is the point mass at the argmin, and
        # D(P1 || Q) = log 5 on a uniform Q over five atoms.
        q, profile = uniform_on(5), profile_from([0.0, 1.0, 2.0, 3.0, 5.0])
        assert solve_type1(q, profile, 1e-3).weights.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record, = sweep_records(q, profile, [1e-3])
        assert record.status == "ok"
        assert record.kl_p_q_type1 == pytest.approx(math.log(5.0), rel=1e-15)

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_kl_columns_finite_and_nonnegative_at_extreme_factors(self, shift):
        rng = np.random.default_rng(0)
        support = lattice_points(50)
        q = make_measure(support, rng.dirichlet(np.ones(50)))
        profile = EmpiricalRiskProfile.from_risks(support, rng.uniform(0.0, 1.0, 50) + shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = sweep_records(q, profile, np.logspace(-11.0, 12.0, 24))
        # Rows whose root solve fails at the smallest factors keep their status.
        ok = [r for r in records if r.status == "ok"]
        assert len(ok) >= 16
        for r in ok:
            assert math.isfinite(r.kl_p_q_type1) and r.kl_p_q_type1 >= 0.0
            assert math.isfinite(r.kl_q_p_type2) and r.kl_q_p_type2 >= 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_columns_agree_with_kl_divergence_of_the_measures(self, seed):
        # kl_divergence takes math.log of weight ratios, whose relative error
        # grows as lam**2 (1e-8 at lam = 100 on two atoms whose risks differ
        # by 0.04); up to lam = 1 both paths agree to 1e-12, and above it the
        # oracle of test_oracle.py is the ruler.
        q, profile = random_solver_instance(np.random.default_rng(seed))
        lambdas = np.logspace(-3.0, 0.0, 7)
        for lam, record in zip(lambdas, sweep_records(q, profile, lambdas)):
            p1 = solution_measure(q, solve_type1(q, profile, lam))
            p2 = solution_measure(q, solve_type2(q, profile, lam))
            assert record.kl_p_q_type1 == pytest.approx(kl_divergence(p1, q), rel=1e-12)
            assert record.kl_q_p_type2 == pytest.approx(kl_divergence(q, p2), rel=1e-12)

    def test_sweep_does_not_take_the_per_atom_log_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep called kl_rows")

        for module in (measures, type1, type2):
            monkeypatch.setattr(module, "kl_rows", refuse)
        q, profile = random_solver_instance(np.random.default_rng(5))
        records = sweep_records(q, profile, np.logspace(-3.0, 3.0, 7))
        assert all(r.status == "ok" for r in records)


class TestSolutionRows:
    def test_non_finite_tilt_marks_its_row(self):
        # At lam = 1e-309 every risk / lam overflows and the Type-1 tilt is nan.
        q, profile = uniform_on(3), profile_from([1.0, 2.0, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):
            records = sweep_records(q, profile, [1e-309, 0.5])
        assert [r.status for r in records] == ["NonFiniteWeight", "ok"]

    def test_sweep_and_fuzz_never_match_atoms_by_coordinates(self, monkeypatch):
        # A generated instance's profile is on q's own index, and solutions are
        # rows aligned with q, so nothing is looked up by position, not even
        # where the tilt underflows (lam = 1e-4) or supp(Q) is a sub-box.
        cfg = ExperimentConfig.from_dict(base_config(
            grid_resolution=[41], reference="restricted", reference_box_min=[-1.0],
            reference_box_max=[0.0], lambda_min=1e-4, lambda_max=1e2, lambda_count=7,
        ))
        q, _, profile = generate_instance(cfg)

        def refuse(*args):
            raise AssertionError("atoms were matched by coordinates")

        for module in (measures, type1, type2):
            monkeypatch.setattr(module, "positions", refuse)
        records = sweep_records(q, profile, lambda_grid(cfg))
        assert [r.status for r in records] == ["ok"] * 7
        assert np.any(solve_type1(q, profile, 1e-4).weights == 0.0)
        assert optimality_fuzz(q, profile, 1.0, cfg.seed) == (True, True)


def reference_records(q, profile, lambdas) -> list[SweepRecord]:
    """The sweep's rows composed one factor at a time, every row formed afresh.

    Each public solver builds its own aligned rows; the Type-II row, its
    denominators k_bar + L and both KL columns are formed again from the
    solutions' scalars as each step once formed them, and the two
    directions' phi sums are taken one row at a time. A row fails with the
    first error, in the order type 1, type 2, Theorem 2.
    """
    risks = profile.aligned(q)
    records = []
    for lam in map(float, lambdas):
        try:
            sol1 = solve_type1(q, profile, lam)
            sol2 = solve_type2(q, profile, lam)
            risk1, risk2 = (measures.exact_sum(sol.weights * risks) for sol in (sol1, sol2))
            _, gap = verify_theorem2(q, profile, sol2)
        except EntriskError as exc:
            records.append(experiment._failed_record(lam, type(exc).__name__))
            continue
        shifted = risks - sol2.delta_star
        gaps = sol2.pole_gap + shifted
        assert sol2.gaps.tobytes() == gaps.tobytes()
        assert sol2.weights.tobytes() == measures.normalized(q.weights * lam / gaps).tobytes()
        log_p1_q = -risks / lam - sol1.log_partition_at_minus_inv_lambda
        d = (shifted - (lam - sol2.pole_gap)) / lam
        log_q_p2 = np.log(gaps / lam)
        np.log1p(d, out=log_q_p2, where=np.abs(d) < 0.5)
        kl1, = measures.kl_log_ratios([q.weights], log_p1_q[None])
        kl2, = measures.kl_log_ratios([q.weights * lam / gaps], log_q_p2[None])
        records.append(SweepRecord(
            lam=lam,
            k_type1=sol1.log_partition_at_minus_inv_lambda,
            k_bar_type2=sol2.k_bar,
            risk_type1=risk1,
            risk_type2=risk2,
            identity_gap=abs(risk2 - (lam - sol2.k_bar)),
            bound_margin=lam + sol2.delta_star - risk2,
            kl_p_q_type1=kl1,
            kl_q_p_type2=kl2,
            theorem2_gap=gap,
            iterations=sol2.iterations,
            residual=sol2.residual,
            status="ok",
        ))
    return records


def record_bits(records) -> list[str]:
    """Each record as the repr of its fields: equal exactly when every float has the same bits.

    ``repr`` round-trips floats, keeps the sign of zero and prints every nan
    alike, as the CSV does.
    """
    return [repr(dataclasses.astuple(r)) for r in records]


class TestSweepAgainstPerFactorReference:
    """The sweep builds the factor-free rows once and reuses each solve's rows.

    Bit for bit and status for status it equals the per-factor composition of
    :func:`reference_records`, including the rows that fail.
    """

    FACTORS = np.logspace(-11.0, 12.0, 24)

    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e12])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances(self, seed, shift):
        q, profile = random_solver_instance(np.random.default_rng(seed))
        profile = EmpiricalRiskProfile.from_risks(profile.coords, profile.risks + shift)
        with np.errstate(over="ignore", under="ignore"):
            expected = reference_records(q, profile, self.FACTORS)
            assert record_bits(sweep_records(q, profile, self.FACTORS)) == record_bits(expected)

    def test_pole_guard_failures_keep_their_status(self):
        # The 50-atom Dirichlet instance on which the pole-guarded bracket
        # fails at lam = 1e-11 unshifted, lam <= 1e-5 shifted by 1e6 and
        # lam <= 1 shifted by 1e12: 20 BracketFailure rows of 72.
        rng = np.random.default_rng(0)
        coords = np.arange(50.0)[:, None]
        q = make_measure(coords, rng.dirichlet(np.ones(50)))
        base = rng.uniform(0.0, 1.0, 50)
        statuses = []
        for shift in (0.0, 1e6, 1e12):
            profile = EmpiricalRiskProfile.from_risks(coords, base + shift)
            records = sweep_records(q, profile, self.FACTORS)
            assert record_bits(records) == record_bits(reference_records(q, profile, self.FACTORS))
            statuses += [r.status for r in records]
        assert collections.Counter(statuses) == {"ok": 52, "BracketFailure": 20}

    def test_generated_instance_with_a_failing_row(self):
        # Risks on a restricted reference, gathered by index, and factors from
        # 1e-309 (below the pole guard: BracketFailure) to 1e12.
        cfg = ExperimentConfig.from_dict(base_config(
            grid_resolution=[41], reference="restricted", reference_box_min=[-1.0],
            reference_box_max=[0.0], lambda_min=1e-3, lambda_max=1e12, lambda_count=9,
        ))
        q, _, profile = generate_instance(cfg)
        lambdas = [1e-309, *lambda_grid(cfg)]
        with np.errstate(over="ignore"):
            records = sweep_records(q, profile, lambdas)
            expected = reference_records(q, profile, lambdas)
        assert record_bits(records) == record_bits(expected)
        assert [r.status for r in records] == ["BracketFailure"] + ["ok"] * 9

    def test_non_finite_tilt_row(self):
        # At lam = 1e-309 every risk / lam overflows and the Type-1 tilt is nan.
        q, profile = uniform_on(3), profile_from([1.0, 2.0, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):
            records = sweep_records(q, profile, [1e-309, 0.5])
            expected = reference_records(q, profile, [1e-309, 0.5])
        assert record_bits(records) == record_bits(expected)
        assert [r.status for r in records] == ["NonFiniteWeight", "ok"]

    def test_fuzz_and_solve_use_the_sweeps_rows(self, monkeypatch, tmp_path, capsys):
        # The weight rows that the sweep, the optimality fuzz and `entrisk
        # solve` compute at one factor are the same bits.
        raw = base_config(grid_resolution=[41], reference="restricted",
                          reference_box_min=[-1.0], reference_box_max=[0.0])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        cfg = ExperimentConfig.from_dict(raw)
        q, _, profile = generate_instance(cfg)
        lam = float(lambda_grid(cfg)[2])
        rows = collections.defaultdict(list)
        for name in ("solve_type1", "solve_type2"):
            def spy(*args, f=getattr(experiment, name), name=name, **kwargs):
                sol = f(*args, **kwargs)
                rows[name].append(sol.weights)
                return sol

            monkeypatch.setattr(experiment, name, spy)
        assert sweep_records(q, profile, [lam])[0].status == "ok"
        assert optimality_fuzz(q, profile, lam, cfg.seed) == (True, True)
        for direction, name in (("1", "solve_type1"), ("2", "solve_type2")):
            sweep_row, fuzz_row = rows[name]
            assert sweep_row.tobytes() == fuzz_row.tobytes()
            capsys.readouterr()
            argv = ["solve", "--config", str(config), "--lambda", repr(lam), "--type", direction]
            assert cli_main(argv) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["weights"] == sweep_row[sweep_row > 0.0].tolist()


class TestEmitCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_single_record_field_count(self, tmp_path):
        rec = SweepRecord(
            lam=1.0,
            k_type1=-0.5,
            k_bar_type2=0.25,
            risk_type1=0.1,
            risk_type2=0.2,
            identity_gap=1e-12,
            bound_margin=0.9,
            kl_p_q_type1=0.01,
            kl_q_p_type2=0.02,
            theorem2_gap=1e-11,
            iterations=12,
            residual=1e-14,
            status="ok",
        )
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_floats_rendered_17_significant_digits(self, tmp_path):
        rec = SweepRecord(
            lam=0.1, k_type1=0.0, k_bar_type2=0.0, risk_type1=0.0,
            risk_type2=0.0, identity_gap=0.0, bound_margin=0.0,
            kl_p_q_type1=0.0, kl_q_p_type2=0.0, theorem2_gap=0.0,
            iterations=0, residual=0.0, status="ok",
        )
        path = tmp_path / "digits.csv"
        emit_csv([rec], path)
        first_field = path.read_text().splitlines()[1].split(",")[0]
        assert first_field == "0.10000000000000001"

    def test_golden_two_atom_file(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(FIXTURES / "two_atom_config.json")
        records = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit_csv(records, path)
        golden = (FIXTURES / "two_atom_sweep_golden.csv").read_bytes()
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("name", ["grid12_gaussian", "grid10_restricted"])
    def test_golden_mid_size_files(self, tmp_path, name):
        shutil.copy(FIXTURES / f"{name}_config.json", tmp_path)
        assert cli_main(["sweep", "--config", str(tmp_path / f"{name}_config.json")]) == 0
        csv_bytes = (tmp_path / f"{name}_sweep.csv").read_bytes()
        json_bytes = (tmp_path / f"{name}_summary.json").read_bytes()
        assert csv_bytes == (FIXTURES / f"{name}_sweep_golden.csv").read_bytes()
        assert json_bytes == (FIXTURES / f"{name}_summary_golden.json").read_bytes()


class TestAtomicWrites:
    EMITTERS = {
        "sweep_csv": lambda path: emit_csv([], path),
        "summary_json": lambda path: emit_summary_json({"rows": 0}, path),
        "dataset_csv": lambda path: emit_dataset_csv(Dataset([[1.0]], [2.0]), path),
    }

    @pytest.mark.parametrize("kind", sorted(EMITTERS))
    def test_failed_replace_keeps_earlier_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "out"
        path.write_bytes(b"earlier\n")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(experiment.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            self.EMITTERS[kind](path)
        assert path.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(FIXTURES / "two_atom_config.json")
        records = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit_csv(records, path)
        before = path.read_bytes()
        # A lone surrogate cannot be encoded, so the write fails midway.
        broken = dataclasses.replace(records[0], status="\ud800")
        with pytest.raises(UnicodeEncodeError):
            emit_csv([*records, broken], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestIngestCsv:
    def test_round_trip_preserves_risks_exactly(self, rng, tmp_path):
        patterns = rng.uniform(-2.0, 2.0, size=(7, 2))
        labels = rng.uniform(-1.0, 1.0, size=7)
        data = Dataset(patterns, labels)
        path = tmp_path / "data.csv"
        emit_dataset_csv(data, path)
        back = ingest_csv_dataset(path)
        cfg = ExperimentConfig.from_dict(
            base_config(
                grid_min=[-1.0, -1.0],
                grid_max=[1.0, 1.0],
                grid_resolution=[3, 3],
                true_model=[0.5, 0.5],
            )
        )
        q, _, _ = generate_instance(cfg)
        pred, loss = predictor_spec(cfg), loss_spec(cfg)
        before = risk_profile(q, data, pred, loss).risks
        after = risk_profile(q, back, pred, loss).risks
        assert np.array_equal(before, after)

    def test_round_trip_is_bit_exact_at_the_edges(self, tmp_path):
        patterns = np.array([[-0.0, 5e-324], [0.1, -1.7976931348623157e308], [1e-300, 2.0**-1074]])
        labels = np.array([-0.0, 5e-324, 1.0 / 3.0])
        path = tmp_path / "data.csv"
        emit_dataset_csv(Dataset(patterns, labels), path)
        assert "-0,4.9406564584124654e-324," in path.read_text(encoding="utf-8")
        back = ingest_csv_dataset(path)
        assert back.patterns.tobytes() == patterns.tobytes()
        assert back.labels.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("cell", ["+1.5", "-.5", "2.", "1E+3", "7e-2", "0", "-0", "5e-324"])
    def test_decimal_literals_accepted(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,y\n{cell},1\n", encoding="utf-8")
        assert ingest_csv_dataset(path).patterns[0, 0] == float(cell)

    @pytest.mark.parametrize("cell", ["foo", "1_5", " 0.5 ", "\uff11", "", ".", "1e", "0x10",
                                      "+-1", "1.5.2", "nan", "Infinity", "1e5\n"])
    def test_non_decimal_cell_rejected_with_coordinates(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f'x1,y\n1,2\n3,"{cell}"\n', encoding="utf-8")
        with pytest.raises(NonFiniteCell, match="row 3, column 2"):
            ingest_csv_dataset(path)

    def test_two_point_file_in_order(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("x1,y\n1.5,2.0\n-0.5,0.25\n", encoding="utf-8")
        data = ingest_csv_dataset(path)
        assert data.n == 2
        assert data.patterns[0, 0] == 1.5 and data.labels[1] == 0.25

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            ingest_csv_dataset(path)

    def test_row_arity_with_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(RowArity, match="row 3"):
            ingest_csv_dataset(path)

    def test_inf_cell_with_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n1,2,3\n4,inf,6\n", encoding="utf-8")
        with pytest.raises(NonFiniteCell, match="row 3, column 2"):
            ingest_csv_dataset(path)
