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
import struct
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk import experiment, measures, risk, type1, type2
from entrisk.errors import (
    ConfigError,
    EntriskError,
    MalformedHeader,
    NonFiniteCell,
    RowArity,
)
from entrisk.experiment import (
    CSV_HEADER,
    EXCESS_GAP_MAX,
    ExperimentConfig,
    Invariant,
    SweepRecord,
    build_reference,
    emit_csv,
    emit_summary_json,
    excess_identities,
    generate_instance,
    grid_argmin_outside_support,
    grid_points,
    ingest_csv_dataset,
    instance_digest,
    invariant_checks,
    lambda_grid,
    optimality_checks,
    predictor_spec,
    run_sweep,
    sweep_records,
    sweep_summary,
)
from entrisk.cli import cli_main
from entrisk.measures import DiscreteMeasure, GridAtoms, kl_divergence, make_measure, measure_on
from entrisk.risk import Dataset, EmpiricalRiskProfile, LossSpec, aligned_risks, risk_profile
from entrisk.type1 import solve_type1
from entrisk.type2 import escape_threshold, solve_type2, support_escape_slope
from entrisk.logrisk import verify_theorem2

import oracle
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

    def test_seed_is_optional(self):
        # A seed that is present is still checked: see test_cli's malformed fields.
        raw = base_config()
        del raw["seed"]
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.raw == raw and not hasattr(cfg, "seed")
        assert dataclasses.replace(cfg, lambda_count=3).lambda_count == 3

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
        (tmp_path / "data.csv").write_text("x1,y\n0,0\n0,0\n0,0\n", encoding="utf-8")
        raw = {key: value for key, value in base_config(dataset="csv", csv_path="data.csv").items()
               if key not in ("true_model", "noise", "n", "data_seed")}
        cfg = ExperimentConfig.from_dict(raw, base_dir=tmp_path)
        monkeypatch.setattr(experiment, "MAX_LOSS_EVALUATIONS", 14)  # 5 atoms x 3 rows = 15
        monkeypatch.setattr(experiment, "risk_profile", None)  # must not be reached
        with pytest.raises(ConfigError, match="'csv_path'.*5 atoms x 3 data rows"):
            generate_instance(cfg)
        monkeypatch.undo()
        assert generate_instance(cfg)[2].risks.size == 5

    def test_csv_rows_past_the_cap_are_never_parsed(self, tmp_path, monkeypatch):
        # Rows 3 and 4 are malformed, but the cap of 14 // 5 = 2 data rows stops
        # the read at the first of them.
        (tmp_path / "data.csv").write_text("x1,y\n0,1\n2,3\n4\nnan,x\n", encoding="utf-8")
        raw = {key: value for key, value in base_config(dataset="csv", csv_path="data.csv").items()
               if key not in ("true_model", "noise", "n", "data_seed")}
        cfg = ExperimentConfig.from_dict(raw, base_dir=tmp_path)
        monkeypatch.setattr(experiment, "MAX_LOSS_EVALUATIONS", 14)
        with pytest.raises(ConfigError, match="'csv_path'.*5 atoms x 3 data rows.*stopped at row 4"):
            generate_instance(cfg)
        # When every row fits, the first malformed one raises its own error.
        monkeypatch.setattr(experiment, "MAX_LOSS_EVALUATIONS", 20)
        with pytest.raises(RowArity, match="row 4 has 1 cells"):
            generate_instance(cfg)

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


def unchecked_instance(coords, weights, patterns, labels):
    """An instance holding exactly these arrays: the measure skips the weight checks, so a weight may be ±0."""
    coords = np.asarray(coords, dtype=float)
    return DiscreteMeasure(coords, np.arange(len(coords)), np.asarray(weights, dtype=float)), Dataset(patterns, labels)


class TestInstanceDigest:
    def test_hand_instance(self):
        q = make_measure([[0.5, 1.0], [-0.0, 2.0], [1.0, 0.0]], [1.0, 1.0, 2.0])
        big = 1.7976931348623157e308
        data = Dataset([[0.0], [-0.0], [5e-324]], [-big, 0.1, big])
        arrays = (
            [0.5, 1.0, -0.0, 2.0, 1.0, 0.0],  # coordinates, row by row
            [0.25, 0.25, 0.5],
            [0.0, -0.0, 5e-324],
            [-big, 0.1, big],
        )
        payload = b"entrisk-instance-v1 <f8 3,2 3 3,1 3\n" + b"".join(
            struct.pack("<%dd" % len(values), *values) for values in arrays
        )
        digest = "b5b064fdbcbe882ce45ba2d31e7820672c81f38899ab8b03d2bd6fbc42258de8"
        assert hashlib.sha256(payload).hexdigest() == digest
        assert instance_digest(q, data) == digest

    @pytest.mark.parametrize("name", ["coords", "weights", "patterns", "labels"])
    def test_sign_of_zero_and_one_ulp_change_the_digest(self, name):
        def digest(first=0.0, step=0):
            arrays = {
                "coords": np.array([[0.0, 1.0], [0.5, 0.25]]),
                "weights": np.array([0.0, 1.0]),
                "patterns": np.array([[0.0, 2.0], [1.0, 3.0]]),
                "labels": np.array([0.0, 1.0]),
            }
            a = arrays[name].reshape(-1)
            a[0] = first
            if step:
                a[-1] = np.nextafter(a[-1], np.inf)
            return instance_digest(*unchecked_instance(**arrays))

        assert len({digest(), digest(first=-0.0), digest(step=1)}) == 3

    def test_shapes_keep_apart_equal_concatenated_values(self):
        q = make_measure([[0.0], [1.0]], [1.0, 1.0])
        values = np.arange(1.0, 7.0)
        wide = Dataset(values[:4].reshape(2, 2), values[4:])
        tall = Dataset(values[:3].reshape(3, 1), values[3:])
        for data in (wide, tall):
            assert np.concatenate([data.patterns.ravel(), data.labels]).tolist() == values.tolist()
        assert instance_digest(q, wide) != instance_digest(q, tall)

    def test_independent_of_layout_byte_order_and_grid_object(self, rng):
        coords = rng.uniform(-1.0, 1.0, (5, 2))
        q = make_measure(coords, np.arange(1.0, 6.0))
        # The same atoms picked out of a larger grid of another object.
        grid = measures.as_grid(np.concatenate([rng.uniform(2.0, 3.0, (4, 2)), coords[::-1]]))
        on_larger_grid = measure_on(grid, [8, 7, 6, 5, 4], np.arange(1.0, 6.0))
        patterns = rng.uniform(-1.0, 1.0, (6, 3))
        labels = rng.uniform(-1.0, 1.0, 6)
        expected = instance_digest(q, Dataset(patterns, labels))
        assert instance_digest(on_larger_grid, Dataset(patterns, labels)) == expected
        big_endian = DiscreteMeasure(q.grid, q.index, q.weights.astype(">f8"))
        assert instance_digest(big_endian, Dataset(patterns, labels)) == expected
        fortran = Dataset(np.asfortranarray(patterns), labels)
        assert not fortran.patterns.flags.c_contiguous
        assert instance_digest(q, fortran) == expected
        # The dataset copies a strided view into an array of its own.
        wider = np.zeros((12, 6))
        wider[::2, ::2] = patterns
        assert instance_digest(q, Dataset(wider[::2, ::2], labels)) == expected


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

    @pytest.mark.parametrize("resolution", [[1], [7], [5, 4], [3, 1, 4]])
    def test_lattice_equals_checked_grid_without_a_row_sort(self, monkeypatch, resolution):
        d = len(resolution)
        cfg = ExperimentConfig.from_dict(base_config(
            grid_min=[-1.0, 0.5, -3.0][:d], grid_max=[1.0, 2.0, 3.0][:d],
            grid_resolution=resolution, true_model=[0.5] * d,
        ))
        axes = [np.linspace(lo, hi, r) for lo, hi, r in zip(cfg.grid_min, cfg.grid_max, resolution)]
        checked = measures.as_grid(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d))
        monkeypatch.setattr(measures, "_equal_row_pairs", None)  # no sort over the rows
        grid = grid_points(cfg)
        assert grid.shape == checked.shape and grid.tobytes() == checked.tobytes()
        assert grid.dtype == np.float64 and grid.flags.c_contiguous and not grid.flags.writeable
        assert cfg.axes is cfg.axes and not any(a.flags.writeable for a in cfg.axes)
        # A config copied with other fields builds its own axes.
        assert len(grid_points(dataclasses.replace(cfg, grid_resolution=(2,) * d))) == 2**d

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
        q, _, aligned = generate_instance(cfg)
        assert np.all(q.coords[:, 0] <= 0.0)
        assert grid_argmin_outside_support(aligned)

    def test_full_grid_reference_has_no_outside_profile(self, monkeypatch):
        # supp(Q) is the whole grid: the one risk pass scores Q's own atoms,
        # and the record holds no atom outside it.
        cfg = ExperimentConfig.from_dict(base_config(true_model=[0.8]))
        scored = []

        def recorded(atoms, *args):
            scored.append(atoms)
            return risk_profile(atoms, *args)

        monkeypatch.setattr(experiment, "risk_profile", recorded)
        q, _, aligned = generate_instance(cfg)
        assert [atoms is q for atoms in scored] == [True]
        assert aligned.outside is None
        assert not grid_argmin_outside_support(aligned)

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
        cfg = ExperimentConfig.from_dict(benchmark_config(workload, seed))
        _, _, aligned = generate_instance(cfg)
        assert aligned.risks.size == atoms
        assert hashlib.sha256(aligned.risks.tobytes()).hexdigest() == risks_sha256

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


class TestOneRiskPass:
    """A restricted reference's one whole-grid risk pass gives each part's risks, bit for bit."""

    #: Configs that take each path of risk_profile over the whole grid.
    PATHS = {
        "products_tables": dict(predictor="linear_regression", loss="squared",
                                grid_resolution=[20, 20], n=50),
        "per_block_multiply": dict(predictor="linear_regression", loss="absolute",
                                   intercept=True, grid_resolution=[12, 9], n=10),
        "zero_one_blocks": dict(predictor="linear_threshold_classifier", loss="zero_one",
                                grid_resolution=[15, 15], n=40),
        "sorted_zero_one_runs": dict(predictor="linear_threshold_classifier", loss="zero_one",
                                     intercept=True, grid_resolution=[8, 40], n=100),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_record_equals_risk_profile_on_supp_q_and_outside(self, path, monkeypatch):
        tables, sorts = [], []

        def table(col, x, build=risk._column_table):
            built = build(col, x)
            tables.append(built is not None)
            return built

        def sort(*args, count=risk._sorted_mismatch_counts):
            sorts.append(args)
            return count(*args)

        monkeypatch.setattr(risk, "_column_table", table)
        monkeypatch.setattr(risk, "_sorted_mismatch_counts", sort)
        rng = np.random.default_rng(sorted(self.PATHS).index(path))
        for _ in range(4):
            low = rng.uniform(-1.0, -0.1, 2)
            raw = base_config(grid_min=[-1.0, -1.0], grid_max=[1.0, 1.0],
                              true_model=rng.uniform(-1.0, 1.0, 2).tolist(),
                              data_seed=int(rng.integers(1000)), reference="restricted",
                              reference_box_min=low.tolist(),
                              reference_box_max=(low + rng.uniform(0.2, 1.5, 2)).tolist(),
                              **self.PATHS[path])
            cfg = ExperimentConfig.from_dict(raw)
            tables.clear(), sorts.clear()
            q, data, aligned = generate_instance(cfg)
            assert {"products_tables": any(tables) and not sorts,
                    "per_block_multiply": not any(tables) and not sorts,
                    "zero_one_blocks": not sorts,
                    "sorted_zero_one_runs": len(sorts) == 1}[path]
            rest = np.setdiff1d(np.arange(len(q.grid)), q.index)
            pred, loss = predictor_spec(cfg), LossSpec(cfg.loss)
            inside = risk_profile(q, data, pred, loss)
            outside = risk_profile(GridAtoms(q.grid, rest), data, pred, loss)
            assert aligned.risks.tobytes() == inside.risks.tobytes()
            assert aligned.outside.grid is q.grid
            assert aligned.outside.index.tolist() == rest.tolist()
            assert aligned.outside.risks.tobytes() == outside.risks.tobytes()
            assert aligned.outside.delta_star == outside.delta_star


class TestHotPaths:
    def test_sweep_and_verify_pass_on_restricted_grid(self, tmp_path):
        cfg = ExperimentConfig.from_json_file(FIXTURES / "grid10_restricted_config.json")
        q, data, aligned = generate_instance(cfg)
        records, median = sweep_records(aligned, lambda_grid(cfg))
        assert all(r.status == "ok" for r in records)
        assert all(c.holds for c in optimality_checks(aligned, median))
        shutil.copy(FIXTURES / "grid10_restricted_config.json", tmp_path)
        for command in ("sweep", "verify"):
            argv = [command, "--config", str(tmp_path / "grid10_restricted_config.json")]
            assert cli_main(argv) == 0



def solutions(aligned, lam: float):
    """Both directions solved at ``lam``, as a sweep hands them to verify for its median factor."""
    return solve_type1(aligned, lam), solve_type2(aligned, lam)


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
        # The committed results/ files are the script's output, byte for byte.
        script = load_script(monkeypatch, "demo_sweep")
        monkeypatch.setattr(script, "ROOT", tmp_path)
        script.main()
        capsys.readouterr()
        written = {name: (tmp_path / "results" / name).read_bytes()
                   for name in ("demo_sweep.csv", "demo_sweep.json")}
        assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == {
            "demo_sweep.csv": "22a5346ab80c4dfdbd0949a3cc205383c48f49350657779006502d8fa319e6d2",
            "demo_sweep.json": "cee28712a55ba2a69ff0bca8716f13eb3bbe49e9caeb7c792a8b0e9aac589c7a",
        }
        for name, data in written.items():
            assert (SCRIPTS.parent / "results" / name).read_bytes() == data

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

    def test_record_holds_the_grid_atoms_outside_supp_q(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        q, _, aligned = generate_instance(cfg)
        outside = aligned.outside
        assert outside.grid is q.grid
        assert sorted(outside.index.tolist() + q.index.tolist()) == list(range(len(q.grid)))
        assert np.all(outside.coords[:, 0] > 0.0)
        assert outside.coords[outside.risks == outside.delta_star, 0].tolist() == [0.8]

    def test_escape_slope_changes_sign_as_lambda_falls(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        _, _, aligned = generate_instance(cfg)
        outside = aligned.outside
        for lam, expected in ((1.0, 0.46), (0.5, 0.016), (0.3, -0.13), (0.1, -0.21),
                              (0.01, -0.22)):
            slope = support_escape_slope(outside, solve_type2(aligned, lam))
            assert (slope > 0.0) == (expected > 0.0)
            assert slope == pytest.approx(expected, abs=5e-3)

    def test_escape_threshold_is_where_the_slope_changes_sign(self, monkeypatch):
        script = load_script(monkeypatch, "misspecified_reference")
        cfg = ExperimentConfig.from_dict(script.CONFIG)
        _, _, aligned = generate_instance(cfg)
        outside = aligned.outside
        lam_star = escape_threshold(aligned, outside)
        assert lam_star == pytest.approx(0.48054101363, rel=1e-10)
        below, above = (support_escape_slope(outside, solve_type2(aligned, lam_star * f))
                        for f in (1.0 - 1e-9, 1.0 + 1e-9))
        assert below == pytest.approx(-3.8e-10, rel=0.01)
        assert above == pytest.approx(3.8e-10, rel=0.01)

    @staticmethod
    def misspecified_benchmark(seed: int):
        """The verify-misspecified workload's config at ``seed``, its instance and outside profile."""
        cfg = ExperimentConfig.from_dict(benchmark_config("verify-misspecified", seed))
        q, _, aligned = generate_instance(cfg)
        return cfg, q, aligned, aligned.outside

    @pytest.mark.parametrize("seed, expected", [(1001, 0.6747), (7, 0.6599)])
    def test_escape_threshold_on_the_misspecified_benchmark(self, seed, expected):
        # The factors below lambda* are exactly those where escaping pays:
        # 9 of the 20 factors of the verify-misspecified workload.
        cfg, q, aligned, outside = self.misspecified_benchmark(seed)
        lam_star = escape_threshold(aligned, outside)
        assert lam_star == pytest.approx(expected, abs=5e-5)
        lambdas = lambda_grid(cfg)
        slopes = [support_escape_slope(outside, solve_type2(aligned, lam)) for lam in lambdas]
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
        _, _, aligned, outside = self.misspecified_benchmark(seed)
        assert (aligned.risks.size, outside.risks.size) == (900, 2700)
        assert hashlib.sha256(aligned.risks.tobytes()).hexdigest() == profile_sha256
        assert hashlib.sha256(outside.risks.tobytes()).hexdigest() == outside_sha256


class TestExcessIdentities:
    """Verify's optimality rows: each solution against Q and the other solution, by identity."""

    @staticmethod
    def rows(aligned, lam):
        """The block the check scores: Q's weights, then P1's and P2's."""
        return [aligned.q_weights, solve_type1(aligned, lam).weights,
                solve_type2(aligned, lam).weights]

    def test_identities_against_the_decimal_oracle(self):
        rng = np.random.default_rng(2026)
        for _ in range(12):
            q, profile = random_solver_instance(rng)
            lam = float(10.0 ** rng.uniform(-2.0, 2.0))
            aligned = aligned_risks(q, profile)
            objectives, differences, excesses = excess_identities(aligned, *solutions(aligned, lam))
            exact = oracle.excesses(q.weights, aligned.risks, lam, self.rows(aligned, lam))
            # At 50 digits each objective difference is its excess: the identities hold.
            for row in exact:
                for difference, excess in ((row.difference_type1, row.excess_type1),
                                           (row.difference_type2, row.excess_type2)):
                    assert abs(difference - excess) <= Decimal("1e-40") * (1 + abs(difference))
            # P1 against Q and P2, then P2 against Q and P1. The float P2 is
            # off the exact root by |g - 1| <= DEFAULT_TOL, which moves its
            # excess by at most that much relative to F(P) + lam.
            for d, rivals in enumerate(((0, 2), (0, 1))):
                for c, j in enumerate(rivals):
                    scale = objectives[d, c] + lam
                    assert abs(differences[d, c] - float(exact[j][2 * d])) <= 1e-14 * scale
                    assert abs(excesses[d, c] - float(exact[j][2 * d + 1])) <= (
                        2.0 * type2.DEFAULT_TOL * scale)
            assert all(c.holds for c in optimality_checks(aligned, solutions(aligned, lam)))

    def test_checks_pass_across_factors_and_shifts(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            q, profile = random_solver_instance(rng, max_atoms=int(rng.choice([10, 60, 400])))
            shift = float(rng.choice([0.0, 1e3, 1e6]))
            profile = EmpiricalRiskProfile.from_risks(profile.coords, profile.risks + shift)
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            aligned = aligned_risks(q, profile)
            checks = optimality_checks(aligned, solutions(aligned, lam))
            assert [c.name for c in checks] == ["type1_optimality_fuzz", "type2_optimality_fuzz"]
            # The Type-2 gap is at most the root's |g - 1| <= DEFAULT_TOL, plus rounding.
            assert all(c.holds and c.worst <= type2.DEFAULT_TOL + 1e-14 for c in checks)

    def test_tilt_that_underflows_an_atom_agrees_at_infinity(self):
        # Under F2, P1 leaves an atom of supp(Q) without weight: both the
        # objective and the excess are +inf, and that pair agrees.
        q, profile = random_solver_instance(np.random.default_rng(3), max_atoms=30)
        aligned, lam = aligned_risks(q, profile), 1e-3
        assert np.any(solve_type1(aligned, lam).weights == 0.0)
        objectives, differences, excesses = excess_identities(aligned, *solutions(aligned, lam))
        assert objectives[1, 1] == differences[1, 1] == excesses[1, 1] == math.inf
        assert np.isfinite(np.delete(excesses.ravel(), 3)).all()
        exact = oracle.excesses(q.weights, aligned.risks, lam, self.rows(aligned, lam))
        assert exact[1].excess_type2 == exact[1].difference_type2 == Decimal("Infinity")
        checks = optimality_checks(aligned, solutions(aligned, lam))
        assert all(c.holds for c in checks) and checks[1].worst <= type2.DEFAULT_TOL + 1e-14

    @staticmethod
    def full_block(aligned, lam):
        """:func:`excess_identities`' arrays, with Q, P1 and P2 scored by both objectives.

        Every objective is scored on the (3, m) block, F1(Q) and F2(Q)
        included; the right-hand sides are formed as the docstring states,
        log(q/p) as log q - log p where q/p overflows.
        """
        q_weights, risks = aligned.q_weights, aligned.risks
        sol1, sol2 = solve_type1(aligned, lam), solve_type2(aligned, lam)
        block = np.stack([q_weights, sol1.weights, sol2.weights])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scores = np.stack([measures.mean_rows(block, risks)
                               + lam * measures.kl_rows(block, q_weights),
                               type2.type2_objective_rows(block, q_weights, risks, lam)])
            rivals = block[[0, 2]]
            y = np.log(rivals / q_weights) - type1.log_ratios_p1_q(sol1, np.empty_like(q_weights))
            excess1 = measures.exact_row_sums(np.where(rivals > 0.0, rivals * y, 0.0))
            ratios = q_weights / block[:2]
            log_ratios = np.where(np.isinf(ratios) & (block[:2] > 0.0),
                                  np.log(q_weights) - np.log(block[:2]), np.log(ratios))
            z = ((type2.log_ratios_q_p2(sol2, aligned, np.empty_like(q_weights))
                  + math.log(sol2.g)) - log_ratios)
            excess2 = measures.exact_row_sums(q_weights * (np.expm1(z) - z))
        objectives = np.array([scores[0, [0, 2]], scores[1, [0, 1]]])
        return (objectives, objectives - scores[[0, 1], [1, 2], None],
                lam * np.stack([excess1, excess2]))

    def test_equals_the_full_block_on_random_instances_and_the_verify_workload(self):
        # Scoring only the solutions' divergences, and R(Q) for F1(Q) and
        # F2(Q), keeps every bit of the three arrays, +inf included.
        rng = np.random.default_rng(77)
        cases = []
        for _ in range(30):
            q, profile = random_solver_instance(rng, max_atoms=int(rng.choice([5, 60, 400])))
            cases.append((aligned_risks(q, profile), float(10.0 ** rng.uniform(-3.0, 3.0))))
        aligned, lambdas = self.verify_instance()
        cases += [(aligned, float(lam)) for lam in lambdas]
        infinite = 0
        for aligned, lam in cases:
            got = excess_identities(aligned, *solutions(aligned, lam))
            expected = self.full_block(aligned, lam)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
            infinite += bool(np.isinf(got[2]).any())
        assert infinite  # some tilt underflows an atom

    @pytest.mark.parametrize("top", [740.0, 800.0])
    def test_tilt_with_a_subnormal_weight_stays_finite(self, top):
        # Risks 0, 1 and top at lam = 1: P1's last weight is about e**-top
        # over 1.37, subnormal and nonzero at 740, where q/p1 overflows, and
        # 0 at 800, where F2(P1) and its excess are +inf.
        q = make_measure(lattice_points(3), [1.0, 1.0, 1.0])
        aligned, lam = aligned_risks(q, EmpiricalRiskProfile.from_risks(q.coords, [0.0, 1.0, top])), 1.0
        rows = self.rows(aligned, lam)
        weight = rows[1][2]
        objectives, differences, excesses = excess_identities(aligned, *solutions(aligned, lam))
        if top == 740.0:
            assert 0.0 < weight < np.finfo(float).tiny
            with np.errstate(over="ignore"):
                assert q.weights[2] / weight == math.inf
            assert np.isfinite(objectives).all() and np.isfinite(excesses).all()
            exact = oracle.excesses(q.weights, aligned.risks, lam, rows)
            assert abs(differences[1, 1] - float(exact[1].difference_type2)) <= (
                1e-14 * (objectives[1, 1] + lam))
        else:
            assert weight == 0.0
            assert objectives[1, 1] == differences[1, 1] == excesses[1, 1] == math.inf
        checks = optimality_checks(aligned, solutions(aligned, lam))
        assert all(c.holds and c.worst <= EXCESS_GAP_MAX for c in checks)

    @staticmethod
    def verify_instance():
        """The verify-misspecified workload's instance at seed 1001 and its median factor."""
        cfg = ExperimentConfig.from_dict(benchmark_config("verify-misspecified", 1001))
        return generate_instance(cfg)[2], cfg.lambdas

    @staticmethod
    def holding(aligned, lambdas) -> list[bool]:
        return [c.holds for c in optimality_checks(aligned, sweep_records(aligned, lambdas)[1])]

    def test_weights_divided_by_a_wrong_g_fail(self, monkeypatch):
        aligned, lambdas = self.verify_instance()
        assert self.holding(aligned, lambdas) == [True, True]

        def wrong_g(aligned, lam, solve=experiment.solve_type2):
            sol = solve(aligned, lam)
            return dataclasses.replace(sol, weights=sol.terms / (sol.g * (1.0 + 1e-9)))

        monkeypatch.setattr(experiment, "solve_type2", wrong_g)
        # P2 is a competitor of P1 and the optimum of Type 2: both rows fail.
        assert self.holding(aligned, lambdas) == [False, False]

    def test_k_bar_off_its_root_fails(self, monkeypatch):
        aligned, lambdas = self.verify_instance()

        def off_root(aligned, lam, solve=experiment.solve_type2):
            # Every row re-formed at a pole gap 1e-8 off the root, then
            # normalized by its own exact sum: |g - 1| is about 1e-8.
            sol = solve(aligned, lam)
            pole_gap = sol.pole_gap * (1.0 + 1e-8)
            gaps = pole_gap + aligned.shifted
            terms = aligned.q_weights * lam / gaps
            g = measures.exact_sum(terms)
            return dataclasses.replace(
                sol, weights=measures.normalized(terms, g), k_bar=pole_gap - sol.delta_star,
                residual=abs(g - 1.0), pole_gap=pole_gap, gaps=gaps, terms=terms, g=g)

        monkeypatch.setattr(experiment, "solve_type2", off_root)
        assert self.holding(aligned, lambdas) == [True, False]

    def test_log_z_shifted_in_the_log_ratio_row_fails(self, monkeypatch):
        aligned, lambdas = self.verify_instance()

        def shifted(sol, out, log_ratios=experiment.log_ratios_p1_q):
            return log_ratios(sol, out) - 1e-9  # log Z larger by 1e-9

        monkeypatch.setattr(experiment, "log_ratios_p1_q", shifted)
        assert self.holding(aligned, lambdas) == [False, True]

    def test_failed_solve_fails_both_rows_with_its_class(self):
        q, profile = random_solver_instance(np.random.default_rng(1))
        aligned = aligned_risks(q, profile)
        checks = optimality_checks(aligned, sweep_records(aligned, [1e-22, 1e-21, 1.0])[1])
        assert [(c.holds, c.detail) for c in checks] == [(False, "BracketFailure")] * 2


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
        q, _, aligned = generate_instance(cfg)
        c = float(aligned.risks[0])
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
        q, data, aligned = generate_instance(cfg)
        summary = sweep_summary(cfg, records, q, data, aligned)
        assert all(summary["invariants"].values())
        assert summary["rows_ok"] == len(records)

    def test_invariant_checks_report_failed_rows_and_worst_values(self):
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-20, lambda_max=1.0, lambda_count=3)
        )
        q, _, aligned = generate_instance(cfg)
        records, _ = sweep_records(aligned, lambda_grid(cfg))
        ok = records[1:]
        checks = {c.name: c for c in invariant_checks(records, aligned.delta_star)}
        assert checks["all_rows_ok"] == Invariant("all_rows_ok", None, None, False, "")
        worst = max(r.residual for r in ok)
        assert checks["residual_le_1e-12"] == Invariant(
            "residual_le_1e-12", 1e-12, worst, True, f"worst={worst:.3g}"
        )
        margin = min(r.bound_margin for r in ok)
        assert checks["bound_margin_positive"] == Invariant(
            "bound_margin_positive", 0.0, margin, True, f"min={margin:.3g}"
        )
        gap = min(r.k_bar_type2 for r in ok) + aligned.delta_star
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
        q, data, aligned = generate_instance(cfg)
        records, _ = sweep_records(aligned, lambda_grid(cfg))
        summary = sweep_summary(cfg, records, q, data, aligned)
        checks = invariant_checks(records, aligned.delta_star)
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
        q, data, aligned = generate_instance(cfg)
        records, _ = sweep_records(aligned, lambda_grid(cfg))
        margin = invariant_checks(records, aligned.delta_star)[3]
        assert (margin.name, margin.worst, margin.detail) == (
            "bound_margin_positive", None, "min=n/a"
        )
        summary = sweep_summary(cfg, records, q, data, aligned)
        assert summary["invariant_values"]["bound_margin_positive"]["worst"] is None
        path = tmp_path / "summary.json"
        emit_summary_json(summary, path)
        json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in JSON"))

    def test_no_ok_row_reports_no_worst_value(self):
        # Every factor is far below the pole guard: no row solves, nothing is measured.
        cfg = ExperimentConfig.from_dict(
            base_config(lambda_min=1e-21, lambda_max=1e-19, lambda_count=3)
        )
        q, data, aligned = generate_instance(cfg)
        records, _ = sweep_records(aligned, lambda_grid(cfg))
        assert {r.status for r in records} == {"BracketFailure"}
        checks = invariant_checks(records, aligned.delta_star)
        assert not checks[0].holds
        measured = [(c.name, c.worst, c.holds, c.detail) for c in checks if c.threshold is not None]
        assert measured == [
            ("residual_le_1e-12", None, True, "worst=n/a"),
            ("identity_gap_le_1e-9", None, True, "worst=n/a"),
            ("bound_margin_positive", None, True, "min=n/a"),
            ("theorem2_gap_le_1e-9", None, True, "worst=n/a"),
            ("k_bar_above_pole", None, True, "min=n/a"),
        ]
        summary = sweep_summary(cfg, records, q, data, aligned)
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
        inst = aligned_risks(q, profile)
        assert solve_type1(inst, 1e-3).weights.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (record,), _ = sweep_records(inst, [1e-3])
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
            records, _ = sweep_records(aligned_risks(q, profile), np.logspace(-11.0, 12.0, 24))
        # Rows whose root solve fails at the smallest factors keep their status.
        ok = [r for r in records if r.status == "ok"]
        assert len(ok) >= 16
        for r in ok:
            assert math.isfinite(r.kl_p_q_type1) and r.kl_p_q_type1 >= 0.0
            assert math.isfinite(r.kl_q_p_type2) and r.kl_q_p_type2 >= 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_columns_agree_with_kl_divergence_of_the_measures(self, seed):
        # kl_divergence takes the log of weight ratios, whose relative error
        # grows as lam**2 (1e-8 at lam = 100 on two atoms whose risks differ
        # by 0.04); up to lam = 1 both paths agree to 1e-12, and above it the
        # oracle of test_oracle.py is the ruler.
        q, profile = random_solver_instance(np.random.default_rng(seed))
        lambdas = np.logspace(-3.0, 0.0, 7)
        for lam, record in zip(lambdas, sweep_records(aligned_risks(q, profile), lambdas)[0]):
            p1 = solution_measure(q, solve_type1(aligned_risks(q, profile), lam))
            p2 = solution_measure(q, solve_type2(aligned_risks(q, profile), lam))
            assert record.kl_p_q_type1 == pytest.approx(kl_divergence(p1, q), rel=1e-12)
            assert record.kl_q_p_type2 == pytest.approx(kl_divergence(q, p2), rel=1e-12)

    def test_kl_columns_where_risks_overflow_the_ratios(self):
        # The grid's risks reach 4e306. At lam = 1e-3 three atoms' L/lam
        # overflow, so their Type-1 log-ratios are -inf, and gaps/lam
        # overflows; up to lam = 0.5, x e^x overflows in phi. The Type-2
        # values are D(Q || P2) in 50-digit decimals from the solves' gaps.
        cfg = ExperimentConfig.from_dict({
            "predictor": "linear_regression", "loss": "absolute", "intercept": True,
            "grid_min": [1e-300, -1e300], "grid_max": [1.7e308, 3.0], "grid_resolution": [2, 3],
            "reference": "uniform", "dataset": "synthetic", "true_model": [1e-320, -1.0],
            "noise": 0.0, "n": 1, "data_seed": 1,
            "lambda_min": 0.001, "lambda_max": 0.5, "lambda_count": 3,
        })
        _, _, aligned = generate_instance(cfg)
        records, _ = sweep_records(aligned, cfg.lambdas)
        expected = [588.59190048680684469, 586.00248044579759837, 583.41306040478835174]
        assert [r.status for r in records] == ["ok"] * 3
        for record, kl_q_p2 in zip(records, expected):
            assert record.kl_p_q_type1 == pytest.approx(math.log(6.0), rel=2e-15)
            assert record.kl_q_p_type2 == pytest.approx(kl_q_p2, rel=1e-13)
        collapse = invariant_checks(records, aligned.delta_star)[-1]
        assert collapse.name == "support_collapse" and collapse.holds

    def test_sweep_does_not_take_the_per_atom_log_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep called kl_rows")

        for module in (measures, type1, type2):
            monkeypatch.setattr(module, "kl_rows", refuse)
        q, profile = random_solver_instance(np.random.default_rng(5))
        records, _ = sweep_records(aligned_risks(q, profile), np.logspace(-3.0, 3.0, 7))
        assert all(r.status == "ok" for r in records)


class TestSolutionRows:
    def test_non_finite_tilt_marks_its_row(self):
        # At lam = 1e-309 every risk / lam overflows and the Type-1 tilt is nan.
        q, profile = uniform_on(3), profile_from([1.0, 2.0, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):
            records, _ = sweep_records(aligned_risks(q, profile), [1e-309, 0.5])
        assert [r.status for r in records] == ["NonFiniteWeight", "ok"]

    def test_sweep_and_optimality_checks_never_match_atoms_by_coordinates(self, monkeypatch):
        # A generated instance's risks are on q's own index, and solutions are
        # rows aligned with q, so nothing is looked up by position, not even
        # where the tilt underflows (lam = 1e-4) or supp(Q) is a sub-box.
        cfg = ExperimentConfig.from_dict(base_config(
            grid_resolution=[41], reference="restricted", reference_box_min=[-1.0],
            reference_box_max=[0.0], lambda_min=1e-4, lambda_max=1e2, lambda_count=7,
        ))
        q, _, aligned = generate_instance(cfg)

        def refuse(*args):
            raise AssertionError("atoms were matched by coordinates")

        for module in (measures, type1, type2):
            monkeypatch.setattr(module, "positions", refuse)
        records, _ = sweep_records(aligned, lambda_grid(cfg))
        assert [r.status for r in records] == ["ok"] * 7
        assert np.any(solve_type1(aligned, 1e-4).weights == 0.0)
        assert all(c.holds for c in optimality_checks(aligned, solutions(aligned, 1.0)))
        assert all(c.holds for c in optimality_checks(aligned, solutions(aligned, 1e-4)))


def reference_records(q, profile, lambdas) -> list[SweepRecord]:
    """The sweep's rows composed one factor at a time, every row formed afresh.

    Each solve gets an instance record built afresh; the Type-II row, its
    denominators k_bar + L and both KL columns are formed again from the
    solutions' scalars as each step once formed them, and the two
    directions' phi sums are taken one row at a time. A row fails with the
    first error, in the order type 1, type 2, Theorem 2.
    """
    risks = profile.aligned(q)
    records = []
    for lam in map(float, lambdas):
        try:
            sol1 = solve_type1(aligned_risks(q, profile), lam)
            sol2 = solve_type2(aligned_risks(q, profile), lam)
            risk1, risk2 = (measures.exact_sum(sol.weights * risks) for sol in (sol1, sol2))
            _, gap = verify_theorem2(aligned_risks(q, profile), sol2)
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
        kl1, = measures.kl_log_ratios([(sol1.weights, q.weights)], log_p1_q[None])
        kl2, = measures.kl_log_ratios([(q.weights, q.weights * lam / gaps)], log_q_p2[None])
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
    """The sweep reads one instance record for every factor and reuses each solve's rows.

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
            records, _ = sweep_records(aligned_risks(q, profile), self.FACTORS)
            assert record_bits(records) == record_bits(expected)

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
            records, _ = sweep_records(aligned_risks(q, profile), self.FACTORS)
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
        q, _, aligned = generate_instance(cfg)
        profile = EmpiricalRiskProfile.on_grid(q.grid, q.index, aligned.risks)
        lambdas = [1e-309, *lambda_grid(cfg)]
        with np.errstate(over="ignore"):
            records, _ = sweep_records(aligned, lambdas)
            expected = reference_records(q, profile, lambdas)
        assert record_bits(records) == record_bits(expected)
        assert [r.status for r in records] == ["BracketFailure"] + ["ok"] * 9

    def test_non_finite_tilt_row(self):
        # At lam = 1e-309 every risk / lam overflows and the Type-1 tilt is nan.
        q, profile = uniform_on(3), profile_from([1.0, 2.0, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):
            records, _ = sweep_records(aligned_risks(q, profile), [1e-309, 0.5])
            expected = reference_records(q, profile, [1e-309, 0.5])
        assert record_bits(records) == record_bits(expected)
        assert [r.status for r in records] == ["NonFiniteWeight", "ok"]

    def test_optimality_checks_and_solve_use_the_sweeps_rows(self, monkeypatch, tmp_path, capsys):
        # The sweep solves each factor once and hands its median factor's
        # solutions to the optimality checks; `entrisk solve` computes the
        # same bits.
        raw = base_config(grid_resolution=[41], reference="restricted",
                          reference_box_min=[-1.0], reference_box_max=[0.0])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        cfg = ExperimentConfig.from_dict(raw)
        q, _, aligned = generate_instance(cfg)
        lam = float(lambda_grid(cfg)[2])
        rows = collections.defaultdict(list)
        for name in ("solve_type1", "solve_type2"):
            def spy(*args, f=getattr(experiment, name), name=name, **kwargs):
                sol = f(*args, **kwargs)
                rows[name].append(sol.weights)
                return sol

            monkeypatch.setattr(experiment, name, spy)
        (record,), median = sweep_records(aligned, [lam])
        assert record.status == "ok"
        assert all(c.holds for c in optimality_checks(aligned, median))
        for direction, name, sol in zip("12", ("solve_type1", "solve_type2"), median):
            (sweep_row,) = rows[name]
            assert sol.weights is sweep_row
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
        "dataset_csv": lambda path: experiment._write_atomically(path, ["x1,y", "1,2"]),
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
    @staticmethod
    def write(data: Dataset, path: Path) -> None:
        """``data`` in the ingestion schema, x1,...,xd,y, with 17-significant-digit cells."""
        header = ",".join([f"x{i + 1}" for i in range(data.pattern_dim)] + ["y"])
        rows = zip(data.patterns.tolist(), data.labels.tolist())
        lines = [header] + [",".join(f"{v:.17g}" for v in [*x, y]) for x, y in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_round_trip_preserves_risks_exactly(self, rng, tmp_path):
        patterns = rng.uniform(-2.0, 2.0, size=(7, 2))
        labels = rng.uniform(-1.0, 1.0, size=7)
        data = Dataset(patterns, labels)
        path = tmp_path / "data.csv"
        self.write(data, path)
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
        pred, loss = predictor_spec(cfg), LossSpec(cfg.loss)
        before = risk_profile(q, data, pred, loss).risks
        after = risk_profile(q, back, pred, loss).risks
        assert np.array_equal(before, after)

    def test_round_trip_is_bit_exact_at_the_edges(self, tmp_path):
        patterns = np.array([[-0.0, 5e-324], [0.1, -1.7976931348623157e308], [1e-300, 2.0**-1074]])
        labels = np.array([-0.0, 5e-324, 1.0 / 3.0])
        path = tmp_path / "data.csv"
        self.write(Dataset(patterns, labels), path)
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
