"""Smoke test of the benchmark on its 2-atom workload.

Run with ``python -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
from spantrace import SpanRecorder, layer_totals  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_metric(trace, section):
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace == "1":
        assert result["metrics"]["type2.solves_per_row"]["value"] == 2.0
        assert result["metrics"]["experiment.generate_instance.calls"]["value"] == 2


def test_run_without_package_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def smoke_sweep(tmp_path_factory):
    """A smoke-workload sweep CSV, with the instance arrays it was computed from."""
    from entrisk.experiment import (
        ExperimentConfig, emit_csv, generate_instance, lambda_grid, run_sweep,
    )

    spec = json.loads((HERE / "workloads.json").read_text())
    raw = dict(spec["workloads"]["smoke"]["config"], data_seed=3, seed=3)
    cfg = ExperimentConfig.from_dict(raw)
    path = tmp_path_factory.mktemp("smoke") / "sweep.csv"
    emit_csv(run_sweep(cfg), path)
    q, _, profile = generate_instance(cfg)
    return path.read_text(), q.weights, profile.risks, lambda_grid(cfg)


def test_recompute_accepts_the_program_csv(smoke_sweep):
    text, weights, risks, lambdas = smoke_sweep
    assert check.recompute_rows(check.parse_csv(text), weights, risks, lambdas) == []


@pytest.mark.parametrize("column", ["k_type1", "k_bar_type2", "risk_type2"])
def test_recompute_rejects_a_corrupted_row(smoke_sweep, column):
    text, weights, risks, lambdas = smoke_sweep
    rows = check.parse_csv(text)
    rows[1][column] = repr(float(rows[1][column]) * (1.0 + 1e-6))
    problems = check.recompute_rows(rows, weights, risks, lambdas)
    assert problems and all(p.startswith("row 2:") for p in problems)


def test_verify_check_needs_every_line_to_pass():
    lines = [f"pass {name}" for name in check.VERIFY_CHECKS]
    assert check.check_verify("\n".join(lines)) == []
    lines[-1] = lines[-1].replace("pass", "FAIL")
    assert check.check_verify("\n".join(lines)) == [f"check {check.VERIFY_CHECKS[-1]} failed"]
    assert check.check_verify("\n".join(lines[:-1])) == [f"check {check.VERIFY_CHECKS[-1]} missing"]


def test_wall_per_ref_is_a_ratio_of_run_means():
    children = [
        {"trace": False, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 30.0,
         "reference_reps": [0.01, 0.01]},
        {"trace": False, "wall_s": 3.0, "setup_s": 0.3, "peak_rss_mb": 31.0,
         "reference_reps": [0.01, 0.03]},
        {"trace": True, "wall_s": 9.0, "reference_reps": [0.5, 0.5]},
    ]
    samples = run.end_to_end(children, {"lambda_count": 4})
    assert samples["wall_per_ref"] == pytest.approx([2.0 / 0.015])
    assert samples["setup_s"] == [0.1, 0.3]
    assert samples["rows_per_s"] == [4.0, 4.0 / 3.0]


def test_peak_rss_leaves_out_the_parent_memory():
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\x01" * len(ballast[::4096])
    proc = subprocess.run(
        [sys.executable, "-c", "import child; print(child.peak_rss_mb())"],
        capture_output=True, text=True, cwd=HERE, timeout=60, check=True,
    )
    assert float(proc.stdout) < 64.0


def test_layer_totals_splits_self_time_from_children():
    trace = {
        "names": ["outer", "inner", "unused"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0], [0, 6.5, 7.0, 0]],
    }
    totals = layer_totals(trace)
    assert totals["outer"] == {"s": 10.0, "self_s": 6.0, "calls": 2}
    assert totals["inner"] == {"s": 4.0, "self_s": 4.0, "calls": 2}
    assert totals["unused"] == {"s": 0.0, "self_s": 0.0, "calls": 0}


def test_recorder_traces_names_imported_by_name_and_skips_missing_ones(tmp_path, monkeypatch):
    pkg = tmp_path / "tinypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "class Box:\n    def size(self):\n        return 2\n\n"
        "def double(x):\n    return 2 * x\n"
    )
    (pkg / "high.py").write_text(
        "from .low import Box, double\n\ndef run(x):\n    return double(x) + Box().size()\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import tinypkg.high

    recorder = SpanRecorder("run-1")
    recorder.instrument(
        "tinypkg", ["low", "high", "deleted"],
        methods=[("low", "Box", "size"), ("low", "Box", "deleted"), ("deleted", "X", "y")],
        hooks={"low.double": lambda a, k, r: {"doubled": r}, "high.run": lambda a, k, r: a[5]},
    )
    assert tinypkg.high.run(3) == 8
    names = [recorder.names[span[0]] for span in recorder.spans]
    assert names == ["high.run", "low.double", "low.Box.size"]
    assert [span[3] for span in recorder.spans] == [-1, 0, 0]
    assert recorder.counts == {"doubled": [6.0]}
