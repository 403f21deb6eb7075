"""Every per-layer metric of ``BENCHMARK.json`` still has its source in the package.

The traced benchmark run (``perfbench/run.py --trace 1``) wraps the public
functions of the package's modules, and a few named methods, with
``perfbench/spantrace.py`` and reports one metric per wrapped name, plus
metrics built from counter hooks (``perfbench/child.py``). A function that is
deleted, renamed or made private fails nothing there: its metrics are simply
left out of the result line, which then no longer holds the declared names.
This test instruments the package as the traced run does, runs a small sweep
and checks that every declared per-layer metric has the span and counters it
is built from. It reads the files under ``perfbench/`` and changes none.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import sys
from pathlib import Path

import pytest

import entrisk
from entrisk import cli
from entrisk.experiment import SweepRecord

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Per-layer metrics that are not ``<span>.<field>``: the spans and the
#: counters that ``perfbench/run.py`` builds each from.
DERIVED = {
    "risk.loss_evals": (("risk.risk_profile",), ("risk.loss_evals",)),
    "risk.evals_per_atom": (("risk.risk_profile", "experiment.generate_instance"),
                            ("risk.loss_evals", "instance.atoms", "instance.n")),
    "type2.kbar_iterations_total": (("type2.solve_k_bar",), ("type2.kbar_iterations",)),
    "type2.kbar_iterations_max": (("type2.solve_k_bar",), ("type2.kbar_iterations",)),
    "type2.solves_per_row": (("type2.solve_type2",), ()),
    "cli.trace_overhead_frac": (("cli.cli_main",), ()),
}

#: Fields of a span's totals; ``bytes`` is the counter its hook records.
SPAN_FIELDS = ("s", "self_s", "calls", "bytes")


def _sources(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The spans and counters a per-layer metric is built from."""
    if metric in DERIVED:
        return DERIVED[metric]
    span, _, tail = metric.rpartition(".")
    assert tail in SPAN_FIELDS, f"{metric}: no rule maps it to a span"
    return (span,), ((metric,) if tail == "bytes" else ())


def _load(name: str):
    """``perfbench/<name>.py`` as a module, loaded without changing the environment.

    ``child`` sets its thread pins in ``os.environ`` on import; here they go
    to a copy.
    """
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "environ", dict(os.environ))
        spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced_sweep(tmp_path, monkeypatch):
    """The span names and counters of one traced ``sweep`` on a 5-atom instance."""
    child, spantrace = _load("child"), _load("spantrace")
    # Keep every binding the recorder replaces, so the package is restored afterwards.
    for module in [entrisk, *(importlib.import_module(f"entrisk.{m}") for m in child.LAYERS)]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj):
                monkeypatch.setattr(module, attr, obj)
    for short, cls_name, method in child.TRACED_METHODS:
        cls = getattr(sys.modules[f"entrisk.{short}"], cls_name)
        monkeypatch.setattr(cls, method, vars(cls)[method])
    recorder = spantrace.SpanRecorder("surface")
    recorder.instrument("entrisk", child.LAYERS, child.TRACED_METHODS, child.COUNTER_HOOKS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "predictor": "linear_regression", "loss": "squared", "grid_min": [-1.0],
        "grid_max": [1.0], "grid_resolution": [5], "reference": "uniform",
        "dataset": "synthetic", "true_model": [0.5], "noise": 0.1, "n": 6, "data_seed": 5,
        "lambda_min": 0.5, "lambda_max": 2.0, "lambda_count": 3,
        "output_csv": "out.csv", "output_json": "out.json",
    }))
    assert cli.cli_main(["sweep", "--config", str(config)]) == 0
    return set(recorder.names), recorder.counts


def test_every_per_layer_metric_has_its_span_and_counters(traced_sweep):
    names, counts = traced_sweep
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    columns = {f.name for f in dataclasses.fields(SweepRecord)}
    for metric in (m["name"] for m in declared):
        if metric.startswith("invariants."):  # the worst value of a sweep CSV column
            assert metric.split(".")[1] in columns, metric
            continue
        spans, counters = _sources(metric)
        assert set(spans) <= names, f"{metric}: {sorted(set(spans) - names)} not traced"
        missing = sorted(set(counters) - set(counts))
        assert not missing, f"{metric}: {missing} not counted"
    # Each hook read its call: 5 atoms, 6 data points, one risk evaluation
    # per (atom, point) pair and one k-bar solve per factor.
    assert counts["instance.atoms"] == [5] and counts["instance.n"] == [6]
    assert counts["risk.loss_evals"] == [30] and len(counts["type2.kbar_iterations"]) == 3

