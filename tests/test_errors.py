"""Every error the package raises is one of its own classes, as ``errors.py`` promises."""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from entrisk.errors import ConfigError, DimensionMismatch, EmptySupport, NegativeWeight
from entrisk.measures import as_grid, make_measure
from entrisk.risk import Dataset, EmpiricalRiskProfile, LossSpec, PredictorSpec

SOURCES = Path(__file__).resolve().parent.parent / "src" / "entrisk"


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_grid(np.empty((2, 0))), DimensionMismatch, "coordinates must form an"),
    (lambda: make_measure([[0.0]], [1.0, 1.0]), DimensionMismatch,
     "support has 1 atoms but 2 weights"),
    (lambda: Dataset(np.empty((0, 1)), []), EmptySupport, "a dataset needs at least one point"),
    (lambda: PredictorSpec("ridge", 1), ConfigError, "unknown predictor kind 'ridge'"),
    (lambda: PredictorSpec("linear_regression", 0), DimensionMismatch, "pattern_dim must be"),
    (lambda: LossSpec("hinge"), ConfigError, "unknown loss kind 'hinge'"),
    (lambda: EmpiricalRiskProfile.from_risks([[0.0]], [1.0, 2.0]), DimensionMismatch,
     "one risk per support atom"),
    (lambda: EmpiricalRiskProfile.from_risks(np.empty((0, 1)), []), EmptySupport,
     "profile needs at least one atom"),
    (lambda: EmpiricalRiskProfile.from_risks([[0.0]], [-1.0]), NegativeWeight,
     "risks must be nonnegative"),
], ids=["coordinate_shape", "weight_count", "empty_dataset", "predictor_kind",
        "pattern_dim", "loss_kind", "risk_count", "empty_profile", "negative_risk"])
def test_rejected_input_raises_a_package_error(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


def builtin_raises(source: str) -> list[str]:
    """Each ``raise`` of a builtin exception class in ``source``, as ``Name (line n)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        cls = getattr(builtins, target.id, None) if isinstance(target, ast.Name) else None
        if isinstance(cls, type) and issubclass(cls, BaseException):
            found.append((node.lineno, target.id))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_check_finds_a_builtin_raise():
    source = (
        "from .errors import ConfigError\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    try:\n"
        "        raise ConfigError(x)\n"
        "    except ConfigError:\n"
        "        raise\n"
        "    raise KeyError\n"
    )
    assert builtin_raises(source) == ["ValueError (line 4)", "KeyError (line 9)"]


# cli._direction raises ValueError for the option parser, which catches it in the same module.
@pytest.mark.parametrize("path", sorted(set(SOURCES.glob("*.py")) - {SOURCES / "cli.py"}),
                         ids=lambda p: p.name)
def test_module_raises_no_builtin_exception(path):
    assert builtin_raises(path.read_text(encoding="utf-8")) == []
