"""Shared fixtures, instance factories, and hypothesis strategies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from entrisk.measures import DiscreteMeasure, make_measure
from entrisk.risk import (
    Dataset,
    EmpiricalRiskProfile,
    LossSpec,
    PredictorSpec,
    risk_profile,
)


def lattice_points(k: int, dim: int = 1) -> np.ndarray:
    """k distinct model points on an integer lattice, as (k, dim) coordinate rows."""
    if dim == 1:
        return np.arange(k, dtype=float).reshape(k, 1)
    return np.array([[float(i), float(i % 3)] for i in range(k)]).reshape(k, 2)


def profile_from(risks) -> EmpiricalRiskProfile:
    sup = lattice_points(len(risks))
    return EmpiricalRiskProfile.from_risks(sup, risks)


def uniform_on(k: int) -> DiscreteMeasure:
    return make_measure(lattice_points(k), np.ones(k))


def measure_with(weights) -> DiscreteMeasure:
    return make_measure(lattice_points(len(weights)), weights)


def solution_measure(q: DiscreteMeasure, sol) -> DiscreteMeasure:
    """A solution's weight row as a measure on the atoms of ``q`` it charges.

    The weights are taken as they are, not normalized again, so the
    single-measure functions score the solution's own bits.
    """
    charged = sol.weights > 0.0
    return DiscreteMeasure(q.grid, q.index[charged], sol.weights[charged])


def two_atom_instance() -> tuple[DiscreteMeasure, EmpiricalRiskProfile]:
    """Uniform reference on two atoms with risks (0, 1)."""
    return uniform_on(2), profile_from([0.0, 1.0])


def three_atom_instance() -> tuple[DiscreteMeasure, EmpiricalRiskProfile]:
    """Uniform reference on three atoms with risks (0, 1, 2)."""
    return uniform_on(3), profile_from([0.0, 1.0, 2.0])


def random_solver_instance(
    rng: np.random.Generator,
    max_atoms: int = 40,
    risk_scale: float = 5.0,
) -> tuple[DiscreteMeasure, EmpiricalRiskProfile]:
    """Random reference weights and risk vector on a shared support."""
    k = int(rng.integers(2, max_atoms + 1))
    sup = lattice_points(k)
    weights = rng.uniform(0.05, 1.0, size=k)
    risks = rng.uniform(0.0, risk_scale, size=k)
    q = make_measure(sup, weights)
    return q, EmpiricalRiskProfile.from_risks(sup, risks)


def random_pipeline_instance(
    rng: np.random.Generator,
) -> tuple[DiscreteMeasure, Dataset, EmpiricalRiskProfile]:
    """Random grid, dataset, predictor, and loss, via the full risk pipeline."""
    dim = int(rng.integers(1, 3))
    k = int(rng.integers(3, 9))
    if dim == 1:
        grid = [[float(v)] for v in np.linspace(-1.0, 1.0, k)]
    else:
        axis = np.linspace(-1.0, 1.0, k)
        grid = [[float(a), float(b)] for a in axis for b in axis]
    kind = "linear_regression" if rng.random() < 0.7 else "linear_threshold_classifier"
    loss = LossSpec("squared" if kind == "linear_regression" else "zero_one")
    pred = PredictorSpec(kind, dim)
    n = int(rng.integers(4, 25))
    patterns = rng.uniform(-1.0, 1.0, size=(n, dim))
    theta_star = rng.uniform(-1.0, 1.0, size=dim)
    if kind == "linear_regression":
        labels = patterns @ theta_star + 0.2 * rng.uniform(-1.0, 1.0, size=n)
    else:
        labels = np.where(patterns @ theta_star >= 0.0, 1.0, -1.0)
        flips = rng.random(n) < 0.15
        labels = np.where(flips, -labels, labels)
    data = Dataset(patterns, labels)
    if rng.random() < 0.5:
        weights = np.ones(len(grid))
    else:
        weights = rng.uniform(0.05, 1.0, size=len(grid))
    q = make_measure(grid, weights)
    return q, data, risk_profile(q, data, pred, loss)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


# --- hypothesis strategies ---------------------------------------------------

positive_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)

risk_vectors = st.lists(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)

lambdas = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
