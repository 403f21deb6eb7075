"""Datasets, predictors, losses, and empirical risk over a measure's support.

The empirical risk of a model is its average loss over the training set. A
risk profile evaluates that map once per atom of a measure's support and keeps
the minimum level ``delta_star`` (the lowest risk carrying positive mass,
which for a finite support is a plain minimum).

A profile holds one risk per atom of a shared grid (see
:class:`entrisk.measures.GridAtoms`), so one profile serves every measure
whose support it covers: on the same grid the risks are gathered by index,
otherwise atoms are matched by exact coordinates.

Risks are evaluated a block of atoms at a time: one numpy pass scores every
(atom, data point) pair of the block, applies the loss, and sums each atom's
losses exactly with :func:`entrisk.measures.exact_row_sums`, the package's
one certified row-sum kernel, which returns ``math.fsum``'s bits on every
row. A block holds at most :data:`BLOCK_DOUBLES` pairs (one atom at a time
when a single atom has more data points), so the temporaries stay small
whatever the grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue
from .measures import DiscreteMeasure, GridAtoms, as_grid, exact_row_sums, mean_rows

PREDICTOR_KINDS = ("linear_regression", "linear_threshold_classifier")
LOSS_KINDS = ("squared", "absolute", "zero_one")

#: Most (atom, data point) pairs scored in one pass of :func:`risk_profile`:
#: 16,384 doubles, 128 KiB per temporary.
BLOCK_DOUBLES = 16_384


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered labeled patterns ``(x_i, y_i)``, i = 1..n."""

    patterns: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        patterns = np.atleast_2d(np.asarray(self.patterns, dtype=float))
        labels = np.asarray(self.labels, dtype=float).ravel()
        if patterns.shape[0] != labels.shape[0]:
            raise DimensionMismatch(
                f"{patterns.shape[0]} patterns but {labels.shape[0]} labels"
            )
        if labels.size < 1:
            raise ValueError("a dataset needs at least one point")
        if not (np.all(np.isfinite(patterns)) and np.all(np.isfinite(labels))):
            raise NonFiniteValue("dataset entries must be finite")
        patterns.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def pattern_dim(self) -> int:
        return int(self.patterns.shape[1])


@dataclass(frozen=True)
class PredictorSpec:
    """Prediction rule f(theta, x) mapping a model and a pattern to a label.

    ``linear_regression`` predicts the linear score itself;
    ``linear_threshold_classifier`` predicts the sign of the score, mapped to
    {-1.0, +1.0} with ties (score exactly 0) resolved to +1.0 so that results
    are reproducible. With ``intercept`` the model's last coordinate is an
    additive bias and the model dimension is ``pattern_dim + 1``.

    Models come as a (C, model_dim) block of rows, and a model's score on a
    pattern x is ``x[0]*w[0] + x[1]*w[1] + ...``, added left to right, then
    ``+ b`` with an intercept: one fixed elementwise formula, not a BLAS
    product, so the bits do not depend on the host's BLAS kernel.
    """

    kind: str
    pattern_dim: int
    intercept: bool = False

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.kind!r}")
        if self.pattern_dim < 1:
            raise ValueError("pattern_dim must be >= 1")

    @property
    def model_dim(self) -> int:
        return self.pattern_dim + (1 if self.intercept else 0)

    def scores(self, thetas: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """(C, n) scores of the (C, model_dim) model rows on the (n, pattern_dim) patterns."""
        if thetas.shape[1] != self.model_dim:
            raise DimensionMismatch(
                f"model has dimension {thetas.shape[1]}, predictor needs {self.model_dim}"
            )
        if patterns.shape[1] != self.pattern_dim:
            raise DimensionMismatch(
                f"patterns have dimension {patterns.shape[1]}, "
                f"predictor needs {self.pattern_dim}"
            )
        s = np.multiply.outer(thetas[:, 0], patterns[:, 0])
        for j in range(1, self.pattern_dim):
            s += np.multiply.outer(thetas[:, j], patterns[:, j])
        if self.intercept:
            s += thetas[:, -1:]
        return s

    def predict_all(self, thetas: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """(C, n) predicted labels of the (C, model_dim) model rows."""
        s = self.scores(thetas, patterns)
        if self.kind == "linear_regression":
            return s
        return np.where(s >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class LossSpec:
    """Pointwise loss l(y_hat, y): nonnegative with l(y, y) = 0 for every y."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    def loss_all(self, predicted: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if self.kind == "squared":
            d = predicted - labels
            return d * d
        if self.kind == "absolute":
            return np.abs(predicted - labels)
        return np.where(predicted == labels, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class EmpiricalRiskProfile(GridAtoms):
    """Empirical risk per atom, plus the minimum level.

    ``delta_star`` is the exact minimum of the risks over the (finite)
    support; for a discrete measure with all-positive weights this equals the
    smallest risk level whose sublevel set carries positive mass.
    """

    risks: np.ndarray
    delta_star: float

    @classmethod
    def on_grid(
        cls, grid: np.ndarray, index: np.ndarray, risks: Sequence[float]
    ) -> "EmpiricalRiskProfile":
        """Profile holding ``risks[i]`` for the distinct grid row ``index[i]``."""
        arr = np.asarray(risks, dtype=float)
        if arr.shape != np.shape(index):
            raise ValueError("one risk per support atom required")
        if arr.size == 0:
            raise ValueError("profile needs at least one atom")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("risks must be finite")
        if np.any(arr < 0.0):
            raise ValueError("risks must be nonnegative")
        arr.flags.writeable = False
        return cls(grid, index, arr, float(arr.min()))

    @classmethod
    def from_risks(cls, coords, risks: Sequence[float]) -> "EmpiricalRiskProfile":
        """Profile holding ``risks[i]`` for the (m, d) row ``coords[i]``, on a grid of its own."""
        grid = as_grid(coords)
        return cls.on_grid(grid, np.arange(grid.shape[0]), risks)

    def aligned(self, m: GridAtoms) -> np.ndarray:
        """Risks in the order of ``m``'s atoms; raises SupportMismatch on gaps."""
        return self.values_at(self.risks, m, "risk")


def _block_risks(
    thetas: np.ndarray, data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> np.ndarray:
    """Empirical risk of each (C, model_dim) model row, in one pass over the data."""
    losses = loss.loss_all(pred.predict_all(thetas, data.patterns), data.labels)
    return exact_row_sums(losses) / data.n


def empirical_risk(
    theta: Sequence[float], data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> float:
    """Average loss of the model row ``theta`` over the dataset.

    (1/n) times the exact sum of the pointwise losses, rounded once: the
    one-row case of :func:`risk_profile`'s blocked kernel, equal to
    ``math.fsum`` of the losses over n. The result does not depend on the
    order of the data or on evaluation scheduling.
    """
    thetas = np.asarray(theta, dtype=float)[None, :]
    return float(_block_risks(thetas, data, pred, loss)[0])


def risk_profile(
    q: DiscreteMeasure, data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> EmpiricalRiskProfile:
    """Evaluate the empirical risk on every atom of ``q``'s support, on ``q``'s grid.

    Each atom's risk equals :func:`empirical_risk` at its coordinates; the
    atoms are evaluated :data:`BLOCK_DOUBLES` // n at a time.
    """
    coords = q.coords
    step = max(1, BLOCK_DOUBLES // data.n)
    risks = np.empty(coords.shape[0])
    for start in range(0, coords.shape[0], step):
        risks[start:start + step] = _block_risks(coords[start:start + step], data, pred, loss)
    return EmpiricalRiskProfile.on_grid(q.grid, q.index, risks)


def expected_risk(p: DiscreteMeasure, profile: EmpiricalRiskProfile) -> float:
    """Mean empirical risk under ``p``, with exact summation: one row of :func:`mean_rows`."""
    return float(mean_rows(p.weights[None], profile.aligned(p))[0])
