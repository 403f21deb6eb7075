"""Datasets, predictors, losses, and empirical risk over a measure's support.

The empirical risk of a model is its average loss over the training set:
``math.fsum``'s bits of the losses, over n, on every path.

* :class:`Dataset`, :class:`PredictorSpec` and :class:`LossSpec`; every
  score, on every path, is :meth:`PredictorSpec.sum_terms`' formula.
* :func:`empirical_risk`: one model row, the reference of the other paths.
* :func:`risk_profile`: the risk of every atom of a measure, a block of
  :data:`BLOCK_DOUBLES` pairs at a time, from per-column products tables
  (:func:`_column_table`, :func:`_chunk_scorer`); zero-one risks count
  mismatches (:func:`_mismatches`, or by sorting in :func:`_sorted_mismatch_counts`).
* :class:`EmpiricalRiskProfile`: one risk per atom of a shared grid (see
  :class:`entrisk.measures.GridAtoms`), so one profile serves every measure
  whose support it covers: on the same grid the risks are gathered by
  index, otherwise atoms are matched by exact coordinates.
* :class:`AlignedRisks`, built by :func:`aligned_risks`: a profile's risks on
  supp(Q) and what the solvers derive from them; :func:`risk_histogram` bins
  that record by risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ConfigError, DimensionMismatch, EmptySupport, NegativeWeight,
                     NonFiniteValue, SupportMismatch)
from .measures import (
    DiscreteMeasure,
    GridAtoms,
    as_grid,
    certify_sums,
    exact_sum,
    mean_rows,
    positions,
    split_nonnegative,
)

PREDICTOR_KINDS = ("linear_regression", "linear_threshold_classifier")
LOSS_KINDS = ("squared", "absolute", "zero_one")

#: Most (atom, data point) pairs scored in one pass of :func:`risk_profile`:
#: 16,384 doubles, 128 KiB per temporary.
BLOCK_DOUBLES = 16_384

#: Most doubles in the products table of one pattern column (see
#: :func:`_column_table`): two blocks, 256 KiB. A bound on memory, not a
#: speed crossover: on 2 vCPUs (numpy 2.4.6) lattice tables beat the
#: per-block multiply at every size measured, up to 640,000 doubles.
TABLE_DOUBLES = 2 * BLOCK_DOUBLES

#: A pattern column gets a products table only with at least this many data
#: points, and only if each distinct model value recurs at least
#: :data:`TABLE_MIN_REUSE` times on average. On the same host, gathering the
#: table rows was slower than multiplying them out below either: 1.4 to 2.4
#: times at n = 5 on an 80 x 80 lattice, 2 to 2.3 times with no repeats at
#: n = 400, about even at n = 20 or at 4 to 8 repeats.
TABLE_MIN_POINTS = 32
TABLE_MIN_REUSE = 16

#: Zero-one risks are counted by sorting when the runs average at least
#: :data:`SORT_MIN_RUN` atoms and :data:`SORT_MIN_PAIRS` (atom, data point)
#: pairs (mean atoms per run times n). On 2 vCPUs (numpy 2.4.6, 1 or
#: 2 pattern columns, 32 <= n <= 10,000) sorting broke even with the blocks
#: at 1,000 to 2,000 pairs per run for n <= 300, where a run's fixed cost
#: rules, and at 2 to 3 atoms per run for n >= 1,000, where the sort rules:
#: at n = 3,000 one atom per run took 2.3 times as long, 64 a fourteenth.
SORT_MIN_PAIRS = 2_000
SORT_MIN_RUN = 3

#: Most atoms whose sums :func:`risk_profile` certifies at once: the tail of
#: the certificate and the ``math.fsum`` fallbacks run once per chunk of
#: this many atoms, on three arrays of one double per atom.
CHUNK_ATOMS = BLOCK_DOUBLES // 4


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered labeled patterns ``(x_i, y_i)``, i = 1..n."""

    patterns: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        # Copies: the frozen arrays are the dataset's own, never the caller's.
        patterns = np.atleast_2d(np.array(self.patterns, dtype=float))
        labels = np.array(self.labels, dtype=float).ravel()
        if patterns.shape[0] != labels.shape[0]:
            raise DimensionMismatch(
                f"{patterns.shape[0]} patterns but {labels.shape[0]} labels"
            )
        if labels.size < 1:
            raise EmptySupport("a dataset needs at least one point")
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
    product, so the bits do not depend on the host's BLAS kernel. Each
    product is one rounded multiply, so :func:`risk_profile`'s products
    tables give the same scores bit for bit.
    """

    kind: str
    pattern_dim: int
    intercept: bool = False

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_KINDS:
            raise ConfigError(f"unknown predictor kind {self.kind!r}")
        if self.pattern_dim < 1:
            raise DimensionMismatch("pattern_dim must be >= 1")

    @property
    def model_dim(self) -> int:
        return self.pattern_dim + (1 if self.intercept else 0)

    def check_shapes(self, thetas: np.ndarray, patterns: np.ndarray) -> None:
        """Raise DimensionMismatch unless the rows are models and patterns of this predictor."""
        if thetas.shape[1] != self.model_dim:
            raise DimensionMismatch(
                f"model has dimension {thetas.shape[1]}, predictor needs {self.model_dim}"
            )
        if patterns.shape[1] != self.pattern_dim:
            raise DimensionMismatch(
                f"patterns have dimension {patterns.shape[1]}, "
                f"predictor needs {self.pattern_dim}"
            )

    def scores(self, thetas: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """(C, n) scores of the (C, model_dim) model rows on the (n, pattern_dim) patterns.

        The reference for :func:`empirical_risk` and for the ``math.fsum``
        fallback of :func:`risk_profile`, whose table-gathered scores equal
        these bit for bit.
        """
        self.check_shapes(thetas, patterns)
        return self.sum_terms(
            lambda j: np.multiply.outer(thetas[:, j], patterns[:, j]), thetas[:, -1:]
        )

    def sum_terms(self, term, biases: np.ndarray) -> np.ndarray:
        """The score formula: ``term(0) + term(1) + ...``, added left to right, then ``+ biases``.

        ``term(j)`` is the (C, n) products of model coordinate j with pattern
        column j, and ``biases`` the (C, 1) intercepts, added only with an
        intercept. :meth:`scores` and :func:`risk_profile` both score
        through here, so their terms meet in one order.
        """
        s = term(0)
        for j in range(1, self.pattern_dim):
            s += term(j)
        if self.intercept:
            s += biases
        return s

    def predict(self, s: np.ndarray) -> np.ndarray:
        """Predicted labels from scores: the scores themselves, or their signs."""
        if self.kind == "linear_regression":
            return s
        return np.where(s >= 0.0, 1.0, -1.0)

    def predict_all(self, thetas: np.ndarray, patterns: np.ndarray) -> np.ndarray:
        """(C, n) predicted labels of the (C, model_dim) model rows."""
        return self.predict(self.scores(thetas, patterns))


@dataclass(frozen=True)
class LossSpec:
    """Pointwise loss l(y_hat, y): nonnegative with l(y, y) = 0 for every y."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")

    def loss_all(
        self, predicted: np.ndarray, labels: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Pointwise losses of ``predicted`` against ``labels``, written into ``out`` when given.

        ``out`` may be ``predicted`` itself, whose losses then replace it.
        """
        if out is None:
            out = np.empty(np.broadcast_shapes(predicted.shape, labels.shape))
        if self.kind == "zero_one":
            return np.not_equal(predicted, labels, out=out)
        np.subtract(predicted, labels, out=out)
        if self.kind == "squared":
            return np.multiply(out, out, out=out)
        return np.abs(out, out=out)


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
        """Profile holding ``risks[i]`` (copied) for the distinct grid row ``index[i]``."""
        arr = np.array(risks, dtype=float)
        if arr.shape != np.shape(index):
            raise DimensionMismatch("one risk per support atom required")
        if arr.size == 0:
            raise EmptySupport("profile needs at least one atom")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("risks must be finite")
        if np.any(arr < 0.0):
            raise NegativeWeight("risks must be nonnegative")
        arr.flags.writeable = False
        return cls(grid, index, arr, float(arr.min()))

    @classmethod
    def from_risks(cls, coords, risks: Sequence[float]) -> "EmpiricalRiskProfile":
        """Profile holding ``risks[i]`` for the (m, d) row ``coords[i]``, on a grid of its own."""
        grid = as_grid(coords)
        return cls.on_grid(grid, np.arange(grid.shape[0]), risks)

    def aligned(self, m: GridAtoms) -> np.ndarray:
        """Risks in the order of ``m``'s atoms; raises SupportMismatch on gaps.

        ``risks`` itself when ``m`` shares this profile's grid and index
        arrays, as a reference and the risk profile evaluated on it do.
        """
        if m.index is self.index and m.grid is self.grid:
            return self.risks
        at = positions(m, self)
        missing = np.flatnonzero(at < 0)
        if missing.size:
            atom = tuple(m.coords[missing[0]].tolist())
            raise SupportMismatch(f"no risk entry for atom {atom}")
        return self.risks[at]


@dataclass(frozen=True, eq=False)
class AlignedRisks:
    """A profile's risks on the atoms of a reference Q, and the rows derived from them.

    The one instance argument of every solver and check: built once by
    :func:`aligned_risks`, read at every factor, and never written. The rows
    are aligned with ``q_weights``: ``log_q`` is ``np.log`` of Q's weights
    and ``shifted`` is ``risks - delta_star``, both read-only, with
    ``delta_star`` the least risk on supp(Q); ``spread`` is the largest
    entry of ``shifted`` and ``mean_shifted_floor`` a certified lower bound
    on E_Q[shifted]. ``outside`` profiles the atoms outside supp(Q), if any.

    A record's rows may be bins instead of atoms: :func:`risk_histogram`
    gives one row per distinct risk, weighted by its Q-mass. Every solver
    and check reads them as it reads atoms, since both solutions' densities
    with respect to Q depend on an atom only through its risk.
    ``atom_share`` is then each bin's largest atom weight over the bin's
    weight, which turns a bin's weight gap into its largest atom's
    (:func:`entrisk.logrisk.verify_theorem2`); it is None on atoms.
    """

    q_weights: np.ndarray
    log_q: np.ndarray
    risks: np.ndarray
    delta_star: float
    shifted: np.ndarray
    spread: float
    mean_shifted_floor: float
    outside: EmpiricalRiskProfile | None
    atom_share: np.ndarray | None = None


def _record(
    q_weights: np.ndarray,
    risks: np.ndarray,
    outside: EmpiricalRiskProfile | None,
    atom_share: np.ndarray | None = None,
) -> AlignedRisks:
    """The :class:`AlignedRisks` of the rows ``q_weights`` and ``risks``, deriving the rest."""
    delta_star = float(risks.min())
    shifted = risks - delta_star
    log_q = np.log(q_weights)
    shifted.flags.writeable = log_q.flags.writeable = False
    # Products round up by at most 2**-53 relative (2**-1075 where they
    # underflow), the sum once more: under 2**60 atoms, 1 - 2**-50 takes a
    # sum of 2**-960 or more below E_Q[shifted]. A bin's weight, one more
    # rounding of its atoms' exact sum, stays within that margin.
    mean = exact_sum(q_weights * shifted)
    floor = mean * (1.0 - 2.0**-50) if mean >= 2.0**-960 else 0.0
    return AlignedRisks(q_weights, log_q, risks, delta_star, shifted, float(shifted.max()),
                        floor, outside, atom_share)


def aligned_risks(q: DiscreteMeasure, profile: EmpiricalRiskProfile) -> AlignedRisks:
    """The :class:`AlignedRisks` of ``profile`` on supp(Q); raises SupportMismatch on gaps.

    The profile's other atoms become ``outside``, in the profile's order.
    """
    risks = profile.aligned(q)
    outside = None
    if profile.num_atoms > q.num_atoms:  # profile.aligned(q) found every atom of Q
        rest = np.ones(profile.num_atoms, dtype=bool)
        rest[positions(q, profile)] = False
        outside = EmpiricalRiskProfile.on_grid(
            profile.grid, profile.index[rest], profile.risks[rest])
    return _record(q.weights, risks, outside)


def risk_histogram(aligned: AlignedRisks) -> AlignedRisks:
    """The record ``aligned`` binned by risk: one row per distinct risk, the pushforward of Q under L.

    The rows are the distinct risks, ascending, each weighted by the exact
    sum of its atoms' weights (``math.fsum``, bin by bin); ``atom_share``
    holds each bin's largest atom weight over that sum, and ``outside`` is
    kept. The Type-1 density exp(-L/lam)/Z and the Type-2 density
    lam/(k_bar + L) are constant on a bin, so the solutions' normalizers,
    both risks, both divergences and every objective take the same values on
    the bins as on the atoms, up to the rounding of sums taken in another
    grouping. Risks tie only where they are equal as doubles (``0.0`` with
    ``-0.0``).
    """
    # By risk, then by weight, so a bin's last atom is its largest. The risk
    # path already runs np.lexsort (_distinct); np.argsort, default or
    # stable, raised peak memory on the verify-misspecified benchmark
    # workload by about 0.16 MB, though at 1M atoms it sorts 3 to 13 times faster.
    order = np.lexsort((aligned.q_weights, aligned.risks))
    ranked = aligned.risks[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    weights = aligned.q_weights[order]
    ends = np.append(starts[1:], weights.shape[0])
    listed = weights.tolist()
    masses = np.array([math.fsum(listed[a:b]) for a, b in zip(starts.tolist(), ends.tolist())])
    share = weights[ends - 1] / masses
    risks = ranked[starts]
    masses.flags.writeable = share.flags.writeable = risks.flags.writeable = False
    return _record(masses, risks, aligned.outside, share)


def _losses(
    thetas: np.ndarray, data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> np.ndarray:
    """(C, n) pointwise losses of the (C, model_dim) model rows on the data."""
    return loss.loss_all(pred.predict_all(thetas, data.patterns), data.labels)


def empirical_risk(
    theta: Sequence[float], data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> float:
    """Average loss of the model row ``theta`` over the dataset.

    (1/n) times the exact sum of the pointwise losses, rounded once: the
    one-atom case of :func:`risk_profile`, equal to ``math.fsum`` of the
    losses over n. The result does not depend on the order of the data or
    on evaluation scheduling.
    """
    thetas = np.asarray(theta, dtype=float)[None, :]
    return exact_sum(_losses(thetas, data, pred, loss)[0]) / data.n


def _distinct(col: np.ndarray) -> np.ndarray:
    """The values of ``col`` distinct by bits, sorted with ``0.0`` just before ``-0.0``."""
    ranked = col[np.lexsort((np.signbit(col), col))]
    bits = ranked.view(np.int64)
    return ranked[np.concatenate(([True], bits[1:] != bits[:-1]))]


def _column_table(col: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values of one model coordinate and their products with its pattern column.

    ``col`` is the (m,) coordinate over the atoms and ``x`` the (n,) pattern
    column. Values count as distinct by their bits, so ``-0.0`` and ``0.0``
    keep a row each. Returns ``(values, table)``: ``values`` sorted with
    ``0.0`` just before ``-0.0``, and ``table[k] = values[k] * x``, the row
    ``np.multiply.outer`` gives that value. A lattice repeats each
    coordinate value along the other axes, so an 80 x 80 grid needs 80 rows
    per column instead of 6,400 products. ``None`` when the table would
    hold more than :data:`TABLE_DOUBLES` doubles, when ``x`` has fewer than
    :data:`TABLE_MIN_POINTS` entries, or when the values repeat fewer than
    :data:`TABLE_MIN_REUSE` times on average.

    The distinct values are merged one :data:`CHUNK_ATOMS` chunk of ``col``
    at a time, and the search stops at the first chunk that takes them over
    the budget: the temporaries hold a chunk and the values found so far,
    never an (m,) array, and a column of all-distinct values stops early.
    The table is read-only: blocks add its rows into their own scores.
    """
    if x.size < TABLE_MIN_POINTS:
        return None
    most = min(TABLE_DOUBLES // x.size, col.size // TABLE_MIN_REUSE)
    values = col[:0]
    for lo in range(0, col.size, CHUNK_ATOMS):
        values = _distinct(np.concatenate((values, col[lo:lo + CHUNK_ATOMS])))
        if values.size > most:
            return None
    table = np.multiply.outer(values, x)
    table.flags.writeable = False
    return values, table


def _table_rows(values: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row of :func:`_column_table`'s ``values`` holding each entry of ``col``, bit for bit."""
    at = np.searchsorted(values, col)
    # 0.0 == -0.0, so a -0.0 lands on the 0.0 row when both are present.
    at += ~np.signbit(values[at]) & np.signbit(col)
    return at


def _consecutive_rows(rows: np.ndarray, breaks: np.ndarray, start: int, stop: int) -> slice | None:
    """``rows[start:stop]`` as one slice of table rows, or None unless they are consecutive.

    ``breaks[i]`` counts the atoms 1..i whose row is not one past the row
    of the atom before, so atoms ``start`` to ``stop - 1`` read consecutive
    rows exactly when ``breaks`` agrees at both ends.
    """
    if breaks[start] != breaks[stop - 1]:
        return None
    first = int(rows[start])
    return slice(first, first + stop - start)


def _chunk_scorer(thetas: np.ndarray, patterns: np.ndarray, pred: PredictorSpec, tables: list):
    """``block -> pred.scores(thetas[block], patterns)``, bit for bit, for row slices of ``thetas``.

    A pattern column with a table (see :func:`_column_table`) gathers its
    products from it; one without multiplies them out per block. A later
    column (j >= 1) whose atoms read consecutive table rows over the block,
    as the last axis of a lattice does, adds that slice of its table with
    no gather. The first term is a fresh array, never a view of a table:
    :meth:`PredictorSpec.sum_terms` adds the other terms into it, as it does
    for :meth:`PredictorSpec.scores`, and :func:`risk_profile` writes the
    losses over it. On ``sweep-wide`` every block reads its second column
    as a slice.
    """
    rows = [None if t is None else _table_rows(t[0], thetas[:, j]) for j, t in enumerate(tables)]
    breaks = [
        None if j == 0 or r is None else np.concatenate(([0], np.cumsum(np.diff(r) != 1)))
        for j, r in enumerate(rows)
    ]

    def term(j: int, block: slice) -> np.ndarray:
        if tables[j] is None:
            return np.multiply.outer(thetas[block, j], patterns[:, j])
        if breaks[j] is not None:
            start, stop, _ = block.indices(thetas.shape[0])
            run = _consecutive_rows(rows[j], breaks[j], start, stop)
            if run is not None:
                return tables[j][1][run]
        return tables[j][1][rows[j][block]]

    return lambda block: pred.sum_terms(lambda j: term(j, block), thetas[block, -1:])


def _mismatches(pred: PredictorSpec, labels: np.ndarray):
    """``s -> (C, n)`` mask of the predictions from scores ``s`` that differ from the labels.

    The classifier compares the sign mask ``s >= 0.0`` with the labels
    equal to +1, masks built once per dataset: a nan score predicts -1, as
    in :meth:`PredictorSpec.predict`, and a label that is neither +1 nor -1
    always mismatches. No float array of predicted labels is built.
    """
    if pred.kind == "linear_regression":
        return lambda s: s != labels
    positive = labels == 1.0
    other = ~positive & (labels != -1.0)
    return lambda s: ((s >= 0.0) != positive) | other


def _prefix_runs(coords: np.ndarray) -> np.ndarray:
    """First row of each run of consecutive rows equal by bits in all coordinates but the last."""
    bits = coords[:, :-1].view(np.int64)
    changed = bits[1:, 0] != bits[:-1, 0]
    for j in range(1, bits.shape[1]):
        changed |= bits[1:, j] != bits[:-1, j]
    return np.concatenate(([0], np.flatnonzero(changed) + 1))


def _sorted_mismatch_counts(
    coords: np.ndarray, starts: np.ndarray, data: Dataset, pred: PredictorSpec
) -> np.ndarray:
    """Each atom's count of mismatched points under a threshold classifier with an intercept.

    The atoms of one run (see :func:`_prefix_runs`) share their partial
    score P, the score before the intercept b. Under round-to-nearest and
    with a finite b, fl(P + b) >= 0 exactly when P >= -b: a nonzero exact
    sum of two doubles rounds to a nonzero double of its sign, an exact zero
    to +-0, and P = +-inf or nan gives +-inf or nan. So each run's row of P
    is formed once, on the +1 points and then the -1 points, by the
    intercept-free predictor from the products tables of
    :func:`_column_table`, and each class is sorted, with a nan P, which
    predicts -1 whatever b, read as -inf. An atom then counts the +1 labels
    with P < -b and the -1 labels with P >= -b, plus every label outside
    {-1, +1}: the thresholds -b are negated once for all atoms, and each run
    takes one ``searchsorted`` of its thresholds per sorted class. The
    counts are the block path's, so the risks keep their bits, and the work
    is O(G n log n + m log n) for G runs instead of O(m n). The rows are
    formed and sorted a block of at most :data:`BLOCK_DOUBLES` doubles (or
    one row) at a time; besides them the pass holds the patterns reordered
    by class and one count per atom. All 3,600 risks of
    ``verify-misspecified`` come this way. The cap
    ``experiment.MAX_LOSS_EVALUATIONS`` on atoms times points holds here too.
    """
    labels = data.labels
    positive, negative = np.flatnonzero(labels == 1.0), np.flatnonzero(labels == -1.0)
    split = positive.size
    patterns = data.patterns[np.concatenate((positive, negative))]
    prefixes = coords[starts, :-1]
    tables = [_column_table(prefixes[:, j], patterns[:, j]) for j in range(pred.pattern_dim)]
    scores = _chunk_scorer(prefixes, patterns, PredictorSpec(pred.kind, pred.pattern_dim), tables)
    bounds = np.append(starts, coords.shape[0]).tolist()
    thresholds = -coords[:, -1]
    counts = np.empty(coords.shape[0])
    step = max(1, BLOCK_DOUBLES // max(patterns.shape[0], 1))
    for lo in range(0, starts.size, step):
        p = scores(slice(lo, lo + step))
        np.copyto(p, -np.inf, where=np.isnan(p))
        pos, neg = p[:, :split], p[:, split:]
        pos.sort(axis=1)
        neg.sort(axis=1)
        for k in range(p.shape[0]):
            atoms = slice(bounds[lo + k], bounds[lo + k + 1])
            t = thresholds[atoms]
            counts[atoms] = pos[k].searchsorted(t) - neg[k].searchsorted(t)
    counts += data.n - split
    return counts


def risk_profile(
    q: GridAtoms, data: Dataset, pred: PredictorSpec, loss: LossSpec
) -> EmpiricalRiskProfile:
    """Evaluate the empirical risk on every atom of ``q``, on ``q``'s grid.

    Each atom's risk equals :func:`empirical_risk` at its coordinates. The
    atoms are scored :data:`BLOCK_DOUBLES` // n (at least one) at a time, so
    the temporaries stay small whatever the grid size, from per-column
    product tables where they fit (:func:`_column_table`): the scores are
    :meth:`PredictorSpec.scores`'s bit for bit. With zero-one loss an atom's
    risk is its count of predictions that differ from the labels
    (:func:`_mismatches`), over n: ``math.fsum`` of n <= 2**53 zeros and
    ones is that count exactly. A threshold classifier with an intercept
    whose runs of atoms sharing their non-intercept coordinates
    (:func:`_prefix_runs`) average at least :data:`SORT_MIN_RUN` atoms and
    :data:`SORT_MIN_PAIRS` atom-data pairs counts the same mismatches by
    sorting instead (:func:`_sorted_mismatch_counts`), a block of at most
    :data:`BLOCK_DOUBLES` partial scores at a time. Other losses are certified
    :data:`CHUNK_ATOMS` atoms at a time; an atom the certificate rejects has
    its losses evaluated again from :meth:`PredictorSpec.scores` and summed
    by ``math.fsum``. Their blocks run in place, in two buffers of one block
    allocated here: the labels tiled to the block's shape and the split's
    highs. Where a block holds several rows, the split sums them as a
    product with a row of n ones (a BLAS ``dgemv``), which is faster than
    ``np.add.reduce`` there and keeps every certified sum's bits
    (:func:`entrisk.measures.split_nonnegative`), so a sweep writes the same
    bytes with one BLAS thread or two. Each block's scores are a
    fresh array (:func:`_chunk_scorer`: its first term is never a view of a
    table, and a later column whose atoms read consecutive table rows adds
    that slice), which the losses replace.
    """
    coords = q.coords
    m, n = coords.shape[0], data.n
    patterns, labels = data.patterns, data.labels
    pred.check_shapes(coords, patterns)
    if loss.kind == "zero_one" and pred.kind == "linear_threshold_classifier" and pred.intercept:
        starts = _prefix_runs(coords)
        if m >= SORT_MIN_RUN * starts.size and m * n >= SORT_MIN_PAIRS * starts.size:
            risks = _sorted_mismatch_counts(coords, starts, data, pred)
            risks /= n
            return EmpiricalRiskProfile.on_grid(q.grid, q.index, risks)
    tables = [_column_table(coords[:, j], patterns[:, j]) for j in range(pred.pattern_dim)]
    step = max(1, min(BLOCK_DOUBLES // n, CHUNK_ATOMS))
    chunk = CHUNK_ATOMS - CHUNK_ATOMS % step
    mismatches = None
    if loss.kind == "zero_one":
        mismatches = _mismatches(pred, labels)
    else:
        # The labels tiled to a block's shape, which a same-shape subtraction
        # reads at half the cost of a broadcast row, the split's highs, and
        # the ones that sum a block of several rows by matrix-vector product.
        # A block of one row is summed by np.add.reduce: at n = 1e5 the dot
        # gains nothing and its row of ones costs a page fault per 4 KiB.
        tiled = np.tile(labels, (min(step, m), 1))
        highs = np.empty_like(tiled)
        ones = np.ones(n) if step > 1 else None
    risks = np.empty(m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        scores = _chunk_scorer(coords[lo:hi], patterns, pred, tables)
        blocks = [slice(start, min(start + step, hi - lo)) for start in range(0, hi - lo, step)]
        if mismatches is not None:
            for rows in blocks:
                wrong = mismatches(scores(rows))
                risks[lo + rows.start:lo + rows.stop] = np.count_nonzero(wrong, axis=1) / n
            continue
        r, t, bound = np.empty(hi - lo), np.empty(hi - lo), np.empty(hi - lo)
        for rows in blocks:
            size = rows.stop - rows.start
            block = pred.predict(scores(rows))  # a fresh array: the losses replace it
            loss.loss_all(block, tiled[:size], out=block)
            r[rows], t[rows], bound[rows] = split_nonnegative(block, highs[:size], ones)
        bound[(r == 0.0) & (t == 0.0)] = 0.0  # all-zero rows of losses are exact
        sums, certified = certify_sums(r, t, bound)
        for i in np.flatnonzero(~certified).tolist():
            row = _losses(coords[lo + i:lo + i + 1], data, pred, loss)[0]
            sums[i] = math.fsum(row.tolist())
        risks[lo:hi] = sums / n
    return EmpiricalRiskProfile.on_grid(q.grid, q.index, risks)


def expected_risk(p: DiscreteMeasure, profile: EmpiricalRiskProfile) -> float:
    """Mean empirical risk under ``p``, with exact summation: one row of :func:`mean_rows`."""
    return float(mean_rows(p.weights[None], profile.aligned(p))[0])
