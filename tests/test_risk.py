"""Empirical risk, profiles, minimizers, and expected risk."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from math import fsum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk import risk
from entrisk.errors import DimensionMismatch, NonFiniteValue, SupportMismatch
from entrisk.measures import as_grid, make_measure, split_nonnegative
from entrisk.risk import (
    BLOCK_DOUBLES,
    CHUNK_ATOMS,
    Dataset,
    EmpiricalRiskProfile,
    LossSpec,
    PredictorSpec,
    empirical_risk,
    expected_risk,
    risk_profile,
)

from conftest import lattice_points, measure_with, profile_from, risk_vectors
from test_measures import EDGE_ROWS

SRC = Path(__file__).parent.parent / "src"
BENCHMARK_WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.json"


def regression(dim=1):
    return PredictorSpec("linear_regression", dim)


def classifier(dim=1):
    return PredictorSpec("linear_threshold_classifier", dim)


def assert_fsum_loop_risks(
    q, data: Dataset, pred: PredictorSpec, loss_kind: str
) -> None:
    """``risk_profile`` on ``q`` equals ``math.fsum`` of each atom's losses over n, bit for bit.

    The losses are recomputed one atom at a time from the scoring formula
    and summed by the ``fsum`` bound at import, which a fixture counting
    ``math.fsum`` calls does not see.
    """
    prof = risk_profile(q, data, pred, LossSpec(loss_kind))
    x, y, n = data.patterns, data.labels, data.n
    for theta, risk in zip(q.coords, prof.risks):
        score = x[:, 0] * theta[0]
        for j in range(1, pred.pattern_dim):
            score = score + x[:, j] * theta[j]
        if pred.intercept:
            score = score + theta[-1]
        if pred.kind == "linear_threshold_classifier":
            score = np.where(score >= 0.0, 1.0, -1.0)
        losses = {
            "squared": (score - y) ** 2,
            "absolute": np.abs(score - y),
            "zero_one": (score != y).astype(float),
        }[loss_kind]
        assert risk == fsum(losses.tolist()) / n


@pytest.fixture
def certificate_calls(monkeypatch) -> list:
    """Names of the certificate's tail in ``risk`` and of ``math.fsum``, once per call."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(math, "fsum", counting("math.fsum", math.fsum))
    monkeypatch.setattr(risk, "certify_sums", counting("certify_sums", risk.certify_sums))
    return calls


@pytest.fixture
def table_columns(monkeypatch) -> list:
    """Whether ``risk_profile`` built a products table, once per pattern column it looked at."""
    built = []
    original = risk._column_table

    def spied(col, x):
        table = original(col, x)
        built.append(table is not None)
        return table

    monkeypatch.setattr(risk, "_column_table", spied)
    return built


@pytest.fixture
def table_slices(monkeypatch) -> list:
    """Whether a block read a later column's table rows as one slice, once per block and column."""
    taken = []
    original = risk._consecutive_rows

    def spied(rows, breaks, start, stop):
        run = original(rows, breaks, start, stop)
        taken.append(run is not None)
        return run

    monkeypatch.setattr(risk, "_consecutive_rows", spied)
    return taken


class TestEmpiricalRisk:
    def test_perfect_predictor_has_zero_risk(self):
        data = Dataset(np.array([[1.0], [2.0], [-3.0]]), np.array([2.0, 4.0, -6.0]))
        assert empirical_risk([2.0], data, regression(), LossSpec("squared")) == 0.0

    def test_hand_evaluated_squared_loss(self):
        data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
        risk = empirical_risk([0.0], data, regression(), LossSpec("squared"))
        assert risk == pytest.approx(1.0, abs=1e-15)

    def test_zero_one_counts_mistakes(self):
        # theta = 1 classifies x >= 0 as +1; three of ten labels disagree.
        x = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
        y = np.where(x.ravel() >= 0.0, 1.0, -1.0)
        y[[0, 3, 7]] *= -1.0
        data = Dataset(x, y)
        risk = empirical_risk([1.0], data, classifier(), LossSpec("zero_one"))
        assert risk == pytest.approx(0.3, abs=1e-15)

    def test_threshold_tie_predicts_plus_one(self):
        data = Dataset(np.array([[0.0]]), np.array([1.0]))
        assert empirical_risk([1.0], data, classifier(), LossSpec("zero_one")) == 0.0

    def test_dimension_mismatch(self):
        data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(DimensionMismatch):
            empirical_risk([1.0], data, regression(dim=2), LossSpec("squared"))
        with pytest.raises(DimensionMismatch):
            empirical_risk([1.0, 2.0], data, regression(dim=1), LossSpec("squared"))

    def test_intercept_extends_model_dimension(self):
        pred = PredictorSpec("linear_regression", 1, intercept=True)
        data = Dataset(np.array([[2.0]]), np.array([7.0]))
        # theta = (slope 3, bias 1): prediction 7, loss 0
        assert empirical_risk([3.0, 1.0], data, pred, LossSpec("squared")) == 0.0

    @given(risk_vectors)
    @settings(max_examples=100)
    def test_risks_nonnegative(self, risks):
        prof = profile_from(risks)
        assert np.all(prof.risks >= 0.0)

    @given(
        st.sampled_from(["squared", "absolute", "zero_one"]),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=150)
    def test_loss_axioms_per_kind(self, kind, y_hat, y):
        losses = LossSpec(kind).loss_all(np.array([y, y_hat]), np.array([y, y]))
        assert losses[0] == 0.0
        assert losses[1] >= 0.0

    def test_any_misfit_point_makes_risk_positive(self):
        data = Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 3.0]))  # theta=1 misses x=2
        for kind in ("squared", "absolute", "zero_one"):
            assert empirical_risk([1.0], data, regression(), LossSpec(kind)) > 0.0


class TestCallerArraysStayWritable:
    """Each object freezes its own copy of its arrays, never the caller's."""

    def test_dataset(self):
        patterns, labels = np.zeros((3, 2)), np.zeros(3)
        data = Dataset(patterns, labels)
        patterns[0, 0] = labels[0] = 1.0
        assert data.patterns[0, 0] == data.labels[0] == 0.0
        assert not (data.patterns.flags.writeable or data.labels.flags.writeable)

    def test_profile_on_grid(self):
        risks = np.array([0.5, 1.0])
        prof = EmpiricalRiskProfile.on_grid(as_grid([[0.0], [1.0]]), np.arange(2), risks)
        risks[0] = 2.0
        assert prof.risks[0] == 0.5 and not prof.risks.flags.writeable

    def test_profile_from_risks(self):
        risks = np.array([0.5, 1.0])
        prof = EmpiricalRiskProfile.from_risks([[0.0], [1.0]], risks)
        risks[0] = 2.0
        assert prof.risks[0] == 0.5 and not prof.risks.flags.writeable


class TestRiskProfile:
    def test_min_and_argmin(self):
        prof = profile_from([0.0, 1.0, 2.0])
        assert prof.delta_star == 0.0

    def test_tie_case(self):
        prof = profile_from([0.7, 0.7])
        assert prof.delta_star == 0.7

    def test_pipeline_matches_pointwise_evaluation(self):
        data = Dataset(np.array([[1.0], [0.5], [-1.0]]), np.array([0.3, 1.0, 0.0]))
        q = make_measure(lattice_points(4), np.ones(4))
        prof = risk_profile(q, data, regression(), LossSpec("absolute"))
        for theta, r in zip(prof.coords, prof.risks):
            assert r == empirical_risk(theta, data, regression(), LossSpec("absolute"))

    @pytest.mark.parametrize("n", [1000, BLOCK_DOUBLES + 5])
    @pytest.mark.parametrize("pattern_dim", [1, 2])
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("kind", ["linear_regression", "linear_threshold_classifier"])
    def test_blocked_risks_equal_per_atom_fsum_loop(
        self, rng, certificate_calls, n, pattern_dim, intercept, kind
    ):
        # 37 atoms: not a multiple of the 16 atoms per block at n = 1000.
        pred = PredictorSpec(kind, pattern_dim, intercept)
        coords = rng.uniform(-1.0, 1.0, (37, pred.model_dim))
        coords[5] = 0.0  # scores exactly 0 everywhere: a tie, which predicts +1
        x = rng.uniform(-1.0, 1.0, (n, pattern_dim))
        x[:4] = 0.0  # without an intercept every model ties on these points
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if kind == "linear_regression":
            y = y * rng.uniform(0.0, 2.0, n)
        y[4:7] = (0.0, 0.5, 2.0)  # labels no classifier predicts
        q = make_measure(coords, np.ones(37))
        for loss_kind in ("squared", "absolute", "zero_one"):
            certificate_calls.clear()
            assert_fsum_loop_risks(q, Dataset(x, y), pred, loss_kind)
            if loss_kind == "zero_one":
                assert certificate_calls == []  # risks are mismatch counts over n
        # Labels predicted by the tiny model theta0, which sits in the first
        # block with theta0 * 2 and order-1 models: theta0's losses are all
        # zero, and a regression's losses at theta0 * 2 are of order 1e-100
        # (absolute) or 1e-200 (squared), too small to certify under the
        # block's sigma, so that row falls back to math.fsum.
        theta0 = 1e-100 * coords[0]
        edge = make_measure(np.vstack([coords[1:3], theta0, 2.0 * theta0, coords[3:]]), np.ones(38))
        labels = Dataset(x, pred.predict_all(theta0[None], x)[0])
        for loss_kind in ("squared", "absolute", "zero_one"):
            certificate_calls.clear()
            assert_fsum_loop_risks(edge, labels, pred, loss_kind)
            fallbacks = certificate_calls.count("math.fsum")
            if loss_kind == "zero_one":
                assert certificate_calls == []  # no certificate and no fallback
            elif kind == "linear_threshold_classifier":
                assert fallbacks == 0  # integer losses and all-zero rows certify
            elif n < BLOCK_DOUBLES:
                assert fallbacks >= 1

    @pytest.mark.parametrize("case, built", [
        pytest.param(case, built, id=case) for case, built in [
            ("lattice", [True, True]),
            ("signed_zeros", [True, True]),
            ("over_budget", [False, True]),
            ("few_repeats", [False, False]),
            ("few_points", [False, False]),
        ]
    ])
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("kind", ["linear_regression", "linear_threshold_classifier"])
    def test_table_risks_equal_per_atom_fsum_loop(
        self, rng, monkeypatch, table_columns, case, built, intercept, kind
    ):
        # An 18 x 17 lattice in the two pattern coordinates (times 3 biases):
        # every coordinate value recurs at least 17 times, so each column's
        # table has 18 or 17 rows for 306 or 918 atoms.
        n = risk.TABLE_MIN_POINTS - 1 if case == "few_points" else 300
        pred = PredictorSpec(kind, 2, intercept)
        axes = [np.linspace(-0.75, 3.5, 18), np.linspace(-1.0, 1.0, 17)] + [
            np.array([-0.25, 0.0, 0.5])
        ] * intercept
        coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, pred.model_dim)
        if case == "signed_zeros":
            # Both signs of zero in every column. Rows compare with ==, so
            # flipping the sign of a zero keeps them distinct.
            zeros = coords == 0.0
            coords[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            assert np.signbit(coords[zeros]).any() and not np.signbit(coords[zeros]).all()
        if case == "over_budget":
            monkeypatch.setattr(risk, "TABLE_DOUBLES", 17 * n)  # 18 rows do not fit, 17 do
        if case == "few_repeats":
            # Each value recurs risk.TABLE_MIN_REUSE - 1 times in the first
            # column and once in the second.
            reuse = risk.TABLE_MIN_REUSE - 1
            values = rng.uniform(-1.0, 1.0, len(coords) // reuse + 1)
            coords[:, 0] = np.repeat(values, reuse)[:len(coords)]
            coords[:, 1] = rng.uniform(-1.0, 1.0, len(coords))
        x = rng.uniform(-1.0, 1.0, (n, 2))
        x[:4] = 0.0
        x[4] = -0.0
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if kind == "linear_regression":
            y = y * rng.uniform(0.0, 2.0, n)
        q = make_measure(coords, np.ones(len(coords)))
        for loss_kind in ("squared", "absolute", "zero_one"):
            table_columns.clear()
            assert_fsum_loop_risks(q, Dataset(x, y), pred, loss_kind)
            assert table_columns == built
        # The sign of a zero score never reaches a risk, so compare the scores
        # themselves: the gathered products are PredictorSpec.scores' bits.
        tables = [risk._column_table(q.coords[:, j], x[:, j]) for j in range(2)]
        scorer = risk._chunk_scorer(q.coords, x, pred, tables)
        assert scorer(slice(0, len(coords))).tobytes() == pred.scores(q.coords, x).tobytes()

    def test_blocked_risks_across_certificate_chunks(self, rng, certificate_calls):
        # At n = 100 a block holds 163 atoms and a chunk 25 blocks (4,075
        # atoms); 4,112 atoms make a full chunk and a remainder of 37.
        n = 100
        step = BLOCK_DOUBLES // n
        chunk = CHUNK_ATOMS - CHUNK_ATOMS % step
        atoms = chunk + 37
        pred = PredictorSpec("linear_regression", 1, intercept=True)
        q = make_measure(rng.uniform(-1.0, 1.0, (atoms, 2)), np.ones(atoms))
        data = Dataset(rng.uniform(-1.0, 1.0, (n, 1)), rng.uniform(-1.0, 1.0, n))
        for loss_kind in ("squared", "absolute"):
            certificate_calls.clear()
            assert_fsum_loop_risks(q, data, pred, loss_kind)
            assert certificate_calls.count("certify_sums") == math.ceil(atoms / chunk) == 2

    @pytest.mark.parametrize("loss_kind", ["squared", "absolute", "zero_one"])
    @pytest.mark.parametrize("kind, points, n, intercept, tables", [
        # 200 x 200 products: over the table budget, multiplied out per block
        pytest.param("linear_regression", 200, 200, True, [False], id="fallback"),
        # two 80 x 400 tables, 0.5 MB
        pytest.param("linear_regression", 80, 400, False, [True, True], id="tables"),
        # 40,000 atoms whose coordinates are all distinct: no table
        pytest.param("linear_regression", None, 200, False, [False, False], id="distinct"),
        # runs of 200 atoms: zero-one risks by sorting, 200 partial-score
        # rows with no table; squared loss as in "fallback"
        pytest.param("linear_threshold_classifier", 200, 200, True, [False], id="sorted"),
    ])
    def test_temporaries_stay_within_a_few_blocks(
        self, rng, table_columns, sorted_runs, loss_kind, kind, points, n, intercept, tables
    ):
        # 200 x 200 atoms at n = 200: 8M losses, 64 MB if evaluated at once;
        # 80 x 80 atoms at n = 400: 2.56M losses, 20 MB. Every regression
        # label lies above every prediction (|w . x| <= 2), so with zero-one
        # loss all atoms tie at the minimum risk 1; the classifier's labels
        # are the signs of x[:, 0] - 0.3.
        if points is None:
            grid = rng.uniform(-1.0, 1.0, (40_000, 2))
        else:
            axis = np.linspace(-1.0, 1.0, points)
            grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = make_measure(grid, np.ones(len(grid)))
        x = np.linspace(-1.0, 1.0, n)
        x = np.stack([x, x[::-1]], axis=1)[:, :2 - intercept]
        if kind == "linear_regression":
            data = Dataset(x, 0.3 * x[:, 0] + 2.5)
        else:
            data = Dataset(x, np.where(x[:, 0] >= 0.3, 1.0, -1.0))
        pred = PredictorSpec(kind, x.shape[1], intercept)
        tracemalloc.start()
        try:
            risk_profile(q, data, pred, LossSpec(loss_kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_columns == tables
        sorts = kind == "linear_threshold_classifier" and loss_kind == "zero_one"
        assert sorted_runs == ([200] if sorts else [])
        assert peak < 2 * 2**20

    @given(risk_vectors)
    @settings(max_examples=100)
    def test_delta_star_is_lower_bound(self, risks):
        prof = profile_from(risks)
        assert np.all(prof.risks >= prof.delta_star)
        assert prof.delta_star in prof.risks


def lattice(*axes) -> np.ndarray:
    """The lattice of ``axes`` as (m, len(axes)) rows, the last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@pytest.fixture
def sorted_runs(monkeypatch) -> list:
    """The number of runs of each zero-one profile ``risk_profile`` counted by sorting."""
    runs = []
    original = risk._sorted_mismatch_counts

    def spied(coords, starts, data, pred):
        runs.append(starts.size)
        return original(coords, starts, data, pred)

    monkeypatch.setattr(risk, "_sorted_mismatch_counts", spied)
    return runs


class TestSortedZeroOneRisks:
    """Zero-one risks of a threshold classifier with an intercept, counted by sorting."""

    @staticmethod
    def assert_paths_agree(monkeypatch, sorted_runs, coords, data, sorted_path=True):
        """The chosen path equals the fsum loop and the block path bit for bit."""
        pred = PredictorSpec("linear_threshold_classifier", data.pattern_dim, intercept=True)
        q = make_measure(coords, np.ones(len(coords)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert_fsum_loop_risks(q, data, pred, "zero_one")
            assert len(sorted_runs) == sorted_path
            chosen = risk_profile(q, data, pred, LossSpec("zero_one")).risks
            with monkeypatch.context() as blocks_only:
                blocks_only.setattr(risk, "SORT_MIN_RUN", math.inf)
                blocks = risk_profile(q, data, pred, LossSpec("zero_one")).risks
        assert len(sorted_runs) == 2 * sorted_path
        assert chosen.tobytes() == blocks.tobytes()

    @pytest.mark.parametrize("signed_zeros", [False, True])
    @pytest.mark.parametrize("pattern_dim", [1, 2])
    def test_exact_ties_and_signed_zeros(
        self, rng, monkeypatch, sorted_runs, pattern_dim, signed_zeros
    ):
        # Quarters, halves and eighths: every score is exact, and many are
        # exactly 0, where x . w = -b and the classifier predicts +1. Runs of
        # 17 atoms at n = 600, fewer where a signed zero splits a run.
        n = 600
        prefix = [np.arange(-4, 5) / 2] if pattern_dim == 1 else [np.arange(-2, 3) / 2] * 2
        coords = lattice(*prefix, np.arange(-8, 9) / 8)
        x = rng.integers(-4, 5, (n, pattern_dim)) / 4
        if signed_zeros:
            # Each zero gets a random sign: in the intercept, in the
            # non-intercept coordinates, which split their runs by bits, and
            # in the patterns, so partial scores of both signs of zero occur.
            for a in (coords, x):
                zeros = a == 0.0
                a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        data = Dataset(x, np.where(rng.random(n) < 0.5, 1.0, -1.0))
        pred = PredictorSpec("linear_threshold_classifier", pattern_dim, intercept=True)
        assert np.any(pred.scores(coords, x) == 0.0)
        partial = PredictorSpec(pred.kind, pattern_dim).scores(coords[:, :-1], x)
        zero = partial == 0.0
        assert np.any(zero & np.signbit(partial)) and np.any(zero & ~np.signbit(partial))
        self.assert_paths_agree(monkeypatch, sorted_runs, coords, data)
        runs = len(coords) // 17
        assert sorted_runs[0] > runs if signed_zeros else sorted_runs[0] == runs

    @pytest.mark.parametrize("pattern_dim", [1, 2])
    def test_infinite_and_nan_partial_scores(self, rng, monkeypatch, sorted_runs, pattern_dim):
        # Patterns near 1e300 times weights of 1e10 overflow to +-inf, and
        # with two columns inf - inf is nan, which predicts -1 whatever b.
        n = 300
        big = np.array([-1e10, -1.0, 0.0, 1.0, 1e10])
        coords = lattice(*[big] * pattern_dim, np.linspace(-1.0, 1.0, 8))
        x = rng.uniform(-1.0, 1.0, (n, pattern_dim))
        x[:40] *= 1e300
        data = Dataset(x, np.where(rng.random(n) < 0.5, 1.0, -1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            partial = PredictorSpec("linear_regression", pattern_dim).scores(coords[:, :-1], x)
        assert np.isposinf(partial).any() and np.isneginf(partial).any()
        assert np.isnan(partial).any() == (pattern_dim == 2)
        self.assert_paths_agree(monkeypatch, sorted_runs, coords, data)

    @pytest.mark.parametrize("labels", ["mixed", "no_minus_one", "none_signed"])
    @pytest.mark.parametrize("pattern_dim", [1, 2])
    def test_labels_outside_plus_minus_one(
        self, rng, monkeypatch, sorted_runs, pattern_dim, labels
    ):
        # Labels no classifier predicts always mismatch.
        n = 300
        coords = lattice(*[np.linspace(-1.0, 1.0, 6)] * pattern_dim, np.linspace(-0.5, 0.5, 10))
        y = rng.choice([1.0, -1.0, 0.0, 0.5, 2.0, -3.0], n)
        if labels == "no_minus_one":
            y[y == -1.0] = 1.0
        elif labels == "none_signed":
            y[np.abs(y) == 1.0] = 0.5
        data = Dataset(rng.uniform(-1.0, 1.0, (n, pattern_dim)), y)
        self.assert_paths_agree(monkeypatch, sorted_runs, coords, data)

    @pytest.mark.parametrize("n", [1000, BLOCK_DOUBLES + 5])
    def test_runs_across_blocks(self, rng, monkeypatch, sorted_runs, n):
        # 37 runs of 4 atoms with random intercepts: 16 runs per block at
        # n = 1000 (37 is not a multiple), one run per block above
        # BLOCK_DOUBLES points.
        prefixes = np.repeat(rng.uniform(-1.0, 1.0, (37, 2)), 4, axis=0)
        coords = np.column_stack((prefixes, rng.uniform(-1.0, 1.0, len(prefixes))))
        x = rng.uniform(-1.0, 1.0, (n, 2))
        data = Dataset(x, np.where(rng.random(n) < 0.5, 1.0, -1.0))
        self.assert_paths_agree(monkeypatch, sorted_runs, coords, data)
        assert sorted_runs[0] == 37

    @pytest.mark.parametrize("part", ["inside", "outside"])
    def test_restricted_lattice_at_eight_runs_per_block(self, rng, monkeypatch, sorted_runs, part):
        # A 40 x 40 lattice of (w, b) restricted to w, b <= 0, as verify's
        # misspecified reference is, at n = 2,000: a block holds 8 runs, so
        # the 20 runs of 20 atoms inside and the 40 runs outside (20 of 20
        # atoms, then 20 of 40) span 3 and 5 blocks.
        n = 2000
        assert BLOCK_DOUBLES // n == 8
        axis = np.linspace(-2.0, 2.0, 40)
        coords = lattice(axis, axis)
        inside = np.all(coords <= 0.0, axis=1)
        x = rng.uniform(-1.0, 1.0, (n, 1))
        y = np.where(x[:, 0] + 0.5 >= 0.0, 1.0, -1.0)
        y[rng.random(n) < 0.1] *= -1.0
        data = Dataset(x, y)
        self.assert_paths_agree(
            monkeypatch, sorted_runs, coords[inside if part == "inside" else ~inside], data)
        assert sorted_runs[0] == (20 if part == "inside" else 40)

    @pytest.mark.parametrize("pattern_dim", [1, 2])
    def test_one_atom_per_prefix_takes_the_block_path(
        self, rng, monkeypatch, sorted_runs, pattern_dim
    ):
        # 3,000 pairs per run clear SORT_MIN_PAIRS, but a run of one atom
        # sorts its n points to place one threshold.
        n = 3000
        assert n >= risk.SORT_MIN_PAIRS and risk.SORT_MIN_RUN > 1
        coords = rng.uniform(-1.0, 1.0, (200, pattern_dim + 1))
        data = Dataset(rng.uniform(-1.0, 1.0, (n, pattern_dim)),
                       np.where(rng.random(n) < 0.5, 1.0, -1.0))
        self.assert_paths_agree(monkeypatch, sorted_runs, coords, data, sorted_path=False)


class TestBlocksInPlace:
    """Blocks read table slices, and their losses and splits run in place, with the same bits."""

    @pytest.mark.parametrize("order", ["lattice", "shuffled", "descending", "signed_zeros"])
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("kind, loss_kinds", [
        ("linear_regression", ("squared", "absolute")),
        # predict allocates the block of signs that the losses replace
        ("linear_threshold_classifier", ("squared",)),
    ])
    def test_slices_and_gathers_equal_per_atom_fsum_loop(
        self, rng, table_columns, table_slices, kind, loss_kinds, intercept, order
    ):
        # An 80 x 80 lattice at n = 300: blocks of 54 atoms, which straddle
        # the runs of 80 atoms along the last axis. Within a run the second
        # column reads consecutive table rows, and across a straddle it
        # gathers. With an intercept each atom gets a bias of its own, so
        # the second column's rows still step by one along a run.
        n = 300
        pred = PredictorSpec(kind, 2, intercept)
        axis = np.arange(-40, 40) / 32
        coords = lattice(axis, axis[::-1] if order == "descending" else axis)
        if order == "signed_zeros":
            # 0.0 and -0.0 both in the last axis: the table has a row for
            # each, so a run steps over the row of the other sign. Runs of
            # even rank take -0.0.
            zeros = np.flatnonzero(coords[:, 1] == 0.0)
            coords[zeros[::2], 1] = -0.0
        if order == "shuffled":
            coords = coords[rng.permutation(len(coords))]
        if intercept:
            coords = np.column_stack((coords, rng.uniform(-0.5, 0.5, len(coords))))
        x = rng.uniform(-1.0, 1.0, (n, 2))
        x[:4] = 0.0
        x[4] = -0.0
        if kind == "linear_regression":
            y = 0.6 * x[:, 0] - 1.1 * x[:, 1] + rng.uniform(-0.3, 0.3, n)
        else:
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        q = make_measure(coords, np.ones(len(coords)))
        data = Dataset(x, y)
        for loss_kind in loss_kinds:
            table_columns.clear()
            table_slices.clear()
            assert_fsum_loop_risks(q, data, pred, loss_kind)
            assert table_columns == [True, True]
            if order in ("lattice", "signed_zeros"):
                assert any(table_slices) and not all(table_slices)
            else:
                assert table_slices and not any(table_slices)
        # The scores themselves, signed zeros included, block by block: in
        # the profile's blocks, and in blocks shifted by 27 atoms, of which
        # the first ends on the first atom of a run.
        step = BLOCK_DOUBLES // n
        tables = [risk._column_table(q.coords[:, j], x[:, j]) for j in range(2)]
        scorer = risk._chunk_scorer(q.coords, x, pred, tables)
        for first in (0, 27):
            blocks = [scorer(slice(lo, lo + step)) for lo in range(first, len(coords), step)]
            expected = pred.scores(q.coords[first:], x)
            assert np.concatenate(blocks).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind, loss_kind, biases, sorts", [
        pytest.param("linear_regression", "squared", 0, False, id="squared"),
        pytest.param("linear_regression", "absolute", 1, False, id="absolute"),
        pytest.param("linear_regression", "zero_one", 0, False, id="zero_one_blocks"),
        pytest.param("linear_threshold_classifier", "zero_one", 10, True, id="zero_one_sorted"),
    ])
    def test_leaves_tables_data_and_grid_unchanged(
        self, rng, monkeypatch, sorted_runs, kind, loss_kind, biases, sorts
    ):
        # A 20 x 120 lattice (times the biases) at n = 200, its first column
        # the fastest: every column gets a table, blocks of 81 atoms (or
        # prefixes) read consecutive rows of the first column, and the
        # classifier's runs of 10 atoms sort. A kernel that added into a
        # slice of the first column's table would write the table.
        built = []
        original = risk._column_table

        def kept(col, x):
            table = original(col, x)
            if table is not None:
                built.append((table[1], table[1].tobytes()))
            return table

        monkeypatch.setattr(risk, "_column_table", kept)
        n = 200
        coords = lattice(np.arange(-10, 10) / 8, np.arange(-60, 60) / 32,
                         *[np.linspace(-0.5, 0.5, biases)] * (biases > 0))
        coords[:, [0, 1]] = coords[:, [1, 0]]
        x = rng.uniform(-1.0, 1.0, (n, 2))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if kind == "linear_regression":
            y = y * rng.uniform(0.5, 1.5, n)
        q = make_measure(coords, np.ones(len(coords)))
        data = Dataset(x, y)
        inputs = (q.grid, data.patterns, data.labels)
        before = [a.tobytes() for a in inputs]
        risk_profile(q, data, PredictorSpec(kind, 2, biases > 0), LossSpec(loss_kind))
        assert sorted_runs == ([2400] if sorts else [])
        assert len(built) == 2
        for table, snapshot in built:
            assert not table.flags.writeable and table.tobytes() == snapshot
        assert [a.tobytes() for a in inputs] == before


@pytest.fixture
def split_ones(monkeypatch) -> list:
    """Whether ``risk_profile`` handed the split a row of ones, once per block it split."""
    passed = []
    original = risk.split_nonnegative

    def spied(rows, out=None, ones=None):
        passed.append(ones is not None)
        return original(rows, out, ones)

    monkeypatch.setattr(risk, "split_nonnegative", spied)
    return passed


def fsum_risks_or_error(q, data: Dataset, pred: PredictorSpec, loss: LossSpec):
    """``math.fsum`` of each atom's ``_losses`` over n, or the error class a profile of them raises."""
    try:
        sums = [math.fsum(row.tolist()) for row in risk._losses(q.coords, data, pred, loss)]
    except OverflowError:
        return OverflowError
    risks = np.array(sums) / data.n
    return risks if np.isfinite(risks).all() else NonFiniteValue


class TestBlasSplit:
    """A block of several rows is summed by matrix-vector product, with ``math.fsum``'s bits."""

    @staticmethod
    def bias_atoms(biases) -> tuple:
        """Atoms (k, b) of a one-column regression with an intercept, and its predictor.

        On patterns of zeros every score is the bias b, so an atom's losses
        are those of b against the labels.
        """
        coords = np.column_stack((np.arange(len(biases), dtype=float), biases))
        return make_measure(coords, np.ones(len(biases))), PredictorSpec("linear_regression", 1, True)

    def test_order_dependent_lows_keep_fsum_bits(self, rng, split_ones):
        # Losses over 60 binades with full mantissas: the low parts carry
        # bits far below each other, so their float sum depends on the
        # order of the additions, as the BLAS and the reduce orders show.
        n = 400
        y = rng.uniform(0.5, 1.0, n) * 2.0 ** -rng.integers(0, 60, n).astype(float)
        biases = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 39) * 2.0 ** -rng.integers(60, 90, 39)])
        q, pred = self.bias_atoms(biases)
        data, loss = Dataset(np.zeros((n, 1)), y), LossSpec("absolute")
        block = risk._losses(q.coords, data, pred, loss)
        _, by_reduce, _ = split_nonnegative(block)
        _, by_blas, _ = split_nonnegative(block, ones=np.ones(n))
        assert np.count_nonzero(by_reduce != by_blas) >= 10
        assert_fsum_loop_risks(q, data, pred, "absolute")
        assert split_ones == [True]

    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_edge_row_families_keep_fsum_bits(self, rng, split_ones, name):
        # Each family's row as the labels of five atoms, blocks of five rows.
        # Labels are finite, so a family's nan or infinity becomes a label of
        # 1e200, whose squared loss overflows to infinity.
        n = 50
        y = EDGE_ROWS[name](rng, n)
        finite = np.isfinite(y).all()
        y[~np.isfinite(y)] = 1e200
        q, pred = self.bias_atoms([0.0, -0.0, 5e-324, 2.0**-60, -1.0])
        data, loss = Dataset(np.zeros((n, 1)), y), LossSpec("absolute" if finite else "squared")
        with np.errstate(over="ignore", invalid="ignore"):
            expected = fsum_risks_or_error(q, data, pred, loss)
            if isinstance(expected, np.ndarray):
                assert risk_profile(q, data, pred, loss).risks.tobytes() == expected.tobytes()
            else:
                with pytest.raises(expected):
                    risk_profile(q, data, pred, loss)
        assert split_ones == [True]

    def test_one_row_blocks_sum_by_reduce(self, rng, split_ones):
        # Above half a block of points each block is one atom: a lone row,
        # which the dot does not speed up.
        n = BLOCK_DOUBLES // 2 + 1
        q, pred = self.bias_atoms([0.0, 0.5, -1.0])
        data = Dataset(np.zeros((n, 1)), rng.uniform(-1.0, 1.0, n))
        assert_fsum_loop_risks(q, data, pred, "squared")
        assert split_ones == [False] * 3

    def test_blas_threads_leave_the_sweep_csv_unchanged(self, tmp_path):
        # The sweep-wide workload's blocks of 40 rows, summed by BLAS on one
        # thread and on two, in fresh processes: the CSV is the same bytes.
        config = json.loads(BENCHMARK_WORKLOADS.read_text(encoding="utf-8"))
        raw = dict(config["workloads"]["sweep-wide"]["config"], data_seed=1001, seed=1001)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        written = []
        for threads in ("1", "2"):
            run_dir = tmp_path / threads
            run_dir.mkdir()
            (run_dir / "config.json").write_text(json.dumps(raw), encoding="utf-8")
            subprocess.run(
                [sys.executable, "-m", "entrisk", "sweep", "--config", "config.json"],
                cwd=run_dir, env=dict(env, OPENBLAS_NUM_THREADS=threads), check=True,
                capture_output=True,
            )
            written.append((run_dir / raw["output_csv"]).read_bytes())
        assert written[0] == written[1]


class TestExpectedRisk:
    def test_point_mass_at_argmin(self):
        prof = profile_from([0.4, 1.0])
        p = make_measure(prof.coords[:1], [1.0])
        assert expected_risk(p, prof) == prof.delta_star

    def test_uniform_average(self):
        prof = profile_from([0.0, 1.0])
        p = measure_with([1.0, 1.0])
        assert expected_risk(p, prof) == pytest.approx(0.5, abs=1e-15)

    def test_hand_summation(self):
        prof = profile_from([0.0, 1.0])
        p = measure_with([0.707107, 0.292893])
        assert expected_risk(p, prof) == pytest.approx(0.292893, abs=1e-12)

    def test_support_mismatch(self):
        prof = profile_from([0.0, 1.0])
        p = make_measure([[99.0]], [1.0])
        with pytest.raises(SupportMismatch):
            expected_risk(p, prof)

    def test_reuse_across_measures_with_shared_atoms(self):
        prof = profile_from([0.1, 0.2, 0.3])
        sub = make_measure(prof.coords[[2, 0]], [3.0, 1.0])
        assert expected_risk(sub, prof) == pytest.approx(0.75 * 0.3 + 0.25 * 0.1, abs=1e-15)

    @given(risk_vectors, st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_between_min_and_max_over_support(self, risks, seed):
        prof = profile_from(risks)
        rng = np.random.default_rng(seed)
        p = make_measure(prof.coords, rng.dirichlet(np.ones(len(risks))))
        val = expected_risk(p, prof)
        assert prof.risks.min() - 1e-12 <= val <= prof.risks.max() + 1e-12


class TestErmMinimizers:
    def test_matches_exhaustive_scan_on_classifier_grid(self):
        x = np.linspace(-1.0, 1.0, 10).reshape(-1, 1)
        y = np.where(x.ravel() >= 0.0, 1.0, -1.0)
        y[[0, 3, 7]] *= -1.0
        data = Dataset(x, y)
        q = make_measure([[-2.0], [-1.0], [1.0], [2.0]], np.ones(4))
        prof = risk_profile(q, data, classifier(), LossSpec("zero_one"))
        brute = {
            i
            for i, theta in enumerate(prof.coords)
            if empirical_risk(theta, data, classifier(), LossSpec("zero_one"))
            == min(
                empirical_risk(t2, data, classifier(), LossSpec("zero_one"))
                for t2 in prof.coords
            )
        }
        assert set(np.flatnonzero(prof.risks == prof.delta_star).tolist()) == brute


class TestLossScaling:
    @given(st.sampled_from([2.0, 4.0, 0.5, 8.0]), st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_scaling_losses_scales_risks(self, c, seed):
        # With absolute loss, scaling patterns and labels by c scales every
        # pointwise loss by c, hence also the risk, delta_star, and means.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(6, 1))
        y = rng.uniform(-1, 1, size=6)
        base = Dataset(x, y)
        scaled = Dataset(c * x, c * y)
        q = make_measure(lattice_points(4), rng.uniform(0.1, 1.0, 4))
        prof_base = risk_profile(q, base, regression(), LossSpec("absolute"))
        prof_scaled = risk_profile(q, scaled, regression(), LossSpec("absolute"))
        assert np.allclose(prof_scaled.risks, c * prof_base.risks, rtol=1e-12, atol=0)
        assert prof_scaled.delta_star == pytest.approx(
            c * prof_base.delta_star, rel=1e-12, abs=1e-300
        )
        p = make_measure(q.coords, rng.dirichlet(np.ones(4)))
        assert expected_risk(p, prof_scaled) == pytest.approx(
            c * expected_risk(p, prof_base), rel=1e-12
        )
