"""Empirical risk, profiles, minimizers, and expected risk."""

from __future__ import annotations

import math
import tracemalloc
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk import risk
from entrisk.errors import DimensionMismatch, SupportMismatch
from entrisk.measures import make_measure
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

    @pytest.mark.parametrize("loss_kind", ["squared", "zero_one"])
    @pytest.mark.parametrize("points, n, intercept, tables", [
        # 200 x 200 products: over the table budget, multiplied out per block
        pytest.param(200, 200, True, [False], id="fallback"),
        pytest.param(80, 400, False, [True, True], id="tables"),  # two 80 x 400 tables, 0.5 MB
        # 40,000 atoms whose coordinates are all distinct: no table
        pytest.param(None, 200, False, [False, False], id="distinct"),
    ])
    def test_temporaries_stay_within_a_few_blocks(
        self, rng, table_columns, loss_kind, points, n, intercept, tables
    ):
        # 200 x 200 atoms at n = 200: 8M losses, 64 MB if evaluated at once;
        # 80 x 80 atoms at n = 400: 2.56M losses, 20 MB. Every label lies
        # above every prediction (|w . x| <= 2), so with zero-one loss all
        # atoms tie at the minimum risk 1.
        if points is None:
            grid = rng.uniform(-1.0, 1.0, (40_000, 2))
        else:
            axis = np.linspace(-1.0, 1.0, points)
            grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = make_measure(grid, np.ones(len(grid)))
        x = np.linspace(-1.0, 1.0, n)
        x = np.stack([x, x[::-1]], axis=1)[:, :2 - intercept]
        data = Dataset(x, 0.3 * x[:, 0] + 2.5)
        pred = PredictorSpec("linear_regression", x.shape[1], intercept)
        tracemalloc.start()
        try:
            risk_profile(q, data, pred, LossSpec(loss_kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_columns == tables
        assert peak < 2 * 2**20

    @given(risk_vectors)
    @settings(max_examples=100)
    def test_delta_star_is_lower_bound(self, risks):
        prof = profile_from(risks)
        assert np.all(prof.risks >= prof.delta_star)
        assert prof.delta_star in prof.risks


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
