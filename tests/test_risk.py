"""Empirical risk, profiles, minimizers, and expected risk."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk.errors import DimensionMismatch, SupportMismatch
from entrisk.measures import make_measure
from entrisk.risk import (
    BLOCK_DOUBLES,
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
    def test_blocked_risks_equal_per_atom_fsum_loop(self, rng, n, pattern_dim, intercept, kind):
        # 37 atoms: not a multiple of the 16 atoms per block at n = 1000.
        pred = PredictorSpec(kind, pattern_dim, intercept)
        coords = rng.uniform(-1.0, 1.0, (37, pred.model_dim))
        x = rng.uniform(-1.0, 1.0, (n, pattern_dim))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if kind == "linear_regression":
            y = y * rng.uniform(0.0, 2.0, n)
        data = Dataset(x, y)
        q = make_measure(coords, np.ones(37))
        for loss_kind in ("squared", "absolute", "zero_one"):
            prof = risk_profile(q, data, pred, LossSpec(loss_kind))
            for theta, risk in zip(coords, prof.risks):
                score = x[:, 0] * theta[0]
                for j in range(1, pattern_dim):
                    score = score + x[:, j] * theta[j]
                if intercept:
                    score = score + theta[-1]
                if kind == "linear_threshold_classifier":
                    score = np.where(score >= 0.0, 1.0, -1.0)
                losses = {
                    "squared": (score - y) ** 2,
                    "absolute": np.abs(score - y),
                    "zero_one": (score != y).astype(float),
                }[loss_kind]
                assert risk == math.fsum(losses.tolist()) / n

    @pytest.mark.parametrize("loss_kind", ["squared", "zero_one"])
    def test_temporaries_stay_within_a_few_blocks(self, loss_kind):
        # 200 x 200 atoms at n = 200: 8M losses, 64 MB if evaluated at once.
        # Every label lies above every prediction (|w x + b| <= 2), so with
        # zero-one loss all 40,000 atoms tie at the minimum risk 1.
        axis = np.linspace(-1.0, 1.0, 200)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = make_measure(grid, np.ones(len(grid)))
        x = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
        data = Dataset(x, 0.3 * x.ravel() + 2.5)
        pred = PredictorSpec("linear_regression", 1, intercept=True)
        tracemalloc.start()
        try:
            risk_profile(q, data, pred, LossSpec(loss_kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
