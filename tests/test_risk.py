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
    certified_row_sums,
    empirical_risk,
    exact_row_sums,
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
        assert prof.argmin_set == frozenset({0})

    def test_tie_case(self):
        prof = profile_from([0.7, 0.7])
        assert prof.delta_star == 0.7
        assert prof.argmin_set == frozenset({0, 1})

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

    def test_temporaries_stay_within_a_few_blocks(self):
        # 200 x 200 atoms at n = 200: 8M losses, 64 MB if evaluated at once.
        axis = np.linspace(-1.0, 1.0, 200)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q = make_measure(grid, np.ones(len(grid)))
        x = np.linspace(-1.0, 1.0, 200).reshape(-1, 1)
        data = Dataset(x, 0.3 * x.ravel() - 0.1)
        pred = PredictorSpec("linear_regression", 1, intercept=True)
        tracemalloc.start()
        try:
            risk_profile(q, data, pred, LossSpec("squared"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @given(risk_vectors)
    @settings(max_examples=100)
    def test_delta_star_is_lower_bound(self, risks):
        prof = profile_from(risks)
        assert np.all(prof.risks >= prof.delta_star)
        assert all(prof.risks[i] == prof.delta_star for i in prof.argmin_set)


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
    def test_unique_minimum(self):
        assert profile_from([3.0, 1.0, 2.0]).argmin_set == frozenset({1})

    def test_tie(self):
        assert profile_from([1.0, 1.0]).argmin_set == frozenset({0, 1})

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
        assert prof.argmin_set == frozenset(brute)

    def test_level_set_at_delta_star_equals_minimizers(self):
        prof = profile_from([0.5, 0.2, 0.2, 0.9])
        level_set = np.flatnonzero(prof.risks <= prof.delta_star)
        assert frozenset(level_set.tolist()) == prof.argmin_set == frozenset({1, 2})


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


# --- exact row sums -----------------------------------------------------------


def cancelling_rows(rng, m, n):
    """Pairs of huge entries that cancel exactly, plus entries of at most 1."""
    k = max(1, n // 3)
    big = rng.uniform(2.0**60, 2.0**70, (m, k)) * rng.choice([-1.0, 1.0], (m, k))
    rows = np.concatenate([big, -big, rng.uniform(-1.0, 1.0, (m, n - 2 * k))], axis=1)
    return rng.permuted(rows, axis=1)


def with_filler(rng, head, n):
    """``head`` columns, then pairs ``x, -x`` and a zero up to ``n`` columns, shuffled."""
    m, k = head.shape
    pairs = rng.uniform(-1.0, 1.0, (m, (n - k) // 2)) * np.abs(head[:, :1])
    fill = np.zeros((m, (n - k) % 2))
    return rng.permuted(np.concatenate([head, pairs, -pairs, fill], axis=1), axis=1)


def tie_rows(rng, m, n):
    """A double ``b`` of either sign plus entries summing to exactly half a spacing of ``b``."""
    mantissa = (1.0 + rng.integers(0, 2**52, (m, 1)) * 2.0**-52) * rng.choice([-1.0, 1.0], (m, 1))
    b = np.ldexp(mantissa, rng.integers(-30, 30, (m, 1)))
    half = 0.5 * np.spacing(b) * rng.choice([-1.0, 1.0], (m, 1))
    return with_filler(rng, np.concatenate([b, half], axis=1), n)


def power_of_two_rows(rng, m, n):
    """``±2**e`` plus an offset of -3..3 eighths of the spacing above ``2**e``."""
    p = np.ldexp(rng.choice([-1.0, 1.0], (m, 1)), rng.integers(-30, 30, (m, 1)))
    offset = rng.integers(-3, 4, (m, 1)) * np.spacing(p) / 8.0
    return with_filler(rng, np.concatenate([p, offset], axis=1), n)


def subnormal_rows(rng, m, n):
    """Multiples of the smallest subnormal, some next to one normal entry."""
    rows = rng.integers(-1000, 1000, (m, n)) * 5e-324
    rows[:, 0] += rng.choice([0.0, 2.0**-1022, 2.0**-1000], m)
    return rows


def zero_rows(rng, m, n):
    return rng.choice([0.0, -0.0], (m, n))


def loss_rows(rng, m, n):
    return rng.uniform(0.0, 4.0, (m, n)) ** 2


#: Row family -> (generator, shortest row it builds).
ROW_FAMILIES = {
    "cancelling": (cancelling_rows, 2),
    "tie": (tie_rows, 2),
    "power_of_two": (power_of_two_rows, 2),
    "subnormal": (subnormal_rows, 1),
    "zero": (zero_rows, 1),
    "loss": (loss_rows, 1),
}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


class TestExactRowSums:
    @given(
        st.sampled_from(sorted(ROW_FAMILIES)),
        st.sampled_from([1, 2, 7, 33, BLOCK_DOUBLES + 3]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200)
    def test_equals_fsum_on_every_row(self, family, n, m, seed):
        build, shortest = ROW_FAMILIES[family]
        n = max(n, shortest)
        rows = build(np.random.default_rng(seed), m, n)
        assert rows.shape == (m, n)
        fsums = np.array([math.fsum(row.tolist()) for row in rows])
        assert same_bits(exact_row_sums(rows), fsums)
        sums, certified = certified_row_sums(rows)
        assert same_bits(sums[certified], fsums[certified])
        if family == "cancelling":
            assert not certified.any()

    def test_hand_cases(self):
        rows = np.array(
            [
                [1.0, 2.0**-53, 0.0],  # tie, rounds to even: 1.0
                [1.0 + 2.0**-52, 2.0**-53, 0.0],  # tie, rounds up to even
                [1.0, -(2.0**-54), -(2.0**-80)],  # just past the quarter spacing below 1
                [1e308, 1.0, -1e308],  # the huge entries cancel exactly
                [-0.0, -0.0, -0.0],
            ]
        )
        expected = [math.fsum(row) for row in rows.tolist()]
        assert expected[:2] == [1.0, 1.0 + 2.0**-51]
        assert same_bits(exact_row_sums(rows), np.array(expected))

    def test_overflowing_row_raises_like_fsum(self):
        rows = np.array([[1e308, 1e308], [1.0, 2.0]])
        with pytest.raises(OverflowError):
            math.fsum(rows[0].tolist())
        with pytest.raises(OverflowError):
            exact_row_sums(rows)
