"""Measure construction, divergences, sampling, and expectations."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk.errors import (
    DuplicateSupportPoint,
    EmptySupport,
    NegativeWeight,
    NonFiniteValue,
    NonFiniteWeight,
)
from entrisk.measures import (
    as_grid,
    check_abs_continuity,
    expectation,
    kl_divergence,
    make_measure,
    measure_on,
    point,
    positions,
    sample,
    total_variation,
)

from conftest import lattice_points, measure_with, positive_weights, uniform_on

# Direct-summation oracle with 40-digit logs, frozen:
# sum p_i * log(p_i / q_i) for p = (0.707107, 0.292893), q = (0.5, 0.5).
KL_TWO_ATOM = 0.0884254362572


class TestMakeMeasure:
    def test_renormalizes_symmetric_weights(self):
        m = make_measure(lattice_points(2), [2.0, 2.0])
        assert np.allclose(m.weights, [0.5, 0.5])
        assert abs(math.fsum(m.weights) - 1.0) <= 1e-12

    def test_drops_zero_weight_atoms(self):
        pts = lattice_points(3)
        m = make_measure(pts, [1.0, 0.0, 1.0])
        assert m.support == (pts[0], pts[2])
        assert np.allclose(m.weights, [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            make_measure(lattice_points(1), [-1.0])

    def test_all_zero_rejected(self):
        with pytest.raises(EmptySupport):
            make_measure(lattice_points(2), [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptySupport):
            make_measure([], [])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(NonFiniteWeight):
            make_measure(lattice_points(2), [1.0, math.inf])
        with pytest.raises(NonFiniteWeight):
            make_measure(lattice_points(2), [1.0, math.nan])

    def test_duplicate_support_rejected(self):
        with pytest.raises(DuplicateSupportPoint):
            make_measure([point(0.0), point(0.0)], [1.0, 1.0])

    def test_zero_weight_duplicate_is_dropped_first(self):
        m = make_measure([point(0.0), point(0.0)], [1.0, 0.0])
        assert m.support == (point(0.0),)

    def test_model_point_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            point(math.nan)

    @given(positive_weights)
    @settings(max_examples=200)
    def test_mass_one_and_positive(self, weights):
        m = measure_with(weights)
        assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
        assert float(m.weights.min()) > 0.0


class TestAbsoluteContinuity:
    def test_strict_subset(self):
        p = uniform_on(1)
        q = uniform_on(2)
        rel = check_abs_continuity(p, q)
        assert rel.p_ll_q and not rel.q_ll_p

    def test_identity(self):
        q = uniform_on(3)
        rel = check_abs_continuity(q, q)
        assert rel.p_ll_q and rel.q_ll_p and rel.mutually

    def test_disjoint(self):
        p = make_measure([point(10.0)], [1.0])
        q = uniform_on(2)
        rel = check_abs_continuity(p, q)
        assert not rel.p_ll_q and not rel.q_ll_p


class TestKLDivergence:
    def test_identity_is_zero(self):
        p = measure_with([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_two_atom_oracle_value(self):
        p = measure_with([0.707107, 0.292893])
        q = measure_with([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(KL_TWO_ATOM, abs=1e-9)

    def test_infinite_when_not_dominated(self):
        p = uniform_on(3)
        q = uniform_on(2)
        assert kl_divergence(p, q) == math.inf

    @given(positive_weights, positive_weights)
    @settings(max_examples=200)
    def test_nonnegative_and_zero_iff_equal(self, wp, wq):
        k = min(len(wp), len(wq))
        p = measure_with(wp[:k])
        q = measure_with(wq[:k])
        div = kl_divergence(p, q)
        assert div >= 0.0
        same = bool(np.all(np.abs(p.weights - q.weights) <= 1e-12))
        if same:
            assert div <= 1e-12
        else:
            assert div > 0.0

    @given(positive_weights, positive_weights)
    @settings(max_examples=100)
    def test_finiteness_matches_absolute_continuity(self, wp, wq):
        p = measure_with(wp)
        q = measure_with(wq)
        rel = check_abs_continuity(p, q)
        assert math.isfinite(kl_divergence(p, q)) == rel.p_ll_q


class TestSample:
    def test_point_mass(self):
        m = make_measure([point(4.0)], [1.0])
        assert sample(m, 5, seed=1) == [point(4.0)] * 5

    def test_deterministic_for_fixed_seed(self):
        m = measure_with([0.3, 0.7])
        assert sample(m, 100, seed=42) == sample(m, 100, seed=42)

    def test_uniform_frequency_large_sample(self):
        m = uniform_on(2)
        draws = sample(m, 10**5, seed=7)
        freq = sum(1 for d in draws if d == m.support[0]) / 10**5
        assert abs(freq - 0.5) <= 0.01

    def test_frequencies_within_five_sigma(self):
        count = 10**4
        for seed, weights in ((0, [0.1, 0.9]), (1, [0.25, 0.25, 0.5]), (2, [1, 2, 3, 4])):
            m = measure_with(weights)
            draws = sample(m, count, seed=seed)
            for atom, w in zip(m.support, m.weights):
                freq = sum(1 for d in draws if d == atom) / count
                sigma = math.sqrt(w * (1 - w) / count)
                assert abs(freq - w) <= 5.0 * sigma

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(uniform_on(2), 0, seed=0)


class TestExpectation:
    def test_constant_function(self):
        m = measure_with([0.4, 0.6])
        assert expectation(m, lambda _: 3.25) == pytest.approx(3.25, abs=1e-15)

    def test_uniform_indicator(self):
        m = uniform_on(2)
        f = {m.support[0]: 0.0, m.support[1]: 1.0}
        assert expectation(m, f.__getitem__) == pytest.approx(0.5, abs=1e-15)

    def test_hand_summation(self):
        m = measure_with([0.707107, 0.292893])
        f = {m.support[0]: 0.0, m.support[1]: 1.0}
        assert expectation(m, f.__getitem__) == pytest.approx(0.292893, abs=1e-12)

    def test_non_finite_rejected(self):
        m = uniform_on(2)
        with pytest.raises(NonFiniteValue):
            expectation(m, lambda _: math.inf)

    @given(
        positive_weights,
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_linearity(self, weights, a, b):
        m = measure_with(weights)
        f = lambda pt: pt.coords[0]
        g = lambda pt: pt.coords[0] ** 2 - 1.0
        combo = expectation(m, lambda pt: a * f(pt) + b * g(pt))
        split = a * expectation(m, f) + b * expectation(m, g)
        assert combo == pytest.approx(split, abs=1e-10, rel=1e-10)


def loop_kl(p, q):
    """Reference: the per-atom loop over ModelPoints that the array code replaces."""
    qw = dict(zip(q.support, q.weights.tolist()))
    terms = []
    for pt, pw in zip(p.support, p.weights.tolist()):
        if pt not in qw:
            return math.inf
        terms.append(pw * math.log(pw / qw[pt]))
    total = math.fsum(terms)
    return total if total > 0.0 else 0.0


def loop_tv(p, q):
    pw = dict(zip(p.support, p.weights.tolist()))
    qw = dict(zip(q.support, q.weights.tolist()))
    return 0.5 * math.fsum(abs(pw.get(a, 0.0) - qw.get(a, 0.0)) for a in set(pw) | set(qw))


class TestIndexAlignment:
    """Array divergences equal the point-by-point loop bit for bit."""

    def pairs(self, rng):
        grid = as_grid([(x, y) for x in (-1.0, 0.0, 1.0) for y in (-0.5, 0.0, 0.5)])
        for _ in range(30):
            a = rng.choice(9, size=int(rng.integers(1, 10)), replace=False)
            b = rng.choice(9, size=int(rng.integers(1, 10)), replace=False)
            p = measure_on(grid, a, rng.uniform(0.1, 1.0, a.size))
            q = measure_on(grid, b, rng.uniform(0.1, 1.0, b.size))
            yield p, q
            # The same atoms at the API edge, on grids of their own; -0.0
            # coordinates must still match 0.0.
            flip = [point(*(c if c != 0.0 else -0.0 for c in pt.coords)) for pt in q.support]
            yield make_measure(p.support, p.weights), make_measure(flip, q.weights)

    def test_divergences_match_loop_reference(self, rng):
        for p, q in self.pairs(rng):
            assert kl_divergence(p, q) == loop_kl(p, q)
            assert kl_divergence(q, p) == loop_kl(q, p)
            assert total_variation(p, q) == loop_tv(p, q)
            rel = check_abs_continuity(p, q)
            assert rel.p_ll_q == (p.support_set() <= q.support_set())
            assert rel.q_ll_p == (q.support_set() <= p.support_set())

    def test_positions_on_shared_and_separate_grids(self):
        grid = as_grid([(0.0,), (1.0,), (2.0,)])
        p = measure_on(grid, [2, 0], [1.0, 1.0])
        q = measure_on(grid, [0, 1], [1.0, 1.0])
        assert positions(p, q).tolist() == [-1, 0]
        edge = make_measure([point(1.0), point(-0.0)], [1.0, 1.0])
        assert positions(p, edge).tolist() == [-1, 1]
        assert positions(edge, q).tolist() == [1, 0]

    def test_repeated_index_rejected(self):
        grid = as_grid([(0.0,), (1.0,)])
        with pytest.raises(DuplicateSupportPoint):
            measure_on(grid, [1, 1], [1.0, 1.0])
        assert measure_on(grid, [1, 1], [1.0, 0.0]).index.tolist() == [1]

    def test_grid_rows_must_be_distinct(self):
        with pytest.raises(DuplicateSupportPoint):
            as_grid([(0.0, 1.0), (-0.0, 1.0)])
