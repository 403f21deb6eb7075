"""Measure construction, divergences, and expectations."""

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
    kl_divergence,
    make_measure,
    measure_on,
    positions,
    total_variation,
)
from entrisk.risk import EmpiricalRiskProfile, expected_risk

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
        assert m.coords.tolist() == [pts[0].tolist(), pts[2].tolist()]
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
            make_measure([[0.0], [0.0]], [1.0, 1.0])

    def test_zero_weight_duplicate_is_dropped_first(self):
        m = make_measure([[0.0], [0.0]], [1.0, 0.0])
        assert m.coords.tolist() == [[0.0]]

    def test_non_finite_row_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteValue):
                make_measure([[0.0, 1.0], [bad, 2.0]], [1.0, 1.0])
        # A zero-weight row is still a row of the input.
        with pytest.raises(NonFiniteValue):
            make_measure([[0.0], [math.nan]], [1.0, 0.0])
        with pytest.raises(NonFiniteValue):
            as_grid([[math.inf]])

    def test_rows_must_form_a_two_dimensional_array(self):
        with pytest.raises(ValueError):
            make_measure([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            as_grid(np.empty((2, 0)))

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
        p = make_measure([[10.0]], [1.0])
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


def on_atoms(m, values):
    """Risk profile holding ``values[i]`` for the i-th atom of ``m``."""
    return EmpiricalRiskProfile.on_grid(m.grid, m.index, values)


class TestExpectation:
    """Means of per-atom values under a measure, through ``expected_risk``."""

    def test_constant_function(self):
        m = measure_with([0.4, 0.6])
        assert expected_risk(m, on_atoms(m, [3.25, 3.25])) == pytest.approx(3.25, abs=1e-15)

    def test_uniform_indicator(self):
        m = uniform_on(2)
        assert expected_risk(m, on_atoms(m, [0.0, 1.0])) == pytest.approx(0.5, abs=1e-15)

    def test_hand_summation(self):
        m = measure_with([0.707107, 0.292893])
        assert expected_risk(m, on_atoms(m, [0.0, 1.0])) == pytest.approx(0.292893, abs=1e-12)

    def test_non_finite_rejected(self):
        m = uniform_on(2)
        with pytest.raises(NonFiniteValue):
            on_atoms(m, [0.0, math.inf])

    @given(
        positive_weights,
        st.floats(min_value=0, max_value=5, allow_nan=False),
        st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_linearity(self, weights, a, b):
        # Risks are nonnegative, so both functions and coefficients are too.
        m = measure_with(weights)
        f = m.coords[:, 0]
        g = f**2 + 1.0
        combo = expected_risk(m, on_atoms(m, a * f + b * g))
        split = a * expected_risk(m, on_atoms(m, f)) + b * expected_risk(m, on_atoms(m, g))
        assert combo == pytest.approx(split, abs=1e-10, rel=1e-10)


def atoms(m):
    """The atoms of ``m`` as plain tuples; ``(0.0,) == (-0.0,)`` and both hash alike."""
    return [tuple(row) for row in m.coords.tolist()]


def loop_kl(p, q):
    """Reference: the per-atom loop over coordinate tuples that the array code replaces."""
    qw = dict(zip(atoms(q), q.weights.tolist()))
    terms = []
    for pt, pw in zip(atoms(p), p.weights.tolist()):
        if pt not in qw:
            return math.inf
        terms.append(pw * math.log(pw / qw[pt]))
    total = math.fsum(terms)
    return total if total > 0.0 else 0.0


def loop_tv(p, q):
    pw = dict(zip(atoms(p), p.weights.tolist()))
    qw = dict(zip(atoms(q), q.weights.tolist()))
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
            flip = np.where(q.coords == 0.0, -0.0, q.coords)
            yield make_measure(p.coords, p.weights), make_measure(flip, q.weights)

    def test_divergences_match_loop_reference(self, rng):
        for p, q in self.pairs(rng):
            assert kl_divergence(p, q) == loop_kl(p, q)
            assert kl_divergence(q, p) == loop_kl(q, p)
            assert total_variation(p, q) == loop_tv(p, q)
            rel = check_abs_continuity(p, q)
            assert rel.p_ll_q == (set(atoms(p)) <= set(atoms(q)))
            assert rel.q_ll_p == (set(atoms(q)) <= set(atoms(p)))

    def test_positions_on_shared_and_separate_grids(self):
        grid = as_grid([(0.0,), (1.0,), (2.0,)])
        p = measure_on(grid, [2, 0], [1.0, 1.0])
        q = measure_on(grid, [0, 1], [1.0, 1.0])
        assert positions(p, q).tolist() == [-1, 0]
        edge = make_measure([[1.0], [-0.0]], [1.0, 1.0])
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
