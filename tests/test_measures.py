"""Measure construction, divergences, expectations, and exact sums."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrisk import experiment, measures, risk
from entrisk.errors import (
    DuplicateSupportPoint,
    EmptySupport,
    NegativeWeight,
    NonFiniteValue,
    NonFiniteWeight,
)
from entrisk.measures import (
    EXACT_SUM_MIN_TERMS,
    as_grid,
    certified_row_sums,
    certified_sum,
    exact_row_sums,
    exact_sum,
    kl_divergence,
    kl_rows,
    make_measure,
    measure_on,
    positions,
    total_variation,
    tv_rows,
)
from entrisk.risk import BLOCK_DOUBLES, EmpiricalRiskProfile, aligned_risks, expected_risk
from entrisk.type2 import solve_k_bar

from conftest import lattice_points, measure_with, positive_weights, profile_from, uniform_on

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


def abs_continuous(p, q) -> bool:
    """P << Q on discrete measures: every atom of P is an atom of Q."""
    return bool(np.all(positions(p, q) >= 0))


class TestAbsoluteContinuity:
    def test_strict_subset(self):
        p = uniform_on(1)
        q = uniform_on(2)
        assert abs_continuous(p, q) and not abs_continuous(q, p)

    def test_identity(self):
        q = uniform_on(3)
        assert abs_continuous(q, q)

    def test_disjoint(self):
        p = make_measure([[10.0]], [1.0])
        q = uniform_on(2)
        assert not abs_continuous(p, q) and not abs_continuous(q, p)


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
        assert math.isfinite(kl_divergence(p, q)) == abs_continuous(p, q)


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
            assert abs_continuous(p, q) == (set(atoms(p)) <= set(atoms(q)))
            assert abs_continuous(q, p) == (set(atoms(q)) <= set(atoms(p)))

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


#: Lengths on both sides of the crossover of :func:`exact_sum`, and long rows.
EXACT_SUM_LENGTHS = [EXACT_SUM_MIN_TERMS - 1, EXACT_SUM_MIN_TERMS, 4_096, 40_000]


class TestExactSum:
    @given(
        st.sampled_from(sorted(ROW_FAMILIES)),
        st.sampled_from(EXACT_SUM_LENGTHS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_fsum_on_both_sides_of_the_crossover(self, family, n, seed):
        row = ROW_FAMILIES[family][0](np.random.default_rng(seed), 1, n)[0]
        total = exact_sum(row)
        assert type(total) is float
        assert same_bits(np.float64(total), np.float64(math.fsum(row.tolist())))
        if family == "cancelling":
            # The certificate cannot vouch for the row: the fsum fallback sums it.
            assert not certified_row_sums(row[None])[1][0]


def spiked(value):
    """Loss row builder with ``value`` at one random position."""

    def build(rng, n):
        row = loss_rows(rng, 1, n)[0]
        row[rng.integers(n)] = value
        return row

    return build


#: Named single rows at the edges of the certificate: name -> builder(rng, n).
EDGE_ROWS = {
    "zeros": lambda rng, n: np.zeros(n),
    "negative_zeros": lambda rng, n: np.full(n, -0.0),
    "signed_zeros": lambda rng, n: zero_rows(rng, 1, n)[0],
    "subnormal_only": lambda rng, n: rng.integers(-1000, 1000, n) * 5e-324,
    "positive_subnormals": lambda rng, n: rng.integers(1, 1000, n) * 5e-324,
    # 2 n max|x| overflows although the sum does not.
    "span_overflows": lambda rng, n: rng.permuted(
        np.concatenate([[1e308, -1e308], loss_rows(rng, 1, n - 2)[0]])
    ),
    "sum_overflows": lambda rng, n: np.full(n, 1e308),
    "nan": spiked(math.nan),
    "inf": spiked(math.inf),
    "minus_inf": spiked(-math.inf),
    # 1 - 2**-56 rounds up to 1, within the quarter spacing below a power of two.
    "power_of_two_sum": lambda rng, n: with_filler(rng, np.array([[1.0, -(2.0**-56)]]), n)[0],
    # 1 - 2**-54 - 2**-64 lies just past that quarter spacing: it rounds down.
    "past_quarter_spacing": lambda rng, n: with_filler(
        rng, np.array([[1.0, -(2.0**-54), -(2.0**-64)]]), n
    )[0],
}


def assert_certificates_agree(row: np.ndarray) -> None:
    """The lone-row certificate and the block kernel give the same sum bits and verdict."""
    total, certified = certified_sum(row)
    sums, verdicts = certified_row_sums(row[None])
    assert type(total) is float and type(certified) is bool
    assert same_bits(np.float64(total), sums[0])
    assert certified == bool(verdicts[0])


class TestLoneRowCertificate:
    @given(
        st.sampled_from(sorted(ROW_FAMILIES)),
        st.sampled_from([1, 2, 7, *EXACT_SUM_LENGTHS]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_kernel_on_every_family(self, family, n, seed):
        build, shortest = ROW_FAMILIES[family]
        assert_certificates_agree(build(np.random.default_rng(seed), 1, max(n, shortest))[0])

    # The families once more on read-only rows: the certificate forms its
    # low parts in a buffer of its own, and an ``out=`` that named the input
    # would raise here.
    @given(
        st.sampled_from(sorted(ROW_FAMILIES)),
        st.sampled_from([1, 2, 7, *EXACT_SUM_LENGTHS]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_leaves_read_only_rows_of_every_family_unwritten(self, family, n, seed):
        build, shortest = ROW_FAMILIES[family]
        row = build(np.random.default_rng(seed), 1, max(n, shortest))[0]
        before = row.copy()
        row.flags.writeable = False
        assert_certificates_agree(row)
        assert same_bits(np.float64(exact_sum(row)), np.float64(math.fsum(row.tolist())))
        assert same_bits(row, before)

    @pytest.mark.parametrize("n", EXACT_SUM_LENGTHS)
    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_leaves_read_only_edge_rows_unwritten(self, name, n, rng):
        row = EDGE_ROWS[name](rng, n)
        before = row.copy()
        row.flags.writeable = False
        assert_certificates_agree(row)
        assert same_bits(row, before)

    @pytest.mark.parametrize("n", EXACT_SUM_LENGTHS)
    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_agrees_with_the_kernel_on_edge_rows(self, name, n, rng):
        row = EDGE_ROWS[name](rng, n)
        assert row.shape == (n,)
        assert_certificates_agree(row)
        if name != "sum_overflows":
            expected = np.float64(math.fsum(row.tolist()))
            assert same_bits(np.float64(exact_sum(row)), expected)
            assert same_bits(exact_row_sums(row[None]), expected[None])

    def test_edge_verdicts(self):
        n = EXACT_SUM_MIN_TERMS
        rng = np.random.default_rng(0)
        verdicts = {name: certified_sum(build(rng, n))[1] for name, build in EDGE_ROWS.items()}
        assert verdicts == {
            "zeros": True,
            "negative_zeros": True,
            "signed_zeros": True,
            "subnormal_only": False,
            "positive_subnormals": False,
            "span_overflows": False,
            "sum_overflows": False,
            "nan": False,
            "inf": False,
            "minus_inf": False,
            "power_of_two_sum": True,
            "past_quarter_spacing": True,
        }

    @pytest.mark.parametrize("n", [512, 4_096])
    def test_bound_of_exactly_half_a_spacing_is_not_certified(self, n):
        # With n a power of two and max|x| = 1, sigma = 4n and every low part
        # is 0, so the sum s is exact; the bound 16 n^3 u^2 still equals half
        # a spacing of s, which the strict comparisons do not accept.
        s = 48.0 * n**3 * 2.0**-54
        assert 2.0 * (16.0 * n**3 * 2.0**-106) == math.ulp(s)
        row = np.zeros(n)
        row[:3] = [1.0, -1.0, s]
        assert certified_sum(row) == (s, False)
        assert_certificates_agree(row)

    @pytest.mark.parametrize("n", EXACT_SUM_LENGTHS)
    def test_overflowing_row_raises_like_fsum(self, n):
        row = np.full(n, 1e308)
        with pytest.raises(OverflowError):
            math.fsum(row.tolist())
        with pytest.raises(OverflowError):
            exact_sum(row)
        with pytest.raises(OverflowError):
            exact_row_sums(row[None])


@pytest.fixture
def slow_sum_calls(monkeypatch) -> list:
    """Names of the block kernel, ``exact_row_sums`` and ``math.fsum``, once per call."""
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(math, "fsum", counting("math.fsum", math.fsum))
    for name in ("certified_row_sums", "exact_row_sums"):
        original = getattr(measures, name)
        for module in (measures, risk, experiment):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    return calls


class TestLoneRowFastPath:
    """A certifiable single sum stays on the lone-row path."""

    def test_exact_sum_of_a_positive_row(self, rng, slow_sum_calls):
        row = loss_rows(rng, 1, 4_096)[0]
        assert exact_sum(row) == math.fsum(row.tolist())
        slow_sum_calls.clear()  # the fsum oracle above
        exact_sum(row)
        assert slow_sum_calls == []

    def test_solve_k_bar_on_4096_atoms(self, rng, slow_sum_calls):
        n = 4_096
        q, prof = uniform_on(n), profile_from(rng.uniform(0.0, 2.0, n))
        slow_sum_calls.clear()  # building q renormalises its weights
        res = solve_k_bar(aligned_risks(q, prof), 0.5)
        assert res.iterations > 0
        assert slow_sum_calls == []


class TestRowCores:
    """One row of the block functions is the per-measure function, zero weights dropped."""

    def test_block_rows_equal_the_per_measure_values(self, rng):
        m = 12
        q = make_measure(lattice_points(m), rng.uniform(0.05, 1.0, m))
        draws = rng.dirichlet(np.ones(m), size=6)
        draws[1, 3] = 0.0
        draws[4, [0, 7, 11]] = 0.0
        block = draws / exact_row_sums(draws)[:, None]  # measure_on's renormalization
        kl_pq, kl_qp = kl_rows(block, q.weights), kl_rows(q.weights, block)
        tv = tv_rows(block, q.weights)
        for i, row in enumerate(draws):
            p = measure_on(q.grid, q.index, row)
            assert same_bits(p.weights, block[i][row > 0.0])
            assert same_bits(kl_pq[i], np.float64(kl_divergence(p, q)))
            assert same_bits(kl_qp[i], np.float64(kl_divergence(q, p)))
            assert same_bits(tv[i], np.float64(total_variation(p, q)))
        assert np.isinf(kl_qp[[1, 4]]).all() and np.isfinite(kl_qp[[0, 2, 3, 5]]).all()

    @pytest.mark.parametrize("m", [5, 12, EXACT_SUM_MIN_TERMS + 7])
    def test_kl_rows_are_the_defining_sum(self, rng, m):
        q_row = rng.uniform(0.05, 1.0, m)
        draws = rng.dirichlet(np.ones(m), size=5)
        draws[1, 3] = 0.0
        draws[2, [0, m - 1]] = 0.0
        draws[3, 3] = 0.0
        block = draws / exact_row_sums(draws)[:, None]
        off_q = q_row.copy()
        off_q[3] = 0.0  # a reference that misses atom 3, charged by rows 0, 2 and 4

        def defining_sum(p, q):
            terms = [a * math.log(a / b) if b > 0.0 else math.inf for a, b in zip(p, q) if a > 0.0]
            return max(math.fsum(terms), 0.0)

        for q in (q_row, off_q):
            for p_side, q_side in ((block, q), (q, block)):
                rows = kl_rows(p_side, q_side)
                assert rows.shape == (len(block),)
                for i in range(len(block)):
                    p_i = p_side if p_side.ndim == 1 else p_side[i]
                    q_i = q_side if q_side.ndim == 1 else q_side[i]
                    assert same_bits(rows[i], np.float64(defining_sum(p_i.tolist(), q_i.tolist())))
                    assert same_bits(kl_rows(p_i[None], q_i), rows[i:i + 1])
                    assert same_bits(kl_rows(p_i, q_i[None]), rows[i:i + 1])
        assert np.isinf(kl_rows(block, off_q)[[0, 2, 4]]).all()
        assert np.isfinite(kl_rows(block, off_q)[[1, 3]]).all()
        assert np.isinf(kl_rows(q_row, block)[[1, 2, 3]]).all()

    def test_ratio_that_overflows_is_the_difference_of_logs(self):
        # 0.3 over the subnormal weight 5e-324 overflows: that term is
        # 0.3 * (log 0.3 - log 5e-324), and the divergence stays finite.
        q, p = np.array([0.3, 0.4, 0.3]), np.array([5e-324, 0.1, 0.9])
        with np.errstate(over="ignore"):
            assert 0.3 / 5e-324 == math.inf
        expected = math.fsum([0.3 * (math.log(0.3) - math.log(5e-324)),
                              0.4 * math.log(0.4 / 0.1), 0.3 * math.log(0.3 / 0.9)])
        assert 220.0 < expected < 230.0
        assert kl_rows(q, np.stack([q, p])).tolist() == [0.0, expected]
        assert kl_rows(q[None], p).tolist() == [expected]
