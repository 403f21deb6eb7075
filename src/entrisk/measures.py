"""Finite discrete probability measures on a d-dimensional model space.

A :class:`DiscreteMeasure` represents the reference measure and any
candidate measure handed to an objective. A solution is not a measure of its
own: it is a density with respect to the reference, held as one read-only
row of weights aligned with the reference's (:func:`normalized`), where an
atom without mass is a 0. Continuous references are expected to arrive here
already reduced to a particle cloud (i.i.d. draws with uniform weights), so
every integral in the package is a finite sum.

Measures and risk profiles are both :class:`GridAtoms`: an index array into
one shared, read-only grid of coordinates, plus one value per atom. An atom
is a row of that grid. Objects built on the same grid line up by index, so
every sum over the support is a gather followed by an exact sum. Objects on
different grids are matched by coordinates (:func:`positions`).

Every exact sum of the package lives here and returns ``math.fsum``'s bits.
:func:`exact_row_sums` sums many rows at once: it splits every entry without
error into a high part, whose row sums are exact in floating point, and a low
part, whose row sums carry a rigorous error bound, vectorised over the rows
(:func:`_split_sums`). Where the bound proves that the result is the correctly
rounded row sum it is certified equal to ``math.fsum`` (:func:`certify_sums`);
a row the certificate cannot vouch for, such as one that cancels heavily, is
summed by ``math.fsum`` itself. The risk profile splits blocks of
nonnegative losses at one scale per block (:func:`split_nonnegative`), sums
a block's rows as a matrix-vector product, and certifies many blocks at
once. A single sum, or a block of one row, goes through :func:`exact_sum`,
which hands short arrays to ``math.fsum`` and long ones to
:func:`certified_sum`: the same split and certificate for one row, with the
certificate on Python floats. The divergences of arbitrary measures, the
total variation and the expected risk are computed row-wise on aligned
weight arrays (:func:`kl_rows`, :func:`tv_rows`, :func:`mean_rows`): one row
for a pair of measures, a block of rows for many candidate measures at once.
A divergence whose per-atom log-ratios are already known, as they are to
the solvers, is summed in the phi form of :func:`kl_log_ratios`, with no
per-atom ``math.log``.

All types are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateSupportPoint,
    EmptySupport,
    NegativeWeight,
    NonFiniteValue,
    NonFiniteWeight,
    SupportMismatch,
)

#: Terms from which :func:`exact_sum` goes through :func:`certified_sum`
#: instead of ``math.fsum``. The lone-row path costs about 10-15 us a call
#: up to a thousand terms and 23 us at 4,096; ``math.fsum`` of a list costs
#: 40-70 ns a term. Measured break-even (min of rounds, 2 vCPUs, numpy 2.4):
#: 256-320 terms, so the switch sits a little above, where a row the
#: certificate rejects, summed twice, costs little. At 900 terms 49 -> 14 us,
#: at 4,096 280 -> 23 us (the block kernel on the row: 71 us), at 40,000
#: 3.1 -> 0.41 ms.
EXACT_SUM_MIN_TERMS = 384

#: Unit roundoff of binary64: half the spacing of the doubles in [1, 2).
_UNIT_ROUNDOFF = 2.0**-53

#: Rows are certified only when their extraction scale is 0 or at least this,
#: so that their error bound is a normal double, exact and rigorous.
_TINY_SCALE = 2.0**-900


def _split_sums(
    rows: np.ndarray, sigma, out: np.ndarray | None = None, ones: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The float row sums ``r`` of the high parts and ``t`` of the low parts of ``rows``.

    Rump, Ogita and Oishi's ExtractVector ("Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008) at the power of two
    ``sigma``, one scalar for all rows or an (m, 1) column, at least
    ``2 n max|row|`` for each row: the high parts ``(sigma + x) - sigma`` are
    multiples of ``u sigma`` (u the unit roundoff) whose float sum ``r`` is
    exact in any order, and the lows ``x - high`` are exact and at most
    ``u sigma`` each, so their float sum ``t`` is off by at most
    ``4 n^2 u^2 sigma``. :func:`certify_sums` turns the pair into a sum and
    a verdict. The highs, then the lows, are formed in ``out``, an array
    of ``rows``' shape, when it is given, and in a fresh one otherwise.

    Both bounds hold for any order of the additions (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2nd ed., section 4.2), so a
    certified sum has ``math.fsum``'s bits however the rows are summed.
    Given ``ones``, a row of n ones, they are summed as the matrix-vector
    product ``rows @ ones`` (a BLAS ``dgemv``), faster on a block of many
    rows than ``np.add.reduce``; without it, by ``np.add.reduce``.
    """
    high = np.add(rows, sigma, out=out)
    high -= sigma
    if ones is None:
        r = np.add.reduce(high, axis=1)
        return r, np.add.reduce(np.subtract(rows, high, out=high), axis=1)
    r = high @ ones
    return r, np.subtract(rows, high, out=high) @ ones


def certify_sums(r: np.ndarray, t: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum ``r2 = r + t`` and whether it is certified equal to ``math.fsum``.

    ``r`` and ``t`` come from :func:`_split_sums` and ``bound`` is the error
    bound of ``t``, one per row; a nan bound leaves its row uncertified.
    ``r2, e2 = TwoSum(r, t)`` (Ogita, Rump and Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 26(6), 2005) puts the exact sum within
    ``bound`` of ``r2 + e2``. ``r2`` is then the correctly rounded sum,
    which is what ``math.fsum`` returns, when that whole interval lies
    strictly inside ``r2``'s rounding interval: half a spacing on either
    side, a quarter toward zero when ``|r2|`` is a power of two. Ties and
    rows that cancel heavily are left uncertified.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = r + t  # Knuth's TwoSum: r2 + e2 == r + t exactly
        z = r2 - r
        e2 = (r - (r2 - z)) + (t - z)
        # Compare the farthest offsets of the exact sum away from and toward
        # zero with the half gaps to r2's neighbours, doubled so that no
        # subnormal spacing is halved.
        away = np.sign(r2) * e2
        spacing = np.spacing(np.abs(r2))
        below = np.where(np.abs(np.frexp(r2)[0]) == 0.5, 0.5 * spacing, spacing)
        certified = (2.0 * (bound + away) < spacing) & (2.0 * (bound - away) < below)
    return r2, certified


def certified_row_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of an (m, n) float array, n >= 1, and which of them are certified.

    Where ``certified`` is true the sum equals ``math.fsum`` of the row, bit
    for bit; elsewhere it is only close. Each row is split at its own
    ``sigma``, the power of two at or above ``2 n max|row|``
    (:func:`_split_sums`), and certified with the bound ``4 n^2 u^2 sigma``
    (:func:`certify_sums`). An all-zero row has ``sigma = 0`` and bound 0
    and is exact. Rows of tiny nonzero entries and rows that overflow or
    hold a nan or infinity get a nan bound and are left uncertified.
    """
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        span = 2.0 * n * np.maximum.reduce(np.abs(rows), axis=1)
        scale = np.where(span > 0.0, np.ldexp(1.0, np.frexp(span)[1]), 0.0)
        r, t = _split_sums(rows, scale[:, None])
        bound = scale * (4.0 * n * n * _UNIT_ROUNDOFF**2)
    guard = (span == 0.0) | ((scale >= _TINY_SCALE) & (span < math.inf))
    return certify_sums(r, t, np.where(guard, bound, math.nan))


def split_nonnegative(
    rows: np.ndarray, out: np.ndarray | None = None, ones: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_split_sums` of an (m, n) block of nonnegative rows at one ``sigma``, and the bound.

    ``sigma`` is the power of two at or above ``2 n max(rows)``, one scalar
    for the block: no magnitude pass and no per-row column. The bound of
    every row's ``t`` is then ``4 n^2 u^2 sigma``: 0 for an all-zero block,
    nan (with nan sums) for a block that holds a nan or an infinity, whose
    span overflows, or whose entries are all tiny. Under a positive
    ``sigma`` the highs and lows of a nonnegative row are both 0 exactly
    when the row is all zero, so ``r == t == 0`` marks an exact row.
    ``out`` is :func:`_split_sums`' buffer for the highs, and ``ones`` its
    row of n ones, which sums the rows by matrix-vector product.
    """
    n = rows.shape[1]
    span = 2.0 * n * float(np.maximum.reduce(rows, axis=None))
    scale = math.ldexp(1.0, math.frexp(span)[1]) if 0.0 < span < 2.0**1023 else 0.0
    if not (span == 0.0 or scale >= _TINY_SCALE):
        sums = np.full(rows.shape[0], math.nan)
        return sums, sums, math.nan
    r, t = _split_sums(rows, scale, out, ones)
    return r, t, scale * (4.0 * n * n * _UNIT_ROUNDOFF**2)


def certified_sum(x: np.ndarray) -> tuple[float, bool]:
    """:func:`certified_row_sums` of a 1-D float array, n >= 1, as one row.

    The same vector passes (the largest magnitude, the split at ``sigma`` and
    the two float sums) feed the certificate of :func:`certify_sums`, here
    evaluated on Python floats with ``math.frexp``, ``math.ldexp`` and
    ``math.ulp`` instead of a few dozen numpy calls on 1-element arrays. A
    row that fails the kernel's scale guard (a nan or an infinity, an
    overflowing span, tiny nonzero entries) is handed to the kernel, so both
    return the same sum and verdict on every row.
    """
    n = x.shape[0]
    span = 2.0 * n * float(np.maximum.reduce(np.abs(x)))
    # The kernel's scale; 0 where its guard fails anyway: on nan, infinity
    # and spans whose scale 2**1024 overflows, making the kernel's bound infinite.
    scale = math.ldexp(1.0, math.frexp(span)[1]) if 0.0 < span < 2.0**1023 else 0.0
    if not (span == 0.0 or scale >= _TINY_SCALE):
        sums, certified = certified_row_sums(x[None])
        return float(sums[0]), bool(certified[0])
    high = x + scale
    high -= scale
    r = float(np.add.reduce(high))
    t = float(np.add.reduce(np.subtract(x, high, out=high)))
    r2 = r + t
    z = r2 - r
    e2 = (r - (r2 - z)) + (t - z)
    bound = scale * (4.0 * n * n * _UNIT_ROUNDOFF**2)
    away = e2 if r2 > 0.0 else -e2 if r2 < 0.0 else 0.0
    spacing = math.ulp(r2)
    below = 0.5 * spacing if abs(math.frexp(r2)[0]) == 0.5 else spacing
    return r2, 2.0 * (bound + away) < spacing and 2.0 * (bound - away) < below


def exact_sum(x: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float array, bit for bit.

    Below :data:`EXACT_SUM_MIN_TERMS` terms this is ``math.fsum`` of a list;
    from there on :func:`certified_sum` is faster, and ``math.fsum`` sums
    only the rows it cannot certify.
    """
    if x.shape[0] >= EXACT_SUM_MIN_TERMS:
        total, certified = certified_sum(x)
        if certified:
            return total
    return math.fsum(x.tolist())


def exact_row_sums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of an (m, n) float array, n >= 1, bit for bit.

    A lone row is summed by :func:`exact_sum`. Otherwise rows certified by
    :func:`certified_row_sums` keep its sum and the rest are summed by
    ``math.fsum``, which raises or returns a special value on overflow, nan
    or infinity exactly as it would for the row on its own.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] == 1:
        return np.array([exact_sum(rows[0])])
    sums, certified = certified_row_sums(rows)
    if not certified.all():
        for i in np.flatnonzero(~certified).tolist():
            sums[i] = math.fsum(rows[i].tolist())
    return sums


def mean_rows(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Exact sum of ``weights * values`` along each row of (k, m) ``weights``.

    ``values`` is one (m,) row aligned with the columns: the mean of the
    values under each row of weights.
    """
    return exact_row_sums(weights * values)


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(P || Q) for each row of aligned weights, natural log.

    ``p`` and ``q`` hold weights atom by atom, one of them (k, m) and the
    other (k, m) or one (m,) row for all. An atom with zero weight in ``p`` is
    outside supp(P) and adds nothing; a row where ``p`` charges an atom that
    ``q`` does not is ``+inf``. The logarithms go through ``math.log``
    (libm), not numpy's vectorized ``log``, whose last bits can differ. Each
    is the log of the ratio p/q, except where that ratio overflows, as at a
    subnormal q: there it is log p - log q, so that a finite divergence
    stays finite. This scores arbitrary measures (the objectives); the
    sweep's columns, whose log-ratios the solves already know, go through
    :func:`kl_log_ratios`.
    """
    charged = p > 0.0
    inside = charged & (q > 0.0)
    with np.errstate(over="ignore"):
        ratios = np.divide(p, q, out=np.ones(inside.shape), where=inside)
    logs = np.fromiter(map(math.log, ratios.ravel().tolist()), dtype=float, count=ratios.size)
    logs = logs.reshape(inside.shape)
    # p/q overflows where q is subnormal next to p; its log is then log p - log q.
    at = np.nonzero(np.isinf(ratios))
    if at[0].size:
        p_at, q_at = np.broadcast_to(p, inside.shape)[at], np.broadcast_to(q, inside.shape)[at]
        logs[at] = [math.log(a) - math.log(b) for a, b in zip(p_at.tolist(), q_at.tolist())]
    totals = exact_row_sums(p * logs)
    totals[(charged & ~inside).any(axis=-1)] = math.inf
    # Gibbs' inequality guarantees >= 0; roundoff on nearly identical inputs
    # can leave a residual of order 1e-16, which is clamped away.
    totals[~(totals > 0.0)] = 0.0
    return totals


#: |x| below which :func:`kl_log_ratios` sums phi's Taylor series: there the
#: closed form cancels, to a relative error of about 4u/|x| (u the unit
#: roundoff), while the series' dropped tail stays under 1e-15 relative.
PHI_SERIES_MAX = 0.1

#: phi(x) = sum over n >= 2 of (n - 1) x**n / n!: the coefficients of
#: n = 10 down to 2, in Horner order.
_PHI_SERIES = tuple((n - 1) / math.factorial(n) for n in range(10, 1, -1))


def kl_log_ratios(weights: Sequence[np.ndarray], log_ratios: np.ndarray) -> list[float]:
    """D(P || B) of each row of log-ratios x = log(p/b), from the weights of B.

    ``log_ratios`` is a (k, m) block, one pair of measures per row, and
    ``weights`` holds the k aligned (m,) weight rows of the B's. With both
    measures of mass 1, D(P || B) = sum of b * phi(x), where
    phi(x) = x e^x - expm1(x) = (p/b) log(p/b) - (p/b - 1) >= 0. Every term
    is nonnegative and none divides weights, so the sum keeps its relative
    accuracy where P and B nearly agree and the plain sum of p log(p/b)
    cancels. An atom where P's weight underflows (a large negative x) adds
    its weight b, as phi tends to 1. phi is formed for the whole block in
    one pass; then each row takes one exact sum, clamped at 0 as
    :func:`kl_rows` clamps.
    """
    x = log_ratios
    phi = x * np.exp(x) - np.expm1(x)
    small = np.abs(x) < PHI_SERIES_MAX
    if small.any():
        xs = x[small]
        series = xs * _PHI_SERIES[0] + _PHI_SERIES[1]
        for c in _PHI_SERIES[2:]:
            series *= xs
            series += c
        phi[small] = series * xs * xs
    totals = [exact_sum(b * row) for b, row in zip(weights, phi)]
    return [total if total > 0.0 else 0.0 for total in totals]


def tv_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total variation distance for each row of aligned weights (0 off a support).

    Shapes as in :func:`kl_rows`.
    """
    return 0.5 * exact_row_sums(np.abs(p - q))


def _equal_row_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row numbers ``(i, j)`` of neighbouring equal rows after one lexicographic sort.

    Rows compare with ``==``, so ``0.0`` equals ``-0.0``; the sort keeps every
    group of equal rows contiguous.
    """
    order = np.lexsort(rows.T)
    ranked = rows[order]
    at = np.flatnonzero(np.all(ranked[1:] == ranked[:-1], axis=1))
    return order[at], order[at + 1]


def _coordinate_rows(coords) -> np.ndarray:
    """Float copy of (m, d) coordinates, d >= 1; raises NonFiniteValue on nan or inf."""
    rows = np.array(coords, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError(f"coordinates must form an (m, d) array, d >= 1; got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValue("model coordinates must be finite")
    return rows


def as_grid(coords) -> np.ndarray:
    """Read-only float copy of (K, d) coordinates, d >= 1, with finite, distinct rows.

    Raises NonFiniteValue on a nan or inf coordinate and DuplicateSupportPoint
    on a repeated row (``0.0`` equals ``-0.0``).
    """
    grid = _coordinate_rows(coords)
    if _equal_row_pairs(grid)[0].size:
        raise DuplicateSupportPoint("support points must be distinct")
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class GridAtoms:
    """Distinct atoms picked out of a shared coordinate grid.

    ``grid`` is a read-only (K, d) array with pairwise-distinct rows (see
    :func:`as_grid`); ``index`` lists the distinct grid rows covered, in the
    object's order.
    """

    grid: np.ndarray
    index: np.ndarray

    @property
    def num_atoms(self) -> int:
        return int(self.index.shape[0])

    @property
    def dim(self) -> int:
        return int(self.grid.shape[1])

    @property
    def coords(self) -> np.ndarray:
        """(num_atoms, d) coordinates of the atoms, in order."""
        return self.grid[self.index]

    def values_at(self, values: np.ndarray, m: GridAtoms, what: str) -> np.ndarray:
        """``values`` (one per atom here) in the order of ``m``'s atoms.

        ``values`` itself when ``m`` shares this object's grid and index
        arrays, as a reference and the risk profile evaluated on it do.
        Raises SupportMismatch naming the first atom of ``m`` missing here.
        """
        if m.index is self.index and m.grid is self.grid:
            return values
        at = positions(m, self)
        missing = np.flatnonzero(at < 0)
        if missing.size:
            atom = tuple(m.coords[missing[0]].tolist())
            raise SupportMismatch(f"no {what} entry for atom {atom}")
        return values[at]


def positions(a: GridAtoms, b: GridAtoms) -> np.ndarray:
    """Position of each atom of ``a`` among the atoms of ``b``; -1 where absent.

    Atoms match by exact coordinates (``0.0`` equals ``-0.0``). On a shared grid
    this is one scatter and one gather; otherwise both coordinate sets are
    sorted together once.
    """
    if a.grid is b.grid or (a.grid.shape == b.grid.shape and np.array_equal(a.grid, b.grid)):
        slot = np.full(b.grid.shape[0], -1, dtype=np.intp)
        slot[b.index] = np.arange(b.num_atoms)
        return slot[a.index]
    found = np.full(a.num_atoms, -1, dtype=np.intp)
    if a.dim != b.dim:
        return found
    i, j = _equal_row_pairs(np.concatenate([b.coords, a.coords]))
    # Rows are distinct on each side, so every equal pair joins an atom of b
    # (row number below b.num_atoms) with an atom of a.
    found[np.maximum(i, j) - b.num_atoms] = np.minimum(i, j)
    return found


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(GridAtoms):
    """A probability measure on finitely many rows of a coordinate grid.

    Invariants (enforced by :func:`measure_on` and :func:`make_measure`):

    * weights are strictly positive and renormalized to sum to 1,
    * support points are pairwise distinct,
    * atoms given zero weight at construction have been dropped, so the
      support is exactly the set of atoms carrying mass.
    """

    weights: np.ndarray


def _checked_weights(weights: Sequence[float], count: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if count == 0 or w.size == 0:
        raise EmptySupport("support and weights must be nonempty")
    if w.shape != (count,):
        raise ValueError(f"support has {count} atoms but {w.size} weights were given")
    if np.any(~np.isfinite(w)):
        raise NonFiniteWeight("weights must be finite")
    if np.any(w < 0.0):
        raise NegativeWeight("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise EmptySupport("at least one weight must be strictly positive")
    return w


def normalized(weights: np.ndarray, total: float | None = None) -> np.ndarray:
    """Read-only ``weights`` divided by their exact sum, as :func:`measure_on` normalizes.

    ``total`` is that exact sum where the caller already holds it, and is
    summed here otherwise. ``weights`` are nonnegative, so a nan or infinite
    weight makes the sum nan or infinite; NonFiniteWeight is raised then.
    """
    if total is None:
        total = exact_sum(weights)
    if not math.isfinite(total):
        raise NonFiniteWeight("weights must be finite")
    row = weights / total
    row.flags.writeable = False
    return row


def measure_on(
    grid: np.ndarray, index: Sequence[int], weights: Sequence[float]
) -> DiscreteMeasure:
    """Build a probability measure on the atoms ``grid[index]``.

    Zero-weight atoms are dropped and the rest renormalized. ``grid`` must
    come from :func:`as_grid` (or be the grid of an existing measure), so
    that distinct indices mean distinct points.

    Raises
    ------
    EmptySupport
        Input lists are empty or every weight is zero.
    NegativeWeight, NonFiniteWeight
        A weight violates its contract.
    DuplicateSupportPoint
        An index with positive mass repeats.
    """
    index = np.asarray(index, dtype=np.intp)
    w = _checked_weights(weights, index.shape[0])
    keep = w > 0.0
    kept, index = w[keep], index[keep]
    if np.bincount(index, minlength=grid.shape[0]).max() > 1:
        raise DuplicateSupportPoint("support points with positive mass must be distinct")
    index.flags.writeable = False
    return DiscreteMeasure(grid, index, normalized(kept))


def make_measure(coords, weights: Sequence[float]) -> DiscreteMeasure:
    """Build a probability measure on (m, d) coordinate rows, one weight per row.

    Zero-weight rows are dropped and the rest renormalized; the measure gets
    a grid of its own, holding the retained rows in the given order. Raises
    NonFiniteValue on a non-finite coordinate in any row; see
    :func:`measure_on` for the other errors raised.
    """
    w = _checked_weights(weights, len(coords))
    keep = w > 0.0
    grid = as_grid(_coordinate_rows(coords)[keep])
    return measure_on(grid, np.arange(grid.shape[0]), w[keep])


def kl_divergence(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Relative entropy sum over supp(P) of p(x)*log(p(x)/q(x)), natural log.

    Returns ``+inf`` when P is not absolutely continuous with respect to Q;
    that is an in-band value, not an error, because objective comparisons in
    the infeasible direction need it. One row of :func:`kl_rows`.
    """
    at = positions(p, q)
    if np.any(at < 0):
        return math.inf
    return float(kl_rows(p.weights[None], q.weights[at])[0])


def total_variation(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Total variation distance: one row of :func:`tv_rows` over supp(P) and supp(Q)."""
    at = positions(p, q)
    hit = at >= 0
    in_p = np.zeros(q.num_atoms, dtype=bool)
    in_p[at[hit]] = True
    # Both measures on the atoms of P, then on the atoms of Q outside supp(P).
    p_row = np.concatenate([p.weights, np.zeros(q.num_atoms - int(in_p.sum()))])
    q_row = np.concatenate([np.where(hit, q.weights[at], 0.0), q.weights[~in_p]])
    return float(tv_rows(p_row[None], q_row)[0])
