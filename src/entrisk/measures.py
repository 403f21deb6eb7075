"""Finite discrete probability measures on a d-dimensional model space.

A :class:`DiscreteMeasure` is the package's common currency: it represents the
reference measure, every solution measure, and any candidate measure entering
an objective. Continuous references are expected to arrive here already
reduced to a particle cloud (i.i.d. draws with uniform weights), so every
integral in the package is a finite sum.

Measures and risk profiles are both :class:`GridAtoms`: an index array into
one shared, read-only grid of coordinates, plus one value per atom. An atom
is a row of that grid. Objects built on the same grid line up by index, so
every sum over the support is a gather followed by an exact (``math.fsum``)
sum. Hot sums hand ``fsum`` a list (``.tolist()``), which it reads faster
than an array; the exact sum is the same either way. Objects on different
grids are matched by coordinates (:func:`positions`). The per-atom loss sums
of a risk profile, many rows at once, go through
:func:`entrisk.risk.exact_row_sums`, which returns ``math.fsum``'s bits on
every row.

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

        Raises SupportMismatch naming the first atom of ``m`` missing here.
        """
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


@dataclass(frozen=True)
class AbsoluteContinuityRelation:
    """Support containment in both directions for a pair of discrete measures."""

    p_ll_q: bool
    q_ll_p: bool

    @property
    def mutually(self) -> bool:
        return self.p_ll_q and self.q_ll_p


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
    normalized = kept / math.fsum(kept.tolist())
    normalized.flags.writeable = False
    index.flags.writeable = False
    return DiscreteMeasure(grid, index, normalized)


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


def check_abs_continuity(
    p: DiscreteMeasure, q: DiscreteMeasure
) -> AbsoluteContinuityRelation:
    """Exact support-containment test: P << Q iff supp(P) is a subset of supp(Q)."""
    return AbsoluteContinuityRelation(
        p_ll_q=bool(np.all(positions(p, q) >= 0)),
        q_ll_p=bool(np.all(positions(q, p) >= 0)),
    )


def kl_divergence(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Relative entropy sum over supp(P) of p(x)*log(p(x)/q(x)), natural log.

    Returns ``+inf`` when P is not absolutely continuous with respect to Q;
    that is an in-band value, not an error, because objective comparisons in
    the infeasible direction need it. The logarithms go through ``math.log``
    (libm), not numpy's vectorized ``log``, whose last bits can differ.
    """
    at = positions(p, q)
    if np.any(at < 0):
        return math.inf
    ratios = (p.weights / q.weights[at]).tolist()
    logs = np.fromiter(map(math.log, ratios), dtype=float, count=len(ratios))
    total = math.fsum((p.weights * logs).tolist())
    # Gibbs' inequality guarantees >= 0; roundoff on nearly identical inputs
    # can leave a residual of order 1e-16, which is clamped away.
    return total if total > 0.0 else 0.0


def total_variation(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Total variation distance, used by the optimality fuzz harnesses."""
    at = positions(p, q)
    hit = at >= 0
    in_p = np.zeros(q.num_atoms, dtype=bool)
    in_p[at[hit]] = True
    terms = np.concatenate(
        [np.abs(p.weights[hit] - q.weights[at[hit]]), p.weights[~hit], q.weights[~in_p]]
    )
    return 0.5 * math.fsum(terms.tolist())
