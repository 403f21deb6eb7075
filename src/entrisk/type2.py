"""Solver for entropy-regularized ERM with the divergence direction reversed.

The problem: minimize `R(P) + lam * D(Q || P)` over measures P on supp(Q)
that dominate the reference (Q << P). The minimizer's density with respect
to Q is

    dP/dQ(theta) = lam / (k_bar + L(theta)),

where the normalizer ``k_bar`` is defined implicitly: it is the unique beta
above the pole ``-delta_star`` at which the normalization function

    g(beta) = sum over atoms of q(theta) * lam / (beta + L(theta))

equals 1. g is strictly decreasing and convex on its domain, diverges at the
pole, and tends to 0 at +infinity, so the root exists and is unique whenever
the bracket below is valid. Because the mean risk under the solution equals
``lam - k_bar``, the root always lies in ``[lam - max L, lam - delta_star]``,
which provides a provably valid initial bracket (intersected with a pole
guard on the left).

Numerics
--------
The root search runs in pole-shifted coordinates: with ``t = beta + delta_star``
and shifted risks ``L - delta_star`` the pole sits exactly at 0 and every
denominator is computed without cancellation, which keeps the residual
``|g - 1|`` resolvable to ~1e-15 regardless of how large ``delta_star`` is.
(Shifting all risks by a constant shifts the root by the same constant and
leaves the solution measure unchanged, so this is a pure reparametrization.)
The iteration takes Newton steps on ``1/g - 1``, which is increasing and
concave in ``t`` and nearly linear next to the pole, from the bracket's left
end, and bisects where a step would leave the bracket or fails to shrink
fast enough (see :func:`solve_k_bar`). g is evaluated with exact summation
(:func:`entrisk.measures.exact_sum`: ``math.fsum``'s bits, through a
certified lone-row sum from a few hundred atoms on, where it is faster),
and only that value decides whether a point is the root; the derivative
that steers each step is a float sum.

Constant risk vectors collapse the bracket to a point; they are solved in
closed form (``k_bar = lam - c``) without iterating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BracketFailure,
    NonPositiveLambda,
    ToleranceNotReached,
)
from .measures import (
    DiscreteMeasure,
    exact_sum,
    kl_log_ratios,
    kl_rows,
    mean_rows,
    normalized,
    positions,
)
from .risk import EmpiricalRiskProfile

#: Pole guard: the left bracket endpoint keeps at least this distance
#: (scaled by 1 + delta_star) from the singularity.
POLE_GUARD_SCALE = 2.0**-40

#: Residual tolerance on |g(k_bar) - 1|.
DEFAULT_TOL = 1e-13


class KBarResult(NamedTuple):
    """Root of the normalization constraint plus solver diagnostics.

    ``pole_gap`` is the root's distance from the singularity
    (``k_bar + delta_star``) computed in shifted coordinates, i.e. without
    cancellation; downstream weight formulas use it directly. ``delta_star``
    records the risk floor the shift was taken against.
    """

    k_bar: float
    residual: float
    iterations: int
    pole_gap: float
    delta_star: float


@dataclass(frozen=True, eq=False)
class TypeIISolution:
    """Weights aligned with ``q.weights`` at factor ``lam``, plus the :class:`KBarResult`.

    The row carries no atoms: use it only with the ``q`` it was solved on.
    """

    weights: np.ndarray
    lam: float
    k_bar: float
    residual: float
    iterations: int
    pole_gap: float
    delta_star: float


def solve_k_bar(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
) -> KBarResult:
    """Find the unique k_bar with |g(k_bar) - 1| <= DEFAULT_TOL.

    The search runs on the shifted variable ``t = beta + delta_star`` over the
    bracket ``[max(eps0, lam - (max L - delta_star)), lam]`` with pole guard
    ``eps0 = 2**-40 * (1 + delta_star)``. Bracket validity (g above 1 on the
    left, below 1 on the right, or an endpoint already a root) is checked
    before iterating.

    The iteration is Newton's method on ``h(t) = 1/g(t) - 1``, started at the
    left end (the reciprocal of a secular function, as in More and Sorensen,
    "Computing a trust region step", SIAM J. Sci. Stat. Comput. 4(3), 1983).
    1/g is a weighted harmonic mean of the affine functions
    ``t + L - delta_star``, so h is increasing and concave: from the left of
    the root a Newton step stays left of it, and it converges quadratically.
    The derivative, a float sum, only steers the step; a point is accepted on
    the exact g alone. A step that would leave the open bracket, or that does
    not halve the step before last, bisects instead (the ``rtsafe`` rule).
    ``iterations`` counts the Newton and bisection steps after the two
    endpoint evaluations.

    No iteration cap is needed: every step lands strictly inside the bracket
    and shrinks it. Each run of Newton steps shrinks geometrically, so a run
    that stalls soon moves by less than a float spacing, lands on its own
    start and bisects; halving a bracket no wider than lam < 2**1024 to
    adjacent floats >= 2**-40 takes ~2,230 bisections.

    Raises
    ------
    BracketFailure
        The bracket is numerically invalid, which signals degenerate inputs
        (for example a regularization factor below the pole guard).
    ToleranceNotReached
        The bracket shrank to adjacent floats before meeting ``DEFAULT_TOL``.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    risks = profile.aligned(q)
    delta_star = float(risks.min())
    shifted = risks - delta_star
    spread = float(shifted.max())
    qlam = np.asarray(q.weights, dtype=float) * lam
    eps0 = POLE_GUARD_SCALE * (1.0 + delta_star)

    def g(t: float) -> tuple[float, float]:
        """g(t), an exact sum, and -g'(t), a float sum."""
        gaps = t + shifted
        terms = qlam / gaps
        return exact_sum(terms), float((terms / gaps).sum())

    lo = max(eps0, lam - spread)
    hi = lam
    # hi is always inside the domain; constant or near-constant risks
    # collapse the bracket onto it, where it already satisfies the residual.
    g_hi, _ = g(hi)
    if abs(g_hi - 1.0) <= DEFAULT_TOL:
        return _result(hi, g_hi, 0, delta_star)
    if not lo < hi:
        raise BracketFailure(
            f"empty bracket: lam={lam} does not exceed the pole guard {eps0}"
        )
    g_lo, slope = g(lo)
    if abs(g_lo - 1.0) <= DEFAULT_TOL:
        return _result(lo, g_lo, 0, delta_star)
    if not (g_lo > 1.0 > g_hi):
        raise BracketFailure(
            f"invalid bracket: g({lo})={g_lo}, g({hi})={g_hi} do not straddle 1"
        )

    t, g_t = lo, g_lo
    last = before = hi - lo
    for it in itertools.count(1):
        # Newton on h: t - h/h' = t + g (g - 1) / (-g'). An underflowed
        # slope gives an infinite step, which bisects.
        cand = t + (g_t * (g_t - 1.0) / slope if slope else math.inf)
        if not lo < cand < hi or abs(cand - t) > 0.5 * before:
            cand = 0.5 * (lo + hi)
        before, last = last, abs(cand - t)
        t = cand
        g_t, slope = g(t)
        if abs(g_t - 1.0) <= DEFAULT_TOL:
            return _result(t, g_t, it, delta_star)
        if g_t > 1.0:
            lo, g_lo = t, g_t
        else:
            hi, g_hi = t, g_t
        if hi - lo <= math.ulp(hi):
            break
    raise ToleranceNotReached(
        f"residual {min(abs(g_lo - 1.0), abs(g_hi - 1.0))} above tol={DEFAULT_TOL} "
        f"after bracket exhaustion at lam={lam}"
    )


def _result(
    t: float,
    g_t: float,
    iterations: int,
    delta_star: float,
) -> KBarResult:
    return KBarResult(
        k_bar=t - delta_star,
        residual=abs(g_t - 1.0),
        iterations=iterations,
        pole_gap=t,
        delta_star=delta_star,
    )


def solve_type2(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
) -> TypeIISolution:
    """Minimize R(P) + lam * D(Q || P) over P with Q << P supported on supp(Q).

    The solution has exactly the support of Q, with weights
    q(theta) * lam / (k_bar + L(theta)), one per atom of ``q``. It need not
    stay optimal once P may also charge atoms outside supp(Q): moving mass
    to such an atom changes the objective at the rate L(outside) + k_bar, so
    escaping lowers it wherever that slope is negative (see
    :func:`support_escape_slope`).
    Weights are assembled from the pole-shifted denominators, so no
    cancellation enters even when the root sits close to the pole.
    """
    root = solve_k_bar(q, profile, lam)
    shifted = profile.aligned(q) - root.delta_star
    weights = normalized(q.weights * lam / (root.pole_gap + shifted))
    return TypeIISolution(weights, float(lam), **root._asdict())


def kl_q_p2(sol: TypeIISolution, q: DiscreteMeasure, risks: np.ndarray) -> float:
    """D(Q || P2) of ``sol`` from the solve's own ratios, ``risks`` aligned with ``q``.

    q/p2 = (pole_gap + L - delta_star)/lam = 1 + d with
    d = (L - delta_star - u)/lam and u = lam - pole_gap. Where |d| < 1/2 the
    log-ratio is log1p(d), free of the cancellation that forming the ratio
    first would cost; elsewhere it is the log of the ratio, which keeps its
    relative accuracy where p2 dwarfs q and d nears -1. P2's weights are the
    solve's, q * lam / (pole_gap + L - delta_star).
    """
    lam = sol.lam
    shifted = risks - sol.delta_star
    gaps = sol.pole_gap + shifted
    d = (shifted - (lam - sol.pole_gap)) / lam
    log_ratios = np.log(gaps / lam)
    np.log1p(d, out=log_ratios, where=np.abs(d) < 0.5)
    return kl_log_ratios(q.weights * lam / gaps, log_ratios)


def type2_objective_rows(
    weights: np.ndarray, q_weights: np.ndarray, risks: np.ndarray, lam: float
) -> np.ndarray:
    """R(P) + lam * D(Q || P) for each row of (k, m) weights of a measure P.

    ``q_weights`` (0 off supp(Q)) and ``risks`` are (m,) rows aligned with
    the columns; a row that leaves an atom of supp(Q) without weight is +inf.
    """
    return mean_rows(weights, risks) + lam * kl_rows(q_weights, weights)


def type2_objective(
    p: DiscreteMeasure,
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
) -> float:
    """R(P) + lam * D(Q || P); +inf when Q is not absolutely continuous wrt P."""
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    at = positions(q, p)
    if np.any(at < 0):
        return math.inf
    q_weights = np.zeros(p.num_atoms)
    q_weights[at] = q.weights
    return float(type2_objective_rows(p.weights[None], q_weights, profile.aligned(p), lam)[0])


def support_escape_slope(outside: EmpiricalRiskProfile, sol: TypeIISolution) -> float:
    """Rate at which moving mass off supp(Q) changes the objective of ``sol``.

    ``sol`` is :func:`solve_type2`'s optimum on supp(Q), and ``outside`` holds
    the risks of the atoms outside supp(Q) (:func:`entrisk.experiment.outside_profile`).
    Moving mass alpha to an outside atom and solving the inside part again at
    ``lam / (1 - alpha)`` gives an objective convex in alpha, with slope
    ``min_out L + k_bar`` at alpha = 0: escaping lowers the objective exactly
    when that slope is negative (see :func:`escape_threshold`). It is formed
    as ``(min_out L - delta_star) + pole_gap``, so no cancellation enters.
    """
    return (outside.delta_star - sol.delta_star) + sol.pole_gap


def escape_threshold(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, outside: EmpiricalRiskProfile
) -> float:
    """The factor below which :func:`support_escape_slope` is negative; 0.0 if none.

    g(beta) is linear in lam and decreasing in beta, so ``min_out L + k_bar < 0``
    exactly when g(-min_out L) < 1: when ``min_out L < delta_star`` and lam is
    below the Q-harmonic mean ``1 / E_Q[1 / (L - min_out L)]``.
    """
    risks = profile.aligned(q)
    if not outside.delta_star < float(risks.min()):
        return 0.0
    return 1.0 / exact_sum(q.weights / (risks - outside.delta_star))
