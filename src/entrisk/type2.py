"""Solver for entropy-regularized ERM with the divergence direction reversed.

The problem: minimize ``R(P) + lam * D(Q || P)`` over measures P on supp(Q)
that dominate the reference (Q << P). The minimizer's density with respect
to Q is ``lam / (k_bar + L)``, where ``k_bar`` is the root above the pole
``-delta_star`` of ``g(beta) = sum over atoms of q * lam / (beta + L) = 1``.

* :func:`solve_k_bar` finds the root; :class:`KBarResult` holds it with the
  rows of its accepted evaluation of g, which :func:`solve_type2` turns into
  a ``TypeIISolution`` without forming them again.
* :func:`log_ratios_q_p2` gives D(Q || P2)'s log-ratios from those rows.
* :func:`type2_objective` and :func:`type2_objective_rows` score candidates.
* :func:`support_escape_slope` and :func:`escape_threshold` tell when moving
  mass off supp(Q) would lower the objective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import make_dataclass
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import (
    BracketFailure,
    NonPositiveLambda,
    ToleranceNotReached,
)
from .measures import (
    DiscreteMeasure,
    exact_sum,
    kl_rows,
    mean_rows,
    normalized,
    positions,
)
from .risk import AlignedRisks, EmpiricalRiskProfile

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
    records the risk floor the shift was taken against. ``gaps`` and
    ``terms`` are the read-only rows of the accepted evaluation of g, aligned
    with ``q.weights``: the denominators ``pole_gap + (L - delta_star)``,
    which are k_bar + L, and ``q * lam / gaps``, whose exact sum is ``g``,
    within ``residual`` of 1.
    """

    k_bar: float
    residual: float
    iterations: int
    pole_gap: float
    delta_star: float
    gaps: np.ndarray
    terms: np.ndarray
    g: float


TypeIISolution = make_dataclass(
    "TypeIISolution",
    [("weights", np.ndarray), ("lam", float), *get_type_hints(KBarResult).items()],
    frozen=True,
    eq=False,
    namespace={"__module__": __name__, "__doc__": (
        "Weights aligned with ``q.weights`` at factor ``lam``, then the fields of a\n"
        ":class:`KBarResult` in its order: ``TypeIISolution(weights, lam, *root)``.\n\n"
        "The rows carry no atoms: use them only with the ``q`` they were solved on."
    )},
)


def _g_sum(terms: np.ndarray) -> float:
    """The sum of g's m positive ``terms``: exact where it may be within DEFAULT_TOL of 1.

    The float sum g_hat is returned where
    ``|g_hat - 1| > 2 * m * u * g_hat + DEFAULT_TOL``, with u = 2**-53:
    there the exact sum is certainly more than DEFAULT_TOL from 1, on the
    same side as g_hat (see :func:`solve_k_bar`). Anywhere else the exact
    sum is returned: 1 to 1.5 times per factor on the benchmark workloads.
    """
    g_hat = float(np.add.reduce(terms))
    if abs(g_hat - 1.0) > terms.shape[0] * 2.0**-52 * g_hat + DEFAULT_TOL:
        return g_hat
    return exact_sum(terms)


def solve_k_bar(aligned: AlignedRisks, lam: float) -> KBarResult:
    """Find the unique k_bar with |g(k_bar) - 1| <= DEFAULT_TOL on the instance ``aligned``.

    g is strictly decreasing and convex above the pole, diverges there and
    tends to 0 at +infinity, so the root is unique. The mean risk under the
    solution is ``lam - k_bar``, so the root lies in
    ``[lam - max L, lam - delta_star]``. The search runs on the shifted
    variable ``t = beta + delta_star``, in which the pole sits at 0 and every
    denominator ``t + (L - delta_star)`` is formed without cancellation: the
    residual stays resolvable to ~1e-15 however large delta_star is, even
    with the root within 1e-9 of the pole. Adding a constant to every risk
    shifts the root by that constant and leaves the solution unchanged. The
    bracket is ``[max(eps0, lam - (max L - delta_star)), lam]`` with pole
    guard ``eps0 = 2**-40 * (1 + delta_star)``. Bracket validity (g above 1
    on the left, below 1 on the right, or an endpoint already a root) is
    checked before iterating. Constant risks c collapse the bracket onto
    its right end, which is the root ``k_bar = lam - c``, returned without
    iterating.

    The iteration is Newton's method on ``h(t) = 1/g(t) - 1``, started at the
    left end (the reciprocal of a secular function, as in More and Sorensen,
    "Computing a trust region step", SIAM J. Sci. Stat. Comput. 4(3), 1983).
    1/g is a weighted harmonic mean of the affine functions
    ``t + L - delta_star``, so h is increasing, concave and nearly linear
    next to the pole: from the left of the root a Newton step stays left of
    it, and it converges quadratically.
    The derivative, a float sum, only steers the step. A step that would
    leave the open bracket, or that does not halve the step before last,
    bisects instead (the ``rtsafe`` rule). ``iterations`` counts the Newton
    and bisection steps after the two endpoint evaluations, so a root found
    at an end counts 0.

    With s = L - delta_star, 1 - g(lam) = (1 - sum q) + sum q * s / (lam + s)
    >= (1 - sum q) + E_Q[s] / (lam + spread). Where the record's certified
    ``mean_shifted_floor`` over (lam + spread) exceeds 2 * DEFAULT_TOL, half
    of which covers the few units of 2**-53 that rounding the terms and
    sum q can cost, g(lam) < 1 - DEFAULT_TOL: the right end is neither
    returned nor fails the bracket, so it is evaluated only to word an
    error, and iterates, result and errors stay the same.

    Each evaluation, the two endpoint checks included, sums g's m positive
    terms in floats first (:func:`_g_sum`). In any order that float sum
    g_hat is within gamma_(m-1) * g of the exact sum g, with
    gamma_k = k*u / (1 - k*u) and u = 2**-53 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., SIAM 2002, section 4.2).
    As g <= g_hat / (1 - gamma_(m-1)), that is within
    (m-1)*u / (1 - 2*(m-1)*u) * g_hat <= 2*(m-1)*u * g_hat while
    (m-1)*u <= 1/4; ``math.fsum`` rounds g once more, by at most about
    u * g_hat. So the exact sum G lies within 2*m*u * g_hat of g_hat, and
    where ``|g_hat - 1| > 2*m*u * g_hat + DEFAULT_TOL`` G - 1 has g_hat - 1's
    sign and exceeds DEFAULT_TOL in size: the point is not the root, and the
    bracket update and the Newton step read g_hat. The slack of about
    u * g_hat left over covers the rounding of that test next to g_hat = 1.
    Anywhere else G is taken. A point is accepted only on G, so ``gaps``,
    ``terms``, ``g`` and ``residual`` are those of an exactly summed
    evaluation.

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
    delta_star, shifted = aligned.delta_star, aligned.shifted
    qlam = aligned.q_weights * lam
    eps0 = POLE_GUARD_SCALE * (1.0 + delta_star)

    def g(t: float) -> tuple[float, np.ndarray, np.ndarray]:
        """g(t) by :func:`_g_sum`, with its rows gaps = t + shifted and terms = qlam / gaps."""
        gaps = t + shifted
        terms = qlam / gaps
        return _g_sum(terms), gaps, terms

    def result(
        t: float, g_t: float, iterations: int, gaps: np.ndarray, terms: np.ndarray
    ) -> KBarResult:
        gaps.flags.writeable = terms.flags.writeable = False
        return KBarResult(
            t - delta_star, abs(g_t - 1.0), iterations, t, delta_star, gaps, terms, g_t
        )

    lo = max(eps0, lam - aligned.spread)
    hi = lam
    # hi is always inside the domain; constant or near-constant risks
    # collapse the bracket onto it, where it already satisfies the residual.
    # Elsewhere g(hi) < 1 - DEFAULT_TOL may be certain (see above).
    g_hi = None
    if not aligned.mean_shifted_floor / (lam + aligned.spread) > 2.0 * DEFAULT_TOL:
        g_hi, gaps, terms = g(hi)
        if abs(g_hi - 1.0) <= DEFAULT_TOL:
            return result(hi, g_hi, 0, gaps, terms)
    if not lo < hi:
        raise BracketFailure(
            f"empty bracket: lam={lam} does not exceed the pole guard {eps0}"
        )
    g_lo, gaps, terms = g(lo)
    if abs(g_lo - 1.0) <= DEFAULT_TOL:
        return result(lo, g_lo, 0, gaps, terms)
    if not (g_lo > 1.0 and (g_hi is None or 1.0 > g_hi)):
        raise BracketFailure(
            f"invalid bracket: g({lo})={g_lo}, g({hi})={g(hi)[0]} do not straddle 1"
        )

    t, g_t = lo, g_lo
    last = before = hi - lo
    for it in itertools.count(1):
        # Newton on h: t - h/h' = t + g (g - 1) / (-g'), where -g'(t) is the
        # float sum of terms / gaps. An underflowed slope gives an infinite
        # step, which bisects.
        slope = float(np.add.reduce(terms / gaps))
        cand = t + (g_t * (g_t - 1.0) / slope if slope else math.inf)
        if not lo < cand < hi or abs(cand - t) > 0.5 * before:
            cand = 0.5 * (lo + hi)
        before, last = last, abs(cand - t)
        t = cand
        g_t, gaps, terms = g(t)
        if abs(g_t - 1.0) <= DEFAULT_TOL:
            return result(t, g_t, it, gaps, terms)
        if g_t > 1.0:
            lo, g_lo = t, g_t
        else:
            hi, g_hi = t, g_t
        if hi - lo <= math.ulp(hi):
            break
    g_hi = g(hi)[0] if g_hi is None else g_hi
    raise ToleranceNotReached(
        f"residual {min(abs(g_lo - 1.0), abs(g_hi - 1.0))} above tol={DEFAULT_TOL} "
        f"after bracket exhaustion at lam={lam}"
    )


def solve_type2(aligned: AlignedRisks, lam: float) -> TypeIISolution:
    """Minimize R(P) + lam * D(Q || P) over P with Q << P supported on supp(Q).

    The solution has exactly the support of Q, with weights
    q(theta) * lam / (k_bar + L(theta)), aligned with ``aligned.q_weights``.
    It need not stay optimal once P may also charge atoms outside supp(Q):
    moving mass to such an atom changes the objective at the rate
    L(outside) + k_bar, so escaping lowers it wherever that slope is
    negative (see :func:`support_escape_slope`).
    The weights are the root solve's own ``terms`` over their exact sum
    ``g``, formed from the pole-shifted denominators, so no cancellation
    enters even when the root sits close to the pole.
    """
    root = solve_k_bar(aligned, lam)
    return TypeIISolution(normalized(root.terms, root.g), float(lam), *root)


def log_ratios_q_p2(sol: TypeIISolution, aligned: AlignedRisks, out: np.ndarray) -> np.ndarray:
    """log(q/p2) per atom of ``sol`` on the Q of ``aligned``, written into ``out`` and returned.

    q/p2 = gaps/lam = 1 + d with d = (L - delta_star - u)/lam and
    u = lam - pole_gap. Where |d| < 1/2 the log-ratio is log1p(d), free of
    the cancellation that forming the ratio first would cost; elsewhere it
    is the log of the ratio, which keeps its relative accuracy where p2
    dwarfs q and d nears -1. Where some gap over lam may overflow (the
    largest gap, ``spread + pole_gap``, exceeds lam * 2**1023) it is
    log(gaps) - log(lam) instead, as :func:`entrisk.measures.kl_rows` takes
    it. D(Q || P2) weighs these by P2's unnormalized weights, the solve's
    ``terms`` (:func:`entrisk.measures.kl_log_ratios`).
    """
    lam = sol.lam
    with np.errstate(over="ignore"):  # a d that overflows is not read
        d = (aligned.shifted - (lam - sol.pole_gap)) / lam
    if aligned.spread + sol.pole_gap > lam * 2.0**1023:
        x = np.log(sol.gaps, out=out)
        x -= math.log(lam)
    else:
        x = np.divide(sol.gaps, lam, out=out)
        np.log(x, out=x)
    np.log1p(d, out=x, where=np.abs(d) < 0.5)
    return x


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
    the risks of the atoms outside supp(Q) (the instance record's ``outside``).
    Moving mass alpha to an outside atom and solving the inside part again at
    ``lam / (1 - alpha)`` gives an objective convex in alpha, with slope
    ``min_out L + k_bar`` at alpha = 0: escaping lowers the objective exactly
    when that slope is negative (see :func:`escape_threshold`). It is formed
    as ``(min_out L - delta_star) + pole_gap``, so no cancellation enters.
    """
    return (outside.delta_star - sol.delta_star) + sol.pole_gap


def escape_threshold(aligned: AlignedRisks, outside: EmpiricalRiskProfile) -> float:
    """The factor below which :func:`support_escape_slope` is negative; 0.0 if none.

    g(beta) is linear in lam and decreasing in beta, so ``min_out L + k_bar < 0``
    exactly when g(-min_out L) < 1: when ``min_out L < delta_star`` and lam is
    below the Q-harmonic mean ``1 / E_Q[1 / (L - min_out L)]``.
    """
    if not outside.delta_star < aligned.delta_star:
        return 0.0
    return 1.0 / exact_sum(aligned.q_weights / (aligned.risks - outside.delta_star))
