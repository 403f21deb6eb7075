"""Solver for entropy-regularized ERM with the divergence direction reversed.

The problem: minimize `R(P) + lam * D(Q || P)` over measures P that dominate
the reference (Q << P). The minimizer's density with respect to Q is

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
The iteration is a bracket-preserving bisection/secant hybrid: secant steps
accelerate convergence, a bisection step every other iteration guarantees the
bracket keeps shrinking, and the residual is evaluated with exact summation.

Constant risk vectors collapse the bracket to a point; they are solved in
closed form (``k_bar = lam - c``) without iterating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AtomCollision,
    BetaOutOfDomain,
    BracketFailure,
    NonPositiveLambda,
    ToleranceNotReached,
)
from .measures import DiscreteMeasure, kl_divergence, measure_on, positions
from .risk import EmpiricalRiskProfile, expected_risk

#: Pole guard: the left bracket endpoint keeps at least this distance
#: (scaled by 1 + delta_star) from the singularity.
POLE_GUARD_SCALE = 2.0**-40

#: Default residual tolerance on |g(k_bar) - 1|.
DEFAULT_TOL = 1e-13

MAX_ITERATIONS = 10_000


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
    bracket: tuple[float, float]
    pole_gap: float
    delta_star: float


@dataclass(frozen=True, eq=False)
class TypeIISolution:
    """Solution measure with the solved normalizer and root diagnostics."""

    measure: DiscreteMeasure
    lam: float
    k_bar: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    pole_gap: float


def normalization_value(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, lam: float, beta: float
) -> float:
    """Direct evaluation of g(beta) with exact summation.

    Raises BetaOutOfDomain when beta <= -delta_star, where an atom's
    denominator would be nonpositive.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    risks = profile.aligned(q)
    delta_star = float(risks.min())
    if beta <= -delta_star:
        raise BetaOutOfDomain(
            f"beta={beta} is at or below the pole -delta_star={-delta_star}"
        )
    return math.fsum(q.weights * lam / (beta + risks))


def _secant(lo: float, hi: float, g_lo: float, g_hi: float) -> float | None:
    denom = g_hi - g_lo
    if denom == 0.0:
        return None
    cand = lo + (1.0 - g_lo) * (hi - lo) / denom
    if lo < cand < hi:
        return cand
    return None


def solve_k_bar(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
    tol: float = DEFAULT_TOL,
) -> KBarResult:
    """Find the unique k_bar with |g(k_bar) - 1| <= tol.

    The search runs on the shifted variable ``t = beta + delta_star`` over the
    bracket ``[max(eps0, lam - (max L - delta_star)), lam]`` with pole guard
    ``eps0 = 2**-40 * (1 + delta_star)``. Bracket validity (g above 1 on the
    left, below 1 on the right, or an endpoint already a root) is checked
    before iterating.

    Raises
    ------
    BracketFailure
        The bracket is numerically invalid, which signals degenerate inputs
        (for example a regularization factor below the pole guard).
    ToleranceNotReached
        The iteration cap was hit, or the bracket shrank to adjacent floats,
        before meeting ``tol``.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    risks = profile.aligned(q)
    delta_star = float(risks.min())
    shifted = risks - delta_star
    spread = float(shifted.max())
    qlam = np.asarray(q.weights, dtype=float) * lam
    eps0 = POLE_GUARD_SCALE * (1.0 + delta_star)
    reported_bracket = (max(-delta_star + eps0, lam - float(risks.max())), lam - delta_star)

    def g(t: float) -> float:
        return math.fsum((qlam / (t + shifted)).tolist())

    if spread == 0.0:
        # Constant risks: g(t) = lam/t, root t = lam in closed form.
        residual = abs(g(lam) - 1.0)
        return KBarResult(
            k_bar=lam - delta_star,
            residual=residual,
            iterations=0,
            bracket=(lam - delta_star, lam - delta_star),
            pole_gap=lam,
            delta_star=delta_star,
        )

    lo = max(eps0, lam - spread)
    hi = lam
    # hi is always inside the domain; near-degenerate spreads can collapse
    # the bracket onto it, in which case it already satisfies the residual.
    g_hi = g(hi)
    if abs(g_hi - 1.0) <= tol:
        return _result(hi, g_hi, 0, reported_bracket, delta_star)
    if not lo < hi:
        raise BracketFailure(
            f"empty bracket: lam={lam} does not exceed the pole guard {eps0}"
        )
    g_lo = g(lo)
    if abs(g_lo - 1.0) <= tol:
        return _result(lo, g_lo, 0, reported_bracket, delta_star)
    if not (g_lo > 1.0 > g_hi):
        raise BracketFailure(
            f"invalid bracket: g({lo})={g_lo}, g({hi})={g_hi} do not straddle 1"
        )

    for it in range(1, MAX_ITERATIONS + 1):
        cand = _secant(lo, hi, g_lo, g_hi) if it % 2 else None
        if cand is None:
            cand = 0.5 * (lo + hi)
        g_c = g(cand)
        if abs(g_c - 1.0) <= tol:
            return _result(cand, g_c, it, reported_bracket, delta_star)
        if g_c > 1.0:
            lo, g_lo = cand, g_c
        else:
            hi, g_hi = cand, g_c
        if hi - lo <= math.ulp(hi):
            break
    raise ToleranceNotReached(
        f"residual {min(abs(g_lo - 1.0), abs(g_hi - 1.0))} above tol={tol} "
        f"after bracket exhaustion at lam={lam}"
    )


def _result(
    t: float,
    g_t: float,
    iterations: int,
    bracket: tuple[float, float],
    delta_star: float,
) -> KBarResult:
    return KBarResult(
        k_bar=t - delta_star,
        residual=abs(g_t - 1.0),
        iterations=iterations,
        bracket=bracket,
        pole_gap=t,
        delta_star=delta_star,
    )


def solve_type2(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
    tol: float = DEFAULT_TOL,
) -> TypeIISolution:
    """Minimize R(P) + lam * D(Q || P) over P with Q << P.

    The solution keeps exactly the support of Q (mass on extra atoms only
    raises the objective; see :func:`support_escape_penalty`), with weights
    q(theta) * lam / (k_bar + L(theta)). Weights are assembled from the
    pole-shifted denominators, so no cancellation enters even when the root
    sits close to the pole.
    """
    root = solve_k_bar(q, profile, lam, tol=tol)
    risks = profile.aligned(q)
    shifted = risks - root.delta_star
    weights = np.asarray(q.weights, dtype=float) * lam / (root.pole_gap + shifted)
    measure = measure_on(q.grid, q.index, weights)
    return TypeIISolution(
        measure=measure,
        lam=float(lam),
        k_bar=root.k_bar,
        residual=root.residual,
        iterations=root.iterations,
        bracket=root.bracket,
        pole_gap=root.pole_gap,
    )


def type2_objective(
    p: DiscreteMeasure,
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
) -> float:
    """R(P) + lam * D(Q || P); +inf when Q is not absolutely continuous wrt P."""
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    div = kl_divergence(q, p)
    if math.isinf(div):
        return math.inf
    return expected_risk(p, profile) + lam * div


def expected_risk_identity(
    sol: TypeIISolution, profile: EmpiricalRiskProfile
) -> tuple[float, float]:
    """Both sides of the closed form for the solution's mean risk.

    Returns ``(lhs, rhs)`` with lhs the directly computed mean risk and
    rhs = lam - k_bar; they agree to ~1e-9 on every valid solution.
    """
    lhs = expected_risk(sol.measure, profile)
    rhs = sol.lam - sol.k_bar
    return lhs, rhs


def risk_bound_check(
    sol: TypeIISolution, profile: EmpiricalRiskProfile
) -> tuple[float, float, bool]:
    """Check the strict upper bound mean risk < lam + delta_star.

    Returns ``(risk, bound, holds)``; the margin ``bound - risk`` equals the
    root's distance from the pole, so it tends to ``lam`` as risks flatten.
    """
    risks = profile.aligned(sol.measure)
    bound = sol.lam + float(risks.min())
    risk = expected_risk(sol.measure, profile)
    return risk, bound, bool(risk < bound)


def escaped_mixture_objective(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
    outside: int,
    alpha: float,
) -> float:
    """Best reverse-direction objective among mixtures placing mass alpha outside.

    The candidate is ``(1 - alpha) * P' + alpha * (point mass at atom outside)``
    with P' supported on supp(Q); ``outside`` is a position among
    ``profile``'s atoms. For fixed alpha the optimal P' solves the inside
    problem at regularization ``lam / (1 - alpha)``, and the divergence
    picks up exactly ``-lam * log(1 - alpha)``, so the minimum over P' is
    computed rather than searched. ``alpha = 0`` reduces to the inside optimum.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    if positions(profile, q)[outside] >= 0:
        raise AtomCollision(f"atom {profile.coords[outside].tolist()} belongs to supp(Q)")
    inner = solve_type2(q, profile, lam / (1.0 - alpha))
    inside_risk = expected_risk(inner.measure, profile)
    divergence = kl_divergence(q, inner.measure)
    if alpha == 0.0:
        return inside_risk + lam * divergence
    return (
        (1.0 - alpha) * inside_risk
        + alpha * float(profile.risks[outside])
        + lam * divergence
        - lam * math.log1p(-alpha)
    )


def support_escape_penalty(
    q: DiscreteMeasure,
    profile_ext: EmpiricalRiskProfile,
    lam: float,
    alpha_grid: int = 1000,
) -> tuple[float, float]:
    """Numerically demonstrate that escaping supp(Q) strictly raises the objective.

    The escaped mass may go to any atom of ``profile_ext`` outside supp(Q);
    raises ValueError when there is none. Searches mixtures over an interior
    alpha grid and every outside placement, solving the inside component
    exactly at each alpha. Returns ``(best_escaped_objective,
    optimal_objective)``. This is a falsification harness, not a proof: the
    contract is best > optimal on every instance.
    """
    outside = np.flatnonzero(positions(profile_ext, q) < 0)
    if not outside.size:
        raise ValueError("every atom of the profile lies in supp(Q)")
    # The objective is linear in the escaped placement, so the cheapest
    # single-atom placement (the first, on ties) covers the minimum over all
    # placements.
    best_atom = int(outside[np.argmin(profile_ext.risks[outside])])

    opt = solve_type2(q, profile_ext, lam)
    optimal = type2_objective(opt.measure, q, profile_ext, lam)

    alphas = np.linspace(0.0, 1.0, alpha_grid + 2)[1:-1]
    best = math.inf
    for alpha in alphas:
        value = escaped_mixture_objective(q, profile_ext, lam, best_atom, float(alpha))
        if value < best:
            best = value
    return best, optimal
