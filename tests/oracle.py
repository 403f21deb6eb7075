"""A 50-digit reference for both solvers, in stdlib ``decimal``.

The float inputs are taken exactly (``Decimal(float)`` and ``Fraction(float)``
are exact), and Q is the float weights divided by their exact sum, rounded
once to 50 digits. Every quantity is then computed at 50 significant digits
with ``Decimal.exp`` and ``Decimal.ln``:

* Type 1: the log normalizer log Z = log sum q*exp(-L/lam), the mean risk
  under P1 = q*exp(-L/lam)/Z, and D(P1 || Q) = -E_P1[L]/lam - log Z;
* Type 2: k_bar by bisection on g(beta) = sum q*lam/(beta + L) = 1, the mean
  risk under P2 = q*lam/(k_bar + L), and D(Q || P2) = sum q*log((k_bar + L)/lam).

The root is bisected in the pole-shifted variable t = beta + min L over the
bracket (max(0, lam - (max L - min L)), lam], 200 times, which leaves it
within lam * 2**-200 of the root.

:func:`excesses` scores measures P against both solutions: the objective
differences F1(P) - F1(P1) and F2(P) - F2(P2), and the excesses
lam * D(P || P1) and lam * sum q * (r - 1 - log r) with r = p/p2, each
computed from its own definition.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple, Sequence

DIGITS = 50
BISECTIONS = 200


class Reference(NamedTuple):
    """The sweep columns of one factor, as 50-digit decimals."""

    k_type1: Decimal
    risk_type1: Decimal
    kl_p_q_type1: Decimal
    k_bar_type2: Decimal
    risk_type2: Decimal
    kl_q_p_type2: Decimal


def normalized(weights: Sequence[float]) -> list[Decimal]:
    """The float weights divided by their exact sum, each rounded to the context's digits."""
    exact = [Fraction(float(w)) for w in weights]
    total = sum(exact)
    return [Decimal(f.numerator) / Decimal(f.denominator) for f in (w / total for w in exact)]


class Solutions(NamedTuple):
    """Both solutions at one factor, as 50-digit decimals; the weights are lists over the atoms."""

    log_z: Decimal
    p1: list[Decimal]
    k_bar: Decimal
    p2: list[Decimal]


def solutions(q: Sequence[Decimal], L: Sequence[Decimal], lam: Decimal) -> Solutions:
    """The Gibbs tilt P1 and the reweighting P2 of ``q`` for risks ``L``, in the caller's context."""
    logits = [qi.ln() - Li / lam for qi, Li in zip(q, L)]
    top = max(logits)
    tilt = [(a - top).exp() for a in logits]
    z = sum(tilt)

    floor = min(L)
    shifted = [Li - floor for Li in L]
    qlam = [qi * lam for qi in q]

    def g(t: Decimal) -> Decimal:
        return sum(a / (t + s) for a, s in zip(qlam, shifted))

    lo, hi = max(Decimal(0), lam - max(shifted)), lam
    for _ in range(BISECTIONS):
        mid = (lo + hi) / 2
        if g(mid) > 1:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    return Solutions(top + z.ln(), [w / z for w in tilt], t - floor,
                     [a / (t + s) for a, s in zip(qlam, shifted)])


def reference(weights: Sequence[float], risks: Sequence[float], lam: float) -> Reference:
    """Both solutions at factor ``lam`` for reference weights ``weights`` and risks ``risks``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q = normalized(weights)
        L = [Decimal(float(x)) for x in risks]
        lam_d = Decimal(float(lam))
        sol = solutions(q, L, lam_d)
        risk1 = sum(w * Li for w, Li in zip(sol.p1, L))
        kl1 = -risk1 / lam_d - sol.log_z
        risk2 = sum(p * Li for p, Li in zip(sol.p2, L))
        kl2 = sum(qi * (qi / p).ln() for qi, p in zip(q, sol.p2))
        return Reference(sol.log_z, risk1, kl1, sol.k_bar, risk2, kl2)


class Excess(NamedTuple):
    """A measure P against both solutions, as 50-digit decimals."""

    difference_type1: Decimal
    excess_type1: Decimal
    difference_type2: Decimal
    excess_type2: Decimal


def excesses(
    weights: Sequence[float], risks: Sequence[float], lam: float, rows: Sequence[Sequence[float]]
) -> list[Excess]:
    """F(P) - F(P*) and the excess identity's right-hand side of each float row P, both directions.

    Each row is normalized as Q is, so that P has mass 1 exactly; its
    atoms are those of ``weights``, and every weight of Q is positive. A
    row with a zero weight has F2 = +inf and a Type-2 excess of +inf.
    """
    inf = Decimal("Infinity")
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q = normalized(weights)
        L = [Decimal(float(x)) for x in risks]
        lam_d = Decimal(float(lam))
        sol = solutions(q, L, lam_d)

        def f1(p: Sequence[Decimal]) -> Decimal:
            return sum(pi * (Li + lam_d * (pi / qi).ln()) for pi, qi, Li in zip(p, q, L) if pi)

        def f2(p: Sequence[Decimal]) -> Decimal:
            if not all(p):
                return inf
            return sum(pi * Li + lam_d * qi * (qi / pi).ln() for pi, qi, Li in zip(p, q, L))

        result = []
        for row in rows:
            p = normalized(row)
            excess1 = lam_d * sum(pi * (pi / p1).ln() for pi, p1 in zip(p, sol.p1) if pi)
            ratios = [pi / p2 for pi, p2 in zip(p, sol.p2)]
            excess2 = (lam_d * sum(qi * (r - 1 - r.ln()) for qi, r in zip(q, ratios))
                       if all(ratios) else inf)
            result.append(Excess(f1(p) - f1(sol.p1), excess1, f2(p) - f2(sol.p2), excess2))
        return result
