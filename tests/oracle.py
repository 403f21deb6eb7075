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


def reference(weights: Sequence[float], risks: Sequence[float], lam: float) -> Reference:
    """Both solutions at factor ``lam`` for reference weights ``weights`` and risks ``risks``."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        q = normalized(weights)
        L = [Decimal(float(x)) for x in risks]
        lam_d = Decimal(float(lam))

        logits = [qi.ln() - Li / lam_d for qi, Li in zip(q, L)]
        top = max(logits)
        tilt = [(a - top).exp() for a in logits]
        z = sum(tilt)
        log_z = top + z.ln()
        risk1 = sum(w * Li for w, Li in zip(tilt, L)) / z
        kl1 = -risk1 / lam_d - log_z

        floor = min(L)
        shifted = [Li - floor for Li in L]
        qlam = [qi * lam_d for qi in q]

        def g(t: Decimal) -> Decimal:
            return sum(a / (t + s) for a, s in zip(qlam, shifted))

        lo, hi = max(Decimal(0), lam_d - max(shifted)), lam_d
        for _ in range(BISECTIONS):
            mid = (lo + hi) / 2
            if g(mid) > 1:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        p2 = [a / (t + s) for a, s in zip(qlam, shifted)]
        risk2 = sum(p * Li for p, Li in zip(p2, L))
        kl2 = sum(qi * ((t + s) / lam_d).ln() for qi, s in zip(q, shifted))
        return Reference(log_z, risk1, kl1, t - floor, risk2, kl2)
