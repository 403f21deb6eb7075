"""The k_bar root solve against a planted root, which the test computes without the package.

With s = L - delta_star, the Type-II root condition in the pole gap t is
lam * sum of q/(t + s) = 1. It is explicit the other way round: any t > 0
is the root at lam(t) = 1/sum of q/(t + s). So the test picks t, sums
q/(t + s) exactly as ``fractions.Fraction``s over the float q and s that
the solver reads, rounds lam(t) once, and solves at it. No bisection
stands between the test and the root, and t reaches down to the pole.

A returned root is the exact root of a factor within its residual r of
lam, so its pole gap is within kappa * (r + a few u) of t, relative, where
kappa = (dt/dlam) * lam/t is t's conditioning in lam and u = 2**-53.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from entrisk.errors import BracketFailure
from entrisk.measures import make_measure
from entrisk.risk import EmpiricalRiskProfile, aligned_risks
from entrisk.type2 import DEFAULT_TOL, solve_k_bar

U = 2.0**-53

#: Pole gaps 10**e from 1e-300 to 1e300. At every one up to 1e-20 the root
#: lies under the solver's pole guard, and the solve raises BracketFailure
#: (ROADMAP item 3); from 1 on it returns. None lies in between.
EXPONENTS = range(-300, 301, 20)


def exact_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """The sum of fractions ``(numerator, denominator)``, added pairwise and never reduced."""
    while len(pairs) > 1:
        sums = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in zip(pairs[::2], pairs[1::2])]
        pairs = sums + pairs[len(sums) * 2:]
    return pairs[0]


def planted_factor(q: list[float], s: list[float], t: float) -> tuple[float, float]:
    """lam(t) = 1/sum of q/(t + s), rounded once, and t's relative conditioning in lam.

    dlam/dt = lam**2 * sum of q/(t + s)**2, so with w = q/(t + s) the
    conditioning is sum of w over sum of w * t/(t + s).
    """
    gaps = [Fraction(t) + Fraction(si) for si in s]
    terms = [Fraction(qi) / gap for qi, gap in zip(q, gaps)]
    num, den = exact_sum([w.as_integer_ratio() for w in terms])
    lam = den / num  # int over int is correctly rounded
    kappa = math.fsum(map(float, terms)) / math.fsum(
        float(w) * float(Fraction(t) / gap) for w, gap in zip(terms, gaps))
    return lam, kappa


def dirichlet_instance(seed: int, atoms: int, shift: float):
    rng = np.random.default_rng(seed)
    coords = np.arange(float(atoms))[:, None]
    q = make_measure(coords, rng.dirichlet(np.ones(atoms)))
    return aligned_risks(q, EmpiricalRiskProfile.from_risks(coords, rng.uniform(0.0, 1.0, atoms) + shift))


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e12])
@pytest.mark.parametrize("seed, atoms, exponents", [
    (0, 50, EXPONENTS),
    (1, 2, EXPONENTS),
    (2, 9, EXPONENTS),
    (3, 200, EXPONENTS[::5]),
])
def test_solve_returns_the_planted_root(seed, atoms, exponents, shift):
    aligned = dirichlet_instance(seed, atoms, shift)
    q, s = aligned.q_weights.tolist(), aligned.shifted.tolist()
    for e in exponents:
        t = 10.0**e
        lam, kappa = planted_factor(q, s, t)
        if t <= 1e-20:
            with pytest.raises(BracketFailure):
                solve_k_bar(aligned, lam)
            continue
        res = solve_k_bar(aligned, lam)
        assert res.residual <= DEFAULT_TOL
        error = abs(res.pole_gap - t) / t
        assert error <= kappa * (res.residual + 8.0 * U), f"t=1e{e}: {error:.3g}, kappa {kappa:.3g}"


def test_planted_factor_of_two_atoms_is_the_closed_form():
    # q = (1/2, 1/2), s = (0, 1): lam(t) = 2t(t + 1)/(2t + 1), which is 4/3 at t = 1.
    lam, kappa = planted_factor([0.5, 0.5], [0.0, 1.0], 1.0)
    assert lam == 4.0 / 3.0
    # (1/2 + 1/4) / (1/2 + 1/8)
    assert kappa == pytest.approx(1.2, rel=1e-15)
