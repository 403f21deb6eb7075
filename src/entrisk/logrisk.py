"""The log-risk transform linking the two regularization directions.

Replacing the empirical risk L by

    V(theta) = log(k_bar + L(theta)),

where k_bar is the solved normalizer of the reversed problem at factor
``lam``, turns the reversed problem into a plain Gibbs problem: the tilt of Q
by exp(-V) with unit regularization factor reproduces the reversed-direction
solution measure atom by atom. The tilt's partition function is known in
closed form, because the Q-mean of lam * exp(-V) is exactly the normalization
constraint that defined k_bar: it equals 1, so the tilt normalizer is 1/lam.

``verify_theorem2`` takes a reversed-direction solution from the
implicit-normalization root solve, computes the Gibbs tilt on the transformed
risk, and reports their maximum atom-wise weight gap. The two paths share no
arithmetic beyond the risk profile, which makes this the strongest internal
consistency check in the package.

Note that V may be negative (unlike raw risks); downstream consumers accept
that, and the tilt used here deliberately does not assume nonnegativity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation, NonPositiveArgument
from .measures import DiscreteMeasure, positions
from .risk import EmpiricalRiskProfile
from .type1 import _tilt
from .type2 import TypeIISolution

#: Tolerance on |log(lam * sum q * exp(-V))|, the hidden normalization identity.
NORMALIZATION_TOL = 1e-10


def log_risk_profile(
    profile: EmpiricalRiskProfile, sol: TypeIISolution
) -> np.ndarray:
    """V = log(k_bar + L) per atom, read-only, in the order of ``sol.measure``'s atoms.

    The arguments are positive for every valid solution (k_bar stays strictly
    above -delta_star); a nonpositive argument means the solution object was
    corrupted upstream and is rejected.

    Numerically, k_bar + L is evaluated as pole_gap + (L - delta_star), with
    the solve's own ``sol.delta_star``: the same rearrangement the solver
    uses for its weights. The two forms agree exactly in real arithmetic, and
    the rearranged one stays fully accurate when the normalizer sits close
    to the pole.
    """
    if sol.k_bar + sol.delta_star <= 0.0 or sol.pole_gap <= 0.0:
        raise NonPositiveArgument(
            f"k_bar + L = {sol.k_bar + sol.delta_star} is not positive; "
            "solution is inconsistent"
        )
    args = sol.pole_gap + (profile.aligned(sol.measure) - sol.delta_star)
    values = np.log(args)
    values.flags.writeable = False
    return values


def verify_theorem2(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, sol: TypeIISolution
) -> tuple[DiscreteMeasure, float]:
    """Tilt Q by exp(-V) and return (tilted, max weight gap to ``sol.measure``).

    ``sol`` is the root finder's solution of the reversed-direction problem
    on ``q`` at factor ``sol.lam``; the transformed problem is solved by the
    Gibbs tilt of Q by exp(-V) with unit regularization factor. Before
    comparing, the hidden normalization identity lam * sum q*exp(-V) = 1 (the
    defining constraint of k_bar, restated through the transform) is asserted
    as |log Z + log lam| <= NORMALIZATION_TOL, where log Z is the tilt's own
    log normalizer.
    """
    values = sol.measure.values_at(log_risk_profile(profile, sol), q, "log-risk")
    tilted, log_z = _tilt(q, values, 1.0)
    log_total = log_z + math.log(sol.lam)
    if not abs(log_total) <= NORMALIZATION_TOL:
        raise InvariantViolation(
            f"lam * sum q*exp(-V) = exp({log_total}) deviates from 1 beyond {NORMALIZATION_TOL}"
        )

    at = positions(sol.measure, tilted)
    hit = at >= 0
    matched = np.zeros(sol.measure.num_atoms)
    matched[hit] = tilted.weights[at[hit]]
    gap = float(np.max(np.abs(sol.measure.weights - matched)))
    return tilted, gap
