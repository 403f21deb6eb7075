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
risk, and reports their maximum atom-wise weight gap. Both are weight rows
aligned with the reference's atoms, so they are compared entry by entry.
The two paths share the risk profile and the values k_bar + L: the tilt
reads the root solve's own denominators, ``pole_gap + (L - delta_star)``,
which the Type-II weights q * lam / (k_bar + L) were divided by. Everything
else is the tilt's own: it takes the log of those values, exponentiates
log q - V after a max shift, and normalizes by its own exact sum, with no
use of the Type-II weights or of g. That independence makes this the
strongest internal consistency check in the package.

Note that V may be negative (unlike raw risks); downstream consumers accept
that, and the tilt used here deliberately does not assume nonnegativity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation, NonPositiveArgument, SupportMismatch
from .measures import DiscreteMeasure
from .risk import AlignedRisks, EmpiricalRiskProfile, aligned_risks
from .type1 import _tilt
from .type2 import TypeIISolution

#: Tolerance on |log(lam * sum q * exp(-V))|, the hidden normalization identity.
NORMALIZATION_TOL = 1e-10


def log_risk_profile(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, sol: TypeIISolution
) -> np.ndarray:
    """V = log(k_bar + L) per atom, read-only, aligned with ``q.weights``.

    ``sol`` must be :func:`entrisk.type2.solve_type2`'s solution on this
    same ``q`` and ``profile``; its rows carry no atoms, so that is not
    checked here. k_bar + L is the solve's own row ``sol.gaps``, formed as
    ``pole_gap + (L - delta_star)``: the rearrangement that stays fully
    accurate when the normalizer sits close to the pole, and the
    denominators of the solution's weights.

    The arguments are positive for every valid solution (k_bar stays strictly
    above -delta_star); a nonpositive argument means the solution object was
    corrupted upstream and is rejected.
    """
    if sol.k_bar + sol.delta_star <= 0.0 or sol.pole_gap <= 0.0:
        raise NonPositiveArgument(
            f"k_bar + L = {sol.k_bar + sol.delta_star} is not positive; "
            "solution is inconsistent"
        )
    values = np.log(sol.gaps)
    values.flags.writeable = False
    return values


def verify_theorem2(
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    sol: TypeIISolution,
    *,
    aligned: AlignedRisks | None = None,
) -> tuple[np.ndarray, float]:
    """Tilt Q by exp(-V) and return (tilted weights, max weight gap to ``sol.weights``).

    ``sol`` is the root finder's solution of the reversed-direction problem
    on ``q`` at factor ``sol.lam``; the transformed problem is solved by the
    Gibbs tilt of Q by exp(-V) with unit regularization factor. Before
    comparing, the hidden normalization identity lam * sum q*exp(-V) = 1 (the
    defining constraint of k_bar, restated through the transform) is asserted
    as |log Z + log lam| <= NORMALIZATION_TOL, where log Z is the tilt's own
    log normalizer. The tilted weights are aligned with ``q.weights``, with
    a 0 where an atom's tilt underflows. ``sol`` must come from a solve on
    this same ``q``: a row carries no atoms, so one solved on another
    reference with as many atoms is compared entry by entry without error.
    Only a row of another length raises SupportMismatch. ``aligned`` is
    :func:`entrisk.risk.aligned_risks` of ``(q, profile)``, built here when
    not given.
    """
    if sol.weights.shape != q.weights.shape:
        raise SupportMismatch(f"{sol.weights.size} solution weights for {q.num_atoms} atoms")
    if aligned is None:
        aligned = aligned_risks(q, profile)
    tilted, log_z = _tilt(aligned.log_q, log_risk_profile(q, profile, sol))
    log_total = log_z + math.log(sol.lam)
    if not abs(log_total) <= NORMALIZATION_TOL:
        raise InvariantViolation(
            f"lam * sum q*exp(-V) = exp({log_total}) deviates from 1 beyond {NORMALIZATION_TOL}"
        )
    return tilted, float(np.maximum.reduce(np.abs(sol.weights - tilted)))
