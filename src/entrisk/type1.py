"""Gibbs solution of entropy-regularized ERM, divergence of solution from reference.

The problem: minimize `R(P) + lam * D(P || Q)` over measures P absolutely
continuous with respect to the reference Q, where R is the expected empirical
risk. On a finite support the minimizer is the exponential tilt of Q,

    p(theta)  proportional to  q(theta) * exp(-L(theta) / lam),

with log normalizer ``log_partition(q, profile, -1/lam)``. The log-partition
function is finite for every real argument on a finite support, so every
positive regularization factor is feasible here; the feasibility set only
bites for unbounded risks.

All exponentials go through a log-sum-exp shift: weights are formed in log
space and exponentiated once, so small ``lam`` does not underflow the whole
vector. Atoms whose tilted weight underflows below the smallest positive
double are dropped by measure construction; at that point the weight is zero
at working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveLambda
from .measures import (
    DiscreteMeasure,
    exact_sum,
    kl_log_ratios,
    kl_rows,
    mean_rows,
    measure_on,
    positions,
)
from .risk import EmpiricalRiskProfile


def _tilt(
    q: DiscreteMeasure, values: np.ndarray, lam: float
) -> tuple[DiscreteMeasure, float]:
    """Normalized tilt q(theta)*exp(-values(theta)/lam) and its log normalizer.

    ``values`` may be any finite reals; nonnegativity is not assumed. This is
    the relaxed entry point used by the log-risk equivalence, where the
    transformed risk can be negative. The public solver keeps the nonnegative
    contract via the risk profile type.
    """
    logits = np.log(q.weights) - values / lam
    shift = float(logits.max())
    unnorm = np.exp(logits - shift)
    z = exact_sum(unnorm)
    measure = measure_on(q.grid, q.index, unnorm / z)
    return measure, shift + math.log(z)


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Tilted measure, its regularization factor, and the log normalizer used."""

    measure: DiscreteMeasure
    lam: float
    log_partition_at_minus_inv_lambda: float


def log_partition(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, t: float
) -> float:
    """log of sum over atoms of q(theta) * exp(t * L(theta)), via log-sum-exp."""
    if t == 0.0:
        return 0.0  # total mass of a probability measure
    risks = profile.aligned(q)
    logits = np.log(q.weights) + t * risks
    shift = float(logits.max())
    return shift + math.log(exact_sum(np.exp(logits - shift)))


def solve_type1(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, lam: float
) -> GibbsSolution:
    """Minimize R(P) + lam * D(P || Q) over P << Q.

    Returns the Gibbs tilt of Q by exp(-L/lam) together with the log
    normalizer; deterministic, and invariant to adding a constant to all
    risks.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    risks = profile.aligned(q)
    measure, log_z = _tilt(q, risks, lam)
    return GibbsSolution(measure=measure, lam=float(lam), log_partition_at_minus_inv_lambda=log_z)


def kl_p1_q(sol: GibbsSolution, q: DiscreteMeasure, risks: np.ndarray) -> float:
    """D(P1 || Q) of ``sol`` from the tilt's own log-ratios, ``risks`` aligned with ``q``.

    log(p1/q) = -L/lam - log Z exactly as the tilt defines it, so no weight
    is divided and an atom whose tilted weight underflowed adds q * phi = q.
    """
    log_ratios = -risks / sol.lam - sol.log_partition_at_minus_inv_lambda
    return kl_log_ratios(q.weights, log_ratios)


def type1_objective_rows(
    weights: np.ndarray, q_weights: np.ndarray, risks: np.ndarray, lam: float
) -> np.ndarray:
    """R(P) + lam * D(P || Q) for each row of (k, m) weights of a measure P.

    ``q_weights`` and ``risks`` are (m,) rows aligned with the columns; see
    :func:`entrisk.measures.kl_rows` for zero weights.
    """
    return mean_rows(weights, risks) + lam * kl_rows(weights, q_weights)


def type1_objective(
    p: DiscreteMeasure,
    q: DiscreteMeasure,
    profile: EmpiricalRiskProfile,
    lam: float,
) -> float:
    """R(P) + lam * D(P || Q); +inf when P is not absolutely continuous wrt Q."""
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    at = positions(p, q)
    if np.any(at < 0):
        return math.inf
    return float(type1_objective_rows(p.weights[None], q.weights[at], profile.aligned(p), lam)[0])
