"""Gibbs solution of entropy-regularized ERM, divergence of solution from reference.

The problem: minimize `R(P) + lam * D(P || Q)` over measures P absolutely
continuous with respect to the reference Q, where R is the expected empirical
risk. On a finite support the minimizer is the exponential tilt of Q,

    p(theta)  proportional to  q(theta) * exp(-L(theta) / lam),

whose log normalizer, log of the sum over atoms of q * exp(-L/lam), the
solution reports as ``log_partition_at_minus_inv_lambda``. The log-partition
function is finite for every real argument on a finite support, so every
positive regularization factor is feasible here; the feasibility set only
bites for unbounded risks.

All exponentials go through a log-sum-exp shift: weights are formed in log
space and exponentiated once, so small ``lam`` does not underflow the whole
vector. An atom whose tilted weight underflows below the smallest positive
double keeps a 0 in the solution's weight row; at that point the weight is
zero at working precision.
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
    normalized,
    positions,
)
from .risk import EmpiricalRiskProfile


def _tilt(
    q_weights: np.ndarray, values: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Normalized tilt q(theta)*exp(-values(theta)/lam) as a row, and its log normalizer.

    ``q_weights`` and ``values`` are aligned (m,) rows. ``values`` may be any
    finite reals; nonnegativity is not assumed. This is the relaxed entry
    point used by the log-risk equivalence, where the transformed risk can
    be negative. The public solver keeps the nonnegative contract via the
    risk profile type.
    """
    logits = np.log(q_weights) - values / lam
    shift = float(logits.max())
    unnorm = np.exp(logits - shift)
    z = exact_sum(unnorm)
    return normalized(unnorm / z), shift + math.log(z)


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Tilted weights aligned with ``q.weights``, the factor, and the log normalizer used.

    The row carries no atoms: use it only with the ``q`` it was solved on.
    """

    weights: np.ndarray
    lam: float
    log_partition_at_minus_inv_lambda: float


def solve_type1(
    q: DiscreteMeasure, profile: EmpiricalRiskProfile, lam: float
) -> GibbsSolution:
    """Minimize R(P) + lam * D(P || Q) over P << Q.

    Returns the Gibbs tilt of Q by exp(-L/lam), as weights aligned with
    ``q.weights``, together with the log normalizer; deterministic, and
    invariant to adding a constant to all risks.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    weights, log_z = _tilt(q.weights, profile.aligned(q), lam)
    return GibbsSolution(weights=weights, lam=float(lam), log_partition_at_minus_inv_lambda=log_z)


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
