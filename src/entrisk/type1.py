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

from .errors import NonFiniteWeight, NonPositiveLambda
from .measures import (
    DiscreteMeasure,
    exact_sum,
    kl_rows,
    mean_rows,
    normalized,
    positions,
)
from .risk import AlignedRisks, EmpiricalRiskProfile


def _tilt(log_q: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Normalized tilt q(theta)*exp(-values(theta)) as a row, and its log normalizer.

    ``log_q`` (``np.log`` of Q's weights) and ``values`` are aligned (m,)
    rows, and neither is written. ``values`` may be any finite reals, and
    +inf for an atom of weight 0 as long as one value is finite;
    nonnegativity is not assumed. This is the relaxed entry point used by
    the log-risk equivalence, where the transformed risk can be negative,
    and by the Type-1 solve with ``values = L/lam``. The public solver keeps
    the nonnegative contract via the risk profile type.
    """
    logits = log_q - values
    shift = float(np.maximum.reduce(logits))
    # One buffer takes the shifted logits, then their exponentials.
    unnorm = np.exp(np.subtract(logits, shift, out=logits), out=logits)
    z = exact_sum(unnorm, top=1.0)  # exp(0.0), the largest entry unless a nan is there
    return normalized(unnorm, z), shift + math.log(z)


@dataclass(frozen=True, eq=False)
class GibbsSolution:
    """Tilted weights aligned with ``q.weights``, the factor, and the log normalizer used.

    ``scaled_risks`` is the row L/lam the tilt was formed from, read-only.
    The rows carry no atoms: use them only with the ``q`` they were solved on.
    """

    weights: np.ndarray
    lam: float
    log_partition_at_minus_inv_lambda: float
    scaled_risks: np.ndarray


def solve_type1(aligned: AlignedRisks, lam: float) -> GibbsSolution:
    """Minimize R(P) + lam * D(P || Q) over P << Q, on the instance ``aligned``.

    Returns the Gibbs tilt of Q by exp(-L/lam), as weights aligned with
    ``aligned.q_weights``, together with the log normalizer; deterministic,
    and invariant to adding a constant to all risks.

    An atom whose L/lam overflows to +inf gets weight 0. When even the
    least risk's does, every atom's does: no weight is finite, and
    NonFiniteWeight is raised, with no numpy warning.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    if math.isinf(aligned.delta_star / lam):
        raise NonFiniteWeight(
            f"lam={lam}: L/lam overflows on every atom, no tilted weight is finite")
    with np.errstate(over="ignore"):
        scaled = aligned.risks / lam
    scaled.flags.writeable = False
    weights, log_z = _tilt(aligned.log_q, scaled)
    return GibbsSolution(weights, float(lam), log_z, scaled)


def log_ratios_p1_q(sol: GibbsSolution, out: np.ndarray) -> np.ndarray:
    """log(p1/q) per atom of ``sol``, written into the (m,) row ``out`` and returned.

    The log-ratio is -L/lam - log Z exactly as the tilt defines it, so no
    weight is divided and an atom whose tilted weight underflowed keeps a
    finite log-ratio: it adds q * phi = q to D(P1 || Q) in
    :func:`entrisk.measures.kl_log_ratios`.
    """
    x = np.negative(sol.scaled_risks, out=out)
    x -= sol.log_partition_at_minus_inv_lambda
    return x


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
    row = p.weights[None]
    return float(mean_rows(row, profile.aligned(p))[0] + lam * kl_rows(row, q.weights[at])[0])
