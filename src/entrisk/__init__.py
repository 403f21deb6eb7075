"""Entropy-regularized empirical risk minimization over discrete model spaces.

Solves the regularized problem in both divergence directions over a finite
(or particle-approximated) model space:

* the classical direction penalizes D(solution || reference) and yields the
  Gibbs tilt of the reference (:mod:`entrisk.type1`);
* the reversed direction penalizes D(reference || solution) and yields a
  rational reweighting governed by an implicitly defined normalizer, found by
  bracketed root search (:mod:`entrisk.type2`).

The log-risk transform connecting the two directions lives in
:mod:`entrisk.logrisk`; the reproducible experiment harness and its CLI live
in :mod:`entrisk.experiment` and :mod:`entrisk.cli`.
"""

from .errors import (
    AtomCollision,
    BetaOutOfDomain,
    BracketFailure,
    ConfigError,
    DimensionMismatch,
    DuplicateSupportPoint,
    EmptySupport,
    EntriskError,
    InstanceGenerationFailure,
    InvariantViolation,
    MalformedHeader,
    NegativeWeight,
    NonFiniteCell,
    NonFiniteValue,
    NonFiniteWeight,
    NonPositiveArgument,
    NonPositiveLambda,
    RowArity,
    SupportMismatch,
    ToleranceNotReached,
)
from .measures import (
    AbsoluteContinuityRelation,
    DiscreteMeasure,
    as_grid,
    check_abs_continuity,
    kl_divergence,
    make_measure,
    measure_on,
    total_variation,
)
from .risk import (
    Dataset,
    EmpiricalRiskProfile,
    LossSpec,
    PredictorSpec,
    empirical_risk,
    expected_risk,
    level_set,
    risk_profile,
)
from .type1 import (
    GibbsSolution,
    log_partition,
    solve_type1,
    type1_objective,
)
from .type2 import (
    KBarResult,
    TypeIISolution,
    escaped_mixture_objective,
    expected_risk_identity,
    normalization_value,
    risk_bound_check,
    solve_k_bar,
    solve_type2,
    support_escape_penalty,
    type2_objective,
)
from .logrisk import (
    LogRiskProfile,
    expected_log_risk,
    log_risk_profile,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityRelation",
    "AtomCollision",
    "BetaOutOfDomain",
    "BracketFailure",
    "ConfigError",
    "Dataset",
    "DimensionMismatch",
    "DiscreteMeasure",
    "DuplicateSupportPoint",
    "EmpiricalRiskProfile",
    "EmptySupport",
    "EntriskError",
    "GibbsSolution",
    "InstanceGenerationFailure",
    "InvariantViolation",
    "KBarResult",
    "LogRiskProfile",
    "LossSpec",
    "MalformedHeader",
    "NegativeWeight",
    "NonFiniteCell",
    "NonFiniteValue",
    "NonFiniteWeight",
    "NonPositiveArgument",
    "NonPositiveLambda",
    "PredictorSpec",
    "RowArity",
    "SupportMismatch",
    "ToleranceNotReached",
    "TypeIISolution",
    "as_grid",
    "check_abs_continuity",
    "empirical_risk",
    "escaped_mixture_objective",
    "expected_log_risk",
    "expected_risk",
    "expected_risk_identity",
    "kl_divergence",
    "level_set",
    "log_partition",
    "log_risk_profile",
    "make_measure",
    "measure_on",
    "normalization_value",
    "risk_bound_check",
    "risk_profile",
    "solve_k_bar",
    "solve_type1",
    "solve_type2",
    "support_escape_penalty",
    "total_variation",
    "type1_objective",
    "type2_objective",
    "verify_theorem2",
]
