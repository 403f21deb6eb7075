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
    DiscreteMeasure,
    as_grid,
    kl_divergence,
    make_measure,
    measure_on,
    total_variation,
)
from .risk import (
    AlignedRisks,
    Dataset,
    EmpiricalRiskProfile,
    LossSpec,
    PredictorSpec,
    aligned_risks,
    empirical_risk,
    expected_risk,
    risk_histogram,
    risk_profile,
)
from .type1 import (
    GibbsSolution,
    solve_type1,
    type1_objective,
)
from .type2 import (
    KBarResult,
    TypeIISolution,
    escape_threshold,
    solve_k_bar,
    solve_type2,
    support_escape_slope,
    type2_objective,
)
from .logrisk import (
    log_risk_profile,
    verify_theorem2,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedRisks",
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
    "aligned_risks",
    "as_grid",
    "empirical_risk",
    "escape_threshold",
    "expected_risk",
    "kl_divergence",
    "log_risk_profile",
    "make_measure",
    "measure_on",
    "risk_histogram",
    "risk_profile",
    "solve_k_bar",
    "solve_type1",
    "solve_type2",
    "support_escape_slope",
    "total_variation",
    "type1_objective",
    "type2_objective",
    "verify_theorem2",
]
