"""Semantic exception taxonomy.

Every error raised by this package derives from :class:`EntriskError`, so
callers can catch one base class. Validation-style errors also derive from
``ValueError``; numerical-failure errors derive from ``ArithmeticError``.
"""

from __future__ import annotations


class EntriskError(Exception):
    """Base class for all errors raised by this package."""


# --- measure construction ----------------------------------------------------


class EmptySupport(EntriskError, ValueError):
    """No atom with strictly positive weight remains."""


class NegativeWeight(EntriskError, ValueError):
    """A weight is strictly negative."""


class NonFiniteWeight(EntriskError, ValueError):
    """A weight is NaN or infinite."""


class DuplicateSupportPoint(EntriskError, ValueError):
    """Two atoms with positive mass share the same coordinates."""


class NonFiniteValue(EntriskError, ValueError):
    """A function produced NaN or infinity on a support atom."""


# --- risk evaluation ----------------------------------------------------------


class DimensionMismatch(EntriskError, ValueError):
    """Model, pattern, or predictor dimensions are incompatible."""


class SupportMismatch(EntriskError, ValueError):
    """A measure has an atom with no matching entry in a profile."""


# --- solvers ------------------------------------------------------------------


class NonPositiveLambda(EntriskError, ValueError):
    """The regularization factor must be strictly positive."""


class BracketFailure(EntriskError, ArithmeticError):
    """The root bracket is numerically invalid (degenerate inputs or overflow)."""


class ToleranceNotReached(EntriskError, ArithmeticError):
    """Root iteration hit its cap before meeting the residual tolerance."""


class NonPositiveArgument(EntriskError, ValueError):
    """Log transform fed a non-positive argument; signals upstream corruption."""


class InvariantViolation(EntriskError, ArithmeticError):
    """A cross-check identity failed beyond its tolerance."""


# --- experiment harness and I/O ----------------------------------------------


class ConfigError(EntriskError, ValueError):
    """Experiment configuration is invalid; message names the offending field."""


class InstanceGenerationFailure(EntriskError):
    """Instance construction failed for a validated configuration."""


class MalformedHeader(EntriskError, ValueError):
    """Dataset CSV header does not match ``x1,...,xd,y``."""


class RowArity(EntriskError, ValueError):
    """Dataset CSV row has the wrong number of cells."""


class NonFiniteCell(EntriskError, ValueError):
    """Dataset CSV cell does not parse as a finite decimal."""
