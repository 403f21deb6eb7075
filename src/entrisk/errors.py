"""Semantic exception taxonomy.

Every error raised by this package derives from :class:`EntriskError`, so
callers can catch one base class. The command line maps an error to its exit
code by one rule: a :class:`ConfigError`, the one mark of bad input, exits 1
with ``error: ...``; an ``OSError`` exits 3 with ``i/o error: ...``; any other
:class:`EntriskError` exits 2 with ``solver error: ...``.
"""

from __future__ import annotations


class EntriskError(Exception):
    """Base class for all errors raised by this package."""


# --- measure construction ----------------------------------------------------


class EmptySupport(EntriskError, ValueError):
    """No atom with strictly positive weight remains, or a dataset or profile is empty."""


class NegativeWeight(EntriskError, ValueError):
    """A weight, or a risk, is strictly negative."""


class NonFiniteWeight(EntriskError, ValueError):
    """A weight is NaN or infinite."""


class DuplicateSupportPoint(EntriskError, ValueError):
    """Two atoms with positive mass share the same coordinates."""


class NonFiniteValue(EntriskError, ValueError):
    """A function produced NaN or infinity on a support atom."""


# --- risk evaluation ----------------------------------------------------------


class DimensionMismatch(EntriskError, ValueError):
    """Shapes or counts disagree: model, pattern or predictor dimensions, or per-atom entries."""


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
    """Bad input: a config field, the dataset CSV, ``--lambda``, or a predictor or loss kind."""


class InstanceGenerationFailure(EntriskError):
    """Instance construction failed for a validated configuration."""


class MalformedHeader(ConfigError):
    """Dataset CSV header does not match ``x1,...,xd,y``."""


class RowArity(ConfigError):
    """Dataset CSV has no data rows, or a row with the wrong number of cells."""


class NonFiniteCell(ConfigError):
    """Dataset CSV cell does not parse as a finite decimal."""
