"""Exception taxonomy shared across the package.

Each branch carries a distinct command-line exit code, ``exit_code``, so
callers can tell usage mistakes (2), bad data (3), numerical trouble (4)
and infeasible designs (5) apart without parsing messages.
"""

from __future__ import annotations


class SingleArmError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ConfigError(SingleArmError):
    """Invalid configuration or usage: unknown keys, missing fields, bad values."""


class PolicyError(ConfigError):
    """A weight policy was requested in a phase where it is not available."""


class DomainError(ConfigError):
    """An argument lies outside the mathematical domain of an operation."""


class DataValidationError(SingleArmError):
    """Subject-level data violates the observation-scheme invariants.

    ``record_index`` locates the offending record (0-based) when known, so
    front ends can report file line numbers.
    """

    exit_code = 3

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class NumericalError(SingleArmError):
    """A numerical routine failed to meet its accuracy contract."""

    exit_code = 4


class QuadratureError(NumericalError):
    """Adaptive integration did not converge.

    Carries the partial estimate so callers can report diagnostics.
    """

    def __init__(self, message: str, partial_estimate: float | None = None):
        super().__init__(message)
        self.partial_estimate = partial_estimate


class BracketError(NumericalError):
    """Root finding was given a bracket without a sign change."""


class IndeterminateTestError(NumericalError):
    """The variance estimate is zero, so the test statistic is undefined."""


class InfeasibleDesignError(SingleArmError):
    """No sample size or accrual length satisfies the design constraints."""

    exit_code = 5


class DegenerateDesignError(InfeasibleDesignError):
    """A design quantity is undefined because the event probability vanishes."""


class CapExceededError(InfeasibleDesignError):
    """The required sample size exceeds the configured cap."""
