"""Parametric survival, accrual, and dropout laws.

Every survival law is specified through its cumulative hazard and the
inverse of that function: the design integrals substitute u = Lambda(s),
the test's compensator sums Lambda_0 over observed times, and the
simulation draws event times as Lambda^-1 of unit exponentials. The
censoring composite ``S_U(s) = S_C(s) * F_Y((t - s)+)`` combines
staggered entry with dropout for a trial analyzed at calendar time ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

LOG_TWO = math.log(2.0)

__all__ = [
    "SurvivalModel",
    "Weibull",
    "Exponential",
    "PiecewiseExponential",
    "AccrualModel",
    "UniformAccrual",
    "PowerAccrual",
    "DropoutModel",
    "NoDropout",
    "ExponentialDropout",
    "dropout_from_yearly_rate",
    "CensoringModel",
    "hazard_ratio_alternative",
]


def _match(reference, values):
    """Return ``values`` as a float when ``reference`` was scalar input."""
    arr = np.asarray(values)
    if np.ndim(reference) == 0:
        return float(arr)
    return arr


class SurvivalModel:
    """Base class: families implement the cumulative hazard and its inverse."""

    # times at which the hazard jumps, declared to the quadrature engine
    kinks: tuple[float, ...] = ()

    def cum_hazard(self, s):
        raise NotImplementedError

    def inverse_cum_hazard(self, u):
        raise NotImplementedError

    def survival(self, s):
        return _match(s, np.exp(-np.asarray(self.cum_hazard(s))))


@dataclass(frozen=True)
class Weibull(SurvivalModel):
    """Weibull law parametrized by shape and median: Lambda(s) = log(2) (s/m)^k."""

    shape: float
    median: float

    def __post_init__(self) -> None:
        if not (self.shape > 0.0 and self.median > 0.0):
            raise DomainError("Weibull shape and median must be positive")

    def cum_hazard(self, s):
        scaled = np.maximum(np.asarray(s, dtype=float), 0.0) / self.median
        return _match(s, LOG_TWO * scaled**self.shape)

    def inverse_cum_hazard(self, u):
        scaled = np.maximum(np.asarray(u, dtype=float), 0.0) / LOG_TWO
        return _match(u, self.median * scaled ** (1.0 / self.shape))


@dataclass(frozen=True)
class Exponential(SurvivalModel):
    """Constant-hazard law: Lambda(s) = rate * s."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise DomainError("exponential rate must be positive")

    @classmethod
    def from_median(cls, median: float) -> "Exponential":
        if not median > 0.0:
            raise DomainError("median must be positive")
        return cls(LOG_TWO / median)

    @property
    def median(self) -> float:
        return LOG_TWO / self.rate

    def cum_hazard(self, s):
        return _match(s, self.rate * np.maximum(np.asarray(s, dtype=float), 0.0))

    def inverse_cum_hazard(self, u):
        return _match(u, np.maximum(np.asarray(u, dtype=float), 0.0) / self.rate)


@dataclass(frozen=True)
class PiecewiseExponential(SurvivalModel):
    """Piecewise-constant hazard; ``rates[i]`` applies on the i-th segment.

    ``breakpoints`` are the strictly increasing interior segment boundaries,
    so ``len(rates) == len(breakpoints) + 1``.
    """

    breakpoints: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.breakpoints) + 1:
            raise DomainError("need exactly one more rate than breakpoints")
        if any(r <= 0.0 for r in self.rates):
            raise DomainError("piecewise hazard rates must be positive")
        knots = (0.0,) + tuple(self.breakpoints)
        if any(b <= a for a, b in zip(knots[:-1], knots[1:])):
            raise DomainError("breakpoints must be strictly increasing and positive")

    @property
    def kinks(self) -> tuple[float, ...]:
        return self.breakpoints

    @cached_property
    def _knots(self) -> np.ndarray:
        return np.array((0.0,) + tuple(self.breakpoints))

    @cached_property
    def _rates(self) -> np.ndarray:
        return np.array(self.rates)

    @cached_property
    def _cum_at_knots(self) -> np.ndarray:
        widths = np.diff(self._knots)
        return np.concatenate(([0.0], np.cumsum(self._rates[:-1] * widths)))

    def cum_hazard(self, s):
        arr = np.maximum(np.asarray(s, dtype=float), 0.0)
        i = np.clip(np.searchsorted(self._knots, arr, side="right") - 1, 0, len(self.rates) - 1)
        return _match(s, self._cum_at_knots[i] + self._rates[i] * (arr - self._knots[i]))

    def inverse_cum_hazard(self, u):
        arr = np.maximum(np.asarray(u, dtype=float), 0.0)
        i = np.clip(np.searchsorted(self._cum_at_knots, arr, side="right") - 1, 0, len(self.rates) - 1)
        return _match(u, self._knots[i] + (arr - self._cum_at_knots[i]) / self._rates[i])


def hazard_ratio_alternative(null: SurvivalModel, delta: float) -> SurvivalModel:
    """Alternative law with cumulative hazard ``Lambda_null / delta``.

    ``delta > 1`` means longer survival than the reference. Within each
    supported family the transformed law stays in the family; for the
    Weibull this keeps the shape and rescales the median by
    ``delta ** (1 / shape)``.
    """
    if not (np.isfinite(delta) and delta > 0.0):
        raise DomainError("hazard ratio must be positive and finite")
    if isinstance(null, Weibull):
        return Weibull(null.shape, null.median * delta ** (1.0 / null.shape))
    if isinstance(null, Exponential):
        return Exponential(null.rate / delta)
    if isinstance(null, PiecewiseExponential):
        return PiecewiseExponential(null.breakpoints, tuple(r / delta for r in null.rates))
    raise DomainError(f"unsupported survival family: {type(null).__name__}")


class AccrualModel:
    """Base class for entry-time laws supported on [0, length]."""

    length: float

    def cdf(self, y):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError


@dataclass(frozen=True)
class UniformAccrual(AccrualModel):
    """Entries spread uniformly over an accrual window of the given length."""

    length: float

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise DomainError("accrual length must be positive")

    def cdf(self, y):
        return _match(y, np.clip(np.asarray(y, dtype=float) / self.length, 0.0, 1.0))

    def quantile(self, u):
        return _match(u, self.length * np.asarray(u, dtype=float))


@dataclass(frozen=True)
class PowerAccrual(AccrualModel):
    """Entry law F_Y(y) = (y / length) ** exponent on [0, length].

    ``exponent`` below 1 front-loads recruitment, above 1 back-loads it;
    1 recovers the uniform law.
    """

    length: float
    exponent: float

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise DomainError("accrual length must be positive")
        if not self.exponent > 0.0:
            raise DomainError("accrual exponent must be positive")

    def cdf(self, y):
        base = np.clip(np.asarray(y, dtype=float) / self.length, 0.0, 1.0)
        return _match(y, base**self.exponent)

    def quantile(self, u):
        return _match(u, self.length * np.asarray(u, dtype=float) ** (1.0 / self.exponent))


def _accrual_law(length: float, exponent: float) -> AccrualModel:
    """Entry law on [0, length] with the given exponent: uniform for
    exponent 1, the power law otherwise."""
    if exponent == 1.0:
        return UniformAccrual(length)
    return PowerAccrual(length, exponent)


class DropoutModel:
    """Base class for censoring-by-dropout laws."""

    def survival(self, s):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError


@dataclass(frozen=True)
class NoDropout(DropoutModel):
    """Every subject stays on study: S_C is identically one."""

    def survival(self, s):
        return _match(s, np.ones_like(np.asarray(s, dtype=float)))

    def sample(self, rng: np.random.Generator, size=None):
        # no randomness consumed, so stream layouts match the dropout-free
        # case; a read-only broadcast, so a block allocates nothing
        return np.inf if size is None else np.broadcast_to(np.inf, size)


@dataclass(frozen=True)
class ExponentialDropout(DropoutModel):
    """Dropout with constant yearly hazard."""

    hazard: float

    def __post_init__(self) -> None:
        if not self.hazard > 0.0:
            raise DomainError("dropout hazard must be positive")

    def survival(self, s):
        return _match(s, np.exp(-self.hazard * np.maximum(np.asarray(s, dtype=float), 0.0)))

    def sample(self, rng: np.random.Generator, size=None):
        draws = rng.standard_exponential(size)
        draws /= self.hazard  # in place: one block-sized array, same values
        return draws


def dropout_from_yearly_rate(rate: float) -> DropoutModel:
    """Dropout model that loses the given fraction of subjects per year;
    zero maps to no dropout."""
    if rate == 0.0:
        return NoDropout()
    if not 0.0 < rate < 1.0:
        raise DomainError("yearly dropout rate must lie in (0, 1)")
    return ExponentialDropout(-math.log1p(-rate))


@dataclass(frozen=True)
class CensoringModel:
    """Censoring environment of a trial analyzed at a fixed calendar time.

    A subject entering at Y is observed for at most (t - Y)+ years and may
    drop out earlier; the censoring variable is U = C ^ (t - Y)+ with
    survival function S_U(s) = S_C(s) * F_Y((t - s)+).
    """

    accrual: AccrualModel
    dropout: DropoutModel
    analysis_time: float

    def __post_init__(self) -> None:
        if not self.analysis_time > 0.0:
            raise DomainError("analysis time must be positive")

    def survival_u(self, s):
        arr = np.asarray(s, dtype=float)
        residual = np.maximum(self.analysis_time - arr, 0.0)
        return _match(s, np.asarray(self.dropout.survival(arr)) * np.asarray(self.accrual.cdf(residual)))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior kink locations of S_U, declared to the quadrature engine."""
        kink = self.analysis_time - self.accrual.length
        if 0.0 < kink < self.analysis_time:
            return (kink,)
        return ()

