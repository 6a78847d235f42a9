"""Planning machinery for weighted one-sample log-rank trials.

Everything here is deterministic: expected event counts and their second
moments come from quadrature, weights from closed-form ratios of those
integrals, and sample size from inverting the asymptotic power relation
for the standardized statistic

    z = (N(t) - A0(t)) / sqrt(w N(t) + (1 - w) A0(t)).

Every planning integral (moments, event rates, the uncorrelated-null
weight) is a row of one of two quadratures, one per law, on shared nodes:
each runs over that law's cumulative hazard, substituting u = Lambda(s),
at the fixed accuracy of ``numerics.integrate``. The substitution removes
the hazard singularity that Weibull laws with shape below one have at zero
and leaves bounded, nearly smooth integrands. A plan is the censoring at
one accrual length with both quadratures under it; every policy's weight,
sample size and power at that length read the one plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import (
    CapExceededError,
    ConfigError,
    DegenerateDesignError,
    DomainError,
    InfeasibleDesignError,
    PolicyError,
)
from .models import (
    CensoringModel,
    DropoutModel,
    NoDropout,
    SurvivalModel,
    _accrual_law,
    hazard_ratio_alternative,
)
from .numerics import find_root, integrate, normal_cdf, normal_quantile

__all__ = [
    "WeightPolicy",
    "DesignSpec",
    "MomentSet",
    "DesignResult",
    "moments",
    "weight_uncorrelated_null",
    "weight_uncorrelated_alt",
    "resolve_weight",
    "sample_size",
    "solve_accrual_length",
    "power",
    "expected_event_rate",
    "suggest_policy",
]

# effects smaller than this are indistinguishable from zero at double precision
_OMEGA_FLOOR = 1e-12

# bracket width at which a solved accrual length is accepted
_ACCRUAL_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class WeightPolicy:
    """Pre-specified rule for the variance weight w in w N + (1 - w) A0.

    The first six kinds resolve to a number at design time; ``random_km``
    is estimated from the trial data itself and is therefore only legal at
    analysis time.
    """

    kind: str
    value: float | None = None

    KINDS: ClassVar[frozenset] = frozenset(
        {
            "compensator",
            "counting",
            "wu",
            "fixed",
            "uncorrelated_null",
            "uncorrelated_alt",
            "combined",
            "random_km",
        }
    )

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise PolicyError(
                f"unknown weight policy {self.kind!r}; choose from {', '.join(sorted(self.KINDS))}"
            )
        if self.kind == "fixed":
            if self.value is None or not 0.0 <= self.value <= 1.0:
                raise PolicyError("fixed weight policy needs a value in [0, 1]")
        elif self.value is not None:
            raise PolicyError(f"only the fixed weight policy takes a value, not {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "fixed":
            return f"fixed({self.value:g})"
        return self.kind

    @classmethod
    def compensator(cls) -> "WeightPolicy":
        return cls("compensator")

    @classmethod
    def counting(cls) -> "WeightPolicy":
        return cls("counting")

    @classmethod
    def wu(cls) -> "WeightPolicy":
        return cls("wu")

    @classmethod
    def fixed(cls, value: float) -> "WeightPolicy":
        return cls("fixed", float(value))

    @classmethod
    def uncorrelated_null(cls) -> "WeightPolicy":
        return cls("uncorrelated_null")

    @classmethod
    def uncorrelated_alt(cls) -> "WeightPolicy":
        return cls("uncorrelated_alt")

    @classmethod
    def combined(cls) -> "WeightPolicy":
        return cls("combined")

    @classmethod
    def random_km(cls) -> "WeightPolicy":
        return cls("random_km")


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the per-subject event and compensator
    contributions under the data-generating law:

        v1  = E[N_i]          v0  = E[A0_i]
        v01 = E[N_i A0_i]     v00 = E[A0_i^2] / 2
    """

    v1: float
    v0: float
    v01: float
    v00: float

    @property
    def omega(self) -> float:
        """Mean of the compensated count per subject, E[N_i - A0_i]."""
        return self.v1 - self.v0

    @property
    def sigma_sq(self) -> float:
        """Variance of the compensated count per subject."""
        return (
            self.v1
            - self.v1**2
            + 2.0 * self.v00
            - self.v0**2
            - 2.0 * self.v01
            + 2.0 * self.v0 * self.v1
        )

    @property
    def w1(self) -> float:
        """Weight uncorrelating the compensated count and the variance
        estimator, w1 = (2 v00 - v0^2 - v01 + v0 v1) / sigma^2."""
        sigma_sq = self.sigma_sq
        if sigma_sq <= 0.0:
            raise DegenerateDesignError("variance of the compensated count is zero")
        return (2.0 * self.v00 - self.v0**2 - self.v01 + self.v0 * self.v1) / sigma_sq

    def sigma_bar_sq(self, w: float) -> float:
        """Mean of the weighted variance estimator, w v1 + (1 - w) v0."""
        return w * self.v1 + (1.0 - w) * self.v0


@dataclass(frozen=True)
class DesignSpec:
    """Planning inputs for a single-arm trial.

    Exactly one of ``alternative`` and ``hazard_ratio`` fixes the effect,
    and exactly one of ``accrual_length`` and ``accrual_rate`` fixes the
    recruitment side; the analysis happens at t = accrual_length + follow_up.
    """

    null_model: SurvivalModel
    follow_up: float
    weight_policy: WeightPolicy
    hazard_ratio: float | None = None
    alternative: SurvivalModel | None = None
    accrual_length: float | None = None
    accrual_rate: float | None = None
    accrual_exponent: float = 1.0
    dropout: DropoutModel = field(default_factory=NoDropout)
    alpha: float = 0.05
    beta: float = 0.2
    sample_size_cap: int = 10_000_000
    max_accrual_length: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise DomainError("beta must lie in (0, 1)")
        if self.follow_up < 0.0:
            raise DomainError("follow-up length cannot be negative")
        if (self.hazard_ratio is None) == (self.alternative is None):
            raise ConfigError("specify exactly one of hazard_ratio and alternative")
        if (self.accrual_length is None) == (self.accrual_rate is None):
            raise ConfigError("specify exactly one of accrual_length and accrual_rate")
        if self.accrual_length is not None and not self.accrual_length > 0.0:
            raise DomainError("accrual length must be positive")
        if self.accrual_rate is not None and not self.accrual_rate > 0.0:
            raise DomainError("accrual rate must be positive")
        if not self.accrual_exponent > 0.0:
            raise DomainError("accrual exponent must be positive")
        if self.sample_size_cap < 1:
            raise DomainError("sample size cap must be at least 1")
        if not self.max_accrual_length > 0.0:
            raise DomainError("max accrual length must be positive")

    def resolved_alternative(self) -> SurvivalModel:
        if self.alternative is not None:
            return self.alternative
        return hazard_ratio_alternative(self.null_model, self.hazard_ratio)

    def censoring_at(self, accrual_length: float) -> CensoringModel:
        return CensoringModel(
            _accrual_law(accrual_length, self.accrual_exponent),
            self.dropout,
            accrual_length + self.follow_up,
        )


@dataclass(frozen=True)
class DesignResult:
    """Computed design: sample size, resolved weight, and all intermediates."""

    n: int
    weight_used: float
    accrual_length: float
    analysis_time: float
    moments: MomentSet
    expected_event_rate_null: float
    expected_event_rate_alt: float
    policy: WeightPolicy
    achieved_power: float


def _integrals(
    null: SurvivalModel, alternative: SurvivalModel | None, censoring: CensoringModel
) -> tuple[float, float, MomentSet | None]:
    """The reference law's event rate, the numerator of its uncorrelated
    weight and, with an alternative, the moments.

    Each law's integrals are the rows of one quadrature over u = Lambda(s)
    in [0, Lambda(t)], Lambda being that law's cumulative hazard: lambda(s) ds
    = du turns densities into e^-u factors, so every integrand is bounded
    even for shape < 1. Lambda^-1 and S_U run once per node for all rows,
    and the kinks of S_U and of both laws, which coincide for a hazard-ratio
    alternative, are breakpoints. Rows multiply left to right as
    S_U * factor * e^-u, an order on which the last bits of every design
    number depend.
    """
    kinks = (*censoring.breakpoints, *null.kinks, *(alternative.kinks if alternative else ()))

    def over(model: SurvivalModel, rows) -> list[float]:
        def f(u: np.ndarray) -> np.ndarray:
            s = model.inverse_cum_hazard(u)
            return np.array(rows(censoring.survival_u(s), s, u, np.exp(-u)))

        hi = float(model.cum_hazard(censoring.analysis_time))
        return integrate(f, 0.0, hi, [float(model.cum_hazard(k)) for k in kinks]).tolist()

    def null_rows(su, s, u, e):
        if alternative is None:
            return su * e, su * u * e
        s_alt = alternative.survival(s)
        return su * e, su * u * e, su * s_alt, su * s_alt * u

    rate, numerator, *v0_v00 = over(null, null_rows)
    if alternative is None:
        return rate, numerator, None
    v1, v01 = over(alternative, lambda su, s, u, e: (su * e, su * null.cum_hazard(s) * e))
    return rate, numerator, MomentSet(v1=v1, v0=v0_v00[0], v01=v01, v00=v0_v00[1])


def _w0(rate_null: float, numerator: float) -> float:
    if rate_null <= 0.0:
        raise DegenerateDesignError(
            "event probability under the reference law is zero by the analysis time"
        )
    return numerator / rate_null


def moments(
    null: SurvivalModel, alternative: SurvivalModel, censoring: CensoringModel
) -> MomentSet:
    """Moment integrals of the per-subject contributions over [0, t].

    With S_U the censoring survival function, the four integrals are

        v1  = int S_U f_alt            v0  = int S_U S_alt lambda_null
        v01 = int S_U f_alt Lambda_null
        v00 = int S_U S_alt Lambda_null lambda_null

    v1 and v01 are integrated over the alternative's cumulative hazard, v0
    and v00 over the reference law's.
    """
    return _integrals(null, alternative, censoring)[2]


def expected_event_rate(model: SurvivalModel, censoring: CensoringModel) -> float:
    """Probability that a subject has an observed event by the analysis time."""
    return _integrals(model, None, censoring)[0]


def weight_uncorrelated_null(null: SurvivalModel, censoring: CensoringModel) -> float:
    """Weight making the statistic and the variance estimator uncorrelated
    under the reference law:

        w0(t) = int S_U f_null Lambda_null / int S_U f_null.
    """
    return _w0(*_integrals(null, None, censoring)[:2])


def weight_uncorrelated_alt(
    null: SurvivalModel, alternative: SurvivalModel, censoring: CensoringModel
) -> float:
    """Weight removing the correlation under the planning alternative,
    ``MomentSet.w1`` of the alternative's moments.

    The value lies in [0, 1] whenever the compensator and the event count
    are non-positively correlated under the alternative. Steep reference
    hazards can flip that correlation positive, in which case the solution
    of the zero-correlation equation exceeds 1; callers needing a convex
    mixing weight should clamp the result to the unit interval.
    """
    return moments(null, alternative, censoring).w1


def _weight(policy: WeightPolicy, integrals) -> float:
    """The weight a policy implies; ``integrals()`` gives the triple of
    ``_integrals`` and is called only by the policies that read it."""
    kind = policy.kind
    if kind in ("compensator", "counting", "wu", "fixed"):
        return float({"compensator": 0.0, "counting": 1.0, "wu": 0.5}.get(kind, policy.value))
    if kind == "random_km":
        raise PolicyError("random_km is estimated from trial data, not at design time")
    rate_null, numerator, mom = integrals()
    if kind == "uncorrelated_alt":
        return mom.w1
    w0 = _w0(rate_null, numerator)
    return w0 if kind == "uncorrelated_null" else min(w0, 0.5)


def resolve_weight(
    policy: WeightPolicy,
    null: SurvivalModel,
    alternative: SurvivalModel | None,
    censoring: CensoringModel | None,
) -> float:
    """Numeric weight implied by a policy under the planning assumptions."""

    def integrals():
        if censoring is None:
            raise PolicyError(f"policy {policy.kind!r} needs the planning censoring assumptions")
        if policy.kind == "uncorrelated_alt" and alternative is None:
            raise PolicyError(
                "uncorrelated_alt needs a planning alternative; analyze with its designed fixed weight"
            )
        return _integrals(null, alternative if policy.kind == "uncorrelated_alt" else None, censoring)

    return _weight(policy, integrals)


def _required_n(mom: MomentSet, w: float, alpha: float, beta: float) -> float:
    """Real-valued sample size from the asymptotic power relation."""
    omega = abs(mom.omega)
    if omega < _OMEGA_FLOOR:
        raise InfeasibleDesignError(
            "alternative and reference laws are indistinguishable by the analysis time"
        )
    sigma_sq = mom.sigma_sq
    if sigma_sq <= 0.0:
        raise DegenerateDesignError("variance of the compensated count is zero")
    sbar_sq = mom.sigma_bar_sq(w)
    if sbar_sq <= 0.0:
        raise DegenerateDesignError("weighted variance mean is zero")
    z_alpha = normal_quantile(1.0 - alpha / 2.0)
    z_beta = normal_quantile(1.0 - beta)
    return ((math.sqrt(sbar_sq) * z_alpha + math.sqrt(sigma_sq) * z_beta) / omega) ** 2


def _power_at(mom: MomentSet, w: float, n: float, alpha: float) -> float:
    z_alpha = normal_quantile(1.0 - alpha / 2.0)
    sbar = math.sqrt(mom.sigma_bar_sq(w))
    sigma = math.sqrt(mom.sigma_sq)
    return normal_cdf((math.sqrt(n) * abs(mom.omega) - sbar * z_alpha) / sigma)


def _ceil_with_slack(x: float) -> int:
    # absorb float noise when the formula lands exactly on an integer
    return int(math.ceil(x - 1e-9))


class _Plan(NamedTuple):
    """The censoring at one accrual length and, under it, the ``_integrals``
    of both laws, which every policy's weight, n and power there read."""

    censoring: CensoringModel
    integrals: tuple[float, float, MomentSet]

    def weight(self, policy: WeightPolicy) -> float:
        return _weight(policy, lambda: self.integrals)


def _plan(spec: DesignSpec, accrual_length: float) -> _Plan:
    censoring = spec.censoring_at(accrual_length)
    return _Plan(censoring, _integrals(spec.null_model, spec.resolved_alternative(), censoring))


def _design(spec: DesignSpec, plan: _Plan, policy: WeightPolicy, n: int | None = None) -> DesignResult:
    """The design of ``policy`` on ``plan``; ``n`` defaults to the smallest
    sample size reaching power 1 - beta."""
    rate_null, _, mom = plan.integrals
    w = plan.weight(policy)
    if n is None:
        n = max(1, _ceil_with_slack(_required_n(mom, w, spec.alpha, spec.beta)))
    if n > spec.sample_size_cap:
        raise CapExceededError(f"required sample size {n} exceeds the cap of {spec.sample_size_cap}")
    return DesignResult(
        n=n,
        weight_used=w,
        accrual_length=plan.censoring.accrual.length,
        analysis_time=plan.censoring.analysis_time,
        moments=mom,
        expected_event_rate_null=rate_null,
        expected_event_rate_alt=mom.v1,
        policy=policy,
        achieved_power=_power_at(mom, w, n, spec.alpha),
    )


def sample_size(spec: DesignSpec) -> DesignResult:
    """Smallest n reaching power 1 - beta at two-sided level alpha.

    Requires a fixed accrual length; rate-driven designs go through
    :func:`solve_accrual_length`.
    """
    if spec.accrual_length is None:
        raise ConfigError(
            "sample_size needs accrual_length; use solve_accrual_length for accrual_rate designs"
        )
    return _design(spec, _plan(spec, spec.accrual_length), spec.weight_policy)


def solve_accrual_length(spec: DesignSpec) -> DesignResult:
    """Accrual length at which recruiting at the given rate meets the power.

    With rate r, recruiting for a years supplies n = r a subjects while the
    requirement n_req(a) falls as the horizon grows; the solved a equates
    the two. The search runs over (0, max_accrual_length] and plans each
    accrual length it tries once.
    """
    if spec.accrual_rate is None:
        raise ConfigError("solve_accrual_length needs accrual_rate")
    r = spec.accrual_rate
    plans: dict[float, _Plan] = {}

    def gap(a: float) -> float:
        plan = plans[a] = plans.get(a) or _plan(spec, a)
        try:
            w = plan.weight(spec.weight_policy)
            required = _required_n(plan.integrals[2], w, spec.alpha, spec.beta)
        except InfeasibleDesignError:
            # no detectable effect at this horizon: treat as unbounded demand
            required = 1e18
        return required - r * a

    hi = spec.max_accrual_length
    gap_hi = gap(hi)
    if gap_hi > 0.0:
        raise InfeasibleDesignError(
            f"accrual rate {r:g} cannot meet the power requirement within "
            f"accrual length {hi:g} (still short by {gap_hi:.3g} subjects)"
        )
    lo = min(1.0, 0.5 * hi)
    while gap(lo) <= 0.0:
        lo *= 0.5
        if lo < 1e-9:
            raise InfeasibleDesignError("supply exceeds demand even for vanishing accrual windows")
    # find_root evaluates lo and hi again and returns a point it evaluated:
    # all are plans kept in ``plans``
    solved = find_root(gap, lo, hi, _ACCRUAL_ROOT_TOL)
    return _design(spec, plans[solved], spec.weight_policy, max(1, _ceil_with_slack(r * solved)))


def power(spec: DesignSpec, n: int) -> float:
    """Asymptotic power of the two-sided test with n subjects."""
    if n < 1:
        raise DomainError("sample size must be at least 1")
    if spec.accrual_length is None:
        raise ConfigError("power needs a spec with a fixed accrual_length")
    plan = _plan(spec, spec.accrual_length)
    return _power_at(plan.integrals[2], plan.weight(spec.weight_policy), n, spec.alpha)


def suggest_policy(event_rate_null: float) -> str:
    """Advisory policy choice from the expected event rate; never auto-applied.

    Designs with many expected events favor the half-and-half weight, while
    rarer events favor the weight that decorrelates the variance estimate
    under the reference law.
    """
    if not 0.0 <= event_rate_null <= 1.0:
        raise DomainError("event rate must lie in [0, 1]")
    return "uncorrelated_null" if event_rate_null <= 0.70 else "wu"
