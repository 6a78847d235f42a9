"""One-sample log-rank testing on subject-level records.

The observed data per subject are the entry time Y, the time on study
X = T ^ C ^ (t - Y)+, and an event flag. The test compares the observed
event count N(t) with the count A0(t) expected under a reference
cumulative hazard, standardized by the weighted variance estimate
w N + (1 - w) A0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .design import WeightPolicy, resolve_weight
from .errors import DataValidationError, IndeterminateTestError, PolicyError
from .models import CensoringModel, SurvivalModel
from .numerics import normal_cdf, normal_quantile

__all__ = [
    "TrialDataset",
    "TestOutcome",
    "RandomWeightResult",
    "ConvergenceEntry",
    "ConvergenceReport",
    "counting_and_compensator",
    "run_test",
    "km_weight_from_arrays",
    "consistency_check_random_weight",
]

# slack for float round-trips when checking x <= (t - y)+
_HORIZON_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """Subject-level observables at an analysis time, held as columns.

    Each column is copied, coerced and made read-only, so the dataset never
    aliases a caller's array. ``dropouts`` optionally marks loss to
    follow-up, as opposed to administrative censoring. It is validated (no
    subject both has an event and drops out) and written back by
    ``cli.write_subject_csv``, but no statistic reads it: every subject
    without an event is an observation of U = C ^ (t - Y)+ either way.
    """

    entry_times: np.ndarray
    times_on_study: np.ndarray
    events: np.ndarray
    analysis_time: float
    dropouts: np.ndarray | None = None

    def __post_init__(self) -> None:
        columns = {
            "entry_times": np.array(self.entry_times, dtype=float),
            "times_on_study": np.array(self.times_on_study, dtype=float),
            "events": np.array(self.events, dtype=bool),
        }
        if self.dropouts is not None:
            columns["dropouts"] = np.array(self.dropouts, dtype=bool)
        for name, col in columns.items():
            if col.ndim != 1:
                raise DataValidationError(f"{name} must be one-dimensional, got shape {col.shape}")
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if len({col.size for col in columns.values()}) > 1:
            raise DataValidationError(
                "columns differ in length: "
                + ", ".join(f"{name} has {col.size}" for name, col in columns.items())
            )
        object.__setattr__(self, "analysis_time", float(self.analysis_time))

        entry, time = self.entry_times, self.times_on_study
        # written so that NaN fails too
        bad_entry = ~((entry >= 0.0) & np.isfinite(entry))
        bad_time = ~((time >= 0.0) & np.isfinite(time))
        clash = self.events & self.dropouts if self.dropouts is not None else False
        bad = np.flatnonzero(bad_entry | bad_time | clash)
        if bad.size:
            i = int(bad[0])
            if bad_entry[i]:
                message = f"entry time must be finite and non-negative, got {float(entry[i])}"
            elif bad_time[i]:
                message = f"time on study must be finite and non-negative, got {float(time[i])}"
            else:
                message = "a subject cannot both have an event and drop out"
            raise DataValidationError(message, record_index=i)
        if not entry.size:
            raise DataValidationError("dataset contains no subjects")
        t = self.analysis_time
        if not (t > 0.0 and math.isfinite(t)):
            raise DataValidationError("analysis time must be positive and finite")
        late = entry > t
        horizon = np.maximum(t - entry, 0.0)
        beyond = time > horizon + _HORIZON_TOL
        bad = np.flatnonzero(late | beyond)
        if bad.size:
            i = int(bad[0])
            if late[i]:
                message = f"entry time {float(entry[i])} lies after the analysis time {t}"
            else:
                message = (
                    f"time on study {float(time[i])} exceeds the administrative "
                    f"horizon {float(horizon[i]):.6g}"
                )
            raise DataValidationError(message, record_index=i)

    @classmethod
    def from_arrays(
        cls, entry_time, time_on_study, event, analysis_time: float, dropout=None
    ) -> "TrialDataset":
        """Same as the constructor; the keyword names follow the CSV columns."""
        return cls(entry_time, time_on_study, event, analysis_time, dropout)

    def __len__(self) -> int:
        return self.events.size


@dataclass(frozen=True)
class TestOutcome:
    """Result of one weighted one-sample log-rank test."""

    n: int
    events: int
    expected: float
    weight: float
    statistic: float
    p_two_sided: float
    p_left: float
    reject_two_sided: bool
    reject_left: bool
    reject_right: bool
    alpha: float
    policy_label: str
    weight_fallback: bool = False

    @property
    def p_right(self) -> float:
        return 1.0 - self.p_left


class RandomWeightResult(NamedTuple):
    weight: float
    used_fallback: bool


def counting_and_compensator(data: TrialDataset, null: SurvivalModel) -> tuple[int, float]:
    """Observed event count N(t) and its reference-law compensator A0(t).

    N(t) counts events; A0(t) sums the reference cumulative hazard at each
    subject's observed time on study.
    """
    n_events = int(np.count_nonzero(data.events))
    a0 = float(np.sum(null.cum_hazard(data.times_on_study)))
    return n_events, a0


def km_weight_from_arrays(
    times_on_study: np.ndarray,
    events: np.ndarray,
    null: SurvivalModel,
    fallback_weight: float | None = None,
) -> RandomWeightResult:
    """Data-driven weight from the Kaplan-Meier law of the censoring time.

    The censoring variable U = C ^ (t - Y)+ is itself right-censored by the
    event time, so its Kaplan-Meier estimator is built with reversed roles:
    a subject contributes a U-observation exactly when no event occurred.
    The weight is

        W(t) = 1 - int S_0 Lambda_0 dF_U / int F_0 dF_U

    with both integrals finite sums over the jumps of the estimator. When
    no subject is censored (every subject had an event) or all jump mass
    sits where F_0 vanishes, the planning fallback weight is returned
    instead and flagged.

    The simulation kernel calls this once per replication, so it is written
    for few numpy calls at small n. Tied times share one risk set and one
    jump, so the order of subjects inside a tie never reaches the result.
    """
    x = np.asarray(times_on_study, dtype=float)
    u_event = ~np.asarray(events, dtype=bool)
    fallback = 0.5 if fallback_weight is None else float(fallback_weight)
    if not u_event.any():
        return RandomWeightResult(fallback, True)

    order = x.argsort()
    xs = x[order]
    # Kaplan-Meier over distinct times: groups start where the sorted time changes
    first = np.concatenate(([0], (xs[1:] != xs[:-1]).nonzero()[0] + 1))
    deaths = np.add.reduceat(u_event[order], first, dtype=np.int64)
    frac = deaths / (xs.size - first)
    surv_before = np.concatenate(([1.0], (1.0 - frac).cumprod()[:-1]))

    keep = deaths > 0
    dj = (surv_before * frac)[keep]
    lam0 = np.asarray(null.cum_hazard(xs[first[keep]]), dtype=float)
    s0 = np.exp(-lam0)
    den = float(((1.0 - s0) * dj).sum())
    if den <= 0.0:
        return RandomWeightResult(fallback, True)
    num = float((s0 * lam0 * dj).sum())
    return RandomWeightResult(1.0 - num / den, False)


def _resolve_analysis_weight(
    data: TrialDataset,
    null: SurvivalModel,
    policy: WeightPolicy,
    design_context: CensoringModel | None,
) -> tuple[float, bool]:
    """The weight and whether it is ``random_km``'s fallback; every other
    policy resolves as at design time, with no planning alternative."""
    if policy.kind != "random_km":
        return resolve_weight(policy, null, None, design_context), False
    result = km_weight_from_arrays(data.times_on_study, data.events, null)
    if result.used_fallback and design_context is not None:
        # resolved only here: the planning weight costs a quadrature
        planning = resolve_weight(WeightPolicy.uncorrelated_null(), null, None, design_context)
        return planning, True
    return result


def run_test(
    data: TrialDataset,
    null: SurvivalModel,
    weight_policy: WeightPolicy,
    alpha: float = 0.05,
    design_context: CensoringModel | None = None,
) -> TestOutcome:
    """Run the weighted one-sample log-rank test at two-sided level alpha.

    The two one-sided rules reject for z below the alpha/2 quantile
    (evidence of longer survival than the reference) or above the
    1 - alpha/2 quantile; the two-sided rule is their union.
    """
    if not 0.0 < alpha < 1.0:
        raise PolicyError("alpha must lie in (0, 1)")
    w, used_fallback = _resolve_analysis_weight(data, null, weight_policy, design_context)
    n_events, a0 = counting_and_compensator(data, null)
    variance = w * n_events + (1.0 - w) * a0
    if variance <= 0.0:
        raise IndeterminateTestError(
            f"variance estimate is zero (N={n_events}, A0={a0:.6g}, w={w:.6g})"
        )
    z = (n_events - a0) / math.sqrt(variance)
    p_left = float(normal_cdf(z))
    p_two = 2.0 * float(normal_cdf(-abs(z)))
    z_crit = normal_quantile(1.0 - alpha / 2.0)
    reject_left = z <= -z_crit
    reject_right = z >= z_crit
    return TestOutcome(
        n=len(data),
        events=n_events,
        expected=a0,
        weight=w,
        statistic=z,
        p_two_sided=p_two,
        p_left=p_left,
        reject_two_sided=reject_left or reject_right,
        reject_left=reject_left,
        reject_right=reject_right,
        alpha=alpha,
        policy_label=weight_policy.label,
        weight_fallback=used_fallback,
    )


class ConvergenceEntry(NamedTuple):
    n: int
    weight: float
    estimate: float
    gap: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostic for the consistency of the weighted variance estimator."""

    entries: tuple[ConvergenceEntry, ...]
    limit: float
    tolerance: float

    @property
    def final_gap(self) -> float:
        return self.entries[-1].gap

    @property
    def gap_decreased(self) -> bool:
        return self.entries[-1].gap <= self.entries[0].gap

    @property
    def within_tolerance(self) -> bool:
        return self.final_gap < self.tolerance


def consistency_check_random_weight(
    datasets: Sequence[TrialDataset],
    null: SurvivalModel,
    limit: float,
    weight_policy: WeightPolicy | None = None,
    tolerance: float = 0.01,
    design_context: CensoringModel | None = None,
) -> ConvergenceReport:
    """Track (W N + (1 - W) A0) / n against its limit over growing datasets.

    Any weight sequence confined to [0, 1] leaves the estimator consistent
    for the expected event rate, so the gap must shrink as n grows; the
    default checks the data-driven Kaplan-Meier weight.
    """
    if weight_policy is None:
        weight_policy = WeightPolicy.random_km()
    entries = []
    for data in datasets:
        w, _ = _resolve_analysis_weight(data, null, weight_policy, design_context)
        n_events, a0 = counting_and_compensator(data, null)
        estimate = (w * n_events + (1.0 - w) * a0) / len(data)
        entries.append(ConvergenceEntry(len(data), w, estimate, abs(estimate - limit)))
    if not entries:
        raise DataValidationError("need at least one dataset")
    return ConvergenceReport(tuple(entries), limit, tolerance)
