"""Reference computations written apart from the singlearm package.

Nothing here imports singlearm. The benchmark checks the program's
outputs against these functions, and ``test_reference.py`` checks the
functions themselves against each other and against published figures.

Conventions follow the paper: a subject entering at Y is followed until
X = T ^ C ^ (t - Y)+, the reference law has cumulative hazard Lambda0,
and the test statistic is

    z = (N - A0) / sqrt(w N + (1 - w) A0).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

LOG_TWO = math.log(2.0)
_STD_NORMAL = NormalDist()


def z_quantile(p: float) -> float:
    """Standard-normal quantile."""
    return _STD_NORMAL.inv_cdf(p)


# ---------------------------------------------------------------------------
# laws, written out in time coordinates


def weibull_cum_hazard(s, shape: float, median: float):
    """Lambda(s) = log(2) (s / median) ** shape, so that S(median) = 1/2."""
    return LOG_TWO * (np.asarray(s, dtype=float) / median) ** shape


def weibull_density(s, shape: float, median: float):
    s = np.asarray(s, dtype=float)
    hazard = LOG_TWO * shape / median * (s / median) ** (shape - 1.0)
    return hazard * np.exp(-weibull_cum_hazard(s, shape, median))


def censoring_survival(s, accrual: float, follow_up: float, dropout_hazard: float = 0.0):
    """S_U(s) = S_C(s) F_Y((t - s)+) for uniform entry over [0, accrual]
    and exponential dropout, analysed at t = accrual + follow_up."""
    s = np.asarray(s, dtype=float)
    t = accrual + follow_up
    entry_cdf = np.clip((t - s) / accrual, 0.0, 1.0)
    return np.exp(-dropout_hazard * s) * entry_cdf


def yearly_dropout_hazard(yearly_rate: float) -> float:
    """Hazard at which the given fraction of subjects is lost in a year."""
    return -math.log(1.0 - yearly_rate)


# ---------------------------------------------------------------------------
# fixed-grid quadrature in time coordinates


def gauss_legendre(g, lo: float, hi: float, nodes: int = 200, grading: float = 1.0) -> float:
    """Integrate ``g`` over [lo, hi] with one fixed Gauss-Legendre rule.

    ``grading`` > 1 substitutes s = lo + (hi - lo) v ** grading, which
    smooths integrands that behave like a fractional power of (s - lo),
    such as a Weibull density with shape other than 1 near zero.
    """
    x, wts = np.polynomial.legendre.leggauss(nodes)
    v = 0.5 * (x + 1.0)
    s = lo + (hi - lo) * v**grading
    jac = (hi - lo) * grading * v ** (grading - 1.0)
    return float(0.5 * np.sum(wts * jac * g(s)))


def weight_null_fixed_grid(
    density, cum_hazard, accrual: float, follow_up: float, dropout_hazard: float = 0.0
) -> float:
    """Uncorrelated-null weight int S_U f0 Lambda0 / int S_U f0 over [0, t].

    S_U has a kink at s = follow_up, so each integral is split there.
    """
    t = accrual + follow_up

    def integral(g):
        return gauss_legendre(g, 0.0, follow_up, grading=4.0) + gauss_legendre(g, follow_up, t)

    def su(s):
        return censoring_survival(s, accrual, follow_up, dropout_hazard)

    den = integral(lambda s: su(s) * density(s))
    num = integral(lambda s: su(s) * density(s) * cum_hazard(s))
    return num / den


# ---------------------------------------------------------------------------
# exponential laws under uniform accrual: closed form
#
# With kappa = event hazard + dropout hazard, every design integral reduces
# to J(kappa) = int_0^t F_Y((t - s)+) e^(-kappa s) ds and its derivative.


def _j(kappa: float, accrual: float, follow_up: float) -> float:
    t = accrual + follow_up
    d = math.exp(-kappa * follow_up) - math.exp(-kappa * t)
    return 1.0 / kappa - d / (accrual * kappa**2)


def _minus_dj(kappa: float, accrual: float, follow_up: float) -> float:
    """-J'(kappa) = int_0^t s F_Y((t - s)+) e^(-kappa s) ds."""
    t = accrual + follow_up
    ef = math.exp(-kappa * follow_up)
    et = math.exp(-kappa * t)
    return (
        1.0 / kappa**2
        + (t * et - follow_up * ef) / (accrual * kappa**2)
        - 2.0 * (ef - et) / (accrual * kappa**3)
    )


def exp_event_rate(rate: float, accrual: float, follow_up: float, dropout_hazard: float = 0.0) -> float:
    """Probability of an observed event by the analysis time."""
    return rate * _j(rate + dropout_hazard, accrual, follow_up)


def exp_weight_null(rate: float, accrual: float, follow_up: float, dropout_hazard: float = 0.0) -> float:
    """Uncorrelated-null weight for an exponential reference law."""
    kappa = rate + dropout_hazard
    return rate * _minus_dj(kappa, accrual, follow_up) / _j(kappa, accrual, follow_up)


def exp_moments(
    null_rate: float, alt_rate: float, accrual: float, follow_up: float, dropout_hazard: float = 0.0
) -> dict:
    """E[N], E[A0], E[N A0] and E[A0^2] / 2 per subject under the alternative."""
    kappa = alt_rate + dropout_hazard
    j = _j(kappa, accrual, follow_up)
    mj = _minus_dj(kappa, accrual, follow_up)
    return {
        "v1": alt_rate * j,
        "v0": null_rate * j,
        "v01": alt_rate * null_rate * mj,
        "v00": null_rate**2 * mj,
    }


def required_n(mom: dict, weight: float, alpha: float, beta: float) -> float:
    """Real-valued sample size reaching power 1 - beta at two-sided level alpha."""
    v1, v0, v01, v00 = mom["v1"], mom["v0"], mom["v01"], mom["v00"]
    omega = v1 - v0
    sigma_sq = v1 - 2.0 * v01 + 2.0 * v00 - (v1 - v0) ** 2
    sbar_sq = weight * v1 + (1.0 - weight) * v0
    za = z_quantile(1.0 - alpha / 2.0)
    zb = z_quantile(1.0 - beta)
    return ((math.sqrt(sbar_sq) * za + math.sqrt(sigma_sq) * zb) / omega) ** 2


# ---------------------------------------------------------------------------
# the test itself


def z_statistic(events: int, expected: float, weight: float) -> float:
    return (events - expected) / math.sqrt(weight * events + (1.0 - weight) * expected)


def rejections(z: float, alpha: float) -> dict:
    """Two one-sided rules at alpha/2 each; the two-sided rule is their union."""
    crit = z_quantile(1.0 - alpha / 2.0)
    left = z <= -crit
    right = z >= crit
    return {"reject_left": left, "reject_right": right, "reject_two_sided": left or right}


def km_weight(times, events, cum_hazard) -> float | None:
    """Data-driven weight 1 - sum S0 Lambda0 dF_U / sum F0 dF_U.

    F_U is the Kaplan-Meier estimate of the censoring law: every subject
    without an event contributes one censoring-time observation, and the
    event times censor it. Returns None when F_U has no jump at which F0
    is positive.
    """
    n = len(times)
    order = sorted(range(n), key=lambda i: times[i])
    surv = 1.0
    at_risk = n
    num = den = 0.0
    i = 0
    while i < n:
        t = times[order[i]]
        j = i
        observed = 0
        while j < n and times[order[j]] == t:
            observed += not events[order[j]]
            j += 1
        if observed:
            jump = surv * observed / at_risk
            surv -= jump
            lam = float(cum_hazard(t))
            num += math.exp(-lam) * lam * jump
            den += -math.expm1(-lam) * jump
        at_risk -= j - i
        i = j
    if den <= 0.0:
        return None
    return 1.0 - num / den


# ---------------------------------------------------------------------------
# Monte Carlo bands


def binomial_se(rate: float, reps: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 0.0) / reps)


def within_published_band(
    rate: float, reps: int, published: float, published_reps: int, z: float
) -> bool:
    """True when a run's rate and a published Monte Carlo rate differ by at
    most z combined standard errors, each from its own replication count."""
    se = math.hypot(binomial_se(rate, reps), binomial_se(published, published_reps))
    return abs(rate - published) <= z * se


def within_paired_bound(count_a: int, count_b: int, z: float) -> bool:
    """Two rejection counts on shared datasets with equal rejection
    probability differ by the discordant pairs alone, whose number is at
    most the sum of the counts."""
    return abs(count_a - count_b) <= z * math.sqrt(count_a + count_b + 1)
