"""Tests of the benchmark's reference computations.

Run from the repository root with ``python -m pytest perfbench``. The
figures marked as published come from the paper's tables.
"""

import math

import numpy as np
import pytest

import published
import reference as ref

# published event rates and uncorrelated-null weights of the exponential
# (shape 1) cells of the benchmark grid: median -> (rate, weight)
PUBLISHED_EXPONENTIAL_CELLS = {1.0: (0.7896, 0.6280), 2.0: (0.5604, 0.3897), 4.0: (0.3443, 0.2175)}


def _grid(g, accrual, follow_up):
    return ref.gauss_legendre(g, 0.0, follow_up, 400) + ref.gauss_legendre(g, follow_up, accrual + follow_up, 400)


@pytest.mark.parametrize("median", [1.0, 2.0, 4.0])
def test_exponential_closed_form_matches_published_cells(median):
    rate = math.log(2.0) / median
    pub_rate, pub_weight = PUBLISHED_EXPONENTIAL_CELLS[median]
    assert abs(ref.exp_event_rate(rate, 3.0, 1.0) - pub_rate) < 5e-5
    assert abs(ref.exp_weight_null(rate, 3.0, 1.0) - pub_weight) < 5e-5


@pytest.mark.parametrize("rate,dropout", [(0.7, 0.0), (0.087, 0.0), (1.0, ref.yearly_dropout_hazard(0.1)), (3.0, 0.5)])
def test_exponential_closed_form_matches_fixed_grid(rate, dropout):
    accrual, follow_up = 3.0, 1.0

    def su(s):
        return ref.censoring_survival(s, accrual, follow_up, dropout)

    def density(s):
        return rate * np.exp(-rate * s)

    def cum_hazard(s):
        return rate * s

    assert abs(ref.exp_event_rate(rate, accrual, follow_up, dropout) - _grid(lambda s: su(s) * density(s), accrual, follow_up)) < 1e-12
    assert abs(
        ref.exp_weight_null(rate, accrual, follow_up, dropout)
        - ref.weight_null_fixed_grid(density, cum_hazard, accrual, follow_up, dropout)
    ) < 1e-10


def test_exponential_moments_match_their_definitions():
    null_rate, alt_rate, accrual, follow_up = 0.35, 0.35 / 1.5, 3.0, 1.0
    mom = ref.exp_moments(null_rate, alt_rate, accrual, follow_up)

    def su(s):
        return ref.censoring_survival(s, accrual, follow_up)

    alt_surv = lambda s: np.exp(-alt_rate * s)  # noqa: E731
    expected = {
        "v1": _grid(lambda s: su(s) * alt_rate * alt_surv(s), accrual, follow_up),
        "v0": _grid(lambda s: su(s) * alt_surv(s) * null_rate, accrual, follow_up),
        "v01": _grid(lambda s: su(s) * alt_rate * alt_surv(s) * null_rate * s, accrual, follow_up),
        "v00": _grid(lambda s: su(s) * alt_surv(s) * null_rate * s * null_rate, accrual, follow_up),
    }
    for key, value in expected.items():
        assert abs(mom[key] - value) < 1e-12, key


@pytest.mark.parametrize("hr", [1.2, 1.5, 2.0])
@pytest.mark.parametrize("median", [1.0, 2.0, 4.0])
def test_exponential_sample_sizes_match_published_table(hr, median):
    null_rate = math.log(2.0) / median
    mom = ref.exp_moments(null_rate, null_rate / hr, 3.0, 1.0)
    weights = (0.0, 1.0, 0.5, ref.exp_weight_null(null_rate, 3.0, 1.0))
    for w, n_pub in zip(weights, published.GRID_SAMPLE_SIZES[(hr, 1.0)][median]):
        assert abs(math.ceil(ref.required_n(mom, w, 0.05, 0.2)) - n_pub) <= 1


def test_fixed_grid_weight_matches_published_liver_weight():
    w = ref.weight_null_fixed_grid(
        lambda s: ref.weibull_density(s, 1.22, 9.0),
        lambda s: ref.weibull_cum_hazard(s, 1.22, 9.0),
        5.0,
        3.0,
    )
    assert abs(w - published.LIVER_WEIGHT) < 1e-4


def test_fixed_grid_converges_for_a_weibull_law_with_a_singular_density():
    kwargs = dict(density=lambda s: ref.weibull_density(s, 0.25, 2.0),
                  cum_hazard=lambda s: ref.weibull_cum_hazard(s, 0.25, 2.0),
                  accrual=3.0, follow_up=1.0)
    # the published weight of the (median 2, shape 0.25) grid cell
    assert abs(ref.weight_null_fixed_grid(**kwargs) - 0.3199) < 1e-4


def test_km_weight_by_hand():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [False, True, False, False]
    # censoring-time jumps: 1/4 at 1, then 3/4 * 1/2 at 3 and the rest at 4
    jumps = {1.0: 0.25, 3.0: 0.375, 4.0: 0.375}
    num = sum(math.exp(-t) * t * j for t, j in jumps.items())
    den = sum((1.0 - math.exp(-t)) * j for t, j in jumps.items())
    assert ref.km_weight(times, events, lambda t: t) == pytest.approx(1.0 - num / den, rel=1e-14)


def test_km_weight_ties_share_the_risk_set():
    # two censoring observations and one event at time 1, with four at
    # risk: the estimator drops half its mass there and the rest at time 2
    w = ref.km_weight([1.0, 1.0, 1.0, 2.0], [False, False, True, False], lambda t: t)
    jumps = {1.0: 0.5, 2.0: 0.5}
    num = sum(math.exp(-t) * t * j for t, j in jumps.items())
    den = sum((1.0 - math.exp(-t)) * j for t, j in jumps.items())
    assert w == pytest.approx(1.0 - num / den, rel=1e-14)


def test_km_weight_without_censoring_information():
    assert ref.km_weight([1.0, 2.0], [True, True], lambda t: t) is None


def test_km_weight_is_consistent_for_the_planning_weight():
    rng = np.random.default_rng(5)
    n, rate, accrual, follow_up = 20_000, 0.5, 3.0, 1.0
    entry = accrual * rng.random(n)
    event_time = rng.standard_exponential(n) / rate
    horizon = accrual + follow_up - entry
    time = np.minimum(event_time, horizon)
    w = ref.km_weight(time.tolist(), (event_time <= horizon).tolist(), lambda t: rate * t)
    assert abs(w - ref.exp_weight_null(rate, accrual, follow_up)) < 0.02


def test_z_statistic_and_rejection_rules():
    assert ref.z_statistic(10, 10.0, 0.3) == 0.0
    z = ref.z_statistic(5, 12.0, 0.5)
    assert z == pytest.approx(-7.0 / math.sqrt(8.5))
    assert ref.rejections(z, 0.05) == {"reject_left": True, "reject_right": False, "reject_two_sided": True}
    assert ref.rejections(-z, 0.05) == {"reject_left": False, "reject_right": True, "reject_two_sided": True}
    assert ref.rejections(1.9, 0.05)["reject_two_sided"] is False
    assert ref.z_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)


def test_monte_carlo_bands():
    # 0.0193 published from 1e5 replications, a run of 1e5 at 0.0200:
    # combined se is about 6.2e-4, so the gap is about 1.1 se
    assert ref.within_published_band(0.0200, 100_000, 0.0193, 100_000, z=2.0)
    assert not ref.within_published_band(0.0200, 100_000, 0.0193, 100_000, z=1.0)
    # a smaller run widens the band
    assert ref.within_published_band(0.0230, 10_000, 0.0193, 100_000, z=2.5)
    assert ref.within_paired_bound(450, 470, z=3.0)
    assert not ref.within_paired_bound(450, 600, z=3.0)
