"""Survival, accrual, dropout, and censoring model behavior."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from singlearm.errors import DomainError
from singlearm.models import (
    CensoringModel,
    Exponential,
    ExponentialDropout,
    NoDropout,
    PiecewiseExponential,
    PowerAccrual,
    UniformAccrual,
    Weibull,
    dropout_from_yearly_rate,
    hazard_ratio_alternative,
)

LOG_TWO = math.log(2.0)

# 1% critical value of the Kolmogorov statistic, scaled by sqrt(n).
KS_CRITICAL = 1.63


@st.composite
def piecewise_models(draw):
    k = draw(st.integers(0, 3))
    widths = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    rates = draw(st.lists(st.floats(0.05, 5.0), min_size=k + 1, max_size=k + 1))
    return PiecewiseExponential(tuple(itertools.accumulate(widths)), tuple(rates))


survival_models = st.one_of(
    st.builds(Weibull, st.floats(0.2, 4.0), st.floats(0.2, 8.0)),
    st.builds(Exponential, st.floats(0.05, 5.0)),
    piecewise_models(),
)


class TestSurvivalModels:
    def test_weibull_median_anchor(self):
        model = Weibull(1.22, 9.0)
        assert model.inverse_cum_hazard(LOG_TWO) == pytest.approx(9.0, abs=1e-12)
        assert model.cum_hazard(9.0) == pytest.approx(LOG_TWO, abs=1e-14)

    def test_weibull_closed_form(self):
        model = Weibull(2.0, 1.0)
        assert model.cum_hazard(2.0) == pytest.approx(4.0 * LOG_TWO, rel=1e-14)
        assert model.survival(2.0) == pytest.approx(0.0625, rel=1e-12)

    def test_exponential_median_roundtrip(self):
        model = Exponential.from_median(2.0)
        assert model.rate == pytest.approx(LOG_TWO / 2.0, rel=1e-15)
        assert model.median == pytest.approx(2.0, rel=1e-15)

    def test_exponential_matches_weibull_shape_one(self):
        exp = Exponential.from_median(3.0)
        wei = Weibull(1.0, 3.0)
        for s in (0.1, 1.0, 2.5, 7.0):
            assert exp.cum_hazard(s) == pytest.approx(wei.cum_hazard(s), rel=1e-12)

    def test_piecewise_hand_values(self):
        model = PiecewiseExponential(breakpoints=(1.0, 2.0), rates=(1.0, 2.0, 3.0))
        assert model.cum_hazard(0.5) == pytest.approx(0.5, rel=1e-15)
        assert model.cum_hazard(1.5) == pytest.approx(2.0, rel=1e-15)
        assert model.cum_hazard(2.5) == pytest.approx(4.5, rel=1e-15)
        # the cumulative hazard rises at the segment's rate
        assert model.cum_hazard(1.75) - model.cum_hazard(1.25) == pytest.approx(1.0, rel=1e-12)
        for z in (0.25, 1.7, 4.0):
            assert model.cum_hazard(model.inverse_cum_hazard(z)) == pytest.approx(z, rel=1e-12)

    def test_piecewise_validation(self):
        with pytest.raises(DomainError):
            PiecewiseExponential(breakpoints=(2.0, 1.0), rates=(1.0, 1.0, 1.0))
        with pytest.raises(DomainError):
            PiecewiseExponential(breakpoints=(1.0,), rates=(1.0,))

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Weibull(-1.0, 2.0)
        with pytest.raises(DomainError):
            Weibull(1.0, 0.0)
        with pytest.raises(DomainError):
            Exponential(0.0)

    @given(survival_models, st.floats(0.01, 20.0))
    def test_survival_identities(self, model, s):
        lam = model.cum_hazard(s)
        assert model.survival(s) == pytest.approx(math.exp(-lam), abs=1e-12)

    @given(survival_models, st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_cum_hazard_monotone(self, model, s1, s2):
        lo, hi = sorted((s1, s2))
        assert model.cum_hazard(lo) <= model.cum_hazard(hi) + 1e-12

    @given(survival_models, st.floats(0.001, 20.0))
    def test_cum_hazard_inverts_inverse_cum_hazard(self, model, u):
        assert model.cum_hazard(model.inverse_cum_hazard(u)) == pytest.approx(u, rel=1e-10, abs=1e-12)

    def test_array_transparency(self):
        model = Weibull(1.5, 2.0)
        s = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(model.survival(s), [model.survival(v) for v in s], rtol=1e-14)
        assert isinstance(model.survival(1.0), float)


class TestHazardRatioAlternative:
    def test_exponential_median_doubles(self):
        alt = hazard_ratio_alternative(Exponential.from_median(1.0), 2.0)
        assert alt.median == pytest.approx(2.0, rel=1e-12)

    def test_identity_ratio(self):
        null = Weibull(1.3, 2.0)
        alt = hazard_ratio_alternative(null, 1.0)
        assert alt == null

    def test_weibull_median_scaling(self):
        # With shape 2, a hazard ratio of 4 doubles the median.
        alt = hazard_ratio_alternative(Weibull(2.0, 1.0), 4.0)
        assert isinstance(alt, Weibull)
        assert alt.shape == 2.0
        assert alt.median == pytest.approx(2.0, rel=1e-12)

    def test_piecewise_rates_scale(self):
        null = PiecewiseExponential(breakpoints=(1.0,), rates=(2.0, 4.0))
        alt = hazard_ratio_alternative(null, 2.0)
        assert alt.rates == (1.0, 2.0)
        assert alt.breakpoints == (1.0,)

    @given(survival_models, st.floats(1.05, 5.0), st.floats(0.05, 10.0))
    def test_cum_hazard_divided_exactly(self, null, delta, s):
        alt = hazard_ratio_alternative(null, delta)
        assert alt.cum_hazard(s) == pytest.approx(null.cum_hazard(s) / delta, rel=1e-10)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(DomainError):
            hazard_ratio_alternative(Exponential(1.0), 0.0)


class TestAccrualAndDropout:
    def test_uniform_accrual_cdf(self):
        acc = UniformAccrual(4.0)
        assert acc.cdf(1.0) == 0.25
        assert acc.cdf(5.0) == 1.0
        assert acc.quantile(0.5) == 2.0

    def test_power_accrual_cdf(self):
        acc = PowerAccrual(2.0, 2.0)
        assert acc.cdf(1.0) == 0.25
        assert acc.quantile(0.25) == pytest.approx(1.0, rel=1e-12)

    def test_power_accrual_exponent_one_matches_uniform(self):
        uni, pow1 = UniformAccrual(3.0), PowerAccrual(3.0, 1.0)
        for y in (0.0, 1.0, 2.9):
            assert uni.cdf(y) == pytest.approx(pow1.cdf(y), rel=1e-15)

    def test_no_dropout(self):
        model = NoDropout()
        assert model.survival(100.0) == 1.0
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state
        draws = model.sample(rng, 4)
        assert draws.shape == (4,) and np.all(np.isinf(draws))
        # No randomness consumed, so downstream draws stay aligned.
        assert rng.bit_generator.state == state_before

    def test_exponential_dropout_yearly_rate(self):
        model = ExponentialDropout.from_yearly_rate(0.1)
        assert model.survival(1.0) == pytest.approx(0.9, rel=1e-12)
        assert dropout_from_yearly_rate(0.0) == NoDropout()
        assert dropout_from_yearly_rate(0.1) == model

    def test_yearly_rate_domain(self):
        with pytest.raises(DomainError):
            dropout_from_yearly_rate(1.0)
        with pytest.raises(DomainError):
            dropout_from_yearly_rate(-0.2)


class TestCensoringModel:
    def make(self, accrual_length=1.0, analysis_time=2.0, dropout=None):
        return CensoringModel(
            UniformAccrual(accrual_length),
            NoDropout() if dropout is None else dropout,
            analysis_time,
        )

    def test_su_no_dropout_before_full_overlap(self):
        cens = self.make()
        # Everyone has entered by analysis_time - accrual_length.
        assert cens.survival_u(0.5) == 1.0
        assert cens.survival_u(1.0) == 1.0

    def test_su_administrative_ramp(self):
        cens = self.make()
        assert cens.survival_u(1.5) == pytest.approx(0.5, rel=1e-12)
        assert cens.survival_u(2.0) == 0.0
        assert cens.survival_u(3.0) == 0.0

    def test_su_with_dropout(self):
        cens = self.make(dropout=ExponentialDropout.from_yearly_rate(0.1))
        assert cens.survival_u(1.5) == pytest.approx(0.9**1.5 * 0.5, rel=1e-12)

    def test_su_monotone_nonincreasing(self):
        cens = self.make(dropout=ExponentialDropout(0.3))
        grid = np.linspace(0.0, 2.0, 41)
        values = [cens.survival_u(s) for s in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_breakpoints(self):
        assert self.make().breakpoints == (1.0,)
        # Accrual spanning the whole study leaves no interior kink.
        assert self.make(accrual_length=2.0).breakpoints == ()
        assert self.make(accrual_length=3.0).breakpoints == ()

    def test_validation(self):
        with pytest.raises(DomainError):
            CensoringModel(UniformAccrual(1.0), NoDropout(), 0.0)


class TestSampling:
    """Draws made as the simulation kernel makes them: event times as the
    inverse cumulative hazard of unit exponentials, entries as the accrual
    quantile of uniforms, dropout from the dropout law."""

    def test_event_time_inverse_transform(self):
        model = Weibull(1.22, 9.0)
        draws = model.inverse_cum_hazard(np.random.default_rng(1).standard_exponential(100_000))
        grid = np.quantile(draws, [0.25, 0.5, 0.75])
        expected = [model.inverse_cum_hazard(-math.log1p(-p)) for p in (0.25, 0.5, 0.75)]
        np.testing.assert_allclose(grid, expected, rtol=0.02)

    @pytest.mark.parametrize(
        "model",
        [
            Weibull(1.22, 9.0),
            Exponential(0.7),
            PowerAccrual(2.0, 2.0),
            UniformAccrual(3.0),
            ExponentialDropout(0.5),
        ],
    )
    def test_sampling_matches_cdf(self, model):
        n = 100_000
        rng = np.random.default_rng(12345)
        if isinstance(model, ExponentialDropout):
            draws, target_cdf = model.sample(rng, n), lambda s: 1.0 - model.survival(s)
        elif isinstance(model, (PowerAccrual, UniformAccrual)):
            draws, target_cdf = model.quantile(rng.random(n)), model.cdf
        else:
            draws = model.inverse_cum_hazard(rng.standard_exponential(n))
            target_cdf = lambda s: 1.0 - model.survival(s)
        draws = np.sort(draws)
        ecdf = np.arange(1, n + 1) / n
        stat = np.max(np.abs(ecdf - target_cdf(draws)))
        assert stat < KS_CRITICAL / math.sqrt(n)

    def test_no_dropout_sampling(self):
        draws = NoDropout().sample(np.random.default_rng(0), 3)
        assert np.all(np.isinf(draws))
