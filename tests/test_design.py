"""Design-time moments, weights, sample sizes, and accrual solving."""

import math

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import integrate as scipy_integrate

from singlearm import design
from singlearm.design import (
    DesignSpec,
    WeightPolicy,
    expected_event_rate,
    moments,
    power,
    resolve_weight,
    sample_size,
    solve_accrual_length,
    suggest_policy,
    weight_uncorrelated_alt,
    weight_uncorrelated_null,
)
from singlearm.errors import (
    CapExceededError,
    ConfigError,
    DegenerateDesignError,
    DomainError,
    InfeasibleDesignError,
    PolicyError,
)
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
from singlearm.numerics import integrate
from reference_values import CASE_STUDY, CASE_STUDY_WEIGHT

BENCHMARK_CENSORING = CensoringModel(UniformAccrual(3.0), NoDropout(), 4.0)


def benchmark_spec(shape, median, delta, policy):
    return DesignSpec(
        null_model=Weibull(shape, median),
        follow_up=1.0,
        weight_policy=policy,
        hazard_ratio=delta,
        accrual_length=3.0,
    )


def case_study_spec(policy):
    return DesignSpec(
        null_model=Weibull(1.22, 9.0),
        follow_up=3.0,
        weight_policy=policy,
        hazard_ratio=1.75,
        accrual_length=5.0,
    )


class TestWeightPolicy:
    def test_kinds_resolve(self):
        null = Weibull(1.0, 1.0)
        alt = hazard_ratio_alternative(null, 1.5)
        cens = BENCHMARK_CENSORING
        assert resolve_weight(WeightPolicy.compensator(), null, alt, cens) == 0.0
        assert resolve_weight(WeightPolicy.counting(), null, alt, cens) == 1.0
        assert resolve_weight(WeightPolicy.wu(), null, alt, cens) == 0.5
        assert resolve_weight(WeightPolicy.fixed(0.3), null, alt, cens) == 0.3

    def test_fixed_requires_valid_value(self):
        with pytest.raises(PolicyError):
            WeightPolicy.fixed(1.5)
        with pytest.raises(PolicyError):
            WeightPolicy.fixed(-0.1)
        with pytest.raises(PolicyError):
            WeightPolicy("fixed")

    def test_unknown_kind_rejected(self):
        with pytest.raises(PolicyError):
            WeightPolicy("winsorized")

    def test_labels(self):
        assert WeightPolicy.fixed(0.3).label == "fixed(0.3)"
        assert WeightPolicy.wu().label == "wu"

    def test_combined_takes_smaller_of_null_weight_and_half(self):
        cens = BENCHMARK_CENSORING
        high = Weibull(1.0, 1.0)  # null weight 0.6280, capped at 0.5
        w = resolve_weight(WeightPolicy.combined(), high, None, cens)
        assert w == 0.5
        pbc_cens = CensoringModel(UniformAccrual(5.0), NoDropout(), 8.0)
        low = Weibull(1.22, 9.0)  # null weight below 0.5, kept as is
        w = resolve_weight(WeightPolicy.combined(), low, None, pbc_cens)
        assert w == pytest.approx(
            weight_uncorrelated_null(low, pbc_cens), rel=1e-12
        )
        assert w < 0.5

    def test_random_km_not_resolvable_at_design_time(self):
        with pytest.raises(PolicyError):
            resolve_weight(WeightPolicy.random_km(), Weibull(1.0, 1.0), None, BENCHMARK_CENSORING)

    def test_uncorrelated_alt_needs_alternative(self):
        with pytest.raises(PolicyError):
            resolve_weight(WeightPolicy.uncorrelated_alt(), Weibull(1.0, 1.0), None, BENCHMARK_CENSORING)

    @pytest.mark.parametrize("kind", ["uncorrelated_null", "combined", "uncorrelated_alt"])
    def test_censoring_dependent_kinds_need_censoring(self, kind):
        null = Weibull(1.0, 1.0)
        with pytest.raises(PolicyError, match="censoring"):
            resolve_weight(WeightPolicy(kind), null, hazard_ratio_alternative(null, 1.5), None)


class TestMoments:
    def test_identity_alternative_collapses(self):
        null = Weibull(1.0, 2.0)
        mom = moments(null, null, BENCHMARK_CENSORING)
        assert mom.omega == pytest.approx(0.0, abs=1e-10)
        assert mom.v1 == pytest.approx(mom.v0, abs=1e-10)
        rate = expected_event_rate(null, BENCHMARK_CENSORING)
        assert mom.v1 == pytest.approx(rate, abs=1e-10)

    def test_event_rate_reduces_to_cdf_without_censoring(self):
        # Instant accrual and no dropout leave only the administrative cutoff.
        model = Exponential(1.0)
        cens = CensoringModel(UniformAccrual(1e-9), NoDropout(), 1.0)
        assert expected_event_rate(model, cens) == pytest.approx(1.0 - model.survival(1.0), abs=1e-6)

    def test_fewer_events_under_protective_alternative(self):
        null = Weibull(1.0, 1.0)
        alt = hazard_ratio_alternative(null, 2.0)
        rate_null = expected_event_rate(null, BENCHMARK_CENSORING)
        rate_alt = expected_event_rate(alt, BENCHMARK_CENSORING)
        mom = moments(null, alt, BENCHMARK_CENSORING)
        assert mom.v1 == pytest.approx(rate_alt, abs=1e-9)
        assert rate_alt < rate_null
        assert mom.omega < 0.0
        assert mom.v1 < mom.v0

    def test_sigma_bar_interpolates(self):
        null = Weibull(1.0, 1.0)
        mom = moments(null, hazard_ratio_alternative(null, 1.5), BENCHMARK_CENSORING)
        assert mom.sigma_bar_sq(1.0) == pytest.approx(mom.v1, rel=1e-15)
        assert mom.sigma_bar_sq(0.0) == pytest.approx(mom.v0, rel=1e-15)
        mid = mom.sigma_bar_sq(0.5)
        assert min(mom.v0, mom.v1) <= mid <= max(mom.v0, mom.v1)


class TestNullWeight:
    def test_benchmark_anchor(self):
        w = weight_uncorrelated_null(Weibull(1.0, 1.0), BENCHMARK_CENSORING)
        assert w == pytest.approx(0.6280, abs=5e-4)

    def test_unit_exponential_with_dropout_anchor(self):
        cens = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.1), 2.0)
        w = weight_uncorrelated_null(Exponential(math.log(2.0)), cens)
        assert w == pytest.approx(0.4215, abs=5e-4)

    def test_degenerate_when_no_events_possible(self):
        # Overwhelming dropout drives the event probability to numerical zero.
        cens = CensoringModel(UniformAccrual(1.0), ExponentialDropout(1e6), 2.0)
        with pytest.raises(DegenerateDesignError):
            weight_uncorrelated_null(Weibull(1.0, 1.0), cens)

    def test_alt_weight_equals_null_weight_under_identity(self):
        null = Weibull(2.0, 2.0)
        w0 = weight_uncorrelated_null(null, BENCHMARK_CENSORING)
        w1 = weight_uncorrelated_alt(null, null, BENCHMARK_CENSORING)
        assert w1 == pytest.approx(w0, abs=1e-9)

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.5, 4.0),
        st.floats(1.1, 2.5),
        st.floats(0.0, 0.3),
    )
    @hyp_settings(max_examples=25)
    def test_weights_stay_in_unit_interval(self, shape, median, delta, dropout_rate):
        null = Weibull(shape, median)
        cens = CensoringModel(
            UniformAccrual(2.0), dropout_from_yearly_rate(dropout_rate), 3.0
        )
        alt = hazard_ratio_alternative(null, delta)
        w0 = weight_uncorrelated_null(null, cens)
        w1 = weight_uncorrelated_alt(null, alt, cens)
        assert -1e-9 <= w0 <= 1.0 + 1e-9
        # the alternative weight's bound needs a non-positive covariance of
        # compensator and count (see weight_uncorrelated_alt and the strict
        # xfail for steep hazards)
        mom = moments(null, alt, cens)
        if mom.v01 - mom.v0 * mom.v1 <= 0.0:
            assert -1e-9 <= w1 <= 1.0 + 1e-9


def quad_over_cum_hazard(model, censoring, kinks, integrand):
    """Test-only oracle: QUADPACK on a scalar integrand(S_U(s), s, u) over
    u = Lambda(s), at a tolerance well below the design rule's."""

    def f(u):
        s = float(model.inverse_cum_hazard(u))
        return integrand(float(censoring.survival_u(s)), s, u)

    hi = float(model.cum_hazard(censoring.analysis_time))
    points = sorted({float(model.cum_hazard(k)) for k in kinks if 0.0 < k < censoring.analysis_time})
    return scipy_integrate.quad(f, 0.0, hi, points=points or None, epsabs=1e-14, epsrel=1e-13, limit=500)[0]


def exp_j(kappa, accrual, follow_up):
    """int_0^t F_Y((t - s)+) e^(-kappa s) ds under uniform accrual."""
    t = accrual + follow_up
    return 1.0 / kappa - (math.exp(-kappa * follow_up) - math.exp(-kappa * t)) / (accrual * kappa**2)


def exp_minus_dj(kappa, accrual, follow_up):
    """int_0^t s F_Y((t - s)+) e^(-kappa s) ds, the negated kappa-derivative of exp_j."""
    t = accrual + follow_up
    ef, et = math.exp(-kappa * follow_up), math.exp(-kappa * t)
    return (
        1.0 / kappa**2
        + (t * et - follow_up * ef) / (accrual * kappa**2)
        - 2.0 * (ef - et) / (accrual * kappa**3)
    )


LAWS = st.one_of(
    st.builds(Weibull, st.floats(0.3, 3.0), st.floats(0.5, 10.0)),
    st.integers(1, 3).flatmap(
        lambda k: st.builds(
            PiecewiseExponential,
            st.lists(st.floats(0.2, 5.0), min_size=k, max_size=k, unique=True).map(lambda b: tuple(sorted(b))),
            st.lists(st.floats(0.05, 1.0), min_size=k + 1, max_size=k + 1).map(tuple),
        )
    ),
)


class TestQuadratureOracles:
    # relative 1e-10, or the rule's absolute floor of 1e-13 for small integrals
    TOL = dict(rel=1e-10, abs=1e-13)

    @given(
        LAWS,
        st.floats(1.1, 2.5),
        st.floats(1.0, 5.0),
        st.floats(0.5, 3.0),
        st.floats(0.5, 2.0),
        st.floats(0.0, 0.3),
    )
    @hyp_settings(max_examples=15, deadline=None)
    def test_moments_and_null_weight_match_quadpack(self, null, delta, accrual, follow_up, exponent, dropout):
        alt = hazard_ratio_alternative(null, delta)
        cens = CensoringModel(
            PowerAccrual(accrual, exponent), dropout_from_yearly_rate(dropout), accrual + follow_up
        )
        kinks = (*cens.breakpoints, *null.kinks)
        lam0 = lambda s: float(null.cum_hazard(s))
        s_alt = lambda s: float(alt.survival(s))
        mom = moments(null, alt, cens)
        assert mom.v1 == pytest.approx(
            quad_over_cum_hazard(alt, cens, kinks, lambda su, s, u: su * math.exp(-u)), **self.TOL)
        assert mom.v01 == pytest.approx(
            quad_over_cum_hazard(alt, cens, kinks, lambda su, s, u: su * lam0(s) * math.exp(-u)), **self.TOL)
        assert mom.v0 == pytest.approx(
            quad_over_cum_hazard(null, cens, kinks, lambda su, s, u: su * s_alt(s)), **self.TOL)
        assert mom.v00 == pytest.approx(
            quad_over_cum_hazard(null, cens, kinks, lambda su, s, u: su * s_alt(s) * u), **self.TOL)
        rate = quad_over_cum_hazard(null, cens, kinks, lambda su, s, u: su * math.exp(-u))
        numerator = quad_over_cum_hazard(null, cens, kinks, lambda su, s, u: su * u * math.exp(-u))
        # the numerator's absolute floor, carried through the division
        assert weight_uncorrelated_null(null, cens) == pytest.approx(numerator / rate, rel=1e-10, abs=1e-13 / rate)

    @given(
        st.floats(0.1, 2.0),
        st.floats(1.1, 2.5),
        st.floats(1.0, 5.0),
        st.floats(0.5, 3.0),
        st.floats(0.0, 0.3),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_exponential_laws_match_closed_forms(self, rate, delta, accrual, follow_up, dropout):
        # with kappa the event plus dropout hazard, every integral is
        # J(kappa) = int F_Y((t - s)+) e^(-kappa s) ds or -J'(kappa)
        null, alt = Exponential(rate), Exponential(rate / delta)
        dropout_model = dropout_from_yearly_rate(dropout)
        hazard = 0.0 if dropout == 0.0 else dropout_model.hazard
        cens = CensoringModel(UniformAccrual(accrual), dropout_model, accrual + follow_up)
        kappa_null, kappa_alt = rate + hazard, alt.rate + hazard
        j_null, j_alt = exp_j(kappa_null, accrual, follow_up), exp_j(kappa_alt, accrual, follow_up)
        mj_alt = exp_minus_dj(kappa_alt, accrual, follow_up)
        mom = moments(null, alt, cens)
        assert mom.v1 == pytest.approx(alt.rate * j_alt, **self.TOL)
        assert mom.v0 == pytest.approx(rate * j_alt, **self.TOL)
        assert mom.v01 == pytest.approx(alt.rate * rate * mj_alt, **self.TOL)
        assert mom.v00 == pytest.approx(rate**2 * mj_alt, **self.TOL)
        assert expected_event_rate(null, cens) == pytest.approx(rate * j_null, **self.TOL)
        w0 = rate * exp_minus_dj(kappa_null, accrual, follow_up) / j_null
        assert weight_uncorrelated_null(null, cens) == pytest.approx(w0, rel=1e-10, abs=1e-13 / (rate * j_null))


class TestSampleSize:
    def test_case_study_all_policies(self):
        for kind, (n_expected, *_rest) in CASE_STUDY.items():
            result = sample_size(case_study_spec(WeightPolicy(kind)))
            assert result.n == n_expected, kind
        unc = sample_size(case_study_spec(WeightPolicy.uncorrelated_null()))
        assert unc.weight_used == pytest.approx(CASE_STUDY_WEIGHT, abs=1e-3)
        assert unc.achieved_power >= 0.8
        assert unc.analysis_time == 8.0

    @pytest.mark.parametrize(
        "policy",
        [WeightPolicy(kind) for kind in ("compensator", "counting", "wu", "uncorrelated_null",
                                          "uncorrelated_alt", "combined")] + [WeightPolicy.fixed(0.3)],
        ids=lambda policy: policy.label,
    )
    def test_two_quadratures_per_design(self, policy, monkeypatch):
        # one quadrature over each law's cumulative hazard gives every
        # planning integral, whatever the policy
        calls = []

        def counting_integrate(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(design, "integrate", counting_integrate)
        spec = case_study_spec(policy)
        result = sample_size(spec)
        assert len(calls) == 2
        # the public functions return exactly the bits that the design reports
        null, alt = spec.null_model, spec.resolved_alternative()
        censoring = spec.censoring_at(spec.accrual_length)
        assert result.expected_event_rate_null == expected_event_rate(null, censoring)
        assert result.expected_event_rate_alt == expected_event_rate(alt, censoring)
        assert result.moments == moments(null, alt, censoring)
        assert result.weight_used == resolve_weight(policy, null, alt, censoring)
        if policy.kind == "uncorrelated_null":
            assert result.weight_used == weight_uncorrelated_null(null, censoring)

    def test_benchmark_anchor_cell(self):
        expected = {"compensator": 29, "counting": 18, "wu": 24, "uncorrelated_null": 22}
        for kind, n_expected in expected.items():
            result = sample_size(benchmark_spec(1.0, 1.0, 2.0, WeightPolicy(kind)))
            assert result.n == n_expected, kind

    def test_monotone_in_weight_when_alternative_reduces_events(self):
        # v1 < v0 here, so larger weights shrink the required size.
        sizes = [
            sample_size(benchmark_spec(1.0, 2.0, 1.5, WeightPolicy.fixed(w))).n
            for w in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_identity_alternative_infeasible(self):
        with pytest.raises(InfeasibleDesignError):
            sample_size(benchmark_spec(1.0, 1.0, 1.0, WeightPolicy.wu()))

    def test_cap_exceeded(self):
        spec = DesignSpec(
            null_model=Weibull(1.0, 1.0),
            follow_up=1.0,
            weight_policy=WeightPolicy.wu(),
            hazard_ratio=1.001,
            accrual_length=3.0,
            sample_size_cap=1000,
        )
        with pytest.raises(CapExceededError):
            sample_size(spec)

    def test_requires_accrual_length(self):
        spec = DesignSpec(
            null_model=Weibull(1.0, 1.0),
            follow_up=1.0,
            weight_policy=WeightPolicy.wu(),
            hazard_ratio=1.5,
            accrual_rate=10.0,
        )
        with pytest.raises(ConfigError):
            sample_size(spec)

    def test_explicit_alternative_matches_hazard_ratio(self):
        by_ratio = sample_size(benchmark_spec(2.0, 2.0, 1.5, WeightPolicy.wu()))
        spec = DesignSpec(
            null_model=Weibull(2.0, 2.0),
            follow_up=1.0,
            weight_policy=WeightPolicy.wu(),
            alternative=hazard_ratio_alternative(Weibull(2.0, 2.0), 1.5),
            accrual_length=3.0,
        )
        assert sample_size(spec).n == by_ratio.n

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            DesignSpec(
                null_model=Weibull(1.0, 1.0),
                follow_up=1.0,
                weight_policy=WeightPolicy.wu(),
                accrual_length=3.0,
            )
        with pytest.raises(ConfigError):
            DesignSpec(
                null_model=Weibull(1.0, 1.0),
                follow_up=1.0,
                weight_policy=WeightPolicy.wu(),
                hazard_ratio=1.5,
                alternative=Weibull(1.0, 2.0),
                accrual_length=3.0,
            )
        with pytest.raises(ConfigError):
            DesignSpec(
                null_model=Weibull(1.0, 1.0),
                follow_up=1.0,
                weight_policy=WeightPolicy.wu(),
                hazard_ratio=1.5,
                accrual_length=3.0,
                accrual_rate=10.0,
            )
        with pytest.raises(DomainError):
            DesignSpec(
                null_model=Weibull(1.0, 1.0),
                follow_up=1.0,
                weight_policy=WeightPolicy.wu(),
                hazard_ratio=1.5,
                accrual_length=3.0,
                alpha=1.2,
            )


class TestPower:
    def test_ceiling_consistency(self):
        for kind in ("compensator", "counting", "wu", "uncorrelated_null"):
            spec = case_study_spec(WeightPolicy(kind))
            n = sample_size(spec).n
            assert power(spec, n) >= 0.8
            assert power(spec, n - 1) < 0.8

    def test_monotone_in_n(self):
        spec = benchmark_spec(1.0, 2.0, 1.5, WeightPolicy.wu())
        values = [power(spec, n) for n in (20, 50, 100, 200, 400)]
        assert values == sorted(values)
        assert values[-1] > 0.99 or power(spec, 2000) > 0.999

    def test_near_null_alternative_gives_near_size_power(self):
        spec = benchmark_spec(1.0, 1.0, 1.0005, WeightPolicy.wu())
        p = power(spec, 5)
        assert 0.0 < p < 0.1


class TestSolveAccrualLength:
    def test_recovers_fixed_length_design(self):
        # The closed design at length 5 needs 106 subjects; offering the
        # matching rate of 21.2 per period solves back to about length 5.
        spec = DesignSpec(
            null_model=Weibull(1.22, 9.0),
            follow_up=3.0,
            weight_policy=WeightPolicy.uncorrelated_null(),
            hazard_ratio=1.75,
            accrual_rate=21.2,
        )
        result = solve_accrual_length(spec)
        assert result.n == 106
        assert 4.9 < result.accrual_length < 5.01
        assert result.analysis_time == pytest.approx(result.accrual_length + 3.0)

    def test_faster_accrual_shortens_the_trial(self):
        lengths = []
        for rate in (10.0, 20.0, 40.0):
            spec = DesignSpec(
                null_model=Weibull(1.22, 9.0),
                follow_up=3.0,
                weight_policy=WeightPolicy.wu(),
                hazard_ratio=1.75,
                accrual_rate=rate,
            )
            lengths.append(solve_accrual_length(spec).accrual_length)
        assert lengths == sorted(lengths, reverse=True)

    def test_supplied_subjects_cover_requirement(self):
        for rate in (8.0, 21.2, 55.0):
            spec = DesignSpec(
                null_model=Weibull(1.22, 9.0),
                follow_up=3.0,
                weight_policy=WeightPolicy.uncorrelated_null(),
                hazard_ratio=1.75,
                accrual_rate=rate,
            )
            result = solve_accrual_length(spec)
            achieved = power(
                DesignSpec(
                    null_model=Weibull(1.22, 9.0),
                    follow_up=3.0,
                    weight_policy=WeightPolicy.uncorrelated_null(),
                    hazard_ratio=1.75,
                    accrual_length=result.accrual_length,
                ),
                result.n,
            )
            assert achieved >= 0.8 - 1e-6

    def test_rate_too_low_is_infeasible(self):
        spec = DesignSpec(
            null_model=Weibull(1.22, 9.0),
            follow_up=3.0,
            weight_policy=WeightPolicy.wu(),
            hazard_ratio=1.75,
            accrual_rate=0.5,
            max_accrual_length=20.0,
        )
        with pytest.raises(InfeasibleDesignError):
            solve_accrual_length(spec)

    def test_requires_accrual_rate(self):
        with pytest.raises(ConfigError):
            solve_accrual_length(benchmark_spec(1.0, 1.0, 1.5, WeightPolicy.wu()))


def design_fields(result):
    m = result.moments
    return (
        result.n, result.weight_used, result.accrual_length, result.analysis_time,
        m.v1, m.v0, m.v01, m.v00,
        result.expected_event_rate_null, result.expected_event_rate_alt, result.achieved_power,
    )


class TestGoldenDesigns:
    """Exact design numbers. Any change to the quadrature (integrand factor
    order, breakpoints, accuracy targets) or to the sample-size and power
    formulas shows up here; such a change must be declared, not absorbed by
    quietly re-recording these values."""

    # n, weight, accrual length, analysis time, v1, v0, v01, v00,
    # event rate under the reference law, under the alternative, achieved power
    LIVER_MOMENTS = (
        0.19493982736142546, 0.3411446978824946, 0.039018802882236574, 0.068282905043914,
        0.3136293608279162, 0.19493982736142546,
    )
    LIVER = {
        "compensator": (113, 0.0, 5.0, 8.0, *LIVER_MOMENTS, 0.8022888467654371),
        "counting": (76, 1.0, 5.0, 8.0, *LIVER_MOMENTS, 0.8021792370999913),
        "wu": (95, 0.5, 5.0, 8.0, *LIVER_MOMENTS, 0.8028016717284672),
        "uncorrelated_null": (106, 0.1923290432951066, 5.0, 8.0, *LIVER_MOMENTS, 0.8018767600064522),
        "uncorrelated_alt": (106, 0.20539250131515494, 5.0, 8.0, *LIVER_MOMENTS, 0.8038070832854156),
        "combined": (106, 0.1923290432951066, 5.0, 8.0, *LIVER_MOMENTS, 0.8018767600064522),
    }

    @pytest.mark.parametrize("kind", sorted(LIVER))
    def test_liver_case(self, kind):
        assert design_fields(sample_size(case_study_spec(WeightPolicy(kind)))) == self.LIVER[kind]

    def test_dropout_and_back_loaded_accrual(self):
        spec = DesignSpec(
            null_model=Weibull(1.5, 2.0),
            follow_up=1.0,
            weight_policy=WeightPolicy.uncorrelated_alt(),
            hazard_ratio=1.5,
            accrual_length=3.0,
            accrual_exponent=2.0,
            dropout=dropout_from_yearly_rate(0.2),
        )
        assert design_fields(sample_size(spec)) == (
            147, 0.3708684252665359, 3.0, 4.0,
            0.2788091196995059, 0.41821367954925887, 0.09483277793501092, 0.14224916690251638,
            0.3750915825434418, 0.2788091196995059, 0.8012807501394194,
        )

    def test_piecewise_exponential(self):
        spec = DesignSpec(
            null_model=PiecewiseExponential((1.0, 3.0), (0.2, 0.4, 0.1)),
            follow_up=2.0,
            weight_policy=WeightPolicy.uncorrelated_null(),
            hazard_ratio=1.6,
            accrual_length=2.5,
            dropout=dropout_from_yearly_rate(0.1),
        )
        assert design_fields(sample_size(spec)) == (
            78, 0.3857420666019215, 2.5, 4.5,
            0.38396131923439286, 0.6143381107750286, 0.15959709631301147, 0.2553553541008183,
            0.5286535328528438, 0.38396131923439286, 0.8021475603769405,
        )

    def test_accrual_rate_solve(self):
        spec = DesignSpec(
            null_model=Weibull(1.22, 9.0),
            follow_up=3.0,
            weight_policy=WeightPolicy.uncorrelated_null(),
            hazard_ratio=1.75,
            accrual_rate=21.2,
        )
        assert design_fields(solve_accrual_length(spec)) == (
            106, 0.19200667202308808, 4.985640948344437, 7.985640948344437,
            0.19466563129167652, 0.34066485476043395, 0.038894891948533954, 0.06806606090993442,
            0.3132336330345511, 0.19466563129167652, 0.8012539013274117,
        )

    def test_power(self):
        assert power(case_study_spec(WeightPolicy.combined()), 90) == 0.7267088225183711


class TestSuggestPolicy:
    def test_thresholds(self):
        assert suggest_policy(0.3) == "uncorrelated_null"
        assert suggest_policy(0.70) == "uncorrelated_null"
        assert suggest_policy(0.71) == "wu"
        assert suggest_policy(0.95) == "wu"

    def test_domain(self):
        with pytest.raises(DomainError):
            suggest_policy(-0.1)
        with pytest.raises(DomainError):
            suggest_policy(1.5)
