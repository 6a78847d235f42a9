"""Counting/compensator statistics, the weighted test, and the KM weight."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from singlearm.analysis import (
    TrialDataset,
    consistency_check_random_weight,
    counting_and_compensator,
    km_weight_from_arrays,
    run_test,
)
from singlearm.design import WeightPolicy, weight_uncorrelated_null
from singlearm.errors import (
    DataValidationError,
    IndeterminateTestError,
    PolicyError,
)
from singlearm.models import (
    CensoringModel,
    Exponential,
    NoDropout,
    PiecewiseExponential,
    UniformAccrual,
    Weibull,
    dropout_from_yearly_rate,
)

LOG_TWO = math.log(2.0)


def dataset(rows, analysis_time=8.0):
    """Dataset from (entry, time on study, event, dropout) rows; a dropout
    column of all None means the data carry no dropout flags."""
    entry, time, event, dropout = zip(*rows)
    if all(flag is None for flag in dropout):
        dropout = None
    return TrialDataset.from_arrays(entry, time, event, analysis_time, dropout)


def first_bad_record(rows, flagged, t):
    """Per-record reference for dataset validation: every record's own rules
    in record order, then the analysis-time rules in record order."""
    for i, (y, x, event, dropout) in enumerate(rows):
        if not (y >= 0.0 and math.isfinite(y)):
            return i, f"entry time must be finite and non-negative, got {y}"
        if not (x >= 0.0 and math.isfinite(x)):
            return i, f"time on study must be finite and non-negative, got {x}"
        if flagged and event and dropout:
            return i, "a subject cannot both have an event and drop out"
    for i, (y, x, _, _) in enumerate(rows):
        horizon = max(t - y, 0.0)
        if y > t:
            return i, f"entry time {y} lies after the analysis time {t}"
        if x > horizon + 1e-9:
            return i, f"time on study {x} exceeds the administrative horizon {horizon:.6g}"
    return None


THREE_SUBJECTS = dataset(
    [
        (0.5, 7.5, True, None),
        (3.5, 4.5, True, None),
        (1.0, 6.0, False, None),
    ]
)
NULL_MEDIAN_NINE = Exponential.from_median(9.0)


class TestCountingAndCompensator:
    def test_single_event_at_reference_median(self):
        data = dataset([(0.0, 9.0, True, None)], analysis_time=9.0)
        n_events, a0 = counting_and_compensator(data, NULL_MEDIAN_NINE)
        assert n_events == 1
        assert a0 == pytest.approx(LOG_TWO, rel=1e-14)

    def test_three_subject_arithmetic(self):
        n_events, a0 = counting_and_compensator(THREE_SUBJECTS, NULL_MEDIAN_NINE)
        assert n_events == 2
        assert a0 == pytest.approx((7.5 + 4.5 + 6.0) * LOG_TWO / 9.0, rel=1e-14)

    def test_zero_follow_up(self):
        data = dataset([(0.0, 0.0, False, None), (1.0, 0.0, False, None)])
        n_events, a0 = counting_and_compensator(data, NULL_MEDIAN_NINE)
        assert n_events == 0
        assert a0 == 0.0


class TestRunTest:
    def test_statistic_formula(self):
        outcome = run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.fixed(0.1923))
        a0 = (7.5 + 4.5 + 6.0) * LOG_TWO / 9.0
        expected = (2.0 - a0) / math.sqrt(0.1923 * 2.0 + (1.0 - 0.1923) * a0)
        assert outcome.statistic == pytest.approx(expected, rel=1e-14)
        assert outcome.n == 3
        assert outcome.events == 2
        assert outcome.expected == pytest.approx(a0, rel=1e-14)

    def test_compensator_weight_gives_classical_statistic(self):
        outcome = run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.compensator())
        a0 = outcome.expected
        assert outcome.statistic == pytest.approx((2.0 - a0) / math.sqrt(a0), rel=1e-14)

    def test_wu_is_the_half_weight(self):
        by_name = run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.wu())
        by_value = run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.fixed(0.5))
        assert by_name.statistic == by_value.statistic
        assert by_name.p_two_sided == by_value.p_two_sided
        assert by_name.p_left == by_value.p_left
        assert by_name.weight == by_value.weight == 0.5

    def test_replicating_records_scales_statistic_by_sqrt(self):
        # Four copies of every record scale N and A0 by four exactly.
        rows = [(0.5, 7.5, True, None), (3.5, 4.5, True, None), (1.0, 6.0, False, None)]
        single = run_test(dataset(rows), NULL_MEDIAN_NINE, WeightPolicy.wu())
        repeated = run_test(dataset(rows * 4), NULL_MEDIAN_NINE, WeightPolicy.wu())
        assert repeated.statistic == pytest.approx(2.0 * single.statistic, rel=1e-14)

    def test_sidedness_coherence(self):
        for alpha in (0.01, 0.05, 0.2):
            for rows in (
                [(0.0, 1.0, True, None)] * 5,
                [(0.0, 7.0, False, None)] * 40,
                [(0.5, 7.5, True, None), (3.5, 4.5, True, None), (1.0, 6.0, False, None)],
            ):
                out = run_test(dataset(rows), NULL_MEDIAN_NINE, WeightPolicy.wu(), alpha=alpha)
                assert out.reject_two_sided == (out.reject_left or out.reject_right)
                assert out.p_left + out.p_right == pytest.approx(1.0, abs=1e-12)
                assert out.p_two_sided == pytest.approx(
                    2.0 * min(out.p_left, out.p_right), rel=1e-12
                )

    def test_many_early_events_reject_right(self):
        rows = [(0.0, 0.05, True, None)] * 30
        out = run_test(dataset(rows), NULL_MEDIAN_NINE, WeightPolicy.wu())
        assert out.reject_right and not out.reject_left

    def test_long_event_free_follow_up_rejects_left(self):
        rows = [(0.0, 8.0, False, None)] * 60
        out = run_test(dataset(rows), NULL_MEDIAN_NINE, WeightPolicy.wu())
        assert out.reject_left and not out.reject_right

    def test_zero_variance_is_indeterminate(self):
        data = dataset([(0.0, 0.0, False, None)])
        with pytest.raises(IndeterminateTestError):
            run_test(data, NULL_MEDIAN_NINE, WeightPolicy.wu())

    def test_counting_weight_without_events_is_indeterminate(self):
        data = dataset([(0.0, 5.0, False, None)] * 10)
        with pytest.raises(IndeterminateTestError):
            run_test(data, NULL_MEDIAN_NINE, WeightPolicy.counting())

    def test_alpha_domain(self):
        with pytest.raises(PolicyError):
            run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.wu(), alpha=0.0)

    def test_uncorrelated_null_needs_design_context(self):
        with pytest.raises(PolicyError):
            run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.uncorrelated_null())

    def test_uncorrelated_null_uses_planning_weight(self):
        context = CensoringModel(UniformAccrual(5.0), NoDropout(), 8.0)
        out = run_test(
            THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.uncorrelated_null(),
            design_context=context,
        )
        assert out.weight == pytest.approx(
            weight_uncorrelated_null(NULL_MEDIAN_NINE, context), rel=1e-12
        )

    def test_uncorrelated_alt_rejected_at_analysis_time(self):
        with pytest.raises(PolicyError):
            run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.uncorrelated_alt())


class TestRandomWeightKM:
    def test_needs_no_dropout_flags(self):
        # every subject without an event is a censoring-time observation,
        # whatever its flag says
        bare = run_test(THREE_SUBJECTS, NULL_MEDIAN_NINE, WeightPolicy.random_km())
        assert not bare.weight_fallback
        for dropped in (True, False):
            flagged = dataset(
                [(0.5, 7.5, True, False), (3.5, 4.5, True, False), (1.0, 6.0, False, dropped)]
            )
            assert bare == run_test(flagged, NULL_MEDIAN_NINE, WeightPolicy.random_km())

    def test_single_jump_hand_value(self):
        null = Weibull(1.0, 1.0)
        data = dataset(
            [(0.0, 0.3, True, False), (0.0, 0.5, False, True)], analysis_time=2.0
        )
        result = km_weight_from_arrays(data.times_on_study, data.events, null)
        lam = LOG_TWO * 0.5
        expected = 1.0 - (math.exp(-lam) * lam) / (1.0 - math.exp(-lam))
        assert result.weight == pytest.approx(expected, rel=1e-14)
        assert result.weight == pytest.approx(0.16329733798575363, rel=1e-12)
        assert not result.used_fallback

    def test_all_censored_reduces_to_empirical_distribution(self):
        null = Exponential(1.0)
        times = (0.4, 0.8, 1.2)
        data = dataset([(0.0, x, False, True) for x in times], analysis_time=2.0)
        result = km_weight_from_arrays(data.times_on_study, data.events, null)
        num = sum(math.exp(-x) * x for x in times) / 3.0
        den = sum(1.0 - math.exp(-x) for x in times) / 3.0
        assert result.weight == pytest.approx(1.0 - num / den, rel=1e-12)
        assert not result.used_fallback

    def test_tied_times_resolve_events_before_censorings(self):
        # A record censored at the same time as an event stays in the risk
        # set for that jump: masses 1/3 at time 1 and 2/3 at time 2.
        null = Exponential(1.0)
        data = dataset(
            [(0.0, 1.0, True, False), (0.0, 1.0, False, True), (0.0, 2.0, False, True)],
            analysis_time=4.0,
        )
        result = km_weight_from_arrays(data.times_on_study, data.events, null)
        jumps = ((1.0, 1.0 / 3.0), (2.0, 2.0 / 3.0))
        num = sum(math.exp(-u) * u * mass for u, mass in jumps)
        den = sum((1.0 - math.exp(-u)) * mass for u, mass in jumps)
        assert result.weight == pytest.approx(1.0 - num / den, rel=1e-12)

    def test_all_events_falls_back(self):
        null = Exponential(1.0)
        times, events = np.array([0.2, 0.5, 0.9]), np.ones(3, dtype=bool)
        assert km_weight_from_arrays(times, events, null) == (0.5, True)
        assert km_weight_from_arrays(times, events, null, fallback_weight=0.3) == (0.3, True)

    def test_fallback_uses_planning_weight_through_run_test(self):
        null = Exponential(1.0)
        context = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.1), 2.0)
        data = dataset([(0.0, x, True, False) for x in (0.2, 0.5, 0.9)], analysis_time=2.0)
        out = run_test(data, null, WeightPolicy.random_km(), design_context=context)
        assert out.weight_fallback
        assert out.weight == pytest.approx(weight_uncorrelated_null(null, context), rel=1e-12)
        out_bare = run_test(data, null, WeightPolicy.random_km())
        assert out_bare.weight_fallback and out_bare.weight == 0.5

    def test_array_form_matches_dataset_form(self):
        null = Exponential(1.0)
        times = np.array([0.3, 0.7, 1.1, 1.4])
        events = np.array([True, False, True, False])
        data = dataset(
            [(0.0, float(x), bool(e), bool(not e)) for x, e in zip(times, events)],
            analysis_time=3.0,
        )
        out = run_test(data, null, WeightPolicy.random_km())
        assert km_weight_from_arrays(times, events, null) == (out.weight, out.weight_fallback)

    def test_converges_to_planning_weight(self):
        # Simulate one large trial under the reference law and compare the
        # data-driven weight with its planning limit.
        null = Exponential(LOG_TWO)
        cens = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.1), 2.0)
        rng = np.random.default_rng(7)
        n = 40_000
        entry = rng.random(n)
        event_time = rng.standard_exponential(n) / LOG_TWO
        drop_time = rng.standard_exponential(n) / -math.log(0.9)
        administrative = 2.0 - entry
        x = np.minimum(event_time, np.minimum(drop_time, administrative))
        events = event_time <= np.minimum(drop_time, administrative)
        result = km_weight_from_arrays(x, events, null)
        assert result.weight == pytest.approx(weight_uncorrelated_null(null, cens), abs=0.01)


def stable_unique_km_weight(times_on_study, events, null, fallback_weight=None):
    """The Kaplan-Meier weight as first written, with a stable argsort and
    ``np.unique``: the oracle that ``km_weight_from_arrays`` matches bit for
    bit."""
    x = np.asarray(times_on_study, dtype=float)
    u_event = ~np.asarray(events, dtype=bool)

    order = np.argsort(x, kind="stable")
    xs = x[order]
    es = u_event[order]
    n = xs.size

    fallback = 0.5 if fallback_weight is None else float(fallback_weight)
    if not np.any(es):
        return (fallback, True)

    t_uniq, first = np.unique(xs, return_index=True)
    at_risk = n - first
    deaths = np.add.reduceat(es.astype(np.int64), first)
    frac = deaths / at_risk
    surv_after = np.cumprod(1.0 - frac)
    surv_before = np.concatenate(([1.0], surv_after[:-1]))
    jump = surv_before * frac

    keep = deaths > 0
    tj = t_uniq[keep]
    dj = jump[keep]

    lam0 = np.asarray(null.cum_hazard(tj), dtype=float)
    s0 = np.exp(-lam0)
    f0 = 1.0 - s0
    den = float(np.sum(f0 * dj))
    if den <= 0.0:
        return (fallback, True)
    num = float(np.sum(s0 * lam0 * dj))
    return (1.0 - num / den, False)


KM_NULLS = (Weibull(1.22, 9.0), Exponential(0.7), PiecewiseExponential((0.5, 2.0), (0.4, 1.0, 2.5)))


@st.composite
def km_samples(draw):
    """Times on a coarse grid (many ties) or continuous, arbitrary events."""
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        value = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0))
    else:
        value = st.floats(0.0, 20.0, allow_nan=False)
    times = draw(st.lists(value, min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array(times, dtype=float), np.array(events, dtype=bool)


class TestKmWeightMatchesStableUniqueOracle:
    @given(km_samples(), st.sampled_from(KM_NULLS), st.sampled_from((None, 0.3)))
    def test_bit_identical(self, sample, null, fallback):
        times, events = sample
        expected = stable_unique_km_weight(times, events, null, fallback)
        assert km_weight_from_arrays(times, events, null, fallback) == expected

    @pytest.mark.parametrize(
        "times, events",
        [
            ([0.2, 0.5, 0.5, 0.9], [True, True, True, True]),  # no U-observation
            ([], []),
            ([0.0, 0.0, 0.4, 1.2], [False, False, True, True]),  # U only at 0: den <= 0
            ([0.7], [False]),
            ([0.7], [True]),
        ],
    )
    @pytest.mark.parametrize("null", KM_NULLS)
    def test_fixed_cases(self, times, events, null):
        times, events = np.array(times, dtype=float), np.array(events, dtype=bool)
        expected = stable_unique_km_weight(times, events, null, 0.3)
        assert km_weight_from_arrays(times, events, null, 0.3) == expected


class TestConsistencyCheck:
    def build_datasets(self, sizes, seed=3):
        rng = np.random.default_rng(seed)
        datasets = []
        for n in sizes:
            entry = 3.0 * rng.random(n)
            event_time = 2.0 * rng.standard_exponential(n) / LOG_TWO
            administrative = 4.0 - entry
            x = np.minimum(event_time, administrative)
            events = event_time <= administrative
            dropout = np.zeros(n, dtype=bool)
            datasets.append(TrialDataset.from_arrays(entry, x, events, 4.0, dropout))
        return datasets

    def test_gap_shrinks_toward_limit(self):
        report = consistency_check_random_weight(
            self.build_datasets((200, 2_000, 20_000)),
            Exponential(LOG_TWO / 2.0),
            limit=0.5604,
        )
        assert report.entries[-1].n == 20_000
        assert report.gap_decreased
        assert report.within_tolerance

    def test_fixed_weight_variant(self):
        report = consistency_check_random_weight(
            self.build_datasets((500, 5_000)),
            Exponential(LOG_TWO / 2.0),
            limit=0.5604,
            weight_policy=WeightPolicy.wu(),
            tolerance=0.05,
        )
        assert report.within_tolerance
        assert all(entry.weight == 0.5 for entry in report.entries)


class TestValidation:
    def test_record_rules(self):
        with pytest.raises(DataValidationError):
            TrialDataset.from_arrays([-0.1], [1.0], [True], 8.0)
        with pytest.raises(DataValidationError):
            TrialDataset.from_arrays([0.0], [-1.0], [True], 8.0)
        with pytest.raises(DataValidationError):
            TrialDataset.from_arrays([0.0], [1.0], [True], 8.0, [True])

    def test_entry_after_analysis_time(self):
        with pytest.raises(DataValidationError):
            dataset([(9.5, 0.0, False, None)], analysis_time=8.0)

    def test_time_on_study_beyond_horizon(self):
        with pytest.raises(DataValidationError) as excinfo:
            TrialDataset.from_arrays(
                np.array([0.0, 1.0]),
                np.array([2.0, 7.5]),
                np.array([True, False]),
                8.0,
            )
        assert excinfo.value.record_index == 1

    def test_empty_dataset(self):
        with pytest.raises(DataValidationError):
            TrialDataset.from_arrays([], [], [], 8.0)

    @pytest.mark.parametrize(
        "columns",
        [
            # a short first column must not cut the others to its length
            ([0.0], [1.0, 2.0], [True, False], 8.0),
            ([0.0, 1.0], [1.0], [True], 8.0),
            ([0.0, 1.0], [1.0, 2.0], [True, False], 8.0, [False]),
        ],
        ids=["short_entry", "long_entry", "short_dropout"],
    )
    def test_columns_of_unequal_length_are_rejected(self, columns):
        with pytest.raises(DataValidationError, match="differ in length"):
            TrialDataset.from_arrays(*columns)

    @pytest.mark.parametrize("entry", [0.0, [[0.0, 1.0]]], ids=["scalar", "matrix"])
    def test_columns_must_be_one_dimensional(self, entry):
        with pytest.raises(DataValidationError, match="one-dimensional"):
            TrialDataset.from_arrays(entry, [1.0, 2.0], [True, False], 8.0)

    def test_columns_are_read_only_copies(self):
        entry = np.array([0.0, 1.0])
        data = TrialDataset.from_arrays(entry, [1.0, 2.0], [1, 0], 8.0, [0, 1])
        entry[0] = 5.0
        assert data.entry_times[0] == 0.0
        assert entry.flags.writeable
        for column in (data.entry_times, data.times_on_study, data.events, data.dropouts):
            assert not column.flags.writeable
        assert data.events.dtype == bool and data.dropouts.dtype == bool
        assert len(data) == 2 and data.dropouts is not None

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 7.5, 8.5, -0.5, math.nan, math.inf]),
                st.sampled_from([0.0, 0.5, 6.5, 7.0, 8.0, -1.0, math.nan]),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    def test_first_bad_record_matches_per_record_rules(self, rows, flagged):
        t = 8.0
        expected = first_bad_record(rows, flagged, t)
        entry, time, event, dropout = (list(col) for col in zip(*rows))
        if expected is None:
            data = TrialDataset.from_arrays(entry, time, event, t, dropout if flagged else None)
            assert data.entry_times.tolist() == entry and data.times_on_study.tolist() == time
        else:
            with pytest.raises(DataValidationError) as excinfo:
                TrialDataset.from_arrays(entry, time, event, t, dropout if flagged else None)
            assert (excinfo.value.record_index, str(excinfo.value)) == expected
