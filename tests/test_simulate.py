"""Monte Carlo engine: determinism, shared datasets, and tallies."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, reject, settings as hyp_settings, strategies as st

from singlearm import design, simulate
from singlearm.analysis import km_weight_from_arrays
from singlearm.design import DesignSpec, WeightPolicy, expected_event_rate, sample_size
from singlearm.errors import DomainError, InfeasibleDesignError
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
from singlearm.numerics import substream
from singlearm.presets import BENCHMARK_POLICIES, PRESETS
from singlearm.simulate import (
    ScenarioSpec,
    draw_trial,
    run_scenario,
    scenario_table,
    weight_sweep,
)

LOG_TWO = math.log(2.0)
DESIGN_TIME_KINDS = sorted(WeightPolicy.KINDS - {"random_km"})
CENSORING = CensoringModel(UniformAccrual(3.0), NoDropout(), 4.0)


def stub_pool(monkeypatch):
    """Replace the process pool by one that records its size and maps
    serially, so no process starts; returns the list of sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, arg_tuples):
            return [func(*args) for args in arg_tuples]

    monkeypatch.setattr(simulate, "multiprocessing", types.SimpleNamespace(Pool=SerialPool))
    return sizes


def make_spec(**overrides):
    base = dict(
        truth_model=Exponential.from_median(2.0),
        null_model=Exponential.from_median(2.0),
        censoring=CENSORING,
        n=60,
        policies=(WeightPolicy.compensator(), WeightPolicy.wu(), WeightPolicy.counting()),
        replications=3_000,
        master_seed=42,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDrawTrial:
    def test_shapes_and_flags(self):
        rng = np.random.default_rng(0)
        cens = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.2), 2.0)
        arrays = draw_trial(Exponential(1.0), cens, rng, reps=50, n=7)
        assert arrays.entry.shape == (50, 7)
        assert arrays.time_on_study.shape == (50, 7)
        assert arrays.event.dtype == bool
        horizon = 2.0 - arrays.entry
        assert np.all(arrays.time_on_study <= horizon + 1e-12)
        assert np.all(arrays.entry >= 0.0) and np.all(arrays.entry <= 1.0)

    def test_event_rate_matches_quadrature(self):
        truth = Weibull(1.0, 2.0)
        rng = np.random.default_rng(5)
        arrays = draw_trial(truth, CENSORING, rng, reps=200, n=500)
        rate = arrays.event.mean()
        expected = expected_event_rate(truth, CENSORING)
        se = math.sqrt(expected * (1.0 - expected) / arrays.event.size)
        assert abs(rate - expected) < 4.0 * se

    def test_no_dropout_censors_at_the_horizon(self):
        rng = np.random.default_rng(1)
        arrays = draw_trial(Exponential(1.0), CENSORING, rng, reps=20, n=10)
        censored = ~arrays.event
        horizon = CENSORING.analysis_time - arrays.entry
        assert np.any(censored)
        assert np.array_equal(arrays.time_on_study[censored], horizon[censored])


class TestBlockReduction:
    """The kernel's per-replication event counts N and compensators A0
    against the subject-level oracle ``draw_trial`` on the same stream."""

    WEIBULL = Weibull(1.3, 2.5)
    EXPONENTIAL = Exponential.from_median(2.0)
    PIECEWISE = PiecewiseExponential((0.5, 1.5), (0.4, 0.2, 0.6))
    # null, truth: the constant-ratio laws and the laws reduced from times
    LAWS = {
        "truth_is_null": (WEIBULL, WEIBULL),
        "weibull_alternative": (WEIBULL, hazard_ratio_alternative(WEIBULL, 1.6)),
        "exponential_alternative": (EXPONENTIAL, hazard_ratio_alternative(EXPONENTIAL, 0.7)),
        "weibull_other_shape": (WEIBULL, Weibull(0.8, 3.0)),
        "piecewise_truth": (WEIBULL, PIECEWISE),
        "piecewise_alternative": (PIECEWISE, hazard_ratio_alternative(PIECEWISE, 1.4)),
    }
    DROPOUTS = {"no_dropout": NoDropout(), "exponential_dropout": ExponentialDropout(0.4)}
    ACCRUALS = {"uniform": UniformAccrual(2.0), "power": PowerAccrual(2.0, 0.6)}
    REPS = 700  # a group's row chunks fit its width: two at width 60, four at 150

    @staticmethod
    def reduce(runs, reps):
        """Reduce a block of a kernel call holding ``runs`` on stream (8, 3);
        returns per run its (N, A0, Kaplan-Meier weights, fallbacks) over all
        rows, the weights NaN where the run has no ``random_km`` weight."""
        n_max = max(run.spec.n for run in runs)
        buffers = [np.empty((reps, n_max)) for _ in range(3)]
        n_events, a0 = np.empty((len(runs), reps), dtype=np.int64), np.empty((len(runs), reps))
        km_weights = np.full((len(runs), reps), np.nan)
        fallbacks = simulate._reduce_block(runs, substream(8, 3), *buffers, n_events, a0, km_weights)
        return list(zip(n_events, a0, km_weights, fallbacks))

    def spec(self, laws, dropout, accrual, n):
        null, truth = self.LAWS[laws]
        censoring = CensoringModel(self.ACCRUALS[accrual], self.DROPOUTS[dropout], 3.0)
        return make_spec(truth_model=truth, null_model=null, censoring=censoring, n=n, replications=self.REPS)

    @staticmethod
    def assert_matches(run, reduced, oracle):
        """Against the oracle's first n subjects: N exact; A0 exact when the
        run reads times, else to 1e-12; a ``random_km`` run's Kaplan-Meier
        weights and fallbacks bit for bit those of ``km_weight_from_arrays``
        on the oracle's rows."""
        spec = run.spec
        n_events, a0, km_weights, fallbacks = reduced
        event, time_on_study = oracle.event[:, : spec.n], oracle.time_on_study[:, : spec.n]
        oracle_a0 = spec.null_model.cum_hazard(time_on_study).sum(axis=1)
        assert np.array_equal(n_events, event.sum(axis=1))
        ratio = simulate._null_hazard_ratio(spec.null_model, spec.truth_model)
        if None in run.weights or ratio is None:  # the run reads times
            assert np.array_equal(a0, oracle_a0)
        else:
            np.testing.assert_allclose(a0, oracle_a0, rtol=1e-12, atol=0.0)
        if None in run.weights:
            km = [
                km_weight_from_arrays(t, e, spec.null_model, run.km_fallback)
                for t, e in zip(time_on_study, event)
            ]
            assert np.array_equal(km_weights, [r.weight for r in km])
            assert fallbacks == sum(r.used_fallback for r in km)
        else:
            assert np.all(np.isnan(km_weights)) and fallbacks == 0

    @pytest.mark.parametrize("n", [1, 60])
    @pytest.mark.parametrize("accrual", ACCRUALS)
    @pytest.mark.parametrize("dropout", DROPOUTS)
    @pytest.mark.parametrize("laws", LAWS)
    def test_matches_draw_trial(self, laws, dropout, accrual, n):
        spec = self.spec(laws, dropout, accrual, n)
        oracle = draw_trial(spec.truth_model, spec.censoring, substream(8, 3), self.REPS, n)
        # a fixed weight, and a random_km weight that reads the times
        for weights in ((0.5,), (None,)):
            run = simulate._Run(spec, weights)
            (reduced,) = self.reduce([run], self.REPS)
            self.assert_matches(run, reduced, oracle)

    @pytest.mark.parametrize("accrual", ACCRUALS)
    @pytest.mark.parametrize("dropout", DROPOUTS)
    @pytest.mark.parametrize("laws", LAWS)
    def test_nested_prefixes_match_draw_trial(self, laws, dropout, accrual):
        # one call's runs read prefixes of one block drawn at the largest n
        specs = [self.spec(laws, dropout, accrual, n) for n in (1, 60, 150)]
        runs = [simulate._Run(spec, weights) for spec in specs for weights in ((0.5,), (None,))]
        oracle = draw_trial(specs[0].truth_model, specs[0].censoring, substream(8, 3), self.REPS, 150)
        for run, reduced in zip(runs, self.reduce(runs, self.REPS)):
            self.assert_matches(run, reduced, oracle)

    @pytest.mark.parametrize("dropout", DROPOUTS)
    def test_groups_of_mixed_laws_match_draw_trial(self, dropout):
        # constant-ratio runs of two null laws listed interleaved (A, B, A),
        # a run of law A that is not constant-ratio and a random_km run, at
        # three sizes: law A's group and its other run share the row chunks
        # of width 60, law B's group and the random_km run those of width 150
        null_a, null_b = self.WEIBULL, Weibull(0.7, 4.0)
        cases = [
            (null_a, null_a, 60, (0.5,)),
            (null_b, hazard_ratio_alternative(null_b, 0.7), 150, (0.5,)),
            (null_a, hazard_ratio_alternative(null_a, 1.6), 1, (0.5,)),
            (null_a, Weibull(0.8, 3.0), 60, (0.5,)),
            (null_a, null_a, 150, (None,)),
            (null_b, null_b, 60, (0.5,)),
        ]
        censoring = CensoringModel(UniformAccrual(2.0), self.DROPOUTS[dropout], 3.0)
        runs = [
            simulate._Run(make_spec(truth_model=truth, null_model=null, censoring=censoring, n=n,
                                    replications=self.REPS), weights, km_fallback=0.25)
            for null, truth, n, weights in cases
        ]
        for run, reduced in zip(runs, self.reduce(runs, self.REPS)):
            oracle = draw_trial(run.spec.truth_model, censoring, substream(8, 3), self.REPS, 150)
            self.assert_matches(run, reduced, oracle)


class TestRunScenarioDeterminism:
    def test_same_seed_reproduces_bitwise(self):
        assert run_scenario(make_spec()) == run_scenario(make_spec())

    def test_different_seed_differs(self):
        assert run_scenario(make_spec()) != run_scenario(make_spec(master_seed=43))

    def test_worker_count_does_not_change_results(self):
        # Enough replications for several blocks, so the partition matters.
        spec = make_spec(n=600, replications=8_000, policies=(WeightPolicy.wu(),))
        assert run_scenario(spec, workers=1) == run_scenario(spec, workers=2)

    def test_pool_never_exceeds_the_cpu_count(self, monkeypatch):
        sizes = stub_pool(monkeypatch)
        spec = make_spec(replications=100, policies=(WeightPolicy.wu(),))
        monkeypatch.setattr(simulate, "_MAX_BLOCK_REPS", 10)
        serial = run_scenario(spec)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
        assert run_scenario(spec, workers=1000) == serial
        assert sizes == [3]

    def test_one_pool_per_table_and_per_sweep(self, monkeypatch):
        sizes = stub_pool(monkeypatch)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        # a call's runs share its blocks, so each call needs two of them
        monkeypatch.setattr(simulate, "_MAX_BLOCK_REPS", 100)
        policies = (WeightPolicy.wu(), WeightPolicy.counting())
        scenario_table((1.0,), (2.0,), (2.0,), policies, replications=200, workers=2)
        assert sizes == [2]
        weight_sweep(make_spec(replications=200), (0.0, 1.0), (40, 80), workers=2)
        assert sizes == [2, 2]

    def test_shared_datasets_across_policies(self):
        # wu and fixed(0.5) are the same weight, so on shared datasets the
        # tallies must agree exactly.
        spec = make_spec(policies=(WeightPolicy.wu(), WeightPolicy.fixed(0.5)))
        report = run_scenario(spec)
        wu, fixed = report.policies
        assert wu.rejections_two == fixed.rejections_two
        assert wu.rejections_left == fixed.rejections_left
        assert wu.rejections_right == fixed.rejections_right

    def test_policy_list_does_not_perturb_draws(self):
        solo = run_scenario(make_spec(policies=(WeightPolicy.compensator(),)))
        paired = run_scenario(
            make_spec(policies=(WeightPolicy.compensator(), WeightPolicy.counting()))
        )
        assert solo.policies[0] == paired.by_label("compensator")


class TestRunScenarioTallies:
    def test_counts_are_coherent(self):
        report = run_scenario(make_spec())
        for pol in report.policies:
            assert pol.determinate + pol.indeterminate == report.replications
            assert pol.rejections_two <= pol.determinate
            assert max(pol.rejections_left, pol.rejections_right) <= pol.rejections_two
            assert pol.rejections_left + pol.rejections_right == pol.rejections_two
            if pol.determinate:
                assert pol.rate_two == pytest.approx(pol.rejections_two / pol.determinate)

    def test_nominal_size_at_large_n(self):
        spec = make_spec(
            n=2_000,
            replications=4_000,
            policies=(WeightPolicy.wu(),),
            master_seed=9,
        )
        pol = run_scenario(spec).policies[0]
        se = math.sqrt(0.025 * 0.975 / 4_000)
        assert abs(pol.rate_left - 0.025) < 4.0 * se
        assert abs(pol.rate_right - 0.025) < 4.0 * se

    def test_power_detects_protective_alternative(self):
        null = Exponential.from_median(2.0)
        spec = make_spec(
            truth_model=hazard_ratio_alternative(null, 2.0),
            n=120,
            replications=2_000,
            policies=(WeightPolicy.wu(),),
        )
        pol = run_scenario(spec).policies[0]
        assert pol.rate_left > 0.5
        assert pol.rate_right == 0.0

    def test_indeterminate_replications_are_excluded(self):
        # Tiny trials under a slow-event truth often see zero events, which
        # leaves the counting-weight variance empty.
        spec = make_spec(
            truth_model=Exponential.from_median(50.0),
            null_model=Exponential.from_median(50.0),
            n=2,
            replications=2_000,
            policies=(WeightPolicy.counting(),),
        )
        pol = run_scenario(spec).policies[0]
        assert pol.indeterminate > 0
        assert pol.determinate + pol.indeterminate == 2_000
        assert pol.rate_two <= 1.0

    def test_single_replication(self):
        report = run_scenario(make_spec(replications=1))
        for pol in report.policies:
            assert pol.replications == 1
            assert pol.rate_two in (0.0, 1.0) or math.isnan(pol.rate_two)

    def test_random_km_policy_runs_and_falls_back_without_censoring(self):
        # With dropout there is censoring information in most replicates.
        cens = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.1), 2.0)
        spec = make_spec(
            truth_model=Exponential(LOG_TWO),
            null_model=Exponential(LOG_TWO),
            censoring=cens,
            n=50,
            replications=500,
            policies=(WeightPolicy.random_km(),),
        )
        pol = run_scenario(spec).policies[0]
        assert pol.weight is None
        assert pol.fallbacks < 500
        assert 0.0 < pol.rate_left < 0.2

    def test_random_km_estimates_once_per_replication(self, monkeypatch):
        # the per-call contract a traced benchmark run reads: one call per
        # replication, on that replication's 1-D columns of length n
        shapes = []

        def counting_km(times, events, *args, **kwargs):
            shapes.append((times.shape, events.shape))
            return km_weight_from_arrays(times, events, *args, **kwargs)

        monkeypatch.setattr(simulate, "km_weight_from_arrays", counting_km)
        monkeypatch.setattr(simulate, "_MAX_BLOCK_REPS", 40)
        cens = CensoringModel(UniformAccrual(1.0), dropout_from_yearly_rate(0.1), 2.0)
        spec = make_spec(
            censoring=cens,
            n=50,
            replications=100,
            policies=(WeightPolicy.uncorrelated_null(), WeightPolicy.random_km()),
        )
        assert math.ceil(spec.replications / simulate._block_reps(spec.n)) == 3
        run_scenario(spec)
        assert shapes == [((50,), (50,))] * 100

    def test_truth_equal_to_null_by_construction(self):
        null = Exponential.from_median(2.0)
        via_ratio = make_spec(truth_model=hazard_ratio_alternative(null, 1.0))
        direct = make_spec(truth_model=null)
        assert run_scenario(via_ratio) == run_scenario(direct)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_spec(n=0)
        with pytest.raises(DomainError):
            make_spec(replications=0)
        with pytest.raises(DomainError):
            make_spec(policies=())
        with pytest.raises(DomainError):
            make_spec(master_seed=-1)

    @pytest.mark.parametrize("name", ["n", "replications", "master_seed"])
    @pytest.mark.parametrize("value", [40.0, 7.5, "40", None])
    def test_counts_and_seed_must_be_whole_numbers(self, name, value):
        with pytest.raises(DomainError, match=f"scenario {name} must be a whole number"):
            make_spec(**{name: value})
        # numpy integers pass, stored as plain ints
        spec = make_spec(**{name: np.int64(40)})
        assert type(getattr(spec, name)) is int and spec == make_spec(**{name: 40})

    def test_seed_past_64_bits_rejected(self):
        make_spec(master_seed=2**64 - 1)
        with pytest.raises(DomainError, match=r"2\*\*64"):
            make_spec(master_seed=2**64)


class TestWeightSweep:
    def base(self, replications=1_500):
        return make_spec(replications=replications, policies=(WeightPolicy.wu(),))

    def test_grid_shape_and_order(self):
        cells = weight_sweep(self.base(), (0.0, 0.5, 1.0), (40, 80))
        assert [(c.n, c.weight) for c in cells] == [
            (40, 0.0), (40, 0.5), (40, 1.0), (80, 0.0), (80, 0.5), (80, 1.0)
        ]
        for cell in cells:
            assert cell.determinate + cell.indeterminate == 1_500

    def test_deterministic(self):
        a = weight_sweep(self.base(), (0.0, 1.0), (40,))
        b = weight_sweep(self.base(), (0.0, 1.0), (40,))
        assert a == b

    def test_weight_grid_extension_preserves_shared_columns(self):
        # Cells at one sample size reuse the same datasets for every weight.
        narrow = weight_sweep(self.base(), (0.5,), (40, 80))
        wide = weight_sweep(self.base(), (0.0, 0.5, 1.0), (40, 80))
        assert [c for c in wide if c.weight == 0.5] == list(narrow)

    def test_more_weight_means_fewer_left_rejections_per_dataset(self):
        # For z < 0, growing w shrinks the variance only when N < A0, which
        # is exactly the left-rejection regime, so rates rise with w.
        cells = weight_sweep(self.base(4_000), (0.0, 0.5, 1.0), (200,))
        rates = [c.rate_left for c in cells]
        assert rates[0] <= rates[1] <= rates[2]

    def test_validation(self):
        with pytest.raises(DomainError):
            weight_sweep(self.base(), (0.0, 1.2), (40,))
        with pytest.raises(DomainError):
            weight_sweep(self.base(), (0.5,), (0,))
        with pytest.raises(DomainError):
            weight_sweep(self.base(), (), (40,))

    @pytest.mark.parametrize("sizes", [(10.7,), (40, 80.5), (), (float("inf"),)])
    def test_sizes_must_be_whole_and_given(self, sizes):
        with pytest.raises(DomainError, match="sample sizes"):
            weight_sweep(self.base(), (0.5,), sizes)

    def test_integral_floats_are_sizes(self):
        assert weight_sweep(self.base(), (0.5,), (40.0,)) == weight_sweep(self.base(), (0.5,), (40,))

    def test_nan_weight_rejected(self):
        # NaN fails every comparison, so the check is written to fail it
        with pytest.raises(DomainError):
            weight_sweep(self.base(), (0.5, float("nan")), (40,))


class TestStreamKeys:
    """Stream contract version 2: block b of a kernel call draws from stream
    ``(master_seed, b)``, whatever runs the call holds."""

    CALLS = {
        # two policies under the null and the alternative: four runs
        "table": lambda seed: scenario_table(
            (1.0,), (2.0,), (2.0,), (WeightPolicy.wu(), WeightPolicy.counting()),
            replications=300, master_seed=seed,
        ),
        "figure1": lambda seed: PRESETS["figure1"](seed=seed, replications=20, alpha=0.05),
    }

    @staticmethod
    def keys(monkeypatch, kind, seed):
        """The (seed, index) keys of every stream that one call draws."""
        seen = []
        real = simulate.substream

        def recording(seed, index):
            seen.append((seed, index))
            return real(seed, index)

        with monkeypatch.context() as mp:
            mp.setattr(simulate, "_MAX_BLOCK_REPS", 100)
            mp.setattr(simulate, "substream", recording)
            TestStreamKeys.CALLS[kind](seed)
        return seen

    @pytest.mark.parametrize("kind", CALLS)
    def test_adjacent_seeds_share_no_stream(self, monkeypatch, kind):
        s, t = (set(self.keys(monkeypatch, kind, seed)) for seed in (5, 6))
        assert s and t and s.isdisjoint(t)
        assert {seed for seed, _ in s} == {5} and {seed for seed, _ in t} == {6}

    def test_one_stream_per_block_of_a_call(self, monkeypatch):
        # the table's four runs, at two sizes, read three blocks drawn once each
        assert self.keys(monkeypatch, "table", 9) == [(9, 0), (9, 1), (9, 2)]

    def test_runs_must_share_censoring_replications_and_seed(self):
        run = simulate._Run(make_spec(), (0.5,))
        for change in ({"replications": 10}, {"master_seed": 1}, {"censoring": TestGoldenTallies.CENSORING}):
            with pytest.raises(ValueError, match="share"):
                simulate._tally([run, run._replace(spec=make_spec(**change))], workers=1)


class TestScenarioTable:
    def test_single_cell_matches_design(self):
        cells = scenario_table(
            (1.0,),
            (2.0,),
            (2.0,),
            (WeightPolicy.wu(), WeightPolicy.counting()),
            replications=1_500,
            master_seed=4,
        )
        assert len(cells) == 2
        by_policy = {c.policy_label: c for c in cells}
        assert by_policy["wu"].n == 35
        assert by_policy["counting"].n == 27
        for cell in cells:
            design = sample_size(
                DesignSpec(
                    null_model=Weibull(1.0, 2.0),
                    follow_up=1.0,
                    weight_policy=WeightPolicy(cell.policy_label),
                    hazard_ratio=2.0,
                    accrual_length=3.0,
                )
            )
            assert cell.n == design.n
            assert cell.weight == design.weight_used
            assert cell.power is not None and cell.power > 0.5
        assert sum(c.best_alpha for c in cells) == 1

    def test_without_power_runs(self):
        cells = scenario_table(
            (1.0,), (2.0,), (2.0,), (WeightPolicy.wu(),),
            replications=800, include_power=False, master_seed=4,
        )
        (cell,) = cells
        assert cell.power is None and cell.power_se is None
        assert cell.indeterminate_alt is None
        assert 0.0 <= cell.alpha_left <= 0.2

    def test_empty_grid_has_no_cells(self):
        assert scenario_table((), (2.0,), (2.0,), (WeightPolicy.wu(),), replications=100) == ()

    def test_empty_policy_list_rejected(self):
        with pytest.raises(DomainError):
            scenario_table((1.0,), (2.0,), (2.0,), (), replications=100)

    def test_one_plan_per_cell(self, monkeypatch):
        calls = []
        real = design._integrals

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(design, "_integrals", counting)
        cells = scenario_table(
            (1.22,), (9.0,), (1.75,), BENCHMARK_POLICIES,
            accrual_length=5.0, follow_up=3.0, replications=1, include_power=False,
        )
        assert [c.n for c in cells] == [113, 76, 95, 106]
        assert len(calls) == 1

    @given(
        st.floats(0.3, 3.0),
        st.floats(0.5, 10.0),
        st.floats(0.3, 0.9) | st.floats(1.1, 3.0),
        st.floats(0.5, 5.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 0.3),
        st.lists(st.sampled_from(DESIGN_TIME_KINDS), min_size=1, max_size=7, unique=True),
        st.floats(0.0, 1.0),
    )
    @hyp_settings(max_examples=40)
    def test_cells_size_every_policy_as_sample_size_does(
        self, shape, median, delta, accrual, follow_up, yearly_dropout, kinds, fixed
    ):
        policies = [WeightPolicy.fixed(fixed) if k == "fixed" else WeightPolicy(k) for k in kinds]
        dropout = dropout_from_yearly_rate(yearly_dropout)
        try:
            expected = [
                sample_size(
                    DesignSpec(
                        null_model=Weibull(shape, median), follow_up=follow_up, weight_policy=p,
                        hazard_ratio=delta, accrual_length=accrual, dropout=dropout,
                    )
                )
                for p in policies
            ]
        except InfeasibleDesignError:  # also over the cap, or degenerate
            reject()
        # the designs alone are compared, so nothing is simulated
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_tally", lambda runs, workers: np.zeros((len(runs), 1, 5), np.int64))
            cells = scenario_table(
                (shape,), (median,), (delta,), policies, accrual_length=accrual,
                follow_up=follow_up, dropout=dropout, replications=1, include_power=False,
            )
        assert [(c.policy_label, c.n, c.weight) for c in cells] == [
            (d.policy.label, d.n, d.weight_used) for d in expected
        ]

    def test_process_pool_matches_one_process(self, monkeypatch):
        # five blocks, dealt over a real pool of two processes
        monkeypatch.setattr(simulate, "_MAX_BLOCK_REPS", 100)
        policies = (WeightPolicy.wu(), WeightPolicy.counting())
        kwargs = dict(replications=450, master_seed=13, dropout=dropout_from_yearly_rate(0.1))
        serial = scenario_table((0.5, 1.0), (2.0,), (1.5,), policies, workers=1, **kwargs)
        assert scenario_table((0.5, 1.0), (2.0,), (1.5,), policies, workers=2, **kwargs) == serial

    def test_deterministic(self):
        kwargs = dict(replications=600, master_seed=11, include_power=False)
        a = scenario_table((1.0,), (1.0,), (1.5,), (WeightPolicy.wu(),), **kwargs)
        b = scenario_table((1.0,), (1.0,), (1.5,), (WeightPolicy.wu(),), **kwargs)
        assert a == b


class TestGoldenTallies:
    """Exact counters of a small scenario and a small sweep. Any change to
    the random-stream contract (block keying, draw order, block size) or to
    the z rule shows up here; such a change must be declared, not absorbed
    by quietly re-recording these values. SCENARIO holds since stream
    version 1; SWEEP and TABLE were re-recorded at version 2, when a call's
    runs began to share its blocks."""

    CENSORING = CensoringModel(UniformAccrual(2.0), dropout_from_yearly_rate(0.2), 3.0)

    # label, determinate, indeterminate, fallbacks, two, left, right
    SCENARIO = (
        ("compensator", 20_000, 0, 0, 1132, 1, 1131),
        ("random_km", 20_000, 0, 16, 938, 176, 762),
        ("uncorrelated_null", 20_000, 0, 0, 746, 132, 614),
        ("fixed(0.3)", 20_000, 0, 0, 781, 284, 497),
    )
    # label, n, null indeterminate, null left rejections, power indeterminate,
    # power left rejections, best_alpha
    TABLE = (
        ("uncorrelated_null", 113, 0, 484, 0, 16004, True),
        ("counting", 92, 0, 729, 0, 15449, False),
    )
    # n, weight, determinate, indeterminate, left rejections
    SWEEP = (
        (3, 0.0, 1500, 0, 0),
        (3, 0.5, 1500, 0, 47),
        (3, 1.0, 1182, 318, 0),
        (2000, 0.0, 1500, 0, 37),
        (2000, 0.5, 1500, 0, 43),
        (2000, 1.0, 1500, 0, 47),
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scenario_counters(self, workers):
        null = Weibull(1.3, 2.5)
        spec = ScenarioSpec(
            truth_model=null,
            null_model=null,
            censoring=self.CENSORING,
            n=6,
            policies=(
                WeightPolicy.compensator(),
                WeightPolicy.random_km(),
                WeightPolicy.uncorrelated_null(),
                WeightPolicy.fixed(0.3),
            ),
            replications=20_000,  # three blocks
            master_seed=20211,
        )
        report = run_scenario(spec, workers=workers)
        got = tuple(
            (p.label, p.determinate, p.indeterminate, p.fallbacks,
             p.rejections_two, p.rejections_left, p.rejections_right)
            for p in report.policies
        )
        assert got == self.SCENARIO
        weights = [p.weight for p in report.policies]
        assert weights[0] == 0.0 and weights[1] is None and weights[3] == 0.3
        assert weights[2] == pytest.approx(0.23358, abs=1e-5)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unhashable_null_law(self, workers):
        # list fields make the law unhashable; with truth == null every run
        # shares K = Lambda_0(U), which must not need the law as a key
        null = PiecewiseExponential([1.0], [0.5, 0.2])
        with pytest.raises(TypeError):
            hash(null)
        spec = ScenarioSpec(
            truth_model=null,
            null_model=null,
            censoring=self.CENSORING,
            n=6,
            policies=(WeightPolicy.compensator(), WeightPolicy.uncorrelated_null(), WeightPolicy.fixed(0.3)),
            replications=20_000,
            master_seed=20211,
        )
        got = tuple(
            (p.label, p.determinate, p.indeterminate, p.rejections_two, p.rejections_left, p.rejections_right)
            for p in run_scenario(spec, workers=workers).policies
        )
        # the counters of stream version 1, as for SCENARIO: one sample size
        assert got == (
            ("compensator", 20_000, 0, 1172, 82, 1090),
            ("uncorrelated_null", 20_000, 0, 1075, 531, 544),
            ("fixed(0.3)", 20_000, 0, 1071, 544, 527),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_counters(self, workers):
        truth = Exponential.from_median(2.0)
        base = ScenarioSpec(
            truth_model=truth,
            null_model=truth,
            censoring=self.CENSORING,
            n=1,
            policies=(WeightPolicy.wu(),),
            replications=1_500,  # two blocks at n = 2000, read by both sizes
            master_seed=77,
        )
        cells = weight_sweep(base, (0.0, 0.5, 1.0), (3, 2000), workers=workers)
        got = tuple((c.n, c.weight, c.determinate, c.indeterminate, c.rejections_left) for c in cells)
        assert got == self.SWEEP

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_counters(self, workers):
        replications = 20_000  # three blocks, read by all four runs
        cells = scenario_table(
            (0.5,),
            (2.0,),
            (1.5,),
            (WeightPolicy.uncorrelated_null(), WeightPolicy.counting()),
            dropout=dropout_from_yearly_rate(0.1),
            replications=replications,
            master_seed=314,
            workers=workers,
        )
        got = tuple(
            (c.policy_label, c.n, c.indeterminate_null,
             round(c.alpha_left * (replications - c.indeterminate_null)),
             c.indeterminate_alt, round(c.power * (replications - c.indeterminate_alt)), c.best_alpha)
            for c in cells
        )
        assert got == self.TABLE
        assert cells[0].weight == pytest.approx(0.32084, abs=1e-5) and cells[1].weight == 1.0

    @pytest.mark.parametrize("chunk", ["one_row", "over_a_block"])
    def test_counters_do_not_depend_on_the_chunk(self, monkeypatch, chunk):
        elements = 1 if chunk == "one_row" else 2 * simulate._BLOCK_ELEMENTS
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", elements)
        self.test_scenario_counters(workers=1)
        self.test_sweep_counters(workers=1)
        self.test_table_counters(workers=1)
