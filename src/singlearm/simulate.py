"""Monte Carlo engine for operating characteristics.

Replications are partitioned into fixed-size blocks; block ``b`` draws all
of its randomness from the counter-based stream keyed by
``(master_seed, b)`` (``(master_seed, (k << 32) | b)`` for the k-th sample
size of a weight sweep), and aggregation is plain integer counting. Both
choices are what make a run's results bit-identical no matter how the
blocks are distributed over worker processes.

Each public function lists its runs (a scenario with resolved weights and
a stream base) and makes one kernel call, ``_tally``, which deals every
(run, block) unit to this process or to at most one process pool. A block
is reduced to each replication's event count N and compensator A0 in row
chunks that fit in cache. Where the null and true cumulative hazards have
a constant ratio c (the truth is the null law, or a same-shape Weibull),
the reduction works in the null law's cumulative-hazard coordinates: with
E a subject's unit exponential and U its censoring time, H = c E is the
null cumulative hazard at the event time, the event is H <= K = Lambda_0(U)
and A0 sums min(H, K), so no event time is built. Other runs, and runs
with a ``random_km`` weight, build the event and observed times as
``draw_trial`` does. ``draw_trial`` is the subject-level oracle of the
kernel. Within one replication every weight of a run sees the same
dataset (common random numbers), so weights differ only through the
variance denominator of the standardized statistic.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import km_weight_from_arrays
from .design import (
    DesignSpec,
    WeightPolicy,
    resolve_weight,
    sample_size,
)
from .errors import DomainError
from .models import (
    CensoringModel,
    DropoutModel,
    NoDropout,
    SurvivalModel,
    UniformAccrual,
    Weibull,
    hazard_ratio_alternative,
)
from .numerics import normal_quantile, substream

__all__ = [
    "ScenarioSpec",
    "PolicyOutcome",
    "SimulationReport",
    "SweepCell",
    "TableCell",
    "TrialArrays",
    "draw_trial",
    "run_scenario",
    "weight_sweep",
    "scenario_table",
]

# subjects per block. A block is the unit of stream keying, so these two
# sizes are part of the reproducibility contract, not tuning knobs; the row
# chunk below is the cache unit
_BLOCK_ELEMENTS = 1 << 21
_MAX_BLOCK_REPS = 8192
# subjects reduced per step within a block (at least one row), so that every
# temporary of a step stays in L2
_CHUNK_ELEMENTS = 1 << 15


def _block_reps(n: int) -> int:
    return max(1, min(_MAX_BLOCK_REPS, _BLOCK_ELEMENTS // max(n, 1)))


class TrialArrays(NamedTuple):
    """Row-per-replication subject arrays, all with shape (reps, n)."""

    entry: np.ndarray
    time_on_study: np.ndarray
    event: np.ndarray


def _draw_subjects(
    censoring: CensoringModel, rng: np.random.Generator, uniform: np.ndarray, unit: np.ndarray
) -> np.ndarray:
    """Fill ``uniform`` with the subjects' entry uniforms and ``unit`` with
    their unit exponentials, then draw and return their dropout times.

    The draw order (entry uniforms, then unit exponentials, then dropout)
    is part of the reproducibility contract: it fixes how a stream's values
    map to subjects. Entries and event times follow by inverse transform,
    as ``censoring.accrual.quantile(uniform)`` and
    ``truth.inverse_cum_hazard(unit)``.
    """
    rng.random(out=uniform)
    rng.standard_exponential(out=unit)
    return censoring.dropout.sample(rng, unit.shape)


def _censor_time(censoring: CensoringModel, entry: np.ndarray, dropout: np.ndarray) -> np.ndarray:
    """U = min(C, (t - Y)+): dropout or the end of the subject's follow-up."""
    return np.minimum(dropout, np.maximum(censoring.analysis_time - entry, 0.0))


def draw_trial(
    truth: SurvivalModel,
    censoring: CensoringModel,
    rng: np.random.Generator,
    reps: int,
    n: int,
) -> TrialArrays:
    """Sample ``reps`` independent trials of ``n`` subjects each.

    This is the subject-level oracle of the Monte Carlo kernel: on the same
    stream, the kernel's event counts are ``event.sum(axis=1)`` and its
    compensators ``null.cum_hazard(time_on_study).sum(axis=1)``, exactly
    for runs that build event times and up to rounding for runs reduced in
    cumulative-hazard coordinates (where an event time within rounding of
    its censoring time may count either way).
    """
    uniform, unit = np.empty((reps, n)), np.empty((reps, n))
    dropout = _draw_subjects(censoring, rng, uniform, unit)
    entry = censoring.accrual.quantile(uniform)
    event_time = truth.inverse_cum_hazard(unit)
    censor_time = _censor_time(censoring, entry, dropout)
    return TrialArrays(entry, np.minimum(event_time, censor_time), event_time <= censor_time)


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulated scenario: a data-generating truth, a reference law to
    test against, the censoring environment, and the policies to compare on
    shared datasets."""

    truth_model: SurvivalModel
    null_model: SurvivalModel
    censoring: CensoringModel
    n: int
    policies: tuple[WeightPolicy, ...]
    replications: int
    master_seed: int
    alpha: float = 0.05
    planning_alternative: SurvivalModel | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("scenario needs at least one subject")
        if self.replications < 1:
            raise DomainError("scenario needs at least one replication")
        if not self.policies:
            raise DomainError("scenario needs at least one weight policy")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if self.master_seed < 0:
            raise DomainError("master seed must be non-negative")


@dataclass(frozen=True)
class PolicyOutcome:
    """Tallied rejections for one weight policy."""

    label: str
    kind: str
    weight: float | None
    replications: int
    determinate: int
    indeterminate: int
    fallbacks: int
    rejections_two: int
    rejections_left: int
    rejections_right: int
    rate_two: float
    rate_left: float
    rate_right: float
    se_two: float
    se_left: float
    se_right: float


@dataclass(frozen=True)
class SimulationReport:
    """Per-policy operating characteristics of one scenario."""

    n: int
    replications: int
    master_seed: int
    alpha: float
    policies: tuple[PolicyOutcome, ...]

    def by_label(self, label: str) -> PolicyOutcome:
        for pol in self.policies:
            if pol.label == label:
                return pol
        raise KeyError(label)


# counter slots per weight
_K_TWO, _K_LEFT, _K_RIGHT, _K_IND, _K_FB = range(5)


class _Run(NamedTuple):
    """A scenario with resolved weights. A ``None`` weight is estimated per
    replication by Kaplan-Meier, with ``km_fallback`` where the data carry
    no censoring information. Block ``b`` draws from stream
    ``stream_base | b``."""

    spec: ScenarioSpec
    weights: tuple[float | None, ...]
    km_fallback: float | None = None
    stream_base: int = 0


def _null_hazard_ratio(null: SurvivalModel, truth: SurvivalModel) -> float | None:
    """The constant Lambda_null / Lambda_truth when the truth is the null
    law or a Weibull of the null's shape, else None."""
    if truth == null:
        return 1.0
    if isinstance(null, Weibull) and isinstance(truth, Weibull) and null.shape == truth.shape:
        return (truth.median / null.median) ** null.shape
    return None


def _reduce_block(
    spec: ScenarioSpec, rng: np.random.Generator, uniform: np.ndarray, unit: np.ndarray, with_times: bool
):
    """Draw one block of ``spec`` into the buffers ``uniform`` and ``unit``
    (one row per replication) and reduce it in row chunks.

    Yields, per chunk, the event counts N and compensators A0 of its rows,
    their event indicators and, when ``with_times``, their observed times.
    With a constant ratio c = Lambda_null / Lambda_truth and no times
    wanted, the event is H <= K and its A0 term is min(H, K), with H = c E
    and K = Lambda_null(U) for the unit exponential E and censoring time U;
    otherwise the chunk is reduced from the event and observed times.
    """
    null, truth, censoring = spec.null_model, spec.truth_model, spec.censoring
    dropout = _draw_subjects(censoring, rng, uniform, unit)
    ratio = None if with_times else _null_hazard_ratio(null, truth)
    step = max(1, _CHUNK_ELEMENTS // spec.n)
    for start in range(0, len(unit), step):
        rows = slice(start, start + step)
        censor = _censor_time(censoring, censoring.accrual.quantile(uniform[rows]), dropout[rows])
        if ratio is None:
            event_time = truth.inverse_cum_hazard(unit[rows])
            event = event_time <= censor
            times = np.minimum(event_time, censor)
            yield event.sum(axis=1), null.cum_hazard(times).sum(axis=1), event, times
        else:
            null_event, null_censor = ratio * unit[rows], null.cum_hazard(censor)
            event = null_event <= null_censor
            yield event.sum(axis=1), np.minimum(null_event, null_censor).sum(axis=1), event, None


def _run_blocks(runs: Sequence[_Run], units: Sequence[tuple[int, int]]) -> np.ndarray:
    """Tally (run, block) units for every weight of their run at once; all
    runs carry as many weights. Returns an int64 array (runs, weights, 5)."""
    counters = np.zeros((len(runs), len(runs[0].weights) if runs else 0, 5), dtype=np.int64)
    for k, run_units in itertools.groupby(units, key=lambda unit: unit[0]):
        spec, weights, km_fallback, stream_base = runs[k]
        z_crit = normal_quantile(1.0 - spec.alpha / 2.0)
        reps_per_block = _block_reps(spec.n)
        km_rows = [j for j, w in enumerate(weights) if w is None]
        w_col = np.array([0.0 if w is None else w for w in weights])[:, None]
        # draw buffers shared by the run's blocks: fresh block-sized arrays
        # page-fault on every block, which made the pbc preset about 15%
        # slower (BENCH_10.json, "ablation")
        shape = (min(reps_per_block, spec.replications), spec.n)
        uniform, unit = np.empty(shape), np.empty(shape)
        for _, b in run_units:
            reps_here = min(reps_per_block, spec.replications - b * reps_per_block)
            rng = substream(spec.master_seed, stream_base | b)
            chunks = _reduce_block(spec, rng, uniform[:reps_here], unit[:reps_here], bool(km_rows))
            for n_events, a0, events, times in chunks:
                w = w_col
                if km_rows:
                    w = np.repeat(w_col, len(a0), axis=1)
                    results = [
                        km_weight_from_arrays(t, e, spec.null_model, km_fallback)
                        for t, e in zip(times, events)
                    ]
                    w[km_rows] = [r.weight for r in results]
                    counters[k, km_rows, _K_FB] += sum(r.used_fallback for r in results)
                variance = w * n_events + (1.0 - w) * a0
                ok = variance > 0.0
                with np.errstate(invalid="ignore", divide="ignore"):
                    z = (n_events - a0) / np.sqrt(variance)
                n_left = np.count_nonzero(ok & (z <= -z_crit), axis=1)
                n_right = np.count_nonzero(ok & (z >= z_crit), axis=1)
                counters[k, :, _K_TWO] += n_left + n_right  # disjoint tails: z_crit > 0
                counters[k, :, _K_LEFT] += n_left
                counters[k, :, _K_RIGHT] += n_right
                counters[k, :, _K_IND] += len(a0) - np.count_nonzero(ok, axis=1)
    return counters


def _tally(runs: Sequence[_Run], workers: int) -> np.ndarray:
    """Counters of ``_run_blocks`` over every block of every run, tallied in
    this process or dealt round-robin to one process pool of at most one
    process per block and per CPU; integer sums make the result the same
    either way."""
    blocks = [math.ceil(run.spec.replications / _block_reps(run.spec.n)) for run in runs]
    units = [(k, b) for k, n_blocks in enumerate(blocks) for b in range(n_blocks)]
    workers = min(workers, len(units), os.cpu_count() or 1)
    if workers <= 1:
        return _run_blocks(runs, units)
    with multiprocessing.Pool(workers) as pool:
        parts = pool.starmap(_run_blocks, [(runs, units[k::workers]) for k in range(workers)])
    return np.sum(parts, axis=0)


def _read_counts(
    row: Sequence[int], replications: int, label: str = "", kind: str = "", weight: float | None = None
) -> PolicyOutcome:
    """Read one (run, weight) counter row of ``_tally``; every report reads
    its counts, rates and standard errors through here. Rates and errors
    are NaN when no replication is determinate. Sweeps and tables name no
    policy, so they leave ``label``, ``kind`` and ``weight`` unset."""
    rejections = (row[_K_TWO], row[_K_LEFT], row[_K_RIGHT])
    determinate = replications - row[_K_IND]
    rates = ses = (math.nan,) * 3
    if determinate > 0:
        rates = tuple(k / determinate for k in rejections)
        ses = tuple(math.sqrt(r * (1.0 - r) / determinate) for r in rates)
    return PolicyOutcome(
        label, kind, weight, replications, determinate, row[_K_IND], row[_K_FB], *rejections, *rates, *ses
    )


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> SimulationReport:
    """Simulate one scenario and tally each policy's rejection rates.

    The report is a deterministic function of ``spec`` alone: the worker
    count only changes which process handles which block.
    """
    # each distinct planning weight is solved once; random_km stays None and
    # falls back to the uncorrelated_null weight
    fallback = WeightPolicy.uncorrelated_null()
    solved = {
        p: resolve_weight(p, spec.null_model, spec.planning_alternative, spec.censoring)
        for p in dict.fromkeys(fallback if p.kind == "random_km" else p for p in spec.policies)
    }
    weights = tuple(solved.get(p) for p in spec.policies)
    run = _Run(spec=spec, weights=weights, km_fallback=solved.get(fallback))
    rows = _tally([run], workers)[0].tolist()
    outcomes = tuple(
        _read_counts(row, spec.replications, policy.label, policy.kind, w)
        for policy, w, row in zip(spec.policies, weights, rows)
    )
    return SimulationReport(spec.n, spec.replications, spec.master_seed, spec.alpha, outcomes)


class SweepCell(NamedTuple):
    """Empirical left-tail rejection rate for one (sample size, weight) pair."""

    n: int
    weight: float
    replications: int
    determinate: int
    indeterminate: int
    rejections_left: int
    rate_left: float
    se_left: float


def weight_sweep(
    base: ScenarioSpec,
    weights: Sequence[float],
    sample_sizes: Sequence[int],
    workers: int = 1,
) -> tuple[SweepCell, ...]:
    """Empirical left-tail error over a (weight, sample size) grid.

    All weights at one sample size share the same simulated datasets, so a
    cell differs from its neighbors only through the variance denominator;
    ``base.n`` and ``base.policies`` are ignored in favor of the grid.
    """
    return _weight_sweeps([base], weights, sample_sizes, workers)[0]


def _weight_sweeps(
    bases: Sequence[ScenarioSpec],
    weights: Sequence[float],
    sample_sizes: Sequence[int],
    workers: int,
) -> list[tuple[SweepCell, ...]]:
    """``weight_sweep`` of every base scenario, all tallied in one kernel
    call."""
    w_arr = np.asarray(list(weights), dtype=float)
    if w_arr.size == 0 or np.any(~((w_arr >= 0.0) & (w_arr <= 1.0))):
        raise DomainError("sweep weights must lie in [0, 1]")
    grid = tuple(w_arr.tolist())
    # distinct sample sizes use disjoint stream indices under one seed
    runs = [
        _Run(spec=replace(base, n=int(n)), weights=grid, stream_base=n_index << 32)
        for base in bases
        for n_index, n in enumerate(sample_sizes)
    ]
    counters = _tally(runs, workers).reshape(len(bases), len(sample_sizes), len(grid), 5)
    sweeps = []
    for base, base_rows in zip(bases, counters.tolist()):
        cells = []
        for n, n_rows in zip(sample_sizes, base_rows):
            for w, row in zip(grid, n_rows):
                c = _read_counts(row, base.replications)
                cells.append(
                    SweepCell(
                        int(n), w, base.replications, c.determinate, c.indeterminate,
                        c.rejections_left, c.rate_left, c.se_left
                    )
                )
        sweeps.append(tuple(cells))
    return sweeps


@dataclass(frozen=True)
class TableCell:
    """Design and empirical operating characteristics for one scenario/policy."""

    shape: float
    median: float
    hazard_ratio: float
    policy_label: str
    n: int
    weight: float
    alpha_left: float
    alpha_left_se: float
    indeterminate_null: int
    best_alpha: bool
    power: float | None = None
    power_se: float | None = None
    indeterminate_alt: int | None = None


def scenario_table(
    shapes: Sequence[float],
    medians: Sequence[float],
    hazard_ratios: Sequence[float],
    policies: Sequence[WeightPolicy],
    *,
    accrual_length: float = 3.0,
    follow_up: float = 1.0,
    dropout: DropoutModel = NoDropout(),
    alpha: float = 0.05,
    beta: float = 0.2,
    replications: int = 100_000,
    master_seed: int = 0,
    include_power: bool = True,
    workers: int = 1,
) -> tuple[TableCell, ...]:
    """Design each grid cell per policy, then estimate its error and power.

    Every policy is simulated at its own designed sample size and weight,
    under the reference law for the type I error and under the alternative
    for power; run k (in that order) is seeded ``master_seed + k``. The
    cell's policy with the left-tail error closest to the nominal alpha/2
    is flagged ``best_alpha``.
    """
    if not policies:
        raise DomainError("scenario table needs at least one weight policy")
    censoring = CensoringModel(UniformAccrual(accrual_length), dropout, accrual_length + follow_up)
    designed = []
    runs = []
    for shape, median, delta in itertools.product(shapes, medians, hazard_ratios):
        null = Weibull(shape, median)
        alternative = hazard_ratio_alternative(null, delta)
        for policy in policies:
            design = sample_size(
                DesignSpec(
                    null_model=null,
                    follow_up=follow_up,
                    weight_policy=policy,
                    hazard_ratio=delta,
                    accrual_length=accrual_length,
                    dropout=dropout,
                    alpha=alpha,
                    beta=beta,
                )
            )
            designed.append((shape, median, delta, design))
            for truth in (null, alternative) if include_power else (null,):
                spec = ScenarioSpec(
                    truth_model=truth,
                    null_model=null,
                    censoring=censoring,
                    n=design.n,
                    policies=(policy,),
                    replications=replications,
                    master_seed=master_seed + len(runs),
                    alpha=alpha,
                )
                runs.append(_Run(spec=spec, weights=(design.weight_used,)))
    # each run tallies one weight; a design's null run precedes its power run
    tallies = (_read_counts(row, replications) for row in _tally(runs, workers).reshape(-1, 5).tolist())
    cells: list[TableCell] = []
    for shape, median, delta, design in designed:
        null_counts = next(tallies)
        alt = next(tallies) if include_power else None
        cells.append(
            TableCell(
                shape=shape,
                median=median,
                hazard_ratio=delta,
                policy_label=design.policy.label,
                n=design.n,
                weight=design.weight_used,
                alpha_left=null_counts.rate_left,
                alpha_left_se=null_counts.se_left,
                indeterminate_null=null_counts.indeterminate,
                best_alpha=False,
                power=None if alt is None else alt.rate_left,
                power_se=None if alt is None else alt.se_left,
                indeterminate_alt=None if alt is None else alt.indeterminate,
            )
        )
    nominal = alpha / 2.0
    for start in range(0, len(cells), len(policies)):
        best = min(range(start, start + len(policies)), key=lambda i: abs(cells[i].alpha_left - nominal))
        cells[best] = replace(cells[best], best_alpha=True)
    return tuple(cells)
