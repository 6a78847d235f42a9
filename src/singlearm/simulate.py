"""Monte Carlo engine for operating characteristics.

Each public function lists its runs (a scenario with resolved weights)
and makes one kernel call, ``_tally``. The runs of a call share the
censoring, the replication count and the master seed, and one key
layout serves every call: replications are partitioned into blocks of
``_block_reps(n_max)`` rows of n_max subjects, n_max being the call's
largest sample size, and block b draws all of its randomness from the
counter-based stream ``(master_seed, b)``. A run of size n reads the
first n subjects of every row, so a call's runs reduce prefixes of the
same subjects: they are dependent by design (common random numbers),
while different seeds and different calls draw from disjoint streams.
A call with one sample size draws what stream version 1 drew. Aggregation
is plain integer counting, so a call's results are bit-identical however
its blocks are dealt to this process or to at most one process pool.

A block is reduced to each run's per-replication event count N and
compensator A0 in row chunks that fit in cache. A chunk computes the
censoring times U once, and K = Lambda_0(U) once per null law. Where the
null and true cumulative hazards have a constant ratio c (the truth is
the null law, or a same-shape Weibull), a run works in the null law's
cumulative-hazard coordinates: with E a subject's unit exponential,
H = c E is the null cumulative hazard at the event time, the event is
H <= K and A0 sums min(H, K), so no event time is built. Other runs, and
runs with a ``random_km`` weight, build the event and observed times as
``draw_trial`` does. ``draw_trial`` is the subject-level oracle of the
kernel. Within one replication every weight of a run sees the same
dataset, so weights differ only through the variance denominator of the
standardized statistic.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import operator
import os
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import km_weight_from_arrays
from .design import DesignSpec, WeightPolicy, _design, _plan, resolve_weight
from .errors import DomainError
from .models import (
    CensoringModel,
    DropoutModel,
    NoDropout,
    SurvivalModel,
    Weibull,
)
from .numerics import normal_quantile, substream

__all__ = [
    "STREAM_VERSION",
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

# version of the random-stream contract (block keys, block shape and draw
# order), written into every simulate report so that a report names the
# layout its seed is read under
STREAM_VERSION = 2

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
    censoring: CensoringModel,
    rng: np.random.Generator,
    uniform: np.ndarray,
    unit: np.ndarray,
    dropout: np.ndarray,
) -> np.ndarray:
    """Fill ``uniform`` with the subjects' entry uniforms and ``unit`` with
    their unit exponentials, then draw and return their dropout times (into
    ``dropout`` when the law draws any).

    The draw order (entry uniforms, then unit exponentials, then dropout)
    is part of the reproducibility contract: it fixes how a stream's values
    map to subjects. Entries and event times follow by inverse transform,
    as ``censoring.accrual.quantile(uniform)`` and
    ``truth.inverse_cum_hazard(unit)``.
    """
    rng.random(out=uniform)
    rng.standard_exponential(out=unit)
    return censoring.dropout.sample(rng, unit.shape, out=dropout)


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

    This is the subject-level oracle of the Monte Carlo kernel: on the
    stream of one block, drawn at the kernel call's largest size n_max, a
    run of size n has the event counts ``event[:, :n].sum(axis=1)`` and the
    compensators ``null.cum_hazard(time_on_study[:, :n]).sum(axis=1)``, exactly
    for runs that build event times and up to rounding for runs reduced in
    cumulative-hazard coordinates (where an event time within rounding of
    its censoring time may count either way).
    """
    uniform, unit, dropout = (np.empty((reps, n)) for _ in range(3))
    dropout = _draw_subjects(censoring, rng, uniform, unit, dropout)
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
        # stored as plain ints, so seed arithmetic cannot wrap; a fraction
        # would be truncated onto another seed's streams
        for name in ("n", "replications", "master_seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"scenario {name} must be a whole number, got {value!r}") from None
        if self.n < 1:
            raise DomainError("scenario needs at least one subject")
        if self.replications < 1:
            raise DomainError("scenario needs at least one replication")
        if not self.policies:
            raise DomainError("scenario needs at least one weight policy")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if not 0 <= self.master_seed < 2**64:
            raise DomainError("master seed must lie in [0, 2**64)")


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
    no censoring information."""

    spec: ScenarioSpec
    weights: tuple[float | None, ...]
    km_fallback: float | None = None


def _null_hazard_ratio(null: SurvivalModel, truth: SurvivalModel) -> float | None:
    """The constant Lambda_null / Lambda_truth when the truth is the null
    law or a Weibull of the null's shape, else None."""
    if truth == null:
        return 1.0
    if isinstance(null, Weibull) and isinstance(truth, Weibull) and null.shape == truth.shape:
        return (truth.median / null.median) ** null.shape
    return None


def _reduce_block(
    runs: Sequence[_Run], rng: np.random.Generator, uniform: np.ndarray, unit: np.ndarray, dropout: np.ndarray
):
    """Draw one block of a kernel call into the buffers ``uniform``, ``unit``
    and ``dropout`` (one row per replication, n_max columns) and reduce every
    run's prefix in row chunks, as the module docstring describes.

    Yields, per chunk, its row slice and one (N, A0, events, times) per run:
    the event counts and compensators of the run's first n subjects in each
    row, and, for a run with a ``random_km`` weight, their event indicators
    and observed times (else None).
    """
    censoring = runs[0].spec.censoring
    drawn_dropout = _draw_subjects(censoring, rng, uniform, unit, dropout)
    ratios = [
        None if None in run.weights else _null_hazard_ratio(run.spec.null_model, run.spec.truth_model)
        for run in runs
    ]
    # K is shared by the constant-ratio runs of one null law object (a law
    # need not be hashable): computed at their widest prefix when the first
    # of them is reduced and dropped after the last, so a chunk holds one K
    # at a time when a law's runs are listed together, as every caller does
    k_width, k_last = {}, {}
    for k, (run, ratio) in enumerate(zip(runs, ratios)):
        if ratio is not None:
            law = id(run.spec.null_model)
            k_width[law], k_last[law] = max(k_width.get(law, 0), run.spec.n), k
    step = max(1, _CHUNK_ELEMENTS // unit.shape[1])
    for start in range(0, len(unit), step):
        rows = slice(start, min(start + step, len(unit)))
        censor = _censor_time(censoring, censoring.accrual.quantile(uniform[rows]), drawn_dropout[rows])
        null_censor = {}
        reduced = []
        for k, (run, ratio) in enumerate(zip(runs, ratios)):
            n, null = run.spec.n, run.spec.null_model
            if ratio is None:
                event_time = run.spec.truth_model.inverse_cum_hazard(unit[rows, :n])
                event = event_time <= censor[:, :n]
                times = np.minimum(event_time, censor[:, :n], out=event_time)
                a0 = null.cum_hazard(times).sum(axis=1)
                reduced.append((event.sum(axis=1), a0, event, times if None in run.weights else None))
            else:
                law = id(null)
                if law not in null_censor:
                    null_censor[law] = null.cum_hazard(censor[:, :k_width[law]])
                null_event = ratio * unit[rows, :n]
                k_n = (null_censor.pop(law) if k_last[law] == k else null_censor[law])[:, :n]
                event = null_event <= k_n
                reduced.append((event.sum(axis=1), np.minimum(null_event, k_n).sum(axis=1), event, None))
        yield rows, reduced


def _count(counters: np.ndarray, w: np.ndarray, n_events: np.ndarray, a0: np.ndarray, z_crit: float) -> None:
    """Add the rejections and indeterminate replications of the weights
    ``w`` (one row per weight, one column per replication, or a column
    shared by all) to one run's counters."""
    variance = w * n_events + (1.0 - w) * a0
    ok = variance > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (n_events - a0) / np.sqrt(variance)
    n_left = np.count_nonzero(ok & (z <= -z_crit), axis=1)
    n_right = np.count_nonzero(ok & (z >= z_crit), axis=1)
    counters[:, _K_TWO] += n_left + n_right  # disjoint tails: z_crit > 0
    counters[:, _K_LEFT] += n_left
    counters[:, _K_RIGHT] += n_right
    counters[:, _K_IND] += n_events.shape[-1] - np.count_nonzero(ok, axis=1)


def _run_blocks(runs: Sequence[_Run], blocks: Sequence[int]) -> np.ndarray:
    """Tally the given blocks of a kernel call for every weight of every run
    at once; all runs carry as many weights and share the censoring, the
    replication count and the master seed. Block b draws from stream
    ``(master_seed, b)``. Returns an int64 array (runs, weights, 5)."""
    spec = runs[0].spec
    n_max = max(run.spec.n for run in runs)
    reps_per_block = _block_reps(n_max)
    counters = np.zeros((len(runs), len(runs[0].weights), 5), dtype=np.int64)
    # draw buffers shared by the call's blocks: fresh block-sized arrays
    # page-fault on every block, which made the pbc preset about 15%
    # slower (BENCH_10.json, "ablation")
    rows_max = min(reps_per_block, spec.replications)
    uniform, unit, dropout = (np.empty((rows_max, n_max)) for _ in range(3))
    # each run's N and A0 are kept for the block and tallied once per block,
    # not once per chunk: at figure1's n_max = 5000 a chunk holds 6 rows, and
    # tallying per chunk made the preset about 50% slower (BENCH_20.json,
    # "tally_ablation")
    n_events, a0 = np.empty((len(runs), rows_max), dtype=np.int64), np.empty((len(runs), rows_max))
    km_rows = [[j for j, w in enumerate(run.weights) if w is None] for run in runs]
    km_weights = np.empty((len(runs), rows_max))
    w_cols = [np.array([0.0 if w is None else w for w in run.weights])[:, None] for run in runs]
    z_crits = [normal_quantile(1.0 - run.spec.alpha / 2.0) for run in runs]
    # the tally's temporaries stay about as large as a reduction chunk
    tally_step = max(1, _CHUNK_ELEMENTS // len(runs[0].weights))
    for b in blocks:
        reps = min(reps_per_block, spec.replications - b * reps_per_block)
        rng = substream(spec.master_seed, b)
        for rows, reduced in _reduce_block(runs, rng, uniform[:reps], unit[:reps], dropout[:reps]):
            for k, (run, (n_k, a0_k, events, times)) in enumerate(zip(runs, reduced)):
                n_events[k, rows], a0[k, rows] = n_k, a0_k
                if km_rows[k]:
                    results = [
                        km_weight_from_arrays(t, e, run.spec.null_model, run.km_fallback)
                        for t, e in zip(times, events)
                    ]
                    km_weights[k, rows] = [r.weight for r in results]
                    counters[k, km_rows[k], _K_FB] += sum(r.used_fallback for r in results)
        for k in range(len(runs)):
            for start in range(0, reps, tally_step):
                cols = slice(start, min(start + tally_step, reps))
                w = w_cols[k]
                if km_rows[k]:
                    w = np.repeat(w, cols.stop - cols.start, axis=1)
                    w[km_rows[k]] = km_weights[k, cols]
                _count(counters[k], w, n_events[k, cols], a0[k, cols], z_crits[k])
    return counters


def _tally(runs: Sequence[_Run], workers: int) -> np.ndarray:
    """Counters of ``_run_blocks`` over every block of a kernel call,
    tallied in this process or dealt round-robin to one process pool of at
    most one process per block and per CPU; integer sums make the result the
    same either way. The runs read prefixes of the same blocks, so they must
    share the censoring, the replication count and the master seed."""
    if not runs:
        return np.zeros((0, 0, 5), dtype=np.int64)
    spec = runs[0].spec
    shared = (spec.censoring, spec.replications, spec.master_seed)
    if any((run.spec.censoring, run.spec.replications, run.spec.master_seed) != shared for run in runs):
        raise ValueError("the runs of one kernel call must share censoring, replications and master seed")
    blocks = range(math.ceil(spec.replications / _block_reps(max(run.spec.n for run in runs))))
    workers = min(workers, len(blocks), os.cpu_count() or 1)
    if workers <= 1:
        return _run_blocks(runs, blocks)
    with multiprocessing.Pool(workers) as pool:
        parts = pool.starmap(_run_blocks, [(runs, blocks[k::workers]) for k in range(workers)])
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
    and every sample size reads a prefix of the same subjects, drawn once at
    the largest size under ``base.master_seed``, so the sizes' cells are
    dependent by design. ``base.n`` and ``base.policies`` are ignored in
    favor of the grid. Sample sizes must be whole numbers, at least one.
    """
    return _weight_sweeps([base], weights, sample_sizes, workers)[0]


def _weight_sweeps(
    bases: Sequence[ScenarioSpec],
    weights: Sequence[float],
    sample_sizes: Sequence[int],
    workers: int,
) -> list[tuple[SweepCell, ...]]:
    """``weight_sweep`` of every base scenario, all tallied in one kernel
    call; the bases share their censoring, replications and master seed."""
    w_arr = np.asarray(list(weights), dtype=float)
    if w_arr.size == 0 or np.any(~((w_arr >= 0.0) & (w_arr <= 1.0))):
        raise DomainError("sweep weights must lie in [0, 1]")
    if len(sample_sizes) == 0 or not all(float(n).is_integer() for n in sample_sizes):
        raise DomainError("sweep sample sizes must be whole numbers, at least one")
    grid = tuple(w_arr.tolist())
    runs = [_Run(spec=replace(base, n=int(n)), weights=grid) for base in bases for n in sample_sizes]
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

    A cell is planned once. Each policy is sized from that plan and
    simulated at its own sample size and weight, under the censoring it was
    designed for: under the reference law for the type I error and under
    the alternative for power. Every run of the table reads a prefix of the
    same subjects, drawn once under ``master_seed`` at the table's largest
    sample size, so its runs are dependent by design (common random
    numbers) and ``best_alpha`` is a paired comparison; each cell's rates
    and standard errors keep their meaning. The cell's policy with the
    left-tail error closest to the nominal alpha/2 is flagged
    ``best_alpha``.
    """
    if not policies:
        raise DomainError("scenario table needs at least one weight policy")
    designed = []
    runs = []
    for shape, median, delta in itertools.product(shapes, medians, hazard_ratios):
        null = Weibull(shape, median)
        cell_spec = DesignSpec(
            null_model=null, follow_up=follow_up, weight_policy=policies[0], hazard_ratio=delta,
            accrual_length=accrual_length, dropout=dropout, alpha=alpha, beta=beta,
        )
        plan = _plan(cell_spec, accrual_length)
        truths = (null, cell_spec.resolved_alternative()) if include_power else (null,)
        for policy in policies:
            design = _design(cell_spec, plan, policy)
            designed.append((shape, median, delta, design))
            for truth in truths:
                spec = ScenarioSpec(
                    truth_model=truth,
                    null_model=null,
                    censoring=plan.censoring,
                    n=design.n,
                    policies=(policy,),
                    replications=replications,
                    master_seed=master_seed,
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
