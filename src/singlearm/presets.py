"""Preconfigured study protocols used by the benchmarks, the CLI presets,
and the acceptance suite.

Three protocols are bundled, and ``PRESETS`` runs each of them by name:

* the benchmark grid: Weibull reference laws over a grid of shapes,
  medians, and hazard ratios, recruited uniformly for 3 years with 1 year
  of follow-up;
* the weight sweep: exponential laws calibrated to hit prescribed event
  rates in a short trial (1 year accrual, 1 year follow-up, 10% yearly
  dropout), swept over a dense weight grid and several sample sizes;
* the liver-study case: a Weibull reference with shape 1.22 and median 9
  years, a hazard ratio of 1.75, 5 years of accrual, and 3 years of
  follow-up.

A runner takes its settings and ``workers`` as keyword arguments; its
settings are the only config keys that ``simulate --preset <name>``
accepts besides ``preset``.
"""

from __future__ import annotations

from .design import DesignSpec, WeightPolicy, expected_event_rate
from .models import (
    CensoringModel,
    Exponential,
    NoDropout,
    UniformAccrual,
    Weibull,
    dropout_from_yearly_rate,
)
from .numerics import find_root
from .simulate import ScenarioSpec, TableCell, _weight_sweeps, scenario_table

__all__ = [
    "BENCHMARK_SHAPES",
    "BENCHMARK_MEDIANS",
    "BENCHMARK_HAZARD_RATIOS",
    "BENCHMARK_ACCRUAL",
    "BENCHMARK_FOLLOW_UP",
    "BENCHMARK_POLICIES",
    "SWEEP_SAMPLE_SIZES",
    "SWEEP_WEIGHTS",
    "SWEEP_TARGET_RATES",
    "benchmark_censoring",
    "benchmark_null",
    "sweep_censoring",
    "sweep_truth",
    "pbc_design",
    "PRESETS",
]

BENCHMARK_SHAPES = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
BENCHMARK_MEDIANS = (1.0, 2.0, 4.0)
BENCHMARK_HAZARD_RATIOS = (1.2, 1.5, 2.0)
BENCHMARK_ACCRUAL = 3.0
BENCHMARK_FOLLOW_UP = 1.0
BENCHMARK_POLICIES = (
    WeightPolicy.compensator(),
    WeightPolicy.counting(),
    WeightPolicy.wu(),
    WeightPolicy.uncorrelated_null(),
)

SWEEP_SAMPLE_SIZES = (25, 50, 100, 250, 500, 1000, 5000)
SWEEP_WEIGHTS = tuple(i / 100.0 for i in range(101))
SWEEP_TARGET_RATES = (0.2, 0.4, 0.6, 0.8)
_SWEEP_ACCRUAL = 1.0
_SWEEP_FOLLOW_UP = 1.0
_SWEEP_YEARLY_DROPOUT = 0.1


def benchmark_censoring() -> CensoringModel:
    """Censoring environment of the benchmark grid."""
    return CensoringModel(
        UniformAccrual(BENCHMARK_ACCRUAL),
        NoDropout(),
        BENCHMARK_ACCRUAL + BENCHMARK_FOLLOW_UP,
    )


def benchmark_null(shape: float, median: float) -> Weibull:
    """Reference law of one benchmark grid cell."""
    return Weibull(shape, median)


def sweep_censoring() -> CensoringModel:
    """Censoring environment of the weight-sweep protocol."""
    return CensoringModel(
        UniformAccrual(_SWEEP_ACCRUAL),
        dropout_from_yearly_rate(_SWEEP_YEARLY_DROPOUT),
        _SWEEP_ACCRUAL + _SWEEP_FOLLOW_UP,
    )


def sweep_truth(target_event_rate: float) -> Exponential:
    """Exponential law whose expected event rate under the sweep censoring
    equals the target; solved by bracketed root finding on the rate."""
    censoring = sweep_censoring()
    rate = find_root(
        lambda r: expected_event_rate(Exponential(r), censoring) - target_event_rate,
        1e-6,
        50.0,
    )
    return Exponential(rate)


def pbc_design(policy: WeightPolicy) -> DesignSpec:
    """Liver-study case: planning spec for the given weight policy."""
    return DesignSpec(
        null_model=Weibull(1.22, 9.0),
        follow_up=3.0,
        weight_policy=policy,
        hazard_ratio=1.75,
        accrual_length=5.0,
        alpha=0.05,
        beta=0.2,
    )


def _run_figure1(*, seed: int, replications: int, alpha: float, workers: int = 1) -> list[dict]:
    """Weight sweep at every target event rate; the k-th rate is seeded
    ``seed + k``, and all rates are tallied in one kernel call. One row per
    (target rate, sample size, weight)."""
    bases = []
    for idx, target in enumerate(SWEEP_TARGET_RATES):
        truth = sweep_truth(target)
        bases.append(
            ScenarioSpec(
                truth_model=truth,
                null_model=truth,
                censoring=sweep_censoring(),
                n=SWEEP_SAMPLE_SIZES[0],
                policies=(WeightPolicy.wu(),),
                replications=replications,
                master_seed=seed + idx,
                alpha=alpha,
            )
        )
    sweeps = _weight_sweeps(bases, SWEEP_WEIGHTS, SWEEP_SAMPLE_SIZES, workers)
    return [
        {"target_event_rate": target, **cell._asdict()}
        for target, cells in zip(SWEEP_TARGET_RATES, sweeps)
        for cell in cells
    ]


def _table_runner(shapes, medians, hazard_ratios, policies, **censoring):
    """Runner of the design, type I error and power table over one grid;
    ``censoring`` holds the accrual length, follow-up and dropout of the
    protocol."""

    def run(
        *,
        seed: int,
        replications: int,
        alpha: float,
        power: float,
        include_power: bool,
        workers: int = 1,
    ) -> tuple[TableCell, ...]:
        return scenario_table(
            shapes,
            medians,
            hazard_ratios,
            policies,
            **censoring,
            alpha=alpha,
            beta=1.0 - power,
            replications=replications,
            master_seed=seed,
            include_power=include_power,
            workers=workers,
        )

    return run


_PBC = pbc_design(BENCHMARK_POLICIES[0])

PRESETS = {
    "figure1": _run_figure1,
    "table2": _table_runner(
        BENCHMARK_SHAPES,
        BENCHMARK_MEDIANS,
        BENCHMARK_HAZARD_RATIOS,
        BENCHMARK_POLICIES,
        accrual_length=BENCHMARK_ACCRUAL,
        follow_up=BENCHMARK_FOLLOW_UP,
    ),
    "pbc": _table_runner(
        (_PBC.null_model.shape,),
        (_PBC.null_model.median,),
        (_PBC.hazard_ratio,),
        BENCHMARK_POLICIES,
        accrual_length=_PBC.accrual_length,
        follow_up=_PBC.follow_up,
        dropout=_PBC.dropout,
    ),
}
