"""Design and analysis of single-arm survival trials with weighted
one-sample log-rank tests: exact power and sample-size planning, subject
level testing, and a reproducible Monte Carlo engine for operating
characteristics.
"""

__version__ = "0.1.0"

from .analysis import (
    ConvergenceReport,
    TestOutcome,
    TrialDataset,
    consistency_check_random_weight,
    counting_and_compensator,
    run_test,
)
from .design import (
    DesignResult,
    DesignSpec,
    MomentSet,
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
from .models import (
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
from .simulate import (
    ScenarioSpec,
    SimulationReport,
    draw_trial,
    run_scenario,
    scenario_table,
    weight_sweep,
)

__all__ = [
    "__version__",
    "CensoringModel",
    "ConvergenceReport",
    "DesignResult",
    "DesignSpec",
    "Exponential",
    "ExponentialDropout",
    "MomentSet",
    "NoDropout",
    "PiecewiseExponential",
    "PowerAccrual",
    "ScenarioSpec",
    "SimulationReport",
    "TestOutcome",
    "TrialDataset",
    "UniformAccrual",
    "Weibull",
    "WeightPolicy",
    "consistency_check_random_weight",
    "counting_and_compensator",
    "draw_trial",
    "dropout_from_yearly_rate",
    "expected_event_rate",
    "hazard_ratio_alternative",
    "moments",
    "power",
    "resolve_weight",
    "run_scenario",
    "run_test",
    "sample_size",
    "scenario_table",
    "solve_accrual_length",
    "suggest_policy",
    "weight_sweep",
    "weight_uncorrelated_alt",
    "weight_uncorrelated_null",
]
