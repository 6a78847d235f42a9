"""Command-line front end.

Three subcommands cover the toolkit: ``design`` sizes a trial from
planning assumptions, ``analyze`` runs the weighted one-sample log-rank
test on a subject CSV, and ``simulate`` estimates operating
characteristics (single scenarios or the bundled presets).

Configs are flat key-value YAML files; unknown keys are rejected before
any computation. Every run emits a report envelope that echoes the fully
resolved config, so rerunning from the echo reproduces the payload
exactly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Any

import numpy as np
import yaml

from . import __version__
from .analysis import TrialDataset, run_test
from .design import (
    DesignSpec,
    WeightPolicy,
    sample_size,
    solve_accrual_length,
    suggest_policy,
)
from .errors import (
    ConfigError,
    DataValidationError,
    InfeasibleDesignError,
    NumericalError,
    SingleArmError,
)
from .models import (
    CensoringModel,
    DropoutModel,
    Exponential,
    ExponentialDropout,
    NoDropout,
    SurvivalModel,
    Weibull,
    _accrual_law,
    dropout_from_yearly_rate,
    hazard_ratio_alternative,
)
from .presets import PRESETS
from .simulate import STREAM_VERSION, ScenarioSpec, SimulationReport, run_scenario

__all__ = [
    "ReportEnvelope",
    "cmd_design",
    "cmd_analyze",
    "cmd_simulate",
    "main",
    "read_subject_csv",
    "write_subject_csv",
]

EXIT_OK = 0
EXIT_USAGE = ConfigError.exit_code
EXIT_DATA = DataValidationError.exit_code
EXIT_NUMERICAL = NumericalError.exit_code
EXIT_INFEASIBLE = InfeasibleDesignError.exit_code

_CSV_HEADER = ("entry_time", "time_on_study", "event")
_CSV_HEADER_DROPOUT = _CSV_HEADER + ("dropout",)


@dataclasses.dataclass(kw_only=True)
class ReportEnvelope:
    """Structured result of one command invocation; a written report lists
    the fields in this order."""

    tool: str = "singlearm"
    version: str = __version__
    command: str
    timestamp: str = dataclasses.field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    config: dict
    data_path: str | None = None
    results: dict
    warnings: list[str]


def _jsonify(obj: Any) -> Any:
    """Convert payload objects to plain JSON-serializable structures.

    Non-finite floats become ``None`` (JSON null), since strict JSON has no
    NaN or infinity.
    """
    # most values are plain scalars; numpy floats are floats too
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonify(obj.item())
    return obj


# ---------------------------------------------------------------------------
# config schema


@dataclasses.dataclass(frozen=True)
class _Key:
    type: type
    required: bool = False
    default: Any = None


def _law_keys(prefix: str, required: bool = False) -> dict[str, _Key]:
    """The keys of one survival law, which ``_survival_from`` reads."""
    return {
        f"{prefix}_family": _Key(str, required=required),
        **{f"{prefix}_{param}": _Key(float) for param in ("shape", "median", "rate")},
    }


_DROPOUT_KEYS = {
    "dropout_rate_yearly": _Key(float),
    "dropout_hazard": _Key(float),
}

_DESIGN_SCHEMA = {
    **_law_keys("null", required=True),
    "hazard_ratio": _Key(float),
    **_law_keys("alt"),
    "follow_up": _Key(float, required=True),
    "accrual_length": _Key(float),
    "accrual_rate": _Key(float),
    "accrual_exponent": _Key(float, default=1.0),
    **_DROPOUT_KEYS,
    "alpha": _Key(float, default=0.05),
    "power": _Key(float, default=0.8),
    "weight_policy": _Key(str, required=True),
    "fixed_weight": _Key(float),
    "sample_size_cap": _Key(int, default=10_000_000),
    "max_accrual_length": _Key(float, default=100.0),
}

_ANALYZE_SCHEMA = {
    **_law_keys("null", required=True),
    "analysis_time": _Key(float, required=True),
    "alpha": _Key(float, default=0.05),
    "weight_policy": _Key(str, required=True),
    "fixed_weight": _Key(float),
    "accrual_length": _Key(float),
    "accrual_exponent": _Key(float, default=1.0),
    **_DROPOUT_KEYS,
}

_RUN_KEYS = {
    "alpha": _Key(float, default=0.05),
    "replications": _Key(int, default=100_000),
    "seed": _Key(int, required=True),
}

_SCENARIO_SCHEMA = {
    **_law_keys("null", required=True),
    **_law_keys("truth"),
    "hazard_ratio_truth": _Key(float),
    "hazard_ratio": _Key(float),
    "n": _Key(int, required=True),
    "policies": _Key(str, required=True),
    "follow_up": _Key(float, required=True),
    "accrual_length": _Key(float, required=True),
    "accrual_exponent": _Key(float, default=1.0),
    **_DROPOUT_KEYS,
    **_RUN_KEYS,
}

# every setting a preset runner may take as a keyword parameter
_PRESET_SETTINGS = {
    **_RUN_KEYS,
    "power": _Key(float, default=0.8),
    "include_power": _Key(bool, default=True),
}


def _preset_schema(name: Any) -> dict[str, _Key]:
    """The ``preset`` key plus the settings that the named runner reads."""
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"config key 'preset' must be one of {', '.join(PRESETS)}")
    reads = inspect.signature(PRESETS[name]).parameters
    return {"preset": _Key(str), **{k: v for k, v in _PRESET_SETTINGS.items() if k in reads}}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat mapping of keys to scalar values")
    return raw


def _validate_config(raw: dict, schema: dict[str, _Key], command: str) -> dict:
    # YAML keys need not be strings, so sort by their text
    unknown = sorted((k for k in raw if k not in schema), key=str)
    if unknown:
        raise ConfigError(f"unknown config key for {command}: {unknown[0]!r}")
    out: dict[str, Any] = {}
    for name, key in schema.items():
        if name in raw and raw[name] is not None:
            value = raw[name]
            if isinstance(value, (dict, list)):
                raise ConfigError(f"config key {name!r} must be a scalar")
            if key.type is float:
                numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (numeric and math.isfinite(value)):
                    raise ConfigError(f"config key {name!r} must be a finite number")
                value = float(value)
            elif key.type is int:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"config key {name!r} must be an integer")
            elif key.type is bool:
                if not isinstance(value, bool):
                    raise ConfigError(f"config key {name!r} must be a boolean")
            elif key.type is str:
                if not isinstance(value, str):
                    raise ConfigError(f"config key {name!r} must be a string")
            out[name] = value
        elif key.required:
            raise ConfigError(f"missing required config key for {command}: {name!r}")
        elif key.default is not None:
            out[name] = key.default
    # checked here, so that no data file is read and no design computed first
    for name in ("alpha", "power"):
        if name in out and not 0.0 < out[name] < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1)")
    if "analysis_time" in out and not out["analysis_time"] > 0.0:
        raise ConfigError("analysis_time must be positive")
    return out


# ---------------------------------------------------------------------------
# model builders


def _survival_from(config: dict, prefix: str) -> SurvivalModel | None:
    """The law that the ``{prefix}_*`` keys describe, or None if none is set."""
    family, shape, median, rate = (config.get(key) for key in _law_keys(prefix))
    if family is None:
        if (shape, median, rate) != (None, None, None):
            raise ConfigError(f"{prefix}_shape, {prefix}_median and {prefix}_rate need {prefix}_family")
        return None
    if family == "weibull":
        if shape is None or median is None:
            raise ConfigError(f"{prefix}_family weibull needs {prefix}_shape and {prefix}_median")
        if rate is not None:
            raise ConfigError(f"{prefix}_rate does not apply to the weibull family")
        return Weibull(shape, median)
    if family == "exponential":
        if shape is not None:
            raise ConfigError(f"{prefix}_shape does not apply to the exponential family")
        if (rate is None) == (median is None):
            raise ConfigError(
                f"{prefix}_family exponential needs exactly one of {prefix}_rate and {prefix}_median"
            )
        return Exponential(rate) if rate is not None else Exponential.from_median(median)
    raise ConfigError(f"config key '{prefix}_family' must be one of weibull, exponential")


def _dropout_from(config: dict) -> DropoutModel:
    rate = config.get("dropout_rate_yearly")
    hazard = config.get("dropout_hazard")
    if rate is not None and hazard is not None:
        raise ConfigError("give at most one of dropout_rate_yearly and dropout_hazard")
    if hazard is not None:
        return ExponentialDropout(hazard)
    return dropout_from_yearly_rate(rate) if rate is not None else NoDropout()


def _parse_policy_token(token: str) -> WeightPolicy:
    """A ``policies`` entry: a policy kind, or ``fixed:<weight>``."""
    token = token.strip()
    kind, colon, value = token.partition(":")
    try:
        return WeightPolicy(kind, float(value) if colon else None)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad policy token {token!r}: {exc}") from None


# ---------------------------------------------------------------------------
# subject CSV


def write_subject_csv(path: str, data: TrialDataset) -> None:
    """Serialize a dataset in the subject CSV schema read by ``analyze``.

    Floats are written with full precision so parse -> write -> parse is
    the identity.
    """
    # tolist() gives Python floats, whose repr is the shortest exact text
    columns = [
        map(repr, data.entry_times.tolist()),
        map(repr, data.times_on_study.tolist()),
        data.events.astype(int).tolist(),
    ]
    if data.dropouts is not None:
        columns.append(data.dropouts.astype(int).tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER_DROPOUT if data.dropouts is not None else _CSV_HEADER)
        writer.writerows(zip(*columns))


def read_subject_csv(path: str, analysis_time: float) -> TrialDataset:
    """Parse a subject CSV into a validated dataset.

    Blank rows are skipped, so each record keeps its file line for the
    error messages.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise DataValidationError(f"data file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataValidationError(f"cannot read data file {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError(f"{path}: file is empty") from None
    header = tuple(h.strip() for h in header)
    if header == _CSV_HEADER:
        has_dropout = False
    elif header == _CSV_HEADER_DROPOUT:
        has_dropout = True
    else:
        raise DataValidationError(
            f"{path}: header must be {','.join(_CSV_HEADER)} optionally followed by dropout"
        )
    entry, time_on_study, event, dropout, lines = [], [], [], [], []
    expected_cols = 4 if has_dropout else 3
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != expected_cols:
            raise DataValidationError(
                f"{path} line {line_no}: expected {expected_cols} columns, got {len(row)}"
            )
        try:
            entry.append(float(row[0]))
            time_on_study.append(float(row[1]))
        except ValueError:
            raise DataValidationError(
                f"{path} line {line_no}: entry_time and time_on_study must be numbers"
            ) from None
        flag = row[2].strip()
        if flag not in ("0", "1"):
            raise DataValidationError(f"{path} line {line_no}: event must be 0 or 1")
        event.append(flag == "1")
        if has_dropout:
            dflag = row[3].strip()
            if dflag not in ("0", "1"):
                raise DataValidationError(f"{path} line {line_no}: dropout must be 0 or 1")
            dropout.append(dflag == "1")
        lines.append(line_no)
    if not entry:
        raise DataValidationError(f"{path}: no subject rows")
    try:
        return TrialDataset.from_arrays(
            entry, time_on_study, event, analysis_time, dropout if has_dropout else None
        )
    except DataValidationError as exc:
        if exc.record_index is not None:
            raise DataValidationError(f"{path} line {lines[exc.record_index]}: {exc}") from None
        raise


# ---------------------------------------------------------------------------
# commands


def cmd_design(config: dict) -> ReportEnvelope:
    """Size a trial from planning assumptions."""
    cfg = _validate_config(config, _DESIGN_SCHEMA, "design")
    spec = DesignSpec(
        null_model=_survival_from(cfg, "null"),
        follow_up=cfg["follow_up"],
        weight_policy=WeightPolicy(cfg["weight_policy"], cfg.get("fixed_weight")),
        hazard_ratio=cfg.get("hazard_ratio"),
        alternative=_survival_from(cfg, "alt"),
        accrual_length=cfg.get("accrual_length"),
        accrual_rate=cfg.get("accrual_rate"),
        accrual_exponent=cfg["accrual_exponent"],
        dropout=_dropout_from(cfg),
        alpha=cfg["alpha"],
        beta=1.0 - cfg["power"],
        sample_size_cap=cfg["sample_size_cap"],
        max_accrual_length=cfg["max_accrual_length"],
    )
    result = sample_size(spec) if spec.accrual_length is not None else solve_accrual_length(spec)
    advice = suggest_policy(result.expected_event_rate_null)
    payload = {
        "n": result.n,
        "weight": result.weight_used,
        "policy": result.policy.label,
        "accrual_length": result.accrual_length,
        "analysis_time": result.analysis_time,
        "expected_event_rate_null": result.expected_event_rate_null,
        "expected_event_rate_alt": result.expected_event_rate_alt,
        "achieved_power": result.achieved_power,
        "moments": result.moments,
        "advisory": (
            f"expected event rate under the reference law is "
            f"{result.expected_event_rate_null:.1%}; the {advice} policy is "
            "typically closest to nominal in this regime"
        ),
    }
    return ReportEnvelope(command="design", config=cfg, results=_jsonify(payload), warnings=[])


def cmd_analyze(config: dict, data_path: str) -> ReportEnvelope:
    """Run the weighted one-sample log-rank test on a subject CSV."""
    cfg = _validate_config(config, _ANALYZE_SCHEMA, "analyze")
    null = _survival_from(cfg, "null")
    policy = WeightPolicy(cfg["weight_policy"], cfg.get("fixed_weight"))
    accrual_length = cfg.get("accrual_length")
    if accrual_length is None and (cfg["accrual_exponent"] != 1.0 or cfg.keys() & _DROPOUT_KEYS):
        raise ConfigError("accrual_exponent, dropout_rate_yearly and dropout_hazard need accrual_length")
    dropout = _dropout_from(cfg)
    data = read_subject_csv(data_path, cfg["analysis_time"])
    design_context = None
    if accrual_length is not None:
        design_context = CensoringModel(
            _accrual_law(accrual_length, cfg["accrual_exponent"]), dropout, cfg["analysis_time"]
        )
    outcome = run_test(data, null, policy, cfg["alpha"], design_context)
    warnings = []
    if outcome.weight_fallback:
        warnings.append(
            "random_km found no censoring information; the fallback weight was used"
        )
    return ReportEnvelope(
        command="analyze", config=cfg, data_path=data_path, results=_jsonify(outcome), warnings=warnings
    )


def _simulate_scenario(cfg: dict, workers: int) -> SimulationReport:
    null = _survival_from(cfg, "null")
    truth = _survival_from(cfg, "truth")
    if cfg.get("hazard_ratio_truth") is not None:
        if truth is not None:
            raise ConfigError("give either truth_* keys or hazard_ratio_truth, not both")
        truth = hazard_ratio_alternative(null, cfg["hazard_ratio_truth"])
    policies = tuple(_parse_policy_token(tok) for tok in cfg["policies"].split(","))
    censoring = CensoringModel(
        _accrual_law(cfg["accrual_length"], cfg["accrual_exponent"]),
        _dropout_from(cfg),
        cfg["accrual_length"] + cfg["follow_up"],
    )
    hazard_ratio = cfg.get("hazard_ratio")
    planning_alt = hazard_ratio_alternative(null, hazard_ratio) if hazard_ratio is not None else None
    return run_scenario(
        ScenarioSpec(
            truth_model=null if truth is None else truth,
            null_model=null,
            censoring=censoring,
            n=cfg["n"],
            policies=policies,
            replications=cfg["replications"],
            master_seed=cfg["seed"],
            alpha=cfg["alpha"],
            planning_alternative=planning_alt,
        ),
        workers=workers,
    )


def cmd_simulate(config: dict, workers: int = 1) -> ReportEnvelope:
    """Estimate operating characteristics by Monte Carlo: one scenario, or
    the preset protocol that ``preset`` names."""
    preset = config.get("preset")
    if preset is None:
        cfg = _validate_config(config, _SCENARIO_SCHEMA, "a simulate scenario")
    else:
        cfg = _validate_config(config, _preset_schema(preset), f"simulate preset {preset}")
    warnings: list[str] = []
    if cfg["replications"] < 2:
        warnings.append("standard errors are degenerate with fewer than two replications")
    if preset is None:
        results = _simulate_scenario(cfg, workers)
    else:
        settings = {k: v for k, v in cfg.items() if k != "preset"}
        results = {"rows": PRESETS[preset](**settings, workers=workers)}
    # the random-stream layout that the seed is read under
    results = {"stream_version": STREAM_VERSION, **_jsonify(results)}
    return ReportEnvelope(command="simulate", config=cfg, results=results, warnings=warnings)


# ---------------------------------------------------------------------------
# output


def _print_envelope(env: ReportEnvelope) -> None:
    """Print the plain results: a scalar as ``key: value``, a dict as
    ``key.sub: value`` and a list of rows as its count and first 8 rows."""
    print(f"singlearm {env.version} :: {env.command}")
    for key, value in env.results.items():
        if isinstance(value, dict):
            for sub, val in value.items():
                print(f"  {key}.{sub}: {val}")
        elif isinstance(value, list):
            print(f"  {key}: {len(value)} rows")
            for row in value[:8]:
                # None where no replication was determinate or no power was asked for
                print("  " + ", ".join(f"{k}={'n/a' if v is None else v}" for k, v in row.items()))
            if len(value) > 8:
                print(f"  ... ({len(value) - 8} more rows; use --out to capture everything)")
        else:
            print(f"  {key}: {value}")
    for warning in env.warnings:
        print(f"  warning: {warning}", file=sys.stderr)


def _write_output(env: ReportEnvelope, out_path: str) -> None:
    """Write the report, whose results are plain already: the rows of a
    preset as CSV, else the envelope as one line of strict JSON."""
    if out_path.endswith(".csv"):
        rows = env.results["rows"]
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return
    # vars() lists the fields in their declared order; a one-shot dumps
    # without indent runs the C encoder
    text = json.dumps(vars(env), allow_nan=False)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlearm",
        description="Design, analyze, and simulate single-arm survival trials "
        "with weighted one-sample log-rank tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat YAML config file")
    common.add_argument("--out", help="write the report (JSON, or CSV for the rows of a simulate preset)")

    sub.add_parser("design", parents=[common], help="compute sample size and weight")

    analyze = sub.add_parser("analyze", parents=[common], help="test a subject-level CSV")
    analyze.add_argument("--data", required=True, help="subject CSV file")

    simulate = sub.add_parser("simulate", parents=[common], help="Monte Carlo operating characteristics")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    simulate.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    simulate.add_argument("--replications", type=int, help="override the config replication count")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # fail before the computation, not after it
        if args.out and os.path.isdir(args.out):
            raise ConfigError(f"cannot write report {args.out}: it is a directory")
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"cannot write report {args.out}: no such directory")
        config = _load_config(args.config)
        preset_rows = args.command == "simulate" and config.get("preset") is not None
        if args.out and args.out.endswith(".csv") and not preset_rows:
            raise ConfigError("CSV output is only available for the rows of a simulate preset")
        if args.command == "design":
            env = cmd_design(config)
        elif args.command == "analyze":
            env = cmd_analyze(config, args.data)
        else:
            if args.seed is not None:
                config["seed"] = args.seed
            if args.replications is not None:
                config["replications"] = args.replications
            env = cmd_simulate(config, workers=max(1, args.workers))
        _print_envelope(env)
        if args.out:
            try:
                _write_output(env, args.out)
            except OSError as exc:
                raise ConfigError(f"cannot write report {args.out}: {exc}") from None
            print(f"  report written to {args.out}")
        return EXIT_OK
    except SingleArmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
