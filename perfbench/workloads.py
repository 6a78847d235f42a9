"""The benchmark's workloads: input generation and output checks.

Each workload turns a seed into a fixed list of CLI operations (configs
and subject CSVs written under the work directory) and checks the reports
those operations produce. The program sees only the generated files.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
import singlearm
from singlearm import DesignSpec, Weibull, WeightPolicy

import published
import reference as ref

# Monte Carlo bands are this many combined standard errors wide. The
# widest exposure is the 404 correlated n = 5,000 cells of oc_sweep, where
# a correct program leaves a band about once in ten thousand runs.
Z_BAND = 5.0

# the liver-study law and protocol
LIVER_SHAPE, LIVER_MEDIAN, LIVER_HR = 1.22, 9.0, 1.75
LIVER_ACCRUAL, LIVER_FOLLOW_UP = 5.0, 3.0
LIVER_T = LIVER_ACCRUAL + LIVER_FOLLOW_UP
YEARLY_DROPOUT = 0.1

GRID_ACCRUAL, GRID_FOLLOW_UP = 3.0, 1.0
ALPHA, POWER = 0.05, 0.8

DESIGN_POLICIES = ("compensator", "counting", "wu", "fixed", "uncorrelated_null", "uncorrelated_alt", "combined")
RATE_POLICIES = ("uncorrelated_null", "wu", "compensator", "counting")
RATE_DESIGNS = 6

ANALYZE_FILES = 60
ANALYZE_MIN_N, ANALYZE_MAX_N = 30, 10_000

SWEEP_REPS = 1_000
SWEEP_RATES, SWEEP_SIZES, SWEEP_WEIGHTS = 4, 7, 101
RANDOM_KM_REPS = 20_000
CASE_STUDY_REPS = 100_000


@dataclass
class Op:
    """One CLI command and what a correct run of it looks like."""

    argv: list[str]
    kind: str
    work: float
    out: str
    expect_exit: int = 0
    expect_line: int | None = None
    meta: dict = field(default_factory=dict)


def _liver_cum_hazard(s):
    return ref.weibull_cum_hazard(s, LIVER_SHAPE, LIVER_MEDIAN)


def _liver_weight(dropout_hazard: float) -> float:
    """Uncorrelated-null weight of the liver-study protocol, by fixed grid."""
    return ref.weight_null_fixed_grid(
        lambda s: ref.weibull_density(s, LIVER_SHAPE, LIVER_MEDIAN),
        _liver_cum_hazard, LIVER_ACCRUAL, LIVER_FOLLOW_UP, dropout_hazard,
    )


def _write_yaml(path: str, cfg: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in cfg.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = repr(value)
            fh.write(f"{key}: {value}\n")


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *stream])


def program_seed(seed: int) -> int:
    """Master seed handed to ``simulate``; the program needs it non-negative."""
    return seed % 2**31


class Workload:
    name = ""
    # a command run once, after the timed rounds, in a traced run only
    probe: Op | None = None

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.dir = work_dir
        os.makedirs(os.path.join(work_dir, "out"), exist_ok=True)

    def _op(self, i: int, command: str, cfg: dict, kind: str, work: float, extra=(), **kw) -> Op:
        path = os.path.join(self.dir, f"{i:04d}.yaml")
        _write_yaml(path, cfg)
        out = os.path.join(self.dir, "out", f"{i:04d}.json")
        return Op([command, "--config", path, *extra, "--out", out], kind, work, out, **kw)

    def build(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op], results: list[dict | None]) -> list[str]:
        """Problems with the reports of the operations that did not fail;
        ``results[i]`` is None for a failed operation."""
        raise NotImplementedError

    def check_km_samples(self, samples: list[tuple]) -> list[str]:
        """Problems with the ``km_weight_from_arrays`` calls that a traced
        run caught, as (times, events, weight, used_fallback)."""
        return []


# ---------------------------------------------------------------------------
# plan: design commands


class Plan(Workload):
    name = "plan"

    def build(self) -> list[Op]:
        rng = _rng(self.seed, 1)
        specs = []
        for (hr, shape), by_median in published.GRID_SAMPLE_SIZES.items():
            for median, sizes in by_median.items():
                for policy, n_pub in zip(published.GRID_POLICIES, sizes):
                    cfg = {"null_family": "weibull", "null_shape": shape, "null_median": median,
                           "hazard_ratio": hr, "follow_up": GRID_FOLLOW_UP,
                           "accrual_length": GRID_ACCRUAL, "weight_policy": policy}
                    specs.append(("grid", cfg, {"n_pub": n_pub}))
        liver = {"null_family": "weibull", "null_shape": LIVER_SHAPE, "null_median": LIVER_MEDIAN,
                 "hazard_ratio": LIVER_HR, "follow_up": LIVER_FOLLOW_UP}
        for policy in DESIGN_POLICIES:
            cfg = {**liver, "accrual_length": LIVER_ACCRUAL, "weight_policy": policy}
            if policy == "fixed":
                cfg["fixed_weight"] = round(float(rng.uniform(0.1, 0.9)), 4)
            specs.append(("liver", cfg, {}))
        # accrual rates stratified over 10-40 a year, so every seed covers the range
        for k in range(RATE_DESIGNS):
            rate = 10.0 + 30.0 * (k + float(rng.random())) / RATE_DESIGNS
            cfg = {**liver, "accrual_rate": rate, "weight_policy": RATE_POLICIES[k % len(RATE_POLICIES)]}
            specs.append(("rate", cfg, {}))
        order = rng.permutation(len(specs))
        return [self._op(i, "design", specs[j][1], specs[j][0], 1.0, meta={"cfg": specs[j][1], **specs[j][2]})
                for i, j in enumerate(order)]

    def check(self, ops, results):
        problems = []
        liver_w = _liver_weight(0.0)
        for op, res in zip(ops, results):
            if res is None:
                continue
            cfg = op.meta["cfg"]
            n, w = res["n"], res["weight"]
            tag = f"design {op.kind} {cfg}"
            policy = (WeightPolicy.fixed(cfg["fixed_weight"]) if cfg["weight_policy"] == "fixed"
                      else WeightPolicy(cfg["weight_policy"]))
            spec = DesignSpec(
                null_model=Weibull(cfg["null_shape"], cfg["null_median"]),
                follow_up=cfg["follow_up"], weight_policy=policy, hazard_ratio=cfg["hazard_ratio"],
                accrual_length=res["accrual_length"], alpha=ALPHA, beta=1.0 - POWER,
            )
            if op.kind == "grid":
                if abs(n - op.meta["n_pub"]) > 1:
                    problems.append(f"{tag}: n={n}, published {op.meta['n_pub']}")
                if cfg["null_shape"] == 1.0:
                    problems += _check_exponential_cell(tag, cfg, res)
            elif op.kind == "liver":
                pub = published.LIVER_CASE.get(cfg["weight_policy"])
                if pub is not None and abs(n - pub[0]) > (0 if cfg["weight_policy"] == "uncorrelated_null" else 1):
                    problems.append(f"{tag}: n={n}, published {pub[0]}")
                if cfg["weight_policy"] == "uncorrelated_null":
                    if abs(w - published.LIVER_WEIGHT) > 1e-4 or abs(w - liver_w) > 1e-7:
                        problems.append(f"{tag}: weight {w}, published {published.LIVER_WEIGHT}, reference {liver_w}")
            else:
                a, rate = res["accrual_length"], cfg["accrual_rate"]
                if not (rate * a - 1e-6 <= n < rate * a + 1.0):
                    problems.append(f"{tag}: n={n} is not the ceiling of rate x accrual length {rate * a}")
                fixed_n = singlearm.sample_size(spec).n
                if abs(fixed_n - n) > 1:
                    problems.append(f"{tag}: a fixed-accrual design at the solved length needs {fixed_n}, got {n}")
            if singlearm.power(spec, n) < POWER - 1e-9:
                problems.append(f"{tag}: n={n} misses the target power")
            if n > 1 and singlearm.power(spec, n - 1) >= POWER + 1e-9:
                problems.append(f"{tag}: n-1={n - 1} already reaches the target power")
        return problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_exponential_cell(tag: str, cfg: dict, res: dict) -> list[str]:
    """A Weibull law with shape 1 is exponential: compare with the closed form."""
    problems = []
    null_rate = ref.LOG_TWO / cfg["null_median"]
    alt_rate = null_rate / cfg["hazard_ratio"]
    rate_null = ref.exp_event_rate(null_rate, GRID_ACCRUAL, GRID_FOLLOW_UP)
    mom = ref.exp_moments(null_rate, alt_rate, GRID_ACCRUAL, GRID_FOLLOW_UP)
    if not _close(res["expected_event_rate_null"], rate_null, 1e-7):
        problems.append(f"{tag}: event rate {res['expected_event_rate_null']}, closed form {rate_null}")
    for key, value in mom.items():
        if not _close(res["moments"][key], value, 1e-7):
            problems.append(f"{tag}: moment {key} {res['moments'][key]}, closed form {value}")
    weight = {"compensator": 0.0, "counting": 1.0, "wu": 0.5,
              "uncorrelated_null": ref.exp_weight_null(null_rate, GRID_ACCRUAL, GRID_FOLLOW_UP)}[cfg["weight_policy"]]
    if abs(res["weight"] - weight) > 1e-7:
        problems.append(f"{tag}: weight {res['weight']}, closed form {weight}")
    n_real = ref.required_n(mom, weight, ALPHA, 1.0 - POWER)
    if abs(n_real - round(n_real)) > 1e-6 and res["n"] != math.ceil(n_real):
        problems.append(f"{tag}: n={res['n']}, closed form {n_real}")
    return problems


# ---------------------------------------------------------------------------
# analyze: subject CSVs

# Files with one bad row each, the same for every seed: (name, file line of
# the bad row). The last two fail today: a NaN time passes validation, and a
# validation error after blank rows is reported on the wrong line.
MALFORMED = (
    ("event_flag", 5), ("columns", 7), ("not_a_number", 4), ("negative_time", 6),
    ("beyond_horizon", 9), ("event_and_dropout", 3), ("nan_time", 5), ("after_blank_rows", 6),
)


def _draw_subjects(rng: np.random.Generator, n: int, hazard_ratio: float):
    """Liver-study law (scaled by the hazard ratio), uniform entry over the
    accrual window and 10% yearly dropout, observed at the analysis time."""
    entry = LIVER_ACCRUAL * rng.random(n)
    median = LIVER_MEDIAN * hazard_ratio ** (1.0 / LIVER_SHAPE)
    event_time = median * (rng.standard_exponential(n) / ref.LOG_TWO) ** (1.0 / LIVER_SHAPE)
    dropout_time = rng.standard_exponential(n) / ref.yearly_dropout_hazard(YEARLY_DROPOUT)
    horizon = LIVER_T - entry
    censor = np.minimum(dropout_time, horizon)
    time = np.minimum(event_time, censor)
    event = event_time <= censor
    dropout = ~event & (dropout_time < horizon)
    return entry, time, event, dropout


def _csv_rows(entry, time, event, dropout) -> list[str]:
    return [f"{e!r},{t!r},{int(v)},{int(d)}" for e, t, v, d in
            zip(entry.tolist(), time.tolist(), event.tolist(), dropout.tolist())]


def _write_csv(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("entry_time,time_on_study,event,dropout\n")
        fh.write("\n".join(rows))
        fh.write("\n")


def _malformed_rows(name: str, line: int) -> list[str]:
    entry, time, event, dropout = _draw_subjects(np.random.default_rng(20260815), 10, 1.0)
    rows = _csv_rows(entry, time, event, dropout)
    i = line - 2
    e, t = rows[i].split(",")[:2]
    bad = {
        "event_flag": f"{e},{t},2,0",
        "columns": f"{e},{t},1",
        "not_a_number": f"{e},abc,1,0",
        "negative_time": f"{e},-0.5,1,0",
        "beyond_horizon": f"{e},{LIVER_T + 1.0!r},1,0",
        "event_and_dropout": f"{e},{t},1,1",
        "nan_time": f"{e},nan,1,0",
        "after_blank_rows": f"{e},-0.5,1,0",
    }[name]
    rows[i] = bad
    if name == "after_blank_rows":
        rows = ["", ""] + rows[: i - 2] + rows[i:]
    return rows


class Analyze(Workload):
    name = "analyze"

    def build(self) -> list[Op]:
        null = {"null_family": "weibull", "null_shape": LIVER_SHAPE, "null_median": LIVER_MEDIAN,
                "analysis_time": LIVER_T}
        planning = {"accrual_length": LIVER_ACCRUAL, "dropout_rate_yearly": YEARLY_DROPOUT}
        context = {**null, "weight_policy": "uncorrelated_null", **planning}
        # with the planning assumptions given, random_km falls back to the
        # planning weight rather than to 0.5
        km = {**null, "weight_policy": "random_km", **planning}
        # sizes spaced evenly in log scale, the same for every seed
        sizes = np.round(np.geomspace(ANALYZE_MIN_N, ANALYZE_MAX_N, ANALYZE_FILES)).astype(int)
        specs = []
        for k, n in enumerate(sizes.tolist()):
            hr = 1.0 if k % 2 == 0 else LIVER_HR
            data = _draw_subjects(_rng(self.seed, 2, k), n, hr)
            path = os.path.join(self.dir, f"subjects_{k:03d}.csv")
            _write_csv(path, _csv_rows(*data))
            for cfg in (context, km):
                specs.append((cfg, path, "analyze", float(n), {"data": data}))
        for name, line in MALFORMED:
            path = os.path.join(self.dir, f"malformed_{name}.csv")
            _write_csv(path, _malformed_rows(name, line))
            specs.append((context, path, "malformed", 0.0, {"line": line}))
        order = _rng(self.seed, 3).permutation(len(specs))
        ops = []
        for i, j in enumerate(order):
            cfg, path, kind, work, meta = specs[j]
            bad = kind == "malformed"
            ops.append(self._op(i, "analyze", cfg, kind, work, extra=("--data", path),
                                expect_exit=3 if bad else 0, expect_line=meta.get("line"),
                                meta={"cfg": cfg, **meta}))
        return ops

    def check(self, ops, results):
        problems = []
        context_w = _liver_weight(ref.yearly_dropout_hazard(YEARLY_DROPOUT))
        for op, res in zip(ops, results):
            if res is None or op.kind != "analyze":
                continue
            _, time, event, _ = op.meta["data"]
            policy = op.meta["cfg"]["weight_policy"]
            tag = f"analyze {policy} n={time.size}"
            n_events = int(event.sum())
            a0 = math.fsum(_liver_cum_hazard(time).tolist())
            if policy == "random_km":
                w, w_tol = ref.km_weight(time.tolist(), event.tolist(), _liver_cum_hazard), 1e-9
            else:
                w, w_tol = context_w, 1e-7
            if res["n"] != time.size or res["events"] != n_events:
                problems.append(f"{tag}: n={res['n']} events={res['events']}, expected {time.size} and {n_events}")
            if not _close(res["expected"], a0, 1e-10):
                problems.append(f"{tag}: A0 {res['expected']}, reference {a0}")
            if w is None or abs(res["weight"] - w) > w_tol or res["weight_fallback"]:
                problems.append(f"{tag}: weight {res['weight']}, reference {w}")
                continue
            z = ref.z_statistic(n_events, a0, w)
            if abs(res["statistic"] - z) > 1e-6 * max(1.0, abs(z)):
                problems.append(f"{tag}: z {res['statistic']}, reference {z}")
            if abs(abs(z) - ref.z_quantile(1.0 - ALPHA / 2.0)) > 1e-6:
                for key, value in ref.rejections(z, ALPHA).items():
                    if res[key] != value:
                        problems.append(f"{tag}: {key}={res[key]}, reference {value}")
        return problems


def named_line(stderr: str) -> int | None:
    match = re.search(r"\bline (\d+)\b", stderr)
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# simulate workloads


class CaseStudy(Workload):
    name = "oc_case_study"

    def build(self) -> list[Op]:
        cfg = {"preset": "pbc", "seed": program_seed(self.seed), "replications": CASE_STUDY_REPS}
        # Two worker processes on a machine with two shared cores time the
        # neighbours' load, so the timed command runs in one process and the
        # process pools (the CLI default, --workers 2) are traced by a probe.
        self.probe = self._op(1, "simulate", cfg, "simulate", 8.0 * CASE_STUDY_REPS, extra=("--workers", "2"))
        # four policies, each simulated under the reference law and under the alternative
        return [self._op(0, "simulate", cfg, "simulate", 8.0 * CASE_STUDY_REPS, extra=("--workers", "1"))]

    def check(self, ops, results):
        problems = []
        for res in results:
            if res is None:
                continue
            rows = {row["policy_label"]: row for row in res["rows"]}
            if set(rows) != set(published.LIVER_CASE):
                problems.append(f"case study policies {sorted(rows)}")
                continue
            for label, (n_pub, _two, left_pub, power_pub) in published.LIVER_CASE.items():
                row = rows[label]
                if row["n"] != n_pub:
                    problems.append(f"case study {label}: n={row['n']}, published {n_pub}")
                if row["indeterminate_null"] or row["indeterminate_alt"]:
                    problems.append(f"case study {label}: indeterminate replications")
                for what, rate, pub in (("left size", row["alpha_left"], left_pub), ("power", row["power"], power_pub)):
                    if not ref.within_published_band(rate, CASE_STUDY_REPS, pub, published.LIVER_CASE_REPS, Z_BAND):
                        problems.append(f"case study {label}: {what} {rate} outside the band around {pub}")
        return problems


class Sweep(Workload):
    name = "oc_sweep"

    def build(self) -> list[Op]:
        cfg = {"preset": "figure1", "seed": program_seed(self.seed), "replications": SWEEP_REPS}
        work = float(SWEEP_RATES * SWEEP_SIZES * SWEEP_REPS)
        return [self._op(0, "simulate", cfg, "simulate", work, extra=("--workers", "1"))]

    def check(self, ops, results):
        problems = []
        for res in results:
            if res is None:
                continue
            rows = res["rows"]
            if len(rows) != SWEEP_RATES * SWEEP_SIZES * SWEEP_WEIGHTS:
                problems.append(f"sweep has {len(rows)} rows")
            cells: dict = {}
            for row in rows:
                cells.setdefault((row["target_event_rate"], row["n"]), []).append(row)
                if row["determinate"] + row["indeterminate"] != row["replications"] or row["replications"] != SWEEP_REPS:
                    problems.append(f"sweep cell {row}: replications do not add up")
                if row["n"] == 5000 and row["determinate"]:
                    se = ref.binomial_se(0.025, row["determinate"])
                    if abs(row["rate_left"] - 0.025) > Z_BAND * se:
                        problems.append(f"sweep n=5000 w={row['weight']}: left rate {row['rate_left']}")
            for key, group in cells.items():
                group.sort(key=lambda r: r["weight"])
                # a larger weight shrinks the variance whenever N < A0, so the
                # left rejections can only grow with w, apart from replications
                # that become indeterminate
                bound = math.inf
                for row in reversed(group):
                    if row["rejections_left"] > bound:
                        problems.append(f"sweep {key} w={row['weight']}: left rejections not monotone")
                    bound = min(bound, row["rejections_left"] + row["indeterminate"])
        return problems


class RandomKm(Workload):
    name = "oc_random_km"

    def build(self) -> list[Op]:
        cfg = {"null_family": "weibull", "null_shape": LIVER_SHAPE, "null_median": LIVER_MEDIAN,
               "n": 106, "policies": "uncorrelated_null,random_km", "follow_up": LIVER_FOLLOW_UP,
               "accrual_length": LIVER_ACCRUAL, "dropout_rate_yearly": YEARLY_DROPOUT,
               "replications": RANDOM_KM_REPS, "seed": program_seed(self.seed)}
        return [self._op(0, "simulate", cfg, "simulate", float(RANDOM_KM_REPS), extra=("--workers", "1"))]

    def check(self, ops, results):
        problems = []
        context_w = _liver_weight(ref.yearly_dropout_hazard(YEARLY_DROPOUT))
        for res in results:
            if res is None:
                continue
            pols = {p["label"]: p for p in res["policies"]}
            unc, km = pols["uncorrelated_null"], pols["random_km"]
            if km["fallbacks"]:
                problems.append(f"random_km fell back {km['fallbacks']} times")
            if unc["indeterminate"] or km["indeterminate"]:
                problems.append("random_km scenario has indeterminate replications")
            if abs(unc["weight"] - context_w) > 1e-7:
                problems.append(f"planning weight {unc['weight']}, reference {context_w}")
            for key in ("rejections_two", "rejections_left", "rejections_right"):
                if not ref.within_paired_bound(unc[key], km[key], Z_BAND):
                    problems.append(f"{key}: uncorrelated_null {unc[key]} vs random_km {km[key]}")
        return problems

    def check_km_samples(self, samples):
        if not samples:
            return ["the traced run caught no km_weight_from_arrays call"]
        problems = []
        for times, events, weight, fallback in samples:
            w = ref.km_weight(times.tolist(), events.tolist(), _liver_cum_hazard)
            if fallback or w is None or abs(w - weight) > 1e-9:
                problems.append(f"km_weight_from_arrays gave {weight} (fallback {fallback}), reference {w}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Plan, Analyze, CaseStudy, Sweep, RandomKm)}
