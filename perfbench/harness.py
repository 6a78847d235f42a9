"""The measurement loop: runs whole rounds of a workload's commands,
classifies each outcome, checks the reports, and turns timings (or, in a
traced run, spans) into metrics."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import tracing
import workloads
from singlearm import cli

# Every traced run reports all of these; a layer that a workload does not
# exercise reads 0 there.
PER_LAYER_UNITS = {
    "numerics.integrate.calls": "count/op",
    "numerics.integrate.self_ms": "ms/op",
    "numerics.integrand.evals": "count/op",
    "numerics.find_root.calls": "count/op",
    "numerics.find_root.evals": "count/op",
    "numerics.substream.calls": "count/op",
    "models.scalar_eval_us": "us",
    "models.cum_hazard_ns_per_subject": "ns",
    "design.sample_size_ms": "ms",
    "design.solve_accrual_ms": "ms",
    "design.weight_null_ms": "ms",
    "design.resolve_weight.calls": "count/op",
    "simulate.draw_ns_per_subject": "ns",
    "simulate.subjects_drawn": "count/op",
    "simulate.blocks": "count/op",
    "simulate.block_bytes": "bytes",
    "simulate.tally_ns_per_rep_weight": "ns",
    "simulate.pools_started": "count/op",
    "simulate.pool_start_ms": "ms",
    "analysis.km.calls": "count/op",
    "analysis.km_us_per_call": "us",
    "analysis.km.fallbacks": "count/op",
    "analysis.dataset_us_per_subject": "us",
    "analysis.run_test_ms": "ms",
    "cli.csv_parse_us_per_row": "us",
    "cli.config_validate_us": "us",
    "cli.report_write_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.overhead_pct": "%",
    "trace.covered_pct": "%",
    "trace.hook_errors": "count",
    "share.numerics_pct": "%",
    "share.models_pct": "%",
    "share.design_pct": "%",
    "share.analysis_pct": "%",
    "share.simulate_pct": "%",
    "share.cli_pct": "%",
}


def dumps(obj) -> str:
    return json.dumps(obj, allow_nan=False)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def generate(cls, seed: int, work_dir: str):
    """Write a workload's inputs; returns the workload, its operations and
    the seconds it took."""
    start = perf_counter()
    workload = cls(seed, work_dir)
    ops = workload.build()
    return workload, ops, perf_counter() - start


def _execute(op: workloads.Op):
    """Run one command. Returns (seconds, failure reason or None, results)."""
    if os.path.exists(op.out):
        os.remove(op.out)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:
            code = None
            traceback.print_exc()
        elapsed = perf_counter() - start
    if code != op.expect_exit:
        return elapsed, f"exit code {code}, expected {op.expect_exit}: {err.getvalue().strip()[-300:]}", None
    if op.expect_exit:
        line = workloads.named_line(err.getvalue())
        if line != op.expect_line:
            return elapsed, f"error names line {line}, the bad row is on line {op.expect_line}", None
        return elapsed, None, {}
    try:
        with open(op.out, encoding="utf-8") as fh:
            report = json.loads(fh.read(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return elapsed, f"report unreadable: {exc}", None
    return elapsed, None, report["results"]


def run(workload, ops, seconds: float, trace: bool, work_dir: str, trace_path: str) -> dict:
    """Run whole rounds of ``ops`` for about ``seconds``. A traced run
    traces every other round, starting with the first, so that its traced
    and untraced rounds see the same machine and give the tracing overhead."""
    tracer = km_hook = None
    if trace:
        spool = os.path.join(work_dir, "spool")
        os.makedirs(spool, exist_ok=True)
        tracer = tracing.Tracer(spool)
        km_hook = tracing.KmHook(stride=97, limit=40)

    first: list = [None] * len(ops)
    failures: list = [None] * len(ops)
    # times of each operation that did not fail, in untraced and in traced rounds
    repeats = {False: [[] for _ in ops], True: [[] for _ in ops]}
    problems: list[str] = []
    attempted = failed = rounds = traced_ops = 0
    traced_s = 0.0
    round_s: list[float] = []
    loop_start = perf_counter()
    try:
        while True:
            traced = trace and rounds % 2 == 0
            if traced:
                tracing.install(tracer, km_hook)
            try:
                for i, op in enumerate(ops):
                    elapsed, failure, results = _execute(op)
                    attempted += 1
                    traced_ops += traced
                    if rounds == 0:
                        failures[i], first[i] = failure, results
                    elif failure != failures[i] or results != first[i]:
                        problems.append(f"round {rounds + 1} of {op.argv} differs from round 1")
                    if failure is None:
                        repeats[traced][i].append(elapsed)
                    else:
                        failed += 1
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            loop_s = perf_counter() - loop_start
            round_s.append(loop_s - sum(round_s))
            traced_s += round_s[-1] if traced else 0.0
            # stop when another round would end further past the run length
            # than this point falls short of it
            if loop_s + 0.5 * loop_s / rounds > seconds:
                break
    finally:
        if tracer is not None:
            tracer.merge_spool()
    pool_tracer = None
    if trace and workload.probe is not None:
        pool_tracer, failure = _run_probe(workload, ops, first, work_dir, problems)
        attempted += 1
        failed += failure is not None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    for op, failure in zip(ops, failures):
        if failure is not None:
            print(f"failed: {' '.join(op.argv[:5])}: {failure}", file=sys.stderr)
    # each operation's upper-quartile time over the rounds: this machine's
    # speed moves between two levels in phases of seconds to minutes and
    # most runs meet the slow one, so an upper repeat is steadier from run
    # to run than the median or best, and one below the slowest is not
    # moved by a single short burst
    upper = {k: [upper_quartile(v) if v else 0.0 for v in repeats[k]] for k in repeats}
    times = [t for t in upper[trace] if t > 0.0]
    if not times:
        raise SystemExit(f"error: every {workload.name} operation failed")
    work = sum(op.work for op, t in zip(ops, upper[trace]) if t > 0.0)
    problems += workload.check(ops, first)
    if trace:
        problems += workload.check_km_samples(km_hook.samples)
        metrics = layer_metrics(tracer, traced_ops, times, traced_s)
        if pool_tracer is not None:
            pc = pool_tracer.counts
            metrics["simulate.pools_started"]["value"] = float(pc["simulate.pool.calls"])
            metrics["simulate.pool_start_ms"]["value"] = pc["simulate.pool.ns"] / pc["simulate.pool.calls"] / 1e6 \
                if pc["simulate.pool.calls"] else 0.0
        pairs = [(t, u) for t, u in zip(upper[True], upper[False]) if t > 0.0 and u > 0.0]
        overhead = 100.0 * (sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0) if pairs else 0.0
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        tracer.write(trace_path)
    else:
        metrics = {
            "op_ms_p50": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "work_per_s": {"value": work / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
        }
    for problem in problems[:20]:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(f"{workload.name}: {rounds} rounds of {', '.join(f'{r:.2f}' for r in round_s)} s, "
          f"{attempted} operations, {failed} failed, {len(problems)} problems", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def upper_quartile(values: list[float]) -> float:
    """The value three quarters of the way up the sorted values: the
    largest of up to four, the second largest of five to eight."""
    return sorted(values)[int(0.75 * len(values))]


def _run_probe(workload, ops, first, work_dir: str, problems: list[str]):
    """Run the workload's probe once under a tracer of its own, so that its
    process pools are counted apart from the timed rounds. The probe repeats
    the first timed command another way, so its report must be the same."""
    tracer = tracing.Tracer(os.path.join(work_dir, "probe_spool"))
    os.makedirs(tracer.spool_dir, exist_ok=True)
    tracing.install(tracer, tracing.KmHook(stride=97, limit=0))
    try:
        _, failure, results = _execute(workload.probe)
    finally:
        tracer.uninstall()
        tracer.merge_spool()
    if failure is not None:
        print(f"failed: {' '.join(workload.probe.argv[:5])}: {failure}", file=sys.stderr)
    elif results != first[0]:
        problems.append(f"{workload.probe.argv} and {ops[0].argv} report differently")
    problems += workload.check([workload.probe], [results])
    return tracer, failure


def layer_metrics(tracer: tracing.Tracer, ops: int, op_times: list[float], traced_s: float) -> dict:
    """Per-layer figures from the traced rounds: ``ops`` commands that took
    ``traced_s`` seconds, and the upper-quartile time of each."""
    spans = tracer.spans
    self_ns = tracing.self_times(spans)
    by_name: dict = {}
    layer_self = dict.fromkeys(("numerics", "models", "design", "analysis", "simulate", "cli"), 0)
    for s in spans:
        rec = by_name.setdefault(s[tracing.NAME], [0, 0, 0])
        rec[0] += 1
        rec[1] += s[tracing.END] - s[tracing.START]
        rec[2] += self_ns[s[tracing.SID]]
        layer_self[s[tracing.NAME].split(".")[0]] += self_ns[s[tracing.SID]]
    layer_self["models"] += sum(v[1] for v in tracer.model_calls.values())
    layer_self["simulate"] += tracer.counts["simulate.pool.ns"]

    def calls(name):
        return by_name.get(name, (0, 0, 0))[0]

    def mean_ns(name):
        c, total, _ = by_name.get(name, (0, 0, 0))
        return total / c if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = tracer.counts
    leaf_scalar = [v for k, v in tracer.model_calls.items() if k[1] == "scalar"]
    a0 = tracer.model_calls.get(("cum_hazard", "a0"), (0, 0, 0))
    draws = by_name.get("simulate.draw_trial", (0, 0, 0))
    block_self = sum(by_name.get(n, (0, 0, 0))[2] for n in tracing.BLOCK_LOOPS)
    csv_self = sum(self_ns[s[tracing.SID]] for s in spans if s[tracing.NAME] == "cli.read_subject_csv" and s[tracing.OK])
    datasets = by_name.get("analysis.TrialDataset.from_arrays", (0, 0, 0))
    total_self = sum(layer_self.values())
    main_ns = by_name.get("cli.main", (0, 0, 0))[1]
    values = {
        "numerics.integrate.calls": calls("numerics.integrate") / ops,
        "numerics.integrate.self_ms": by_name.get("numerics.integrate", (0, 0, 0))[2] / ops / 1e6,
        "numerics.integrand.evals": c["numerics.integrand.evals"] / ops,
        "numerics.find_root.calls": calls("numerics.find_root") / ops,
        "numerics.find_root.evals": c["numerics.find_root.evals"] / ops,
        "numerics.substream.calls": calls("numerics.substream") / ops,
        "models.scalar_eval_us": ratio(sum(v[1] for v in leaf_scalar), sum(v[0] for v in leaf_scalar)) / 1e3,
        "models.cum_hazard_ns_per_subject": ratio(a0[1], a0[2]),
        "design.sample_size_ms": mean_ns("design.sample_size") / 1e6,
        "design.solve_accrual_ms": mean_ns("design.solve_accrual_length") / 1e6,
        "design.weight_null_ms": mean_ns("design.weight_uncorrelated_null") / 1e6,
        "design.resolve_weight.calls": calls("design.resolve_weight") / ops,
        "simulate.draw_ns_per_subject": ratio(draws[1], c["simulate.subjects"]),
        "simulate.subjects_drawn": c["simulate.subjects"] / ops,
        "simulate.blocks": c["simulate.blocks"] / ops,
        "simulate.block_bytes": c["simulate.block_bytes"],
        "simulate.tally_ns_per_rep_weight": ratio(block_self, c["simulate.rep_weights"]),
        "simulate.pools_started": c["simulate.pool.calls"] / ops,
        "simulate.pool_start_ms": ratio(c["simulate.pool.ns"], c["simulate.pool.calls"]) / 1e6,
        "analysis.km.calls": calls("analysis.km_weight_from_arrays") / ops,
        "analysis.km_us_per_call": mean_ns("analysis.km_weight_from_arrays") / 1e3,
        "analysis.km.fallbacks": c["analysis.km.fallbacks"] / ops,
        "analysis.dataset_us_per_subject": ratio(datasets[1], c["analysis.dataset_subjects"]) / 1e3,
        "analysis.run_test_ms": mean_ns("analysis.run_test") / 1e6,
        "cli.csv_parse_us_per_row": ratio(csv_self, c["cli.csv_rows"]) / 1e3,
        "cli.config_validate_us": mean_ns("cli._validate_config") / 1e3,
        "cli.report_write_ms": mean_ns("cli._write_output") / 1e6,
        "trace.op_ms_p50": statistics.median(op_times) * 1e3,
        "trace.covered_pct": 100.0 * main_ns / (traced_s * 1e9),
        "trace.hook_errors": c["trace.hook_errors"],
    }
    for layer, ns in layer_self.items():
        values[f"share.{layer}_pct"] = 100.0 * ratio(ns, total_self)
    return {name: {"value": float(values[name]) if math.isfinite(values[name]) else 0.0, "unit": unit}
            for name, unit in PER_LAYER_UNITS.items() if name in values}
