"""Layer costs measured by direct calls, as in the ROADMAP baseline table.

Run from the repository root:

    python3 perfbench/baseline.py

Each row is the median of five timed calls after one untimed call. The
figures go into README.md next to the machine they were measured on.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from singlearm import (  # noqa: E402
    CensoringModel,
    DesignSpec,
    NoDropout,
    ScenarioSpec,
    UniformAccrual,
    Weibull,
    WeightPolicy,
    draw_trial,
    run_scenario,
    sample_size,
    solve_accrual_length,
)
from singlearm.numerics import substream  # noqa: E402

REPEATS = 5


def timed(fn) -> float:
    fn()
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def main() -> None:
    src = os.path.join(os.getcwd(), "src", "singlearm")
    lines = sum(sum(1 for _ in open(os.path.join(src, f), encoding="utf-8"))
                for f in os.listdir(src) if f.endswith(".py"))
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}; src/ has {lines} lines")

    liver = Weibull(1.22, 9.0)
    design = DesignSpec(null_model=liver, follow_up=3.0, weight_policy=WeightPolicy.uncorrelated_null(),
                        hazard_ratio=1.75, accrual_length=5.0)
    rate_design = DesignSpec(null_model=liver, follow_up=3.0, weight_policy=WeightPolicy.uncorrelated_null(),
                             hazard_ratio=1.75, accrual_rate=20.0)
    censoring = CensoringModel(UniformAccrual(5.0), NoDropout(), 8.0)
    rows = [("sample_size (liver study, uncorrelated_null)", timed(lambda: sample_size(design)), None)]
    rows.append(("solve_accrual_length (rate 20/yr)", timed(lambda: solve_accrual_length(rate_design)), None))
    for n, reps in ((100, 8192), (5000, 419)):
        seconds = timed(lambda: draw_trial(liver, censoring, substream(1, 0), reps, n))
        rows.append((f"draw_trial, n={n}, {reps} reps", seconds, seconds / (n * reps)))
    rng = substream(1, 0)
    rows.append(("Philox standard exponential", timed(lambda: rng.standard_exponential(1 << 21)) / (1 << 21), None))
    rows.append(("Philox uniform", timed(lambda: rng.random(1 << 21)) / (1 << 21), None))

    def scenario(policies, workers):
        spec = ScenarioSpec(truth_model=liver, null_model=liver, censoring=censoring, n=100,
                            policies=policies, replications=20_000, master_seed=7)
        return timed(lambda: run_scenario(spec, workers=workers))

    wu = scenario((WeightPolicy.wu(),), 1)
    with_km = scenario((WeightPolicy.wu(), WeightPolicy.random_km()), 1)
    rows.append(("run_scenario n=100, 20k reps, wu, 1 worker", wu, None))
    rows.append(("same with random_km added", with_km, (with_km - wu) / 20_000))
    rows.append(("same as wu alone with 2 workers", scenario((WeightPolicy.wu(),), 2), None))

    for name, seconds, per in rows:
        extra = ""
        if per is not None:
            extra = f" ({per * 1e9:.1f} ns/subject)" if "draw_trial" in name else f" ({per * 1e6:.1f} us/rep for random_km)"
        if seconds < 1e-6:
            print(f"| {name} | {seconds * 1e9:.2f} ns |")
        else:
            print(f"| {name} | {seconds * 1e3:.1f} ms{extra} |")
    print(f"random_km factor: {with_km / wu:.1f}x the wu-only scenario")


if __name__ == "__main__":
    main()
