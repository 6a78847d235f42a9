"""Benchmark of the singlearm command line: design, analyze and simulate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one caller: it runs whole rounds of a
fixed list of CLI commands through ``singlearm.cli.main`` in this process,
times each command, and then checks every report. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps every layer in spans and reports
the per-layer metrics instead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACE_OUT = os.path.join(ROOT, ".perfbench_trace")

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import singlearm; "
    "print(time.perf_counter() - t)"
)
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "singlearm", "__init__.py")):
        print("error: run from the root of a singlearm checkout (src/singlearm not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import singlearm  # noqa: F401  (timed: importing the package is part of set-up)

    import_s = time.perf_counter() - start

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        workload, ops, gen_s = harness.generate(workloads.WORKLOADS[args.workload], args.seed, work_dir)
        result = harness.run(workload, ops, args.seconds, bool(args.trace), work_dir,
                             os.path.join(TRACE_OUT, f"{args.workload}.jsonl.gz"))
        if not args.trace:
            imports = [import_s] + [_import_in_child() for _ in range(SETUP_REPEATS - 1)]
            gens = [gen_s] + [harness.generate(type(workload), args.seed, work_dir)[2]
                              for _ in range(SETUP_REPEATS - 1)]
            result["metrics"]["setup_s"] = {
                "value": statistics.median(imports) + statistics.median(gens), "unit": "s"}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(harness.dumps(result))
    return 0


def _import_in_child() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
