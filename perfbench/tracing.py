"""Span tracing for the benchmark's traced run.

The tracer wraps the package's functions where they are looked up: every
``singlearm`` module attribute that refers to a wrapped function is
replaced, so calls from other modules and calls inside the defining
module both pass through the wrapper. The package's source is not
changed, and ``uninstall`` puts every original back.

A span records its name, start, end and parent, plus the time spent in
the model methods it called (see ``leaf``). Spans stay in memory until
the run ends. Pool workers are forked from the benchmark process, so
they inherit the wrappers; each worker appends its own spans to a spool
file after every top-level call, and ``merge_spool`` folds those files
into the parent's records.
"""

from __future__ import annotations

import functools
import glob
import gzip
import json
import os
import types
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# span tuple fields
SID, PARENT, NAME, START, END, LEAF_NS, OK = range(7)

# spans whose array calls of cum_hazard are the per-replication A0 reduction
BLOCK_LOOPS = ("simulate._run_blocks", "simulate._sweep_blocks")
# counters that hold a largest value rather than a total
MAXIMA = frozenset({"simulate.block_bytes"})


class Tracer:
    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # frames [sid, leaf_ns, name]
        self.counts: Counter = Counter()
        # (method, "scalar" | "array" | "a0") -> [calls, ns, elements]
        self.model_calls: dict = defaultdict(lambda: [0, 0, 0])
        self._seq = 0
        self._child = False
        self._base_depth = 0
        self._spooled = 0
        self._patches: list[tuple] = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, hook=None, count_calls_of_first_arg=None):
        """Wrap ``fn`` in a span. ``hook(tracer, args, kwargs, result)`` runs
        after a normal return; ``count_calls_of_first_arg`` names a counter
        incremented on every call of the callable passed first."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_calls_of_first_arg is not None and args and callable(args[0]):
                inner = args[0]
                key = count_calls_of_first_arg

                def counted(*a):
                    tracer.counts[key] += 1
                    return inner(*a)

                args = (counted,) + args[1:]
            tracer._seq += 1
            sid = (tracer.pid << 32) | tracer._seq
            parent = tracer.stack[-1][0] if tracer.stack else 0
            frame = [sid, 0, name]
            tracer.stack.append(frame)
            ok = False
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, frame[1], ok))
                if ok and hook is not None:
                    tracer._run_hook(hook, args, kwargs, result)
                if tracer._child and len(tracer.stack) == tracer._base_depth:
                    tracer._spool()

        return wrapper

    def leaf(self, name, fn):
        """Wrap a model method called once per integrand evaluation or once
        per block. A span each would cost more than the call, so these only
        add to per-method totals and to the calling span's ``leaf_ns``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, x):
            start = perf_counter_ns()
            out = fn(obj, x)
            elapsed = perf_counter_ns() - start
            frame = tracer.stack[-1] if tracer.stack else None
            if type(x) is np.ndarray and x.ndim:
                kind = "a0" if frame is not None and frame[2] in BLOCK_LOOPS and name == "cum_hazard" else "array"
                size = x.size
            else:
                kind = "scalar"
                size = 1
            rec = tracer.model_calls[(name, kind)]
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += size
            if frame is not None:
                frame[1] += elapsed
            return out

        return wrapper

    def _run_hook(self, hook, args, kwargs, result) -> None:
        # a hook that no longer fits the program's signatures must not make
        # the traced command fail; the run reports how often that happened
        try:
            hook(self, args, kwargs, result)
        except Exception:  # noqa: BLE001
            self.counts["trace.hook_errors"] += 1

    def timed(self, key: str, elapsed_ns: int) -> None:
        """Add a timed event that is neither a span nor a model call."""
        self.counts[key + ".calls"] += 1
        self.counts[key + ".ns"] += elapsed_ns
        if self.stack:
            self.stack[-1][1] += elapsed_ns

    # -- worker processes ---------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self._child = True
        self._base_depth = len(self.stack)
        self.spans = []
        self.counts = Counter()
        self.model_calls = defaultdict(lambda: [0, 0, 0])
        self._spooled = 0

    def _spool(self) -> None:
        self._spooled += 1
        path = os.path.join(self.spool_dir, f"{self.pid}-{self._spooled}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "model_calls": [[k[0], k[1], v] for k, v in self.model_calls.items()],
                },
                fh,
            )
        self.spans = []
        self.counts = Counter()
        self.model_calls = defaultdict(lambda: [0, 0, 0])

    def merge_spool(self) -> None:
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in data["spans"])
            for key, value in data["counts"].items():
                self.counts[key] = max(self.counts[key], value) if key in MAXIMA else self.counts[key] + value
            for method, kind, (calls, ns, size) in data["model_calls"]:
                rec = self.model_calls[(method, kind)]
                rec[0] += calls
                rec[1] += ns
                rec[2] += size

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, modules, defining, attr: str, name: str, **opts) -> None:
        """Replace ``defining.attr`` and every import of it in ``modules``;
        a name the program no longer has is skipped."""
        original = getattr(defining, attr, None)
        if not callable(original):
            return
        wrapped = self.span(name, original, **opts)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self.patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write every span, one JSON object a line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s[SID], "parent": s[PARENT], "name": s[NAME], "start_ns": s[START],
                         "end_ns": s[END], "model_ns": s[LEAF_NS], "ok": s[OK]}
                    )
                )
                fh.write("\n")


# ---------------------------------------------------------------------------
# what to wrap


def _on_draw(tracer, args, kwargs, result):
    reps, n = result.time_on_study.shape
    tracer.counts["simulate.subjects"] += reps * n
    tracer.counts["simulate.blocks"] += 1
    nbytes = sum(a.nbytes for a in result)
    tracer.counts["simulate.block_bytes"] = max(tracer.counts["simulate.block_bytes"], nbytes)


def _on_run_scenario(tracer, args, kwargs, result):
    spec = args[0]
    tracer.counts["simulate.reps"] += spec.replications
    tracer.counts["simulate.rep_weights"] += spec.replications * len(spec.policies)


def _on_weight_sweep(tracer, args, kwargs, result):
    base, weights, sample_sizes = args[0], args[1], args[2]
    runs = len(sample_sizes)
    tracer.counts["simulate.reps"] += base.replications * runs
    tracer.counts["simulate.rep_weights"] += base.replications * runs * len(weights)


def _on_dataset(tracer, args, kwargs, result):
    tracer.counts["analysis.dataset_subjects"] += len(result)


def _on_read_csv(tracer, args, kwargs, result):
    tracer.counts["cli.csv_rows"] += len(result)


class KmHook:
    """Counts fallbacks and keeps every ``stride``-th call's inputs and
    result, so the run can compare them with the reference estimator."""

    def __init__(self, stride: int, limit: int):
        self.stride = stride
        self.limit = limit
        self.samples: list[tuple] = []

    def __call__(self, tracer, args, kwargs, result):
        tracer.counts["analysis.km.fallbacks"] += int(result.used_fallback)
        tracer.counts["analysis.km.seen"] += 1
        if tracer.counts["analysis.km.seen"] % self.stride == 1 and len(self.samples) < self.limit:
            times = np.array(args[0], dtype=float)
            events = np.array(args[1], dtype=bool)
            self.samples.append((times, events, result.weight, result.used_fallback))


class _TimedPool:
    """Pool stand-in that times the pool's start (constructor) and stop
    (exit, which terminates and joins the workers)."""

    def __init__(self, tracer, factory, *args, **kwargs):
        start = perf_counter_ns()
        self._pool = factory(*args, **kwargs)
        self._tracer = tracer
        self._tracer.timed("simulate.pool", perf_counter_ns() - start)

    def __enter__(self):
        self._pool.__enter__()
        return self._pool

    def __exit__(self, *exc):
        start = perf_counter_ns()
        try:
            return self._pool.__exit__(*exc)
        finally:
            elapsed = perf_counter_ns() - start
            self._tracer.counts["simulate.pool.ns"] += elapsed
            if self._tracer.stack:
                self._tracer.stack[-1][1] += elapsed


def install(tracer: Tracer, km_hook: KmHook) -> None:
    """Wrap the public functions of every layer, plus the private steps that
    the per-layer metrics need, at every site that imports them."""
    import singlearm
    from singlearm import analysis, cli, design, models, numerics, presets, simulate

    modules = [singlearm, analysis, cli, design, models, numerics, presets, simulate]
    special = {
        ("numerics", "integrate"): {"count_calls_of_first_arg": "numerics.integrand.evals"},
        ("numerics", "find_root"): {"count_calls_of_first_arg": "numerics.find_root.evals"},
        ("simulate", "draw_trial"): {"hook": _on_draw},
        ("simulate", "run_scenario"): {"hook": _on_run_scenario},
        ("simulate", "weight_sweep"): {"hook": _on_weight_sweep},
        ("analysis", "km_weight_from_arrays"): {"hook": km_hook},
        ("cli", "read_subject_csv"): {"hook": _on_read_csv},
    }
    for layer, mod in (("numerics", numerics), ("models", models), ("design", design),
                       ("analysis", analysis), ("simulate", simulate), ("cli", cli)):
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                tracer.wrap_function(modules, mod, attr, f"{layer}.{attr}", **special.get((layer, attr), {}))
    for layer, mod, attr in (
        ("cli", cli, "_validate_config"),
        ("cli", cli, "_write_output"),
        ("simulate", simulate, "_run_blocks"),
        ("simulate", simulate, "_sweep_blocks"),
    ):
        tracer.wrap_function(modules, mod, attr, f"{layer}.{attr}")

    from_arrays = analysis.TrialDataset.__dict__.get("from_arrays")
    if isinstance(from_arrays, classmethod):
        tracer.patch(
            analysis.TrialDataset,
            "from_arrays",
            classmethod(tracer.span("analysis.TrialDataset.from_arrays", from_arrays.__func__, hook=_on_dataset)),
        )
    model_methods = [(c, m) for c in ("Weibull", "Exponential", "PiecewiseExponential")
                     for m in ("cum_hazard", "inverse_cum_hazard")] + [("CensoringModel", "survival_u")]
    for cls_name, method in model_methods:
        cls = getattr(models, cls_name, None)
        if cls is not None and method in cls.__dict__:
            tracer.patch(cls, method, tracer.leaf(method, cls.__dict__[method]))

    real_mp = getattr(simulate, "multiprocessing", None)
    if isinstance(real_mp, types.ModuleType):
        proxy = types.ModuleType(real_mp.__name__)
        proxy.__dict__.update(real_mp.__dict__)
        proxy.Pool = functools.partial(_TimedPool, tracer, real_mp.Pool)
        tracer.patch(simulate, "multiprocessing", proxy)
    tracer.active = True


# ---------------------------------------------------------------------------
# turning spans into per-layer figures


def _union_length(intervals, lo, hi) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its child spans cover (children
    in pool workers run in parallel, so their union is taken) minus the
    model-method time it called directly."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {
        s[SID]: max(0, s[END] - s[START] - _union_length(children.get(s[SID], ()), s[START], s[END]) - s[LEAF_NS])
        for s in spans
    }
