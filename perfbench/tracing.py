"""Spans recorded from outside replab, and the per-layer metrics they give.

A :class:`Tracer` wraps replab's public functions (and the few private ones
that other modules call across a layer boundary) under every name a replab
module looks them up by, so a call from any layer passes through the
wrapper.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts the
original objects back.

Each span is ``(id, name, start, end, parent, thread, info)`` with
``perf_counter`` times.  ``info`` carries a per-call count: integrand or
objective evaluations for the numerics solvers, bytes returned for
observation sampling, the worker count for a batch map.  Spans stay in
memory until the run writes them out.

Self time follows the usual definition: a span's duration minus the part of
it its children cover, children in worker threads included.  Where worker
threads overlap, plain self times add up to more than the wall time.  The
coverage check therefore shares every instant equally among the innermost
spans open at that instant; those shares add up to the length of the union
of all spans, which is what ``trace_coverage`` divides by the wall time.  On
a serial run the shares equal the plain self times.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import defaultdict
from time import perf_counter

import replab.analysis
import replab.cli
import replab.core
import replab.mechanisms
import replab.numerics
import replab.simulator
import replab.strategies

MODULES = {
    "numerics": replab.numerics,
    "core": replab.core,
    "mechanisms": replab.mechanisms,
    "strategies": replab.strategies,
    "analysis": replab.analysis,
    "simulator": replab.simulator,
    "cli": replab.cli,
}

# (layer, function, what to count).  "evals" counts calls of the callable
# passed as the first argument; "bytes" sums the nbytes of returned arrays.
TARGETS = [
    ("numerics", "integrate", "evals"),
    ("numerics", "find_root", "evals"),
    ("numerics", "minimize_1d", "evals"),
    ("core", "batch_true_utilities", None),
    ("mechanisms", "run_batch", None),
    ("mechanisms", "_extended_as_per_trial_rings", None),
    ("strategies", "sample_observations", "bytes"),
    ("strategies", "build_messages", None),
    ("strategies", "deviation_report", None),
    ("strategies", "solve_y", None),
    ("strategies", "pr_optimal_self_report", None),
    ("strategies", "expected_pr_reputation", None),
    ("analysis", "pr_mae", None),
    ("analysis", "collusion_expected_tax", None),
    ("analysis", "hetero_truth_participation", None),
    ("analysis", "hetero_image_participation", None),
    ("analysis", "hetero_system_gain", None),
    ("simulator", "run_trials", None),
    ("simulator", "sweep", None),
    ("simulator", "run_collusion_scenario", None),
    ("simulator", "run_malicious_scenario", None),
]

BATCH = "simulator.batch"
BATCH_MAP = "simulator._map_batches"
POOL_THREAD_PREFIX = "ThreadPoolExecutor"

# The per-layer metrics every traced run reports, with their units.
# Metrics whose unit is "count" or "bytes" must repeat exactly.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in MODULES},
    "strategies.sample_observations.busy_s": "s",
    "strategies.sample_observations.bytes": "bytes",
    "strategies.build_messages.busy_s": "s",
    "core.batch_true_utilities.busy_s": "s",
    "simulator.batches": "count",
    "simulator.parallel_eff": "ratio",
    "simulator.worker0.busy_s": "s",
    "simulator.worker1.busy_s": "s",
    "mechanisms.run_batch.busy_s": "s",
    "mechanisms.run_batch.calls": "count",
    "strategies.deviation_report.self_s": "s",
    "strategies.deviation_report.run_batch_per_call": "count",
    "numerics.integrate.calls": "count",
    "numerics.integrate.evals": "count",
    "numerics.find_root.evals": "count",
    "numerics.minimize_1d.evals": "count",
    "strategies.expected_pr_reputation.busy_s": "s",
    "analysis.pr_mae.busy_s": "s",
    "analysis.collusion_expected_tax.busy_s": "s",
    "strategies.solve_y.busy_s": "s",
    "trace_coverage": "ratio",
    "trace_overhead_ratio": "ratio",
}
EXACT_UNITS = ("count", "bytes")


class Tracer:
    """Records spans around replab's functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name, fn, args, kwargs=None, parent=None, count=None, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``count`` turns the first argument into a counted callable
        ("evals") or sums the bytes of the returned arrays ("bytes");
        otherwise ``info`` is stored with the span as given.  A call of a function from inside its own span (recursion) opens no
        second span.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        if count == "evals":
            tally = [0]
            inner = args[0]

            def counted(*a, **kw):
                tally[0] += 1
                return inner(*a, **kw)

            args = (counted, *args[1:])
        if parent is None and stack:
            parent = stack[-1][0]
        sid = next(self._ids)
        stack.append((sid, name))
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        if count == "evals":
            info = tally[0]
        elif count == "bytes":
            info = sum(int(arr.nbytes) for arr in result)
        self.spans.append(
            (sid, name, start, end, parent, threading.current_thread().name, info)
        )
        return result

    # -- installation --------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Rebind every replab global that names ``original``."""
        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count=count)

        return traced

    def install(self) -> None:
        # A target that a later version of replab no longer has is skipped;
        # the metrics derived from it then read 0.
        for layer, attr, count in TARGETS:
            original = getattr(MODULES[layer], attr, None)
            if original is not None:
                self._replace(original, self._wrap(original, f"{layer}.{attr}", count))

        original_map = getattr(replab.simulator, "_map_batches", None)
        if original_map is not None:

            def map_batches(worker, plan, workers):
                parent = self.current()

                def batch(index, size):
                    return self.call(BATCH, worker, (index, size), parent=parent)

                return original_map(batch, plan, workers)

            def traced_map(worker, plan, workers):
                return self.call(
                    BATCH_MAP, map_batches, (worker, plan, workers), info=workers
                )

            self._replace(original_map, traced_map)

        # click looks each command's function up as ``command.callback``.
        for command in replab.cli.main.commands.values():
            name = "cli." + command.name.replace("-", "_")
            self._patched.append((command, "callback", command.callback))
            command.callback = self._wrap(command.callback, name, None)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
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


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _thread, _info in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _name, start, end, _parent, _thread, _info in spans
    }




def layer_metrics(spans: list[tuple], wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass lasting ``wall`` seconds.

    Every name in :data:`PER_LAYER` except ``trace_overhead_ratio``, which
    compares two passes, is returned; a function never called gives 0.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    own = self_times(spans)

    def busy(name: str) -> float:
        return math.fsum(end - start for _i, _n, start, end, *_rest in by_name[name])

    def total_info(name: str) -> int:
        return sum(span[6] or 0 for span in by_name[name])

    metrics = {
        f"{layer}.self_s": math.fsum(
            own[span[0]] for span in spans if span[1].startswith(layer + ".")
        )
        for layer in MODULES
    }
    for name in (
        "strategies.sample_observations",
        "strategies.build_messages",
        "core.batch_true_utilities",
        "mechanisms.run_batch",
        "strategies.expected_pr_reputation",
        "analysis.pr_mae",
        "analysis.collusion_expected_tax",
        "strategies.solve_y",
    ):
        metrics[name + ".busy_s"] = busy(name)
    metrics["strategies.sample_observations.bytes"] = total_info(
        "strategies.sample_observations"
    )
    for name in ("numerics.integrate", "numerics.find_root", "numerics.minimize_1d"):
        metrics[name + ".evals"] = total_info(name)
    metrics["numerics.integrate.calls"] = len(by_name["numerics.integrate"])
    metrics["mechanisms.run_batch.calls"] = len(by_name["mechanisms.run_batch"])
    metrics["simulator.batches"] = len(by_name[BATCH])

    # Thread-pool maps: busy time of each pool worker, and how much of the
    # pools' capacity (workers x duration) the batches used.
    pools = {span[0]: span for span in by_name[BATCH_MAP] if (span[6] or 1) > 1}
    capacity = math.fsum(span[6] * (span[3] - span[2]) for span in pools.values())
    used = 0.0
    per_worker: dict[int, float] = defaultdict(float)
    for _sid, _name, start, end, parent, thread, _info in by_name[BATCH]:
        if parent in pools:
            used += end - start
            if thread.startswith(POOL_THREAD_PREFIX):
                per_worker[int(thread.rsplit("_", 1)[1])] += end - start
    metrics["simulator.parallel_eff"] = used / capacity if capacity else 0.0
    metrics["simulator.worker0.busy_s"] = per_worker[0]
    metrics["simulator.worker1.busy_s"] = per_worker[1]

    reports = {span[0] for span in by_name["strategies.deviation_report"]}
    metrics["strategies.deviation_report.self_s"] = math.fsum(own[sid] for sid in reports)
    metrics["strategies.deviation_report.run_batch_per_call"] = (
        sum(1 for span in by_name["mechanisms.run_batch"] if span[4] in reports)
        / len(reports)
        if reports
        else 0.0
    )
    covered = _covered([(span[2], span[3]) for span in spans], -math.inf, math.inf)
    metrics["trace_coverage"] = covered / wall
    return metrics


def spans_as_records(spans: list[tuple], origin: float) -> list[dict]:
    """Spans as JSON-ready records, times in seconds from ``origin``."""
    return [
        {
            "id": sid,
            "name": name,
            "start": start - origin,
            "end": end - origin,
            "parent": parent,
            "thread": thread,
            "info": info,
        }
        for sid, name, start, end, parent, thread, info in sorted(
            spans, key=lambda span: span[2]
        )
    ]
