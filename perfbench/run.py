"""replab benchmark: four workloads, end-to-end metrics and a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --smoke

``NAME`` is one of ``mc_large_k``, ``mc_scenarios``, ``audit`` and
``closed_form`` (see ``BENCHMARK.json`` for why each was chosen).  The
seed makes the inputs; the same seed gives the same inputs.  A run builds
the workload's configs, times replab's start-up in fresh processes, runs
the workload's fixed list of operations ("a pass") once to warm up, then
repeats it until ``S`` seconds (warm-up included) have passed, checking
every operation's output.

With ``--trace 0`` the run prints, one per line as ``name value unit``:

- ``work_per_s``: work units of one pass over ``wall_s``;
- ``wall_s``: time of one pass;
- ``setup_s``: time from process start until replab is imported and the
  workload's configs are parsed, over several fresh processes;
- ``peak_rss_mb``: peak resident memory of the run's process;
- ``failed_ratio``: operations whose check failed / operations attempted.

The first three are in seconds at reference speed.  Every timed operation
sits between two runs of a fixed pure-Python loop (``reference.py``), and
every set-up probe runs the loop once it has finished; an operation counts
with its median time over the passes, times ``REFERENCE_S``, over the
median time of the loop run with it (see ``scaled_seconds``), so that a
core slowed by its neighbours on a shared host does not read as slower
replab.  Raw medians are printed on ``#`` lines.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans around replab's functions (see ``tracing.py``) and the run
prints the per-layer metrics, medians over traced passes.  The run also
checks the trace: metrics counted in calls, evaluations or bytes repeat
exactly between traced passes, and spans cover the traced wall time to
within 5%.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run conditions
(machine, versions, sizes) are printed on a ``# conditions`` line and, with
every metric and sample, written to ``.perfbench-out/`` at the repository
root, together with the spans of the last traced pass.

``--smoke`` runs the workloads at their minimum size, once, and
``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REFERENCE_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("mc_large_k", "mc_scenarios", "audit", "closed_form")
END_TO_END = {"work_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 7
MIN_PASSES = 3
COVERAGE_TOLERANCE = 0.05
MAX_REPORTED_FAILURES = 20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimum sizes, one pass")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Run conditions
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over replab's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "replab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_conditions(args, workload) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "size": workload.size,
        "work_unit": workload.unit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def probe_setup(configs) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to parsed configs, and the
    reference loop the fresh interpreter ran right after."""
    command = [sys.executable, str(HERE / "probe_setup.py"), str(SRC), *map(str, configs)]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    parsed, reference = map(float, done.stdout.split()[-2:])
    return parsed - start, reference


def scaled_seconds(passes) -> float:
    """Seconds of one pass at reference speed.

    ``passes`` holds, per pass, ``(seconds, reference)`` for each operation.
    Each operation counts with its median time over the passes times
    ``REFERENCE_S`` over the median time of the reference loop run with it.
    A change that makes replab do more work moves the scaled time as it
    moves the raw time; a core slowed by its neighbours moves it much less.
    """
    total = 0.0
    for samples in zip(*passes):
        seconds = statistics.median(t for t, _ in samples)
        total += seconds / statistics.median(r for _, r in samples)
    return total * REFERENCE_S


def raw_seconds(passes) -> list[float]:
    """Seconds in operations of each pass, unscaled."""
    return [math.fsum(t for t, _ in timings) for timings in passes]


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, op: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"{op}: {failure}")


def run_pass(
    workload, tally: Tally, first: bool, reference: bool = True
) -> tuple[list[tuple[float, float | None]], int]:
    """Run every operation once.

    Returns ``(seconds, reference)`` for each operation and the work units
    done.  Only the operations are timed; the reference loop (the mean of
    one run before and one after the operation, or ``None`` without
    ``reference``) and the checks run between them.
    """
    timings, work = [], 0
    for op in workload.ops:
        result, failure = None, None
        before = reference_loop() if reference else None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an operation that raises counts as failed
            failure = "raised\n" + traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        timings.append((seconds, (before + reference_loop()) / 2.0 if reference else None))
        if failure is None:
            try:
                work += op.units(result)
                failure = op.check(result)
                if failure is None and first and op.once is not None:
                    failure = op.once(result)
            except Exception:  # malformed output counts as failed
                failure = "check raised\n" + traceback.format_exc(limit=4)
        tally.record(op.name, failure)
    return timings, work


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_untraced(workload, args, tally: Tally) -> dict:
    """A warm-up pass, then timed passes until ``args.seconds`` have passed."""
    samples = {"passes": [], "works": []}

    def timed_pass(first):
        timings, work = run_pass(workload, tally, first)
        samples["passes"].append(timings)
        samples["works"].append(work)

    if args.smoke:
        timed_pass(first=True)
        return samples
    start = time.perf_counter()
    run_pass(workload, tally, first=True)
    while len(samples["passes"]) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        timed_pass(first=False)
    return samples


def measure_traced(workload, args, tally: Tally):
    """Alternate untraced and traced passes; returns samples and problems."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or (not args.smoke and time.perf_counter() - start < args.seconds):
        timings, _ = run_pass(workload, tally, first=not untraced, reference=False)
        untraced.append(timings)
        tracer.spans = []
        tracer.install()
        try:
            timings, _ = run_pass(workload, tally, first=False, reference=False)
        finally:
            tracer.uninstall()
        traced.append(timings)
        per_pass.append(tracing.layer_metrics(tracer.spans, raw_seconds([timings])[0]))

    metrics, problems = {}, []
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace_overhead_ratio":
            metrics[name] = statistics.median(raw_seconds(traced)) / statistics.median(
                raw_seconds(untraced)
            )
        elif unit in tracing.EXACT_UNITS:
            values = [p[name] for p in per_pass]
            metrics[name] = values[0]
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced passes: {values}")
        else:
            metrics[name] = statistics.median(p[name] for p in per_pass)
    if abs(metrics["trace_coverage"] - 1.0) > COVERAGE_TOLERANCE:
        problems.append(
            f"spans cover {metrics['trace_coverage']:.3f} of the traced wall time, "
            f"outside 1 +- {COVERAGE_TOLERANCE}"
        )
    record = {
        "untraced_passes": untraced,
        "traced_passes": traced,
        "per_pass": per_pass,
        "spans": tracing.spans_as_records(tracer.spans, start),
    }
    units = dict(tracing.PER_LAYER)
    return metrics, units, problems, record


def run_workload(args, work: Path) -> dict:
    import workloads

    workload = workloads.build(args.workload, args.seed, work, args.smoke)
    conditions = run_conditions(args, workload)
    print("# conditions " + json.dumps(conditions, sort_keys=True), flush=True)
    tally = Tally()
    problems: list[str] = []
    record: dict = {"conditions": conditions}
    if args.trace:
        metrics, units, problems, trace_record = measure_traced(workload, args, tally)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"conditions": conditions, **trace_record}))
        print(f"# spans of the last traced pass: {trace_path}")
    else:
        probes = [probe_setup(workload.configs) for _ in range(1 if args.smoke else SETUP_PROBES)]
        samples = measure_untraced(workload, args, tally)
        wall = scaled_seconds(samples["passes"])
        metrics = {
            "work_per_s": statistics.median(samples["works"]) / wall,
            "wall_s": wall,
            "setup_s": scaled_seconds([[probe] for probe in probes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record.update(samples, setup=probes)
        references = [r for timings in samples["passes"] for _, r in timings]
        for name, values in (
            ("raw wall_s", raw_seconds(samples["passes"])),
            ("raw setup_s", [t for t, _ in probes]),
            ("reference loop s", references),
        ):
            q1, q2, q3 = quartiles(values)
            print(f"# {name}: n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_ratio {tally.failed / tally.attempted!r} ratio")
    for message in tally.messages + problems:
        print("failure: " + message, file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(result=result, failures=tally.messages, problems=problems)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    return result


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        print(f"== {name}", flush=True)
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "replab" / "__init__.py").is_file():
        print(f"error: replab sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import replab

    if Path(replab.__file__).resolve().parent != (SRC / "replab").resolve():
        print(f"error: imported replab from {replab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
