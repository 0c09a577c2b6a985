"""Smoke test of the benchmark: every workload at its minimum size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def printed_metrics(lines: list[str]) -> dict[str, dict[str, str]]:
    """``name value unit`` lines grouped under each ``== workload`` header."""
    blocks: dict[str, dict[str, str]] = {}
    current = None
    for line in lines:
        if line.startswith("== "):
            current = blocks.setdefault(line[3:], {})
            continue
        fields = line.split()
        if current is not None and len(fields) == 3 and not line.startswith("#"):
            float(fields[1])
            current[fields[0]] = fields[2]
    return blocks


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, kind):
    done = run_bench("--smoke", "--workload", "all", "--seed", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    blocks = printed_metrics(lines[:-1])
    assert sorted(blocks) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, printed in blocks.items():
        for metric in SPEC[kind]:
            assert printed.get(metric["name"]) == metric["unit"], (workload, metric)
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
        assert printed["failed_ratio"] == "ratio"


def test_predictions_name_benchmark_metrics_and_workloads():
    predictions = json.loads((HERE / "predictions.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for row in predictions["rows"]:
        assert set(row["layer_metrics"]) <= layer
        assert set(row["exact"]) <= set(row["layer_metrics"])
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["no_change_on"]) <= workloads


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
