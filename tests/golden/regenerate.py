"""Golden digests of replab's simulated outputs.

Each entry of ``digests.json`` is the sha256 of one command's standard
output, exit code and output files, or of one scenario record written at
full precision.  The configs under ``configs/`` cover every mechanism kind,
fixed rings, colluders, uniform-random reporters, clamping and K from 3 to
12, with trial counts that are not multiples of the engine's 1,024-trial
batch; the collusion records add secret rings with 1 and 2 layers.  The
deviation audits (``check-equilibrium``) of three configs and the
participation ``report`` of one pin the audit draw and the scoring run.  The
CLI rounds its outputs to 12 significant digits, so every ``run`` config
also gets a ``stats`` entry that digests ``run_trials``' aggregates at full
precision.

Floating-point results may differ between Python or numpy versions, so the
file records both and ``tests/test_golden.py`` fails on a mismatch.

Regenerate, from the repository root, only when a change is meant to move
outputs (and say which entries moved and why)::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from replab.cli import main, parse_config
from replab.core import AbsPower, Agent, Environment, Image, Linear, Quality, Truth, UtilitySpec
from replab.numerics import NormalParams
from replab.simulator import run_collusion_scenario, run_malicious_scenario, run_trials

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
DIGESTS = HERE / "digests.json"


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _cli(args: list[str]) -> str:
    """Digest of one CLI command run in an empty directory: its stdout,
    exit code, and the name and bytes of every file under ``out``."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        result = runner.invoke(main, args)
        parts = [result.stdout.encode(), str(result.exit_code).encode()]
        out = Path("out")
        for path in sorted(out.rglob("*")) if out.exists() else ():
            if path.is_file():
                parts += [path.relative_to(out).as_posix().encode(), path.read_bytes()]
    return _sha(*parts)


def _full(value) -> bytes:
    """JSON with every float at full precision (``repr``)."""

    def plain(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.floating, np.integer)):
            return v.item()
        raise TypeError(type(v))

    return json.dumps(value, sort_keys=True, default=plain).encode()


def _stats(config: Path, workers: int) -> str:
    stats = run_trials(parse_config(config), workers=workers)
    fields = {name: getattr(stats, name) for name in stats.__dataclass_fields__}
    return _sha(_full(fields))


def _population(k: int, images: bool) -> Environment:
    """K agents with their own noise and bias; with ``images`` every third
    is image-driven, else all are truth-driven."""
    agents = []
    for i in range(k):
        image = images and i % 3 == 2
        agents.append(
            Agent(
                id=i,
                quality=Quality(round(0.2 + 0.6 * i / (k - 1), 6)),
                agent_type=Image() if image else Truth(),
                utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=0.0 if image else 1.0),
                cross_obs=NormalParams(0.01 * (i % 4) - 0.015, 0.08 + 0.01 * (i % 5)),
            )
        )
    return Environment(agents=tuple(agents), system_obs=NormalParams(0.0, 0.1))


def entries() -> dict[str, str]:
    """Every golden digest, by name."""
    found: dict[str, str] = {}
    for config in sorted(CONFIGS.glob("*.ini")):
        for workers in (1, 4):
            found[f"run/{config.stem}/w{workers}"] = _cli(
                ["run", str(config), "--out", "out", "--workers", str(workers)]
            )
            found[f"stats/{config.stem}/w{workers}"] = _stats(config, workers)
    for parameter, config, grid in (
        ("pr_a", "pr_k7", "1.0,1.7,2.5"),
        ("sigma", "simple_averaging_k8", "0.05,0.1,0.2"),
        ("rho", "as_k5", "0:1:3"),
    ):
        for workers in (1, 4):
            found[f"sweep/{parameter}/w{workers}"] = _cli(
                [
                    "sweep", str(CONFIGS / f"{config}.ini"), "--parameter", parameter,
                    "--grid", grid, "--out", "out", "--workers", str(workers),
                ]
            )
    for config in ("as_k5", "extended_as_k6_rings", "fr_k4"):
        found[f"check-equilibrium/{config}"] = _cli(
            ["check-equilibrium", str(CONFIGS / f"{config}.ini"), "--grid", "51", "--trials", "3000"]
        )
    found["report/as_k5"] = _cli(["report", str(CONFIGS / "as_k5.ini"), "--trials", "7000"])
    for workers in (1, 2):
        for layers in (1, 2):
            record = run_collusion_scenario(_population(12, False), {2, 5, 9}, layers, 2_500, 13, workers)
            found[f"collusion/layers{layers}/w{workers}"] = _sha(_full(record))
        record = run_malicious_scenario(_population(8, True), {1, 6}, 2_500, 19, workers)
        found[f"malicious/w{workers}"] = _sha(_full(record))
    return found


def write() -> None:
    payload = {**versions(), "digests": entries()}
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="ascii")


if __name__ == "__main__":
    write()
    sys.stdout.write(f"wrote {DIGESTS}\n")
