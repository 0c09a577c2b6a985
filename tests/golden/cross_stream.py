"""Compare two source trees' simulated outputs in distribution.

A change to the engine's draw (a new bit generator, a new draw order) moves
every simulated digest, and the golden corpus can then only say "moved".
This script says whether what moved is still the same random quantity.
It runs each tree in its own subprocess, over its own range of seeds:

- every ``stats/*`` config of ``configs/`` (``run_trials`` at each seed):
  ``mae_mean``, ``budget_mean`` and each agent's reputation and utility
  mean;
- the golden collusion and malicious records, whose means are per arm;
- the golden ``check-equilibrium`` audits (``--grid 51 --trials 3000``):
  each audited agent's verdict and each config's exit code, as the rate at
  which the verdict is ``DEVIATES`` and the exit code 4 over the seeds.

Each quantity is one value per seed, so each side has a mean over its seeds
and the standard error of that mean.  Two sides agree on a quantity when
the means lie within 4 combined standard errors, after a Holm correction
over all compared quantities: the p-values ``erfc(z / sqrt 2)`` of the
quantities' z-scores are stepped down against ``ALPHA / (m - rank)``,
where ``ALPHA`` is the two-sided p-value of z = 4.  A quantity that takes
one value at every seed on both sides must match exactly.  The audits at
each config's own seed are printed beside the record, for reading against
the golden entries; they are not part of the test.

Run from the repository root, with two trees that each hold ``src/replab``
(for example a ``git archive`` of the parent commit and this checkout)::

    python tests/golden/cross_stream.py --a ../parent --b . \\
        --seeds-a 1000:1100 --seeds-b 2000:2100

The exit code is 0 when every quantity agrees and 1 otherwise.  Importing
the module runs nothing and imports no replab.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

HERE = Path(__file__).resolve().parent

# The two-sided p-value of a z-score of 4.
ALPHA = math.erfc(4.0 / math.sqrt(2.0))

AUDITS = (
    "as_k5", "audit_extended_as_k5", "extended_as_k6_rings", "fr_k4", "pr_k7",
    "simple_averaging_k8", "weighted_pr_k10",
)
AUDIT_ARGS = ["--grid", "51", "--trials", "3000"]
COLLUSION_KEYS = ("mae", "outsider_mae", "clique_utility", "clique_tax")
MALICIOUS_KEYS = ("malicious_mae", "image_mae", "baseline_mae", "malicious_own_charge")


@dataclass(frozen=True)
class Comparison:
    """One quantity's two sides: means over seeds, their standard errors,
    the z-score and two-sided p-value of the difference, and whether the
    Holm step-down flags it."""

    name: str
    mean_a: float
    stderr_a: float
    mean_b: float
    stderr_b: float
    z: float
    p: float
    flagged: bool


def summarize(values: Sequence[float]) -> tuple[float, float]:
    """The mean of one quantity's per-seed values and its standard error;
    0.0 exactly when every value is the same."""
    if all(v == values[0] for v in values):
        return values[0], 0.0
    n = len(values)
    mean = math.fsum(values) / n
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(variance / n)


def compare(
    a: Mapping[str, tuple[float, float]],
    b: Mapping[str, tuple[float, float]],
) -> list[Comparison]:
    """Compare two sides' (mean, stderr) summaries, quantity by quantity.

    Both sides must name the same quantities.  A quantity with zero
    stderr on both sides is flagged when its means differ at all; the rest
    get ``z = |mean_a - mean_b| / sqrt(stderr_a^2 + stderr_b^2)`` and are
    flagged by Holm's step-down procedure at family-wise level ``ALPHA``:
    sorted by p-value, the quantity of rank r (from 0) is flagged while
    every p-value up to it lies at or below ``ALPHA / (m - r)``, m being
    the number of tested quantities.  Returned in ``a``'s order.
    """
    if a.keys() != b.keys():
        missing = sorted(a.keys() ^ b.keys())
        raise ValueError(f"the sides name different quantities: {missing[:5]}")
    scores, flagged, tested = {}, {}, []
    for name, (mean_a, se_a) in a.items():
        mean_b, se_b = b[name]
        if se_a == 0.0 and se_b == 0.0:
            differs = mean_a != mean_b
            scores[name] = (math.inf, 0.0) if differs else (0.0, 1.0)
            flagged[name] = differs
            continue
        z = abs(mean_a - mean_b) / math.hypot(se_a, se_b)
        scores[name] = (z, math.erfc(z / math.sqrt(2.0)))
        tested.append(name)
    tested.sort(key=lambda name: scores[name][1])
    stepping = True
    for rank, name in enumerate(tested):
        stepping = stepping and scores[name][1] <= ALPHA / (len(tested) - rank)
        flagged[name] = stepping
    return [
        Comparison(name, *a[name], *b[name], *scores[name], flagged[name]) for name in a
    ]


# ---------------------------------------------------------------------------
# One side: runs in a subprocess whose replab is the side's tree
# ---------------------------------------------------------------------------


def _audit(config: Path, seed: int) -> tuple[dict[int, str], int]:
    """Verdict by audited agent and exit code of one ``check-equilibrium``."""
    from click.testing import CliRunner

    from replab.cli import main

    result = CliRunner().invoke(
        main, ["check-equilibrium", str(config), "--seed", str(seed), *AUDIT_ARGS]
    )
    verdicts = {
        int(m.group(1)): m.group(2)
        for m in re.finditer(r"^(\d+)\s.*\s(ok|DEVIATES)$", result.stdout, re.MULTILINE)
    }
    return verdicts, result.exit_code


def collect(seeds: Sequence[int]) -> dict:
    """Every quantity's value at each seed, and the audits at each config's
    own seed, from the replab on ``sys.path``."""
    sys.path.insert(0, str(HERE.parent))
    from golden.regenerate import CONFIGS, _population

    from replab.cli import parse_config
    from replab.simulator import run_collusion_scenario, run_malicious_scenario, run_trials

    values: dict[str, list[float]] = {}

    def add(name: str, value) -> None:
        values.setdefault(name, []).append(float(value))

    for seed in seeds:
        for config in sorted(CONFIGS.glob("*.ini")):
            stats = run_trials(parse_config(config, seed=seed))
            add(f"stats/{config.stem}/mae_mean", stats.mae_mean)
            add(f"stats/{config.stem}/budget_mean", stats.budget_mean)
            for i, (rep, util) in enumerate(
                zip(stats.per_agent_reputation_mean, stats.per_agent_utility_mean)
            ):
                add(f"stats/{config.stem}/reputation/{i}", rep)
                add(f"stats/{config.stem}/utility/{i}", util)
        for label, env, clique in (
            ("collusion", _population(12, False), {2, 5, 9}),
            ("collusion_k3", _population(3, False), {0}),
        ):
            record = run_collusion_scenario(env, clique, 2, 2_500, seed)
            for arm in ("one_layer", "one_layer_honest", "two_layer", "two_layer_honest"):
                for key in COLLUSION_KEYS:
                    add(f"{label}/{arm}/{key}", record[arm][key])
        record = run_malicious_scenario(_population(8, True), {1, 6}, 2_500, seed)
        for key in MALICIOUS_KEYS:
            add(f"malicious/{key}", record[key])
        for stem in AUDITS:
            verdicts, code = _audit(CONFIGS / f"{stem}.ini", seed)
            add(f"check-equilibrium/{stem}/exit4", code == 4)
            for i, verdict in verdicts.items():
                add(f"check-equilibrium/{stem}/deviates/{i}", verdict == "DEVIATES")
    own = {}
    for stem in AUDITS:
        config = CONFIGS / f"{stem}.ini"
        verdicts, code = _audit(config, parse_config(config).seed)
        own[stem] = {"verdicts": [verdicts[i] for i in sorted(verdicts)], "exit": code}
    return {"values": values, "own_seed_audits": own}


def _side(tree: Path, seeds: range) -> dict:
    """:func:`collect` run in a subprocess on ``tree``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--collect", f"{seeds.start}:{seeds.stop}"],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def _seeds(text: str) -> range:
    start, _, stop = text.partition(":")
    seeds = range(int(start), int(stop))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least two seeds, got {text!r}")
    return seeds


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, help="source tree of side a")
    parser.add_argument("--b", type=Path, help="source tree of side b")
    parser.add_argument("--seeds-a", type=_seeds, default=_seeds("1000:1100"))
    parser.add_argument("--seeds-b", type=_seeds, default=_seeds("2000:2100"))
    parser.add_argument("--collect", type=_seeds, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        json.dump(collect(args.collect), sys.stdout)
        return 0
    if args.a is None or args.b is None:
        parser.error("--a and --b are required")
    sides = [_side(args.a, args.seeds_a), _side(args.b, args.seeds_b)]
    summaries = [{k: summarize(v) for k, v in side["values"].items()} for side in sides]
    results = compare(*summaries)
    flagged = [r for r in results if r.flagged]
    exact = sum(1 for r in results if r.stderr_a == 0.0 and r.stderr_b == 0.0)
    worst = max(results, key=lambda r: r.z)
    print(f"a: {args.a} seeds {args.seeds_a.start}:{args.seeds_a.stop}")
    print(f"b: {args.b} seeds {args.seeds_b.start}:{args.seeds_b.stop}")
    print(
        f"{len(results)} quantities, {exact} constant on both sides; "
        f"largest z {_fmt(worst.z)} ({worst.name}); Holm level {_fmt(ALPHA)}"
    )
    for r in flagged:
        print(
            f"FLAGGED {r.name}: a {_fmt(r.mean_a)} +- {_fmt(r.stderr_a)}, "
            f"b {_fmt(r.mean_b)} +- {_fmt(r.stderr_b)}, z {_fmt(r.z)}"
        )
    for stem in AUDITS:
        own = [side["own_seed_audits"][stem] for side in sides]
        same = "same" if own[0] == own[1] else "differ"
        print(
            f"own seed {stem}: exit {own[0]['exit']} / {own[1]['exit']}, verdicts {same}"
            + ("" if same == "same" else f": {own[0]['verdicts']} / {own[1]['verdicts']}")
        )
    print("PASS" if not flagged else f"FAIL: {len(flagged)} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
