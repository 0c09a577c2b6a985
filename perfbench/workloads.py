"""The benchmark's four workloads: inputs made from a seed, the operations
each pass runs, and the check that decides whether an operation's output is
correct.

A workload is built by :func:`build`.  Its configs are written to a work
directory first; the operations then call replab the way a user does: the
``replab`` commands through click's test runner, and the scenario runners and
solvers that have no command through the Python API.  Every call goes
through a module attribute looked up at call time, so a traced pass sees it.

A check returns ``None`` when the output is correct and a message otherwise.
Checks compare against independent oracles (:mod:`oracles`), exact
invariants and the first pass's bytes; none of them relies on the grid
minimiser of the collusion tax sitting at the truthful report.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

import replab.analysis
import replab.cli
import replab.numerics
import replab.simulator

import oracles

SIGMA = 0.1  # every observation channel: system prior and peer observers
BAND_A = 1.7


@dataclass
class Op:
    """One operation of a pass.

    ``work`` is the number of work units the operation completes, or a
    function of its result.  ``once`` is an extra check made on the first
    pass only, for checks that cost a second run of the program.
    """

    name: str
    run: Callable[[], object]
    work: int | Callable[[object], int]
    check: Callable[[object], str | None]
    once: Callable[[object], str | None] | None = None

    def units(self, result) -> int:
        return self.work(result) if callable(self.work) else self.work


@dataclass
class Workload:
    name: str
    unit: str
    size: dict
    configs: list[Path] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def write_ini(path: Path, agents, mechanism: dict, seed: int, scheme="absolute") -> Path:
    """A scenario config with every observation channel at std SIGMA."""
    lines = [
        "[environment]",
        f"index_scheme = {scheme}",
        f"system_std = {SIGMA}",
        f"cross_std = {SIGMA}",
        "",
        "[agents]",
    ]
    lines += [f"agent{i} = quality={q} type={kind}" for i, (q, kind) in enumerate(agents)]
    lines += ["", "[mechanism]"] + [f"{key} = {value}" for key, value in mechanism.items()]
    lines += ["", "[simulation]", f"seed = {seed}", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def qualities(rng: random.Random, k: int, lo: float = 0.2, hi: float = 0.8) -> list[float]:
    return [round(rng.uniform(lo, hi), 4) for _ in range(k)]


def cli(*args):
    """Invoke a replab command in-process; returns click's Result."""
    return CliRunner().invoke(replab.cli.main, [str(arg) for arg in args])


def cli_failure(result) -> str | None:
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        return f"raised {type(result.exception).__name__}: {result.exception}"
    if result.exit_code != 0:
        return f"exit {result.exit_code}: {result.output.strip()[-300:]}"
    return None


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def csv_rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as handle:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]


class SameAsFirst:
    """Check that every pass reproduces the first pass's output exactly."""

    def __init__(self) -> None:
        self.first = None

    def __call__(self, output) -> str | None:
        if self.first is None:
            self.first = output
            return None
        return None if output == self.first else "output differs from the first pass"


def first_failure(*messages) -> str | None:
    return next((m for m in messages if m), None)


def within(label: str, got: float, want: float, tol: float) -> str | None:
    if math.isfinite(got) and abs(got - want) <= tol:
        return None
    return f"{label}: {got!r} vs {want!r} (tolerance {tol:g})"


def band_report(r: float, kind: str, sigma_prime: float) -> float:
    """Equilibrium self-report under punish-reward: truthful or inflated."""
    if kind == "truth":
        return r
    return min(r + BAND_A * sigma_prime * oracles.band_offset(BAND_A), 1.0)


# ---------------------------------------------------------------------------
# mc_large_k: large populations, one worker
# ---------------------------------------------------------------------------


def _stats_check(out: Path, k: int, trials: int) -> tuple[dict | None, str | None]:
    stats = json.loads((out / "stats.json").read_text())
    if stats["trials"] != trials:
        return None, f"trials {stats['trials']} != {trials}"
    for key in ("per_agent_reputation_mean", "per_agent_utility_mean"):
        values = stats[key]
        if len(values) != k or not all(math.isfinite(v) for v in values):
            return None, f"{key}: expected {k} finite values"
    return stats, None


def _band_means_check(stats, agents, trials, aggregate_stds, sigma_prime) -> str | None:
    """Mean published reputations against the punish-reward closed form.

    Agents are independent, so the mean over agents of (simulated mean -
    expected) has a standard deviation of at most sqrt(sum b_i^2) / (K
    sqrt(trials)), where b_i^2 = eps^2/4 + 4 E[(aggregate - report)^2]
    bounds the second moment of the published value around the report.
    """
    eps = BAND_A * sigma_prime
    k = len(agents)
    gaps, bounds = [], []
    for (r, kind), s, got in zip(agents, aggregate_stds, stats["per_agent_reputation_mean"]):
        x = band_report(r, kind, sigma_prime)
        gaps.append(got - oracles.expected_reputation(x, r, s, eps))
        bounds.append(0.25 * eps * eps + 4.0 * (s * s + (x - r) ** 2))
    stderr = math.sqrt(math.fsum(bounds)) / (k * math.sqrt(trials))
    return within("mean reputation gap", math.fsum(gaps) / k, 0.0, 5.0 * stderr)


def mc_large_k(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    k = 6 if smoke else 100
    trials = 64 if smoke else 2048
    sigma_prime = SIGMA / math.sqrt(k)
    quals = qualities(rng, k)
    agents = [(q, "truth" if i < k // 2 else "image") for i, q in enumerate(quals)]
    weights = [round(rng.uniform(0.5, 1.5), 4) for _ in range(k)]
    wl = Workload(
        "mc_large_k",
        unit="trials",
        size={"agents": k, "trials_per_run": trials, "runs": 3, "workers": 1},
    )

    def wpr_stds():
        total, squares = math.fsum(weights), math.fsum(w * w for w in weights)
        return [SIGMA * math.sqrt(squares - w * w) / (total - w) for w in weights]

    mechanisms = {
        "pr": ({"kind": "pr", "a": BAND_A}, [sigma_prime] * k),
        "simple_averaging": ({"kind": "simple_averaging"}, None),
        "weighted_pr": (
            {"kind": "weighted_pr", "a": BAND_A, "weights": ", ".join(map(str, weights))},
            wpr_stds(),
        ),
    }
    for kind, (mechanism, stds) in mechanisms.items():
        cfg = write_ini(work / f"{kind}.ini", agents, mechanism, rng.randrange(2**32))
        wl.configs.append(cfg)
        out = work / "out" / kind
        same = SameAsFirst()

        def check(result, out=out, kind=kind, stds=stds, same=same):
            failure = cli_failure(result)
            if failure:
                return failure
            stats, failure = _stats_check(out, k, trials)
            if failure:
                return failure
            if kind == "simple_averaging":
                verdict = within(
                    "per-agent MAE",
                    stats["mae_mean"] / k,
                    oracles.SQRT_2_OVER_PI * sigma_prime,
                    4.0 * stats["mae_stderr"] / k,
                )
            else:
                verdict = first_failure(
                    within("budget", stats["budget_max_abs"], 0.0, 0.0),
                    _band_means_check(stats, agents, trials, stds, sigma_prime),
                )
            return first_failure(verdict, same(dir_bytes(out)))

        wl.ops.append(
            Op(
                f"run_{kind}",
                lambda cfg=cfg, out=out: cli(
                    "run", cfg, "--out", out, "--trials", trials, "--workers", 1
                ),
                trials,
                check,
            )
        )
    return wl


# ---------------------------------------------------------------------------
# mc_scenarios: small populations, many batches, two workers
# ---------------------------------------------------------------------------


def mc_scenarios(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    workers = 2
    batches = 2 if smoke else 32
    trials = batches * replab.simulator.BATCH_TRIALS
    run_trials = 2 * trials if smoke else 4 * trials
    wl = Workload(
        "mc_scenarios",
        unit="trials",
        size={
            "collusion": {"agents": 12, "clique": 3, "trials_per_arm": trials, "arms": 4},
            "malicious": {"agents": 8, "malicious": 2, "trials_per_arm": trials, "arms": 3},
            "run_as": {"agents": 5, "trials": run_trials},
            "workers": workers,
        },
    )

    # Ring validation against a mutually inflating clique.
    coll_agents = [(q, "truth") for q in qualities(rng, 12)]
    coll_cfg = write_ini(work / "collusion.ini", coll_agents, {"kind": "as"}, 0)
    clique = set(rng.sample(range(12), 3))
    coll_seed = rng.randrange(2**32)
    coll_env = replab.cli.parse_config(coll_cfg).env
    coll_same = SameAsFirst()

    def coll_check(record):
        for arm in ("one_layer", "two_layer", "one_layer_honest", "two_layer_honest"):
            failure = within(f"{arm} budget", record[arm]["budget_max_abs"], 0.0, 1e-9)
            if failure:
                return failure
        return coll_same(record)

    wl.ops.append(
        Op(
            "collusion",
            lambda: replab.simulator.run_collusion_scenario(
                coll_env, clique, 2, trials, coll_seed, workers=workers
            ),
            4 * trials,
            coll_check,
        )
    )

    # Uniform-random reporters against image-driven ones under scoring.
    mal_quals = qualities(rng, 8)
    mal_cfg = write_ini(work / "malicious.ini", [(q, "truth") for q in mal_quals], {"kind": "as"}, 0)
    slots = sorted(rng.sample(range(8), 2))
    mal_seed = rng.randrange(2**32)
    mal_env = replab.cli.parse_config(mal_cfg).env
    mal_same = SameAsFirst()

    def mal_check(record):
        # Under scoring the published value is the self-report: truthful
        # agents are exact, image-driven ones add exactly 1/2 (capped at 1),
        # uniform reporters miss by |U - r|.
        errors = [oracles.uniform_abs_error_moments(mal_quals[i]) for i in slots]
        charges = [oracles.uniform_charge_moments(mal_quals[i], SIGMA) for i in slots]
        n = len(slots)
        return first_failure(
            within("baseline MAE", record["baseline_mae"], 0.0, 0.0),
            within(
                "image MAE",
                record["image_mae"],
                math.fsum(min(mal_quals[i] + 0.5, 1.0) - mal_quals[i] for i in slots),
                1e-9,
            ),
            within(
                "malicious MAE",
                record["malicious_mae"],
                math.fsum(m for m, _ in errors),
                5.0 * math.sqrt(math.fsum(v for _, v in errors) / trials),
            ),
            within(
                "malicious own charge",
                record["malicious_own_charge"],
                math.fsum(m for m, _ in charges) / n,
                5.0 * math.sqrt(math.fsum(v for _, v in charges) / trials) / n,
            ),
            mal_same(record),
        )

    wl.ops.append(
        Op(
            "malicious",
            lambda: replab.simulator.run_malicious_scenario(
                mal_env, set(slots), trials, mal_seed, workers=workers
            ),
            3 * trials,
            mal_check,
        )
    )

    # A plain scoring run through the command line, at 2 and at 1 worker.
    as_agents = [(q, kind) for q, kind in zip(qualities(rng, 5), ["truth", "image"] * 3)]
    as_cfg = write_ini(work / "as.ini", as_agents, {"kind": "as"}, rng.randrange(2**32))
    out2, out1 = work / "out" / "as_w2", work / "out" / "as_w1"
    as_same = SameAsFirst()

    def as_check(result):
        failure = cli_failure(result)
        if failure:
            return failure
        stats, failure = _stats_check(out2, 5, run_trials)
        if failure:
            return failure
        return first_failure(
            within("budget", stats["budget_max_abs"], 0.0, 1e-9),
            as_same(dir_bytes(out2)),
        )

    def as_once(_result):
        failure = cli_failure(
            cli("run", as_cfg, "--out", out1, "--trials", run_trials, "--workers", 1)
        )
        if failure:
            return "1-worker run " + failure
        if dir_bytes(out1) != dir_bytes(out2):
            return "outputs at 1 and 2 workers differ"
        return None

    wl.ops.append(
        Op(
            "run_as",
            lambda: cli("run", as_cfg, "--out", out2, "--trials", run_trials, "--workers", workers),
            run_trials,
            as_check,
            once=as_once,
        )
    )
    wl.configs += [coll_cfg, mal_cfg, as_cfg]
    return wl


# ---------------------------------------------------------------------------
# audit: gridded deviation scans
# ---------------------------------------------------------------------------

AUDIT_QUALITIES = (0.3, 0.5, 0.7, 0.4, 0.6)


def _all_clear(result) -> str | None:
    failure = cli_failure(result)
    if failure:
        return failure
    if "no profitable deviation" not in result.output:
        return "missing the all-clear line"
    return None


def audit(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    trials = 500 if smoke else 4000
    grid = 21 if smoke else 201
    k = len(AUDIT_QUALITIES)
    wl = Workload(
        "audit",
        unit="trial x grid-point evaluations",
        size={"agents": k, "trials": trials, "grid": grid, "mechanisms": 4},
    )
    for kind in ("as", "extended_as", "fr", "simple_averaging"):
        # The share mechanism's all-truth equilibrium is stated against
        # share targets.
        scheme = "relative" if kind == "fr" else "absolute"
        cfg = write_ini(
            work / f"{kind}.ini",
            [(q, "truth") for q in AUDIT_QUALITIES],
            {"kind": kind},
            rng.randrange(2**31),
            scheme=scheme,
        )
        wl.configs.append(cfg)
        wl.ops.append(
            Op(
                f"check_{kind}",
                lambda cfg=cfg: cli(
                    "check-equilibrium", cfg, "--grid", grid, "--trials", trials
                ),
                k * trials * (grid + 2),
                _all_clear,
            )
        )
    return wl


# ---------------------------------------------------------------------------
# closed_form: quadrature, root finding and minimisation
# ---------------------------------------------------------------------------


def _band_columns_check(rows, mu: float, sigma_prime: float) -> str | None:
    for row in rows:
        a = row["a"] if "a" in row else row["value"]
        y = oracles.band_offset(a)
        x = mu + a * sigma_prime * y
        failure = first_failure(
            within(f"y at a={a}", row["y"], y, 1e-10),
            within(f"e_m at a={a}", row["e_m"], oracles.band_error(a, sigma_prime), 1e-9),
            within(
                f"expected reputation at a={a}",
                row["expected_reputation"],
                oracles.expected_reputation(x, mu, sigma_prime, a * sigma_prime),
                1e-7,
            ),
        )
        if failure:
            return failure
    return None


def _participation(agents) -> list[tuple[float, float, float, float]]:
    """Per agent under scoring: (closed u_in, closed u_out, exact u_in,
    exact u_out) for a population of truth- and image-driven agents with
    quadratic accuracy loss and linear image payoff.

    Image-driven agents report min(r + 1/2, 1); write d_j for that
    overshoot.  The expected tax of agent i is d_i^2 minus the mean of the
    others' d_j^2 (the prior noise cancels), so the exact expected utility
    inside is -(sum of the others' d_j^2)(1 - 1/(K-1)) for a truth-driven
    agent and x_i - d_i^2 + (sum of the others' d_j^2)/(K-1) for an
    image-driven one.  Outside, a truth-driven agent bears its own
    observation error of the K-1 others and an image-driven one gets the
    platform's estimate of r.  The closed form for image-driven agents is
    the paper's x_i - 1/4 + rho/4, which takes every overshoot to be 1/2;
    it equals the exact value only when no image-driven quality exceeds
    1/2.
    """
    k = len(agents)
    overshoot = [min(r + 0.5, 1.0) - r if kind == "image" else 0.0 for r, kind in agents]
    rows = []
    for i, (r, kind) in enumerate(agents):
        others = math.fsum(d * d for j, d in enumerate(overshoot) if j != i)
        if kind == "truth":
            u_in = -others * (1.0 - 1.0 / (k - 1))
            u_out = -(k - 1) * SIGMA * SIGMA
            rows.append((u_in, u_out, u_in, u_out))
        else:
            x = r + overshoot[i]
            rho = sum(1 for j, (_, kj) in enumerate(agents) if j != i and kj == "image") / (k - 1)
            exact_in = x - overshoot[i] ** 2 + others / (k - 1)
            rows.append((x - 0.25 + 0.25 * rho, r, exact_in, r))
    return rows


def closed_form(seed: int, work: Path, smoke: bool) -> Workload:
    rng = random.Random(seed)
    points = 3 if smoke else 4
    sweep_points = 2
    sweep_trials = 256 if smoke else 2048
    report_trials = 2048 if smoke else 16384
    tax_points = 5 if smoke else 31
    minimize = {"tol": 1e-2, "scan_points": 5} if smoke else {"tol": 1e-4, "scan_points": 17}
    sigma_prime = 0.1
    quality = round(rng.uniform(0.3, 0.7), 4)
    wl = Workload(
        "closed_form",
        unit="public solver calls",
        size={
            "figures_points": points,
            "sweep_points": sweep_points,
            "sweep_trials": sweep_trials,
            "report_trials": report_trials,
            "tax_grid": f"{tax_points}x{tax_points}",
            "minimize": minimize,
        },
    )

    # Design curves: one solve_y, pr_mae and expected_pr_reputation per point.
    fig_out = work / "out" / "figures"

    def fig_check(result):
        failure = cli_failure(result)
        if failure:
            return failure
        rows = {}
        for name in ("fig1", "fig2", "fig3"):
            for row in csv_rows(fig_out / f"{name}.csv"):
                rows.setdefault(row["a"], {"a": row["a"]}).update(row)
        if len(rows) != points:
            return f"{len(rows)} figure rows, expected {points}"
        return _band_columns_check(rows.values(), quality, sigma_prime)

    wl.ops.append(
        Op(
            "figures",
            lambda: cli(
                "figures", "--out", fig_out, "--sigma-prime", sigma_prime,
                "--quality", quality, "--points", points,
            ),
            3 * points,
            fig_check,
        )
    )

    # Band-multiplier sweep: the closed-form columns next to small runs.
    band_agents = [(q, kind) for q, kind in zip(qualities(rng, 5), ["truth", "image"] * 3)]
    band_cfg = write_ini(
        work / "band.ini", band_agents, {"kind": "pr", "a": BAND_A}, rng.randrange(2**32)
    )
    sweep_out = work / "out" / "sweep"
    band_sigma = SIGMA / math.sqrt(len(band_agents))
    band_mean = math.fsum(q for q, _ in band_agents) / len(band_agents)

    def sweep_check(result):
        failure = cli_failure(result)
        if failure:
            return failure
        rows = csv_rows(sweep_out / "sweep.csv")
        if len(rows) != sweep_points:
            return f"{len(rows)} sweep rows, expected {sweep_points}"
        for row in rows:
            failure = first_failure(
                within("budget", row["budget_max_abs"], 0.0, 0.0),
                within(
                    "averaging MAE",
                    row["averaging_mae"],
                    oracles.SQRT_2_OVER_PI * band_sigma,
                    1e-12,
                ),
            )
            if failure:
                return failure
        return _band_columns_check(rows, band_mean, band_sigma)

    wl.ops.append(
        Op(
            "sweep",
            lambda: cli(
                "sweep", band_cfg, "--parameter", "pr_a", "--grid", f"1:3:{sweep_points}",
                "--trials", sweep_trials, "--out", sweep_out,
            ),
            3 * sweep_points,
            sweep_check,
        )
    )

    # Participation report: closed form and Monte Carlo per agent, plus
    # the system-gain rule.
    report_agents = [(q, kind) for q, kind in zip(qualities(rng, 5), ["truth", "image"] * 3)]
    report_cfg = write_ini(
        work / "report.ini", report_agents, {"kind": "as"}, rng.randrange(2**32)
    )
    expected_rows = _participation(report_agents)
    n_image = sum(1 for _, kind in report_agents if kind == "image")
    gains = n_image / (len(report_agents) - 1) < 2.0 * oracles.SQRT_2_OVER_PI * SIGMA

    def report_check(result):
        failure = cli_failure(result)
        if failure:
            return failure
        lines = result.output.splitlines()
        rows = [line.split() for line in lines[1 : 1 + len(report_agents)]]
        for i, (cols, (closed_in, closed_out, exact_in, exact_out)) in enumerate(
            zip(rows, expected_rows)
        ):
            # Columns: id type quality u_in u_out joins u_in(mc) u_out(mc) ...
            # 0.01 is about 13 standard errors of the Monte Carlo utilities
            # at 16384 trials.
            failure = first_failure(
                within(f"agent {i} closed u_in", float(cols[3]), closed_in, 1e-9),
                within(f"agent {i} closed u_out", float(cols[4]), closed_out, 1e-9),
                within(f"agent {i} simulated u_in", float(cols[6]), exact_in, 0.01),
                within(f"agent {i} simulated u_out", float(cols[7]), exact_out, 0.01),
            )
            if failure:
                return failure
        verdict = f"system gain: {'yes' if gains else 'no'}"
        return None if verdict in result.output else f"expected '{verdict}'"

    wl.ops.append(
        Op(
            "report",
            lambda: cli("report", report_cfg, "--trials", report_trials),
            2 * len(report_agents) + 1,
            report_check,
        )
    )

    # Expected collusion tax over an (a, b) grid, plus the two reference
    # points of the counterexample at r = 0.3, sigma = 0.1.
    a_grid = [2.0 * i / (tax_points - 1) for i in range(tax_points)]
    b_grid = [-0.5 + i / (tax_points - 1) for i in range(tax_points)]
    tax_r = round(rng.uniform(0.2, 0.8), 4)

    def tax_run():
        tax = replab.analysis.collusion_expected_tax
        grid = [tax(a, b, tax_r, SIGMA) for a in a_grid for b in b_grid]
        return grid, tax(0.0, 0.3, 0.3, 0.1), tax(1.0, 0.0, 0.3, 0.1)

    def tax_check(result):
        grid, at_shift, at_identity = result
        cells = ((a, b) for a in a_grid for b in b_grid)
        for (a, b), got in zip(cells, grid):
            failure = within(
                f"tax at (a={a}, b={b})", got, oracles.collusion_tax(a, b, tax_r, SIGMA), 1e-10
            )
            if failure:
                return failure
        return first_failure(
            within("tax at (0, r)", at_shift, 0.0798, 5e-5),
            within("tax at (1, 0)", at_identity, 0.1128, 5e-5),
        )

    wl.ops.append(Op("collusion_tax_grid", tax_run, tax_points * tax_points + 2, tax_check))

    # Minimise the band error over the multiplier.
    def minimize_run():
        evals = [0]

        def objective(a):
            evals[0] += 1
            return replab.analysis.pr_mae(a, sigma_prime)

        best_a, best = replab.numerics.minimize_1d(objective, 0.5, 5.0, **minimize)
        return best_a, best, evals[0]

    def minimize_check(result):
        best_a, best, _ = result
        return first_failure(
            within("argmin", best_a, 1.7, 0.1 if not smoke else 0.5),
            None
            if best < oracles.SQRT_2_OVER_PI * sigma_prime
            else f"minimum {best} not below plain averaging",
            within("minimum", best, oracles.band_error(best_a, sigma_prime), 1e-9),
        )

    wl.ops.append(Op("minimize_pr_mae", minimize_run, lambda result: result[2], minimize_check))
    wl.configs += [band_cfg, report_cfg]
    return wl


WORKLOADS = {
    "mc_large_k": mc_large_k,
    "mc_scenarios": mc_scenarios,
    "audit": audit,
    "closed_form": closed_form,
}


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    (work / "out").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work, smoke)
