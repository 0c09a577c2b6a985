"""Seeded Monte Carlo engine for configured reporting scenarios.

Every simulated result goes through :func:`simulate`.  Trials are drawn in
fixed batches of 1024.  Batch ``b`` draws from
``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(b,))))`` in one
fixed order, draw stream :data:`STREAM` = 4, taking only what its mechanism
reads (``mechanisms.cross_reads``), so a batch holds O(batch * K) numbers.
It draws the system observations, then the uniform self-reports of random
senders (``strategies.sample_sparse``); the other self-reports are the
resolved constants.  Scoring, share-of-total and direct observation draw
nothing more.  The peer-sum families draw each subject's peer sum
(``strategies.sample_peer_sums``).  Ring validation draws the collusion
scenario's secret rings, one permutation per layer, then the at most 3
reports per subject the rings read (``strategies.sample_ring_reads``).
That order, and the mechanism's run, live in one batch source,
``strategies._batch_source``; a deviation audit
(``strategies.deviation_reports``) is two engine calls of it.  Streams 1
to 3 drew some or all batches as a dense (batch, K, K) cross matrix.

A worker thread computes a *run*: consecutive whole batches holding at most
:data:`RUN_CELLS` trial-K cells, and never less than one batch, so from
K = 17 up a run is one batch (K = 12: two batches, K = 8: four, K = 5:
six).  Each batch of the run draws from its own generator into its own
rows of the run's (run trials, K) arrays; the scaling, shifting and
clipping that follow the draws, the mechanism, the utilities and the
reducer then run once over the whole run, which spares the Python and
thread hand-off costs of many small batches.  Each worker's buffers grow
with the run, so the budget was measured on the benchmark (2-CPU host):
against 2^14, 2^15 cells raise mc_scenarios' throughput x1.27 and its
peak resident memory by 1.3 MB, and closed_form's by 0.7 MB (its K=5
``report`` runs six batches at a time); mc_large_k, whose K=100 runs are
one batch either way, does not move.  The rise stays that small because
the ring path keeps few run-sized buffers: int32 ring maps, the
self-reports published as a view under scoring and ring validation, and
reducers that keep their temporaries in the kernel's dead scratch leave
a K=12 two-layer secret-ring run 12.25 (run, K) float64 buffers' worth
per worker, where it held 17.75.

The caller's reducer takes the run's draw (``strategies.ProfileDraw``)
and the row slice of each of its batches and returns one partial per
batch, computed on that batch's rows.  Partials are reduced in batch
order with compensated summation, so results are byte-identical for any
worker count and any run length.  Each worker thread draws and runs its
runs in a workspace of (run, K) buffers (``core.Workspace``) that lives as
long as the ``simulate`` call, so after its first run a worker allocates
no run-sized array.  The arrays a reducer
sees belong to that workspace and are overwritten by the worker's next
run: a reducer copies anything it keeps, and it may not write into them.
The reducer is handed the workspace too, and keeps its temporaries in the
scratch the kernel left dead.
Strategy constants are resolved once per call; only uniform-random
reporters draw fresh messages.

One call takes a list of arms, each an environment, a mechanism, a
strategy profile and a reducer, and groups the arms that draw alike
(``strategies._draw_key``).  Each group draws every batch once from
``_batch_rng(seed, b)``, then each arm in turn applies its own
self-reports and colluder messages (``strategies.ring_messages``) and runs
its own mechanism, and its reducer runs before the next arm is made
(common random numbers).  Every arm's totals equal, bit for bit, those of
the arm simulated alone.  A sweep's grid points and each scenario's arms
go in one call.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Container, Mapping, Sequence

import numpy as np

from .core import (
    AS,
    Agent,
    Colluder,
    Environment,
    MaliciousRandom,
    MechanismSpec,
    PR,
    WeightedPR,
    Workspace,
    absolute_errors,
    batch_true_utilities,
)
from .numerics import NormalParams
from .strategies import (
    ProfileDraw,
    UnsupportedCombination,
    _band_curves,
    _batch_rng,
    _batch_source,
    _check_counts,
    _check_profile,
    _draw_key,
    _driven,
    _SecretRings,
    aggregate_sigma_prime,
    resolve_self_reports,
)

__all__ = [
    "STREAM",
    "CliqueTooLarge",
    "UnsupportedCombination",
    "ScenarioConfig",
    "SimStats",
    "Arm",
    "simulate",
    "run_trials",
    "sweep",
    "run_collusion_scenario",
    "run_malicious_scenario",
]

BATCH_TRIALS = 1024

# Trial-K cells one run of batches holds at most; a run never holds less
# than one batch, so from K = 17 up a run is one batch.  Chosen by
# measurement, see the module docstring.
RUN_CELLS = 2**15

# Version of the draw order documented above; output manifests record it.
STREAM = 4

SWEEP_PARAMETERS = ("pr_a", "sigma", "rho")


class CliqueTooLarge(ValueError):
    """Raised when a clique leaves fewer than two honest outsiders."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified simulation scenario.

    ``strategy_mode`` is either the string ``"equilibrium"`` (every agent
    plays its analytical strategy; unsupported type/mechanism pairs raise
    UnsupportedCombination up front) or a mapping from agent id to a
    constant self-report, which overrides the equilibrium constant for the
    listed agents and leaves everyone else on their type strategy.
    """

    env: Environment
    mechanism: MechanismSpec
    strategy_mode: str | Mapping[int, float] = "equilibrium"
    trials: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_profile(self.env, self.strategy_mode)
        _check_counts(self.trials, self.seed)


@dataclass(frozen=True, eq=False)
class SimStats:
    """Aggregates over all trials of one scenario."""

    mae_mean: float
    mae_stderr: float
    per_agent_reputation_mean: np.ndarray
    per_agent_utility_mean: np.ndarray
    budget_mean: float
    budget_max_abs: float
    trials: int

    def __post_init__(self) -> None:
        if self.mae_stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


# ---------------------------------------------------------------------------
# Deterministic batching helpers
# ---------------------------------------------------------------------------


def _run_plan(trials: int, k: int) -> list[tuple[int, int]]:
    """(first batch, trials in run) pairs: runs of whole consecutive batches
    covering ``trials``, each holding at most :data:`RUN_CELLS` trial-K
    cells and never less than one batch."""
    per_run = max(1, RUN_CELLS // (BATCH_TRIALS * k))
    span = per_run * BATCH_TRIALS
    return [(start // BATCH_TRIALS, min(span, trials - start)) for start in range(0, trials, span)]


def _run_batches(first: int, size: int) -> list[tuple[int, slice]]:
    """Each batch of the run ``(first, size)``: its index and its rows."""
    return [
        (first + n, slice(start, min(start + BATCH_TRIALS, size)))
        for n, start in enumerate(range(0, size, BATCH_TRIALS))
    ]


def _map_batches(worker, plan, workers: int) -> list:
    """Evaluate ``worker(first_batch, trials_in_run)`` for every planned run.

    Results are returned in plan order regardless of scheduling, so any
    downstream reduction is deterministic.
    """
    if workers <= 1 or len(plan) == 1:
        return [worker(b, size) for b, size in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, b, size) for b, size in plan]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


# reduce(draw, batches, workspace) -> one dict per batch.
Reducer = Callable[[ProfileDraw, Sequence[slice], Workspace], Sequence[dict]]


def _combine(key: str, values: list) -> float | np.ndarray:
    """Reduce one reducer entry over the batches, in batch order."""
    if key.endswith("_max"):
        return max(values)
    if isinstance(values[0], np.ndarray):
        return np.array([math.fsum(column.tolist()) for column in np.stack(values).T])
    return math.fsum(values)


@dataclass(frozen=True)
class Arm:
    """One arm of an engine call: a population, the mechanism it runs, the
    reducer of its runs and its strategy profile, as in
    :class:`ScenarioConfig`."""

    env: Environment
    mechanism: MechanismSpec
    reduce: Reducer
    strategy_mode: str | Mapping[int, float] = "equilibrium"


def simulate(arms: Sequence[Arm], trials: int, seed: int, workers: int = 1) -> list[dict]:
    """Simulate ``trials`` rounds of every arm; one dict of totals per arm.

    The trials are drawn in 1024-trial batches, each from its own substream,
    and computed in runs of consecutive batches (see the module docstring).
    An arm's ``reduce(draw, batches, workspace)`` sees one run: each array
    of the :class:`~replab.strategies.ProfileDraw` ``draw`` is (run trials,
    K), and ``batches`` holds the row slice of each batch of the run, in
    order.  It returns one dict of floats and
    vectors per batch, computed on that batch's rows.  Every entry is summed
    over the batches, vectors per component, in batch order with
    ``math.fsum``; entries whose key ends in ``_max`` take the maximum
    instead.  Deterministic for fixed arguments: the per-batch substreams
    and partials make the worker count and the run length irrelevant to
    the result.  ``trials``, ``seed`` and ``workers`` must be integers, as
    :class:`ScenarioConfig` checks them.

    The arms are grouped by their draw (see the module docstring), and
    every arm's totals equal, bit for bit, those of the arm simulated
    alone.  The arms must have one agent count; a :class:`ValueError`
    names the counts otherwise.

    A reducer's arrays belong to its worker thread's workspace, which is
    its third argument: the later arms and the worker's next run overwrite
    them.  A reducer must copy anything it keeps, and it must not write
    into them.  It may keep temporaries in the workspace's scratch buffers,
    which the kernel left dead, and names no other buffer of it.
    """
    _check_counts(trials, seed, workers)
    if not arms:
        raise ValueError("simulate needs at least one arm")
    counts = sorted({arm.env.k for arm in arms})
    if len(counts) > 1:
        raise ValueError(f"the arms must have one agent count, got K = {counts}")
    resolved = [
        (arm.env, arm.mechanism, resolve_self_reports(arm.env, arm.mechanism, arm.strategy_mode))
        for arm in arms
    ]
    groups: dict[tuple, list[int]] = {}
    for m, source_arm in enumerate(resolved):
        groups.setdefault(_draw_key(*source_arm), []).append(m)
    sources = [
        (members, _batch_source([resolved[m] for m in members])) for members in groups.values()
    ]
    workspace = Workspace.per_thread()

    def one_run(first_batch: int, size: int) -> list[list[dict]]:
        plan = _run_batches(first_batch, size)
        rows = [batch_rows for _, batch_rows in plan]
        partials: list = [None] * len(arms)
        for members, source in sources:
            batches = [(_batch_rng(seed, b), batch_rows) for b, batch_rows in plan]
            # zip takes each arm from the source only after the previous arm's
            # reducer has run, as the shared draw requires.
            buffers = workspace()
            for m, draw in zip(members, source(batches, buffers)):
                partials[m] = arms[m].reduce(draw, rows, buffers)
        return partials

    runs = _map_batches(one_run, _run_plan(trials, counts[0]), workers)
    totals = []
    for m in range(len(arms)):
        partials = [partial for run in runs for partial in run[m]]
        totals.append({key: _combine(key, [p[key] for p in partials]) for key in partials[0]})
    return totals


def _stats_arm(
    env: Environment, mechanism: MechanismSpec, strategy_mode: str | Mapping[int, float]
) -> Arm:
    """The arm whose totals :func:`_stats` reads."""

    def reduce(draw, batches, workspace) -> list[dict]:
        reps, taxes = draw.reps, draw.taxes
        errors = absolute_errors(reps, env, workspace=workspace)
        mae = errors.sum(axis=1)
        budgets = taxes.sum(axis=1)
        utils = batch_true_utilities(reps, errors, taxes, env, workspace=workspace)
        return [
            {
                "mae": float(mae[rows].sum()),
                "mae_sq": float((mae[rows] * mae[rows]).sum()),
                "reps": reps[rows].sum(axis=0),
                "utils": utils[rows].sum(axis=0),
                "budget": float(budgets[rows].sum()),
                "budget_abs_max": float(np.abs(budgets[rows]).max()),
            }
            for rows in batches
        ]

    return Arm(env, mechanism, reduce, strategy_mode)


def _stats(totals: dict, t: int) -> SimStats:
    """The outcome statistics of a :func:`_stats_arm`'s totals over ``t`` trials."""
    mae_mean = totals["mae"] / t
    if t > 1:
        variance = max(0.0, (totals["mae_sq"] - t * mae_mean * mae_mean) / (t - 1))
        mae_stderr = math.sqrt(variance / t)
    else:
        mae_stderr = 0.0
    return SimStats(
        mae_mean=mae_mean,
        mae_stderr=mae_stderr,
        per_agent_reputation_mean=totals["reps"] / t,
        per_agent_utility_mean=totals["utils"] / t,
        budget_mean=totals["budget"] / t,
        budget_max_abs=totals["budget_abs_max"],
        trials=t,
    )


def run_trials(config: ScenarioConfig, workers: int = 1) -> SimStats:
    """Simulate the configured scenario and aggregate outcome statistics."""
    arm = _stats_arm(config.env, config.mechanism, config.strategy_mode)
    (totals,) = simulate([arm], config.trials, config.seed, workers)
    return _stats(totals, config.trials)


# ---------------------------------------------------------------------------
# Populations and parameter sweeps
# ---------------------------------------------------------------------------


def _with_agents(
    env: Environment, ids: Container[int], make: Callable[[Agent], Agent]
) -> Environment:
    """``env`` with each agent whose id is in ``ids`` replaced by ``make(agent)``:
    every sweep point and scenario arm is a population built this way."""
    return dataclasses.replace(
        env, agents=tuple(make(agent) if agent.id in ids else agent for agent in env.agents)
    )


def _sweep_arm(config: ScenarioConfig, parameter: str, value: float) -> Arm:
    """The stats arm of ``config`` at one grid point.

    ``pr_a`` sets the band multiplier; ``sigma`` gives every observation
    channel std ``value``; ``rho`` makes the last round(rho*(K-1)) agents
    image-driven (truth weight 0) and everyone else truth-driven.  The
    point's self-reports are resolved here, so a point without them fails
    before anything is drawn.
    """
    env, mechanism = config.env, config.mechanism
    if parameter == "pr_a":
        mechanism = dataclasses.replace(mechanism, a=value)
    elif parameter == "sigma":
        env = _with_agents(
            dataclasses.replace(env, system_obs=NormalParams(env.system_obs.mean, value)),
            range(env.k),
            lambda agent: dataclasses.replace(
                agent, cross_obs=NormalParams(agent.cross_obs.mean, value)
            ),
        )
    else:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {value}")
        truth = env.k - round(value * (env.k - 1))
        env = _with_agents(env, range(env.k), lambda agent: _driven(agent, agent.id < truth))
    return _stats_arm(env, mechanism, resolve_self_reports(env, mechanism, config.strategy_mode))


def sweep(config: ScenarioConfig, parameter: str, grid, workers: int = 1) -> list[dict]:
    """Run the scenario across a parameter grid, one stats row per point.

    ``parameter`` is one of ``pr_a`` (punish-reward band multiplier),
    ``sigma`` (homogeneous observation noise), or ``rho`` (image-driven
    fraction).  Rows carry the simulated aggregates plus, for ``pr_a``,
    the closed-form columns ``y`` (band offset), ``e_m`` (expected
    mechanism error), and ``expected_reputation`` (published reputation of
    a representative sender at the optimal self-report); ``averaging_mae``
    gives the simple-averaging error for the row's noise level.  A
    :class:`ValueError` opens with the argument it rejects, ``parameter``
    or ``grid``.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(f"parameter {parameter!r} is not one of {SWEEP_PARAMETERS}")
    if parameter == "pr_a" and not isinstance(config.mechanism, (PR, WeightedPR)):
        raise ValueError("parameter pr_a sweeps require a punish-reward mechanism")
    values = [float(v) for v in np.asarray(grid, dtype=float).ravel()]
    if not values:
        raise ValueError("grid must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("grid must be strictly increasing")

    arms = []
    for value in values:
        try:
            arms.append(_sweep_arm(config, parameter, value))
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"grid value {value}: {exc}") from None
    # Every point in one engine call: the points that draw alike share
    # each batch's draw.
    results = simulate(arms, config.trials, config.seed, workers)
    rows = []
    for value, arm, totals in zip(values, arms, results):
        stats = _stats(totals, config.trials)
        sigma_prime = aggregate_sigma_prime(arm.env)
        row = {
            "parameter": parameter,
            "value": value,
            "mae_mean": stats.mae_mean,
            "mae_stderr": stats.mae_stderr,
            "budget_mean": stats.budget_mean,
            "budget_max_abs": stats.budget_max_abs,
            "trials": stats.trials,
            "averaging_mae": math.sqrt(2.0 / math.pi) * sigma_prime,
        }
        if parameter == "pr_a":
            r_bar = float(arm.env.qualities.mean())
            row["y"], row["e_m"], row["expected_reputation"] = _band_curves(
                value, r_bar, sigma_prime
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Collusion scenario
# ---------------------------------------------------------------------------


def run_collusion_scenario(
    env: Environment,
    clique: set[int],
    layers: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Compare ring-validation layer counts against a mutually inflating clique.

    Clique members report 1.0 for each other (self-reports included) while
    outsiders play truthfully; honest baselines replace the clique with
    truth-tellers under the same seed, so every difference is attributable
    to the manipulation.  Rings are redrawn secretly every trial.  The
    record carries both the 1-layer and 2-layer arms regardless of
    ``layers``, which only selects the headline arm.  All four arms go in
    one engine call; the honest and the manipulated arm of a layer count
    differ only in the clique's messages, so they share each batch's draw
    (rings, ring reads and observations).
    """
    if layers not in (1, 2):
        raise ValueError(f"layers must be 1 or 2, got {layers}")
    ids = {agent.id for agent in env.agents}
    clique = set(clique)
    unknown = clique - ids
    if unknown:
        raise ValueError(f"clique names unknown agents {sorted(unknown)}")
    if len(clique) >= env.k - 1:
        raise CliqueTooLarge(
            f"a clique of {len(clique)} in a population of {env.k} leaves "
            "fewer than two honest outsiders to validate against"
        )

    members = np.array(sorted(clique), dtype=int)
    outsiders = np.array(sorted(ids - clique), dtype=int)

    def reducer(arm_env: Environment) -> Reducer:
        def reduce(draw, batches, workspace) -> list[dict]:
            reps, taxes = draw.reps, draw.taxes
            # batch_true_utilities overwrites the errors, so they are read first.
            errors = absolute_errors(reps, arm_env, workspace=workspace)
            mae = errors.sum(axis=1)
            outsider_mae = [float(errors[rows][:, outsiders].sum(axis=1).sum()) for rows in batches]
            budgets = taxes.sum(axis=1)
            utilities = batch_true_utilities(reps, errors, taxes, arm_env, workspace=workspace)
            return [
                {
                    "mae": float(mae[rows].sum()),
                    "outsider_mae": outsider,
                    "clique_utility": float(utilities[rows][:, members].sum()),
                    "clique_tax": float(taxes[rows][:, members].sum()),
                    "budget_abs_max": float(np.abs(budgets[rows]).max()),
                }
                for rows, outsider in zip(batches, outsider_mae)
            ]

        return reduce

    def summary(totals: dict, n_layers: int) -> dict:
        per_member = trials * members.size
        return {
            "layers": n_layers,
            "mae": totals["mae"] / trials,
            "outsider_mae": totals["outsider_mae"] / trials,
            "clique_utility": totals["clique_utility"] / per_member if per_member else None,
            "clique_tax": totals["clique_tax"] / per_member if per_member else None,
            "budget_max_abs": totals["budget_abs_max"],
        }

    # Members already in a clique keep it; the others join a fresh one.
    cliques = [a.agent_type.clique_id for a in env.agents if isinstance(a.agent_type, Colluder)]
    fresh = Colluder(clique_id=max(cliques, default=-1) + 1, inflate=1.0)

    def inflater(agent: Agent) -> Agent:
        colluding = isinstance(agent.agent_type, Colluder)
        return agent if colluding else dataclasses.replace(agent, agent_type=fresh)

    # One group per layer count.  The honest arm goes first, so the
    # manipulated arm, last, writes its messages into the shared draw
    # instead of a copy.
    honest = _with_agents(env, clique, lambda agent: _driven(agent, True))
    envs = (honest, _with_agents(env, clique, inflater))
    arms = [
        Arm(arm_env, _SecretRings(layers=n_layers), reducer(arm_env))
        for n_layers in (1, 2)
        for arm_env in envs
    ]
    one_honest, one, two_honest, two = simulate(arms, trials, seed, workers)
    return {
        "clique": sorted(clique),
        "layers": layers,
        "trials": trials,
        "seed": seed,
        "one_layer": summary(one, 1),
        "one_layer_honest": summary(one_honest, 1),
        "two_layer": summary(two, 2),
        "two_layer_honest": summary(two_honest, 2),
    }


# ---------------------------------------------------------------------------
# Malicious-reporting scenario
# ---------------------------------------------------------------------------


def run_malicious_scenario(
    env: Environment,
    malicious: set[int],
    trials: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Compare uniform-random reporters against image-driven ones.

    The listed slots are occupied by uniform-random reporters in one arm
    and image-driven inflaters in the other (same seed, scoring
    mechanism); the baseline runs the environment as given.  The record
    also carries the malicious agents' mean own validation charge
    (self-report versus the system observation, before redistribution).
    The three arms go in one engine call.  The image-driven and baseline
    arms, whose agents differ only in constant self-reports, share each
    batch's draw unless the baseline's slots hold uniform-random reporters;
    the malicious arm draws uniforms for its slots, so it draws apart.
    """
    ids = {agent.id for agent in env.agents}
    malicious = set(malicious)
    unknown = malicious - ids
    if unknown:
        raise ValueError(f"malicious set names unknown agents {sorted(unknown)}")

    slot_idx = np.array(sorted(malicious), dtype=int)

    def errors(reps, batches, workspace) -> list[float]:
        mae = absolute_errors(reps, env, workspace=workspace).sum(axis=1)
        return [float(mae[rows].sum()) for rows in batches]

    def reduce(draw, batches, workspace) -> list[dict]:
        return [{"mae": mae} for mae in errors(draw.reps, batches, workspace)]

    def reduce_charged(draw, batches, workspace) -> list[dict]:
        selfs, system_obs = draw.selfs, draw.r0
        return [
            {
                "mae": mae,
                "charge": float(
                    ((selfs[rows][:, slot_idx] - system_obs[rows][:, slot_idx]) ** 2).sum()
                ),
            }
            for mae, rows in zip(errors(draw.reps, batches, workspace), batches)
        ]

    def randomizer(agent: Agent) -> Agent:
        drawn = isinstance(agent.agent_type, MaliciousRandom)
        return agent if drawn else dataclasses.replace(agent, agent_type=MaliciousRandom(0.0, 1.0))

    charged = slot_idx.size > 0
    arms = [
        Arm(_with_agents(env, malicious, randomizer), AS(), reduce_charged if charged else reduce),
        Arm(_with_agents(env, malicious, lambda agent: _driven(agent, False)), AS(), reduce),
        Arm(env, AS(), reduce),
    ]
    malicious_arm, image_arm, baseline_arm = simulate(arms, trials, seed, workers)
    return {
        "malicious": sorted(malicious),
        "trials": trials,
        "seed": seed,
        "malicious_mae": malicious_arm["mae"] / trials,
        "image_mae": image_arm["mae"] / trials,
        "baseline_mae": baseline_arm["mae"] / trials,
        "malicious_own_charge": (
            malicious_arm["charge"] / (trials * slot_idx.size) if charged else None
        ),
    }
