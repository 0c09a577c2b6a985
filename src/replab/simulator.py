"""Seeded Monte Carlo engine for configured reporting scenarios.

Every simulated result goes through :func:`simulate`.  Trials are processed
in fixed batches of 1024.  Batch ``b`` draws from
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
That order, and the mechanism's run on the batch, live in one batch source,
``strategies._batch_source``; a deviation audit's draw
(``strategies.draw_profile``) is one batch of it.  Streams 1 to 3 drew some
or all batches as a dense (batch, K, K) cross matrix.

The caller's reducer condenses each batch.  Worker threads may compute
batches in any order; partial results are reduced in batch order with
compensated summation, so results are byte-identical for any worker count.
Each worker thread draws and runs its batches in a workspace of (batch, K)
buffers (``core.Workspace``) that lives as long as the ``simulate`` call,
so after its first batch a worker allocates no batch-sized array.  The
arrays a reducer sees belong to that workspace and are overwritten by the
worker's next batch: a reducer copies anything it keeps, and it may not
write into them.
Strategy constants are resolved once per scenario; only uniform-random
reporters draw fresh messages.

Several arms, each an (environment, reducer) pair, can share every batch's
draw (common random numbers).  Arms may share a draw when they differ only
in what their agents send: constant self-reports (truth, image or mixed
constants) and, except under the peer-sum families, colluders' messages.
Their qualities, noise levels, clamping and uniform-random reporters must
match.  The batch is drawn once, then each arm in turn applies its own
self-reports and colluder messages (``strategies.ring_messages``) and runs
the mechanism, and its reducer runs before the next arm is made.  Every
arm's totals equal, bit for bit, those of the arm simulated alone.  The
collusion scenario compares its manipulated and honest arms this way, and
the malicious scenario its image-driven and baseline arms.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AS,
    Colluder,
    Environment,
    MaliciousRandom,
    MechanismSpec,
    PR,
    WeightedPR,
    Workspace,
    batch_true_utilities,
    centralized_solution,
)
from .numerics import NormalParams
from .mechanisms import PEER_SUMS, cross_reads
from .strategies import (
    UnsupportedCombination,
    _band_curves,
    _batch_rng,
    _batch_source,
    _driven,
    _SecretRings,
    _sent_constants,
    aggregate_sigma_prime,
)

__all__ = [
    "STREAM",
    "CliqueTooLarge",
    "UnsupportedCombination",
    "ScenarioConfig",
    "SimStats",
    "simulate",
    "run_trials",
    "sweep",
    "run_collusion_scenario",
    "run_malicious_scenario",
]

BATCH_TRIALS = 1024

# Version of the draw order documented above; output manifests record it.
STREAM = 4

SWEEP_PARAMETERS = ("pr_a", "sigma", "rho")


class CliqueTooLarge(ValueError):
    """Raised when a clique leaves fewer than two honest outsiders."""


# ---------------------------------------------------------------------------
# Configuration and aggregates
# ---------------------------------------------------------------------------


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
        if isinstance(self.strategy_mode, str):
            if self.strategy_mode != "equilibrium":
                raise ValueError(
                    f"strategy_mode must be 'equilibrium' or a mapping, "
                    f"got {self.strategy_mode!r}"
                )
        else:
            ids = {agent.id for agent in self.env.agents}
            unknown = set(self.strategy_mode) - ids
            if unknown:
                raise ValueError(f"strategy profile names unknown agents {sorted(unknown)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


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


def _batch_plan(trials: int) -> list[tuple[int, int]]:
    """(batch index, batch size) pairs covering ``trials``."""
    plan = []
    done = 0
    index = 0
    while done < trials:
        size = min(BATCH_TRIALS, trials - done)
        plan.append((index, size))
        done += size
        index += 1
    return plan


def _map_batches(worker, plan, workers: int) -> list:
    """Evaluate ``worker(batch_index, size)`` for every planned batch.

    Results are returned in batch order regardless of scheduling, so any
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


Reducer = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], dict]


def _combine(key: str, values: list) -> float | np.ndarray:
    """Reduce one reducer entry over the batches, in batch order."""
    if key.endswith("_max"):
        return max(values)
    if isinstance(values[0], np.ndarray):
        return np.array([math.fsum(column) for column in np.stack(values).T.tolist()])
    return math.fsum(values)


def _random_ranges(env: Environment) -> list[tuple[float, float] | None]:
    """Each uniform-random reporter's range, None for everyone else."""
    kinds = [agent.agent_type for agent in env.agents]
    return [(t.low, t.high) if isinstance(t, MaliciousRandom) else None for t in kinds]


def _same_sent(env: Environment, other: Environment) -> bool:
    """Whether the colluders of both environments send the same constants."""
    sent, other_sent = _sent_constants(env), _sent_constants(other)
    if sent is None or other_sent is None:
        return sent is other_sent
    return np.array_equal(sent, other_sent, equal_nan=True)


def _draw_difference(env: Environment, other: Environment, reads: str) -> str | None:
    """What ``other`` would draw differently from ``env`` under a mechanism
    that reads ``reads`` of the cross reports, or None when they draw alike.

    Constant self-reports and the colluders' ring messages draw nothing.
    Under the peer-sum families a colluder's constants take the place of
    relayed reports inside the drawn sums, so colluders must match there.
    """
    checks = (
        ("their agent counts differ", env.k == other.k),
        ("their qualities differ", np.array_equal(env.qualities, other.qualities)),
        (
            "their noise levels differ",
            env.system_obs == other.system_obs
            and np.array_equal(env.cross_stds, other.cross_stds)
            and np.array_equal(env.cross_biases, other.cross_biases),
        ),
        ("their clamping differs", env.clamp_observations == other.clamp_observations),
        ("their uniform-random reporters differ", _random_ranges(env) == _random_ranges(other)),
        (
            "their colluders differ, and colluders' constants enter the drawn peer sums",
            reads != PEER_SUMS or _same_sent(env, other),
        ),
    )
    return next((name for name, alike in checks if not alike), None)


def simulate(
    env: Environment | Sequence[Environment],
    mechanism: MechanismSpec,
    trials: int,
    seed: int,
    reduce: Reducer | Sequence[Reducer],
    workers: int = 1,
    *,
    strategy_mode: str | Mapping[int, float] = "equilibrium",
) -> dict | list[dict]:
    """Simulate ``trials`` rounds and total what ``reduce`` extracts from them.

    ``reduce(system_obs, self_reports, reputations, taxes)`` sees one batch,
    each array (batch, K), and returns a dict of floats and vectors.  Every
    entry is summed over the batches, vectors per component, in batch order
    with ``math.fsum``; entries whose key ends in ``_max`` take the maximum
    instead.  ``strategy_mode`` is as in :class:`ScenarioConfig`.
    Deterministic for fixed arguments: the per-batch substream split makes
    the worker count irrelevant to the result.

    Several arms can share each batch's draw (common random numbers):
    ``env`` and ``reduce`` are then equal-length sequences, arm m being
    ``(env[m], reduce[m])``, and one dict of totals is returned per arm,
    each equal bit for bit to that arm simulated alone.  Arms may differ
    only in what their agents send, that is their constant self-reports
    and colluders; a :class:`ValueError` names the first difference that
    would make two arms draw differently.

    A reducer's arrays belong to its worker thread's workspace: the later
    arms and the worker's next batch overwrite them.  A reducer must copy
    anything it keeps, and it must not write into them.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    single = isinstance(env, Environment)
    envs = [env] if single else list(env)
    reduces = [reduce] if single else list(reduce)
    if not envs or len(envs) != len(reduces):
        raise ValueError(f"need one reducer per arm, got {len(envs)} arms and {len(reduces)} reducers")
    first = envs[0]
    reads = cross_reads(mechanism)
    for m, arm_env in enumerate(envs[1:], 1):
        difference = _draw_difference(first, arm_env, reads)
        if difference is not None:
            raise ValueError(f"arm {m} would draw differently from arm 0: {difference}")
    source = _batch_source(envs, mechanism, strategy_mode)
    workspace = Workspace.per_thread()

    def one_batch(batch_index: int, size: int) -> list[dict]:
        # zip takes each arm from the source only after the previous arm's
        # reducer has run, as the shared draw requires.
        arms = source(_batch_rng(seed, batch_index), size, workspace())
        return [
            arm_reduce(arm.r0, arm.selfs, arm.reps, arm.taxes)
            for arm_reduce, arm in zip(reduces, arms)
        ]

    partials = _map_batches(one_batch, _batch_plan(trials), workers)
    totals = [
        {key: _combine(key, [p[m][key] for p in partials]) for key in partials[0][m]}
        for m in range(len(envs))
    ]
    return totals[0] if single else totals


def run_trials(config: ScenarioConfig, workers: int = 1) -> SimStats:
    """Simulate the configured scenario and aggregate outcome statistics."""
    env = config.env
    targets = centralized_solution(env)
    # The reducer's temporaries, one workspace per worker thread.
    scratch = Workspace.per_thread()

    def reduce(system_obs, selfs, reps, taxes) -> dict:
        workspace = scratch()
        errors = np.subtract(reps, targets[None, :], out=workspace.out("errors", reps.shape))
        mae = np.abs(errors, out=errors).sum(axis=1)
        budgets = taxes.sum(axis=1)
        return {
            "mae": float(mae.sum()),
            "mae_sq": float((mae * mae).sum()),
            "reps": reps.sum(axis=0),
            "utils": batch_true_utilities(reps, taxes, env, workspace=workspace).sum(axis=0),
            "budget": float(budgets.sum()),
            "budget_abs_max": float(np.abs(budgets).max()),
        }

    totals = simulate(
        env,
        config.mechanism,
        config.trials,
        config.seed,
        reduce,
        workers,
        strategy_mode=config.strategy_mode,
    )
    t = config.trials
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


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _with_pr_a(config: ScenarioConfig, a: float) -> ScenarioConfig:
    if not isinstance(config.mechanism, (PR, WeightedPR)):
        raise ValueError("pr_a sweeps require a punish-reward mechanism")
    return dataclasses.replace(
        config, mechanism=dataclasses.replace(config.mechanism, a=a)
    )


def _with_sigma(config: ScenarioConfig, sigma: float) -> ScenarioConfig:
    """Homogeneous observation-noise level: every channel gets std sigma."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    env = config.env
    agents = tuple(
        dataclasses.replace(agent, cross_obs=NormalParams(agent.cross_obs.mean, sigma))
        for agent in env.agents
    )
    new_env = dataclasses.replace(
        env,
        agents=agents,
        system_obs=NormalParams(env.system_obs.mean, sigma),
    )
    return dataclasses.replace(config, env=new_env)


def _with_rho(config: ScenarioConfig, rho: float) -> ScenarioConfig:
    """Image-driven fraction: the last round(rho*(K-1)) agents become
    image-driven (truth weight 0), everyone else truth-driven."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    env = config.env
    n_image = round(rho * (env.k - 1))
    agents = [_driven(agent, i < env.k - n_image) for i, agent in enumerate(env.agents)]
    return dataclasses.replace(
        config, env=dataclasses.replace(env, agents=tuple(agents))
    )


def sweep(config: ScenarioConfig, parameter: str, grid, workers: int = 1) -> list[dict]:
    """Run the scenario across a parameter grid, one stats row per point.

    ``parameter`` is one of ``pr_a`` (punish-reward band multiplier),
    ``sigma`` (homogeneous observation noise), or ``rho`` (image-driven
    fraction).  Rows carry the simulated aggregates plus, for ``pr_a``,
    the closed-form columns ``y`` (band offset), ``e_m`` (expected
    mechanism error), and ``expected_reputation`` (published reputation of
    a representative sender at the optimal self-report); ``averaging_mae``
    gives the simple-averaging error for the row's noise level.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected one of {SWEEP_PARAMETERS}"
        )
    values = [float(v) for v in np.asarray(grid, dtype=float).ravel()]
    if not values:
        raise ValueError("sweep grid must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid must be strictly increasing")

    rows = []
    for value in values:
        if parameter == "pr_a":
            point = _with_pr_a(config, value)
        elif parameter == "sigma":
            point = _with_sigma(config, value)
        else:
            point = _with_rho(config, value)
        stats = run_trials(point, workers=workers)
        sigma_prime = aggregate_sigma_prime(point.env)
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
            r_bar = float(point.env.qualities.mean())
            row["y"], row["e_m"], row["expected_reputation"] = _band_curves(
                value, r_bar, sigma_prime
            )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Collusion scenario
# ---------------------------------------------------------------------------


def _retype_clique(env: Environment, clique: set[int], honest: bool) -> Environment:
    """Clique members become mutual inflaters (or truth-tellers when honest)."""
    fresh_id = (
        max(
            (
                agent.agent_type.clique_id
                for agent in env.agents
                if isinstance(agent.agent_type, Colluder)
            ),
            default=-1,
        )
        + 1
    )
    agents = []
    for agent in env.agents:
        if agent.id in clique:
            if honest:
                agents.append(_driven(agent, True))
            elif isinstance(agent.agent_type, Colluder):
                agents.append(agent)
            else:
                agents.append(
                    dataclasses.replace(
                        agent, agent_type=Colluder(clique_id=fresh_id, inflate=1.0)
                    )
                )
        else:
            agents.append(agent)
    return dataclasses.replace(env, agents=tuple(agents))


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
    ``layers``, which only selects the headline arm.  The honest and the
    manipulated arm of a layer count differ only in the clique's messages,
    so they share one engine call and each batch's draw (rings, ring reads
    and observations).
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

    targets = centralized_solution(env)
    members = np.array([i for i, a in enumerate(env.agents) if a.id in clique], dtype=int)
    outsiders = np.array(
        [i for i, a in enumerate(env.agents) if a.id not in clique], dtype=int
    )
    def reducer(arm_env: Environment) -> Reducer:
        def reduce(system_obs, selfs, reps, taxes) -> dict:
            mae = np.abs(reps - targets[None, :]).sum(axis=1)
            outsider_mae = np.abs(reps[:, outsiders] - targets[None, outsiders]).sum(axis=1)
            utilities = batch_true_utilities(reps, taxes, arm_env)
            return {
                "mae": float(mae.sum()),
                "outsider_mae": float(outsider_mae.sum()),
                "clique_utility": float(utilities[:, members].sum()),
                "clique_tax": float(taxes[:, members].sum()),
                "budget_abs_max": float(np.abs(taxes.sum(axis=1)).max()),
            }

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

    # The honest arm goes first, so the manipulated arm, last, writes its
    # messages into the shared draw instead of a copy.
    arms = (_retype_clique(env, clique, honest=True), _retype_clique(env, clique, honest=False))
    reducers = [reducer(arm_env) for arm_env in arms]
    record = {
        "clique": sorted(clique),
        "layers": layers,
        "trials": trials,
        "seed": seed,
    }
    for n_layers, key in ((1, "one_layer"), (2, "two_layer")):
        honest, manipulated = simulate(
            arms, _SecretRings(layers=n_layers), trials, seed, reducers, workers
        )
        record[key] = summary(manipulated, n_layers)
        record[key + "_honest"] = summary(honest, n_layers)
    return record


# ---------------------------------------------------------------------------
# Malicious-reporting scenario
# ---------------------------------------------------------------------------


def _retype_slots(env: Environment, slots: set[int], kind: str) -> Environment:
    agents = []
    for agent in env.agents:
        if agent.id not in slots:
            agents.append(agent)
        elif kind == "malicious":
            if isinstance(agent.agent_type, MaliciousRandom):
                agents.append(agent)
            else:
                agents.append(
                    dataclasses.replace(agent, agent_type=MaliciousRandom(0.0, 1.0))
                )
        else:
            agents.append(_driven(agent, False))
    return dataclasses.replace(env, agents=tuple(agents))


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
    Arms that draw alike share one engine call and each batch's draw: the
    image-driven and baseline arms, whose agents differ only in constant
    self-reports, unless the slots already hold uniform-random reporters.
    The malicious arm draws uniforms for its slots, so it runs alone.
    """
    ids = {agent.id for agent in env.agents}
    malicious = set(malicious)
    unknown = malicious - ids
    if unknown:
        raise ValueError(f"malicious set names unknown agents {sorted(unknown)}")

    targets = centralized_solution(env)
    slot_idx = np.array(
        [i for i, agent in enumerate(env.agents) if agent.id in malicious], dtype=int
    )

    def reduce(system_obs, selfs, reps, taxes) -> dict:
        return {"mae": float(np.abs(reps - targets[None, :]).sum(axis=1).sum())}

    def reduce_charged(system_obs, selfs, reps, taxes) -> dict:
        gaps = selfs[:, slot_idx] - system_obs[:, slot_idx]
        return {**reduce(system_obs, selfs, reps, taxes), "charge": float((gaps**2).sum())}

    charged = slot_idx.size > 0
    mechanism = AS()
    envs = (
        _retype_slots(env, malicious, "malicious"),
        _retype_slots(env, malicious, "image"),
        env,
    )
    reducers = (reduce_charged if charged else reduce, reduce, reduce)
    calls: list[list[int]] = []
    for m, arm_env in enumerate(envs):
        for call in calls:
            if _draw_difference(envs[call[0]], arm_env, cross_reads(mechanism)) is None:
                call.append(m)
                break
        else:
            calls.append([m])
    totals = {}
    for call in calls:
        results = simulate(
            [envs[m] for m in call], mechanism, trials, seed, [reducers[m] for m in call], workers
        )
        totals.update(zip(call, results))
    malicious_arm, image_arm, baseline_arm = totals[0], totals[1], totals[2]
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
