"""Seeded Monte Carlo engine for configured reporting scenarios.

Every simulated result goes through :func:`simulate`.  Trials are drawn in
fixed batches of 1024.  Batch ``b`` draws from
``Generator(SFC64(SeedSequence(entropy=seed, spawn_key=(b,))))`` in one
fixed order, draw stream :data:`STREAM` = 5, taking only what its mechanism
reads (``mechanisms.cross_reads``), so a batch holds O(batch * K) numbers.
It draws the system observations, then the uniform self-reports of random
senders (:func:`sample_sparse`); the other self-reports are the
resolved constants.  Scoring, share-of-total and direct observation draw
nothing more.  The peer-sum families draw each subject's peer sum
(:func:`sample_peer_sums`).  Ring validation draws the collusion
scenario's secret rings, one permutation per layer, then the at most 3
reports per subject the rings read (:func:`sample_ring_reads`).
That order, the mechanism's run and each arm's reducer live in one batch
source, :func:`_batch_source`; a deviation audit
(``analysis.deviation_reports``) is two engine calls of it.  Streams 1
to 3 drew some or all batches as a dense (batch, K, K) cross matrix.
Stream 4 made the same draws, in the same order and counts, from Philox
substreams of the same keys; SFC64 makes them faster.

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

The caller's reducer takes the run's draw (:class:`ProfileDraw`)
and the row slice of each of its batches and returns one partial per
batch, computed on that batch's rows.  Partials are reduced in batch
order, sums with compensated summation, so results are byte-identical for
any worker count and any run length.  Each worker thread draws and runs its
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
(:func:`_draw_key`).  Each group draws every batch once from
``_batch_rng(seed, b)``, then each arm in turn applies its own
self-reports and colluder messages (:func:`ring_messages`) and runs
its own mechanism, and its reducer runs before the next arm is made
(common random numbers).  Every arm's totals equal, bit for bit, those of
the arm simulated alone.  A sweep's grid points and each scenario's arms
go in one call.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Container, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    AS,
    Agent,
    Colluder,
    Environment,
    ExtendedAS,
    Image,
    MaliciousRandom,
    MechanismSpec,
    PR,
    Truth,
    WeightedPR,
    Workspace,
    absolute_errors,
    batch_true_utilities,
)
from .mechanisms import (
    NO_CROSS,
    PEER_SUMS,
    RING,
    TooFewAgents,
    _ring_outcome,
    _ring_setup,
    _spec_rings,
    _take,
    cross_reads,
    peer_weights,
    run_batch,
)
from .numerics import NormalParams
from .strategies import (
    UnsupportedCombination,
    _band_curves,
    _check_profile,
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
    "ProfileDraw",
    "simulate",
    "run_trials",
    "sweep",
    "sample_sparse",
    "sample_peer_sums",
    "sample_ring_reads",
    "ring_messages",
    "run_collusion_scenario",
    "run_malicious_scenario",
]

BATCH_TRIALS = 1024

# Trial-K cells one run of batches holds at most; a run never holds less
# than one batch, so from K = 17 up a run is one batch.  Chosen by
# measurement, see the module docstring.
RUN_CELLS = 2**15

# Version of the draw documented above; output manifests record it.
STREAM = 5

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


def _check_counts(trials, seed, workers=1) -> None:
    """Reject a trial count, seed or worker count that is not a plain integer
    in range; each message opens with the argument's name."""
    for name, value, valid, bounds in (
        ("trials", trials, lambda v: v >= 1, ">= 1"),
        ("seed", seed, lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
        ("workers", workers, lambda v: v >= 1, ">= 1"),
    ):
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not integer or not valid(value):
            raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The SFC64 substream ``(seed, spawn_key=(batch_index,))`` of one batch:
    draw stream 5's bit generator."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    )


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
# The draw of one run
# ---------------------------------------------------------------------------


# The batches of one run: each batch's generator and its rows of the run's
# arrays, in batch order.  Each batch draws from its own generator in the
# order of draw stream 5; the arithmetic that follows the draws runs once
# over the whole run.
Batches = Sequence[tuple["np.random.Generator", slice]]


def sample_sparse(
    env: Environment,
    batches: Batches,
    self_reports: Mapping[int, float],
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """System observations and self-reports (trials, K) without cross reports.

    Each batch draws its system observations (clamped to [0, 1] when the
    environment clamps), then, in agent order, the uniform self-reports of
    the agents ``self_reports`` does not list.  When it lists every agent,
    the self-reports are a read-only view of one row, so a run of constants
    allocates nothing.  A mechanism that reads cross reports draws them
    afterwards, as peer sums (:func:`sample_peer_sums`) or as ring reads
    (:func:`sample_ring_reads`).  The drawn arrays and the constant row are
    ``workspace`` buffers.
    """
    shape = (batches[-1][1].stop, env.k)
    workspace = workspace or Workspace()
    r0 = workspace.empty("system observations", shape)
    for rng, rows in batches:
        rng.standard_normal(out=r0[rows])
    r0 *= env.system_obs.std
    r0 += env.qualities[None, :] + env.system_obs.mean
    if env.clamp_observations:
        np.clip(r0, 0.0, 1.0, out=r0)
    row = workspace.empty("constant self-reports", (1, env.k))
    row[0] = [self_reports.get(i, np.nan) for i in range(env.k)]
    if len(self_reports) == env.k:
        return r0, np.broadcast_to(row, shape)
    selfs = workspace.copy("self-reports", np.broadcast_to(row, shape))
    for rng, rows in batches:
        for i, agent in enumerate(env.agents):
            if i not in self_reports:
                kind = agent.agent_type
                selfs[rows, i] = rng.uniform(kind.low, kind.high, size=rows.stop - rows.start)
    return r0, selfs


def _sent_constants(env: Environment) -> np.ndarray | None:
    """(K, K) table of the constant each colluder sends about each subject:
    ``inflate`` about a clique-mate, ``bash`` (when set) about an outsider,
    NaN where the reporter relays its observation.  None without colluders."""
    kinds = [agent.agent_type for agent in env.agents]
    colluder = np.array([isinstance(t, Colluder) for t in kinds])
    if not colluder.any():
        return None
    clique = np.array([t.clique_id if isinstance(t, Colluder) else 0 for t in kinds])
    inflate = np.array([t.inflate if isinstance(t, Colluder) else np.nan for t in kinds])
    bash = np.array(
        [t.bash if isinstance(t, Colluder) and t.bash is not None else np.nan for t in kinds]
    )
    table = np.full((env.k, env.k), np.nan)
    table[colluder] = bash[colluder, None]
    mates = np.outer(colluder, colluder) & (clique[:, None] == clique[None, :])
    table[mates] = np.broadcast_to(inflate[:, None], table.shape)[mates]
    return table


@dataclass(frozen=True)
class _PeerSumTables:
    """What :func:`sample_peer_sums` draws with, resolved once per scenario.

    ``normal`` is each subject's (mean, std) of the relayed sum when the
    environment does not clamp; ``relayers`` holds, when it clamps, each
    relaying reporter's noise scale, its (K,) centres and its (K,) weights
    over the subjects it relays.  ``constants`` is the colluders' weighted
    constants per subject, and ``randoms`` the uniform-random reporters.
    """

    weights: np.ndarray
    normal: tuple[np.ndarray, np.ndarray] | None
    relayers: tuple[tuple[float, np.ndarray, np.ndarray], ...]
    constants: np.ndarray | None
    randoms: tuple[int, ...]


def _peer_sum_tables(env: Environment, weights: np.ndarray) -> _PeerSumTables:
    """Resolve the reporter mix of :func:`sample_peer_sums` for ``env``."""
    k = env.k
    stds, biases, qualities = env.cross_stds, env.cross_biases, env.qualities
    sent = _sent_constants(env)
    random_ = np.array([isinstance(agent.agent_type, MaliciousRandom) for agent in env.agents])
    # relays[j, i]: reporter j sends its own observation of subject i.
    relays = ~np.eye(k, dtype=bool) & ~random_[:, None]
    if sent is not None:
        relays &= np.isnan(sent)
    normal, relayers = None, ()
    if env.clamp_observations:
        relayers = tuple(
            (stds[j], qualities + biases[j], weights[j] * relays[j])
            for j in np.flatnonzero(relays.any(axis=1))
        )
    else:
        # Totals over every reporter but the subject, less the pairs that do
        # not relay: when all relay, this is exactly the all-relay arithmetic.
        lost = ~(relays | np.eye(k, dtype=bool))
        senders = lost.any(axis=1)
        w_var = weights * weights * stds**2
        w_bias = weights * biases
        w_lost, b_lost, v_lost = np.stack([weights, w_bias, w_var])[:, senders] @ lost[senders]
        mean = qualities * (weights.sum() - weights - w_lost) + (weights @ biases - w_bias - b_lost)
        std = np.sqrt(np.maximum(w_var.sum() - w_var - v_lost, 0.0))
        normal = (mean[None, :], std[None, :])
    constants = None
    if sent is not None:
        constants = np.nan_to_num(sent, nan=0.0)
        np.fill_diagonal(constants, 0.0)
        constants = weights @ constants
    return _PeerSumTables(weights, normal, relayers, constants, tuple(np.flatnonzero(random_)))


def sample_peer_sums(
    env: Environment,
    batches: Batches,
    tables: _PeerSumTables,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Draw each subject's weighted peer-report sum ``sum_{j != i} w_j R_ji``.

    Returns (trials, K).  ``tables`` is :func:`_peer_sum_tables` of ``env``
    and the weights.  The reports relayed by the pairs (j, i) in which j
    sends its own observation of i come first: unclamped, they sum to one
    Normal per entry, with mean ``sum w_j (r_i + b_j)`` and variance ``sum
    w_j^2 sigma_j^2`` over those pairs only; clamped, each relaying reporter
    draws one (trials, K) block, clipped and weighted, in agent order.  The
    colluders' constants (:func:`_sent_constants`) are added exactly, then
    each uniform-random reporter, in agent order, draws one uniform per
    entry.  Each batch of ``batches`` draws its rows of every block in that
    order.  No (trials, K, K) array is made, and every reporter's (trials,
    K) block is drawn into one ``workspace`` buffer.
    """
    shape = (batches[-1][1].stop, env.k)
    workspace = workspace or Workspace()
    if tables.normal is None:
        sums = workspace.zeros("peer sums", shape, writable=True)
        for std, centre, weight in tables.relayers:
            block = workspace.empty("reporter block", shape)
            for rng, rows in batches:
                rng.standard_normal(out=block[rows])
            block *= std
            block += centre
            np.clip(block, 0.0, 1.0, out=block)
            block *= weight
            sums += block
    else:
        mean, std = tables.normal
        sums = workspace.empty("peer sums", shape)
        for rng, rows in batches:
            rng.standard_normal(out=sums[rows])
        sums *= std
        sums += mean
    if tables.constants is not None:
        sums += tables.constants
    for j in tables.randoms:
        kind = env.agents[j].agent_type
        # low + (high - low) u, as Generator.uniform computes it.
        noise = workspace.empty("reporter block", shape)
        for rng, rows in batches:
            rng.random(out=noise[rows])
        noise *= kind.high - kind.low
        noise += kind.low
        noise *= tables.weights[j]
        noise[:, j] = 0.0
        sums += noise
    return sums


def sample_ring_reads(
    env: Environment,
    batches: Batches,
    readers: list[np.ndarray],
    workspace: Workspace | None = None,
) -> list[np.ndarray]:
    """Draw only the cross reports a validation ring reads.

    ``readers[m][., i]`` is the reporter of read m about subject i, as a
    (K,) map shared by all trials or a (trials, K) one.  Returns one
    (trials, K) array per map.  An entry whose reporter map 0 names is the
    same report and is drawn once; the maps of :func:`_ring_setup` repeat
    no other.  Each batch of ``batches`` draws its entries, one N(0, 1)
    each, map by map in (trial, subject) order; they are scaled and shifted
    by the reporter's noise and bias around the subject's quality and
    clamped when the environment clamps.  Then a uniform-random reporter
    sends one uniform draw per entry drawn, again batch by batch and map by
    map.  Colluders' entries hold their observations: their messages
    (:func:`ring_messages`) draw nothing, so arms that differ only in them
    can share one draw.  The reads, the masks and the reader gathers are
    ``workspace`` buffers.
    """
    shape = (batches[-1][1].stop, env.k)
    workspace = workspace or Workspace()
    stds, biases, qualities = env.cross_stds, env.cross_biases, env.qualities
    kinds = [agent.agent_type for agent in env.agents]
    random_ = np.array([isinstance(t, MaliciousRandom) for t in kinds])
    # fresh[m]: where map m names another reporter than map 0.  Only map 0's
    # can repeat: pred2(pred2(i)) = pred2(i) would make i a ring's fixed
    # point.
    fresh = [None]
    for m, reader in enumerate(readers[1:], 1):
        new = workspace.empty(f"fresh reads {m}", reader.shape, bool)
        fresh.append(np.not_equal(reader, readers[0], out=new))
    reads = []
    for m, (reader, new) in enumerate(zip(readers, fresh)):
        if new is None:
            values = workspace.empty(f"ring read {m}", shape)
            for rng, rows in batches:
                rng.standard_normal(out=values[rows])
        else:
            values = workspace.zeros(f"ring read {m}", shape, writable=True)
            drawn = np.broadcast_to(new, shape)
            for rng, rows in batches:
                where = drawn[rows]
                values[rows][where] = rng.standard_normal(int(np.count_nonzero(where)))
        # The int32 maps as the index arrays np.take would otherwise copy.
        index = workspace.empty("indices", reader.shape, np.intp)
        np.copyto(index, reader)
        values *= _take(stds, index, workspace.empty("scratch 1", index.shape))
        shift = _take(biases, index, workspace.empty("scratch 1", index.shape))
        shift += qualities
        values += shift
        if env.clamp_observations:
            np.clip(values, 0.0, 1.0, out=values)
        reads.append(values)
    if random_.any():
        low = np.array([t.low if isinstance(t, MaliciousRandom) else 0.0 for t in kinds])
        high = np.array([t.high if isinstance(t, MaliciousRandom) else 0.0 for t in kinds])
        for reader, new, values in zip(readers, fresh, reads):
            hit = random_[reader]
            if new is not None:
                hit = hit & new
            hit, reporters = np.broadcast_to(hit, shape), np.broadcast_to(reader, shape)
            for rng, rows in batches:
                where = hit[rows]
                who = reporters[rows][where]
                values[rows][where] = rng.uniform(low[who], high[who])
    for values, new in zip(reads[1:], fresh[1:]):
        np.copyto(values, reads[0], where=np.logical_not(new, out=new))
    return reads


def ring_messages(
    reads: list[np.ndarray],
    readers: list[np.ndarray],
    sent: np.ndarray | None,
    in_place: bool,
    workspace: Workspace | None = None,
) -> list[np.ndarray]:
    """The ring reads of :func:`sample_ring_reads` as the colluders send them.

    ``sent`` is the colluders' table (:func:`_sent_constants`), or None when
    nobody colludes: a colluder sends ``inflate`` about a clique-mate and
    ``bash`` (when set) about an outsider.  Writes into ``reads`` when
    ``in_place``, and otherwise into ``workspace`` copies, leaving the draw
    for other arms.
    """
    if sent is None:
        return reads
    workspace = workspace or Workspace()
    k = sent.shape[0]
    sent_reads = []
    for m, (reader, values) in enumerate(zip(readers, reads)):
        # sent[reader, subject], read at its flat position in the table.
        index = workspace.empty("indices", reader.shape, np.intp)
        np.multiply(reader, k, out=index, dtype=np.intp)
        index += np.arange(k)
        message = _take(sent.ravel(), index, workspace.empty("scratch 1", reader.shape))
        sends = np.isnan(message, out=workspace.empty("sends", reader.shape, bool))
        np.logical_not(sends, out=sends)
        if not in_place:
            values = workspace.copy(f"sent read {m}", values)
        np.copyto(values, message, where=sends)
        sent_reads.append(values)
    return sent_reads


@dataclass(frozen=True)
class ProfileDraw:
    """One run of sampled rounds and the mechanism's outcome on them.

    ``r0`` holds the system priors and ``selfs`` the self-reports, both
    (trials, K).  The cross reports are held as the mechanism reads them:
    ``peer_sums``, (trials, K), for the peer-sum families, or
    ``ring_reads``, the (trials, K) ring reads, for ring validation.
    ``reps`` and ``taxes`` are the mechanism's (trials, K) outcome.  The
    engine hands one to an arm's reducer per run, which returns a partial
    per batch; a deviation audit's reducers read it at every grid point.
    """

    r0: np.ndarray
    selfs: np.ndarray
    reps: np.ndarray
    taxes: np.ndarray
    peer_sums: np.ndarray | None = None
    ring_reads: tuple[np.ndarray, ...] | None = None


class _SecretRings(ExtendedAS):
    """Ring validation whose rings are redrawn secretly on every trial."""


def _with_row(selfs: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The batch's self-reports with an arm's constants ``row`` (NaN where
    the reports are drawn) in place of the previous arm's."""
    if not np.isnan(row).any():
        return np.broadcast_to(row, selfs.shape)
    np.copyto(selfs, row, where=~np.isnan(row))
    return selfs


def _draw_key(env: Environment, mechanism: MechanismSpec, reports: Mapping[int, float]) -> tuple:
    """What fixes an arm's draw: arms with equal keys draw every batch alike,
    bit for bit, so one :func:`_batch_source` can serve them all.

    The key holds K, what the mechanism reads (``cross_reads``), the
    qualities, the noise, the clamping and the agents whose self-reports
    are drawn, those the resolved ``reports`` leave out: a profile that
    fixes a uniform-random reporter's report draws no uniforms for it.
    Under the peer-sum families it adds the uniform-random senders of
    cross reports, the reporter weights and the colluders' constants,
    which enter the drawn sums; under ring validation the random senders
    and the mechanism itself, whose rings pick the reads.
    """
    k = env.k
    reads = cross_reads(mechanism)
    kinds = [agent.agent_type for agent in env.agents]
    key = (
        k,
        reads,
        env.qualities.tobytes(),
        env.system_obs,
        env.cross_stds.tobytes(),
        env.cross_biases.tobytes(),
        env.clamp_observations,
        tuple((i, kinds[i].low, kinds[i].high) for i in range(k) if i not in reports),
    )
    if reads == NO_CROSS:
        return key
    senders = tuple((t.low, t.high) if isinstance(t, MaliciousRandom) else None for t in kinds)
    if reads == PEER_SUMS:
        sent = _sent_constants(env)
        table = None if sent is None else sent.tobytes()
        return key + (senders, peer_weights(mechanism, k).tobytes(), table)
    return key + (senders, mechanism)


def _batch_source(
    arms: Sequence[tuple[Arm, Mapping[int, float]]],
) -> Callable[[Batches, Workspace], list]:
    """Each arm's partials on one shared draw of a run of batches.

    Each arm comes with its constant self-reports
    (:func:`replab.strategies.resolve_self_reports`); the arms must have one
    :func:`_draw_key`.  Resolves what the first arm's mechanism reads once.
    The returned ``run(batches, workspace)`` draws a run of batches
    (:data:`Batches`), each batch from its own generator in the order of
    draw stream 5: the system observations and uniform self-reports
    (:func:`sample_sparse`), then the peer sums (:func:`sample_peer_sums`),
    or the secret rings of :class:`_SecretRings` and the ring reads
    (:func:`sample_ring_reads`).  The observations and peer sums are
    read-only.  Then, arm by arm, it applies the arm's constants in place of
    the previous arm's (:func:`_with_row`) and its colluders' ring messages
    (:func:`ring_messages`), runs the arm's own mechanism once over the run
    and hands the :class:`ProfileDraw` to the arm's reducer, so punish-reward
    arms of different band multipliers share one draw.  It returns each
    arm's partials, in arm order.  The draw's arrays are ``workspace``
    buffers, which the next arm and the workspace's next run overwrite, or
    read-only views of them: under scoring and ring validation the
    reputations are the self-reports.
    """
    first, first_reports = arms[0]
    env, first_mechanism = first.env, first.mechanism
    k = env.k
    reads = cross_reads(first_mechanism)
    sigma_prime = aggregate_sigma_prime(env)
    constants = [np.array([r.get(i, np.nan) for i in range(k)]) for _, r in arms]
    tables = sent = ring = None
    if reads == PEER_SUMS:
        tables = _peer_sum_tables(env, peer_weights(first_mechanism, k))
    elif reads == RING:
        if k < 3:
            raise TooFewAgents(f"ring validation needs at least 3 agents, got {k}")
        sent = [_sent_constants(arm.env) for arm, _ in arms]
        if not isinstance(first_mechanism, _SecretRings):
            ring = _ring_setup(k, _spec_rings(first_mechanism, k), Workspace())
    last = len(arms) - 1

    def secret_rings(batches: Batches, workspace: Workspace) -> Iterator[np.ndarray]:
        # Layer by layer into the index scratch, each batch drawing both
        # layers in turn.  F-ordered, so the maps' column slices are
        # contiguous.
        order = workspace.empty("indices", (batches[-1][1].stop, k), np.intp, "F")
        base = np.broadcast_to(np.arange(k), order.shape)
        for _ in range(first_mechanism.layers):
            for rng, rows in batches:
                rng.permuted(base[rows], axis=1, out=order[rows])
            yield order

    def run(batches: Batches, workspace: Workspace) -> list:
        r0, selfs = sample_sparse(env, batches, first_reports, workspace)
        # A workspace hands out a new view per run, so the buffer itself
        # stays writable for the next run's draw.
        r0.setflags(write=False)
        if reads == RING:
            maps, readers = ring or _ring_setup(k, secret_rings(batches, workspace), workspace)
            drawn = sample_ring_reads(env, batches, readers, workspace)
        sums = None
        if tables is not None:
            sums = sample_peer_sums(env, batches, tables, workspace)
            sums.setflags(write=False)
        rows = [batch_rows for _, batch_rows in batches]
        ring_reads = None
        partials = []
        for m, (arm, _) in enumerate(arms):
            if m:
                selfs = _with_row(selfs, constants[m])
            if reads == RING:
                ring_reads = tuple(
                    ring_messages(drawn, readers, sent[m], m == last, workspace)
                )
                reps, taxes = _ring_outcome(selfs, ring_reads, maps, workspace)
            else:
                reps, taxes = run_batch(
                    arm.mechanism, selfs, None, r0, sigma_prime, peer_sums=sums, workspace=workspace
                )
            draw = ProfileDraw(r0, selfs, reps, taxes, sums, ring_reads)
            partials.append(arm.reduce(draw, rows, workspace))
        return partials

    return run


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


# reduce(draw, batches, workspace) -> one dict per batch.
Reducer = Callable[[ProfileDraw, Sequence[slice], Workspace], Sequence[dict]]


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of one batch's
    values, centred on its first value, so that a batch of equal values
    gives exactly that value and 0.0."""
    shifted = values - values[0]
    offset = shifted.sum() / values.size
    return values.size, float(values[0] + offset), float(((shifted - offset) ** 2).sum())


def _join_moments(a: tuple, b: tuple) -> tuple[int, float, float]:
    """The :func:`_moments` of two samples together, by the pairwise update
    of Chan, Golub and LeVeque: no difference of large sums cancels."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _combine(key: str, values: list) -> float | np.ndarray | tuple:
    """Reduce one reducer entry over the batches, in batch order."""
    if key.endswith("_max"):
        return max(values)
    if key.endswith("_moments"):
        joined = values[0]
        for batch in values[1:]:
            joined = _join_moments(joined, batch)
        return joined
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
    of the :class:`ProfileDraw` ``draw`` is (run trials,
    K), and ``batches`` holds the row slice of each batch of the run, in
    order.  It returns one dict of floats and
    vectors per batch, computed on that batch's rows.  Every entry is summed
    over the batches, vectors per component, in batch order with
    ``math.fsum``; entries whose key ends in ``_max`` take the maximum
    instead, and entries whose key ends in ``_moments``, each a batch's
    :func:`_moments`, are joined in batch order (:func:`_join_moments`).
    Deterministic for fixed arguments: the per-batch substreams and
    partials make the worker count and the run length irrelevant to the
    result.  ``trials``, ``seed`` and ``workers`` must be integers, as
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
    reports = [resolve_self_reports(arm.env, arm.mechanism, arm.strategy_mode) for arm in arms]
    groups: dict[tuple, list[int]] = {}
    for m, arm in enumerate(arms):
        groups.setdefault(_draw_key(arm.env, arm.mechanism, reports[m]), []).append(m)
    sources = [
        (members, _batch_source([(arms[m], reports[m]) for m in members]))
        for members in groups.values()
    ]
    # One workspace per worker thread, freed with this call.
    local = threading.local()

    def one_run(first_batch: int, size: int) -> list[list[dict]]:
        if not hasattr(local, "workspace"):
            local.workspace = Workspace()
        plan = _run_batches(first_batch, size)
        partials: list = [None] * len(arms)
        for members, run in sources:
            batches = [(_batch_rng(seed, b), rows) for b, rows in plan]
            for m, partial in zip(members, run(batches, local.workspace)):
                partials[m] = partial
        return partials

    runs = _map_batches(one_run, _run_plan(trials, counts[0]), workers)
    totals = []
    for m in range(len(arms)):
        partials = [partial for run in runs for partial in run[m]]
        totals.append({key: _combine(key, [p[key] for p in partials]) for key in partials[0]})
    return totals


def _errors(
    reps: np.ndarray, env: Environment, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draw's distinct reputations, their :func:`absolute_errors` and
    each trial's total error, (trials,).

    Under scoring and ring validation with constant self-reports the
    reputations are one row broadcast over the trials (a stride-0 view);
    then the distinct reputations and their errors are that (1, K) row, and
    the totals its one sum broadcast, which
    :func:`replab.core.batch_true_utilities` and the per-batch sums read as
    they read the full arrays, bit for bit.
    """
    distinct = reps[:1] if reps.strides[0] == 0 else reps
    errors = absolute_errors(distinct, env, workspace=workspace)
    return distinct, errors, np.broadcast_to(errors.sum(axis=1), reps.shape[:1])


def _stats_arm(
    env: Environment, mechanism: MechanismSpec, strategy_mode: str | Mapping[int, float]
) -> Arm:
    """The arm whose totals :func:`_stats` reads."""

    def reduce(draw, batches, workspace) -> list[dict]:
        reps, taxes = draw.reps, draw.taxes
        distinct, errors, mae = _errors(reps, env, workspace)
        budgets = taxes.sum(axis=1)
        utils = batch_true_utilities(distinct, errors, taxes, env, workspace=workspace)
        return [
            {
                "mae": float(mae[rows].sum()),
                "mae_moments": _moments(mae[rows]),
                "reps": reps[rows].sum(axis=0),
                "utils": utils[rows].sum(axis=0),
                "budget": float(budgets[rows].sum()),
                "budget_abs_max": float(np.abs(budgets[rows]).max()),
            }
            for rows in batches
        ]

    return Arm(env, mechanism, reduce, strategy_mode)


def _stats(totals: dict, t: int) -> SimStats:
    """The outcome statistics of a :func:`_stats_arm`'s totals over ``t`` trials.

    ``mae_mean`` is the fsum'd ``mae`` over ``t``, not the mean of the
    joined ``mae_moments``: the sum of the batch sums is rounded once, as
    every other mean of the engine is (the reputations, utilities, budget,
    and the collusion and malicious MAE), while each join of the moments
    rounds its mean again.  The moments give only the spread.
    """
    squares = totals["mae_moments"][2]
    return SimStats(
        mae_mean=totals["mae"] / t,
        mae_stderr=math.sqrt(squares / (t - 1) / t) if t > 1 else 0.0,
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


def _driven(agent: Agent, truth: bool) -> Agent:
    """``agent`` as a truth-driven (weight 1) or image-driven (weight 0) type."""
    return dataclasses.replace(
        agent,
        agent_type=Truth() if truth else Image(),
        utility=dataclasses.replace(agent.utility, truth_weight=1.0 if truth else 0.0),
    )


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
            taxes = draw.taxes
            distinct, errors, mae = _errors(draw.reps, arm_env, workspace)
            # batch_true_utilities overwrites the errors, so they are read first.
            outsider_mae = np.broadcast_to(errors[:, outsiders].sum(axis=1), mae.shape)
            budgets = taxes.sum(axis=1)
            utilities = batch_true_utilities(distinct, errors, taxes, arm_env, workspace=workspace)
            return [
                {
                    "mae": float(mae[rows].sum()),
                    "outsider_mae": float(outsider_mae[rows].sum()),
                    "clique_utility": float(utilities[rows][:, members].sum()),
                    "clique_tax": float(taxes[rows][:, members].sum()),
                    "budget_abs_max": float(np.abs(budgets[rows]).max()),
                }
                for rows in batches
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

    def reduce(draw, batches, workspace) -> list[dict]:
        mae = _errors(draw.reps, env, workspace)[2]
        selfs, system_obs = draw.selfs, draw.r0
        return [
            {
                "mae": float(mae[rows].sum()),
                "charge": float(
                    ((selfs[rows][:, slot_idx] - system_obs[rows][:, slot_idx]) ** 2).sum()
                ),
            }
            for rows in batches
        ]

    def randomizer(agent: Agent) -> Agent:
        drawn = isinstance(agent.agent_type, MaliciousRandom)
        return agent if drawn else dataclasses.replace(agent, agent_type=MaliciousRandom(0.0, 1.0))

    arms = [
        Arm(_with_agents(env, malicious, randomizer), AS(), reduce),
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
            malicious_arm["charge"] / (trials * slot_idx.size) if slot_idx.size else None
        ),
    }
