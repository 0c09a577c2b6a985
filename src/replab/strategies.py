"""Best responses, equilibrium self-reports, and deviation oracles.

Three kinds of results live here:

1. Closed-form best responses: the punish-reward equilibrium self-report
   (``solve_y`` / ``pr_optimal_self_report``), the scoring-mechanism first-order
   condition for image-motivated and mixed agents (``mixed_best_response_as``;
   a weight of 1 on the image element gives the purely image-motivated
   report), and the deterministic deviation payoffs under share-of-total
   allocation (``proportional_deviation_profit``).
2. The strategy map used by the Monte Carlo driver and the audits: each
   agent type's constant equilibrium self-report (``resolve_self_reports``),
   the samplers, which draw only what a mechanism reads
   (``sample_sparse``, then ``sample_peer_sums``, or ``sample_ring_reads``
   and the colluders' ``ring_messages``), and the one batch source that
   calls them in the engine's order and runs each arm's mechanism on the
   draw (``_batch_source``; arms with one ``_draw_key`` share it).
   Pairs without an analytical best response raise
   :class:`UnsupportedCombination` rather than inventing behavior.
3. A brute-force numerical oracle (``deviation_reports``, and
   ``deviation_report`` for one agent) that grids each deviator's report,
   replays the engine's sampled observations at every grid point (common
   random numbers), and returns the empirical best response and its gain;
   equilibrium checks compare it against the claimed strategy.  Its
   reducers run on ``simulator.simulate``, which it imports when called,
   since the engine imports this module.

Aggregate noise convention: the punish-reward band is calibrated to
``sigma_prime``, the standard deviation of the averaging aggregate.  With a
common observation noise sigma it equals sigma/sqrt(K);
:func:`aggregate_sigma_prime` generalizes to per-agent noise levels by using
the root-mean-square of all K+1 noise sources (the K agents plus the system
channel), which reduces to sigma/sqrt(K) in the homogeneous case.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DimensionMismatch,
    DirectObservation,
    Environment,
    ExtendedAS,
    Image,
    Linear,
    MaliciousRandom,
    MechanismSpec,
    PR,
    Power,
    SimpleAveraging,
    Truth,
    WeightedPR,
    Workspace,
    agent_utility,
    centralized_solution,
)
from .mechanisms import (
    NO_CROSS,
    PEER_SUMS,
    RING,
    TooFewAgents,
    _ring_outcome,
    _ring_setup,
    _shares,
    _spec_rings,
    cross_reads,
    deviation_terms,
    peer_weights,
    run_batch,
)
from .numerics import NoRoot, erf, find_root, normal_cdf, normal_pdf

__all__ = [
    "UnsupportedCombination",
    "PrEquilibrium",
    "DeviationReport",
    "solve_y",
    "expected_pr_reputation",
    "pr_optimal_self_report",
    "pr_mae",
    "mixed_best_response_as",
    "aggregate_sigma_prime",
    "resolve_self_reports",
    "sample_peer_sums",
    "sample_sparse",
    "sample_ring_reads",
    "ring_messages",
    "ProfileDraw",
    "deviation_report",
    "deviation_reports",
    "bayesian_ic_violation",
    "proportional_deviation_profit",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class UnsupportedCombination(RuntimeError):
    """No analytical equilibrium strategy exists for this (agent type, mechanism) pair."""


# ---------------------------------------------------------------------------
# Punish-reward equilibrium
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrEquilibrium:
    """Optimal self-report under the punish-reward band.

    ``y`` is the report offset in units of the band half-width:
    ``x_star = mu + a * sigma' * y`` with ``0 < y < 1`` (the sender inflates,
    but stays inside the acceptance band around its own mean).
    """

    a: float
    y: float
    x_star: float

    def __post_init__(self) -> None:
        if self.a <= 0.0:
            raise ValueError(f"band multiplier must be positive, got {self.a!r}")
        if not (0.0 < self.y < 1.0):
            raise ValueError(f"normalized offset must lie in (0, 1), got {self.y!r}")
        if not math.isfinite(self.x_star):
            raise ValueError(f"x_star must be finite, got {self.x_star!r}")


def _y_residual(y: float | np.ndarray, a: float) -> float | np.ndarray:
    """Stationarity condition for the expected published reputation.

    This is 2 * d/dx E[published reputation] evaluated at x = mu + a*sigma'*y;
    its root in (0, 1) is the optimal normalized report offset.
    """
    t1 = a * (y + 1.0) / _SQRT2
    t2 = a * (y - 1.0) / _SQRT2
    gauss = (a / _SQRT_2PI) * (np.exp(-t1 * t1) - 3.0 * np.exp(-t2 * t2))
    return gauss - 0.5 * (erf(t1) + 3.0 * erf(t2))


def solve_y(a: float) -> float:
    """Solve the band-offset equation for ``y`` in (0, 1).

    Scans for a sign change, polishes it with the safeguarded root finder, and
    verifies the residual; raises :class:`NoRoot` if the equation has no
    bracketed root in the open unit interval (it does for all moderate ``a``).
    The root depends on ``a`` alone, so solved roots are memoized; failures
    are not, and raise again on every call.
    """
    if a <= 0.0:
        raise ValueError(f"band multiplier must be positive, got {a!r}")
    return _solve_y(float(a))


@functools.lru_cache(maxsize=1024)
def _solve_y(a: float) -> float:
    ys = np.linspace(1e-9, 1.0 - 1e-9, 257)
    res = np.asarray(_y_residual(ys, a))
    sign_change = np.nonzero(np.diff(np.signbit(res)))[0]
    if sign_change.size == 0:
        raise NoRoot(f"no sign change of the offset equation in (0,1) for a={a!r}")
    lo = float(ys[sign_change[0]])
    hi = float(ys[sign_change[0] + 1])
    y = find_root(lambda t: float(_y_residual(t, a)), lo, hi, tol=1e-15)
    if abs(float(_y_residual(y, a))) > 1e-10:
        raise NoRoot(f"root polish failed for a={a!r}: residual {_y_residual(y, a):g}")
    return y


def _cdf_integral(c: np.ndarray, mu: float, sigma_prime: float) -> np.ndarray:
    """Antiderivative of the Normal cdf: integral of F from -inf to c."""
    w = (c - mu) / sigma_prime
    phi = np.exp(-0.5 * w * w) / _SQRT_2PI
    big_phi = 0.5 * (1.0 + erf(w / _SQRT2))
    return sigma_prime * (w * big_phi + phi)


def expected_pr_reputation(
    x: float | np.ndarray, mu: float, sigma_prime: float, eps: float
) -> float | np.ndarray:
    """Expected published reputation of a sender reporting ``x`` under punish-reward.

    The aggregate is Normal with mean ``mu`` and std ``sigma_prime``; ``eps``
    is the acceptance half-width.  Evaluates

        x + (eps/2) F(x+eps) - (3 eps/2) F(x-eps)
          - 1/2 * int_{x-eps}^{x+eps} F - 2 * int_{-inf}^{x-eps} F

    in closed form through the antiderivative of the cdf F.  A float ``x``
    gives a float; an array gives the elementwise array.
    """
    if sigma_prime <= 0.0:
        raise ValueError(f"sigma_prime must be positive, got {sigma_prime!r}")
    if eps <= 0.0:
        raise ValueError(f"band half-width must be positive, got {eps!r}")
    xs = np.asarray(x, dtype=float)
    f_hi = normal_cdf(xs + eps, mu, sigma_prime)
    f_lo = normal_cdf(xs - eps, mu, sigma_prime)
    a_hi = _cdf_integral(xs + eps, mu, sigma_prime)
    a_lo = _cdf_integral(xs - eps, mu, sigma_prime)
    out = xs + 0.5 * eps * f_hi - 1.5 * eps * f_lo - 0.5 * a_hi - 1.5 * a_lo
    return float(out) if out.ndim == 0 else out


def pr_optimal_self_report(mu: float, sigma_prime: float, a: float) -> PrEquilibrium:
    """Optimal punish-reward self-report: x* = mu + a * sigma' * y.

    The sender inflates by a fraction ``y`` of the band half-width, strictly
    between staying put and hitting the band edge.
    """
    if sigma_prime <= 0.0:
        raise ValueError(f"sigma_prime must be positive, got {sigma_prime!r}")
    y = solve_y(a)
    return PrEquilibrium(a=a, y=y, x_star=mu + a * sigma_prime * y)


def pr_mae(a: float, sigma_prime: float) -> float:
    """Expected |published - true| under the punish-reward rule at the
    sender's optimal self-report.

    Integrates the exact piecewise published reputation against the Normal
    aggregate density in closed form.  The value is independent of the true
    quality level and scales linearly in ``sigma_prime``, so it is computed
    in centered coordinates: the aggregate is N(0, sigma_prime^2) and the
    optimal self-report sits at ``x* = a * sigma_prime * y`` with ``y`` from
    the band-offset equation.
    """
    if sigma_prime <= 0.0:
        raise ValueError(f"sigma_prime must be positive, got {sigma_prime}")
    eq = pr_optimal_self_report(0.0, sigma_prime, a)
    x_star = eq.x_star
    eps = a * sigma_prime
    lo, hi = x_star - eps, x_star + eps

    # Below the band the published value is 2*xbar - x*, which stays below
    # zero there (x* < 2*eps), so the error is x* - 2*xbar, whose expectation
    # over that tail has a closed form.
    below = x_star * normal_cdf(lo, 0.0, sigma_prime) + 2.0 * sigma_prime**2 * normal_pdf(
        lo, 0.0, sigma_prime
    )
    # Above the band the gap is refunded exactly: published = x*, error x*.
    above = x_star * (1.0 - normal_cdf(hi, 0.0, sigma_prime))

    # Inside the band the published value is the midpoint (xbar + x*)/2, so
    # the error is |xbar + x*|/2.  (t + x*) * pdf(t) has the antiderivative
    # -sigma'^2 * pdf(t) + x* * cdf(t).  The kink at t = -x* lies inside the
    # band only when lo < -x*, i.e. y < 1/2; -x* < hi always holds.
    def antiderivative(t: float) -> float:
        return -(sigma_prime**2) * normal_pdf(t, 0.0, sigma_prime) + x_star * normal_cdf(
            t, 0.0, sigma_prime
        )

    band = antiderivative(hi) - antiderivative(lo)
    if lo < -x_star:
        band += 2.0 * (antiderivative(lo) - antiderivative(-x_star))
    return below + above + 0.5 * band


def _band_curves(a: float, r: float, sigma_prime: float) -> tuple[float, float, float]:
    """The band curves at multiplier ``a``: the offset ``y``, the expected
    mechanism error :func:`pr_mae`, and the expected published reputation of
    a sender of quality ``r`` at its optimal self-report."""
    eq = pr_optimal_self_report(r, sigma_prime, a)
    reputation = expected_pr_reputation(eq.x_star, r, sigma_prime, a * sigma_prime)
    return eq.y, pr_mae(a, sigma_prime), reputation


# ---------------------------------------------------------------------------
# Scoring-mechanism best responses
# ---------------------------------------------------------------------------


def mixed_best_response_as(
    g: Union[Linear, Power], r: float, image_weight: float
) -> float:
    """Self-report maximizing w*g(x) - E[(x - prior)^2] on [0, 1].

    ``image_weight`` w is the weight on the image element (1 - truth weight).
    The objective is strictly concave, so the first-order condition
    w * g'(x) = 2 (x - r) pins the unique interior optimum; the result is
    clamped to the message space.  For linear g this is min(r + w/2, 1),
    exactly.
    """
    if not (0.0 < image_weight <= 1.0):
        raise ValueError(f"image weight must lie in (0, 1], got {image_weight!r}")
    if isinstance(g, Linear):
        return min(r + 0.5 * image_weight, 1.0)
    foc = lambda x: image_weight * g.derivative(x) - 2.0 * (x - r)
    if foc(1.0) >= 0.0:
        return 1.0
    # g' decreasing and unbounded at 0+, so the condition brackets in (0, 1].
    return find_root(foc, 1e-12, 1.0, tol=1e-13)


# ---------------------------------------------------------------------------
# Equilibrium strategy map
# ---------------------------------------------------------------------------


def aggregate_sigma_prime(env: Environment) -> float:
    """Std of the averaging aggregate implied by the environment's noise levels.

    RMS of the K+1 observation channels (each agent's cross-report noise plus
    the system's own), divided by sqrt(K); equals sigma/sqrt(K) when all
    channels share one sigma.
    """
    variances = [env.system_obs.std**2] + [a.cross_obs.std**2 for a in env.agents]
    return math.sqrt(math.fsum(variances) / len(variances)) / math.sqrt(env.k)


def _equilibrium_self_report(
    agent: Agent, spec: MechanismSpec, sigma_prime: float
) -> float | None:
    """The agent's constant equilibrium self-report, or None when per-trial random.

    Raises :class:`UnsupportedCombination` for pairs without an analytical
    strategy (image/mixed senders under share-of-total or ring-validated
    scoring, or band mechanisms with a nonlinear image payoff).
    """
    r = agent.quality.value
    kind = agent.agent_type
    if isinstance(kind, Truth):
        return r
    if isinstance(kind, MaliciousRandom):
        return None
    if isinstance(kind, Colluder):
        return kind.inflate
    # Image or mixed sender.
    image_weight = 1.0 - agent.utility.truth_weight
    if isinstance(spec, AS):
        return mixed_best_response_as(agent.utility.g, r, image_weight)
    if isinstance(spec, SimpleAveraging):
        # The self-report never enters the averaging outcome; an
        # image-motivated sender pins it at the top of the scale.
        return 1.0
    if isinstance(spec, (PR, WeightedPR)):
        if not isinstance(agent.utility.g, Linear):
            raise UnsupportedCombination(
                f"{type(kind).__name__} under {type(spec).__name__} needs a linear "
                "image payoff for the band-offset solution"
            )
        eq = pr_optimal_self_report(r, sigma_prime, spec.a)
        return min(eq.x_star, 1.0)
    if isinstance(spec, DirectObservation):
        return r  # no message is consumed; report truthfully as a placeholder
    raise UnsupportedCombination(
        f"no equilibrium self-report for {type(kind).__name__} under {type(spec).__name__}"
    )


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


def _check_profile(env: Environment, strategy_mode: str | Mapping[int, float]) -> None:
    """Reject a strategy mode that is neither ``"equilibrium"`` nor a mapping
    over agent ids of ``env``."""
    if isinstance(strategy_mode, str):
        if strategy_mode != "equilibrium":
            raise ValueError(
                f"strategy_mode must be 'equilibrium' or a mapping, got {strategy_mode!r}"
            )
        return
    unknown = set(strategy_mode) - {agent.id for agent in env.agents}
    if unknown:
        raise ValueError(f"strategy profile names unknown agents {sorted(unknown)}")


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The Philox substream ``(seed, spawn_key=(batch_index,))`` of one batch."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    )


def _driven(agent: Agent, truth: bool) -> Agent:
    """``agent`` as a truth-driven (weight 1) or image-driven (weight 0) type."""
    return dataclasses.replace(
        agent,
        agent_type=Truth() if truth else Image(),
        utility=dataclasses.replace(agent.utility, truth_weight=1.0 if truth else 0.0),
    )


# The batches of one run: each batch's generator and its rows of the run's
# arrays, in batch order.  Each batch draws from its own generator in the
# order of draw stream 4; the arithmetic that follows the draws runs once
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


def _reader_values(table: np.ndarray, index: np.ndarray, workspace: Workspace) -> np.ndarray:
    """``table[index]``, in scratch 1.  The reporters are in range, so the
    clip mode changes no value and spares ``np.take`` a copy."""
    out = workspace.empty("scratch 1", index.shape, table.dtype)
    return np.take(table, index, out=out, mode="clip")


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
        values *= _reader_values(stds, index, workspace)
        shift = _reader_values(biases, index, workspace)
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
        message = np.take(
            sent.ravel(), index, out=workspace.empty("scratch 1", reader.shape), mode="clip"
        )
        sends = np.isnan(message, out=workspace.empty("sends", reader.shape, bool))
        np.logical_not(sends, out=sends)
        if not in_place:
            values = workspace.copy(f"sent read {m}", values)
        np.copyto(values, message, where=sends)
        sent_reads.append(values)
    return sent_reads


def resolve_self_reports(
    env: Environment,
    mechanism: MechanismSpec,
    strategy_mode: str | Mapping[int, float] = "equilibrium",
) -> dict[int, float]:
    """Constant self-reports of a strategy profile, keyed by agent id.

    ``strategy_mode`` is ``"equilibrium"`` or a mapping of agent ids to
    custom constants; every agent the mapping does not cover plays its
    equilibrium report.  Any other string, or a mapping that names an id
    the environment lacks, raises :class:`ValueError`.  Raises
    :class:`UnsupportedCombination` at once when an uncovered agent has no
    equilibrium report under the mechanism.  Uniform-random reporters stay
    unlisted: they draw fresh reports every trial.
    """
    _check_profile(env, strategy_mode)
    custom = {} if isinstance(strategy_mode, str) else dict(strategy_mode)
    sigma_prime = aggregate_sigma_prime(env)
    reports: dict[int, float] = {}
    for agent in env.agents:
        if agent.id in custom:
            reports[agent.id] = float(custom[agent.id])
            continue
        value = _equilibrium_self_report(agent, mechanism, sigma_prime)
        if value is not None:
            reports[agent.id] = float(value)
    return reports


# ---------------------------------------------------------------------------
# Numerical best-response oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a gridded deviation scan for one agent.

    ``gain`` is the common-random-numbers estimate of the mean utility
    improvement of the best grid point over the claimed report;
    ``gain_stderr`` is the standard error of that paired difference.  The
    deviation counts as profitable only when it clears both the grid
    resolution and three standard errors, and exceeds a floor of 1e-12
    times the larger utility magnitude (at least 1): a report that moves
    nothing the deviator values leaves only rounding noise in the gain,
    and that noise can clear three standard errors of itself.
    """

    agent_index: int
    claimed: float
    best: float
    claimed_mean: float
    best_mean: float
    gain: float
    gain_stderr: float
    grid_step: float

    @property
    def profitable(self) -> bool:
        floor = 1e-12 * max(1.0, abs(self.claimed_mean), abs(self.best_mean))
        return (
            abs(self.best - self.claimed) > self.grid_step + 1e-12
            and self.gain > max(3.0 * self.gain_stderr, floor)
        )


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
    arms: Sequence[tuple[Environment, MechanismSpec, Mapping[int, float]]],
) -> Callable[..., Iterator[ProfileDraw]]:
    """The draw of one run of batches and each arm's outcome on it.

    Each arm is a population, its mechanism and its constant self-reports
    (:func:`resolve_self_reports`); the arms must have one
    :func:`_draw_key`.  Resolves what the first arm's mechanism reads once.
    The returned ``draw(batches, workspace)`` draws a run of batches
    (:data:`Batches`), each batch from its own generator in the order of
    draw stream 4: the system observations and uniform self-reports
    (:func:`sample_sparse`), then the peer sums (:func:`sample_peer_sums`),
    or the secret rings of :class:`_SecretRings` and the ring reads
    (:func:`sample_ring_reads`).  The observations and peer sums are
    read-only.  It then yields one :class:`ProfileDraw` of the whole run
    per arm, in order: the arm's constants in place of the previous arm's
    (:func:`_with_row`), its colluders' ring messages
    (:func:`ring_messages`) and its own mechanism's outcome, each computed
    once over the run; so punish-reward arms of different band multipliers
    share one draw.  A later arm writes into the arrays an earlier one was
    given, so each arm must be consumed before the next is produced.  The
    arrays are ``workspace`` buffers, which the workspace's next run
    overwrites, or read-only views of them: under scoring and ring
    validation the reputations are the self-reports.
    """
    first, first_mechanism, first_reports = arms[0]
    k = first.k
    reads = cross_reads(first_mechanism)
    sigma_prime = aggregate_sigma_prime(first)
    constants = [np.array([r.get(i, np.nan) for i in range(k)]) for _, _, r in arms]
    tables = sent = ring = None
    if reads == PEER_SUMS:
        tables = _peer_sum_tables(first, peer_weights(first_mechanism, k))
    elif reads == RING:
        if k < 3:
            raise TooFewAgents(f"ring validation needs at least 3 agents, got {k}")
        sent = [_sent_constants(env) for env, _, _ in arms]
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

    def draw(batches: Batches, workspace: Workspace) -> Iterator[ProfileDraw]:
        r0, selfs = sample_sparse(first, batches, first_reports, workspace)
        # A workspace hands out a new view per run, so the buffer itself
        # stays writable for the next run's draw.
        r0.setflags(write=False)
        if reads == RING:
            maps, readers = ring or _ring_setup(k, secret_rings(batches, workspace), workspace)
            drawn = sample_ring_reads(first, batches, readers, workspace)
        sums = None
        if tables is not None:
            sums = sample_peer_sums(first, batches, tables, workspace)
            sums.setflags(write=False)
        ring_reads = None
        for m, (_, mechanism, _) in enumerate(arms):
            if m:
                selfs = _with_row(selfs, constants[m])
            if reads == RING:
                ring_reads = tuple(
                    ring_messages(drawn, readers, sent[m], m == last, workspace)
                )
                reps, taxes = _ring_outcome(selfs, ring_reads, maps, workspace)
            else:
                reps, taxes = run_batch(
                    mechanism, selfs, None, r0, sigma_prime, peer_sums=sums, workspace=workspace
                )
            yield ProfileDraw(r0, selfs, reps, taxes, sums, ring_reads)

    return draw


# Bytes per block of the incremental scan.  A block's (K, points, trials)
# arrays, or the (points, trials) arrays of the moment sums, stay near cache
# size instead of streaming through memory, and the scan's working set does
# not grow with the grid or the trial count.
_SCAN_BLOCK_BYTES = 1 << 19


def _trial_sum(a: float | np.ndarray, n: int) -> float | np.ndarray:
    """The sum over n trials of ``a``, which broadcasts to (G, n)."""
    a = np.asarray(a)
    if a.shape[-1:] == (n,):
        return a.sum(axis=-1)
    return n * (a[..., 0] if a.ndim else a)


def _trial_dot(a: float | np.ndarray, moment: np.ndarray) -> float | np.ndarray:
    """The sum over the trials of ``a * moment``, ``a`` broadcasting to
    (G, n) and ``moment`` (n,): one matrix-vector product when ``a`` varies
    by trial, one product with the summed moment when it does not."""
    a = np.asarray(a)
    if a.shape[-1:] == moment.shape:
        return a @ moment
    return (a[..., 0] if a.ndim else a) * moment.sum()


def _quadratic_sums(
    agent: Agent,
    base: np.ndarray,
    move: Callable[[np.ndarray, slice], tuple],
    targets: np.ndarray,
    values: np.ndarray,
    batch: slice,
) -> np.ndarray:
    """Utility sums over the trials ``batch`` at every deviation value, under
    f(d) = d^2, for a deviation that moves the other subjects' reputations
    to ``(base_j + add) / div`` (:func:`replab.mechanisms.deviation_terms`).

    Subject j's reputation is scale * b_j + shift, with scale = 1/div and
    shift = add/div, or scale = 0 and shift = 1/K where div is 0.  A
    trial's accuracy loss sum_{j != i} (scale b_j + shift - t_j)^2 is then
    a quadratic in the trial's sums of b_j, b_j^2 and b_j t_j over j != i.
    Simple averaging's scale and shift are the same in every trial, so its
    moments are summed over the trials first, at O(trials + G) cost;
    share-of-total's scale varies by trial and costs a few flops per grid
    point and trial, in slices of trials whose (G, rows) arrays fit the
    scan's byte budget.  The image term is left out at truth weight 1,
    where it is exactly 0, and so is the deviator's own reputation.
    """
    i = agent.id
    lam = agent.utility.truth_weight
    others = np.delete(base[:, batch], i, axis=0)
    k, trials = base.shape[0], others.shape[1]
    t = np.delete(targets, i)
    b1, b2, bt = others.sum(axis=0), np.einsum("jt,jt->t", others, others), t @ others
    t1, t2 = t.sum(), t @ t
    xs = values[:, None]
    # As the block scan's tiles: K (G, rows) arrays fit the byte budget.  A
    # map that is the same in every trial makes no (G, rows) array, so it
    # takes all the trials at once.
    span = max(1, _SCAN_BLOCK_BYTES // (8 * k * values.size))
    at = batch.start
    if np.broadcast(*move(xs, slice(at, at + 2), own=False)[2]).shape[-1:] in ((), (1,)):
        span = trials
    sums = np.zeros(values.size)
    for first in range(0, trials, span):
        rows = slice(first, first + span)
        n = min(span, trials - first)
        own_rep, own_tax, (add, div) = move(xs, slice(at + first, at + first + n), own=lam != 1.0)
        zero = np.equal(div, 0.0)
        if zero.any():
            scale = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, div))
            shift = np.where(zero, 1.0 / k, add * scale)
        else:
            scale = np.divide(1.0, div)
            shift = add * scale if np.any(add) else 0.0
        accuracy = n * t2 - 2.0 * _trial_dot(scale, bt[rows])
        if np.any(shift):
            accuracy = accuracy + 2.0 * _trial_dot(scale * shift, b1[rows])
            accuracy = accuracy + _trial_sum(shift * ((k - 1) * shift - 2.0 * t1), n)
        scale *= scale
        accuracy = accuracy + _trial_dot(scale, b2[rows])
        utils = -lam * accuracy
        if lam != 1.0:
            utils = utils + (1.0 - lam) * _trial_sum(agent.utility.g(own_rep), n)
        sums += utils - _trial_sum(own_tax, n)
    return sums


def _scan_blocks(
    agent: Agent,
    terms: tuple,
    targets: np.ndarray,
    values: np.ndarray,
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Per-trial utilities of ``agent`` at each of ``values``, block by block.

    ``terms`` is the agent's ``(reps, base, move)`` from
    :func:`replab.mechanisms.deviation_terms`.  Yields ``(points, rows,
    utils)``: slices of ``values`` and of the trials, and the (points, rows)
    utilities there.  A block holds as many points as the byte budget fits
    at trials x K; when one point does not fit, the trials are split too.
    """
    reps, base, move = terms
    i = agent.id
    f = agent.utility.f
    trials, k = reps.shape
    if base is None:
        base_floss = f(np.abs(reps - targets[None, :]))
        base_accuracy = base_floss.sum(axis=1) - base_floss[:, i]
    points = max(1, _SCAN_BLOCK_BYTES // (8 * trials * k))
    span = trials if points > 1 else max(1, _SCAN_BLOCK_BYTES // (8 * k))
    for start in range(0, values.size, points):
        cols = slice(start, start + points)
        xs = values[cols, None]
        for first in range(0, trials, span):
            rows = slice(first, first + span)
            own_rep, own_tax, others = move(xs, rows)
            if others is None:
                accuracy = base_accuracy[rows]
            else:
                add, div = others
                by_subject = base[:, None, rows]
                block = np.broadcast(by_subject, add, div).shape
                moved = np.add(by_subject, add, out=np.empty(block))
                _shares(moved, div, k, out=moved)
                # The deviator's entry as the kernel has it, so the sum over
                # subjects less that entry rounds as the dense kernel's.
                moved[i] = own_rep
                # In place, so few block-sized arrays are freed and re-faulted.
                np.subtract(moved, targets[:, None, None], out=moved)
                floss = f(np.abs(moved, out=moved))
                accuracy = floss.sum(axis=0) - floss[i]
            yield cols, rows, agent_utility(agent, accuracy, own_rep, own_tax)


def _utility_sums(
    agent: Agent, terms: tuple, targets: np.ndarray, values: np.ndarray, batches: Sequence[slice]
) -> np.ndarray:
    """Utility sums of ``agent`` at every deviation value, one row per batch
    of ``batches``, consecutive row slices of the trials ``terms`` reads.

    Adds each block of :func:`_scan_blocks` into the batches its rows
    overlap.  Under the quadratic loss f(d) = d^2, a deviation that moves
    the other subjects' reputations (share-of-total, simple averaging) is
    summed batch by batch from per-trial moments instead
    (:func:`_quadratic_sums`), with no (K, points, trials) block; those sums
    can differ in the last bits.
    """
    if terms[1] is not None and agent.utility.f == AbsPower(2.0):
        return np.array([_quadratic_sums(agent, *terms[1:], targets, values, b) for b in batches])
    sums = np.zeros((values.size, len(batches)))
    starts = [rows.start for rows in batches]
    for points, rows, utils in _scan_blocks(agent, terms, targets, values):
        # The batches from the one holding the block's first trial to the
        # last that starts before its end.
        first = bisect.bisect_right(starts, rows.start) - 1
        end = bisect.bisect_left(starts, rows.start + utils.shape[1])
        cuts = [max(0, start - rows.start) for start in starts[first:end]]
        sums[points, first:end] += np.add.reduceat(utils, cuts, axis=1)
    return sums.T


def _audit_reducer(
    mechanism: MechanismSpec, env: Environment, agents: Iterable[int], partial: Callable
) -> Callable:
    """An engine reducer giving each batch, keyed by each of ``agents``'
    index, its row of ``partial(agent, terms, batches)``: ``terms`` is the
    agent's :func:`replab.mechanisms.deviation_terms` on the run, and
    ``batches`` the slices of its batches."""
    sigma_prime = aggregate_sigma_prime(env)

    def reduce(draw: ProfileDraw, batches: Sequence[slice], workspace: Workspace) -> list[dict]:
        found = {
            str(i): partial(env.agents[i], deviation_terms(mechanism, draw, sigma_prime, i), batches)
            for i in agents
        }
        return [{i: rows[b] for i, rows in found.items()} for b in range(len(batches))]

    return reduce


def _grid_pass(
    mechanism: MechanismSpec, env: Environment, claimed: Mapping[int, float], values: np.ndarray
) -> tuple[Callable, Callable]:
    """The audit's grid pass: a reducer of each agent's utility sums at the
    grid ``values`` and, last, at its claimed report, and ``report(totals,
    trials)``, which picks each best.  Grid means within the profitability
    floor of the maximum tie, as rounding noise would otherwise pick among
    them, and the tie nearest the claimed report is the best.  The gain is
    the best's mean less the claimed report's."""
    targets = centralized_solution(env)

    def partial(agent: Agent, terms: tuple, batches: Sequence[slice]) -> np.ndarray:
        return _utility_sums(agent, terms, targets, np.append(values, claimed[agent.id]), batches)

    def report(totals: dict, trials: int) -> list[DeviationReport]:
        reports = []
        for i, c in claimed.items():
            means = totals[str(i)] / trials
            top = means[:-1].max()
            ties = np.flatnonzero(means[:-1] >= top - 1e-12 * max(1.0, abs(top)))
            best = ties[np.argmin(np.abs(values[ties] - c))]
            at_best, at_claimed = float(means[best]), float(means[-1])
            reports.append(DeviationReport(
                i, float(c), float(values[best]), at_claimed, at_best, at_best - at_claimed,
                math.nan, float(values[1] - values[0]),
            ))
        return reports

    return _audit_reducer(mechanism, env, claimed, partial), report


def _pair_pass(
    mechanism: MechanismSpec, env: Environment, reports: Sequence[DeviationReport]
) -> tuple[Callable | None, Callable]:
    """The audit's paired pass: a reducer of the sums of d and (d - g)^2,
    d = u_best - u_claimed per trial (two more points of
    :func:`_scan_blocks`) and g the grid pass's gain, and ``report(totals,
    trials)``, which gives each report the mean of d and its standard
    error.  Centring on g keeps the squares from cancelling.  Where the
    best is the claimed report, d is 0 in every trial: the reducer leaves
    those agents out, and is None when that leaves none."""
    targets = centralized_solution(env)
    moved = {r.agent_index: r for r in reports if r.best != r.claimed}

    def partial(agent: Agent, terms: tuple, batches: Sequence[slice]) -> np.ndarray:
        report = moved[agent.id]
        utils = np.empty((2, terms[0].shape[0]))
        pair = np.array([report.best, report.claimed])
        for points, rows, block in _scan_blocks(agent, terms, targets, pair):
            utils[points, rows] = block
        diff = utils[0] - utils[1]
        moments = np.stack([diff, np.square(diff - report.gain)])
        return np.add.reduceat(moments, [rows.start for rows in batches], axis=1).T

    def report(totals: dict, trials: int) -> list[DeviationReport]:
        paired = []
        for r in reports:
            total, spread = totals.get(str(r.agent_index), (0.0, 0.0))
            gain = total / trials
            variance = (spread - trials * (gain - r.gain) ** 2) / max(trials - 1, 1)
            stderr = math.sqrt(max(0.0, variance) / trials)
            paired.append(dataclasses.replace(r, gain=float(gain), gain_stderr=stderr))
        return paired

    return (_audit_reducer(mechanism, env, moved, partial) if moved else None), report


def deviation_reports(
    mechanism: MechanismSpec,
    env: Environment,
    others_strategy: str | Mapping[int, float] = "truthful",
    trials: int = 20_000,
    grid: int = 201,
    seed: int = 0,
    agents: Mapping[int, float | None] | None = None,
) -> list[DeviationReport]:
    """Grid each agent's report and measure the best deviation's payoff.

    ``others_strategy`` is ``"truthful"`` (every agent relays its
    observations and reports its quality), ``"equilibrium"`` or a mapping
    of constant self-reports (:func:`resolve_self_reports`).  ``agents``
    maps each audited agent's index to its claimed report, or to None for
    the profile's, which an agent that draws its report every trial lacks;
    by default every agent claims the profile's.  The gridded channel is
    the self-report, except under simple averaging, where grid value c
    adds c - 1/2 to the deviator's cross-reports, so that c = 1/2 is
    truthful and claimed.

    Two engine calls of one arm (:func:`replab.simulator.simulate`) draw
    the same batches, and their reducers read each audited agent's
    :func:`replab.mechanisms.deviation_terms` on them (common random
    numbers): the grid pass (:func:`_grid_pass`) picks each best, and the
    paired pass (:func:`_pair_pass`) replays the batches for the gains and
    their standard errors when some best is not the claimed report.  With
    no agent to audit, nothing is simulated.
    """
    from .simulator import Arm, simulate  # the engine imports this module

    claimed = dict(dict.fromkeys(range(env.k)) if agents is None else agents)
    for i in claimed:
        if not (0 <= i < env.k):
            raise DimensionMismatch(f"agent_index {i} outside 0..{env.k - 1}")
    if grid < 3:
        raise ValueError("grid must have at least 3 points")
    if isinstance(mechanism, DirectObservation):
        raise UnsupportedCombination("direct observation consumes no reports to deviate on")
    drawn, profile = env, others_strategy
    if others_strategy == "truthful":
        # Drawn from truth-tellers; the utilities still use the real agents.
        drawn = dataclasses.replace(env, agents=tuple(_driven(a, True) for a in env.agents))
        profile = "equilibrium"
    reports = resolve_self_reports(drawn, mechanism, profile)
    if isinstance(mechanism, SimpleAveraging):
        reports = dict.fromkeys(range(env.k), 0.5)
    for i in [i for i, c in claimed.items() if c is None]:
        if i not in reports:
            raise UnsupportedCombination(f"agent {i} draws its report every trial")
        claimed[i] = reports[i]
    if not claimed:
        return []
    reduce, report = _grid_pass(mechanism, env, claimed, np.linspace(0.0, 1.0, grid))
    (totals,) = simulate([Arm(drawn, mechanism, reduce, profile)], trials, seed)
    reduce, report = _pair_pass(mechanism, env, report(totals, trials))
    totals = simulate([Arm(drawn, mechanism, reduce, profile)], trials, seed)[0] if reduce else {}
    return report(totals, trials)


def deviation_report(
    agent_index: int,
    mechanism: MechanismSpec,
    env: Environment,
    others_strategy: str | Mapping[int, float] = "truthful",
    trials: int = 20_000,
    grid: int = 201,
    seed: int = 0,
    claimed: float | None = None,
) -> DeviationReport:
    """:func:`deviation_reports` of one agent, claiming ``claimed`` when given."""
    agents = {agent_index: claimed}
    return deviation_reports(mechanism, env, others_strategy, trials, grid, seed, agents)[0]


# ---------------------------------------------------------------------------
# Implementability results under the share-of-total allocation
# ---------------------------------------------------------------------------


def bayesian_ic_violation(
    env: Environment, deviator: int = 0, r_prime: float | None = None
) -> float:
    """Utility gain from inflating the self-report under direct revelation.

    With everyone else truthful and published reputations equal to the
    reports (no taxes), a sender with an image element gains exactly
    g(r') - g(r) by reporting r' instead of its true r: its own entry does
    not appear in its accuracy element, so nothing offsets the image gain.
    A strictly positive value certifies that truthful revelation is not
    incentive compatible without transfers.
    """
    if env.index_scheme != "absolute":
        raise ValueError("direct-revelation gain is defined for the absolute scheme")
    agent = env.agents[deviator]
    r = agent.quality.value
    if r_prime is None:
        r_prime = min(r + 0.1, 1.0)
    if agent.utility.truth_weight >= 1.0:
        return 0.0
    g = agent.utility.g
    return float(g(r_prime)) - float(g(r))


def proportional_deviation_profit(
    deviator: int,
    x: float,
    env: Environment,
    tax: str | None = "as",
) -> tuple[float, float, float]:
    """Decompose a sender's deviation payoff under share-of-total allocation.

    Returns ``(accuracy_loss, image_gain, tax_delta)`` whose sum is the net
    deviation profit:

    - ``accuracy_loss``: the (never positive) damage the deviation does to
      everyone else's published shares, through the sender's own f;
    - ``image_gain``: g of the own share after vs. before deviating (sign of
      x - r);
    - ``tax_delta``: the signed tax contribution.  ``tax="as"`` applies the
      scoring tax against a noiseless prior, contributing -(x - r)^2;
      ``tax=None`` means no transfers (contributes 0).
    """
    if env.index_scheme != "relative":
        raise ValueError("share-of-total deviations need the relative scheme")
    if tax not in ("as", None):
        raise ValueError(f"tax must be 'as' or None, got {tax!r}")
    r = env.qualities
    i = deviator
    s_total = float(r.sum())
    s_others = s_total - r[i]
    if s_others <= 0.0:
        raise ValueError("deviation decomposition needs positive co-truth mass")
    util = env.agents[i].utility
    denom = (x + s_others) * s_total
    accuracy_loss = 0.0
    for j in range(env.k):
        if j == i or r[j] == 0.0:
            continue
        accuracy_loss -= float(util.f(r[j] * abs(x - r[i]) / denom))
    image_gain = float(util.g(x / (x + s_others))) - float(util.g(r[i] / s_total))
    tax_delta = -((x - r[i]) ** 2) if tax == "as" else 0.0
    return accuracy_loss, image_gain, tax_delta
