"""Closed-form and Monte Carlo accuracy / participation metrics.

This module answers the evaluation questions about a configured market:
how far published reputations sit from the centralized solution, how the
punish-reward band trades inflation against error, when truth-driven and
image-driven users volunteer to participate, and what a manipulated
cross-report costs its sender in validation taxes.

Closed forms are used exactly where the derivations hold (quadratic
accuracy loss, linear image payoff, unbiased unclamped channels); every
other configuration compares the utilities of :func:`participation_utilities`,
which come from one call of the Monte Carlo engine ``simulator.simulate``.

The deviation audit (:func:`deviation_reports`) grids each deviator's report
on the engine's draw (common random numbers) and returns the empirical best
response and its gain over the claimed report.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DimensionMismatch,
    DirectObservation,
    Environment,
    Linear,
    MaliciousRandom,
    MechanismSpec,
    SimpleAveraging,
    Truth,
    Workspace,
    agent_utility,
    batch_true_utilities,
    centralized_solution,
)
from .mechanisms import _shares, deviation_terms
from .numerics import (
    TAIL_SIGMAS,
    folded_normal_mean,
    integrate,
    normal_cdf,
    normal_pdf,
)
from .simulator import Arm, ProfileDraw, _driven, _errors, simulate
from .strategies import (
    UnsupportedCombination,
    _band_curves,
    aggregate_sigma_prime,
    mixed_best_response_as,
    pr_mae,
    resolve_self_reports,
)

__all__ = [
    "ParticipationReport",
    "DeviationReport",
    "pr_mae",
    "pr_mutual_benefit_region",
    "as_ir_gain",
    "closed_forms_apply",
    "participation_utilities",
    "hetero_truth_participation",
    "hetero_image_participation",
    "hetero_system_gain",
    "collusion_expected_tax",
    "weighted_variance_check",
    "deviation_reports",
    "deviation_report",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# Report type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParticipationReport:
    """Outcome of an opt-in comparison for one focal agent.

    ``u_in`` is the focal agent's expected utility inside the system at the
    equilibrium report profile, ``u_out`` the expected utility from staying
    out (own observations plus the platform's direct estimate).  ``rho`` and
    ``gamma`` are the image-driven and truth-driven fractions of the other
    K-1 participants.
    """

    u_in: float
    u_out: float
    participates: bool
    rho: float
    gamma: float

    def __post_init__(self) -> None:
        if self.participates != (self.u_in >= self.u_out):
            raise ValueError("participates flag contradicts the utility comparison")
        for name in ("rho", "gamma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


# ---------------------------------------------------------------------------
# Punish-reward error curve
# ---------------------------------------------------------------------------


def pr_mutual_benefit_region(sigma_prime: float, a_grid) -> set:
    """Band sizes where inflation and accuracy improve simultaneously.

    A grid point qualifies when the sender's expected published reputation
    exceeds the true quality (the sender gains image) while the mechanism's
    expected absolute error stays below the simple-averaging error
    sqrt(2/pi) * sigma_prime (the platform gains accuracy).
    """
    if sigma_prime <= 0.0:
        raise ValueError(f"sigma_prime must be positive, got {sigma_prime}")
    averaging_mae = _SQRT_2_OVER_PI * sigma_prime
    region = set()
    for a in np.asarray(a_grid, dtype=float):
        a = float(a)
        if a <= 0.0:
            raise ValueError(f"band sizes must be positive, got {a}")
        _, e_m, inflation = _band_curves(a, 0.0, sigma_prime)
        if inflation > 0.0 and e_m < averaging_mae:
            region.add(a)
    return region


# ---------------------------------------------------------------------------
# Individual rationality under scoring taxes
# ---------------------------------------------------------------------------


def _truncated_moment(p: float, mu: float, sd: float, lo, hi):
    """int_lo^hi |t|^p N(t; mu, sd^2) dt for p in {1, 2} and finite lo <= 0 <= hi.

    ``lo`` and ``hi`` may be floats or arrays of clip windows.

    With F and P the Normal cdf and density, int_c^d t P = mu (F(d) - F(c))
    + sd^2 (P(c) - P(d)) and int_c^d t^2 P = (mu^2 + sd^2)(F(d) - F(c)) +
    sd^2 ((mu + c) P(c) - (mu + d) P(d)); at p = 1 the part below 0 counts
    with its sign flipped.
    """
    var = sd * sd

    def moment(c, d):
        mass = normal_cdf(d, mu, sd) - normal_cdf(c, mu, sd)
        pc, pd = normal_pdf(c, mu, sd), normal_pdf(d, mu, sd)
        if p == 1.0:
            return mu * mass + var * (pc - pd)
        return (mu * mu + var) * mass + var * ((mu + c) * pc - (mu + d) * pd)

    return moment(0.0, hi) - moment(lo, 0.0) if p == 1.0 else moment(lo, hi)


def _clipped_loss(f: AbsPower, bias: float, sd: float, lo, hi):
    """E f(|clip(e, lo, hi)|) for an observation error e ~ N(bias, sd^2), lo <= 0 <= hi.

    At p = 1 and p = 2 the moments are closed, and ``lo`` and ``hi`` may be
    arrays of clip windows: unclipped (infinite bounds) they are the
    folded-Normal mean and bias^2 + sd^2, clipped the truncated-Normal
    moments between the clip points (:func:`_truncated_moment`).  Other p
    take scalar bounds and integrate between the clip points by quadrature,
    cut at TAIL_SIGMAS.  The mass beyond a finite clip point sits on it.
    """
    if sd == 0.0:
        return f(np.abs(np.clip(bias, lo, hi)))
    closed = f.p in (1.0, 2.0)
    if closed and np.isinf(lo).all():
        return float(folded_normal_mean(bias, sd)) if f.p == 1.0 else bias * bias + sd * sd
    if closed:
        total = _truncated_moment(f.p, bias, sd, lo, hi)
    else:
        a, b = max(lo, bias - TAIL_SIGMAS * sd), min(hi, bias + TAIL_SIGMAS * sd)
        total = integrate(lambda t: abs(t) ** f.p * normal_pdf(t, bias, sd), a, max(a, b), tol=1e-12)
    if np.isfinite(lo).all():
        total += f(-lo) * normal_cdf(lo, bias, sd) + f(hi) * (1.0 - normal_cdf(hi, bias, sd))
    return total


def _stay_out_loss(agent: Agent, env: Environment) -> float:
    """sum_{j != i} E f(|R_ij - r_j|), the accuracy loss of agent i's own observations.

    Clamping clips R_ij to [0, 1], so the error is clipped to [-r_j, 1 - r_j]
    and its expectation differs from peer to peer.
    """
    f = agent.utility.f
    bias, sd = agent.cross_obs.mean, agent.cross_obs.std
    if not env.clamp_observations:
        return (env.k - 1) * float(_clipped_loss(f, bias, sd, -math.inf, math.inf))
    peers = np.delete(env.qualities, agent.id)
    if f.p in (1.0, 2.0) or sd == 0.0:
        # The closed forms take every peer's clip window at once.
        return math.fsum(_clipped_loss(f, bias, sd, -peers, 1.0 - peers).tolist())
    return math.fsum(_clipped_loss(f, bias, sd, -r, 1.0 - r) for r in peers.tolist())


def as_ir_gain(agent: Agent, env: Environment) -> float:
    """Expected accuracy gain a truth-driven agent gets from participating.

    Outside the system the agent lives with its own noisy observations of
    the other K-1 participants; inside, scoring taxes support everyone
    reporting truthfully and the accuracy loss vanishes.  The gain
    sum_{j != i} E[f(|R_ij - r_jj|)] is therefore nonnegative for any
    convex increasing f with f(0) = 0.  Clamped environments clip R_ij to
    [0, 1].
    """
    if not isinstance(agent.agent_type, Truth):
        raise ValueError("individual-rationality gain is defined for truth-driven agents")
    return _stay_out_loss(agent, env)


# ---------------------------------------------------------------------------
# Participation with mixed populations
# ---------------------------------------------------------------------------


def _census(env: Environment, focal_id: int) -> tuple[list[Agent], float, float]:
    others = [ag for ag in env.agents if ag.id != focal_id]
    image_driven = [ag for ag in others if ag.utility.truth_weight < 1.0]
    n_truth = sum(isinstance(ag.agent_type, Truth) for ag in others)
    return image_driven, len(image_driven) / (env.k - 1), n_truth / (env.k - 1)


def _equilibrium_inflation(agent: Agent) -> float:
    """Equilibrium self-report overshoot min(r + (1-lambda)/2, 1) - r."""
    r = float(agent.quality)
    return mixed_best_response_as(Linear(), r, 1.0 - agent.utility.truth_weight) - r


def closed_forms_apply(env: Environment, agent: Agent) -> bool:
    """Whether the closed participation rule decides for ``agent`` under ``method="auto"``.

    The rules assume absolute targets, an unbiased and unclamped system
    channel, no uniform-random or colluding reporter and linear image
    payoffs.  A truth-driven focal agent also needs quadratic accuracy loss,
    an image-driven one truth weight 0.
    """
    if env.clamp_observations or env.index_scheme != "absolute" or env.system_obs.mean != 0.0:
        return False
    for ag in env.agents:
        if isinstance(ag.agent_type, (MaliciousRandom, Colluder)):
            return False
        if ag.utility.truth_weight < 1.0 and not isinstance(ag.utility.g, Linear):
            return False
    if isinstance(agent.agent_type, Truth):
        return agent.utility.f.p == 2.0
    return agent.utility.truth_weight == 0.0


def participation_utilities(
    env: Environment, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's (u_in, u_out) under scoring at equilibrium play, two (K,) arrays.

    Both come from one engine call, ``simulate`` of one scoring arm.
    ``u_in`` is the mean realized utility inside the system, as
    ``run_trials`` reports it.  ``u_out`` is the utility of staying out,
    -lambda_i * sum_{j != i} E f_i(|R_ij - r_j|) + (1 - lambda_i) * E g_i(R_i):
    the accuracy half reads no report and is exact, and the image half
    averages g_i over the engine's system observation of agent i, which is
    clamped exactly when the environment clamps.
    """
    lam = np.array([ag.utility.truth_weight for ag in env.agents])

    def reduce(draw, batches, workspace) -> list[dict]:
        distinct, errors, _ = _errors(draw.reps, env, workspace)
        utils = batch_true_utilities(distinct, errors, draw.taxes, env, workspace=workspace)
        # Each agent's payoff once over the run; a linear one is a view.
        images = [ag.utility.g(draw.r0[:, i]) for i, ag in enumerate(env.agents)]
        return [
            {
                "utils": utils[rows].sum(axis=0),
                "image": np.array([image[rows].sum() for image in images]),
            }
            for rows in batches
        ]

    (totals,) = simulate([Arm(env, AS(), reduce)], trials, seed)
    accuracy = np.array([_stay_out_loss(ag, env) for ag in env.agents])
    return totals["utils"] / trials, -lam * accuracy + (1.0 - lam) * (totals["image"] / trials)


def _focal(env: Environment, agent_id: int, method: str) -> tuple[Agent, bool]:
    """The focal agent, and whether the closed rule decides its verdict."""
    if method not in ("auto", "closed", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if not 0 <= agent_id < env.k:
        raise ValueError(f"agent {agent_id} is not part of the environment")
    agent = env.agents[agent_id]
    return agent, method == "closed" or (method == "auto" and closed_forms_apply(env, agent))


def hetero_truth_participation(
    env: Environment,
    trials: int = 200_000,
    seed: int = 0,
    method: str = "auto",
    focal: int | None = None,
) -> ParticipationReport:
    """Voluntary-participation verdict for a truth-driven agent.

    ``focal`` selects the agent by id; by default the first truth-driven
    agent is examined.

    With quadratic accuracy loss and linear image payoffs the comparison is
    closed-form: staying out costs the accuracy of own observations,
    -(K-1) * E[(R_ij - r_jj)^2], while joining costs only the equilibrium
    inflation of the image-driven participants,
    -sum_j delta_j^2 * (1 - 1/(K-1)) (the system-observation noise cancels
    against the tax redistribution).  Where :func:`closed_forms_apply` says
    no, ``method="auto"`` compares :func:`participation_utilities`.
    """
    if focal is None:
        focal = next((ag.id for ag in env.agents if isinstance(ag.agent_type, Truth)), None)
        if focal is None:
            raise ValueError("environment has no truth-driven agent")
    agent, use_closed = _focal(env, focal, method)
    if not isinstance(agent.agent_type, Truth):
        raise ValueError(f"agent {focal} is not truth-driven")
    image_driven, rho, gamma = _census(env, focal)

    if use_closed:
        bias, sd = agent.cross_obs.mean, agent.cross_obs.std
        u_out = -(env.k - 1) * (bias * bias + sd * sd)
        inflation_sq = math.fsum(_equilibrium_inflation(ag) ** 2 for ag in image_driven)
        u_in = -inflation_sq * (1.0 - 1.0 / (env.k - 1))
    else:
        u_in, u_out = (float(u[focal]) for u in participation_utilities(env, trials, seed))
    return ParticipationReport(
        u_in=u_in, u_out=u_out, participates=u_in >= u_out, rho=rho, gamma=gamma
    )


def hetero_image_participation(
    agent: Agent,
    env: Environment,
    trials: int = 200_000,
    seed: int = 0,
    method: str = "auto",
) -> ParticipationReport:
    """Voluntary-participation verdict for one image-driven agent.

    Linear closed form: staying out yields the platform's direct estimate,
    u_out = r; joining yields the inflated report minus the expected own
    validation tax plus the redistributed taxes of the other image users,
    u_in = x* - 1/4 + rho/4 with x* = min(r + 1/2, 1).  The verdict reduces
    to min(r + 1/2, 1) - r >= gamma/4 when the others are all truth- or
    image-driven, so low-quality agents (r <= 1/2) always join.

    The closed form is exact only when every image-driven quality is at most
    1/2.  Above that the report is capped at 1 and the own expected tax is
    (1 - r)^2, not 1/4, and the closed u_in departs from the simulated one
    (0.8125 closed against 0.9947 simulated in one configuration).  The rule
    is kept as the paper states it; ``method="mc"`` gives the simulated value.
    """
    if agent.utility.truth_weight >= 1.0 or isinstance(
        agent.agent_type, (MaliciousRandom, Colluder)
    ):
        raise ValueError("participation comparison is for image-driven agents")
    _, use_closed = _focal(env, agent.id, method)
    _, rho, gamma = _census(env, agent.id)

    if use_closed:
        r = float(agent.quality)
        u_in, u_out = min(r + 0.5, 1.0) - 0.25 + 0.25 * rho, r
    else:
        u_in, u_out = (float(u[agent.id]) for u in participation_utilities(env, trials, seed))
    return ParticipationReport(
        u_in=u_in, u_out=u_out, participates=u_in >= u_out, rho=rho, gamma=gamma
    )


def _gain_terms(env: Environment) -> tuple[float, float]:
    """The two sides :func:`hetero_system_gain` compares: the image-driven
    slopes sum_i g_i'(r_i) / (K - 1) and the budget 2*sqrt(2/pi)*sigma."""
    slopes = math.fsum(
        ag.utility.g.derivative(float(ag.quality))
        for ag in env.agents
        if ag.utility.truth_weight < 1.0
    )
    return slopes / (env.k - 1), 2.0 * _SQRT_2_OVER_PI * env.system_obs.std


def hetero_system_gain(env: Environment) -> bool:
    """Whether scoring-backed reporting beats the platform observing alone.

    Equilibrium inflation of each image-driven agent (truth weight below 1)
    contributes about g'(r)/2 of error, while direct observation costs
    sqrt(2/pi)*sigma per agent.  The one rule is
    sum_i g_i'(r_i) / (K - 1) < 2*sqrt(2/pi)*sigma over the image-driven
    agents.  A linear payoff has slope 1, so with linear payoffs the left
    side is the image-driven fraction rho, the paper's test.
    """
    rho, budget = _gain_terms(env)
    return rho < budget


# ---------------------------------------------------------------------------
# Collusion cost and weighted aggregation
# ---------------------------------------------------------------------------


def collusion_expected_tax(a: float, b: float, r_target, sigma: float) -> float:
    """Expected validation discrepancy for a manipulated cross-report.

    A sender who transforms its observation R ~ N(r, sigma^2) into a*R + b
    is checked against an honest neighbour's report of the same subject, so
    the discrepancy Z = |a*R + b - R'| is folded Normal with mean
    (a-1)*r + b and variance (1 + a^2)*sigma^2.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = float(r_target)
    mu_hat = (a - 1.0) * r + b
    sigma_hat = math.sqrt(1.0 + a * a) * sigma
    return float(folded_normal_mean(mu_hat, sigma_hat))


def weighted_variance_check(weights, sigmas) -> bool:
    """Whether the weighted cross-report aggregate beats uniform weighting.

    True iff sum w_j^2 sigma_j^2 <= sum (1/n)^2 sigma_j^2 after normalizing
    the weights to sum one.
    """
    w = np.asarray(weights, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    if w.shape != s.shape or w.ndim != 1:
        raise DimensionMismatch(
            f"weights shape {w.shape} does not match sigmas shape {s.shape}"
        )
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = math.fsum(w.tolist())
    if total <= 0.0:
        raise ValueError("weights must not all be zero")
    w = w / total
    uniform = np.full(w.shape[0], 1.0 / w.shape[0])
    return math.fsum((w * w * s * s).tolist()) <= math.fsum(
        (uniform * uniform * s * s).tolist()
    )


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
    of constant self-reports (:func:`replab.strategies.resolve_self_reports`).
    ``agents``
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
