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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DimensionMismatch,
    Environment,
    Linear,
    MaliciousRandom,
    Truth,
    batch_true_utilities,
)
from .numerics import (
    TAIL_SIGMAS,
    folded_normal_mean,
    integrate,
    normal_cdf,
    normal_pdf,
)
from .simulator import Arm, simulate
from .strategies import (
    expected_pr_reputation,
    pr_mae,
    pr_optimal_self_report,
)

__all__ = [
    "ParticipationReport",
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
        eq = pr_optimal_self_report(0.0, sigma_prime, a)
        inflation = expected_pr_reputation(eq.x_star, 0.0, sigma_prime, a * sigma_prime)
        if inflation > 0.0 and pr_mae(a, sigma_prime) < averaging_mae:
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
    w = 1.0 - agent.utility.truth_weight
    r = float(agent.quality)
    return min(r + 0.5 * w, 1.0) - r


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

    def reduce(system_obs, selfs, reps, taxes, batches, workspace) -> list[dict]:
        utils = batch_true_utilities(reps, taxes, env, workspace=workspace)
        # Each agent's payoff once over the run; a linear one is a view.
        images = [ag.utility.g(system_obs[:, i]) for i, ag in enumerate(env.agents)]
        return [
            {
                "utils": utils[rows].sum(axis=0),
                "image": np.array([image[rows].sum() for image in images]),
            }
            for rows in batches
        ]

    (totals,) = simulate([Arm(env, AS(), reduce, scratch=True)], trials, seed)
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


def hetero_system_gain(env: Environment) -> bool:
    """Whether scoring-backed reporting beats the platform observing alone.

    Equilibrium inflation of each image-driven agent contributes about
    g'(r)/2 of error, while direct observation costs sqrt(2/pi)*sigma per
    agent.  With linear image payoffs the comparison is the literal
    fraction test rho < 2*sqrt(2/pi)*sigma; for general g the derivative
    sum is compared against the same budget, sum g'(r_i) <
    2*sqrt(2/pi)*K*sigma.
    """
    image_driven = [ag for ag in env.agents if ag.utility.truth_weight < 1.0]
    sigma = env.system_obs.std
    if all(isinstance(ag.utility.g, Linear) for ag in image_driven):
        rho = len(image_driven) / (env.k - 1)
        return rho < 2.0 * _SQRT_2_OVER_PI * sigma
    total = math.fsum(
        ag.utility.g.derivative(float(ag.quality)) for ag in image_driven
    )
    return total < 2.0 * _SQRT_2_OVER_PI * env.k * sigma


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
