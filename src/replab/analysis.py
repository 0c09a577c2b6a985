"""Closed-form and Monte Carlo accuracy / participation metrics.

This module answers the evaluation questions about a configured market:
how far published reputations sit from the centralized solution, how the
punish-reward band trades inflation against error, when truth-driven and
image-driven users volunteer to participate, and what a manipulated
cross-report costs its sender in validation taxes.

Closed forms are used exactly where the derivations hold (quadratic
accuracy loss, linear image payoff, unbiased observation channels); every
other configuration falls back to Monte Carlo utility comparison under
equilibrium play.
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
)
from .numerics import (
    TAIL_SIGMAS,
    folded_normal_mean,
    integrate,
    normal_pdf,
)
from .simulator import BATCH_TRIALS, ScenarioConfig, run_trials
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
    "hetero_truth_participation",
    "hetero_image_participation",
    "image_participation_rule",
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


def as_ir_gain(agent: Agent, env: Environment) -> float:
    """Expected accuracy gain a truth-driven agent gets from participating.

    Outside the system the agent lives with its own noisy observations of
    the other K-1 participants; inside, scoring taxes support everyone
    reporting truthfully and the accuracy loss vanishes.  The gain
    sum_{j != i} E[f(|R_ij - r_jj|)] is therefore nonnegative for any
    convex increasing f with f(0) = 0.
    """
    if not isinstance(agent.agent_type, Truth):
        raise ValueError("individual-rationality gain is defined for truth-driven agents")
    f = agent.utility.f
    bias, sd = agent.cross_obs.mean, agent.cross_obs.std
    if f.p == 1.0:
        per_peer = float(folded_normal_mean(bias, sd))
    elif f.p == 2.0:
        per_peer = bias * bias + sd * sd
    elif sd == 0.0:
        per_peer = abs(bias) ** f.p
    else:
        per_peer = integrate(
            lambda t: abs(t) ** f.p * normal_pdf(t, bias, sd),
            bias - TAIL_SIGMAS * sd,
            bias + TAIL_SIGMAS * sd,
            tol=1e-12,
        )
    return (env.k - 1) * per_peer


# ---------------------------------------------------------------------------
# Participation with mixed populations
# ---------------------------------------------------------------------------


def _census(env: Environment, focal_id: int) -> tuple[list[Agent], list[Agent], float, float]:
    others = [ag for ag in env.agents if ag.id != focal_id]
    image_driven = [ag for ag in others if ag.utility.truth_weight < 1.0]
    truth_driven = [ag for ag in others if isinstance(ag.agent_type, Truth)]
    denom = env.k - 1
    return image_driven, truth_driven, len(image_driven) / denom, len(truth_driven) / denom


def _equilibrium_inflation(agent: Agent) -> float:
    """Equilibrium self-report overshoot min(r + (1-lambda)/2, 1) - r."""
    w = 1.0 - agent.utility.truth_weight
    r = float(agent.quality)
    return min(r + 0.5 * w, 1.0) - r


def _closed_forms_apply(env: Environment, focal: Agent) -> bool:
    if env.index_scheme != "absolute" or env.system_obs.mean != 0.0:
        return False
    for ag in env.agents:
        if isinstance(ag.agent_type, (MaliciousRandom, Colluder)):
            return False
        if ag.utility.truth_weight < 1.0 and not isinstance(ag.utility.g, Linear):
            return False
    f = focal.utility.f
    return isinstance(f, AbsPower) and f.p == 2.0


def _mc_stay_out_utility(
    env: Environment, focal_index: int, trials: int, seed: int
) -> float:
    """Mean utility from staying outside: accuracy from own observations of
    the others plus the image value of the platform's direct estimate."""
    focal = env.agents[focal_index]
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    )
    lam = focal.utility.truth_weight
    partials = []
    done = 0
    while done < trials:
        chunk = min(BATCH_TRIALS, trials - done)
        obs = rng.normal(
            focal.cross_obs.mean, focal.cross_obs.std, size=(chunk, env.k)
        ) + env.qualities[None, :]
        own_estimate = rng.normal(
            float(focal.quality) + env.system_obs.mean, env.system_obs.std, size=chunk
        )
        if env.clamp_observations:
            obs = np.clip(obs, 0.0, 1.0)
            own_estimate = np.clip(own_estimate, 0.0, 1.0)
        total = 0.0
        if lam > 0.0:
            errors = np.abs(obs - env.qualities[None, :])
            per_peer = focal.utility.f(errors).sum(axis=0)
            accuracy = -math.fsum(
                float(per_peer[j]) for j in range(env.k) if j != focal_index
            )
            total += lam * accuracy
        if lam < 1.0:
            total += (1.0 - lam) * float(focal.utility.g(own_estimate).sum())
        partials.append(total)
        done += chunk
    return math.fsum(partials) / trials


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
    against the tax redistribution).  Other utility families are compared
    by Monte Carlo under equilibrium play.
    """
    if method not in ("auto", "closed", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if focal is None:
        focal_index = next(
            (i for i, ag in enumerate(env.agents) if isinstance(ag.agent_type, Truth)),
            None,
        )
        if focal_index is None:
            raise ValueError("environment has no truth-driven agent")
    else:
        focal_index = next(
            (i for i, ag in enumerate(env.agents) if ag.id == focal), None
        )
        if focal_index is None:
            raise ValueError(f"agent {focal} is not part of the environment")
        if not isinstance(env.agents[focal_index].agent_type, Truth):
            raise ValueError(f"agent {focal} is not truth-driven")
    focal_agent = env.agents[focal_index]
    image_driven, _, rho, gamma = _census(env, focal_agent.id)

    use_closed = method == "closed" or (
        method == "auto" and _closed_forms_apply(env, focal_agent)
    )
    if use_closed:
        bias, sd = focal_agent.cross_obs.mean, focal_agent.cross_obs.std
        u_out = -(env.k - 1) * (bias * bias + sd * sd)
        inflation_sq = math.fsum(_equilibrium_inflation(ag) ** 2 for ag in image_driven)
        u_in = -inflation_sq * (1.0 - 1.0 / (env.k - 1))
    else:
        stats = run_trials(ScenarioConfig(env, AS(), "equilibrium", trials, seed))
        u_in = float(stats.per_agent_utility_mean[focal_index])
        u_out = _mc_stay_out_utility(env, focal_index, trials, seed)
    return ParticipationReport(
        u_in=u_in, u_out=u_out, participates=u_in >= u_out, rho=rho, gamma=gamma
    )


def image_participation_rule(r: float, rho: float) -> tuple[float, float]:
    """The paper's closed (u_in, u_out) for an image-driven agent of quality ``r``.

    u_in = x* - 1/4 + rho/4 with x* = min(r + 1/2, 1), and u_out = r;
    ``rho`` is the image-driven fraction of the other participants.  The
    agent joins when u_in >= u_out, computed in exactly this arithmetic.
    """
    x_star = min(r + 0.5, 1.0)
    return x_star - 0.25 + 0.25 * rho, r


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
    if method not in ("auto", "closed", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if agent.utility.truth_weight >= 1.0 or isinstance(
        agent.agent_type, (MaliciousRandom, Colluder)
    ):
        raise ValueError("participation comparison is for image-driven agents")
    focal_index = next(
        (i for i, ag in enumerate(env.agents) if ag.id == agent.id), None
    )
    if focal_index is None:
        raise ValueError(f"agent {agent.id} is not part of the environment")
    image_driven, _, rho, gamma = _census(env, agent.id)

    closed_ok = (
        agent.utility.truth_weight == 0.0
        and isinstance(agent.utility.g, Linear)
        and env.index_scheme == "absolute"
        and env.system_obs.mean == 0.0
        and all(isinstance(ag.utility.g, Linear) for ag in image_driven)
        and not any(
            isinstance(ag.agent_type, (MaliciousRandom, Colluder)) for ag in env.agents
        )
    )
    use_closed = method == "closed" or (method == "auto" and closed_ok)
    if use_closed:
        u_in, u_out = image_participation_rule(float(agent.quality), rho)
    else:
        stats = run_trials(ScenarioConfig(env, AS(), "equilibrium", trials, seed))
        u_in = float(stats.per_agent_utility_mean[focal_index])
        u_out = _mc_stay_out_utility(env, focal_index, trials, seed)
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
