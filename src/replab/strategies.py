"""Best responses and equilibrium self-reports.

Closed-form best responses: the punish-reward equilibrium self-report
(``solve_y`` / ``pr_optimal_self_report``), the scoring-mechanism first-order
condition for image-motivated and mixed agents (``mixed_best_response_as``;
a weight of 1 on the image element gives the purely image-motivated
report), and the deterministic deviation payoffs under share-of-total
allocation (``proportional_deviation_profit``).  ``resolve_self_reports``
maps each agent type to its constant equilibrium self-report; pairs
without an analytical best response raise :class:`UnsupportedCombination`
rather than inventing behavior.

Aggregate noise convention: the punish-reward band is calibrated to
``sigma_prime``, the standard deviation of the averaging aggregate.  With a
common observation noise sigma it equals sigma/sqrt(K);
:func:`aggregate_sigma_prime` generalizes to per-agent noise levels by using
the root-mean-square of all K+1 noise sources (the K agents plus the system
channel), which reduces to sigma/sqrt(K) in the homogeneous case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .core import (
    AS,
    Agent,
    Colluder,
    DirectObservation,
    Environment,
    Linear,
    MaliciousRandom,
    MechanismSpec,
    PR,
    Power,
    SimpleAveraging,
    Truth,
    WeightedPR,
)
from .numerics import NoRoot, erf, find_root, normal_cdf, normal_pdf

__all__ = [
    "UnsupportedCombination",
    "PrEquilibrium",
    "solve_y",
    "expected_pr_reputation",
    "pr_optimal_self_report",
    "pr_mae",
    "mixed_best_response_as",
    "aggregate_sigma_prime",
    "resolve_self_reports",
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
        if not self.a > 0.0:
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
    if not a > 0.0:
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
    if not sigma_prime > 0.0:
        raise ValueError(f"sigma_prime must be positive, got {sigma_prime!r}")
    if not eps > 0.0:
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
    if not sigma_prime > 0.0:
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
    if not sigma_prime > 0.0:
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
