"""Accuracy and participation metrics against Monte Carlo / algebraic oracles.

The punish-reward error curve is checked against raw simulation of the
piecewise rule, the collusion tax against sampled discrepancies, the
individual-rationality gain against known absolute-moment identities, and
the participation closed forms against both hand substitution and the
module's own Monte Carlo fallback path.
"""

import dataclasses
import math

import numpy as np
import pytest

from replab.analysis import (
    ParticipationReport,
    _clipped_loss,
    as_ir_gain,
    closed_forms_apply,
    collusion_expected_tax,
    hetero_image_participation,
    hetero_system_gain,
    hetero_truth_participation,
    participation_utilities,
    pr_mae,
    pr_mutual_benefit_region,
    weighted_variance_check,
)
from replab.core import (
    AbsPower,
    Agent,
    DimensionMismatch,
    DirectObservation,
    Environment,
    AS,
    Image,
    Linear,
    Mixed,
    Power,
    Quality,
    Truth,
    UtilitySpec,
)
from replab.mechanisms import run_batch
from replab.numerics import (
    TAIL_SIGMAS,
    NormalParams,
    folded_normal_mean,
    integrate,
    minimize_1d,
    normal_cdf,
    normal_pdf,
)
from replab.simulator import ScenarioConfig, run_trials
from replab.strategies import pr_optimal_self_report

_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _agent(i, r, kind, lam, p=2.0, g=None, sigma=0.1):
    return Agent(
        id=i,
        quality=Quality(r),
        agent_type=kind,
        utility=UtilitySpec(f=AbsPower(p), g=g or Linear(), truth_weight=lam),
        cross_obs=NormalParams(0.0, sigma),
    )


def _mixed_population(n_truth, n_image, image_r=0.25, sigma=0.3, sigma0=0.1):
    """Focal truth agent first, then truth peers, then interior image users."""
    agents = [_agent(0, 0.5, Truth(), 1.0, sigma=sigma)]
    for i in range(1, n_truth):
        agents.append(_agent(i, 0.4, Truth(), 1.0, sigma=sigma))
    for i in range(n_truth, n_truth + n_image):
        agents.append(_agent(i, image_r, Image(), 0.0, sigma=sigma))
    return Environment(agents=tuple(agents), system_obs=NormalParams(0.0, sigma0))


# ---------------------------------------------------------------------------
# Total error
# ---------------------------------------------------------------------------


def test_mae_total_direct_observation_baseline():
    sigma = 0.2
    env = Environment(
        agents=tuple(_agent(i, r, Truth(), 1.0) for i, r in enumerate([0.2, 0.5, 0.8])),
        system_obs=NormalParams(0.0, sigma),
    )
    rng = np.random.default_rng(21)
    trials = 200_000
    obs = rng.normal(env.qualities[None, :], sigma, size=(trials, 3))
    reps, taxes = run_batch(DirectObservation(), None, None, obs)
    total = np.abs(reps - env.qualities[None, :]).sum(axis=1).mean()
    expected = _ROOT_2_OVER_PI * 3 * sigma
    assert total == pytest.approx(expected, rel=0.02)
    assert np.all(taxes == 0.0)


# ---------------------------------------------------------------------------
# Punish-reward error curve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,sp", [(1.7, 0.1), (3.0, 0.05), (0.6, 0.2)])
def test_pr_mae_matches_monte_carlo(a, sp):
    x_star = pr_optimal_self_report(0.0, sp, a).x_star
    eps = a * sp
    rng = np.random.default_rng(5)
    xbar = rng.normal(0.0, sp, size=1_000_000)
    gap = np.abs(x_star - xbar)
    published = np.where(gap <= eps, 0.5 * (x_star + xbar), xbar - gap)
    err = np.abs(published)
    assert pr_mae(a, sp) == pytest.approx(
        err.mean(), abs=3 * err.std(ddof=1) / 1000.0
    )


def test_pr_mae_minimum_location():
    best_a, best_val = minimize_1d(lambda a: pr_mae(a, 0.1), 0.5, 5.0)
    assert best_a == pytest.approx(1.7, abs=0.1)
    assert best_val < _ROOT_2_OVER_PI * 0.1  # beats simple averaging


def test_pr_mae_scales_linearly_in_noise():
    assert pr_mae(2.3, 0.2) == pytest.approx(2.0 * pr_mae(2.3, 0.1), rel=1e-8)
    a_lo, _ = minimize_1d(lambda a: pr_mae(a, 0.05), 0.5, 5.0)
    a_hi, _ = minimize_1d(lambda a: pr_mae(a, 0.25), 0.5, 5.0)
    assert a_lo == pytest.approx(a_hi, abs=2e-3)


def test_pr_mae_rejects_bad_noise():
    with pytest.raises(ValueError):
        pr_mae(2.0, 0.0)


def test_pr_mutual_benefit_region():
    grid = [0.1, 1.0, 2.25, 3.0, 5.0]
    region = pr_mutual_benefit_region(0.1, grid)
    assert 2.25 in region
    assert 0.1 not in region
    assert region <= set(grid)
    # Membership is a pointwise property: refining the grid cannot flip
    # the verdict of an existing point.
    assert (2.25 in pr_mutual_benefit_region(0.1, [2.25])) == (2.25 in region)
    # The criteria are scale-free in sigma'.
    assert pr_mutual_benefit_region(0.02, grid) == region


# ---------------------------------------------------------------------------
# Individual rationality of scoring taxes
# ---------------------------------------------------------------------------


def test_as_ir_gain_known_moments():
    env = Environment(
        agents=tuple(_agent(i, 0.5, Truth(), 1.0, p=1.0) for i in range(3))
    )
    agent = env.agents[0]
    assert as_ir_gain(agent, env) == pytest.approx(2 * _ROOT_2_OVER_PI * 0.1)

    env2 = Environment(
        agents=tuple(_agent(i, 0.5, Truth(), 1.0, p=2.0) for i in range(3))
    )
    assert as_ir_gain(env2.agents[0], env2) == pytest.approx(2 * 0.01)

    noiseless = Environment(
        agents=tuple(_agent(i, 0.5, Truth(), 1.0, p=1.0, sigma=0.0) for i in range(3))
    )
    assert as_ir_gain(noiseless.agents[0], noiseless) == 0.0


def test_as_ir_gain_general_exponent_quadrature():
    # E|N(0, s)|^3 = 2 * sqrt(2/pi) * s^3.
    env = Environment(
        agents=tuple(_agent(i, 0.5, Truth(), 1.0, p=3.0) for i in range(3))
    )
    assert as_ir_gain(env.agents[0], env) == pytest.approx(
        2 * 2 * _ROOT_2_OVER_PI * 0.1**3, rel=1e-9
    )


def test_as_ir_gain_rejects_non_truth():
    env = Environment(
        agents=(
            _agent(0, 0.5, Image(), 0.0),
            _agent(1, 0.5, Truth(), 1.0),
        )
    )
    with pytest.raises(ValueError):
        as_ir_gain(env.agents[0], env)


# ---------------------------------------------------------------------------
# Participation with mixed populations
# ---------------------------------------------------------------------------


def test_participation_report_consistency_guards():
    with pytest.raises(ValueError):
        ParticipationReport(u_in=1.0, u_out=0.0, participates=False, rho=0.5, gamma=0.5)
    with pytest.raises(ValueError):
        ParticipationReport(u_in=1.0, u_out=0.0, participates=True, rho=1.5, gamma=0.5)


def test_truth_participation_worked_example():
    env = _mixed_population(n_truth=7, n_image=4, sigma=0.35)
    report = hetero_truth_participation(env)
    assert report.u_out == pytest.approx(-1.225, abs=1e-12)
    assert report.u_in == pytest.approx(-0.9, abs=1e-12)
    assert report.participates
    assert report.rho == pytest.approx(0.4)
    assert report.gamma == pytest.approx(0.6)


def test_truth_participation_no_image_users():
    env = _mixed_population(n_truth=5, n_image=0)
    report = hetero_truth_participation(env)
    assert report.u_in == 0.0
    assert report.participates
    assert report.rho == 0.0 and report.gamma == 1.0


def test_truth_participation_exact_boundary():
    # Four interior image users (inflation 1/2 each) against sigma chosen so
    # the exact comparison lands on the boundary: sum_delta^2 (1 - 1/(K-1))
    # equals (K-1) sigma^2 at sigma = 0.3, K = 11.
    env = _mixed_population(n_truth=7, n_image=4, sigma=0.3)
    report = hetero_truth_participation(env)
    assert abs(report.u_in - report.u_out) <= 1e-12


def test_truth_participation_closed_matches_monte_carlo():
    env = _mixed_population(n_truth=3, n_image=2, sigma=0.3)
    closed = hetero_truth_participation(env, method="closed")
    mc = hetero_truth_participation(env, trials=400_000, seed=3, method="mc")
    assert mc.u_in == pytest.approx(closed.u_in, abs=0.01)
    assert mc.u_out == pytest.approx(closed.u_out, abs=0.01)


def test_truth_participation_requires_truth_agent():
    env = Environment(
        agents=(_agent(0, 0.4, Image(), 0.0), _agent(1, 0.6, Image(), 0.0))
    )
    with pytest.raises(ValueError):
        hetero_truth_participation(env)


def _image_env(focal_r, n_truth, n_image_others):
    agents = [_agent(0, focal_r, Image(), 0.0)]
    for i in range(1, 1 + n_truth):
        agents.append(_agent(i, 0.4, Truth(), 1.0))
    for i in range(1 + n_truth, 1 + n_truth + n_image_others):
        agents.append(_agent(i, 0.25, Image(), 0.0))
    return Environment(agents=tuple(agents))


def test_image_participation_low_quality_always_joins():
    env = _image_env(0.3, n_truth=9, n_image_others=0)  # gamma = 1, worst case
    report = hetero_image_participation(env.agents[0], env)
    assert report.participates
    assert report.gamma == pytest.approx(1.0)


def test_image_participation_high_quality_thresholds():
    # r = 0.9: joins iff gamma <= 4 (1 - r) = 0.4.
    env = _image_env(0.9, n_truth=2, n_image_others=2)  # gamma = 0.5
    report = hetero_image_participation(env.agents[0], env)
    assert not report.participates
    assert report.gamma == pytest.approx(0.5)

    env = _image_env(0.9, n_truth=3, n_image_others=7)  # gamma = 0.3
    report = hetero_image_participation(env.agents[0], env)
    assert report.participates
    assert report.gamma == pytest.approx(0.3)


def test_image_participation_closed_matches_monte_carlo():
    env = _image_env(0.3, n_truth=3, n_image_others=1)
    closed = hetero_image_participation(env.agents[0], env, method="closed")
    mc = hetero_image_participation(
        env.agents[0], env, trials=400_000, seed=5, method="mc"
    )
    assert mc.u_in == pytest.approx(closed.u_in, abs=0.01)
    assert mc.u_out == pytest.approx(closed.u_out, abs=0.01)


def test_image_participation_guards():
    env = _image_env(0.3, n_truth=2, n_image_others=0)
    with pytest.raises(ValueError):
        hetero_image_participation(env.agents[1], env)  # truth-driven focal
    stranger = _agent(7, 0.3, Image(), 0.0)
    with pytest.raises(ValueError):
        hetero_image_participation(stranger, env)


def _clamped_extremes(clamp=True):
    """Truth agents near the clip points and a high-quality image agent, sigma 0.3."""
    agents = [
        _agent(i, r, Truth(), 1.0, sigma=0.3) for i, r in enumerate([0.5, 0.05, 0.95, 0.02])
    ]
    agents.append(_agent(4, 0.9, Image(), 0.0, sigma=0.3))
    return Environment(
        agents=tuple(agents), system_obs=NormalParams(0.0, 0.3), clamp_observations=clamp
    )


def test_auto_method_declines_the_closed_rules_under_clamping():
    # The closed rules assume unclamped noise: they give the truth agent
    # u_out = -4 * 0.3^2 = -0.36 and the image agent u_out = r = 0.9, where
    # clipped observations cost about -0.19 and earn about 0.83.
    env = _clamped_extremes()
    assert not closed_forms_apply(env, env.agents[0])
    assert not closed_forms_apply(env, env.agents[4])
    assert closed_forms_apply(_clamped_extremes(clamp=False), env.agents[0])

    truth = hetero_truth_participation(env, trials=4096, seed=2)
    assert truth == hetero_truth_participation(env, trials=4096, seed=2, method="mc")
    assert truth.u_out == pytest.approx(-0.186, abs=0.005)
    image = hetero_image_participation(env.agents[4], env, trials=4096, seed=2)
    assert image == hetero_image_participation(
        env.agents[4], env, trials=4096, seed=2, method="mc"
    )
    assert image.u_out < 0.85


def _quadrature_clipped_loss(p, bias, sd, lo, hi):
    """E |clip(e, lo, hi)|^p by adaptive quadrature on each side of 0, plus
    the point masses on the clip points."""
    total = 0.0
    for c, d in ((lo, 0.0), (0.0, hi)):
        a, b = max(c, bias - TAIL_SIGMAS * sd), min(d, bias + TAIL_SIGMAS * sd)
        if b > a:
            total += integrate(lambda t: abs(t) ** p * normal_pdf(t, bias, sd), a, b, tol=1e-13)
    tails = normal_cdf(lo, bias, sd), 1.0 - normal_cdf(hi, bias, sd)
    return total + abs(lo) ** p * tails[0] + hi**p * tails[1]


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("sd", [0.01, 0.1, 0.3])
def test_clipped_loss_closed_form_matches_quadrature(p, sd):
    # Clip windows [-r, 1 - r] for qualities at, near and away from the ends.
    qualities = np.array([0.0, 0.02, 0.3, 0.5, 0.97, 1.0])
    for bias in (-0.2, -0.05, 0.0, 0.03, 0.15):
        closed = _clipped_loss(AbsPower(p), bias, sd, -qualities, 1.0 - qualities)
        for r, value in zip(qualities.tolist(), closed.tolist()):
            assert value == _clipped_loss(AbsPower(p), bias, sd, -r, 1.0 - r)
            want = _quadrature_clipped_loss(p, bias, sd, -r, 1.0 - r)
            assert abs(value - want) <= 1e-10, (p, bias, sd, r, value, want)


def _stay_out_oracle(env, i, trials, seed):
    """Dense sampling of agent i's stay-out utility: its own observations of
    every other agent and the platform's direct estimate of it, clipped to
    [0, 1] when the environment clamps.  Returns the mean, its standard
    error, and the standard deviation of the image term g(estimate)."""
    agent = env.agents[i]
    rng = np.random.Generator(np.random.Philox(seed))
    obs = rng.normal(agent.cross_obs.mean, agent.cross_obs.std, size=(trials, env.k))
    obs += env.qualities[None, :]
    estimate = rng.normal(
        float(agent.quality) + env.system_obs.mean, env.system_obs.std, size=trials
    )
    if env.clamp_observations:
        obs = np.clip(obs, 0.0, 1.0)
        estimate = np.clip(estimate, 0.0, 1.0)
    loss = agent.utility.f(np.abs(obs - env.qualities[None, :]))
    loss[:, i] = 0.0
    lam = agent.utility.truth_weight
    image = agent.utility.g(estimate)
    values = -lam * loss.sum(axis=1) + (1.0 - lam) * image
    return values.mean(), values.std(ddof=1) / math.sqrt(trials), image.std(ddof=1)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
def test_participation_utilities_match_a_dense_oracle(clamp, p):
    agents = (
        Agent(0, Quality(0.5), Truth(), UtilitySpec(f=AbsPower(p)), NormalParams(0.05, 0.3)),
        _agent(1, 0.04, Truth(), 1.0, p=p, sigma=0.25),
        _agent(2, 0.93, Image(), 0.0, p=p, sigma=0.3),
        _agent(3, 0.7, Mixed(), 0.4, p=p, g=Power(0.5), sigma=0.2),
        _agent(4, 0.97, Mixed(), 0.7, p=p, sigma=0.35),
    )
    env = Environment(
        agents=agents, system_obs=NormalParams(0.02, 0.25), clamp_observations=clamp
    )
    trials, seed = 20_000, 17
    u_in, u_out = participation_utilities(env, trials, seed)

    # u_in is run_trials' per-agent utility, to the bit.
    stats = run_trials(ScenarioConfig(env, AS(), "equilibrium", trials, seed))
    np.testing.assert_array_equal(u_in, stats.per_agent_utility_mean)
    for i, agent in enumerate(env.agents):
        mean, stderr, image_sd = _stay_out_oracle(env, i, 200_000, 100 + i)
        engine_stderr = (1.0 - agent.utility.truth_weight) * image_sd / math.sqrt(trials)
        tol = 4.0 * math.hypot(stderr, engine_stderr)
        assert abs(u_out[i] - mean) <= tol, (i, u_out[i], mean, tol)


def test_truth_stay_out_utility_is_the_closed_value_unclamped():
    env = _mixed_population(n_truth=3, n_image=2, sigma=0.3)
    _, u_out = participation_utilities(env, 2048, 4)
    closed = hetero_truth_participation(env, method="closed")
    assert u_out[0] == pytest.approx(closed.u_out, abs=1e-12)


def test_system_gain_linear_fractions():
    # rho = 0.3 against budget 2 sqrt(2/pi) 0.25 = 0.399: gains.
    env = _mixed_population(n_truth=8, n_image=3, sigma0=0.25)
    assert hetero_system_gain(env)
    # rho = 0.5 against 0.16: does not gain.
    env = _mixed_population(n_truth=6, n_image=5, sigma0=0.1)
    assert not hetero_system_gain(env)


def test_system_gain_no_image_users():
    env = _mixed_population(n_truth=4, n_image=0, sigma0=0.2)
    assert hetero_system_gain(env)


def _one_image_user(g, sigma0, r=0.25):
    """K = 3: one image user at quality ``r`` with payoff ``g``, two truth-tellers."""
    agents = (
        _agent(0, r, Image(), 0.0, g=g),
        _agent(1, 0.5, Truth(), 1.0),
        _agent(2, 0.6, Truth(), 1.0),
    )
    return Environment(agents=agents, system_obs=NormalParams(0.0, sigma0))


def test_system_gain_curved_payoff():
    # g(x) = sqrt(x) at r = 0.25: g'(r) = 1, so the slopes over K - 1 are
    # 0.5 against 2 sqrt(2/pi) sigma0, which passes 0.5 at sigma0 = 0.313.
    assert hetero_system_gain(_one_image_user(Power(0.5), 0.35))  # 0.5 < 0.559
    assert not hetero_system_gain(_one_image_user(Power(0.5), 0.3))  # 0.5 > 0.479
    # g'(0) is infinite: an image user of quality 0 with a curved payoff
    # inflates without bound, and no noise level makes the system gain.
    assert Power(0.5).derivative(0.0) == math.inf
    assert not hetero_system_gain(_one_image_user(Power(0.5), 100.0, r=0.0))


@pytest.mark.parametrize("sigma0, gains", [(0.25, False), (0.35, True)])
def test_system_gain_of_power_one_is_the_linear_verdict(sigma0, gains):
    # g(x) = x**1 is the linear payoff, so both sides of the bound
    # 2 sqrt(2/pi) sigma0 = 0.5 (sigma0 = 0.313) give one verdict.
    linear, power = (_one_image_user(g, sigma0) for g in (Linear(), Power(1.0)))
    assert hetero_system_gain(linear) is hetero_system_gain(power) is gains


def test_a_curved_image_payoff_declines_the_closed_rules_for_everyone():
    env = _mixed_population(n_truth=3, n_image=2)
    assert all(closed_forms_apply(env, agent) for agent in env.agents)
    curved = _agent(4, 0.25, Image(), 0.0, g=Power(0.5), sigma=0.3)
    env = dataclasses.replace(env, agents=env.agents[:4] + (curved,))
    assert not any(closed_forms_apply(env, agent) for agent in env.agents)


# ---------------------------------------------------------------------------
# Collusion tax
# ---------------------------------------------------------------------------


def test_collusion_tax_truthful_report_value():
    sigma = 0.1
    assert collusion_expected_tax(1.0, 0.0, Quality(0.3), sigma) == pytest.approx(
        math.sqrt(2.0) * sigma * _ROOT_2_OVER_PI
    )


def test_collusion_tax_matches_monte_carlo():
    a, b, r, sigma = 1.5, -0.2, 0.3, 0.12
    rng = np.random.default_rng(11)
    own = a * rng.normal(r, sigma, size=1_000_000) + b
    peer = rng.normal(r, sigma, size=1_000_000)
    z = np.abs(own - peer)
    assert collusion_expected_tax(a, b, r, sigma) == pytest.approx(
        z.mean(), abs=3 * z.std(ddof=1) / 1000.0
    )


def test_collusion_tax_minimized_over_offset_at_centered_mean():
    # For any fixed scaling a, the cheapest offset recenters the report on
    # the truth: b* = (1 - a) r.
    a, r, sigma = 0.7, 0.4, 0.15
    grid = np.linspace(-0.5, 0.5, 1001)
    values = [collusion_expected_tax(a, float(b), r, sigma) for b in grid]
    assert grid[int(np.argmin(values))] == pytest.approx((1 - a) * r, abs=1e-3)
    # Along the centered line the cost grows with the scaling distortion.
    centered = [
        collusion_expected_tax(a, (1 - a) * r, r, sigma) for a in (1.0, 1.5, 2.0, 3.0)
    ]
    assert all(x < y for x, y in zip(centered, centered[1:]))


def test_collusion_tax_symmetric_in_discrepancy_mean():
    assert collusion_expected_tax(1.0, 0.2, 0.3, 0.1) == collusion_expected_tax(
        1.0, -0.2, 0.3, 0.1
    )
    # At a = 1 the truthful offset b = 0 is the global minimum over b.
    for b in (-0.4, -0.1, 0.05, 0.3):
        assert collusion_expected_tax(1.0, b, 0.3, 0.1) >= collusion_expected_tax(
            1.0, 0.0, 0.3, 0.1
        )


def test_collusion_tax_rejects_bad_sigma():
    with pytest.raises(ValueError):
        collusion_expected_tax(1.0, 0.0, 0.3, 0.0)


# ---------------------------------------------------------------------------
# Weighted aggregation variance
# ---------------------------------------------------------------------------


def test_weighted_variance_check_cases():
    assert weighted_variance_check([0.9, 0.1], [0.1, 0.4])
    assert not weighted_variance_check([0.9, 0.1], [0.2, 0.2])
    assert weighted_variance_check([1.0, 1.0, 1.0], [0.3, 0.1, 0.2])  # uniform
    assert weighted_variance_check([2.0, 2.0], [0.5, 0.5])  # normalization
    inv_var = [1 / 0.01, 1 / 0.16]
    assert weighted_variance_check(inv_var, [0.1, 0.4])


def test_weighted_variance_check_guards():
    with pytest.raises(DimensionMismatch):
        weighted_variance_check([0.5, 0.5], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        weighted_variance_check([0.0, 0.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        weighted_variance_check([-0.5, 1.5], [0.1, 0.2])
