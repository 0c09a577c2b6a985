"""Best-response solvers against brute-force and Monte Carlo oracles.

Every closed form is checked along an independent route: the band-offset
equation against a dense grid argmax of the expected-reputation curve, the
expected-reputation curve against raw Monte Carlo of the piecewise mechanism
rule, the scoring first-order conditions against grid maximizers, and the
share-of-total deviation formulas against direct mechanism evaluation.
"""

import math
import re

import numpy as np
import pytest

from replab.core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DirectObservation,
    Environment,
    ExtendedAS,
    FR,
    Image,
    Linear,
    MaliciousRandom,
    Mixed,
    PR,
    Power,
    Quality,
    SimpleAveraging,
    Truth,
    UtilitySpec,
    WeightedPR,
    Workspace,
    absolute_errors,
    batch_true_utilities,
    centralized_solution,
)
from replab import analysis, simulator, strategies
from replab.analysis import DeviationReport, _utility_sums, deviation_report, deviation_reports
from replab.mechanisms import (
    PEER_SUMS,
    RING,
    _gather,
    _peer_sums,
    _ring_gather,
    _ring_maps,
    _ring_setup,
    _spec_rings,
    cross_reads,
    deviation_terms,
    run_batch,
)
from replab.numerics import NoRoot, NormalParams, find_root, integrate, normal_cdf
from replab.simulator import (
    Arm,
    ProfileDraw,
    ScenarioConfig,
    _peer_sum_tables,
    sample_peer_sums,
    simulate,
)
from replab.strategies import (
    PrEquilibrium,
    UnsupportedCombination,
    aggregate_sigma_prime,
    bayesian_ic_violation,
    expected_pr_reputation,
    mixed_best_response_as,
    pr_mae,
    pr_optimal_self_report,
    resolve_self_reports,
    solve_y,
    proportional_deviation_profit,
)
from replab.strategies import _y_residual

from dense_oracle import build_messages, sample_observations


def _agent(i, r, kind, lam, p=2.0, g=None, obs=NormalParams(0.0, 0.1)):
    return Agent(
        id=i,
        quality=Quality(r),
        agent_type=kind,
        utility=UtilitySpec(f=AbsPower(p), g=g or Linear(), truth_weight=lam),
        cross_obs=obs,
    )


def _truth_env(qualities, scheme="absolute", sigma=0.1, p=2.0, sigma0=None):
    agents = tuple(
        _agent(i, r, Truth(), 1.0, p=p, obs=NormalParams(0.0, sigma))
        for i, r in enumerate(qualities)
    )
    return Environment(
        agents=agents,
        system_obs=NormalParams(0.0, sigma if sigma0 is None else sigma0),
        index_scheme=scheme,
    )


# ---------------------------------------------------------------------------
# Band-offset equation and expected published reputation
# ---------------------------------------------------------------------------


def test_solve_y_residual_and_range():
    for a in np.linspace(0.5, 5.0, 19):
        y = solve_y(float(a))
        assert 0.0 < y < 1.0
        assert abs(_y_residual(y, float(a))) <= 1e-10


def test_solve_y_rejects_nonpositive_band():
    with pytest.raises(ValueError):
        solve_y(0.0)
    with pytest.raises(ValueError, match="band multiplier must be positive"):
        solve_y(math.nan)


def test_solve_y_memoizes_roots_but_not_failures(monkeypatch):
    calls = []

    def counting_find_root(fn, lo, hi, **kwargs):
        calls.append((lo, hi))
        return find_root(fn, lo, hi, **kwargs)

    monkeypatch.setattr(strategies, "find_root", counting_find_root)
    a = 1.2345678  # a band multiplier no other test solves
    first = solve_y(a)
    assert calls, "the first solve must run the root finder"
    solved = len(calls)
    assert solve_y(a) == first and solve_y(np.float64(a)) == first
    assert len(calls) == solved
    # Failures are raised again on every call, never served from the memo.
    for _ in range(2):
        with pytest.raises(NoRoot):
            solve_y(1e-5)
        with pytest.raises(ValueError):
            solve_y(-1.0)


def test_expected_pr_reputation_against_monte_carlo():
    rng = np.random.default_rng(17)
    cases = [
        (0.55, 0.5, 0.05, 0.1),
        (0.5, 0.5, 0.05, 0.1),
        (0.62, 0.5, 0.05, 0.1),
        (0.35, 0.3, 0.1, 0.225),
        (0.8, 0.7, 0.02, 0.06),
    ]
    for x, mu, sp, eps in cases:
        xbar = rng.normal(mu, sp, size=1_000_000)
        gap = np.abs(x - xbar)
        published = np.where(gap <= eps, 0.5 * (x + xbar), xbar - gap)
        mc, stderr = published.mean(), published.std(ddof=1) / 1000.0
        assert expected_pr_reputation(x, mu, sp, eps) == pytest.approx(mc, abs=3 * stderr)


def test_expected_pr_reputation_quadrature_matches_closed_grid():
    # Quadrature oracle: the same formula with both cdf integrals taken by
    # adaptive Simpson, the left tail truncated at 8 standard deviations.
    mu, sp, eps = 0.5, 0.07, 0.2
    cdf = lambda t: float(normal_cdf(t, mu, sp))
    lo_tail = mu - 8.0 * sp
    xs = np.linspace(0.3, 0.8, 41)
    closed = expected_pr_reputation(xs, mu, sp, eps)
    for x, value in zip(xs.tolist(), closed):
        band = integrate(cdf, x - eps, x + eps, tol=1e-10)
        tail = integrate(cdf, lo_tail, x - eps, tol=1e-10) if x - eps > lo_tail else 0.0
        oracle = x + 0.5 * eps * cdf(x + eps) - 1.5 * eps * cdf(x - eps) - 0.5 * band - 2.0 * tail
        assert float(value) == pytest.approx(oracle, abs=5e-8)


def test_expected_pr_reputation_scalar_and_array_calls_agree():
    xs = np.linspace(0.2, 0.9, 29)
    values = expected_pr_reputation(xs, 0.5, 0.07, 0.2)
    assert isinstance(values, np.ndarray) and values.shape == xs.shape
    for x, value in zip(xs.tolist(), values):
        scalar = expected_pr_reputation(x, 0.5, 0.07, 0.2)
        assert type(scalar) is float
        assert scalar == value


@pytest.mark.parametrize("sp", [0.05, 0.1, 0.2])
@pytest.mark.parametrize("a", [1.0, 1.7, 4.0, 5.0])
def test_pr_mae_matches_quadrature_oracle(a, sp):
    # |published| against the N(0, sp^2) aggregate density, integrated piece
    # by piece between the kinks: the band edges, and -x* when the band
    # reaches it (offset y < 1/2).
    x_star = pr_optimal_self_report(0.0, sp, a).x_star
    eps = a * sp

    def error(t):
        gap = abs(x_star - t)
        published = 0.5 * (t + x_star) if gap <= eps else t - gap
        return abs(published) * math.exp(-0.5 * (t / sp) ** 2) / (sp * math.sqrt(2.0 * math.pi))

    lo, hi = x_star - eps, x_star + eps
    knots = [-12.0 * sp, lo] + ([-x_star] if lo < -x_star else []) + [hi, 12.0 * sp]
    oracle = sum(integrate(error, u, v, tol=1e-13) for u, v in zip(knots, knots[1:]))
    assert pr_mae(a, sp) == pytest.approx(oracle, abs=1e-10)


def test_expected_pr_reputation_wide_band_limit():
    # With an enormous acceptance band and x at the aggregate mean, the rule
    # is pure averaging of two equal-mean quantities.
    assert expected_pr_reputation(0.5, 0.5, 0.05, 10.0) == pytest.approx(0.5, abs=1e-8)


def test_offset_equation_is_derivative_of_expected_reputation():
    # _y_residual(y, a) must equal 2 * dE/dx at x = mu + a*sigma'*y.
    mu, sp, a = 0.5, 0.05, 2.0
    eps = a * sp
    for y in (0.1, 0.27, 0.6, 0.9):
        x = mu + a * sp * y
        h = 1e-6
        deriv = (
            expected_pr_reputation(x + h, mu, sp, eps)
            - expected_pr_reputation(x - h, mu, sp, eps)
        ) / (2 * h)
        assert 2.0 * deriv == pytest.approx(float(_y_residual(y, a)), abs=1e-5)


def test_pr_optimal_self_report_bounds_and_grid_oracle():
    mu, sp, a = 0.5, 0.05, 2.0
    eq = pr_optimal_self_report(mu, sp, a)
    assert mu < eq.x_star < mu + a * sp
    xs = np.linspace(mu, mu + a * sp, 100_001)
    curve = expected_pr_reputation(xs, mu, sp, a * sp)
    oracle = float(xs[np.argmax(curve)])
    assert eq.x_star == pytest.approx(oracle, abs=1e-4)
    assert eq.y == pytest.approx((oracle - mu) / (a * sp), abs=1e-3)


def test_pr_optimal_self_report_tiny_noise_collapses_to_mean():
    eq = pr_optimal_self_report(0.4, 1e-9, 2.0)
    assert eq.x_star == pytest.approx(0.4, abs=1e-8)
    assert eq.x_star > 0.4


def test_pr_equilibrium_validation():
    with pytest.raises(ValueError):
        PrEquilibrium(a=2.0, y=1.2, x_star=0.5)
    with pytest.raises(ValueError):
        PrEquilibrium(a=-1.0, y=0.5, x_star=0.5)


# ---------------------------------------------------------------------------
# Scoring first-order conditions
# ---------------------------------------------------------------------------


def test_image_best_response_linear_exact():
    # A weight of 1 on the image element is the purely image-motivated sender.
    assert mixed_best_response_as(Linear(), 0.2, 1.0) == 0.7
    assert mixed_best_response_as(Linear(), 0.8, 1.0) == 1.0
    assert mixed_best_response_as(Linear(), 0.5, 1.0) == 1.0


def test_image_best_response_power_matches_grid():
    g, r = Power(0.5), 0.3
    xs = np.linspace(1e-9, 1.0, 1_000_001)
    objective = g(xs) - (xs - r) ** 2  # E[(x-R_0)^2] minus the constant sigma0^2
    oracle = float(xs[np.argmax(objective)])
    assert mixed_best_response_as(g, r, 1.0) == pytest.approx(oracle, abs=2e-6)
    # At r = 0.95 the first-order condition 0.5 - 2 (1 - r) is still
    # positive at the top of the message space.
    assert mixed_best_response_as(g, 0.95, 1.0) == 1.0


def test_mixed_best_response_interpolates():
    # w = 1 - lambda scales the image pull; linear g closed form r + w/2.
    assert mixed_best_response_as(Linear(), 0.3, 0.5) == pytest.approx(0.55)
    assert mixed_best_response_as(Linear(), 0.9, 0.4) == 1.0
    x = mixed_best_response_as(Power(0.5), 0.3, 0.5)
    assert 0.5 * Power(0.5).derivative(x) == pytest.approx(2 * (x - 0.3), abs=1e-9)
    with pytest.raises(ValueError):
        mixed_best_response_as(Linear(), 0.3, 0.0)


# ---------------------------------------------------------------------------
# Strategy map
# ---------------------------------------------------------------------------


def test_aggregate_sigma_prime_homogeneous():
    env = _truth_env([0.2, 0.5, 0.9, 0.4], sigma=0.3)
    assert aggregate_sigma_prime(env) == pytest.approx(0.3 / math.sqrt(4))


def test_equilibrium_self_reports_per_type():
    agents = (
        _agent(0, 0.2, Truth(), 1.0),
        _agent(1, 0.3, Image(), 0.0),
        _agent(2, 0.5, Mixed(), 0.5),
        _agent(3, 0.4, MaliciousRandom(), 1.0),
        _agent(4, 0.6, Colluder(clique_id=0, inflate=0.95), 1.0),
    )
    env = Environment(agents=agents)
    reports = resolve_self_reports(env, AS())
    assert reports[0] == 0.2
    assert reports[1] == pytest.approx(0.8)  # r + 1/2
    assert reports[2] == pytest.approx(0.75)  # r + (1-lambda)/2
    assert 3 not in reports  # uniform-random reporters draw per trial
    assert reports[4] == 0.95

    reports = resolve_self_reports(env, SimpleAveraging())
    assert reports[1] == 1.0 and reports[2] == 1.0

    sp = aggregate_sigma_prime(env)
    reports = resolve_self_reports(env, PR(a=2.0))
    eq = pr_optimal_self_report(0.3, sp, 2.0)
    assert reports[1] == pytest.approx(min(eq.x_star, 1.0))


def test_unknown_strategy_strings_raise():
    # "truthful" names a profile only to the audits; the engine must not
    # read it, or any other string, as the equilibrium profile.
    env = Environment(agents=(_agent(0, 0.2, Truth(), 1.0), _agent(1, 0.3, Image(), 0.0)))
    with pytest.raises(ValueError, match="'truthful'"):
        simulate([Arm(env, AS(), lambda *arrays: {}, "truthful")], 10, 0)
    with pytest.raises(ValueError, match="'bogus'"):
        resolve_self_reports(env, AS(), "bogus")


def test_equilibrium_unsupported_pairs():
    agents = (
        _agent(0, 0.2, Truth(), 1.0),
        _agent(1, 0.3, Image(), 0.0),
        _agent(2, 0.5, Truth(), 1.0),
    )
    env = Environment(agents=agents)
    for spec in (FR(), ExtendedAS()):
        with pytest.raises(UnsupportedCombination):
            resolve_self_reports(env, spec)
    # Band mechanisms need a linear image payoff for the offset solution.
    curved = (
        _agent(0, 0.2, Truth(), 1.0),
        _agent(1, 0.3, Image(), 0.0, g=Power(0.5)),
        _agent(2, 0.5, Truth(), 1.0),
    )
    with pytest.raises(UnsupportedCombination):
        resolve_self_reports(Environment(agents=curved), PR(a=2.0))


def test_sample_observations_shapes_bias_and_clamp():
    agents = (
        _agent(0, 0.5, Truth(), 1.0, obs=NormalParams(0.2, 0.05)),
        _agent(1, 0.5, Truth(), 1.0, obs=NormalParams(-0.1, 0.05)),
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.02))
    rng = np.random.default_rng(3)
    r0, cross = sample_observations(env, rng, 50_000)
    assert r0.shape == (50_000, 2) and cross.shape == (50_000, 2, 2)
    assert cross[:, 0, 1].mean() == pytest.approx(0.7, abs=0.002)
    assert cross[:, 1, 0].mean() == pytest.approx(0.4, abs=0.002)

    clamped_env = Environment(
        agents=agents, system_obs=NormalParams(0.0, 0.5), clamp_observations=True
    )
    r0, cross = sample_observations(clamped_env, np.random.default_rng(4), 1000)
    assert r0.min() >= 0.0 and r0.max() <= 1.0


def test_sample_peer_sums_match_the_normal_moments():
    biases = [0.05, -0.1, 0.0, 0.2, -0.03]
    stds = [0.1, 0.3, 0.05, 0.2, 0.15]
    qualities = [0.2, 0.9, 0.5, 0.35, 0.7]
    weights = np.array([0.5, 1.5, 1.0, 2.0, 0.8])
    agents = tuple(
        _agent(i, r, Truth(), 1.0, obs=NormalParams(b, sd))
        for i, (r, b, sd) in enumerate(zip(qualities, biases, stds))
    )
    env = Environment(agents=agents)
    n = 200_000
    batches = [(np.random.default_rng(61), slice(0, n))]
    sums = sample_peer_sums(env, batches, _peer_sum_tables(env, weights))
    assert sums.shape == (n, 5)
    for i in range(5):
        others = [j for j in range(5) if j != i]
        mean = math.fsum(weights[j] * (qualities[i] + biases[j]) for j in others)
        std = math.sqrt(math.fsum((weights[j] * stds[j]) ** 2 for j in others))
        # The sample std's stderr is about std / sqrt(2n).
        assert abs(sums[:, i].mean() - mean) <= 5.0 * std / math.sqrt(n)
        assert abs(sums[:, i].std() - std) <= 5.0 * std / math.sqrt(2.0 * n)


def test_sample_observations_deterministic():
    env = _truth_env([0.2, 0.8])
    a = sample_observations(env, np.random.default_rng(42), 100)
    b = sample_observations(env, np.random.default_rng(42), 100)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_build_messages_colluders_and_malicious():
    agents = (
        _agent(0, 0.5, Colluder(clique_id=1, inflate=0.9, bash=0.05), 1.0),
        _agent(1, 0.5, Colluder(clique_id=1, inflate=0.9, bash=0.05), 1.0),
        _agent(2, 0.5, Truth(), 1.0),
        _agent(3, 0.5, MaliciousRandom(low=0.2, high=0.4), 1.0),
    )
    env = Environment(agents=agents)
    rng = np.random.default_rng(9)
    r0, cross_obs = sample_observations(env, rng, 200)
    selfs, cross = build_messages(env, cross_obs, rng, resolve_self_reports(env, AS()))
    assert np.all(selfs[:, 0] == 0.9) and np.all(selfs[:, 1] == 0.9)
    assert np.all(selfs[:, 2] == 0.5)
    assert np.all((selfs[:, 3] >= 0.2) & (selfs[:, 3] <= 0.4))
    # Colluder 0: inflates clique mate 1, bashes outsiders 2 and 3.
    assert np.all(cross[:, 0, 1] == 0.9)
    assert np.all(cross[:, 0, 2] == 0.05) and np.all(cross[:, 0, 3] == 0.05)
    # Truth agent relays observations untouched.
    assert np.array_equal(cross[:, 2, :], cross_obs[:, 2, :])
    # Malicious rows are uniform draws inside their range.
    assert np.all((cross[:, 3, :] >= 0.2) & (cross[:, 3, :] <= 0.4))


def test_build_messages_self_overrides():
    env = _truth_env([0.2, 0.8])
    rng = np.random.default_rng(1)
    _, cross_obs = sample_observations(env, rng, 10)
    selfs, _ = build_messages(env, cross_obs, rng, resolve_self_reports(env, AS(), {1: 0.33}))
    assert np.all(selfs[:, 0] == 0.2) and np.all(selfs[:, 1] == 0.33)


# ---------------------------------------------------------------------------
# Numerical best-response oracle
# ---------------------------------------------------------------------------


def test_truth_agent_as_best_response_is_truthful():
    env = _truth_env([0.2, 0.5, 0.9], sigma=0.1)
    best = deviation_report(1, AS(), env, "truthful", trials=10_000, grid=101, seed=5).best
    assert abs(best - 0.5) <= 0.01 + 1e-12


def test_truth_agent_fr_best_response_is_truthful():
    env = _truth_env([0.2, 0.5, 0.3], scheme="relative")
    best = deviation_report(1, FR(), env, "truthful", trials=10_000, grid=101, seed=6).best
    assert abs(best - 0.5) <= 0.01 + 1e-12


def test_simple_averaging_cross_channel_prefers_unbiased():
    agents = tuple(
        _agent(i, r, Mixed(), 0.5, obs=NormalParams(0.0, 0.1))
        for i, r in enumerate([0.4, 0.5, 0.6])
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    rep = deviation_report(
        0, SimpleAveraging(), env, "truthful", trials=10_000, grid=41, seed=7
    )
    assert abs(rep.best - 0.5) <= rep.grid_step + 1e-12
    assert not rep.profitable


def test_deviation_report_flags_profitable_deviation():
    # An image-motivated sender claimed to report truthfully under scoring
    # taxes: inflating by 1/2 is strictly profitable and must be flagged.
    agents = (
        _agent(0, 0.3, Image(), 0.0),
        _agent(1, 0.5, Truth(), 1.0),
        _agent(2, 0.7, Truth(), 1.0),
    )
    env = Environment(agents=agents)
    rep = deviation_report(
        0, AS(), env, "truthful", trials=10_000, grid=101, seed=8, claimed=0.3
    )
    assert rep.profitable
    assert rep.best == pytest.approx(0.8, abs=0.01 + 1e-12)
    assert rep.gain == pytest.approx(0.25, abs=0.02)  # g gain 0.5 minus own tax 0.25


def test_rounding_noise_is_not_a_profitable_deviation():
    # Under weighted punish-reward a truth sender's self-report moves only
    # its own reputation, which it does not value: every grid point and the
    # claimed report take the same accuracy from the one base run, so all
    # grid points tie, the best is the one nearest the claimed report, and
    # the paired gain is exactly 0.
    env = _truth_env([0.35, 0.55, 0.45])
    mechanism = WeightedPR(a=2.0, weights=(1.0, 2.0, 3.0))
    rep = deviation_report(0, mechanism, env, trials=2_000, grid=41, seed=1)
    assert abs(rep.best - rep.claimed) <= rep.grid_step / 2
    assert (rep.gain, rep.gain_stderr) == (0.0, 0.0)
    assert not rep.profitable


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flat_grid_means_pick_the_tie_nearest_the_claimed_report(seed):
    # An image sender with a linear payoff under ring validation gains x and
    # pays |x - v1| for every report x above all of its predecessor's reads
    # v1, so its mean utility is flat there and the grid means tie up to
    # rounding.  The best is the lowest tied point, the one nearest the
    # truthful claim, whatever the rounding.
    qualities = [0.3, 0.5, 0.7, 0.4]
    agents = [_agent(0, 0.3, Image(), 0.0, obs=NormalParams(0.0, 0.02))]
    agents += [
        _agent(i, r, Truth(), 1.0, obs=NormalParams(0.0, 0.02))
        for i, r in enumerate(qualities[1:], 1)
    ]
    env = Environment(agents=tuple(agents), system_obs=NormalParams(0.0, 0.02))
    mechanism = ExtendedAS()
    draw = _sparse_draw(mechanism, env, _dense_profile(env, mechanism, "truthful", 2_000, seed))
    grid = 201
    values = np.linspace(0.0, 1.0, grid)
    means = _scan_means(mechanism, env, draw, 0, values)
    top_read = draw.ring_reads[0][:, 0].max()
    flat = values >= top_read
    # The flat stretch ties to within rounding, and far below the grid step.
    assert np.ptp(means[flat]) < 1e-12
    rep = _one_batch_report(mechanism, env, draw, 0, grid)
    assert rep.claimed == 0.3
    assert rep.best == values[flat][0]


def test_noise_sized_gain_under_the_floor_is_not_profitable():
    # A gain of rounding size can clear three of its own standard errors
    # and the grid step; the 1e-12 floor still rejects it.
    rep = DeviationReport(
        agent_index=0,
        claimed=0.35,
        best=0.0,
        claimed_mean=-0.0136,
        best_mean=-0.0136,
        gain=7.1e-19,
        gain_stderr=2.0e-19,
        grid_step=0.025,
    )
    assert abs(rep.best - rep.claimed) > rep.grid_step
    assert rep.gain > 3.0 * rep.gain_stderr
    assert not rep.profitable


def test_best_response_deterministic_and_guards():
    env = _truth_env([0.2, 0.5, 0.9])
    a = deviation_report(0, AS(), env, trials=2_000, grid=51, seed=11).best
    b = deviation_report(0, AS(), env, trials=2_000, grid=51, seed=11).best
    assert a == b
    with pytest.raises(UnsupportedCombination):
        deviation_report(0, DirectObservation(), env, trials=2_000, grid=51)
    with pytest.raises(ValueError):
        deviation_report(0, AS(), env, "bogus", trials=100, grid=11)


@pytest.mark.parametrize(
    "argument, value, bounds",
    [
        ("trials", 1.5, ">= 1"),
        ("trials", 0, ">= 1"),
        ("trials", True, ">= 1"),
        ("seed", -1, "in [0, 2**64)"),
        ("seed", 2**64, "in [0, 2**64)"),
        ("seed", 2**70, "in [0, 2**64)"),
        ("seed", 3.0, "in [0, 2**64)"),
    ],
)
def test_audits_check_their_arguments_as_the_engine_does(argument, value, bounds):
    env = _truth_env([0.2, 0.5, 0.9])
    given = {"trials": 100, "seed": 0, argument: value}
    message = re.escape(f"{argument} must be an integer {bounds}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        deviation_report(0, AS(), env, trials=given["trials"], grid=11, seed=given["seed"])


def test_a_profile_naming_unknown_agents_is_refused():
    # resolve_self_reports holds the one check, so library callers get the
    # message a ScenarioConfig gives instead of an equilibrium run.
    env = _truth_env([0.2, 0.5, 0.9])
    profile = {0: 0.3, 99: 0.5, 7: 0.1}
    message = re.escape("strategy profile names unknown agents [7, 99]")

    def reduce(draw, batches, workspace):
        return [{} for _ in batches]

    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate([Arm(env, AS(), reduce, profile)], 100, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        deviation_report(0, AS(), env, profile, trials=100, grid=11)
    with pytest.raises(ValueError, match=f"^{message}$"):
        resolve_self_reports(env, AS(), profile)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScenarioConfig(env=env, mechanism=AS(), strategy_mode=profile)


@pytest.mark.parametrize("k", [3, 12, 200])
def test_ring_draws_do_not_depend_on_the_index_dtype(k):
    # The rings are drawn into the intp index scratch and their maps are
    # stored as int32.  A ring drawn into either type must be the same
    # permutation and leave the generator at the same point, and the int32
    # maps must gather what intp maps of the same rings gather.
    drawn = []
    for dtype in (np.intp, np.int32):
        rng = simulator._batch_rng(7, 2)
        out = np.empty((300, k), dtype, order="F")
        base = np.broadcast_to(np.arange(k, dtype=dtype), out.shape)
        rng.permuted(base, axis=1, out=out)
        drawn.append((out.astype(np.intp), rng.random(4).tolist()))
    (wide, after_wide), (narrow, after_narrow) = drawn
    assert np.array_equal(np.sort(wide, axis=1), np.broadcast_to(np.arange(k), wide.shape))
    assert np.array_equal(wide, narrow)
    assert after_wide == after_narrow

    # Each agent's neighbours in intp: the ring rolled by one place either
    # way, read at the agent's position.
    position = np.argsort(wide, axis=1)
    pred = np.take_along_axis(np.roll(wide, 1, axis=1), position, axis=1)
    succ = np.take_along_axis(np.roll(wide, -1, axis=1), position, axis=1)
    rows = np.arange(wide.shape[0])[:, None]
    pred32, succ32 = _ring_maps(wide, Workspace())
    assert pred32.dtype == succ32.dtype == np.int32
    assert np.array_equal(pred32, pred) and np.array_equal(succ32, succ)
    values = np.random.default_rng(k).random(wide.shape)
    for source in (values, np.asfortranarray(values)):
        assert np.array_equal(_ring_gather(source, succ32, "g", Workspace()), values[rows, succ])
    _, readers = _ring_setup(k, [wide, wide], Workspace())
    assert np.array_equal(readers[2], pred[rows, pred])
    _, fixed = _ring_maps(wide[:1], Workspace())
    assert fixed.shape == (1, k)
    assert np.array_equal(_ring_gather(values, fixed, "g", Workspace()), values[:, succ[0]])


# ---------------------------------------------------------------------------
# Share-of-total implementability results
# ---------------------------------------------------------------------------


def test_bayesian_ic_violation_cases():
    agents = (
        _agent(0, 0.4, Mixed(), 0.5),
        _agent(1, 0.6, Truth(), 1.0),
    )
    env = Environment(agents=agents)
    assert bayesian_ic_violation(env, deviator=0, r_prime=0.5) == pytest.approx(0.1)
    assert bayesian_ic_violation(env, deviator=0, r_prime=0.4) == 0.0
    assert bayesian_ic_violation(env, deviator=1, r_prime=0.9) == 0.0
    assert bayesian_ic_violation(env, deviator=0) > 0.0


def test_fr_deviation_loss_worked_example():
    env = _truth_env([0.5, 0.3, 0.2], scheme="relative", p=1.0)
    assert proportional_deviation_profit(0, 0.5, env)[0] == 0.0
    # Direct substitution: -(0.3 + 0.2) * 0.1 / ((0.6 + 0.5) * 1.0)
    assert proportional_deviation_profit(0, 0.6, env)[0] == pytest.approx(-0.05 / 1.1)


def test_fr_deviation_loss_matches_mechanism_evaluation():
    env = _truth_env([0.5, 0.3, 0.2], scheme="relative", p=1.0)
    truths = env.qualities

    def utility(selfs):
        reps, taxes = run_batch(FR(), selfs[None, :], None, np.zeros((1, 3)))
        return batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)[0, 0]

    base = utility(truths)
    for x in np.linspace(0.0, 1.0, 21):
        selfs = truths.copy()
        selfs[0] = x
        direct = utility(selfs) - base
        loss = proportional_deviation_profit(0, float(x), env)[0]
        assert loss == pytest.approx(direct, abs=1e-12)
        assert loss <= 0.0


def test_fr_deviation_loss_requires_relative_scheme():
    env = _truth_env([0.5, 0.3, 0.2])
    with pytest.raises(ValueError):
        proportional_deviation_profit(0, 0.6, env)


def test_proportional_deviation_profit_signs_and_case_one():
    agents = (
        _agent(0, 0.5, Mixed(), 0.5, p=1.0),
        _agent(1, 0.3, Truth(), 1.0, p=1.0),
        _agent(2, 0.2, Truth(), 1.0, p=1.0),
    )
    env = Environment(agents=agents, index_scheme="relative")
    assert proportional_deviation_profit(0, 0.5, env) == (0.0, 0.0, 0.0)
    acc, img, tax = proportional_deviation_profit(0, 0.7, env)
    assert acc < 0 < img and tax == pytest.approx(-0.04)
    acc, img, tax = proportional_deviation_profit(0, 0.7, env, tax=None)
    assert tax == 0.0
    # Case I (f = |.|, g linear): accuracy damage and image gain cancel
    # exactly above truth, so the net is the pure tax term.
    for x in np.linspace(0.0, 1.0, 101):
        acc, img, tax = proportional_deviation_profit(0, float(x), env)
        net = acc + img + tax
        assert net <= 1e-15
        if x > 0.5:
            assert acc + img == pytest.approx(0.0, abs=1e-15)
        if x < 0.5:
            assert img <= 0.0
    with pytest.raises(ValueError):
        proportional_deviation_profit(0, 0.7, env, tax="vcg")


# ---------------------------------------------------------------------------
# Incremental deviation scan against the dense per-point oracle
# ---------------------------------------------------------------------------

# Deviators scanned in every case: a truth, an image and a mixed sender.
DEVIATORS = (0, 1, 2)
CUSTOM_RING = (2, 0, 4, 1, 3)


def _scan_env(scheme, p, g):
    agents = (
        _agent(0, 0.45, Truth(), 1.0, p=p, g=g, obs=NormalParams(0.0, 0.12)),
        _agent(1, 0.3, Image(), 0.0, p=p, g=g, obs=NormalParams(0.02, 0.1)),
        _agent(2, 0.6, Mixed(), 0.4, p=p, g=g, obs=NormalParams(-0.01, 0.15)),
        _agent(3, 0.7, Truth(), 1.0, p=p, g=g, obs=NormalParams(0.0, 0.1)),
        Agent(
            id=4,
            quality=Quality(0.5),
            agent_type=MaliciousRandom(0.1, 0.9),
            utility=UtilitySpec(f=AbsPower(p), g=g, truth_weight=1.0),
            cross_obs=NormalParams(0.0, 0.1),
        ),
    )
    return Environment(agents=agents, system_obs=NormalParams(0.0, 0.1), index_scheme=scheme)


MAPPING = {0: 0.4, 1: 0.85, 2: 0.65, 3: 0.72}

# (mechanism, index scheme, others' profile, accuracy exponent p, image payoff g)
SCAN_CASES = {
    "as": (AS(), "absolute", "equilibrium", 2.0, Linear()),
    "as-power": (AS(), "absolute", "truthful", 3.0, Power(0.5)),
    "extended_as-1": (ExtendedAS(), "absolute", MAPPING, 1.0, Linear()),
    "extended_as-2-ring": (
        ExtendedAS(ring=CUSTOM_RING, layers=2, second_ring=(4, 3, 2, 1, 0)),
        "absolute",
        MAPPING,
        2.0,
        Power(0.5),
    ),
    "extended_as-2": (ExtendedAS(ring=CUSTOM_RING, layers=2), "absolute", "truthful", 3.0, Linear()),
    "fr": (FR(), "relative", "truthful", 2.0, Linear()),
    "fr-mapping": (FR(), "relative", MAPPING, 1.0, Power(0.7)),
    "fr-p2-power": (FR(), "relative", MAPPING, 2.0, Power(0.7)),
    "simple_averaging": (SimpleAveraging(), "absolute", "equilibrium", 2.0, Linear()),
    "simple_averaging-p2-power": (SimpleAveraging(), "absolute", "truthful", 2.0, Power(0.5)),
    "simple_averaging-p3": (SimpleAveraging(), "absolute", "truthful", 3.0, Power(0.5)),
    "pr": (PR(a=2.0), "absolute", "equilibrium", 2.0, Linear()),
    "pr-mapping": (PR(a=1.0), "absolute", MAPPING, 1.0, Power(0.5)),
    "weighted_pr": (
        WeightedPR(a=1.5, weights=(1.0, 2.0, 0.5, 1.0, 3.0)),
        "absolute",
        "equilibrium",
        3.0,
        Linear(),
    ),
}


def _dense_profile(env, mechanism, profile, trials, seed):
    """The sampling the audit always used: one Philox substream per seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    r0, cross_obs = sample_observations(env, rng, trials)
    if profile == "truthful":
        return r0, np.tile(env.qualities, (trials, 1)), cross_obs.copy()
    selfs, cross = build_messages(env, cross_obs, rng, resolve_self_reports(env, mechanism, profile))
    return r0, selfs, cross


def _dense_utilities(i, mechanism, env, arrays, value):
    """Deviator i's per-trial utility with the whole mechanism run at ``value``."""
    r0, selfs, cross = (arr.copy() for arr in arrays)
    if isinstance(mechanism, SimpleAveraging):
        cross[:, i, :] += value - 0.5
    else:
        selfs[:, i] = value
    reps, taxes = run_batch(mechanism, selfs, cross, r0, aggregate_sigma_prime(env))
    return batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)[:, i]


def _sparse_draw(mechanism, env, arrays):
    """The audit draw holding what ``mechanism`` reads of the dense arrays,
    and the dense kernel's outcome on them."""
    r0, selfs, cross = arrays
    reads = cross_reads(mechanism)
    peer_sums = _peer_sums(mechanism, cross) if reads == PEER_SUMS else None
    ring_reads = None
    if reads == RING:
        readers = _ring_setup(env.k, _spec_rings(mechanism, env.k), Workspace())[1]
        ring_reads = tuple(_gather(cross, readers))
    reps, taxes = run_batch(mechanism, selfs, cross, r0, aggregate_sigma_prime(env))
    return ProfileDraw(r0, selfs, reps, taxes, peer_sums=peer_sums, ring_reads=ring_reads)


def _assert_same_report(report, oracle):
    # The report comes from the scan's blocks and the oracle from re-running
    # the whole kernel: the reports agree exactly, the utilities up to
    # rounding.
    assert (report.best, report.claimed) == (oracle.best, oracle.claimed)
    for name in ("claimed_mean", "best_mean", "gain", "gain_stderr"):
        assert abs(getattr(report, name) - getattr(oracle, name)) <= 1e-12, name


def _scan_means(mechanism, env, draw, i, values):
    """Deviator i's grid means, scanned from one run of the mechanism."""
    terms = deviation_terms(mechanism, draw, aggregate_sigma_prime(env), i)
    trials = draw.reps.shape[0]
    (sums,) = _utility_sums(env.agents[i], terms, centralized_solution(env), values, [slice(0, trials)])
    return sums / trials


def _one_batch_report(mechanism, env, draw, i, grid):
    """Deviator i's report from the audit's two reducers, each run on
    ``draw`` as one batch, as ``deviation_reports`` runs them on the engine."""
    values = np.linspace(0.0, 1.0, grid)
    claimed = 0.5 if isinstance(mechanism, SimpleAveraging) else float(draw.selfs[0, i])
    trials = draw.reps.shape[0]
    batch = ([slice(0, trials)], Workspace())
    reduce, report = analysis._grid_pass(mechanism, env, {i: claimed}, values)
    (totals,) = reduce(draw, *batch)
    reduce, report = analysis._pair_pass(mechanism, env, report(totals, trials))
    (totals,) = reduce(draw, *batch) if reduce else ({},)
    return report(totals, trials)[0]


def _dense_oracle(i, mechanism, env, profile, trials, grid, seed, best_index=None):
    """Grid means and report from re-running the mechanism at every grid point."""
    arrays = _dense_profile(env, mechanism, profile, trials, seed)
    values = np.linspace(0.0, 1.0, grid)
    means = np.array([_dense_utilities(i, mechanism, env, arrays, v).mean() for v in values])
    if best_index is None:
        best_index = int(np.argmax(means))
    claimed = 0.5 if isinstance(mechanism, SimpleAveraging) else float(arrays[1][0, i])
    best_utils = _dense_utilities(i, mechanism, env, arrays, float(values[best_index]))
    claimed_utils = _dense_utilities(i, mechanism, env, arrays, claimed)
    diff = best_utils - claimed_utils
    report = DeviationReport(
        agent_index=i,
        claimed=claimed,
        best=float(values[best_index]),
        claimed_mean=float(claimed_utils.mean()),
        best_mean=float(best_utils.mean()),
        gain=float(diff.mean()),
        gain_stderr=float(diff.std(ddof=1) / math.sqrt(trials)),
        grid_step=float(values[1] - values[0]),
    )
    return means, report


@pytest.mark.parametrize("block_bytes", [None, 8 * 5 * 97], ids=["default-blocks", "split-trials"])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_incremental_scan_matches_dense_oracle(case, block_bytes, monkeypatch):
    if block_bytes is not None:
        # One grid point per block and 97 trials per slice, the last slice short.
        monkeypatch.setattr(analysis, "_SCAN_BLOCK_BYTES", block_bytes)
    mechanism, scheme, profile, p, g = SCAN_CASES[case]
    env = _scan_env(scheme, p, g)
    trials, grid, seed = 1500, 41, 23
    draw = _sparse_draw(mechanism, env, _dense_profile(env, mechanism, profile, trials, seed))
    values = np.linspace(0.0, 1.0, grid)
    # Quadratic-loss deviations that move the others' reputations take the
    # moment sums, which round differently from the block scan.
    moments = isinstance(mechanism, (FR, SimpleAveraging)) and p == 2.0
    for i in DEVIATORS:
        means = _scan_means(mechanism, env, draw, i, values)
        dense, oracle = _dense_oracle(i, mechanism, env, profile, trials, grid, seed)
        np.testing.assert_allclose(means, dense, rtol=0.0, atol=1e-12)
        report = _one_batch_report(mechanism, env, draw, i, grid)
        # The scan's ties with its maximum, and the one nearest the claim.
        scan_ties = np.flatnonzero(means >= means.max() - 1e-12 * max(1.0, abs(means.max())))
        best_index = scan_ties[np.argmin(np.abs(values[scan_ties] - report.claimed))]
        at_best = means[best_index]
        if moments:
            assert abs(report.best_mean - at_best) <= 1e-12, (case, i)
        else:
            assert report.best_mean == at_best, (case, i)
        ties = np.flatnonzero(dense >= dense.max() - 1e-12)
        if ties.size == 1:
            assert best_index == ties[0], (case, i)
            _assert_same_report(report, oracle)
        else:
            # Several grid points share the maximum up to rounding: the
            # report moves nothing the deviator values there (a truth
            # sender's self-report under punish-reward, an image sender's
            # cross-reports under averaging, or a linear image gain cancelled
            # by a ring-validation charge).  The dense argmax among them is
            # rounding noise; the scan's tie nearest the claim must be one
            # of them, and the report must agree with the dense one there.
            assert best_index in ties, (case, i)
            _, tied = _dense_oracle(i, mechanism, env, profile, trials, grid, seed, best_index)
            _assert_same_report(report, tied)


@pytest.mark.parametrize("block_bytes", [None, 8 * 5 * 97], ids=["default-blocks", "split-trials"])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_sums_each_batch_of_a_run(case, block_bytes, monkeypatch):
    # A run of several batches, whose blocks (all the trials at once, or
    # 97-trial slices) straddle the batch edges: each batch's row is the
    # dense kernel's sum over that batch's trials.
    if block_bytes is not None:
        monkeypatch.setattr(analysis, "_SCAN_BLOCK_BYTES", block_bytes)
    mechanism, scheme, profile, p, g = SCAN_CASES[case]
    env = _scan_env(scheme, p, g)
    arrays = _dense_profile(env, mechanism, profile, 900, 5)
    draw = _sparse_draw(mechanism, env, arrays)
    values = np.linspace(0.0, 1.0, 7)
    batches = [slice(0, 250), slice(250, 251), slice(251, 700), slice(700, 900)]
    i = DEVIATORS[-1]
    terms = deviation_terms(mechanism, draw, aggregate_sigma_prime(env), i)
    sums = _utility_sums(env.agents[i], terms, centralized_solution(env), values, batches)
    dense = np.array([_dense_utilities(i, mechanism, env, arrays, v) for v in values])
    for rows, row in zip(batches, sums):
        n = rows.stop - rows.start
        np.testing.assert_allclose(row / n, dense[:, rows].mean(axis=1), rtol=0.0, atol=1e-12)


def _zero_total_scan(p):
    # Everyone else reports 0, so a zero self-report leaves a zero total and
    # the shares fall back to 1/K at the first grid point.
    env = _truth_env([0.5, 0.3, 0.2], scheme="relative", p=p)
    profile = {1: 0.0, 2: 0.0}
    draw = _sparse_draw(FR(), env, _dense_profile(env, FR(), profile, 200, 4))
    values = np.linspace(0.0, 1.0, 11)
    means = _scan_means(FR(), env, draw, 0, values)
    dense, _ = _dense_oracle(0, FR(), env, profile, 200, 11, 4)
    np.testing.assert_allclose(means, dense, rtol=0.0, atol=1e-12)
    # At x = 0 every share is 1/3; above it the deviator takes the whole total.
    assert means[0] == pytest.approx(-(abs(1 / 3 - 0.3) ** p + abs(1 / 3 - 0.2) ** p))
    assert means[1] == pytest.approx(-(0.3**p + 0.2**p))


def test_incremental_scan_share_of_total_with_zero_total():
    _zero_total_scan(1.0)


def test_incremental_scan_share_of_total_with_zero_total_quadratic():
    # f(d) = d^2: the moment sums take the zero total's 1/K shares.
    _zero_total_scan(2.0)


def test_one_audit_of_every_agent_equals_each_agents_audit():
    # The draws do not depend on the deviator, so auditing every agent in
    # one call gives each agent's report alone.  The uniform-random
    # reporter claims no report until it is given one.
    env = _scan_env("absolute", 2.0, Linear())
    for mechanism in (AS(), PR(a=2.0), ExtendedAS(layers=2)):
        claimed = {0: None, 1: None, 2: None, 3: None, 4: 0.5}
        reports = deviation_reports(mechanism, env, MAPPING, 1_500, 21, 3, claimed)
        assert [report.agent_index for report in reports] == list(claimed)
        for i, report in zip(claimed, reports):
            alone = deviation_report(i, mechanism, env, MAPPING, 1_500, 21, 3, claimed[i])
            assert report == alone, (mechanism, i)
    with pytest.raises(UnsupportedCombination, match="^agent 4 draws its report every trial$"):
        deviation_reports(AS(), env, MAPPING, 100, 11)
    with pytest.raises(ValueError):
        deviation_reports(AS(), env, trials=0, agents={0: None})


@pytest.mark.parametrize(
    "mechanism", [AS(), ExtendedAS(layers=2), FR(), SimpleAveraging()], ids=lambda m: type(m).__name__
)
def test_audit_memory_stays_within_its_profile(mechanism):
    # The audit keeps nothing per trial beyond one run of batches: from 20k
    # to 80k trials its peak may grow only by the partials the engine holds
    # per batch, K (G + 1) floats, plus a fixed slack of 1 MiB.  Holding the
    # (trials, K) draw, as a one-batch audit did, grows it by 2.4 MB per
    # array.
    import tracemalloc

    scheme = "relative" if isinstance(mechanism, FR) else "absolute"
    env = _truth_env([0.3, 0.5, 0.7, 0.4, 0.6], scheme=scheme)
    grid = 201

    def peak(trials):
        tracemalloc.start()
        try:
            deviation_reports(mechanism, env, trials=trials, grid=grid, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # first-call allocations, which are not the audit's own
    small, large = peak(20_000), peak(80_000)
    batches = math.ceil(80_000 / 1024) - math.ceil(20_000 / 1024)
    partials = batches * env.k * (grid + 1) * 8
    assert large - small <= partials + 2**20, (small, large, partials)


def test_all_truth_scoring_audit_at_k_37_draws_no_cross_reports():
    # Scoring reads no cross report, so the audit draws none: the dense
    # (5000, 37, 37) draw alone took 55 MB.
    import tracemalloc

    env = _truth_env([0.2 + 0.6 * i / 36 for i in range(37)])
    tracemalloc.start()
    try:
        report = deviation_report(0, AS(), env, trials=5_000, grid=201, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.profitable
    assert peak < 16 * 2**20, peak
