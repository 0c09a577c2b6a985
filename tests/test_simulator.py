"""Scenario engine: determinism, closed-form convergence, scenario records.

Exact assertions are used wherever the equilibrium play is deterministic
(scoring mechanisms publish self-reports directly); Monte Carlo assertions
compare against the closed forms from the analysis layer at 3-4 standard
errors.
"""

import math

import numpy as np
import pytest

from replab.analysis import pr_mae
from replab.core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DirectObservation,
    Environment,
    FR,
    Image,
    Linear,
    MaliciousRandom,
    Mixed,
    PR,
    Quality,
    SimpleAveraging,
    Truth,
    UtilitySpec,
)
from replab.mechanisms import TooFewAgents
from replab.numerics import NormalParams
from replab.simulator import (
    CliqueTooLarge,
    ScenarioConfig,
    SimStats,
    UnsupportedCombination,
    run_collusion_scenario,
    run_malicious_scenario,
    run_trials,
    simulate,
    sweep,
)
from replab.strategies import aggregate_sigma_prime, pr_optimal_self_report
from replab.strategies import expected_pr_reputation

_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _agent(i, r, kind=None, lam=1.0, sigma=0.1):
    return Agent(
        id=i,
        quality=Quality(r),
        agent_type=kind or Truth(),
        utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=lam),
        cross_obs=NormalParams(0.0, sigma),
    )


def _truth_env(qualities, sigma=0.1, scheme="absolute"):
    return Environment(
        agents=tuple(_agent(i, r, sigma=sigma) for i, r in enumerate(qualities)),
        system_obs=NormalParams(0.0, sigma),
        index_scheme=scheme,
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_scenario_config_guards():
    env = _truth_env([0.2, 0.5, 0.8])
    with pytest.raises(ValueError):
        ScenarioConfig(env=env, mechanism=AS(), trials=0)
    with pytest.raises(ValueError):
        ScenarioConfig(env=env, mechanism=AS(), seed=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(env=env, mechanism=AS(), strategy_mode="best")
    with pytest.raises(ValueError):
        ScenarioConfig(env=env, mechanism=AS(), strategy_mode={9: 0.5})
    with pytest.raises(ValueError):
        SimStats(
            mae_mean=0.0,
            mae_stderr=-1.0,
            per_agent_reputation_mean=np.zeros(3),
            per_agent_utility_mean=np.zeros(3),
            budget_mean=0.0,
            budget_max_abs=0.0,
            trials=1,
        )


# ---------------------------------------------------------------------------
# Core runner
# ---------------------------------------------------------------------------


def test_all_truth_scoring_is_exact():
    env = _truth_env([0.2, 0.5, 0.8])
    stats = run_trials(ScenarioConfig(env=env, mechanism=AS(), trials=5_000, seed=1))
    assert stats.mae_mean == 0.0
    assert stats.mae_stderr == 0.0
    np.testing.assert_allclose(
        stats.per_agent_reputation_mean, env.qualities, rtol=0, atol=1e-12
    )
    assert stats.budget_max_abs <= 1e-10
    # Taxes net out but are individually noisy; utilities average near zero.
    assert np.all(np.abs(stats.per_agent_utility_mean) < 0.01)


def test_same_seed_any_worker_count_is_bit_identical():
    env = _truth_env([0.2, 0.5, 0.8, 0.4, 0.6])
    config = ScenarioConfig(env=env, mechanism=SimpleAveraging(), trials=3_000, seed=11)
    one = run_trials(config, workers=1)
    eight = run_trials(config, workers=8)
    assert one.mae_mean == eight.mae_mean
    assert one.mae_stderr == eight.mae_stderr
    assert np.array_equal(one.per_agent_reputation_mean, eight.per_agent_reputation_mean)
    assert np.array_equal(one.per_agent_utility_mean, eight.per_agent_utility_mean)
    assert one.budget_mean == eight.budget_mean
    assert one.budget_max_abs == eight.budget_max_abs
    different = run_trials(
        ScenarioConfig(env=env, mechanism=SimpleAveraging(), trials=3_000, seed=12)
    )
    assert different.mae_mean != one.mae_mean


def test_simple_averaging_matches_closed_error():
    env = _truth_env([0.3, 0.5, 0.7], sigma=0.2)
    stats = run_trials(
        ScenarioConfig(env=env, mechanism=SimpleAveraging(), trials=50_000, seed=2)
    )
    expected = _ROOT_2_OVER_PI * aggregate_sigma_prime(env) * 3
    assert stats.mae_mean == pytest.approx(expected, abs=4 * stats.mae_stderr)
    assert stats.budget_max_abs == 0.0


def test_direct_observation_baseline_error():
    sigma = 0.15
    env = _truth_env([0.3, 0.5, 0.7], sigma=sigma)
    stats = run_trials(
        ScenarioConfig(env=env, mechanism=DirectObservation(), trials=50_000, seed=3)
    )
    assert stats.mae_mean == pytest.approx(
        _ROOT_2_OVER_PI * 3 * sigma, abs=4 * stats.mae_stderr
    )


def test_band_mechanism_tracks_closed_forms():
    agents = tuple(
        _agent(i, r, Image(), 0.0, sigma=0.1) for i, r in enumerate([0.4, 0.5, 0.6])
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    a = 1.7
    stats = run_trials(
        ScenarioConfig(env=env, mechanism=PR(a=a), trials=50_000, seed=4)
    )
    sp = aggregate_sigma_prime(env)
    # Expected error: every sender plays its optimal report, so the per-agent
    # error follows the closed curve and beats plain averaging.
    assert stats.mae_mean == pytest.approx(3 * pr_mae(a, sp), abs=4 * stats.mae_stderr)
    assert stats.mae_mean < 3 * _ROOT_2_OVER_PI * sp
    # Published reputations average to the closed expected-inflation curve.
    for i, agent in enumerate(env.agents):
        r = float(agent.quality)
        x_star = pr_optimal_self_report(r, sp, a).x_star
        assert stats.per_agent_reputation_mean[i] == pytest.approx(
            expected_pr_reputation(x_star, r, sp, a * sp), abs=0.005
        )
    assert stats.budget_max_abs == 0.0


def test_equilibrium_mode_unsupported_pair_raises_up_front():
    agents = (
        _agent(0, 0.3, Image(), 0.0),
        _agent(1, 0.5),
        _agent(2, 0.7),
    )
    env = Environment(agents=agents, index_scheme="relative")
    config = ScenarioConfig(env=env, mechanism=FR(), trials=100, seed=0)
    with pytest.raises(UnsupportedCombination):
        run_trials(config)
    # A custom constant for the unsupported agent unblocks the scenario.
    covered = ScenarioConfig(
        env=env, mechanism=FR(), strategy_mode={0: 0.55}, trials=256, seed=0
    )
    stats = run_trials(covered)
    assert stats.trials == 256


def test_custom_profile_overrides_self_reports():
    env = _truth_env([0.2, 0.5, 0.8])
    stats = run_trials(
        ScenarioConfig(
            env=env, mechanism=AS(), strategy_mode={1: 0.9}, trials=1_000, seed=5
        )
    )
    assert stats.per_agent_reputation_mean[1] == pytest.approx(0.9, abs=1e-12)
    assert stats.per_agent_reputation_mean[0] == pytest.approx(0.2, abs=1e-12)
    assert stats.mae_mean == pytest.approx(0.4)


def test_engine_output_bits_are_pinned():
    # Literals recorded before the trial loops were folded into one engine;
    # the engine must reproduce them bit for bit.
    agents = (
        _agent(0, 0.3),
        _agent(1, 0.6, Image(), lam=0.0),
        _agent(2, 0.5),
        _agent(3, 0.4, MaliciousRandom()),
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    stats = run_trials(ScenarioConfig(env=env, mechanism=PR(a=1.7), trials=2_500, seed=3))
    assert stats.mae_mean == 0.4358448981248392
    assert stats.mae_stderr == 0.004668970049604167
    assert stats.per_agent_reputation_mean.tolist() == [
        0.2925417268525755, 0.5289798626742519, 0.45638470286354293, 0.1470674615094853
    ]
    assert stats.per_agent_utility_mean.tolist() == [
        -0.13193871053481315, 0.5289798626742519, -0.12282773280550173, -0.0370922147709451
    ]
    assert (stats.budget_mean, stats.budget_max_abs, stats.trials) == (0.0, 0.0, 2_500)

    collusion = run_collusion_scenario(
        _truth_env([0.3, 0.4, 0.5, 0.6, 0.45]), {0, 3}, layers=2, trials=2_500, seed=12
    )
    assert collusion == {
        "clique": [0, 3], "layers": 2, "trials": 2500, "seed": 12,
        "one_layer": {
            "layers": 1, "mae": 1.0999999999999999, "outsider_mae": 0.0,
            "clique_utility": -0.5442623388972575, "clique_tax": 0.21926233889725755,
            "budget_max_abs": 6.106226635438361e-16,
        },
        "one_layer_honest": {
            "layers": 1, "mae": 0.0, "outsider_mae": 0.0,
            "clique_utility": 7.386217339501604e-05, "clique_tax": -7.386217339501604e-05,
            "budget_max_abs": 2.220446049250313e-16,
        },
        "two_layer": {
            "layers": 2, "mae": 1.0999999999999999, "outsider_mae": 0.0,
            "clique_utility": -0.5807631583120935, "clique_tax": 0.25576315831209356,
            "budget_max_abs": 8.326672684688674e-16,
        },
        "two_layer_honest": {
            "layers": 2, "mae": 0.0, "outsider_mae": 0.0,
            "clique_utility": 0.0019123531486439972, "clique_tax": -0.0019123531486439972,
            "budget_max_abs": 4.996003610813204e-16,
        },
    }

    malicious = run_malicious_scenario(_truth_env([0.2, 0.5, 0.8]), {1}, trials=2_500, seed=15)
    assert malicious == {
        "malicious": [1], "trials": 2500, "seed": 15,
        "malicious_mae": 0.2509478521922148, "image_mae": 0.5, "baseline_mae": 0.0,
        "malicious_own_charge": 0.09301448651626637,
    }


def test_simulate_rejects_fewer_than_one_worker():
    env = _truth_env([0.2, 0.5, 0.8])
    reduce = lambda system_obs, selfs, reps, taxes: {"mae": float(reps.sum())}
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            simulate(env, AS(), 100, 0, reduce, workers)
        with pytest.raises(ValueError, match="workers"):
            run_trials(ScenarioConfig(env=env, mechanism=AS(), trials=100), workers=workers)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_band_multiplier_columns():
    agents = tuple(
        _agent(i, r, Image(), 0.0) for i, r in enumerate([0.4, 0.5, 0.6])
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    config = ScenarioConfig(env=env, mechanism=PR(a=1.0), trials=2_000, seed=6)
    grid = [0.5, 1.0, 1.7, 2.25, 3.0, 5.0]
    rows = sweep(config, "pr_a", grid)
    assert [row["value"] for row in rows] == grid
    assert all(0.0 < row["y"] < 1.0 for row in rows)
    e_m = [row["e_m"] for row in rows]
    assert grid[int(np.argmin(e_m))] == 1.7
    # Mutual-benefit point: inflation positive and error below averaging.
    row = rows[3]
    assert row["value"] == 2.25
    r_bar = float(env.qualities.mean())
    assert row["expected_reputation"] > r_bar
    assert row["e_m"] < row["averaging_mae"]


def test_sweep_monte_carlo_tracks_closed_column():
    agents = tuple(
        _agent(i, r, Image(), 0.0) for i, r in enumerate([0.4, 0.5, 0.6])
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    config = ScenarioConfig(env=env, mechanism=PR(a=1.0), trials=30_000, seed=7)
    (row,) = sweep(config, "pr_a", [1.7])
    assert row["mae_mean"] == pytest.approx(
        3 * row["e_m"], abs=4 * row["mae_stderr"]
    )


def test_sweep_sigma_scales_averaging_error():
    env = _truth_env([0.3, 0.5, 0.7])
    config = ScenarioConfig(env=env, mechanism=SimpleAveraging(), trials=20_000, seed=8)
    rows = sweep(config, "sigma", [0.1, 0.2, 0.4])
    for row in rows:
        assert row["mae_mean"] == pytest.approx(
            3 * row["averaging_mae"], abs=4 * row["mae_stderr"]
        )
    assert rows[0]["mae_mean"] < rows[1]["mae_mean"] < rows[2]["mae_mean"]


def test_sweep_rho_repopulates_exactly():
    env = _truth_env([0.2, 0.3, 0.4, 0.45, 0.35])
    config = ScenarioConfig(env=env, mechanism=AS(), trials=1_000, seed=9)
    rows = sweep(config, "rho", [0.0, 0.5, 1.0])
    # Scoring publishes self-reports directly: each interior image-driven
    # agent adds exactly 1/2 of error, and round(rho * (K-1)) slots flip.
    assert rows[0]["mae_mean"] == 0.0
    assert rows[1]["mae_mean"] == pytest.approx(1.0)
    assert rows[2]["mae_mean"] == pytest.approx(2.0)


def test_sweep_guards():
    env = _truth_env([0.2, 0.5, 0.8])
    config = ScenarioConfig(env=env, mechanism=AS(), trials=100, seed=0)
    with pytest.raises(ValueError):
        sweep(config, "pr_a", [1.0, 2.0])  # not a band mechanism
    with pytest.raises(ValueError):
        sweep(config, "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(config, "sigma", [])
    with pytest.raises(ValueError):
        sweep(config, "sigma", [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep(config, "rho", [0.5, 1.5])


# ---------------------------------------------------------------------------
# Collusion scenario
# ---------------------------------------------------------------------------


def test_collusion_empty_clique_arms_coincide():
    env = _truth_env([0.2, 0.5, 0.8, 0.4])
    record = run_collusion_scenario(env, set(), layers=1, trials=2_000, seed=10)
    for key in ("one_layer", "two_layer"):
        assert record[key]["outsider_mae"] == record[key + "_honest"]["outsider_mae"]
        assert record[key]["mae"] == record[key + "_honest"]["mae"]
        assert record[key]["clique_utility"] is None
        assert record[key]["budget_max_abs"] <= 1e-10


def test_collusion_second_layer_taxes_manipulated_cross_reports():
    env = _truth_env([0.3, 0.4, 0.5, 0.6, 0.45, 0.55], sigma=0.05)
    record = run_collusion_scenario(env, {1, 2}, layers=2, trials=20_000, seed=11)
    # Mutual inflation shows up in the validation checks: the clique pays
    # strictly more than matched honest play, in both layer counts.
    assert record["one_layer"]["clique_tax"] > record["one_layer_honest"]["clique_tax"] + 0.05
    assert record["two_layer"]["clique_tax"] > record["two_layer_honest"]["clique_tax"] + 0.05
    # The second layer checks the cross-reports themselves, so it raises the
    # clique's bill relative to single-layer validation.
    extra_one = record["one_layer"]["clique_tax"] - record["one_layer_honest"]["clique_tax"]
    extra_two = record["two_layer"]["clique_tax"] - record["two_layer_honest"]["clique_tax"]
    assert extra_two > extra_one
    for key in ("one_layer", "two_layer", "one_layer_honest", "two_layer_honest"):
        assert record[key]["budget_max_abs"] <= 1e-10


def test_collusion_scenario_is_deterministic():
    env = _truth_env([0.3, 0.4, 0.5, 0.6, 0.45])
    a = run_collusion_scenario(env, {0, 3}, layers=1, trials=2_000, seed=12)
    b = run_collusion_scenario(env, {0, 3}, layers=1, trials=2_000, seed=12)
    assert a == b
    two = run_collusion_scenario(env, {0, 3}, layers=1, trials=2_000, seed=12, workers=2)
    assert two == a


def test_collusion_guards():
    env = _truth_env([0.3, 0.4, 0.5, 0.6])
    with pytest.raises(CliqueTooLarge):
        run_collusion_scenario(env, {0, 1, 2}, layers=1, trials=100, seed=0)
    with pytest.raises(CliqueTooLarge):
        run_collusion_scenario(env, {0, 1, 2, 3}, layers=1, trials=100, seed=0)
    with pytest.raises(ValueError):
        run_collusion_scenario(env, {9}, layers=1, trials=100, seed=0)
    with pytest.raises(ValueError):
        run_collusion_scenario(env, {0}, layers=3, trials=100, seed=0)
    with pytest.raises(TooFewAgents):
        run_collusion_scenario(_truth_env([0.4, 0.6]), set(), layers=1, trials=10, seed=0)


# ---------------------------------------------------------------------------
# Malicious-reporting scenario
# ---------------------------------------------------------------------------


def test_malicious_scenario_zero_slots_is_baseline():
    env = _truth_env([0.2, 0.5, 0.8])
    record = run_malicious_scenario(env, set(), trials=2_000, seed=13)
    assert record["malicious_mae"] == record["baseline_mae"]
    assert record["image_mae"] == record["baseline_mae"]
    assert record["malicious_own_charge"] is None


def test_malicious_vs_image_interior_setting():
    # Interior qualities: an image-driven slot inflates by exactly 1/2 while
    # a uniform-random slot errs by E|U - r| < 1/2.
    env = _truth_env([0.45, 0.5, 0.4, 0.45, 0.5])
    record = run_malicious_scenario(env, {3, 4}, trials=20_000, seed=14)
    assert record["baseline_mae"] == 0.0
    assert record["image_mae"] == pytest.approx(1.0)
    assert record["malicious_mae"] < record["image_mae"]
    # Uniform reports over [0,1]: E|U - r| per slot.
    expected = (0.45**2 + 0.55**2) / 2 + (0.5**2 + 0.5**2) / 2
    assert record["malicious_mae"] == pytest.approx(expected, abs=0.01)
    # Own validation charge E[(U - R_0)^2] = E[(U - r)^2] + sigma_0^2 > 0.
    charge = (
        (0.45**3 + 0.55**3) / 3 + 0.01 + (0.5**3 + 0.5**3) / 3 + 0.01
    ) / 2
    assert record["malicious_own_charge"] == pytest.approx(charge, rel=0.05)
    assert record["malicious_own_charge"] > 0.0


def test_malicious_scenario_deterministic_and_guarded():
    env = _truth_env([0.2, 0.5, 0.8])
    a = run_malicious_scenario(env, {1}, trials=1_000, seed=15)
    b = run_malicious_scenario(env, {1}, trials=1_000, seed=15)
    assert a == b
    assert run_malicious_scenario(env, {1}, trials=2_500, seed=15, workers=1) == (
        run_malicious_scenario(env, {1}, trials=2_500, seed=15, workers=2)
    )
    with pytest.raises(ValueError):
        run_malicious_scenario(env, {7}, trials=100, seed=0)
    with pytest.raises(ValueError):
        run_malicious_scenario(env, set(), trials=0, seed=0)


def test_malicious_keeps_custom_random_ranges():
    agents = (
        _agent(0, 0.5),
        _agent(1, 0.5),
        _agent(2, 0.5, MaliciousRandom(low=0.2, high=0.3)),
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    record = run_malicious_scenario(env, {2}, trials=5_000, seed=16)
    # The slot keeps its narrow range: error E|U[0.2,0.3] - 0.5| = 0.25.
    assert record["malicious_mae"] == pytest.approx(0.25, abs=0.01)
