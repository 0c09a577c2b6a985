"""Scenario engine: determinism, closed-form convergence, scenario records.

Exact assertions are used wherever the equilibrium play is deterministic
(scoring mechanisms publish self-reports directly); Monte Carlo assertions
compare against the closed forms from the analysis layer at 3-4 standard
errors.
"""

import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from replab import analysis
from replab.analysis import deviation_reports, pr_mae
from replab.cli import parse_config
from replab.core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DimensionMismatch,
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
    centralized_solution,
)
from replab import simulator
from replab.mechanisms import TooFewAgents, run_batch
from replab.numerics import NormalParams
from replab.simulator import (
    Arm,
    CliqueTooLarge,
    ScenarioConfig,
    SimStats,
    UnsupportedCombination,
    _SecretRings,
    _batch_rng,
    _batch_source,
    _draw_key,
    run_collusion_scenario,
    run_malicious_scenario,
    run_trials,
    simulate,
    sweep,
)
from replab.strategies import (
    aggregate_sigma_prime,
    pr_optimal_self_report,
    resolve_self_reports,
)
from replab.strategies import expected_pr_reputation

from dense_oracle import batch_plan, build_messages, dense_simulate, sample_observations

_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _agent(i, r, kind=None, lam=1.0, sigma=0.1):
    return Agent(
        id=i,
        quality=Quality(r),
        agent_type=kind or Truth(),
        utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=lam),
        cross_obs=NormalParams(0.0, sigma),
    )


def _alone(env, mechanism, trials, seed, reduce, workers=1, strategy_mode="equilibrium"):
    """The totals of ``simulate`` called with the one arm of these arguments."""
    (totals,) = simulate([Arm(env, mechanism, reduce, strategy_mode)], trials, seed, workers)
    return totals


def _dense_engine(arms, trials, seed, workers=1):
    """``simulate`` on the dense reference draw, one arm at a time."""
    return [
        dense_simulate(
            arm.env,
            arm.mechanism,
            trials,
            seed,
            arm.reduce,
            strategy_mode=arm.strategy_mode,
        )
        for arm in arms
    ]


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


def _stats_bytes(stats: SimStats) -> list[bytes]:
    return [np.asarray(getattr(stats, f.name)).tobytes() for f in dataclasses.fields(stats)]


def test_same_seed_any_worker_count_is_bit_identical():
    # Each worker thread draws into its own workspace; the batches, their
    # substreams and the reduction order do not depend on which thread ran
    # them.
    env = _truth_env([0.2, 0.5, 0.8, 0.4, 0.6])
    config = ScenarioConfig(env=env, mechanism=SimpleAveraging(), trials=3_000, seed=11)
    one = run_trials(config, workers=1)
    for workers in (2, 8):
        assert _stats_bytes(run_trials(config, workers=workers)) == _stats_bytes(one), workers
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


def test_engine_output_bits_are_pinned(monkeypatch):
    # Literals of the test-side dense reference on draw stream 5's
    # substreams, with the engine's reducer; first recorded (on stream 1)
    # before the trial loops were folded into one engine, when this PR run
    # was a dense batch.
    agents = (
        _agent(0, 0.3),
        _agent(1, 0.6, Image(), lam=0.0),
        _agent(2, 0.5),
        _agent(3, 0.4, MaliciousRandom()),
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    config = ScenarioConfig(env=env, mechanism=PR(a=1.7), trials=2_500, seed=3)
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "simulate", _dense_engine)
        stats = run_trials(config)
    assert stats.mae_mean == 0.4426695568662879
    assert stats.mae_stderr == 0.004674293472676122
    assert stats.per_agent_reputation_mean.tolist() == [
        0.29159840508962775, 0.524916355458766, 0.45660389751489666, 0.14376269801129457
    ]
    assert stats.per_agent_utility_mean.tolist() == [
        -0.1362759522919964, 0.524916355458766, -0.12763481077363245, -0.037985541994448105
    ]
    assert (stats.budget_mean, stats.budget_max_abs, stats.trials) == (0.0, 0.0, 2_500)

    # The same run under draw stream 5: the random sender's uniforms are
    # added to the relayed reports' Normal peer sums.
    stats = run_trials(config)
    assert stats.mae_mean == 0.4435837746618289
    assert stats.mae_stderr == 0.004730397106673109
    assert stats.per_agent_reputation_mean.tolist() == [
        0.2920219117269937, 0.5221666784910205, 0.4601438248758104, 0.1435506229903341
    ]
    assert stats.per_agent_utility_mean.tolist() == [
        -0.13606757580439052, 0.5221666784910205, -0.12814872665466592, -0.03828572324943711
    ]
    assert (stats.budget_mean, stats.budget_max_abs, stats.trials) == (0.0, 0.0, 2_500)

    # The collusion and malicious records under draw stream 5, which, as
    # since stream 3, draws only the ring reads and no cross report for
    # scoring.
    collusion = run_collusion_scenario(
        _truth_env([0.3, 0.4, 0.5, 0.6, 0.45]), {0, 3}, layers=2, trials=2_500, seed=12
    )
    assert collusion == {
        "clique": [0, 3], "layers": 2, "trials": 2500, "seed": 12,
        "one_layer": {
            "layers": 1, "mae": 1.0999999999999999, "outsider_mae": 0.0,
            "clique_utility": -0.534196024587517, "clique_tax": 0.2091960245875171,
            "budget_max_abs": 5.551115123125783e-16,
        },
        "one_layer_honest": {
            "layers": 1, "mae": 0.0, "outsider_mae": 0.0,
            "clique_utility": 0.0008287923668627103, "clique_tax": -0.0008287923668627103,
            "budget_max_abs": 2.498001805406602e-16,
        },
        "two_layer": {
            "layers": 2, "mae": 1.0999999999999999, "outsider_mae": 0.0,
            "clique_utility": -0.5701201832553128, "clique_tax": 0.24512018325531282,
            "budget_max_abs": 7.771561172376096e-16,
        },
        "two_layer_honest": {
            "layers": 2, "mae": 0.0, "outsider_mae": 0.0,
            "clique_utility": 0.002041836599571078, "clique_tax": -0.002041836599571078,
            "budget_max_abs": 4.440892098500626e-16,
        },
    }

    malicious = run_malicious_scenario(_truth_env([0.2, 0.5, 0.8]), {1}, trials=2_500, seed=15)
    assert malicious == {
        "malicious": [1], "trials": 2500, "seed": 15,
        "malicious_mae": 0.24651364208700244, "image_mae": 0.5, "baseline_mae": 0.0,
        "malicious_own_charge": 0.09175562433687232,
    }


def _hetero_env():
    """Five agents of every supported kind with their own biases and noise."""
    specs = [
        (0.3, Truth(), 1.0, 0.02, 0.08),
        (0.6, Image(), 0.0, -0.05, 0.15),
        (0.45, Mixed(), 0.5, 0.0, 0.1),
        (0.7, Truth(), 1.0, 0.04, 0.2),
        (0.2, Image(), 0.0, -0.02, 0.12),
    ]
    agents = tuple(
        Agent(
            id=i,
            quality=Quality(r),
            agent_type=kind,
            utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=lam),
            cross_obs=NormalParams(bias, sd),
        )
        for i, (r, kind, lam, bias, sd) in enumerate(specs)
    )
    return Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))


def _dense_reference(env, mechanism, mode, trials, seed):
    """Per-trial MAE and reputations, and run_trials' budget totals, from the
    dense draw: sample_observations, build_messages, run_batch per batch."""
    sigma_prime = aggregate_sigma_prime(env)
    profile = resolve_self_reports(env, mechanism, mode)
    targets = centralized_solution(env)
    maes, reps_all, budget_sums, budget_maxes = [], [], [], []
    for b, size in batch_plan(trials):
        rng = _batch_rng(seed, b)
        r0, cross_obs = sample_observations(env, rng, size)
        selfs, cross = build_messages(env, cross_obs, rng, profile)
        reps, taxes = run_batch(mechanism, selfs, cross, r0, sigma_prime)
        maes.append(np.abs(reps - targets[None, :]).sum(axis=1))
        reps_all.append(reps)
        budgets = taxes.sum(axis=1)
        budget_sums.append(float(budgets.sum()))
        budget_maxes.append(float(np.abs(budgets).max()))
    budget_mean = math.fsum(budget_sums) / trials
    return np.concatenate(maes), np.concatenate(reps_all), budget_mean, max(budget_maxes)


@pytest.mark.parametrize(
    "mechanism, mode",
    [
        (AS(), "equilibrium"),
        (FR(), {1: 0.8, 2: 0.5, 4: 0.3}),
        (SimpleAveraging(), "equilibrium"),
        (PR(a=1.7), "equilibrium"),
        (WeightedPR(a=1.7, weights=(0.5, 1.5, 1.0, 2.0, 0.8)), "equilibrium"),
        (DirectObservation(), "equilibrium"),
    ],
)
def test_compact_path_agrees_with_the_dense_oracle(mechanism, mode):
    env = _hetero_env()
    trials, seed = 6_000, 71
    stats = run_trials(ScenarioConfig(env, mechanism, mode, trials, seed))
    maes, reps, budget_mean, budget_max = _dense_reference(env, mechanism, mode, trials, seed)
    root_n = math.sqrt(trials)
    mae_se = math.hypot(stats.mae_stderr, maes.std(ddof=1) / root_n)
    assert abs(stats.mae_mean - maes.mean()) <= 4.0 * mae_se + 1e-12
    # The two sides draw the same distribution, so the difference of two
    # independent means has sqrt(2) times one side's stderr.
    rep_se = math.sqrt(2.0) * reps.std(axis=0, ddof=1) / root_n
    gaps = np.abs(stats.per_agent_reputation_mean - reps.mean(axis=0))
    assert (gaps <= 4.0 * rep_se + 1e-12).all(), (gaps, rep_se)
    assert (stats.budget_mean, stats.budget_max_abs) == (budget_mean, budget_max)


GOLDEN_CONFIGS = Path(__file__).resolve().parent / "golden" / "configs"


@pytest.mark.parametrize("name", ["as_k2", "extended_as_k3"])
def test_a_run_whose_mae_never_varies_has_zero_mae_stderr(name):
    # Both publish constant self-reports: every trial has the same MAE.
    for workers in (1, 4):
        assert run_trials(parse_config(GOLDEN_CONFIGS / f"{name}.ini"), workers).mae_stderr == 0.0


def test_mae_stderr_matches_a_two_pass_computation_over_the_dense_draw(monkeypatch):
    config = parse_config(GOLDEN_CONFIGS / "pr_k7.ini")
    maes = _dense_reference(
        config.env, config.mechanism, config.strategy_mode, config.trials, config.seed
    )[0]
    monkeypatch.setattr(simulator, "simulate", _dense_engine)
    stats = run_trials(config)
    expected = maes.std(ddof=1) / math.sqrt(config.trials)
    assert stats.mae_stderr == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_compact_path_checks_weights_before_sampling():
    env = _truth_env([0.2, 0.5, 0.8])
    with pytest.raises(DimensionMismatch, match="2 weights for 3 agents"):
        run_trials(ScenarioConfig(env=env, mechanism=WeightedPR(weights=(1.0, 1.0)), trials=10))


def test_compact_stream_bits_are_pinned():
    # Literals of the compact draw on stream 5: system observations, then
    # the Normal peer sums, as since stream 2.
    agents = (
        _agent(0, 0.3),
        _agent(1, 0.6, Image(), lam=0.0),
        _agent(2, 0.5),
        _agent(3, 0.4),
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    stats = run_trials(ScenarioConfig(env=env, mechanism=PR(a=1.7), trials=2_500, seed=3))
    assert stats.mae_mean == 0.10625430931279857
    assert stats.mae_stderr == 0.00178354967900184
    assert stats.per_agent_reputation_mean.tolist() == [
        0.2921708125448492, 0.5949421744148213, 0.49101443972166864, 0.3905794554234297
    ]
    assert stats.per_agent_utility_mean.tolist() == [
        -0.008674673172744014, 0.5949421744148213, -0.00857390663374279, -0.008176350916579363
    ]
    assert (stats.budget_mean, stats.budget_max_abs, stats.trials) == (0.0, 0.0, 2_500)

    stats = run_trials(ScenarioConfig(env=env, mechanism=AS(), trials=2_500, seed=4))
    assert stats.mae_mean == 0.4000000000000001
    assert stats.per_agent_reputation_mean.tolist() == [
        0.3000000000000045, 1.0, 0.5, 0.39999999999999564
    ]
    assert stats.per_agent_utility_mean.tolist() == [
        -0.10633022888208875, 0.83944716625832, -0.10642121121869445, -0.10669572615753736
    ]
    assert (stats.budget_mean, stats.budget_max_abs) == (3.927413949611491e-19, 8.326672684688674e-17)


@pytest.mark.parametrize(
    "mechanism", [AS(), PR(a=1.5), _SecretRings(layers=2)], ids=["as", "pr", "secret-rings"]
)
def test_batches_after_the_first_reuse_their_workspace(mechanism):
    # The reducer keeps every run's arrays alive, so a run that made new
    # arrays could not land on the memory of an earlier one; the workspace
    # hands the same buffers to every run.
    env = _truth_env([0.2, 0.5, 0.8, 0.4, 0.6])
    span = simulator._run_plan(10**6, env.k)[0][1]
    kept = []

    def reduce(draw, batches, workspace) -> list[dict]:
        kept.append((draw.reps, draw.taxes))
        return [{} for _ in batches]

    _alone(env, mechanism, 4 * span, 3, reduce)
    pointers = [tuple(a.__array_interface__["data"][0] for a in arrays) for arrays in kept]
    assert len(pointers) == 4
    assert len(set(pointers[1:])) == 1, pointers


def test_the_ring_path_holds_few_run_sized_buffers(monkeypatch):
    # A K=12 two-layer secret-ring collusion run on one worker.  Its
    # workspaces hold the draw, the int32 maps, the masks, the kernel's
    # scratch and the reducers' temporaries, which reuse that scratch:
    # 9.19 units of RUN_CELLS * 8 bytes.  One more (run, K) float buffer
    # adds 0.75 units and an int32 one 0.375, so either fails here.
    made = []
    init = Workspace.__init__

    def recording(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(Workspace, "__init__", recording)
    env = _truth_env([0.2 + 0.05 * i for i in range(12)])
    span = simulator._run_plan(10**6, env.k)[0][1]
    run_collusion_scenario(env, {2, 5, 9}, 2, 4 * span, 3, workers=1)
    held = sum(b.nbytes for w in made for b in w._buffers.values()) / (simulator.RUN_CELLS * 8)
    assert held <= 9.5, held


@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
def test_the_engine_hands_out_a_read_only_shared_draw(clamp):
    # Every arm of a group reads the same observations and peer sums, so a
    # kernel or reducer that wrote into them would move the later arms.
    env = _adversarial_env("mixed", clamp)
    seen = []

    def reduce(draw, batches, workspace):
        for shared in (draw.r0, draw.peer_sums):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 0.0
        seen.append(batches)
        return [{}]

    arm = Arm(env, PR(a=1.7), reduce)
    run = _batch_source([(arm, resolve_self_reports(env, PR(a=1.7)))] * 2)
    workspace = Workspace()
    assert run([(_batch_rng(0, 0), slice(0, 300))], workspace) == [[{}], [{}]]
    assert seen == [[slice(0, 300)]] * 2
    # The next run's buffers are writable again.
    assert workspace.empty("peer sums", (300, env.k)).flags.writeable


def test_compact_path_memory_stays_bounded_at_k_2000():
    k = 2_000
    agents = tuple(
        _agent(i, 0.2 + 0.1 * (i % 7), Image() if i % 2 else Truth(), lam=1.0 - i % 2)
        for i in range(k)
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    config = ScenarioConfig(env=env, mechanism=PR(a=1.7), trials=2_048, seed=9)
    tracemalloc.start()
    try:
        # Each worker thread holds a workspace of (batch, K) buffers.
        runs = {workers: run_trials(config, workers) for workers in (1, 2, 8)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stats = runs[1]
    assert stats.trials == 2_048 and stats.budget_max_abs == 0.0
    for workers in (2, 8):
        assert _stats_bytes(runs[workers]) == _stats_bytes(stats), workers
    # The dense path would allocate trials * K^2 * 8 bytes (32 GB) per batch.
    assert peak < 256 * 2**20, peak


# ---------------------------------------------------------------------------
# Sparse draws with adversarial reporters against the dense oracle
# ---------------------------------------------------------------------------


def _adversarial_env(population, clamp):
    """Six reporters with their own biases and noise; agents 1 and 4 collude
    (optionally bashing outsiders) or send uniform noise, or, in the mixed
    population, collude while agent 2 sends uniform noise."""
    specs = [
        (0.3, 0.02, 0.08),
        (0.6, -0.05, 0.15),
        (0.45, 0.0, 0.1),
        (0.7, 0.04, 0.2),
        (0.2, -0.02, 0.12),
        (0.55, 0.03, 0.3),
    ]
    kinds = {
        "truthful": {},
        "colluders": {1: Colluder(0, 0.9), 4: Colluder(0, 0.9)},
        "bashing": {1: Colluder(0, 0.9, bash=0.1), 4: Colluder(0, 0.9, bash=0.1)},
        "malicious": {1: MaliciousRandom(), 4: MaliciousRandom(0.2, 0.8)},
        "mixed": {1: Colluder(0, 0.9), 4: Colluder(0, 0.9), 2: MaliciousRandom(0.2, 0.8)},
    }[population]
    agents = tuple(
        Agent(
            id=i,
            quality=Quality(r),
            agent_type=kinds.get(i, Truth()),
            utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=1.0),
            cross_obs=NormalParams(bias, sd),
        )
        for i, (r, bias, sd) in enumerate(specs)
    )
    return Environment(
        agents=agents, system_obs=NormalParams(0.0, 0.1), clamp_observations=clamp
    )


def _per_batch(reduce_batch):
    """A reducer that applies ``reduce_batch(system_obs, selfs, reps,
    taxes)`` to each batch's rows of the run."""

    def reduce(draw, batches, workspace) -> list[dict]:
        return [
            reduce_batch(draw.r0[rows], draw.selfs[rows], draw.reps[rows], draw.taxes[rows])
            for rows in batches
        ]

    return reduce


@_per_batch
def _moments(system_obs, selfs, reps, taxes):
    return {
        "tax": taxes.sum(axis=0),
        "tax_sq": (taxes**2).sum(axis=0),
        "tax_4": (taxes**4).sum(axis=0),
        "rep": reps.sum(axis=0),
        "rep_sq": (reps**2).sum(axis=0),
        "budget_max": float(np.abs(taxes.sum(axis=1)).max()),
    }


def _peer_sum_moments(targets):
    @_per_batch
    def reduce(system_obs, selfs, reps, taxes):
        mae = np.abs(reps - targets[None, :]).sum(axis=1)
        return {
            "rep": reps.sum(axis=0),
            "rep_sq": (reps**2).sum(axis=0),
            "rep_4": (reps**4).sum(axis=0),
            "mae": float(mae.sum()),
            "mae_sq": float((mae * mae).sum()),
            "tax_abs_max": float(np.abs(taxes).max()),
            "budget_max": float(np.abs(taxes.sum(axis=1)).max()),
        }

    return reduce


def _assert_moments_agree(
    env,
    mechanism,
    reduce=_moments,
    pairs=(("tax", "tax_sq"), ("tax_sq", "tax_4"), ("rep", "rep_sq")),
    trials=20_000,
    seed=23,
):
    """Each moment ``key`` of ``pairs`` (by default each agent's mean tax,
    mean squared tax and mean reputation) agrees with the dense oracle over
    the same batch plan within 4 stderr of the difference, the stderr taken
    from ``square``.  Returns both sides' totals."""
    sparse = _alone(env, mechanism, trials, seed, reduce)
    dense = dense_simulate(env, mechanism, trials, seed, reduce)
    for key, square in pairs:
        means, variances = [], []
        for side in (sparse, dense):
            mean = side[key] / trials
            means.append(mean)
            variances.append(np.maximum(side[square] / trials - mean * mean, 0.0))
        se = np.sqrt((variances[0] + variances[1]) / trials)
        gaps = np.abs(means[0] - means[1])
        assert (gaps <= 4.0 * se + 1e-12).all(), (key, gaps, se)
    assert sparse["budget_max"] <= 1e-12 and dense["budget_max"] <= 1e-12
    return sparse, dense


_RINGS = {
    "fixed": lambda layers: ExtendedAS(layers=layers),
    "custom": lambda layers: ExtendedAS(
        ring=(3, 0, 5, 1, 4, 2), layers=layers, second_ring=(1, 3, 0, 2, 5, 4) if layers == 2 else None
    ),
    "secret": lambda layers: _SecretRings(layers=layers),
}


@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
@pytest.mark.parametrize("population", ["truthful", "colluders", "bashing", "malicious"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("rings", sorted(_RINGS))
def test_ring_reads_agree_with_the_dense_oracle(rings, layers, population, clamp):
    _assert_moments_agree(_adversarial_env(population, clamp), _RINGS[rings](layers))


@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
@pytest.mark.parametrize("mechanism", [AS(), FR()], ids=["as", "fr"])
def test_random_senders_without_cross_reads_agree_with_the_dense_oracle(mechanism, clamp):
    _assert_moments_agree(_adversarial_env("malicious", clamp), mechanism)


_PEER_SUM_FAMILIES = {
    "simple_averaging": SimpleAveraging(),
    "pr": PR(a=1.7),
    "weighted_pr": WeightedPR(a=1.7, weights=(0.5, 1.5, 1.0, 2.0, 0.8, 1.2)),
}


@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
@pytest.mark.parametrize("population", ["truthful", "colluders", "bashing", "malicious", "mixed"])
@pytest.mark.parametrize("family", sorted(_PEER_SUM_FAMILIES))
def test_peer_sums_agree_with_the_dense_oracle(family, population, clamp):
    # Each agent's mean and mean squared reputation, and the MAE.
    env = _adversarial_env(population, clamp)
    reduce = _peer_sum_moments(centralized_solution(env))
    pairs = (("rep", "rep_sq"), ("rep_sq", "rep_4"), ("mae", "mae_sq"))
    sparse, dense = _assert_moments_agree(env, _PEER_SUM_FAMILIES[family], reduce, pairs)
    for side in (sparse, dense):
        assert (side["tax_abs_max"], side["budget_max"]) == (0.0, 0.0)


def _retyped(population, clamp, kinds):
    """An _adversarial_env population with the agents of ``kinds`` retyped
    (image agents get truth weight 0)."""
    env = _adversarial_env(population, clamp)
    agents = list(env.agents)
    for i, kind in kinds.items():
        utility = agents[i].utility
        if isinstance(kind, Image):
            utility = dataclasses.replace(utility, truth_weight=0.0)
        agents[i] = dataclasses.replace(agents[i], agent_type=kind, utility=utility)
    return dataclasses.replace(env, agents=tuple(agents))


def _arm_moments(draw, batches, workspace):
    moments = _moments(draw, batches, workspace)
    return [
        {**batch, "self": draw.selfs[rows].sum(axis=0), "obs": draw.r0[rows].sum(axis=0)}
        for batch, rows in zip(moments, batches)
    ]


_NARROW = MaliciousRandom(0.2, 0.8)

# Each case: the mechanism and its arms, as (population, retyped agents).
_SHARED_ARMS = {
    "secret-1-layer": (
        _SecretRings(layers=1), [("truthful", {}), ("colluders", {}), ("bashing", {})]
    ),
    "secret-2-layers": (
        _SecretRings(layers=2), [("colluders", {}), ("truthful", {}), ("bashing", {})]
    ),
    "secret-random": (_SecretRings(layers=2), [("mixed", {}), ("truthful", {2: _NARROW})]),
    "fixed-ring-random": (ExtendedAS(layers=2), [("truthful", {2: _NARROW}), ("mixed", {})]),
    "as-image-baseline": (AS(), [("truthful", {0: Image(), 3: Image()}), ("truthful", {})]),
    "as-random": (AS(), [("truthful", {0: Image(), 4: _NARROW}), ("truthful", {4: _NARROW})]),
    "pr-colluders": (PR(a=1.7), [("mixed", {}), ("mixed", {0: Image()})]),
}


def _assert_each_arm_equals_its_one_arm_run(arms, workers, trials=2_500, seed=41):
    """One call of all ``arms`` gives each arm's one-arm totals, bit for bit."""
    shared = simulate(arms, trials, seed, workers)
    assert len(shared) == len(arms)
    for arm, totals in zip(arms, shared):
        alone = _alone(arm.env, arm.mechanism, trials, seed, arm.reduce, workers, arm.strategy_mode)
        assert totals.keys() == alone.keys()
        for key, value in alone.items():
            assert np.asarray(totals[key]).tobytes() == np.asarray(value).tobytes(), key


def _groups(arms):
    """How many draws one call of ``arms`` makes per batch."""
    keys = set()
    for arm in arms:
        reports = resolve_self_reports(arm.env, arm.mechanism, arm.strategy_mode)
        keys.add(_draw_key(arm.env, arm.mechanism, reports))
    return len(keys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("clamp", [False, True], ids=["unclamped", "clamped"])
@pytest.mark.parametrize("case", sorted(_SHARED_ARMS))
def test_shared_arms_equal_their_one_arm_runs_bit_for_bit(case, clamp, workers):
    mechanism, arms = _SHARED_ARMS[case]
    arms = [
        Arm(_retyped(population, clamp, kinds), mechanism, _arm_moments)
        for population, kinds in arms
    ]
    assert _groups(arms) == 1
    _assert_each_arm_equals_its_one_arm_run(arms, workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_arms_that_draw_differently_run_as_separate_groups(workers):
    # Arms that once had to go in separate calls: each pair draws apart, so
    # the call draws each batch once per group.
    truthful = _adversarial_env("truthful", False)
    moved = dataclasses.replace(
        truthful,
        agents=(dataclasses.replace(truthful.agents[0], quality=Quality(0.35)),)
        + truthful.agents[1:],
    )
    malicious = _adversarial_env("malicious", False)
    pairs = [
        (AS(), [truthful, moved]),  # qualities
        (_SecretRings(layers=1), [truthful, malicious]),  # uniform-random reporters
        (AS(), [malicious, _retyped("malicious", False, {1: _NARROW})]),  # their ranges
        (PR(a=1.7), [truthful, _adversarial_env("colluders", False)]),  # colluders in peer sums
        (AS(), [truthful, _adversarial_env("truthful", True)]),  # clamping
    ]
    arms = []
    for mechanism, envs in pairs:
        pair = [Arm(env, mechanism, _arm_moments) for env in envs]
        assert _groups(pair) == 2
        arms += pair
    # Other mechanisms: another band multiplier and simple averaging share
    # the punish-reward arm's peer-sum draw, fixed rings draw apart.
    arms += [
        Arm(truthful, PR(a=2.5), _arm_moments),
        Arm(truthful, ExtendedAS(layers=1), _arm_moments),
        Arm(truthful, SimpleAveraging(), _arm_moments),
    ]
    assert _groups(arms) == 10
    _assert_each_arm_equals_its_one_arm_run(arms, workers)


@pytest.mark.parametrize(
    "mechanism", [PR(a=1.7), _SecretRings(layers=2)], ids=["pr", "secret-rings"]
)
def test_a_fixed_random_report_draws_apart(mechanism):
    # Fixing a uniform-random reporter's self-report draws no uniforms for
    # it, which shifts every later draw of the batch: the draw key reads
    # the resolved profile, not the agent types.
    env = _adversarial_env("malicious", False)
    arms = [Arm(env, mechanism, _arm_moments), Arm(env, mechanism, _arm_moments, {1: 0.5})]
    assert _groups(arms) == 2
    _assert_each_arm_equals_its_one_arm_run(arms, workers=1)


def test_simulate_needs_arms_of_one_agent_count():
    arms = [
        Arm(_truth_env([0.2, 0.5, 0.8, 0.4]), AS(), _arm_moments),
        Arm(_truth_env([0.2, 0.5, 0.8]), AS(), _arm_moments),
    ]
    with pytest.raises(ValueError, match=re.escape("one agent count, got K = [3, 4]")):
        simulate(arms, 100, 0)
    with pytest.raises(ValueError, match="at least one arm"):
        simulate([], 100, 0)


def test_simulate_rejects_fewer_than_one_worker():
    env = _truth_env([0.2, 0.5, 0.8])
    reduce = _per_batch(lambda system_obs, selfs, reps, taxes: {"mae": float(reps.sum())})
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers"):
            _alone(env, AS(), 100, 0, reduce, workers)
        with pytest.raises(ValueError, match="workers"):
            run_trials(ScenarioConfig(env=env, mechanism=AS(), trials=100), workers=workers)


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
        ("workers", 2.5, ">= 1"),
        ("workers", 0, ">= 1"),
        ("workers", "2", ">= 1"),
    ],
)
def test_simulate_checks_its_arguments_as_scenario_config_does(argument, value, bounds):
    env = _truth_env([0.2, 0.5, 0.8])
    reduce = _per_batch(lambda system_obs, selfs, reps, taxes: {"mae": float(reps.sum())})
    given = {"trials": 100, "seed": 0, "workers": 1, argument: value}
    message = re.escape(f"{argument} must be an integer {bounds}, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _alone(env, AS(), given["trials"], given["seed"], reduce, given["workers"])
    if argument == "workers":
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trials(ScenarioConfig(env=env, mechanism=AS(), trials=100), workers=value)
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioConfig(env=env, mechanism=AS(), **{argument: value})


# ---------------------------------------------------------------------------
# Runs of batches
# ---------------------------------------------------------------------------

_DEFAULT_RUN_CELLS = simulator.RUN_CELLS


def test_run_plan_covers_the_batches_within_the_budget():
    for k in (2, 3, 5, 8, 12, 40, 100, 2_000):
        for trials in (1, 1_023, 1_024, 1_025, 5_000, 65_536, 100_003):
            plan = simulator._run_plan(trials, k)
            batches = [
                (b, rows.stop - rows.start)
                for first, size in plan
                for b, rows in simulator._run_batches(first, size)
            ]
            assert batches == batch_plan(trials), (k, trials)
            cap = max(simulator.BATCH_TRIALS * k, simulator.RUN_CELLS)
            assert all(size * k <= cap for _, size in plan), (k, trials)
    # At K = 2000 one batch already exceeds the budget: a run is one batch.
    plan = simulator._run_plan(10_000, 2_000)
    assert plan == batch_plan(10_000)


def _population_of_twelve():
    """Twelve reporters with their own noise and bias: two colluders, one of
    them bashing outsiders, and a uniform-random reporter."""
    kinds = {3: Colluder(0, 0.9), 7: Colluder(0, 0.9, bash=0.1), 10: MaliciousRandom(0.2, 0.8)}
    agents = tuple(
        Agent(
            id=i,
            quality=Quality(0.2 + 0.05 * i),
            agent_type=kinds.get(i, Truth()),
            utility=UtilitySpec(f=AbsPower(2.0), g=Linear(), truth_weight=1.0),
            cross_obs=NormalParams(0.01 * (i % 3) - 0.01, 0.08 + 0.01 * (i % 4)),
        )
        for i in range(12)
    )
    return Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))


# Each case: the population and the mechanism of one run_trials config.
_RUN_CASES = {
    "as": (lambda: _adversarial_env("malicious", False), AS()),
    "extended_as-fixed-ring": (
        lambda: _adversarial_env("mixed", True),
        ExtendedAS(ring=(3, 0, 5, 1, 4, 2), layers=2, second_ring=(1, 3, 0, 2, 5, 4)),
    ),
    "secret-rings-1": (_population_of_twelve, _SecretRings(layers=1)),
    "secret-rings-2": (_population_of_twelve, _SecretRings(layers=2)),
    "fr": (lambda: _adversarial_env("malicious", True), FR()),
    "simple_averaging": (lambda: _adversarial_env("mixed", False), SimpleAveraging()),
    "pr": (lambda: _adversarial_env("bashing", True), PR(a=1.7)),
    "weighted_pr": (
        lambda: _adversarial_env("mixed", False),
        WeightedPR(a=1.7, weights=(0.5, 1.5, 1.0, 2.0, 0.8, 1.2)),
    ),
    "direct": (lambda: _adversarial_env("malicious", False), DirectObservation()),
}


def _at_every_budget(monkeypatch, compute) -> None:
    """``compute(workers)`` gives the same bytes with runs of one batch, at
    the default budget and at a budget of several K=12 batches, at 1, 2, 4
    and 8 workers."""
    monkeypatch.setattr(simulator, "RUN_CELLS", 1)
    want = compute(1)
    for cells in (1, _DEFAULT_RUN_CELLS, 2**16):
        monkeypatch.setattr(simulator, "RUN_CELLS", cells)
        for workers in (1, 2, 4, 8):
            assert compute(workers) == want, (cells, workers)


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_runs_of_batches_keep_the_one_batch_totals(case, monkeypatch):
    make_env, mechanism = _RUN_CASES[case]
    # Three whole batches and a partial one, which ends a run of several.
    config = ScenarioConfig(make_env(), mechanism, trials=3 * simulator.BATCH_TRIALS + 500, seed=29)
    _at_every_budget(monkeypatch, lambda workers: _stats_bytes(run_trials(config, workers)))


def test_runs_of_batches_keep_the_scenario_records(monkeypatch):
    twelve = _truth_env([0.2 + 0.05 * i for i in range(12)])
    mixed = _adversarial_env("truthful", False)

    def records(workers):
        return [
            run_collusion_scenario(twelve, {1, 4, 9}, 2, 2_600, 31, workers),
            run_malicious_scenario(mixed, {1, 4}, 3_600, 37, workers),
        ]

    _at_every_budget(monkeypatch, records)


@pytest.mark.parametrize(
    "mechanism, profile",
    [
        (PR(a=1.7), "equilibrium"),
        (SimpleAveraging(), "equilibrium"),
        (FR(), "truthful"),
        (ExtendedAS(layers=2), "truthful"),
    ],
    ids=["pr", "simple_averaging", "fr", "extended_as"],
)
def test_runs_of_batches_keep_the_audit_reports(mechanism, profile, monkeypatch):
    # The audit's reducers sum each batch's rows, so its reports do not
    # depend on how many batches a run holds.
    trials = 3 * simulator.BATCH_TRIALS + 500
    _at_every_budget(
        monkeypatch,
        lambda workers: deviation_reports(mechanism, _hetero_env(), profile, trials, 21, 41),
    )


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


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of its calls'
    first arguments."""
    calls = []
    wrapped = getattr(module, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return wrapped(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_a_band_multiplier_sweep_draws_each_batch_once(monkeypatch):
    # 30 grid points at K=20, half image-driven: one engine call whose
    # points share every batch's draw, as each point alone would draw it.
    agents = tuple(
        _agent(i, 0.2 + 0.03 * i, Image() if i % 2 else None, 0.0 if i % 2 else 1.0)
        for i in range(20)
    )
    env = Environment(agents=agents, system_obs=NormalParams(0.0, 0.1))
    trials = 4 * simulator.BATCH_TRIALS + 300
    config = ScenarioConfig(env=env, mechanism=PR(a=1.7), trials=trials, seed=9)
    grid = np.linspace(1.0, 3.0, 30)
    engine = _counting(monkeypatch, simulator, "simulate")
    samples = _counting(monkeypatch, simulator, "sample_sparse")
    rows = sweep(config, "pr_a", grid)
    assert [len(arms) for arms in engine] == [30]
    assert len(samples) == len(batch_plan(config.trials)) == 5
    for row, a in zip(rows[::29], grid[::29]):
        point = dataclasses.replace(config, mechanism=PR(a=float(a)))
        stats = run_trials(point)
        assert (row["mae_mean"], row["mae_stderr"]) == (stats.mae_mean, stats.mae_stderr)


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


def test_collusion_scenario_makes_one_engine_call(monkeypatch):
    engine = _counting(monkeypatch, simulator, "simulate")
    run_collusion_scenario(_truth_env([0.3, 0.4, 0.5, 0.6, 0.45]), {0, 3}, 1, 1_500, 12)
    assert [len(arms) for arms in engine] == [4]


def test_twelve_agent_secret_rings_keep_their_bits():
    # From K=8 a row sum rounds by memory order: per-trial rings make the
    # second layer's gathered discrepancies F-ordered, and their totals add
    # sequentially over the agents where a C-ordered array adds pairwise.
    # A buffer that made them C-ordered would move this record, pinned at
    # one and two workers.
    env = _truth_env([0.15, 0.62, 0.33, 0.48, 0.71, 0.27, 0.56, 0.4, 0.84, 0.22, 0.67, 0.51])
    # (mae, clique_utility, clique_tax, budget_max_abs) per arm; no outsider
    # is misreported in any arm.
    expected = {
        "one_layer": (
            1.6000000000000003, -0.8969561401654612, 0.28508947349879454, 1.0547118733938987e-15
        ),
        "one_layer_honest": (
            0.0, -0.00019043874088415169, 0.00019043874088415169, 5.828670879282072e-16
        ),
        "two_layer": (
            1.6000000000000003, -0.937877271664035, 0.3260106049973682, 1.4432899320127035e-15
        ),
        "two_layer_honest": (
            0.0, -0.00028126254435369423, 0.00028126254435369423, 9.298117831235686e-16
        ),
    }
    for workers in (1, 2):
        record = run_collusion_scenario(
            env, {2, 7, 10}, layers=2, trials=4_096, seed=2027, workers=workers
        )
        for arm, values in expected.items():
            keys = ("mae", "clique_utility", "clique_tax", "budget_max_abs")
            got = tuple(record[arm][key] for key in keys)
            assert got == values, (workers, arm)
            assert record[arm]["outsider_mae"] == 0.0


def _checked_reducers(monkeypatch):
    """Make every engine call's reducers also reduce each draw with its
    reputations copied C-contiguous, on a workspace of their own, and assert
    that the two give the same partials bit for bit.  Returns, per reduced
    draw, whether its reputations were one row broadcast (stride 0)."""
    constant_rows = []
    engine = simulator.simulate

    def checked(reduce):
        def run(draw, batches, workspace):
            dense = dataclasses.replace(draw, reps=np.ascontiguousarray(draw.reps))
            expected = reduce(dense, batches, Workspace())
            partials = reduce(draw, batches, workspace)
            constant_rows.append(draw.reps.strides[0] == 0)
            assert len(partials) == len(expected)
            for got, want in zip(partials, expected):
                assert got.keys() == want.keys()
                for key in got:
                    assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key
            return partials

        return run

    def checking(arms, *args, **kwargs):
        arms = [dataclasses.replace(arm, reduce=checked(arm.reduce)) for arm in arms]
        return engine(arms, *args, **kwargs)

    monkeypatch.setattr(simulator, "simulate", checking)
    monkeypatch.setattr(analysis, "simulate", checking)
    return constant_rows


def _mixed_payoffs_env():
    """_hetero_env with three (f, g) pairs, so utilities come in column runs."""
    env = _hetero_env()
    payoffs = {
        1: UtilitySpec(AbsPower(2.0), Power(0.5), 0.0),
        2: UtilitySpec(AbsPower(1.0), Linear(), 0.5),
    }
    agents = tuple(
        dataclasses.replace(agent, utility=payoffs.get(agent.id, agent.utility))
        for agent in env.agents
    )
    return dataclasses.replace(env, agents=agents)


@pytest.mark.parametrize(
    "mechanism",
    [AS(), ExtendedAS(ring=(2, 0, 4, 1, 3), layers=2, second_ring=(1, 3, 0, 4, 2))],
    ids=["as", "extended-as"],
)
def test_stats_reducer_reads_a_constant_row_as_its_dense_copy(monkeypatch, mechanism):
    constant_rows = _checked_reducers(monkeypatch)
    env = _mixed_payoffs_env()
    mode = {0: 0.31, 1: 0.74, 2: 0.5, 3: 0.66, 4: 0.28}
    run_trials(ScenarioConfig(env, mechanism, mode, trials=2_500, seed=9))
    assert constant_rows and all(constant_rows)


def test_scenario_reducers_read_a_constant_row_as_their_dense_copy(monkeypatch):
    constant_rows = _checked_reducers(monkeypatch)
    run_collusion_scenario(_truth_env([0.3, 0.4, 0.5, 0.6, 0.45]), {0, 3}, 2, 2_500, 12)
    assert all(constant_rows)
    constant_rows.clear()
    run_malicious_scenario(_hetero_env(), {1, 3}, 2_500, 15)
    # The malicious arm draws its slots' self-reports; the other two do not.
    assert any(constant_rows) and not all(constant_rows)
    constant_rows.clear()
    analysis.participation_utilities(_mixed_payoffs_env(), 2_500, 4)
    assert constant_rows and all(constant_rows)


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


def test_malicious_scenario_makes_one_engine_call(monkeypatch):
    engine = _counting(monkeypatch, simulator, "simulate")
    run_malicious_scenario(_truth_env([0.2, 0.5, 0.8]), {1}, 1_500, 15)
    assert [len(arms) for arms in engine] == [3]


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
