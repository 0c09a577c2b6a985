"""Domain-type construction rules and hand-computed utility values."""

import dataclasses
import math

import numpy as np
import pytest

from replab.core import (
    AS,
    AbsPower,
    Agent,
    Colluder,
    DimensionMismatch,
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
    ZeroTotalQuality,
    agent_utility,
    absolute_errors,
    batch_true_utilities,
    centralized_solution,
)
from replab.mechanisms import TooFewAgents, run_batch
from replab.numerics import NormalParams


def _agent(i, r, kind, lam=None, p=2.0, g=None, obs=NormalParams(0.0, 0.1)):
    if lam is None:
        lam = {Truth: 1.0, Image: 0.0}.get(type(kind), 0.5)
    return Agent(
        id=i,
        quality=Quality(r),
        agent_type=kind,
        utility=UtilitySpec(f=AbsPower(p), g=g or Linear(), truth_weight=lam),
        cross_obs=obs,
    )


def _env(qualities, scheme="absolute", kinds=None, **kwargs):
    kinds = kinds or [Truth()] * len(qualities)
    agents = tuple(_agent(i, r, k) for i, (r, k) in enumerate(zip(qualities, kinds)))
    return Environment(agents=agents, index_scheme=scheme, **kwargs)


# ---------------------------------------------------------------------------
# Construction rules
# ---------------------------------------------------------------------------


def test_quality_bounds():
    assert float(Quality(0.0)) == 0.0
    assert float(Quality(1.0)) == 1.0
    for bad in (-0.01, 1.01, math.nan):
        with pytest.raises(ValueError):
            Quality(bad)


def test_utility_spec_validation():
    with pytest.raises(ValueError):
        AbsPower(0.5)
    with pytest.raises(ValueError):
        Power(0.0)
    with pytest.raises(ValueError):
        Power(1.5)
    with pytest.raises(ValueError):
        UtilitySpec(truth_weight=1.2)


def test_agent_type_weight_consistency():
    _agent(0, 0.5, Truth(), lam=1.0)
    _agent(0, 0.5, Image(), lam=0.0)
    _agent(0, 0.5, Mixed(), lam=0.3)
    with pytest.raises(ValueError):
        _agent(0, 0.5, Truth(), lam=0.9)
    with pytest.raises(ValueError):
        _agent(0, 0.5, Image(), lam=0.1)
    for lam in (0.0, 1.0):
        with pytest.raises(ValueError):
            _agent(0, 0.5, Mixed(), lam=lam)
    # behavioral types carry no weight constraint
    _agent(0, 0.5, MaliciousRandom(), lam=0.7)
    _agent(0, 0.5, Colluder(clique_id=1), lam=0.0)


def test_environment_validation():
    with pytest.raises(ValueError):
        _env([0.5])
    agents = (_agent(1, 0.2, Truth()), _agent(0, 0.4, Truth()))
    with pytest.raises(ValueError):
        Environment(agents=agents)
    with pytest.raises(ValueError):
        Environment(agents=(_agent(0, 0.2, Truth()), _agent(1, 0.4, Truth())), index_scheme="ranked")
    with pytest.raises(ZeroTotalQuality):
        _env([0.0, 0.0], scheme="relative")


def test_environment_arrays_are_built_once_and_read_only():
    agents = (
        _agent(0, 0.2, Truth(), obs=NormalParams(0.05, 0.1)),
        _agent(1, 0.4, Truth(), obs=NormalParams(-0.02, 0.3)),
    )
    env = Environment(agents=agents)
    assert env.qualities.tolist() == [0.2, 0.4]
    assert env.cross_biases.tolist() == [0.05, -0.02]
    assert env.cross_stds.tolist() == [0.1, 0.3]
    for name in ("qualities", "cross_biases", "cross_stds"):
        array = getattr(env, name)
        assert getattr(env, name) is array
        assert not array.flags.writeable
        assert name not in repr(env)
    assert env == Environment(agents=agents)
    assert hash(env) == hash(Environment(agents=agents))
    moved = dataclasses.replace(env, agents=(agents[0], _agent(1, 0.9, Truth())))
    assert moved.qualities.tolist() == [0.2, 0.9]


def test_mechanism_spec_validation():
    AS()
    PR(a=2.25)
    with pytest.raises(ValueError):
        PR(a=0.0)
    with pytest.raises(ValueError):
        WeightedPR(a=1.0, weights=(0.5, -0.1))
    with pytest.raises(ValueError):
        ExtendedAS(layers=3)
    with pytest.raises(ValueError):
        ExtendedAS(ring=(0, 2, 2))
    with pytest.raises(ValueError):
        ExtendedAS(ring=(0, 1, 2), layers=1, second_ring=(2, 1, 0))
    ExtendedAS(ring=(2, 0, 1), layers=2, second_ring=(1, 2, 0))


def test_message_profile_shapes():
    run_batch(FR(), np.array([[0.1, 0.2]]), None, None)
    with pytest.raises(TooFewAgents):
        run_batch(AS(), np.array([[0.1]]), None, np.array([[0.5]]))
    # Cross reports must be (trials, K, K) against (trials, K) self reports.
    with pytest.raises(DimensionMismatch):
        run_batch(FR(), np.array([[0.1, 0.2]]), np.zeros((1, 3, 3)), None)
    with pytest.raises(DimensionMismatch):
        run_batch(SimpleAveraging(), None, np.zeros((1, 3, 2)), None)
    run_batch(ExtendedAS(), np.array([[0.1, 0.5, 0.9]]), np.full((1, 3, 3), 0.5), None)


# ---------------------------------------------------------------------------
# Image payoff edge behavior
# ---------------------------------------------------------------------------


def test_linear_g_exact_on_reals():
    g = Linear()
    assert g(-0.2) == -0.2
    assert g.derivative(0.9) == 1.0


def test_power_g_truncates_negatives():
    g = Power(0.5)
    assert g(0.25) == pytest.approx(0.5)
    assert g(-0.3) == 0.0
    arr = g(np.array([-1.0, 0.0, 0.04]))
    assert arr == pytest.approx([0.0, 0.0, 0.2])
    assert g.derivative(0.25) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Targets and utilities (hand-computed vectors)
# ---------------------------------------------------------------------------


def test_centralized_solution_schemes():
    env = _env([0.2, 0.5, 0.9])
    assert centralized_solution(env) == pytest.approx([0.2, 0.5, 0.9])
    env = _env([0.2, 0.5, 0.9], scheme="relative")
    assert centralized_solution(env) == pytest.approx([0.125, 0.3125, 0.5625])


def test_true_utility_hand_computed():
    agents = (
        _agent(0, 0.2, Truth(), lam=1.0),
        _agent(1, 0.5, Image(), lam=0.0),
        _agent(2, 0.9, Mixed(), lam=0.6),
    )
    env = Environment(agents=agents)
    reps = np.array([[0.3, 0.5, 0.8]])
    taxes = np.array([[0.01, -0.02, 0.01]])
    utils = batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)[0]
    # errors: (0.1, 0.0, 0.1) against targets (0.2, 0.5, 0.9)
    assert utils[0] == pytest.approx(-(0.0 + 0.01) - 0.01)
    assert utils[1] == pytest.approx(0.5 + 0.02)
    assert utils[2] == pytest.approx(-0.6 * (0.01 + 0.0) + 0.4 * 0.8 - 0.01)


def test_true_utility_dimension_guard():
    env = _env([0.2, 0.5, 0.9])
    reps = np.array([[0.1, 0.2]])
    with pytest.raises(DimensionMismatch):
        absolute_errors(reps, env)
    with pytest.raises(DimensionMismatch):
        batch_true_utilities(reps, np.zeros((1, 2)), np.zeros((1, 2)), env)
    with pytest.raises(DimensionMismatch):
        batch_true_utilities(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 3)), env)


def test_utilities_without_a_workspace_leave_their_inputs_alone():
    # Each call given no workspace computes in buffers of its own, so the
    # caller's reputations and taxes come back as they were.
    agents = (
        _agent(0, 0.2, Truth(), lam=1.0, p=1.0),
        _agent(1, 0.5, Image(), lam=0.0, g=Power(0.5)),
        _agent(2, 0.9, Mixed(), lam=0.25, p=2.0),
    )
    env = Environment(agents=agents)
    rng = np.random.default_rng(11)
    reps = rng.uniform(-0.2, 1.2, size=(30, 3))
    taxes = rng.normal(0.0, 0.05, size=(30, 3))
    before = reps.tobytes(), taxes.tobytes()
    utilities = batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)
    assert (reps.tobytes(), taxes.tobytes()) == before
    assert not np.shares_memory(utilities, reps) and not np.shares_memory(utilities, taxes)


def _scalar_utility(agent, reps, taxes, targets):
    """u_i written out term by term, as in the core module docstring."""
    i = agent.id
    lam = agent.utility.truth_weight
    accuracy = math.fsum(
        float(agent.utility.f(abs(reps[j] - targets[j]))) for j in range(len(reps)) if j != i
    )
    return -lam * accuracy + (1.0 - lam) * float(agent.utility.g(reps[i])) - taxes[i]


def test_batch_utilities_match_scalar():
    agents = (
        _agent(0, 0.2, Truth(), lam=1.0, p=1.0),
        _agent(1, 0.5, Image(), lam=0.0, g=Power(0.5)),
        _agent(2, 0.9, Mixed(), lam=0.25, p=2.0),
    )
    env = Environment(agents=agents)
    rng = np.random.default_rng(7)
    reps = rng.uniform(-0.2, 1.2, size=(40, 3))
    taxes = rng.normal(0.0, 0.05, size=(40, 3))
    batch = batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)
    targets = centralized_solution(env)
    for t in (0, 13, 39):
        for i, agent in enumerate(env.agents):
            expected = _scalar_utility(agent, reps[t], taxes[t], targets)
            assert batch[t, i] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        batch_true_utilities(reps[:, :2], np.zeros((40, 2)), taxes[:, :2], env)


def test_batch_true_utilities_equals_a_per_agent_loop_bit_for_bit():
    kinds = [Truth(), Image(), Mixed(), Truth(), Mixed(), Image(), Truth()]
    powers = [1.0, 2.0, 3.0, 2.0, 1.0, 3.0, 2.0]
    env = Environment(
        agents=tuple(
            _agent(i, 0.1 + 0.12 * i, kind, p=p)
            for i, (kind, p) in enumerate(zip(kinds, powers))
        )
    )
    rng = np.random.default_rng(29)
    reps = rng.uniform(-0.2, 1.2, size=(300, env.k))
    taxes = rng.normal(0.0, 0.1, size=(300, env.k))
    errors = np.abs(reps - centralized_solution(env)[None, :])
    expected = np.empty_like(reps)
    for i, agent in enumerate(env.agents):
        floss = agent.utility.f(errors)
        lam = agent.utility.truth_weight
        accuracy = floss.sum(axis=1) - floss[:, i]
        expected[:, i] = -lam * accuracy + (1.0 - lam) * agent.utility.g(reps[:, i]) - taxes[:, i]
    assert (batch_true_utilities(reps, absolute_errors(reps, env), taxes, env) == expected).all()


def test_batch_true_utilities_runs_of_shared_payoffs_round_as_agent_utility():
    # Adjacent agents with the same (f, g) but their own truth weights are
    # computed as one block; every entry, signed zeros included, must be
    # agent_utility's.
    specs = [
        (Truth(), 1.0, 2.0, None),
        (Mixed(), 0.3, 2.0, None),
        (Image(), 0.0, 2.0, None),
        (Mixed(), 0.6, 2.0, Power(0.5)),
        (Image(), 0.0, 2.0, Power(0.5)),
        (Truth(), 1.0, 1.0, None),
        (Truth(), 1.0, 1.0, None),
    ]
    env = Environment(
        agents=tuple(
            _agent(i, 0.1 + 0.1 * i, kind, lam=lam, p=p, g=g)
            for i, (kind, lam, p, g) in enumerate(specs)
        )
    )
    rng = np.random.default_rng(31)
    reps = rng.uniform(-0.2, 1.2, size=(200, env.k))
    reps[::7] = centralized_solution(env)
    taxes = rng.normal(0.0, 0.1, size=(200, env.k))
    taxes[::5] = 0.0
    errors = np.abs(reps - centralized_solution(env)[None, :])
    expected = np.empty_like(reps)
    for i, agent in enumerate(env.agents):
        floss = agent.utility.f(errors)
        accuracy = floss.sum(axis=1) - floss[:, i]
        expected[:, i] = agent_utility(agent, accuracy, reps[:, i], taxes[:, i])
    utilities = batch_true_utilities(reps, absolute_errors(reps, env), taxes, env)
    assert utilities.tobytes() == expected.tobytes()
