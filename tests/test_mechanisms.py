"""Mechanism outcome functions: worked examples and per-profile identities.

Expected tax vectors below were computed by direct substitution into the
scoring formulas before the kernels were written; budget balance and the
punish-reward band geometry are checked as properties over random profiles.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from replab.core import (
    AS,
    Agent,
    DimensionMismatch,
    DirectObservation,
    Environment,
    ExtendedAS,
    FR,
    PR,
    Quality,
    SimpleAveraging,
    Truth,
    WeightedPR,
    Workspace,
)
from replab.mechanisms import (
    NO_CROSS,
    PEER_SUMS,
    RING,
    TooFewAgents,
    ZeroWeightSum,
    _gather,
    _peer_sums,
    _ring_maps,
    _ring_outcome,
    _ring_setup,
    _spec_rings,
    _validation_layer,
    cross_reads,
    deviation_terms,
    run_batch,
)
from replab import simulator
from replab.simulator import Arm, ProfileDraw, _SecretRings, _batch_source, simulate


def _one(spec, selfs=None, cross=None, r0=None, sigma_prime=0.0):
    """One round through ``run_batch``, as a batch with a leading axis of 1."""
    lead = lambda arr: None if arr is None else np.asarray(arr, dtype=float)[None]
    reps, taxes = run_batch(spec, lead(selfs), lead(cross), lead(r0), sigma_prime)
    return SimpleNamespace(reputations=reps[0], taxes=taxes[0])


# ---------------------------------------------------------------------------
# Absolute scoring
# ---------------------------------------------------------------------------


def test_as_worked_example():
    out = _one(AS(), [0.5, 0.5, 0.5], r0=[0.6, 0.5, 0.4])
    assert out.reputations == pytest.approx([0.5, 0.5, 0.5])
    assert out.taxes == pytest.approx([0.005, -0.01, 0.005], abs=1e-15)
    assert math.fsum(out.taxes) == pytest.approx(0.0, abs=1e-15)


def test_as_zero_discrepancies():
    out = _one(AS(), [0.3, 0.7, 0.1, 0.9], r0=[0.3, 0.7, 0.1, 0.9])
    assert out.taxes == pytest.approx([0.0] * 4, abs=1e-15)


def test_as_needs_two_agents():
    with pytest.raises(TooFewAgents):
        run_batch(AS(), np.zeros((1, 1)), None, np.zeros((1, 1)))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_as_budget_balance_any_profile(seed, k):
    rng = np.random.default_rng(seed)
    selfs = rng.uniform(-0.5, 1.5, size=k)
    out = _one(AS(), selfs, r0=rng.uniform(-0.5, 1.5, size=k))
    assert abs(math.fsum(out.taxes)) <= 1e-12


# ---------------------------------------------------------------------------
# Extended scoring (ring validation)
# ---------------------------------------------------------------------------


def _cross_from_predecessors(ring, pred_reports, k, fill=99.0):
    """Cross matrix holding only the entries the ring layer reads."""
    cross = np.full((k, k), fill)
    pos = {a: p for p, a in enumerate(ring)}
    for i in range(k):
        pred = ring[(pos[i] - 1) % k]
        cross[pred, i] = pred_reports[i]
    return cross


def test_extended_as_worked_example():
    # K=3, natural ring; predecessor reports (0.4, 0.6, 0.8) about agents 0,1,2.
    # Discrepancies (0.1, 0.0, 0.1); with K-2 = 1 each agent nets its own
    # charge minus its predecessor's: t = (0.0, -0.1, 0.1).
    ring = (0, 1, 2)
    cross = _cross_from_predecessors(ring, [0.4, 0.6, 0.8], 3)
    out = _one(ExtendedAS(ring=ring), [0.5, 0.6, 0.7], cross, [0.0, 0.0, 0.0])
    assert out.reputations == pytest.approx([0.5, 0.6, 0.7])
    assert out.taxes == pytest.approx([0.0, -0.1, 0.1], abs=1e-15)
    assert math.fsum(out.taxes) == pytest.approx(0.0, abs=1e-15)


def test_extended_as_truthful_noiseless_is_tax_free():
    truths = np.array([0.2, 0.5, 0.9, 0.4])
    cross = np.tile(truths, (4, 1))
    for layers in (1, 2):
        out = _one(ExtendedAS(ring=(2, 0, 3, 1), layers=layers), truths, cross, truths)
        assert out.taxes == pytest.approx([0.0] * 4, abs=1e-15)


def test_extended_as_ignores_non_ring_cross_reports():
    ring = (1, 2, 0)
    cross = _cross_from_predecessors(ring, [0.45, 0.55, 0.65], 3, fill=123.0)
    out = _one(ExtendedAS(ring=ring), [0.5, 0.6, 0.7], cross, [0.0, 0.0, 0.0])
    assert np.all(np.isfinite(out.taxes))
    assert np.max(np.abs(out.taxes)) < 1.0  # junk entries never enter layer 1


def test_extended_as_needs_three_agents():
    with pytest.raises(TooFewAgents):
        _one(ExtendedAS(), [0.5, 0.5], np.full((2, 2), 0.5), [0.5, 0.5])


def test_extended_as_ring_size_must_match():
    with pytest.raises(DimensionMismatch):
        _one(ExtendedAS(ring=(0, 1)), [0.5, 0.5, 0.5], np.full((3, 3), 0.5), [0.5] * 3)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 2))
def test_extended_as_budget_balance_any_profile(seed, k, layers):
    rng = np.random.default_rng(seed)
    ring = tuple(rng.permutation(k).tolist())
    ring2 = tuple(rng.permutation(k).tolist()) if layers == 2 else None
    selfs = rng.uniform(-0.5, 1.5, size=k)
    cross = rng.uniform(-0.5, 1.5, size=(k, k))
    spec = ExtendedAS(ring=ring, layers=layers, second_ring=ring2)
    out = _one(spec, selfs, cross, np.zeros(k))
    assert abs(math.fsum(out.taxes)) <= 1e-12


def test_extended_as_each_layer_balances_separately():
    rng = np.random.default_rng(11)
    k = 6
    selfs = rng.uniform(0, 1, size=k)
    cross = rng.uniform(0, 1, size=(k, k))
    ring = tuple(rng.permutation(k).tolist())
    one = _one(ExtendedAS(ring=ring, layers=1), selfs, cross, np.zeros(k))
    two = _one(ExtendedAS(ring=ring, layers=2), selfs, cross, np.zeros(k))
    second_layer = two.taxes - one.taxes
    assert abs(math.fsum(second_layer.tolist())) <= 1e-12
    assert np.max(np.abs(second_layer)) > 0.0  # the layer actually charges something


# ---------------------------------------------------------------------------
# Fair ranking
# ---------------------------------------------------------------------------


def test_fr_shares_and_degenerate_profile():
    out = _one(FR(), [0.2, 0.3, 0.5], r0=[0.0] * 3)
    assert out.reputations == pytest.approx([0.2, 0.3, 0.5])
    assert out.taxes == pytest.approx([0.0] * 3)
    out = _one(FR(), [0.7] * 5, r0=[0.0] * 5)
    assert out.reputations == pytest.approx([0.2] * 5)
    out = _one(FR(), [0.0, 0.0, 0.0, 0.0], r0=[0.0] * 4)
    assert out.reputations == pytest.approx([0.25] * 4)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_fr_probability_vector(seed, k):
    rng = np.random.default_rng(seed)
    out = _one(FR(), rng.uniform(0, 1, size=k), r0=np.zeros(k))
    assert np.all(out.reputations >= 0)
    assert math.fsum(out.reputations.tolist()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Simple averaging
# ---------------------------------------------------------------------------


def test_simple_avg_worked_example():
    cross = np.full((3, 3), 50.0)  # junk diagonal and off-target entries
    cross[1, 0], cross[2, 0] = 0.4, 0.6
    cross[0, 1], cross[2, 1] = 0.7, 0.7
    cross[0, 2], cross[1, 2] = 0.1, 0.3
    out = _one(SimpleAveraging(), [9.0, 9.0, 9.0], cross, [0.5, 0.7, 0.2])
    assert out.reputations == pytest.approx([0.5, 0.7, 0.2])
    assert out.taxes == pytest.approx([0.0] * 3)


def test_simple_avg_requires_cross_reports():
    with pytest.raises(DimensionMismatch):
        _one(SimpleAveraging(), [0.5, 0.5], r0=[0.5, 0.5])


def test_simple_avg_unbiased_monte_carlo():
    rng = np.random.default_rng(321)
    k, trials, sigma = 4, 200_000, 0.2
    truths = np.array([0.2, 0.4, 0.6, 0.8])
    cross = truths[None, None, :] + rng.normal(0, sigma, size=(trials, k, k))
    r0 = truths[None, :] + rng.normal(0, sigma, size=(trials, k))
    reps, _ = run_batch(SimpleAveraging(), None, cross, r0)
    stderr = sigma / math.sqrt(k * trials)
    assert np.max(np.abs(reps.mean(axis=0) - truths)) < 3 * stderr


# ---------------------------------------------------------------------------
# Punish-reward
# ---------------------------------------------------------------------------


def _pr_msgs(self0, aggregate, k=4):
    """Profile whose aggregate for agent 0 equals ``aggregate`` exactly."""
    cross = np.full((k, k), aggregate)
    selfs = np.full(k, aggregate)
    selfs[0] = self0
    r0 = np.full(k, aggregate)
    return selfs, cross, r0


def test_pr_reward_and_punish_branches():
    a, sigma_prime = 2.0, 0.05
    eps = a * sigma_prime
    xbar = 0.5
    out = _one(PR(a=a), *_pr_msgs(xbar, xbar), sigma_prime=sigma_prime)
    assert out.reputations[0] == pytest.approx(xbar)

    out = _one(PR(a=a), *_pr_msgs(xbar + 2 * eps, xbar), sigma_prime=sigma_prime)
    assert out.reputations[0] == pytest.approx(xbar - 2 * eps)

    # Closed band: the boundary point still lands in the reward branch.
    out = _one(PR(a=a), *_pr_msgs(xbar + eps, xbar), sigma_prime=sigma_prime)
    assert out.reputations[0] == pytest.approx(xbar + eps / 2)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_pr_punishment_never_rewards(seed):
    rng = np.random.default_rng(seed)
    k = 5
    sigma_prime = 0.05
    spec = PR(a=float(rng.uniform(0.5, 4.0)))
    eps = spec.a * sigma_prime
    selfs = rng.uniform(-0.5, 1.5, size=(1, k))
    cross = rng.uniform(0, 1, size=(1, k, k))
    r0 = rng.uniform(0, 1, size=(1, k))
    reps, _ = run_batch(spec, selfs, cross, r0, sigma_prime)
    aggregate = ((cross.sum(axis=1) - np.diagonal(cross, axis1=1, axis2=2)) + r0) / k
    assert np.all(reps <= aggregate + eps + 1e-12)
    outside = np.abs(selfs - aggregate) > eps
    assert np.all(reps[outside] <= aggregate[outside] + 1e-12)


# ---------------------------------------------------------------------------
# Weighted punish-reward
# ---------------------------------------------------------------------------


def test_weighted_pr_uniform_weights_use_cross_only_mean():
    rng = np.random.default_rng(5)
    k = 4
    selfs = rng.uniform(0, 1, size=k)
    cross = rng.uniform(0, 1, size=(k, k))
    spec = WeightedPR(a=2.0, weights=(1.0,) * k)
    out = _one(spec, selfs, cross, np.zeros(k), sigma_prime=0.05)
    csum = cross.sum(axis=0) - np.diagonal(cross)
    aggregate = csum / (k - 1)
    eps = 2.0 * 0.05
    gap = np.abs(selfs - aggregate)
    expected = np.where(gap <= eps, 0.5 * (selfs + aggregate), aggregate - gap)
    assert out.reputations == pytest.approx(expected, abs=1e-14)


def test_weighted_pr_degenerate_weights():
    k = 3
    cross = np.array([[0.0, 0.41, 0.62], [0.9, 0.0, 0.9], [0.9, 0.9, 0.0]])
    spec = WeightedPR(a=2.0, weights=(1.0, 1e-9, 1e-9))
    out = _one(spec, [0.41, 0.41, 0.62], cross, np.zeros(k), sigma_prime=0.05)
    # Subjects 1 and 2 see (almost) exactly reporter 0's claims.
    assert out.reputations[1] == pytest.approx(0.5 * (0.41 + 0.41), abs=1e-6)
    assert out.reputations[2] == pytest.approx(0.5 * (0.62 + 0.62), abs=1e-6)


def test_weighted_pr_zero_weight_errors():
    k = 3
    for weights in ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)):
        spec = WeightedPR(a=2.0, weights=weights)
        with pytest.raises(ZeroWeightSum):
            _one(spec, [0.5] * k, np.full((k, k), 0.5), np.zeros(k), sigma_prime=0.05)


def test_weighted_pr_inverse_variance_lowers_aggregate_variance():
    rng = np.random.default_rng(99)
    k, trials = 3, 100_000
    truths = np.full(k, 0.5)
    stds = np.array([0.02, 0.3, 0.3])
    cross = truths[None, None, :] + rng.normal(0, 1, size=(trials, k, k)) * stds[None, :, None]
    inv_var = tuple(1.0 / s**2 for s in stds)
    uniform = WeightedPR(a=2.0, weights=(1.0,) * k)
    tuned = WeightedPR(a=2.0, weights=inv_var)
    selfs = np.full((trials, k), 0.5)
    reps_u, _ = run_batch(uniform, selfs, cross, None, 0.05)
    reps_t, _ = run_batch(tuned, selfs, cross, None, 0.05)
    # Variance of the subject-2 aggregate: reporters are 0 and 1, so weighting
    # toward reporter 0 (tiny sigma) must shrink the spread.
    assert reps_t[:, 2].var() < reps_u[:, 2].var()


# ---------------------------------------------------------------------------
# Direct observation baseline
# ---------------------------------------------------------------------------


def test_direct_observation_identity():
    out = _one(DirectObservation(), r0=[0.37, 0.81])
    assert out.reputations == pytest.approx([0.37, 0.81])
    assert out.taxes == pytest.approx([0.0, 0.0])


def test_direct_observation_mae_scale():
    rng = np.random.default_rng(2718)
    k, sigma, trials = 5, 0.2, 400_000
    truths = rng.uniform(0.2, 0.8, size=k)
    r0 = truths[None, :] + rng.normal(0, sigma, size=(trials, k))
    reps, _ = run_batch(DirectObservation(), None, None, r0)
    total_mae = np.abs(reps - truths[None, :]).sum(axis=1).mean()
    assert total_mae == pytest.approx(math.sqrt(2 / math.pi) * k * sigma, rel=0.02)


# ---------------------------------------------------------------------------
# Dispatch and input validation
# ---------------------------------------------------------------------------


def test_context_validation():
    r0 = np.full((1, 2), 0.5)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            run_batch(AS(), r0, None, r0, sigma_prime=bad)
    # Every array needs the leading trials axis.
    with pytest.raises(DimensionMismatch):
        run_batch(AS(), np.array([0.1, 0.2]), None, np.array([0.5, 0.5]))
    # System observations must agree with the reports on trials and K.
    with pytest.raises(DimensionMismatch):
        run_batch(AS(), np.zeros((2, 3)), None, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch):
        run_batch(AS(), np.zeros((1, 3)), None, np.zeros((1, 2)))


def test_profile_context_size_mismatch():
    with pytest.raises(DimensionMismatch):
        _one(AS(), [0.5, 0.5, 0.5], r0=[0.5, 0.5])


def test_run_batch_dispatch():
    out = _one(FR(), [0.2, 0.3, 0.5], r0=[0.0] * 3)
    assert out.reputations == pytest.approx([0.2, 0.3, 0.5])
    out = _one(DirectObservation(), r0=[0.1, 0.2])
    assert out.reputations == pytest.approx([0.1, 0.2])
    with pytest.raises(DimensionMismatch):
        _one(AS(), r0=[0.1, 0.2])
    with pytest.raises(DimensionMismatch):
        run_batch(DirectObservation(), None, None, None)


@pytest.mark.parametrize(
    "spec",
    [
        AS(),
        ExtendedAS(layers=2),
        FR(),
        SimpleAveraging(),
        PR(a=1.5),
        WeightedPR(1.5, (1, 2, 3, 4)),
        DirectObservation(),
    ],
    ids=lambda spec: type(spec).__name__,
)
def test_calls_without_a_workspace_share_no_memory(spec):
    # A call given no workspace makes its own, so two calls on equal inputs
    # return equal outcomes in memory of their own.
    rng = np.random.default_rng(9)
    inputs = rng.uniform(size=(20, 4)), rng.uniform(size=(20, 4, 4)), rng.uniform(size=(20, 4))
    first = run_batch(spec, *(a.copy() for a in inputs), 0.1)
    second = run_batch(spec, *(a.copy() for a in inputs), 0.1)
    for mine, theirs in zip(first, second):
        assert np.array_equal(mine, theirs)
    assert not any(np.shares_memory(mine, theirs) for mine in first for theirs in second)


@pytest.mark.parametrize("spec", [AS(), ExtendedAS(layers=2)], ids=["as", "extended-as"])
def test_published_self_reports_are_read_only_views(spec):
    # Scoring and ring validation publish the self-reports.  With or
    # without a workspace the reputations are a read-only view of them, so
    # a caller that rewrites its self-reports rewrites what it was handed.
    rng = np.random.default_rng(5)
    selfs, r0 = rng.uniform(size=(20, 4)), rng.uniform(size=(20, 4))
    cross = rng.uniform(size=(20, 4, 4))
    for workspace in (Workspace(), None):
        reps, _ = run_batch(spec, selfs, cross, r0, workspace=workspace)
        assert not reps.flags.writeable
        assert np.shares_memory(reps, selfs)
        assert np.array_equal(reps, selfs)


@pytest.mark.parametrize(
    "spec",
    [SimpleAveraging(), PR(a=1.5), WeightedPR(a=1.5, weights=(0.5, 2.0, 1.0, 1.25))],
)
def test_peer_sum_kernels_read_the_dense_reduction(spec):
    rng = np.random.default_rng(17)
    selfs, r0 = rng.uniform(size=(50, 4)), rng.uniform(size=(50, 4))
    cross = rng.uniform(size=(50, 4, 4))
    dense = run_batch(spec, selfs, cross, r0, 0.1)
    summed = run_batch(spec, selfs, None, r0, 0.1, peer_sums=_peer_sums(spec, cross))
    assert all((a == b).all() for a, b in zip(dense, summed))
    with pytest.raises(DimensionMismatch, match="peer_sums"):
        run_batch(spec, selfs, None, r0, 0.1, peer_sums=np.zeros((50, 3)))


def test_each_family_declares_what_it_reads():
    for spec in (AS(), FR(), DirectObservation()):
        assert cross_reads(spec) == NO_CROSS
    for spec in (SimpleAveraging(), PR(), WeightedPR(weights=(1.0, 1.0))):
        assert cross_reads(spec) == PEER_SUMS
    assert cross_reads(ExtendedAS()) == RING


# ---------------------------------------------------------------------------
# Per-trial secret rings
# ---------------------------------------------------------------------------


def _per_trial(selfs, cross, rings1, rings2, layers):
    """Ring validation of dense reports over per-trial rings."""
    maps, readers = _ring_setup(selfs.shape[1], [rings1, rings2][:layers], Workspace())
    return _ring_outcome(selfs, _gather(cross, readers), maps, Workspace())


def test_per_trial_rings_match_fixed_ring_kernel():
    rng = np.random.default_rng(31)
    batch, k = 64, 5
    selfs = rng.uniform(0, 1, size=(batch, k))
    cross = rng.uniform(0, 1, size=(batch, k, k))
    ring = (3, 1, 4, 0, 2)
    second = (2, 4, 1, 3, 0)
    for layers, ring2 in ((1, None), (2, None), (2, second)):
        spec = ExtendedAS(ring=ring, layers=layers, second_ring=ring2)
        reps_fixed, taxes_fixed = run_batch(spec, selfs, cross, None)
        rings1 = np.tile(np.array(ring), (batch, 1))
        rings2 = np.tile(np.array(ring if ring2 is None else ring2), (batch, 1))
        reps_pt, taxes_pt = _per_trial(selfs, cross, rings1, rings2, layers)
        assert np.array_equal(reps_fixed, reps_pt)
        assert np.array_equal(taxes_fixed, taxes_pt)


def test_per_trial_rings_budget_balance_random_rings():
    rng = np.random.default_rng(32)
    batch, k = 256, 6
    selfs = rng.uniform(-0.5, 1.5, size=(batch, k))
    cross = rng.uniform(-0.5, 1.5, size=(batch, k, k))
    base = np.broadcast_to(np.arange(k), (batch, k))
    rings1 = rng.permuted(base, axis=1)
    rings2 = rng.permuted(base, axis=1)
    _, taxes = _per_trial(selfs, cross, rings1, rings2, 2)
    assert np.max(np.abs(taxes.sum(axis=1))) < 1e-12


def test_per_trial_rings_too_few_agents():
    agents = tuple(Agent(id=i, quality=Quality(0.5), agent_type=Truth()) for i in range(2))
    arm = Arm(Environment(agents=agents), _SecretRings(layers=1), lambda *arrays: {})
    with pytest.raises(TooFewAgents):
        simulate([arm], 4, 0)
    # Refused before anything is drawn, and before a fixed ring's length is
    # read: K comes first for both ring kinds.
    env = Environment(agents=agents)
    for spec in (_SecretRings(layers=1), ExtendedAS(ring=(0, 1, 2))):
        with pytest.raises(TooFewAgents):
            _batch_source([(Arm(env, spec, lambda *arrays: {}), {})])
    with pytest.raises(TooFewAgents):
        run_batch(ExtendedAS(ring=(0, 1, 2)), np.zeros((1, 2)), np.zeros((1, 2, 2)), None)


# ---------------------------------------------------------------------------
# Relabelling: ring validation does not care what the agents are called
# ---------------------------------------------------------------------------


def _relabelled(perm, selfs, cross):
    """The reports with agent a renamed perm[a]."""
    inv = np.argsort(perm)
    return selfs[:, inv], cross[:, inv][:, :, inv]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 2), st.booleans())
def test_relabelling_agents_and_fixed_rings_permutes_ring_validation(seed, k, layers, own_second):
    rng = np.random.default_rng(seed)
    perm, ring, second = rng.permutation(k), rng.permutation(k), rng.permutation(k)
    selfs = rng.uniform(-0.5, 1.5, size=(16, k))
    cross = rng.uniform(-0.5, 1.5, size=(16, k, k))

    def spec(relabel):
        named = lambda order: tuple(relabel[order].tolist())
        return ExtendedAS(
            ring=named(ring),
            layers=layers,
            second_ring=named(second) if own_second and layers == 2 else None,
        )

    reps, taxes = run_batch(spec(np.arange(k)), selfs, cross, None)
    inv = np.argsort(perm)
    moved_reps, moved_taxes = run_batch(spec(perm), *_relabelled(perm, selfs, cross), None)
    assert np.max(np.abs(moved_reps - reps[:, inv])) <= 1e-12
    assert np.max(np.abs(moved_taxes - taxes[:, inv])) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 2))
def test_relabelling_agents_and_per_trial_rings_permutes_ring_validation(seed, k, layers):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    base = np.broadcast_to(np.arange(k), (16, k))
    rings = [rng.permuted(base, axis=1) for _ in range(layers)]
    selfs = rng.uniform(-0.5, 1.5, size=(16, k))
    cross = rng.uniform(-0.5, 1.5, size=(16, k, k))

    def outcome(rings, selfs, cross):
        maps, readers = _ring_setup(k, rings, Workspace())
        return _ring_outcome(selfs, _gather(cross, readers), maps, Workspace())

    reps, taxes = outcome(rings, selfs, cross)
    inv = np.argsort(perm)
    moved_reps, moved_taxes = outcome([perm[r] for r in rings], *_relabelled(perm, selfs, cross))
    assert np.max(np.abs(moved_reps - reps[:, inv])) <= 1e-12
    assert np.max(np.abs(moved_taxes - taxes[:, inv])) <= 1e-12


_FAMILIES = {
    "as": lambda weights: AS(),
    "fr": lambda weights: FR(),
    "simple_averaging": lambda weights: SimpleAveraging(),
    "pr": lambda weights: PR(a=1.5),
    "weighted_pr": lambda weights: WeightedPR(a=1.5, weights=tuple(weights.tolist())),
    "direct": lambda weights: DirectObservation(),
}


@pytest.mark.parametrize("family", _FAMILIES)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12))
def test_relabelling_agents_permutes_every_other_family(family, seed, k):
    # Weighted punish-reward's weights are the reporters', so they move
    # with the agents.
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    inv = np.argsort(perm)
    selfs, r0 = rng.uniform(0.0, 1.0, size=(2, 16, k))
    cross = rng.uniform(0.0, 1.0, size=(16, k, k))
    weights = rng.uniform(0.1, 2.0, size=k)
    spec = _FAMILIES[family]
    reps, taxes = run_batch(spec(weights), selfs, cross, r0, 0.1)
    moved_reps, moved_taxes = run_batch(
        spec(weights[inv]), *_relabelled(perm, selfs, cross), r0[:, inv], 0.1
    )
    assert np.max(np.abs(moved_reps - reps[:, inv])) <= 1e-12
    assert np.max(np.abs(moved_taxes - taxes[:, inv])) <= 1e-12


def test_layer_two_reads_never_name_one_reporter(monkeypatch):
    # sample_ring_reads draws a layer-2 read again only where its reporter
    # is not layer 1's: it relies on pred2(i) and pred2(pred2(i)) never
    # being one agent.  The readers are those the engine sets up, for a
    # fixed ring and for secret rings, each checked against its ring.
    seen = []

    def spy(k, rings, workspace):
        maps, readers = _ring_setup(k, rings, workspace)
        seen.append([r.copy() for r in readers])
        return maps, readers

    monkeypatch.setattr(simulator, "_ring_setup", spy)
    k = 7
    agents = tuple(Agent(id=i, quality=Quality(0.1 * (i + 1)), agent_type=Truth()) for i in range(k))
    env = Environment(agents=agents)
    keep = lambda draw, batches, workspace: [{"n": 0.0}] * len(batches)
    ring, second = (3, 1, 6, 0, 5, 2, 4), (2, 4, 1, 6, 3, 0, 5)
    for spec in (ExtendedAS(ring=ring, layers=2, second_ring=second), _SecretRings(layers=2)):
        seen.clear()
        simulate([Arm(env, spec, keep)], 3_000, 5)
        ((first, pred2, pred22),) = seen
        subjects = np.arange(k)
        if isinstance(spec, _SecretRings):
            rows = np.arange(pred2.shape[0])[:, None]
            assert pred2.shape == (3_000, k)
            assert (np.sort(pred2, axis=1) == subjects).all() and (pred2 != subjects).all()
            assert (pred22 == pred2[rows, pred2]).all()
        else:
            position = np.argsort(second)
            assert (first == np.array(ring)[(np.argsort(ring) - 1) % k]).all()
            assert (pred2 == np.array(second)[(position - 1) % k]).all()
            assert (pred22 == np.array(second)[(position - 2) % k]).all()
        assert (pred22 != pred2).all() and (pred22 != subjects).all()


# ---------------------------------------------------------------------------
# Translation, scale, linearity and the band: what scoring, share-of-total,
# averaging and punish-reward must keep on any draw
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(-2.0, 2.0))
def test_translating_reports_and_observations_shifts_scoring_reputations(seed, k, c):
    # Absolute scoring charges the gap between self-report and system
    # observation, which a common shift leaves as it is.
    rng = np.random.default_rng(seed)
    selfs, r0 = rng.uniform(-0.5, 1.5, size=(2, 16, k))
    reps, taxes = run_batch(AS(), selfs, None, r0)
    moved_reps, moved_taxes = run_batch(AS(), selfs + c, None, r0 + c)
    assert np.max(np.abs(moved_reps - (reps + c))) <= 1e-12
    assert np.max(np.abs(moved_taxes - taxes)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(1e-3, 1e3), st.booleans()
)
def test_scaling_self_reports_keeps_the_shares(seed, k, scale, zero_round):
    # A share is a self-report over its round's total; a round of zero
    # reports gives 1/K to all, at any scale.
    rng = np.random.default_rng(seed)
    selfs = rng.uniform(0.01, 1.0, size=(16, k))
    if zero_round:
        selfs[3] = 0.0
    shares, taxes = run_batch(FR(), selfs, None, None)
    moved_shares, moved_taxes = run_batch(FR(), scale * selfs, None, None)
    assert np.max(np.abs(moved_shares - shares)) <= 1e-12
    assert not taxes.any() and not moved_taxes.any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_averaging_reputations_are_linear_in_peer_sums_and_prior(seed, k, alpha, beta):
    rng = np.random.default_rng(seed)
    sums = rng.uniform(-0.5, 1.5, size=(2, 16, k)) * (k - 1)
    r0 = rng.uniform(-0.5, 1.5, size=(2, 16, k))

    def reps(peer_sums, prior):
        return run_batch(SimpleAveraging(), None, None, prior, peer_sums=peer_sums)[0]

    mixed = reps(alpha * sums[0] + beta * sums[1], alpha * r0[0] + beta * r0[1])
    combined = alpha * reps(sums[0], r0[0]) + beta * reps(sums[1], r0[1])
    assert np.max(np.abs(mixed - combined)) <= 1e-12


def _band_draw(family, seed, k):
    """A punish-reward spec, peer sums and priors, and the aggregate each
    subject's self-report is compared with, as ``_aggregate`` defines it."""
    rng = np.random.default_rng(seed)
    sums = rng.uniform(0.0, 1.0, size=(16, k)) * (k - 1)
    r0 = rng.uniform(0.0, 1.0, size=(16, k))
    if family == "pr":
        return PR(a=1.5), sums, r0, (sums + r0) / k, rng
    weights = rng.uniform(0.1, 2.0, size=k)
    spec = WeightedPR(a=1.5, weights=tuple(weights.tolist()))
    return spec, sums, r0, sums / (weights.sum() - weights), rng


@pytest.mark.parametrize("family", ["pr", "weighted_pr"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12))
def test_a_move_inside_the_band_moves_only_that_reputation_by_half(family, seed, k):
    # Inside the band x is published as (x + aggregate) / 2, so moving x by
    # delta there moves its own reputation by delta / 2 and no other.
    spec, sums, r0, aggregate, rng = _band_draw(family, seed, k)
    eps = spec.a * 0.1
    before = aggregate + rng.uniform(-0.9, 0.9, size=(16, k)) * eps
    moved = rng.random((16, k)) < 0.5
    after = np.where(moved, aggregate + rng.uniform(-0.9, 0.9, size=(16, k)) * eps, before)

    def reps(selfs):
        return run_batch(spec, selfs, None, r0, 0.1, peer_sums=sums)[0]

    shift = reps(after) - reps(before)
    assert np.max(np.abs(shift - (after - before) / 2)) <= 1e-12
    assert (shift[~moved] == 0.0).all()


@pytest.mark.parametrize("family", ["pr", "weighted_pr"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12))
def test_a_report_below_the_band_is_published_as_it_is(family, seed, k):
    # An aggregate above x + a * sigma' leaves the aggregate less the gap,
    # which is x itself.
    spec, sums, r0, aggregate, rng = _band_draw(family, seed, k)
    selfs = aggregate - spec.a * 0.1 * rng.uniform(1.05, 3.0, size=(16, k))
    reps, _ = run_batch(spec, selfs, None, r0, 0.1, peer_sums=sums)
    assert np.max(np.abs(reps - selfs)) <= 1e-12


# ---------------------------------------------------------------------------
# Ring reads: the dense gathers they replaced, as the oracle
# ---------------------------------------------------------------------------


def _gathered_kernel(selfs, cross, rings1, rings2, layers):
    """Ring validation as it read the dense reports before the ring reads:
    layer 1 gathers the predecessor's report about each subject, layer 2
    each reporter's report about its successor and its predecessor's."""
    k = selfs.shape[1]
    rows, pred1, succ1 = _ring_maps(rings1, Workspace())
    d1 = np.abs(selfs - cross[rows, pred1, np.arange(k)])
    taxes = _validation_layer(d1, rows, succ1, np.empty_like(d1), Workspace())
    if layers == 2:
        rows2, pred2, succ2 = _ring_maps(rings2, Workspace())
        reporters = np.arange(k)
        # F-ordered, as the dense gather over the engine's permuted rings
        # laid it out; the row totals add in that order.
        d2 = np.asfortranarray(np.abs(cross[rows2, reporters, succ2] - cross[rows2, pred2, succ2]))
        taxes = taxes + _validation_layer(d2, rows2, succ2, np.empty_like(d2), Workspace())
    return d1, taxes


def _moved(terms, values, i):
    """The (G, trials, K) reputations and (G, trials) own taxes that
    ``deviation_terms``' move gives at ``values``, which broadcast to (G,
    trials): the others' through its affine map, or as the draw had them."""
    reps, base, move = terms
    own_rep, own_tax, others = move(values, slice(None))
    shape = np.broadcast_shapes(values.shape, reps.shape[:1])
    moved = np.repeat(reps[None], shape[0], axis=0)
    if others is not None:
        add, div = np.broadcast_arrays(*others, values)[:2]
        k = reps.shape[1]
        for j in range(k):
            with np.errstate(divide="ignore", invalid="ignore"):
                moved[..., j] = np.where(div == 0.0, 1.0 / k, (base[j] + add) / div)
    moved[..., i] = own_rep
    return moved, np.broadcast_to(own_tax, shape)


def _assert_own_tax_is_the_rerun(spec, draw, cross, sigma_prime=0.0, tol=1e-15):
    """Each deviator's outcome from ``deviation_terms``: the draw's own at
    its drawn report (under scoring and ring validation its tax bit for
    bit), and the dense kernel rerun with its report set to x at every
    other x, within ``tol``.  The report is the self-report, and under
    simple averaging a bias x - 1/2 on the deviator's cross-reports."""
    selfs = draw.selfs
    xs = np.linspace(0.0, 1.0, 7)
    averaging = isinstance(spec, SimpleAveraging)
    for i in range(selfs.shape[1]):
        terms = deviation_terms(spec, draw, sigma_prime, i)
        drawn = np.array([[0.5]]) if averaging else selfs[None, :, i]
        reps, taxes = _moved(terms, drawn, i)
        if terms[1] is None:
            assert (taxes[0] == draw.taxes[:, i]).all()
        assert np.max(np.abs(reps[0] - draw.reps)) <= tol, i
        assert np.max(np.abs(taxes[0] - draw.taxes[:, i])) <= tol, i
        reps, taxes = _moved(terms, xs[:, None], i)
        for x, got_reps, got_tax in zip(xs, reps, taxes):
            deviated, dense = selfs.copy(), None if cross is None else cross.copy()
            if averaging:
                dense[:, i, :] += x - 0.5
            else:
                deviated[:, i] = x
            want_reps, want = run_batch(spec, deviated, dense, draw.r0, sigma_prime)
            assert np.max(np.abs(got_tax - want[:, i])) <= tol, (i, x)
            assert np.max(np.abs(got_reps - want_reps)) <= tol, (i, x)


@pytest.mark.parametrize("k", [3, 5, 12])
@pytest.mark.parametrize(
    "layers, rings",
    [(1, "default"), (1, "custom"), (2, "default"), (2, "custom"), (2, "custom_second")],
)
def test_ring_reads_keep_the_dense_kernel_bit_for_bit(k, layers, rings):
    rng = np.random.default_rng(100 + k)
    batch = 300
    selfs = rng.normal(0.5, 0.2, size=(batch, k))
    cross = rng.normal(0.5, 0.2, size=(batch, k, k))
    ring = None if rings == "default" else tuple(rng.permutation(k).tolist())
    second = tuple(rng.permutation(k).tolist()) if rings == "custom_second" else None
    spec = ExtendedAS(ring=ring, layers=layers, second_ring=second)
    order = np.array([ring or tuple(range(k))])
    order2 = order if second is None else np.array([second])
    reps, taxes = run_batch(spec, selfs, cross, None)
    assert (taxes == _gathered_kernel(selfs, cross, order, order2, layers)[1]).all()
    reads = _gather(cross, _ring_setup(k, _spec_rings(spec, k), Workspace())[1])
    draw = ProfileDraw(r0=None, selfs=selfs, reps=reps, taxes=taxes, ring_reads=reads)
    _assert_own_tax_is_the_rerun(spec, draw, cross)


@pytest.mark.parametrize("k", [2, 3, 5, 12])
def test_scoring_own_tax_is_the_dense_kernel_rerun(k):
    rng = np.random.default_rng(300 + k)
    batch = 300
    selfs = rng.normal(0.5, 0.2, size=(batch, k))
    r0 = rng.normal(0.5, 0.2, size=(batch, k))
    reps, taxes = run_batch(AS(), selfs, None, r0)
    draw = ProfileDraw(r0=r0, selfs=selfs, reps=reps, taxes=taxes)
    _assert_own_tax_is_the_rerun(AS(), draw, None)


@pytest.mark.parametrize("k", [3, 5, 12])
@pytest.mark.parametrize(
    "spec",
    [FR(), SimpleAveraging(), PR(a=1.5), WeightedPR(a=1.5)],
    ids=["fr", "simple_averaging", "pr", "weighted_pr"],
)
def test_affine_deviation_terms_are_the_dense_kernel_rerun(spec, k):
    # The affine maps of the others' reputations round apart from the
    # kernels' arithmetic.
    rng = np.random.default_rng(400 + k)
    batch = 300
    selfs = rng.uniform(0.0, 1.0, size=(batch, k))
    r0 = rng.normal(0.5, 0.2, size=(batch, k))
    cross = rng.normal(0.5, 0.2, size=(batch, k, k))
    if isinstance(spec, WeightedPR):
        spec = WeightedPR(a=1.5, weights=tuple(rng.uniform(0.5, 2.0, k)))
    reps, taxes = run_batch(spec, selfs, cross, r0, 0.1)
    peer_sums = _peer_sums(spec, cross) if cross_reads(spec) == PEER_SUMS else None
    draw = ProfileDraw(r0=r0, selfs=selfs, reps=reps, taxes=taxes, peer_sums=peer_sums)
    _assert_own_tax_is_the_rerun(spec, draw, cross, 0.1, 1e-12)


@pytest.mark.parametrize("k", [3, 5, 12, 40])
def test_ring_reads_keep_per_trial_rings_bit_for_bit(k):
    rng = np.random.default_rng(200 + k)
    batch = 256
    selfs = rng.normal(0.5, 0.2, size=(batch, k))
    cross = rng.normal(0.5, 0.2, size=(batch, k, k))
    base = np.broadcast_to(np.arange(k), (batch, k))
    rings1, rings2 = rng.permuted(base, axis=1), rng.permuted(base, axis=1)
    for layers in (1, 2):
        _, taxes = _per_trial(selfs, cross, rings1, rings2, layers)
        assert (taxes == _gathered_kernel(selfs, cross, rings1, rings2, layers)[1]).all()
