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
    _ring_layers,
    _ring_maps,
    _ring_outcome,
    _ring_setup,
    _validation_layer,
    cross_reads,
    deviation_terms,
    run_batch,
)
from replab.simulator import Arm, _SecretRings, simulate
from replab.strategies import ProfileDraw


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


@pytest.mark.parametrize("spec", [AS(), ExtendedAS(layers=2)], ids=["as", "extended-as"])
def test_published_self_reports_are_views_only_of_a_kept_workspace(spec):
    # Scoring and ring validation publish the self-reports.  With a kept
    # workspace the reputations are a read-only view of them, so a caller
    # that rewrites its self-reports rewrites what it was handed; without
    # one every call returns new arrays.
    rng = np.random.default_rng(5)
    selfs, r0 = rng.uniform(size=(20, 4)), rng.uniform(size=(20, 4))
    cross = rng.uniform(size=(20, 4, 4))
    kept, _ = run_batch(spec, selfs, cross, r0, workspace=Workspace())
    assert not kept.flags.writeable
    assert np.shares_memory(kept, selfs)
    assert np.array_equal(kept, selfs)
    fresh, _ = run_batch(spec, selfs, cross, r0)
    assert fresh.flags.writeable
    assert not np.shares_memory(fresh, selfs)
    assert np.array_equal(fresh, selfs)


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
    maps, readers = _ring_layers([rings1, rings2][:layers])
    return _ring_outcome(selfs, _gather(cross, readers), maps)


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


# ---------------------------------------------------------------------------
# Ring reads: the dense gathers they replaced, as the oracle
# ---------------------------------------------------------------------------


def _gathered_kernel(selfs, cross, rings1, rings2, layers):
    """Ring validation as it read the dense reports before the ring reads:
    layer 1 gathers the predecessor's report about each subject, layer 2
    each reporter's report about its successor and its predecessor's."""
    k = selfs.shape[1]
    rows, pred1, succ1 = _ring_maps(rings1)
    d1 = np.abs(selfs - cross[rows, pred1, np.arange(k)])
    taxes = _validation_layer(d1, rows, succ1)
    if layers == 2:
        rows2, pred2, succ2 = _ring_maps(rings2)
        reporters = np.arange(k)
        # F-ordered, as the dense gather over the engine's permuted rings
        # laid it out; the row totals add in that order.
        d2 = np.asfortranarray(np.abs(cross[rows2, reporters, succ2] - cross[rows2, pred2, succ2]))
        taxes = taxes + _validation_layer(d2, rows2, succ2)
    return d1, taxes


def _assert_own_tax_is_the_rerun(spec, draw, cross):
    """Each deviator's tax from ``deviation_terms``: the draw's own at its
    drawn self-report, bit for bit, and the dense kernel rerun with its
    self-report set to x at every other x, up to rounding."""
    selfs = draw.selfs
    xs = np.linspace(0.0, 1.0, 7)
    for i in range(selfs.shape[1]):
        _, base, move = deviation_terms(spec, draw, 0.0, i)
        _, at_drawn, moved = move(selfs[None, :, i], slice(None))
        assert base is None and moved is None
        assert (at_drawn[0] == draw.taxes[:, i]).all()
        _, own_tax, _ = move(xs[:, None], slice(None))
        for x, got in zip(xs, own_tax):
            deviated = selfs.copy()
            deviated[:, i] = x
            _, want = run_batch(spec, deviated, cross, draw.r0)
            assert np.max(np.abs(got - want[:, i])) <= 1e-15, (i, x)


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
    reads = _gather(cross, _ring_setup(spec, k)[1])
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
