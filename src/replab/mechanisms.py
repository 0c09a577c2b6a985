"""Outcome functions: map one round of messages to reputations and taxes.

Every mechanism here is a deterministic pure function of the reports, the
system's own noisy observations ``R_0`` (used by the scoring taxes and the
averaging aggregates), the mechanism parameters, and the aggregate-noise
scale ``sigma_prime`` that calibrates punish-reward acceptance bands.

Report-matrix convention: ``cross_reports[j, i]`` is reporter j's claim about
subject i.  The diagonal is ignored everywhere -- an agent's claim about
itself travels in ``self_reports``.

The two scoring mechanisms are budget balanced *per message profile*, not just
in expectation: each discrepancy charge is redistributed in equal shares to
the agents whose own charges do not involve it, so the taxes sum to zero for
every input.  This identity is the backbone of the test suite.

All kernels are written against batched arrays (a leading trials axis) so the
Monte Carlo engine can evaluate many rounds in one call; :func:`run_batch`
dispatches on the mechanism spec, and a single round is a batch of one.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    AS,
    DimensionMismatch,
    DirectObservation,
    ExtendedAS,
    FR,
    MechanismSpec,
    PR,
    SimpleAveraging,
    WeightedPR,
    Workspace,
)

__all__ = [
    "TooFewAgents",
    "ZeroWeightSum",
    "NO_CROSS",
    "PEER_SUMS",
    "RING",
    "cross_reads",
    "peer_weights",
    "run_batch",
    "deviation_terms",
]


class TooFewAgents(ValueError):
    """The mechanism's redistribution terms need more agents than supplied."""


class ZeroWeightSum(ValueError):
    """Weighted aggregation is undefined because the relevant weights sum to zero."""


# ---------------------------------------------------------------------------
# What each family reads of the cross-report matrix
# ---------------------------------------------------------------------------

NO_CROSS = "none"
PEER_SUMS = "peer_sums"
RING = "ring"


def cross_reads(spec: MechanismSpec) -> str:
    """What ``spec`` reads of the cross reports.

    :data:`NO_CROSS`: scoring, share-of-total and direct observation read
    none.  :data:`PEER_SUMS`: the averaging and punish-reward families read
    each subject's peer reports only through one (weighted) sum,
    ``sum_{j != i} w_j R_ji`` with :func:`peer_weights`.  :data:`RING`:
    ring validation reads at most three entries per subject, its ring reads
    (:func:`_ring_outcome`'s ``reads``).
    """
    if isinstance(spec, (AS, FR, DirectObservation)):
        return NO_CROSS
    if isinstance(spec, (SimpleAveraging, PR, WeightedPR)):
        return PEER_SUMS
    return RING


def peer_weights(spec: MechanismSpec, k: int) -> np.ndarray:
    """The reporter weights of a :data:`PEER_SUMS` family's peer sums.

    Raises :class:`~replab.core.DimensionMismatch` or :class:`ZeroWeightSum`
    when weighted punish-reward's weights cannot form an aggregate over K
    agents.
    """
    if not isinstance(spec, WeightedPR):
        return np.ones(k)
    weights = np.asarray(spec.weights, dtype=float)
    if weights.shape[0] != k:
        raise DimensionMismatch(f"{weights.shape[0]} weights for {k} agents")
    if weights.sum() <= 0.0:
        raise ZeroWeightSum("weights sum to zero")
    if np.any(weights.sum() - weights <= 0.0):
        raise ZeroWeightSum(
            "some subject is left with zero total weight once its own is excluded"
        )
    return weights


def _peer_sums(spec: MechanismSpec, cross: np.ndarray) -> np.ndarray:
    """Reduce dense (B, K, K) reports to the (B, K) peer sums ``spec`` reads.

    Each column of the report matrices is summed without its diagonal,
    weighted by reporter under weighted punish-reward.
    """
    own = np.diagonal(cross, axis1=1, axis2=2)
    if isinstance(spec, WeightedPR):
        weights = peer_weights(spec, cross.shape[1])
        return np.einsum("j,bji->bi", weights, cross) - weights[None, :] * own
    return cross.sum(axis=1) - own


def _aggregate(
    spec: MechanismSpec, sums: np.ndarray, r0: np.ndarray | None, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | int]:
    """Numerator and divisor of each subject's averaging aggregate.

    Simple averaging and punish-reward: K times the aggregate is the K-1
    peer reports plus the system prior ``r0``, summed into ``out`` when
    given.  Weighted punish-reward: the weighted mean of the peer reports
    only, so ``r0`` is not read and the numerator is ``sums`` itself.  The
    aggregate is ``numerator / divisor``; the parts are returned apart
    because the simple-averaging deviation scan shifts the numerator.
    """
    if isinstance(spec, WeightedPR):
        weights = peer_weights(spec, sums.shape[1])
        return sums, (weights.sum() - weights)[None, :]
    return np.add(sums, r0, out=out), sums.shape[1]


# ---------------------------------------------------------------------------
# Batched kernels (trials axis first)
# ---------------------------------------------------------------------------


def _order(array: np.ndarray) -> str:
    """The layout a new array made like ``array`` gets: F when only F fits."""
    return "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"


def _take(flat: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[...] = flat[index]`` without a temporary.

    ``out`` has ``index``'s shape and layout, C or F, which ``np.take``
    reads as C through the transposes.  Indices are in range, so the clip
    mode changes no value and spares ``np.take`` its copy.
    """
    if index.flags.c_contiguous:
        return np.take(flat, index, out=out, mode="clip")
    np.take(flat, index.T, out=out.T, mode="clip")
    return out


def _ring_gather(
    values: np.ndarray,
    rows: slice | np.ndarray,
    cols: np.ndarray,
    name: str,
    workspace: Workspace,
    order: str = "C",
) -> np.ndarray:
    """``values[rows, cols]`` for a map of :func:`_ring_maps`, as a
    ``workspace`` buffer laid out in ``order``.  Row totals over the result
    add in that layout's order."""
    n, k = values.shape
    trials = np.arange(n)[:, None] if isinstance(rows, slice) else rows
    source = _order(values)
    # Each entry's flat position in the source's memory order.
    index = workspace.empty("indices", (n, k), np.intp, order)
    if source == "C":
        np.add(cols, trials * k, out=index)
    else:
        np.multiply(cols, n, out=index, dtype=np.intp)
        index += trials
    out = workspace.empty(name, (n, k), values.dtype, order)
    return _take(values.ravel(order=source), index, out)


def _ring_maps(
    rings: np.ndarray, workspace: Workspace, name: str = "ring"
) -> tuple[slice | np.ndarray, np.ndarray, np.ndarray]:
    """Trials index and predecessor/successor maps for one cyclic order per row.

    ``rings`` is (B, K) with one visit order per trial, or (1, K) for a
    fixed ring shared by all trials.  Gathers index the trials axis with the
    returned index and the agent axes with the maps: a fixed ring gives a
    slice and (K,) maps, so its gathers stay plain column selections.  The
    maps are C-ordered int32 ``workspace`` buffers kept under ``name``, half
    the size of index arrays.
    """
    rows = np.arange(rings.shape[0])[:, None]
    pred = workspace.empty(name + " predecessors", rings.shape, np.int32)
    succ = workspace.empty(name + " successors", rings.shape, np.int32)
    # Each visited agent's neighbours along its row, as np.roll by one place
    # either way would list them.
    succ[rows, rings[:, :-1]] = rings[:, 1:]
    succ[rows, rings[:, -1:]] = rings[:, :1]
    pred[rows, rings[:, 1:]] = rings[:, :-1]
    pred[rows, rings[:, :1]] = rings[:, -1:]
    if rings.shape[0] == 1:
        return slice(None), pred[0], succ[0]
    return rows, pred, succ


def _published(selfs: np.ndarray) -> np.ndarray:
    """The self-reports as published reputations: a read-only view, which
    lives as long as ``selfs`` does."""
    view = selfs.view()
    view.flags.writeable = False
    return view


def _as_kernel(
    selfs: np.ndarray, r0: np.ndarray, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    shape = selfs.shape
    d = np.subtract(selfs, r0, out=workspace.empty("scratch 0", shape))
    np.square(d, out=d)
    taxes = np.subtract(d.sum(axis=1, keepdims=True), d, out=workspace.empty("taxes", shape))
    taxes /= shape[1] - 1
    np.subtract(d, taxes, out=taxes)
    return _published(selfs), taxes


def _validation_layer(
    discrepancy: np.ndarray,
    rows: slice | np.ndarray,
    succ: np.ndarray,
    out: np.ndarray,
    workspace: Workspace,
) -> np.ndarray:
    """Charge each agent its discrepancy, redistribute everyone else's.

    Agent i receives a 1/(K-2) share of every charge except its own and its
    ring-successor's, which makes the layer sum to zero for any inputs.
    Writes into ``out``, which must not be ``discrepancy``.  The row totals
    add in ``discrepancy``'s memory order, so its layout fixes their
    rounding.
    """
    k = discrepancy.shape[1]
    shares = np.subtract(discrepancy.sum(axis=1, keepdims=True), discrepancy, out=out)
    shares -= _ring_gather(discrepancy, rows, succ, "scratch 1", workspace)
    shares /= k - 2
    return np.subtract(discrepancy, shares, out=shares)


def _spec_rings(spec: ExtendedAS, k: int) -> Iterator[np.ndarray]:
    """The spec's fixed rings as (1, K) rows, one per layer, checked
    against K when the first is read."""
    ring = spec.ring if spec.ring is not None else tuple(range(k))
    ring2 = spec.second_ring if spec.second_ring is not None else ring
    for order in (ring, ring2):
        if len(order) != k:
            raise DimensionMismatch(f"ring covers {len(order)} agents, profile has {k}")
    yield from [np.array([ring]), np.array([ring2])][: spec.layers]


def _ring_setup(
    k: int, rings: Iterable[np.ndarray], workspace: Workspace
) -> tuple[list[tuple], list[np.ndarray]]:
    """The maps of each validation layer and the reporters of its ring reads.

    ``rings`` yields one layer's ring rows at a time, (1, K) for a fixed
    ring (:func:`_spec_rings`) or (B, K) for rings redrawn every trial,
    which keep cliques from positioning themselves around a known ring; each
    is read before the next is asked for, so they may share one buffer.
    The reporters of subject i are pred1(i) for layer 1, then pred2(i) and
    pred2(pred2(i)) for layer 2, as (K,) maps for a fixed ring or (B, K)
    ``workspace`` buffers for per-trial rings (:func:`_ring_maps`).
    """
    if k < 3:
        raise TooFewAgents(f"ring validation needs at least 3 agents, got {k}")
    maps = [_ring_maps(r, workspace, f"layer {m + 1} ring") for m, r in enumerate(rings)]
    readers = [maps[0][1]]
    if len(maps) == 2:
        rows, pred2, _ = maps[1]
        if isinstance(rows, slice):
            readers += [pred2, pred2[pred2]]
        else:
            readers += [pred2, _ring_gather(pred2, rows, pred2, "second predecessors", workspace)]
    return maps, readers


def _gather(cross: np.ndarray, readers: list[np.ndarray]) -> list[np.ndarray]:
    """The ring reads of dense (B, K, K) reports: reader[., i]'s report about i."""
    batch, k = cross.shape[:2]
    subjects = np.arange(k)
    return [
        cross[slice(None) if r.ndim == 1 else np.arange(batch)[:, None], r, subjects]
        for r in readers
    ]


def _ring_outcome(
    self_reports: np.ndarray,
    reads: list[np.ndarray],
    maps: list[tuple],
    workspace: Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Reputations and taxes of ring validation on its ring reads.

    ``reads`` holds the (B, K) reports of ``readers[m][., i]`` about each
    subject i (:func:`_ring_setup`).  Layer 1 checks each self-report
    against the ring-predecessor's report about the same subject, v1.
    Layer 2 checks each reporter j's report about its successor s =
    succ2(j), which is v2 at s, against pred2(j)'s report about s, which is
    v3 at s; it reads cross-reports only.
    """
    shape = self_reports.shape
    rows, _, succ = maps[0]
    charges = np.subtract(self_reports, reads[0], out=workspace.empty("scratch 0", shape))
    np.abs(charges, out=charges)
    taxes = _validation_layer(charges, rows, succ, workspace.empty("taxes", shape), workspace)
    if len(maps) == 2:
        rows, _, succ = maps[1]
        gaps = np.subtract(reads[1], reads[2], out=charges)
        np.abs(gaps, out=gaps)
        # F-ordered, so its row totals add column by column: the rounding
        # the engine's outputs have always had, pinned by the tests.
        gathered = _ring_gather(gaps, rows, succ, "scratch 2", workspace, "F")
        taxes += _validation_layer(gathered, rows, succ, charges, workspace)
    return _published(self_reports), taxes


def _shares(selfs: np.ndarray, totals: np.ndarray, k: int, out=None) -> np.ndarray:
    """Each self-report over its round's total, into ``out`` when given; a
    zero total gives 1/K to all."""
    zero = np.equal(totals, 0.0)
    if not zero.any():
        return np.divide(selfs, totals, out=out)
    shares = np.divide(selfs, np.where(zero, 1.0, totals), out=out)
    np.copyto(shares, 1.0 / k, where=np.broadcast_to(zero, shares.shape))
    return shares


def _fr_kernel(selfs: np.ndarray, workspace: Workspace) -> tuple[np.ndarray, np.ndarray]:
    shape = selfs.shape
    totals = selfs.sum(axis=1, keepdims=True)
    shares = _shares(selfs, totals, shape[1], out=workspace.empty("reputations", shape))
    return shares, workspace.zeros("no taxes", shape)


def _pr_branch(
    selfs: np.ndarray,
    aggregate: np.ndarray,
    eps: float,
    workspace: Workspace,
    midpoints: np.ndarray | None = None,
) -> np.ndarray:
    """Punish-reward's published reputations: the midpoint of self-report
    and aggregate where they lie within ``eps``, else the aggregate less
    their gap.  The midpoints go into ``midpoints`` when given, which may be
    ``aggregate`` itself: it is read for the last time before they are
    written."""
    shape = np.broadcast_shapes(selfs.shape, aggregate.shape)
    reps = np.subtract(selfs, aggregate, out=workspace.empty("reputations", shape))
    gap = np.abs(reps, out=reps)
    inside = np.less_equal(gap, eps, out=workspace.empty("band", shape, bool))
    np.subtract(aggregate, gap, out=reps)
    mid = np.add(selfs, aggregate, out=midpoints)
    mid *= 0.5
    np.copyto(reps, mid, where=inside)
    return reps


# ---------------------------------------------------------------------------
# Batched dispatch
# ---------------------------------------------------------------------------


def run_batch(
    spec: MechanismSpec,
    self_reports: np.ndarray | None,
    cross_reports: np.ndarray | None,
    system_obs: np.ndarray | None,
    sigma_prime: float = 0.0,
    *,
    peer_sums: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a mechanism over a batch of rounds.

    Arrays carry a leading trials axis: ``self_reports`` (trials, K),
    ``cross_reports`` (trials, K, K), ``system_obs`` (trials, K).  Arguments a
    mechanism does not use may be None; the supplied ones must agree on
    trials and K, and ``sigma_prime`` must be finite and >= 0.  A
    :data:`PEER_SUMS` family reads ``peer_sums`` (trials, K) when given and
    otherwise reduces ``cross_reports`` to them; ring validation gathers
    the reads of the spec's fixed rings from ``cross_reports``.  Returns
    (reputations, taxes), each (trials, K).  They and the kernel's
    temporaries, its scratch, are ``workspace`` buffers, which the
    workspace's next batch overwrites; without a workspace they are new
    buffers of the call's own.  Zero taxes are one zero row broadcast
    read-only, and the reputations of scoring and ring validation, which
    publish the self-reports, a read-only view of ``self_reports``.
    """
    if not math.isfinite(sigma_prime) or sigma_prime < 0.0:
        raise ValueError(f"sigma_prime must be finite and >= 0, got {sigma_prime!r}")
    supplied = (self_reports, system_obs, peer_sums, cross_reports)
    first = next((a for a in supplied if a is not None), None)
    if first is None or first.ndim < 2:
        raise DimensionMismatch("need report arrays with a leading trials axis")
    trials, k = first.shape[:2]
    for name, arr, shape in (
        ("self_reports", self_reports, (trials, k)),
        ("cross_reports", cross_reports, (trials, k, k)),
        ("system_obs", system_obs, (trials, k)),
        ("peer_sums", peer_sums, (trials, k)),
    ):
        if arr is not None and arr.shape != shape:
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")

    def need(name: str, arr: np.ndarray | None) -> np.ndarray:
        if arr is None:
            raise DimensionMismatch(f"{type(spec).__name__} requires {name}")
        return arr

    shape = (trials, k)
    workspace = workspace or Workspace()
    if isinstance(spec, AS):
        if k < 2:
            raise TooFewAgents(f"absolute scoring needs K >= 2, got {k}")
        selfs, r0 = need("self_reports", self_reports), need("system_obs", system_obs)
        return _as_kernel(selfs, r0, workspace)
    if isinstance(spec, ExtendedAS):
        maps, readers = _ring_setup(k, _spec_rings(spec, k), workspace)
        reads = _gather(need("cross_reports", cross_reports), readers)
        return _ring_outcome(need("self_reports", self_reports), reads, maps, workspace)
    if isinstance(spec, FR):
        return _fr_kernel(need("self_reports", self_reports), workspace)
    if cross_reads(spec) == PEER_SUMS:
        r0 = None if isinstance(spec, WeightedPR) else need("system_obs", system_obs)
        if peer_sums is None:
            peer_sums = _peer_sums(spec, need("cross_reports", cross_reports))
        # The drawn peer sums stay as they are: later arms read them.
        aggregate = workspace.empty("aggregate", shape)
        aggregate = np.divide(*_aggregate(spec, peer_sums, r0, out=aggregate), out=aggregate)
        if isinstance(spec, SimpleAveraging):
            return aggregate, workspace.zeros("no taxes", shape)
        selfs = need("self_reports", self_reports)
        reps = _pr_branch(selfs, aggregate, spec.a * sigma_prime, workspace, midpoints=aggregate)
        return reps, workspace.zeros("no taxes", shape)
    if isinstance(spec, DirectObservation):
        obs = need("system_obs", system_obs)
        return workspace.copy("reputations", obs), workspace.zeros("no taxes", shape)
    raise TypeError(f"unknown mechanism spec {spec!r}")


# ---------------------------------------------------------------------------
# One agent's deviation against a fixed profile
# ---------------------------------------------------------------------------


def deviation_terms(
    spec: MechanismSpec,
    draw,
    sigma_prime: float,
    agent: int,
) -> tuple[np.ndarray, np.ndarray | None, Callable[[np.ndarray, slice], tuple]]:
    """The reputations of a base profile and the terms one agent's report moves.

    ``draw`` is a :class:`replab.simulator.ProfileDraw`: rounds with the
    cross reports as the engine samples them and the mechanism's outcome on
    them, such as one engine run.  Runs no kernel and returns ``(reps, base,
    move)``, where ``reps`` is ``draw.reps``.  ``move(values, rows)`` takes
    a (G, 1) column of deviation values and a slice of the trials, and
    returns ``(own_rep, own_tax, others)`` on those trials: the deviator's
    reputation and tax, each broadcastable to (G, rows), and how the other
    subjects' reputations move.  ``others`` is None, and ``base`` is None,
    when those stay at ``reps``.  Otherwise they are an affine map of
    per-trial base values: ``others`` is ``(add, div)``, each broadcastable
    to (G, rows), and subject j's reputation is ``(base[j] + add) / div``,
    or 1/K where ``div`` is 0, with ``base`` the (K, trials) base values,
    subjects first (the deviator's row is not read).  Such a ``move`` also
    takes ``own=False``, which may return None for the deviator's reputation
    when the caller does not read it.

    The deviated channel is the self-report, except under simple averaging,
    where value c adds c - 1/2 to the deviator's cross-reports.  Each
    family's terms follow from its kernel:

    - scoring and ring-validated scoring: only the deviator's own
      reputation and tax move, and its report enters the tax only through
      its own charge c, (x - r0_i)^2 or |x - v1_i|, since every other charge
      reads other reports and ring validation's second layer reads no
      self-report.  The tax at x is the draw's tax plus c(x) - c(s_i), s_i
      the drawn self-report, so only the kernels hold the redistribution
      rules;
    - both punish-reward mechanisms: only the deviator's own reputation
      moves;
    - share-of-total: the base is the self-reports and every share is its
      self-report over S' + x, S' the sum of the other self-reports, or 1/K
      at a zero total;
    - simple averaging: the base is the aggregates' numerators, and every
      other subject's aggregate shifts by (c - 1/2)/K, while the
      deviator's own does not move.
    """
    i = agent
    self_reports, system_obs, reps = draw.selfs, draw.r0, draw.reps
    k = reps.shape[1]
    if isinstance(spec, (AS, ExtendedAS)):
        ring = isinstance(spec, ExtendedAS)
        ref = draw.ring_reads[0][:, i] if ring else system_obs[:, i]
        charge = np.abs if ring else np.square
        tax, drawn = draw.taxes[:, i], charge(self_reports[:, i] - ref)

        def move_scored(x: np.ndarray, rows: slice) -> tuple:
            # tax + (c(x) - c(s)), in place in one (G, rows) array.
            own_tax = x - ref[rows]
            charge(own_tax, out=own_tax)
            own_tax -= drawn[rows]
            own_tax += tax[rows]
            return x, own_tax, None

        return reps, None, move_scored
    # Subjects first, so every pass over a base row runs on contiguous trials.
    if isinstance(spec, FR):
        others = self_reports.sum(axis=1) - self_reports[:, i]

        def move_share(x: np.ndarray, rows: slice, own: bool = True) -> tuple:
            totals = others[rows] + x
            return _shares(x, totals, k) if own else None, 0.0, (0.0, totals)

        return reps, np.ascontiguousarray(self_reports.T), move_share
    if cross_reads(spec) != PEER_SUMS:
        raise TypeError(f"{type(spec).__name__} consumes no report to deviate on")
    numerator, divisor = _aggregate(spec, draw.peer_sums, system_obs)
    if isinstance(spec, SimpleAveraging):
        own_reps = reps[:, i]

        def move_average(c: np.ndarray, rows: slice, own: bool = True) -> tuple:
            return own_reps[rows], 0.0, (c - 0.5, k)

        return reps, np.ascontiguousarray(numerator.T), move_average
    aggregate = (numerator / divisor)[:, i]
    eps = spec.a * sigma_prime
    return reps, None, lambda x, rows: (_pr_branch(x, aggregate[rows], eps, Workspace()), 0.0, None)
