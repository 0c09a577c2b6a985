"""The dense draw, kept as the tests' reference for the sparse samplers.

Every round is drawn as a whole (trials, K, K) matrix of cross
observations, the messages overwrite the rows of non-relaying reporters,
and the mechanism reduces the matrix itself (``run_batch``'s
``cross_reports``, or ``_gather`` for rings).  Per batch this is the
engine's draw order before the sparse samplers replaced it:
``sample_observations``, then ``build_messages``, then the mechanism, with
secret rings drawn after the messages.  The sparse samplers draw only what
each mechanism reads, so they must agree with this draw in distribution,
and where the arithmetic is unchanged, bit for bit.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from replab.core import Colluder, Environment, MaliciousRandom, Workspace
from replab.mechanisms import _gather, _ring_outcome, _ring_setup, run_batch
from replab.simulator import (
    BATCH_TRIALS,
    ProfileDraw,
    _SecretRings,
    _batch_rng,
    _combine,
    _sent_constants,
)
from replab.strategies import aggregate_sigma_prime, resolve_self_reports


def sample_observations(
    env: Environment, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw system priors (trials, K) and cross observations (trials, K, K).

    ``cross[t, j, i]`` is agent j's observation of agent i in trial t, drawn
    with agent j's bias and noise level around agent i's true quality.  Draw
    order is fixed (system first, then the cross matrix) so substreams are
    reproducible.  Observations are clamped to [0, 1] only when the
    environment opts in.
    """
    k = env.k
    r0 = rng.normal(0.0, 1.0, size=(trials, k))
    r0 *= env.system_obs.std
    r0 += env.qualities[None, :] + env.system_obs.mean
    # Scaled and shifted in place, so no second (trials, K, K) array is live.
    cross = rng.normal(0.0, 1.0, size=(trials, k, k))
    cross *= env.cross_stds[None, :, None]
    cross += env.qualities[None, None, :] + env.cross_biases[None, :, None]
    if env.clamp_observations:
        np.clip(r0, 0.0, 1.0, out=r0)
        np.clip(cross, 0.0, 1.0, out=cross)
    return r0, cross


def build_messages(
    env: Environment,
    cross_obs: np.ndarray,
    rng: np.random.Generator,
    self_reports: Mapping[int, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Messages of a strategy profile for a batch of trials.

    ``self_reports`` holds the constant self-reports
    (:func:`resolve_self_reports`); agents it does not list are
    uniform-random reporters and draw their self-reports per trial.
    Truthful senders relay their observations; malicious senders draw
    uniform cross-reports per trial; colluders substitute inflate/bash
    constants.  Returns the self-reports, shaped (trials, K), and the
    cross-reports, shaped (trials, K, K): ``cross_obs`` itself, with the
    malicious and colluding rows overwritten in place, so a batch holds one
    (trials, K, K) array rather than two.
    """
    trials, k = cross_obs.shape[0], env.k
    cross = cross_obs
    selfs = np.empty((trials, k))
    sent = _sent_constants(env)
    for i, agent in enumerate(env.agents):
        kind = agent.agent_type
        if i in self_reports:
            selfs[:, i] = self_reports[i]
        else:
            selfs[:, i] = rng.uniform(kind.low, kind.high, size=trials)
        if isinstance(kind, MaliciousRandom):
            cross[:, i, :] = rng.uniform(kind.low, kind.high, size=(trials, k))
        elif isinstance(kind, Colluder):
            np.copyto(cross[:, i, :], sent[i], where=~np.isnan(sent[i]))
    return selfs, cross


def batch_plan(trials: int) -> list[tuple[int, int]]:
    """(batch index, batch size) pairs covering ``trials``, in batches of
    ``BATCH_TRIALS``: the engine's batches, one after another."""
    starts = range(0, trials, BATCH_TRIALS)
    return [(b, min(BATCH_TRIALS, trials - start)) for b, start in enumerate(starts)]


def dense_simulate(
    env, mechanism, trials, seed, reduce, workers=1, *, strategy_mode="equilibrium"
) -> dict:
    """``simulator.simulate`` on the dense draw, over the same batch plan,
    substreams and reduction, each batch a run of its own with a new
    workspace; ``workers`` is accepted and ignored."""
    sigma_prime = aggregate_sigma_prime(env)
    profile = resolve_self_reports(env, mechanism, strategy_mode)
    partials = []
    for b, size in batch_plan(trials):
        rng = _batch_rng(seed, b)
        r0, cross_obs = sample_observations(env, rng, size)
        selfs, cross = build_messages(env, cross_obs, rng, profile)
        if isinstance(mechanism, _SecretRings):
            base = np.broadcast_to(np.arange(env.k), selfs.shape)
            maps, readers = _ring_setup(
                env.k, [rng.permuted(base, axis=1) for _ in range(mechanism.layers)], Workspace()
            )
            reps, taxes = _ring_outcome(selfs, _gather(cross, readers), maps, Workspace())
        else:
            reps, taxes = run_batch(mechanism, selfs, cross, r0, sigma_prime)
        partials.extend(reduce(ProfileDraw(r0, selfs, reps, taxes), [slice(0, size)], Workspace()))
    return {key: _combine(key, [p[key] for p in partials]) for key in partials[0]}
