"""Domain types: agents, environments, mechanism specs, utilities.

The modeling conventions used across the package are fixed here:

- There are K >= 2 agents, indexed 0..K-1; agent ids coincide with their
  position in the environment.
- Agent i holds a true quality r_i in [0, 1].  The *index scheme* decides what
  the system is trying to estimate: under the ``absolute`` scheme the target
  for agent i is r_i itself; under the ``relative`` scheme it is the share
  r_i / sum_k r_k.
- Each agent observes every other agent's quality with additive Normal noise
  (its ``cross_obs`` parameters), and the system holds its own noisy prior
  observation of each agent (the environment's ``system_obs`` parameters).
  Observations are *not* clamped to [0, 1] by default: the closed-form results
  in :mod:`replab.analysis` and :mod:`replab.strategies` assume untruncated
  Normal noise, and clamping is only applied when an environment explicitly
  opts in via ``clamp_observations``.
- An agent's preferences combine an accuracy element (it wants others'
  published reputations to be correct) and an image element (it wants its own
  published reputation to be high):

      u_i = -lambda * sum_{j != i} f(|rep_j - target_j|)
            + (1 - lambda) * g(rep_i) - tax_i

  with ``lambda = utility.truth_weight``.  Truth types have lambda = 1, image
  types lambda = 0, mixed types sit strictly between.  f is an even power of
  the absolute error with f(0) = 0; g is concave increasing.

Mechanism specifications are passive value types; the mechanisms that map
batches of reports to reputations and taxes live in :mod:`replab.mechanisms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .numerics import NormalParams

__all__ = [
    "DimensionMismatch",
    "ZeroTotalQuality",
    "Quality",
    "AbsPower",
    "Linear",
    "Power",
    "UtilitySpec",
    "Truth",
    "Image",
    "Mixed",
    "MaliciousRandom",
    "Colluder",
    "AgentType",
    "Agent",
    "Environment",
    "AS",
    "ExtendedAS",
    "FR",
    "SimpleAveraging",
    "PR",
    "WeightedPR",
    "DirectObservation",
    "MechanismSpec",
    "Workspace",
    "agent_utility",
    "absolute_errors",
    "batch_true_utilities",
    "centralized_solution",
]


class DimensionMismatch(ValueError):
    """Array lengths/shapes disagree with the environment's agent count."""


class ZeroTotalQuality(ValueError):
    """Relative targets are undefined because the qualities sum to zero."""


# ---------------------------------------------------------------------------
# Qualities and utility building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quality:
    """A true quality level, constrained to the unit interval."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0) or not math.isfinite(self.value):
            raise ValueError(f"quality must lie in [0, 1], got {self.value!r}")

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class AbsPower:
    """Accuracy loss f(d) = d**p applied to absolute errors d >= 0; f(0) = 0."""

    p: float = 2.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.p) or self.p < 1.0:
            raise ValueError(f"accuracy-loss exponent must be >= 1, got {self.p!r}")

    def __call__(self, d: float | np.ndarray, out: np.ndarray | None = None):
        """f(d), written into ``out`` (which may be ``d``) when ``d`` is an array."""
        array = isinstance(d, np.ndarray)
        if self.p == 1.0:
            return np.abs(d, out=out) if array else abs(d)
        if self.p == 2.0:
            return np.multiply(d, d, out=out) if array else d * d
        return np.power(np.abs(d, out=out), self.p, out=out) if array else abs(d) ** self.p


@dataclass(frozen=True)
class Linear:
    """Image payoff g(x) = x.

    Kept exact on all reals: mechanisms with punishment branches can publish
    reputations outside [0, 1], and the closed-form expectations evaluate the
    linear payoff on the unclamped value.
    """

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        return x

    def derivative(self, x: float) -> float:
        return 1.0


@dataclass(frozen=True)
class Power:
    """Image payoff g(x) = x**q with q in (0, 1] (concave increasing on [0, 1]).

    Truncated to 0 for negative arguments so punished (negative) reputations
    remain evaluable.
    """

    q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"image-payoff exponent must lie in (0, 1], got {self.q!r}")

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        if isinstance(x, np.ndarray):
            return np.where(x > 0.0, np.maximum(x, 0.0) ** self.q, 0.0)
        return x**self.q if x > 0.0 else 0.0

    def derivative(self, x: float) -> float:
        if x <= 0.0:
            return math.inf
        return self.q * x ** (self.q - 1.0)


GSpec = Union[Linear, Power]


@dataclass(frozen=True)
class UtilitySpec:
    """Preference parameters: accuracy loss f, image payoff g, truth weight lambda."""

    f: AbsPower = field(default_factory=AbsPower)
    g: GSpec = field(default_factory=Linear)
    truth_weight: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.truth_weight <= 1.0):
            raise ValueError(
                f"truth_weight must lie in [0, 1], got {self.truth_weight!r}"
            )


# ---------------------------------------------------------------------------
# Agent types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truth:
    """Cares only about others' reputations being accurate (truth_weight 1)."""


@dataclass(frozen=True)
class Image:
    """Cares only about its own published reputation (truth_weight 0)."""


@dataclass(frozen=True)
class Mixed:
    """Weighs both elements (truth_weight strictly between 0 and 1)."""


@dataclass(frozen=True)
class MaliciousRandom:
    """Reports uniform noise on [low, high] regardless of observations."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.low < self.high <= 1.0):
            raise ValueError(
                f"need 0 <= low < high <= 1, got [{self.low!r}, {self.high!r}]"
            )


@dataclass(frozen=True)
class Colluder:
    """Member of a clique that inflates fellow members (and may bash outsiders).

    Clique members report ``inflate`` for themselves and each other;
    ``bash`` (when set) replaces their reports about outsiders, otherwise
    outsiders are reported truthfully from observations.
    """

    clique_id: int = 0
    inflate: float = 1.0
    bash: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.inflate <= 1.0):
            raise ValueError(f"inflate level must lie in [0, 1], got {self.inflate!r}")
        if self.bash is not None and not (0.0 <= self.bash <= 1.0):
            raise ValueError(f"bash level must lie in [0, 1], got {self.bash!r}")


AgentType = Union[Truth, Image, Mixed, MaliciousRandom, Colluder]


@dataclass(frozen=True)
class Agent:
    """One participant: identity, true quality, behavioral type, preferences.

    ``cross_obs`` gives the agent's observation noise of *other* agents'
    qualities (bias ``mean`` and standard deviation ``std``).
    """

    id: int
    quality: Quality
    agent_type: AgentType
    utility: UtilitySpec = field(default_factory=UtilitySpec)
    cross_obs: NormalParams = field(default_factory=lambda: NormalParams(0.0, 0.1))

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"agent id must be >= 0, got {self.id!r}")
        lam = self.utility.truth_weight
        if isinstance(self.agent_type, Truth) and lam != 1.0:
            raise ValueError(f"truth agents need truth_weight 1, got {lam!r}")
        if isinstance(self.agent_type, Image) and lam != 0.0:
            raise ValueError(f"image agents need truth_weight 0, got {lam!r}")
        if isinstance(self.agent_type, Mixed) and not (0.0 < lam < 1.0):
            raise ValueError(
                f"mixed agents need truth_weight strictly inside (0, 1), got {lam!r}"
            )


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

_INDEX_SCHEMES = ("absolute", "relative")


@dataclass(frozen=True)
class Environment:
    """The full population plus the system's own observation channel.

    ``index_scheme`` selects the estimation target ("absolute" qualities or
    "relative" shares); under the relative scheme the qualities must not sum
    to zero.  ``clamp_observations`` opts in to clipping sampled observations
    to [0, 1] (off by default; see module docstring).
    """

    agents: tuple[Agent, ...]
    system_obs: NormalParams = field(default_factory=lambda: NormalParams(0.0, 0.1))
    index_scheme: str = "absolute"
    clamp_observations: bool = False
    # Per-agent arrays, built once from ``agents`` and read-only, since
    # every Monte Carlo batch reads them.
    qualities: np.ndarray = field(init=False, repr=False, compare=False)
    cross_biases: np.ndarray = field(init=False, repr=False, compare=False)
    cross_stds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) < 2:
            raise ValueError(f"need at least 2 agents, got {len(self.agents)}")
        ids = [a.id for a in self.agents]
        if ids != list(range(len(self.agents))):
            raise ValueError(f"agent ids must be 0..K-1 in order, got {ids}")
        if self.index_scheme not in _INDEX_SCHEMES:
            raise ValueError(
                f"index_scheme must be one of {_INDEX_SCHEMES}, got {self.index_scheme!r}"
            )
        if self.index_scheme == "relative" and self.total_quality <= 0.0:
            raise ZeroTotalQuality(
                "relative index scheme needs a positive total quality"
            )
        for name, values in (
            ("qualities", [a.quality.value for a in self.agents]),
            ("cross_biases", [a.cross_obs.mean for a in self.agents]),
            ("cross_stds", [a.cross_obs.std for a in self.agents]),
        ):
            array = np.array(values)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def k(self) -> int:
        return len(self.agents)

    @property
    def total_quality(self) -> float:
        return float(math.fsum(a.quality.value for a in self.agents))


# ---------------------------------------------------------------------------
# Mechanism specifications
# ---------------------------------------------------------------------------


def _check_ring(ring: tuple[int, ...]) -> tuple[int, ...]:
    ring = tuple(int(i) for i in ring)
    if sorted(ring) != list(range(len(ring))):
        raise ValueError(f"ring must be a permutation of 0..{len(ring) - 1}, got {ring}")
    return ring


@dataclass(frozen=True)
class AS:
    """Absolute scoring: publish self-reports, tax self-report/system-prior gaps."""


@dataclass(frozen=True)
class ExtendedAS:
    """Absolute scoring with peer cross-validation along a ring.

    ``ring`` lists the agents in cyclic order; each agent's self-report is
    checked against its ring-predecessor's report about it.  ``ring=None``
    means the natural order 0, 1, ..., K-1.  With ``layers=2`` a second
    validation layer taxes each agent's report about its ring-successor;
    ``second_ring`` optionally gives that layer its own cyclic order
    (defaulting to the first ring).
    """

    ring: tuple[int, ...] | None = None
    layers: int = 1
    second_ring: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.layers not in (1, 2):
            raise ValueError(f"layers must be 1 or 2, got {self.layers!r}")
        if self.ring is not None:
            object.__setattr__(self, "ring", _check_ring(self.ring))
        if self.second_ring is not None:
            object.__setattr__(self, "second_ring", _check_ring(self.second_ring))
            if self.layers != 2:
                raise ValueError("second_ring is only meaningful with layers=2")


@dataclass(frozen=True)
class FR:
    """Fair ranking: publish each self-report's share of the total; no taxes."""


@dataclass(frozen=True)
class SimpleAveraging:
    """Average peer reports with the system prior; no taxes (baseline)."""


@dataclass(frozen=True)
class PR:
    """Punish-reward averaging with acceptance band of half-width a * sigma'."""

    a: float = 2.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or self.a <= 0.0:
            raise ValueError(f"band multiplier a must be positive, got {self.a!r}")


@dataclass(frozen=True)
class WeightedPR:
    """Punish-reward with non-uniform weights on the peer reports.

    The aggregate for each subject is the weighted mean of the *peer*
    reports only (the system prior is not mixed in, unlike :class:`PR`).
    """

    a: float = 2.0
    weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.a) or self.a <= 0.0:
            raise ValueError(f"band multiplier a must be positive, got {self.a!r}")
        weights = tuple(float(w) for w in self.weights)
        if any(not math.isfinite(w) or w < 0.0 for w in weights):
            raise ValueError("weights must be finite and >= 0")
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class DirectObservation:
    """No reporting at all: the system publishes its own observations."""


MechanismSpec = Union[AS, ExtendedAS, FR, SimpleAveraging, PR, WeightedPR, DirectObservation]


# ---------------------------------------------------------------------------
# Batch buffers
# ---------------------------------------------------------------------------


class Workspace:
    """Arrays that one thread reuses from run to run, kept by name.

    Each method hands out a view of the buffer kept under ``name``: the
    first elements of one flat buffer shaped as asked, or one zero row
    broadcast read-only.  A buffer is made on first use and made again only
    when a request does not fit it, so a Monte Carlo run after the first
    allocates no run-sized array.  A name's next request overwrites what it
    held: a view handed out for one run is valid until the same name is
    asked for again.  Buffers are C-ordered unless asked for in F order;
    the engine's arrays are laid out as new arrays would be, so sums over
    them round as over new arrays.

    Buffers named ``"scratch 0"``, ``"scratch 1"`` and so on hold one
    call's temporaries: a function is done with its scratch when it
    returns, except the result it returns there.  The kernels keep their
    temporaries in scratch, so a reducer handed the engine's workspace puts
    its own in the memory the kernel left dead.  Within one call no name is
    asked for twice while both views are live.

    A public function that takes a workspace makes its own ``Workspace()``
    when given none, so its results are new arrays that nothing else holds.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def empty(
        self, name: str, shape: tuple[int, ...], dtype=float, order: str = "C"
    ) -> np.ndarray:
        """Uninitialised elements of ``shape`` in ``order``."""
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.dtype != dtype or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape, order=order)

    def copy(self, name: str, array: np.ndarray) -> np.ndarray:
        """A C-ordered copy of ``array``."""
        rows = self.empty(name, array.shape, array.dtype)
        np.copyto(rows, array)
        return rows

    def zeros(self, name: str, shape: tuple[int, ...], writable: bool = False) -> np.ndarray:
        """Zeros: a buffer cleared on every request if ``writable``, else
        one zero row broadcast read-only to ``shape``."""
        rows = self.empty(name, shape if writable else (1, *shape[1:]))
        rows.fill(0.0)
        return rows if writable else np.broadcast_to(rows, shape)


# ---------------------------------------------------------------------------
# Targets and utilities
# ---------------------------------------------------------------------------


def centralized_solution(env: Environment) -> np.ndarray:
    """The reputations a fully informed designer would publish.

    Absolute scheme: the true qualities.  Relative scheme: each quality's
    share of the total (raises :class:`ZeroTotalQuality` when degenerate).
    """
    qualities = env.qualities
    if env.index_scheme == "absolute":
        return qualities
    total = env.total_quality
    if total <= 0.0:
        raise ZeroTotalQuality("relative targets undefined: qualities sum to zero")
    return qualities / total


def agent_utility(
    agent: Agent,
    accuracy: float | np.ndarray,
    own_reputation: float | np.ndarray,
    own_tax: float | np.ndarray,
) -> float | np.ndarray:
    """The utility formula of the module docstring for one agent.

    ``accuracy`` is the agent's summed accuracy loss over the *other*
    agents, sum_{j != i} f(|rep_j - target_j|); the arguments may be arrays
    of any common shape.
    """
    lam = agent.utility.truth_weight
    return -lam * accuracy + (1.0 - lam) * agent.utility.g(own_reputation) - own_tax


def absolute_errors(
    reputations: np.ndarray, env: Environment, *, workspace: Workspace | None = None
) -> np.ndarray:
    """|reputation - target| over a (trials, K) batch, in scratch 0 of
    ``workspace``; the targets are :func:`centralized_solution`'s."""
    if reputations.ndim != 2 or reputations.shape[1] != env.k:
        raise DimensionMismatch(f"expected (trials, {env.k}) reputations, got {reputations.shape}")
    errors = np.subtract(
        reputations,
        centralized_solution(env)[None, :],
        out=(workspace or Workspace()).empty("scratch 0", reputations.shape),
    )
    return np.abs(errors, out=errors)


def batch_true_utilities(
    reputations: np.ndarray,
    errors: np.ndarray,
    taxes: np.ndarray,
    env: Environment,
    *,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Realized utilities over a batch of outcomes.

    ``taxes`` has shape (trials, K); ``reputations`` and their
    :func:`absolute_errors` have that shape too, or (1, K) when every
    trial publishes the same reputations.  Returns (trials, K) utilities
    computed per agent with that agent's own f, g and truth weight.
    f(errors) and its row sums are computed once per distinct loss: equal
    (frozen) losses give equal arrays.  Each run of adjacent agents that
    share (f, g) is computed in one pass over its columns, in the order of
    :func:`agent_utility`, and the taxes are subtracted last, so every entry
    rounds as that formula does and a (1, K) row gives the utilities of its
    (trials, K) broadcast bit for bit.  ``errors`` is overwritten, so a
    caller reads it first.  The result is scratch 1 of ``workspace``, the
    losses and a (1, K) row's accuracy and image terms other ``workspace``
    buffers.
    """
    shape = reputations.shape
    if (
        errors.shape != shape
        or shape[0] not in (1, taxes.shape[0])
        or taxes.shape[1:] != (env.k,)
        or shape[1] != env.k
    ):
        raise DimensionMismatch(
            f"expected (trials, {env.k}) arrays, got {shape}, {errors.shape} and {taxes.shape}"
        )
    workspace = workspace or Workspace()
    payoffs = [(agent.utility.f, agent.utility.g) for agent in env.agents]
    distinct = list(dict.fromkeys(f for f, _ in payoffs))
    losses: dict[AbsPower, tuple[np.ndarray, np.ndarray]] = {}
    for n, f in enumerate(distinct):
        # The last loss overwrites the errors, which nothing reads after it.
        last = n == len(distinct) - 1
        floss = f(errors, out=errors if last else workspace.empty(f"loss{n}", shape))
        losses[f] = (floss, floss.sum(axis=1, keepdims=True))
    lam = np.array([agent.utility.truth_weight for agent in env.agents])
    out = workspace.empty("scratch 1", taxes.shape)
    head = out if shape == taxes.shape else workspace.empty("utility row", shape)
    start = 0
    for stop in range(1, env.k + 1):
        if stop < env.k and payoffs[stop] == payoffs[start]:
            continue
        f, g = payoffs[start]
        cols = slice(start, stop)
        floss, total = losses[f]
        block = head[:, cols]
        np.subtract(total, floss[:, cols], out=block)
        block *= -lam[cols]
        # Only these columns read these losses, so they take the image term.
        block += np.multiply(1.0 - lam[cols], g(reputations[:, cols]), out=floss[:, cols])
        start = stop
    return np.subtract(head, taxes, out=out)
