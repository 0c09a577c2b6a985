"""Command-line front end: config files in, CSV/JSON tables out.

Configs are sectioned key-value files ([environment], [agents],
[mechanism], [simulation]); a JSON mirror with the same section names is
accepted for programmatic use, and one table of keys types both.  Every
file-writing command also emits a manifest recording the canonical-config
digest, so identical manifests imply identical outputs.  Numeric output
uses 12 significant digits, '.' decimals, and LF line endings regardless
of locale.

Exit codes: 0 success, 2 invalid config, 3 runtime/solver failure,
4 profitable deviation found by check-equilibrium.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import (
    _gain_terms,
    closed_forms_apply,
    deviation_reports,
    hetero_image_participation,
    hetero_system_gain,
    hetero_truth_participation,
    participation_utilities,
)
from .core import (
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
    MechanismSpec,
    Mixed,
    PR,
    Power,
    Quality,
    SimpleAveraging,
    Truth,
    UtilitySpec,
    WeightedPR,
)
from .mechanisms import peer_weights
from .numerics import NormalParams
from .simulator import (
    STREAM,
    ScenarioConfig,
    SWEEP_PARAMETERS,
    run_trials,
    sweep as run_sweep,
)
from .strategies import _band_curves

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_DEVIATION = 4


class ConfigError(ValueError):
    """Invalid configuration file; the message carries a location anchor."""


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """12-significant-digit, locale-independent number rendering."""
    return f"{float(value):.12g}"


def _write_json(path: Path, payload) -> None:
    """``payload`` as indented JSON.  Floats are written as given: a caller
    rounds each to 12 significant digits first, as ``float(_fmt(v))``."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="ascii", newline="\n")


def _write_table(csv_path: Path, columns: dict[str, str], rows) -> list[Path]:
    """``rows``, mappings over the ``columns``, as CSV, and beside it the
    schema naming and describing each column; returns both paths."""
    lines = [",".join(columns)]
    for row in rows:
        values = [row[c] for c in columns]
        lines.append(
            ",".join([_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in values])
        )
    csv_path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    schema_path = csv_path.with_suffix(".schema.json")
    _write_json(
        schema_path,
        {
            "file": csv_path.name,
            "columns": [{"name": k, "description": v} for k, v in columns.items()],
        },
    )
    return [csv_path, schema_path]


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def _digest(canonical: dict) -> str:
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _write_manifest(
    out_dir: Path, command: str, canonical: dict, seed: int, paths: list[Path]
) -> None:
    """The provenance record written beside every file-producing command.

    ``stream`` is the simulator's draw-order version (``simulator.STREAM``):
    equal configs, seeds and streams give equal outputs.
    """
    manifest = {
        "command": command,
        "config_digest": _digest(canonical),
        "seed": seed,
        "tool_version": __version__,
        "output_paths": sorted(p.name for p in paths),
        "stream": STREAM,
    }
    _write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_AGENT_TYPES = ("truth", "image", "mixed", "malicious", "colluder")

# Every config key and its type.  The readers hand over raw values, INI text
# or JSON values, and _coerce types both alike, so a config and its JSON
# mirror give one canonical form and the same errors.  The overrides object
# maps agent ids to reports and is typed entry by entry.
_KEYS = {
    "environment": {
        "index_scheme": str,
        "system_mean": float,
        "system_std": float,
        "cross_mean": float,
        "cross_std": float,
        "clamp": bool,
    },
    "agents": {
        "type": str,
        "quality": float,
        "weight": float,
        "sigma": float,
        "bias": float,
        "p": float,
        "g": str,
        "low": float,
        "high": float,
        "clique": int,
        "inflate": float,
        "bash": float,
    },
    "mechanism": {
        "kind": str,
        "a": float,
        "weights": list[float],
        "ring": list[int],
        "second_ring": list[int],
        "layers": int,
    },
    "simulation": {"trials": int, "seed": int, "strategy": str, "overrides": dict},
}
_ENVIRONMENT_DEFAULTS = {
    "index_scheme": "absolute",
    "system_mean": 0.0,
    "system_std": 0.1,
    "cross_mean": 0.0,
    "cross_std": 0.1,
    "clamp": False,
}
_MECHANISMS = {
    "as": AS,
    "extended_as": ExtendedAS,
    "fr": FR,
    "simple_averaging": SimpleAveraging,
    "pr": PR,
    "weighted_pr": WeightedPR,
    "direct": DirectObservation,
}


@dataclass(frozen=True)
class ParsedConfig(ScenarioConfig):
    """A parsed scenario plus its canonical form, from which the digest is taken."""

    canonical: dict = field(default_factory=dict, compare=False)


def _from_text(kind, text: str):
    """INI text as a ``kind``; strings are lower-cased."""
    if kind is bool:
        lowered = text.strip().lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
    elif kind is str:
        return text.strip().lower()
    elif kind is not dict:
        return kind(text)
    raise ValueError(text)


def _from_json(kind, value):
    """A JSON value that already has ``kind``; an integer stands for a float."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise TypeError(value)
    return value


# The item type of each list key, resolved once from the types of _KEYS.
_LIST_ITEMS = {
    kind: typing.get_args(kind)[0]
    for keys in _KEYS.values()
    for kind in keys.values()
    if typing.get_origin(kind) is list
}


class _Repeated(str):
    """The key a JSON object gives twice, in any case, standing for the
    object; a str, so a reader checks for it before it reads text."""


def _json_object(pairs: list) -> dict | _Repeated:
    """A JSON object as a dict, or as the first key it repeats."""
    seen = set()
    for key, _ in pairs:
        if key.lower() in seen:
            return _Repeated(key)
        seen.add(key.lower())
    return dict(pairs)


def _coerce(section: str, key: str, raw, kind):
    """``raw``, INI text or a JSON value, as a ``kind``; failures name the key.

    A string is read as INI text, and a list key splits it on commas and
    whitespace.  Any other value must already have the key's type: no bool
    stands for a number, no non-integral number for an int, and a list key
    takes an array.
    """
    if isinstance(raw, _Repeated):
        raise ConfigError(f"[{section}] {key}: {raw!r} given twice")
    item = _LIST_ITEMS.get(kind)
    try:
        if item is None:
            return _from_text(kind, raw) if isinstance(raw, str) else _from_json(kind, raw)
        if isinstance(raw, str):
            return [_from_text(item, token) for token in raw.replace(",", " ").split()]
        if isinstance(raw, list):
            return [_from_json(item, value) for value in raw]
        raise TypeError(raw)
    except (TypeError, ValueError, OverflowError):
        name = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ConfigError(f"[{section}] {key}: expected {name}, got {raw!r}") from None


def _typed(section: str, raw: dict) -> dict:
    """The values of a raw section typed by :data:`_KEYS`; unknown keys fail."""
    keys = _KEYS[section]
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"[{section}]: unknown keys {sorted(unknown)}")
    return {key: _coerce(section, key, value, keys[key]) for key, value in raw.items()}


# The fields each agent type takes, and the defaults each type gives the
# fields that do not default to the environment's or to every type's value.
_COMMON_FIELDS = {"type", "quality", "weight", "sigma", "bias", "p", "g"}
_AGENT_FIELDS = {
    "truth": _COMMON_FIELDS,
    "image": _COMMON_FIELDS,
    "mixed": _COMMON_FIELDS,
    "malicious": _COMMON_FIELDS | {"low", "high"},
    "colluder": _COMMON_FIELDS | {"clique", "inflate", "bash"},
}
_AGENT_DEFAULTS = {
    "truth": {"weight": 1.0},
    "image": {"weight": 0.0},
    "mixed": {"weight": 1.0},
    "malicious": {"weight": 1.0, "low": 0.0, "high": 1.0},
    "colluder": {"weight": 1.0, "clique": 0, "inflate": 1.0},
}


def _build_payoff(key: str, g_text: str):
    if g_text == "linear":
        return Linear()
    if g_text.startswith("power:"):
        return Power(q=_coerce("agents", f"{key}.g", g_text.split(":", 1)[1], float))
    raise ConfigError(
        f"[agents] {key}: image payoff must be 'linear' or 'power:<q>', got {g_text!r}"
    )


def _build_agents(raw_agents: list[dict], defaults: dict) -> tuple[list[dict], tuple[Agent, ...]]:
    """Each agent's canonical dict, its raw fields typed and completed, and
    the agents built from them, one agent at a time.

    ``defaults`` holds the fields every type shares: the observation channel
    of the environment, the accuracy-loss exponent and the image payoff.
    Agents with equal preferences share one frozen :class:`UtilitySpec`,
    and agents with equal observation channels one :class:`NormalParams`:
    each distinct one is built, and checked, once per call.
    """
    keys = _KEYS["agents"]
    utilities: dict[tuple, UtilitySpec] = {}
    channels: dict[tuple, NormalParams] = {}
    plain = {"truth": Truth(), "image": Image(), "mixed": Mixed()}
    specs, agents = [], []
    for index, raw in enumerate(raw_agents):
        prefix = f"agent{index}."
        if "quality" not in raw:
            raise ConfigError(f"[agents] agent{index}: missing required field 'quality'")
        kind = _coerce("agents", prefix + "type", raw.get("type", "truth"), str)
        if kind not in _AGENT_TYPES:
            raise ConfigError(
                f"[agents] agent{index}: unknown type {kind!r}; expected one of {_AGENT_TYPES}"
            )
        allowed = _AGENT_FIELDS[kind]
        for field in raw:
            if field not in allowed:
                raise ConfigError(
                    f"[agents] agent{index}: field {field!r} not valid for type {kind!r}"
                )
        # Agent checks the weight against the type.
        spec = {**defaults, **_AGENT_DEFAULTS[kind], "type": kind}
        for field, value in raw.items():
            if field != "type":
                spec[field] = _coerce("agents", prefix + field, value, keys[field])
        specs.append(spec)
        try:
            if kind == "malicious":
                agent_type = MaliciousRandom(low=spec["low"], high=spec["high"])
            elif kind == "colluder":
                agent_type = Colluder(
                    clique_id=spec["clique"], inflate=spec["inflate"], bash=spec.get("bash")
                )
            else:
                agent_type = plain[kind]
            quality = Quality(spec["quality"])
            # Keyed by sign as well, as 0.0 == -0.0.
            weight, bias, sigma = spec["weight"], spec["bias"], spec["sigma"]
            preferences = (spec["g"], spec["p"], weight, math.copysign(1.0, weight))
            utility = utilities.get(preferences)
            if utility is None:
                utility = utilities[preferences] = UtilitySpec(
                    f=AbsPower(spec["p"]),
                    g=_build_payoff(f"agent{index}", spec["g"]),
                    truth_weight=weight,
                )
            observation = (bias, sigma, math.copysign(1.0, bias), math.copysign(1.0, sigma))
            channel = channels.get(observation)
            if channel is None:
                channel = channels[observation] = NormalParams(bias, sigma)
            agents.append(
                Agent(
                    id=index,
                    quality=quality,
                    agent_type=agent_type,
                    utility=utility,
                    cross_obs=channel,
                )
            )
        except ConfigError:
            raise  # _build_payoff's errors already name the agent
        except ValueError as exc:
            raise ConfigError(f"[agents] agent{index}: {exc}") from None
    return specs, tuple(agents)


def _build_mechanism(raw: dict) -> tuple[MechanismSpec, dict]:
    """The mechanism of a raw [mechanism] section, and the section typed.

    The keys are the fields of the spec class that ``kind`` names, and the
    spec's own checks are the value checks.
    """
    typed = {"kind": "as", **_typed("mechanism", raw)}
    kind = typed["kind"]
    if kind not in _MECHANISMS:
        raise ConfigError(
            f"[mechanism] kind: unknown mechanism {kind!r}; expected one of {tuple(_MECHANISMS)}"
        )
    cls = _MECHANISMS[kind]
    fields = [f.name for f in dataclasses.fields(cls)]
    unknown = set(typed) - {"kind", *fields}
    if unknown:
        raise ConfigError(
            f"[mechanism]: keys {sorted(unknown)} not valid for kind {kind!r}"
        )
    # Built up one key at a time in field order, so a failed check names its key.
    spec, given = cls(), {}
    for name in fields:
        if name in typed:
            given[name] = typed[name]
            try:
                spec = cls(**given)
            except ValueError as exc:
                raise ConfigError(f"[mechanism] {name}: {exc}") from None
    return spec, typed


def _check_mechanism_size(mechanism: MechanismSpec, k: int) -> None:
    """Check the mechanism keys whose valid values depend on the agent count K."""
    if isinstance(mechanism, ExtendedAS):
        if k < 3:
            raise ConfigError(f"[mechanism] kind: extended_as needs at least 3 agents, got {k}")
        for key in ("ring", "second_ring"):
            ring = getattr(mechanism, key)
            if ring is not None and len(ring) != k:
                raise ConfigError(
                    f"[mechanism] {key}: ring covers {len(ring)} agents, profile has {k}"
                )
    elif isinstance(mechanism, WeightedPR):
        try:
            peer_weights(mechanism, k)
        except ValueError as exc:
            raise ConfigError(f"[mechanism] weights: {exc}") from None


def _check_sections(names) -> None:
    """Fail on a section outside ``_KEYS``: a misspelt one would be ignored."""
    unknown = [name for name in names if name not in _KEYS]
    if unknown:
        raise ConfigError(f"[{unknown[0]}]: unknown section; expected one of {', '.join(_KEYS)}")


def _read_text(path: Path) -> str:
    """The text of a config file; a file that cannot be read or is not
    UTF-8 fails naming the path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror or exc}") from None


def _sections_from_ini(path: Path) -> dict:
    """The sections of an INI config, their values kept as raw text.  Values
    are read literally: a '%' is a percent sign, not an interpolation."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(_read_text(path), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    _check_sections(parser.sections())

    sections = {
        name: dict(parser.items(name)) if parser.has_section(name) else {}
        for name in ("environment", "mechanism", "simulation")
    }
    agents = []
    if parser.has_section("agents"):
        lines = dict(parser.items("agents"))
        expected = [f"agent{i}" for i in range(len(lines))]
        if lines.keys() != set(expected):
            keys = sorted(lines, key=lambda name: (len(name), name))
            raise ConfigError(
                "[agents]: entries must be named agent0, agent1, ... without gaps; "
                f"got {keys}"
            )
        for key in expected:
            tokens = {}
            # split() leaves no whitespace in a token.
            for token in lines[key].split():
                field, equals, raw = token.partition("=")
                if not equals:
                    raise ConfigError(
                        f"[agents] {key}: malformed token {token!r}; expected field=value"
                    )
                if field.lower() in tokens:
                    raise ConfigError(f"[agents] {key}: {field!r} given twice")
                tokens[field.lower()] = raw
            agents.append(tokens)
    sections["agents"] = agents

    sim = sections["simulation"]
    overrides = {
        key[len("override") :]: sim.pop(key) for key in list(sim) if key.startswith("override")
    }
    if overrides:
        sim["overrides"] = overrides
    return sections


def _sections_from_json(path: Path) -> dict:
    """The sections of a JSON config, their values kept as JSON values."""
    try:
        payload = json.loads(_read_text(path), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path.name}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if isinstance(payload, _Repeated):
        raise ConfigError(f"[{payload}]: section given twice")
    if not isinstance(payload, dict):
        raise ConfigError(f"{path.name}: top level must be an object of sections")
    _check_sections(payload)
    agents = payload.get("agents", [])
    if not isinstance(agents, list):
        raise ConfigError("[agents]: must be a list of agent objects")

    def keys(where: str, section) -> dict:
        if isinstance(section, _Repeated):
            raise ConfigError(f"{where}: {section!r} given twice")
        if not isinstance(section, dict):
            raise ConfigError(f"{where}: expected an object of keys, got {section!r}")
        # Case-blind, as configparser makes the keys of an INI file.
        return {key.lower(): value for key, value in section.items()}

    sections = {
        name: keys(f"[{name}]", payload.get(name, {}))
        for name in ("environment", "mechanism", "simulation")
    }
    sections["agents"] = [keys(f"[agents] agent{i}", entry) for i, entry in enumerate(agents)]
    return sections


def parse_config(
    path: str | Path, seed: int | None = None, trials: int | None = None
) -> ParsedConfig:
    """Parse, validate, and canonicalize a scenario config.

    ``seed``/``trials`` are command-line overrides applied before the
    canonical form (and therefore the digest) is computed.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    sections = (
        _sections_from_json(path)
        if path.suffix.lower() == ".json"
        else _sections_from_ini(path)
    )

    env_defaults = {**_ENVIRONMENT_DEFAULTS, **_typed("environment", sections["environment"])}
    # Checked here so a bad channel default names its key, not the first
    # agent that inherits it.
    channels = {"system": NormalParams(), "cross": NormalParams()}
    for key in ("system_mean", "system_std", "cross_mean", "cross_std"):
        channel, attr = key.split("_")
        try:
            channels[channel] = dataclasses.replace(channels[channel], **{attr: env_defaults[key]})
        except ValueError as exc:
            raise ConfigError(f"[environment] {key}: {exc}") from None

    raw_agents = sections["agents"]
    if len(raw_agents) < 2:
        raise ConfigError(f"[agents]: need at least 2 agents, got {len(raw_agents)}")
    shared = {
        "sigma": env_defaults["cross_std"],
        "bias": env_defaults["cross_mean"],
        "p": 2.0,
        "g": "linear",
    }
    agent_specs, agents = _build_agents(raw_agents, shared)
    try:
        env = Environment(
            agents=agents,
            system_obs=channels["system"],
            index_scheme=env_defaults["index_scheme"],
            clamp_observations=env_defaults["clamp"],
        )
    except ValueError as exc:
        # The agent count and ids are settled above; what fails is the scheme.
        raise ConfigError(f"[environment] index_scheme: {exc}") from None

    mechanism, mechanism_keys = _build_mechanism(sections["mechanism"])
    _check_mechanism_size(mechanism, env.k)

    sim = _typed("simulation", sections["simulation"])
    overrides = {}
    for agent_id, raw in sim.get("overrides", {}).items():
        key = f"override{agent_id}"
        if not agent_id.isdecimal():
            raise ConfigError(f"[simulation] {key}: overrides must be named override<agent-id>")
        if int(agent_id) >= env.k:
            raise ConfigError(f"[simulation] {key}: no such agent; the agents are 0 to {env.k - 1}")
        if int(agent_id) in overrides:
            raise ConfigError(f"[simulation] {key}: agent {int(agent_id)} overridden twice")
        value = _coerce("simulation", key, raw, float)
        if not math.isfinite(value):
            raise ConfigError(f"[simulation] {key}: expected a finite report, got {value}")
        overrides[int(agent_id)] = value
    strategy = sim.get("strategy", "equilibrium")
    if strategy == "equilibrium":
        if overrides:
            raise ConfigError("[simulation] strategy: overrides require strategy = custom")
        strategy_mode: str | dict[int, float] = "equilibrium"
    elif strategy == "custom":
        strategy_mode = overrides
    else:
        raise ConfigError(
            f"[simulation] strategy: expected 'equilibrium' or 'custom', got {strategy!r}"
        )
    resolved_trials = trials if trials is not None else sim.get("trials", 10_000)
    resolved_seed = seed if seed is not None else sim.get("seed", 0)

    canonical = {
        "environment": env_defaults,
        "agents": agent_specs,
        "mechanism": mechanism_keys,
        "simulation": {
            "trials": resolved_trials,
            "seed": resolved_seed,
            "strategy": strategy,
            "overrides": {str(k): v for k, v in overrides.items()},
        },
    }

    try:
        return ParsedConfig(
            env=env,
            mechanism=mechanism,
            strategy_mode=strategy_mode,
            trials=resolved_trials,
            seed=resolved_seed,
            canonical=canonical,
        )
    except ValueError as exc:
        # ScenarioConfig's messages open with the field that fails.
        name = str(exc).partition(" ")[0]
        from_flag = {"seed": seed, "trials": trials}.get(name) is not None
        where = f"--{name}" if from_flag else f"[simulation] {name}"
        raise ConfigError(f"{where}: {exc}") from None


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'lo:hi:n' for n evenly spaced points, or 'a,b,c'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid {text!r}: expected lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"--grid {text!r}: expected lo:hi:count") from None
        if count < 1:
            raise ConfigError(f"--grid {text!r}: count must be >= 1")
        return [float(v) for v in np.linspace(lo, hi, count)]
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--grid {text!r}: expected numbers") from None


# ---------------------------------------------------------------------------
# Command plumbing
# ---------------------------------------------------------------------------


def _out_dir(path: str) -> Path:
    """The directory ``--out`` names, checked before any work: it, or its
    nearest ancestor that exists or is a link, must be a directory.
    Commands make it only when they write, so one that fails leaves none."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} is not a directory")
    return out


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map exception families onto the exit-code contract."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            _fail(EXIT_CONFIG, str(exc))
        except RuntimeError as exc:
            _fail(EXIT_RUNTIME, str(exc))
        except ArithmeticError as exc:
            _fail(EXIT_RUNTIME, f"{type(exc).__name__}: {exc}")
        except MemoryError as exc:
            # numpy's is a private subclass, so the message names the base.
            _fail(EXIT_RUNTIME, f"MemoryError: {str(exc) or 'out of memory'}")

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="replab")
def main() -> None:
    """Reputation-mechanism laboratory: simulate, sweep, and audit."""


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Output directory.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option(
    "--trials", type=click.IntRange(min=1), default=None, help="Override the config trial count."
)
@click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker threads."
)
@_guarded
def cmd_run(config_path, out_dir, seed, trials, workers):
    """Simulate one scenario; write stats.json and per_agent.csv."""
    parsed = parse_config(config_path, seed=seed, trials=trials)
    out = _out_dir(out_dir)
    stats = run_trials(parsed, workers=workers)

    out.mkdir(parents=True, exist_ok=True)
    # Each mean is formatted once: the CSV writes the text, and stats.json
    # the float it spells.
    reputations = [_fmt(v) for v in stats.per_agent_reputation_mean.tolist()]
    utilities = [_fmt(v) for v in stats.per_agent_utility_mean.tolist()]
    stats_path = out / "stats.json"
    _write_json(
        stats_path,
        {
            "mae_mean": float(_fmt(stats.mae_mean)),
            "mae_stderr": float(_fmt(stats.mae_stderr)),
            "budget_mean": float(_fmt(stats.budget_mean)),
            "budget_max_abs": float(_fmt(stats.budget_max_abs)),
            "trials": int(stats.trials),
            "per_agent_reputation_mean": [float(v) for v in reputations],
            "per_agent_utility_mean": [float(v) for v in utilities],
        },
    )
    tables = _write_table(
        out / "per_agent.csv",
        {
            "agent_id": "Agent identifier (row order matches the config)",
            "quality": "True quality from the config",
            "reputation_mean": "Mean published reputation over all trials",
            "utility_mean": "Mean realized utility over all trials",
        },
        [
            {
                "agent_id": agent.id,
                "quality": float(agent.quality),
                "reputation_mean": reputation,
                "utility_mean": utility,
            }
            for agent, reputation, utility in zip(parsed.env.agents, reputations, utilities)
        ],
    )
    _write_manifest(out, "run", parsed.canonical, parsed.seed, [stats_path, *tables])
    click.echo(f"wrote {stats_path} ({stats.trials} trials, mae {_fmt(stats.mae_mean)})")


@main.command("sweep")
@click.argument("config_path", type=click.Path())
@click.option("--parameter", required=True, type=click.Choice(SWEEP_PARAMETERS))
@click.option("--grid", "grid_text", required=True, help="lo:hi:count or comma list.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=1), default=None)
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@_guarded
def cmd_sweep(config_path, parameter, grid_text, out_dir, seed, trials, workers):
    """Run a scenario across a parameter grid; write sweep.csv."""
    parsed = parse_config(config_path, seed=seed, trials=trials)
    grid = _parse_grid(grid_text)
    out = _out_dir(out_dir)
    try:
        rows = run_sweep(parsed, parameter, grid, workers=workers)
    except ValueError as exc:
        # run_sweep's messages open with the argument it rejects.
        name = str(exc).partition(" ")[0]
        if name not in ("parameter", "grid"):
            raise
        raise ConfigError(f"--{name}: {exc}") from None

    out.mkdir(parents=True, exist_ok=True)
    descriptions = {
        "value": f"Swept value of {parameter}",
        "mae_mean": "Mean total absolute error across trials",
        "mae_stderr": "Standard error of the total absolute error",
        "budget_mean": "Mean net tax across trials",
        "budget_max_abs": "Largest per-trial absolute net tax",
        "trials": "Trial count per grid point",
        "averaging_mae": "Closed-form simple-averaging error at this noise level",
        "y": "Closed-form band offset solving the first-order condition",
        "e_m": "Closed-form expected mechanism error per agent",
        "expected_reputation": "Closed-form mean published reputation of the representative sender",
    }
    columns = {key: descriptions[key] for key in rows[0] if key != "parameter"}
    paths = _write_table(out / "sweep.csv", columns, rows)
    canonical = {**parsed.canonical, "sweep": {"parameter": parameter, "grid": grid}}
    _write_manifest(out, "sweep", canonical, parsed.seed, paths)
    click.echo(f"wrote {paths[0]} ({len(rows)} grid points)")


# The design curves of ``figures``: each table's columns and their descriptions.
_FIGURES = {
    "fig1": {
        "a": "Band multiplier (tolerance = a * sigma')",
        "y": "Equilibrium band offset in units of a * sigma'",
    },
    "fig2": {
        "a": "Band multiplier",
        "e_m": "Expected mechanism error per agent at the optimal self-report",
        "averaging_mae": "Simple-averaging error sqrt(2/pi) * sigma'",
    },
    "fig3": {
        "a": "Band multiplier",
        "expected_reputation": "Mean published reputation at the optimal self-report",
        "baseline_r": "True quality of the representative sender",
    },
}


@main.command("figures")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--sigma-prime", type=float, default=0.1, show_default=True)
@click.option("--quality", "r_value", type=float, default=0.5, show_default=True)
@click.option("--points", type=int, default=50, show_default=True)
@_guarded
def cmd_figures(out_dir, sigma_prime, r_value, points):
    """Emit the band-mechanism design curves as CSV tables.

    fig1: band offset y versus the band multiplier a.
    fig2: expected mechanism error versus a, against plain averaging.
    fig3: expected published reputation versus a, against the true quality.
    """
    if not (math.isfinite(sigma_prime) and sigma_prime > 0.0):
        raise ConfigError(f"--sigma-prime must be finite and positive, got {sigma_prime}")
    if not 0.0 <= r_value <= 1.0:
        raise ConfigError(f"--quality must lie in [0, 1], got {r_value}")
    if points < 2:
        raise ConfigError(f"--points must be >= 2, got {points}")
    grid = [float(a) for a in np.linspace(0.5, 5.0, points)]
    averaging = math.sqrt(2.0 / math.pi) * sigma_prime

    out = _out_dir(out_dir)
    table = []
    for a in grid:
        y, e_m, reputation = _band_curves(a, r_value, sigma_prime)
        table.append(
            {
                "a": a,
                "y": y,
                "e_m": e_m,
                "averaging_mae": averaging,
                "expected_reputation": reputation,
                "baseline_r": r_value,
            }
        )
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, columns in _FIGURES.items():
        paths += _write_table(out / f"{name}.csv", columns, table)
    canonical = {
        "figures": {"sigma_prime": sigma_prime, "quality": r_value, "grid": grid}
    }
    _write_manifest(out, "figures", canonical, 0, paths)
    click.echo(f"wrote fig1.csv fig2.csv fig3.csv in {out}")


@main.command("check-equilibrium")
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--grid", "grid_points", type=click.IntRange(min=3), default=201, show_default=True)
@_guarded
def cmd_check_equilibrium(config_path, seed, trials, grid_points):
    """Audit the configured strategy profile for profitable deviations.

    Each agent's claimed report is scanned against a deviation grid under
    common random numbers; exit code 4 flags a deviation that clears both
    the grid resolution and three standard errors.
    """
    parsed = parse_config(config_path, seed=seed)
    env, mechanism = parsed.env, parsed.mechanism
    skipped = (MaliciousRandom, Colluder)
    audited = {i: None for i, a in enumerate(env.agents) if not isinstance(a.agent_type, skipped)}
    # One audit of every agent not skipped: its engine passes serve them all.
    found = deviation_reports(
        mechanism, env, parsed.strategy_mode, trials, grid_points, parsed.seed, audited
    )
    reports = dict(zip(audited, found))

    any_profitable = False
    click.echo("agent  claimed    best       gain         stderr       verdict")
    for i in range(env.k):
        report = reports.get(i)
        if report is None:
            click.echo(f"{i:<6d} skipped (randomized/colluding reporter)")
            continue
        verdict = "DEVIATES" if report.profitable else "ok"
        any_profitable = any_profitable or report.profitable
        click.echo(
            f"{i:<6d} {_fmt(report.claimed):<10s} {_fmt(report.best):<10s} "
            f"{_fmt(report.gain):<12s} {_fmt(report.gain_stderr):<12s} {verdict}"
        )
    if any_profitable:
        click.echo("profitable deviation found", err=True)
        sys.exit(EXIT_DEVIATION)
    click.echo("no profitable deviation")


@main.command("report")
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=click.IntRange(min=1), default=20_000, show_default=True)
@_guarded
def cmd_report(config_path, seed, trials):
    """Participation thresholds per agent plus the system-gain verdict."""
    parsed = parse_config(config_path, seed=seed)
    env = parsed.env
    # One engine pass gives every agent's Monte Carlo columns; the closed
    # columns repeat them wherever the closed rules do not apply.
    mc_in, mc_out = participation_utilities(env, trials, parsed.seed)

    click.echo("agent  type       quality  u_in(closed)  u_out(closed)  joins  u_in(mc)     u_out(mc)    joins  threshold")
    for i, agent in enumerate(env.agents):
        kind = type(agent.agent_type).__name__
        r = float(agent.quality)
        if isinstance(agent.agent_type, Truth):
            closed = hetero_truth_participation(env, focal=agent.id, method="closed")
            sigma = agent.cross_obs.std
            threshold = (
                f"rho {_fmt(closed.rho)} <= 4*sigma^2 {_fmt(4 * sigma * sigma)}: "
                f"{'yes' if closed.rho <= 4 * sigma * sigma else 'no'}"
            )
        elif agent.utility.truth_weight < 1.0 and not isinstance(
            agent.agent_type, (MaliciousRandom, Colluder)
        ):
            closed = hetero_image_participation(agent, env, method="closed")
            # gamma <= 4(1-r) is the paper's rule u_in >= u_out rearranged;
            # the closed verdict decides it in the rule's own arithmetic,
            # which keeps the two equal where 4(1-r) rounds below gamma.
            threshold = (
                f"gamma {_fmt(closed.gamma)} <= 4(1-r) {_fmt(4.0 * (1.0 - r))}: "
                f"{'yes' if closed.participates else 'no'}"
            )
        else:
            click.echo(f"{i:<6d} {kind:<10s} {_fmt(r):<8s} randomized reporter, no participation model")
            continue
        u_in, u_out = mc_in[i], mc_out[i]
        if closed_forms_apply(env, agent):
            u_in_closed, u_out_closed = closed.u_in, closed.u_out
        else:
            u_in_closed, u_out_closed = u_in, u_out
        click.echo(
            f"{i:<6d} {kind:<10s} {_fmt(r):<8s} "
            f"{_fmt(u_in_closed):<13s} {_fmt(u_out_closed):<14s} "
            f"{'yes' if u_in_closed >= u_out_closed else 'no':<6s} "
            f"{_fmt(u_in):<12s} {_fmt(u_out):<12s} "
            f"{'yes' if u_in >= u_out else 'no':<6s} {threshold}"
        )

    gains = hetero_system_gain(env)
    rho, budget = _gain_terms(env)
    click.echo(
        f"system gain: {'yes' if gains else 'no'} "
        f"(rho {_fmt(rho)} vs 2*sqrt(2/pi)*sigma {_fmt(budget)})"
    )


if __name__ == "__main__":
    main()
