"""Generated configs: a valid config reads the same as INI and as JSON, and
a config with one section, key or value broken exits 2 naming it."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from replab.cli import _KEYS, _MECHANISMS, _digest, main, parse_config

# A fixed example sequence keeps the suite deterministic; few, small
# configs keep these properties to a few seconds.
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

NOISE = st.floats(0.0, 0.3)
OFFSET = st.floats(-0.2, 0.2)
UNIT = st.floats(0.0, 1.0)

# The values a valid config may give each optional key.
ENVIRONMENT = {
    "index_scheme": st.sampled_from(["absolute", "relative"]),
    "system_mean": OFFSET,
    "system_std": NOISE,
    "cross_mean": OFFSET,
    "cross_std": NOISE,
    "clamp": st.booleans(),
}
AGENT_FIELDS = {
    "sigma": NOISE,
    "bias": OFFSET,
    "p": st.floats(1.0, 4.0),
    "g": st.one_of(st.just("linear"), st.floats(0.1, 1.0).map(lambda q: f"power:{q!r}")),
}
TYPE_FIELDS = {
    "truth": {"weight": st.just(1.0)},
    "image": {"weight": st.just(0.0)},
    "mixed": {},
    "malicious": {"low": st.floats(0.0, 0.4), "high": st.floats(0.6, 1.0)},
    "colluder": {"clique": st.integers(0, 2), "inflate": UNIT, "bash": UNIT},
}

# A text that no value of a key's type reads as.
WRONG_TYPE = {
    float: "abc",
    bool: "abc",
    int: "1.5",
    str: "bogus",
    list[float]: "abc",
    list[int]: "abc",
}

# Values of the right type that a check rejects, with the mechanism kind or
# agent type that reads the key.  None for an agent's weight stands for the
# weight its type rejects.
OUT_OF_RANGE = [
    ("environment", "system_mean", "inf", None),
    ("environment", "system_std", -0.5, None),
    ("environment", "cross_mean", "inf", None),
    ("environment", "cross_std", -0.5, None),
    ("mechanism", "kind", "nosuch", None),
    ("mechanism", "a", -1.0, "pr"),
    ("mechanism", "weights", [1.0], "weighted_pr"),
    ("mechanism", "ring", [0, 0, 0], "extended_as"),
    ("mechanism", "layers", 3, "extended_as"),
    ("simulation", "trials", 0, None),
    ("simulation", "seed", -1, None),
    ("agents", "quality", 1.5, None),
    ("agents", "weight", None, None),
    ("agents", "sigma", -1.0, None),
    ("agents", "bias", "inf", None),
    ("agents", "p", 0.5, None),
    ("agents", "g", "power:2", None),
    ("agents", "low", 1.5, "malicious"),
    ("agents", "high", -0.5, "malicious"),
    ("agents", "inflate", 2.0, "colluder"),
    ("agents", "bash", -1.0, "colluder"),
]
BAD_WEIGHT = {"truth": 0.5, "image": 0.5, "mixed": 1.0, "malicious": 1.5, "colluder": 1.5}


@st.composite
def configs(draw, kind=None):
    """A valid config, of mechanism ``kind`` when given."""
    k = draw(st.integers(3 if kind == "extended_as" else 2, 5))
    environment = {key: draw(v) for key, v in ENVIRONMENT.items() if draw(st.booleans())}
    agents = []
    for _ in range(k):
        agent_type = draw(st.sampled_from(sorted(TYPE_FIELDS)))
        agent = {"type": agent_type, "quality": draw(st.floats(0.05, 0.95))}
        if agent_type == "mixed":
            agent["weight"] = draw(st.floats(0.01, 0.99))
        for field, values in {**AGENT_FIELDS, **TYPE_FIELDS[agent_type]}.items():
            if draw(st.booleans()):
                agent[field] = draw(values)
        agents.append(agent)
    kinds = sorted(_MECHANISMS) if k >= 3 else sorted(set(_MECHANISMS) - {"extended_as"})
    mechanism = {"kind": kind or draw(st.sampled_from(kinds))}
    if mechanism["kind"] in ("pr", "weighted_pr") and draw(st.booleans()):
        mechanism["a"] = draw(st.floats(0.5, 3.0))
    if mechanism["kind"] == "weighted_pr":
        mechanism["weights"] = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
    if mechanism["kind"] == "extended_as":
        layers = draw(st.sampled_from([None, 1, 2]))
        if layers is not None:
            mechanism["layers"] = layers
        if draw(st.booleans()):
            mechanism["ring"] = draw(st.permutations(range(k)))
        if layers == 2 and draw(st.booleans()):
            mechanism["second_ring"] = draw(st.permutations(range(k)))
    simulation = {}
    if draw(st.booleans()):
        simulation["trials"] = draw(st.integers(1, 20))
    if draw(st.booleans()):
        simulation["seed"] = draw(st.integers(0, 2**64 - 1))
    strategy = draw(st.sampled_from([None, "equilibrium", "custom"]))
    if strategy is not None:
        simulation["strategy"] = strategy
    if strategy == "custom":
        ids = draw(st.sets(st.integers(0, k - 1)))
        simulation["overrides"] = {i: draw(UNIT) for i in sorted(ids)}
    return {
        "environment": environment,
        "agents": agents,
        "mechanism": mechanism,
        "simulation": simulation,
    }


def _misspelt(draw, names):
    """One of ``names`` with a letter dropped, itself none of ``names``."""
    name = draw(st.sampled_from(sorted(names)))
    at = draw(st.integers(0, len(name) - 1))
    typo = name[:at] + name[at + 1 :]
    assume(typo and typo not in names and not typo.startswith("override"))
    return typo


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(_ini_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _write_both(directory: Path, config: dict) -> tuple[Path, Path]:
    """``config`` as an INI file and as its JSON mirror."""
    lines = []
    for section, keys in config.items():
        lines.append(f"[{section}]")
        if section == "agents":
            for i, agent in enumerate(keys):
                tokens = " ".join(f"{field}={_ini_value(v)}" for field, v in agent.items())
                lines.append(f"agent{i} = {tokens}")
            continue
        keys = dict(keys)
        overrides = keys.pop("overrides", {}) if section == "simulation" else {}
        lines += [f"{key} = {_ini_value(v)}" for key, v in keys.items()]
        lines += [f"override{i} = {_ini_value(v)}" for i, v in overrides.items()]
    ini = directory / "config.ini"
    ini.write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = copy.deepcopy(config)
    if "overrides" in payload["simulation"]:
        overrides = payload["simulation"]["overrides"]
        payload["simulation"]["overrides"] = {str(i): v for i, v in overrides.items()}
    jsn = directory / "config.json"
    jsn.write_text(json.dumps(payload), encoding="utf-8")
    return ini, jsn


def _assert_exits_2_naming(config: dict, where: list[str]) -> None:
    """Both renderings of ``config`` exit 2 with an error that opens with the
    first text of ``where`` and holds the others."""
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        for path in _write_both(Path(tmp), config):
            result = runner.invoke(main, ["run", str(path), "--out", str(Path(tmp) / "out")])
            assert result.exit_code == 2, (path.suffix, result.output)
            error = result.stderr
            named = error.startswith(f"error: {where[0]}")
            assert named and all(text in error for text in where), (path.suffix, error)


@SETTINGS
@given(configs())
def test_a_config_reads_the_same_as_ini_and_as_json(config):
    with tempfile.TemporaryDirectory() as tmp:
        ini, jsn = (parse_config(path) for path in _write_both(Path(tmp), config))
    assert ini.canonical == jsn.canonical
    assert _digest(ini.canonical) == _digest(jsn.canonical)
    assert ini == jsn


@pytest.mark.parametrize("what", ["section", "key", "field"])
@given(data=st.data())
@settings(SETTINGS, max_examples=15)
def test_a_misspelt_or_misplaced_name_exits_2_naming_it(what, data):
    config = data.draw(configs())
    if what == "section":
        name = _misspelt(data.draw, set(_KEYS))
        config[name] = {}
        _assert_exits_2_naming(config, [f"[{name}]"])
    elif what == "key":
        section = data.draw(st.sampled_from(["environment", "mechanism", "simulation"]))
        key = _misspelt(data.draw, set(_KEYS[section]))
        config[section][key] = "1"
        _assert_exits_2_naming(config, [f"[{section}]", repr(key)])
    else:
        n = data.draw(st.integers(0, len(config["agents"]) - 1))
        agent = config["agents"][n]
        # A misspelt field, or a field of another agent type.
        own = {"type", "quality", "weight", *AGENT_FIELDS, *TYPE_FIELDS[agent["type"]]}
        if data.draw(st.booleans()):
            field = _misspelt(data.draw, set(_KEYS["agents"]))
        else:
            field = data.draw(st.sampled_from(sorted(set(_KEYS["agents"]) - own)))
        agent[field] = "1"
        _assert_exits_2_naming(config, [f"[agents] agent{n}", repr(field)])


@given(data=st.data())
@settings(SETTINGS, max_examples=30)
def test_a_value_of_the_wrong_type_exits_2_naming_its_key(data):
    config = data.draw(configs())
    n = data.draw(st.integers(0, len(config["agents"]) - 1))
    keys = [(s, key) for s in ("environment", "mechanism", "simulation") for key in config[s]]
    keys += [("agents", field) for field in config["agents"][n]]
    section, key = data.draw(st.sampled_from(keys))
    if section == "agents":
        config["agents"][n][key] = WRONG_TYPE[_KEYS["agents"][key]]
        _assert_exits_2_naming(config, [f"[agents] agent{n}"])
    elif key == "overrides":
        overrides = config["simulation"]["overrides"]
        assume(overrides)
        i = data.draw(st.sampled_from(sorted(overrides)))
        overrides[i] = "abc"
        _assert_exits_2_naming(config, [f"[simulation] override{i}"])
    else:
        config[section][key] = WRONG_TYPE[_KEYS[section][key]]
        _assert_exits_2_naming(config, [f"[{section}] {key}"])


@pytest.mark.parametrize(
    "section, key, bad, needs", OUT_OF_RANGE, ids=[f"{s}.{k}" for s, k, _, _ in OUT_OF_RANGE]
)
@given(data=st.data())
@settings(SETTINGS, max_examples=3)
def test_an_out_of_range_value_exits_2_naming_its_key(section, key, bad, needs, data):
    if section != "agents":
        config = data.draw(configs(needs))
        config[section][key] = bad
        _assert_exits_2_naming(config, [f"[{section}] {key}"])
        return
    config = data.draw(configs())
    n = data.draw(st.integers(0, len(config["agents"]) - 1))
    agent = config["agents"][n]
    if needs is not None:
        # Retyped, without the fields of its former type.
        agent = {f: v for f, v in agent.items() if f not in TYPE_FIELDS[agent["type"]]}
        agent["type"] = needs
    agent[key] = BAD_WEIGHT[agent["type"]] if bad is None else bad
    config["agents"][n] = agent
    _assert_exits_2_naming(config, [f"[agents] agent{n}"])


@pytest.mark.parametrize("strategy", ["custom", "equilibrium"])
@given(data=st.data())
@settings(SETTINGS, max_examples=3)
def test_a_bad_override_exits_2_naming_its_key(strategy, data):
    config = data.draw(configs())
    k = len(config["agents"])
    simulation = config["simulation"]
    simulation["strategy"] = strategy
    if strategy == "custom":
        # An override of an agent the config does not have.
        simulation["overrides"] = {**simulation.get("overrides", {}), k + 2: 0.5}
        _assert_exits_2_naming(config, [f"[simulation] override{k + 2}"])
    else:
        # Overrides that the equilibrium strategy does not take.
        simulation["overrides"] = {0: 0.5}
        _assert_exits_2_naming(config, ["[simulation] strategy"])
