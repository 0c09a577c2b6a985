"""Command-line behavior: config parsing, file outputs, exit codes."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from replab.cli import main, parse_config
from replab import analysis, cli
from replab.numerics import NormalParams

# ---------------------------------------------------------------------------
# Config fixtures
# ---------------------------------------------------------------------------

BASIC_INI = """\
[environment]
system_std = 0.1
cross_std = 0.1

[agents]
agent0 = quality=0.3 type=truth
agent1 = quality=0.5 type=truth
agent2 = quality=0.7 type=truth
agent3 = quality=0.4 type=image
agent4 = quality=0.6 type=truth

[mechanism]
kind = as

[simulation]
trials = 1000
seed = 7
"""

BASIC_JSON = {
    "environment": {"system_std": 0.1, "cross_std": 0.1},
    "agents": [
        {"quality": 0.3, "type": "truth"},
        {"quality": 0.5, "type": "truth"},
        {"quality": 0.7, "type": "truth"},
        {"quality": 0.4, "type": "image"},
        {"quality": 0.6, "type": "truth"},
    ],
    "mechanism": {"kind": "as"},
    "simulation": {"trials": 1000, "seed": 7},
}

PR_INI = """\
[environment]
system_std = 0.15
cross_std = 0.15

[agents]
agent0 = quality=0.4 type=image
agent1 = quality=0.5 type=image
agent2 = quality=0.6 type=image

[mechanism]
kind = pr
a = 2.0

[simulation]
trials = 1000
seed = 3
"""


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_stats_csv_schema_and_manifest(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output

    stats = json.loads((out / "stats.json").read_text())
    assert stats["trials"] == 1000
    assert stats["budget_max_abs"] <= 1e-10
    assert len(stats["per_agent_reputation_mean"]) == 5

    csv_text = (out / "per_agent.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "agent_id,quality,reputation_mean,utility_mean"
    assert len(lines) == 6
    assert "\r" not in csv_text

    schema = json.loads((out / "per_agent.schema.json").read_text())
    assert [c["name"] for c in schema["columns"]] == lines[0].split(",")

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {
        "command",
        "config_digest",
        "seed",
        "tool_version",
        "output_paths",
        "stream",
    }
    assert manifest["stream"] == 5
    assert manifest["command"] == "run"
    assert manifest["seed"] == 7
    assert len(manifest["config_digest"]) == 64


def test_one_trial_run_writes_zero_stderr(runner, tmp_path):
    # One trial has no spread to estimate, so the standard error is 0.
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "--out", str(out), "--trials", "1"])
    assert result.exit_code == 0, result.output
    stats = json.loads((out / "stats.json").read_text())
    assert stats["trials"] == 1 and stats["mae_stderr"] == 0.0


def test_run_image_agent_inflates_reputation(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "--out", str(out)])
    assert result.exit_code == 0
    stats = json.loads((out / "stats.json").read_text())
    # Image agent at quality 0.4 self-reports min(0.4 + 0.5, 1) = 0.9.
    assert stats["per_agent_reputation_mean"][3] == pytest.approx(0.9, abs=1e-9)
    assert stats["mae_mean"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize(
    "mechanism_ini, mechanism_json",
    [
        ("kind = as", {"kind": "as"}),
        ("KIND = as", {"Kind": "as"}),
        ("kind = pr\na = 2", {"kind": "pr", "a": 2}),
        ("kind = weighted_pr\nweights = 1, 2 3 1 1", {"kind": "weighted_pr", "weights": [1, 2, 3, 1, 1]}),
        (
            "kind = extended_as\nring = 3 1 4 0 2\nlayers = 2\nsecond_ring = 2 4 1 3 0",
            {"kind": "extended_as", "ring": [3, 1, 4, 0, 2], "layers": 2, "second_ring": [2, 4, 1, 3, 0]},
        ),
    ],
    ids=["as", "as_key_case", "pr", "weighted_pr", "extended_as"],
)
def test_ini_and_json_configs_are_equivalent(runner, tmp_path, mechanism_ini, mechanism_json):
    # Ring validation has no equilibrium for image agents, so its mirror
    # makes the image agent truthful in both formats.
    ini_text = BASIC_INI.replace("kind = as", mechanism_ini)
    payload = dict(BASIC_JSON, mechanism=mechanism_json)
    if "extended_as" in mechanism_ini:
        ini_text = ini_text.replace("type=image", "type=truth")
        payload["agents"] = [dict(agent, type="truth") for agent in payload["agents"]]
    ini = _write(tmp_path, "basic.ini", ini_text)
    jsn = _write(tmp_path, "basic.json", json.dumps(payload))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["run", str(ini), "--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, ["run", str(jsn), "--out", str(out_b)]).exit_code == 0
    assert _read_bytes(out_a) == _read_bytes(out_b)


# A number's text in per_agent.csv (and on stdout) and in stats.json: CSV
# writes 12 significant digits, JSON the float those digits spell, as repr
# writes it.  The two forms differ for large magnitudes, signed zeros and
# integral values.
_RENDERINGS = [
    (1234567890123.0, "1.23456789012e+12", "1234567890120.0"),
    (1e12, "1e+12", "1000000000000.0"),
    (-2e16 / 3, "-6.66666666667e+15", "-6666666666670000.0"),
    (1e-05, "1e-05", "1e-05"),
    (-0.0, "-0", "-0.0"),
    (3.0, "3", "3.0"),
    (0.1 + 0.2, "0.3", "0.3"),
    (np.float64(2.0) / 3.0, "0.666666666667", "0.666666666667"),
    (np.int64(7), "7", "7.0"),
]


@pytest.mark.parametrize("value,csv_text,json_text", _RENDERINGS)
def test_run_renders_numbers_in_csv_and_json_forms(
    runner, tmp_path, monkeypatch, value, csv_text, json_text
):
    from replab import cli
    from replab.simulator import SimStats

    def fake_run_trials(config, workers=1):
        means = np.array([value] * config.env.k)
        scalar = float(value)
        return SimStats(scalar, 0.0, means, means.copy(), scalar, 0.0, np.int64(config.trials))

    monkeypatch.setattr(cli, "run_trials", fake_run_trials)
    cfg = _write(tmp_path, "c.ini", BASIC_INI)
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.output.endswith(f"(1000 trials, mae {csv_text})\n")
    rows = (out / "per_agent.csv").read_text().splitlines()
    assert rows[1] == f"0,0.3,{csv_text},{csv_text}"
    stats = (out / "stats.json").read_text()
    for key in ("mae_mean", "budget_mean"):
        assert f'"{key}": {json_text},' in stats
    listed = ",\n    ".join([json_text] * 5)
    for key in ("per_agent_reputation_mean", "per_agent_utility_mean"):
        assert f'"{key}": [\n    {listed}\n  ]' in stats
    assert '"trials": 1000\n' in stats


def test_rerun_is_byte_identical(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["run", str(config), "--out", str(out_a)]).exit_code == 0
    assert runner.invoke(main, ["run", str(config), "--out", str(out_b)]).exit_code == 0
    assert _read_bytes(out_a) == _read_bytes(out_b)


def test_worker_count_does_not_change_output_bytes(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, ["run", str(config), "--out", str(out_a), "--workers", "1"])
    r8 = runner.invoke(main, ["run", str(config), "--out", str(out_b), "--workers", "8"])
    assert r1.exit_code == 0 and r8.exit_code == 0
    assert _read_bytes(out_a) == _read_bytes(out_b)


def test_fewer_than_one_worker_exits_2_naming_the_flag(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    pr_config = _write(tmp_path, "pr.ini", PR_INI)
    for workers in ("0", "-1"):
        runs = (
            ["run", str(config), "--out", str(tmp_path / "r")],
            ["sweep", str(pr_config), "--parameter", "pr_a", "--grid", "1,2", "--out", str(tmp_path / "s")],
        )
        for args in runs:
            result = runner.invoke(main, args + ["--workers", workers])
            assert result.exit_code == 2, result.output
            assert "--workers" in result.output
    assert not (tmp_path / "r").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("run", "--trials", "0"),
        ("sweep", "--trials", "0"),
        ("check-equilibrium", "--trials", "0"),
        ("check-equilibrium", "--grid", "2"),
        ("report", "--trials", "-1"),
    ],
)
def test_bad_count_flag_exits_2_naming_the_flag(runner, tmp_path, command, flag, value):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    args = {
        "run": ["run", str(config), "--out", str(tmp_path / "out")],
        "sweep": ["sweep", str(config), "--parameter", "sigma", "--grid", "0.1", "--out", str(tmp_path / "out")],
        "check-equilibrium": ["check-equilibrium", str(config)],
        "report": ["report", str(config)],
    }[command]
    result = runner.invoke(main, args + [flag, value])
    assert result.exit_code == 2, result.output
    assert flag in result.output
    assert result.stdout == ""
    assert not (tmp_path / "out").exists()


def test_seed_and_trials_flags_override_config_and_digest(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["run", str(config), "--out", str(out_a)]).exit_code == 0
    result = runner.invoke(
        main,
        ["run", str(config), "--out", str(out_b), "--seed", "11", "--trials", "500"],
    )
    assert result.exit_code == 0
    stats = json.loads((out_b / "stats.json").read_text())
    assert stats["trials"] == 500
    m_a = json.loads((out_a / "manifest.json").read_text())
    m_b = json.loads((out_b / "manifest.json").read_text())
    assert m_b["seed"] == 11
    assert m_a["config_digest"] != m_b["config_digest"]


# ---------------------------------------------------------------------------
# Config validation (exit 2) and runtime failures (exit 3)
# ---------------------------------------------------------------------------


def test_single_agent_config_exits_2_naming_the_constraint(runner, tmp_path):
    config = _write(
        tmp_path,
        "k1.ini",
        "[agents]\nagent0 = quality=0.5 type=truth\n\n[mechanism]\nkind = as\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "at least 2 agents" in result.stderr


def test_unknown_environment_key_exits_2(runner, tmp_path):
    config = _write(
        tmp_path,
        "bad.ini",
        "[environment]\nsystm_std = 0.1\n\n[agents]\n"
        "agent0 = quality=0.5 type=truth\nagent1 = quality=0.4 type=truth\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "[environment]" in result.stderr and "systm_std" in result.stderr


def test_unknown_agent_field_exits_2(runner, tmp_path):
    config = _write(
        tmp_path,
        "bad.ini",
        "[agents]\nagent0 = quality=0.5 type=truth inflate=0.9\n"
        "agent1 = quality=0.4 type=truth\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "inflate" in result.stderr and "truth" in result.stderr


def test_gap_in_agent_numbering_exits_2(runner, tmp_path):
    config = _write(
        tmp_path,
        "bad.ini",
        "[agents]\nagent0 = quality=0.5 type=truth\nagent2 = quality=0.4 type=truth\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "agent0, agent1" in result.stderr


def test_overrides_without_custom_strategy_exit_2(runner, tmp_path):
    config = _write(
        tmp_path,
        "bad.ini",
        "[agents]\nagent0 = quality=0.5 type=truth\nagent1 = quality=0.4 type=truth\n\n"
        "[simulation]\noverride0 = 0.7\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "custom" in result.stderr


@pytest.mark.parametrize(
    "fields, message",
    [
        ("type=truth weight=0.5", "truth agents need truth_weight 1, got 0.5"),
        ("type=image weight=0.5", "image agents need truth_weight 0, got 0.5"),
        ("type=mixed weight=1", "mixed agents need truth_weight strictly inside (0, 1), got 1.0"),
        ("type=mixed", "mixed agents need truth_weight strictly inside (0, 1), got 1.0"),
        ("type=malicious low=0.9 high=0.2", "need 0 <= low < high <= 1"),
        ("type=colluder inflate=2", "inflate level must lie in [0, 1]"),
        ("type=truth g=bogus", "image payoff must be 'linear' or 'power:<q>'"),
    ],
    ids=[
        "truth_weight",
        "image_weight",
        "mixed_weight_1",
        "mixed_default",
        "malicious_range",
        "inflate",
        "payoff",
    ],
)
def test_bad_agent_exits_2_naming_the_agent_once(runner, tmp_path, fields, message):
    # The agent's own checks judge its fields; the error names the agent once.
    config = _write(tmp_path, "bad.ini", _truth_agents(2) + f"agent2 = quality=0.5 {fields}\n")
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: [agents] agent2: {message}"), result.stderr
    assert result.stderr.count("[agents]") == 1, result.stderr


def test_agent_errors_are_reported_in_agent_order(runner, tmp_path):
    # Each agent is typed and built before the next is read, so agent 0's
    # weight is judged before agent 1's malformed quality.
    config = _write(
        tmp_path,
        "bad.ini",
        "[agents]\nagent0 = quality=0.5 type=truth weight=0.5\nagent1 = quality=high\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr == "error: [agents] agent0: truth agents need truth_weight 1, got 0.5\n"


@pytest.mark.parametrize("suffix", [".ini", ".json"])
@pytest.mark.parametrize(
    "strategy, agent, where",
    [("custom", 7, "[simulation] override7:"), ("equilibrium", 0, "[simulation] strategy:")],
    ids=["unknown_agent", "not_custom"],
)
def test_bad_override_names_its_key(runner, tmp_path, suffix, strategy, agent, where):
    if suffix == ".ini":
        text = _truth_agents(2) + f"\n[simulation]\nstrategy = {strategy}\noverride{agent} = 0.4\n"
    else:
        simulation = {"strategy": strategy, "overrides": {str(agent): 0.4}}
        text = json.dumps(dict(THREE_TRUTH_JSON, simulation=simulation))
    config = _write(tmp_path, "bad" + suffix, text)
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {where}"), result.stderr


def test_malformed_quality_exits_2_with_anchor(runner, tmp_path):
    config = _write(
        tmp_path,
        "bad.ini",
        "[agents]\nagent0 = quality=high type=truth\nagent1 = quality=0.4 type=truth\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "agent0.quality" in result.stderr


def test_missing_config_file_exits_2(runner, tmp_path):
    result = runner.invoke(
        main, ["run", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 2
    assert "not found" in result.stderr


def test_percent_sign_in_an_ini_value_is_literal(runner, tmp_path):
    # configparser's interpolation would raise on a bare '%'; values are
    # read literally, so the bad number is reported against its key.
    config = _write(
        tmp_path, "pct.ini", "[agents]\nagent0 = quality=0.5%\nagent1 = quality=0.4\n"
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr == "error: [agents] agent0.quality: expected float, got '0.5%'\n"
    # A '%' where text is expected is kept as text.
    config = _write(tmp_path, "pct2.ini", "[environment]\nindex_scheme = 100%\n" + _truth_agents(2))
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "index_scheme" in result.stderr and "'100%'" in result.stderr


@pytest.mark.parametrize("suffix", [".ini", ".json"])
def test_unreadable_config_exits_2_naming_the_path(runner, tmp_path, suffix):
    folder = tmp_path / f"folder{suffix}"
    folder.mkdir()
    result = runner.invoke(main, ["run", str(folder), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {folder}: cannot read config")

    binary = tmp_path / f"latin1{suffix}"
    binary.write_bytes("[agents]\nagent0 = quality=0.5 type=truth ; caf\xe9\n".encode("latin-1"))
    result = runner.invoke(main, ["run", str(binary), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {binary}: not UTF-8 text (")


def _readme_ini() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, "the README holds one INI example"
    return blocks[0]


def test_readme_ini_example_parses_and_runs(runner, tmp_path):
    config = _write(tmp_path, "readme.ini", _readme_ini())
    parsed = parse_config(config)
    assert parsed.env.system_obs == NormalParams(0.0, 0.1)
    assert parsed.trials == 10_000 and parsed.seed == 7
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config), "--out", str(out), "--trials", "2000"])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "stats.json").read_text())["trials"] == 2000


def _truth_agents(k):
    return "[agents]\n" + "".join(
        f"agent{i} = quality={0.3 + 0.1 * i:.1f} type=truth\n" for i in range(k)
    )


@pytest.mark.parametrize(
    "k,mechanism,key,message",
    [
        (3, "kind = weighted_pr\nweights = 1 2", "[mechanism] weights", "2 weights for 3 agents"),
        (3, "kind = weighted_pr\nweights = 0 0 1", "[mechanism] weights", "zero total weight"),
        (3, "kind = weighted_pr\nweights = 0 0 0", "[mechanism] weights", "sum to zero"),
        (3, "kind = extended_as\nring = 1 0", "[mechanism] ring", "covers 2 agents"),
        (
            3,
            "kind = extended_as\nlayers = 2\nsecond_ring = 0 1",
            "[mechanism] second_ring",
            "covers 2 agents",
        ),
        (2, "kind = extended_as", "[mechanism] kind", "at least 3 agents"),
    ],
)
def test_agent_count_dependent_mechanism_keys_are_checked_at_parse(
    runner, tmp_path, k, mechanism, key, message
):
    config = _write(tmp_path, "bad.ini", _truth_agents(k) + f"\n[mechanism]\n{mechanism}\n")
    result = runner.invoke(main, ["check-equilibrium", str(config), "--trials", "50"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert key in result.stderr and message in result.stderr


@pytest.mark.parametrize("key", ["system_std", "system_mean", "cross_std", "cross_mean"])
def test_bad_system_channel_names_its_environment_key(runner, tmp_path, key):
    config = _write(tmp_path, "bad.ini", f"[environment]\n{key} = nan\n\n" + _truth_agents(3))
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"[environment] {key}:" in result.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("suffix", [".ini", ".json"])
def test_nonfinite_override_exits_2_naming_its_key(runner, tmp_path, suffix, value):
    if suffix == ".ini":
        text = _truth_agents(3) + f"\n[simulation]\nstrategy = custom\noverride0 = {value}\n"
    else:
        payload = dict(BASIC_JSON, simulation={"strategy": "custom", "overrides": {"0": float(value)}})
        text = json.dumps(payload)
    config = _write(tmp_path, "bad" + suffix, text)
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "[simulation] override0:" in result.stderr


THREE_TRUTH_JSON = {
    "agents": [{"quality": q, "type": "truth"} for q in (0.3, 0.5, 0.7)],
    "simulation": {"trials": 200, "seed": 1},
}


@pytest.mark.parametrize(
    "section, value, where",
    [
        ("mechanism", {"kind": "weighted_pr", "weights": 5}, "[mechanism] weights:"),
        ("environment", 5, "[environment]:"),
        ("simulation", [1], "[simulation]:"),
        ("agents", [5, 6], "[agents] agent0:"),
        ("simulation", {"trials": "abc"}, "[simulation] trials:"),
        ("mechanism", "pr", "[mechanism]:"),
        ("mechanism", {"kind": "pr", "a": "x"}, "[mechanism] a:"),
        ("simulation", {"seed": 1.5}, "[simulation] seed:"),
        ("mechanism", {"kind": "extended_as", "layers": 2.0}, "[mechanism] layers:"),
        ("mechanism", {"kind": "pr", "a": True}, "[mechanism] a:"),
        ("mechanism", {"kind": "extended_as", "ring": "201"}, "[mechanism] ring:"),
        ("environment", {"index_scheme": "bogus"}, "[environment] index_scheme:"),
    ],
    ids=[
        "weights_number",
        "environment_number",
        "simulation_array",
        "agents_numbers",
        "trials_text",
        "mechanism_string",
        "a_text",
        "seed_fraction",
        "layers_float",
        "a_bool",
        "ring_text",
        "index_scheme",
    ],
)
def test_bad_json_value_exits_2_naming_its_section_and_key(runner, tmp_path, section, value, where):
    # A JSON value is typed as its INI text would be: strings parse as INI
    # text, and any other value must already have the key's type.
    config = _write(tmp_path, "bad.json", json.dumps(dict(THREE_TRUTH_JSON, **{section: value})))
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {where}"), result.stderr


@pytest.mark.parametrize("suffix", [".ini", ".json"])
def test_unknown_section_exits_2_naming_it(runner, tmp_path, suffix):
    # A misspelt section would otherwise leave its keys at their defaults.
    if suffix == ".ini":
        text = _truth_agents(3) + "\n[simulaton]\ntrials = 5\n"
    else:
        text = json.dumps(dict(THREE_TRUTH_JSON, simulaton={"trials": 5}))
    config = _write(tmp_path, "bad" + suffix, text)
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: [simulaton]:"), result.stderr


_TWO_AGENTS = '[{"quality": 0.3}, {"quality": 0.5}]'

_REPEATS = [
    (
        "agent.ini",
        "[agents]\nagent0 = quality=0.3 quality=0.9\nagent1 = quality=0.5\n",
        "[agents] agent0: 'quality' given twice",
    ),
    (
        "agent_case.ini",
        "[agents]\nagent0 = quality=0.3\nagent1 = Quality=0.5 QUALITY=0.9\n",
        "[agents] agent1: 'QUALITY' given twice",
    ),
    (
        "agent.json",
        '{"agents": [{"quality": 0.3, "quality": 0.9}, {"quality": 0.5}]}',
        "[agents] agent0: 'quality' given twice",
    ),
    (
        "agent_case.json",
        '{"agents": [{"quality": 0.3}, {"quality": 0.5, "Quality": 0.9}]}',
        "[agents] agent1: 'Quality' given twice",
    ),
    (
        "environment_case.json",
        '{"environment": {"system_std": 0.1, "SYSTEM_STD": 0.5}, "agents": %s}' % _TWO_AGENTS,
        "[environment]: 'SYSTEM_STD' given twice",
    ),
    (
        "overrides.json",
        '{"agents": %s, "simulation": {"strategy": "custom", '
        '"overrides": {"0": 0.4, "0": 0.6}}}' % _TWO_AGENTS,
        "[simulation] overrides: '0' given twice",
    ),
    (
        "override_alias.ini",
        "[agents]\nagent0 = quality=0.3\nagent1 = quality=0.5\n\n"
        "[simulation]\nstrategy = custom\noverride0 = 0.4\noverride00 = 0.9\n",
        "[simulation] override00: agent 0 overridden twice",
    ),
    (
        "override_alias.json",
        '{"agents": %s, "simulation": {"strategy": "custom", '
        '"overrides": {"1": 0.4, "01": 0.6}}}' % _TWO_AGENTS,
        "[simulation] override01: agent 1 overridden twice",
    ),
    (
        "section.json",
        '{"agents": %s, "mechanism": {"kind": "as"}, "mechanism": {"kind": "fr"}}'
        % _TWO_AGENTS,
        "[mechanism]: section given twice",
    ),
]


@pytest.mark.parametrize("name, text, message", _REPEATS, ids=[case[0] for case in _REPEATS])
def test_repeated_key_exits_2_naming_it(runner, tmp_path, name, text, message):
    # Read as its last value, a repeat would let one config run under the
    # digest of another.
    config = _write(tmp_path, name, text)
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "suffix, simulation, flags, where",
    [
        (".ini", "trials = 0", [], "[simulation] trials:"),
        (".ini", "seed = -1", [], "[simulation] seed:"),
        (".json", {"seed": -1}, [], "[simulation] seed:"),
        (".ini", "seed = 1", ["--seed", "-1"], "--seed:"),
    ],
    ids=["ini_trials", "ini_seed", "json_seed", "seed_flag"],
)
def test_bad_trials_or_seed_names_its_key_or_flag(runner, tmp_path, suffix, simulation, flags, where):
    if suffix == ".ini":
        text = _truth_agents(3) + f"\n[simulation]\n{simulation}\n"
    else:
        text = json.dumps(dict(THREE_TRUTH_JSON, simulation=simulation))
    config = _write(tmp_path, "bad" + suffix, text)
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o"), *flags])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {where}"), result.stderr


_FIRST_AGENT = "agent0 = quality=0.3 type=truth"
_SWEEP = ["sweep", "--parameter", "sigma", "--grid"]


@pytest.mark.parametrize(
    "text, suffix, command, fragment",
    [
        (BASIC_INI, ".ini", [*_SWEEP, "1:2"], "expected lo:hi:count"),
        (BASIC_INI, ".ini", [*_SWEEP, "0:1:0"], "count must be >= 1"),
        (BASIC_INI, ".ini", [*_SWEEP, "a,b"], "expected numbers"),
        (None, None, ["figures", "--quality", "1.5"], "--quality must lie in [0, 1]"),
        (None, None, ["figures", "--points", "1"], "--points must be >= 2"),
        (BASIC_INI.replace(_FIRST_AGENT, "agent0 = quality"), ".ini", ["run"], "malformed token"),
        (
            BASIC_INI.replace(_FIRST_AGENT, "agent0 = type=truth"),
            ".ini",
            ["run"],
            "missing required field 'quality'",
        ),
        (
            BASIC_INI.replace("kind = as", "kind = pr\nring = 0 1"),
            ".ini",
            ["run"],
            "keys ['ring'] not valid for kind 'pr'",
        ),
        (BASIC_INI + "strategy = best\n", ".ini", ["run"], "[simulation] strategy"),
        (
            BASIC_INI + "strategy = custom\noverridex = 0.5\n",
            ".ini",
            ["run"],
            "overrides must be named override<agent-id>",
        ),
        (BASIC_INI.replace("cross_std = 0.1", "cross_std 0.1"), ".ini", ["run"], "parsing errors"),
        ("[]", ".json", ["run"], "top level must be an object of sections"),
        ('{"agents": {}}', ".json", ["run"], "must be a list of agent objects"),
    ],
    ids=[
        "grid-two-fields",
        "grid-count-0",
        "grid-not-numbers",
        "figures-quality",
        "figures-points",
        "ini-malformed-token",
        "ini-missing-quality",
        "ini-key-of-another-kind",
        "ini-strategy",
        "ini-override-name",
        "ini-line-without-equals",
        "json-top-level-list",
        "json-agents-object",
    ],
)
def test_usage_errors_exit_2_naming_their_flag_or_key(
    runner, tmp_path, text, suffix, command, fragment
):
    args = [command[0]]
    if text is not None:
        args.append(str(_write(tmp_path, "bad" + suffix, text)))
    result = runner.invoke(main, [*args, *command[1:], "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert fragment in result.stderr, result.stderr
    assert not (tmp_path / "o").exists()


def test_unsupported_strategy_combination_exits_3(runner, tmp_path):
    config = _write(
        tmp_path,
        "fr_image.ini",
        "[agents]\nagent0 = quality=0.5 type=image\n"
        "agent1 = quality=0.4 type=truth\nagent2 = quality=0.6 type=truth\n\n"
        "[mechanism]\nkind = fr\n",
    )
    result = runner.invoke(main, ["run", str(config), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "Image" in result.stderr and "FR" in result.stderr


def _single_error_line(result, code):
    """The command exited ``code`` itself, printing one ``error:`` line."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("std", ["1e200", "1e154"])
def test_a_noise_scale_that_overflows_exits_3(runner, tmp_path, std):
    # At 1e200 a variance overflows; at 1e154 the three variances' sum does.
    config = _write(
        tmp_path,
        "huge.ini",
        f"[environment]\nsystem_std = {std}\ncross_std = {std}\n\n"
        "[agents]\nagent0 = quality=0.5 type=truth\n"
        "agent1 = quality=0.4 type=truth\nagent2 = quality=0.6 type=image\n\n"
        "[mechanism]\nkind = pr\n",
    )
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", str(config), "--out", str(out)])
    _single_error_line(result, 3)
    assert "OverflowError" in result.stderr
    assert not out.exists()


def _spread_truth_config(tmp_path, kind, k, extra=""):
    agents = "\n".join(
        f"agent{i} = quality={0.2 + 0.6 * i / (k - 1):.6f} type=truth" for i in range(k)
    )
    body = f"[agents]\n{agents}\n\n[mechanism]\nkind = {kind}\n{extra}"
    return _write(tmp_path, f"{kind}_{k}.ini", body)


def _run_peak(runner, tmp_path, config, trials):
    """Exit code and tracemalloc peak of one ``run``."""
    tracemalloc.start()
    try:
        result = runner.invoke(
            main, ["run", str(config), "--trials", str(trials), "--out", str(tmp_path / "o")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_clamped_peer_sum_run_draws_no_cross_matrix(runner, tmp_path):
    # Clamped observations are drawn as one (trials, K) block per relaying
    # reporter; the (1024, 200, 200) cross matrix alone would take 328 MB.
    k, trials = 200, 1024
    config = _spread_truth_config(tmp_path, "simple_averaging", k, "\n[environment]\nclamp = true\n")
    result, peak = _run_peak(runner, tmp_path, config, trials)
    assert result.exit_code == 0, result.output
    assert peak < 32 * 2**20, peak


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("simple_averaging", ""),
        ("pr", ""),
        ("weighted_pr", "weights = " + " ".join(["1.0", "2.0"] * 1000) + "\n"),
    ],
    ids=["simple_averaging", "pr", "weighted_pr"],
)
def test_adversarial_peer_sum_run_at_k_2000_stays_in_bounded_memory(runner, tmp_path, kind, extra):
    # Two colluders and two uniform-random senders among 2000 agents: their
    # constants and uniforms enter the peer sums directly, so no batch
    # holds the (1024, 2000, 2000) cross matrix (32 GB).
    k, trials = 2000, 2048
    types = {
        3: "type=colluder inflate=0.9",
        500: "type=colluder inflate=0.9 bash=0.1",
        7: "type=malicious",
        1500: "type=malicious low=0.2 high=0.8",
    }
    agents = "\n".join(
        f"agent{i} = quality={0.2 + 0.6 * i / (k - 1):.6f} {types.get(i, 'type=truth')}"
        for i in range(k)
    )
    config = _write(tmp_path, f"{kind}.ini", f"[agents]\n{agents}\n\n[mechanism]\nkind = {kind}\n{extra}")
    result, peak = _run_peak(runner, tmp_path, config, trials)
    assert result.exit_code == 0, result.output
    stats = json.loads((tmp_path / "o" / "stats.json").read_text())
    assert stats["trials"] == trials and stats["budget_max_abs"] == 0.0
    assert peak < 256 * 2**20, peak


@pytest.mark.parametrize("layers", [1, 2])
def test_ring_validation_run_at_k_2000_stays_in_bounded_memory(runner, tmp_path, layers):
    # Ring validation draws only its ring reads, so no batch holds the
    # (1024, 2000, 2000) cross matrix (32 GB).
    k, trials = 2000, 2048
    config = _spread_truth_config(tmp_path, "extended_as", k, f"layers = {layers}\n")
    result, peak = _run_peak(runner, tmp_path, config, trials)
    assert result.exit_code == 0, result.output
    stats = json.loads((tmp_path / "o" / "stats.json").read_text())
    assert stats["trials"] == trials and stats["budget_max_abs"] <= 1e-9
    assert peak < 256 * 2**20, peak


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_pr_a_emits_closed_form_columns(runner, tmp_path):
    config = _write(tmp_path, "pr.ini", PR_INI)
    out = tmp_path / "sw"
    result = runner.invoke(
        main,
        [
            "sweep",
            str(config),
            "--parameter",
            "pr_a",
            "--grid",
            "1.0,1.7,2.25",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == [
        "value",
        "mae_mean",
        "mae_stderr",
        "budget_mean",
        "budget_max_abs",
        "trials",
        "averaging_mae",
        "y",
        "e_m",
        "expected_reputation",
    ]
    assert len(lines) == 4
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for row in rows:
        float(row["e_m"])  # every cell parses as a plain decimal
        assert 0.0 < float(row["y"]) < 1.0
    assert (out / "sweep.schema.json").exists()
    # The a = 1.7 row has the smallest closed-form mechanism error.
    ems = [float(r["e_m"]) for r in rows]
    assert ems.index(min(ems)) == 1


def test_sweep_grid_colon_syntax(runner, tmp_path):
    config = _write(tmp_path, "pr.ini", PR_INI)
    out = tmp_path / "sw"
    result = runner.invoke(
        main,
        ["sweep", str(config), "--parameter", "pr_a", "--grid", "1:3:5", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = (out / "sweep.csv").read_text().splitlines()
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])


def test_sweep_unknown_parameter_is_rejected(runner, tmp_path):
    config = _write(tmp_path, "pr.ini", PR_INI)
    result = runner.invoke(
        main,
        ["sweep", str(config), "--parameter", "nope", "--grid", "1:3:3", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "config, parameter, grid, message",
    [
        ("pr", "pr_a", "nan", "--grid: grid value nan: band multiplier a must be positive, got nan"),
        ("pr", "pr_a", "0.5,0.5", "--grid: grid must be strictly increasing"),
        ("basic", "pr_a", "1,2", "--parameter: parameter pr_a sweeps require a punish-reward mechanism"),
        ("pr", "sigma", "nan", "--grid: grid value nan: std must be finite and >= 0, got nan"),
        ("pr", "rho", "0,1.5", "--grid: grid value 1.5: rho must lie in [0, 1], got 1.5"),
        # Image-driven senders have no band offset without noise.
        ("pr", "sigma", "0,0.1", "--grid: grid value 0.0: sigma_prime must be positive, got 0.0"),
    ],
    ids=["pr_a-nan", "not-increasing", "pr_a-without-pr", "sigma-nan", "rho-above-1", "sigma-0"],
)
def test_sweep_errors_name_their_flag(runner, tmp_path, config, parameter, grid, message):
    path = _write(tmp_path, f"{config}.ini", {"pr": PR_INI, "basic": BASIC_INI}[config])
    result = runner.invoke(
        main,
        ["sweep", str(path), "--parameter", parameter, "--grid", grid, "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_sweep_point_without_an_equilibrium_names_its_grid_value(runner, tmp_path):
    # At rho = 1 every agent but one is image-driven, and ring validation
    # has no equilibrium report for them: a runtime failure, exit 3.
    path = _write(tmp_path, "eas.ini", BASIC_INI.replace("kind = as", "kind = extended_as"))
    result = runner.invoke(
        main,
        ["sweep", str(path), "--parameter", "rho", "--grid", "0,1", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3, result.output
    assert result.stderr == (
        "error: grid value 1.0: no equilibrium self-report for Image under ExtendedAS\n"
    )
    assert not (tmp_path / "o").exists()


def test_sweep_bad_grid_exits_2(runner, tmp_path):
    config = _write(tmp_path, "pr.ini", PR_INI)
    result = runner.invoke(
        main,
        ["sweep", str(config), "--parameter", "pr_a", "--grid", "3:1:abc", "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 2
    assert "lo:hi:count" in result.stderr


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def test_figures_emits_three_tables_with_schemas(runner, tmp_path):
    out = tmp_path / "figs"
    result = runner.invoke(main, ["figures", "--out", str(out), "--points", "24"])
    assert result.exit_code == 0, result.output
    for name in ("fig1", "fig2", "fig3"):
        assert (out / f"{name}.csv").exists()
        assert (out / f"{name}.schema.json").exists()

    fig1 = np.loadtxt(out / "fig1.csv", delimiter=",", skiprows=1)
    assert np.all((fig1[:, 1] > 0.0) & (fig1[:, 1] < 1.0))
    assert np.all(np.diff(fig1[:, 1]) > 0.0)  # offset grows with the band width

    fig2 = np.loadtxt(out / "fig2.csv", delimiter=",", skiprows=1)
    best = int(np.argmin(fig2[:, 1]))
    assert 0 < best < fig2.shape[0] - 1  # interior optimum
    assert abs(fig2[best, 0] - 1.7) < 0.3
    averaging = math.sqrt(2.0 / math.pi) * 0.1
    assert fig2[best, 1] < averaging
    assert fig2[0, 2] == pytest.approx(averaging, rel=1e-9)

    fig3 = np.loadtxt(out / "fig3.csv", delimiter=",", skiprows=1)
    row = fig3[np.argmin(np.abs(fig3[:, 0] - 2.25))]
    assert row[1] > 0.5  # inflation shows up above the true quality


def test_figures_rejects_bad_sigma(runner, tmp_path):
    result = runner.invoke(
        main, ["figures", "--out", str(tmp_path / "f"), "--sigma-prime", "-0.1"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_figures_rejects_nonfinite_sigma_at_the_flag(runner, tmp_path, value):
    out = tmp_path / "f"
    result = runner.invoke(main, ["figures", "--out", str(out), "--sigma-prime", value])
    assert result.exit_code == 2, result.output
    assert "--sigma-prime" in result.stderr
    assert not out.exists()


def test_figures_whose_curves_overflow_exit_3_and_leave_no_directory(runner, tmp_path):
    out = tmp_path / "f"
    result = runner.invoke(main, ["figures", "--out", str(out), "--sigma-prime", "1e155"])
    _single_error_line(result, 3)
    assert "OverflowError" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "figures"])
def test_out_naming_a_file_exits_2_before_any_work(runner, tmp_path, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("--out is checked before any work")

    for engine in ("run_trials", "run_sweep", "_band_curves"):
        monkeypatch.setattr(cli, engine, refuse)
    config = _write(tmp_path, "pr.ini", PR_INI)
    args = {
        "run": ["run", str(config)],
        "sweep": ["sweep", str(config), "--parameter", "pr_a", "--grid", "1,2"],
        "figures": ["figures"],
    }[command]
    taken = _write(tmp_path, "taken", "")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    for out, culprit in ((taken, taken), (taken / "below", taken), (dangling, dangling)):
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: --out {out}: {culprit} is not a directory\n"


# ---------------------------------------------------------------------------
# check-equilibrium
# ---------------------------------------------------------------------------


def test_check_equilibrium_accepts_equilibrium_profile(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    result = runner.invoke(
        main,
        ["check-equilibrium", str(config), "--trials", "2000", "--grid", "41"],
    )
    assert result.exit_code == 0, result.output
    assert "no profitable deviation" in result.output


def test_check_equilibrium_flags_misreported_image_agent(runner, tmp_path):
    config = _write(
        tmp_path,
        "dev.ini",
        BASIC_INI.replace(
            "[simulation]\ntrials = 1000\nseed = 7\n",
            "[simulation]\nstrategy = custom\noverride3 = 0.4\n",
        ),
    )
    result = runner.invoke(
        main,
        ["check-equilibrium", str(config), "--trials", "2000", "--grid", "41"],
    )
    assert result.exit_code == 4
    assert "DEVIATES" in result.output


def test_check_equilibrium_skips_randomized_reporters(runner, tmp_path):
    config = _write(
        tmp_path,
        "mal.ini",
        "[agents]\nagent0 = quality=0.5 type=truth\n"
        "agent1 = quality=0.4 type=malicious\nagent2 = quality=0.6 type=truth\n\n"
        "[mechanism]\nkind = as\n",
    )
    result = runner.invoke(
        main,
        ["check-equilibrium", str(config), "--trials", "2000", "--grid", "41"],
    )
    assert result.exit_code == 0, result.output
    assert "skipped" in result.output


def test_check_equilibrium_of_only_skipped_agents_simulates_nothing(runner, tmp_path, monkeypatch):
    # The audit calls the engine through the name analysis bound at import.
    def refuse(*args, **kwargs):
        raise AssertionError("no agent is audited, so nothing is simulated")

    monkeypatch.setattr(analysis, "simulate", refuse)
    config = _write(
        tmp_path,
        "skipped.ini",
        "[agents]\nagent0 = quality=0.5 type=malicious\n"
        "agent1 = quality=0.4 type=colluder\nagent2 = quality=0.6 type=malicious\n\n"
        "[mechanism]\nkind = as\n",
    )
    result = runner.invoke(main, ["check-equilibrium", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("skipped") == 3
    assert "no profitable deviation" in result.output


def test_check_equilibrium_samples_once_for_all_agents(runner, tmp_path, monkeypatch):
    from replab import mechanisms, simulator, strategies
    from replab.cli import _fmt, parse_config

    config = _write(
        tmp_path,
        "shared.ini",
        "[agents]\nagent0 = quality=0.5 type=truth\nagent1 = quality=0.3 type=image\n"
        "agent2 = quality=0.4 type=malicious\nagent3 = quality=0.6 type=truth\n\n"
        "[mechanism]\nkind = as\n\n[simulation]\nseed = 11\n",
    )
    sample = simulator.sample_sparse
    draws = []

    def counting_sample(*args):
        draws.append(args)
        return sample(*args)

    monkeypatch.setattr(simulator, "sample_sparse", counting_sample)
    # The scoring kernel runs once per draw, however many agents are
    # audited: once in the grid pass and once in the paired pass.
    kernel = mechanisms._as_kernel
    kernels = []

    def counting_kernel(*args):
        kernels.append(args)
        return kernel(*args)

    monkeypatch.setattr(mechanisms, "_as_kernel", counting_kernel)
    result = runner.invoke(
        main, ["check-equilibrium", str(config), "--trials", "2000", "--grid", "41"]
    )
    assert result.exit_code == 0, result.output
    assert (len(draws), len(kernels)) == (2, 2)
    # Every row equals an audit of that agent alone on its own fresh draw.
    parsed = parse_config(str(config))
    env, mechanism = parsed.env, parsed.mechanism
    profile = strategies.resolve_self_reports(env, mechanism, parsed.strategy_mode)
    rows = result.output.splitlines()
    passes = 0
    for i in (0, 1, 3):
        rep = analysis.deviation_report(
            i, mechanism, env, profile, trials=2000, grid=41, seed=parsed.seed, claimed=profile[i]
        )
        assert rows[1 + i] == (
            f"{i:<6d} {_fmt(rep.claimed):<10s} {_fmt(rep.best):<10s} "
            f"{_fmt(rep.gain):<12s} {_fmt(rep.gain_stderr):<12s} ok"
        )
        # The paired pass runs only when the best is not the claimed report.
        passes += 1 + (rep.best != rep.claimed)
    assert 4 < 2 + passes == len(draws) == len(kernels)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_prints_participation_and_system_gain(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    result = runner.invoke(main, ["report", str(config), "--trials", "5000"])
    assert result.exit_code == 0, result.output
    assert "system gain" in result.output
    # Image agent at quality 0.4 always joins (r <= 1/2).
    lines = [l for l in result.output.splitlines() if l.startswith("3 ")]
    assert len(lines) == 1 and "yes" in lines[0]
    # Closed-form columns match the worked comparison for this population.
    assert "0.65" in lines[0]


def test_report_closed_and_mc_columns_agree(runner, tmp_path):
    config = _write(tmp_path, "basic.ini", BASIC_INI)
    result = runner.invoke(main, ["report", str(config), "--trials", "20000"])
    assert result.exit_code == 0
    row = next(l for l in result.output.splitlines() if l.startswith("0 "))
    cells = row.split()
    u_in_closed, u_out_closed = float(cells[3]), float(cells[4])
    u_in_mc, u_out_mc = float(cells[6]), float(cells[7])
    assert u_in_mc == pytest.approx(u_in_closed, abs=0.02)
    assert u_out_mc == pytest.approx(u_out_closed, abs=0.02)


def test_report_threshold_decides_like_the_closed_verdict(runner, tmp_path):
    # Agent 0 (r = 0.8) sees one image-driven peer among five: gamma = 0.8
    # equals 4(1 - r) exactly, while 4 * (1 - 0.8) rounds to 0.7999999999999998.
    config = _write(
        tmp_path,
        "boundary.ini",
        "[agents]\nagent0 = quality=0.8 type=image\nagent1 = quality=0.3 type=truth\n"
        "agent2 = quality=0.5 type=truth\nagent3 = quality=0.7 type=truth\n"
        "agent4 = quality=0.6 type=truth\nagent5 = quality=0.4 type=image\n\n"
        "[mechanism]\nkind = as\n",
    )
    result = runner.invoke(main, ["report", str(config), "--trials", "2000"])
    assert result.exit_code == 0, result.output
    row = next(l for l in result.output.splitlines() if l.startswith("0 "))
    assert row.split()[5] == "yes"
    assert row.endswith("gamma 0.8 <= 4(1-r) 0.8: yes")


MIXED_INI = """\
[environment]
system_std = 0.2
cross_std = 0.2

[agents]
agent0 = quality=0.3 type=truth
agent1 = quality=0.8 type=image
agent2 = quality=0.6 type=mixed weight=0.5
agent3 = quality=0.5 type=malicious
agent4 = quality=0.45 type=truth p=1

[mechanism]
kind = as
"""


@pytest.mark.parametrize("text", [BASIC_INI, MIXED_INI], ids=["basic", "mixed"])
def test_report_makes_one_engine_call(runner, tmp_path, monkeypatch, text):
    calls = []
    engine = analysis.simulate

    def counting(*args, **kwargs):
        calls.append(args[0])
        return engine(*args, **kwargs)

    monkeypatch.setattr(analysis, "simulate", counting)
    config = _write(tmp_path, "report.ini", text)
    result = runner.invoke(main, ["report", str(config), "--trials", "3000"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    # A truth agent's stay-out utility reads no report, so it is exact.
    for row in result.output.splitlines()[1:]:
        cells = row.split()
        if cells[1] == "Truth":
            assert cells[7] == cells[4]
