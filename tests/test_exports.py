"""Each module's ``__all__`` matches the public names it defines, only the
engine seeds random streams, only the one batch source runs
the mechanism kernels, only the kernels redistribute charges, only the
engine builds per-thread workspaces, each command's simulated work is
one engine call, one helper builds the simulator's populations and one
writer writes the command-line tables."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import replab

MODULES = [
    module
    for module in (
        importlib.import_module(f"replab.{info.name}")
        for info in pkgutil.iter_modules(replab.__path__)
    )
    if hasattr(module, "__all__")
]


def test_modules_with_all_are_found():
    assert {m.__name__ for m in MODULES} >= {
        "replab.core",
        "replab.mechanisms",
        "replab.strategies",
        "replab.analysis",
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    unlisted = sorted(defined - set(module.__all__))
    assert not unlisted, f"{module.__name__} defines public names missing from __all__: {unlisted}"


# NumPy names that build a random generator, a bit generator or a seed.
RNG_CONSTRUCTORS = {
    "Generator",
    "default_rng",
    "RandomState",
    "SeedSequence",
    "Philox",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "SFC64",
}


def _calls(node: ast.AST, names: set[str]) -> list[ast.Call]:
    """The calls of one of ``names`` inside ``node``."""
    found = []
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(call)
    return found


def _callers(path: Path, names: set[str]) -> set[tuple[str, str]]:
    """(module, top-level definition) pairs whose code calls one of ``names``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        (path.stem, getattr(top, "name", "<module>")) for top in tree.body if _calls(top, names)
    }


def _callers_in_src(names: set[str]) -> set[tuple[str, str]]:
    return set().union(*(_callers(path, names) for path in Path(replab.__file__).parent.glob("*.py")))


def test_only_the_engine_and_the_audit_construct_random_streams():
    # The determinism contract: simulated numbers, the audits' included,
    # come from the engine's per-batch substreams (seed, b), built by
    # _batch_rng; no other code seeds a stream.
    found = _callers_in_src(RNG_CONSTRUCTORS)
    assert found == {("strategies", "_batch_rng")}, found


def test_only_the_batch_source_runs_the_kernels():
    # One batch source: the engine takes each batch's draw and the
    # mechanism's outcome from strategies._batch_source, and a deviation
    # audit's reducers scan what the deviation moves, never running the
    # kernel again.
    # run_batch dispatches ring validation to _ring_outcome itself.
    assert _callers_in_src({"run_batch"}) == {("strategies", "_batch_source")}
    found = _callers_in_src({"_ring_outcome"})
    assert found == {("strategies", "_batch_source"), ("mechanisms", "run_batch")}, found


def test_the_kernels_alone_hold_the_redistribution_rules():
    # Ring validation's redistribution lives in _validation_layer, run by
    # _ring_outcome alone, and its rings, fixed or secret, are set up by
    # _ring_setup alone, only where a batch's kernel runs.  A deviation
    # audit reads the draw's taxes instead.
    assert _callers_in_src({"_validation_layer"}) == {("mechanisms", "_ring_outcome")}
    assert _callers_in_src({"_ring_maps"}) == {("mechanisms", "_ring_setup")}
    found = _callers_in_src({"_ring_setup"})
    assert found == {("mechanisms", "run_batch"), ("strategies", "_batch_source")}, found


def test_only_the_engine_and_the_audit_draw_batches():
    # The audit draws its batches through the engine.
    assert _callers_in_src({"_batch_rng"}) == {("simulator", "simulate")}


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _definition(module: str, function: str) -> ast.AST:
    path = Path(replab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (top,) = [node for node in tree.body if getattr(node, "name", None) == function]
    return top


def _looped(top: ast.AST) -> list[ast.AST]:
    """The loops inside ``top`` that call ``simulate``."""
    return [node for node in ast.walk(top) if isinstance(node, LOOPS) and _calls(node, {"simulate"})]


def test_an_audit_makes_two_engine_calls():
    # The grid pass and the paired pass, each one engine call for every
    # audited agent.
    top = _definition("strategies", "deviation_reports")
    assert len(_calls(top, {"simulate"})) == 2
    assert not _looped(top), "deviation_reports calls simulate in a loop"


def test_only_simulate_maps_batches():
    assert _callers_in_src({"_map_batches"}) == {("simulator", "simulate")}


def test_only_the_engine_builds_per_thread_workspaces():
    # The engine alone holds buffers per worker thread; every other call
    # that needs buffers makes one Workspace of its own.
    assert _callers_in_src({"per_thread"}) == {("simulator", "simulate")}


@pytest.mark.parametrize(
    "module, function",
    [
        ("simulator", "run_trials"),
        ("simulator", "sweep"),
        ("simulator", "run_collusion_scenario"),
        ("simulator", "run_malicious_scenario"),
        ("analysis", "participation_utilities"),
    ],
)
def test_each_command_makes_one_engine_call(module, function):
    # simulate groups the arms by their draw itself, so a command hands it
    # every arm at once instead of calling it per point or per group.
    top = _definition(module, function)
    assert len(_calls(top, {"simulate"})) == 1
    assert not _looped(top), f"{module}.{function} calls simulate in a loop"


def _passing(module: str, keyword: str) -> set[str]:
    """The top-level definitions of ``module`` that pass ``keyword=`` to a call."""
    path = Path(replab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        if any(isinstance(node, ast.keyword) and node.arg == keyword for node in ast.walk(top))
    }


def test_one_helper_builds_populations_and_one_writer_writes_tables():
    # Every sweep point and scenario arm retypes or re-channels agents
    # through _with_agents, so no per-parameter or per-scenario builder
    # makes an agent tuple of its own.
    assert _passing("simulator", "agents") == {"_with_agents"}
    # A table's CSV and its schema are written together, by _write_table;
    # every other file the commands write is JSON.
    cli = Path(replab.__file__).parent / "cli.py"
    found = _callers(cli, {"write_text", "write_bytes", "open"})
    assert found == {("cli", "_write_json"), ("cli", "_write_table")}, found
