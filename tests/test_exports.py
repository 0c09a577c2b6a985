"""Each module's ``__all__`` matches the public names it defines."""

import importlib
import inspect
import pkgutil

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
