"""The package's public names: every ``__all__`` entry resolves, star
imports work, and ``ssesim`` itself exports nothing but ``__version__``.

Each public name lives in its module and is imported from there, e.g.
``from ssesim.channel import transmit``.  A name removed from a module but
left in its ``__all__`` fails here, not at a caller's import.
"""

import importlib
import pkgutil
import types

import pytest

import ssesim

# ``__main__`` runs the command line when imported.
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ssesim.__path__) if m.name != "__main__"
)


def star_names(module: str) -> set[str]:
    namespace: dict = {}
    exec(f"from ssesim.{module} import *", namespace)
    return set(namespace) - {"__builtins__"}


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"ssesim.{module}")
    names = getattr(mod, "__all__", ())
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, missing


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    names = star_names(module)
    mod = importlib.import_module(f"ssesim.{module}")
    if hasattr(mod, "__all__"):
        assert names == set(mod.__all__)


def test_package_public_names():
    names = sorted(
        name
        for name, value in vars(ssesim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == []
