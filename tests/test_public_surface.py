"""The package's public names: every ``__all__`` entry resolves, star
imports work, and ``ssesim`` re-exports only names its modules export.

A name removed from a module but left in its ``__all__`` or in the package
re-exports fails here, not at a caller's import.  The package's public
names are also listed literally, so adding or removing one edits this file.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import ssesim

PUBLIC_NAMES = [
    "ChannelOutput",
    "ChannelParams",
    "Codebook",
    "ConcentrationSummary",
    "CoverageReport",
    "CurveRow",
    "DecodeResult",
    "DecoderConfig",
    "DomainError",
    "ERASED",
    "MergeError",
    "SearchSpaceError",
    "TritString",
    "Truth",
    "TypicalityThresholds",
    "chain_island_count",
    "child_seed",
    "compatible",
    "compatible_substring_positions",
    "concentration_experiment",
    "coverage",
    "cyclic_gaps",
    "expected_suffix_size_counts",
    "forward_successor_distances",
    "is_l_compatible",
    "merge",
    "oracle_decode",
    "random_codebook",
    "random_codeword",
    "rate_curve",
    "rate_gap",
    "rate_gap_limit",
    "rates_csv",
    "ssc_capacity",
    "ssc_short_rate",
    "sse_rate_bound",
    "stage_rng",
    "suffix_size_histogram",
    "transmit",
    "transmit_codeword",
    "typicality_decode",
]

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


def test_package_reexports_are_exported():
    tree = ast.parse(Path(ssesim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, "the package re-exports only its own modules"
        exported = star_names(node.module)
        for alias in node.names:
            assert alias.name in exported, f"ssesim.{node.module}.{alias.name}"
            assert hasattr(ssesim, alias.asname or alias.name)


def test_package_public_names():
    names = sorted(
        name
        for name, value in vars(ssesim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
