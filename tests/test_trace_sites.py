"""The benchmark's tracer wraps functions where their callers look them up.

``perfbench/tracer.py`` patches ``owner.__dict__[attr]`` for each entry of
``CALL_SITES`` and the ``TritString.text`` property.  A refactor that drops
one of those imports would break ``perfbench/run.py --trace 1`` with a
``KeyError``; this test notices it first.  The tracer module is loaded by
path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ssesim.tritstring import TritString

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _call_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CALL_SITES


@pytest.mark.parametrize("module,attr,span", _call_sites())
def test_call_site_is_looked_up_in_its_module(module, attr, span):
    owner = importlib.import_module(module)
    assert attr in owner.__dict__, f"{span}: {module} no longer imports {attr}"
    assert callable(owner.__dict__[attr])


def test_tritstring_text_is_a_property():
    assert isinstance(TritString.__dict__["text"], property)
