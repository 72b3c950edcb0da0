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


def test_every_call_site_runs(monkeypatch):
    """Each site is called where the benchmark expects it: every cli and
    decoder site on a decode-demo run (``concentration_experiment`` on a
    concentration run instead), and every ``ssesim.stats`` site once per
    trial.  A stage inlined into its caller would leave its per-layer
    metric at 0; here it leaves a count at 0."""
    from ssesim import cli

    calls = {}
    for module, attr, _ in _call_sites():
        owner = importlib.import_module(module)
        fn = owner.__dict__[attr]

        def counted(*args, _key=(module, attr), _fn=fn, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    demo = ["--n", "24", "--length", "8", "--reads", "4", "--delta", "0.1"]
    assert cli.main(["decode-demo", *demo, "--codebook-size", "4", "--seed", "5"]) == 0
    for module, attr, span in _call_sites():
        if module != "ssesim.stats" and attr != "concentration_experiment":
            assert calls.get((module, attr), 0) >= 1, f"{span} not run on decode-demo"

    calls.clear()
    geometry = ["--n", "256", "--lbar", "2", "--coverage", "2", "--delta", "0.2"]
    assert cli.main(["concentration", *geometry, "--trials", "2", "--seed", "1"]) == 0
    assert calls.pop(("ssesim.cli", "concentration_experiment")) == 1
    for module, attr, span in _call_sites():
        if module == "ssesim.stats":
            assert calls.get((module, attr), 0) == 2, f"{span} not once per trial"
