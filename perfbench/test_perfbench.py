"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import tail_latency  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import matching_sets  # noqa: E402
from workloads import (  # noqa: E402
    PHI_TOLERANCE_SE,
    WORKLOADS,
    check_concentration,
    check_decode,
    phi_exact,
)


def _cli_output(tmp_path, argv):
    from ssesim import cli

    out = tmp_path / "out.json"
    assert cli.main([*argv, "-o", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def decode_text(tmp_path_factory):
    argv = WORKLOADS["decode-c8"].make_argv(1, 2, "x")[:-2]
    return _cli_output(tmp_path_factory.mktemp("decode"), argv)


def test_decode_check_accepts_real_output(decode_text):
    assert check_decode(decode_text) == []


def test_decode_check_rejects_dropped_oracle_codeword(decode_text):
    doc = json.loads(decode_text)
    assert doc["oracle_codewords"]
    doc["oracle_codewords"] = doc["oracle_codewords"][:-1]
    assert check_decode(json.dumps(doc))


def test_decode_check_rejects_missing_truth(decode_text):
    doc = json.loads(decode_text)
    others = [w for w in range(16) if w != doc["true_message"]][:1]
    doc["oracle_codewords"] = doc["candidate_codewords"] = others
    assert check_decode(json.dumps(doc))


@pytest.mark.parametrize("text", ["", "{", "[]", '{"candidate_codewords": [0]}'])
def test_checks_reject_unreadable_output(text):
    assert check_decode(text)
    assert check_concentration(text)


@pytest.fixture(scope="module")
def conc_text(tmp_path_factory):
    argv = ["concentration", "--n", "4096", "--lbar", "2", "--coverage", "2",
            "--delta", "0.2", "--trials", "4", "--seed", "3"]  # fmt: skip
    return _cli_output(tmp_path_factory.mktemp("conc"), argv)


def test_concentration_check_accepts_real_output(conc_text):
    assert check_concentration(conc_text) == []


@pytest.mark.parametrize("field, value", [("phi", 1.5), ("phi", -0.1), ("phi_v", 0.999)])
def test_concentration_check_rejects_out_of_range_phi(conc_text, field, value):
    doc = json.loads(conc_text)
    doc[field]["mean"] = value
    assert check_concentration(json.dumps(doc))


def test_concentration_check_rejects_phi_off_its_mean(conc_text):
    doc = json.loads(conc_text)
    p = doc["params"]
    mean, sd = phi_exact(p["n"], p["L"], p["K"])
    se = sd / math.sqrt(doc["trials"])
    doc["phi_v"]["mean"] = 0.0
    doc["phi"]["mean"] = mean - 0.9 * PHI_TOLERANCE_SE * se
    assert check_concentration(json.dumps(doc)) == []
    doc["phi"]["mean"] = mean - 1.1 * PHI_TOLERANCE_SE * se
    assert check_concentration(json.dumps(doc))


@pytest.mark.parametrize("n, L, K", [(8, 2, 3), (10, 3, 4), (9, 4, 3), (12, 1, 5)])
def test_phi_exact_matches_enumeration(n, L, K):
    """Mean and sd of phi over every tuple of K starts."""
    values = []
    for starts in itertools.product(range(n), repeat=K):
        covered = {(s + j) % n for s in starts for j in range(L)}
        values.append(len(covered) / n)
    mean = sum(values) / len(values)
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    got_mean, got_sd = phi_exact(n, L, K)
    assert got_mean == pytest.approx(mean, rel=1e-12)
    assert got_sd == pytest.approx(sd, rel=1e-9)


def test_phi_exact_rejects_wrapping_windows():
    with pytest.raises(ValueError):
        phi_exact(5, 3, 2)


def _run_argv(w, seed, seconds):
    return [w.make_argv(seed, j, "out") for j in w.plan(seed, w.size(seconds))]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_argv_generation_is_deterministic(name):
    w = WORKLOADS[name]
    first = _run_argv(w, 7, 30)
    assert first == _run_argv(w, 7, 30)
    assert first != _run_argv(w, 8, 30)
    # A fresh interpreter with another hash seed builds the same argv.
    code = (
        "import json; from workloads import WORKLOADS; from test_perfbench import _run_argv; "
        f"print(json.dumps(_run_argv(WORKLOADS[{name!r}], 7, 30)))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_are_whole_rounds_of_cells(name):
    w = WORKLOADS[name]
    for seconds in (1, 10, 30, 60):
        count = w.size(seconds)
        assert count >= w.cells and count % w.cells == 0
        assert sorted(w.plan(3, count)) == list(range(count))


def test_decode_runs_share_one_balanced_pool():
    """Every seed runs the same instances, only in another order, with as
    many of each (delta, codebook size) cell."""
    w = WORKLOADS["decode-c8"]
    first, other = _run_argv(w, 1, 30), _run_argv(w, 2, 30)
    assert first != other and sorted(first) == sorted(other)
    cells = collections.Counter(
        (a[a.index("--delta") + 1], a[a.index("--codebook-size") + 1]) for a in first
    )
    assert len(cells) == 10 and len(set(cells.values())) == 1


def test_concentration_draws_instances_per_seed():
    w = WORKLOADS["conc-1e7"]
    assert not set(map(tuple, _run_argv(w, 1, 30))) & set(map(tuple, _run_argv(w, 2, 30)))


def test_argv_is_valid_for_the_cli(tmp_path):
    from ssesim.cli import _build_parser

    for w in WORKLOADS.values():
        for i in range(3):
            _build_parser().parse_args(w.make_argv(1, i, str(tmp_path / "o")))


def test_tail_latency():
    assert tail_latency([1.0] * 39) is None
    lat = [float(i) for i in range(40)]
    pct, value = tail_latency(lat)
    assert value == 29.0
    assert sum(x > value for x in lat) == 10
    assert pct == pytest.approx(75.0)


def test_tracer_spans_self_time_and_restore():
    tracer = Tracer()
    mod = types.SimpleNamespace()
    calls = []

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * mod.leaf(x)

    mod.leaf, mod.outer = leaf, outer
    tracer.patch(mod, "leaf", "t.leaf", observe=calls.append)
    tracer.patch(mod, "outer", "t.outer")
    tracer.op = 3
    assert mod.outer(1) == 4
    tracer.restore()
    assert mod.leaf is leaf and mod.outer is outer
    assert calls == [2, 2]
    names = [s[0] for s in tracer.spans]
    assert names == ["t.outer", "t.leaf", "t.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {3}
    total, count, own = tracer.totals()
    assert count == {"t.outer": 1, "t.leaf": 2}
    assert own["t.outer"] == total["t.outer"] - total["t.leaf"]


def test_tracer_wraps_properties():
    class Box:
        @property
        def text(self):
            return "x"

    tracer = Tracer()
    tracer.patch(Box, "text", "box.text")
    assert Box().text == "x"
    tracer.restore()
    assert isinstance(Box.__dict__["text"], property)
    assert [s[0] for s in tracer.spans] == ["box.text"]


def test_matching_sets():
    from ssesim.tritstring import TritString

    book = [TritString.from_text("0011"), TritString.from_text("0101")]
    sets = [("01",), ("11", "10"), ("011", "101"), ("00011",)]
    got = matching_sets(sets, book)
    # "01" fits both; "11"+"10" fit 0011 cyclically; "011"+"101" fit neither
    # word together; an island longer than n fits nothing.
    assert got == 2


def test_run_fails_without_the_sources(tmp_path):
    """With only BENCHMARK.json and this directory, there is nothing to
    measure: exit non-zero and print no result."""
    bench = tmp_path / HERE.name
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decode-c8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
