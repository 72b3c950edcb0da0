import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssesim.cli import main, parse_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_grid():
    assert parse_grid("1:2:0.4") == [1.0, 1.4, 1.8]
    assert parse_grid("2.5") == [2.5]
    grid = parse_grid("0.05:5:0.05")
    assert len(grid) == 100
    assert grid[-1] == 5.0  # no accumulated-step drift
    assert parse_grid("1:1:0.5") == [1.0]


@pytest.mark.parametrize(
    "bad",
    ["1:2", "a:b:c", "1:2:0", "1:2:-1", "2:1:0.5", "", "0:inf:1", "nan:1:1",
     "0:1:nan", "0:1e7:1", "-1e308:1e308:1"],
)
def test_parse_grid_rejects(bad):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_grid(bad)


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 64
    assert run(capsys, "no-such-command")[0] == 64
    # seed is mandatory on every randomized subcommand
    for argv in [
        ("simulate", "--n", "64", "--delta", "0.1", "--length", "8", "--reads", "4"),
        ("concentration", "--n", "64", "--delta", "0.1", "--length", "8",
         "--reads", "4", "--trials", "2"),
        ("decode-demo", "--n", "24", "--length", "6", "--reads", "4",
         "--delta", "0.0", "--codebook-size", "4"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 64, argv
    # exclusive geometry groups: both or neither length spec
    code, _, err = run(
        capsys, "simulate", "--n", "64", "--delta", "0.1", "--length", "8",
        "--lbar", "2.0", "--reads", "4", "--seed", "1",
    )
    assert code == 64


_SIM = ("--n", "64", "--delta", "0.1", "--length", "8", "--reads", "4")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", *_SIM, "--seed", "-1"),
        ("concentration", *_SIM, "--trials", "2", "--seed", "-1"),
        ("decode-demo", "--n", "24", "--length", "6", "--reads", "4",
         "--delta", "0.0", "--codebook-size", "4", "--seed", "-1"),
        ("concentration", *_SIM, "--trials", "2", "--seed", "1", "--threads", "0"),
        ("concentration", *_SIM, "--trials", "2", "--seed", "1", "--threads", "-2"),
        ("concentration", *_SIM, "--trials", "2", "--seed", "1", "--mz-per-trial", "0"),
    ],
    ids=["simulate-seed", "concentration-seed", "decode-demo-seed", "threads-0",
         "threads-negative", "mz-per-trial-0"],
)
def test_bad_integer_inputs_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err
    assert "error: argument --" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(
        capsys, "simulate", "--n", "64", "--delta", "1.5", "--length", "8",
        "--reads", "4", "--seed", "1",
    )
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(
        capsys, "concentration", "--n", "64", "--delta", "0.1", "--length", "8",
        "--reads", "4", "--trials", "0", "--seed", "1",
    )
    assert code == 2


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "rate-curve", "--c-grid", "1:2:0.5", "--lbar", "1.75",
        "-o", str(tmp_path / "missing" / "out.csv"),
    )
    assert code == 1
    assert err.startswith("error:")


def test_rate_curve_csv(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    argv = (
        "rate-curve", "--c-grid", "0.5:2:0.5", "--lbar", "1.75",
        "--delta", "0.0", "--delta", "0.2", "-o", str(path),
    )
    assert main(list(argv)) == 0
    first = path.read_bytes()
    assert main(list(argv)) == 0
    assert path.read_bytes() == first  # byte-identical rerun

    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert len(rows) == 8  # 4 coverages x 2 deltas
    assert all(r["valid"] == "true" for r in rows)
    assert {r["delta"] for r in rows} == {"0.0", "0.2"}

    code, out, _ = run(capsys, *argv[:-2])  # same command to stdout
    assert code == 0
    assert out.encode() == first


def test_simulate_views(capsys, tmp_path):
    base = (
        "simulate", "--n", "64", "--delta", "0.2", "--length", "8",
        "--coverage", "1.5", "--seed", "9",
    )
    code, out, _ = run(capsys, *base)
    assert code == 0
    doc = json.loads(out)
    assert "truth" in doc
    assert len(doc["reads"]) == doc["params"]["K"] == 12  # 1.5 * 64 / 8
    assert all(len(r["symbols"]) == 8 for r in doc["reads"])

    code, out2, _ = run(capsys, *base, "--view", "decoder")
    assert code == 0
    doc2 = json.loads(out2)
    assert "truth" not in doc2
    assert doc2["reads"] == doc["reads"]

    path = tmp_path / "sim.json"
    assert main(list(base) + ["-o", str(path)]) == 0
    assert path.read_text() == out


def test_concentration_formats(capsys):
    base = (
        "concentration", "--n", "256", "--delta", "0.2", "--length", "16",
        "--coverage", "1.5", "--trials", "3", "--seed", "5",
    )
    code, js, _ = run(capsys, *base)
    assert code == 0
    doc = json.loads(js)
    assert doc["trials"] == 3
    assert doc["phi_v"]["reference"] == 1 - math.exp(-1.5 * 0.8)
    assert len(doc["mz"]) == 1

    code, js2, _ = run(capsys, *base, "--threads", "3")
    assert js2 == js  # thread count cannot change results

    code, cs, _ = run(capsys, *base, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(cs.splitlines()))
    assert len(rows) == 3
    assert int(rows[0]["islands"]) >= 1


def test_decode_demo(capsys):
    argv = (
        "decode-demo", "--n", "24", "--length", "6", "--reads", "5",
        "--delta", "0.1", "--codebook-size", "6", "--seed", "7",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "visited_tuples", "candidate_island_sets", "candidate_codewords",
        "oracle_codewords", "outcome", "decoded_message", "true_message",
    }
    assert doc["outcome"] in ("decoded", "wrong", "ambiguous", "empty")
    assert doc["true_message"] in doc["oracle_codewords"]
    code, out2, _ = run(capsys, *argv)
    assert out2 == out
    code, _, _ = run(capsys, *argv[:-2], "--seed", "7", "--codebook-size", "1")
    assert code == 2  # needs at least two codewords


def test_gtau_table(capsys):
    argv = (
        "gtau-table", "--n", "64", "--delta", "0.25", "--length", "6",
        "--reads", "10",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 7  # sizes 0..L
    assert math.isclose(sum(float(r["expected_count"]) for r in rows), 10.0)
    assert float(rows[3]["tau"]) == 3 / math.log2(64)
    # The table is formula-only, so K past the channel's symbol limit is fine.
    code, out, _ = run(capsys, *argv[:-2], "--coverage", "1e12")
    assert code == 0
    assert len(out.splitlines()) == 8


# A small grammar of argument vectors.  Sizes stay at desk scale (n <= 256,
# trials <= 2, reads <= 5, codebook <= 8, threads <= 4); numbers include the
# non-finite, negative and malformed values a user can type.
_SPECIAL = st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "-1", "1.5", "1e308", "x", ""]
)


def _rarely(special, usual):
    """``special`` one time in sixteen, else ``usual``."""
    return st.integers(0, 15).flatmap(lambda k: special if k == 0 else usual)


def _num(lo, hi):
    return _rarely(_SPECIAL, st.floats(lo, hi).map(repr))


def _int(lo, hi):
    return _rarely(st.sampled_from(["1.5", "x", "-1"]), st.integers(lo, hi).map(str))


def _flags(pairs):
    """Concatenate (flag, value) pairs, each drawn or left out."""
    drawn = [st.one_of(st.just(()), v.map(lambda x, f=f: (f, x))) for f, v in pairs]
    return st.tuples(*drawn)


def _geometry(n_hi, length_hi, reads_hi):
    return st.tuples(
        _int(1, n_hi).map(lambda v: ("--n", v)),
        _num(0.0, 1.0).map(lambda v: ("--delta", v)),
        st.one_of(
            _int(1, length_hi).map(lambda v: ("--length", v)),
            _num(0.0, 8.0).map(lambda v: ("--lbar", v)),
        ),
        st.one_of(
            _int(1, reads_hi).map(lambda v: ("--reads", v)),
            _num(0.0, 3.0).map(lambda v: ("--coverage", v)),
        ),
    )


_GRID = st.one_of(
    _num(-2.0, 6.0),
    st.tuples(
        _num(-2.0, 6.0),
        _num(-2.0, 6.0),
        st.sampled_from(["0.5", "1", "2.5", "1e-9", "0", "-1", "nan", "inf"]),
    ).map(":".join),
)

_ARGV = st.one_of(
    st.tuples(
        st.just(("rate-curve",)),
        _GRID.map(lambda g: ("--c-grid", g)),
        _num(0.0, 4.0).map(lambda v: ("--lbar", v)),
        st.lists(_num(0.0, 1.0).map(lambda v: ("--delta", v)), max_size=2).map(
            lambda ds: sum(ds, ())
        ),
    ),
    st.tuples(
        st.just(("simulate",)),
        _geometry(256, 64, 5),
        _int(0, 2**32).map(lambda v: ("--seed", v)),
        _flags([("--view", st.sampled_from(["full", "decoder", "x"]))]),
    ),
    st.tuples(
        st.just(("concentration",)),
        _geometry(256, 64, 5),
        _int(1, 2).map(lambda v: ("--trials", v)),
        _int(0, 2**32).map(lambda v: ("--seed", v)),
        _flags(
            [
                ("--mz-tau", _num(0.0, 1.5)),
                ("--mz-per-trial", _int(1, 3)),
                ("--threads", _int(1, 4)),
                ("--format", st.sampled_from(["json", "csv", "x"])),
            ]
        ),
    ),
    st.tuples(
        st.just(("decode-demo",)),
        _int(1, 256).map(lambda v: ("--n", v)),
        _int(1, 8).map(lambda v: ("--length", v)),
        _int(1, 5).map(lambda v: ("--reads", v)),
        _num(0.0, 1.0).map(lambda v: ("--delta", v)),
        _int(1, 8).map(lambda v: ("--codebook-size", v)),
        _int(0, 2**32).map(lambda v: ("--seed", v)),
        _flags(
            [
                ("--epsilon", _num(0.0, 4.0)),
                ("--omega-mode", st.sampled_from(["typical-only", "all-tuples", "x"])),
            ]
        ),
    ),
    st.tuples(st.just(("gtau-table",)), _geometry(256, 256, 5)),
)


def _flatten(parts):
    out = []
    for part in parts:
        if isinstance(part, tuple):
            out.extend(_flatten(part))
        else:
            out.append(part)
    return out


_C = ("--n", "64", "--delta", "0.1", "--length", "8")
_L = ("--n", "64", "--delta", "0.1", "--reads", "4")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_ARGV.map(_flatten))
@example(["simulate", *_C, "--coverage", "nan", "--seed", "1"])
@example(["simulate", *_C, "--coverage", "inf", "--seed", "1"])
@example(["simulate", *_L, "--lbar", "nan", "--seed", "1"])
@example(["concentration", *_C, "--coverage", "nan", "--trials", "1", "--seed", "1"])
@example(["concentration", *_C, "--coverage", "inf", "--trials", "1", "--seed", "1"])
@example(["concentration", *_L, "--lbar", "nan", "--trials", "1", "--seed", "1"])
@example(["concentration", *_C, "--reads", "4", "--trials", "1", "--seed", "1",
          "--mz-tau", "nan"])
@example(["gtau-table", *_C, "--coverage", "nan"])
@example(["gtau-table", *_C, "--coverage", "inf"])
@example(["gtau-table", *_L, "--lbar", "nan"])
@example(["gtau-table", "--n", "1", "--length", "1", "--reads", "1", "--delta", "0.1"])
@example(["rate-curve", "--c-grid", "0:inf:1", "--lbar", "2"])
# Sizes past the channel's symbol limit are refused before any allocation.
@example(["simulate", *_C, "--reads", "100000000000", "--seed", "1"])
@example(["simulate", "--n", "100000000000", "--length", "8", "--reads", "1",
          "--delta", "0.1", "--seed", "1"])
@example(["concentration", *_C, "--coverage", "1e12", "--trials", "1", "--seed", "1"])
@example(["decode-demo", "--n", "100000000000", "--length", "8", "--reads", "3",
          "--delta", "0.1", "--codebook-size", "2", "--seed", "1"])
# A finite epsilon at n = 1 would divide by log2(1) = 0.
@example(["decode-demo", "--n", "1", "--length", "1", "--reads", "2", "--delta", "0",
          "--codebook-size", "2", "--seed", "0", "--epsilon", "5"])
def test_no_input_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 64), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
