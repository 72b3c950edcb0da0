import csv
import json
import math

import pytest

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


@pytest.mark.parametrize("bad", ["1:2", "a:b:c", "1:2:0", "1:2:-1", "2:1:0.5", ""])
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
