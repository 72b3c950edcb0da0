"""Golden CLI output: the sha256 of what ``cli.main`` prints for fixed argv.

The digests pin the seeded sample streams (starts, erasures, codebooks,
per-trial statistics) and every rendered number, so a refactor that is
meant to keep output byte-identical is checked against them.  Regenerate a
digest only in a change that means to alter that output, and say so.

``golden_fields.json`` pins the same outputs field by field: for each argv,
the sha256 of each top-level JSON value's exact text, or of each CSV
column (see ``field_digests``).  A change that only adds fields re-pins
the whole-output digest and adds digests for its new fields; every
existing field's digest must hold.
"""

import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from ssesim.cli import main

GOLDEN = {
    # Both views of a channel use pin the start and erasure streams.
    "simulate --n 48 --length 8 --reads 5 --delta 0.2 --seed 7 --view full":
        "0a6dbea9c62bdaf1c32644e0e88ba4ce1e7947598207800c6f7adfdebe0074d6",
    "simulate --n 500 --length 40 --reads 30 --delta 0.3 --seed 99 --view full":
        "09f099378812de3b399cac3a4d060c45667a24a6d499904cd5b0731b068aa5d7",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2":
        "57072769c199962437973b582622850d2f95d86a54dda99f145efe25f918e823",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2 --format csv":
        "2b8edeb270af9914ec30eb70eb53d74e9ecc5374495839e26bf1555fff54d3c9",
    "decode-demo --n 24 --length 6 --reads 5 --delta 0.1 --codebook-size 6"
    " --seed 6":
        "3e8592a07b7dc814eda958e19e1646932b71104fef4238cf3b1c2cb67fffd966",
    # Suffix-size and coverage thresholds both prune: 8 of 560 island
    # sets survive.
    "decode-demo --n 24 --length 6 --reads 5 --delta 0.1 --codebook-size 6"
    " --seed 6 --epsilon 0.5":
        "76810a90dc959a05592aa9f724acd03ebbfb6ba8e69143ef2a560d058cd23fd1",
    # At coverage 4.2 overclaimed chains exceed three times the visible
    # coverage target, so the coverage test alone prunes (1350 of 4705).
    "decode-demo --n 10 --length 7 --reads 6 --delta 0.0 --codebook-size 6"
    " --seed 2 --epsilon 2 --omega-mode all-tuples":
        "db67bf52d060836766f971d85b901f639a8002b03b41b2b32e1244169aa2b93b",
    "gtau-table --n 1024 --lbar 2 --coverage 2 --delta 0.2":
        "5db3b014b8ad7f126c96889c56bc5528f80d17b0637a5eaf6445a9e917c6e1c3",
    # The float suffix-size law past the l = 1030 switch to log space in
    # the binomial pmf, and at K = 1, where every P(D >= g) is the empty
    # product 1.
    "gtau-table --n 100000 --length 1100 --reads 10 --delta 0.2":
        "47e86339a23e79c86173ebd3d6bbbe534a5ac6b89c318c9c043b0c4176c2d063",
    "gtau-table --n 100 --length 7 --reads 1 --delta 0.3":
        "1ef27d649ee0fd3c13883158b5764f311b72a791c99cda932da1f5220dda85c8",
    # Sizes the trial kernel works on in blocks: K*L = 1,088,000 read
    # symbols for simulate and about 4.2M per concentration trial, so the
    # erasure draw spans several blocks; the concentration runs also probe
    # at two suffix sizes.
    "simulate --n 8192 --length 64 --reads 17000 --delta 0.25 --seed 5 --view full":
        "9de925c9f802ab95ce87b6a941dc4514d6d135230e2aa6bd139894d0ba7bdcc2",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11":
        "aca72dd75fceac5e4a19003ad397df45efc3dfc961c01e1e9d7ef124f46e8649",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11 --format csv":
        "84e31cdd3d078ddc450c3d915e2cdd2183b8731a1ad4d72bbcd6e8dd904f7e6e",
    # Windows of length 60 on a ring of 64 wrap almost the whole codeword.
    "concentration --n 64 --length 60 --reads 5 --delta 0.3 --mz-tau 0.5"
    " --trials 3 --seed 4":
        "6c33d40353a6f5551a6639b96e38611faf28145afff44be291e4956476f77709",
    # n and L not multiples of 8, so read windows start at every bit offset
    # of a byte and the ring's overhang past n is not byte-aligned; the last
    # argv packs 40 reads of length 35 on a ring of 37, so tied starts and
    # windows across the wrap are dense.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21":
        "0f93aa711a06c2f280e7e06b7c27d0ee374353fb2c85de9e39628a2513b1a7e0",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21 --format csv":
        "09315516295b2fb3942d5b26cd317b3ae36d7ba69d9fab758d58ae317d90366b",
    # One trial: every standard error is 0.0.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21":
        "9c6570078fed9e227abf3f53564aacd640899da144dab4f4bd67cc29cf2c0660",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21 --format csv":
        "a9f01fa29f24f394589cf0ffc4edf62137064e74d249585c0362cd145538213b",
    "concentration --n 37 --length 35 --reads 40 --delta 0.5 --trials 5 --seed 8":
        "c0d7c6c360c32f3e7015a2f9ded8a046c94cd0dddca09c15ff2acf805810aa2b",
    # The m_z probe's eligible-read fallback: at delta = 0.85 two of the 205
    # reads keep 5 of their 10 symbols visible, and seed 1 misses both in
    # 64 uniform draws, so the first trial's probe draws among them; so do
    # the probes of all three trials below (2, 2 and 4 eligible reads).
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 1"
    " --mz-per-trial 1 --seed 1":
        "e2cdb05f2afbae301538710fdd625a24d19638bf00bd156f930948e2cca4d435",
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 3"
    " --mz-per-trial 4 --seed 1 --format csv":
        "9d72a7f94371e328ae63f288a1f5b9ce7a9125dc97bbea619ef48e03e59eb632",
    # Reads of length 190 on a ring of 200, over five row blocks: nearly
    # every window wraps past n, so phi_v ORs most reads twice and the m_z
    # count cuts every window from the extension's tail.
    "concentration --n 200 --length 190 --reads 3000 --delta 0.3 --trials 2 --seed 12":
        "d14d7b0d6da9f2ac9b79593eb27b6c429d8bddd3faa67d5400d1ef73ba99724a",
    "concentration --n 200 --length 190 --reads 3000 --delta 0.3 --trials 2 --seed 12"
    " --format csv":
        "00e834eb66fc3cefd22546765d132fa87bade6a1150efc154b90c290bf32c380",
    # n not a multiple of 64 (nor of 8), over several row blocks: the last
    # ring word is partial and the row's last byte is not whole.
    "concentration --n 1000003 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 13":
        "2c98f46893c3500950777a4bde913033b08e67ae02b87229aa1a066d0b646932",
    "concentration --n 1000003 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 13 --format csv":
        "82a996d4e22636cc55c8bbf5b2debb3577891e9533eee3fbe64527d5e35b5c88",
    # Codeword matching on large codebooks: the decode-bigbook geometry
    # (1024 codewords of length 32), then n and codebook size that are not
    # multiples of 8, where 33 codewords hold every read.
    "decode-demo --n 32 --length 8 --reads 4 --delta 0.1 --codebook-size 1024"
    " --seed 17":
        "99d511273944152b97be028d1df7bb8b7ae9a020ef99dbf3c740338a397c7884",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3":
        "3313bc982b0eb4f11ac81ada13f999557815ae77186bdc77a9f4148946ab0c67",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3 --epsilon 2":
        "974eacab30158477ea6d0ad495709d112e661057e52a9b3f2ecd5c9b45a6a17c",
    # The trace's edge cases: an "empty" outcome with no island sets, no
    # candidates and a null message, then decode-bigbook's delta = 0 cell,
    # whose 47 island sets hold only fully visible islands.
    "decode-demo --n 24 --length 6 --reads 5 --delta 0.1 --codebook-size 6"
    " --seed 6 --epsilon 0.1":
        "ef252d5983d66878f8074129263f45e4998b5bc00a86e2cec1c6f20ba0cea820",
    "decode-demo --n 32 --length 8 --reads 4 --delta 0 --codebook-size 1024"
    " --seed 17":
        "c6a626e489372939d3a8ea2f0189323a6ce238d444caff411d99d4551ab8195f",
}

FIELDS = json.loads((Path(__file__).parent / "golden_fields.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_fields(text: str) -> dict[str, str]:
    """Each top-level key of a JSON object, with its value's exact text."""
    decoder = json.JSONDecoder()
    skip = re.compile(r"[\s,]*")
    fields = {}
    i = skip.match(text, text.index("{") + 1).end()
    while text[i] != "}":
        key, i = json.decoder.scanstring(text, i + 1)
        i = skip.match(text, text.index(":", i) + 1).end()
        end = decoder.raw_decode(text, i)[1]
        fields[key] = text[i:end]
        i = skip.match(text, end).end()
    return fields


def field_digests(text: str) -> dict[str, str]:
    """The sha256 of each top-level JSON value's text, or of each CSV
    column's cells joined by newlines, by key or column name."""
    if text.startswith("{"):
        fields = _json_fields(text)
    else:
        header, *rows = csv.reader(text.splitlines())
        fields = {name: "\n".join(row[i] for row in rows) for i, name in enumerate(header)}
    return {name: _sha256(value) for name, value in fields.items()}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_output_is_byte_identical(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert _sha256(out) == GOLDEN[argv]
    assert field_digests(out) == FIELDS[argv]
