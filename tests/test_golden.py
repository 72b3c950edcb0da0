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
        "c5be379feabde3b436eaba7ddc76a4eba3dc40c1a0bbce36bde8f1278e3f798f",
    "simulate --n 500 --length 40 --reads 30 --delta 0.3 --seed 99 --view full":
        "402cb886cab4f373155a11cb9a3e3c2d84c112d6255e943db39c8e8b694032c9",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2":
        "411cbd8a14fb213d5fa3ba5897bf5c5c464b3876f19acebe54a09362aee85478",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2 --format csv":
        "2ef700acd29f54ea6861676a9be5ac5af916145452d3211a20261dbd68470d18",
    "decode-demo --n 24 --length 6 --reads 5 --delta 0.1 --codebook-size 6"
    " --seed 6":
        "96a560b7fdef445df67210ec73fddd5b1dbe8086d1a881625161d75c50de2800",
    # Suffix-size and coverage thresholds both prune: 14 of 1668 island
    # sets survive.
    "decode-demo --n 24 --length 6 --reads 5 --delta 0.1 --codebook-size 6"
    " --seed 6 --epsilon 0.5":
        "c704b85c1d4fe78fee7b7ee8fb2f0c2ed8bbefc5c1ab4bdf269d353daaa096a3",
    # At coverage 4.2 overclaimed chains exceed three times the visible
    # coverage target, so the coverage test alone prunes (1350 of 4705).
    "decode-demo --n 10 --length 7 --reads 6 --delta 0.0 --codebook-size 6"
    " --seed 2 --epsilon 2 --omega-mode all-tuples":
        "5b6fa5c2f9fe007316e7db573cf8242ebafae2e3f0ad814d5285f9f773be5f0e",
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
        "55d2fee60a6bffe718b4bcb43b08ece9ce738ffeb391582c384d17314c6bd808",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11":
        "fcebfd4e3b394ce0830777dbf857f0a7cf194ac5741db6a31326461120a25ef2",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11 --format csv":
        "9a5a7e21c2d406f544befffbe60393f7f3bab783ed942ce52b51488d7f203655",
    # Windows of length 60 on a ring of 64 wrap almost the whole codeword.
    "concentration --n 64 --length 60 --reads 5 --delta 0.3 --mz-tau 0.5"
    " --trials 3 --seed 4":
        "68ba51421fef87901fc3336139a3d03b830d667894ee014bf367785e72b2e2b6",
    # n and L not multiples of 8, so read windows start at every bit offset
    # of a byte and the ring's overhang past n is not byte-aligned; the last
    # argv packs 40 reads of length 35 on a ring of 37, so tied starts and
    # windows across the wrap are dense.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21":
        "dc5993549ad84a8f54f96c7c0f6c242c2265cfaa9b566b4c1eb81006d041dcf0",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21 --format csv":
        "9a376f07fe081615465a1912400ffde86b9595c148291c3fd7b6a33a0b07e0ce",
    # One trial: every standard error is 0.0.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21":
        "c601b78c98a1262b848cebc4b83181edebe27da8cf3c9c3bded3db83f6ecb2a8",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21 --format csv":
        "07b80278bee70831416d361408cbbd04c2f011a7fec537054c7a2071d6b5988a",
    "concentration --n 37 --length 35 --reads 40 --delta 0.5 --trials 5 --seed 8":
        "98cb98f26355bebea3fa0e9f881f7f271030c4ff4c2a55aeb567758625278de0",
    # The m_z probe's eligible-read fallback: at delta = 0.85 two of the 205
    # reads keep 5 of their 10 symbols visible, and seed 0 misses both in
    # 64 uniform draws, so the first trial's probe draws among them.
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 1"
    " --mz-per-trial 1 --seed 0":
        "7497d7a3d56bf568ad3187383d429ff42a63a3d2ba2fe7da2842ae18ffba9641",
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 3"
    " --mz-per-trial 4 --seed 0 --format csv":
        "437a07bac5946cfcad0e33581e3bc9e1cce79db2b998cd799aaabf3429c73c9c",
    # Codeword matching on large codebooks: the decode-bigbook geometry
    # (1024 codewords of length 32), then n and codebook size that are not
    # multiples of 8, where 48 codewords hold every read.
    "decode-demo --n 32 --length 8 --reads 4 --delta 0.1 --codebook-size 1024"
    " --seed 17":
        "20553cf343763918823a9c92e4880a21dddeb36c066961afb11148aad435963b",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3":
        "ef7b632697ef940bc81500dd37aa8874140258b2b96ef2b7ba347f507fcabd51",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3 --epsilon 2":
        "00b3d72e135b2b048d6191d296ea785a25cdba09a2c52fab6d7ec6e960b4351e",
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
