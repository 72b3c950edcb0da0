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
        "10b09b5aebbb9672b88cb13d520bfdcee13d0deeb1a9c3603a5d41d8f33c40be",
    "simulate --n 500 --length 40 --reads 30 --delta 0.3 --seed 99 --view full":
        "5c85ba320e673010cff362bcee0bd7633b926472afae61c33d45a8e7e94efe20",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2":
        "3685fef4ea449d864c240dc3242348623e0525d2e48d1632ae0ed80306fae826",
    "concentration --n 4096 --lbar 2 --coverage 2 --delta 0.2 --trials 8"
    " --seed 3 --threads 2 --format csv":
        "b1e4915a66b720e819f37237a696b7e28862f51e80c3293c39814b811203550b",
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
        "f7938b174b436454dc27f0dfda4f4dcf15a543c2cb0736a7c67fd7cd388795e7",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11":
        "947b77239eae68e7c674c66bc9263248c089234197423df1dc6044774e9696bd",
    "concentration --n 2097152 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 11 --format csv":
        "d98029d2d0d1e706c4b74df795ed2f4bf6da672a24a045080c55ab84b4d1f828",
    # Windows of length 60 on a ring of 64 wrap almost the whole codeword.
    "concentration --n 64 --length 60 --reads 5 --delta 0.3 --mz-tau 0.5"
    " --trials 3 --seed 4":
        "25437f4dd1632483755056a39a5967afcad8de1e30f0c88fa9699d46080af336",
    # n and L not multiples of 8, so read windows start at every bit offset
    # of a byte and the ring's overhang past n is not byte-aligned; the last
    # argv packs 40 reads of length 35 on a ring of 37, so tied starts and
    # windows across the wrap are dense.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21":
        "b23e55619bb2b4b9069f0196ba1db97c1e2a3a448a6f062899db05d73416d35b",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 4 --seed 21 --format csv":
        "ce9ca48904b480ef700955c5cf0c0ba7b61cb4f42c34200872fe40c0289ed01c",
    # One trial: every standard error is 0.0.
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21":
        "dda0189f32f0069e4452406ef16adca7bdf1b11ea341100e6b95538e74e6eefa",
    "concentration --n 4099 --lbar 2.3 --coverage 3 --delta 0.35 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 1 --seed 21 --format csv":
        "c3566af48f47e9777c013e57694200e46b0d88e26ff62ae11272f15fb936ac5f",
    "concentration --n 37 --length 35 --reads 40 --delta 0.5 --trials 5 --seed 8":
        "806f6c9449036b4475834df447f6400c0b550d20214b9645d5be43ce8359fb32",
    # The m_z probe's eligible-read fallback: at delta = 0.85 two of the 205
    # reads keep 5 of their 10 symbols visible, and seed 1 misses both in
    # 64 uniform draws, so the first trial's probe draws among them; so do
    # the probes of all three trials below (2, 2 and 4 eligible reads).
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 1"
    " --mz-per-trial 1 --seed 1":
        "5d1b977b2390181b3980ad51a40cc22a4228c4ea8d9fa0cef4e8ea5dda3955b4",
    "concentration --n 1024 --length 10 --reads 205 --delta 0.85 --trials 3"
    " --mz-per-trial 4 --seed 1 --format csv":
        "3ce2010e42511de284048d384fa73c64caa06709992ad115bd81256c65864ea0",
    # Reads of length 190 on a ring of 200, over five row blocks: nearly
    # every window wraps past n, so phi_v ORs most reads twice and the m_z
    # count cuts every window from the extension's tail.
    "concentration --n 200 --length 190 --reads 3000 --delta 0.3 --trials 2 --seed 12":
        "afa17c92bcc36706f0fb4e1187065ffc0b1b947e050158bb586798d36790a9ab",
    "concentration --n 200 --length 190 --reads 3000 --delta 0.3 --trials 2 --seed 12"
    " --format csv":
        "71bb8562574f634299e20a0496d71fb31a3c05d2e077d1fca72d718d855a61c4",
    # n not a multiple of 64 (nor of 8), over several row blocks: the last
    # ring word is partial and the row's last byte is not whole.
    "concentration --n 1000003 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 13":
        "49c10a2857caef8ef15406084b7427b9ba75771935c8ff57ca9293539abb088b",
    "concentration --n 1000003 --lbar 2 --coverage 2 --delta 0.2 --mz-tau 0.5"
    " --mz-tau 0.85 --trials 2 --seed 13 --format csv":
        "110095592bc60f7ea308bed7dece0321dd45351499e1e52dcba15dc8f6e15072",
    # Codeword matching on large codebooks: the decode-bigbook geometry
    # (1024 codewords of length 32), then n and codebook size that are not
    # multiples of 8, where 22 codewords hold every read.
    "decode-demo --n 32 --length 8 --reads 4 --delta 0.1 --codebook-size 1024"
    " --seed 17":
        "0bd905c1c520b26af748951d92629227c5b3077c986071195272b88447fcca4c",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3":
        "866bea1187c40ea0b4c5a95f8a47722360ecf76601b40a3952f9313edf861857",
    "decode-demo --n 30 --length 7 --reads 5 --delta 0.2 --codebook-size 1000"
    " --seed 3 --epsilon 2":
        "42166ec0b6d9bb2becbfa93186ae9ff4d4b4e4fb414f96d6944681b3173591a0",
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
