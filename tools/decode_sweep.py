"""The 4320-decode equivalence sweep of the typicality decoder.

    python3 tools/decode_sweep.py

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  For (n, L, K, M) in
(24,6,5,6), (32,8,6,8), (12,5,4,6), seeds 0-119 and delta in 0, 0.1, 0.2,
it draws ``random_codebook(n, M, seed)``, transmits message ``seed % M``
with ``transmit(book, seed % M, params, seed)`` and decodes the reads at
epsilon = inf, 0.5, 2 and 2 with all tuples.  At epsilon = inf every
decode's ``candidate_codewords`` must equal ``oracle_decode(book, reads)``
(acceptance criterion 8's invariant); a decode that breaks it stops the
sweep with exit status 1.  It prints three lines:

- ``answers``: the sha256 of ``repr((message, candidate_codewords,
  candidate_islands, oracle))`` of every decode, in that order, where
  ``candidate_islands`` is sorted and ``oracle`` is the oracle's set;
- ``search``: the sha256 of ``repr((tuples_visited, island_sets))`` of
  every decode, which also pins the order in which the claim search found
  the sets;
- ``cpu_s``: the CPU seconds of the sweep.

Each digest line ends in ``ok`` when it equals the recorded digest below
and in ``MISMATCH`` otherwise, and any mismatch makes the exit status 1.
A change that must keep every decode the same leaves both digests as they
are.  A change to the search alone must hold ``answers`` and may record a
new ``search`` digest here, saying why.  The sweep is not part of the test
suite: it takes several minutes.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssesim.channel import ChannelParams, random_codebook, transmit  # noqa: E402
from ssesim.decoder import DecoderConfig, oracle_decode, typicality_decode  # noqa: E402

GEOMETRIES = ((24, 6, 5, 6), (32, 8, 6, 8), (12, 5, 4, 6))
SEEDS = range(120)
DELTAS = (0.0, 0.1, 0.2)
CONFIGS = (
    DecoderConfig(math.inf),
    DecoderConfig(0.5),
    DecoderConfig(2.0),
    DecoderConfig(2.0, omega_mode="all-tuples"),
)
EXPECTED = {
    "answers": "08f5c585379b69ce3c0245857e945ee183a9ffe533df44bb8522aaa9ae93957e",
    "search": "c3ec555b1d2d8901b937d29933f68f702cdec25025d8d196c9e4a107367e9cae",
}


def main() -> int:
    answers = hashlib.sha256()
    search = hashlib.sha256()
    start = time.process_time()
    for n, L, K, M in GEOMETRIES:
        for seed in SEEDS:
            book = random_codebook(n, M, seed)
            for delta in DELTAS:
                params = ChannelParams(n, L, K, delta)
                reads = transmit(book, seed % M, params, seed).reads
                oracle = oracle_decode(book, reads)
                for config in CONFIGS:
                    r = typicality_decode(book, reads, params, config)
                    if math.isinf(config.epsilon) and r.candidate_codewords != oracle:
                        print(f"oracle MISMATCH at {(n, L, K, M, seed, delta)}")
                        return 1
                    fields = (r.message, r.candidate_codewords, r.candidate_islands, oracle)
                    answers.update(repr(fields).encode())
                    search.update(repr((r.tuples_visited, r.island_sets)).encode())
    cpu_s = time.process_time() - start
    status = 0
    for name, digest in (("answers", answers), ("search", search)):
        got = digest.hexdigest()
        ok = got == EXPECTED[name]
        status |= not ok
        print(f"{name} {got} {'ok' if ok else 'MISMATCH'}")
    print(f"cpu_s {cpu_s:.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
