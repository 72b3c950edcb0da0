"""The 4320-decode equivalence sweep of the typicality decoder.

    python3 tools/decode_sweep.py

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  For (n, L, K, M) in
(24,6,5,6), (32,8,6,8), (12,5,4,6), seeds 0-119 and delta in 0, 0.1, 0.2,
it draws ``random_codebook(n, M, seed)``, transmits message ``seed % M``
with ``transmit(book, seed % M, params, seed)`` and decodes the reads at
epsilon = inf, 0.5, 2 and 2 with all tuples.  It prints three lines:

- ``decodes``: the sha256 of ``repr((message, candidate_codewords,
  candidate_islands, tuples_visited))`` of every decode, in that order;
- ``island_sets``: a sha256 over ``repr(island_sets)``, which also pins
  the order in which the claim search found the sets;
- ``cpu_s``: the CPU seconds of the sweep.

Each digest line ends in ``ok`` when it equals the recorded digest below
and in ``MISMATCH`` otherwise, and any mismatch makes the exit status 1.
A change that must keep every decode the same leaves both digests as they
are; a change that alters the search on purpose records its new digests
here.  The sweep is not part of the test suite: it takes several minutes.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ssesim.channel import ChannelParams, random_codebook, transmit  # noqa: E402
from ssesim.decoder import DecoderConfig, typicality_decode  # noqa: E402

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
    "decodes": "0819e0c2143090ff9fa646476fc68971777dfa06502130eb574ef2d86aee0a45",
    "island_sets": "c39a009365f64a5f46b1773cd8c8a45254d765fb4d102c5a48abe9d55414f11b",
}


def main() -> int:
    decodes = hashlib.sha256()
    island_sets = hashlib.sha256()
    start = time.process_time()
    for n, L, K, M in GEOMETRIES:
        for seed in SEEDS:
            book = random_codebook(n, M, seed)
            for delta in DELTAS:
                params = ChannelParams(n, L, K, delta)
                reads = transmit(book, seed % M, params, seed).reads
                for config in CONFIGS:
                    r = typicality_decode(book, reads, params, config)
                    fields = (
                        r.message,
                        r.candidate_codewords,
                        r.candidate_islands,
                        r.tuples_visited,
                    )
                    decodes.update(repr(fields).encode())
                    island_sets.update(repr(r.island_sets).encode())
    cpu_s = time.process_time() - start
    status = 0
    for name, digest in (("decodes", decodes), ("island_sets", island_sets)):
        got = digest.hexdigest()
        ok = got == EXPECTED[name]
        status |= not ok
        print(f"{name} {got} {'ok' if ok else 'MISMATCH'}")
    print(f"cpu_s {cpu_s:.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
