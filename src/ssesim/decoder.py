"""Typicality decoding over claimed read orderings.

A *claim* is a cyclic ordering of the reads plus, for each adjacency, either
"no merge" or an overlap length whose suffix in the earlier raw read has at
least one unerased symbol.  Assembling a claim merges consecutive reads into
islands, breaking at the no-merge adjacencies; a claim with no break folds
into a single circular island, which is only consistent when the chain
advances exactly n positions.  Claims whose merges hit a symbol conflict are
discarded.

The module has two entry points and one matcher.  Both take the decoder's
view only: a sequence of read ``TritString``s, and a codebook whose
codewords share one length n.

``oracle_decode`` is the information-theoretic reference: it keeps the
codewords that contain every read individually as a compatible cyclic
substring.

``typicality_decode`` enumerates all assemblable claims (the first read is
pinned to position zero, which costs nothing by rotation invariance), keeps
those whose suffix-size tuple and island coverage pass the two-sided tests
of ``stats.TypicalityThresholds``, and keeps each codeword of
``oracle_decode`` that cyclically holds every island of some surviving
claim.  A message is decoded only when exactly one codeword survives.  The
search is exponential in the number of reads, so it refuses more than
``_HARD_READ_CAP`` (8) of them.  With thresholds disabled
(``epsilon = inf``) the two agree exactly.

Every codeword test, of reads and of islands alike, is one lane-packed
shift-and pass (``_holds_every_read``) over the codewords still in play.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .channel import ChannelParams
from .errors import DomainError
from .stats import typicality_thresholds
from .tritstring import (
    TritString,
    _fold,
    _mask,
    _overlay,
    _shift_and,
    is_l_compatible,
)

_HARD_READ_CAP = 8


class SearchSpaceError(DomainError):
    """Raised when the claim enumeration would be too large to attempt."""


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs for ``typicality_decode``.

    ``epsilon = inf`` disables both the suffix-size and the coverage
    filters.  ``omega_mode`` selects whether non-typical suffix-size tuples
    are skipped ("typical-only") or kept ("all-tuples").
    """

    epsilon: float = math.inf
    omega_mode: str = "typical-only"

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise DomainError(f"epsilon must be positive; got {self.epsilon!r}")
        if self.omega_mode not in ("typical-only", "all-tuples"):
            raise DomainError(f"unknown omega_mode {self.omega_mode!r}")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode.

    ``message`` is the decoded codebook index, or None when zero or several
    codewords survive.  ``candidate_islands`` holds the distinct island sets
    that passed the filters, each as a sorted tuple of texts;
    ``tuples_visited`` counts complete claims whose assembly succeeded.
    """

    message: int | None
    candidate_codewords: tuple[int, ...]
    candidate_islands: tuple[tuple[str, ...], ...]
    tuples_visited: int


def _needles(reads: Sequence[TritString]) -> list[tuple[int, int, int]]:
    """Raw (bits, known, length) triples of the reads."""
    for r in reads:
        if not isinstance(r, TritString):
            raise DomainError(f"expected TritString reads; got {type(r).__name__}")
    return [(r.bits, r.known, r.length) for r in reads]


def _merge_options(u: TritString, v: TritString) -> tuple[tuple[int, int], ...]:
    """Feasible (overlap, raw suffix size) pairs for merging u onto v."""
    opts = []
    for l in range(1, min(len(u), len(v)) + 1):
        if not is_l_compatible(u, v, l):
            continue
        w = u.suffix(l).size
        if w > 0:
            opts.append((l, w))
    return tuple(opts)


def oracle_decode(
    codebook: Sequence[TritString], reads: Sequence[TritString]
) -> tuple[int, ...]:
    """Codebook indices whose codeword contains every read as a compatible
    cyclic substring.  The tightest test any decoder can apply per read
    alone.  All codewords must share one length.
    """
    needles = _needles(reads)
    if len({len(x) for x in codebook}) > 1:
        raise DomainError("codewords must share one length")
    if not codebook:
        return ()
    n = len(codebook[0])
    if any(l > n for _, _, l in needles):
        raise DomainError(f"a read is longer than the codewords (n={n})")
    return tuple(np.flatnonzero(_holds_every_read(codebook, n, needles)).tolist())


def _holds_every_read(
    words: Sequence[TritString], n: int, needles: list[tuple[int, int, int]]
) -> np.ndarray:
    """Bool per codeword of length ``n``: it holds every needle triple, each
    no longer than n, cyclically.

    Codeword i, followed by its first ``longest needle - 1`` symbols, fills
    byte-aligned lane i of one integer per bit-plane, and each needle runs
    the shift-and kernel once over all lanes still live.
    """
    extra = max([0] + [l - 1 for _, _, l in needles])
    wrap = _mask(extra)
    lane = (n + extra + 7) // 8  # bytes; no window leaves its lane

    def plane(ints: list[int]) -> int:
        return int.from_bytes(
            b"".join((v | (v & wrap) << n).to_bytes(lane, "little") for v in ints),
            "little",
        )

    hb = plane([x.bits for x in words])
    hk = plane([x.known for x in words])
    first = np.frombuffer(_mask(n).to_bytes(lane, "little"), dtype=np.uint8)
    alive = np.ones(len(words), dtype=bool)
    for v in needles:
        starts = int.from_bytes((alive[:, None] * first).tobytes(), "little")
        hits = _shift_and(v, hb, hk, starts)
        raw = hits.to_bytes(len(words) * lane, "little")
        alive = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), lane).any(axis=1)
        if not alive.any():
            break
    return alive


def typicality_decode(
    codebook: Sequence[TritString],
    reads: Sequence[TritString],
    params: ChannelParams,
    config: DecoderConfig = DecoderConfig(),
) -> DecodeResult:
    """Run the claim-enumeration decoder against a codebook."""
    # The search works on raw (bits, known, length) triples; TritString
    # construction is deferred to the few surviving island sets.
    trip = _needles(reads)
    K = len(trip)
    if K == 0:
        raise DomainError("cannot decode from zero reads")
    if K > _HARD_READ_CAP:
        raise SearchSpaceError(
            f"{K} reads exceed the search cap of {_HARD_READ_CAP} reads"
        )
    if K != params.K:
        raise DomainError(f"params expect {params.K} reads; got {K}")
    if any(len(x) != params.n for x in codebook):
        raise DomainError(f"params expect codewords of length n={params.n}")
    if any(l != params.L for _, _, l in trip):
        raise DomainError(f"params expect reads of length L={params.L}")

    # At epsilon = inf both tests accept everything, so neither is run.
    check_coverage = not math.isinf(config.epsilon)
    check_omega = config.omega_mode == "typical-only" and check_coverage
    thresholds = typicality_thresholds(params, config.epsilon)

    @cache
    def options(i: int, j: int) -> tuple[tuple[int, int], ...]:
        return _merge_options(reads[i], reads[j])

    visited = 0
    seen: set[tuple] = set()
    survivors: list[list[tuple[int, int, int]]] = []
    used = [True] + [False] * (K - 1)

    def record(islands: list[tuple[int, int, int]], omega: list[int]) -> None:
        nonlocal visited
        visited += 1
        if check_omega and not thresholds.typical_suffix_sizes(omega):
            return
        key = tuple(sorted(islands))
        if key in seen:
            return
        seen.add(key)
        if check_coverage:
            visible = sum(k.bit_count() for _, k, _ in islands)
            if not thresholds.typical_coverage(visible):
                return
        survivors.append(islands)

    def close(last, acc, islands, omega) -> None:
        # Adjacency from the final position back to read 0.
        record(islands + [acc], omega + [0])
        for l, w in options(last, 0):
            if islands:
                first = _overlay(acc, islands[0], l)
                if first is not None:
                    record([first] + islands[1:], omega + [w])
            elif acc[2] - l == params.n:
                # No break anywhere: wrapping the cycle exactly once means
                # the chain advances exactly n.  A shorter period would
                # claim the codeword repeats itself, which a window match
                # cannot check, so such claims are discarded as impossible.
                ring = _fold(acc, l)
                if ring is not None:
                    record([ring], omega + [w])

    def walk(last, acc, islands, omega) -> None:
        if all(used):
            close(last, acc, islands, omega)
            return
        for j in range(1, K):
            if used[j]:
                continue
            used[j] = True
            walk(j, trip[j], islands + [acc], omega + [0])
            for l, w in options(last, j):
                merged = _overlay(acc, trip[j], l)
                if merged is not None:
                    walk(j, merged, islands, omega + [w])
            used[j] = False

    walk(0, trip[0], [], [])

    # Codeword matching.  A merge only fills erasures where both reads
    # agree, so every read is a compatible substring of its island (on a
    # folded ring, at a position taken mod n).  A codeword that holds all
    # islands of a claim therefore holds every read and is one of the
    # oracle's; only those are tested, in one lane pass per claim.  An
    # island longer than n (overclaimed chains can exceed n) matches nothing.
    oracle = np.flatnonzero(_holds_every_read(codebook, params.n, trip))
    words = [codebook[w] for w in oracle]
    held = np.zeros(len(oracle), dtype=bool)
    for islands in survivors:
        if held.all():
            break
        if all(l <= params.n for _, _, l in islands):
            held |= _holds_every_read(words, params.n, islands)
    ordered = tuple(oracle[held].tolist())
    message = ordered[0] if len(ordered) == 1 else None

    @cache
    def text_of(t: tuple[int, int, int]) -> str:
        return TritString(*t).text

    island_texts = sorted(tuple(sorted(text_of(t) for t in islands)) for islands in survivors)
    return DecodeResult(
        message=message,
        candidate_codewords=ordered,
        candidate_islands=tuple(island_texts),
        tuples_visited=visited,
    )
