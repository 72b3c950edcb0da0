"""Typicality decoding over claimed read orderings.

A *claim* is a cyclic ordering of the reads plus, for each adjacency, either
"no merge" or an overlap length whose suffix in the earlier raw read has at
least one unerased symbol.  Assembling a claim merges consecutive reads into
islands, breaking at the no-merge adjacencies; a claim with no break folds
into a single circular island, which is only consistent when the chain
advances exactly n positions.  Claims whose merges hit a symbol conflict are
discarded.

The module has two entry points and one matcher.  Both take the decoder's
view only: a sequence of read ``TritString``s, and a ``channel.Codebook``.
The paper's codewords are i.i.d. uniform binary strings, so erasures hit
reads, never codewords; a ``Codebook`` holds exactly that, fully visible
codewords of one length n, and any other codebook is refused.

``oracle_decode`` is the information-theoretic reference: it keeps the
codewords that contain every read individually as a compatible cyclic
substring.

``typicality_decode`` sorts the reads by their raw triples, so that its
result depends only on their multiset, enumerates all assemblable claims
(the first read is pinned to position zero, which costs nothing by
rotation invariance), keeps those whose suffix-size tuple and island
coverage pass the two-sided tests of ``stats.TypicalityThresholds``, and
keeps each codeword of ``oracle_decode`` that cyclically holds every
island of some surviving claim.  A message is decoded only when exactly
one codeword survives.  The search is exponential in the number of reads,
so it refuses more than ``_HARD_READ_CAP`` (8) of them.  With thresholds
disabled (``epsilon = inf``) the two agree exactly.

Every codeword test, of reads and of islands alike, is a lane-packed
shift-and pass (``_holds_every_read``) on the codebook's packed uint8
rows: the rows still in play fill one byte-aligned lane each of one
integer per bit-plane, the most visible needle runs first, and the lanes
are rebuilt from the surviving rows whenever a codeword is ruled out, so
the test's cost shrinks with its survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import ChannelParams, Codebook
from .errors import DomainError
from .stats import TypicalityThresholds
from .tritstring import (
    TritString,
    _cyclic,
    _fold,
    _mask,
    _overlay,
    _shift_and,
    _text,
    is_l_compatible,
)

_HARD_READ_CAP = 8


class SearchSpaceError(DomainError):
    """Raised when a decode is given more reads than the search cap of 8.

    The cap bounds reads, not claims: a decode within it can still have
    too many claims to finish (README, ``ssesim.decoder``)."""


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
    codewords survive.  ``island_sets`` holds the distinct island sets that
    passed the filters, each as sorted raw (bits, known, length) triples;
    ``tuples_visited`` counts complete claims whose assembly succeeded.
    """

    message: int | None
    candidate_codewords: tuple[int, ...]
    island_sets: tuple[tuple[tuple[int, int, int], ...], ...]
    tuples_visited: int

    @cached_property
    def candidate_islands(self) -> tuple[tuple[str, ...], ...]:
        """The island sets as sorted tuples of texts, rendered on first use,
        each distinct island once, straight from its raw triple."""
        distinct = {t for s in self.island_sets for t in s}
        text_of = {t: _text(*t) for t in distinct}.__getitem__
        return tuple(sorted(tuple(sorted(map(text_of, s))) for s in self.island_sets))


def _needles(reads: Sequence[TritString]) -> list[tuple[int, int, int]]:
    """Raw (bits, known, length) triples of the reads."""
    for r in reads:
        if not isinstance(r, TritString):
            raise DomainError(f"expected TritString reads; got {type(r).__name__}")
    return [(r.bits, r.known, r.length) for r in reads]


def _check_codebook(codebook: Codebook) -> None:
    if not isinstance(codebook, Codebook):
        raise DomainError(f"expected a Codebook; got {type(codebook).__name__}")


def _merge_options(u: TritString, v: TritString) -> tuple[tuple[int, int], ...]:
    """Feasible (overlap, raw suffix size) pairs for merging u onto v."""
    opts = []
    for l in range(1, min(len(u), len(v)) + 1):
        if not is_l_compatible(u, v, l):
            continue
        w = (u.known >> (u.length - l)).bit_count()
        if w > 0:
            opts.append((l, w))
    return tuple(opts)


def oracle_decode(codebook: Codebook, reads: Sequence[TritString]) -> tuple[int, ...]:
    """Codebook indices whose codeword contains every read as a compatible
    cyclic substring.  The tightest test any decoder can apply per read
    alone.
    """
    needles = _needles(reads)
    _check_codebook(codebook)
    n = codebook.n
    if not len(codebook):
        return ()
    if any(l > n for _, _, l in needles):
        raise DomainError(f"a read is longer than the codewords (n={n})")
    return tuple(np.flatnonzero(_holds_every_read(codebook.rows, n, needles)).tolist())


def _holds_every_read(
    rows: np.ndarray, n: int, needles: list[tuple[int, int, int]]
) -> np.ndarray:
    """Bool per packed, fully visible codeword row of length ``n``: it
    holds every needle triple, each no longer than n, cyclically.

    The i-th live row, followed by its first ``longest needle - 1``
    symbols, fills byte-aligned lane i of one integer per bit-plane, and
    each needle runs the shift-and kernel once over all lanes.  The most
    visible needles run first, as they rule out the most codewords, and
    the lanes are rebuilt from the surviving rows whenever one is ruled
    out, so the cost shrinks with the survivors.
    """
    extra = max([0] + [l - 1 for _, _, l in needles])
    lane = (n + extra + 7) // 8  # bytes; no window leaves its lane

    def repeat(pattern: int, count: int) -> int:
        return int.from_bytes(pattern.to_bytes(lane, "little") * count, "little")

    def plane(rows: np.ndarray) -> int:
        padded = np.zeros((len(rows), lane), dtype=np.uint8)
        padded[:, : rows.shape[1]] = rows
        head = repeat(_mask(extra), len(rows))
        return _cyclic(int.from_bytes(padded.tobytes(), "little"), n, head)

    alive = np.ones(len(rows), dtype=bool)
    count = -1  # lanes built for this many rows; none yet
    for v in sorted(needles, key=lambda v: v[1].bit_count(), reverse=True):
        live = np.flatnonzero(alive)
        if len(live) != count:
            count = len(live)
            hb = plane(rows[live])
            hk = repeat(_mask(n + extra), count)
            starts = repeat(_mask(n), count)
        hits = _shift_and(v, hb, hk, starts).to_bytes(count * lane, "little")
        alive[live] = np.frombuffer(hits, dtype=np.uint8).reshape(count, lane).any(axis=1)
        if not alive.any():
            break
    return alive


def typicality_decode(
    codebook: Codebook,
    reads: Sequence[TritString],
    params: ChannelParams,
    config: DecoderConfig = DecoderConfig(),
) -> DecodeResult:
    """Run the claim-enumeration decoder against a codebook."""
    # The search works on raw (bits, known, length) triples, sorted so that
    # it, and the order in which it meets the island sets, depend only on
    # the multiset of reads; texts are rendered only when
    # ``candidate_islands`` is read.
    trip = sorted(_needles(reads))
    reads = [TritString(*t) for t in trip]
    K = len(trip)
    if K == 0:
        raise DomainError("cannot decode from zero reads")
    if K > _HARD_READ_CAP:
        raise SearchSpaceError(
            f"{K} reads exceed the search cap of {_HARD_READ_CAP} reads"
        )
    if K != params.K:
        raise DomainError(f"params expect {params.K} reads; got {K}")
    _check_codebook(codebook)
    if codebook.n != params.n:
        raise DomainError(f"params expect codewords of length n={params.n}")
    if any(l != params.L for _, _, l in trip):
        raise DomainError(f"params expect reads of length L={params.L}")

    # At epsilon = inf both tests accept everything, so neither is run.
    check_coverage = not math.isinf(config.epsilon)
    check_omega = config.omega_mode == "typical-only" and check_coverage
    thresholds = TypicalityThresholds(params, config.epsilon)

    # A read merges onto itself only in the fold of a lone read (K = 1).
    options = [
        [_merge_options(u, v) if i != j or K == 1 else () for j, v in enumerate(reads)]
        for i, u in enumerate(reads)
    ]
    visited = 0
    seen: dict[tuple, None] = {}  # distinct island sets, in the order first met

    def record(islands: list[tuple[int, int, int]], omega: list[int]) -> None:
        nonlocal visited
        visited += 1
        if check_omega and not thresholds.typical_suffix_sizes(omega):
            return
        seen[tuple(sorted(islands))] = None

    def close(last, acc, islands, omega) -> None:
        # Adjacency from the final position back to read 0.
        record(islands + [acc], omega + [0])
        for l, w in options[last][0]:
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

    def walk(last, acc, islands, omega, rest) -> None:
        if not rest:  # ``rest``: the unplaced read indices, ascending
            close(last, acc, islands, omega)
            return
        for k, j in enumerate(rest):
            others = rest[:k] + rest[k + 1 :]
            walk(j, trip[j], islands + [acc], omega + [0], others)
            for l, w in options[last][j]:
                merged = _overlay(acc, trip[j], l)
                if merged is not None:
                    walk(j, merged, islands, omega + [w], others)

    walk(0, trip[0], [], [], tuple(range(1, K)))
    del walk  # it refers to itself, so it would leave a cycle for the collector
    survivors = [
        islands
        for islands in seen
        if not check_coverage
        or thresholds.typical_coverage(sum(k.bit_count() for _, k, _ in islands))
    ]

    # Codeword matching.  A merge only fills erasures where both reads
    # agree, so every read is a compatible substring of its island (on a
    # folded ring, at a position taken mod n).  A codeword that holds all
    # islands of a claim therefore holds every read and is one of the
    # oracle's; only those are tested, in one lane pass per claim.  An
    # island longer than n (overclaimed chains can exceed n) matches nothing.
    oracle = np.flatnonzero(_holds_every_read(codebook.rows, params.n, trip))
    rows = codebook.rows[oracle]
    held = np.zeros(len(oracle), dtype=bool)
    for islands in survivors:
        if held.all():
            break
        if all(l <= params.n for _, _, l in islands):
            held |= _holds_every_read(rows, params.n, islands)
    ordered = tuple(oracle[held].tolist())
    message = ordered[0] if len(ordered) == 1 else None
    return DecodeResult(
        message=message,
        candidate_codewords=ordered,
        island_sets=tuple(survivors),
        tuples_visited=visited,
    )
