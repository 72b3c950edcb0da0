"""Typicality decoding over claimed read orderings.

A *claim* is a cyclic ordering of the reads plus, for each adjacency, either
"no merge" or an overlap length whose suffix in the earlier raw read has at
least one unerased symbol.  Assembling a claim merges consecutive reads into
islands, breaking at the no-merge adjacencies; a claim with no break folds
into a single circular island, which is only consistent when the chain
advances exactly n positions.  Claims whose merges hit a symbol conflict are
discarded.

``typicality_decode`` enumerates all assemblable claims (the first read is
pinned to position zero, which costs nothing by rotation invariance), keeps
those whose suffix-size tuple and island coverage pass the two-sided tests
of ``stats.TypicalityThresholds``, and keeps each codeword of
``oracle_decode`` that cyclically holds every island of some surviving
claim.  A message is decoded only when exactly one codeword survives.  The
search is exponential in the number of reads, so it refuses more than
``_HARD_READ_CAP`` (8) of them.

``oracle_decode`` is the information-theoretic reference: it keeps the
codewords that contain every read individually as a compatible cyclic
substring.
With thresholds disabled (``epsilon = inf``) the two agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .channel import ChannelParams, Read
from .errors import DomainError
from .stats import typicality_thresholds
from .tritstring import (
    TritString,
    _fold,
    _mask,
    _overlay,
    _shift_and,
    compatible_substring_positions,
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


def _symbols(read) -> TritString:
    if isinstance(read, Read):
        return read.symbols
    if isinstance(read, TritString):
        return read
    raise DomainError(f"expected Read or TritString; got {type(read).__name__}")


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


def oracle_decode(codebook: Sequence[TritString], reads: Sequence) -> tuple[int, ...]:
    """Codebook indices whose codeword contains every read as a compatible
    cyclic substring.  The tightest test any decoder can apply per read
    alone.

    Codewords of one length are tested together: codeword i, followed by
    its first ``longest read - 1`` symbols, fills byte-aligned lane i of one
    integer per bit-plane, and each read runs the shift-and kernel once
    over all lanes still live.
    """
    syms = [_symbols(r) for r in reads]
    longest = max((s.length for s in syms), default=0)
    groups: dict[int, list[int]] = {}
    for w, x in enumerate(codebook):
        if len(x) < longest:
            raise DomainError(f"a read is longer than codeword {w}")
        groups.setdefault(len(x), []).append(w)
    out = []
    for n, ws in groups.items():
        alive = _holds_every_read([codebook[w] for w in ws], n, longest, syms)
        out += (w for w, a in zip(ws, alive) if a)
    return tuple(sorted(out))


def _holds_every_read(
    words: list[TritString], n: int, longest: int, syms: list[TritString]
) -> np.ndarray:
    """Bool per codeword of length ``n``: it holds every read cyclically."""
    extra = max(longest - 1, 0)
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
    for s in syms:
        starts = int.from_bytes((alive[:, None] * first).tobytes(), "little")
        hits = _shift_and((s.bits, s.known, s.length), hb, hk, starts)
        raw = hits.to_bytes(len(words) * lane, "little")
        alive = np.frombuffer(raw, dtype=np.uint8).reshape(len(words), lane).any(axis=1)
        if not alive.any():
            break
    return alive


def typicality_decode(
    codebook: Sequence[TritString],
    reads: Sequence,
    params: ChannelParams,
    config: DecoderConfig = DecoderConfig(),
) -> DecodeResult:
    """Run the claim-enumeration decoder against a codebook."""
    syms = [_symbols(r) for r in reads]
    K = len(syms)
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
    if any(len(s) != params.L for s in syms):
        raise DomainError(f"params expect reads of length L={params.L}")

    check_omega = config.omega_mode == "typical-only" and not math.isinf(
        config.epsilon
    )
    thresholds = typicality_thresholds(params, config.epsilon)
    # The search works on raw (bits, known, length) triples; TritString
    # construction is deferred to the few surviving island sets.
    trip = [(s.bits, s.known, s.length) for s in syms]

    @cache
    def options(i: int, j: int) -> tuple[tuple[int, int], ...]:
        return _merge_options(syms[i], syms[j])

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
    # oracle's; only those are tested.  An island longer than a codeword
    # (overclaimed chains can exceed n) matches nothing.
    @cache
    def holds(t: tuple[int, int, int], w: int) -> bool:
        x = codebook[w]
        return t[2] <= len(x) and bool(
            compatible_substring_positions(TritString(*t), x, cyclic=True)
        )

    ordered = tuple(
        w
        for w in oracle_decode(codebook, syms)
        if any(all(holds(t, w) for t in islands) for islands in survivors)
    )
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
