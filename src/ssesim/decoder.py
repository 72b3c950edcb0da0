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
of ``stats.TypicalityThresholds``, and collects every codeword compatible with all islands of some
surviving claim.  A message is decoded only when exactly one codeword
survives.  The search is exponential in the number of reads, so it refuses
more than ``DecoderConfig.max_reads`` of them.

``oracle_decode`` is the information-theoretic reference: it keeps the
codewords that contain every read individually as a compatible substring.
With thresholds disabled (``epsilon = inf``) the two agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .channel import ChannelParams, Read
from .errors import DomainError
from .stats import typicality_thresholds
from .tritstring import (
    TritString,
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
    max_reads: int = _HARD_READ_CAP
    omega_mode: str = "typical-only"
    cyclic: bool = True

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise DomainError(f"epsilon must be positive; got {self.epsilon!r}")
        if not 1 <= self.max_reads <= _HARD_READ_CAP:
            raise DomainError(
                f"max_reads must lie in [1; {_HARD_READ_CAP}]; got {self.max_reads!r}"
            )
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


def oracle_decode(
    codebook: Sequence[TritString], reads: Sequence, cyclic: bool = True
) -> tuple[int, ...]:
    """Codebook indices whose codeword contains every read as a compatible
    substring.  The tightest test any decoder can apply per read alone."""
    syms = [_symbols(r) for r in reads]
    out = []
    for w, x in enumerate(codebook):
        if all(compatible_substring_positions(s, x, cyclic=cyclic) for s in syms):
            out.append(w)
    return tuple(out)


def typicality_decode(
    codebook: Sequence[TritString],
    reads: Sequence,
    params: ChannelParams,
    config: DecoderConfig | None = None,
) -> DecodeResult:
    """Run the claim-enumeration decoder against a codebook."""
    if config is None:
        config = DecoderConfig()
    syms = [_symbols(r) for r in reads]
    K = len(syms)
    if K == 0:
        raise DomainError("cannot decode from zero reads")
    if K > config.max_reads:
        raise SearchSpaceError(
            f"{K} reads exceed the search cap of {config.max_reads}"
        )
    if K != params.K:
        raise DomainError(f"params expect {params.K} reads; got {K}")

    check_omega = config.omega_mode == "typical-only" and not math.isinf(
        config.epsilon
    )
    thresholds = typicality_thresholds(params, config.epsilon)
    # The search works on raw (bits, known, length) triples; TritString
    # construction is deferred to the few surviving island sets.
    trip = [(s.bits, s.known, s.length) for s in syms]
    opt_table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def options(i: int, j: int) -> tuple[tuple[int, int], ...]:
        key = (i, j)
        if key not in opt_table:
            opt_table[key] = _merge_options(syms[i], syms[j])
        return opt_table[key]

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

    n = params.n

    def close(last, acc, islands, omega) -> None:
        # Adjacency from the final position back to read 0.
        record(islands + [acc], omega + [0])
        ab, ak, al = acc
        for l, w in options(last, 0):
            off = al - l
            mask = (1 << l) - 1
            if islands:
                fb, fk, fl = islands[0]
                if ((ab >> off) ^ fb) & (ak >> off) & fk & mask:
                    continue
                first = (ab | (fb << off), ak | (fk << off), off + fl)
                record([first] + islands[1:], omega + [w])
            elif off == n:
                # No break anywhere: wrapping the cycle exactly once means
                # the chain advances exactly n.  A shorter period would
                # claim the codeword repeats itself, which a window match
                # cannot check, so such claims are discarded as impossible.
                tb, tk = ab >> off, ak >> off
                if (tb ^ ab) & tk & ak & mask:
                    continue
                head = (1 << off) - 1
                record([((ab & head) | tb, (ak & head) | tk, off)], omega + [w])

    def walk(last, acc, islands, omega) -> None:
        if all(used):
            close(last, acc, islands, omega)
            return
        ab, ak, al = acc
        for j in range(1, K):
            if used[j]:
                continue
            used[j] = True
            walk(j, trip[j], islands + [acc], omega + [0])
            vb, vk, vl = trip[j]
            for l, w in options(last, j):
                off = al - l
                if ((ab >> off) ^ vb) & (ak >> off) & vk & ((1 << l) - 1):
                    continue
                walk(j, (ab | (vb << off), ak | (vk << off), off + vl), islands, omega + [w])
            used[j] = False

    walk(0, trip[0], [], [])

    # Codeword matching, cached per distinct island.  An island longer than
    # a codeword (overclaimed chains can exceed n) matches nothing.
    M = len(codebook)
    lens = [len(x) for x in codebook]
    if config.cyclic:
        xb2 = [x.bits | (x.bits << len(x)) for x in codebook]
        xk2 = [x.known | (x.known << len(x)) for x in codebook]
    else:
        xb2 = [x.bits for x in codebook]
        xk2 = [x.known for x in codebook]
    compat_cache: dict[tuple[int, int, int], frozenset[int]] = {}

    def fits(b: int, k: int, ln: int, w: int) -> bool:
        xb, xk = xb2[w], xk2[w]
        limit = lens[w] if config.cyclic else lens[w] - ln + 1
        for j in range(limit):
            if not ((xb >> j) ^ b) & (xk >> j) & k:
                return True
        return False

    def matching(t: tuple[int, int, int]) -> frozenset[int]:
        got = compat_cache.get(t)
        if got is None:
            b, k, ln = t
            got = frozenset(w for w in range(M) if ln <= lens[w] and fits(b, k, ln, w))
            compat_cache[t] = got
        return got

    all_words = frozenset(range(M))
    codewords: set[int] = set()
    for islands in survivors:
        live = all_words
        for t in islands:
            live &= matching(t)
            if not live:
                break
        codewords |= live

    ordered = tuple(sorted(codewords))
    message = ordered[0] if len(ordered) == 1 else None
    text_cache: dict[tuple[int, int, int], str] = {}

    def text_of(t: tuple[int, int, int]) -> str:
        got = text_cache.get(t)
        if got is None:
            got = text_cache[t] = TritString(bits=t[0], known=t[1], length=t[2]).text
        return got

    island_texts = sorted(tuple(sorted(text_of(t) for t in islands)) for islands in survivors)
    return DecodeResult(
        message=message,
        candidate_codewords=ordered,
        candidate_islands=tuple(island_texts),
        tuples_visited=visited,
    )
