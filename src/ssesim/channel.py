"""Random codebooks and the cyclic-read erasure channel.

A length-``n`` binary codeword is read ``K`` times.  Each read starts at a
uniformly random position (1-based, wrapping around the end), spans ``L``
symbols, and then every symbol is independently erased with probability
``delta``.  Reads are numbered in start order.  The decoder sees the
multiset of reads only, through ``ChannelOutput.reads``; start positions and
the codeword stay in a separate ground-truth record.

Randomness follows a splittable scheme: every consumer derives its stream
from a master seed plus a fixed integer path, so results never depend on
call order or thread count.
"""

from __future__ import annotations

import bisect
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .tritstring import TritString, _mask

__all__ = [
    "STAGE_CODEBOOK",
    "STAGE_STARTS",
    "STAGE_ERASURES",
    "STAGE_MESSAGE",
    "STAGE_TRIAL",
    "STAGE_MZ",
    "DEFAULT_CODEBOOK_CAP",
    "child_seed",
    "stage_rng",
    "ChannelParams",
    "Truth",
    "ChannelOutput",
    "Codebook",
    "random_codeword",
    "random_codebook",
    "transmit_codeword",
    "transmit",
]

# Stream labels for the splittable seed scheme.
STAGE_CODEBOOK = 0
STAGE_STARTS = 1
STAGE_ERASURES = 2
STAGE_MESSAGE = 3
STAGE_TRIAL = 4
STAGE_MZ = 5

DEFAULT_CODEBOOK_CAP = 4096

# Largest codeword length n or codebook size count*n the channel builds
# arrays for, and largest read-symbol count K*L: n = 1e9 at coverage 2
# needs K*L = 2e9, held packed in K*L/4 bytes.
_MAX_SYMBOLS = 2**30
_MAX_READ_SYMBOLS = 2**31 - 1
# Symbols per block of whole rows: rows of bits (read windows, codewords,
# erasure masks) are gathered, and the packed reads scanned, one block at a
# time.  Codeword symbols are drawn in blocks of the same size.
_ROW_BLOCK = 2**17
# Read symbols per chunk of whole rows over which the erasure rounds run
# (one row if L is longer).  It is part of the erasure stream's definition:
# a chunk's rounds draw before the next chunk's.  A chunk's kept lanes, live
# lanes, one round's raw words and the words they are spread onto are
# 128 KiB each, 512 KiB in all.
_ERASURE_CHUNK = 2**20
# A read symbol is kept iff random() >= delta, where random() = U / 2^53 for
# the top 53 bits U of one raw word: iff U >= ceil(delta * 2^53).
_U_BITS = 53


def child_seed(seed, *path: int) -> np.random.SeedSequence:
    """Derive a child SeedSequence from ``seed`` along a fixed integer path."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + path
        )
    return np.random.SeedSequence(entropy=seed, spawn_key=path)


def stage_rng(seed, *path: int) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, *path))


@dataclass(frozen=True)
class ChannelParams:
    """Channel geometry: codeword length ``n``, read length ``L``, read
    count ``K``, per-symbol erasure probability ``delta``."""

    n: int
    L: int
    K: int
    delta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.L <= self.n:
            raise DomainError(f"L must lie in [1, n={self.n}], got {self.L}")
        if self.K < 1:
            raise DomainError(f"K must be >= 1, got {self.K}")
        if not 0 <= self.delta <= 1:
            raise DomainError(f"delta must lie in [0, 1], got {self.delta}")

    @property
    def c(self) -> float:
        """Coverage depth K*L/n."""
        return self.K * self.L / self.n

    @property
    def lbar(self) -> float:
        """Read length normalized by log2(n)."""
        if self.n < 2:
            raise DomainError("normalized read length needs n >= 2")
        return self.L / math.log2(self.n)

    @classmethod
    def resolve(
        cls,
        n: int,
        delta: float,
        *,
        L: int | None = None,
        lbar: float | None = None,
        K: int | None = None,
        c: float | None = None,
    ) -> "ChannelParams":
        """Build params from exactly one of (L, lbar) and one of (K, c).

        ``lbar`` fixes L = round(lbar * log2 n); ``c`` fixes K = round(c*n/L).
        """
        if (L is None) == (lbar is None):
            raise DomainError("supply exactly one of L and lbar")
        if (K is None) == (c is None):
            raise DomainError("supply exactly one of K and c")
        if L is None:
            if n < 2:
                raise DomainError("lbar needs n >= 2")
            L = _round_finite(lbar * math.log2(n), "lbar * log2(n)")
        if K is None:
            if L < 1:
                raise DomainError(f"derived read length L={L} is not positive")
            K = _round_finite(c * n / L, "c * n / L")
        return cls(n=n, L=L, K=K, delta=delta)


def _round_finite(x: float, what: str) -> int:
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x}")
    return round(x)


class Truth:
    """Ground truth sealed away from the decoder.  ``codeword`` is the
    channel input, a one-row ``Codebook`` (n / 8 bytes), and ``starts`` the
    reads' 1-based starts, a read-only (K,) int32 array in ascending order:
    read i is the read with the i-th smallest start.  It is the record's
    one per-read array, which the trial stages go over a block of reads at
    a time.  An int32 ``starts`` is held as a view, not copied."""

    __slots__ = ("message", "codeword", "starts")

    def __init__(self, message: int | None, codeword: Codebook, starts) -> None:
        s = np.asarray(starts)
        if s.dtype != np.int32:
            info = np.iinfo(np.int32)
            if s.dtype.kind not in "iu" or len(s) and (s.min() < info.min or s.max() > info.max):
                raise ValueError("starts must be integers that fit in int32")
        s = s.astype(np.int32, copy=False).view()
        # Checked a block at a time, with no K-long temporary.
        blocks = (s[b.start : b.stop + 1] for b in _row_blocks(len(s), 1))
        if any(np.count_nonzero(b[1:] < b[:-1]) for b in blocks):
            raise ValueError("starts must be in ascending order")
        s.setflags(write=False)
        self.message, self.codeword, self.starts = message, codeword, s


@dataclass(eq=False)
class ChannelOutput:
    """Multiset of reads plus the ground-truth record they were cut from.

    ``known`` marks the unerased symbols in a (K, ceil(L/8)) uint8 bit-plane
    with no bit set past L: bit j (LSB first) of row i is symbol j of read
    i, as ``np.packbits(a, axis=1, bitorder="little")`` packs a (K, L) array
    ``a``.  ``values``, each read's window in that layout but with the
    ring's next symbols past L, is not stored.  Starts lie in [1, n], and
    read i is the one with the truth's i-th smallest start."""

    params: ChannelParams
    known: np.ndarray
    truth: Truth

    def __post_init__(self) -> None:
        p, truth = self.params, self.truth
        if not isinstance(truth, Truth) or (len(truth.starts), truth.codeword.n) != (p.K, p.n):
            raise ValueError(f"a channel output needs the truth record of its {p.K} reads")
        if self.known.shape != (p.K, _plane_width(p.L)) or self.known.dtype != np.uint8:
            raise ValueError(f"known must be a uint8 array of shape {(p.K, _plane_width(p.L))}")
        if p.L % 8 and self.known[:, -1].max() >> (p.L % 8):
            raise ValueError(f"known has bits set past the read length {p.L}")
        if truth.starts[0] < 1 or truth.starts[-1] > p.n:
            raise ValueError(f"the truth's starts must lie in [1, n={p.n}]")
        self.known.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        """Each read's pre-erasure window, erased symbols included, on
        every access into a fresh read-only plane: the blocks of
        ``_start_windows`` laid one after another.  A row's bits past L are
        not cleared: they hold the ring's next symbols, up to the end of
        the cyclic extension, then zeros.  The decoder's ``reads`` are
        built from it; no concentration trial stage reads it."""
        width = _plane_width(self.params.L)
        values = np.empty((self.params.K, width), dtype=np.uint8)
        for blk, span in _start_windows(self.truth, self.params.L):
            values[blk] = span.view(np.uint8)[:, :width]
        values.setflags(write=False)
        return values

    @cached_property
    def reads(self) -> tuple[TritString, ...]:
        """The decoder's view: read symbols only; no starts, no truth."""
        # Masking with ``known`` zeroes any value at an erased position.
        masked = self.values & self.known
        return tuple(
            TritString(_row_int(v), _row_int(k), self.params.L)
            for v, k in zip(masked, self.known)
        )

    def to_json(self, include_truth: bool = True) -> str:
        texts = [s.text for s in self.reads]
        # Read order is start order, so the decoder's view lists the reads
        # by text: in read order they would give the order of the starts away.
        doc: dict = {
            "params": {**asdict(self.params), "delta": float(self.params.delta)},
            "reads": [{"symbols": t} for t in (texts if include_truth else sorted(texts))],
        }
        if include_truth:
            doc["truth"] = {
                "w": self.truth.message,
                "x": self.truth.codeword[0].text,
                "starts": [int(s) for s in self.truth.starts],
            }
        return json.dumps(doc, indent=2, sort_keys=True)


def _plane_width(L: int) -> int:
    """Bytes per row of a packed bit-plane of L symbols."""
    return (L + 7) // 8


def _row_int(row: np.ndarray) -> int:
    """The integer bit-plane of one packed uint8 row, bit j = symbol j."""
    return int.from_bytes(row.tobytes(), "little")


def _check_symbols(count: int, what: str) -> None:
    if count > _MAX_SYMBOLS:
        raise DomainError(f"{what} = {count} exceeds the limit of {_MAX_SYMBOLS} symbols")


class Codebook(Sequence):
    """A read-only codebook of ``len(rows)`` codewords of length ``n``,
    held packed: bit j (LSB first) of row i is symbol j of codeword i, as
    in ``ChannelOutput``'s planes, with no bit set past n.  Every codeword
    is fully visible.

    Indexing builds that one codeword's ``TritString``; slicing gives a
    ``Codebook`` of the rows, and two codebooks are equal when their
    lengths and rows are.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: np.ndarray, n: int) -> None:
        if rows.ndim != 2 or rows.shape[1] != _plane_width(n) or rows.dtype != np.uint8:
            raise ValueError(f"codebook rows must be uint8 arrays of width {_plane_width(n)}")
        if n % 8 and rows[:, -1].max(initial=0) >> (n % 8):
            raise ValueError(f"codebook rows have bits set past the length {n}")
        rows.setflags(write=False)
        self.rows = rows
        self.n = n

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Codebook(self.rows[i], self.n)
        # In the package only ``ChannelOutput.to_json`` indexes; the decoders
        # read ``rows``, the channel a one-row slice: no trial builds these ints.
        return TritString(_row_int(self.rows[i]), _mask(self.n), self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.rows, other.rows)


def random_codeword(n: int, seed) -> Codebook:
    """Uniform binary codeword of length n, as the read-only one-row
    ``Codebook`` that ``transmit_codeword`` takes: its n / 8 packed bytes,
    ``random_codebook(n, 1, seed)``."""
    return random_codebook(n, 1, seed)


def random_codebook(n: int, count: int, seed) -> Codebook:
    """``count`` i.i.d. uniform binary codewords: the rows of one
    ``rng.integers(0, 2, size=(count, n), dtype=np.uint8)`` draw.

    numpy's bounded uint8 sampler returns bit 7 of each byte of the raw
    64-bit stream, low byte first, so each raw word gives eight symbols.
    The raw words are drawn a block at a time, their bytes shifted down to
    those bits and packed; no byte per symbol outlives its block.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= count <= DEFAULT_CODEBOOK_CAP:
        raise DomainError(f"codebook size {count} outside [1, {DEFAULT_CODEBOOK_CAP}]")
    _check_symbols(count * n, "codeword symbols")
    raw = stage_rng(seed, STAGE_CODEBOOK).bit_generator
    # Bit i of ``packed`` is symbol i of the codewords laid end to end,
    # followed by eight zero bytes.
    size = (count * n + 7) // 8
    packed = np.empty(size + 8, dtype=np.uint8)
    packed[size:] = 0
    for blk in _row_blocks(size, 8):
        draw = raw.random_raw(blk.stop - blk.start).astype("<u8", copy=False).view(np.uint8)
        draw >>= 7
        packed[blk] = np.packbits(draw, bitorder="little")
        del draw  # released before the next block is drawn
    return Codebook(_cut_rows(packed, n, count), n)


def _cut_rows(packed: np.ndarray, n: int, count: int) -> np.ndarray:
    """The ``count`` strings of ``n`` bits laid end to end in ``packed``,
    which holds 8 zero bytes past them, as rows of ``_plane_width(n)`` bytes
    with no bit set past n: codewords, or a chunk's erasure masks.  A
    reshape of the bytes when every string starts on a byte, otherwise
    string i gathered from bit i * n."""
    width = _plane_width(n)
    if n % 8 == 0 or count == 1:
        rows = packed[: count * width].reshape(count, width)
    else:
        rows = np.empty((count, width), dtype=np.uint8)
        first = lambda blk: n * np.arange(blk.start, blk.stop, dtype=np.int64)
        for blk, span in _bit_windows(packed, n, count, first):
            rows[blk] = span.view(np.uint8)[:, :width]
    if n % 8:
        rows[:, -1] &= _mask(n % 8)
    return rows


def _bit_windows(packed: np.ndarray, L: int, count: int, first):
    """``count`` L-bit windows of the packed bytes ``packed``, one
    ``_ROW_BLOCK`` block of rows at a time, as each block's slice and its
    rows of little-endian uint64 words: ``first(blk)`` gives the block's
    first bits, and each row is the span of unaligned words from its first
    bit's byte on, the ``_plane_width(L) // 8 + 1`` that hold L bits from
    any bit of a byte, shifted down by the bit's offset in that byte; no
    byte per symbol is built.  Bit j of a row is bit ``first + j`` of
    ``packed``, up to the words' end, which is at least L."""
    words = np.ndarray((len(packed) - 7,), dtype="<u8", buffer=packed, strides=(1,))
    apart = 8 * np.arange(_plane_width(L) // 8 + 1)
    for blk in _row_blocks(count, L):
        pos = first(blk)
        span = words[(pos >> 3)[:, None] + apart]
        _shift_down(span, pos & 7)
        yield blk, span


def _packed_extension(row: np.ndarray, n: int, L: int, a: int) -> np.ndarray:
    """The bytes from byte ``a`` <= n / 8 on of the n bits of the packed
    ``row`` followed by its first L - 1, and 8 zero bytes: ring position
    (p + j) mod n is bit p + j - 8a, for 8a <= p < n, 0 <= j < L.  Only
    reads whose words pass the row's whole bytes are cut from it."""
    ext = np.zeros(_plane_width(n + L - 1) - a + 8, dtype=np.uint8)
    ext[: len(row) - a] = row[a:]
    # The head, the row's first L - 1 bits, is ORed in at bit n: its bytes
    # shifted up by n's bit offset, and the bits they shift out one byte on.
    head = row[: _plane_width(L - 1)]
    if (L - 1) % 8:
        head = head.copy()
        head[-1] &= _mask((L - 1) % 8)
    at, shift = (n >> 3) - a, n & 7
    ext[at : at + len(head)] |= head << shift
    if shift:
        ext[at + 1 : at + 1 + len(head)] |= head >> (8 - shift)
    return ext


def _start_windows(truth: Truth, L: int):
    """The L-symbol windows of the truth's codeword at its starts, as
    ``_bit_windows`` yields them: each block's slice of reads and its rows
    of words.  Past L a row holds the codeword's next bits, then its first
    L - 1, then zeros.  The windows are cut from the codeword's row while a
    read's words lie in its whole bytes, then from a short tail of the
    packed cyclic extension."""
    row, n, starts = truth.codeword.rows[0], truth.codeword.n, truth.starts
    # Reads before m start before byte a: their words lie in the row's whole bytes.
    a = max(0, (n >> 3) - 8 * (_plane_width(L) // 8 + 1) + 1)
    m = bisect.bisect_right(starts, 8 * a)  # np.searchsorted would copy the starts to int64
    if m:
        yield from _bit_windows(row[: n >> 3], L, m, lambda blk: starts[blk] - 1)
    tail = _packed_extension(row, n, L, a)
    shifted = lambda blk: starts[m + blk.start : m + blk.stop] - (1 + 8 * a)
    for blk, span in _bit_windows(tail, L, len(starts) - m, shifted):
        yield slice(m + blk.start, m + blk.stop), span


def _row_blocks(K: int, L: int, symbols: int = _ROW_BLOCK) -> list[slice]:
    """Slices of whole rows of L symbols out of K, in order, of at most
    ``symbols`` symbols (one row if L is longer): by default the unit in
    which rows of bits are gathered and read symbols scanned."""
    rows = max(1, symbols // L)
    return [slice(i, min(i + rows, K)) for i in range(0, K, rows)]


def _shift_down(span: np.ndarray, shift) -> None:
    """Shift each row of little-endian uint64 words down by its own count of
    0 to 64 bits, or all rows by one count, in place: the low ``shift`` bits
    of a word carry into the top of the one below, and zeros fill the top of
    the last word.  numpy gives 0 for a uint64 shift by 64, so a count of 0
    carries nothing and a count of 64 moves every word down one."""
    shift = np.asarray(shift, dtype=np.uint64)[..., None]
    carry = span[:, 1:] << (np.uint64(64) - shift)
    span >>= shift
    span[:, :-1] |= carry


def _kept_lanes(raw: np.random.BitGenerator, size: int, threshold: int) -> np.ndarray:
    """Which of ``size`` read symbols are kept, bit i of the little-endian
    uint64 words returned (and of their bytes) for symbol i, followed by one
    zero word: a symbol is kept iff its 53-bit uniform U >= ``threshold``.

    The comparison runs bit-sliced.  Symbol i is lane i % 64 of word i // 64,
    and the words run in rounds from U's most significant bit down: each
    round draws one raw word for each word with a lane still tied with the
    threshold, in word order, and bit j of that draw is the next bit of
    lane j's U.  A lane is decided at the first bit where it differs from
    the threshold; once the threshold's remaining bits are all 0, a tied
    lane is at least the threshold whatever its own, so it is kept and the
    rounds stop.  So threshold 0 keeps every symbol and 2^53 erases every
    one, and neither draws a word.

    The word arrays are cut down to the undecided words once fewer than
    half of them are undecided; until then a round's draws are spread onto
    the undecided words in order, and a decided word, with no live lane,
    is left as it is."""
    words = -(-size // 64)
    out = np.zeros(words + 1, dtype="<u8")
    if threshold >> _U_BITS:
        return out
    keep = out[:words]  # cleared lane by lane as lanes are erased
    keep[:] = np.uint64(2**64 - 1)
    keep[-1] >>= np.uint64(-size % 64)
    if not threshold:
        return out
    live = keep.copy()  # lanes still tied with the threshold
    index = None  # the words in ``keep`` and ``live``, once compacted
    undecided = None  # the words of ``live`` with a live lane, if not all
    m = words  # raw words in the next round
    last = (threshold & -threshold).bit_length() - 1
    for b in range(_U_BITS - 1, last - 1, -1):
        u = raw.random_raw(m)
        if undecided is not None:
            # A decided word's entry is cleared by ``u &= live``.
            draw, u = u, np.empty_like(live)
            u[undecided] = draw
            del draw
        u &= live  # the tied lanes whose bit is 1
        live ^= u  # the tied lanes whose bit is 0
        if threshold >> b & 1:
            # The threshold's bit is 1: a 0 puts a lane below it, erased.
            keep ^= live
            live = u
        # Otherwise a 1 puts a lane above it, kept, and a 0 keeps it tied.
        del u
        m = np.count_nonzero(live)
        if m == len(live):
            continue
        if not m:
            break
        undecided = live != 0
        if 2 * m < len(live):
            if index is None:
                index = np.flatnonzero(undecided)
            else:
                out[index] = keep
                index = index[undecided]
            keep, live, undecided = keep[undecided], live[undecided], None
    if index is not None:
        out[index] = keep
    return out


def transmit_codeword(
    x: Codebook, params: ChannelParams, seed, message: int | None = None
) -> ChannelOutput:
    """One full channel use of the codeword ``x``, a one-row ``Codebook``
    such as ``random_codeword`` returns: K reads at uniform cyclic starts
    (with replacement), then every read symbol erased independently with
    probability delta.  Starts and erasures draw from separate substreams
    of ``seed``.  Only the known plane and the starts are drawn: the truth
    record holds ``x`` itself and the sorted starts, and the output's
    ``values`` are gathered from them when read.  Read i is the read with
    the i-th smallest start, and its erasures are row i of the known plane:
    the erasures do not depend on the starts, so this pairing leaves the
    channel's law unchanged.

    The erasures are drawn by ``_kept_lanes`` over the read symbols laid
    end to end in row order, one chunk of ``_ERASURE_CHUNK`` symbols' whole
    rows at a time: a symbol is kept with probability (2^53 - T) / 2^53
    for T = ceil(delta * 2^53), as by ``random() >= delta``.
    """
    # Starts lie in [1, n], so n <= 2^30 keeps them in int32.
    _check_symbols(params.n, "n")
    if not isinstance(x, Codebook) or len(x) != 1:
        raise DomainError("channel input must be a one-row Codebook")
    if x.n != params.n:
        raise DomainError(f"codeword length {x.n} != n={params.n}")
    K, L = params.K, params.L
    if K * L > _MAX_READ_SYMBOLS:
        raise DomainError(f"K * L = {K * L} exceeds the limit of {_MAX_READ_SYMBOLS} symbols")
    raw = stage_rng(seed, STAGE_ERASURES).bit_generator
    threshold = math.ceil(float(params.delta) * 2**_U_BITS)
    known = np.empty((K, _plane_width(L)), dtype=np.uint8)
    for blk in _row_blocks(K, L, _ERASURE_CHUNK):
        r = blk.stop - blk.start
        kept = _kept_lanes(raw, r * L, threshold)
        known[blk] = _cut_rows(kept.view(np.uint8), L, r)
    # The starts, drawn after the erasures so that no start is alive beside
    # their state, are one int32 draw, sorted in place.  For n < 2^32 numpy
    # draws int32 and int64 from the same 32-bit stream, and the 1-based
    # starts as the draw from [0, n) plus 1.
    starts = stage_rng(seed, STAGE_STARTS).integers(1, params.n + 1, size=K, dtype=np.int32)
    starts.sort()
    return ChannelOutput(params=params, known=known, truth=Truth(message, x, starts))


def transmit(codebook: Codebook, w: int, params: ChannelParams, seed) -> ChannelOutput:
    """Transmit codeword ``w`` (0-based index into the codebook), passed on
    as its one-row slice."""
    if not 0 <= w < len(codebook):
        raise DomainError(f"message index {w} outside [0, {len(codebook) - 1}]")
    return transmit_codeword(codebook[w : w + 1], params, seed, message=w)
