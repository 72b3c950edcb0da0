"""Random codebooks and the cyclic-read erasure channel.

A length-``n`` binary codeword is read ``K`` times.  Each read starts at a
uniformly random position (1-based, wrapping around the end), spans ``L``
symbols, and then every symbol is independently erased with probability
``delta``.  The decoder sees the multiset of reads only; start positions and
the codeword stay in a separate ground-truth record.

Randomness follows a splittable scheme: every consumer derives its stream
from a master seed plus a fixed integer path, so results never depend on
call order or thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .tritstring import TritString

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
    "random_codeword",
    "random_codebook",
    "cyclic_gaps",
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

# Largest codeword length n, read-symbol count K*L or codebook size count*n
# the channel builds arrays for; n = 1e8 at coverage 2 needs 2e8.
_MAX_SYMBOLS = 2**30
# Read symbols per block of whole rows: the erasure uniforms are drawn, and
# the packed reads filled and scanned, one block at a time.
_ERASURE_BLOCK = 2**16


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


@dataclass(frozen=True, eq=False)
class Truth:
    """Ground truth sealed away from the decoder."""

    message: int | None
    codeword: TritString
    starts: np.ndarray  # (K,) int64, 1-based

    def __post_init__(self) -> None:
        self.starts.setflags(write=False)

    @cached_property
    def order(self) -> np.ndarray:
        """Read indices in start order, tied starts in any order: the one
        sort of the starts that the trial stages share."""
        order = np.argsort(self.starts)
        order.setflags(write=False)
        return order


@dataclass(eq=False)
class ChannelOutput:
    """Multiset of reads plus (optionally) the ground-truth record.

    ``values``/``known`` are (K, ceil(L/8)) uint8 bit-planes: bit j (LSB
    first) of row i is symbol j of read i, as ``np.packbits(a, axis=1,
    bitorder="little")`` packs a (K, L) array ``a``.  ``known`` marks the
    unerased symbols and has no bit set past L; ``values`` holds the
    symbol values, read only where ``known`` is set.
    """

    params: ChannelParams
    values: np.ndarray
    known: np.ndarray
    truth: Truth | None = None

    def __post_init__(self) -> None:
        L = self.params.L
        expect = (self.params.K, _plane_width(L))
        for plane in (self.values, self.known):
            if plane.shape != expect or plane.dtype != np.uint8:
                raise ValueError(f"read planes must be uint8 arrays of shape {expect}")
        if L % 8 and np.any(self.known[:, -1] >> (L % 8)):
            raise ValueError(f"known has bits set past the read length {L}")
        self.values.setflags(write=False)
        self.known.setflags(write=False)

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
        doc: dict = {
            "params": {
                "n": self.params.n,
                "L": self.params.L,
                "K": self.params.K,
                "delta": float(self.params.delta),
            },
            "reads": [{"symbols": s.text} for s in self.reads],
        }
        if include_truth and self.truth is not None:
            doc["truth"] = {
                "w": self.truth.message,
                "x": self.truth.codeword.text,
                "starts": [int(s) for s in self.truth.starts],
            }
        return json.dumps(doc, indent=2, sort_keys=True)


def _plane_width(L: int) -> int:
    """Bytes per row of a packed bit-plane of L symbols."""
    return (L + 7) // 8


def _row_int(row: np.ndarray) -> int:
    """The integer bit-plane of one packed uint8 row, bit j = symbol j."""
    return int.from_bytes(row.tobytes(), "little")


def _pack_rows(rows: np.ndarray) -> list[int]:
    """One integer bit-plane per row of a 2-D array, nonzero entries set."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    # Lets a temporary argument, such as a fresh draw, be freed before the
    # integers are built.
    del rows
    return [_row_int(row) for row in packed]


def _uniform_binary(
    rng: np.random.Generator, count: int, n: int
) -> tuple[TritString, ...]:
    """``count`` uniform fully visible strings of length n: one uint8 draw,
    packed in one call and released before the strings are built."""
    planes = _pack_rows(rng.integers(0, 2, size=(count, n), dtype=np.uint8))
    return tuple(TritString.binary(v, n) for v in planes)


def _check_symbols(count: int, what: str) -> None:
    if count > _MAX_SYMBOLS:
        raise DomainError(f"{what} = {count} exceeds the limit of {_MAX_SYMBOLS} symbols")


def random_codeword(n: int, seed) -> TritString:
    """Uniform binary codeword of length n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    _check_symbols(n, "n")
    return _uniform_binary(stage_rng(seed, STAGE_CODEBOOK), 1, n)[0]


def random_codebook(n: int, count: int, seed) -> tuple[TritString, ...]:
    """``count`` i.i.d. uniform binary codewords."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 1 <= count <= DEFAULT_CODEBOOK_CAP:
        raise DomainError(f"codebook size {count} outside [1, {DEFAULT_CODEBOOK_CAP}]")
    _check_symbols(count * n, "codebook size times n")
    return _uniform_binary(stage_rng(seed, STAGE_CODEBOOK), count, n)


def _sample_starts(params: ChannelParams, seed) -> np.ndarray:
    rng = stage_rng(seed, STAGE_STARTS)
    return rng.integers(0, params.n, size=params.K)


def cyclic_gaps(sorted_starts: np.ndarray, n: int) -> np.ndarray:
    """Forward distance from each sorted start to the next one, the last
    wrapping round to the first.  A single start gets the gap ``n``."""
    starts = np.asarray(sorted_starts)
    # Written in place: ``np.diff(append=...)`` copies the starts first.
    gaps = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=gaps[:-1])
    gaps[-1] = starts[0] + n - starts[-1]
    return gaps


def _packed_extension(x: TritString, L: int) -> np.ndarray:
    """The bits of ``x`` followed by its first L - 1, packed LSB first into
    uint8 bytes, so that ring position (p + j) mod n is bit p + j for
    0 <= p < n, 0 <= j < L.  Zero bytes pad it so that the ceil(L/8) + 1
    bytes from byte p >> 3 on exist for every start p."""
    n = x.length
    ext = x.bits | (x.bits & ((1 << (L - 1)) - 1)) << n
    size = (n - 1) // 8 + _plane_width(L) + 1
    return np.frombuffer(ext.to_bytes(size, "little"), dtype=np.uint8)


def _row_blocks(K: int, L: int) -> list[slice]:
    """Slices of whole reads, in order, of at most ``_ERASURE_BLOCK``
    symbols (one read if L is longer): the unit in which a stage draws,
    gathers or unpacks read symbols."""
    rows = max(1, _ERASURE_BLOCK // L)
    return [slice(i, i + rows) for i in range(0, K, rows)]


def transmit_codeword(
    x: TritString, params: ChannelParams, seed, message: int | None = None
) -> ChannelOutput:
    """One full channel use of the codeword ``x``: K reads at uniform cyclic
    starts (with replacement), then every read symbol erased independently
    with probability delta.  Starts and erasures draw from separate
    substreams of ``seed``.

    The reads are built a block of rows at a time and packed.  The generator
    fills arrays in row-major order, so the erasures equal those of a single
    ``random((K, L)) >= delta`` draw.
    """
    if x.length != params.n:
        raise DomainError(f"codeword length {x.length} != n={params.n}")
    if x.size != params.n:
        raise DomainError("channel input must be a fully visible binary string")
    K, L = params.K, params.L
    _check_symbols(K * L, "K * L")
    starts0 = _sample_starts(params, seed)
    rng = stage_rng(seed, STAGE_ERASURES)
    delta, width = float(params.delta), _plane_width(L)
    # Every read's symbols lie in the width + 1 bytes from its start's byte.
    spans = sliding_window_view(_packed_extension(x, L), width + 1)
    values = np.empty((K, width), dtype=np.uint8)
    known = np.empty_like(values)
    for blk in _row_blocks(K, L):
        rows = starts0[blk]
        # Rows zero-padded to whole bytes, so that one flat ``packbits``
        # gives each row its own bytes; packing along axis 1 is far slower.
        mask = np.zeros((len(rows), 8 * width), dtype=bool)
        np.greater_equal(rng.random((len(rows), L)), delta, out=mask[:, :L])
        known[blk] = np.packbits(mask, bitorder="little").reshape(-1, width)
        # Each read's span in little-endian uint64 words, shifted down by its
        # start's bit offset: the low ``shift`` bits of a word carry into
        # the top of the one below.
        span = np.zeros((len(rows), width // 8 + 1), dtype="<u8")
        span.view(np.uint8)[:, : width + 1] = spans[rows >> 3]
        shift = (rows & 7).astype(np.uint64)[:, None]
        carry = span[:, 1:] << np.uint64(1) << (np.uint64(63) - shift)
        span >>= shift
        span[:, :-1] |= carry
        # ``known`` clears the erased symbols and the bits past L.
        np.bitwise_and(span.view(np.uint8)[:, :width], known[blk], out=values[blk])
    starts0 += 1  # the truth record's starts are 1-based
    truth = Truth(message=message, codeword=x, starts=starts0)
    return ChannelOutput(params=params, values=values, known=known, truth=truth)


def transmit(
    codebook: tuple[TritString, ...], w: int, params: ChannelParams, seed
) -> ChannelOutput:
    """Transmit codeword ``w`` (0-based index into the codebook)."""
    if not 0 <= w < len(codebook):
        raise DomainError(f"message index {w} outside [0, {len(codebook) - 1}]")
    return transmit_codeword(codebook[w], params, seed, message=w)
