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
    "generate_codebook",
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
# Uniform floats per erasure draw; the mask is filled in blocks of whole rows.
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


@dataclass(eq=False)
class ChannelOutput:
    """Multiset of reads plus (optionally) the ground-truth record.

    ``values``/``known`` are (K, L) arrays: symbol values with zeros at
    erased positions, and the erasure mask.
    """

    params: ChannelParams
    values: np.ndarray
    known: np.ndarray
    truth: Truth | None = None

    def __post_init__(self) -> None:
        expect = (self.params.K, self.params.L)
        if self.values.shape != expect or self.known.shape != expect:
            raise ValueError(f"read arrays must have shape {expect}")
        self.values.setflags(write=False)
        self.known.setflags(write=False)

    @cached_property
    def reads(self) -> tuple[TritString, ...]:
        """The decoder's view: read symbols only; no starts, no truth."""
        # Masking with ``known`` zeroes any value at an erased position.
        return tuple(
            TritString(v & k, k, self.params.L)
            for v, k in zip(_pack_rows(self.values), _pack_rows(self.known))
        )

    @property
    def pre_erasure_values(self) -> np.ndarray:
        """(K, L) symbol array as it left the sampler, before erasures.

        A new gather of the codeword's windows on each access; the channel
        keeps no copy of it.
        """
        if self.truth is None:
            raise ValueError("pre-erasure reads need the truth record")
        ext = _cyclic_extension(self.truth.codeword, self.params.L)
        starts0 = np.asarray(self.truth.starts, dtype=np.int64) - 1
        clean = _gather_reads(ext, starts0, self.params.L)
        clean.setflags(write=False)
        return clean

    @property
    def pre_erasure_reads(self) -> tuple[TritString, ...]:
        """Reads as they left the sampler, before the erasure stage."""
        return tuple(
            TritString.binary(v, self.params.L)
            for v in _pack_rows(self.pre_erasure_values)
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

    @classmethod
    def from_json(cls, text: str) -> "ChannelOutput":
        doc = json.loads(text)
        p = doc["params"]
        params = ChannelParams(n=p["n"], L=p["L"], K=p["K"], delta=p["delta"])
        reads = doc["reads"]
        if len(reads) != params.K:
            raise ValueError(f"document has {len(reads)} reads, expected K={params.K}")
        values = np.zeros((params.K, params.L), dtype=np.uint8)
        known = np.zeros((params.K, params.L), dtype=bool)
        for i, entry in enumerate(reads):
            sym = TritString.from_text(entry["symbols"])
            if sym.length != params.L:
                raise ValueError(f"read {i} has length {sym.length}, expected {params.L}")
            values[i] = _unpack(sym.bits, params.L)
            known[i] = _unpack(sym.known, params.L)
        truth = None
        if "truth" in doc:
            t = doc["truth"]
            codeword = TritString.from_text(t["x"])
            if codeword.length != params.n:
                raise ValueError(
                    f"codeword has length {codeword.length}, expected n={params.n}"
                )
            starts = np.asarray(t["starts"], dtype=np.int64)
            if starts.shape != (params.K,):
                raise ValueError(f"truth needs K={params.K} starts, got {starts.size}")
            if not np.all((starts >= 1) & (starts <= params.n)):
                raise ValueError(f"starts must lie in [1, n={params.n}]")
            truth = Truth(message=t["w"], codeword=codeword, starts=starts)
        return cls(params=params, values=values, known=known, truth=truth)


def _unpack(plane: int, length: int) -> np.ndarray:
    """The first ``length`` bits of ``plane``, LSB first, as a uint8 array."""
    raw = plane.to_bytes((length + 7) // 8 or 1, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :length
    ]


def _pack_rows(rows: np.ndarray) -> list[int]:
    """One integer bit-plane per row of a 2-D array, nonzero entries set."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    # Lets a temporary argument, such as a fresh draw, be freed before the
    # integers are built.
    del rows
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def generate_codebook(n: int, rate: float, seed) -> tuple[TritString, ...]:
    """ceil(2**(n*rate)) i.i.d. uniform binary codewords.

    Refuses sizes beyond ``DEFAULT_CODEBOOK_CAP``; this is a desk-scale tool.
    """
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    exponent = n * rate
    if exponent > math.log2(DEFAULT_CODEBOOK_CAP) + 1e-9:
        raise DomainError(
            f"codebook size 2**{exponent:.4g} exceeds the cap of "
            f"{DEFAULT_CODEBOOK_CAP} codewords"
        )
    if abs(exponent - round(exponent)) < 1e-9:
        count = 2 ** round(exponent)
    else:
        # Tolerate float fuzz from rates derived as log2(count) / n.
        count = math.ceil(2**exponent - 1e-9)
    return random_codebook(n, count, seed)


def random_codebook(n: int, count: int, seed) -> tuple[TritString, ...]:
    """``count`` i.i.d. uniform binary codewords; the explicit-size variant."""
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
    return np.diff(sorted_starts, append=sorted_starts[0] + n)


def _cyclic_extension(x: TritString, L: int) -> np.ndarray:
    """The symbols of ``x`` followed by its first L - 1, so that every cyclic
    window of length L is a slice: ring position (p + j) mod n is index
    p + j of this array for 0 <= p < n, 0 <= j < L."""
    x_arr = _unpack(x.bits, x.length)
    return np.concatenate((x_arr, x_arr[: L - 1]))


def _gather_reads(ext: np.ndarray, starts0: np.ndarray, L: int) -> np.ndarray:
    """(K, L) uint8 copy of the windows at 0-based ``starts0`` of the
    cyclic extension ``ext``; it builds no index array."""
    return sliding_window_view(ext, L)[starts0]


def _erasure_mask(params: ChannelParams, seed) -> np.ndarray:
    """(K, L) bool mask of unerased symbols, ``random >= delta``.

    The uniforms are drawn in blocks of whole rows.  The generator fills
    arrays in row-major order, so the mask equals the one from a single
    ``random((K, L))`` draw.
    """
    rng = stage_rng(seed, STAGE_ERASURES)
    known = np.empty((params.K, params.L), dtype=bool)
    rows = max(1, _ERASURE_BLOCK // params.L)
    for i in range(0, params.K, rows):
        block = known[i : i + rows]
        np.greater_equal(rng.random(block.shape), float(params.delta), out=block)
    return known


def transmit_codeword(
    x: TritString, params: ChannelParams, seed, message: int | None = None
) -> ChannelOutput:
    """One full channel use of the codeword ``x``: K reads at uniform cyclic
    starts (with replacement), then every read symbol erased independently
    with probability delta.  Starts and erasures draw from separate
    substreams of ``seed``.
    """
    if x.length != params.n:
        raise DomainError(f"codeword length {x.length} != n={params.n}")
    if x.size != params.n:
        raise DomainError("channel input must be a fully visible binary string")
    _check_symbols(params.K * params.L, "K * L")
    starts0 = _sample_starts(params, seed)
    values = _gather_reads(_cyclic_extension(x, params.L), starts0, params.L)
    known = _erasure_mask(params, seed)
    values &= known  # symbols are 0/1, so this zeroes the erased ones
    truth = Truth(message=message, codeword=x, starts=(starts0 + 1).astype(np.int64))
    return ChannelOutput(params=params, values=values, known=known, truth=truth)


def transmit(
    codebook: tuple[TritString, ...], w: int, params: ChannelParams, seed
) -> ChannelOutput:
    """Transmit codeword ``w`` (0-based index into the codebook)."""
    if not 0 <= w < len(codebook):
        raise DomainError(f"message index {w} outside [0, {len(codebook) - 1}]")
    return transmit_codeword(codebook[w], params, seed, message=w)
