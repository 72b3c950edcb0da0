"""Strings over the ternary alphabet {0, 1, erased}.

A trit string is stored as two parallel bit-planes packed into Python
integers: a value plane and a visibility mask.  Bit ``i`` of each plane
describes position ``i`` (LSB first).  Erased positions carry a zero value
bit, so compatibility tests and merges reduce to a handful of word-parallel
integer operations regardless of string length.  Substring matching tests
every window start at once with a shift-and mask (Baeza-Yates & Gonnet,
CACM 1992): one step per visible needle symbol, not one per shift.

Text form uses ``'0'``, ``'1'`` and ``'*'`` (erased).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ERASED",
    "MergeError",
    "TritString",
    "compatible",
    "is_l_compatible",
    "compatible_substring_positions",
    "merge",
]

ERASED = "*"


class MergeError(ValueError):
    """A requested merge or fold violates its preconditions."""


def _mask(length: int) -> int:
    return (1 << length) - 1


# Text of four positions, indexed by value nibble << 4 | visibility nibble.
_NIBBLE_TEXT = tuple(
    "".join("01"[b >> j & 1] if k >> j & 1 else ERASED for j in range(4))
    for b in range(16)
    for k in range(16)
)


@dataclass(frozen=True, slots=True)
class TritString:
    """Immutable string over {0, 1, erased}.

    ``bits`` holds symbol values (bit ``i`` = position ``i``) and must be 0
    wherever ``known`` is 0; ``known`` marks unerased positions.
    """

    bits: int
    known: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        full = _mask(self.length)
        if self.known & ~full:
            raise ValueError("visibility mask has bits beyond the string length")
        if self.bits & ~self.known:
            raise ValueError("value bits are only allowed at unerased positions")

    @classmethod
    def from_text(cls, text: str) -> "TritString":
        """Parse a string of '0', '1' and '*' characters."""
        bad = text.replace("0", "").replace("1", "").replace(ERASED, "")
        if bad:
            i = text.index(bad[0])
            raise ValueError(f"invalid symbol {bad[0]!r} at position {i + 1}")
        # Binary digit strings convert to int in linear time, MSB first.
        rev = text[::-1]
        bits = int(rev.replace(ERASED, "0") or "0", 2)
        known = int(rev.replace("0", "1").replace(ERASED, "0") or "0", 2)
        return cls(bits, known, len(text))

    @classmethod
    def binary(cls, bits: int, length: int) -> "TritString":
        """Fully visible string with the given value bits."""
        return cls(bits, _mask(length), length)

    @property
    def text(self) -> str:
        size = (self.length + 7) // 8
        t = _NIBBLE_TEXT
        return "".join(
            t[(b & 15) << 4 | k & 15] + t[b & 240 | k >> 4]
            for b, k in zip(
                self.bits.to_bytes(size, "little"), self.known.to_bytes(size, "little")
            )
        )[: self.length]

    @property
    def size(self) -> int:
        """Number of unerased positions."""
        return self.known.bit_count()

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return self.text

    def suffix(self, length: int) -> "TritString":
        if not 0 <= length <= self.length:
            raise ValueError(f"suffix length {length} out of range [0, {self.length}]")
        shift = self.length - length
        return TritString(self.bits >> shift, self.known >> shift, length)


def compatible(u: TritString, v: TritString) -> bool:
    """Equal-length strings that disagree nowhere both are unerased."""
    if u.length != v.length:
        raise ValueError(f"length mismatch: {u.length} != {v.length}")
    return ((u.bits ^ v.bits) & u.known & v.known) == 0


def is_l_compatible(u: TritString, v: TritString, l: int) -> bool:
    """The l-suffix of ``u`` is compatible with the l-prefix of ``v``.

    ``l = 0`` is a legal query and vacuously true.
    """
    if not 0 <= l <= min(u.length, v.length):
        raise ValueError(f"overlap {l} out of range [0, {min(u.length, v.length)}]")
    raw_u, raw_v = (u.bits, u.known, u.length), (v.bits, v.known, v.length)
    return _overlay(raw_u, raw_v, l) is not None


def compatible_substring_positions(
    v: TritString, u: TritString, cyclic: bool = False
) -> frozenset[int]:
    """1-based window starts of ``u`` where ``v`` sits compatibly.

    With ``cyclic=True`` windows wrap around the end of ``u`` and every
    start in [1, len(u)] is tried; otherwise only windows that fit.
    ``v`` is a compatible substring of ``u`` iff the result is non-empty.
    All starts are tested together, at one step per visible symbol of ``v``.
    """
    if v.length > u.length:
        raise ValueError(f"needle longer than haystack: {v.length} > {u.length}")
    hb, hk = u.bits, u.known
    if cyclic:
        hb |= u.bits << u.length
        hk |= u.known << u.length
        limit = u.length
    else:
        limit = u.length - v.length + 1
    hits = _shift_and((v.bits, v.known, v.length), hb, hk, _mask(limit))
    out = []
    while hits:
        low = hits & -hits
        out.append(low.bit_length())  # 0-based start p is bit p, so p + 1
        hits ^= low
    return frozenset(out)


def _shift_and(v: tuple[int, int, int], hb: int, hk: int, starts: int) -> int:
    """Raw shift-and kernel: the bits of ``starts`` (bit p = 0-based window
    start p on the haystack planes ``hb``/``hk``) at which the needle triple
    ``v`` sits compatibly.

    Each visible needle symbol j clears the starts whose haystack symbol
    p + j is visible and differs, and the walk stops once no start is left.
    Bits past the haystack's end read as erased, so the caller sets only
    starts whose windows fit.  No range checks.
    """
    vb, vk, vl = v
    zeros = hk ^ hb  # visible haystack zeros; value bits lie inside hk
    for j in range(vl):
        if not starts:
            break
        if vk >> j & 1:
            starts &= ~((zeros if vb >> j & 1 else hb) >> j)
    return starts


def merge(u: TritString, v: TritString, l: int) -> TritString:
    """Overlap-merge ``u`` and ``v``: the l-suffix of ``u`` is laid over the
    l-prefix of ``v`` and each overlap position takes the unerased symbol
    when one side has it.

    Requires 1 <= l (a zero overlap is "no merge", never a merge), the
    strings to be l-compatible, and the merging suffix of ``u`` to contain
    at least one unerased symbol.
    """
    if not 1 <= l <= min(u.length, v.length):
        raise MergeError(f"overlap {l} out of range [1, {min(u.length, v.length)}]")
    s = _overlay((u.bits, u.known, u.length), (v.bits, v.known, v.length), l)
    if s is None:
        raise MergeError(f"strings are not {l}-compatible")
    if (u.known >> (u.length - l)) == 0:
        raise MergeError(f"merging suffix of length {l} has no unerased symbols")
    return TritString(*s)


def _overlay(u: tuple[int, int, int], v: tuple[int, int, int], l: int):
    """Raw kernel on (bits, known, length) triples: ``v`` laid over the
    l-suffix of ``u``, or None where they clash.  No range checks."""
    (ub, uk, ul), (vb, vk, vl) = u, v
    off = ul - l
    if ((ub >> off) ^ vb) & (uk >> off) & vk & _mask(l):
        return None
    return ub | (vb << off), uk | (vk << off), off + vl


def _fold(u: tuple[int, int, int], l: int):
    """Raw kernel: ``u`` closed onto itself, its l-suffix laid over its
    l-prefix, leaving one period; None where they clash.  No range checks:
    the caller keeps 1 <= l <= period, since a tail that wraps past one
    full turn has no consistent placement."""
    ub, uk, ul = u
    period = ul - l
    tb, tk = ub >> period, uk >> period
    if (tb ^ ub) & tk & uk & _mask(l):
        return None
    head = _mask(period)
    return (ub & head) | tb, (uk & head) | tk, period
