"""Ordering reads and merging them into islands.

Against ground truth, reads are ordered cyclically by start position and
consecutive reads overlap by ``max(0, L - gap)`` symbols.  Maximal runs of
positive overlap merge into islands; a zero overlap closes an island.  When
every cyclic adjacency overlaps, the reads wrap the whole circle and the
result is a single island flagged ``circular``.

``build_islands`` is the decoder-facing constructor: it takes a claimed
ordering plus per-adjacency overlap choices and either produces the islands
or fails at the first adjacency that cannot merge as claimed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelOutput, cyclic_gaps
from .tritstring import MergeError, TritString, _splice, fold_cyclic

__all__ = [
    "MergeFailure",
    "TrueOrdering",
    "OrderedMerge",
    "IslandSet",
    "true_ordering",
    "true_ordered_merge",
    "build_islands",
    "true_islands",
]


class MergeFailure(Exception):
    """A claimed merge could not be carried out.

    ``index`` is the position in the ordering whose adjacency failed.
    """

    def __init__(self, index: int, reason: str):
        super().__init__(f"merge failed at ordering position {index}: {reason}")
        self.index = index
        self.reason = reason


class TrueOrdering(NamedTuple):
    """Reads sorted by true start, with per-adjacency overlap data.

    ``zeta[i]`` is the read index at cyclic position ``i``; ``overlaps[i]``
    is the overlap length between positions ``i`` and ``i+1`` (wrapping);
    ``omega[i]`` counts the unerased symbols in that merging suffix.
    """

    zeta: tuple[int, ...]
    overlaps: tuple[int, ...]
    omega: tuple[int, ...]


@dataclass(frozen=True)
class OrderedMerge:
    """A claimed ordering with per-adjacency suffix sizes and the overlap
    lengths chosen to realize them.  ``omega[i] == 0`` means "no merge" and
    requires ``overlap_choice[i] == 0``."""

    zeta: tuple[int, ...]
    omega: tuple[int, ...]
    overlap_choice: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.zeta)
        if len(self.omega) != k or len(self.overlap_choice) != k:
            raise ValueError("zeta, omega and overlap_choice must share a length")
        if sorted(self.zeta) != list(range(k)):
            raise ValueError("zeta must be a permutation of 0..K-1")
        for i, (w, l) in enumerate(zip(self.omega, self.overlap_choice)):
            if (w == 0) != (l == 0):
                raise ValueError(
                    f"position {i}: omega and overlap_choice must be zero together"
                )
            if w < 0 or l < 0:
                raise ValueError(f"position {i}: negative omega or overlap")


@dataclass(frozen=True)
class IslandSet:
    """Merged islands.

    ``members[j]`` lists the read indices merged into island ``j`` in merge
    order.  ``circular`` marks the all-adjacencies-merge case where the
    single island closes on itself.
    """

    islands: tuple[TritString, ...]
    members: tuple[tuple[int, ...], ...]
    circular: bool = False

    def __post_init__(self) -> None:
        if len(self.islands) != len(self.members):
            raise ValueError("one member run per island required")
        if self.circular and len(self.islands) != 1:
            raise ValueError("a circular island set is a single island")

    @property
    def visible_symbols(self) -> int:
        return sum(i.size for i in self.islands)

    def to_json(self) -> str:
        return json.dumps(
            {
                "islands": [i.text for i in self.islands],
                "members": [list(m) for m in self.members],
                "circular": self.circular,
            },
            indent=2,
            sort_keys=True,
        )


def true_ordering(output: ChannelOutput) -> TrueOrdering:
    """Order reads by true start (stable in read index on ties)."""
    if output.truth is None:
        raise ValueError("true ordering needs the truth record")
    n, L = output.params.n, output.params.L
    starts = np.asarray(output.truth.starts, dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    k = len(order)
    overlaps = np.maximum(0, L - cyclic_gaps(starts[order], n))
    symbols = output.decoder_view()
    omega = tuple(
        symbols[int(order[i])].suffix(int(overlaps[i])).size if overlaps[i] else 0
        for i in range(k)
    )
    return TrueOrdering(
        zeta=tuple(int(i) for i in order),
        overlaps=tuple(int(o) for o in overlaps),
        omega=omega,
    )


def true_ordered_merge(output: ChannelOutput) -> OrderedMerge:
    """The decoder-reachable claim matching the ground truth: merge exactly
    where the true merging suffix has visible symbols."""
    zeta, overlaps, omega = true_ordering(output)
    choice = tuple(l if w > 0 else 0 for l, w in zip(overlaps, omega))
    return OrderedMerge(zeta=zeta, omega=omega, overlap_choice=choice)


def _assemble(
    reads: Sequence[TritString],
    zeta: Sequence[int],
    merge_overlap: Sequence[int],
    check_sizes: Sequence[int] | None,
) -> IslandSet:
    """Merge along the cyclic order; ``merge_overlap[i] == 0`` closes an
    island after position ``i``.  With ``check_sizes`` given, each merge must
    be realized by a suffix of exactly that visible size (strict, decoder
    semantics); otherwise merges are positional (ground-truth semantics).
    """
    k = len(zeta)
    strict = check_sizes is not None

    def check_size(l: int, idx: int) -> None:
        read = reads[zeta[idx]]
        got = read.suffix(l).size if l <= read.length else -1
        if l > read.length or got != check_sizes[idx]:
            raise MergeFailure(
                idx, f"suffix of length {l} has size {got}, claimed {check_sizes[idx]}"
            )

    def join(u: TritString, v: TritString, l: int, idx: int) -> TritString:
        # A claim pairs every positive overlap with a positive size, so a
        # passed size check already shows the merging suffix is visible.
        if strict:
            check_size(l, idx)
        try:
            return _splice(u, v, l)
        except MergeError as e:
            raise MergeFailure(idx, str(e)) from e

    zero_positions = [i for i in range(k) if merge_overlap[i] == 0]

    if not zero_positions:
        # Every adjacency merges: one island wrapping the whole cycle.
        chain = reads[zeta[0]]
        for i in range(k - 1):
            chain = join(chain, reads[zeta[i + 1]], merge_overlap[i], i)
        closing = merge_overlap[k - 1]
        if strict:
            check_size(closing, k - 1)
        try:
            island = fold_cyclic(chain, closing)
        except MergeError as e:
            raise MergeFailure(k - 1, str(e)) from e
        return IslandSet(
            islands=(island,),
            members=(tuple(zeta),),
            circular=True,
        )

    islands: list[TritString] = []
    members: list[tuple[int, ...]] = []
    first_zero = zero_positions[0]
    # Walk the cycle starting just after the first boundary, so every island
    # is a contiguous run ending at a zero.
    pos = (first_zero + 1) % k
    current = reads[zeta[pos]]
    run = [zeta[pos]]
    for _ in range(k - 1):
        nxt = (pos + 1) % k
        if merge_overlap[pos] == 0:
            islands.append(current)
            members.append(tuple(run))
            current = reads[zeta[nxt]]
            run = [zeta[nxt]]
        else:
            current = join(current, reads[zeta[nxt]], merge_overlap[pos], pos)
            run.append(zeta[nxt])
        pos = nxt
    islands.append(current)
    members.append(tuple(run))
    return IslandSet(islands=tuple(islands), members=tuple(members), circular=False)


def build_islands(reads: Sequence[TritString], claim: OrderedMerge) -> IslandSet:
    """Construct islands from a claimed ordering, or raise MergeFailure."""
    if len(reads) != len(claim.zeta):
        raise ValueError("claim length does not match read count")
    return _assemble(reads, claim.zeta, claim.overlap_choice, claim.omega)


def true_islands(output: ChannelOutput) -> IslandSet:
    """Ground-truth islands: merge on every strictly positive true overlap,
    visible or not, so erasures never split an island."""
    zeta, overlaps, _ = true_ordering(output)
    return _assemble(output.decoder_view(), zeta, overlaps, None)
