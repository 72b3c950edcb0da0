"""Ground-truth ordering of reads and their islands.

Against ground truth, reads are ordered cyclically by start position and
consecutive reads overlap by ``max(0, L - gap)`` symbols.  Maximal runs of
positive overlap merge into islands, visible or not; a zero overlap closes
an island.  When every cyclic adjacency overlaps, the reads wrap the whole
circle and the result is a single island flagged ``circular``.

Claims about an unknown ordering are assembled only by the decoder
(``decoder.typicality_decode``); this module needs the truth record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelOutput, cyclic_gaps
from .tritstring import TritString, _splice, fold_cyclic

__all__ = [
    "TrueOrdering",
    "IslandSet",
    "true_ordering",
    "true_islands",
]


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


def true_ordering(output: ChannelOutput) -> TrueOrdering:
    """Order reads by true start (stable in read index on ties)."""
    if output.truth is None:
        raise ValueError("true ordering needs the truth record")
    n, L = output.params.n, output.params.L
    starts = np.asarray(output.truth.starts, dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    k = len(order)
    overlaps = np.maximum(0, L - cyclic_gaps(starts[order], n))
    symbols = output.reads
    omega = tuple(
        symbols[int(order[i])].suffix(int(overlaps[i])).size if overlaps[i] else 0
        for i in range(k)
    )
    return TrueOrdering(
        zeta=tuple(int(i) for i in order),
        overlaps=tuple(int(o) for o in overlaps),
        omega=omega,
    )


def _assemble(
    reads: Sequence[TritString], zeta: Sequence[int], merge_overlap: Sequence[int]
) -> IslandSet:
    """Merge positionally along the cyclic order; ``merge_overlap[i] == 0``
    closes an island after position ``i``.  Windows of one codeword never
    clash, so a ``MergeError`` here is a bug and propagates.
    """
    k = len(zeta)
    zero_positions = [i for i in range(k) if merge_overlap[i] == 0]

    if not zero_positions:
        # Every adjacency merges: one island wrapping the whole cycle.
        chain = reads[zeta[0]]
        for i in range(k - 1):
            chain = _splice(chain, reads[zeta[i + 1]], merge_overlap[i])
        return IslandSet(
            islands=(fold_cyclic(chain, merge_overlap[k - 1]),),
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
            current = _splice(current, reads[zeta[nxt]], merge_overlap[pos])
            run.append(zeta[nxt])
        pos = nxt
    islands.append(current)
    members.append(tuple(run))
    return IslandSet(islands=tuple(islands), members=tuple(members), circular=False)


def true_islands(output: ChannelOutput) -> IslandSet:
    """Ground-truth islands: merge on every strictly positive true overlap,
    visible or not, so erasures never split an island."""
    zeta, overlaps, _ = true_ordering(output)
    return _assemble(output.reads, zeta, overlaps)
