"""Ground-truth ordering of reads and their islands, the reference that the
decoder and coverage tests compare against.

Against ground truth, reads are ordered cyclically by start position and
consecutive reads overlap by ``max(0, L - gap)`` symbols.  Maximal runs of
positive overlap merge into islands, visible or not; a zero overlap closes
an island.  When every cyclic adjacency overlaps, the reads wrap the whole
circle and the result is a single island flagged ``circular``.

Merges and folds run on the package's raw ``(bits, known, length)``
kernels.  Windows of one codeword never clash, so a clash fails an
assertion.
"""

import numpy as np

from ssesim.channel import cyclic_gaps
from ssesim.tritstring import TritString, _fold, _overlay


def true_ordering(output):
    """``(zeta, overlaps, omega)`` of the reads sorted by true start, stable
    in read index on ties.

    ``zeta[i]`` is the read index at cyclic position ``i``; ``overlaps[i]``
    is the overlap length between positions ``i`` and ``i+1`` (wrapping);
    ``omega[i]`` counts the unerased symbols in that merging suffix.
    """
    n, L = output.params.n, output.params.L
    starts = np.asarray(output.truth.starts, dtype=np.int64)
    order = np.argsort(starts, kind="stable")
    overlaps = np.maximum(0, L - cyclic_gaps(starts[order], n))
    zeta, overlaps = tuple(int(r) for r in order), tuple(int(o) for o in overlaps)
    reads = output.reads
    omega = tuple((reads[r].known >> (L - o)).bit_count() for r, o in zip(zeta, overlaps))
    return zeta, overlaps, omega


def _assemble(reads, zeta, merge_overlap):
    """``(islands, members, circular)``: the reads merged positionally along
    the cyclic order ``zeta``, where ``merge_overlap[i] == 0`` closes an
    island after position ``i``.

    ``islands`` are ``TritString``s; ``members[j]`` lists the read indices
    merged into island ``j`` in merge order; ``circular`` marks the case
    where every adjacency merges and the single island closes on itself.
    """
    k = len(zeta)
    raw = [(r.bits, r.known, r.length) for r in reads]

    def splice(acc, i, l):
        merged = _overlay(acc, raw[i], l)
        assert merged is not None, "windows of one codeword clashed"
        return merged

    zero_positions = [i for i in range(k) if merge_overlap[i] == 0]
    if not zero_positions:
        chain = raw[zeta[0]]
        for i in range(k - 1):
            chain = splice(chain, zeta[i + 1], merge_overlap[i])
        ring = _fold(chain, merge_overlap[k - 1])
        assert ring is not None, "windows of one codeword clashed"
        return (TritString(*ring),), (tuple(zeta),), True

    islands, members = [], []
    # Walk the cycle starting just after the first boundary, so every island
    # is a contiguous run ending at a zero.
    pos = (zero_positions[0] + 1) % k
    current, run = raw[zeta[pos]], [zeta[pos]]
    for _ in range(k - 1):
        nxt = (pos + 1) % k
        if merge_overlap[pos] == 0:
            islands.append(current)
            members.append(tuple(run))
            current, run = raw[zeta[nxt]], [zeta[nxt]]
        else:
            current = splice(current, zeta[nxt], merge_overlap[pos])
            run.append(zeta[nxt])
        pos = nxt
    islands.append(current)
    members.append(tuple(run))
    return tuple(TritString(*s) for s in islands), tuple(members), False


def true_islands(output):
    """Ground-truth islands: merge on every strictly positive true overlap,
    visible or not, so erasures never split an island."""
    zeta, overlaps, _ = true_ordering(output)
    return _assemble(output.reads, zeta, overlaps)


def visible_symbols(islands):
    """Unerased symbols summed over ``islands``."""
    return sum(i.size for i in islands)
