"""Ground-truth ordering of reads and their islands, the reference that the
decoder and coverage tests compare against, the read-order gaps and
successor distances that the trial's start-order stages are checked
against, and a plain enumerator of the decoder's claims.

Against ground truth, reads are ordered cyclically by start position and
consecutive reads overlap by ``max(0, L - gap)`` symbols.  Maximal runs of
positive overlap merge into islands, visible or not; a zero overlap closes
an island.  When every cyclic adjacency overlaps, the reads wrap the whole
circle and the result is a single island flagged ``circular``.

Merges and folds run on the package's raw ``(bits, known, length)``
kernels.  Windows of one codeword never clash, so a clash fails an
assertion.
"""

import itertools

import numpy as np

from ssesim.stats import TypicalityThresholds
from ssesim.tritstring import (
    MergeError,
    TritString,
    _fold,
    _overlay,
    compatible_substring_positions,
    is_l_compatible,
    merge,
)


def cyclic_gaps(sorted_starts, n):
    """Forward distance from each sorted start to the next one, the last
    wrapping round to the first, as int64.  A single start gets the gap
    ``n``."""
    starts = np.asarray(sorted_starts, dtype=np.int64)
    return np.diff(starts, append=starts[:1] + n)


def forward_successor_distances(starts, n):
    """Per read, in read order, the smallest forward cyclic distance to
    another read start.  Coincident starts give distance 0.  A single read
    gets distance ``n``."""
    starts = np.asarray(starts, dtype=np.int64)
    order = np.argsort(starts)
    gaps = cyclic_gaps(starts[order], n)
    # The gap out of a read is its distance, unless the gap into it is 0:
    # then the read before it shares its start.
    tied = np.roll(gaps, 1) == 0
    gaps[tied] = 0
    out = np.empty_like(starts)
    out[order] = gaps
    return out


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


def _fold_text(chain, l):
    """``chain`` closed onto itself, its l-suffix laid over its l-prefix,
    symbol by symbol; None where they clash."""
    text = chain.text
    ring = list(text[: len(text) - l])
    for p, s in enumerate(text[len(text) - l :]):
        if s != "*":
            if ring[p] not in ("*", s):
                return None
            ring[p] = s
    return TritString.from_text("".join(ring))


def _claim_islands(chain, choices, n):
    """The islands of one claim: reads ``chain`` in cyclic order, where
    ``choices[i]`` is None (a break) or the ``(l, w)`` merge from position
    i to i + 1 (the last back to 0).  None when a merge clashes, or when a
    claim with no break folds into a ring whose chain does not advance
    exactly n."""
    islands, acc = [], chain[0]
    try:
        for v, choice in zip(chain[1:], choices):
            if choice is None:
                islands.append(acc)
                acc = v
            else:
                acc = merge(acc, v, choice[0])
        last = choices[-1]
        if last is None:
            return islands + [acc]
        if islands:
            return [merge(acc, islands[0], last[0])] + islands[1:]
    except MergeError:
        return None
    if len(acc) - last[0] != n:
        return None
    ring = _fold_text(acc, last[0])
    return None if ring is None else [ring]


def enumerate_claims(book, reads, params, config):
    """``(tuples_visited, island_sets, candidate_codewords)`` of
    ``typicality_decode`` by brute force: every order of reads 1..K-1 after
    read 0, and per cyclic adjacency a break or any ``(l, w)`` overlap with
    ``is_l_compatible`` and a positive suffix size w.  ``island_sets`` is a
    set of sorted raw ``(bits, known, length)`` triples."""
    K, n = len(reads), params.n
    thresholds = TypicalityThresholds(params, config.epsilon)
    visited, island_sets = 0, set()
    for rest in itertools.permutations(range(1, K)):
        chain = [reads[i] for i in (0,) + rest]
        options = []
        for u, v in zip(chain, chain[1:] + chain[:1]):
            merges = [
                (l, (u.known >> (u.length - l)).bit_count())
                for l in range(1, min(len(u), len(v)) + 1)
                if is_l_compatible(u, v, l)
            ]
            options.append([None] + [(l, w) for l, w in merges if w > 0])
        for choices in itertools.product(*options):
            islands = _claim_islands(chain, choices, n)
            if islands is None:
                continue
            visited += 1
            omega = [0 if c is None else c[1] for c in choices]
            typical = thresholds.typical_suffix_sizes(omega)
            if config.omega_mode == "typical-only" and not typical:
                continue
            if thresholds.typical_coverage(sum(i.size for i in islands)):
                island_sets.add(tuple(sorted((i.bits, i.known, i.length) for i in islands)))
    held = [
        [TritString(*t) for t in s] for s in island_sets if all(t[2] <= n for t in s)
    ]
    candidates = tuple(
        i
        for i, x in enumerate(book)
        if any(
            all(compatible_substring_positions(t, x, cyclic=True) for t in s)
            for s in held
        )
    )
    return visited, island_sets, candidates
