"""The concentration trial's kernels against the whole-array formulas they
replace, and the trial's memory bound.

The references below unpack the reads' bit-planes, build the (K, L) int64
window index, scatter ``idx[known]`` and take a reversed ``cumsum``: the
direct forms of the statistics, kept here only as the check.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ssesim import channel
from ssesim.channel import (
    STAGE_ERASURES,
    ChannelParams,
    _ROW_BLOCK,
    _kept_lanes,
    _shift_down,
    random_codeword,
    stage_rng,
    transmit_codeword,
)
from ssesim.errors import DomainError
from ssesim.stats import (
    _prefix_matches,
    _probe_z,
    _run_trial,
    _suffix_size_blocks,
    chain_island_count,
    coverage,
)

from ground_truth import forward_successor_distances, true_islands

# (n, L, K, delta): tied starts and windows across the wrap are common at
# these sizes; L = n, L = 1, K = 1 and delta at 0 and 1 are edge cases.
# L = 8 fills its plane bytes exactly, L = 70 spans nine with two pad bits,
# and the last case spans four row blocks with three pad bits per read.
# After it: rings not a multiple of 8 long with windows across the wrap,
# many starts inside one byte of the ring (K >> n), and reads longer than
# one 64-bit word, also past two.  The last two are the golden runs' edge
# geometries: reads of 190 on a ring of 200 over five row blocks, nearly
# all wrapping past n, and an n that is not a multiple of 64 (nor of 8)
# over several blocks.
CASES = [
    (1, 1, 3, 0.5),
    (2, 2, 5, 0.5),
    (10, 10, 4, 0.3),
    (10, 1, 7, 0.5),
    (16, 5, 1, 0.2),
    (20, 6, 30, 0.0),
    (20, 6, 30, 1.0),
    (50, 9, 40, 0.25),
    (64, 60, 5, 0.3),
    (40, 8, 12, 0.3),
    (100, 70, 6, 0.3),
    (1000, 13, 3 * (_ROW_BLOCK // 13) + 5, 0.4),
    (13, 11, 9, 0.3),
    (37, 35, 40, 0.5),
    (203, 29, 25, 0.2),
    (9, 3, 200, 0.4),
    (27, 5, 600, 0.1),
    (101, 67, 30, 0.3),
    (260, 131, 12, 0.25),
    (200, 190, 3000, 0.3),
    (1000003, 40, 50000, 0.2),
]


def _unpacked(plane, L):
    """The (K, L) bool array a packed bit-plane holds."""
    return np.unpackbits(plane, axis=1, count=L, bitorder="little").astype(bool)


def _window_index(starts0, L, n):
    return (starts0[:, None] + np.arange(L)[None, :]) % n


def _reference_phi_v(out):
    n, L = out.params.n, out.params.L
    idx = _window_index(out.truth.starts - 1, L, n)
    visible = np.zeros(n, dtype=bool)
    visible[idx[_unpacked(out.known, L)]] = True
    return float(visible.mean())


def _reference_suffix_sizes(out, distances):
    L = out.params.L
    overlaps = np.maximum(0, L - distances)
    known = _unpacked(out.known, L)
    revcum = np.cumsum(known[:, ::-1].astype(np.int64), axis=1)
    col = np.clip(overlaps - 1, 0, None)[:, None]
    sizes = np.take_along_axis(revcum, col, axis=1).ravel()
    return np.where(overlaps > 0, sizes, 0)


def _reference_matches(clean, zv, zk):
    conflict = (clean != zv[None, :]) & zk[None, :]
    return int(np.count_nonzero(~conflict.any(axis=1)))


@pytest.mark.parametrize("n,L,K,delta", CASES)
def test_kernels_match_whole_array_formulas(n, L, K, delta):
    for seed in range(6):
        p = ChannelParams(n=n, L=L, K=K, delta=delta)
        x = random_codeword(n, seed)
        out = transmit_codeword(x, p, seed)
        starts0 = out.truth.starts - 1
        symbols = np.unpackbits(x.rows[0], count=n, bitorder="little")
        clean = symbols[_window_index(starts0, L, n)]
        known = _unpacked(out.known, L)
        assert out.values.dtype == out.known.dtype == np.uint8
        # ``values`` keeps each read's whole pre-erasure window, erased
        # symbols included; only ``known`` has its pad bits past L clear.
        assert np.array_equal(_unpacked(out.values, L), clean)
        assert np.array_equal(
            out.known, np.packbits(known, axis=1, bitorder="little")
        )

        assert coverage(out).phi_v == _reference_phi_v(out)
        # The island count is the assembler's, except that reads wrapping
        # the whole circle form one circular island and count 0.
        islands, _, circular = true_islands(out)
        assert chain_island_count(out) == (0 if circular else len(islands))
        # Reads are numbered in start order, so the read-order reference is
        # in the order the stage yields its blocks.
        dist = forward_successor_distances(starts0, n)
        reference = _reference_suffix_sizes(out, dist)
        sizes = np.concatenate(list(_suffix_size_blocks(out)))
        assert np.array_equal(sizes, reference)

        rng = np.random.default_rng(seed)
        probes = [np.zeros(L, dtype=bool), np.ones(L, dtype=bool)]
        probes += [rng.random(L) < 0.5 for _ in range(4)]
        r = int(rng.integers(K))
        want = [_reference_matches(clean, np.where(zk, clean[r], 0), zk) for zk in probes]
        assert _prefix_matches(out, [(r, np.flatnonzero(zk)) for zk in probes]) == want


def _clean_windows(out):
    """Every read's pre-erasure window, as a (K, L) array of 0/1 symbols."""
    n, L = out.params.n, out.params.L
    symbols = np.unpackbits(out.truth.codeword.rows[0], count=n, bitorder="little")
    return symbols[_window_index(out.truth.starts - 1, L, n)]


def _edge_keeps(L, rng):
    """Probes that keep nothing, whole or partial single bytes, or a few
    positions spread over several bytes (and the words of reads longer
    than 64)."""
    keeps = [np.array([], dtype=np.int64)]
    keeps += [np.arange(lo, min(lo + 8, L)) for lo in range(0, L, 8)]
    keeps += [np.arange(lo, min(lo + 8, L), 3) for lo in range(0, L, 8)]
    keeps += [np.sort(rng.choice(L, size=min(size, L), replace=False)) for size in (2, 3, 4, 12)]
    keeps += [np.array([0, L - 1]), np.arange(0, L, 8)]
    return keeps


def _check_probes(out, reads, keeps):
    """Every probe of ``reads`` x ``keeps``, counted in one pass, against
    the direct comparison of the unpacked windows."""
    clean = _clean_windows(out)
    probes = [(r, keep) for r in reads for keep in keeps]
    want = []
    for r, keep in probes:
        zk = np.zeros(out.params.L, dtype=bool)
        zk[keep] = True
        want.append(_reference_matches(clean, np.where(zk, clean[r], 0), zk))
    assert _prefix_matches(out, probes) == want
    return want


@pytest.mark.parametrize("n,L,K", [(40, 5, 30), (300, 47, 200), (200, 64, 50), (500, 131, 40)])
def test_count_matches_edge_probes(n, L, K):
    """The edge probes of ``_edge_keeps`` on the first, the last and a
    random read, which are the first and the last in start order and one
    between them."""
    p = ChannelParams(n=n, L=L, K=K, delta=0.3)
    out = transmit_codeword(random_codeword(n, 4), p, 4)
    rng = np.random.default_rng(L)
    reads = (0, K - 1, int(rng.integers(K)))
    want = _check_probes(out, reads, _edge_keeps(L, rng))
    assert want[0] == K


@pytest.mark.parametrize("n,L,K,starts", [
    (64, 9, 1, [64]),  # K = 1, its window across the wrap
    (23, 23, 1, [5]),  # K = 1, L = n
    (100, 70, 5, [37] * 5),  # every start tied
    (97, 40, 7000, [97] * 7000),  # tied at the last start, over three blocks
    (200, 17, 6, [1, 1, 3, 100, 200, 200]),  # first and last starts tied
])
def test_prefix_matches_on_placed_starts(n, L, K, starts):
    """Probe reads first and last in start order, with every start tied
    and with one read, on hand-placed starts."""
    p = ChannelParams(n=n, L=L, K=K, delta=0.3)
    x = random_codeword(n, K)
    known = transmit_codeword(x, p, K).known
    out = channel.ChannelOutput(p, known, channel.Truth(None, x, np.array(starts)))
    reads = sorted({0, K - 1})
    want = _check_probes(out, reads, _edge_keeps(L, np.random.default_rng(n)))
    if len(set(starts)) == 1:
        # Every window is the same, so every read agrees with every probe.
        assert want == [K] * len(want)


def test_trial_counts_mz_without_the_value_plane(monkeypatch):
    """A trial with m_z targets gathers no plane of every read's window."""

    def refuse(*args):
        raise AssertionError("a trial stage built the value plane")

    p = ChannelParams.resolve(4096, 0.2, lbar=2, c=2)
    want = _run_trial(p, 5, 0, [6, 12], 2)
    monkeypatch.setattr(channel.ChannelOutput, "values", property(refuse))
    assert _run_trial(p, 5, 0, [6, 12], 2) == want
    assert all(len(counts) == 2 for counts in want.mz)


@pytest.mark.parametrize("n,K", [(5, 30), (7, 12), (40, 60), (1, 4), (100, 1)])
def test_successor_distances_match_all_pairs(n, K):
    """Each read's distance is the least forward distance to any other read,
    found over all K^2 pairs.  Starts on a small ring fall in tie groups of
    three and more, whose members all get 0 in any sort order."""
    rng = np.random.default_rng(n * 1000 + K)
    largest_tie = 0
    for _ in range(20):
        starts = rng.integers(0, n, size=K)
        ahead = (starts[None, :] - starts[:, None]) % n
        np.fill_diagonal(ahead, n)
        assert np.array_equal(forward_successor_distances(starts, n), ahead.min(axis=1))
        largest_tie = max(largest_tie, np.bincount(starts).max())
    assert largest_tie >= min(K, 3)


@pytest.mark.parametrize("words", [1, 2, 3])
def test_shift_down_matches_integer_shifts(words):
    """Every row of uint64 words, read as one little-endian integer, comes
    out shifted down by its own count.  ``transmit_codeword`` shifts by 0-7
    bits and ``coverage`` by 1-64; each count from 0 to 64 appears in turn,
    on rows with all bits set (every carry full) and on random rows."""
    rng = np.random.default_rng(words)
    span = rng.integers(0, 2**64, size=(3 * 65, words), dtype=np.uint64).astype("<u8")
    span[:65] = np.uint64(2**64 - 1)
    shift = np.arange(len(span)) % 65
    want = [int.from_bytes(row.tobytes(), "little") >> int(s) for row, s in zip(span, shift)]
    _shift_down(span, shift)
    assert [int.from_bytes(row.tobytes(), "little") for row in span] == want


def _reference_kept(K, L, delta, seed):
    """Every read symbol's erasure decision, rebuilt lane by lane in plain
    Python from the raw words of the erasure substream, as a (K, L) bool
    array, with the substream's bit-generator state after the last round.

    The rows' symbols are laid end to end one chunk of ``_ERASURE_CHUNK``
    symbols' whole rows at a time, and symbol i of a chunk is lane i % 64
    of word i // 64.  A symbol is kept iff its 53-bit uniform U >= T =
    ceil(delta * 2^53).  Round b, for b from 52 down, compares bit b: each
    word with a lane still tied with T draws one raw word, in word order,
    whose bit j is bit b of lane j's U, and a lane whose bit differs from
    T's is decided.  Once T's bits b and below are all 0, every tied lane is
    kept and the chunk's rounds end."""
    raw = stage_rng(seed, STAGE_ERASURES).bit_generator
    T = math.ceil(float(delta) * 2**53)
    rows = max(1, channel._ERASURE_CHUNK // L)
    kept = []
    for first in range(0, K, rows):
        size = (min(first + rows, K) - first) * L
        if T == 2**53:
            kept += [False] * size
            continue
        decided = [None] * size
        tied = [list(range(w, min(w + 64, size))) for w in range(0, size, 64)]
        for b in range(52, -1, -1):
            if T % 2 ** (b + 1) == 0:
                break
            t_bit = T >> b & 1
            for lanes in tied:
                if not lanes:
                    continue
                u = int(raw.random_raw())
                still = []
                for i in lanes:
                    u_bit = u >> i % 64 & 1
                    if u_bit == t_bit:
                        still.append(i)
                    else:
                        decided[i] = bool(u_bit)
                lanes[:] = still
        kept += [d is not False for d in decided]
    return np.array(kept, dtype=bool).reshape(K, L), raw.state


# (K, L, delta, chunk): K * L not a multiple of 64, down to one partial
# word; dyadic deltas, where a lane tied with T once T's remaining bits are
# 0 is kept; several chunks at the stream's own chunk size (dyadic, so the
# reference stays quick), one of them at L % 8 != 0 with its rows cut over
# several gather blocks, and, at non-dyadic deltas, at a small chunk, where
# every chunk runs its rounds to the end, also with rows longer than one.
ERASURE_CASES = [
    (300, 47, 0.3, None),
    (7, 9, 0.2, None),
    (1, 3, 0.7, None),
    (64, 1, 0.4, None),
    (2000, 13, 0.5, None),
    (2000, 13, 0.25, None),
    (2 * (channel._ERASURE_CHUNK // 40) + 7, 40, 0.5, None),
    (channel._ERASURE_CHUNK // 47 + 9, 47, 0.25, None),
    (3 * (2**12 // 47) + 5, 47, 0.3, 2**12),
    (300, 61, 0.1, 2**10),
    (5, 5000, 0.2, 2**12),
]


@pytest.mark.parametrize("K,L,delta,chunk", ERASURE_CASES)
def test_erasures_match_lane_by_lane_reference(monkeypatch, K, L, delta, chunk):
    """The lanes match the reference's, and the chunks draw exactly the
    reference's raw words: a stray or missing draw in the last chunk
    changes no lane, only the substream's state after it."""
    if chunk is not None:
        monkeypatch.setattr(channel, "_ERASURE_CHUNK", chunk)
    raws = []
    kept_lanes = channel._kept_lanes

    def recording(raw, size, threshold):
        raws.append(raw)
        return kept_lanes(raw, size, threshold)

    monkeypatch.setattr(channel, "_kept_lanes", recording)
    p = ChannelParams(n=max(L, 64), L=L, K=K, delta=delta)
    out = transmit_codeword(random_codeword(p.n, 11), p, 11)
    kept, state = _reference_kept(K, L, delta, 11)
    assert np.array_equal(_unpacked(out.known, L), kept)
    assert raws[-1].state == state
    if L % 8:
        assert not np.any(out.known[:, -1] >> (L % 8))


@pytest.mark.parametrize("threshold,kept", [(0, True), (2**53, False)])
def test_erasure_extremes_draw_no_raw_word(threshold, kept):
    """T = 0 (delta 0) keeps every symbol and T = 2^53 (delta 1) erases
    every one, without a raw word drawn; so do the deltas through
    ``transmit_codeword``, a ``Fraction`` delta as its float."""
    raw = np.random.PCG64(3)
    state = raw.state
    lanes = _kept_lanes(raw, 200, threshold)
    assert raw.state == state
    want = [2**64 - 1] * 3 + [2**8 - 1, 0] if kept else [0] * 5
    assert [int(w) for w in lanes] == want
    for delta in ((0.0, Fraction(0)) if kept else (1.0, Fraction(1))):
        p = ChannelParams(n=50, L=13, K=30, delta=delta)
        out = transmit_codeword(random_codeword(50, 3), p, 3)
        assert _unpacked(out.known, 13).all() if kept else not out.known.any()
    p = ChannelParams(n=50, L=13, K=30, delta=Fraction(3, 10))
    q = ChannelParams(n=50, L=13, K=30, delta=0.3)
    x = random_codeword(50, 4)
    assert np.array_equal(transmit_codeword(x, p, 4).known, transmit_codeword(x, q, 4).known)


def test_erasure_rates_at_delta_0_2():
    """Over 10M read symbols at delta = 0.2 (ten chunks), the kept fraction
    and the rate of kept adjacent pairs within a read lie within 5 standard
    errors of 0.8 and 0.64.  Adjacent pairs share a symbol, so the pair
    count's variance adds their covariance p^3 - p^4 to the per-pair
    variance p^2 (1 - p^2)."""
    K, L, keep = 212_766, 47, 0.8
    p = ChannelParams(n=1000, L=L, K=K, delta=0.2)
    known = _unpacked(transmit_codeword(random_codeword(1000, 5), p, 5).known, L)
    symbols = K * L
    assert symbols >= 10**7
    kept = np.count_nonzero(known) / symbols
    assert abs(kept - keep) <= 5 * math.sqrt(keep * (1 - keep) / symbols)
    pairs = np.count_nonzero(known[:, 1:] & known[:, :-1]) / (K * (L - 1))
    row_var = (L - 1) * keep**2 * (1 - keep**2) + 2 * (L - 2) * (keep**3 - keep**4)
    assert abs(pairs - keep**2) <= 5 * math.sqrt(K * row_var) / (K * (L - 1))


def test_trial_memory_is_a_few_bytes_per_symbol():
    """One trial peaks at most at an eighth of a byte per read symbol plus
    0.80 bytes per codeword position at n = 2^20 (L = 40, K = 52,429), and
    plus 0.38 at n = 2^23 (L = 46, K = 364,722).

    The bound comes from what a trial has to hold.  The reads' ``known`` is
    a bit-plane of K ceil(L/8) bytes, K L / 8 when 8 divides L (0.011 n
    more at L = 46).  Per codeword position there is only the codeword's
    packed row, n / 8 bytes, held all trial.  Per read only its int32
    start is held (4 c / L bytes per position: 0.2 n at L = 40, 0.174 n at
    L = 46), drawn after the erasures in one int32 call, which needs no
    temporary, and sorted in place, so that read i is the read with the
    i-th smallest start and no stage needs a sort order.  So a trial
    holds 0.325 n past K L / 8 at 2^20 and 0.310 n at 2^23.  Every stage goes over the reads a block of
    ``_ROW_BLOCK`` symbols at a time, so its temporaries are a fixed size:
    the rows it slices and their cyclic gaps, the window of phi_v's ring
    words that slides with the blocks, and the m_z count's windows, cut
    from the codeword row and, for the last few reads, from a tail of its
    cyclic extension.  No plane of the reads' windows, no whole ring and no
    whole extension is built.  The erasures are drawn a chunk of
    ``_ERASURE_CHUNK`` symbols (2^20) at a time, in four arrays of one
    uint64 per 64 symbols, 512 KiB: 0.5 n at 2^20, where the peak, measured
    at 0.768 n, is in the erasure draw (the codeword, the known plane and
    one chunk's erasure state); phi_v comes to 0.579 n, the suffix stage to
    0.533 n and the m_z count to 0.450 n.  At 2^23 the chunk is 0.0625 n,
    and the peak, measured at 0.340 n, is in the phi_v stage, whose window
    keeps 2^18 bits of room beside one block's words, within 0.030 n of
    what the trial holds.  The bounds leave 0.032 n (33 KB) and 0.040 n
    (335 KB) over the peaks.  An 8-byte sort key per read (0.174 n more at
    2^23), a second per-read int32 array such as a read-order copy of the
    starts or a sort order, a whole phi_v ring or cyclic extension rebuilt
    (0.125 n), or a K-long temporary of int32 or wider break the bound at
    2^23; the value plane alive beside the starts (0.25 n), the codeword
    held as two n-bit integer planes (0.27 n), a whole int64 array of gaps
    or distances (0.4 n), an n-byte phi_v line, the reads held as two
    (K, L) byte arrays (2 K L = 4 n), an int64 index over all K L symbols,
    or a float64 erasure uniform per symbol of one block (1.0 n) break
    both.  So does an m_z probe whose rejection draws give up counting
    every read's visible symbols at once (2.98 n at 2^20 and 3.01 n at
    2^23, at delta = 0.8 and tau = 0.85): it counts them a block of rows at
    a time, and that trial peaks where the delta = 0.2 one does.
    tracemalloc sees numpy's allocations, so the peak is a count of bytes,
    not a timing.
    """
    for n, bound in ((2**20, 0.80), (2**23, 0.38)):
        # At delta = 0.8 few reads keep tau = 0.85 of log2 n symbols, so
        # the m_z probes' rejection draws give up.
        for delta, sizes in ((0.2, [10, 17]), (0.8, [round(0.85 * math.log2(n))])):
            p = ChannelParams.resolve(n, delta, lbar=2, c=2)
            _run_trial(p, 7, 0, sizes, 2)  # first-call caches out of the count
            tracemalloc.start()
            try:
                _run_trial(p, 7, 0, sizes, 2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= p.K * p.L / 8 + bound * p.n, (n, delta)


def _whole_plane_probe(rng, known, L, suffix_size):
    """``stats._probe_z`` with its fallback drawn among the whole plane's
    eligible reads at once, and whether the fallback ran."""
    visible = np.bitwise_count(known).sum(axis=1)
    fallback = False
    for _ in range(64):
        r = int(rng.integers(len(known)))
        if visible[r] >= suffix_size:
            break
    else:
        fallback = True
        eligible = np.flatnonzero(visible >= suffix_size)
        if not len(eligible):
            raise DomainError("no eligible read")
        r = int(eligible[rng.integers(len(eligible))])
    positions = np.flatnonzero(np.unpackbits(known[r], count=L, bitorder="little"))
    return (r, np.sort(rng.choice(positions, size=suffix_size, replace=False))), fallback


def test_probe_fallback_matches_whole_plane_draw():
    """When 64 rejection draws miss, ``_probe_z`` walks the plane one row
    block at a time and still draws the whole-plane reference's read, kept
    positions and generator state.  Five reads over four row blocks show 24
    symbols and the rest fewer than 20, first and last rows of blocks among
    the five, so the draw lands on each side of a block boundary; at 25 no
    read is eligible, and it raises."""
    L = 40
    rows = _ROW_BLOCK // L
    K = 3 * rows + 5
    known = np.packbits(np.random.default_rng(2).random((K, L)) < 0.3, axis=1, bitorder="little")
    known[np.bitwise_count(known).sum(axis=1) >= 20] = 0
    known[[0, rows - 1, rows, 3 * rows + 1, K - 1]] = [255, 255, 255, 0, 0]
    fallbacks = 0
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        r, keep = _probe_z(rng, known, L, 20)
        (r_ref, keep_ref), fallback = _whole_plane_probe(ref, known, L, 20)
        assert (r, keep.tolist()) == (r_ref, keep_ref.tolist())
        assert rng.bit_generator.state == ref.bit_generator.state
        fallbacks += fallback
    assert fallbacks >= 30
    with pytest.raises(DomainError):
        _probe_z(np.random.default_rng(0), known, L, 25)


def test_random_codeword_memory_is_bounded():
    """tracemalloc peak of ``random_codeword(2**20)`` stays within 0.31 n
    bytes.

    No byte per symbol is built: the raw words are drawn 128 KiB
    (0.125 n here) at a time and packed into the codeword's bits
    (n / 8 = 0.125 n, 8 bytes more), and the one-row codebook's row is a
    view of those bytes, the 0.125 n held.  The peak, measured at 0.272 n,
    is in the draw: the packed bytes, one raw block (each is released
    before the next is drawn) and its packed copy.  The bound leaves
    0.033 n (35 KB) over it for interpreter and numpy bookkeeping.  A
    second raw block kept alive (0.125 n), the uint8 draw of one byte per
    symbol (n bytes), or the codeword's two n-bit integer planes built
    from the row (0.267 n), break it.
    """
    n = 2**20
    random_codeword(1000, 3)  # first-call caches out of the count
    tracemalloc.start()
    try:
        x = random_codeword(n, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(x) == 1 and held <= 0.125 * n + 1024
    assert peak <= 0.31 * n
