"""The concentration trial's kernels against the whole-array formulas they
replace, and the trial's memory bound.

The references below unpack the reads' bit-planes, build the (K, L) int64
window index, scatter ``idx[known]`` and take a reversed ``cumsum``: the
direct forms of the statistics, kept here only as the check.
"""

import tracemalloc

import numpy as np
import pytest

from ssesim.channel import (
    STAGE_ERASURES,
    ChannelParams,
    _ERASURE_BLOCK,
    _packed_extension,
    random_codeword,
    stage_rng,
    transmit_codeword,
)
from ssesim.stats import (
    _count_matches,
    _run_trial,
    _suffix_sizes,
    coverage,
    forward_successor_distances,
)

# (n, L, K, delta): tied starts and windows across the wrap are common at
# these sizes; L = n, L = 1, K = 1 and delta at 0 and 1 are edge cases.
# L = 8 fills its plane bytes exactly, L = 70 spans nine with two pad bits,
# and the last case spans four row blocks with three pad bits per read.
# After it: rings not a multiple of 8 long with windows across the wrap,
# many starts inside one byte of the ring (K >> n), and reads longer than
# one 64-bit word, also past two.
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
    (1000, 13, 3 * (_ERASURE_BLOCK // 13) + 5, 0.4),
    (13, 11, 9, 0.3),
    (37, 35, 40, 0.5),
    (203, 29, 25, 0.2),
    (9, 3, 200, 0.4),
    (27, 5, 600, 0.1),
    (101, 67, 30, 0.3),
    (260, 131, 12, 0.25),
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
        symbols = np.frombuffer(x.text.encode(), dtype=np.uint8) - ord("0")
        clean = symbols[_window_index(starts0, L, n)]
        ext = _packed_extension(x, L)
        ext_bits = np.unpackbits(ext, bitorder="little")
        assert np.array_equal(ext_bits[starts0[:, None] + np.arange(L)], clean)
        # Past the n + L - 1 bits of the extension there is only padding.
        assert not ext_bits[n + L - 1 :].any()
        known = _unpacked(out.known, L)
        assert out.values.dtype == out.known.dtype == np.uint8
        assert np.array_equal(_unpacked(out.values, L), np.where(known, clean, 0))
        # Pad bits past L are clear in both planes.
        assert np.array_equal(
            out.known, np.packbits(known, axis=1, bitorder="little")
        )
        assert np.array_equal(
            out.values, np.packbits(known & clean.astype(bool), axis=1, bitorder="little")
        )

        assert coverage(out).phi_v == _reference_phi_v(out)
        dist = forward_successor_distances(starts0, n)
        assert np.array_equal(_suffix_sizes(out), _reference_suffix_sizes(out, dist))

        rng = np.random.default_rng(seed)
        probes = [np.zeros(L, dtype=bool), np.ones(L, dtype=bool)]
        probes += [rng.random(L) < 0.5 for _ in range(4)]
        for zk in probes:
            zv = np.where(zk, rng.integers(0, 2, L), 0).astype(np.uint8)
            assert _count_matches(ext, out.truth.starts, zv, zk) == _reference_matches(
                clean, zv, zk
            )


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


@pytest.mark.parametrize(
    "K,L",
    [(5000, 47), (3 * _ERASURE_BLOCK // 40 + 7, 40), (2, _ERASURE_BLOCK + 3), (1, 3)],
)
def test_blocked_erasure_draw_equals_one_draw(K, L):
    p = ChannelParams(n=max(L, 64), L=L, K=K, delta=0.3)
    single = stage_rng(11, STAGE_ERASURES).random((K, L)) >= 0.3
    out = transmit_codeword(random_codeword(p.n, 11), p, 11)
    assert np.array_equal(_unpacked(out.known, L), single)


def test_trial_memory_is_a_few_bytes_per_symbol():
    """One trial at n = 2^20 (L = 40, K = 52,429) peaks at most at a
    quarter byte per read symbol plus 2.5 bytes per codeword position.

    The bound comes from what a trial has to hold.  The reads' ``values``
    and ``known`` are bit-planes of K ceil(L/8) bytes each, K L / 4 for
    both when 8 divides L.  Every stage goes over them a block of
    ``_ERASURE_BLOCK`` symbols at a time, so its per-symbol temporaries,
    the rows it takes in start order included, are a fixed size.  Per
    codeword position there are only bits: the codeword's two integer
    planes (n / 4 bytes), and its packed cyclic extension and the phi_v
    ring (n / 8 bytes each).  The rest is int64 arrays of length K, at
    8 c / L = 0.4 bytes per position each: the starts and their sort
    order, which the stages share, and at most two more at once (sorted
    starts or distances and gaps, or the m_z probes' positions and the
    starts that still match).  The peak is about 2.55 n, in the m_z
    probes; the n-byte uint8 draw of the codeword (1.1 n) is gone before
    the reads exist.  An n-byte phi_v line beside the sort order (3.2 n),
    or an n-byte cyclic extension and a 0-based copy of the starts in the
    m_z probes (3.95 n), breaks the bound; so do the reads held as two
    (K, L) byte arrays (2 K L = 4 n) and an int64 index or a float64
    erasure draw over all K L symbols.  tracemalloc sees numpy's
    allocations, so the peak is a count of bytes, not a timing.
    """
    p = ChannelParams.resolve(2**20, 0.2, lbar=2, c=2)
    _run_trial(p, 7, 0, [10, 17], 2)  # first-call caches out of the count
    tracemalloc.start()
    try:
        _run_trial(p, 7, 0, [10, 17], 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= p.K * p.L / 4 + 2.5 * p.n


def test_random_codeword_memory_is_bounded():
    """tracemalloc peak of ``random_codeword(2**20)`` stays within 1.5 n
    bytes plus 64 KiB.

    The uint8 draw (n bytes) lives only until it is packed (n / 8), so the
    peak is 1.125 n.  After that the packed rows, one row's bytes, the
    value integer and the masks ``TritString`` builds and checks each take
    n / 8 bytes, and no more than five of them are alive at once (0.625 n).
    The 64 KiB cover interpreter and numpy bookkeeping.  A bool or
    ``np.where`` copy of the draw (n bytes each), or the draw kept alive
    while the integers are built, breaks the bound.
    """
    n = 2**20
    random_codeword(1000, 3)  # first-call caches out of the count
    tracemalloc.start()
    try:
        random_codeword(n, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n + 64 * 1024
