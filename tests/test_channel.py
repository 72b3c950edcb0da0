import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from ssesim.channel import (
    STAGE_CODEBOOK,
    STAGE_STARTS,
    ChannelOutput,
    ChannelParams,
    Codebook,
    Truth,
    _MAX_SYMBOLS,
    _ROW_BLOCK,
    _gaps_around,
    _start_windows,
    random_codebook,
    random_codeword,
    stage_rng,
    transmit,
    transmit_codeword,
)
from ssesim.errors import DomainError
from ssesim.tritstring import TritString

from ground_truth import cyclic_gaps


def test_params_validation():
    with pytest.raises(DomainError):
        ChannelParams(n=0, L=1, K=1, delta=0.0)
    with pytest.raises(DomainError):
        ChannelParams(n=10, L=11, K=1, delta=0.0)
    with pytest.raises(DomainError):
        ChannelParams(n=10, L=0, K=1, delta=0.0)
    with pytest.raises(DomainError):
        ChannelParams(n=10, L=5, K=0, delta=0.0)
    with pytest.raises(DomainError):
        ChannelParams(n=10, L=5, K=2, delta=1.5)
    p = ChannelParams(n=10, L=5, K=4, delta=0.25)
    assert p.c == 2.0
    with pytest.raises(DomainError, match="n >= 2"):
        ChannelParams(n=1, L=1, K=1, delta=0).lbar


def test_resolve():
    p = ChannelParams.resolve(100000, 0.2, lbar=2.0, c=2.0)
    assert (p.n, p.L, p.K) == (100000, 33, 6061)
    q = ChannelParams.resolve(64, 0.0, L=8, K=16)
    assert q.c == 2.0
    with pytest.raises(DomainError):
        ChannelParams.resolve(64, 0.0, L=8, lbar=2.0, K=4)
    with pytest.raises(DomainError):
        ChannelParams.resolve(64, 0.0, L=8)
    with pytest.raises(DomainError):
        ChannelParams.resolve(64, 0.0, lbar=2.0, K=4, c=1.0)


def test_random_codeword_deterministic():
    a = random_codeword(200, 7)
    b = random_codeword(200, 7)
    c = random_codeword(200, 8)
    assert a == b
    assert a != c
    assert len(a) == 1 and a.n == 200


def test_random_codeword_is_a_read_only_one_row_codebook():
    """The channel input is the one-row codebook of the same seed, held as
    its n / 8 packed bytes; neither it nor its slices can be written, and
    it equals no object that is not a codebook, its own rows included."""
    for n in (1, 7, 8, 13, 200, _ROW_BLOCK + 3):
        x = random_codeword(n, n)
        assert isinstance(x, Codebook) and x == random_codebook(n, 1, n)
        assert x.rows.shape == (1, (n + 7) // 8)
        assert not x.rows.flags.writeable and not x[0:1].rows.flags.writeable
        with pytest.raises(ValueError):
            x.rows[0, 0] = 1
        # Against a non-codebook, ``__eq__`` defers; numpy then compares
        # the rows array byte by byte with the codebook, never equal.
        for other in (x.rows, x[0].text):
            assert x.__eq__(other) is NotImplemented and not np.any(x == other)


def _value_rows(x, starts, L):
    """The (K, 8 ceil(L/8)) bits of the value rows at the 1-based ``starts``
    of the one-row codebook ``x``: each window by the whole-array window
    index, (start - 1 + j) mod n, and its pad bits past L from the codeword
    followed by its first L - 1 symbols, then zeros."""
    n = x.n
    symbols = np.unpackbits(x.rows[0], count=n, bitorder="little")
    bits = 8 * ((L + 7) // 8)
    window = symbols[(starts[:, None] - 1 + np.arange(L)[None, :]) % n]
    ext = np.concatenate((symbols, symbols[: L - 1], np.zeros(bits, dtype=np.uint8)))
    rows = ext[starts[:, None] - 1 + np.arange(bits)[None, :]]
    assert np.array_equal(rows[:, :L], window)
    return rows


@pytest.mark.parametrize("n", [16, 17, 23, 64, 65, 71])
@pytest.mark.parametrize("L", [1, 2, 8, 9, "n"])
def test_value_plane_matches_window_index(n, L):
    """Every read's value row, pad bits included, is its window of the
    codeword, for n % 8 in {0, 1, 7}: the wrapped windows read the row's
    first L - 1 bits, ORed in at bit n, so with n % 8 != 0 that head
    straddles the bytes of the extension.  Every start is drawn, so every
    wrapped window is read."""
    L = n if L == "n" else L
    p = ChannelParams(n=n, L=L, K=40 * n, delta=0.3)
    x = random_codeword(n, L)
    out = transmit_codeword(x, p, L)
    assert len(np.unique(out.truth.starts)) == n
    got = np.unpackbits(out.values, axis=1, bitorder="little")
    assert np.array_equal(got, _value_rows(x, out.truth.starts, L))


def test_value_plane_across_blocks_and_the_row_tail_split():
    """At n = 4099 (n % 8 = 3), L = 70 (two words per window) and K = 5000
    the windows in start order run over several ``_ROW_BLOCK`` blocks of
    1872 reads: those whose words lie in the codeword's whole bytes, at
    starts up to 3976, are cut from its row, the rest, wrapped windows
    among them, from a tail of its cyclic extension.  Every value row, pad
    bits included, is its window on both sides of that split."""
    n, L, K = 4099, 70, 5000
    p = ChannelParams(n=n, L=L, K=K, delta=0.3)
    x = random_codeword(n, 11)
    out = transmit_codeword(x, p, 11)
    starts = out.truth.starts
    assert (starts <= 3976).sum() > 2 * (_ROW_BLOCK // L)
    assert (starts > 3976).sum() > 1 and (starts > n - L + 1).any()
    blocks = [blk for blk, _ in _start_windows(out.truth, L)]
    assert len(blocks) >= 4 and blocks[0].start == 0 and blocks[-1].stop == K
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    got = np.unpackbits(out.values, axis=1, bitorder="little")
    assert np.array_equal(got, _value_rows(x, starts, L))


def test_values_build_no_whole_extension():
    """At n = 2^20 (L = 40, K = 52,429) the value plane is K * 5 bytes,
    0.25 n, and gathering it peaks at 0.368 n: the plane plus one block of
    windows and the short tail of the cyclic extension.  The whole packed
    extension (0.125 n) or a copy of the starts (0.2 n, or 0.4 n in int64)
    built beside it break the bound."""
    n = 2**20
    p = ChannelParams.resolve(n, 0.2, lbar=2, c=2)
    out = transmit_codeword(random_codeword(n, 1), p, 1)
    out.values  # first-call caches out of the count
    tracemalloc.start()
    try:
        values = out.values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.nbytes == p.K * 5
    assert peak <= 0.45 * n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    L=st.sampled_from([1, 7, 8, 9, 57, 64, 70]),
    extra=st.integers(0, 40),
    delta=st.sampled_from([0.0, 1.0, 0.3]),
    seed=st.integers(0, 2**16),
    raw_starts=st.lists(st.integers(0, 2**20), min_size=1, max_size=12),
)
@example(L=1, extra=0, delta=0.0, seed=0, raw_starts=[0])  # n = 1, K = 1
@example(L=9, extra=0, delta=1.0, seed=1, raw_starts=[8, 0])  # start n wraps
@example(L=70, extra=1, delta=0.0, seed=2, raw_starts=[70])  # K = 1 wraps
@example(L=57, extra=2, delta=1.0, seed=3, raw_starts=[58, 30, 58])
@example(L=64, extra=1, delta=0.3, seed=4, raw_starts=[64, 1, 0])
def test_values_are_the_windows_at_the_truth_starts(L, extra, delta, seed, raw_starts):
    """``values`` is gathered from the truth record on every read: each row
    is its start's window of the codeword, pad bits included, in a fresh
    read-only plane, and the reads are those windows masked by ``known``.
    Starts come from the strategy, sorted, so windows across the wrap of
    rings with n % 8 != 0 and lone reads are drawn directly."""
    n = L + extra
    p = ChannelParams(n=n, L=L, K=len(raw_starts), delta=delta)
    x = random_codeword(n, seed)
    starts = np.sort(np.array([s % n + 1 for s in raw_starts], dtype=np.int32))
    known = transmit_codeword(x, p, seed).known
    out = ChannelOutput(p, known, Truth(None, x, starts))
    values = out.values
    assert values.shape == known.shape and values.dtype == np.uint8
    rows = _value_rows(x, starts, L)
    assert np.array_equal(np.unpackbits(values, axis=1, bitorder="little"), rows)
    assert not values.flags.writeable and out.values is not values
    with pytest.raises(ValueError):
        values[0, 0] ^= 1
    seen = np.unpackbits(known, axis=1, count=L, bitorder="little").astype(bool)
    want = ["".join(str(b) if k else "*" for b, k in zip(r, m)) for r, m in zip(rows, seen)]
    assert [r.text for r in out.reads] == want
    if delta == 0.0:
        assert seen.all()
    if delta == 1.0:
        assert not seen.any()


def test_transmit_takes_only_a_one_row_codebook():
    """A TritString, a two-row codebook and a row of the wrong length are
    refused; n above 2^30 is refused before the input is looked at."""
    p = ChannelParams(n=16, L=4, K=3, delta=0.0)
    x = random_codeword(16, 1)
    transmit_codeword(x, p, 1)
    for bad in (x[0], random_codebook(16, 2, 1), random_codeword(15, 1), random_codeword(17, 1)):
        with pytest.raises(DomainError):
            transmit_codeword(bad, p, 1)
    over = ChannelParams(n=_MAX_SYMBOLS + 1, L=1, K=1, delta=0.0)
    for bad in (x[0], random_codebook(16, 2, 1), x):
        with pytest.raises(DomainError, match="exceeds the limit"):
            transmit_codeword(bad, over, 1)


def test_reads_match_codeword_windows():
    p = ChannelParams(n=64, L=10, K=8, delta=0.4)
    x = random_codeword(p.n, 3)
    out = transmit_codeword(x, p, 3)
    text = x[0].text
    for read, start in zip(out.reads, out.truth.starts):
        window = "".join(text[(start - 1 + j) % p.n] for j in range(p.L))
        for got, true in zip(read.text, window):
            assert got in ("*", true)


def test_start_uniformity_chi_square():
    p = ChannelParams(n=50, L=5, K=20000, delta=0.0)
    out = transmit_codeword(random_codeword(p.n, 1), p, 12345)
    counts = np.bincount(out.truth.starts - 1, minlength=p.n)
    assert counts.sum() == p.K
    assert sps.chisquare(counts).pvalue > 1e-4


def test_erasure_rate_three_sigma():
    p = ChannelParams(n=2000, L=50, K=200, delta=0.3)
    out = transmit_codeword(random_codeword(p.n, 2), p, 77)
    total = p.K * p.L
    # Pad bits past L are clear, so every set bit is an unerased symbol.
    erased = total - int(np.unpackbits(out.known).sum())
    sigma = (total * p.delta * (1 - p.delta)) ** 0.5
    assert abs(erased - total * p.delta) < 3 * sigma


def test_sample_reads_rejects_partial_codeword():
    """Only a fully visible codeword of length n is sent: a string with an
    erased symbol is refused, and so is a codeword one symbol short."""
    p = ChannelParams(n=4, L=2, K=1, delta=0.0)
    with pytest.raises(DomainError):
        transmit_codeword(TritString.from_text("01*1"), p, 0)
    with pytest.raises(DomainError, match="codeword length 3 != n=4"):
        transmit_codeword(random_codeword(3, 0), p, 0)


def test_codebook_deterministic_prefix():
    # Same seed: rows fill in order, so growing the codebook keeps a prefix.
    small = random_codebook(24, 4, 9)
    large = random_codebook(24, 8, 9)
    assert large[:4] == small
    assert random_codebook(24, 4, 9) == small
    assert random_codebook(24, 4, 10) != small
    assert isinstance(large[:4], Codebook)
    assert list(large[2:5]) == [large[2], large[3], large[4]]
    assert large[-1] == large[7]
    with pytest.raises(IndexError):
        large[8]
    with pytest.raises(DomainError):
        random_codebook(16, 0, 5)
    with pytest.raises(DomainError, match="n must be >= 1"):
        random_codebook(0, 1, 0)
    with pytest.raises(DomainError, match="n must be >= 1"):
        random_codeword(0, 0)


@pytest.mark.parametrize(
    "n,count",
    [(1, 1), (7, 3), (8, 5), (13, 17), (64, 4), (100, 9), (1001, 2), (10007, 13)]
    + [(_ROW_BLOCK + 3, 1), (_ROW_BLOCK + 3, 2)],
)
def test_codebook_is_the_uint8_draw(n, count):
    """The codebook packs the rows of numpy's bounded uint8 draw, which it
    rebuilds from the raw 64-bit words a block at a time.  The sizes cross
    byte, word and block boundaries, with n % 8 != 0 among them, and rows
    longer than one block are cut by the gather as well as by a reshape."""
    want = np.packbits(
        stage_rng(count, STAGE_CODEBOOK).integers(0, 2, size=(count, n), dtype=np.uint8),
        axis=1,
        bitorder="little",
    )
    got = [x.bits.to_bytes(want.shape[1], "little") for x in random_codebook(n, count, count)]
    assert got == [row.tobytes() for row in want], (
        f"numpy {np.__version__} no longer returns bit 7 of each raw byte from "
        "Generator.integers(0, 2, dtype=np.uint8); NEP 19 does not freeze that "
        "sampler, and every codeword stream and golden digest depends on it"
    )


@pytest.mark.parametrize("n", [1, 2, 1000, 10**7, 2**30])
def test_starts_are_the_int64_draw(n):
    """The channel draws its starts as int32, which for any n below 2^32
    numpy serves from the same 32-bit stream as the int64 draw, also when
    the draw is split into blocks of odd sizes, as the channel's blocks of
    rows are."""
    K = 5000
    want = stage_rng(n, STAGE_STARTS).integers(0, n, size=K)
    whole = stage_rng(n, STAGE_STARTS).integers(0, n, size=K, dtype=np.int32)
    rng = stage_rng(n, STAGE_STARTS)
    split = [rng.integers(0, n, size=k, dtype=np.int32) for k in (1, 3, 2787, 2209)]
    assert np.array_equal(whole, want) and np.array_equal(np.concatenate(split), want), (
        f"numpy {np.__version__} no longer draws Generator.integers(0, n, "
        "dtype=np.int32) from the int64 draw's stream; NEP 19 does not freeze "
        "that sampler, and every start stream and golden digest depends on it"
    )


def test_transmit_holds_one_sorted_int32_starts_array():
    """The truth record holds the message, the codeword and one per-read
    array: the whole int32 draw of the starts plus 1, sorted, read-only,
    and the very array ``transmit_codeword`` sorted (a view of it, not a
    copy).  ``test_reads_match_codeword_windows`` checks that read i is
    the window at the i-th of them."""
    p = ChannelParams(n=1000, L=9, K=300, delta=0.2)
    x = random_codeword(p.n, 4)
    truth = transmit_codeword(x, p, 4).truth
    want = stage_rng(4, STAGE_STARTS).integers(0, p.n, size=p.K, dtype=np.int32) + 1
    assert truth.starts.dtype == np.int32 and truth.starts.shape == (p.K,)
    assert np.array_equal(truth.starts, np.sort(want))
    assert truth.starts.base is not None and truth.starts.base.nbytes == 4 * p.K
    with pytest.raises(ValueError):
        truth.starts[0] = 1
    assert Truth.__slots__ == ("message", "codeword", "starts")
    assert not hasattr(truth, "__dict__") and truth.codeword is x
    held = [getattr(truth, name) for name in Truth.__slots__]
    assert [a for a in held if isinstance(a, np.ndarray)] == [truth.starts]


def test_truth_refuses_decreasing_starts():
    """Starts must not decrease; tied starts are accepted.  The check runs
    a block at a time, so a decrease across a block edge is caught too.
    An int32 array is held as a read-only view that leaves the caller's
    array writeable; any other integer array is copied to int32."""
    x = random_codeword(8, 0)
    for bad in ([5, 5, 1, 5], [2, 1], [1, 3, 2]):
        with pytest.raises(ValueError, match="ascending"):
            Truth(None, x, np.array(bad))
    edge = np.arange(_ROW_BLOCK + 5, dtype=np.int32)
    edge[_ROW_BLOCK] = 0
    with pytest.raises(ValueError, match="ascending"):
        Truth(None, x, edge)
    mine = np.array([1, 5, 5, 5], dtype=np.int32)
    truth = Truth(None, x, mine)
    assert np.shares_memory(truth.starts, mine) and mine.flags.writeable
    assert not truth.starts.flags.writeable
    wide = Truth(None, x, [1, 5, 5, 5])
    assert wide.starts.dtype == np.int32 and list(wide.starts) == [1, 5, 5, 5]


def test_transmit_refuses_codewords_past_int32_starts():
    """n above 2^30 is refused before any other check: a short codeword,
    which would fail the length check, meets the n check first."""
    n = 2**30 + 1
    p = ChannelParams(n=n, L=1, K=1, delta=0.0)
    with pytest.raises(DomainError, match=f"n = {n} exceeds the limit"):
        transmit_codeword(random_codeword(8, 0), p, 0)


def test_transmit_caps_read_symbols_below_2_pow_31(monkeypatch):
    """K * L = 2^31 is refused before the first draw, the erasures', which
    comes before any array a channel use builds; K * L = 2^31 - 1 passes
    the cap and reaches it."""

    def first_draw(*args):
        raise LookupError("first draw reached")

    two, one = random_codeword(2, 0), random_codeword(1, 0)
    monkeypatch.setattr("ssesim.channel.stage_rng", first_draw)
    over = ChannelParams(n=2, L=2, K=2**30, delta=0.0)
    with pytest.raises(DomainError, match="K \\* L = 2147483648 exceeds the limit"):
        transmit_codeword(two, over, 0)
    at_cap = ChannelParams(n=1, L=1, K=2**31 - 1, delta=0.0)
    with pytest.raises(LookupError, match="first draw reached"):
        transmit_codeword(one, at_cap, 0)


def test_codebook_rows_hold_the_codewords():
    """Each packed row is its codeword's value plane; the rows are
    read-only, one 2-D uint8 array of width ceil(n/8) with no bit past n.
    This is the decoders' only check of a codebook."""
    book = random_codebook(13, 5, 4)
    assert book.rows.shape == (5, 2) and not book.rows.flags.writeable
    for row, x in zip(book.rows, book):
        assert x.size == x.length == 13
        assert x.bits == int.from_bytes(row.tobytes(), "little")
    rows = book.rows.copy()
    rows[3, 1] |= 0x20  # symbol 13
    with pytest.raises(ValueError, match="past the length 13"):
        Codebook(rows, 13)
    with pytest.raises(ValueError, match="width 1"):
        Codebook(rows, 8)
    for bad in (book.rows[0], book.rows.astype(np.int64)):  # a 1-D row; not uint8
        with pytest.raises(ValueError, match="must be uint8 arrays of width 2"):
            Codebook(bad, 13)


@pytest.mark.parametrize("n", [1001, 8191, 8192])
def test_codebook_memory_is_packed(n):
    """A codebook of 4096 codewords keeps its packed rows, M * ceil(n/8)
    bytes, and next to nothing else; while the rows are cut from the drawn
    bytes both are alive, plus one block of rows' temporaries.  One
    TritString per codeword (two n-bit ints each) or a byte per symbol
    breaks the bounds."""
    count = 4096
    size = count * ((n + 7) // 8)
    random_codebook(n, 3, 1)  # first-call caches out of the count
    tracemalloc.start()
    try:
        book = random_codebook(n, count, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(book) == count
    assert held <= 1.05 * size + 64 * 1024
    assert peak <= 2.25 * size + 256 * 1024


def test_transmit_message_bounds():
    cb = random_codebook(20, 4, 3)
    p = ChannelParams(n=20, L=5, K=3, delta=0.0)
    for w in range(len(cb)):
        out = transmit(cb, w, p, 8)
        assert out.truth.message == w
        assert out.truth.codeword == cb[w : w + 1]
        assert np.array_equal(out.values, transmit_codeword(cb[w : w + 1], p, 8).values)
    with pytest.raises(DomainError):
        transmit(cb, 4, p, 8)
    with pytest.raises(DomainError):
        transmit(cb, -1, p, 8)


def test_json_round_trip():
    p = ChannelParams(n=40, L=6, K=5, delta=0.35)
    out = transmit_codeword(random_codeword(p.n, 21), p, 21, message=None)
    doc = json.loads(out.to_json())
    assert doc["params"] == {"n": 40, "L": 6, "K": 5, "delta": 0.35}
    assert [r["symbols"] for r in doc["reads"]] == [r.text for r in out.reads]
    assert doc["truth"]["w"] is None
    symbols = np.unpackbits(out.truth.codeword.rows[0], count=p.n, bitorder="little")
    assert doc["truth"]["x"] == "".join(map(str, symbols))
    assert doc["truth"]["starts"] == [int(s) for s in out.truth.starts]

    # Without the truth the reads are listed by text, not in start order.
    view_only = json.loads(out.to_json(include_truth=False))
    assert "truth" not in view_only
    assert view_only["reads"] == sorted(doc["reads"], key=lambda r: r["symbols"])


def _pack(rows) -> np.ndarray:
    return np.packbits(np.asarray(rows, dtype=np.uint8), axis=1, bitorder="little")


def _ones_truth(n: int, starts) -> Truth:
    """A truth record whose codeword is all ones, so every window is."""
    return Truth(None, Codebook(_pack(np.ones((1, n))), n), np.array(starts))


def test_decoder_view_zeroes_erased_values():
    p = ChannelParams(n=8, L=4, K=2, delta=0.5)
    # Value bits are set at the erased positions too; reads must drop them.
    known = _pack([[1, 0, 1, 0], [0, 0, 1, 1]])
    out = ChannelOutput(p, known, _ones_truth(8, [1, 6]))
    assert np.unpackbits(out.values, axis=1, count=4, bitorder="little").all()
    assert [s.text for s in out.reads] == ["1*1*", "**11"]


def test_output_rejects_malformed_planes():
    p = ChannelParams(n=16, L=10, K=2, delta=0.5)
    good = _pack(np.ones((2, 10)))
    truth = _ones_truth(16, [1, 9])
    assert good.shape == (2, 2)
    ChannelOutput(p, good.copy(), truth)
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, np.ones((2, 10), dtype=np.uint8), truth)
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, good[:1].copy(), truth)
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, good.astype(bool), truth)
    for pad_bit in range(2, 8):  # bits 10..15 of each row are past L
        known = good.copy()
        known[1, 1] |= 1 << pad_bit
        with pytest.raises(ValueError, match="past the read length"):
            ChannelOutput(p, known, truth)
    # Value bits past L, the codeword's next symbols, are ignored like
    # those at erased positions.
    out = ChannelOutput(p, good.copy(), truth)
    assert np.all(out.values[:, 1] == 0xFF)
    assert [s.text for s in out.reads] == ["1" * 10] * 2


def test_output_needs_its_truth_record():
    """The output's values are gathered from its truth record, so an output
    without one, or with a record of another read count or codeword
    length, is refused."""
    p = ChannelParams(n=16, L=10, K=2, delta=0.5)
    known = _pack(np.ones((2, 10)))
    with pytest.raises(TypeError):
        ChannelOutput(p, known)
    bad = (None, _ones_truth(16, [1]), _ones_truth(16, [1, 2, 3]), _ones_truth(24, [1, 2]))
    for truth in bad:
        with pytest.raises(ValueError, match="truth record"):
            ChannelOutput(p, known, truth)


def test_output_arrays_read_only():
    p = ChannelParams(n=30, L=4, K=3, delta=0.2)
    out = transmit_codeword(random_codeword(p.n, 6), p, 6)
    for plane in (out.values, out.known):
        with pytest.raises(ValueError):
            plane[0, 0] = 1
    with pytest.raises(ValueError):
        out.truth.starts[0] = 5


def test_output_refuses_starts_off_the_ring():
    """A truth record takes any ascending int32 starts, but an output needs
    them on its ring, in [1, n]: a start of 0, past n or negative would
    give wrong values and phi_v, and one far past n an index error."""
    p = ChannelParams(n=16, L=4, K=2, delta=0.0)
    known = _pack(np.ones((2, 4)))
    for bad in ([0, 5], [5, 17], [-3, 5], [5, 1000]):
        with pytest.raises(ValueError, match=r"in \[1, n=16\]"):
            ChannelOutput(p, known.copy(), _ones_truth(16, bad))
    for edge in ([1, 5], [5, 16], [1, 16]):
        ChannelOutput(p, known.copy(), _ones_truth(16, edge))


def test_truth_refuses_starts_past_int32():
    x = random_codeword(8, 0)
    for bad in ([1, 2**31], [-(2**31) - 1, 3]):
        with pytest.raises(ValueError, match="int32"):
            Truth(None, x, np.array(bad, dtype=np.int64))
    for bad in (np.array([1.0, 2.0]), np.array([True, True])):
        with pytest.raises(ValueError, match="int32"):
            Truth(None, x, bad)
    edge = np.array([-(2**31), 7, 2**31 - 1], dtype=np.int64)
    truth = Truth(None, x, edge)
    assert truth.starts.dtype == np.int32
    assert list(truth.starts) == [-(2**31), 7, 2**31 - 1]


@pytest.mark.parametrize(
    "starts", [[2**30], [2**30, 2**30], [1, 2**30], [3, 2**29, 2**30, 2**30]]
)
def test_gaps_do_not_overflow_int32_starts(starts):
    """At n = 2^30 the wrapped edge, the first start plus n, passes
    2^31 - 1, so the edges of int32 starts are widened and the gaps come
    out int64, as they do for int64 starts.  (In int32 the wrapped edge's
    overflow would cancel in its difference, since every gap is at most
    n; the int64 gaps keep the stages' arithmetic on them out of int32.)"""
    n = 2**30
    sorted_starts = np.array(starts, dtype=np.int32)
    K = len(starts)
    # Gap i runs from start i to the next, the last one round the ring.
    want = [b - a for a, b in zip(starts, starts[1:])] + [starts[0] + n - starts[-1]]
    gaps = cyclic_gaps(sorted_starts, n)
    assert gaps.dtype == np.int64 and gaps.tolist() == want and gaps.sum() == n
    for lo in range(K):
        for hi in range(lo + 1, K + 1):
            around = _gaps_around(sorted_starts, n, slice(lo, hi))
            assert around.dtype == np.int64
            assert around.tolist() == [want[(lo - 1) % K], *want[lo:hi]]
