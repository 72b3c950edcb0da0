import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ssesim import decoder
from ssesim.channel import ChannelParams, Codebook, random_codebook, transmit
from ssesim.decoder import (
    DecoderConfig,
    SearchSpaceError,
    oracle_decode,
    typicality_decode,
)
from ssesim.errors import DomainError
from ssesim.stats import TypicalityThresholds
from ssesim.tritstring import TritString

from conftest import make_output
from ground_truth import (
    _assemble,
    enumerate_claims,
    true_islands,
    true_ordering,
    visible_symbols,
)


def ts(*texts):
    return [TritString.from_text(t) for t in texts]


def packed(codebook):
    """A ``Codebook`` of the rows of fully visible codewords."""
    n = len(codebook[0])
    raw = b"".join(x.bits.to_bytes((n + 7) // 8, "little") for x in codebook)
    return Codebook(np.frombuffer(raw, dtype=np.uint8).reshape(len(codebook), -1), n)


def book(*texts):
    """A ``Codebook`` of binary codeword texts."""
    return packed(ts(*texts))


def rotations(s):
    return {s[i:] + s[:i] for i in range(len(s))}


def test_config_validation():
    DecoderConfig()  # defaults are legal
    with pytest.raises(DomainError):
        DecoderConfig(epsilon=0.0)
    with pytest.raises(DomainError):
        DecoderConfig(epsilon=-1.0)
    with pytest.raises(DomainError):
        DecoderConfig(omega_mode="sometimes")


def test_typical_tuple_hand_case():
    # n=16, L=4, K=4, delta=0: c=1, zero reference 4/e ~ 1.47, count slack
    # 0.5 * 16 / 16 = 0.5.  The per-size windows then pin the histogram to
    # exactly one read each at sizes 2, 3, 4 and one unmerged read.
    p = ChannelParams(n=16, L=4, K=4, delta=0.0)
    th = TypicalityThresholds(p, 0.5)
    assert th.typical_suffix_sizes((0, 2, 3, 4))
    assert not th.typical_suffix_sizes((0, 0, 2, 3))  # size-4 count short
    assert not th.typical_suffix_sizes((0, 1, 2, 3))  # size-1 count high
    assert not th.typical_suffix_sizes((0, 0, 0, 0))  # too many breaks
    for omega in [(0, 2, 3, 4), (0, 0, 0, 0), (4, 4, 4, 4)]:
        assert TypicalityThresholds(p, math.inf).typical_suffix_sizes(omega)
    with pytest.raises(DomainError):
        th.typical_suffix_sizes((0, 2, 3))
    with pytest.raises(DomainError):
        th.typical_suffix_sizes((0, 2, 3, 5))
    with pytest.raises(DomainError):
        th.typical_suffix_sizes((0, 2, 3, -1))


def test_filter_islands():
    out = make_output("01101001", [1, 4, 7], L=4)
    visible = visible_symbols(true_islands(out)[0])
    assert visible == 8
    p = out.params  # c = 1.5, visible-coverage target 1 - e^-1.5 ~ 0.777
    assert TypicalityThresholds(p, math.inf).typical_coverage(visible)
    assert TypicalityThresholds(p, 0.5).typical_coverage(visible)
    assert not TypicalityThresholds(p, 0.05).typical_coverage(visible)


def test_full_coverage_toy_decodes():
    codebook = book("00000000", "01101001", "11111111", "00110011")
    reads = ts("0110", "0100", "0101")
    p = ChannelParams(n=8, L=4, K=3, delta=0.0)
    result = typicality_decode(codebook, reads, p)
    assert result.message == 1
    assert result.candidate_codewords == (1,)
    assert result.tuples_visited > 0
    assert oracle_decode(codebook, reads) == (1,)


def test_duplicate_codewords_block_decoding():
    codebook = book("01101001", "01101001")
    reads = ts("0110", "0100", "0101")
    p = ChannelParams(n=8, L=4, K=3, delta=0.0)
    result = typicality_decode(codebook, reads, p)
    assert result.message is None
    assert result.candidate_codewords == (0, 1)
    assert oracle_decode(codebook, reads) == (0, 1)


def test_read_count_guards():
    codebook = book("0011")
    p9 = ChannelParams(n=16, L=2, K=9, delta=0.0)
    with pytest.raises(SearchSpaceError):
        typicality_decode(codebook, ts(*["01"] * 9), p9)
    with pytest.raises(DomainError):
        typicality_decode(codebook, [], ChannelParams(n=16, L=2, K=1, delta=0.0))
    with pytest.raises(DomainError):
        typicality_decode(
            codebook, ts("01", "10"), ChannelParams(n=16, L=2, K=3, delta=0.0)
        )
    with pytest.raises(DomainError):
        oracle_decode(codebook, ["01"])  # plain strings are not reads


def test_matching_wraps_the_cycle():
    codebook = book("0001")
    reads = ts("10")  # present only across the wrap of 0001
    p = ChannelParams(n=4, L=2, K=1, delta=0.0)
    assert typicality_decode(codebook, reads, p).message == 0
    assert oracle_decode(codebook, reads) == (0,)


def test_island_longer_than_n_matches_nothing():
    # The only surviving claim chains 111, 11* and 10* into the 5-symbol
    # island 1110*, longer than n = 4.  Its cyclic extension of 0111 reads
    # 1110 then erasures, so a match that did not reject long islands would
    # keep codeword 0.
    codebook = book("0111", "1000", "0001", "0011")
    reads = ts("111", "11*", "10*")
    p = ChannelParams(n=4, L=3, K=3, delta=0.2)
    config = DecoderConfig(epsilon=0.2, omega_mode="all-tuples")
    result = typicality_decode(codebook, reads, p, config)
    assert result.candidate_islands == (("1110*",),)
    assert result.candidate_codewords == ()
    assert result.message is None


@pytest.mark.parametrize(
    "decode",
    [
        # codewords shorter than n
        lambda: typicality_decode(
            book("0110", "1111"), ts("01", "11", "10"), ChannelParams(16, 2, 3, 0.0)
        ),
        # reads shorter than L
        lambda: typicality_decode(
            book("0110", "1111"), ts("01", "11"), ChannelParams(4, 4, 2, 0.0)
        ),
        # one read of the wrong length
        lambda: typicality_decode(
            book("01101001"), ts("0110", "100"), ChannelParams(8, 4, 2, 0.0)
        ),
        # the oracle: a read longer than a codeword
        lambda: oracle_decode(book("0110", "1111"), ts("01101")),
    ],
    ids=["short-codewords", "short-reads", "one-short-read", "oracle-long-read"],
)
def test_lengths_must_match(decode):
    with pytest.raises(DomainError):
        decode()


def _oracle_by_shifts(codebook, reads):
    """The oracle as a loop over codewords, reads and all n cyclic shifts,
    kept as the reference for the whole-codebook shift-and pass."""
    out = []
    for w, x in enumerate(codebook):
        if any(len(s) > len(x) for s in reads):
            raise DomainError(f"a read is longer than codeword {w}")
        hb, hk = x.bits | x.bits << x.length, x.known | x.known << x.length
        if all(
            any(
                ((hb >> p) ^ s.bits) & (hk >> p) & s.known == 0
                for p in range(x.length)
            )
            for s in reads
        ):
            out.append(w)
    return tuple(out)


def _random_word(rng, length):
    return TritString.from_text("".join(map(str, rng.integers(0, 2, length))))


def _reads_from(rng, codebook, count, delta):
    """Cyclic windows of random codewords at random lengths up to the
    shortest codeword, erased at rate delta; every third has one symbol
    flipped, so some codewords hold all reads and others lose partway."""
    n = min(len(x) for x in codebook)
    reads = []
    for i in range(count):
        x = codebook[rng.integers(len(codebook))].text
        length, p = int(rng.integers(1, n + 1)), int(rng.integers(len(x)))
        text = list((x + x)[p : p + length])
        for j in range(length):
            if rng.random() < delta:
                text[j] = "*"
        if i % 3 == 2:
            j = int(rng.integers(length))
            text[j] = {"0": "1", "1": "0", "*": "*"}[text[j]]
        reads.append(TritString.from_text("".join(text)))
    return reads


@pytest.mark.parametrize("size", [1, 7, 9, 1000])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 13, 30, 65])
def test_oracle_matches_per_shift_loop(size, n):
    rng = np.random.default_rng([size, n])
    for _ in range(4):
        codebook = [_random_word(rng, n) for _ in range(size)]
        reads = _reads_from(rng, codebook, int(rng.integers(1, 6)), 0.2)
        cases = [
            reads,
            [],
            reads + [TritString(0, 0, n)],  # all erased
            reads[:1] + [TritString.from_text(codebook[-1].text[:1])],  # length 1
            reads + [TritString.from_text(codebook[0].text)],  # length n
            # At most 4 symbols: at n = 13 a lane, the row and its first 3
            # symbols, is the row's own 2 bytes, so no pad byte is added.
            [TritString.from_text(r.text[:4]) for r in reads]
            + [TritString.from_text(codebook[0].text[:4])],
        ]
        rows = packed(codebook)
        for case in cases:
            assert oracle_decode(rows, case) == _oracle_by_shifts(codebook, case)


def test_codeword_test_stops_once_no_codeword_is_left(monkeypatch):
    """The most visible read runs first; once it has ruled out every
    codeword, no other read is tested."""
    kernel = decoder._shift_and
    calls = []
    monkeypatch.setattr(
        decoder, "_shift_and", lambda v, *planes: calls.append(v) or kernel(v, *planes)
    )
    reads = ts("1*", "111", "*1")  # no codeword holds 111
    assert oracle_decode(book("0000", "0011", "0101"), reads) == ()
    assert calls == [(0b111, 0b111, 3)]


def test_oracle_of_an_empty_codebook_is_empty():
    assert oracle_decode(random_codebook(8, 4, 0)[:0], ts("01", "1*")) == ()


def test_decoders_take_a_codebook():
    p = ChannelParams(n=4, L=2, K=1, delta=0.0)
    for codebook in (ts("0001"), [], ()):
        with pytest.raises(DomainError, match="Codebook"):
            oracle_decode(codebook, ts("10"))
        with pytest.raises(DomainError, match="Codebook"):
            typicality_decode(codebook, ts("10"), p)


def _toy_instance(seed, delta):
    p = ChannelParams(n=24, L=6, K=5, delta=delta)
    codebook = random_codebook(p.n, 6, seed)
    w = seed % len(codebook)
    out = transmit(codebook, w, p, seed)
    return p, codebook, w, out


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_decode_of_an_empty_codebook_finds_nothing(delta):
    p, codebook, w, out = _toy_instance(5, delta)
    result = typicality_decode(codebook[:0], out.reads, p)
    assert result.candidate_codewords == ()
    assert result.message is None


def test_matches_oracle_with_filters_off():
    for seed in range(30):
        delta = 0.15 if seed % 2 else 0.0
        p, codebook, w, out = _toy_instance(seed, delta)
        result = typicality_decode(codebook, out.reads, p)
        oracle = oracle_decode(codebook, out.reads)
        assert set(result.candidate_codewords) == set(oracle)
        assert w in oracle
        if result.message is not None:
            assert result.message == w


def _naive_holds(island: str, word: str) -> bool:
    """``island`` sits compatibly in some cyclic window of ``word``."""
    if len(island) > len(word):
        return False
    hay = word + word
    return any(
        all(a == "*" or b == "*" or a == b for a, b in zip(island, hay[p:]))
        for p in range(len(word))
    )


@pytest.mark.parametrize("omega_mode", ["typical-only", "all-tuples"])
@pytest.mark.parametrize("epsilon", [0.5, 2.0])
def test_finite_epsilon_candidates_hold_a_candidate_island_set(epsilon, omega_mode):
    config = DecoderConfig(epsilon=epsilon, omega_mode=omega_mode)
    for seed in range(12):
        p, codebook, w, out = _toy_instance(seed, 0.1)
        result = typicality_decode(codebook, out.reads, p, config)
        words = [x.text for x in codebook]
        islands = {t for texts in result.candidate_islands for t in texts}
        holds = {
            (t, v): _naive_holds(t, x) for t in islands for v, x in enumerate(words)
        }
        expected = {
            v
            for v in range(len(words))
            if any(all(holds[t, v] for t in texts) for texts in result.candidate_islands)
        }
        assert set(result.candidate_codewords) == expected, seed


def test_true_islands_among_candidates():
    for seed in range(20):
        p, codebook, w, out = _toy_instance(seed, 0.1)
        result = typicality_decode(codebook, out.reads, p)
        zeta, overlaps, omega = true_ordering(out)
        islands, _, circular = _assemble(
            out.reads, zeta, [l if w > 0 else 0 for l, w in zip(overlaps, omega)]
        )
        texts = tuple(sorted(i.text for i in islands))
        if circular:
            # A circular claim folds starting from read 0, so the recorded
            # text may be any rotation of the reference one.
            assert len(texts) == 1
            assert rotations(texts[0]) & {
                c[0] for c in result.candidate_islands if len(c) == 1
            }
        else:
            assert texts in result.candidate_islands


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 16),
    L=st.integers(1, 6),
    K=st.integers(1, 5),
    delta=st.sampled_from([0.0, 0.2, 0.5]),
    epsilon=st.sampled_from([math.inf, 0.5, 2.0]),
    omega_mode=st.sampled_from(["typical-only", "all-tuples"]),
    size=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
# One read: its only claim is a break, as L <= n symbols cannot fold into n.
@example(n=9, L=4, K=1, delta=0.2, epsilon=math.inf, omega_mode="all-tuples", size=2, seed=0)
# Reads 110, 101, 011, 001 of 100110: rings that advance exactly n, and
# overclaimed islands longer than n.
@example(n=6, L=3, K=4, delta=0.0, epsilon=math.inf, omega_mode="all-tuples", size=2, seed=0)
def test_decoder_matches_the_claim_enumerator(n, L, K, delta, epsilon, omega_mode, size, seed):
    """The claim search against ``ground_truth.enumerate_claims``, an
    independent brute-force reference."""
    params = ChannelParams(n, min(L, n), K, delta)
    config = DecoderConfig(epsilon, omega_mode)
    codebook = random_codebook(n, size, seed)
    reads = transmit(codebook, seed % size, params, seed).reads
    result = typicality_decode(codebook, reads, params, config)
    # The decoder searches its reads sorted by raw triple, which fixes the
    # rotation of a ring island: the enumerator gets them in that order.
    ordered = sorted(reads, key=lambda r: (r.bits, r.known, r.length))
    visited, island_sets, candidates = enumerate_claims(codebook, ordered, params, config)
    assert result.tuples_visited == visited
    assert set(result.island_sets) == island_sets
    assert result.candidate_codewords == candidates


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(4, 16),
    L=st.integers(2, 6),
    K=st.integers(2, 5),
    delta=st.sampled_from([0.0, 0.2, 0.5]),
    epsilon=st.sampled_from([math.inf, 0.5, 2.0]),
    size=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
# Reads 110, 101, 011, 001 of 100110: ring islands, whose rotation
# followed the first read before the decoder sorted its reads.
@example(n=6, L=3, K=4, delta=0.0, epsilon=math.inf, size=2, seed=0, data=None)
def test_decode_depends_only_on_the_read_multiset(n, L, K, delta, epsilon, size, seed, data):
    """Shuffling the reads changes neither the oracle's codewords nor any
    field of the decode, the raw order of ``island_sets`` included."""
    params = ChannelParams(n, min(L, n), K, delta)
    config = DecoderConfig(epsilon)
    codebook = random_codebook(n, size, seed)
    reads = list(transmit(codebook, seed % size, params, seed).reads)
    order = list(reversed(range(K))) if data is None else data.draw(st.permutations(range(K)))
    shuffled = [reads[i] for i in order]
    assert oracle_decode(codebook, shuffled) == oracle_decode(codebook, reads)
    a = typicality_decode(codebook, reads, params, config)
    b = typicality_decode(codebook, shuffled, params, config)
    assert a == b and a.candidate_islands == b.candidate_islands


def test_decode_leaves_no_cycle_for_the_collector():
    """A decode frees what it built on return: with the cyclic collector
    off, a decode of decode-bigbook's shape (n 32, L 8, K 4, 1024
    codewords) leaves nothing for it to find, at epsilon = inf and 0.5."""
    params = ChannelParams(32, 8, 4, 0.1)
    codebook = random_codebook(32, 1024, 17)
    reads = transmit(codebook, 17, params, 17).reads
    typicality_decode(codebook, reads, params)  # first-call caches out of the count
    gc.collect()
    gc.disable()
    try:
        for epsilon in (math.inf, 0.5):
            typicality_decode(codebook, reads, params, DecoderConfig(epsilon))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_candidates_monotone_in_epsilon():
    for seed in range(12):
        p, codebook, w, out = _toy_instance(seed, 0.1)
        results = [
            typicality_decode(codebook, out.reads, p, DecoderConfig(epsilon=e))
            for e in (0.3, 1.0, math.inf)
        ]
        for tight, loose in zip(results, results[1:]):
            assert set(tight.candidate_codewords) <= set(loose.candidate_codewords)
            assert set(tight.candidate_islands) <= set(loose.candidate_islands)


def test_decode_deterministic_and_input_agnostic():
    p, codebook, w, out = _toy_instance(3, 0.1)
    a = typicality_decode(codebook, out.reads, p)
    b = typicality_decode(codebook, out.reads, p)
    c = typicality_decode(codebook, list(out.reads), p)
    assert a == b == c


def test_island_texts_render_on_first_access(monkeypatch):
    p, codebook, w, out = _toy_instance(3, 0.1)
    rendered = []
    text = decoder._text
    monkeypatch.setattr(decoder, "_text", lambda *t: rendered.append(t) or text(*t))
    result = typicality_decode(codebook, out.reads, p)
    assert not rendered
    assert result.candidate_islands
    assert sorted(rendered) == sorted({t for s in result.island_sets for t in s})
