import json

import numpy as np
import pytest
from scipy import stats as sps

from ssesim.channel import (
    ChannelOutput,
    ChannelParams,
    generate_codebook,
    random_codebook,
    random_codeword,
    transmit,
    transmit_codeword,
)
from ssesim.errors import DomainError
from ssesim.tritstring import TritString


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
    assert a.size == a.length == 200


def test_reads_match_codeword_windows():
    p = ChannelParams(n=64, L=10, K=8, delta=0.4)
    x = random_codeword(p.n, 3)
    out = transmit_codeword(x, p, 3)
    text = x.text
    for read, start in zip(out.reads, out.truth.starts):
        window = "".join(text[(start - 1 + j) % p.n] for j in range(p.L))
        for got, true in zip(read.text, window):
            assert got in ("*", true)
    for sym, clean in zip(out.reads, out.pre_erasure_reads):
        assert clean.size == p.L
        assert all(a is None or a == b for a, b in zip(sym, clean))


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
    erased = total - int(out.known.sum())
    sigma = (total * p.delta * (1 - p.delta)) ** 0.5
    assert abs(erased - total * p.delta) < 3 * sigma


def test_sample_reads_rejects_partial_codeword():
    p = ChannelParams(n=4, L=2, K=1, delta=0.0)
    with pytest.raises(DomainError):
        transmit_codeword(TritString.from_text("01*1"), p, 0)
    with pytest.raises(DomainError):
        transmit_codeword(TritString.from_text("011"), p, 0)


def test_generate_codebook_sizes():
    cb = generate_codebook(16, 0.25, 5)
    assert len(cb) == 16  # 2^(16 * 0.25)
    assert all(x.length == 16 and x.size == 16 for x in cb)
    # A rate derived from a target size must round-trip exactly.
    import math

    for m in (3, 5, 6, 7, 12):
        assert len(generate_codebook(32, math.log2(m) / 32, 5)) == m
    with pytest.raises(DomainError):
        generate_codebook(100, 0.5, 5)  # 2^50 codewords
    with pytest.raises(DomainError):
        random_codebook(16, 0, 5)


def test_codebook_deterministic_prefix():
    # Same seed: rows fill in order, so growing the codebook keeps a prefix.
    small = random_codebook(24, 4, 9)
    large = random_codebook(24, 8, 9)
    assert large[:4] == small
    assert random_codebook(24, 4, 9) == small
    assert random_codebook(24, 4, 10) != small


def test_transmit_message_bounds():
    cb = random_codebook(20, 4, 3)
    p = ChannelParams(n=20, L=5, K=3, delta=0.0)
    out = transmit(cb, 2, p, 8)
    assert out.truth.message == 2
    assert out.truth.codeword == cb[2]
    with pytest.raises(DomainError):
        transmit(cb, 4, p, 8)
    with pytest.raises(DomainError):
        transmit(cb, -1, p, 8)


def test_json_round_trip():
    p = ChannelParams(n=40, L=6, K=5, delta=0.35)
    out = transmit_codeword(random_codeword(p.n, 21), p, 21, message=None)
    text = out.to_json()
    back = ChannelOutput.from_json(text)
    assert back.params == out.params
    assert back.reads == out.reads
    assert back.truth.codeword == out.truth.codeword
    assert list(back.truth.starts) == list(out.truth.starts)
    assert back.to_json() == text

    view_only = ChannelOutput.from_json(out.to_json(include_truth=False))
    assert view_only.truth is None
    assert view_only.reads == out.reads


def _drop_read(doc):
    doc["reads"].pop()


def _extra_read(doc):
    doc["reads"].append(doc["reads"][0])


def _short_codeword(doc):
    doc["truth"]["x"] = doc["truth"]["x"][:-1]


def _missing_start(doc):
    doc["truth"]["starts"].pop()


def _start_past_n(doc):
    doc["truth"]["starts"][0] = doc["params"]["n"] + 1


def _start_zero(doc):
    doc["truth"]["starts"][0] = 0


@pytest.mark.parametrize(
    "corrupt",
    [_drop_read, _extra_read, _short_codeword, _missing_start, _start_past_n, _start_zero],
)
def test_from_json_rejects_inconsistent_documents(corrupt):
    p = ChannelParams(n=40, L=6, K=5, delta=0.35)
    doc = json.loads(transmit_codeword(random_codeword(p.n, 21), p, 21).to_json())
    corrupt(doc)
    with pytest.raises(ValueError):
        ChannelOutput.from_json(json.dumps(doc))


def test_decoder_view_zeroes_erased_values():
    p = ChannelParams(n=8, L=4, K=2, delta=0.5)
    known = np.array([[1, 0, 1, 0], [0, 0, 1, 1]], dtype=bool)
    out = ChannelOutput(p, np.ones((2, 4), dtype=np.uint8), known)
    assert [s.text for s in out.reads] == ["1*1*", "**11"]


def test_output_arrays_read_only():
    p = ChannelParams(n=30, L=4, K=3, delta=0.2)
    out = transmit_codeword(random_codeword(p.n, 6), p, 6)
    with pytest.raises(ValueError):
        out.values[0, 0] = 1
    with pytest.raises(ValueError):
        out.truth.starts[0] = 5
