import json

import numpy as np
import pytest
from scipy import stats as sps

from ssesim.channel import (
    ChannelOutput,
    ChannelParams,
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
    p = ChannelParams(n=4, L=2, K=1, delta=0.0)
    with pytest.raises(DomainError):
        transmit_codeword(TritString.from_text("01*1"), p, 0)
    with pytest.raises(DomainError):
        transmit_codeword(TritString.from_text("011"), p, 0)


def test_codebook_deterministic_prefix():
    # Same seed: rows fill in order, so growing the codebook keeps a prefix.
    small = random_codebook(24, 4, 9)
    large = random_codebook(24, 8, 9)
    assert large[:4] == small
    assert random_codebook(24, 4, 9) == small
    assert random_codebook(24, 4, 10) != small
    with pytest.raises(DomainError):
        random_codebook(16, 0, 5)


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
    doc = json.loads(out.to_json())
    assert doc["params"] == {"n": 40, "L": 6, "K": 5, "delta": 0.35}
    assert [r["symbols"] for r in doc["reads"]] == [r.text for r in out.reads]
    assert doc["truth"]["w"] is None
    assert doc["truth"]["x"] == out.truth.codeword.text
    assert doc["truth"]["starts"] == [int(s) for s in out.truth.starts]

    view_only = json.loads(out.to_json(include_truth=False))
    assert "truth" not in view_only
    assert view_only["reads"] == doc["reads"]


def _pack(rows) -> np.ndarray:
    return np.packbits(np.asarray(rows, dtype=np.uint8), axis=1, bitorder="little")


def test_decoder_view_zeroes_erased_values():
    p = ChannelParams(n=8, L=4, K=2, delta=0.5)
    # Value bits are set at the erased positions too; reads must drop them.
    values = _pack(np.ones((2, 4)))
    known = _pack([[1, 0, 1, 0], [0, 0, 1, 1]])
    out = ChannelOutput(p, values, known)
    assert [s.text for s in out.reads] == ["1*1*", "**11"]


def test_output_rejects_malformed_planes():
    p = ChannelParams(n=16, L=10, K=2, delta=0.5)
    good = _pack(np.ones((2, 10)))
    assert good.shape == (2, 2)
    ChannelOutput(p, good.copy(), good.copy())
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, np.ones((2, 10), dtype=np.uint8), good.copy())
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, good.copy(), good[:1].copy())
    with pytest.raises(ValueError, match="shape"):
        ChannelOutput(p, good.copy(), good.astype(bool))
    for pad_bit in range(2, 8):  # bits 10..15 of each row are past L
        known = good.copy()
        known[1, 1] |= 1 << pad_bit
        with pytest.raises(ValueError, match="past the read length"):
            ChannelOutput(p, good.copy(), known)
    # Value bits past L are ignored like those at erased positions.
    values = good.copy()
    values[:, 1] = 0xFF
    out = ChannelOutput(p, values, good.copy())
    assert [s.text for s in out.reads] == ["1" * 10] * 2


def test_output_arrays_read_only():
    p = ChannelParams(n=30, L=4, K=3, delta=0.2)
    out = transmit_codeword(random_codeword(p.n, 6), p, 6)
    with pytest.raises(ValueError):
        out.values[0, 0] = 1
    with pytest.raises(ValueError):
        out.truth.starts[0] = 5
