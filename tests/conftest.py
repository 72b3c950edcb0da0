import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ssesim.channel import ChannelOutput, ChannelParams, Truth
from ssesim.stats import chain_island_count
from ssesim.tritstring import TritString


def make_output(
    x_text: str,
    starts: list[int],
    L: int,
    delta: float = 0.0,
    erased: set[tuple[int, int]] = frozenset(),
) -> ChannelOutput:
    """Channel output with hand-picked starts (1-based) and erasures.

    ``erased`` holds (read index, 0-based position within the read) pairs.
    The hand-built (K, L) arrays are packed into the output's bit-planes.
    """
    n = len(x_text)
    params = ChannelParams(n=n, L=L, K=len(starts), delta=delta)
    values = np.zeros((len(starts), L), dtype=np.uint8)
    known = np.ones((len(starts), L), dtype=bool)
    for i, s in enumerate(starts):
        for j in range(L):
            idx = (s - 1 + j) % n
            if (i, j) in erased:
                known[i, j] = False
            else:
                values[i, j] = int(x_text[idx])
    truth = Truth(
        message=None,
        codeword=TritString.from_text(x_text),
        starts=np.asarray(starts, dtype=np.int64),
    )
    return ChannelOutput(
        params=params,
        values=np.packbits(values, axis=1, bitorder="little"),
        known=np.packbits(known, axis=1, bitorder="little"),
        truth=truth,
    )


def exact_counts_by_enumeration(n, L, K, delta):
    """Expected suffix-size histogram by brute force over all start tuples."""
    out = [Fraction(0)] * (L + 1)
    weight = Fraction(1, n**K)
    for starts in product(range(n), repeat=K):
        for i in range(K):
            if K == 1:
                d = n
            else:
                d = min((starts[j] - starts[i]) % n for j in range(K) if j != i)
            l = max(0, L - d)
            for s in range(l + 1):
                pmf = math.comb(l, s) * (1 - delta) ** s * delta ** (l - s)
                out[s] += weight * pmf
    return out


def island_ratio_by_enumeration(n, L, K):
    """Exact mean of chain_island_count / K over all n^K start tuples."""
    total = sum(
        chain_island_count(np.array(starts), n, L)
        for starts in product(range(n), repeat=K)
    )
    return Fraction(total, K * n**K)


@pytest.fixture
def output_factory():
    return make_output
