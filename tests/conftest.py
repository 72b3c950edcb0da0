import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import ssesim
from ssesim.channel import ChannelOutput, ChannelParams, Codebook, Truth
from ssesim.stats import chain_island_count


def loaded_by_cli_import(module: str, argv=None) -> bool:
    """Whether a fresh ``import ssesim.cli`` loads ``module``; with ``argv``,
    whether it is loaded once ``ssesim.cli.main(argv)`` has also run, which
    must succeed."""
    run = "" if argv is None else f"assert ssesim.cli.main({list(argv)!r}) == 0; "
    code = f"import sys, ssesim.cli; {run}print({module!r} in sys.modules)"
    # The child imports the same package as this process, whether or not
    # PYTHONPATH is set: pytest's ``pythonpath`` does not reach children.
    path = [str(Path(ssesim.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    # The answer is the last line, after anything the command wrote.
    return out.stdout.splitlines()[-1] == "True"


def make_output(
    x_text: str,
    starts: list[int],
    L: int,
    delta: float = 0.0,
    erased: set[tuple[int, int]] = frozenset(),
) -> ChannelOutput:
    """Channel output with hand-picked starts (1-based) and erasures.

    ``erased`` holds (index into ``starts``, 0-based position within the
    read) pairs.  As in the channel's outputs, the reads are numbered in
    start order (tied starts by their index), so each erasure is moved to
    its read's row of the (K, L) erasure array, which is packed into the
    output's ``known`` plane; ``values`` is gathered from the codeword at
    the starts.
    """
    n = len(x_text)
    params = ChannelParams(n=n, L=L, K=len(starts), delta=delta)
    order = np.argsort(starts, kind="stable")
    row = np.argsort(order)  # the read that starts[i] becomes
    known = np.ones((len(starts), L), dtype=bool)
    for i, j in erased:
        known[row[i], j] = False
    truth = Truth(
        message=None,
        codeword=Codebook(np.packbits([[int(c) for c in x_text]], axis=1, bitorder="little"), n),
        starts=np.asarray(starts, dtype=np.int64)[order],
    )
    return ChannelOutput(
        params=params, known=np.packbits(known, axis=1, bitorder="little"), truth=truth
    )


def exact_counts_by_enumeration(n, L, K, delta):
    """Expected suffix-size histogram by brute force over the start tuples
    whose first start is 0.  Every distance is a difference of starts, so
    each such tuple stands for its n rotations."""
    tuples = ((0, *rest) for rest in product(range(n), repeat=K - 1))
    return _counts_over(tuples, Fraction(1, n ** (K - 1)), n, L, K, delta)


def exact_counts_over_all_tuples(n, L, K, delta):
    """The same histogram over all n^K start tuples: the cross-check of the
    rotation argument."""
    return _counts_over(product(range(n), repeat=K), Fraction(1, n**K), n, L, K, delta)


def _counts_over(tuples, weight, n, L, K, delta):
    out = [Fraction(0)] * (L + 1)
    for starts in tuples:
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
        chain_island_count(make_output("0" * n, [s + 1 for s in starts], L))
        for starts in product(range(n), repeat=K)
    )
    return Fraction(total, K * n**K)


@pytest.fixture
def output_factory():
    return make_output
