"""Channel statistics: coverage, suffix-size spectra, prefix-match counts,
the decoder's typicality tests, and a seeded Monte Carlo harness.

Conventions.  Logs are base 2 throughout.  For a read, its *successor
distance* is the smallest forward cyclic distance to any other read start
(coincident starts give distance 0), the induced overlap is
``max(0, L - distance)``, and the *suffix size* is the number of unerased
symbols in that overlap-length suffix.  ``expected_suffix_size_counts`` gives
the exact law of that statistic:

    P(D >= g) = ((n - g) / n)^(K-1)          (uniform independent starts)
    size | overlap = l   ~  Binomial(l, 1 - delta)

and the expected count at size ``s`` is ``K * sum_l P(overlap = l) *
P(Binomial(l, 1 - delta) = s)``.  Passing a ``Fraction`` delta keeps the
whole computation in exact rational arithmetic.

Reads are numbered in start order, and every trial stage streams over
them one block of reads at a time.  ``coverage`` ORs each block's erasure
masks at their starts onto a window of uint64 ring words, one bit per
position, that slides with the blocks, and counts the words no later block
reaches with ``np.bitwise_count`` (numpy >= 2.0).  The m_z counts read the
blocks of windows of ``channel._start_windows``, which
``ChannelOutput.values`` also lays out.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (
    STAGE_CODEBOOK,
    STAGE_MZ,
    STAGE_TRIAL,
    ChannelOutput,
    ChannelParams,
    _ROW_BLOCK,
    _plane_width,
    _round_finite,
    _row_blocks,
    _shift_down,
    _start_windows,
    child_seed,
    random_codeword,
    stage_rng,
    transmit_codeword,
)
from .errors import DomainError

__all__ = [
    "CoverageReport",
    "TypicalityThresholds",
    "MzSample",
    "Moments",
    "TrialStats",
    "ConcentrationSummary",
    "coverage",
    "chain_island_count",
    "suffix_size_histogram",
    "expected_suffix_size_counts",
    "concentration_experiment",
]


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of positions covered by any read (``phi``) and covered by an
    unerased symbol of some read (``phi_v``)."""

    phi: float
    phi_v: float

    def __post_init__(self) -> None:
        if not 0 <= self.phi_v <= self.phi <= 1:
            raise ValueError("need 0 <= phi_v <= phi <= 1")


def _gaps_around(sorted_starts: np.ndarray, n: int, rows: slice) -> np.ndarray:
    """The cyclic gaps into and out of the sorted starts in ``rows``: entry
    i is the forward distance from start ``rows.start + i - 1`` to the next
    one, wrapping round the ring at both ends.  A block of rows is measured
    from its own starts and the two beside it."""
    lo, hi = rows.start, rows.stop
    edges = sorted_starts[max(lo - 1, 0) : hi + 1]
    # The wrapped edges and the gaps are int64: an int32 start plus n can
    # pass 2^31 - 1.
    if lo == 0:
        edges = np.concatenate((sorted_starts[-1:] - np.int64(n), edges))
    if hi == len(sorted_starts):
        edges = np.concatenate((edges, sorted_starts[:1] + np.int64(n)))
    return np.subtract(edges[1:], edges[:-1], dtype=np.int64)


def _gap_blocks(output: ChannelOutput):
    """Each block of reads, as its slice with the cyclic gaps into and out
    of them: gap entry i + 1 is the gap after the block's read i, and entry
    i the gap before it.  No stage holds a gap per read."""
    for blk in _row_blocks(output.params.K, output.params.L):
        yield blk, _gaps_around(output.truth.starts, output.params.n, blk)


def coverage(output: ChannelOutput) -> CoverageReport:
    """Coverage fractions against the ground-truth start positions."""
    n, L = output.params.n, output.params.L
    visible = _visible_positions(output)
    # phi sums the positions each read covers up to the next start, at most
    # L of them, one block of reads at a time.
    covered = sum(
        int(np.minimum(gaps[1:], L).sum()) for _, gaps in _gap_blocks(output)
    )
    return CoverageReport(phi=covered / n, phi_v=visible / n)


def _visible_positions(output: ChannelOutput) -> int:
    """Codeword positions that an unerased read symbol covers.

    The unerased symbols of one block of reads at a time are ORed onto a
    window of the unrolled ring's little-endian uint64 words
    (``ufunc.at`` applies every row of a repeated word): a row
    shifted up by its start's bit offset fills ``words`` words from its
    start's word on.  A block past the window's end slides it on to the
    block's first word, counting and dropping the final words below, with
    room for 2^18 more bits, so it slides once every few blocks.  The reads
    whose windows pass n are ORed once before the first block, moved back
    by n, and only bits in [0, n) are counted."""
    n, K, L = output.params.n, output.params.K, output.params.L
    starts, width = output.truth.starts, output.known.shape[1]
    words = (width + 7) // 8 + 1
    wrap = bisect.bisect_right(starts, n - L + 1)
    passes = [(slice(wrap + b.start, wrap + b.stop), n) for b in _row_blocks(K - wrap, L)]
    visible, base, ring = 0, 0, np.zeros(0, dtype="<u8")  # ring words from word base on
    for blk, back in passes + [(b, 0) for b in _row_blocks(K, L)]:
        pos = starts[blk] - np.int64(1 + back)  # 0-based, less n in a first pass
        word = pos >> 6
        lo, hi = int(word[0]), int(word[-1]) + words
        if hi - base > len(ring):
            visible += int(np.bitwise_count(ring[max(0, -base) : lo - base]).sum())
            kept, ring = ring[lo - base :].copy(), None  # freed before the next one
            ring = np.zeros(hi - lo + _ROW_BLOCK // 32, dtype="<u8")
            ring[: len(kept)], base = kept, lo
        word -= base
        span = np.zeros((len(pos), words), dtype="<u8")
        # Shifting a row up by its bit offset s is placing it one word in
        # and shifting it down by 64 - s.
        span.view(np.uint8)[:, 8 : 8 + width] = output.known[blk]
        _shift_down(span, 64 - (pos & 63))
        for j in range(words):
            np.bitwise_or.at(ring, word, span[:, j])
            word += 1
    # The word holding bit n, if the ring reaches it, keeps only its bits below n.
    ring[(n >> 6) - base :][:1] &= np.uint64((1 << (n & 63)) - 1)
    return visible + int(np.bitwise_count(ring[max(0, -base) : (n >> 6) - base + 1]).sum())


def chain_island_count(output: ChannelOutput) -> int:
    """Number of islands in the true cyclic ordering: one per gap >= L.

    Coincident starts (gap 0) overlap by L and merge into one island, so a
    group of tied reads counts once.  What is counted is the cyclic gaps
    >= L: reads that wrap the whole circle (every gap < L) give 0, although
    they form one circular island.
    """
    L = output.params.L
    return sum(int(np.count_nonzero(gaps[1:] >= L)) for _, gaps in _gap_blocks(output))


def _popcount_rows(plane: np.ndarray) -> np.ndarray:
    """Set bits per row of a packed plane of uint8 bytes or uint64 words."""
    # A product with ones sums short rows faster than ``sum(axis=-1)``.
    return np.bitwise_count(plane) @ np.ones(plane.shape[-1], dtype=np.int64)


def _suffix_size_blocks(output: ChannelOutput):
    """Each read's true merging-suffix size, one block of rows at a time."""
    L = output.params.L
    width = output.known.shape[1]
    word_starts = 64 * np.arange((width + 7) // 8)
    all_ones = np.uint64(2**64 - 1)
    for blk, gaps in _gap_blocks(output):
        # Each gap out of a read becomes its successor distance, or 0 where
        # the gap into it is 0.  A read that shares its start with the one
        # before it is at distance 0 from it, so the order within a tie is
        # free.
        gaps[1:][gaps[:-1] == 0] = 0
        # Each read's overlap-length suffix begins at position L - overlap =
        # min(distance, L); each little-endian word of a row, zero-padded to
        # whole words, keeps its bits from there on through one uint64
        # shift, which gives 0 for a shift by 64.
        begin = np.minimum(gaps[1:], L)
        shift = np.clip(begin[:, None] - word_starts, 0, 64).astype(np.uint64)
        rows = np.zeros((len(begin), 8 * len(word_starts)), dtype=np.uint8)
        rows[:, :width] = output.known[blk]
        words = rows.view("<u8")
        words &= all_ones << shift
        yield _popcount_rows(words)


def suffix_size_histogram(output: ChannelOutput) -> tuple[int, ...]:
    """Counts of reads by true merging-suffix size; index = size, 0..L."""
    counts = np.zeros(output.params.L + 1, dtype=np.int64)
    for sizes in _suffix_size_blocks(output):
        counts += np.bincount(sizes, minlength=len(counts))
    return tuple(int(c) for c in counts)


def expected_suffix_size_counts(params: ChannelParams) -> list:
    """The full expected histogram, index = suffix size 0..L.

    Its entries are floats for a float ``delta`` and Fractions for a
    Fraction ``delta``.
    """
    # A Fraction delta exists only once ``fractions`` (0.3 MB, with
    # ``decimal``) is loaded, so a float run never imports it.
    fractions = sys.modules.get("fractions")
    exact = fractions is not None and isinstance(params.delta, fractions.Fraction)
    one = fractions.Fraction(1) if exact else 1.0
    n, L, K = params.n, params.L, params.K
    delta = params.delta if exact else float(params.delta)
    # P(D >= g) for g = 0..L; K = 1 has no other reads, so the empty product
    # is 1.  The overlap is L - D when D < L, else 0.
    ge = [((n - g) * one / n) ** (K - 1) for g in range(L + 1)]
    law = [ge[L]] + [ge[L - l] - ge[L - l + 1] for l in range(1, L + 1)]
    out = []
    for s in range(L + 1):
        total = 0 * one
        comb = 1  # math.comb(l, s), carried along l by exact integer recurrence
        for l in range(s, L + 1):
            total += K * law[l] * _binomial_pmf(comb, l, s, delta)
            comb = comb * (l + 1) // (l + 1 - s)
        out.append(total)
    return out


def _binomial_pmf(comb: int, l: int, s: int, delta):
    """P(Binomial(l, 1 - delta) = s) given ``comb`` = C(l, s).

    Exact for a Fraction ``delta``.  For a float ``delta`` the plain product
    is used wherever ``comb`` fits a float; beyond that (from l = 1030 at
    s = l/2) the factors are combined in log space.
    """
    try:
        return comb * (1 - delta) ** s * delta ** (l - s)
    except OverflowError:
        if not 0 < delta < 1:
            # comb > 1 means 0 < s < l, so one factor is 0.
            return 0.0
        log_pmf = math.log(comb) + s * math.log1p(-delta) + (l - s) * math.log(delta)
        return math.exp(log_pmf)


@dataclass(frozen=True)
class TypicalityThresholds:
    """The decoder's two-sided typicality tests on suffix sizes and visible
    coverage, and the reference values they are centred on."""

    params: ChannelParams
    epsilon: float

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:
            raise DomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if not math.isinf(self.epsilon) and self.params.n < 2:
            raise DomainError(
                "a finite epsilon needs n >= 2; its slack divides by log2(n)"
            )

    @cached_property
    def island_count_ref(self) -> float:
        """K times the island ratio's reference: K * exp(-c)."""
        return self.params.K * _MOMENTS["island_ratio"][1](self.params)

    @cached_property
    def visible_coverage_ref(self) -> float:
        """phi_v's reference: 1 - exp(-c(1 - delta))."""
        return _MOMENTS["phi_v"][1](self.params)

    @cached_property
    def suffix_count_slack(self) -> float:
        """eps * n / log2(n)^2."""
        n = self.params.n
        return self.epsilon * n / math.log2(n) ** 2

    @cached_property
    def _expected_counts(self) -> list:
        return expected_suffix_size_counts(self.params)

    def typical_suffix_sizes(self, omega: Sequence[int]) -> bool:
        """Whether a suffix-size tuple passes the two-sided count thresholds.

        The zero count must stay within a relative ``epsilon`` of ``K e^-c``
        and each positive-size count within ``epsilon * n / log2(n)^2`` of its
        expectation.  ``epsilon = inf`` accepts everything.
        """
        params = self.params
        if len(omega) != params.K:
            raise DomainError(
                f"expected one entry per read ({params.K}); got {len(omega)}"
            )
        for w in omega:
            if not 0 <= w <= params.L:
                raise DomainError(f"suffix size {w!r} outside [0, {params.L}]")
        if math.isinf(self.epsilon):
            return True
        counts = Counter(omega)
        zero_ref = self.island_count_ref
        if abs(counts.get(0, 0) - zero_ref) > self.epsilon * zero_ref:
            return False
        slack = self.suffix_count_slack
        expected = self._expected_counts
        for s in range(1, params.L + 1):
            if abs(counts.get(s, 0) - float(expected[s])) > slack:
                return False
        return True

    def typical_coverage(self, visible: int) -> bool:
        """Whether ``visible`` unerased island symbols give a coverage within
        a relative ``epsilon`` of its expectation.  ``epsilon = inf`` accepts
        everything."""
        if math.isinf(self.epsilon):
            return True
        target = self.visible_coverage_ref
        return abs(visible / self.params.n - target) <= self.epsilon * target


@dataclass(frozen=True)
class MzSample:
    """Prefix-match counts for probes at one target normalized size."""

    tau_target: float
    suffix_size: int
    tau_realized: float
    counts: tuple[tuple[int, ...], ...]  # per trial
    reference: float  # K * 2^(-suffix_size)

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(c for trial in self.counts for c in trial)

    @property
    def mean(self) -> float:
        flat = self.flat
        return math.fsum(flat) / len(flat) if flat else math.nan

    @property
    def worst_relative_deviation(self) -> float:
        flat = self.flat
        if not flat or self.reference == 0:
            return math.nan
        return max(abs(c - self.reference) for c in flat) / self.reference


@dataclass(frozen=True)
class Moments:
    """The mean of one per-trial statistic, its standard error and the
    n -> infinity reference it should concentrate around."""

    mean: float
    se: float
    reference: float


def _moments(values, reference: float) -> Moments:
    vals = list(values)
    t = len(vals)
    mean = math.fsum(vals) / t
    var = math.fsum((v - mean) ** 2 for v in vals) / (t - 1) if t > 1 else 0.0
    return Moments(mean, math.sqrt(var / t), reference)


class TrialStats(NamedTuple):
    """One trial's statistics, in ``trials_csv``'s column order: the scalar
    statistics, then each m_z target's match counts and the suffix-size
    histogram, which stay the last two fields."""

    islands: int
    phi: float
    phi_v: float
    mz: tuple[tuple[int, ...], ...]
    suffix_counts: tuple[int, ...]


# The reported moments, in order: each one's value in a trial's record and
# its n -> infinity reference for the trial's parameters.  Tied starts merge,
# so the finite-n island ratio exceeds e^-c by about c/(2L).
_MOMENTS = {
    "island_ratio": (lambda r, p: r.islands / p.K, lambda p: math.exp(-p.c)),
    "phi": (lambda r, p: r.phi, lambda p: 1 - math.exp(-p.c)),
    "phi_v": (lambda r, p: r.phi_v, lambda p: 1 - math.exp(-p.c * (1 - float(p.delta)))),
}


@dataclass(frozen=True)
class ConcentrationSummary:
    """One ``TrialStats`` per trial plus order-insensitive aggregates and
    the reference values they should concentrate around."""

    params: ChannelParams
    seed: int
    per_trial: tuple[TrialStats, ...]
    mz: tuple[MzSample, ...]

    @property
    def trials(self) -> int:
        return len(self.per_trial)

    @cached_property
    def moments(self) -> dict[str, Moments]:
        """The moments of each row of ``_MOMENTS``, by name."""
        p = self.params
        return {
            name: _moments((value(r, p) for r in self.per_trial), reference(p))
            for name, (value, reference) in _MOMENTS.items()
        }

    @property
    def suffix_count_means(self) -> tuple[float, ...]:
        cols = zip(*(r.suffix_counts for r in self.per_trial))
        return tuple(math.fsum(col) / self.trials for col in cols)

    @property
    def suffix_count_refs(self) -> tuple[float, ...]:
        return tuple(float(v) for v in expected_suffix_size_counts(self.params))

    def to_json(self) -> str:
        doc = {
            "params": {
                **asdict(self.params),
                "delta": float(self.params.delta),
                "c": self.params.c,
                "lbar": self.params.lbar,
            },
            "trials": self.trials,
            "seed": self.seed,
            **{name: asdict(m) for name, m in self.moments.items()},
            "suffix_counts": {
                "mean": list(self.suffix_count_means),
                "reference": list(self.suffix_count_refs),
            },
            "mz": [
                {
                    "tau_target": m.tau_target,
                    "suffix_size": m.suffix_size,
                    "tau_realized": m.tau_realized,
                    "mean": m.mean,
                    "reference": m.reference,
                    # JSON has no nan or inf: an underflowed reference gives null.
                    "worst_relative_deviation": (
                        d if math.isfinite(d := m.worst_relative_deviation) else None
                    ),
                    "samples": len(m.flat),
                }
                for m in self.mz
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def trials_csv(self) -> str:
        header = ["trial", *TrialStats._fields[:-2]]
        header += [f"mz{j}_mean" for j in range(len(self.mz))]
        header += [f"g{s}" for s in range(self.params.L + 1)]
        lines = [",".join(header)]
        for t, (*scalars, mz, suffix_counts) in enumerate(self.per_trial):
            row = [str(t), *map(repr, scalars)]
            row += [repr(math.fsum(c) / len(c)) if c else "" for c in mz]
            row += [str(c) for c in suffix_counts]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _probe_z(
    rng: np.random.Generator, known: np.ndarray, L: int, suffix_size: int
) -> tuple[int, np.ndarray]:
    """A probe: a random read ``r`` re-erased down to exactly
    ``suffix_size`` visible symbols, returned as ``r`` and its sorted kept
    positions.  ``known`` is the reads' packed plane; only row r is
    unpacked."""
    k_reads = known.shape[0]
    for _ in range(64):
        r = int(rng.integers(k_reads))
        if _popcount_rows(known[r]) >= suffix_size:
            break
    else:
        # Rejection gave up, so draw among the eligible reads directly: both
        # are uniform over them, and the draws of a run that ends in the
        # loop do not change.
        eligible = np.flatnonzero(_popcount_rows(known) >= suffix_size)
        if not len(eligible):
            raise DomainError(
                f"no read with {suffix_size} visible symbols found; "
                "delta too high for this probe"
            )
        r = int(eligible[rng.integers(len(eligible))])
    visible = np.unpackbits(known[r], count=L, bitorder="little")
    keep = rng.choice(np.flatnonzero(visible), size=suffix_size, replace=False)
    return r, np.sort(keep)


def _prefix_matches(output: ChannelOutput, probes) -> list[int]:
    """For each probe ``(r, keep)``, the reads whose pre-erasure window
    agrees with read ``r``'s at the kept positions ``keep``, read ``r``
    included.

    The windows are the whole ones, so a read at an independent start
    agrees with probability exactly 2**-len(keep).  They are cut one block
    of reads at a time by ``channel._start_windows``, as rows of uint64
    words, and every probe is counted on each block; no plane of every
    read's window is built.  Read ``r``'s own symbols are read off the
    codeword's row from its start.  A probe's kept positions make one word
    mask: each block's rows are tested on the word that holds the most kept
    bits, and each further word keeps only the rows that still agree."""
    if not probes:
        return []
    truth, n, L = output.truth, output.params.n, output.params.L
    row, words = truth.codeword.rows[0], _plane_width(L) // 8 + 1
    tests = []
    for r, keep in probes:
        at = (int(truth.starts[r]) - 1 + keep) % n
        marked = np.zeros(64 * words, dtype=np.uint8)
        marked[keep] = 1
        mask = np.packbits(marked, bitorder="little").view("<u8")
        marked[keep] = row[at >> 3] >> (at & 7) & 1
        # A probe that keeps nothing tests its empty first word, which every
        # row passes.
        by_bits = np.argsort(-np.bitwise_count(mask).astype(np.int64), kind="stable")
        want = np.packbits(marked, bitorder="little").view("<u8")
        tests.append((mask, want, by_bits[: max(1, np.count_nonzero(mask))]))
    counts = [0] * len(tests)
    for _, span in _start_windows(truth, L):
        for i, (mask, want, by_bits) in enumerate(tests):
            first, *later = by_bits
            alive = np.flatnonzero((span[:, first] & mask[first]) == want[first])
            for w in later:
                alive = alive[(span[alive, w] & mask[w]) == want[w]]
            counts[i] += len(alive)
    return counts


def _run_trial(params: ChannelParams, seed: int, t: int, mz_sizes, mz_per_trial: int):
    trial = child_seed(seed, STAGE_TRIAL, t)
    x = random_codeword(params.n, child_seed(trial, STAGE_CODEBOOK))
    out = transmit_codeword(x, params, trial)
    # Every probe is drawn first, in the order the counts are listed, and
    # all are counted in one pass over the reads.
    rng = stage_rng(trial, STAGE_MZ)
    probes = [_probe_z(rng, out.known, params.L, s) for s in mz_sizes for _ in range(mz_per_trial)]
    counts = _prefix_matches(out, probes)
    mz = tuple(
        tuple(counts[j * mz_per_trial : (j + 1) * mz_per_trial]) for j in range(len(mz_sizes))
    )
    rep = coverage(out)
    islands = chain_island_count(out)
    hist = suffix_size_histogram(out)
    return TrialStats(islands, rep.phi, rep.phi_v, mz, hist)


def concentration_experiment(
    params: ChannelParams,
    trials: int,
    seed: int,
    *,
    mz_targets: Sequence[float] = (0.5,),
    mz_per_trial: int = 2,
    threads: int = 1,
) -> ConcentrationSummary:
    """Independent channel uses with a fresh uniform codeword per trial.

    Each trial records the island count, coverage fractions, the suffix-size
    histogram, and prefix-match counts for probes at each target normalized
    size.  Results are identical for any ``threads`` value.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if params.n < 2:
        raise DomainError("concentration experiment needs n >= 2")
    if mz_targets and mz_per_trial < 1:
        raise DomainError(f"mz_per_trial must be >= 1, got {mz_per_trial}")
    log_n = math.log2(params.n)
    mz_sizes = []
    for tau in mz_targets:
        s = _round_finite(tau * log_n, f"target tau={tau} times log2(n)")
        if not 1 <= s <= params.L:
            raise DomainError(f"target tau={tau} maps to suffix size {s} outside [1, L]")
        mz_sizes.append(s)

    def job(t: int):
        return _run_trial(params, seed, t, mz_sizes, mz_per_trial)

    # Workers past the trials or the cores cannot help.  One runs the trials
    # itself: a pool of one worker raised the peak RSS at n = 1e7 by about
    # 3 MB (likely its thread's malloc arena) and loads the pool's imports.
    workers = min(threads, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_trial = tuple(ex.map(job, range(trials)))
    else:
        per_trial = tuple(job(t) for t in range(trials))
    mz_samples = tuple(
        MzSample(
            tau_target=float(tau),
            suffix_size=s,
            tau_realized=s / log_n,
            counts=tuple(r.mz[j] for r in per_trial),
            reference=params.K * 2.0 ** (-s),
        )
        for j, (tau, s) in enumerate(zip(mz_targets, mz_sizes))
    )
    return ConcentrationSummary(params, seed, per_trial, mz_samples)
