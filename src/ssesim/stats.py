"""Channel statistics: coverage, suffix-size spectra, prefix-match counts,
deviation bounds, and a seeded Monte Carlo harness for all of them.

Conventions.  Logs are base 2 throughout.  For a read, its *successor
distance* is the smallest forward cyclic distance to any other read start
(coincident starts give distance 0), the induced overlap is
``max(0, L - distance)``, and the *suffix size* is the number of unerased
symbols in that overlap-length suffix.  ``expected_suffix_size_count`` is the
exact law of that statistic:

    P(D >= g) = ((n - g) / n)^(K-1)          (uniform independent starts)
    size | overlap = l   ~  Binomial(l, 1 - delta)

and the expected count at size ``s`` is ``K * sum_l P(overlap = l) *
P(Binomial(l, 1 - delta) = s)``.  Passing a ``Fraction`` delta keeps the
whole computation in exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import (
    STAGE_CODEBOOK,
    STAGE_MZ,
    STAGE_TRIAL,
    ChannelOutput,
    ChannelParams,
    _cyclic_extension,
    _round_finite,
    child_seed,
    cyclic_gaps,
    random_codeword,
    stage_rng,
    transmit_codeword,
)
from .errors import DomainError
from .tritstring import TritString

__all__ = [
    "CoverageReport",
    "SuffixSizeHistogram",
    "TypicalityThresholds",
    "MzSample",
    "ConcentrationSummary",
    "coverage",
    "forward_successor_distances",
    "chain_island_count",
    "suffix_size_histogram",
    "expected_suffix_size_count",
    "expected_suffix_size_counts",
    "count_prefix_compatible",
    "hoeffding_two_sided",
    "hoeffding_one_sided",
    "typicality_thresholds",
    "concentration_experiment",
]


def _island_ratio_limit(c: float) -> float:
    """e^-c, the n -> infinity islands per read at coverage depth c."""
    return math.exp(-c)


def _coverage_limit(c: float, delta: float = 0.0) -> float:
    """1 - e^(-c(1 - delta)), the n -> infinity visible coverage fraction."""
    return 1 - math.exp(-c * (1 - float(delta)))


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of positions covered by any read (``phi``) and covered by an
    unerased symbol of some read (``phi_v``)."""

    phi: float
    phi_v: float

    def __post_init__(self) -> None:
        if not 0 <= self.phi_v <= self.phi <= 1:
            raise ValueError("need 0 <= phi_v <= phi <= 1")


def coverage(output: ChannelOutput) -> CoverageReport:
    """Coverage fractions against the ground-truth start positions."""
    if output.truth is None:
        raise ValueError("coverage needs the truth record")
    n, L = output.params.n, output.params.L
    starts0 = np.asarray(output.truth.starts, dtype=np.int64) - 1
    # Each read covers the positions up to the next start, at most L of them.
    gaps = cyclic_gaps(np.sort(starts0), n)
    phi = int(np.minimum(gaps, L).sum()) / n
    # Mark unerased symbols one read column at a time on the unrolled ring,
    # then fold the overhang past n back onto its start.
    visible = np.zeros(n + L - 1, dtype=bool)
    for j in range(L):
        visible[starts0[output.known[:, j]] + j] = True
    visible[: L - 1] |= visible[n:]
    return CoverageReport(phi=phi, phi_v=int(np.count_nonzero(visible[:n])) / n)


def forward_successor_distances(starts: np.ndarray, n: int) -> np.ndarray:
    """Per read, the smallest forward cyclic distance to another read start.

    Coincident starts give distance 0.  A single read gets distance ``n``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    k = len(starts)
    order = np.argsort(starts, kind="stable")
    gaps = cyclic_gaps(starts[order], n)
    # A read sharing its start with any other read is at distance 0 from it.
    tied = np.zeros(k, dtype=bool)
    tied[:-1] = gaps[:-1] == 0
    tied[1:] |= gaps[:-1] == 0
    dist_sorted = np.where(tied, 0, gaps)
    out = np.empty(k, dtype=np.int64)
    out[order] = dist_sorted
    return out


def chain_island_count(starts: np.ndarray, n: int, L: int) -> int:
    """Number of islands in the true cyclic ordering: one per gap >= L.

    Coincident starts (gap 0) overlap by L and merge into one island, so a
    group of tied reads counts once.  What is counted is the cyclic gaps
    >= L: reads that wrap the whole circle (every gap < L) give 0, while
    ``assembly.true_islands`` reports them as one circular island.
    """
    gaps = cyclic_gaps(np.sort(np.asarray(starts, dtype=np.int64)), n)
    return int(np.count_nonzero(gaps >= L))


@dataclass(frozen=True)
class SuffixSizeHistogram:
    """Counts of reads by true merging-suffix size; index = size, 0..L."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def _suffix_sizes(output: ChannelOutput) -> np.ndarray:
    n, L = output.params.n, output.params.L
    dist = forward_successor_distances(output.truth.starts - 1, n)
    overlaps = np.maximum(0, L - dist)
    # Unerased symbols among the last ``overlap`` of each read.
    tail = np.arange(L)[None, :] >= (L - overlaps)[:, None]
    tail &= output.known
    return np.count_nonzero(tail, axis=1)


def suffix_size_histogram(output: ChannelOutput) -> SuffixSizeHistogram:
    """Histogram of true merging-suffix sizes over all K reads."""
    if output.truth is None:
        raise ValueError("suffix sizes need the truth record")
    sizes = _suffix_sizes(output)
    counts = np.bincount(sizes, minlength=output.params.L + 1)
    return SuffixSizeHistogram(counts=tuple(int(c) for c in counts))


def _overlap_law(n: int, L: int, K: int, exact: bool):
    """P(overlap = l) for l = 0..L under the successor-distance law."""

    def p_dist_ge(g):
        # K = 1 has no other reads, so the empty product is 1.
        if exact:
            return Fraction(n - g, n) ** (K - 1)
        return ((n - g) / n) ** (K - 1)

    law = [p_dist_ge(L)]
    for l in range(1, L + 1):
        d = L - l
        law.append(p_dist_ge(d) - p_dist_ge(d + 1))
    return law


def expected_suffix_size_count(params: ChannelParams, suffix_size: int):
    """Exact expected number of reads with the given merging-suffix size.

    Returns a float for float ``delta`` and a Fraction for Fraction
    ``delta``.
    """
    if not 0 <= suffix_size <= params.L:
        raise DomainError(f"suffix size {suffix_size} outside [0, {params.L}]")
    return expected_suffix_size_counts(params)[suffix_size]


def expected_suffix_size_counts(params: ChannelParams):
    """The full expected histogram, index = suffix size 0..L."""
    # The exactness flag is part of the cache key: a float delta and an equal
    # Fraction delta hash alike but must not share an entry.
    exact = isinstance(params.delta, Fraction)
    return list(
        _expected_counts_cached(params.n, params.L, params.K, params.delta, exact)
    )


@lru_cache(maxsize=64)
def _expected_counts_cached(n: int, L: int, K: int, delta, exact: bool) -> tuple:
    law = _overlap_law(n, L, K, exact)
    keep = delta if exact else float(delta)
    out = []
    for s in range(L + 1):
        total = Fraction(0) if exact else 0.0
        comb = 1  # math.comb(l, s), carried along l by exact integer recurrence
        for l in range(s, L + 1):
            total += K * law[l] * _binomial_pmf(comb, l, s, keep)
            comb = comb * (l + 1) // (l + 1 - s)
        out.append(total)
    return tuple(out)


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


def count_prefix_compatible(reads: Sequence[TritString], z: TritString) -> int:
    """Number of reads whose |z|-prefix is compatible with ``z`` (multiset
    count, so duplicates count separately)."""
    l = z.length
    if l < 1:
        raise ValueError("z must be non-empty")
    cnt = 0
    mask = (1 << l) - 1
    zb, zk = z.bits, z.known
    for y in reads:
        if y.length < l:
            raise ValueError(f"read shorter than z: {y.length} < {l}")
        if (((y.bits ^ zb) & (y.known & zk) & mask)) == 0:
            cnt += 1
    return cnt


def hoeffding_two_sided(N: int, p: float, eps: float) -> float:
    """2*exp(-N*p*eps^2/(1-p)): deviation bound for |S/N - p| >= eps*p."""
    if not 0 < p < 1:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if N < 1 or eps < 0:
        raise DomainError("need N >= 1 and eps >= 0")
    return 2.0 * math.exp(-N * p * eps * eps / (1.0 - p))


def hoeffding_one_sided(N: int, p: float, x: float) -> float:
    """exp(-x^2/(2*N*p*(1-p))): deviation bound for S - N*p >= x."""
    if not 0 < p < 1:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if N < 1 or x < 0:
        raise DomainError("need N >= 1 and x >= 0")
    return math.exp(-x * x / (2.0 * N * p * (1.0 - p)))


@dataclass(frozen=True)
class TypicalityThresholds:
    """The typicality thresholds: one-sided caps and the decoder's two-sided
    tests, all built from the same reference values."""

    params: ChannelParams
    epsilon: float

    @cached_property
    def island_count_ref(self) -> float:
        """K * exp(-c)."""
        return self.params.K * _island_ratio_limit(self.params.c)

    @cached_property
    def visible_coverage_ref(self) -> float:
        """1 - exp(-c(1 - delta))."""
        return _coverage_limit(self.params.c, self.params.delta)

    @cached_property
    def suffix_count_slack(self) -> float:
        """eps * n / log2(n)^2."""
        n = self.params.n
        return self.epsilon * n / math.log2(n) ** 2

    @cached_property
    def _expected_counts(self) -> list:
        return expected_suffix_size_counts(self.params)

    @property
    def island_count_cap(self) -> float:
        """(1 + eps) * K * exp(-c)."""
        return (1 + self.epsilon) * self.island_count_ref

    @property
    def visible_coverage_floor(self) -> float:
        """(1 - eps) * (1 - exp(-c(1 - delta)))."""
        return (1 - self.epsilon) * self.visible_coverage_ref

    def prefix_match_cap(self, tau: float) -> float:
        """(1 + eps) * n^(1 - tau) for tau <= 1 - eps, else n^eps."""
        n = self.params.n
        if tau <= 1 - self.epsilon:
            return (1 + self.epsilon) * n ** (1 - tau)
        return float(n) ** self.epsilon

    def suffix_count_cap(self, suffix_size: int) -> float:
        """Expected count at this size plus the eps * n / log2(n)^2 slack."""
        expected = expected_suffix_size_count(self.params, suffix_size)
        return float(expected) + self.suffix_count_slack

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


def typicality_thresholds(params: ChannelParams, epsilon: float) -> TypicalityThresholds:
    if not epsilon >= 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    if not math.isinf(epsilon) and params.n < 2:
        raise DomainError("a finite epsilon needs n >= 2; its slack divides by log2(n)")
    return TypicalityThresholds(params=params, epsilon=epsilon)


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


def _mean_se(values) -> tuple[float, float]:
    vals = list(values)
    t = len(vals)
    mean = math.fsum(vals) / t
    if t < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (t - 1)
    return mean, math.sqrt(var / t)


@dataclass(frozen=True)
class ConcentrationSummary:
    """Per-trial statistics plus order-insensitive aggregates and the
    reference values they should concentrate around."""

    params: ChannelParams
    trials: int
    seed: int
    island_counts: tuple[int, ...]
    phi: tuple[float, ...]
    phi_v: tuple[float, ...]
    suffix_counts: tuple[tuple[int, ...], ...]
    mz: tuple[MzSample, ...]

    @property
    def island_ratio_mean(self) -> float:
        return _mean_se(k / self.params.K for k in self.island_counts)[0]

    @property
    def island_ratio_se(self) -> float:
        return _mean_se(k / self.params.K for k in self.island_counts)[1]

    @property
    def island_ratio_ref(self) -> float:
        """The n -> infinity value e^-c of the island ratio.  Tied starts
        merge, so the finite-n mean exceeds it by about c/(2L)."""
        return _island_ratio_limit(self.params.c)

    @property
    def phi_mean(self) -> float:
        return _mean_se(self.phi)[0]

    @property
    def phi_se(self) -> float:
        return _mean_se(self.phi)[1]

    @property
    def phi_ref(self) -> float:
        return _coverage_limit(self.params.c)

    @property
    def phi_v_mean(self) -> float:
        return _mean_se(self.phi_v)[0]

    @property
    def phi_v_se(self) -> float:
        return _mean_se(self.phi_v)[1]

    @property
    def phi_v_ref(self) -> float:
        return _coverage_limit(self.params.c, self.params.delta)

    @property
    def suffix_count_means(self) -> tuple[float, ...]:
        arr = np.asarray(self.suffix_counts, dtype=np.float64)
        return tuple(math.fsum(arr[:, s]) / self.trials for s in range(arr.shape[1]))

    @property
    def suffix_count_refs(self) -> tuple[float, ...]:
        return tuple(float(v) for v in expected_suffix_size_counts(self.params))

    def to_json(self) -> str:
        doc = {
            "params": {
                "n": self.params.n,
                "L": self.params.L,
                "K": self.params.K,
                "delta": float(self.params.delta),
                "c": self.params.c,
                "lbar": self.params.lbar,
            },
            "trials": self.trials,
            "seed": self.seed,
            "island_ratio": {
                "mean": self.island_ratio_mean,
                "se": self.island_ratio_se,
                "reference": self.island_ratio_ref,
            },
            "phi": {"mean": self.phi_mean, "se": self.phi_se, "reference": self.phi_ref},
            "phi_v": {
                "mean": self.phi_v_mean,
                "se": self.phi_v_se,
                "reference": self.phi_v_ref,
            },
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
                    "worst_relative_deviation": m.worst_relative_deviation,
                    "samples": len(m.flat),
                }
                for m in self.mz
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def trials_csv(self) -> str:
        L = self.params.L
        header = ["trial", "islands", "phi", "phi_v"]
        header += [f"mz{j}_mean" for j in range(len(self.mz))]
        header += [f"g{s}" for s in range(L + 1)]
        lines = [",".join(header)]
        for t in range(self.trials):
            row = [
                str(t),
                str(self.island_counts[t]),
                repr(self.phi[t]),
                repr(self.phi_v[t]),
            ]
            for m in self.mz:
                vals = m.counts[t]
                row.append(repr(math.fsum(vals) / len(vals)) if vals else "")
            row += [str(c) for c in self.suffix_counts[t]]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _probe_z(
    rng: np.random.Generator,
    values: np.ndarray,
    known: np.ndarray,
    suffix_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A probe string: a random read re-erased down to exactly
    ``suffix_size`` visible symbols."""
    k_reads = values.shape[0]
    for _ in range(64):
        r = int(rng.integers(k_reads))
        visible = np.flatnonzero(known[r])
        if len(visible) >= suffix_size:
            keep = rng.choice(visible, size=suffix_size, replace=False)
            zk = np.zeros(values.shape[1], dtype=bool)
            zk[keep] = True
            return np.where(zk, values[r], 0).astype(np.uint8), zk
    raise DomainError(
        f"no read with {suffix_size} visible symbols found; delta too high for this probe"
    )


def _count_matches(ext: np.ndarray, starts0: np.ndarray, zv, zk) -> int:
    """Reads whose true window agrees with the probe's visible symbols.

    Matching is against the pre-erasure windows, read column by column from
    the codeword's cyclic extension ``ext``: each read at an independent
    start agrees with probability exactly 2**-size."""
    agree = np.ones(len(starts0), dtype=bool)
    for j in np.flatnonzero(zk):
        agree &= ext[starts0 + j] == zv[j]
    return int(np.count_nonzero(agree))


def _run_trial(params: ChannelParams, seed: int, t: int, mz_sizes, mz_per_trial: int):
    trial = child_seed(seed, STAGE_TRIAL, t)
    x = random_codeword(params.n, child_seed(trial, STAGE_CODEBOOK))
    out = transmit_codeword(x, params, trial)
    rep = coverage(out)
    islands = chain_island_count(out.truth.starts - 1, params.n, params.L)
    hist = suffix_size_histogram(out)
    rng = stage_rng(trial, STAGE_MZ)
    mz_counts = []
    if mz_sizes:
        ext = _cyclic_extension(x, params.L)
        starts0 = out.truth.starts - 1
        for s in mz_sizes:
            counts = []
            for _ in range(mz_per_trial):
                zv, zk = _probe_z(rng, out.values, out.known, s)
                counts.append(_count_matches(ext, starts0, zv, zk))
            mz_counts.append(tuple(counts))
    return islands, rep.phi, rep.phi_v, hist.counts, mz_counts


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

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(job, range(trials)))
    else:
        results = [job(t) for t in range(trials)]

    mz_samples = []
    for j, (tau, s) in enumerate(zip(mz_targets, mz_sizes)):
        per_trial = tuple(results[t][4][j] for t in range(trials))
        mz_samples.append(
            MzSample(
                tau_target=float(tau),
                suffix_size=s,
                tau_realized=s / log_n,
                counts=per_trial,
                reference=params.K * 2.0 ** (-s),
            )
        )
    return ConcentrationSummary(
        params=params,
        trials=trials,
        seed=seed,
        island_counts=tuple(r[0] for r in results),
        phi=tuple(r[1] for r in results),
        phi_v=tuple(r[2] for r in results),
        suffix_counts=tuple(r[3] for r in results),
        mz=tuple(mz_samples),
    )
