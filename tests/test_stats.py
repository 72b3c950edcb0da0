import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from ssesim.channel import ChannelParams, random_codeword, transmit_codeword
from ssesim.errors import DomainError
from ssesim.stats import (
    CoverageReport,
    chain_island_count,
    concentration_experiment,
    count_prefix_compatible,
    coverage,
    expected_suffix_size_count,
    expected_suffix_size_counts,
    forward_successor_distances,
    hoeffding_one_sided,
    hoeffding_two_sided,
    suffix_size_histogram,
    typicality_thresholds,
)
from ssesim.tritstring import TritString

from conftest import exact_counts_by_enumeration, make_output
from ground_truth import true_islands, visible_symbols


def test_coverage_hand_case():
    out = make_output("0110100101", [1, 2, 7], L=3, erased={(0, 0), (2, 1)})
    rep = coverage(out)
    # Reads cover 1..4 and 7..9; positions 1 and 8 are erased in their only read.
    assert rep.phi == 0.7
    assert rep.phi_v == 0.5
    with pytest.raises(ValueError):
        CoverageReport(phi=0.3, phi_v=0.4)


def test_coverage_identity_with_true_islands():
    for seed in range(8):
        p = ChannelParams(n=200, L=12, K=20, delta=0.3)
        out = transmit_codeword(random_codeword(p.n, seed), p, seed)
        rep = coverage(out)
        islands, _, _ = true_islands(out)
        assert visible_symbols(islands) / p.n == rep.phi_v


def test_coverage_phi_matches_window_gather():
    # Small n makes tied starts and windows across the wrap common.
    for seed in range(12):
        p = ChannelParams(n=20, L=6, K=(1, 3, 9, 30)[seed % 4], delta=0.3)
        out = transmit_codeword(random_codeword(p.n, seed), p, seed)
        covered = {(s - 1 + j) % p.n for s in out.truth.starts for j in range(p.L)}
        assert coverage(out).phi == len(covered) / p.n


def test_forward_distances():
    d = forward_successor_distances(np.array([0, 3, 4]), 10)
    assert list(d) == [3, 1, 6]
    # Coincident starts sit at distance zero from each other.
    d = forward_successor_distances(np.array([5, 5, 9]), 10)
    assert list(d) == [0, 0, 6]
    assert list(forward_successor_distances(np.array([2]), 10)) == [10]


def test_chain_island_count():
    assert chain_island_count(np.array([0, 3, 4]), 10, 4) == 1  # gaps 3,1,6
    assert chain_island_count(np.array([0, 3, 4]), 10, 3) == 2
    assert chain_island_count(np.array([0, 5]), 10, 5) == 2
    assert chain_island_count(np.array([7]), 10, 3) == 1
    # Tied starts overlap by L and merge: gaps 0,4,6.
    assert chain_island_count([5, 5, 9], 10, 3) == 2
    # Every gap is 2 < 3: the reads wrap the circle and no gap closes an island.
    assert chain_island_count(np.array([0, 2, 4]), 6, 3) == 0


def test_suffix_histogram_hand_case():
    # starts 1,2,5 with L=2: min-distances 1,2,2 -> overlaps 1,0,0.
    out = make_output("010011", [1, 2, 5], L=2)
    hist = suffix_size_histogram(out)
    assert hist.counts == (2, 1, 0)
    assert hist.total == 3


def test_expected_counts_sum_to_k():
    p = ChannelParams(n=1000, L=14, K=60, delta=0.25)
    counts = expected_suffix_size_counts(p)
    assert math.isclose(math.fsum(counts), p.K, rel_tol=1e-12)
    exact = expected_suffix_size_counts(
        ChannelParams(n=1000, L=14, K=60, delta=Fraction(1, 4))
    )
    assert sum(exact) == 60
    for a, b in zip(counts, exact):
        assert math.isclose(a, float(b), rel_tol=1e-9)


def test_expected_counts_past_float_range():
    # C(l, s) exceeds the float range from l = 1030 at s = l/2.
    n, L, K, delta = 100000, 1031, 10, 0.2
    counts = expected_suffix_size_counts(ChannelParams(n=n, L=L, K=K, delta=delta))
    assert all(math.isfinite(c) and c >= 0 for c in counts)
    assert math.isclose(math.fsum(counts), K, rel_tol=1e-9)

    def p_dist_ge(g):
        return ((n - g) / n) ** (K - 1)

    for s in (515, 825):  # C(l, s) overflows for some l at 515, never at 825
        ref = K * math.fsum(
            (p_dist_ge(L - l) - p_dist_ge(L - l + 1)) * binom.pmf(s, l, 1 - delta)
            for l in range(s, L + 1)
        )
        assert math.isclose(counts[s], ref, rel_tol=1e-9)


def test_expected_counts_match_enumeration():
    n, L, K = 6, 3, 2
    delta = Fraction(1, 2)
    p = ChannelParams(n=n, L=L, K=K, delta=delta)
    assert expected_suffix_size_counts(p) == exact_counts_by_enumeration(n, L, K, delta)
    single = ChannelParams(n=5, L=2, K=1, delta=Fraction(0))
    assert expected_suffix_size_counts(single) == [1, 0, 0]


def test_expected_count_bounds():
    p = ChannelParams(n=100, L=5, K=3, delta=0.5)
    with pytest.raises(DomainError):
        expected_suffix_size_count(p, 6)
    with pytest.raises(DomainError):
        expected_suffix_size_count(p, -1)


def test_count_prefix_compatible():
    reads = [TritString.from_text(t) for t in ("1*", "00", "10")]
    z1 = TritString.from_text("1")
    assert count_prefix_compatible(reads, z1) == 2
    z_erased = TritString.from_text("*1")
    # "1*": nothing to clash; "00": 1 vs 0 at position 2; "10": 0 vs 1.
    assert count_prefix_compatible(reads, z_erased) == 1
    with pytest.raises(ValueError):
        count_prefix_compatible(reads, TritString.from_text(""))
    with pytest.raises(ValueError):
        count_prefix_compatible(reads, TritString.from_text("101"))


def test_count_prefix_compatible_shrinks_as_probe_grows():
    rng = np.random.default_rng(7)
    p = ChannelParams(n=64, L=10, K=12, delta=0.25)
    out = transmit_codeword(random_codeword(p.n, 7), p, 7)
    reads = out.reads
    text = "".join(rng.choice(["0", "1"], size=p.L))
    counts = [
        count_prefix_compatible(reads, TritString.from_text(text[:j]))
        for j in range(1, p.L + 1)
    ]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_hoeffding_trivial_slack():
    assert hoeffding_two_sided(100, 0.3, 0.0) == 2.0
    assert hoeffding_one_sided(100, 0.3, 0.0) == 1.0
    with pytest.raises(DomainError):
        hoeffding_two_sided(100, 0.0, 0.1)
    with pytest.raises(DomainError):
        hoeffding_one_sided(0, 0.3, 1.0)


def test_hoeffding_dominates_binomial_tail():
    # In their working regime the expressions upper-bound the exact tails.
    N, p, eps = 400, 0.5, 0.06
    slack = eps * p * N  # 12
    true_two = binom.cdf(N * p - slack, N, p) + binom.sf(N * p + slack - 1, N, p)
    assert hoeffding_two_sided(N, p, eps) >= true_two
    x = 12.0
    true_one = binom.sf(N * p + x - 1, N, p)
    assert hoeffding_one_sided(N, p, x) >= true_one


def test_typicality_threshold_formulas():
    p = ChannelParams(n=256, L=16, K=32, delta=0.5)
    th = typicality_thresholds(p, 0.1)
    assert math.isclose(th.island_count_cap, 1.1 * 32 * math.exp(-2.0))
    assert math.isclose(th.visible_coverage_floor, 0.9 * (1 - math.exp(-1.0)))
    assert math.isclose(th.prefix_match_cap(0.5), 1.1 * 16.0)
    assert math.isclose(th.prefix_match_cap(0.95), 256**0.1)
    slack = 0.1 * 256 / 64
    assert math.isclose(
        th.suffix_count_cap(3), expected_suffix_size_count(p, 3) + slack
    )
    with pytest.raises(DomainError):
        typicality_thresholds(p, -0.5)
    with pytest.raises(DomainError):
        typicality_thresholds(p, math.nan)


def test_finite_epsilon_needs_two_symbols():
    p = ChannelParams(n=1, L=1, K=2, delta=0.0)
    assert typicality_thresholds(p, math.inf).typical_suffix_sizes([0, 1])
    with pytest.raises(DomainError):
        typicality_thresholds(p, 5.0)


def test_concentration_deterministic_and_thread_safe():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    a = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2)
    b = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2)
    c = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2, threads=3)
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.trials_csv() == c.trials_csv()
    d = concentration_experiment(p, 6, 32, mz_targets=(0.5,), mz_per_trial=2)
    assert d.to_json() != a.to_json()


def test_concentration_fields():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    summary = concentration_experiment(p, 5, 7, mz_targets=(0.5,), mz_per_trial=3)
    assert summary.trials == 5
    assert len(summary.island_counts) == 5
    assert len(summary.suffix_counts[0]) == p.L + 1
    assert all(sum(row) == p.K for row in summary.suffix_counts)
    mz = summary.mz[0]
    assert mz.suffix_size == round(0.5 * math.log2(512))
    assert mz.reference == p.K * 2.0 ** -mz.suffix_size
    assert len(mz.flat) == 15
    lines = summary.trials_csv().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("trial,islands,phi,phi_v,mz0_mean,g0,")


def test_concentration_rejects_bad_targets():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    with pytest.raises(DomainError):
        concentration_experiment(p, 2, 1, mz_targets=(3.0,))
    with pytest.raises(DomainError):
        concentration_experiment(p, 0, 1)
    with pytest.raises(DomainError):
        concentration_experiment(p, 2, 1, mz_targets=(0.5,), mz_per_trial=0)


def test_probe_impossible_when_everything_erased():
    p = ChannelParams(n=64, L=8, K=4, delta=1.0)
    with pytest.raises(DomainError):
        concentration_experiment(p, 1, 5, mz_targets=(0.5,))
