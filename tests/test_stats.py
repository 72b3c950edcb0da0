import itertools
import math
import statistics
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from ssesim.channel import ChannelParams, random_codeword, transmit_codeword
from ssesim.errors import DomainError
from ssesim.stats import (
    CoverageReport,
    MzSample,
    TypicalityThresholds,
    chain_island_count,
    concentration_experiment,
    coverage,
    expected_suffix_size_counts,
    suffix_size_histogram,
)

from conftest import (
    exact_counts_by_enumeration,
    exact_counts_over_all_tuples,
    loaded_by_cli_import,
    make_output,
)
from ground_truth import forward_successor_distances, true_islands, visible_symbols


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
    def islands(starts, n, L):
        # The hand cases give 0-based starts; channel outputs hold 1-based.
        return chain_island_count(make_output("0" * n, [s + 1 for s in starts], L))

    assert islands([0, 3, 4], 10, 4) == 1  # gaps 3,1,6
    assert islands([0, 3, 4], 10, 3) == 2
    assert islands([0, 5], 10, 5) == 2
    assert islands([7], 10, 3) == 1
    # Tied starts overlap by L and merge: gaps 0,4,6.
    assert islands([5, 5, 9], 10, 3) == 2
    # Every gap is 2 < 3: the reads wrap the circle and no gap closes an island.
    assert islands([0, 2, 4], 6, 3) == 0


@pytest.mark.parametrize("stage", [coverage, chain_island_count, suffix_size_histogram])
def test_trial_stages_need_the_truth_record(stage):
    """The stages read the starts from the truth record; an output without
    one is refused when it is built, so no stage is handed one."""
    out = make_output("0" * 6, [1], 3)
    stage(out)
    with pytest.raises(ValueError, match="needs the truth record"):
        stage(replace(out, truth=None))


def test_suffix_histogram_hand_case():
    # starts 1,2,5 with L=2: min-distances 1,2,2 -> overlaps 1,0,0.
    out = make_output("010011", [1, 2, 5], L=2)
    assert suffix_size_histogram(out) == (2, 1, 0)


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


def test_expected_counts_past_float_range_at_erasure_extremes():
    # C(l, s) exceeds the float range from l = 1030; at delta = 0 or 1 every
    # binomial term with 0 < s < l is then 0.
    n, L, K = 100000, 1100, 10
    erased = expected_suffix_size_counts(ChannelParams(n, L, K, 1.0))
    assert erased[0] == pytest.approx(K, rel=1e-12)
    assert erased[1:] == [0.0] * L
    # Nothing erased: the suffix size is the overlap, so each count is K
    # times P(overlap = s).
    clear = expected_suffix_size_counts(ChannelParams(n, L, K, 0.0))
    assert clear[0] == pytest.approx(K * ((n - L) / n) ** (K - 1), rel=1e-12)
    for s in range(1, L + 1):
        p_overlap = ((n - L + s) / n) ** (K - 1) - ((n - L + s - 1) / n) ** (K - 1)
        assert clear[s] == pytest.approx(K * p_overlap, rel=1e-12)


def test_expected_counts_match_enumeration():
    n, L, K = 6, 3, 2
    delta = Fraction(1, 2)
    p = ChannelParams(n=n, L=L, K=K, delta=delta)
    assert expected_suffix_size_counts(p) == exact_counts_by_enumeration(n, L, K, delta)
    single = ChannelParams(n=5, L=2, K=1, delta=Fraction(0))
    assert expected_suffix_size_counts(single) == [1, 0, 0]


@pytest.mark.parametrize("n, L, K", [(5, 2, 1), (6, 3, 2), (9, 4, 3)])
def test_enumeration_by_rotation_matches_all_tuples(n, L, K):
    for delta in (Fraction(0), Fraction(1, 3), Fraction(1)):
        by_rotation = exact_counts_by_enumeration(n, L, K, delta)
        assert by_rotation == exact_counts_over_all_tuples(n, L, K, delta)


def test_expected_counts_keep_float_and_fraction_apart():
    # Equal params with a float and a Fraction delta compare and hash alike,
    # yet each must get entries of its own type, in either call order.
    as_float = ChannelParams(n=6, L=3, K=2, delta=0.5)
    as_fraction = ChannelParams(n=6, L=3, K=2, delta=Fraction(1, 2))
    assert as_float == as_fraction and hash(as_float) == hash(as_fraction)
    for first, second in ((as_float, as_fraction), (as_fraction, as_float)):
        a = expected_suffix_size_counts(first)
        b = expected_suffix_size_counts(second)
        assert type(a[1]) is type(first.delta)
        assert type(b[1]) is type(second.delta)
    floats = expected_suffix_size_counts(as_float)
    exact = expected_suffix_size_counts(as_fraction)
    assert all(isinstance(v, float) for v in floats)
    assert all(isinstance(v, Fraction) for v in exact)
    for a, b in zip(floats, exact):
        assert math.isclose(a, float(b), rel_tol=1e-12)


def test_expected_counts_are_a_fresh_list():
    p = ChannelParams(n=64, L=6, K=8, delta=0.25)
    first = expected_suffix_size_counts(p)
    first[0] = -1.0
    second = expected_suffix_size_counts(p)
    assert second is not first
    assert second[0] >= 0
    assert len(second) == p.L + 1


def test_expected_counts_at_erasure_extremes():
    n, L, K = 6, 3, 2
    for delta in (Fraction(0), Fraction(1)):
        p = ChannelParams(n=n, L=L, K=K, delta=delta)
        assert expected_suffix_size_counts(p) == exact_counts_by_enumeration(
            n, L, K, delta
        )
    # Every symbol erased: every suffix is empty.
    erased = ChannelParams(n=n, L=L, K=K, delta=Fraction(1))
    assert expected_suffix_size_counts(erased) == [K, 0, 0, 0]
    assert expected_suffix_size_counts(ChannelParams(n, L, K, 1.0)) == [K, 0, 0, 0]


def test_typicality_threshold_formulas():
    p = ChannelParams(n=256, L=16, K=32, delta=0.5)
    th = TypicalityThresholds(p, 0.1)
    assert math.isclose(th.island_count_ref, 32 * math.exp(-2.0))
    assert math.isclose(th.visible_coverage_ref, 1 - math.exp(-1.0))
    assert math.isclose(th.suffix_count_slack, 0.1 * 256 / 64)
    with pytest.raises(DomainError):
        TypicalityThresholds(p, -0.5)
    with pytest.raises(DomainError):
        TypicalityThresholds(p, math.nan)


def test_finite_epsilon_needs_two_symbols():
    p = ChannelParams(n=1, L=1, K=2, delta=0.0)
    assert TypicalityThresholds(p, math.inf).typical_suffix_sizes([0, 1])
    with pytest.raises(DomainError):
        TypicalityThresholds(p, 5.0)


def test_direct_construction_checks_epsilon():
    """The constructor itself rejects what the tests cannot use: a negative
    epsilon (under which no count is within its tolerance, not even the
    reference itself) and a finite one at n = 1 (whose slack divides by
    log2(1) = 0)."""
    with pytest.raises(DomainError):
        TypicalityThresholds(params=ChannelParams(8, 2, 4, 0.0), epsilon=-1.0)
    with pytest.raises(DomainError):
        TypicalityThresholds(params=ChannelParams(1, 1, 3, 0.0), epsilon=0.5)
    assert TypicalityThresholds(ChannelParams(8, 2, 4, 0.0), 0.0).epsilon == 0.0


def test_typical_suffix_sizes_ignores_read_order():
    # The test reads only the histogram of the tuple, not which read has
    # which size (hand case of the decoder tests: n=16, L=4, K=4).
    th = TypicalityThresholds(ChannelParams(n=16, L=4, K=4, delta=0.0), 0.5)
    for omega in itertools.permutations((0, 2, 3, 4)):
        assert th.typical_suffix_sizes(omega)
    for omega in itertools.permutations((0, 1, 2, 3)):
        assert not th.typical_suffix_sizes(omega)


def test_typical_coverage_is_two_sided():
    p = ChannelParams(n=100, L=10, K=10, delta=0.0)  # c = 1
    th = TypicalityThresholds(p, 0.1)
    target = 1 - math.exp(-1.0)  # 0.632: the window is [0.569, 0.695]
    assert math.isclose(th.visible_coverage_ref, target)
    assert th.typical_coverage(63)
    assert th.typical_coverage(57) and th.typical_coverage(69)
    assert not th.typical_coverage(56)  # too little visible
    assert not th.typical_coverage(70)  # too much visible
    assert not th.typical_coverage(0) and not th.typical_coverage(p.n)


def test_thresholds_accept_fraction_delta():
    # An exact delta gives the same verdicts as the equal float delta.
    exact = TypicalityThresholds(ChannelParams(16, 4, 4, Fraction(0)), 0.5)
    inexact = TypicalityThresholds(ChannelParams(16, 4, 4, 0.0), 0.5)
    assert math.isclose(exact.visible_coverage_ref, inexact.visible_coverage_ref)
    for omega in [(0, 2, 3, 4), (0, 0, 2, 3), (0, 1, 2, 3), (0, 0, 0, 0)]:
        assert exact.typical_suffix_sizes(omega) == inexact.typical_suffix_sizes(
            omega
        )
    for visible in range(17):
        assert exact.typical_coverage(visible) == inexact.typical_coverage(visible)


def test_concentration_deterministic_and_thread_safe():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    a = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2)
    b = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2)
    c = concentration_experiment(p, 6, 31, mz_targets=(0.5,), mz_per_trial=2, threads=3)
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.trials_csv() == c.trials_csv()
    assert a.per_trial == b.per_trial == c.per_trial
    d = concentration_experiment(p, 6, 32, mz_targets=(0.5,), mz_per_trial=2)
    assert d.to_json() != a.to_json()


def test_import_leaves_the_thread_pool_unloaded():
    """The trial pool's ``concurrent.futures`` (with its ``logging`` and
    ``queue``) is imported only by a run with more than one thread."""
    assert not loaded_by_cli_import("concurrent.futures")


@pytest.mark.parametrize("module", ["fractions", "decimal"])
def test_import_leaves_exact_arithmetic_unloaded(module):
    """``Fraction`` (which loads ``decimal``) is never imported by the CLI,
    nor by a float-delta ``concentration`` run, whose
    ``expected_suffix_size_counts`` tests its delta for a Fraction."""
    assert not loaded_by_cli_import(module)
    run = ["concentration", "--n", "2000", "--lbar", "2", "--coverage", "2"]
    run += ["--delta", "0.2", "--trials", "2", "--seed", "3"]
    assert not loaded_by_cli_import(module, run)
    assert not loaded_by_cli_import(module, run + ["--format", "csv"])


def test_concentration_fields():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    summary = concentration_experiment(p, 5, 7, mz_targets=(0.5,), mz_per_trial=3)
    assert summary.trials == len(summary.per_trial) == 5
    assert all(len(r.suffix_counts) == p.L + 1 for r in summary.per_trial)
    assert all(sum(r.suffix_counts) == p.K for r in summary.per_trial)
    mz = summary.mz[0]
    assert mz.suffix_size == round(0.5 * math.log2(512))
    assert mz.reference == p.K * 2.0 ** -mz.suffix_size
    assert len(mz.flat) == 15
    assert mz.counts == tuple(r.mz[0] for r in summary.per_trial)
    lines = summary.trials_csv().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("trial,islands,phi,phi_v,mz0_mean,g0,")
    # Each data row is its trial's record, field by field in order.
    for t, (line, r) in enumerate(zip(lines[1:], summary.per_trial)):
        islands, phi, phi_v, mz_counts, suffix_counts = r
        mz_means = [repr(sum(c) / len(c)) for c in mz_counts]
        row = [t, islands, repr(phi), repr(phi_v), *mz_means, *suffix_counts]
        assert line.split(",") == [str(v) for v in row]
    # Each moment is its per-trial values' mean and standard error, beside
    # its n -> infinity reference.
    c = p.c
    expected = {
        "island_ratio": ([r.islands / p.K for r in summary.per_trial], math.exp(-c)),
        "phi": ([r.phi for r in summary.per_trial], 1 - math.exp(-c)),
        "phi_v": ([r.phi_v for r in summary.per_trial], 1 - math.exp(-c * (1 - p.delta))),
    }
    assert list(summary.moments) == list(expected)
    for name, (values, reference) in expected.items():
        m = summary.moments[name]
        assert math.isclose(m.mean, statistics.fmean(values))
        assert math.isclose(m.se, statistics.stdev(values) / math.sqrt(5))
        assert m.reference == reference
    # The decoder's centres are the same references.
    th = TypicalityThresholds(p, 1.0)
    assert th.island_count_ref == p.K * expected["island_ratio"][1]
    assert th.visible_coverage_ref == expected["phi_v"][1]


def test_concentration_rejects_bad_targets():
    p = ChannelParams(n=512, L=18, K=56, delta=0.2)
    with pytest.raises(DomainError):
        concentration_experiment(p, 2, 1, mz_targets=(3.0,))
    with pytest.raises(DomainError):
        concentration_experiment(p, 0, 1)
    with pytest.raises(DomainError):
        concentration_experiment(p, 2, 1, mz_targets=(0.5,), mz_per_trial=0)
    with pytest.raises(DomainError, match="n >= 2"):
        concentration_experiment(ChannelParams(n=1, L=1, K=1, delta=0.0), 1, 1)


def test_mz_sample_without_counts_is_nan():
    empty = MzSample(
        tau_target=0.5, suffix_size=1, tau_realized=0.5, counts=(), reference=1.0
    )
    assert math.isnan(empty.mean)
    assert math.isnan(empty.worst_relative_deviation)


def test_probe_impossible_when_everything_erased():
    p = ChannelParams(n=64, L=8, K=4, delta=1.0)
    with pytest.raises(DomainError):
        concentration_experiment(p, 1, 5, mz_targets=(0.5,))
