import math
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp

from ssesim.channel import ChannelParams
from ssesim.errors import DomainError
from ssesim.rates import (
    CurveRow,
    candidate_growth_bound,
    rate_curve,
    rate_gap,
    rate_gap_limit,
    rates_csv,
    sse_rate_bound,
    ssc_capacity,
    ssc_short_rate,
)
from ssesim.stats import expected_suffix_size_counts

# Values pinned from high-precision (mpmath, 60 digit) evaluation of the
# closed forms; regressions here mean the formulas changed, not just noise.
PINNED = [
    (sse_rate_bound, (2.0, 1.75, 0.2), 0.45459721098842754),
    (sse_rate_bound, (0.5, 1.75, 0.2), 0.12140216193432213),
    (ssc_capacity, (2.0, 1.4), 0.4352818779922407),
    (ssc_capacity, (0.5, 1.4), 0.1331221002498184),
    (rate_gap, (2.0, 1.75, 0.2, 0.01), 0.18990760368954726),
    (rate_gap, (2.0, 1.75, 0.2, 1e-4), 0.18884774408951102),
    (rate_gap_limit, (2.0, 1.75, 0.2), 0.18883737588935984),
]


@pytest.mark.parametrize("fn,args,expected", PINNED)
def test_pinned_values(fn, args, expected):
    assert math.isclose(fn(*args), expected, rel_tol=1e-12)


def test_zero_erasure_collapses_to_plain_capacity():
    # The erasure-free capacity 1 - e^{-c (1 - 1/lbar)} of Motahari, Bresler
    # & Tse (IEEE Trans. IT 2013) and Ravi, Vahid & Shomorony (IEEE JSAIT
    # 2022), written out here.
    for c in [1e-6, 0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 1e6]:
        for lbar in [1 + 1e-9, 1.1, 1.5, 2.0, 3.0]:
            plain = 1 - math.exp(-c * (1 - 1 / lbar))
            assert math.isclose(ssc_capacity(c, lbar), plain, rel_tol=1e-15)
            assert abs(sse_rate_bound(c, lbar, 0.0) - ssc_capacity(c, lbar)) <= 1e-12
            assert ssc_short_rate(c, lbar, 0.0) == ssc_capacity(c, lbar)


@pytest.mark.parametrize("delta", [0.0, 0.2, 0.5, 0.9])
def test_rates_at_domain_edges(delta):
    keep, eps = 1 - delta, 1e-12
    for c in [1e-3, 0.5, 2.0, 10.0]:
        # lbar (1 - delta) -> 1+: both rates approach their limits linearly
        # in eps = lbar (1 - delta) - 1, with slope at most c.
        lbar = (1 + eps) / keep
        assert lbar * keep > 1
        edge = (1 - math.exp(-c * keep)) - keep * (1 - math.exp(-c))
        assert math.isclose(
            sse_rate_bound(c, lbar, delta), edge, rel_tol=0, abs_tol=2 * c * eps + 1e-15
        )
        assert 0 < ssc_capacity(c, 1 + eps) <= 2 * c * eps
    for lbar in [1.5, 3.0, 12.0]:
        if lbar * keep <= 1:
            continue
        # c -> 0: both rates grow linearly from 0.
        c = 1e-8
        slope = (lbar * keep - 1) / lbar
        assert math.isclose(sse_rate_bound(c, lbar, delta) / c, slope, rel_tol=1e-6)
        assert math.isclose(ssc_capacity(c, lbar) / c, (lbar - 1) / lbar, rel_tol=1e-6)
        # c -> infinity: both saturate at one bit per symbol, without overflow.
        for c in [1e3, 1e6]:
            assert sse_rate_bound(c, lbar, delta) == pytest.approx(1.0, abs=1e-12)
            assert ssc_capacity(c, lbar) == pytest.approx(1.0, abs=1e-12)


def test_ssc_short_is_capacity_at_shortened_length():
    assert ssc_short_rate(2.0, 1.75, 0.2) == ssc_capacity(2.0, 1.75 * 0.8)


def test_rates_within_unit_interval():
    for c in [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]:
        for lbar in [1.2, 1.75, 3.0]:
            for delta in [0.0, 0.1, 0.3]:
                if lbar * (1 - delta) <= 1:
                    continue
                r = sse_rate_bound(c, lbar, delta)
                s = ssc_short_rate(c, lbar, delta)
                assert 0 < r < 1
                assert 0 < s < 1


def test_rate_monotone_in_erasure_probability():
    for c in [0.25, 1.0, 2.0, 4.0]:
        for lbar in [1.75, 2.0, 3.0]:
            deltas = [d / 100 for d in range(0, 45, 5) if lbar * (1 - d / 100) > 1]
            rates = [sse_rate_bound(c, lbar, d) for d in deltas]
            for hi, lo in zip(rates, rates[1:]):
                assert lo <= hi


def test_gap_monotone_and_converges():
    # Monotone decrease as d shrinks holds in the moderate-alpha regime
    # (alpha = c / (lbar (1 - delta)) below roughly 1.67); see the regime
    # counterexample test below for the other side.
    ds = [0.5, 0.25, 0.1, 0.05, 0.01, 1e-3, 1e-4]
    for c, lbar, delta in [(0.5, 1.75, 0.0), (2.0, 1.75, 0.2), (1.0, 3.0, 0.1)]:
        limit = rate_gap_limit(c, lbar, delta)
        gaps = [rate_gap(c, lbar, delta, d) for d in ds]
        for hi, lo in zip(gaps, gaps[1:]):
            assert lo <= hi * (1 + 1e-12)
        assert math.isclose(gaps[-1], limit, rel_tol=1e-3)


def test_gap_not_globally_monotone():
    # At alpha ~ 1.9 the gap dips below its d -> 0 limit at moderate d and
    # converges from below; the decrease-in-d property is regime-bound.
    lo = rate_gap(4.0, 3.0, 0.3, 0.25)
    hi = rate_gap(4.0, 3.0, 0.3, 0.1)
    assert lo < hi
    assert lo < rate_gap_limit(4.0, 3.0, 0.3)
    assert math.isclose(rate_gap(4.0, 3.0, 0.3, 1e-5), rate_gap_limit(4.0, 3.0, 0.3), rel_tol=1e-4)


def _rate_gap_60_digits(c, lbar, delta, d):
    """The gap's closed form in 60-digit arithmetic, as the reference."""
    with mp.workdps(60):
        c, lbar, delta, d = map(mp.mpf, (c, lbar, delta, d))
        keep = 1 - delta
        a = c / (lbar * keep)
        ed = mp.exp(a * d)
        em_d = mp.expm1(a * d)
        inner = (mp.exp(a * (1 + d)) - mp.exp(a)) - d * mp.expm1(a * (1 + d))
        bracket = ed * mp.expm1(a) / em_d - ed**2 * inner / em_d**2
        return float(d / keep * (c / lbar) ** 2 * mp.exp(-c) * bracket)


def test_gap_matches_high_precision_on_dense_grid():
    # alpha = c / (lbar (1 - delta)) from 1e-7 to 30, alpha * d from 1e-12
    # to 10.  Cancellation in the bracket costs about 1e-15 / alpha
    # relative, the size of rate_gap_limit's own float error at small alpha.
    alphas = [10 ** (k / 4) for k in range(-28, 6)] + [30.0]
    alpha_ds = [10 ** (k / 2) for k in range(-24, 3)]
    for lbar, delta in [(1.01, 0.0), (1.75, 0.2), (3.0, 0.5), (12.0, 0.9)]:
        for alpha in alphas:
            c = alpha * lbar * (1 - delta)
            for ad in alpha_ds:
                d = ad / alpha
                want = _rate_gap_60_digits(c, lbar, delta, d)
                assert math.isclose(
                    rate_gap(c, lbar, delta, d), want, rel_tol=max(2e-12, 1e-15 / alpha)
                ), (c, lbar, delta, d)


def test_gap_limit_finite_past_expm1_overflow():
    # alpha = 1e3 / 1.4 is past expm1's overflow at about 709.
    got = rate_gap_limit(1e3, 1.75, 0.2)
    assert math.isclose(got, 6.591015004990222e-125, rel_tol=1e-12)


def test_gap_finite_where_e_to_2ad_overflows():
    # alpha * d = 571: e^{ad} is finite, e^{2ad} is not.
    got = rate_gap(2.0, 1.75, 0.2, 400)
    assert math.isclose(got, 2.1678732768041e253, rel_tol=1e-12)


def test_gap_accepts_fractions():
    got = rate_gap(Fraction(2), Fraction(7, 4), Fraction(1, 5), Fraction(1, 10000))
    assert math.isclose(got, 0.18884774408951102, rel_tol=1e-12)


def test_import_leaves_mpmath_unloaded():
    code = "import sys, ssesim.cli; print('mpmath' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_growth_bound():
    g = rate_gap(2.0, 1.75, 0.2, 0.05)
    assert candidate_growth_bound(2.0, 1.75, 0.2, 0.05, 0.0) == g
    assert candidate_growth_bound(2.0, 1.75, 0.2, 0.05, 0.1) > g
    with pytest.raises(DomainError):
        candidate_growth_bound(2.0, 1.75, 0.2, 0.05, -0.1)


@pytest.mark.parametrize(
    "fn,args",
    [
        (sse_rate_bound, (0.0, 1.75, 0.2)),
        (sse_rate_bound, (-1.0, 1.75, 0.2)),
        (sse_rate_bound, (2.0, 1.75, 1.0)),
        (sse_rate_bound, (2.0, 1.75, -0.1)),
        (sse_rate_bound, (2.0, 1.2, 0.2)),  # 1.2 * 0.8 <= 1
        (ssc_capacity, (2.0, 1.0)),
        (ssc_capacity, (0.0, 1.4)),
        (ssc_short_rate, (2.0, 1.4, 0.3)),  # 1.4 * 0.7 <= 1
        (rate_gap, (2.0, 1.75, 0.2, 0.0)),
        (rate_gap, (2.0, 1.75, 0.2, -0.5)),
        (rate_gap_limit, (2.0, 1.2, 0.2)),
        # alpha = c / (lbar (1 - delta)) past 30: about 714, where expm1
        # overflows, and 50, where the gap comes out negative (-5.5e-5).
        (rate_gap, (1e3, 1.75, 0.2, 0.1)),
        (rate_gap, (70.0, 1.75, 0.2, 0.1)),
        (candidate_growth_bound, (1e3, 1.75, 0.2, 0.1, 0.1)),
        (candidate_growth_bound, (70.0, 1.75, 0.2, 0.1, 0.0)),
    ],
)
def test_hypothesis_violations_raise(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


def test_rate_curve_rows():
    rows = rate_curve([0.5, 2.0], 1.75, [0.0, 0.2, 0.5])
    assert len(rows) == 6
    assert [r.delta for r in rows] == [0.0, 0.0, 0.2, 0.2, 0.5, 0.5]
    for r in rows:
        if r.delta == 0.5:  # 1.75 * 0.5 <= 1
            assert not r.valid
            assert r.rate_sse is None and r.rate_ssc_short is None
            assert r.reason
        else:
            assert r.valid
            assert r.reason == ""
            assert 0 < r.rate_sse < 1
            assert 0 < r.rate_ssc_short < 1


def test_rates_csv_golden_row():
    row = rate_curve([2.0], 1.75, [0.2])[0]
    # rate_ssc_short differs from ssc_capacity(2, 1.4) in the last digit:
    # the shortened length 1.75 * 0.8 rounds to 1.4000000000000001.
    expected = (
        "c,delta,lbar,rate_sse,rate_ssc_short,valid,reason\n"
        "2.0,0.2,1.75,0.45459721098842754,0.43528187799224094,true,\n"
    )
    assert rates_csv([row]) == expected
    bad = CurveRow(2.0, 0.5, 1.75, None, None, False, "why")
    assert rates_csv([bad]).splitlines()[1] == "2.0,0.5,1.75,,,false,why"


def test_finite_size_diagnostic():
    # How close a desk-size instance gets to the asymptotic growth bound:
    # weight the expected suffix-size counts by (1 - s/log2(n)) and compare.
    n = 1_000_000
    log_n = math.log2(n)
    lbar, c, delta = 1.75, 2.0, 0.2
    L = round(lbar * log_n)
    K = round(c * n / L)
    params = ChannelParams(n=n, L=L, K=K, delta=delta)
    counts = expected_suffix_size_counts(params)
    finite = (log_n / n) * math.fsum(
        (1 - s / log_n) * counts[s] for s in range(int(log_n) + 1)
    )
    bound = candidate_growth_bound(c, lbar, delta, 0.1, 0.01)
    print(f"finite-n weighted suffix mass: {finite:.6f}, growth bound: {bound:.6f}")
    assert finite > 0
    assert math.isfinite(bound)
