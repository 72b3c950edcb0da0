"""Achievable-rate formulas for the erasure shotgun channel.

All rates are in bits per transmitted symbol.  ``c`` is the expected
coverage depth ``K * L / n`` and ``lbar`` is the read length normalized by
``log2 n``; the formulas live in the asymptotic regime and take those
normalized quantities directly; ``channel.ChannelParams.c`` maps a finite
instance onto ``c``.

Every formula is evaluated in ordinary floats.  ``rate_gap`` at small
separation ``d`` subtracts two terms that each blow up like ``1/d``;
writing the small differences with ``expm1`` keeps it within
``max(2e-12, 1e-15 / alpha)`` relative of a 60-digit evaluation of the
same closed form, for ``alpha * d`` from 1e-12 to 10.  For ``alpha >=
1e-3`` that is 2e-12.  Smaller ``alpha`` needs ``c < 1e-3 * lbar (1 -
delta)``; there the error grows to about 1e-10, the size of the float
error of ``rate_gap_limit`` itself.  The tests check the bound on a dense
grid against mpmath.  No product in ``rate_gap`` or ``rate_gap_limit``
overflows where the closed form's value is a finite float, but
``rate_gap`` rejects ``alpha > 30`` with ``DomainError``: its bracket
cancels past any fixed precision there (at ``rate_gap(1e3, 1.75, 0.2,
0.1)`` even a 60-digit evaluation of the closed form gives -3.2e-89).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError

def _check_erasure_regime(c: float, lbar: float, delta: float) -> None:
    if not c > 0:
        raise DomainError(f"coverage depth must be positive; got {c!r}")
    if not 0 <= delta < 1:
        raise DomainError(f"erasure probability must lie in [0; 1); got {delta!r}")
    if not lbar * (1 - delta) > 1:
        raise DomainError(
            "normalized read length after erasures must exceed 1; "
            f"got lbar * (1 - delta) = {lbar * (1 - delta)!r}"
        )


def sse_rate_bound(c: float, lbar: float, delta: float) -> float:
    """Achievable rate of the erasure channel at coverage ``c``.

    Requires ``c > 0`` and ``lbar * (1 - delta) > 1``.  At ``delta = 0``
    this reduces exactly to ``ssc_capacity(c, lbar)``.
    """
    _check_erasure_regime(c, lbar, delta)
    keep = 1.0 - delta
    ec = math.exp(-c)
    return (1.0 - math.exp(-c * keep)) - keep * (
        math.exp(-c * (1.0 - 1.0 / (lbar * keep))) - ec
    )


def ssc_capacity(c: float, lbar: float) -> float:
    """Capacity of the erasure-free channel: ``1 - exp(-c (1 - 1/lbar))``.

    Requires ``c > 0`` and ``lbar > 1``.
    """
    if not c > 0:
        raise DomainError(f"coverage depth must be positive; got {c!r}")
    if not lbar > 1:
        raise DomainError(f"normalized read length must exceed 1; got {lbar!r}")
    return 1.0 - math.exp(-c * (1.0 - 1.0 / lbar))


def ssc_short_rate(c: float, lbar: float, delta: float) -> float:
    """Erasure-free capacity at the shortened length ``lbar * (1 - delta)``.

    The natural comparison point for ``sse_rate_bound``: pretend each read
    simply lost a ``delta`` fraction of its length instead of random
    positions.
    """
    if not 0 <= delta < 1:
        raise DomainError(f"erasure probability must lie in [0; 1); got {delta!r}")
    return ssc_capacity(c, lbar * (1.0 - delta))


def _gap_terms(alpha: float, d: float) -> float:
    """The bracketed difference in the gap formula."""
    em_d = math.expm1(alpha * d)
    em_1 = math.expm1(alpha)
    em_1d = math.expm1(alpha * (1 + d))
    ea = math.exp(alpha)
    # e^{ad} / (e^{ad} - 1), which stays finite where e^{2ad} overflows.
    r = 1.0 / -math.expm1(-alpha * d)
    # (e^{a(1+d)} - e^a) - d (e^{a(1+d)} - 1), with the first difference
    # rewritten as e^a (e^{ad} - 1) to keep it exact at small a*d.
    numer = ea * em_d - d * em_1d
    return em_1 * r - numer * r * r


def rate_gap(c: float, lbar: float, delta: float, d: float) -> float:
    """Rate lost to merge ambiguity at positional separation ``d > 0``.

    Converges to ``rate_gap_limit`` as ``d -> 0``.  With ``alpha = c /
    (lbar (1 - delta))`` below about 1.67 it is non-increasing in ``d``;
    above that it can dip below its limit at moderate ``d`` and approach
    it from below.  Within ``max(2e-12, 1e-15 / alpha)`` relative of the
    exact value for ``alpha <= 30``; larger ``alpha`` raises
    ``DomainError`` (see the module docstring).
    """
    _check_erasure_regime(c, lbar, delta)
    if not d > 0:
        raise DomainError(f"separation must be positive; got {d!r}")
    keep = 1.0 - delta
    alpha = c / (lbar * keep)
    if not alpha <= 30:
        raise DomainError(
            f"alpha = c / (lbar (1 - delta)) must be at most 30; got {alpha!r}"
        )
    scale = (d / keep) * (c / lbar) ** 2 * math.exp(-c)
    return scale * _gap_terms(alpha, d)


def rate_gap_limit(c: float, lbar: float, delta: float) -> float:
    """The ``d -> 0`` limit of ``rate_gap``:
    ``(1 - delta) exp(-c) (exp(alpha) - 1 - alpha)`` with
    ``alpha = c / (lbar (1 - delta))``.
    """
    _check_erasure_regime(c, lbar, delta)
    keep = 1.0 - delta
    alpha = c / (lbar * keep)
    # e^{-c} (e^a - 1) written as e^{a-c} (1 - e^{-a}): a < c, so neither
    # factor overflows.
    return keep * (math.exp(alpha - c) * -math.expm1(-alpha) - alpha * math.exp(-c))


def candidate_growth_bound(
    c: float, lbar: float, delta: float, d: float, p: float
) -> float:
    """Exponential growth rate of the surviving-candidate count:
    ``(1 + 2p) exp(alpha p d) * rate_gap(c, lbar, delta, d)``.

    ``p`` is the slack factor on the typicality thresholds; ``p = 0``
    recovers ``rate_gap`` itself.
    """
    if p < 0:
        raise DomainError(f"slack factor must be nonnegative; got {p!r}")
    gap = rate_gap(c, lbar, delta, d)
    alpha = c / (lbar * (1.0 - delta))
    return (1.0 + 2.0 * p) * math.exp(alpha * p * d) * gap


@dataclass(frozen=True)
class CurveRow:
    """One point of a rate curve; invalid points carry a reason instead."""

    c: float
    delta: float
    lbar: float
    rate_sse: float | None
    rate_ssc_short: float | None
    valid: bool
    reason: str


def rate_curve(
    c_values: Sequence[float], lbar: float, deltas: Iterable[float]
) -> list[CurveRow]:
    """Evaluate both rate formulas on a grid of coverage depths.

    Points violating a hypothesis become rows with ``valid = False`` and
    the reason recorded; no exception escapes.
    """
    rows = []
    for delta in deltas:
        for c in c_values:
            c = float(c)
            delta = float(delta)
            try:
                sse = sse_rate_bound(c, lbar, delta)
                ssc = ssc_short_rate(c, lbar, delta)
            except DomainError as exc:
                rows.append(CurveRow(c, delta, lbar, None, None, False, str(exc)))
            else:
                rows.append(CurveRow(c, delta, lbar, sse, ssc, True, ""))
    return rows


def rates_csv(rows: Iterable[CurveRow]) -> str:
    """Render curve rows as CSV with full-precision floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["c", "delta", "lbar", "rate_sse", "rate_ssc_short", "valid", "reason"]
    )
    for r in rows:
        writer.writerow(
            [
                repr(r.c),
                repr(r.delta),
                repr(r.lbar),
                "" if r.rate_sse is None else repr(r.rate_sse),
                "" if r.rate_ssc_short is None else repr(r.rate_ssc_short),
                "true" if r.valid else "false",
                r.reason,
            ]
        )
    return buf.getvalue()
