import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssesim.tritstring import (
    ERASED,
    MergeError,
    TritString,
    _fold,
    compatible,
    compatible_substring_positions,
    is_l_compatible,
    merge,
)

trit_text = st.text(alphabet="01*", min_size=0, max_size=12)
nonempty_trit_text = st.text(alphabet="01*", min_size=1, max_size=12)


# Character-level reference implementations; the module under test works on
# packed integers, so these share no code with it.

def naive_compatible(a: str, b: str) -> bool:
    return all(x == y or ERASED in (x, y) for x, y in zip(a, b, strict=True))


def naive_l_compatible(a: str, b: str, l: int) -> bool:
    return naive_compatible(a[len(a) - l :] if l else "", b[:l])


def naive_merge(a: str, b: str, l: int) -> str:
    head, tail = a[: len(a) - l], b[l:]
    mid = []
    for x, y in zip(a[len(a) - l :], b[:l]):
        mid.append(y if x == ERASED else x)
    return head + "".join(mid) + tail


def naive_positions(v: str, u: str, cyclic: bool) -> frozenset[int]:
    doubled = u + u if cyclic else u
    limit = len(u) if cyclic else len(u) - len(v) + 1
    return frozenset(
        p + 1 for p in range(limit) if naive_compatible(doubled[p : p + len(v)], v)
    )


def test_text_round_trip():
    for text in ("", "0", "1", "*", "01*10", "***", "10" * 20):
        assert TritString.from_text(text).text == text
    assert str(TritString.from_text("0*1")) == "0*1"


def test_text_round_trip_in_linear_time():
    n = 2**19
    text = "".join(random.Random(0).choices("01*", k=n))
    start = time.perf_counter()
    u = TritString.from_text(text)
    assert u.text == text
    # Per-symbol shifts of the whole integer take several seconds here.
    assert time.perf_counter() - start < 2.0
    assert u.size == n - text.count(ERASED)


def test_from_text_rejects_junk():
    for junk in ("01x", "0_1", " 01", "+1"):
        with pytest.raises(ValueError):
            TritString.from_text(junk)


def test_measure_and_size():
    u = TritString.from_text("0*1*1")
    assert len(u) == 5
    assert u.size == 3


def test_invalid_planes_rejected():
    with pytest.raises(ValueError):
        TritString(bits=0b10, known=0b01, length=2)
    with pytest.raises(ValueError):
        TritString(bits=0, known=0b100, length=2)
    with pytest.raises(ValueError, match="non-negative"):
        TritString(0, 0, -1)
    # Fully visible: a value bit at the length is past the string.
    with pytest.raises(ValueError, match="only allowed at unerased positions"):
        TritString(bits=0b100, known=0b11, length=2)
    # Partly visible: a value bit under an erasure.
    with pytest.raises(ValueError, match="only allowed at unerased positions"):
        TritString(bits=0b010, known=0b101, length=3)
    # Both faults: the visibility mask is checked first.
    with pytest.raises(ValueError, match="beyond the string length"):
        TritString(bits=0b1010, known=0b101, length=2)


def test_compatible_hand():
    t = TritString.from_text
    assert compatible(t("01*"), t("0*1"))
    assert not compatible(t("01"), t("00"))
    assert compatible(t(""), t(""))
    with pytest.raises(ValueError):
        compatible(t("01"), t("011"))


def test_l_compatible_hand():
    t = TritString.from_text
    u, v = t("0110"), t("10*1")
    # suffix("0110", 2) = "10" against prefix "10": fine
    assert is_l_compatible(u, v, 2)
    # suffix of length 3 = "110" against "10*": 1 vs 1, 1 vs 0 -> clash
    assert not is_l_compatible(u, v, 3)
    assert is_l_compatible(u, v, 0)
    with pytest.raises(ValueError):
        is_l_compatible(u, v, 5)


def test_merge_hand():
    t = TritString.from_text
    assert merge(t("011"), t("1*0"), 1).text == "011*0"
    assert merge(t("0*1"), t("*10"), 2).text == "0*10"
    with pytest.raises(MergeError):
        merge(t("011"), t("000"), 1)  # 1 vs 0 in the overlap
    with pytest.raises(MergeError):
        merge(t("0**"), t("***"), 2)  # merging suffix fully erased
    with pytest.raises(MergeError):
        merge(t("01"), t("10"), 0)  # zero overlap is not a merge
    with pytest.raises(MergeError):
        merge(t("01"), t("10"), 3)


def test_positions_hand():
    t = TritString.from_text
    assert compatible_substring_positions(t("*1"), t("0110")) == {1, 2}
    assert compatible_substring_positions(t("11"), t("1001")) == frozenset()
    assert compatible_substring_positions(t("11"), t("1001"), cyclic=True) == {4}
    assert compatible_substring_positions(t(""), t("01")) == {1, 2, 3}
    assert compatible_substring_positions(t(""), t("01"), cyclic=True) == {1, 2}
    with pytest.raises(ValueError):
        compatible_substring_positions(t("010"), t("01"))


def fold(text: str, l: int) -> str | None:
    """``_fold`` on the raw planes of ``text``, as text; None on a clash."""
    u = TritString.from_text(text)
    s = _fold((u.bits, u.known, u.length), l)
    return None if s is None else TritString(*s).text


def test_fold_cyclic_hand():
    assert fold("0110", 1) == "011"
    assert fold("0110", 2) is None  # "10" clashes with "01"
    assert fold("0101", 2) == "01"


@given(trit_text, trit_text)
def test_compatible_matches_naive(a, b):
    if len(a) != len(b):
        return
    u, v = TritString.from_text(a), TritString.from_text(b)
    assert compatible(u, v) == naive_compatible(a, b)
    assert compatible(u, v) == compatible(v, u)


@given(trit_text)
def test_compatible_reflexive(a):
    u = TritString.from_text(a)
    assert compatible(u, u)


@given(trit_text, trit_text, st.integers(min_value=0, max_value=12))
def test_l_compatible_matches_naive(a, b, l):
    if l > min(len(a), len(b)):
        return
    u, v = TritString.from_text(a), TritString.from_text(b)
    assert is_l_compatible(u, v, l) == naive_l_compatible(a, b, l)


@given(trit_text, trit_text, st.integers(min_value=1, max_value=12))
def test_merge_matches_naive(a, b, l):
    if l > min(len(a), len(b)):
        return
    u, v = TritString.from_text(a), TritString.from_text(b)
    if not naive_l_compatible(a, b, l) or a[-l:] == ERASED * l:
        with pytest.raises(MergeError):
            merge(u, v, l)
        return
    m = merge(u, v, l)
    assert m.text == naive_merge(a, b, l)
    assert len(m) == len(a) + len(b) - l


@given(trit_text, trit_text, st.integers(min_value=1, max_value=12))
def test_merge_size_identity(a, b, l):
    if l > min(len(a), len(b)):
        return
    u, v = TritString.from_text(a), TritString.from_text(b)
    try:
        m = merge(u, v, l)
    except MergeError:
        return
    both = (u.known >> (len(u) - l)) & v.known & ((1 << l) - 1)
    assert m.size == u.size + v.size - both.bit_count()


@settings(max_examples=300)
@given(nonempty_trit_text, nonempty_trit_text, st.booleans())
def test_positions_match_naive(v_text, u_text, cyclic):
    if len(v_text) > len(u_text):
        return
    u = TritString.from_text(u_text)
    v = TritString.from_text(v_text)
    assert compatible_substring_positions(v, u, cyclic=cyclic) == naive_positions(
        v_text, u_text, cyclic
    )


@given(nonempty_trit_text, st.integers(min_value=1, max_value=12))
def test_fold_matches_rotation_compat(a, l):
    period = len(a) - l
    if l > period:
        return  # outside _fold's precondition l <= period
    tail, head = a[period:], a[:l]
    if not naive_compatible(tail, head):
        assert fold(a, l) is None
        return
    # The fold overlays the tail on the head and keeps one period.
    expect = list(a[:period])
    for i, ch in enumerate(tail):
        if expect[i] == ERASED:
            expect[i] = ch
    assert fold(a, l) == "".join(expect)
