import pytest

from ssesim.assembly import (
    IslandSet,
    MergeFailure,
    OrderedMerge,
    build_islands,
    true_islands,
    true_ordered_merge,
    true_ordering,
)
from ssesim.tritstring import TritString, compatible_substring_positions

from conftest import make_output


def test_true_ordering_hand_case():
    # n=6, L=2, starts 1,2,5: gaps 1,3,2 -> overlaps 1,0,0
    out = make_output("010011", [1, 2, 5], L=2)
    ordering = true_ordering(out)
    assert ordering.zeta == (0, 1, 2)
    assert ordering.overlaps == (1, 0, 0)
    assert ordering.omega == (1, 0, 0)


def test_true_ordering_sorts_stably():
    out = make_output("010011", [5, 1, 2], L=2)
    assert true_ordering(out).zeta == (1, 2, 0)


def test_equal_starts_full_overlap():
    out = make_output("0100", [2, 2], L=3)
    ordering = true_ordering(out)
    # Coincident starts: the pair overlaps fully; the wrap gap is 4.
    assert ordering.overlaps == (3, 0)
    islands = true_islands(out)
    assert islands.circular is False
    assert len(islands.islands) == 1
    assert islands.islands[0].text == "100"


def test_single_read():
    out = make_output("010011", [3], L=2)
    ordering = true_ordering(out)
    assert ordering.overlaps == (0,)
    islands = true_islands(out)
    assert len(islands.islands) == 1
    assert islands.islands[0].text == "00"
    assert islands.members == ((0,),)


def test_erased_overlap_still_merges_in_truth():
    # Overlap symbol erased on the left read: ground truth still merges,
    # omega records a zero-size suffix.
    out = make_output("010011", [1, 2], L=2, erased={(0, 1)})
    ordering = true_ordering(out)
    assert ordering.overlaps == (1, 0)
    assert ordering.omega == (0, 0)
    islands = true_islands(out)
    assert len(islands.islands) == 1
    # The right read fills in the erased overlap position.
    assert islands.islands[0].text == "010"


def test_circular_wrap():
    # n=6, L=3, starts 1,3,5: every gap is 2 < 3, single circular island.
    x = "010011"
    out = make_output(x, [1, 3, 5], L=3)
    ordering = true_ordering(out)
    assert ordering.overlaps == (1, 1, 1)
    islands = true_islands(out)
    assert islands.circular is True
    assert len(islands.islands) == 1
    ring = islands.islands[0]
    assert len(ring) == 6
    assert ring.size == 6
    # The folded ring is the codeword read from the first start.
    assert compatible_substring_positions(ring, TritString.from_text(x), cyclic=True)
    assert ring.text == x


def test_true_islands_cover_positions():
    out = make_output("0110100101", [1, 2, 7], L=3)
    islands = true_islands(out)
    total = sum(len(i) for i in islands.islands)
    # Islands tile the covered positions: lengths sum to union coverage.
    assert total == 7  # positions 1..4 and 7..9
    assert sorted(m for run in islands.members for m in run) == [0, 1, 2]


def test_build_islands_matches_truth_claim():
    out = make_output("0110100101", [1, 2, 7], L=3, erased={(1, 0)})
    claim = true_ordered_merge(out)
    rebuilt = build_islands(out.reads, claim)
    truth = true_islands(out)
    # The decoder-reachable claim merges exactly where suffixes are visible;
    # with the overlap symbol erased the merge may split, never conflict.
    assert rebuilt.visible_symbols <= truth.visible_symbols
    assert not rebuilt.circular


def test_build_islands_rejects_bad_suffix_size():
    out = make_output("010011", [1, 2], L=2)
    reads = out.reads
    claim = OrderedMerge(zeta=(0, 1), omega=(2, 0), overlap_choice=(1, 0))
    with pytest.raises(MergeFailure) as err:
        build_islands(reads, claim)
    assert err.value.index == 0


def test_build_islands_rejects_conflict():
    reads = (TritString.from_text("11"), TritString.from_text("00"))
    claim = OrderedMerge(zeta=(0, 1), omega=(1, 0), overlap_choice=(1, 0))
    with pytest.raises(MergeFailure):
        build_islands(reads, claim)


def test_build_islands_circular_claim():
    reads = (TritString.from_text("010"), TritString.from_text("010"))
    claim = OrderedMerge(zeta=(0, 1), omega=(1, 1), overlap_choice=(1, 1))
    got = build_islands(reads, claim)
    assert got.circular is True
    assert got.islands[0].text == "0101"
    # Folding fails when the closure clashes.
    clash = (TritString.from_text("010"), TritString.from_text("001"))
    with pytest.raises(MergeFailure):
        build_islands(clash, claim)


def test_ordered_merge_validation():
    with pytest.raises(ValueError):
        OrderedMerge(zeta=(0, 0), omega=(0, 0), overlap_choice=(0, 0))
    with pytest.raises(ValueError):
        OrderedMerge(zeta=(0, 1), omega=(1, 0), overlap_choice=(0, 0))
    with pytest.raises(ValueError):
        IslandSet(islands=(), members=((0,),))


def test_island_length_identity():
    # Sum of island lengths = K*L - sum of merged overlaps; island count =
    # number of zero-overlap adjacencies.
    out = make_output("01101001010011", [1, 4, 9, 12], L=4)
    ordering = true_ordering(out)
    islands = true_islands(out)
    assert not islands.circular
    merged = sum(o for o in ordering.overlaps if o > 0)
    total = sum(len(i) for i in islands.islands)
    zero_count = sum(1 for o in ordering.overlaps if o == 0)
    assert total == 4 * 4 - merged
    assert len(islands.islands) == zero_count
