"""Hand cases for the ground-truth reference in ``ground_truth``."""

from ssesim.tritstring import TritString, compatible_substring_positions

from conftest import make_output
from ground_truth import _assemble, true_islands, true_ordering, visible_symbols


def test_true_ordering_hand_case():
    # n=6, L=2, starts 1,2,5: gaps 1,3,2 -> overlaps 1,0,0
    out = make_output("010011", [1, 2, 5], L=2)
    zeta, overlaps, omega = true_ordering(out)
    assert zeta == (0, 1, 2)
    assert overlaps == (1, 0, 0)
    assert omega == (1, 0, 0)


def test_true_ordering_sorts_stably():
    out = make_output("010011", [5, 1, 2], L=2)
    assert true_ordering(out)[0] == (1, 2, 0)


def test_equal_starts_full_overlap():
    out = make_output("0100", [2, 2], L=3)
    _, overlaps, _ = true_ordering(out)
    # Coincident starts: the pair overlaps fully; the wrap gap is 4.
    assert overlaps == (3, 0)
    islands, _, circular = true_islands(out)
    assert circular is False
    assert len(islands) == 1
    assert islands[0].text == "100"


def test_single_read():
    out = make_output("010011", [3], L=2)
    _, overlaps, _ = true_ordering(out)
    assert overlaps == (0,)
    islands, members, _ = true_islands(out)
    assert len(islands) == 1
    assert islands[0].text == "00"
    assert members == ((0,),)


def test_erased_overlap_still_merges_in_truth():
    # Overlap symbol erased on the left read: ground truth still merges,
    # omega records a zero-size suffix.
    out = make_output("010011", [1, 2], L=2, erased={(0, 1)})
    _, overlaps, omega = true_ordering(out)
    assert overlaps == (1, 0)
    assert omega == (0, 0)
    islands, _, _ = true_islands(out)
    assert len(islands) == 1
    # The right read fills in the erased overlap position.
    assert islands[0].text == "010"


def test_circular_wrap():
    # n=6, L=3, starts 1,3,5: every gap is 2 < 3, single circular island.
    x = "010011"
    out = make_output(x, [1, 3, 5], L=3)
    _, overlaps, _ = true_ordering(out)
    assert overlaps == (1, 1, 1)
    islands, _, circular = true_islands(out)
    assert circular is True
    assert len(islands) == 1
    ring = islands[0]
    assert len(ring) == 6
    assert ring.size == 6
    # The folded ring is the codeword read from the first start.
    assert compatible_substring_positions(ring, TritString.from_text(x), cyclic=True)
    assert ring.text == x


def test_true_islands_cover_positions():
    out = make_output("0110100101", [1, 2, 7], L=3)
    islands, members, _ = true_islands(out)
    total = sum(len(i) for i in islands)
    # Islands tile the covered positions: lengths sum to union coverage.
    assert total == 7  # positions 1..4 and 7..9
    assert sorted(m for run in members for m in run) == [0, 1, 2]


def test_visible_true_claim_within_truth():
    out = make_output("0110100101", [1, 2, 7], L=3, erased={(1, 0)})
    zeta, overlaps, omega = true_ordering(out)
    rebuilt, _, circular = _assemble(
        out.reads, zeta, [l if w > 0 else 0 for l, w in zip(overlaps, omega)]
    )
    truth, _, _ = true_islands(out)
    # The decoder-reachable claim merges exactly where suffixes are visible;
    # with the overlap symbol erased the merge may split, never conflict.
    assert visible_symbols(rebuilt) <= visible_symbols(truth)
    assert not circular


def test_island_length_identity():
    # Sum of island lengths = K*L - sum of merged overlaps; island count =
    # number of zero-overlap adjacencies.
    out = make_output("01101001010011", [1, 4, 9, 12], L=4)
    _, overlaps, _ = true_ordering(out)
    islands, _, circular = true_islands(out)
    assert not circular
    merged = sum(o for o in overlaps if o > 0)
    total = sum(len(i) for i in islands)
    zero_count = sum(1 for o in overlaps if o == 0)
    assert total == 4 * 4 - merged
    assert len(islands) == zero_count
