"""Shotgun-sequencing erasure channel: simulation, decoding, statistics,
and achievable-rate formulas.

The working alphabet is the trit {0, 1, erased}; ``TritString`` packs a
string of trits into two integer bit planes.  ``channel`` draws seeded reads
of a cyclic codeword, ``stats`` measures coverage and suffix-size laws
against their exact expectations, ``rates`` evaluates the closed-form rate
expressions, and ``decoder`` runs the claim-enumeration decoder at toy
scale.
"""

from .channel import (
    ChannelOutput,
    ChannelParams,
    Truth,
    child_seed,
    cyclic_gaps,
    random_codebook,
    random_codeword,
    stage_rng,
    transmit,
    transmit_codeword,
)
from .decoder import (
    DecodeResult,
    DecoderConfig,
    SearchSpaceError,
    oracle_decode,
    typicality_decode,
)
from .errors import DomainError
from .rates import (
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
from .stats import (
    ConcentrationSummary,
    CoverageReport,
    SuffixSizeHistogram,
    TypicalityThresholds,
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
)
from .tritstring import (
    ERASED,
    MergeError,
    TritString,
    compatible,
    compatible_substring_positions,
    is_l_compatible,
    merge,
)

__version__ = "0.1.0"
