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
    Codebook,
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
    TypicalityThresholds,
    chain_island_count,
    concentration_experiment,
    coverage,
    expected_suffix_size_counts,
    forward_successor_distances,
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
