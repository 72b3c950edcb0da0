"""Shotgun-sequencing erasure channel: simulation, decoding, statistics,
and achievable-rate formulas.

The working alphabet is the trit {0, 1, erased}; ``TritString`` packs a
string of trits into two integer bit planes.  ``channel`` draws seeded reads
of a cyclic codeword, ``stats`` measures coverage and suffix-size laws
against their exact expectations, ``rates`` evaluates the closed-form rate
expressions, and ``decoder`` runs the claim-enumeration decoder at toy
scale.
"""

__version__ = "0.1.0"
