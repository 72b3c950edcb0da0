"""In-memory span recording around calls into ssesim's layers.

Spans are recorded from the benchmark alone: ``Tracer.patch`` replaces the
names that each calling module looks up (``ssesim.cli.typicality_decode``,
``ssesim.stats.coverage``, the ``TritString.text`` property, ...) with
wrappers that time the call.  The package's own source is untouched.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` the operation number.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name) for every function wrapped where it is
# looked up.  Spans are named after the layer that implements the call.
CALL_SITES = (
    ("ssesim.cli", "random_codebook", "channel.random_codebook"),
    ("ssesim.cli", "transmit", "channel.transmit"),
    ("ssesim.cli", "typicality_decode", "decoder.typicality_decode"),
    ("ssesim.cli", "oracle_decode", "decoder.oracle_decode"),
    ("ssesim.cli", "concentration_experiment", "stats.concentration_experiment"),
    ("ssesim.decoder", "is_l_compatible", "tritstring.is_l_compatible"),
    ("ssesim.stats", "random_codeword", "channel.random_codeword"),
    ("ssesim.stats", "transmit_codeword", "channel.transmit_codeword"),
    ("ssesim.stats", "coverage", "stats.coverage"),
    ("ssesim.stats", "chain_island_count", "stats.chain_island_count"),
    ("ssesim.stats", "suffix_size_histogram", "stats.suffix_size_histogram"),
)


class Tracer:
    """Records spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(result)`` runs after
        the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` by its traced version until ``restore``."""
        orig = owner.__dict__[attr]
        if isinstance(orig, property):
            new = property(self.wrap(name, orig.fget, observe))
        else:
            new = self.wrap(name, orig, observe)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, call count and self time, in ns.

        Self time is the duration minus the time of direct children; calls
        are sequential, so children never overlap.
        """
        total: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            count[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[i]
        return total, count, own

    def write(self, path: Path) -> None:
        """Spans as CSV; a span's index is its row number from 0."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
