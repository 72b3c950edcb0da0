"""The benchmark's workloads: seed -> argv generation and output checks.

Every workload is a closed loop with one client in one process: the next
``ssesim`` CLI invocation starts only when the previous one has returned.
The program sees only the argv built here; the workload seed reaches it
only through the order of the operations and the per-operation ``--seed``
values derived from it.

This module imports nothing from ``ssesim`` so the checks can be tested,
and the argv lists generated, without the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# conc-1e7 accepts phi.mean within this many exact standard errors of E[phi].
# A false alarm at 6 sigma has probability about 2e-9 per trial.
PHI_TOLERANCE_SE = 6.0


def instance_seed(key: str, j: int) -> int:
    """The ``--seed`` of pool instance ``j``; string seeding is stable across
    processes and Python versions (it hashes with SHA-512)."""
    return random.Random(f"{key}/{j}").randrange(2**31)


def _decode_argv(reads: int, codebooks: tuple[int, ...]):
    """argv maker for ``decode-demo``; instance ``j`` falls in cell
    ``j % len(cells)`` of the (delta, codebook size) grid."""
    cells = [(delta, book) for book in codebooks for delta in ("0", "0.1")]

    def make(j: int, seed: int, out_path: str) -> list[str]:
        delta, book = cells[j % len(cells)]
        return [
            "decode-demo",
            "--n", "32",
            "--length", "8",
            "--reads", str(reads),
            "--delta", delta,
            "--codebook-size", str(book),
            "--seed", str(seed),
            "-o", out_path,
        ]  # fmt: skip

    return make, len(cells)


def _conc_argv(j: int, seed: int, out_path: str) -> list[str]:
    return [
        "concentration",
        "--n", "10000000",
        "--lbar", "2",
        "--coverage", "2",
        "--delta", "0.2",
        "--mz-tau", "0.5",
        "--mz-tau", "0.85",
        "--trials", "1",
        "--threads", "1",
        "--seed", str(seed),
        "-o", out_path,
    ]  # fmt: skip


def check_decode(text: str) -> list[str]:
    """Problems with one ``decode-demo`` output; empty when it is correct.

    At epsilon = inf the typicality decoder keeps exactly the oracle's
    codewords, and the oracle always keeps the transmitted one.
    """
    try:
        doc = json.loads(text)
        cand = doc["candidate_codewords"]
        oracle = doc["oracle_codewords"]
        truth = doc["true_message"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable decode output: {exc!r}"]
    problems = []
    if cand != oracle:
        problems.append(f"candidate_codewords {cand} != oracle_codewords {oracle}")
    if truth not in oracle:
        problems.append(f"true_message {truth} not in oracle_codewords {oracle}")
    return problems


def phi_exact(n: int, L: int, K: int) -> tuple[float, float]:
    """Exact mean and standard deviation of phi for one trial.

    phi = 1 - U/n, where U counts positions no window covers.  A position
    is uncovered when none of the K uniform starts falls among the L starts
    whose window covers it; two positions at cyclic offset d block
    L + min(d, n - d, L) starts together.  Hence E[phi] = 1 - (1 - L/n)^K
    and Var U = n q (1 - q) + n * sum_d [P(both uncovered) - q^2].
    """
    if not (1 <= L and 2 * L <= n):
        raise ValueError(f"need 1 <= L and 2L <= n; got n={n}, L={L}")
    q = math.exp(K * math.log1p(-L / n))
    var_u = n * q * (1 - q)
    for d in range(1, L):  # offsets d and n - d
        var_u += 2 * n * (math.exp(K * math.log1p(-(L + d) / n)) - q * q)
    # The n - 2L + 1 offsets whose blocked start sets are disjoint.
    disjoint = K * (math.log1p(-2 * L / n) - 2 * math.log1p(-L / n))
    var_u += n * (n - 2 * L + 1) * q * q * math.expm1(disjoint)
    return 1 - q, math.sqrt(max(var_u, 0.0)) / n


def check_concentration(text: str) -> list[str]:
    """Problems with one ``concentration`` JSON output; empty when correct."""
    try:
        doc = json.loads(text)
        p = doc["params"]
        n, L, K = int(p["n"]), int(p["L"]), int(p["K"])
        trials = int(doc["trials"])
        phi = float(doc["phi"]["mean"])
        phi_v = float(doc["phi_v"]["mean"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable concentration output: {exc!r}"]
    problems = []
    if not 0.0 <= phi_v <= phi <= 1.0:
        problems.append(f"need 0 <= phi_v.mean <= phi.mean <= 1; got {phi_v}, {phi}")
    mean, sd = phi_exact(n, L, K)
    se = sd / math.sqrt(trials)
    if not abs(phi - mean) <= PHI_TOLERANCE_SE * se:
        problems.append(
            f"phi.mean {phi} is {abs(phi - mean) / se:.1f} se from E[phi] = {mean} "
            f"(se {se:.3g}, limit {PHI_TOLERANCE_SE})"
        )
    return problems


@dataclass(frozen=True)
class Workload:
    """A pool of CLI invocations run in a seeded order.

    A run does ``size(seconds)`` operations, whole rounds of ``cells``
    each, so every run of the same length does the same number of each
    kind.  ``op_s`` is the pool's mean seconds per operation on a 2-core
    VM and only sets that count.  With ``fixed_pool`` the instances are the
    same for every workload seed, which then only orders them: decode cost
    varies about tenfold between instances, so drawing them per seed would
    measure the draw.  Otherwise each seed draws its own instances.
    """

    name: str
    argv: Callable[[int, int, str], list[str]]
    cells: int
    op_s: float
    fixed_pool: bool
    check: Callable[[str], list[str]]

    def size(self, seconds: float) -> int:
        return max(1, round(seconds / (self.op_s * self.cells))) * self.cells

    def plan(self, seed: int, count: int) -> list[int]:
        """Pool indices in run order."""
        order = list(range(count))
        random.Random(f"{self.name}/{seed}").shuffle(order)
        return order

    def make_argv(self, seed: int, j: int, out_path: str) -> list[str]:
        key = self.name if self.fixed_pool else f"{self.name}/{seed}"
        return self.argv(j, instance_seed(key, j), out_path)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion-8 decode mix (n=32 L=8 K=6, codebook 4-8): claim search,
        # candidate rendering and the CLI's JSON dump dominate; decoder pruning
        # acts here.  Not in BENCHMARK.json: on a shared 2-core VM whole runs
        # of the same work land in a slow or a ~25% faster phase, so its
        # throughput spreads by 0.14-0.27 of the median across runs.  Run it
        # by name to measure a search change.
        Workload(
            "decode-c8",
            *_decode_argv(6, (4, 5, 6, 7, 8)),
            op_s=0.49,
            fixed_pool=True,
            check=check_decode,
        ),
        Workload(
            "decode-bigbook",
            *_decode_argv(4, (1024,)),
            op_s=1.15,
            fixed_pool=True,
            check=check_decode,
        ),
        Workload(
            "conc-1e7",
            _conc_argv,
            cells=1,
            op_s=1.9,
            fixed_pool=False,
            check=check_concentration,
        ),
    )
}
