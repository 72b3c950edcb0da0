"""One benchmark process: imports ssesim from the checkout and runs a workload.

``run.py`` starts this script once per set-up probe and once for the
measured run, so the set-up times and peak RSS it reports belong to a process
that ran that workload alone.  It prints one JSON object on stdout.  With
``--trace 1`` it also writes the spans beside ``--ops-dir``.

    mkdir -p out && python3 perfbench/worker.py --root . --ops-dir out \
        --workload decode-c8 --seed 1 --seconds 10 --trace 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import CALL_SITES, Tracer
from workloads import WORKLOADS


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--ops-dir", required=True, help="existing directory for operation outputs")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _stamp(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_op(main, workload, seed: int, j: int, out_path: str) -> list:
    """One CLI call on pool instance ``j``, writing to ``out_path``.

    Returns [seconds in ``main``, exit code]; an exception counts as exit
    code -1.  Outputs are checked later by ``run.py``,
    outside this process, so the checks neither slow the loop nor add to
    its peak RSS.
    """
    argv = workload.make_argv(seed, j, out_path)
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # a traceback is a failed operation, not a failed run
        code = -1
        traceback.print_exc()
    return [time.perf_counter() - t0, code]


def plain_loop(main, workload, seed: int, plan: list[int], ops_dir: Path) -> list:
    """Every instance of ``plan`` in order, the i-th writing
    ``ops_dir/run-<i>.out``."""
    return [
        run_op(main, workload, seed, j, str(ops_dir / f"run-{i}.out")) for i, j in enumerate(plan)
    ]


def matching_sets(island_sets, codebook) -> int:
    """Candidate island sets that fit at least one codeword: every island
    is a compatible cyclic substring of it."""
    from ssesim.tritstring import TritString, compatible_substring_positions

    parsed: dict[str, TritString] = {}
    fits: dict[tuple[str, int], bool] = {}

    def fit(text: str, w: int) -> bool:
        key = (text, w)
        if key not in fits:
            if text not in parsed:
                parsed[text] = TritString.from_text(text)
            t, x = parsed[text], codebook[w]
            fits[key] = len(t) <= len(x) and bool(
                compatible_substring_positions(t, x, cyclic=True)
            )
        return fits[key]

    return sum(
        any(all(fit(t, w) for t in s) for w in range(len(codebook)))
        for s in island_sets
    )


def traced_loop(ssesim, workload, seed: int, plan: list[int], ops_dir: Path, spans_path: Path):
    """Every instance of ``plan`` run once untraced and once with spans
    recorded, in alternating order, so the two throughputs compare
    identical, equally warm inputs.

    Returns both op lists and the per-layer metrics, each an average per
    traced operation, plus the base of ``decoder.matching_set_ratio``.
    """
    from ssesim import tritstring

    tracer = Tracer()
    seen = {"codebook": None, "read_symbols": 0}

    def keep_codebook(book):
        seen["codebook"] = book

    def count_symbols(out):  # K * L symbols, computed from the array shape
        seen["read_symbols"] += out.values.size

    observers = {
        "channel.random_codebook": keep_codebook,
        "channel.transmit_codeword": count_symbols,
    }
    traced_main = tracer.wrap("cli.main", ssesim.cli.main)

    def run_traced(i: int, j: int) -> list:
        for module, attr, name in CALL_SITES:
            tracer.patch(importlib.import_module(module), attr, name, observers.get(name))
        tracer.patch(tritstring.TritString, "text", "tritstring.text")
        tracer.op = i
        try:
            return run_op(traced_main, workload, seed, j, str(ops_dir / f"traced-{i}.out"))
        finally:
            tracer.restore()

    plain, traced = [], []
    out_bytes = visited = sets = matching = 0
    for i, j in enumerate(plan):
        if i % 2:
            traced.append(run_traced(i, j))
        plain.append(run_op(ssesim.cli.main, workload, seed, j, str(ops_dir / f"plain-{i}.out")))
        if not i % 2:
            traced.append(run_traced(i, j))
        if traced[-1][1] != 0:
            continue
        text = (ops_dir / f"traced-{i}.out").read_text()
        out_bytes += len(text.encode())
        doc = json.loads(text)
        if "candidate_island_sets" in doc:
            visited += doc["visited_tuples"]
            sets += len(doc["candidate_island_sets"])
            matching += matching_sets(doc["candidate_island_sets"], seen["codebook"])
    tracer.write(spans_path)

    total, calls, own = tracer.totals()
    n = len(traced)

    def per_op_s(table, name):
        return table.get(name, 0) / 1e9 / n

    layer = {
        "cli.self_s": per_op_s(own, "cli.main"),
        "cli.output_bytes": out_bytes / n,
        "decoder.typicality_decode_s": per_op_s(total, "decoder.typicality_decode"),
        "decoder.oracle_decode_s": per_op_s(total, "decoder.oracle_decode"),
        "decoder.self_s": per_op_s(own, "decoder.typicality_decode"),
        "decoder.tuples_visited": visited / n,
        "decoder.candidate_island_sets": sets / n,
        "decoder.matching_set_ratio": matching / sets if sets else 0.0,
        "tritstring.text_calls": calls.get("tritstring.text", 0) / n,
        "tritstring.text_s": per_op_s(total, "tritstring.text"),
        "tritstring.is_l_compatible_calls": calls.get("tritstring.is_l_compatible", 0) / n,
        "channel.random_codebook_s": per_op_s(total, "channel.random_codebook"),
        "channel.transmit_s": per_op_s(total, "channel.transmit"),
        "channel.random_codeword_s": per_op_s(total, "channel.random_codeword"),
        "channel.transmit_codeword_s": per_op_s(total, "channel.transmit_codeword"),
        "channel.read_symbols": seen["read_symbols"] / n,
        "stats.concentration_experiment_s": per_op_s(total, "stats.concentration_experiment"),
        "stats.coverage_s": per_op_s(total, "stats.coverage"),
        "stats.chain_island_count_s": per_op_s(total, "stats.chain_island_count"),
        "stats.suffix_size_histogram_s": per_op_s(total, "stats.suffix_size_histogram"),
        "stats.concentration_self_s": per_op_s(own, "stats.concentration_experiment"),
    }
    layer["trace.overhead_throughput_per_s"] = (
        n / sum(t for t, _ in traced) - n / sum(t for t, _ in plain)
    )
    layer["trace.operations"] = n
    base = {"candidate_island_sets": sets, "matching_island_sets": matching, "operations": n}
    return {"plain": plain, "traced": traced}, layer, base


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy
        import ssesim.cli
    except ImportError as exc:
        print(f"cannot import ssesim from {src}: {exc}", file=sys.stderr)
        return 3
    if Path(ssesim.__file__).resolve().parent.parent != src:
        print(f"ssesim was imported from {ssesim.__file__}, not from {src}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    ops_dir = Path(args.ops_dir)
    # A traced run does every operation twice, so it plans half as many.
    plan = workload.plan(args.seed, workload.size(args.seconds / (1 + args.trace)))
    workload.make_argv(args.seed, plan[0], str(ops_dir / "run-0.out"))
    ready = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_cpu_s": ready.ru_utime + ready.ru_stime,
        "setup_wall_s": time.monotonic() - args.spawned_at,
        "stamp": _stamp(args, numpy.__version__),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        spans_path = ops_dir.parent / f"spans-{args.workload}-seed{args.seed}.csv"
        ops, layer, base = traced_loop(ssesim, workload, args.seed, plan, ops_dir, spans_path)
        result.update(ops=ops, per_layer=layer, base=base, spans=str(spans_path))
    else:
        ops = plain_loop(ssesim.cli.main, workload, args.seed, plan, ops_dir)
        result["ops"] = {"run": ops}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
