"""ssesim benchmark: drives the ``ssesim`` CLI on seeded workloads.

    python3 perfbench/run.py --workload decode-bigbook --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # every workload

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run starts fresh worker
processes (``worker.py``): one that runs the workload as a closed loop with
one client, calling ``ssesim.cli.main(argv)`` in process with its output to
a file, and, around it, several that only set up, for the set-up time.  The
number of operations follows from ``--seconds`` (see ``Workload``), so runs
of the same length do the same work.  This process then checks every
output; a non-zero exit code or a failed check counts as a failed
operation.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and with spans recorded, and prints the
per-layer metrics.  Human-readable lines come first, each metric with its
unit, then one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` as the last line of each workload.  That object holds the
metrics BENCHMARK.json lists, with its units.  Per-run records (stamp,
latencies, set-up times) and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Set-up is timed in this many extra processes before the measured one and
# as many after it, plus the measured one; the median of them is reported.
SETUP_PROBES_EACH_SIDE = 3
# Every run must end within 180 s; leave room for this process.
DEADLINE_S = 170.0
# latency_tail_s is shown only from this many samples on, so that it is at
# least the 75th percentile.
MIN_TAIL_SAMPLES = 40


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args, name: str, ops_dir: Path, extra: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--ops-dir", str(ops_dir),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]  # fmt: skip
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("worker printed no result") from None


def check_ops(workload, ops_dir: Path, ops: dict) -> tuple[int, int]:
    """Check every operation's exit code and output; (attempted, failed)."""
    attempted = failed = 0
    for tag, runs in ops.items():
        for i, (_, code) in enumerate(runs):
            attempted += 1
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = workload.check((ops_dir / f"{tag}-{i}.out").read_text())
                except OSError as exc:
                    problems = [f"no output: {exc}"]
            if problems:
                failed += 1
                print(f"{tag} operation {i} failed: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def tail_latency(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than ``MIN_TAIL_SAMPLES``."""
    if len(latencies) < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(run: dict, setups: list[float], setups_wall: list[float]) -> tuple[dict, list[str]]:
    """Every end-to-end value by name and the report lines.

    ``latency_tail_s`` is missing when there are too few operations for it;
    the caller reports ``failed_ratio``.
    """
    lat = [t for t, _ in run["ops"]["run"]]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    lines = [
        f"{'setup_s':<18} {values['setup_s']:.6g} s  (median of {len(setups)} process starts: "
        f"CPU time from process start to first operation ready; wall time "
        f"{statistics.median(setups_wall):.6g} s)",
        f"{'throughput_per_s':<18} {values['throughput_per_s']:.6g} 1/s  "
        f"({len(lat)} operations over {sum(lat):.3f} s of wall time in the CLI)",
        f"{'latency_p50_s':<18} {values['latency_p50_s']:.6g} s  (median of {len(lat)} operations)",
    ]
    tail = tail_latency(lat)
    if tail is None:
        lines.append(
            f"{'latency_tail_s':<18} n/a  ({len(lat)} operations; a tail needs {MIN_TAIL_SAMPLES})"
        )
    else:
        values["latency_tail_s"] = tail[1]
        lines.append(
            f"{'latency_tail_s':<18} {tail[1]:.6g} s  "
            f"(p{tail[0]:.1f}, 10 of {len(lat)} samples beyond)"
        )
    lines.append(
        f"{'peak_rss_mb':<18} {values['peak_rss_mb']:.6g} MB  "
        "(ru_maxrss of the process that ran the workload)"
    )
    return values, lines


def per_layer(run: dict) -> tuple[dict, list[str]]:
    """Every per-layer value by name and the report lines."""
    base = run["base"]
    lines = [
        f"decoder.matching_set_ratio base: {base['matching_island_sets']} matching of "
        f"{base['candidate_island_sets']} candidate island sets in "
        f"{base['operations']} operations",
        f"spans written to {run['spans']}",
    ]
    return run["per_layer"], lines


def bench(args, name: str, spec: dict) -> int:
    """Measure one workload and print its report; the exit code.

    ``spec`` is BENCHMARK.json: the units of the reported metrics and the
    reason each workload was chosen come from there.
    """
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    ops_dir = OUT_DIR / f"ops-{os.getpid()}"
    ops_dir.mkdir(parents=True)
    probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    try:
        before = [_worker(args, name, ops_dir, ["--setup-only"], deadline) for _ in range(probes)]
        run = _worker(args, name, ops_dir, [], deadline)
        after = [_worker(args, name, ops_dir, ["--setup-only"], deadline) for _ in range(probes)]
        attempted, failed = check_ops(workload, ops_dir, run["ops"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(ops_dir)
    setups = [r["setup_cpu_s"] for r in [*before, run, *after]]
    setups_wall = [r["setup_wall_s"] for r in [*before, run, *after]]

    if args.trace:
        values, lines = per_layer(run)
        listed = spec["per_layer"]
    else:
        values, lines = end_to_end(run, setups, setups_wall)
        listed = spec["end_to_end"]
    lines.append(
        f"{'failed_ratio':<18} {failed / attempted:.6g}  ({failed} of {attempted} operations)"
    )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if args.trace:
        lines[:0] = [f"{m:<34} {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    record = {
        "stamp": run["stamp"],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "setups_cpu_s": setups,
        "setups_wall_s": setups_wall,
        "run": run,
    }
    (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(name, "not in BENCHMARK.json")
    print(f"# workload {name} ({why})")
    print(f"# stamp {json.dumps(run['stamp'], sort_keys=True)}")
    for line in lines:
        print(line)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ssesim" / "cli.py").is_file():
        print(f"no ssesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        code = bench(args, name, spec)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
