"""Command-line front end.

Subcommands:

    rate-curve     evaluate the rate formulas on a coverage grid (CSV)
    simulate       transmit one random codeword and dump the reads (JSON)
    concentration  Monte Carlo check of the coverage / island / suffix laws
    decode-demo    run the claim-enumeration decoder on a toy instance (JSON)
    gtau-table     exact expected suffix-size counts (CSV)

Exit codes: 0 on success, 2 for domain errors (bad parameter combinations),
1 for I/O failures, 64 for usage errors.  All output is deterministic for a
given seed: reruns produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .channel import (
    STAGE_MESSAGE,
    ChannelParams,
    random_codebook,
    random_codeword,
    stage_rng,
    transmit,
    transmit_codeword,
)
from .decoder import DecoderConfig, oracle_decode, typicality_decode
from .errors import DomainError
from .rates import rate_curve, rates_csv
from .stats import concentration_experiment, expected_suffix_size_counts

USAGE_ERROR = 64
MAX_GRID_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> list[float]:
    """Parse "start:stop:step" into an inclusive grid, or a single float.

    The stop value is included when it lands within half a step of the
    last point, so "0.05:5:0.05" really ends at 5.0.  Bounds and step must
    be finite, and a grid may hold at most ``MAX_GRID_POINTS`` points.
    """
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError("expected start:stop:step")
        a, b, s = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None
    if not all(math.isfinite(v) for v in (a, b, s)):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: values must be finite")
    if not s > 0:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: step must be positive")
    if b < a:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: stop below start")
    if (b - a) / s >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: too many points")
    vals = []
    k = 0
    while True:
        v = a + k * s
        if not v < b + s / 2:
            break
        vals.append(v)
        k += 1
    return vals


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value"
    return parse


def _emit(text: str, path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _add_geometry(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="codeword length")
    sub.add_argument("--delta", type=float, required=True, help="erasure probability")
    length = sub.add_mutually_exclusive_group(required=True)
    length.add_argument("--length", type=int, help="read length L")
    length.add_argument("--lbar", type=float, help="read length / log2(n)")
    count = sub.add_mutually_exclusive_group(required=True)
    count.add_argument("--reads", type=int, help="number of reads K")
    count.add_argument("--coverage", type=float, help="coverage depth K*L/n")


def _params(args) -> ChannelParams:
    return ChannelParams.resolve(
        args.n, args.delta, L=args.length, lbar=args.lbar, K=args.reads, c=args.coverage
    )


def _cmd_rate_curve(args) -> int:
    rows = rate_curve(args.c_grid, args.lbar, args.delta or [0.0])
    _emit(rates_csv(rows), args.output)
    return 0


def _cmd_simulate(args) -> int:
    params = _params(args)
    x = random_codeword(params.n, args.seed)
    out = transmit_codeword(x, params, args.seed)
    _emit(out.to_json(include_truth=args.view == "full"), args.output)
    return 0


def _cmd_concentration(args) -> int:
    params = _params(args)
    summary = concentration_experiment(
        params,
        args.trials,
        args.seed,
        mz_targets=tuple(args.mz_tau or [0.5]),
        mz_per_trial=args.mz_per_trial,
        threads=args.threads,
    )
    text = summary.trials_csv() if args.format == "csv" else summary.to_json()
    _emit(text, args.output)
    return 0


def _cmd_decode_demo(args) -> int:
    params = ChannelParams(n=args.n, L=args.length, K=args.reads, delta=args.delta)
    if args.codebook_size < 2:
        raise DomainError("codebook needs at least two codewords")
    codebook = random_codebook(args.n, args.codebook_size, args.seed)
    w = int(stage_rng(args.seed, STAGE_MESSAGE).integers(len(codebook)))
    out = transmit(codebook, w, params, args.seed)
    config = DecoderConfig(epsilon=args.epsilon, omega_mode=args.omega_mode)
    result = typicality_decode(codebook, out.decoder_view(), params, config)
    oracle = oracle_decode(codebook, out.decoder_view())
    if result.message == w:
        outcome = "decoded"
    elif result.message is not None:
        outcome = "wrong"
    elif result.candidate_codewords:
        outcome = "ambiguous"
    else:
        outcome = "empty"
    trace = {
        "visited_tuples": result.tuples_visited,
        "candidate_island_sets": [list(s) for s in result.candidate_islands],
        "candidate_codewords": list(result.candidate_codewords),
        "oracle_codewords": list(oracle),
        "outcome": outcome,
        "decoded_message": result.message,
        "true_message": w,
    }
    _emit(json.dumps(trace, indent=2, sort_keys=True), args.output)
    return 0


def _cmd_gtau_table(args) -> int:
    params = _params(args)
    if params.n < 2:
        raise DomainError("tau = s / log2(n) needs n >= 2")
    counts = expected_suffix_size_counts(params)
    log2n = math.log2(params.n)
    lines = ["suffix_size,tau,expected_count"]
    for s, g in enumerate(counts):
        lines.append(f"{s},{s / log2n!r},{float(g)!r}")
    _emit("\n".join(lines), args.output)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ssesim", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("rate-curve", help="rate formulas over a coverage grid")
    p.add_argument("--c-grid", type=parse_grid, required=True, metavar="A:B:S")
    p.add_argument("--lbar", type=float, required=True)
    p.add_argument("--delta", type=float, action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_rate_curve)

    p = subs.add_parser("simulate", help="one seeded channel transmission")
    _add_geometry(p)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--view", choices=("full", "decoder"), default="full")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("concentration", help="Monte Carlo law checks")
    _add_geometry(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--mz-tau", type=float, action="append", metavar="TAU")
    p.add_argument("--mz-per-trial", type=_int_at_least(1), default=2)
    p.add_argument("--threads", type=_int_at_least(1), default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_concentration)

    p = subs.add_parser("decode-demo", help="toy-scale decode with trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--reads", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--codebook-size", type=int, required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--epsilon", type=float, default=math.inf)
    p.add_argument(
        "--omega-mode", choices=("typical-only", "all-tuples"), default="typical-only"
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decode_demo)

    p = subs.add_parser("gtau-table", help="exact expected suffix-size counts")
    _add_geometry(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gtau_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
