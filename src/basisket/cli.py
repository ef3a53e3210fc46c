"""Command-line front end.

Subcommands:

    bases      build, validate, and print a pattern basis from a recipe
    classify   one function -> outcome distribution, nearest set, theta
    enumerate  exhaustive distance profile (lengths 8 and 16)
    sample     stratified sampled profile plus deterministic probes
    tables     recompute the published reference tables and diff
    game       Monte Carlo simulation of the guessing game

classify, enumerate and sample write their CSV or JSON document to --out,
else to stdout, which then holds the document alone: the summary, probe,
region and histogram lines go to stderr.  With --out those lines go to
stdout, and a profile gets a sibling .manifest.json listing every file
the run wrote.

Exit codes: 0 success, 1 usage or file error, 2 table diff failure.
The default seed comes from the BASISKET_SEED environment variable when
set, else 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import ClassifierSpec, classification_threshold
from .experiment import (
    ATTEMPT_FACTOR,
    exhaustive_profile,
    interval_summary,
    probe_suite,
    stratified_sample_profile,
)
from .game import (ALICE_STRATEGIES, BOB_STRATEGIES, GameConfig,
                   estimate_win_rate, write_rounds)
from .patterns import PatternVector
from . import reference
from .report import (
    ascii_histogram,
    distribution_to_csv,
    distribution_to_json,
    profile_to_csv,
    profile_to_json,
    svg_histogram,
)

SEED_ENV_VAR = "BASISKET_SEED"
DEFAULT_QUOTA = 200  # per distance d < L/2, when sample gets no --quota


def _seed(text: str, source: str = "") -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {text!r}{source}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}{source}")
    return seed


def _parse_quotas(items: list[str] | None, length: int) -> dict[int, int]:
    if not items:
        if length < 4:
            raise ValueError(f"length {length} has no distance below L/2 "
                             "for the default quota; give --quota D=COUNT")
        return {d: DEFAULT_QUOTA for d in range(1, length // 2)}
    quotas: dict[int, int] = {}
    for item in items:
        d, _, count = item.partition("=")
        try:
            d, count = int(d), int(count)
        except ValueError:
            raise ValueError(f"--quota expects D=COUNT with integers D and "
                             f"COUNT, got {item!r}") from None
        if d in quotas:
            raise ValueError(f"--quota gives distance {d} twice")
        quotas[d] = count
    return quotas


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _notes(args):
    """Where a command's lines other than its document go: stderr when
    the document is on stdout, so that stdout parses; else stdout."""
    return sys.stdout if args.out else sys.stderr


def _emit_profile(profile, args, runtime_seconds: float, sampling) -> None:
    body = (profile_to_json(profile, runtime_seconds)
            if args.format == "json" else profile_to_csv(profile))
    _write_or_print(body, args.out)
    if args.hist == "svg":
        target = (args.out or "profile") + ".svg"
        Path(target).write_text(svg_histogram(profile), encoding="utf-8")
        print(f"histogram written to {target}", file=_notes(args))
    elif args.hist:
        _notes(args).write(ascii_histogram(profile))
    if args.out:
        outputs = [args.out, target] if args.hist == "svg" else [args.out]
        manifest = {
            "subcommand": args.command,
            "recipe": ",".join(profile.recipe),
            "mode": profile.mode,
            "seed": profile.seed,
            "quotas": {str(k): v for k, v in sorted(profile.quotas.items())},
            **sampling,
            "outputs": outputs,
            "tool_version": __version__,
            "runtime_seconds": runtime_seconds,
        }
        Path(args.out + ".manifest.json").write_text(
            json.dumps(manifest, indent=2), encoding="utf-8")


def cmd_bases(args) -> int:
    spec = ClassifierSpec.parse(args.recipe)
    basis = spec.basis()
    print(str(basis))
    rho = spec.rho()
    print(f"# rank {basis.rank}, zero-count "
          f"{'not-uniform' if rho is None else rho}")
    return 0


def cmd_classify(args) -> int:
    spec = ClassifierSpec.parse(args.recipe)
    h = PatternVector.parse(args.function)
    report = classification_threshold(spec, h)
    probs = report.distribution
    body = (distribution_to_json(probs, spec.total_bits) if args.format == "json"
            else distribution_to_csv(probs, spec.total_bits))
    _write_or_print(body, args.out)
    top = int(np.argmax(probs))
    print(f"distance {report.nearest.distance}  "
          f"nearest_kets {sorted(report.nearest.indices)}  "
          f"theta {report.theta:.6f}  most_likely_outcome {top} "
          f"({format(top, f'0{spec.total_bits}b')})", file=_notes(args))
    return 0


def cmd_enumerate(args) -> int:
    spec = ClassifierSpec.parse(args.recipe)
    start = time.perf_counter()
    profile = exhaustive_profile(spec.factors)
    _emit_profile(profile, args, time.perf_counter() - start, {})
    return 0


def cmd_sample(args) -> int:
    spec = ClassifierSpec.parse(args.recipe)
    quotas = _parse_quotas(args.quota, spec.dim)
    start = time.perf_counter()
    profile = stratified_sample_profile(
        spec.factors, quotas, args.seed,
        attempt_factor=args.attempt_factor)
    short = list(profile.short_buckets)
    _emit_profile(profile, args, time.perf_counter() - start,
                  {"attempt_factor": args.attempt_factor,
                   "short_buckets": short})
    notes = _notes(args)
    if short:
        print(f"# short buckets (quota unmet): {short}", file=notes)
    print("# probes:", file=notes)
    for name, report in probe_suite(spec.factors):
        print(f"#   {name}: distance {report.nearest.distance} "
              f"theta {report.theta:.6f}", file=notes)
    summary = interval_summary(profile)
    for region in summary.regions:
        print(f"# {region}", file=notes)
    if summary.monotonicity_violations:
        print(f"# note: non-monotone buckets at "
              f"{list(summary.monotonicity_violations)}", file=notes)
    return 0


def cmd_tables(args) -> int:
    diffs = reference.check_table(args.which)
    for diff in diffs:
        print(f"DIFF {diff}")
    if diffs:
        print(f"table {args.which}: {len(diffs)} cell(s) outside tolerance")
        return 2
    print(f"table {args.which}: all cells within tolerance")
    return 0


def cmd_game(args) -> int:
    config = GameConfig(
        recipe=ClassifierSpec.parse(args.recipe).factors,
        bob=args.bob, alice=args.alice,
        trials=args.trials, seed=args.seed,
        bob_distance=args.distance)
    result = estimate_win_rate(config)  # a failed game leaves the log alone
    if args.rounds_out:  # replays the game's blocks from their seeds
        with open(args.rounds_out, "w", encoding="utf-8") as fh:
            write_rounds(config, fh)
    print(json.dumps({
        "recipe": ",".join(config.recipe), "bob": args.bob, "alice": args.alice,
        "distance": args.distance, "trials": args.trials, "seed": args.seed,
        "alice_win_rate": result.rate, "standard_error": result.standard_error,
        "wilson_95": list(result.wilson_95),
        "alice_exact_win_rate": result.exact_rate,
    }, indent=2))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="basisket",
        description="Pattern-basis classification of Boolean functions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=False, output=False, hist=False):
        p.add_argument("--recipe", required=True,
                       help="comma-separated factors, e.g. H,C2,H")
        if seed:
            # None: read SEED_ENV_VAR when dispatching (see cli_dispatch)
            p.add_argument("--seed", type=_seed)
        if output:
            p.add_argument("--out", help="output file (default: stdout)")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if hist:
            p.add_argument("--hist", choices=("ascii", "svg"),
                           help="also emit a histogram")

    p = sub.add_parser("bases", help="build and validate a pattern basis")
    add_common(p)
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("classify", help="classify one Boolean function")
    add_common(p, output=True)
    p.add_argument("--function", required=True,
                   help="pattern bit string, MSB first")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="exhaustive distance profile")
    add_common(p, output=True, hist=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("sample", help="stratified sampled profile + probes")
    add_common(p, seed=True, output=True, hist=True)
    p.add_argument("--quota", action="append", metavar="D=COUNT",
                   help="per-distance sample quota (repeatable)")
    p.add_argument("--attempt-factor", type=int, default=ATTEMPT_FACTOR,
                   help="attempt cap per bucket, as a multiple of its quota")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tables", help="diff against published reference tables")
    p.add_argument("--which", type=int, required=True, choices=(3, 5, 7, 8))
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("game", help="simulate the guessing game")
    add_common(p, seed=True)
    p.add_argument("--bob", choices=BOB_STRATEGIES, default="uniform_random")
    p.add_argument("--alice", choices=ALICE_STRATEGIES,
                   default="interval_threshold")
    p.add_argument("--distance", type=int,
                   help="Bob's target distance (at_distance strategy)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--rounds-out", help="write per-round records (JSON lines)")
    p.set_defaults(func=cmd_game)
    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract is exit 1
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _seed(os.environ.get(SEED_ENV_VAR, "0"),
                              f" (from {SEED_ENV_VAR})")
        return args.func(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
