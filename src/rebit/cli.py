"""Command-line interface.

Commands print a single JSON document to stdout (or write an SVG file) and
send diagnostics to stderr.  Exit codes are stable across commands:
0 success / completely positive, 2 well-formed input that fails the
positivity gate, 1 malformed input or system error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .canonical import decompose_channel, reconstruction_residual
from .channel import AffineChannel
from .classify import CHUNK, classify_report, sample_cp_channels
from .cp import is_cp
from .render import disk_figure_svg, region_figure_svg
from .verify import run_verify

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CP = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _channel_command(command):
    """Load the channel file ``args.channel`` for ``command``; only load errors exit 1.

    ``RecursionError`` is a load error too: ``json.load`` raises it on arrays
    nested deeper than the interpreter's recursion limit.
    """

    def run(args) -> int:
        try:
            with open(args.channel, "r", encoding="utf-8") as handle:
                channel = AffineChannel.from_json_dict(json.load(handle))
        except (OSError, ValueError, RecursionError) as exc:
            return _fail(str(exc))
        return command(args, channel)

    return run


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _write_file(path: str, content: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_OK


@_channel_command
def cmd_check(args, channel: AffineChannel) -> int:
    report = is_cp(channel)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.is_cp else EXIT_NOT_CP


@_channel_command
def cmd_decompose(args, channel: AffineChannel) -> int:
    form = decompose_channel(channel)
    doc = form.to_json_dict()
    doc["residual"] = reconstruction_residual(channel, form)
    _print_json(doc)
    return EXIT_OK


@_channel_command
def cmd_classify(args, channel: AffineChannel) -> int:
    report = is_cp(channel)
    if not report.is_cp:
        _print_json(report.to_json_dict())
        return EXIT_NOT_CP
    doc = classify_report(channel, report).to_json_dict()
    doc["kraus_rank"] = report.kraus_rank
    _print_json(doc)
    return EXIT_OK


@_channel_command
def cmd_image(args, channel: AffineChannel) -> int:
    return _write_file(args.output, disk_figure_svg(channel))


def cmd_region(args) -> int:
    return _write_file(args.output, region_figure_svg())


def cmd_sample(args) -> int:
    rng = np.random.default_rng(args.seed)
    for start in range(0, args.count, CHUNK):  # one chunk at a time keeps memory flat in --count
        for channel in sample_cp_channels(rng, min(CHUNK, args.count - start), unital=args.unital):
            print(json.dumps(channel.to_json_dict()))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = run_verify(grid_step=args.grid_step, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    _print_json(report.to_json_dict())
    return EXIT_OK if report.mismatches == 0 else EXIT_NOT_CP


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebit",
        description="Classify rebit channels: positivity checks, canonical "
        "factorization, taxonomy and Bloch-disk figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="complete-positivity report for a channel file")
    p.add_argument("channel", help="path to a channel JSON document")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="canonical rotation-diagonal-rotation form")
    p.add_argument("channel")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="taxonomy family and Kraus rank (CP channels only)")
    p.add_argument("channel")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("image", help="render the image of the Bloch disk as SVG")
    p.add_argument("channel")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("region", help="render the admissibility pentagon as SVG")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sample", help="emit random CP channels as JSON lines")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unital", action="store_true", help="sample zero-shift channels")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="closed-form vs oracle verification sweeps")
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "count", 1) < 1:
        return _fail("count must be at least 1")
    if getattr(args, "seed", 0) < 0:
        return _fail("seed must be non-negative")
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``rebit sample ... | head``); point
        # stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INPUT)
    sys.exit(code)


if __name__ == "__main__":
    entry()
