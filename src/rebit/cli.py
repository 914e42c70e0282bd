"""Command-line interface.

Commands print a single JSON document to stdout (or write an SVG file) and
send diagnostics to stderr.  Exit codes are stable across commands:
0 success / completely positive, 2 well-formed input that fails the
positivity gate, 1 malformed input, usage error or system error.  A report
field that overflows the float range prints as ``null``, since strict JSON
has no ``Infinity`` or ``NaN``.
"""

import argparse
import functools
import json
import os
import shutil
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


def _print_json(doc: dict) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # a field overflowed: strict JSON has no Infinity or NaN, so it prints as null
        text = json.dumps(json.loads(json.dumps(doc), parse_constant=lambda _: None), indent=2)
    print(text)


def _write_file(path: str, content: str) -> int:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        return _fail(str(exc))
    return EXIT_OK


def cmd_check(args) -> int:
    report = is_cp(args.channel)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.is_cp else EXIT_NOT_CP


def cmd_decompose(args) -> int:
    form = decompose_channel(args.channel)
    doc = form.to_json_dict()
    doc["residual"] = reconstruction_residual(args.channel, form)
    _print_json(doc)
    return EXIT_OK


def cmd_classify(args) -> int:
    report = is_cp(args.channel)
    if not report.is_cp:
        _print_json(report.to_json_dict())
        return EXIT_NOT_CP
    doc = classify_report(report).to_json_dict()
    doc["kraus_rank"] = report.kraus_rank
    _print_json(doc)
    return EXIT_OK


def cmd_image(args) -> int:
    return _write_file(args.output, disk_figure_svg(args.channel))


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


@functools.cache
def _help_width() -> int:
    """The width argparse's HelpFormatter reads when given none, read once per process.

    Without it argparse asks the terminal for its size for every formatter it
    builds: 21 times per parser, one for each argument and for the subparsers.
    """
    return shutil.get_terminal_size().columns - 2


_CHANNEL = (("channel",), {"help": "path to a channel JSON document"})
_OUTPUT = (("-o", "--output"), {"required": True, "help": "output SVG path"})
_SEED = (("--seed",), {"type": int, "default": 0})

_COMMANDS = {  # name: (function, help, (flags, add_argument options) of each argument)
    "check": (cmd_check, "complete-positivity report for a channel file", (_CHANNEL,)),
    "decompose": (cmd_decompose, "canonical rotation-diagonal-rotation form", (_CHANNEL,)),
    "classify": (cmd_classify, "taxonomy family and Kraus rank (CP channels only)", (_CHANNEL,)),
    "image": (cmd_image, "render the image of the Bloch disk as SVG", (_CHANNEL, _OUTPUT)),
    "region": (cmd_region, "render the admissibility pentagon as SVG", (_OUTPUT,)),
    "sample": (cmd_sample, "emit random CP channels as JSON lines", (
        (("--count",), {"type": int, "default": 1}),
        _SEED,
        (("--unital",), {"action": "store_true", "help": "sample zero-shift channels"}),
    )),
    "verify": (cmd_verify, "closed-form vs oracle verification sweeps", (
        (("--grid-step",), {"type": float, "default": 0.01}),
        (("--samples",), {"type": int, "default": 100_000}),
        _SEED,
    )),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """A new parser on every call; only the help width is shared.

    Given a command name, the parser holds that command's subparser alone and
    parses any argv that starts with that name as the full parser does: the
    choice list all commands would give stands in the usage, so a usage error
    prints the full parser's text.
    """
    formatter = functools.partial(argparse.HelpFormatter, width=_help_width())  # subparsers do not inherit it
    parser = argparse.ArgumentParser(
        prog="rebit",
        formatter_class=formatter,
        description="Classify rebit channels: positivity checks, canonical "
        "factorization, taxonomy and Bloch-disk figures.",
    )
    choices = None if command is None else "{" + ",".join(_COMMANDS) + "}"  # a metavar would rename the full parser's errors
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name, (func, text, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text, formatter_class=formatter)
            p.set_defaults(func=func)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the subparser of a command that comes first."""
    return build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse has printed the help (code 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if getattr(args, "count", 1) < 1:
        return _fail("count must be at least 1")
    if getattr(args, "seed", 0) < 0:
        return _fail("seed must be non-negative")
    if "channel" in args:
        try:  # only load errors exit 1; the command's own errors propagate
            with open(args.channel, "r", encoding="utf-8") as handle:
                args.channel = AffineChannel.from_json_dict(json.load(handle))
        except (OSError, ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
            return _fail(str(exc))
    return args.func(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # a write to stdout failed: silent if the reader left early (``rebit sample ... | head``);
        # stdout then points at devnull, so the flush at exit does not raise again
        if not isinstance(exc, BrokenPipeError):
            _fail(str(exc))
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_INPUT)
    sys.exit(code)


if __name__ == "__main__":
    entry()
