"""Each CLI request factorizes its channel at most once and runs the eigen oracle at most once.

Parsers built per argv, first word a command: 2 parsers (the top one and
that command's, whether the argv parses or not); anything else: 8.

Counting wrappers replace every ``rebit.*`` module binding of the counted
functions: ``from .canonical import decompose_channel`` copies the function
into the importing module, so patching the defining module alone would miss
the calls made through those copies.
"""

import argparse
import json
import sys
from collections import Counter

import numpy as np
import pytest

import rebit.cli
from rebit.linalg import rotation_matrix

COUNTED = (("rebit.canonical", "decompose_channel"), ("rebit.linalg", "eig_sym3"))


def dressed(lam1, lam2, shift):
    """rot(0.3) diag(lam1, lam2) rot(1.1) with the shift given in the diagonal frame."""
    r1 = rotation_matrix(0.3)
    a = r1 @ np.diag([lam1, lam2]) @ rotation_matrix(1.1)
    return {"A": a.tolist(), "w": (r1 @ np.array(shift)).tolist()}


CHANNELS = {
    "cp": (dressed(0.6, 0.2, [0.1, 0.05]), {"check": 0, "classify": 0}),
    "not_cp": (dressed(0.9, -0.9, [0.0, 0.0]), {"check": 2, "classify": 2}),  # q2 = -0.4
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name == "rebit" or name.startswith("rebit.")]
    for module_name, attr in COUNTED:
        original = getattr(sys.modules[module_name], attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("kind", sorted(CHANNELS))
@pytest.mark.parametrize("command", ["check", "classify", "decompose", "image"])
def test_one_factorization_and_one_oracle_call_per_request(tmp_path, capsys, calls, kind, command):
    doc, codes = CHANNELS[kind]
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["-o", str(tmp_path / "out.svg")] if command == "image" else [])
    assert rebit.cli.main(argv) == codes.get(command, 0)
    capsys.readouterr()
    assert calls["decompose_channel"] <= 1, f"{command} factorized {calls['decompose_channel']} times"
    assert calls["eig_sym3"] <= 1, f"{command} ran the eigen oracle {calls['eig_sym3']} times"


@pytest.fixture
def parsers(monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, _original=original, **kwargs):
        built.append(kwargs.get("prog"))
        return _original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


@pytest.mark.parametrize("command, options", [
    ("check", []), ("decompose", []), ("classify", []), ("image", ["-o", "out.svg"]), ("region", ["-o", "out.svg"]),
    ("sample", ["--count", "2", "--seed", "1", "--unital"]), ("verify", ["--grid-step", "0.5", "--samples", "300"]),
])
def test_a_well_formed_request_builds_two_parsers(tmp_path, capsys, parsers, command, options):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(CHANNELS["cp"][0]))
    positional = [str(path)] if command in ("check", "decompose", "classify", "image") else []
    options = [str(tmp_path / value) if value == "out.svg" else value for value in options]
    assert rebit.cli.main([command, *positional, *options]) == 0
    capsys.readouterr()
    assert parsers == ["rebit", f"rebit {command}"]


def is_full_usage(text):
    """Whether the text starts with the usage of the parser that holds all seven commands."""
    return text.startswith("usage: rebit [-h]") and "{check,decompose,classify,image,region,sample,verify}" in text


def test_what_a_command_leaves_over_builds_two_parsers_and_prints_the_full_usage(capsys, parsers):
    assert rebit.cli.main(["check", "f.json", "extra"]) == 1
    assert parsers == ["rebit", "rebit check"]
    assert is_full_usage(capsys.readouterr().err)


@pytest.mark.parametrize("argv, code, count", [
    (["--help"], 0, 8),
    (["bogus"], 1, 8),
    ([], 1, 8),
    (["-x"], 1, 8),
])
def test_help_and_usage_errors_build_the_full_parser(capsys, parsers, argv, code, count):
    assert rebit.cli.main(argv) == code
    printed = capsys.readouterr()
    assert len(parsers) == count
    assert is_full_usage(printed.out if code == 0 else printed.err)
