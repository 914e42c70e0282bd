import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rebit import cli
from rebit.classify import sample_cp_channels
from rebit.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"

# the named reference channels exercised by the golden-file contract
NAMED_CHANNELS = {
    "identity": {"A": [[1.0, 0.0], [0.0, 1.0]], "w": [0.0, 0.0]},
    "phase_flip_vertical": {"A": [[0.7, 0.0], [0.0, 1.0]], "w": [0.0, 0.0]},
    "phase_flip_horizontal": {"A": [[1.0, 0.0], [0.0, 0.7]], "w": [0.0, 0.0]},
    "depolarizing_half": {"A": [[0.5, 0.0], [0.0, 0.5]], "w": [0.0, 0.0]},
    "completely_depolarizing": {"A": [[0.0, 0.0], [0.0, 0.0]], "w": [0.0, 0.0]},
    "linear_q04": {"A": [[0.4, 0.0], [0.0, 0.0]], "w": [0.0, 0.0]},
}

# dressed, shifted channels: the image goldens of NAMED_CHANNELS all have w = 0 and tilt 0
TILTED_CHANNELS = {
    "tilted_ellipse": {"A": [[0.5, 0.2], [-0.1, 0.4]], "w": [0.1, -0.2]},
    "tilted_segment": {"A": [[0.3, 0.15], [0.2, 0.1]], "w": [-0.1, 0.15]},  # rank one
}


def write_channel(tmp_path, doc, name="channel.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_constant(token: str):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def strict_json(text: str):
    return json.loads(text, parse_constant=refuse_constant)


def check_golden(name: str, produced: str):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(produced)
        return
    assert path.exists(), f"missing golden file {path}; run with UPDATE_GOLDENS=1"
    assert produced == path.read_text(), f"output drifted from {path}"


@pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
def test_check_golden(tmp_path, capsys, name):
    path = write_channel(tmp_path, NAMED_CHANNELS[name])
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    check_golden(f"{name}.check.json", out)


@pytest.mark.parametrize("name", sorted(NAMED_CHANNELS) + sorted(TILTED_CHANNELS))
def test_decompose_golden(tmp_path, capsys, name):
    path = write_channel(tmp_path, (NAMED_CHANNELS | TILTED_CHANNELS)[name])
    code, out, _ = run_cli(capsys, "decompose", path)
    assert code == 0
    check_golden(f"{name}.decompose.json", out)
    assert json.loads(out)["residual"] <= 1e-10


@pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
def test_classify_golden(tmp_path, capsys, name):
    path = write_channel(tmp_path, NAMED_CHANNELS[name])
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    check_golden(f"{name}.classify.json", out)


def test_region_golden(tmp_path, capsys):
    out_path = tmp_path / "region.svg"
    code, _, _ = run_cli(capsys, "region", "-o", str(out_path))
    assert code == 0
    check_golden("region.svg", out_path.read_text())


@pytest.mark.parametrize("name", ["identity", "linear_q04", "completely_depolarizing"])
def test_image_golden(tmp_path, capsys, name):
    channel_path = write_channel(tmp_path, NAMED_CHANNELS[name])
    out_path = tmp_path / f"{name}.svg"
    code, _, _ = run_cli(capsys, "image", channel_path, "-o", str(out_path))
    assert code == 0
    check_golden(f"{name}.image.svg", out_path.read_text())


@pytest.mark.parametrize("name, shape", [("tilted_ellipse", "<ellipse"), ("tilted_segment", "<line")])
def test_tilted_image_golden(tmp_path, capsys, name, shape):
    channel_path = write_channel(tmp_path, TILTED_CHANNELS[name])
    out_path = tmp_path / f"{name}.svg"
    code, _, _ = run_cli(capsys, "image", channel_path, "-o", str(out_path))
    assert code == 0
    assert f'{shape} class="image"' in out_path.read_text()
    check_golden(f"{name}.image.svg", out_path.read_text())


def test_outputs_are_byte_stable_across_runs(tmp_path, capsys):
    path = write_channel(tmp_path, NAMED_CHANNELS["depolarizing_half"])
    _, first, _ = run_cli(capsys, "check", path)
    _, second, _ = run_cli(capsys, "check", path)
    assert first == second
    out_a = tmp_path / "a.svg"
    out_b = tmp_path / "b.svg"
    run_cli(capsys, "region", "-o", str(out_a))
    run_cli(capsys, "region", "-o", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_check_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", write_channel(tmp_path, {"A": [[1, 0], [0, -1]], "w": [0, 0]}))
    assert code == 2
    assert json.loads(out)["is_cp"] is False
    code, out, _ = run_cli(
        capsys, "check", write_channel(tmp_path, {"A": [[-1, 0], [0, 0]], "w": [0, 0]}, "v.json")
    )
    assert code == 0
    report = json.loads(out)
    assert report["is_cp"] is True and report["kraus_rank"] == 1


def test_classify_refuses_non_cp_with_report(tmp_path, capsys):
    path = write_channel(tmp_path, {"A": [[1, 0], [0, -1]], "w": [0, 0]})
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 2
    assert json.loads(out)["is_cp"] is False


FAR_CHANNELS = [  # (document, the report fields that overflow and print as null)
    ({"A": [[0.5, 0], [0, 0.5]], "w": [0, 1e30]}, set()),
    ({"A": [[1e30, 0], [0, 1e30]], "w": [-1e30, 1e154]}, set()),
    ({"A": [[1e308, 0], [0, 1e308]], "w": [0, 0]}, {"q0", "a", "b", "det_chi", "margin"}),  # chi overflows
    ({"A": [[-1.7e308, 0], [0, 1e308]], "w": [1e308, -1.7e308]}, {"q1", "q2", "b", "det_chi", "margin"}),
    ({"A": [[0.5, 0], [0, 0.5]], "w": [1e308, 1e308]}, {"b", "det_chi", "margin"}),
]


@pytest.mark.parametrize("command", ["check", "classify"])
@pytest.mark.parametrize("doc, nulls", FAR_CHANNELS, ids=[f"doc{i}" for i in range(len(FAR_CHANNELS))])
def test_far_finite_channels_exit_two_with_a_report(tmp_path, capsys, command, doc, nulls):
    code, out, _ = run_cli(capsys, command, write_channel(tmp_path, doc))
    assert code == 2
    report = strict_json(out)
    assert report["is_cp"] is False
    q = report.pop("q")
    fields = dict(report, q0=q[0], q1=q[1], q2=q[2])
    assert {name for name, value in fields.items() if value is None} == nulls


def magnitudes(top: float):
    """Log-uniform magnitudes from 1e-300 up to 10**top with random signs, and signed zeros."""
    scaled = st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.floats(-300, top))
    return st.one_of(st.sampled_from([0.0, -0.0]), scaled)


SHIFTS = st.lists(magnitudes(307), min_size=2, max_size=2)
FAR_DOCUMENTS = st.one_of(
    # past about 1e154 a general A's A^t A overflows; that raise is pinned in test_canonical.py
    st.builds(lambda a, w: {"A": [a[:2], a[2:]], "w": w}, st.lists(magnitudes(150), min_size=4, max_size=4), SHIFTS),
    st.builds(lambda d0, d1, w: {"A": [[d0, 0.0], [0.0, d1]], "w": w}, magnitudes(308), magnitudes(308), SHIFTS),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FAR_DOCUMENTS)
def test_check_and_classify_answer_far_channels_in_strict_json(tmp_path, capsys, doc):
    path = write_channel(tmp_path, doc)
    for command in ("check", "classify"):
        code, out, _ = run_cli(capsys, command, path)
        assert code in (0, 2)
        strict_json(out)


def test_decompose_prints_an_overflowed_scale_and_residual_as_null(tmp_path, capsys):
    # the first column's norm passes the largest float, so lam1 is inf and its rebuild inf and NaN
    path = write_channel(tmp_path, {"A": [[1.5e308, 0.0], [1.5e308, 0.0]], "w": [0.0, 0.0]})
    code, out, err = run_cli(capsys, "decompose", path)
    doc = strict_json(out)
    assert code == 0 and err == ""
    assert doc["lambda"] == [None, 0.0] and doc["residual"] is None


@pytest.mark.parametrize("argv", [["check"], ["sample", "--count", "abc"], ["nope"], []])
def test_usage_errors_exit_one(capsys, argv):
    # argparse's own code is 2, which would read as "not CP"
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and "usage: rebit" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: rebit")


def test_two_parsers_ask_the_terminal_for_its_size_at_most_once(monkeypatch):
    # argparse's HelpFormatter reads the terminal size whenever it is built with no width
    calls = []
    size = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli._help_width.cache_clear()
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert len(calls) <= 1


COMMAND_NAMES = ("check", "decompose", "classify", "image", "region", "sample", "verify")
ARGV_TOKENS = (  # every option, values good and bad, help, abbreviations and strays
    "--count", "--seed", "--unital", "--grid-step", "--samples", "-o", "--output",
    "3", "0", "-1", "0.5", "abc", "f.json", "-h", "--help", "--", "--co", "--s", "--output=z",
    "stray", "-x", "sample", "chec",
)


def argv_corpus(count=400, seed=0):
    """Seeded argvs: most a command and 0-4 tokens, the rest starting with anything but a command."""
    rng = random.Random(seed)
    corpus = []
    for index in range(count):
        tail = [rng.choice(ARGV_TOKENS) for _ in range(rng.randint(0, 4))]
        if index % 8:
            corpus.append([rng.choice(COMMAND_NAMES)] + tail)
        else:
            corpus.append([token for token in tail if token not in COMMAND_NAMES])
    return corpus


def parse_outcome(parse, argv):
    """The namespace a parse gives (functions by name), or its exit code; with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    return "args", {key: getattr(value, "__name__", value) for key, value in vars(args).items()}, out.getvalue(), err.getvalue()


def test_one_command_parser_parses_as_the_full_parser():
    # the parser built for argv[0] alone is invisible: it is the full parser's subparser, and what it leaves over goes there
    outcomes = []
    for argv in argv_corpus():
        outcome = parse_outcome(cli.parse_args, argv)
        assert outcome == parse_outcome(lambda argv: cli.build_parser().parse_args(argv), argv), argv
        outcomes.append(outcome[:2] if outcome[0] == "exit" else outcome[0])
    assert {"args", ("exit", 0), ("exit", 2)} <= set(outcomes)  # requests parsed, help printed and usage errors


@pytest.mark.parametrize("columns", ["48", "148"])
def test_one_command_parser_prints_as_the_full_parser_at_any_width(monkeypatch, columns):
    # argparse wraps the usage and help to the width; namespaces do not depend on it, so only exits are compared
    monkeypatch.setenv("COLUMNS", columns)
    cli._help_width.cache_clear()
    try:
        full = cli.build_parser()  # parsing leaves a parser as it was, so one serves every argv
        for argv in argv_corpus():
            outcome = parse_outcome(cli.parse_args, argv)
            if outcome[0] == "exit":
                assert outcome == parse_outcome(full.parse_args, argv), argv
    finally:
        cli._help_width.cache_clear()


@pytest.mark.parametrize("columns", ["48", "80", "148"])
@pytest.mark.parametrize("name", COMMAND_NAMES)
def test_a_command_parser_is_the_full_parsers_subparser(monkeypatch, name, columns):
    # parse_args hands argv[1:] to build_parser(name) where the full parser hands it to its subparser
    monkeypatch.setenv("COLUMNS", columns)
    cli._help_width.cache_clear()
    try:
        own = cli.build_parser(name)
        (sub,) = (action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction))
        full = sub.choices[name]
        assert own.prog == full.prog == f"rebit {name}"
        assert own.format_usage() == full.format_usage()
        assert own.format_help() == full.format_help()
    finally:
        cli._help_width.cache_clear()


@pytest.mark.parametrize("columns, wide", [(None, False), ("150", True)])
def test_help_follows_the_terminal_width(columns, wide):
    # off a terminal argparse formats to 78 columns, and COLUMNS still widens the help though the width is read once
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    env = {key: value for key, value in os.environ.items() if key != "COLUMNS"}
    env.update(PYTHONPATH=path, **({"COLUMNS": columns} if columns else {}))
    proc = subprocess.run([sys.executable, "-m", "rebit.cli", "--help"], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: rebit")
    assert any(len(line) > 78 for line in proc.stdout.decode().splitlines()) == wide


def test_input_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 1 and out == "" and "error:" in err
    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1 and "error:" in err
    code, _, err = run_cli(
        capsys, "check", write_channel(tmp_path, {"A": [[1, 0], [0, 1]], "w": [0, 0], "oops": 3})
    )
    assert code == 1 and "oops" in err
    code, _, err = run_cli(
        capsys, "check", write_channel(tmp_path, {"A": [[1, 0], [0, None]], "w": [0, 0]}, "n.json")
    )
    assert code == 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)  # json.load gives up with RecursionError
    code, out, err = run_cli(capsys, "check", str(deep))
    assert code == 1 and out == "" and "error:" in err
    for index, doc in enumerate(
        [
            {"A": [["0.5", True], [0, 1]], "w": [False, "0.1"]},
            {"A": [[1, 0], [0, 1]], "w": [True, 0]},
            {"A": [[1, 0], [0, "0.5"]], "w": [0, 0]},
        ]
    ):
        for command in ("check", "decompose", "classify"):
            code, out, err = run_cli(capsys, command, write_channel(tmp_path, doc, f"typed{index}.json"))
            assert code == 1 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"A": [[0.5, 0], [0, 0.5]], "w": [1e306, 0]},  # the ellipse's centre overflows the pixel scale
        {"A": [[0.5, 0], [0, 0.5]], "w": [1e308, 1e308]},
        {"A": [[0.5, 0], [0, 0]], "w": [-1e308, 1e308]},  # a segment
        {"A": [[0, 0], [0, 0]], "w": [1e308, -1e308]},  # a point
    ],
)
def test_image_of_a_far_shift_writes_finite_numbers_without_a_warning(tmp_path, capsys, doc):
    out_path = tmp_path / "far.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(capsys, "image", write_channel(tmp_path, doc), "-o", str(out_path))
    svg = out_path.read_text()
    assert code == 0 and "inf" not in svg and "nan" not in svg
    assert '="1000000000.0000"' in svg or '="-1000000000.0000"' in svg  # clamped far off the canvas


def test_image_unwritable_path_exits_one(tmp_path, capsys):
    path = write_channel(tmp_path, NAMED_CHANNELS["identity"])
    code, _, err = run_cli(capsys, "image", path, "-o", str(tmp_path / "no" / "dir" / "x.svg"))
    assert code == 1 and "error:" in err


def test_sample_lines_parse_and_check(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sample", "--count", "3", "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for index, line in enumerate(lines):
        path = tmp_path / f"s{index}.json"
        path.write_text(line)
        sub_code, sub_out, _ = run_cli(capsys, "check", str(path))
        assert sub_code == 0
        assert json.loads(sub_out)["is_cp"] is True


def test_sample_deterministic_and_unital(capsys):
    _, first, _ = run_cli(capsys, "sample", "--count", "4", "--seed", "9")
    _, second, _ = run_cli(capsys, "sample", "--count", "4", "--seed", "9")
    assert first == second
    _, out, _ = run_cli(capsys, "sample", "--count", "4", "--seed", "9", "--unital")
    for line in out.strip().split("\n"):
        assert json.loads(line)["w"] == [0.0, 0.0]


def test_sample_lines_match_the_library_stream(capsys):
    _, out, _ = run_cli(capsys, "sample", "--count", "6", "--seed", "4")
    expected = sample_cp_channels(np.random.default_rng(4), 6)
    assert out.splitlines() == [json.dumps(channel.to_json_dict()) for channel in expected]


@pytest.mark.parametrize(
    "flags, digest", [((), "21e8c866cb2aba89b150466fc270f03e"), (("--unital",), "413c414a2178ac0b5b78da838a562373")]
)
def test_sample_output_is_pinned(capsys, flags, digest):
    # the JSON text of 10^4 channels, so cos and sin rounding count too: a change to the
    # sampler that moves any draw, or to the order of rebuild's written-out sums, changes the digest
    code, out, _ = run_cli(capsys, "sample", "--count", "10000", "--seed", "0", *flags)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == digest


def test_sample_into_a_closed_pipe_exits_one_without_a_traceback():
    # as in `rebit sample --count 10000 | head -n 1`: the reader leaves after one line
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rebit.cli", "sample", "--count", "10000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["check", "CHANNEL"], ["sample", "--count", "3"], ["verify", "--samples", "10"]])
def test_a_full_stdout_exits_one_with_one_error_line(tmp_path, argv):
    # as in `rebit check c.json > /dev/full`: the write fails for want of space
    channel = write_channel(tmp_path, NAMED_CHANNELS["phase_flip_vertical"])
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "rebit.cli", *(channel if arg == "CHANNEL" else arg for arg in argv)],
            stdout=full,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.decode().splitlines() == ["error: [Errno 28] No space left on device"]


def test_import_leaves_numpy_random_unloaded():
    # only sampling draws random numbers; check, classify, decompose and image never load it
    path = os.pathsep.join(filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, rebit, rebit.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, check=True, timeout=60).stdout
    assert out == b"False\n"


def test_sample_rejects_bad_count(capsys):
    code, _, err = run_cli(capsys, "sample", "--count", "0")
    assert code == 1 and "count" in err


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_negative_seed_exits_one_without_output(capsys, command):
    code, out, err = run_cli(capsys, command, "--seed", "-1")
    assert code == 1 and out == "" and err.startswith("error: ") and "non-negative" in err


def test_verify_small_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid-step", "0.5", "--samples", "500", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["grid_points"] == 25
    assert report["mismatches"] == 0
    assert report["max_roundtrip_residual"] <= 1e-10
    assert report["elapsed"] > 0.0


def test_verify_repeat_is_stable(capsys):
    _, first, _ = run_cli(capsys, "verify", "--grid-step", "0.5", "--samples", "300")
    _, second, _ = run_cli(capsys, "verify", "--grid-step", "0.5", "--samples", "300")
    a, b = json.loads(first), json.loads(second)
    a.pop("elapsed"), b.pop("elapsed")
    assert a == b


def test_verify_rejects_bad_grid_step(capsys):
    code, _, err = run_cli(capsys, "verify", "--grid-step", "3.0")
    assert code == 1 and "grid step" in err
    # sizes past the fixed limits are refused before any sweep allocates
    code, out, err = run_cli(capsys, "verify", "--grid-step", "1e-9")
    assert code == 1 and out == "" and "grid step" in err
    code, out, err = run_cli(capsys, "verify", "--samples", "1000000000000")
    assert code == 1 and out == "" and "samples" in err
    code, out, err = run_cli(capsys, "verify", "--samples", "-1")
    assert code == 1 and out == "" and "samples" in err
