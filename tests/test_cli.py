import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.parametrize("name", sorted(NAMED_CHANNELS))
def test_decompose_golden(tmp_path, capsys, name):
    path = write_channel(tmp_path, NAMED_CHANNELS[name])
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


@pytest.mark.parametrize("command", ["check", "classify"])
@pytest.mark.parametrize(
    "doc",
    [
        {"A": [[0.5, 0], [0, 0.5]], "w": [0, 1e30]},
        {"A": [[1e30, 0], [0, 1e30]], "w": [-1e30, 1e154]},
        {"A": [[1e308, 0], [0, 1e308]], "w": [0, 0]},  # diagonal: chi's entries overflow to inf
        {"A": [[-1.7e308, 0], [0, 1e308]], "w": [1e308, -1.7e308]},
    ],
)
def test_far_finite_channels_exit_two_with_a_report(tmp_path, capsys, command, doc):
    code, out, _ = run_cli(capsys, command, write_channel(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["is_cp"] is False


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
