"""Smoke test of the benchmark at tiny size; run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json declares prints with its unit on
every workload, that wrong outputs are counted as failed operations, and
that the benchmark refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import channels  # noqa: E402
import rebit  # noqa: E402
import rebit.cli  # noqa: E402
from workloads import CliRequests, SampleStream, Stats, VerifySweep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name


def test_flipped_exit_code_counts_as_failed(tmp_path, monkeypatch):
    workload = CliRequests(3, "tiny", tmp_path, ROOT / "tests" / "golden")
    honest = Stats()
    workload.run_round(honest)
    huge = sum(request.kind == "huge" for request in workload.rounds[0])
    assert honest.wrong == 0 and honest.failed == huge  # huge entries raise in svd2

    real_main = rebit.cli.main

    def flipped(argv):
        code = real_main(argv)
        return {0: 2, 2: 0}.get(code, code) if argv[0] == "check" else code

    monkeypatch.setattr(rebit.cli, "main", flipped)
    corrupted = Stats()
    workload.run_round(corrupted)
    answered = sum(r.command == "check" and r.kind not in ("malformed", "huge") for r in workload.rounds[0])
    assert corrupted.wrong == answered > 0
    assert corrupted.failed == huge + answered
    assert corrupted.failed / corrupted.attempted > honest.failed / honest.attempted


def test_sample_check_counts_bad_channels(tmp_path):
    stream = SampleStream(3, "tiny", tmp_path)
    batch = rebit.sample_cp_channels(np.random.default_rng(3), stream.batch)
    assert stream.check(batch, unital=False) == 0
    batch[0] = rebit.AffineChannel.diagonal(1.2, 1.2)  # chi-admissible, but leaves the disk
    batch[1] = rebit.AffineChannel.diagonal(1.0, -1.0)  # inside the disk, but not CP
    assert stream.check(batch, unital=False) == 2
    assert stream.check(batch[:-1], unital=False) == 3  # a missing channel counts too


def test_peak_image_norm_matches_the_exact_ellipse_peak():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (300, 2, 2))
    w = rng.uniform(-0.5, 0.5, (300, 2))
    lam1, lam2, shift = channels.canonical_frames(a, w)
    exact = [rebit.ellipse_peak_norm(s, (abs(l1), abs(l2))) for s, l1, l2 in zip(shift, lam1, lam2)]
    np.testing.assert_allclose(channels.peak_image_norms(a, w), exact, rtol=0, atol=1e-9)


def test_times_are_counted_in_refs():
    import worker

    stats = Stats()
    stats.reference.seconds = [0.01, 0.04, 0.02]
    stats.reference.tick = lambda: None
    stats.done(1.0, 1, 1)
    stats.raised(3.0, 1, "raised")
    metrics = worker.end_to_end(stats)
    assert metrics["op_p50_ref"] == (pytest.approx(50.0), "ref")  # calls that raised are left out
    assert metrics["items_per_ref"] == (pytest.approx(1 / 200), "1/ref")  # 4 s busy is 200 refs
    assert metrics["success_ratio"] == (0.5, "ratio")


def test_verify_check_flags_mismatches(tmp_path):
    sweep = VerifySweep(3, "tiny", tmp_path)
    report = rebit.run_verify(grid_step=sweep.grid_step, samples=sweep.samples, seed=3)
    assert sweep.check(report) is None
    assert sweep.check(dataclasses.replace(report, mismatches=1)) is not None
    assert sweep.check(dataclasses.replace(report, max_roundtrip_residual=1e-6)) is not None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "cli_requests", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
