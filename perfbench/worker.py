"""One workload run in a process of its own; started by run.py.

Prints one JSON object on its last stdout line.  Untraced (--trace 0) it
holds the end-to-end metrics of the run, times in refs (see
workloads.Reference), and the issue's figures in wall-clock units.  Traced
(--trace 1) it measures half the time untraced and half with the tracer
installed, and holds the per-layer metrics: per checked operation (a verify
run, a sampled channel, a CLI request) of the traced half, plus the tracing
overhead.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

OUT_DIR = Path("perfbench/out")
LATENCY_PERCENTILES = (0, 10, 25, 50, 75, 90, 99, 100)  # kept in the record of each phase


def measure(workload, seconds: float, stats):
    """Run whole rounds into ``stats`` until ``seconds`` have passed, with reference samples at both ends."""
    stats.reference.sample()
    start = time.perf_counter()
    while True:
        workload.run_round(stats)
        if time.perf_counter() - start >= seconds:
            stats.reference.sample()
            return stats


def end_to_end(stats) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of an untraced phase, times in refs; setup_s is measured by run.py."""
    ref_s = stats.reference.median_s
    answered = stats.answered_s()
    return {
        "op_p50_ref": (float(np.percentile(answered, 50)) / ref_s, "ref"),
        "items_per_ref": (stats.items / (stats.busy_s / ref_s), "1/ref"),
        "success_ratio": (1.0 - stats.failed / stats.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_views(workload: str, stats) -> dict[str, tuple[float, str]]:
    """The issue's workload-specific figures in wall-clock units, printed beside the metrics."""
    answered = stats.answered_s()
    views = {"reference_ms": (stats.reference.median_s * 1e3, "ms")}
    if workload == "verify_sweep":
        views["verify_s"] = (float(np.median(answered)), "s")
    elif workload == "sample_stream":
        views["channels_per_s"] = (stats.items / stats.busy_s, "1/s")
    else:
        views["requests_per_s"] = (stats.items / stats.busy_s, "1/s")
        views["request_p50_us"] = (float(np.percentile(answered, 50)) * 1e6, "us")
        views["request_p99_us"] = (float(np.percentile(answered, 99)) * 1e6, "us")
    views["failed_ratio"] = (stats.failed / stats.attempted, "ratio")
    return views


def per_layer(table: dict, traced, untraced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, per checked operation."""
    ops = traced.attempted

    def calls(*keys: str) -> float:
        return sum(table.get(key, {}).get("calls", 0) for key in keys) / ops

    def total_us(*keys: str) -> float:
        return sum(table.get(key, {}).get("total_s", 0.0) for key in keys) / ops * 1e6

    def self_us(*keys: str) -> float:
        return sum(table.get(key, {}).get("self_s", 0.0) for key in keys) / ops * 1e6

    canonical = ("canonical.decompose_channel", "canonical.canonical_decompose",
                 "canonical.reconstruct", "canonical.reconstruction_residual")
    decision = ("cp.is_cp", "cp.diagonal_frame", "cp.shift_region_contains")
    closed_form = ("cp.q_values", "cp.charpoly_coeffs", "cp.chi_matrix")
    sampler = ("classify.sample_cp_channels", "classify.sample_cp_channel")
    bloch = ("bloch.density_from_bloch", "bloch.bloch_from_density", "bloch.state_polar", "bloch.is_valid_state")
    peak_calls = table.get("classify.ellipse_peak_norm", {}).get("calls", 0)
    return {
        "cli.build_parser_us": (total_us("cli.build_parser"), "us"),
        "cli.self_us": (self_us("cli.main"), "us"),
        "channel.from_json_dict_us": (total_us("channel.AffineChannel.from_json_dict"), "us"),
        "channel.construct_calls": (calls("channel.AffineChannel.__init__"), "count"),
        "channel.construct_self_us": (self_us("channel.AffineChannel.__init__"), "us"),
        "canonical.decompose_calls": (calls("canonical.decompose_channel"), "count"),
        "canonical.decompose_self_us": (self_us(*canonical), "us"),
        "cp.is_cp_calls": (calls("cp.is_cp"), "count"),
        "cp.is_cp_self_us": (self_us(*decision), "us"),
        "cp.closed_form_calls": (calls(*closed_form), "count"),
        "cp.closed_form_self_us": (self_us(*closed_form), "us"),
        "linalg.eig_sym3_calls": (calls("linalg.eig_sym3"), "count"),
        "linalg.eig_sym3_self_us": (self_us("linalg.eig_sym3"), "us"),
        "linalg.svd2_calls": (calls("linalg.svd2"), "count"),
        "linalg.svd2_self_us": (self_us("linalg.svd2"), "us"),
        "linalg.rotation_matrix_calls": (calls("linalg.rotation_matrix"), "count"),
        "classify.sampler_self_us": (self_us(*sampler), "us"),
        "classify.ellipse_peak_norm_self_us": (self_us("classify.ellipse_peak_norm"), "us"),
        "classify.peak_norm_calls_per_channel": (
            peak_calls / traced.nonunital_channels if traced.nonunital_channels else 0.0, "calls/channel"),
        "classify.classify_self_us": (self_us("classify.classify"), "us"),
        "classify.image_ellipse_us": (total_us("classify.image_ellipse"), "us"),
        "render.disk_figure_svg_self_us": (self_us("render.disk_figure_svg"), "us"),
        "verify.grid_s": (total_us("verify.unital_grid_sweep") / 1e6, "s"),
        "verify.random_s": (total_us("verify.random_sweep") / 1e6, "s"),
        "verify.roundtrip_s": (total_us("verify.roundtrip_sweep") / 1e6, "s"),
        "verify.double_angle_s": (total_us("verify.double_angle_sweep") / 1e6, "s"),
        "bloch.calls": (calls(*bloch), "count"),
        "trace.overhead_ratio": (
            (traced.busy_s / traced.reference.median_s / traced.attempted)
            / (untraced.busy_s / untraced.reference.median_s / untraced.attempted), "ratio"),
    }


def summary(stats) -> dict:
    return {
        "attempted": stats.attempted,
        "failed": stats.failed,
        "wrong": stats.wrong,
        "calls": len(stats.calls),
        "busy_s": stats.busy_s,
        "reference_s": stats.reference.seconds,
        "latency_percentiles_s": dict(
            zip(map(str, LATENCY_PERCENTILES), np.percentile(stats.answered_s(), LATENCY_PERCENTILES).tolist())),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    args = parser.parse_args()

    import rebit
    import rebit.cli  # noqa: F401  (imported so every run traces the same module set)

    source = Path("src").resolve()
    if source not in Path(rebit.__file__).resolve().parents:
        print(f"worker: rebit imported from {rebit.__file__}, not from {source}", file=sys.stderr)
        return 1

    from spans import Tracer
    from workloads import WORKLOADS, Stats

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.size, Path(workdir))
        workload.warm_up()
        if not args.trace:
            untraced = measure(workload, args.seconds, Stats())
            phases = [untraced]
            metrics = end_to_end(untraced)
            views = wall_views(args.workload, untraced)
            table = None
        else:
            untraced = measure(workload, args.seconds / 2, Stats())
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, Stats())
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            table = tracer.table()
            metrics = per_layer(table, traced, untraced)
            views = {}

    for phase in phases:
        for message in phase.notes:
            print(f"worker: {message}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "wrong": sum(phase.wrong for phase in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "views": {name: {"value": value, "unit": unit} for name, (value, unit) in views.items()},
        "phases": [summary(phase) for phase in phases],
        "trace": table,
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
