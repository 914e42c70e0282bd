"""Benchmark of the rebit package: one workload run, checked and measured.

Run from the repository root:

    python3 perfbench/run.py --workload cli_requests --seed 1 --seconds 30 --trace 0

Workloads: verify_sweep, sample_stream, cli_requests (see perfbench/README.md).
The workload runs in a process of its own (perfbench/worker.py) with BLAS
and OpenMP pinned to one thread.  Untraced runs also time fresh interpreters
importing rebit before and after the workload (setup_s).  It prints the
metrics by name and unit, times in refs (runs of a fixed reference kernel,
see perfbench/README.md) and the same figures in wall-clock units, writes
the full record with the environment to perfbench/out/, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path("perfbench/out")
WORKLOADS = ("verify_sweep", "sample_stream", "cli_requests")
DEADLINE_S = 170  # the whole run, set-up included, ends well within 180 s
# fresh-interpreter imports timed before and again after the workload, so the
# median of set-up time spans the run rather than one moment of it
SETUP_RUNS = {"default": 5, "tiny": 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The reference kernel's typical time on the machine the bounds were fitted
# on (a shared 2-core Xeon VM).  setup_s is the import time at that speed.
NOMINAL_REFERENCE_S = 0.006
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import rebit; seconds = time.perf_counter() - start\n"
    "from workloads import Reference; reference = Reference(); reference.sample()\n"
    "print(seconds, reference.seconds[0], rebit.__file__)"
)


def bench_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def import_seconds(env: dict) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import rebit from this checkout's src/.

    Also returns the seconds the reference kernel takes right after, in the
    same process, so that the import time can be scaled to the machine's
    speed of that moment.
    """
    env = dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + str(HERE))
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
    seconds, reference_s, path = probe.stdout.split(maxsplit=2)
    if Path("src").resolve() not in Path(path.strip()).resolve().parents:
        raise RuntimeError(f"rebit was imported from {path.strip()}, not from src/")
    return float(seconds), float(reference_s)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny shrinks every operation, for the smoke test only")
    args = parser.parse_args()
    started = time.monotonic()

    if not Path("src/rebit/__init__.py").is_file() or not Path("tests/golden").is_dir():
        print("perfbench: run from the root of a rebit checkout (src/rebit and tests/golden)", file=sys.stderr)
        return 2

    env = bench_env()
    probes = 0 if args.trace else SETUP_RUNS[args.size]
    setup_runs = [import_seconds(env) for _ in range(probes)]
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
        env=env, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S - (time.monotonic() - started),
    )
    if worker.returncode != 0:
        print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    setup_runs += [import_seconds(env) for _ in range(probes)]

    metrics, views = result["metrics"], result["views"]
    if not args.trace:
        scaled = statistics.median(seconds / reference_s * NOMINAL_REFERENCE_S for seconds, reference_s in setup_runs)
        metrics = {"setup_s": {"value": scaled, "unit": "s"}, **metrics}
        views["import_s"] = {"value": statistics.median(seconds for seconds, _ in setup_runs), "unit": "s"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "env": {
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
        },
        "setup_runs_s": setup_runs,  # (import, reference kernel) seconds per probe
        **{key: result[key] for key in ("attempted", "failed", "wrong", "views", "phases", "trace")},
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    env_info = record["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env python={env_info['python']} numpy={env_info['numpy']} cpu={env_info['cpu']!r} "
          f"nproc={env_info['nproc']} commit={env_info['commit']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, view in views.items():
        print(f"{name} {view['value']:.6g} {view['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} wrong={result['wrong']} record={record_path}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
