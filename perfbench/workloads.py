"""The three workloads: seeded inputs, timed calls into rebit, output checks.

Each workload is a closed loop from one process.  ``run_round`` makes one
round of calls and records each into a :class:`Stats`.  A round is the unit
that keeps every share in the mix exact (one ``run_verify``; three
non-unital batches and one unital batch; 256 CLI requests), and a run always
ends on a round boundary.

Every call into rebit goes through a module attribute looked up at call
time, so the tracer's wrappers apply once they are installed.
"""

import contextlib
import importlib
import io
import json
import math
import statistics
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import channels
import rebit

MAX_NOTES = 20

_SYM3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.5]])
_QUARTIC = np.array([1.0, -0.3, 0.2, -0.1, 0.05])


def reference_kernel(n: int = 100) -> float:
    """Fixed work of the kind rebit does: small numpy calls and scalar math in Python loops.

    It belongs to the benchmark and must not change, since every timing
    metric is measured in units of its run time.
    """
    acc = 0.0
    for i in range(n):
        acc += float(np.linalg.eigvalsh(_SYM3 + i * 1e-3)[0])
        acc += float(np.abs(np.roots(_QUARTIC + i * 1e-4)).max())
        for k in range(20):
            acc += math.sin(k * 0.1 + i) * math.cos(k)
    return acc


class Reference:
    """Run times of the reference kernel, sampled about every ``INTERVAL_S`` of a measured phase.

    The speed of a shared machine drifts by up to a factor of two over
    seconds to minutes, and process CPU time drifts with it.  The kernel
    slows with the machine, so a run's times divided by the kernel's median
    time in the same run (a number of "refs") cancel most of the drift while
    still moving with any change to rebit.  Samples are taken between calls
    and are not counted in any call's time.
    """

    INTERVAL_S = 0.5
    REPEATS = 3

    def __init__(self):
        self.seconds: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        runs = []
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - start)
        self.seconds.append(statistics.median(runs))
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    @property
    def median_s(self) -> float:
        return statistics.median(self.seconds)


@dataclass
class Stats:
    """What a measured phase did: its calls, the reference samples and failure counts.

    ``attempted`` counts checked operations (a verify run, a sampled channel,
    a CLI request).  An operation fails when it raises or when its output is
    wrong; ``wrong`` counts only the latter.
    """

    calls: list[tuple[float, bool]] = field(default_factory=list)  # (seconds, returned)
    reference: Reference = field(default_factory=Reference)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    nonunital_channels: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.notes) < MAX_NOTES:
            self.notes.append(message)

    def _call(self, elapsed: float, returned: bool) -> None:
        self.calls.append((elapsed, returned))
        self.reference.tick()

    def done(self, elapsed: float, attempted: int, items: int, wrong: int = 0, note: str | None = None) -> None:
        self._call(elapsed, True)
        self.attempted += attempted
        self.items += items
        self.failed += wrong
        self.wrong += wrong
        if wrong and note:
            self.note(note)

    def raised(self, elapsed: float, attempted: int, note: str) -> None:
        self._call(elapsed, False)
        self.attempted += attempted
        self.failed += attempted
        self.note(note)

    @property
    def busy_s(self) -> float:
        return sum(elapsed for elapsed, _ in self.calls)

    def answered_s(self) -> np.ndarray:
        """Times of the calls that returned, or of every call when none did."""
        answered = [elapsed for elapsed, returned in self.calls if returned]
        return np.array(answered or [elapsed for elapsed, _ in self.calls])


class VerifySweep:
    """Repeated ``rebit.run_verify`` at the CLI's default size."""

    SIZES = {"default": (0.01, 100_000), "tiny": (0.1, 1_000)}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.grid_step, self.samples = self.SIZES[size]
        side = round(2.0 / self.grid_step) + 1
        self.expected_grid = side * side
        self.expected_samples = self.samples + min(self.samples, 10_000)

    def warm_up(self) -> None:
        rebit.run_verify(grid_step=0.5, samples=10, seed=0)

    def run_round(self, stats: Stats) -> None:
        seed = int(self.rng.integers(2**31))
        start = time.perf_counter()
        try:
            report = rebit.run_verify(grid_step=self.grid_step, samples=self.samples, seed=seed)
        except Exception as exc:
            stats.raised(time.perf_counter() - start, 1, f"run_verify(seed={seed}) raised {exc!r}")
            return
        elapsed = time.perf_counter() - start
        problem = self.check(report)
        stats.done(
            elapsed, 1, report.grid_points + report.samples,
            wrong=int(problem is not None), note=f"run_verify(seed={seed}): {problem}",
        )

    def check(self, report) -> str | None:
        if report.mismatches != 0:
            return f"mismatches={report.mismatches}"
        if report.grid_points != self.expected_grid or report.samples != self.expected_samples:
            return f"sizes {report.grid_points}/{report.samples}"
        if not report.max_roundtrip_residual <= 1e-10:
            return f"max_roundtrip_residual={report.max_roundtrip_residual!r}"
        return None


class SampleStream:
    """``rebit.sample_cp_channels`` in batches; every fourth batch is unital.

    Non-unital is the ``rebit sample`` default, so it takes most batches.
    One in four keeps a unital batch in every round, and its time well
    above the noise, with a round of about five seconds.
    """

    UNITAL_EVERY = 4
    SIZES = {"default": 10_000, "tiny": 200}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.batch = self.SIZES[size]

    def warm_up(self) -> None:
        rebit.sample_cp_channels(np.random.default_rng(0), 10)

    def run_round(self, stats: Stats) -> None:
        for index in range(self.UNITAL_EVERY):
            unital = index == self.UNITAL_EVERY - 1
            start = time.perf_counter()
            try:
                batch = rebit.sample_cp_channels(self.rng, self.batch, unital=unital)
            except Exception as exc:
                stats.raised(time.perf_counter() - start, self.batch, f"sample_cp_channels raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            bad = self.check(batch, unital)
            if not unital:
                stats.nonunital_channels += len(batch)
            count = len(batch)
            # only one batch is alive at a time, so peak_rss_mb stays the sampler's own
            del batch
            stats.done(elapsed, self.batch, count, wrong=bad,
                       note=f"{bad} bad channels in a batch (unital={unital})")

    def check(self, batch: list, unital: bool) -> int:
        """Channels in the batch that are missing, not CP, off the disk or wrongly shifted."""
        if not batch:
            return self.batch
        a = np.array([channel.a for channel in batch])
        w = np.array([channel.w for channel in batch])
        bad = channels.bad_cp_channels(a, w)
        if unital:
            bad |= np.any(w != 0.0, axis=1)
        return int(bad.sum()) + max(0, self.batch - len(batch))


COMMANDS = ("check", "classify", "decompose", "image")


def command_for(index: int, period: int, offset: int) -> str:
    """Round-robin over COMMANDS, from ``offset``, for the index-th of a list that repeats every ``period`` items.

    Each repeat is shifted by one command, so a repeated channel meets
    another command.
    """
    return COMMANDS[(offset + index + index // period) % len(COMMANDS)]


@dataclass(frozen=True)
class Request:
    command: str
    channel: str  # path of the channel file
    kind: str
    expect_code: int | None = None  # None: only the generic checks apply
    expect_class: str | None = None
    golden: str | None = None


class CliRequests:
    """In-process ``rebit.cli.main`` requests over channel files written at set-up.

    No record of real traffic exists for this CLI, so a round is built to
    reach every request class and every answer, not to mimic users.  It
    holds 256 requests in a seeded order: 21 on the golden channels (every
    golden file once), 24 on literal diagonal channels (two per taxonomy
    branch), 16 on malformed documents (two of each kind), 4 on channels
    with entries near 1e200 (one per command, a share of exactly 1/64), and
    fills the rest with 127 dressed CP channels and 64 non-CP maps, two to
    one, so that most requests take the full path through the decision.
    Generated channels go to the four commands in turn.
    """

    POOL_ROUNDS = {"default": 8, "tiny": 1}

    def __init__(self, seed: int, size: str, workdir: Path, golden_dir: Path = Path("tests/golden")):
        self.cli = importlib.import_module("rebit.cli")
        self.svg = workdir / "out.svg"
        goldens = {path.name: path.read_text() for path in golden_dir.iterdir()}
        rng = np.random.default_rng(seed)
        self.rounds = [
            self._make_round(rng, workdir / f"round{index}", goldens, index)
            for index in range(self.POOL_ROUNDS[size])
        ]
        self.next_round = 0

    def _make_round(self, rng: np.random.Generator, folder: Path, goldens: dict, offset: int) -> list[Request]:
        """One round's requests; ``offset`` turns the commands, so pool rounds differ."""
        folder.mkdir(parents=True)
        written = 0

        def write(text: str | None) -> str:
            nonlocal written
            written += 1
            path = folder / f"{written:03d}.json"
            if text is not None:
                path.write_text(text)
            return str(path)

        requests = []
        for name, doc in channels.GOLDEN_CHANNELS.items():
            path = write(json.dumps(doc))
            commands = ("check", "decompose", "classify") + (("image",) if name in channels.GOLDEN_IMAGES else ())
            for command in commands:
                suffix = "svg" if command == "image" else "json"
                golden = goldens[f"{name}.{command}.{suffix}"]
                requests.append(Request(command, path, "golden", expect_code=0, golden=golden))
        for index in range(127 + 64):
            cp = index < 127
            command = command_for(index, 127 + 64, offset)
            code = 2 if not cp and command in ("check", "classify") else 0
            path = write(json.dumps(channels.dressed_channel(rng, cp)))
            requests.append(Request(command, path, "dressed" if cp else "not_cp", expect_code=code))
        diagonal = channels.diagonal_channels(rng) * 2
        for index, (doc, family) in enumerate(diagonal):
            command = command_for(index, len(diagonal) // 2, offset)
            family = family if command == "classify" else None
            requests.append(Request(command, write(json.dumps(doc)), "diagonal", expect_code=0, expect_class=family))
        malformed = channels.malformed_documents(rng) * 2
        for index, text in enumerate(malformed):
            command = command_for(index, len(malformed) // 2, offset)
            requests.append(Request(command, write(text), "malformed", expect_code=1))
        for command in COMMANDS:
            requests.append(Request(command, write(json.dumps(channels.huge_channel(rng))), "huge"))
        return [requests[i] for i in rng.permutation(len(requests))]

    def warm_up(self) -> None:
        self.run_round(Stats())

    def run_round(self, stats: Stats) -> None:
        requests = self.rounds[self.next_round % len(self.rounds)]
        self.next_round += 1
        for request in requests:
            argv = [request.command, request.channel]
            if request.command == "image":
                self.svg.unlink(missing_ok=True)
                argv += ["-o", str(self.svg)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli.main(argv)
                except Exception as exc:
                    stats.raised(time.perf_counter() - start, 1, f"{request.kind} {argv} raised {exc!r}")
                    continue
                elapsed = time.perf_counter() - start
            problem = self.check(request, code, out.getvalue())
            stats.done(elapsed, 1, 1, wrong=int(problem is not None), note=f"{request.kind} {argv}: {problem}")

    def check(self, request: Request, code, out: str) -> str | None:
        """Why the response to ``request`` is wrong, or None when it holds."""
        if code not in (0, 1, 2):
            return f"exit code {code!r}"
        if request.expect_code is not None and code != request.expect_code:
            return f"exit code {code}, expected {request.expect_code}"
        if code == 1:
            return None if out == "" else "printed a result with exit code 1"
        try:
            if request.command == "image":
                svg = self.svg.read_text()
                if request.golden is not None:
                    return None if svg == request.golden else "SVG differs from its golden file"
                root = ET.fromstring(svg.encode())
                return None if code == 0 and root.tag.endswith("svg") else f"exit {code} with root {root.tag}"
            if request.golden is not None and out != request.golden:
                return "output differs from its golden file"
            doc = json.loads(out)
            if request.command == "check":
                return None if doc["is_cp"] is (code == 0) else "exit code disagrees with is_cp"
            if request.command == "classify":
                if code == 2:
                    return None if doc["is_cp"] is False else "exit 2 without is_cp false"
                if "is_cp" in doc or "kraus_rank" not in doc:
                    return "exit 0 without a family and Kraus rank"
                if request.expect_class is not None and doc["class"] != request.expect_class:
                    return f"class {doc['class']}, expected {request.expect_class}"
                return None
            if code != 0:
                return f"decompose exit {code}"
            residual = doc["residual"]
            return None if math.isfinite(residual) and residual <= 1e-10 else f"residual {residual!r}"
        except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
            return f"unreadable output: {exc!r}"


WORKLOADS = {
    "verify_sweep": VerifySweep,
    "sample_stream": SampleStream,
    "cli_requests": CliRequests,
}
