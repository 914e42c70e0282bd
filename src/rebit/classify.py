"""Channel taxonomy, image-ellipse geometry and admissible-region sampling.

Classification happens in the channel's diagonal frame (see
:func:`rebit.cp.diagonal_frame`): literal coefficients for diagonal channels,
canonical ones otherwise.  Matching uses a 1e-9 tolerance with the precedence
Identity > CompletelyDepolarizing > Depolarizing > PhaseFlip > Linear >
General, so e.g. the origin is reported as completely depolarizing even
though it also fits the depolarizing and linear patterns.
"""

# unevaluated np.random.Generator hints: importing rebit leaves numpy.random unloaded
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import decompose_channel, rebuild
from .channel import AffineChannel, _frozen_array
from .cp import CpReport, canonical_frame, canonical_scales, closed_form_verdict, decide, is_cp
from .linalg import FLOATS, TAU, _peak_norm

# Slack of every family match and of the zero-shift decision: CP_TOL's size; chosen, not derived;
# bound by test_classify_makes_one_zero_shift_decision.
CLASS_TOL = 1e-9

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class NotCompletelyPositiveError(ValueError):
    """Raised when rank or taxonomy is requested for a non-CP map."""

    def __init__(self, report: CpReport):
        self.report = report
        super().__init__("channel is not completely positive")


class _Family:
    def to_json_dict(self) -> dict:
        return {"class": type(self).__name__, "params": dict(vars(self))}


@dataclass(frozen=True)
class Identity(_Family):
    pass


@dataclass(frozen=True)
class PhaseFlip(_Family):
    fixed_axis: str  # HORIZONTAL or VERTICAL
    p: float


@dataclass(frozen=True)
class Depolarizing(_Family):
    r: float
    reflect_1: bool
    reflect_2: bool


@dataclass(frozen=True)
class CompletelyDepolarizing(_Family):
    pass


@dataclass(frozen=True)
class Linear(_Family):
    axis: str  # direction of the image segment
    q: float


@dataclass(frozen=True)
class General(_Family):
    rank: int
    unital: bool


ChannelClass = Identity | PhaseFlip | Depolarizing | CompletelyDepolarizing | Linear | General


def kraus_rank(channel: AffineChannel) -> int:
    """Number of chi eigenvalues above tolerance; defined for CP maps only."""
    report = is_cp(channel)
    if not report.is_cp:
        raise NotCompletelyPositiveError(report)
    return report.kraus_rank


def classify(channel: AffineChannel) -> ChannelClass:
    """Match the channel against the named families, CP maps only."""
    return classify_report(is_cp(channel))


def classify_report(report: CpReport) -> ChannelClass:
    """:func:`classify` with the channel's :func:`is_cp` report, whose frame and rank it reads."""
    if not report.is_cp:
        raise NotCompletelyPositiveError(report)
    lam1, lam2, s1, s2 = report.frame
    unital = math.hypot(s1, s2) <= CLASS_TOL  # one zero-shift decision for the families and General
    if unital:
        if abs(lam1 - 1.0) <= CLASS_TOL and abs(lam2 - 1.0) <= CLASS_TOL:
            return Identity()
        if abs(lam1) <= CLASS_TOL and abs(lam2) <= CLASS_TOL:
            return CompletelyDepolarizing()
        if abs(abs(lam1) - abs(lam2)) <= CLASS_TOL:
            return Depolarizing(
                r=0.5 * (abs(lam1) + abs(lam2)),
                reflect_1=lam1 < -CLASS_TOL,
                reflect_2=lam2 < -CLASS_TOL,
            )
        if abs(lam1 - 1.0) <= CLASS_TOL:
            return PhaseFlip(fixed_axis=HORIZONTAL, p=1.0 - lam2)
        if abs(lam2 - 1.0) <= CLASS_TOL:
            return PhaseFlip(fixed_axis=VERTICAL, p=1.0 - lam1)
        if abs(lam2) <= CLASS_TOL:
            return Linear(axis=HORIZONTAL, q=lam1)
        if abs(lam1) <= CLASS_TOL:
            return Linear(axis=VERTICAL, q=lam2)
    return General(rank=report.kraus_rank, unital=unital)


@dataclass(frozen=True)
class ImageEllipse:
    """Image of the Bloch disk: an ellipse, possibly degenerate."""

    center: np.ndarray
    semi_axes: tuple[float, float]
    tilt: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_array(self.center, (2,)))


def image_ellipse(channel: AffineChannel) -> ImageEllipse:
    """Ellipse swept by the images of the pure states.

    Center is the shift, semi-axes are the singular values of the linear
    part, tilt is the left canonical rotation angle.  Defined for non-CP
    maps too; containment in the disk then simply fails.
    """
    form = decompose_channel(channel)
    return ImageEllipse(center=channel.w, semi_axes=(abs(form.lam1), abs(form.lam2)), tilt=form.theta1)


def ellipse_peak_norm(center: np.ndarray, semi_axes: tuple[float, float]) -> float:
    """Largest distance from the origin to an axis-aligned ellipse boundary.

    Exact up to rounding: :func:`rebit.linalg._peak_norm` on Python floats,
    with the axes ordered by :func:`rebit.cp.canonical_frame`.  Degenerate
    axes (segments, points) need no special case.
    """
    a1, a2 = abs(float(semi_axes[0])), abs(float(semi_axes[1]))
    a1, a2, c1, c2 = canonical_frame(a1, a2, float(center[0]), float(center[1]), FLOATS)
    return _peak_norm(c1, c2, a1, a2, FLOATS)


# channels drawn from one block and built together: each block pays its passes, its set-up and
# its rebuild whatever its size, and at 2,048 its decision temporaries (about 6k tries of 8 B each)
# stay small; 4,096 raised the sampler's peak RSS by 1.6-2.4 MB and 10^4 by 7.6 MB, for no clear speed
CHUNK = 2048
PAIRS_PER_CHANNEL = 5  # block size: a channel takes about 4.6 pairs of draws; a block that runs out ends its chunk
UNITAL_PAIRS_PER_CHANNEL = 3  # the same for unital channels, which take about 2.6
HEAD = 1  # shift tries decided after every pentagon pair in the first pass; 61 % of them are admissible
MAX_SHIFT_TRIES = 100_000  # a channel's shift search raises after this many misses


def _uniform(low, high, u):
    """What ``rng.uniform(low, high)`` returns when it draws the double ``u``."""
    return low + (high - low) * u


def _shift_from(u: np.ndarray, k, lam1, lam2) -> tuple:
    """The shift try made from pair ``k`` of ``u``: ``rng.uniform``'s shift in the box |s_i| <= 1 - |lam_i|."""
    b1 = np.maximum(0.0, 1.0 - abs(lam1))
    b2 = np.maximum(0.0, 1.0 - abs(lam2))
    return _uniform(-b1, b1, u[k, 0]), _uniform(-b2, b2, u[k, 1])


def _first_admissible(u: np.ndarray, starts: np.ndarray, lam1, lam2, first: int, stop: int) -> np.ndarray:
    """Offset of the first admissible shift try among tries ``first`` to ``stop - 1`` after each start, or -1.

    Each try is decided by :func:`rebit.cp.decide` on arrays with tolerance 0,
    lam1 >= |lam2|.  ``u`` must hold the rotation pair after the last try.
    """
    tries = starts[:, None] + np.arange(first + 1, stop + 1)
    lam1, lam2 = lam1[:, None], lam2[:, None]
    ok = decide(lam1, lam2, *_shift_from(u, tries, lam1, lam2), np, 0.0)[0]
    return np.where(ok.any(axis=1), first + ok.argmax(axis=1), -1)


def _sample_chunk(rng: np.random.Generator, a: np.ndarray, w: np.ndarray, unital: bool) -> int:
    """Draw up to ``len(a)`` channels from one block of ``rng.random`` pairs.

    Their linear parts and shifts go to the first rows of ``a`` and ``w``;
    returns how many were drawn.

    A channel of the one-at-a-time sampler draws pairs of doubles: pentagon
    tries until one lands in the pentagon (pair j), then, unless unital,
    shift tries until one is admissible (pair k; k = j when unital), then its
    two rotation angles (pair k + 1); the next channel starts at pair k + 2.
    The block is evaluated with numpy and walked in that order, from each
    channel's first free pair straight to the next pentagon pair.  Every
    shift try is decided before the walk by :func:`_first_admissible`: the
    first pass decides the HEAD tries after every pentagon pair at once, and
    each later pass a window four times as wide for every row still without
    an admissible try, until none is left or a row has missed
    MAX_SHIFT_TRIES times; a count-1 block searches its first row only.  A
    window that runs past the block first appends the generator's next pairs
    to it, which continue the same stream.  Which tries get decided changes
    no verdict, so each row's successor, the first pentagon pair at or after
    k + 2, is one ``searchsorted`` over the block, read as a Python list; a
    unital row takes offset -1, so k = j.  A row with no admissible try ends
    the walk, which raises RuntimeError if it walked that row: a zero shift
    would pass a unital channel off as a non-unital draw.  The generator is
    then rewound and advanced over exactly the doubles the channels used, so
    it ends where the one-at-a-time sampler leaves it.  The walked rows'
    shift pairs come from the offsets as one array, and
    :func:`rebit.canonical.rebuild` writes the chunk's six entries in
    whole-array sums of products, with no Python-level step per channel.
    """
    count = len(a)
    state = rng.bit_generator.state
    pairs = count * (UNITAL_PAIRS_PER_CHANNEL if unital else PAIRS_PER_CHANNEL) + 2
    u = rng.random((pairs, 2))
    lam1, lam2 = _uniform(-1.0, 1.0, u).T
    in_pentagon = closed_form_verdict(lam1, lam2, 0.0, 0.0, 0.0)[0]  # at zero shift: the unital pentagon
    starts = np.flatnonzero(in_pentagon[:-1])  # the pair after a start must be in the block
    # the dressing angles restore what the fold leaves out: axis swaps and sign pairs are rotations
    hi, lo = canonical_scales(lam1[starts], lam2[starts], np)
    offsets = np.full(len(starts), -1)  # k = j + 1 + offset: unital rows keep -1, so k = j
    searched = 0 if unital else 1 if count == 1 else len(starts)  # a single channel walks its first row only
    open_rows, depth = slice(0, searched), 0  # a slice makes the first pass, over every row, faster
    while depth < MAX_SHIFT_TRIES and (j := starts[open_rows]).size:
        wider = min(max(4 * depth, HEAD), MAX_SHIFT_TRIES)
        needed = int(j[-1]) + wider + 2  # through the rotation pair after the last row's widest try
        if needed > len(u):
            u = np.concatenate((u, rng.random((needed - len(u), 2))))
        offsets[open_rows] = _first_admissible(u, j, hi[open_rows], lo[open_rows], depth, wider)
        open_rows, depth = np.flatnonzero(offsets[:searched] < 0), wider
    following = np.searchsorted(starts, starts + offsets + 3)
    following[open_rows] = len(starts)  # a row with no admissible try ends the walk
    following = following.tolist()

    rows, row = [], 0
    while len(rows) < count and row < len(starts):
        rows.append(row)
        row = following[row]
    if not unital and rows and offsets[rows[-1]] < 0:
        raise RuntimeError(f"no admissible shift found for lam = ({hi[rows[-1]]}, {lo[rows[-1]]})")
    rows = np.array(rows, dtype=np.intp)
    k = starts[rows] + 1 + offsets[rows]
    first_free = int(k[-1]) + 2 if len(rows) else 0
    if len(rows) < count:
        # the block ran out: every pair from first_free on but the last missed
        # the pentagon; the next block draws the last again (and skips a miss again)
        first_free = max(first_free, pairs - 1)
    rng.bit_generator.state = state
    rng.random(2 * first_free)

    n, hi, lo = len(rows), hi[rows], lo[rows]
    s0, s1 = (0.0, 0.0) if unital else _shift_from(u, k, hi, lo)
    entries = rebuild(*_uniform(0.0, TAU, u[k + 1]).T, hi, lo, s0, s1)  # theta1, theta2 from pair k + 1
    a[:n, 0, 0], a[:n, 0, 1], a[:n, 1, 0], a[:n, 1, 1], w[:n, 0], w[:n, 1] = entries
    return n


def sample_cp_channel(seed: int, unital: bool = False) -> AffineChannel:
    """Draw a completely positive channel, deterministically from the seed.

    Scales are rejection-sampled over the admissibility pentagon, the shift
    over the determinant-condition region intersected with exact disk
    containment of the image ellipse (the chi conditions alone do not rule
    out maps that push states off the disk), and the dressing rotations are
    uniform.
    """
    return sample_cp_channels(np.random.default_rng(seed), 1, unital)[0]


def sample_cp_channels(rng: np.random.Generator, count: int, unital: bool = False) -> list[AffineChannel]:
    """Stream ``count`` CP channels from an existing generator.

    Up to CHUNK channels at a time come from one block of ``rng.random``
    draws, evaluated with numpy and built together; the generator is then
    rewound and advanced over the draws those channels used.  Every draw of
    the one-at-a-time rejection sampler is a pair of doubles, and
    ``rng.uniform(low, high)`` is ``low + (high - low) * u``, so the channels
    and the generator's final state are those of ``count`` single draws:
    ``count`` calls with count 1 give the same stream as one call.

    The law: (lam1, lam2) uniform on the pentagon, by rejection from the
    square [-1, 1]^2, then folded onto lam1 >= |lam2| by the axis swap and
    the half turn, which is not a symmetry of the pentagon: the folded scales
    have density 4 / 2.5 where lam1 + lam2 <= 1 and 2 / 2.5 above.  Given
    them, the canonical shift uniform on its admissible set, by rejection
    from the box |s_i| <= 1 - |lam_i|; the two dressing angles uniform.
    This is not Lebesgue measure on (A, w).
    """
    a, w = np.empty((max(count, 0), 2, 2)), np.empty((max(count, 0), 2))
    done = 0
    while done < count:
        done += _sample_chunk(rng, a[done:done + CHUNK], w[done:done + CHUNK], unital)
    return AffineChannel.stacked(a, w)
