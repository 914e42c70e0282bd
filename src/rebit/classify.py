"""Channel taxonomy, image-ellipse geometry and admissible-region sampling.

Classification happens in the channel's diagonal frame (see
:func:`rebit.cp.diagonal_frame`): literal coefficients for diagonal channels,
canonical ones otherwise.  Matching uses a 1e-9 tolerance with the precedence
Identity > CompletelyDepolarizing > Depolarizing > PhaseFlip > Linear >
General, so e.g. the origin is reported as completely depolarizing even
though it also fits the depolarizing and linear patterns.
"""

import math
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalForm, decompose_channel
from .channel import AffineChannel, is_unital
from .cp import CpReport, chi_matrix, chi_rank, is_cp, q_values, shift_region_contains
from .linalg import TAU

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
    return classify_report(channel, is_cp(channel))


def classify_report(channel: AffineChannel, report: CpReport) -> ChannelClass:
    """:func:`classify` with the channel's :func:`is_cp` report, whose frame and rank it reads."""
    if not report.is_cp:
        raise NotCompletelyPositiveError(report)
    lam1, lam2, s1, s2 = report.frame
    if math.hypot(s1, s2) <= CLASS_TOL:
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
    return General(rank=report.kraus_rank, unital=is_unital(channel))


@dataclass(frozen=True)
class ImageEllipse:
    """Image of the Bloch disk: an ellipse, possibly degenerate."""

    center: np.ndarray
    semi_axes: tuple[float, float]
    tilt: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    def to_json_dict(self) -> dict:
        return {
            "center": [self.center[0], self.center[1]],
            "axes": [self.semi_axes[0], self.semi_axes[1]],
            "tilt": self.tilt,
        }

    @classmethod
    def from_form(cls, channel: AffineChannel, form: CanonicalForm) -> "ImageEllipse":
        """The channel's image ellipse, read off its canonical form."""
        return cls(center=channel.w, semi_axes=(abs(form.lam1), abs(form.lam2)), tilt=form.theta1)


def image_ellipse(channel: AffineChannel) -> ImageEllipse:
    """Ellipse swept by the images of the pure states.

    Center is the shift, semi-axes are the singular values of the linear
    part, tilt is the left canonical rotation angle.  Defined for non-CP
    maps too; containment in the disk then simply fails.
    """
    return ImageEllipse.from_form(channel, decompose_channel(channel))


def ellipse_peak_norm(center: np.ndarray, semi_axes: tuple[float, float]) -> float:
    """Largest distance from the origin to an axis-aligned ellipse boundary.

    Exact: the stationary points of |center + (a1 cos t, a2 sin t)|^2 solve a
    quartic in tan(t/2), so the maximum is taken over its real roots plus the
    axis angles.  Degenerate axes (segments, points) are covered by the same
    candidates.
    """
    c1, c2 = float(center[0]), float(center[1])
    a1, a2 = semi_axes
    big_a = a2 * c2
    big_b = a1 * c1
    kappa = 0.5 * (a2 * a2 - a1 * a1)
    coeffs = np.array([-big_a, -2.0 * big_b - 4.0 * kappa, 0.0, -2.0 * big_b + 4.0 * kappa, big_a])
    candidates = [0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi]
    nonzero = np.nonzero(coeffs)[0]
    if nonzero.size:
        trimmed = coeffs[nonzero[0]:]
        if trimmed.size > 1:
            for root in np.roots(trimmed):
                if abs(root.imag) < 1e-9:
                    candidates.append(2.0 * math.atan(float(root.real)))
    return max(
        math.hypot(c1 + a1 * math.cos(phi), c2 + a2 * math.sin(phi)) for phi in candidates
    )


CHUNK = 256  # channels drawn from one block and built together: bounds the sampler's memory
PAIRS_PER_CHANNEL = 6  # block size: a channel takes about 4.6 pairs of draws (2.6 if unital)
HEAD = 4  # shift tries evaluated after every pentagon pair; most searches end within them
LOOKAHEAD = 64  # shift tries evaluated when the first HEAD hold no sure accept; then _sample_shift
PEAK_BAND = 1e-12  # the peak-norm bounds decide a shift only outside [1 - PEAK_BAND, 1 + PEAK_BAND]
REJECT, ACCEPT, UNDECIDED = 0, 1, 2


def _uniform(low, high, u):
    """What ``rng.uniform(low, high)`` returns when it draws the double ``u``."""
    return low + (high - low) * u


def _sample_shift(rng: np.random.Generator, lam1: float, lam2: float) -> np.ndarray:
    """Rejection-sample a shift whose channel is CP and maps the disk into itself.

    Raises RuntimeError after 100,000 misses: returning a zero shift instead
    would pass a unital channel off as a non-unital draw.
    """
    a1, a2 = abs(lam1), abs(lam2)
    b1, b2 = max(0.0, 1.0 - a1), max(0.0, 1.0 - a2)
    for _ in range(100_000):
        s = np.array([rng.uniform(-b1, b1), rng.uniform(-b2, b2)])
        _, margin = shift_region_contains(lam1, lam2, s[0], s[1])
        if margin >= 0.0 and ellipse_peak_norm(s, (a1, a2)) <= 1.0:
            return s
    raise RuntimeError(f"no admissible shift found for lam = ({float(lam1)}, {float(lam2)})")


def _shift_from(u: np.ndarray, k, lam1, lam2) -> tuple:
    """The shift try :func:`_sample_shift` makes from pair ``k`` of ``u``; arrays too."""
    b1 = np.maximum(0.0, 1.0 - abs(lam1))
    b2 = np.maximum(0.0, 1.0 - abs(lam2))
    return _uniform(-b1, b1, u[k, 0]), _uniform(-b2, b2, u[k, 1])


def _peak_norm_bounds(s1, s2, a1, a2) -> tuple:
    """Lower and upper bounds on ``ellipse_peak_norm((s1, s2), (a1, a2))``, a1 >= a2 >= 0; arrays.

    On the unit circle |s + (a1 x, a2 y)|^2 = |s|^2 + a2^2 + d x^2 + 2 (b1 x
    + b2 y), with d = a1^2 - a2^2 and b = (a1 s1, a2 s2).  Adding (d + nu)(1
    - x^2 - y^2) = 0 for any nu > 0 and maximizing over the whole plane bounds
    it by |s|^2 + a2^2 + d + nu + b1^2/nu + b2^2/(nu + d), with equality at
    the nu where (b1/nu, b2/(nu + d)) is a unit vector (Lagrangian duality for
    a quadratic on the circle).  That nu is at least |b1| and at least |b| -
    d; the larger of the two makes the bound nearly tight.  The ellipse point
    in the direction of (b1/nu, b2/(nu + d)) gives the lower bound, or the
    centre s when b = 0: the norm is convex, so no point of the filled
    ellipse is farther out than its boundary.
    """
    b1, b2 = a1 * s1, a2 * s2
    d = (a1 - a2) * (a1 + a2)
    nu = np.maximum(np.maximum(abs(b1), np.hypot(b1, b2) - d), 1e-300)
    x, y = b1 / nu, b2 / (nu + d)
    upper = np.sqrt(s1 * s1 + s2 * s2 + a2 * a2 + d + nu + b1 * x + b2 * y)
    n = np.maximum(np.hypot(x, y), 1e-300)
    return np.hypot(s1 + a1 * x / n, s2 + a2 * y / n), upper


def _shift_verdicts(lam1, lam2, s1, s2) -> np.ndarray:
    """REJECT, ACCEPT or UNDECIDED for each shift try of :func:`_sample_shift`, over arrays.

    Requires lam1 >= |lam2|.  The margin test is the one of
    :func:`_sample_shift`.  The test ``ellipse_peak_norm <= 1`` is decided by
    :func:`_peak_norm_bounds` outside a band of PEAK_BAND around 1, which
    covers their rounding, and left UNDECIDED inside it.
    """
    _, margin = shift_region_contains(lam1, lam2, s1, s2)
    lower, upper = _peak_norm_bounds(s1, s2, lam1, abs(lam2))
    peak = np.where(upper < 1.0 - PEAK_BAND, ACCEPT, np.where(lower > 1.0 + PEAK_BAND, REJECT, UNDECIDED))
    return np.where(margin >= 0.0, peak, REJECT)


def _window_verdicts(u: np.ndarray, starts: np.ndarray, lam1, lam2, first: int, stop: int) -> np.ndarray:
    """Verdicts of the shift tries ``first`` to ``stop - 1`` after each start, one row per start.

    A try whose rotation pair would fall outside the block is a REJECT.
    """
    tries = starts[:, None] + np.arange(first + 1, stop + 1)
    in_block = tries < len(u) - 1
    tries = np.minimum(tries, len(u) - 1)
    verdicts = _shift_verdicts(lam1[:, None], lam2[:, None], *_shift_from(u, tries, lam1[:, None], lam2[:, None]))
    return np.where(in_block, verdicts, REJECT)


def _first_shift(u: np.ndarray, start: int, verdicts: np.ndarray, lam1, lam2) -> int:
    """Offset of the first admissible shift try after pentagon pair ``start``, or -1.

    ``verdicts`` are the tries' :func:`_shift_verdicts`; an UNDECIDED try is
    decided by the exact :func:`ellipse_peak_norm`.
    """
    for offset in np.flatnonzero(verdicts).tolist():
        if verdicts[offset] == ACCEPT:
            return offset
        shift = _shift_from(u, start + 1 + offset, lam1, lam2)
        if ellipse_peak_norm(shift, (lam1, abs(lam2))) <= 1.0:
            return offset
    return -1


def _rotations(theta: np.ndarray) -> np.ndarray:
    """Stacked :func:`rotation_matrix` of each angle, from the same ``math.cos`` and ``math.sin``."""
    angles = theta.tolist()
    r = np.empty((len(angles), 2, 2))
    r[:, 0, 0] = r[:, 1, 1] = [math.cos(t) for t in angles]
    r[:, 1, 0] = [math.sin(t) for t in angles]
    r[:, 0, 1] = -r[:, 1, 0]
    return r


def _write_channels(lam1, lam2, shift, theta, a: np.ndarray, w: np.ndarray) -> int:
    """Write rot(theta1) diag(lam1, lam2) rot(theta2) and rot(theta1) s into the first rows of ``a`` and ``w``."""
    r1 = _rotations(theta[:, 0])
    d = np.zeros((len(lam1), 2, 2))
    d[:, 0, 0], d[:, 1, 1] = lam1, lam2
    a[:len(d)] = r1 @ d @ _rotations(theta[:, 1])
    w[:len(d)] = (r1 @ shift[:, :, None])[:, :, 0]
    return len(d)


def _sample_chunk(rng: np.random.Generator, a: np.ndarray, w: np.ndarray, unital: bool) -> int:
    """Draw between 1 and ``len(a)`` channels from one block of ``rng.random`` pairs.

    Their linear parts and shifts go to the first rows of ``a`` and ``w``;
    returns how many were drawn.

    A channel of the one-at-a-time sampler draws pairs of doubles: pentagon
    tries until one lands in the pentagon (pair j), then, unless unital,
    shift tries until one is admissible (pair k; k = j when unital), then its
    two rotation angles (pair k + 1); the next channel starts at pair k + 2.
    The block is evaluated with numpy and walked in that order.  A shift
    search that finds nothing in the LOOKAHEAD pairs after j, or in the
    block, ends the chunk and is finished by :func:`_sample_shift`.  The
    generator is rewound and advanced over exactly the doubles the channels
    used, so it ends where the one-at-a-time sampler leaves it.
    """
    count = len(a)
    state = rng.bit_generator.state
    pairs = count * PAIRS_PER_CHANNEL + LOOKAHEAD + 2
    u = rng.random((pairs, 2))
    lam1, lam2 = _uniform(-1.0, 1.0, u).T
    q0, q1, q2 = q_values(lam1, lam2)
    in_pentagon = (q0 >= 0.0) & (q1 >= 0.0) & (q2 >= 0.0)
    starts = np.flatnonzero(in_pentagon[:-1])  # the pair after a start must be in the block
    l1, l2 = lam1[starts], lam2[starts]
    # fold onto the canonical sector lam1 >= |lam2| (the dressing angles
    # restore full coverage: axis swaps and sign pairs are rotations)
    hi = np.maximum(abs(l1), abs(l2))
    lo = np.minimum(abs(l1), abs(l2))
    lo = np.where(l1 * l2 < 0.0, -lo, lo)
    if not unital:
        head = min(HEAD, LOOKAHEAD)
        verdicts = np.full((len(starts), LOOKAHEAD), REJECT, dtype=np.int8)
        verdicts[:, :head] = _window_verdicts(u, starts, hi, lo, 0, head)
        unsure = ~(verdicts[:, :head] == ACCEPT).any(axis=1)  # rows that may need the whole window
        whole = head == LOOKAHEAD  # whether the unsure rows have their whole window

    rows, shift_pairs = [], []
    tail = None
    first_free = 0  # first pair of the next channel
    for row, j in enumerate(starts.tolist()):
        if j < first_free:
            continue
        k = j
        if not unital:
            if unsure[row] and not whole:
                # at the first unsure row the walk reaches, evaluate the rest
                # of the window for it and every unsure row after it at once
                later = row + np.flatnonzero(unsure[row:])
                verdicts[later, head:] = _window_verdicts(u, starts[later], hi[later], lo[later], head, LOOKAHEAD)
                whole = True
            offset = _first_shift(u, j, verdicts[row], hi[row], lo[row])
            if offset < 0:
                rng.bit_generator.state = state
                rng.random(2 * (j + 1))
                tail = (row, _sample_shift(rng, hi[row], lo[row]), rng.uniform(0.0, TAU, 2))
                break
            k = j + 1 + offset
        rows.append(row)
        shift_pairs.append(k)
        first_free = k + 2
        if len(rows) == count:
            break
    else:
        # the block ran out: every pair from first_free on missed the pentagon,
        # but for a last pair in it, which the next block draws again
        first_free = max(first_free, pairs - 1 if in_pentagon[-1] else pairs)
    if tail is None:
        rng.bit_generator.state = state
        rng.random(2 * first_free)

    shift_pairs = np.array(shift_pairs, dtype=np.intp)
    if unital:
        shift = np.zeros((len(rows), 2))
    else:
        shift = np.stack(_shift_from(u, shift_pairs, hi[rows], lo[rows]), axis=1)
    theta = _uniform(0.0, TAU, u[shift_pairs + 1])
    if tail is not None:
        rows.append(tail[0])
        shift = np.concatenate([shift, tail[1][None]])
        theta = np.concatenate([theta, tail[2][None]])
    return _write_channels(hi[rows], lo[rows], shift, theta, a, w)


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
    """
    a, w = np.empty((max(count, 0), 2, 2)), np.empty((max(count, 0), 2))
    done = 0
    while done < count:
        done += _sample_chunk(rng, a[done:done + CHUNK], w[done:done + CHUNK], unital)
    return AffineChannel.stacked(a, w)


def rank_at(lam1: float, lam2: float) -> int:
    """Kraus rank of the unital diagonal map at literal pentagon coordinates."""
    return chi_rank(chi_matrix(lam1, lam2))
