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
from .linalg import TAU, rotation_matrix

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


def _sample_diagonal_scales(rng: np.random.Generator) -> tuple[float, float]:
    # rejection from the square onto the pentagon, then folded onto the
    # canonical sector lam1 >= |lam2| (the dressing angles restore full
    # coverage: axis swaps and sign pairs are rotations)
    while True:
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        if min(q_values(lam1, lam2)) >= 0.0:
            break
    hi = max(abs(lam1), abs(lam2))
    lo = min(abs(lam1), abs(lam2))
    if lam1 * lam2 < 0.0:
        lo = -lo
    return hi, lo


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


def _sample_channel(rng: np.random.Generator, unital: bool) -> AffineChannel:
    lam1, lam2 = _sample_diagonal_scales(rng)
    shift = np.zeros(2) if unital else _sample_shift(rng, lam1, lam2)
    theta1, theta2 = rng.uniform(0.0, TAU, 2)
    r1 = rotation_matrix(theta1)
    a = r1 @ np.diag([lam1, lam2]) @ rotation_matrix(theta2)
    return AffineChannel(a, r1 @ shift)


def sample_cp_channel(seed: int, unital: bool = False) -> AffineChannel:
    """Draw a completely positive channel, deterministically from the seed.

    Scales are rejection-sampled over the admissibility pentagon, the shift
    over the determinant-condition region intersected with exact disk
    containment of the image ellipse (the chi conditions alone do not rule
    out maps that push states off the disk), and the dressing rotations are
    uniform.
    """
    return _sample_channel(np.random.default_rng(seed), unital)


def sample_cp_channels(rng: np.random.Generator, count: int, unital: bool = False) -> list[AffineChannel]:
    """Stream ``count`` CP channels from an existing generator."""
    return [_sample_channel(rng, unital) for _ in range(count)]


def rank_at(lam1: float, lam2: float) -> int:
    """Kraus rank of the unital diagonal map at literal pentagon coordinates."""
    return chi_rank(chi_matrix(lam1, lam2))
