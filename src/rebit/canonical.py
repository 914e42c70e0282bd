"""Rotation-diagonal-rotation factorization of affine channels.

Every linear part A factors as rot(theta1) @ diag(lam1, lam2) @ rot(theta2)
with both outer factors proper rotations.  The convention fixed here:
lam1 = sigma1 >= 0 carries the larger singular value, lam2 = sign(det A) *
sigma2 carries the only possible negative sign, and a pair of sign flips is
absorbed into theta1 as a rotation by pi.  The shift transforms into the
diagonal frame as s = rot(theta1)^t @ w.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import AffineChannel, _frozen_array
from .linalg import FLOATS, TAU

SECTOR_TOL = 1e-12  # slack of lam1 >= |lam2| in a canonical form


@dataclass(frozen=True)
class CanonicalForm:
    """Factorization data (theta1, theta2, lam1, lam2, shift-in-diagonal-frame); finite angles, kept in [0, 2*pi)."""

    theta1: float
    theta2: float
    lam1: float
    lam2: float
    shift: np.ndarray

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ValueError(f"rotation angle must be finite, got {angle!r}")
            angle = float(angle) % TAU  # TAU where % rounds a tiny negative angle up
            object.__setattr__(self, name, 0.0 if angle == TAU else angle)
        object.__setattr__(self, "shift", _frozen_array(self.shift, (2,)))
        if self.lam1 < 0.0:
            raise ValueError(f"lam1 must be nonnegative, got {self.lam1!r}")
        if abs(self.lam2) > self.lam1 + SECTOR_TOL:
            raise ValueError("requires lam1 >= |lam2|")

    def to_json_dict(self) -> dict:
        return {
            "theta1": self.theta1,
            "theta2": self.theta2,
            "lambda": [self.lam1, self.lam2],
            "shift": [self.shift[0], self.shift[1]],
        }


@np.errstate(over="ignore", invalid="ignore")  # numpy scalars overflow quietly, as floats do
def factorize(a00, a01, a10, a11, w0, w1, xp=FLOATS):
    """(theta1, theta2, lam1, lam2, s0, s1) of A = [[a00, a01], [a10, a11]] and w = (w0, w1).

    The one statement of the factorization, on Python floats with ``xp``
    :data:`rebit.linalg.FLOATS` and elementwise on arrays with ``xp`` the
    numpy module; arctan2, hypot, cos and sin are numpy's on both, so a
    channel has the bits of its row in an array.  The right rotation is the
    exact eigen-rotation of A^t A (larger eigenvalue first; an exact tie
    gives theta2 = 0).  The image of its first column fixes theta1 and lam1;
    the second column's component along the perpendicular of the first is
    sigma2 * sign(det A), so a reflection lands in the sign of lam2, clipped
    to |lam2| <= lam1.  The shift goes into the diagonal frame as s =
    rot(theta1)^t w.  Angles are reduced to [0, 2*pi); the zero matrix gives
    theta1 = theta2 = 0 and lam = (0, 0).  A^t A is formed directly: entries
    beyond about 1e154 overflow it into NaN angles, and below about 1e-154 it
    underflows, so lam1 is a column norm, not sigma1.  Scaling A by a power
    of two first fixes both ends; perfbench's huge requests still expect NaN.
    """
    # q, d and the shift are summed from +0.0, as numpy's matrix products
    # are: the sign of a zero q picks atan2's branch, that of d lam2's sign
    p = a00 * a00 + a10 * a10
    q = 0.0 + a00 * a01 + a10 * a11
    r = a01 * a01 + a11 * a11
    half = 0.5 * np.arctan2(2.0 * q, p - r)
    c, s = np.cos(half), np.sin(half)
    y10, y11 = a00 * c + a01 * s, a10 * c + a11 * s  # A @ (c, s)
    y20, y21 = a01 * c - a00 * s, a11 * c - a10 * s  # A @ (-s, c)
    lam1 = np.hypot(y10, y11)
    zero = lam1 == 0.0
    norm = xp.where(zero, 1.0, lam1)
    u0, u1 = y10 / norm, y11 / norm
    d = 0.0 - u1 * y20 + u0 * y21
    size = abs(d)
    lam2 = xp.where(zero, 0.0, xp.copysign(xp.where(lam1 < size, lam1, size), d))
    theta1 = xp.where(zero, 0.0, np.arctan2(u1, u0)) % TAU
    theta2 = xp.where(zero, 0.0, np.arctan2(-s, c)) % TAU
    c1, s1 = np.cos(theta1), np.sin(theta1)
    return theta1, theta2, lam1, lam2, 0.0 + c1 * w0 + s1 * w1, 0.0 + c1 * w1 - s1 * w0


def canonical_decompose(a: np.ndarray) -> tuple[float, tuple[float, float], float]:
    """Factor a 2x2 matrix as rot(theta1) @ diag(lam1, lam2) @ rot(theta2): (theta1, (lam1, lam2), theta2).

    :func:`decompose_channel` of the channel (a, 0), which checks the entries;
    both factors are proper rotations, any reflection sits in the sign of
    lam2, and the zero matrix gives theta1 = theta2 = 0 and lam = (0, 0).
    """
    form = decompose_channel(AffineChannel(a, np.zeros(2)))
    return form.theta1, (form.lam1, form.lam2), form.theta2


def decompose_channel(channel: AffineChannel) -> CanonicalForm:
    """Canonical form of an affine channel, shift mapped into the diagonal frame."""
    theta1, theta2, lam1, lam2, s0, s1 = map(float, factorize(*channel.a.ravel().tolist(), *channel.w.tolist()))
    return CanonicalForm(theta1=theta1, theta2=theta2, lam1=lam1, lam2=lam2, shift=(s0, s1))


@np.errstate(over="ignore", invalid="ignore")  # an overflowed lam1 rebuilds to inf and NaN quietly
def rebuild(theta1, theta2, lam1, lam2, s0, s1):
    """(a00, a01, a10, a11, w0, w1) of rot(theta1) diag(lam1, lam2) rot(theta2) and rot(theta1) s.

    The one statement of the inverse of :func:`factorize`, whose results it
    takes and whose arguments it returns, on Python floats and elementwise on
    arrays alike.  rot(theta1) diag(lam1, lam2) is [[x1, -y2], [y1, x2]]; each
    entry of its product with rot(theta2) and of the shift is written out and
    summed from +0.0, as in :func:`factorize`, so a float has the bits of its
    row in an array, no entry is -0.0, and no matrix product's fused
    multiply-add rounds any of them.
    """
    c1, n1, c2, n2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
    x1, y1, x2, y2 = c1 * lam1, n1 * lam1, c1 * lam2, n1 * lam2
    return (
        0.0 + x1 * c2 - y2 * n2,
        0.0 - x1 * n2 - y2 * c2,
        0.0 + y1 * c2 + x2 * n2,
        0.0 + x2 * c2 - y1 * n2,
        0.0 + c1 * s0 - n1 * s1,
        0.0 + n1 * s0 + c1 * s1,
    )


def reconstruct(form: CanonicalForm) -> AffineChannel:
    """Rebuild the affine channel described by a canonical form."""
    a00, a01, a10, a11, w0, w1 = rebuild(form.theta1, form.theta2, form.lam1, form.lam2, *form.shift.tolist())
    return AffineChannel([[a00, a01], [a10, a11]], [w0, w1])


def reconstruction_residual(channel: AffineChannel, form: CanonicalForm) -> float:
    """Max-abs mismatch between the channel and its rebuilt canonical form."""
    rebuilt = rebuild(form.theta1, form.theta2, form.lam1, form.lam2, *form.shift.tolist())
    return float(np.abs(np.subtract(rebuilt, (*channel.a.ravel().tolist(), *channel.w.tolist()))).max())
