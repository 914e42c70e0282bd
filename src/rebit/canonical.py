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
from .linalg import FLOATS, TAU, rotation_matrix

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


def factorize(a00, a01, a10, a11, w0, w1, xp=FLOATS):
    """(theta1, theta2, lam1, lam2, s0, s1) of A = [[a00, a01], [a10, a11]] and w = (w0, w1).

    The one statement of the factorization, on Python floats with ``xp``
    :data:`rebit.linalg.FLOATS` and elementwise on arrays with ``xp`` the
    numpy module.  The right rotation is the exact eigen-rotation of A^t A
    (larger eigenvalue first; an exact tie gives theta2 = 0).  The image of
    its first column fixes theta1 and lam1; the second column's component
    along the perpendicular of the first is sigma2 * sign(det A), so a
    reflection lands in the sign of lam2, clipped to |lam2| <= lam1.  The
    shift goes into the diagonal frame as s = rot(theta1)^t w.  Angles are reduced to [0, 2*pi); the
    zero matrix gives theta1 = theta2 = 0 and lam = (0, 0).  A^t A is formed
    directly, so entries beyond about 1e154 overflow it into NaN angles.
    """
    # q, d and the shift are summed from +0.0, as numpy's matrix products
    # are: the sign of a zero q picks atan2's branch, that of d lam2's sign
    p = a00 * a00 + a10 * a10
    q = 0.0 + a00 * a01 + a10 * a11
    r = a01 * a01 + a11 * a11
    half = 0.5 * xp.arctan2(2.0 * q, p - r)
    del p, q, r  # each temporary goes once used: on arrays, every one is a chunk
    c, s = xp.cos(half), xp.sin(half)
    del half
    y10, y11 = a00 * c + a01 * s, a10 * c + a11 * s  # A @ (c, s)
    y20, y21 = a01 * c - a00 * s, a11 * c - a10 * s  # A @ (-s, c)
    lam1 = xp.hypot(y10, y11)
    zero = lam1 == 0.0
    norm = xp.where(zero, 1.0, lam1)
    u0, u1 = y10 / norm, y11 / norm
    del y10, y11, norm
    d = 0.0 - u1 * y20 + u0 * y21
    del y20, y21
    size = abs(d)
    lam2 = xp.where(zero, 0.0, xp.copysign(xp.where(lam1 < size, lam1, size), d))
    del d, size
    theta1 = xp.where(zero, 0.0, xp.arctan2(u1, u0)) % TAU
    theta2 = xp.where(zero, 0.0, xp.arctan2(-s, c)) % TAU
    c1, s1 = xp.cos(theta1), xp.sin(theta1)
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
    theta1, theta2, lam1, lam2, s0, s1 = factorize(*channel.a.ravel().tolist(), *channel.w.tolist())
    return CanonicalForm(theta1=theta1, theta2=theta2, lam1=lam1, lam2=lam2, shift=(s0, s1))


def rebuild(theta1, theta2, lam1, lam2, shift) -> tuple[np.ndarray, np.ndarray]:
    """Stacked inverse of :func:`factorize`: rot(theta1) diag(lam1, lam2) rot(theta2) and rot(theta1) s.

    Takes n of each parameter and an (n, 2) array of shifts; returns the
    linear parts (n, 2, 2) and shifts (n, 2).  The rotations are
    :func:`rebit.linalg.rotation_matrix` of the whole angle arrays, one
    ``np.cos`` and one ``np.sin`` call each.
    """
    r1, r2 = rotation_matrix(theta1), rotation_matrix(theta2)
    d = np.zeros((len(lam1), 2, 2))
    d[:, 0, 0], d[:, 1, 1] = lam1, lam2
    return r1 @ d @ r2, (r1 @ shift[:, :, None])[:, :, 0]


def reconstruct(form: CanonicalForm) -> AffineChannel:
    """Rebuild the affine channel described by a canonical form."""
    a, w = rebuild([form.theta1], [form.theta2], [form.lam1], [form.lam2], form.shift[None])
    return AffineChannel(a[0], w[0])


def reconstruction_residual(channel: AffineChannel, form: CanonicalForm) -> float:
    """Max-abs mismatch between the channel and its rebuilt canonical form."""
    rebuilt = reconstruct(form)
    return float(
        max(np.abs(rebuilt.a - channel.a).max(), np.abs(rebuilt.w - channel.w).max())
    )
