"""Fixed-size numeric kernels: 2x2 rotations and SVD, symmetric 3x3 eigenvalues.

Everything here is closed-form or a tiny fixed iteration, deliberately
self-contained so the rest of the package can use it as an independent
numerical oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi
MATRIX_TOL = 1e-12  # orthogonality / symmetry slack of the from_matrix constructors
JACOBI_TOL = 1e-14  # off-diagonal size at which the Jacobi sweeps stop
JACOBI_MAX_SWEEPS = 100


def rotation_matrix(theta: float) -> np.ndarray:
    """Counterclockwise rotation [[cos t, -sin t], [sin t, cos t]]."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class Rotation2:
    """A plane rotation stored as its angle, normalized to [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        if not math.isfinite(self.angle):
            raise ValueError(f"rotation angle must be finite, got {self.angle!r}")
        object.__setattr__(self, "angle", float(self.angle) % TAU)

    @property
    def matrix(self) -> np.ndarray:
        return rotation_matrix(self.angle)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Rotation2":
        m = np.asarray(m, dtype=float)
        if np.abs(m.T @ m - np.eye(2)).max() > MATRIX_TOL or abs(_det2(m) - 1.0) > MATRIX_TOL:
            raise ValueError("matrix is not a rotation (orthogonal with det 1)")
        return cls(math.atan2(m[1, 0], m[0, 0]))


@dataclass(frozen=True)
class Sym3:
    """A real symmetric 3x3 matrix stored as its upper triangle."""

    d00: float
    d01: float
    d02: float
    d11: float
    d12: float
    d22: float

    def __post_init__(self):
        for name in ("d00", "d01", "d02", "d11", "d12", "d22"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Sym3 entry {name} must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.d00, self.d01, self.d02],
                [self.d01, self.d11, self.d12],
                [self.d02, self.d12, self.d22],
            ]
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Sym3":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if np.abs(m - m.T).max() > MATRIX_TOL:
            raise ValueError("matrix is not symmetric")
        return cls(m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])

    def trace(self) -> float:
        return self.d00 + self.d11 + self.d22

    def det(self) -> float:
        return (
            self.d00 * (self.d11 * self.d22 - self.d12 * self.d12)
            - self.d01 * (self.d01 * self.d22 - self.d12 * self.d02)
            + self.d02 * (self.d01 * self.d12 - self.d11 * self.d02)
        )


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _check_finite_2x2(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def svd2(a: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Closed-form SVD of a real 2x2 matrix: a = o1 @ diag(s1, s2) @ o2.T.

    Returns (o1, s1, s2, o2) with s1 >= s2 >= 0, o2 always a rotation and any
    reflection absorbed into o1.  The right factor comes from the exact
    eigen-rotation of a.T @ a, the left factor from the images of its columns,
    so both factors are orthogonal by construction.  The zero matrix yields
    identity factors.  The package factors channels with
    :func:`rebit.canonical.factorize`; the tests keep this function as a
    reference for it.
    """
    a = _check_finite_2x2(a)
    ata = a.T @ a
    p, q, r = ata[0, 0], ata[0, 1], ata[1, 1]
    # half-angle of the Jacobi rotation diagonalizing a.T @ a, larger
    # eigenvalue first; exact ties (q = 0, p = r) give theta = 0, i.e. o2 = I
    theta = 0.5 * math.atan2(2.0 * q, p - r)
    o2 = rotation_matrix(theta)
    y1 = a @ o2[:, 0]
    y2 = a @ o2[:, 1]
    s1 = math.hypot(y1[0], y1[1])
    if s1 == 0.0:
        return np.eye(2), 0.0, 0.0, np.eye(2)
    u1 = y1 / s1
    u2 = np.array([-u1[1], u1[0]])
    s2 = float(u2 @ y2)
    if s2 < 0.0:
        u2 = -u2
        s2 = -s2
    s2 = min(s2, s1)
    o1 = np.column_stack([u1, u2])
    return o1, s1, float(s2), o2


def _jacobi_cs(app, aqq, apq, sqrt=math.sqrt, copysign=math.copysign):
    """(c, s, t) of the rotation annihilating apq; ``np.sqrt``/``np.copysign`` run it over arrays."""
    tau = (aqq - app) / (2.0 * apq)
    t = copysign(1.0, tau) / (abs(tau) + sqrt(1.0 + tau * tau))
    c = 1.0 / sqrt(1.0 + t * t)
    return c, t * c, t


def eig_sym3(m: Sym3) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix, sorted descending.

    Cyclic Jacobi rotations until the largest off-diagonal entry drops below
    ``JACOBI_TOL`` or ``JACOBI_MAX_SWEEPS`` sweeps have run.  Each rotation
    annihilates one off-diagonal entry exactly, so the iteration is
    unconditionally stable.
    """
    a00, a01, a02 = m.d00, m.d01, m.d02
    a11, a12, a22 = m.d11, m.d12, m.d22
    for _ in range(JACOBI_MAX_SWEEPS):
        if max(abs(a01), abs(a02), abs(a12)) < JACOBI_TOL:
            break
        if a01 != 0.0:
            c, s, t = _jacobi_cs(a00, a11, a01)
            a00 -= t * a01
            a11 += t * a01
            a01 = 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
        if a02 != 0.0:
            c, s, t = _jacobi_cs(a00, a22, a02)
            a00 -= t * a02
            a22 += t * a02
            a02 = 0.0
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
        if a12 != 0.0:
            c, s, t = _jacobi_cs(a11, a22, a12)
            a11 -= t * a12
            a22 += t * a12
            a12 = 0.0
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
    e = sorted((a00, a11, a22), reverse=True)
    return e[0], e[1], e[2]


def _rotate_lanes(app, aqq, apq, arp, arq, live):
    """One Jacobi rotation of :func:`eig_sym3` on the live lanes where apq is nonzero.

    Returns the updated (app, aqq, apq, arp, arq); every other lane keeps its
    entries unchanged, exactly as the scalar loop skips a zero entry.
    """
    on = live & (apq != 0.0)
    c, s, t = _jacobi_cs(app, aqq, np.where(on, apq, 1.0), np.sqrt, np.copysign)
    new = (app - t * apq, aqq + t * apq, np.zeros_like(apq), c * arp - s * arq, s * arp + c * arq)
    if on.all():
        return new
    return tuple(np.where(on, n, old) for n, old in zip(new, (app, aqq, apq, arp, arq)))


def eig_sym3_batch(d00, d01, d02, d11, d12, d22) -> np.ndarray:
    """Eigenvalues of a stack of symmetric 3x3 matrices given entrywise, shape (..., 3).

    The entries broadcast against each other.  Each lane runs the cyclic
    Jacobi of :func:`eig_sym3` with the same arithmetic: a rotation is skipped
    where its entry is exactly 0, and a lane freezes once its largest
    off-diagonal entry is below ``JACOBI_TOL``.  Rows are sorted descending
    with ties kept in diagonal order, as ``sorted`` does, so every row equals
    ``eig_sym3`` of that lane bit for bit.  The fixed cost of the array calls
    makes it much slower than ``eig_sym3`` on a single matrix.
    """
    a00, a01, a02, a11, a12, a22 = (
        np.array(x, dtype=float) for x in np.broadcast_arrays(d00, d01, d02, d11, d12, d22)
    )
    live = np.ones(a00.shape, dtype=bool)
    with np.errstate(over="ignore"):  # tau * tau may overflow to inf, as it does on floats
        for _ in range(JACOBI_MAX_SWEEPS):
            live &= np.maximum(np.maximum(abs(a01), abs(a02)), abs(a12)) >= JACOBI_TOL
            if not live.any():
                break
            a00, a11, a01, a02, a12 = _rotate_lanes(a00, a11, a01, a02, a12, live)
            a00, a22, a02, a01, a12 = _rotate_lanes(a00, a22, a02, a01, a12, live)
            a11, a22, a12, a01, a02 = _rotate_lanes(a11, a22, a12, a01, a02, live)
    e = np.stack((a00, a11, a22), axis=-1)
    return np.take_along_axis(e, np.argsort(-e, axis=-1, kind="stable"), axis=-1)
