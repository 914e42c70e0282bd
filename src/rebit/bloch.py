"""Rebit states: density matrices on R^2 and their Bloch-disk coordinates.

A rebit state is a real symmetric 2x2 matrix with unit trace and nonnegative
eigenvalues.  In the basis (sigma_0, sigma_1, sigma_2) with

    sigma_1 = diag(1, -1),   sigma_2 = [[0, 1], [1, 0]],

every state is rho = (I + v1*sigma_1 + v2*sigma_2) / 2 for a unique Bloch
vector v in the closed unit disk; |v| = 1 exactly for pure states.
"""

import math

import numpy as np

SIGMA_0 = np.eye(2)
SIGMA_1 = np.array([[1.0, 0.0], [0.0, -1.0]])
SIGMA_2 = np.array([[0.0, 1.0], [1.0, 0.0]])

STRUCT_TOL = 1e-12  # symmetry / trace / disk-membership slack


class InvalidStateError(ValueError):
    """Raised when a matrix or Bloch vector does not describe a rebit state."""


def is_valid_state(m: np.ndarray) -> tuple[bool, str | None]:
    """Check whether ``m`` is a rebit density matrix.

    Returns ``(True, None)`` or ``(False, reason)``; never raises.
    """
    try:
        if np.iscomplexobj(m):  # the cast below would drop the imaginary parts with a warning
            raise TypeError("complex entries")
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # a string, a ragged list, a dict, an int past float's range
        return False, f"not a float array: {exc}"
    if m.shape != (2, 2):
        return False, f"expected a 2x2 matrix, got shape {m.shape}"
    if not np.all(np.isfinite(m)):
        return False, "entries are not finite"
    if abs(m[0, 1] - m[1, 0]) > STRUCT_TOL:
        return False, f"not symmetric: |m01 - m10| = {abs(m[0, 1] - m[1, 0]):.3e}"
    tr = m[0, 0] + m[1, 1]
    if abs(tr - 1.0) > STRUCT_TOL:
        return False, f"trace is {tr!r}, expected 1"
    norm = math.hypot(m[0, 0] - m[1, 1], m[0, 1] + m[1, 0])
    if norm > 1.0 + STRUCT_TOL:
        return False, f"Bloch vector norm {norm!r} exceeds 1"
    return True, None


def bloch_from_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr(sigma_1 rho), Tr(sigma_2 rho)) of a valid state."""
    rho = np.asarray(rho, dtype=float)
    ok, reason = is_valid_state(rho)
    if not ok:
        raise InvalidStateError(reason)
    return np.array([rho[0, 0] - rho[1, 1], rho[0, 1] + rho[1, 0]])


def density_from_bloch(v: np.ndarray) -> np.ndarray:
    """Assemble (I + v . sigma) / 2 for a Bloch vector inside the disk, or for each of a stack (..., 2)."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (2,):
        raise InvalidStateError(f"expected a 2-vector or a stack of them, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidStateError("Bloch vector entries must be finite")
    norm = float(np.hypot(v[..., 0], v[..., 1]).max(initial=0.0))
    if norm > 1.0 + STRUCT_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm!r} exceeds 1")
    return np.moveaxis(_assemble_density(v[..., 0], v[..., 1]), (0, 1), (-2, -1))


def state_polar(r: float, theta: float) -> np.ndarray:
    """State with Bloch vector (r cos theta, r sin theta), 0 <= r <= 1."""
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise InvalidStateError("polar parameters must be finite")
    if not 0.0 <= r <= 1.0:
        raise InvalidStateError(f"radius {r!r} outside [0, 1]")
    return _assemble_density(r * math.cos(theta), r * math.sin(theta))


def _assemble_density(v1: float, v2: float) -> np.ndarray:
    """(I + v1 sigma_1 + v2 sigma_2) / 2, unchecked: each caller validates v its own way."""
    return 0.5 * np.array([[1.0 + v1, v2], [v2, 1.0 - v1]])
