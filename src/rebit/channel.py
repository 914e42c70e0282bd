"""Affine representation of candidate rebit channels.

A candidate channel is the pair (A, w) acting on Bloch vectors as
v -> w + A v; trace preservation is built into the representation.  Complete
positivity is *not* assumed here: deciding it is the job of :mod:`rebit.cp`,
and this module happily represents non-admissible maps so the whole parameter
space can be explored.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .bloch import SIGMA_1, SIGMA_2, _assemble_density, bloch_from_density

# Largest shift norm of a unital channel: the structural slack of the state and channel modules
# (bloch.STRUCT_TOL); chosen, not derived; bound by test_is_unital_up_to_unital_tol.  classify's
# zero-shift test uses CLASS_TOL instead, a spec question (README "Conventions").
UNITAL_TOL = 1e-12
# Largest entry of |Omega^t Omega - I| that orthogonal_channel accepts: about 4500 times the 2.2e-16
# that rotation_matrix's cos and sin leave there, so every rotation passes; chosen, not derived;
# bound by test_orthogonal_channel_allows_omega_off_by_ortho_tol.
ORTHO_TOL = 1e-12
# Overshoot past the disk that apply lets through: CP_TOL's size, the slack by which is_cp lets an
# image's peak norm pass 1; chosen, not derived; bound by test_apply_allows_the_disk_to_stretch_by_positivity_tol.
POSITIVITY_TOL = 1e-9
_SIGMAS = np.stack((SIGMA_1, SIGMA_2))


class NotPositiveError(ValueError):
    """The channel pushed a state outside the Bloch disk."""

    def __init__(self, norm: float):
        self.norm = norm
        super().__init__(f"output Bloch vector has norm {norm!r} > 1")


def _frozen_array(a, shape, copy: bool = True) -> np.ndarray:
    a = np.array(a, dtype=float) if copy else np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, slots=True)
class AffineChannel:
    """Candidate channel (A, w) on Bloch vectors: v -> w + A v."""

    a: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen_array(self.a, (2, 2)))
        object.__setattr__(self, "w", _frozen_array(self.w, (2,)))

    @classmethod
    def stacked(cls, a, w) -> list["AffineChannel"]:
        """Channels over the rows of stacked linear parts (n, 2, 2) and shifts (n, 2).

        The stacks are checked once and frozen in place, not copied: each
        channel holds read-only row views of them, so the caller hands float
        arrays over and must not write to them through another reference.
        The instances are made and filled by C-level loops (``map`` over
        ``object.__new__`` and the slots' own setters), with no Python-level
        step per channel.
        """
        a = _frozen_array(a, (len(a), 2, 2), copy=False)
        w = _frozen_array(w, (len(a), 2), copy=False)
        channels = list(map(object.__new__, repeat(cls, len(a))))
        # the slots' own setters, past the frozen __setattr__; deque(..., 0) drains the maps
        deque(map(cls.a.__set__, channels, a), 0)
        deque(map(cls.w.__set__, channels, w), 0)
        return channels

    @classmethod
    def identity(cls) -> "AffineChannel":
        return cls(np.eye(2), np.zeros(2))

    @classmethod
    def diagonal(cls, lam1: float, lam2: float, w1: float = 0.0, w2: float = 0.0) -> "AffineChannel":
        return cls(np.diag([lam1, lam2]), np.array([w1, w2]))

    def to_json_dict(self) -> dict:
        return {"A": self.a.tolist(), "w": self.w.tolist()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AffineChannel":
        """Parse the channel wire format {"A": 2x2, "w": 2-vector, "name"?}."""
        if not isinstance(doc, dict):
            raise ValueError("channel document must be a JSON object")
        unknown = set(doc) - {"A", "w", "name"}
        if unknown:
            raise ValueError(f"unknown channel document fields: {sorted(unknown)}")
        if "A" not in doc or "w" not in doc:
            raise ValueError("channel document requires fields 'A' and 'w'")
        if "name" in doc and not isinstance(doc["name"], str):
            raise ValueError("channel document field 'name' must be a string")
        if not (_numbers_only(doc["A"]) and _numbers_only(doc["w"])):
            raise ValueError("channel document entries must be numbers, not strings or booleans")
        try:
            a = np.array(doc["A"], dtype=float)
            w = np.array(doc["w"], dtype=float)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"channel document entries are not numeric: {exc}") from None
        return cls(a, w)


def _numbers_only(value) -> bool:
    """True for a JSON number or nested list of them; numpy would also take booleans and "0.1"."""
    if isinstance(value, list):
        return all(map(_numbers_only, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class OrthogonalChannel:
    """Conjugation rho -> Omega rho Omega^t together with its Bloch map."""

    omega: np.ndarray
    bloch_map: np.ndarray = field(compare=False)

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        return self.omega @ np.asarray(rho, dtype=float) @ np.swapaxes(self.omega, -1, -2)


def apply(channel: AffineChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel to a state; output trace is 1 by construction.

    Raises :class:`NotPositiveError` when the image Bloch vector leaves the
    disk by more than ``POSITIVITY_TOL``, which signals the map is not even
    positive on this state.
    """
    v = channel.w + channel.a @ bloch_from_density(rho)
    norm = math.hypot(v[0], v[1])
    if norm > 1.0 + POSITIVITY_TOL:
        raise NotPositiveError(norm)
    return _assemble_density(v[0], v[1])


def compose(first: AffineChannel, second: AffineChannel) -> AffineChannel:
    """Channel running ``second`` first: v -> w1 + A1 (w2 + A2 v)."""
    return AffineChannel(first.a @ second.a, first.w + first.a @ second.w)


def is_unital(channel: AffineChannel) -> bool:
    """True when the maximally mixed state is fixed (zero shift)."""
    return math.hypot(channel.w[0], channel.w[1]) <= UNITAL_TOL


def orthogonal_channel(omega: np.ndarray) -> OrthogonalChannel:
    """Build the conjugation channel for Omega in O(2), or one for a stack (..., 2, 2) of them.

    The induced Bloch map is the trace formula
    R_jk = Tr(sigma_j Omega sigma_k Omega^t) / 2, contracted in one einsum.
    Rotations by alpha induce the Bloch rotation by 2*alpha; reflections
    induce Bloch reflections, so det(R) always equals det(Omega).  Every
    matrix of a stack must be orthogonal to within ``ORTHO_TOL``.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-2:] != (2, 2) or not np.all(np.isfinite(omega)):
        raise ValueError("Omega must be a finite 2x2 matrix or a stack of them")
    if np.abs(np.swapaxes(omega, -1, -2) @ omega - np.eye(2)).max(initial=0.0) > ORTHO_TOL:
        raise ValueError("Omega is not orthogonal")
    r = 0.5 * np.einsum("jab,...bc,kcd,...ad->...jk", _SIGMAS, omega, _SIGMAS, omega)
    return OrthogonalChannel(omega=omega, bloch_map=r)


def as_affine(channel: OrthogonalChannel) -> AffineChannel:
    """The orthogonal channel as an affine pair (R_Omega, 0); unital."""
    return AffineChannel(channel.bloch_map, np.zeros(2))

