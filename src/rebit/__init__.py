"""Classification toolkit for rebit channels.

States live on the Bloch disk, candidate channels are affine maps (A, w) on
Bloch vectors, and the package provides the canonical
rotation-diagonal-rotation factorization, the chi-matrix complete-positivity
test, the Kraus-rank taxonomy and deterministic SVG rendering.
"""

from .bloch import (
    InvalidStateError,
    SIGMA_0,
    SIGMA_1,
    SIGMA_2,
    bloch_from_density,
    density_from_bloch,
    is_valid_state,
    state_polar,
)
from .canonical import CanonicalForm, canonical_decompose, decompose_channel, reconstruct
from .channel import (
    AffineChannel,
    NotPositiveError,
    OrthogonalChannel,
    apply,
    as_affine,
    compose,
    is_unital,
    orthogonal_channel,
)
from .classify import (
    ChannelClass,
    CompletelyDepolarizing,
    Depolarizing,
    General,
    Identity,
    ImageEllipse,
    Linear,
    NotCompletelyPositiveError,
    PhaseFlip,
    classify,
    ellipse_peak_norm,
    image_ellipse,
    kraus_rank,
    sample_cp_channel,
    sample_cp_channels,
)
from .cp import (
    CpReport,
    admissible_pentagon,
    charpoly_coeffs,
    chi_matrix,
    diagonal_frame,
    is_cp,
    q_values,
    shift_region_contains,
)
from .linalg import Rotation2, Sym3, eig_sym3, rotation_matrix, svd2
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "AffineChannel",
    "CanonicalForm",
    "ChannelClass",
    "CompletelyDepolarizing",
    "CpReport",
    "Depolarizing",
    "General",
    "Identity",
    "ImageEllipse",
    "InvalidStateError",
    "Linear",
    "NotCompletelyPositiveError",
    "NotPositiveError",
    "OrthogonalChannel",
    "PhaseFlip",
    "Rotation2",
    "SIGMA_0",
    "SIGMA_1",
    "SIGMA_2",
    "Sym3",
    "VerifyReport",
    "admissible_pentagon",
    "apply",
    "as_affine",
    "bloch_from_density",
    "canonical_decompose",
    "charpoly_coeffs",
    "chi_matrix",
    "classify",
    "compose",
    "decompose_channel",
    "density_from_bloch",
    "diagonal_frame",
    "eig_sym3",
    "ellipse_peak_norm",
    "image_ellipse",
    "is_cp",
    "is_unital",
    "is_valid_state",
    "kraus_rank",
    "orthogonal_channel",
    "q_values",
    "reconstruct",
    "rotation_matrix",
    "run_verify",
    "sample_cp_channel",
    "sample_cp_channels",
    "shift_region_contains",
    "state_polar",
    "svd2",
]
