"""Chi-matrix construction and the complete-positivity decision procedure.

For the diagonal map with scale coefficients (lam1, lam2) and shift
(w1, w2), the chi matrix in the orthonormal basis (sigma_0, sigma_1,
sigma_2)/sqrt(2) is

    chi = 1/2 * [[1+lam1+lam2, w1,           w2          ],
                 [w1,          1+lam1-lam2,  0           ],
                 [w2,          0,            1-lam1+lam2 ]]

and the map is completely positive iff chi is positive semi-definite.  The
closed-form test used everywhere: the three q-values (the unital eigenvalues)
must be nonnegative and the determinant condition must hold in multiplied-out
form

    w1^2 (1-lam1+lam2) + w2^2 (1+lam1-lam2) <= 8 q0 q1 q2,

which stays meaningful when any factor vanishes, unlike the divided ellipse
form.  It is written only here; :mod:`rebit.verify` checks it against the
Jacobi eigenvalues of chi.  Diagonal channels are decided at their literal
coefficients, the frame the rank taxonomy lives in; everything else is
routed through the canonical factorization first.
"""

from dataclasses import dataclass

from .canonical import decompose_channel
from .channel import AffineChannel
from .linalg import Sym3, eig_sym3

CP_TOL = 1e-9  # one-sided boundary slack: the admissible region is closed
DIAGONAL_TOL = 1e-12


def chi_entries(lam1, lam2, w1=0.0, w2=0.0) -> tuple:
    """Upper triangle (d00, d01, d02, d11, d12, d22) of the chi matrix; accepts arrays.

    Written out from the definition rather than through :func:`q_values`, so the
    eigenvalue oracle that :mod:`rebit.verify` runs on it shares no code with
    the closed form it checks.
    """
    return (
        0.5 * (1.0 + lam1 + lam2),
        0.5 * w1,
        0.5 * w2,
        0.5 * (1.0 + lam1 - lam2),
        0.0,
        0.5 * (1.0 - lam1 + lam2),
    )


def chi_matrix(lam1: float, lam2: float, w1: float = 0.0, w2: float = 0.0) -> Sym3:
    """Chi matrix of the diagonal map, assembled entrywise."""
    return Sym3(*chi_entries(lam1, lam2, w1, w2))


def q_values(lam1: float, lam2: float) -> tuple[float, float, float]:
    """Diagonal chi entries (q0, q1, q2); the unital eigenvalues."""
    return (
        0.5 * (1.0 + lam1 + lam2),
        0.5 * (1.0 + lam1 - lam2),
        0.5 * (1.0 - lam1 + lam2),
    )


def charpoly_coeffs(lam1: float, lam2: float, w1: float = 0.0, w2: float = 0.0) -> tuple[float, float, float]:
    """Sign-condition coefficients (a, b, det_chi) of the chi matrix.

    a/2 is the trace and det_chi the determinant of chi.  b is the disk-bound
    coefficient: b >= 0 exactly when ||w||^2 <= 3 + 2(lam1+lam2) -
    (lam1+lam2)^2, and the determinant condition makes it redundant.  All
    three being nonnegative certifies, through the sign pattern of the
    characteristic cubic, that no eigenvalue of chi is negative.
    """
    _, margin = shift_region_contains(lam1, lam2, w1, w2)
    return _charpoly_from_margin(lam1, lam2, w1, w2, margin)


def _charpoly_from_margin(lam1, lam2, w1, w2, margin) -> tuple:
    """:func:`charpoly_coeffs` given the margin of :func:`shift_region_contains`."""
    ssum = lam1 + lam2
    a = 3.0 + ssum
    b = 3.0 - (w1 * w1 + w2 * w2) + 2.0 * ssum - ssum * ssum
    return a, b, margin / 8.0


def shift_region_contains(lam1: float, lam2: float, w1: float, w2: float) -> tuple[bool, float]:
    """Determinant condition in multiplied-out form, with its slack.

    margin = 8 q0 q1 q2 - w1^2 (1-lam1+lam2) - w2^2 (1+lam1-lam2), which is
    8 det(chi); the shift is admissible when the margin is nonnegative
    (within ``CP_TOL``).  Callers must already have checked q0, q1, q2 >= 0.
    """
    q0, q1, q2 = q_values(lam1, lam2)
    margin = 8.0 * q0 * q1 * q2 - w1 * w1 * (2.0 * q2) - w2 * w2 * (2.0 * q1)
    return margin >= -CP_TOL, margin


def closed_form_verdict(
    lam1: float, lam2: float, w1: float, w2: float
) -> tuple[bool, tuple[float, float, float], float]:
    """Closed-form CP verdict at diagonal coefficients: (verdict, q, margin).

    Array arguments give elementwise verdicts; Python floats give a ``bool``.
    """
    q0, q1, q2 = q = q_values(lam1, lam2)
    contained, margin = shift_region_contains(lam1, lam2, w1, w2)
    return (q0 >= -CP_TOL) & (q1 >= -CP_TOL) & (q2 >= -CP_TOL) & contained, q, margin


def chi_rank(chi: Sym3) -> int:
    """Number of chi eigenvalues above ``CP_TOL``: the Kraus rank of a CP map."""
    return sum(1 for e in eig_sym3(chi) if e > CP_TOL)


@dataclass(frozen=True)
class CpReport:
    """Structured complete-positivity verdict for one channel."""

    q: tuple[float, float, float]
    a: float
    b: float
    det_chi: float
    margin: float
    is_cp: bool
    kraus_rank: int
    frame: tuple[float, float, float, float]  # (lam1, lam2, w1, w2) of diagonal_frame; not serialized

    def to_json_dict(self) -> dict:
        doc = dict(vars(self), q=list(self.q))  # fields in declaration order
        del doc["frame"]
        return doc


def diagonal_frame(channel: AffineChannel) -> tuple[float, float, float, float]:
    """Scale and shift coefficients of the channel's diagonal representation.

    Diagonal channels keep their literal coefficients (signs and ordering
    included), because the rank taxonomy distinguishes e.g. diag(-1, 0) from
    diag(1, 0).  Anything else goes through the canonical factorization,
    whose data is invariant under orthogonal dressing.
    """
    a = channel.a
    if abs(a[0, 1]) <= DIAGONAL_TOL and abs(a[1, 0]) <= DIAGONAL_TOL:
        return float(a[0, 0]), float(a[1, 1]), float(channel.w[0]), float(channel.w[1])
    form = decompose_channel(channel)
    return form.lam1, form.lam2, float(form.shift[0]), float(form.shift[1])


def is_cp(channel: AffineChannel) -> CpReport:
    """Decide complete positivity and assemble the full report."""
    frame = diagonal_frame(channel)
    verdict, q, margin = closed_form_verdict(*frame)
    a, b, det_chi = _charpoly_from_margin(*frame, margin)
    rank = chi_rank(chi_matrix(*frame))
    return CpReport(
        q=q, a=a, b=b, det_chi=det_chi, margin=margin, is_cp=verdict, kraus_rank=rank, frame=frame
    )


def admissible_pentagon() -> list[tuple[float, float]]:
    """Vertices of the unital admissibility region, counterclockwise."""
    return [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
