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
Jacobi eigenvalues of chi, given by the six upper-triangle entries that
:func:`chi_matrix` returns.  A channel is completely positive when the closed
form holds in its canonical frame (lam1 >= |lam2|) and the image of the disk
stays in the disk there: :func:`decide` after :func:`canonical_frame`, which
:func:`is_cp` calls, and after its scale part :func:`canonical_scales`, which
the sampler calls before it draws a shift.  The report gives the q-values,
margin and rank in the diagonal frame, where diagonal channels keep their
literal coefficients, the frame the rank taxonomy lives in.
"""

from dataclasses import dataclass

from .canonical import decompose_channel
from .channel import AffineChannel
from .linalg import FLOATS, _peak_bracket, _peak_norm, eig_sym3

CP_TOL = 1e-9  # one-sided boundary slack: the admissible region is closed
PEAK_BAND = 1e-9  # band around (1 + tol)^2 in which decide's bounds on the squared peak norm defer to the next stage
DIAGONAL_TOL = 1e-12
TIE_TOL = 1e-12  # lam1 + lam2 at or below which a reflection's two scales tie


def chi_matrix(lam1, lam2, w1=0.0, w2=0.0) -> tuple:
    """Upper triangle (d00, d01, d02, d11, d12, d22) of the chi matrix; accepts arrays.

    The entries :func:`rebit.linalg.eig_sym3` and ``jacobi_batch`` take, written
    out from the definition rather than through :func:`q_values`, so the
    eigenvalue oracle run on them shares no code with the closed form it checks.
    """
    return (
        0.5 * (1.0 + lam1 + lam2),
        0.5 * w1,
        0.5 * w2,
        0.5 * (1.0 + lam1 - lam2),
        0.0,
        0.5 * (1.0 - lam1 + lam2),
    )


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
    _, _, margin = closed_form_verdict(lam1, lam2, w1, w2)
    return _charpoly_from_margin(lam1, lam2, w1, w2, margin)


def _charpoly_from_margin(lam1, lam2, w1, w2, margin) -> tuple:
    """:func:`charpoly_coeffs` given the margin of :func:`closed_form_verdict`."""
    ssum = lam1 + lam2
    a = 3.0 + ssum
    b = 3.0 - (w1 * w1 + w2 * w2) + 2.0 * ssum - ssum * ssum
    return a, b, margin / 8.0


def shift_region_contains(lam1: float, lam2: float, w1: float, w2: float) -> tuple[bool, float]:
    """The determinant condition of :func:`closed_form_verdict` alone: (margin >= -CP_TOL, margin)."""
    _, _, margin = closed_form_verdict(lam1, lam2, w1, w2)
    return margin >= -CP_TOL, margin


def closed_form_verdict(lam1, lam2, w1, w2, tol=CP_TOL) -> tuple:
    """Closed-form CP verdict at diagonal coefficients: (verdict, q, margin).

    margin = 8 q0 q1 q2 - w1^2 (1-lam1+lam2) - w2^2 (1+lam1-lam2), which is
    8 det(chi).  The q-values and the margin may fall ``tol`` below 0.  At
    zero shift and ``tol`` 0 the margin 8 q0 q1 q2 is nonnegative wherever the
    q-values are, so the verdict is the unital admissible pentagon.  Array
    arguments give elementwise verdicts; Python floats give a ``bool``.
    """
    q0, q1, q2 = q = q_values(lam1, lam2)
    margin = 8.0 * q0 * q1 * q2 - w1 * w1 * (2.0 * q2) - w2 * w2 * (2.0 * q1)
    return (q0 >= -tol) & (q1 >= -tol) & (q2 >= -tol) & (margin >= -tol), q, margin


def canonical_scales(lam1, lam2, xp):
    """The scales of :func:`canonical_frame` alone: (lam1, lam2) folded onto lam1 >= |lam2|."""
    a1, a2 = abs(lam1), abs(lam2)
    lo = xp.minimum(a1, a2)
    return xp.maximum(a1, a2), xp.where(lam1 * lam2 < 0.0, -lo, lo)


def canonical_frame(lam1, lam2, w1, w2, xp):
    """Diagonal coefficients folded onto the canonical frame lam1 >= |lam2|; ``xp`` as in :mod:`rebit.linalg`.

    A quarter turn swaps the axes and the shift where |lam1| < |lam2|, a half
    turn flips both scales where the larger is negative.  A tied reflection
    (lam1 + lam2 <= ``TIE_TOL``) takes its shift onto the first axis, the
    most lenient of its frames.  FLOATS and numpy give the same bits.
    """
    hi, lo = canonical_scales(lam1, lam2, xp)
    norm = xp.sqrt(w1 * w1 + w2 * w2)  # before the swap, which leaves it alone: scalar shifts stay scalar
    swap = abs(lam1) < abs(lam2)
    w1, w2 = xp.where(swap, w2, w1), xp.where(swap, w1, w2)
    tie = (lo < 0.0) & (hi + lo <= TIE_TOL)  # lo < 0 only where the half turn flipped one scale
    return hi, lo, xp.where(tie, norm, w1), xp.where(tie, 0.0, w2)


def decide(lam1, lam2, w1, w2, xp, tol=CP_TOL) -> tuple:
    """CP verdict in the canonical frame: (verdict, q, margin); ``xp`` as in :mod:`rebit.linalg`.

    :func:`closed_form_verdict` and a peak norm of the image of at most 1, each
    with slack ``tol``: ``CP_TOL`` in :func:`is_cp`, 0 in the sampler.  The
    peak norm is settled in three stages, each on the lanes the last leaves
    open.  First closed-form bounds on the squared peak norm: at most |w|^2 +
    lam1^2 + 2 |b|, with b = (lam1 |w1|, |lam2 w2|), and at least the squared
    norm of the image's farthest point on either axis, (|w1| + lam1, |w2|) or
    (|w1|, |w2| + |lam2|).  Then the bracket of
    :func:`rebit.linalg._peak_bracket`, BRACKET_STEPS Newton steps in.  Then
    the Newton peak norm of :func:`rebit.linalg._peak_norm`, the same kernel
    NEWTON_STEPS steps in.  A bound that lies more than ``PEAK_BAND`` on its
    side of (1 + tol)^2 decides: far beyond the bounds' rounding and the peak
    norm's error, so every stage gives the verdict the Newton peak norm
    gives.  Floats and arrays run the same stages; arrays compress each
    stage's open lanes out.
    """
    verdict, q, margin = closed_form_verdict(lam1, lam2, w1, w2, tol)
    a2, z1, z2 = abs(lam2), abs(w1), abs(w2)
    b1, b2 = lam1 * z1, a2 * z2
    v1, v2 = w1 * w1, w2 * w2
    edge = (1.0 + tol) * (1.0 + tol)
    inside = verdict & (v1 + v2 + lam1 * lam1 + 2.0 * xp.sqrt(b1 * b1 + b2 * b2) <= edge - PEAK_BAND)
    p1, p2 = z1 + lam1, z2 + a2
    unsure = (verdict ^ inside) & (xp.maximum(p1 * p1 + v2, v1 + p2 * p2) <= edge + PEAK_BAND)
    return _settle(inside, unsure, (w1, w2, lam1, a2), _bracketed, xp, tol), q, margin


def _bracketed(s1, s2, a1, a2, xp, tol):
    """Whether the peak norm is at most 1 + tol: by :func:`rebit.linalg._peak_bracket` where it decides, else Newton."""
    lower, upper = _peak_bracket(s1, s2, a1, a2, xp)
    edge = (1.0 + tol) * (1.0 + tol)
    inside = upper <= edge - PEAK_BAND
    unsure = (lower <= edge + PEAK_BAND) ^ inside  # the lower bound is below the upper one
    return _settle(inside, unsure, (s1, s2, a1, a2), _newton_contained, xp, tol)


def _newton_contained(s1, s2, a1, a2, xp, tol):
    return _peak_norm(s1, s2, a1, a2, xp) <= 1.0 + tol


def _settle(inside, unsure, lanes, stage, xp, tol):
    """``inside`` with each ``unsure`` lane replaced by ``stage`` run on its ``lanes``.

    A single lane (floats or 0-d arrays) runs the stage only when unsure;
    arrays compress the unsure lanes out, broadcasting only what needs it:
    ``broadcast_to`` costs as much as several ufuncs.
    """
    if xp is FLOATS or xp.ndim(unsure) == 0:
        return inside or (unsure and stage(*lanes, xp, tol))
    if unsure.any():
        shape = unsure.shape
        lanes = (x[unsure] if xp.shape(x) == shape else xp.broadcast_to(x, shape)[unsure] for x in lanes)
        inside[unsure] = stage(*lanes, xp, tol)
    return inside


def chi_rank(chi: tuple) -> int:
    """Number of eigenvalues above ``CP_TOL`` of the :func:`chi_matrix` entries: the Kraus rank of a CP map."""
    return sum(1 for e in eig_sym3(*chi) if e > CP_TOL)


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
    """Decide complete positivity in the :func:`canonical_frame`; report q, margin and rank in the diagonal frame."""
    frame = diagonal_frame(channel)
    canonical = canonical_frame(*frame, FLOATS)
    verdict, q, margin = decide(*canonical, FLOATS)
    if canonical != frame:
        _, q, margin = closed_form_verdict(*frame)
    a, b, det_chi = _charpoly_from_margin(*frame, margin)
    rank = chi_rank(chi_matrix(*frame))
    return CpReport(q=q, a=a, b=b, det_chi=det_chi, margin=margin, is_cp=verdict, kraus_rank=rank, frame=frame)


def admissible_pentagon() -> list[tuple[float, float]]:
    """Vertices of the unital admissibility region, counterclockwise."""
    return [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
