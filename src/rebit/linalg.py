"""Fixed-size numeric kernels: 2x2 rotations, symmetric 3x3 eigenvalues, ellipse peak norms.

Everything here is closed-form or a tiny fixed iteration.  The Jacobi
eigenvalues, and the eigenvalue inclusion bounds that settle most points
before them, share no derivation with the CP closed form, so ``verify`` uses
them as its oracle; :func:`svd2` only reads the canonical factorization,
which the tests check against LAPACK.  A kernel that runs on both Python
floats and numpy arrays takes ``xp``: :data:`FLOATS` for floats, the
``numpy`` module for arrays, elementwise.
"""

import math
from types import SimpleNamespace

import numpy as np

TAU = 2.0 * math.pi
JACOBI_TOL = 1e-14  # off-diagonal size at which the Jacobi sweeps stop
JACOBI_MAX_SWEEPS = 100  # chosen, not derived: random lanes freeze in 4 sweeps; bound by test_eig_sym3_random_charpoly
# Band beyond a floor that the eigenvalue bounds of floor_bounds must clear to settle a lane,
# times 1 + max |a_ii| + max r_i (Gershgorin's radii): 50 times the converged sweeps'
# distance to the spectrum (||offdiag||_2 <= max r_i < 2 JACOBI_TOL, absolute), and over
# 1000 times the rounding of the bounds and of the sweeps (a few dozen ulps of that scale).
FLOOR_BAND = 1e-12
NEWTON_STEPS = 8  # 6 already agree with 60 to 5e-16 on near-tangent, near-circle and log-scaled ellipses


def _where(cond, if_true, if_false):
    return if_true if cond else if_false


def _maximum(x, y):  # the builtin max(x, y), signed zeros included, but a NaN in either wins, as in np.maximum
    return y if y > x or y != y else x


def _minimum(x, y):  # the builtin min(x, y), signed zeros included, but a NaN in either wins, as in np.minimum
    return y if y < x or y != y else x


# numpy's names bound to math and builtins that round alike on finite inputs, so a kernel taking xp gives a lane
# the same bits with FLOATS as with numpy.  arctan2, hypot, cos and sin do not: kernels call numpy's on every path.
FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    copysign=math.copysign,
    maximum=_maximum,
    minimum=_minimum,
    all=bool,
    any=bool,
    where=_where,
)


def rotation_matrix(theta) -> np.ndarray:
    """Counterclockwise rotation [[cos t, -sin t], [sin t, cos t]]; a stack (..., 2, 2) for an array of angles.

    One path for floats and arrays, through ``np.cos`` and ``np.sin``, so an
    angle's rotation has the same bits alone, inside an array and in
    :func:`rebit.canonical.rebuild`'s written-out products.
    """
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"rotation angles must be finite, got {theta!r}")
    c, s = np.cos(theta), np.sin(theta)
    r = np.empty(np.shape(theta) + (2, 2))
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 1, 0] = s
    r[..., 0, 1] = -s
    return r


def svd2(a: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """SVD of a real 2x2 matrix, a = o1 @ diag(s1, s2) @ o2.T, read off :func:`rebit.canonical.canonical_decompose`.

    Returns (o1, s1, s2, o2) with (s1, s2) = (lam1, |lam2|), o1 = rot(theta1)
    @ diag(1, sign lam2), so any reflection sits in o1 (-0.0 counts as
    positive), and o2 = rot(theta2).T, always a rotation.  The zero matrix
    yields identity factors; a non-finite entry raises ValueError.  No src
    path calls it.
    """
    from .canonical import canonical_decompose  # canonical imports this module

    theta1, (lam1, lam2), theta2 = canonical_decompose(a)
    o1 = rotation_matrix(theta1) @ np.diag([1.0, math.copysign(1.0, lam2 + 0.0)])
    return o1, lam1, abs(lam2), rotation_matrix(theta2).T


def _jacobi_cs(app, aqq, apq, xp):
    """(c, s, t) of the rotation annihilating apq."""
    tau = (aqq - app) / (2.0 * apq)
    t = xp.copysign(1.0, tau) / (abs(tau) + xp.sqrt(1.0 + tau * tau))
    c = 1.0 / xp.sqrt(1.0 + t * t)
    return c, t * c, t


def _rotate(app, aqq, apq, arp, arq, xp):
    """One Jacobi rotation annihilating apq, applied where apq is nonzero.

    Returns the updated (app, aqq, apq, arp, arq); a lane whose apq is
    exactly 0 keeps its entries unchanged.  Where every lane rotates, apq
    comes back as the float 0.0, which broadcasts like an array of zeros and
    costs no array call.
    """
    on = apq != 0.0
    every = xp.all(on)
    c, s, t = _jacobi_cs(app, aqq, apq if every else xp.where(on, apq, 1.0), xp)
    shift = t * apq
    new = (app - shift, aqq + shift, 0.0, c * arp - s * arq, s * arp + c * arq)
    if every:
        return new
    return tuple(xp.where(on, n, old) for n, old in zip(new, (app, aqq, apq, arp, arq)))


def _sweep(a00, a01, a02, a11, a12, a22, xp):
    """One cyclic Jacobi sweep over the upper triangle: rotations in the (0, 1), (0, 2) and (1, 2) planes."""
    a00, a11, a01, a02, a12 = _rotate(a00, a11, a01, a02, a12, xp)
    a00, a22, a02, a01, a12 = _rotate(a00, a22, a02, a01, a12, xp)
    a11, a22, a12, a01, a02 = _rotate(a11, a22, a12, a01, a02, xp)
    return a00, a01, a02, a11, a12, a22


def _live(a01, a02, a12, xp):
    """True where the largest off-diagonal entry is still at least JACOBI_TOL (False on NaN)."""
    return xp.maximum(xp.maximum(abs(a01), abs(a02)), abs(a12)) >= JACOBI_TOL


def _freeze(a, xp):
    """The final (a00, a11, a22) of cyclic Jacobi sweeps on a = (a00, a01, a02, a11, a12, a22), until no lane is live.

    At most ``JACOBI_MAX_SWEEPS`` sweeps run.  A frozen lane keeps its entries
    while the live ones sweep on, so each lane gets its bits alone; where
    every lane is live, the sweep's entries are taken whole, as in :func:`_rotate`.
    """
    for _ in range(JACOBI_MAX_SWEEPS):
        live = _live(a[1], a[2], a[4], xp)
        every = xp.all(live)
        if not (every or xp.any(live)):
            break
        new = _sweep(*a, xp)
        a = new if every else tuple(xp.where(live, n, old) for n, old in zip(new, a))
    return a[0], a[3], a[5]


def eig_sym3(d00, d01, d02, d11, d12, d22) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix given by its upper triangle, sorted descending.

    Cyclic Jacobi rotations, each annihilating one off-diagonal entry exactly,
    so the iteration is unconditionally stable.  A rotation is skipped where
    its entry is exactly 0, and the sweeps stop once the largest off-diagonal
    entry is below ``JACOBI_TOL`` or ``JACOBI_MAX_SWEEPS`` sweeps have run
    (:func:`_freeze`, the loop :func:`jacobi_batch` runs on arrays).
    Unchecked: an infinite entry gives infinite or NaN eigenvalues, no error.
    """
    return tuple(sorted(_freeze((d00, d01, d02, d11, d12, d22), FLOATS), reverse=True))


def jacobi_batch(d00, d01, d02, d11, d12, d22) -> np.ndarray:
    """Unsorted eigenvalues of a stack of symmetric 3x3 matrices given entrywise.

    Takes :func:`eig_sym3`'s six upper-triangle entries, floats or arrays that
    broadcast against each other, and returns the final diagonals (a00, a11,
    a22) as one array of shape (3, ...): :func:`eig_sym3`'s loop, run on the
    whole arrays, so each lane gets its bits alone.  A caller that reads
    only which side of a floor the smallest eigenvalue is on settles most
    lanes first with :func:`floor_bounds` and sends only the open ones here.
    """
    with np.errstate(over="ignore"):  # tau * tau may overflow to inf, as it does on floats
        return np.stack(_freeze(np.broadcast_arrays(d00, d01, d02, d11, d12, d22), np))


def floor_bounds(d00, d01, d02, d11, d12, d22, floor) -> tuple[np.ndarray, np.ndarray]:
    """Which side of ``floor`` the smallest eigenvalue is on, where eigenvalue inclusion bounds settle it, before any sweep.

    Takes :func:`jacobi_batch`'s six entries, floats or arrays that broadcast
    against each other, and returns (above, open): ``above``, in the shape
    they broadcast to, as every entry enters it, is True on the lanes the
    bounds put at or above the floor, and ``open`` holds the flat indices of
    the lanes they leave to the sweeps.  With Gershgorin's radii
    r_i = sum over j != i of |a_ij| and lo and hi the floor plus and minus
    the band FLOOR_BAND (1 + max |a_ii| + max r_i), a lane is above when
    every a_ii > lo and every pair of rows has (a_ii - lo)(a_jj - lo) >= r_i
    r_j: every eigenvalue lies in one of Brauer's ovals of Cassini |z - a_ii|
    |z - a_jj| <= r_i r_j (Brauer, 1947), and these lie right of lo.  It is
    below when min a_ii < hi (Rayleigh) or some 2x2 principal block has (a_ii
    - hi)(a_jj - hi) < a_ij^2: the block's smaller eigenvalue, an upper bound
    on the smallest by Cauchy interlacing, is then below hi.  A settled
    lane's side is thus the converged sweeps'.  The ovals lie within the
    union of Gershgorin's discs, so these bounds settle, up to a rounding at
    the band's edge, every lane that Gershgorin's would, and more.  This is
    the one place a lane is settled by bounds; a NaN entry leaves it open.
    """
    r0, r1, r2 = abs(d01) + abs(d02), abs(d01) + abs(d12), abs(d02) + abs(d12)  # Gershgorin's radii
    least = np.minimum(np.minimum(d00, d11), d22)
    scale = np.maximum(np.maximum(np.maximum(d00, d11), d22), -least) + np.maximum(np.maximum(r0, r1), r2)
    band = FLOOR_BAND * (1.0 + scale)
    lo = floor + band
    x0, x1, x2 = d00 - lo, d11 - lo, d22 - lo
    above = (least > lo) & (x0 * x1 >= r0 * r1) & (x0 * x2 >= r0 * r2) & (x1 * x2 >= r1 * r2)
    hi = floor - band
    del x0, x1, x2, r0, r1, r2, lo, band  # eight chunk-sized arrays fewer under the blocks': random_sweep 1.1x faster
    y0, y1, y2 = d00 - hi, d11 - hi, d22 - hi
    below = (least < hi) | (y0 * y1 < d01 * d01) | (y0 * y2 < d02 * d02) | (y1 * y2 < d12 * d12)
    return above, np.flatnonzero(~(above | below))


def _peak_norm(s1, s2, a1, a2, xp):
    """Largest norm of s + (a1 x, a2 y) over the unit circle, a1 >= a2 >= 0.

    The one Newton kernel of the peak norm.  Reflecting the shift into the
    first quadrant keeps the peak, so let b = (a1 |s1|, a2 |s2|) and d = a1^2
    - a2^2.  On the circle |s + (a1 x, a2 y)|^2 = |s|^2 + a2^2 + d x^2 + 2 (b1
    x + b2 y), a trust-region problem with strong duality: the maximizer is
    (x, y) = (sqrt(1 - y^2), y), y = b2 / mu, at the multiplier mu >= max(d,
    b2) where b1 / x = mu - d (More and Sorensen, 1983); the hard case b1 = 0
    is mu = max(d, b2) itself.  Newton runs on t = mu - b2, in which 1 - y = t
    / mu keeps its digits at the top of the circle: psi(t) = mu - d - b1 / x
    is concave and increasing, so from a lower bound it rises to the root
    monotonically.  The start is the largest of three lower bounds: mu - d =
    b1; mu = |b|, the root for circles; and min(u^(1/3), u / e^2) with u =
    b1^2 max(d, b2) / 8 and e = max(b2 - d, 0).  The last one covers the
    near-tangent case b2 ~ d with a small b1, where the root grows as
    b1^(2/3) and Newton from the others would only triple t per step.  Its
    u^(1/3) is taken from above as the larger of u^(5/16) and u, with square
    roots only.  The floors keep every lane free of division by zero: t >= b2
    * 1e-300 keeps t / mu, and so x, above 0 however far the shift.  That
    floor is reached only where b2 > 1, where the peak exceeds sqrt(2).

    After NEWTON_STEPS steps, where the iteration has converged to rounding,
    the point x = sqrt(t / mu (1 + y)), y = b2 / mu lies on the unit circle
    (x^2 + y^2 = 1 for every t), and the peak norm is its norm.  Only + - * /,
    abs, sqrt and maximum are used, so FLOATS and numpy give the same bits.
    """
    z1, z2 = abs(s1), abs(s2)
    b1, b2 = a1 * z1, a2 * z2
    bb = b1 * b1
    d = (a1 - a2) * (a1 + a2)
    c = d - b2
    u = bb * xp.maximum(d, b2) * 0.125
    r = xp.sqrt(xp.sqrt(u))
    e = xp.maximum(xp.maximum(-c, r * xp.sqrt(xp.sqrt(r))), u)  # max(b2 - d, an upper bound on u^(1/3))
    t = xp.maximum(xp.maximum(b1 + c, u / xp.maximum(e * e, 1e-300)), 1e-300)
    t = xp.maximum(xp.maximum(t, bb / (xp.sqrt(bb + b2 * b2) + b2 + 1e-300)), b2 * 1e-300)
    for _ in range(NEWTON_STEPS):
        mu = t + b2
        y = b2 / mu
        tx = t * (1.0 + y)  # mu x^2
        q = b1 / xp.sqrt(tx / mu)
        t = xp.maximum(t, t + tx * (q - t + c) / (tx + q * y * y))
    mu = t + b2
    y = b2 / mu
    x = xp.sqrt(t / mu * (1.0 + y))
    p1, p2 = z1 + a1 * x, z2 + a2 * y
    return xp.sqrt(p1 * p1 + p2 * p2)
