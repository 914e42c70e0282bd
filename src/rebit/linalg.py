"""Fixed-size numeric kernels: 2x2 rotations and SVD, symmetric 3x3 eigenvalues, ellipse peak norms.

Everything here is closed-form or a tiny fixed iteration, deliberately
self-contained so the rest of the package can use it as an independent
numerical oracle.  A kernel that runs on both Python floats and numpy
arrays takes ``xp``: :data:`FLOATS` for floats, the ``numpy`` module for
arrays, elementwise.
"""

import math
from types import SimpleNamespace

import numpy as np

TAU = 2.0 * math.pi
JACOBI_TOL = 1e-14  # off-diagonal size at which the Jacobi sweeps stop
JACOBI_MAX_SWEEPS = 100
# Band beyond a floor that jacobi_batch's eigenvalue bounds must clear to settle
# a lane, times 1 + max |a_ii| + max r_i (Gershgorin's radii): 50 times the converged
# sweeps' distance to the spectrum (||offdiag||_2 <= max r_i < 2 JACOBI_TOL, absolute)
# and over 1000 times the rounding of the bounds and of the sweeps (a few dozen ulps of that scale).
FLOOR_BAND = 1e-12
NEWTON_STEPS = 8  # 6 already agree with 60 to 5e-16 on near-tangent, near-circle and log-scaled ellipses
# _peak_bracket's default step count, cp.decide's bracket: of the ~36k tries that five 10^4 sampler batches
# leave open, two steps leave none to the full Newton, one leaves 8 and none 248, at equal speed
BRACKET_STEPS = 2


def _where(cond, if_true, if_false):
    return if_true if cond else if_false


# numpy's names bound to their math and builtin counterparts.  On finite inputs arithmetic, abs, sqrt,
# copysign, maximum, minimum and where round alike on both, so a kernel that uses only those (the
# Jacobi, the peak norm, the canonical fold of rebit.cp) gives a lane the same bits with FLOATS as
# with numpy.  arctan2 and hypot do not: on 10^6 uniform pairs in [-1, 1]^2, numpy 2.4 dispatching
# AVX-512 on x86-64 is 1 ulp off math on 7.7 % of pairs for arctan2 and 0.6 % for hypot, while cos and
# sin matched on every angle tried; the rates depend on numpy's build and the CPU.  factorize's float
# path takes math's; rotation_matrix takes numpy's on every path.
FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    copysign=math.copysign,
    arctan2=math.atan2,
    hypot=math.hypot,
    cos=math.cos,
    sin=math.sin,
    maximum=max,
    minimum=min,
    all=bool,
    where=_where,
)


def rotation_matrix(theta) -> np.ndarray:
    """Counterclockwise rotation [[cos t, -sin t], [sin t, cos t]]; a stack (..., 2, 2) for an array of angles.

    One path for floats and arrays, through ``np.cos`` and ``np.sin``, so an
    angle's rotation has the same bits alone, inside an array and in
    :func:`rebit.canonical.rebuild`.
    """
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"rotation angles must be finite, got {theta!r}")
    c, s = np.cos(theta), np.sin(theta)
    r = np.empty(np.shape(theta) + (2, 2))
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 1, 0] = s
    r[..., 0, 1] = -s
    return r


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


def eig_sym3(d00, d01, d02, d11, d12, d22) -> tuple[float, float, float]:
    """Eigenvalues of a symmetric 3x3 matrix given by its upper triangle, sorted descending.

    Cyclic Jacobi rotations, each annihilating one off-diagonal entry exactly,
    so the iteration is unconditionally stable.  A rotation is skipped where
    its entry is exactly 0, and the sweeps stop once the largest off-diagonal
    entry is below ``JACOBI_TOL`` or ``JACOBI_MAX_SWEEPS`` sweeps have run.
    Unchecked: an infinite entry gives infinite or NaN eigenvalues, no error.
    """
    a = (d00, d01, d02, d11, d12, d22)
    for _ in range(JACOBI_MAX_SWEEPS):
        if not _live(a[1], a[2], a[4], FLOATS):
            break
        a = _sweep(*a, FLOATS)
    return tuple(sorted((a[0], a[3], a[5]), reverse=True))


def jacobi_batch(d00, d01, d02, d11, d12, d22, floor=None) -> np.ndarray:
    """Unsorted eigenvalues of a stack of symmetric 3x3 matrices given entrywise.

    Takes :func:`eig_sym3`'s six upper-triangle entries, floats or arrays that
    broadcast against each other, and returns the final diagonals (a00, a11,
    a22) as one array of shape (3, ...).  Every lane runs :func:`eig_sym3`'s
    sweeps with the same bits, but only the live lanes stay in the arrays: a
    lane that freezes writes its diagonal to the result and leaves, so the
    later sweeps, which few lanes need, run on those lanes alone.

    With a ``floor``, for callers that read only whether the smallest
    eigenvalue reaches it, a lane also leaves with its current diagonal once
    Rayleigh's bound (lambda_min <= min a_ii) or Gershgorin's (lambda_min >=
    min over i of a_ii - r_i, r_i = sum over j != i of |a_ij|) clears the
    floor by ``FLOOR_BAND`` (1 + max |a_ii| + max r_i): its smallest diagonal
    entry is then on the same side of the floor as the converged one.
    """
    entries = np.broadcast_arrays(d00, d01, d02, d11, d12, d22)
    shape = entries[0].shape
    a = [np.asarray(x, dtype=float).reshape(-1) for x in entries]  # read only: every step makes new arrays
    out = np.empty((3, a[0].size))
    lanes = np.arange(a[0].size)
    for _ in range(JACOBI_MAX_SWEEPS):
        stay = _live(a[1], a[2], a[4], np)
        if floor is not None and stay.any():
            r0, r1, r2 = abs(a[1]) + abs(a[2]), abs(a[1]) + abs(a[4]), abs(a[2]) + abs(a[4])  # Gershgorin's radii
            least = np.minimum(np.minimum(a[0], a[3]), a[5])
            band = np.maximum(np.maximum(np.maximum(a[0], a[3]), a[5]), -least) + np.maximum(np.maximum(r0, r1), r2)
            band = FLOOR_BAND * (1.0 + band)  # the scale, max |a_ii| + max r_i, gets no name: one array less to hold
            stay &= (least + band >= floor) & (np.minimum(np.minimum(a[0] - r0, a[3] - r1), a[5] - r2) - band < floor)
            del r0, r1, r2, least, band  # so that the sweep's temporaries do not sit on top of them
        if not stay.all():
            done = np.flatnonzero(~stay)
            at = lanes.take(done)
            for row, x in zip(out, (a[0], a[3], a[5])):
                row[at] = x.take(done)
            del done, at  # freed before the sweep, like the bounds' temporaries
            keep = np.flatnonzero(stay)
            lanes = lanes.take(keep)
            a = [x.take(keep) if np.ndim(x) else x for x in a]  # a12 may be the float 0.0
            if not lanes.size:
                break
        with np.errstate(over="ignore"):  # tau * tau may overflow to inf, as it does on floats
            a = _sweep(*a, np)
    for row, x in zip(out, (a[0], a[3], a[5])):
        row[lanes] = x
    return out.reshape((3,) + shape)


def _peak_norm(s1, s2, a1, a2, xp):
    """Largest norm of s + (a1 x, a2 y) over the unit circle, a1 >= a2 >= 0.

    The square root of :func:`_peak_bracket`'s lower bound NEWTON_STEPS
    Newton steps in, where the iteration has converged to rounding.  FLOATS
    and numpy give the same bits.
    """
    return xp.sqrt(_peak_bracket(s1, s2, a1, a2, xp, NEWTON_STEPS)[0])


def _peak_bracket(s1, s2, a1, a2, xp, steps=BRACKET_STEPS) -> tuple:
    """Lower and upper bounds on the square of :func:`_peak_norm`, ``steps`` Newton steps in.

    The one Newton kernel of the peak norm, read at BRACKET_STEPS for the
    bracket and at NEWTON_STEPS for the peak norm itself.  Reflecting the
    shift into the first quadrant keeps the peak, so let b = (a1 |s1|, a2
    |s2|) and d = a1^2 - a2^2.  On the circle |s + (a1 x, a2 y)|^2 = |s|^2 +
    a2^2 + d x^2 + 2 (b1 x + b2 y), a trust-region problem with strong
    duality: the maximizer is (x, y) = (sqrt(1 - y^2), y), y = b2 / mu, at the
    multiplier mu >= max(d, b2) where b1 / x = mu - d (More and Sorensen,
    1983); the hard case b1 = 0 is mu = max(d, b2) itself.  Newton runs on t
    = mu - b2, in which 1 - y = t / mu keeps its digits at the top of the
    circle: psi(t) = mu - d - b1 / x is concave and increasing, so from a
    lower bound it rises to the root monotonically.  The start is the largest
    of three lower bounds: mu - d = b1; mu = |b|, the root for circles; and
    min(u^(1/3), u / e^2) with u = b1^2 max(d, b2) / 8 and e = max(b2 - d,
    0).  The last one covers the near-tangent case b2 ~ d with a small b1,
    where the root grows as b1^(2/3) and Newton from the others would only
    triple t per step.  Its u^(1/3) is taken from above as the larger of
    u^(5/16) and u, with square roots only.  The floors keep every lane free
    of division by zero: t >= b2 * 1e-300 keeps t / mu, and so x, above 0
    however far the shift.  That floor is reached only where b2 > 1, where
    the peak exceeds sqrt(2).

    At any t the point x = sqrt(t / mu (1 + y)), y = b2 / mu lies on the unit
    circle (x^2 + y^2 = 1 for every t), so its squared norm is the lower
    bound.  The trust-region dual at mu = t + b2 is an upper bound wherever
    mu > d: |s|^2 + a2^2 + mu + b1^2 / (mu - d) + b2^2 / mu, the maximum over
    the whole plane of the objective plus mu (1 - x^2 - y^2).  Both meet at
    the root, and Newton from below keeps mu - d >= b1.  In the hard case b1
    = 0 the dual also holds at mu = d, Newton's start there, as its term b1^2
    / (mu - d) is 0; any other lane whose rounded mu - d is not positive gets
    the upper bound inf.  mu - d is exact where mu and d lie within a factor
    2 of each other, so the upper bound is that of the problem with d
    rounded, within an ulp of d of the true one, up to a few ulps of its
    nonnegative terms.  Only + - * /, abs, sqrt, maximum and where are used,
    so FLOATS and numpy give the same bits.
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
    for _ in range(steps):
        mu = t + b2
        y = b2 / mu
        tx = t * (1.0 + y)  # mu x^2
        q = b1 / xp.sqrt(tx / mu)
        t = xp.maximum(t, t + tx * (q - t + c) / (tx + q * y * y))
    mu = t + b2
    y = b2 / mu
    x = xp.sqrt(t / mu * (1.0 + y))
    p1, p2 = z1 + a1 * x, z2 + a2 * y
    gap = mu - d
    dual = z1 * z1 + z2 * z2 + a2 * a2 + mu + bb / xp.where(gap > 0.0, gap, 1.0) + b2 * b2 / mu
    return p1 * p1 + p2 * p2, xp.where((gap > 0.0) | ((gap == 0.0) & (b1 == 0.0)), dual, math.inf)
