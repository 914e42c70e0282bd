"""Benchmark inputs and output checks built on numpy alone.

Nothing here imports ``rebit``: the channels a workload feeds the program are
drawn from the workload seed with numpy, and the outputs are checked with
``numpy.linalg.svd`` and ``numpy.linalg.eigvalsh``.  A change to the
program's sampler, closed form or oracle therefore changes neither another
workload's traffic nor the checks applied to it.

Conventions follow the package README: a channel acts on Bloch vectors as
v -> w + A v, and its canonical frame is A = R(t1) diag(lam1, lam2) R(t2)
with lam1 >= |lam2| and the shift read as s = R(t1)^T w.  In that frame the
channel is completely positive (CP) when the chi matrix

    1/2 * [[1+lam1+lam2, s1,          s2         ],
           [s1,          1+lam1-lam2, 0          ],
           [s2,          0,           1-lam1+lam2]]

is positive semidefinite.
"""

import math

import numpy as np

# Generated CP channels keep this much room from the chi boundary and the
# disk edge, and generated non-CP channels are this far outside, so that the
# expected verdict does not hang on a tolerance or on the factorization's
# tie-breaks.
CLEARANCE = 0.005

CHECK_TOL = 1e-9

# The six reference channels whose CLI output is pinned in tests/golden/.
GOLDEN_CHANNELS = {
    "identity": {"A": [[1.0, 0.0], [0.0, 1.0]], "w": [0.0, 0.0]},
    "phase_flip_vertical": {"A": [[0.7, 0.0], [0.0, 1.0]], "w": [0.0, 0.0]},
    "phase_flip_horizontal": {"A": [[1.0, 0.0], [0.0, 0.7]], "w": [0.0, 0.0]},
    "depolarizing_half": {"A": [[0.5, 0.0], [0.0, 0.5]], "w": [0.0, 0.0]},
    "completely_depolarizing": {"A": [[0.0, 0.0], [0.0, 0.0]], "w": [0.0, 0.0]},
    "linear_q04": {"A": [[0.4, 0.0], [0.0, 0.0]], "w": [0.0, 0.0]},
}
GOLDEN_IMAGES = ("identity", "linear_q04", "completely_depolarizing")


def _rot(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


def chi_matrices(lam1, lam2, s1, s2) -> np.ndarray:
    """Chi matrices of diagonal maps, shape (..., 3, 3), from array arguments."""
    lam1, lam2, s1, s2 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (lam1, lam2, s1, s2)))
    chi = np.zeros(lam1.shape + (3, 3))
    chi[..., 0, 0] = 0.5 * (1.0 + lam1 + lam2)
    chi[..., 1, 1] = 0.5 * (1.0 + lam1 - lam2)
    chi[..., 2, 2] = 0.5 * (1.0 - lam1 + lam2)
    chi[..., 0, 1] = chi[..., 1, 0] = 0.5 * s1
    chi[..., 0, 2] = chi[..., 2, 0] = 0.5 * s2
    return chi


def _worst_chi_eig(lam1: float, lam2: float, r: float) -> tuple[float, float]:
    """Smallest chi eigenvalue with a shift of length r on either diagonal axis.

    Positivity of chi - d*I is linear in (s1^2, s2^2) once the diagonal is,
    so the two axis placements bound every rotation of the shift: when both
    minima are >= d (or both <= -d) so is the minimum at any angle.
    """
    eigs = np.linalg.eigvalsh(chi_matrices([lam1, lam1], [lam2, lam2], [r, 0.0], [0.0, r]))
    return float(eigs[0, 0]), float(eigs[1, 0])


def _diagonal_scales(rng: np.random.Generator, cp: bool) -> tuple[float, float]:
    """Canonical (lam1 >= |lam2|) scales inside (cp) or outside the pentagon."""
    while True:
        if cp:
            a, b = rng.uniform(-1.0, 1.0, 2)
        else:
            a, b = rng.uniform(-1.5, 1.5, 2)
        hi, lo = max(abs(a), abs(b)), min(abs(a), abs(b))
        if a * b < 0.0:
            lo = -lo
        q2 = 0.5 * (1.0 - hi + lo)  # q0, q1 >= 1/2 once lam1 >= |lam2|
        if (cp and q2 >= 4 * CLEARANCE) or (not cp and q2 <= -4 * CLEARANCE):
            return hi, lo


def dressed_channel(rng: np.random.Generator, cp: bool) -> dict:
    """A channel R(t1) diag(lam1, lam2) R(t2), shift R(t1) s, with a known verdict.

    CP channels have chi eigenvalues >= CLEARANCE for every direction of the
    shift and map the disk strictly inside itself.  Non-CP channels either
    have scales outside the admissible pentagon or a shift that makes chi
    indefinite in every direction.
    """
    if cp:
        while True:
            lam1, lam2 = _diagonal_scales(rng, cp=True)
            r = (1.0 - lam1) * rng.uniform(0.0, 0.95)
            if min(_worst_chi_eig(lam1, lam2, r)) >= CLEARANCE:
                break
    elif rng.uniform() < 0.5:
        lam1, lam2 = _diagonal_scales(rng, cp=False)
        r = rng.uniform(0.0, 0.5)
    else:
        while True:
            lam1, lam2 = _diagonal_scales(rng, cp=True)
            r = rng.uniform(0.0, 1.5)
            if max(_worst_chi_eig(lam1, lam2, r)) <= -CLEARANCE:
                break
    t1, t2, phi = rng.uniform(0.0, 2.0 * math.pi, 3)
    r1 = _rot(t1)
    a = r1 @ np.diag([lam1, lam2]) @ _rot(t2)
    w = r1 @ np.array([r * math.cos(phi), r * math.sin(phi)])
    return {"A": a.tolist(), "w": w.tolist()}


def diagonal_channels(rng: np.random.Generator) -> list[tuple[dict, str]]:
    """Literal diagonal CP channels, one per taxonomy branch, with the class each must get."""
    r = rng.uniform(0.05, 0.45)  # reflected depolarizing stays off the q0 = 0 edge
    p = rng.uniform(0.05, 0.95)
    q = rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0])
    while True:  # a generic unital point: no two |lam| equal, none 0 or 1
        g1, g2 = rng.uniform(-0.9, 0.9, 2)
        generic = min(abs(abs(g1) - abs(g2)), abs(g1), abs(g2)) >= 0.05
        if generic and 0.5 * (1.0 - abs(g1) - abs(g2)) >= 2 * CLEARANCE:
            break
    while True:  # the same with a shift admissible in the literal and canonical frames
        n1, n2 = rng.uniform(-0.8, 0.8, 2)
        hi, lo = max(abs(n1), abs(n2)), math.copysign(min(abs(n1), abs(n2)), n1 * n2)
        s = rng.uniform(0.1, 0.9) * (1.0 - hi)
        worst = min(*_worst_chi_eig(n1, n2, s), *_worst_chi_eig(hi, lo, s))
        if min(abs(n1), abs(n2)) >= 0.05 and worst >= CLEARANCE:
            break
    phi = rng.uniform(0.0, 2.0 * math.pi)
    cases = [
        ((1.0, 1.0), (0.0, 0.0), "Identity"),
        ((0.0, 0.0), (0.0, 0.0), "CompletelyDepolarizing"),
        ((r, r), (0.0, 0.0), "Depolarizing"),
        ((-r, -r), (0.0, 0.0), "Depolarizing"),
        ((r, -r), (0.0, 0.0), "Depolarizing"),
        ((-r, r), (0.0, 0.0), "Depolarizing"),
        ((1.0, 1.0 - p), (0.0, 0.0), "PhaseFlip"),
        ((1.0 - p, 1.0), (0.0, 0.0), "PhaseFlip"),
        ((q, 0.0), (0.0, 0.0), "Linear"),
        ((0.0, q), (0.0, 0.0), "Linear"),
        ((g1, g2), (0.0, 0.0), "General"),
        ((n1, n2), (s * math.cos(phi), s * math.sin(phi)), "General"),
    ]
    return [
        ({"A": [[l1, 0.0], [0.0, l2]], "w": [w1, w2]}, expected)
        for (l1, l2), (w1, w2), expected in cases
    ]


def huge_channel(rng: np.random.Generator) -> dict:
    """A finite, non-diagonal channel with entries near 1e200."""
    a = rng.uniform(0.5, 1.0, (2, 2)) * rng.choice([-1.0, 1.0], (2, 2)) * 10.0 ** rng.uniform(199.5, 200.5)
    return {"A": a.tolist(), "w": rng.uniform(-0.1, 0.1, 2).tolist()}


def malformed_documents(rng: np.random.Generator) -> list[str | None]:
    """Eight clearly malformed channel files as JSON text; None is a missing file."""
    a = rng.uniform(-1.0, 1.0, (2, 2)).tolist()
    w = rng.uniform(-0.5, 0.5, 2).tolist()
    valid = '{"A": %s, "w": %s}' % (a, w)
    return [
        valid[:-3],                                              # truncated JSON
        '{"A": %s}' % (a,),                                      # missing w
        '{"A": %s, "w": %s}' % (a + [[0.0, 0.0]], w),            # A is 3x2
        '{"A": [["abc", %r], %s], "w": %s}' % (a[0][1], a[1], w),  # non-numeric entry
        '{"A": %s, "w": %s, "B": 1}' % (a, w),                   # unknown field
        "[%s, %s]" % (a, w),                                     # not an object
        '{"A": [[NaN, %r], %s], "w": %s}' % (a[0][1], a[1], w),  # non-finite entry
        None,                                                    # no such file
    ]


def canonical_frames(a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical (lam1, lam2, shift) of channels a (N, 2, 2), w (N, 2) via numpy's SVD."""
    u, sv, _ = np.linalg.svd(a)
    lam1 = sv[:, 0]
    lam2 = sv[:, 1] * np.sign(np.linalg.det(a))
    # a reflection in the left factor moves to lam2's sign; the shift is read
    # in the proper rotation that remains
    u = u.copy()
    u[np.linalg.det(u) < 0.0, :, 1] *= -1.0
    shift = np.einsum("nji,nj->ni", u, w)
    return lam1, lam2, shift


def peak_image_norms(a: np.ndarray, w: np.ndarray, grid: int = 128, chunk: int = 128) -> np.ndarray:
    """max over unit u of |w + A u| per channel: a grid search polished by Newton steps.

    Channels go through in chunks small enough that the temporaries stay
    under a megabyte, far below the sampler's own peak memory.
    """
    t = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    step = t[1]
    out = np.empty(len(a))
    for lo in range(0, len(a), chunk):
        ac, wc = a[lo:lo + chunk], w[lo:lo + chunk]
        images = wc[:, :, None] + ac @ np.stack([np.cos(t), np.sin(t)])
        norms2 = np.einsum("nij,nij->nj", images, images)
        best = norms2.max(axis=1)
        theta = t[norms2.argmax(axis=1)]
        for _ in range(4):
            c, s = np.cos(theta), np.sin(theta)
            p = wc + np.einsum("nij,nj->ni", ac, np.stack([c, s], axis=1))
            d1 = np.einsum("nij,nj->ni", ac, np.stack([-s, c], axis=1))
            grad = 2.0 * np.einsum("ni,ni->n", p, d1)
            curv = 2.0 * (np.einsum("ni,ni->n", d1, d1) - np.einsum("ni,ni->n", p, p - wc))
            move = np.divide(-grad, curv, out=np.zeros_like(grad), where=curv < 0.0)
            theta = theta + np.clip(move, -step, step)
            polished = wc + np.einsum("nij,nj->ni", ac, np.stack([np.cos(theta), np.sin(theta)], axis=1))
            best = np.maximum(best, np.einsum("ni,ni->n", polished, polished))
        out[lo:lo + chunk] = np.sqrt(best)
    return out


def bad_cp_channels(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mask of channels that are not CP in their canonical frame or leave the disk."""
    lam1, lam2, shift = canonical_frames(a, w)
    min_eig = np.linalg.eigvalsh(chi_matrices(lam1, lam2, shift[:, 0], shift[:, 1]))[:, 0]
    return (min_eig < -CHECK_TOL) | (peak_image_norms(a, w) > 1.0 + CHECK_TOL)
