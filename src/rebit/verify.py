"""Cross-checks of the closed-form decision procedure against numeric oracles.

The sweeps here back both the ``verify`` CLI command and the acceptance test
suite: the closed-form complete-positivity conditions are compared against
the sign of the smallest Jacobi eigenvalue of the chi matrix over a unital
grid and a random four-parameter sweep, the factorization is round-tripped,
and two analytic side facts (the determinant-implies-b implication and the
orthogonal double-angle law) are spot checked.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bloch import density_from_bloch
from .canonical import factorize
from .channel import orthogonal_channel
from .cp import CP_TOL, _charpoly_from_margin, chi_matrix, closed_form_verdict
from .linalg import jacobi_batch, rotation_matrix

BOUNDARY_BAND = 1e-7
CHUNK = 8192  # points per array evaluation in every sweep but the double-angle one
# The grid, random and round-trip sweeps evaluate CHUNK points at a time, and
# random points are drawn chunk by chunk from one generator (the same stream
# as one up-front draw), so their memory stays flat in their size (tracemalloc
# peaks: 0.9 MiB grid, 1.4 MiB random, 1.6 MiB round trip).  Their time does not: a grid
# point costs about 0.07 us, a random point 0.2 us and a round trip 0.4 us
# (best of 3, Python 3.11, numpy 2.4, one core of an x86-64 Xeon VM whose
# speed drifts by up to 2x).  These limits keep the largest run near 0.45 s
# of process time, 0.26 s of grid and 0.2 s of random points; the round trip
# is capped at 10^4 points, about 4 ms, whatever the command line asks for.
MIN_GRID_STEP = 1e-3  # a 2001 x 2001 grid
MAX_SAMPLES = 1_000_000
ROUNDTRIP_SPAN = 2.0  # round-trip entries are drawn from [-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN]
ROUNDTRIP_TOL = 1e-10  # largest round-trip residual and determinant error that pass
DOUBLE_ANGLE_TOL = 1e-12  # largest deviation from the double-angle law that passes


def _oracle_cp(lam1, lam2, w1, w2) -> np.ndarray:
    """Sign of the smallest Jacobi eigenvalue of chi, elementwise over arrays.

    The floor lets :func:`jacobi_batch` stop a point's sweeps once its
    eigenvalue bounds settle the sign; the smallest diagonal entry it returns
    then lies on the same side of -CP_TOL as the converged sweeps' would.
    """
    return jacobi_batch(*chi_matrix(lam1, lam2, w1, w2), floor=-CP_TOL).min(axis=0) >= -CP_TOL


def unital_grid_sweep(step: float = 0.01) -> tuple[int, int]:
    """Closed form vs eigenvalue signs on the unital scale grid.

    Returns (points, mismatches); the chi matrix is diagonal here, so the
    comparison is exact and no boundary exclusions apply.
    """
    if not MIN_GRID_STEP <= step <= 1.0:
        raise ValueError(f"grid step must be in [{MIN_GRID_STEP:g}, 1], got {step!r}")
    n = round(2.0 / step) + 1
    axis = np.linspace(-1.0, 1.0, n)
    mismatches = 0
    for start in range(0, n * n, CHUNK):
        k = np.arange(start, min(start + CHUNK, n * n))
        lam1, lam2 = axis[k // n], axis[k % n]
        closed, _, _ = closed_form_verdict(lam1, lam2, 0.0, 0.0)
        mismatches += int(np.count_nonzero(closed != _oracle_cp(lam1, lam2, 0.0, 0.0)))
    return n * n, mismatches


def random_sweep(samples: int = 100_000, seed: int = 0) -> tuple[int, int, int, int]:
    """Closed form vs eigenvalue signs on random (lam1, lam2, w1, w2) points.

    Points within BOUNDARY_BAND of a decision boundary (small margin or a
    near-zero q) are counted as excluded rather than compared.  Also checks,
    on every closed-form-accepted point, that the b coefficient of the
    characteristic polynomial is nonnegative (the determinant condition is
    supposed to subsume it).  Returns (samples, mismatches, excluded,
    b_violations).
    """
    rng = np.random.default_rng(seed)
    mismatches = excluded = b_violations = 0
    for start in range(0, samples, CHUNK):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, (min(CHUNK, samples - start), 4)).T
        closed, q, margin = closed_form_verdict(lam1, lam2, w1, w2)
        b_violations += int(np.count_nonzero(closed & (_charpoly_from_margin(lam1, lam2, w1, w2, margin)[1] < -CP_TOL)))
        near = (abs(margin) < BOUNDARY_BAND) | (np.minimum(np.minimum(abs(q[0]), abs(q[1])), abs(q[2])) < BOUNDARY_BAND)
        del q, margin  # so that the oracle's temporaries do not sit on top of them
        differ = closed != _oracle_cp(lam1, lam2, w1, w2)
        excluded += int(np.count_nonzero(differ & near))
        mismatches += int(np.count_nonzero(differ & ~near))
    return samples, mismatches, excluded, b_violations


def roundtrip_sweep(samples: int = 10_000, seed: int = 0) -> tuple[int, float, float]:
    """Factorization round trip on random channels with entries in [-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN].

    Each point is a linear part A and a shift w, drawn as the six entries
    (a00, a01, a10, a11, w0, w1) in that order.  Returns (samples,
    max_residual, max_det_error): the largest max-abs mismatch between
    (A, w) and (rot(theta1) diag(lam1, lam2) rot(theta2), rot(theta1) s),
    and the largest |det A - lam1 lam2|.
    """
    rng = np.random.default_rng(seed)
    max_residual = max_det_err = 0.0
    for start in range(0, samples, CHUNK):
        entries = rng.uniform(-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN, (min(CHUNK, samples - start), 6)).T
        a00, a01, a10, a11 = entries[:4]
        theta1, theta2, lam1, lam2, s0, s1 = factorize(*entries, np)
        c1, n1, c2, n2 = np.cos(theta1), np.sin(theta1), np.cos(theta2), np.sin(theta2)
        rebuilt = (
            c1 * lam1 * c2 - n1 * lam2 * n2,
            -c1 * lam1 * n2 - n1 * lam2 * c2,
            n1 * lam1 * c2 + c1 * lam2 * n2,
            c1 * lam2 * c2 - n1 * lam1 * n2,
            c1 * s0 - n1 * s1,
            n1 * s0 + c1 * s1,
        )
        max_residual = max(max_residual, *(float(abs(x - e).max()) for x, e in zip(rebuilt, entries)))
        max_det_err = max(max_det_err, float(abs(a00 * a11 - a01 * a10 - lam1 * lam2).max()))
    return samples, max_residual, max_det_err


def double_angle_sweep(count: int = 100, seed: int = 0) -> tuple[int, float]:
    """Orthogonal channels of rotations: Bloch map equals the doubled rotation.

    Also conjugates random states directly and compares against the Bloch
    rotation.  Each point draws its angle alpha, then the polar radius and
    angle of its state; all points run at once as stacks.  Returns (failures,
    max_deviation) at tolerance DOUBLE_ANGLE_TOL.
    """
    rng = np.random.default_rng(seed)
    alpha, r, phi = rng.uniform(0.0, (2.0 * math.pi, 1.0, 2.0 * math.pi), (count, 3)).T
    chan = orthogonal_channel(rotation_matrix(alpha))
    v = np.stack([r * np.cos(phi), r * np.sin(phi)], -1)
    image = density_from_bloch((chan.bloch_map @ v[:, :, None])[:, :, 0])
    dev = np.maximum(
        abs(chan.bloch_map - rotation_matrix(2.0 * alpha)).max(axis=(1, 2)),
        abs(chan.conjugate(density_from_bloch(v)) - image).max(axis=(1, 2)),
    )
    return int(np.count_nonzero(dev > DOUBLE_ANGLE_TOL)), float(dev.max(initial=0.0))


@dataclass(frozen=True)
class VerifyReport:
    grid_points: int
    samples: int
    mismatches: int
    boundary_excluded: int
    max_roundtrip_residual: float
    elapsed: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_verify(grid_step: float = 0.01, samples: int = 100_000, seed: int = 0) -> VerifyReport:
    """Run every sweep and fold the failure counts into one report.

    Sizes beyond MIN_GRID_STEP or MAX_SAMPLES raise ValueError before any
    sweep starts: the grid sweep checks its step first thing.
    """
    if not 0 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be in [0, {MAX_SAMPLES}], got {samples!r}")
    start = time.perf_counter()
    grid_points, grid_mismatches = unital_grid_sweep(grid_step)
    n_samples, sweep_mismatches, excluded, b_violations = random_sweep(samples, seed)
    roundtrips, max_residual, max_det_err = roundtrip_sweep(min(samples, 10_000), seed)
    angle_failures, _ = double_angle_sweep(100, seed)
    mismatches = grid_mismatches + sweep_mismatches + b_violations + angle_failures
    if max_residual > ROUNDTRIP_TOL or max_det_err > ROUNDTRIP_TOL:
        mismatches += 1
    return VerifyReport(
        grid_points=grid_points,
        samples=n_samples + roundtrips,
        mismatches=mismatches,
        boundary_excluded=excluded,
        max_roundtrip_residual=max_residual,
        elapsed=time.perf_counter() - start,
    )
