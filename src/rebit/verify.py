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
from .canonical import decompose_channel, reconstruction_residual
from .channel import AffineChannel, rotation_channel
from .cp import CP_TOL, charpoly_coeffs, chi_matrix, closed_form_verdict
from .linalg import eig_sym3, rotation_matrix

BOUNDARY_BAND = 1e-7
# A grid point costs about 10 us and a random point about 35 us of scalar
# Python, and the random sweep draws all its points at once, 32 bytes each.
# These limits keep each sweep under about a minute and that draw under
# 32 MB, whatever sizes the command line asks for.
MIN_GRID_STEP = 1e-3  # a 2001 x 2001 grid
MAX_SAMPLES = 1_000_000


def _oracle_cp(lam1: float, lam2: float, w1: float, w2: float) -> bool:
    return eig_sym3(chi_matrix(lam1, lam2, w1, w2))[2] >= -CP_TOL


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
    for lam1 in axis:
        for lam2 in axis:
            closed, _, _ = closed_form_verdict(lam1, lam2, 0.0, 0.0)
            if closed != _oracle_cp(lam1, lam2, 0.0, 0.0):
                mismatches += 1
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
    params = rng.uniform(-1.0, 1.0, (samples, 4))
    mismatches = excluded = b_violations = 0
    for lam1, lam2, w1, w2 in params:
        closed, q, margin = closed_form_verdict(lam1, lam2, w1, w2)
        if closed:
            _, b, _ = charpoly_coeffs(lam1, lam2, w1, w2)
            if b < -CP_TOL:
                b_violations += 1
        if closed != _oracle_cp(lam1, lam2, w1, w2):
            if abs(margin) < BOUNDARY_BAND or min(map(abs, q)) < BOUNDARY_BAND:
                excluded += 1
            else:
                mismatches += 1
    return samples, mismatches, excluded, b_violations


def roundtrip_sweep(samples: int = 10_000, seed: int = 0, span: float = 2.0) -> tuple[int, float, float]:
    """Factorization round trip on random linear parts with entries in [-span, span].

    Returns (samples, max_residual, max_det_error).
    """
    rng = np.random.default_rng(seed)
    max_residual = 0.0
    max_det_err = 0.0
    for _ in range(samples):
        a = rng.uniform(-span, span, (2, 2))
        w = rng.uniform(-span, span, 2)
        channel = AffineChannel(a, w)
        form = decompose_channel(channel)
        max_residual = max(max_residual, reconstruction_residual(channel, form))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        max_det_err = max(max_det_err, abs(det_a - form.lam1 * form.lam2))
    return samples, max_residual, max_det_err


def double_angle_sweep(count: int = 100, seed: int = 0) -> tuple[int, float]:
    """Orthogonal channels of rotations: Bloch map equals the doubled rotation.

    Also conjugates random states directly and compares against the Bloch
    rotation.  Returns (failures, max_deviation) at tolerance 1e-12.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(count):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chan = rotation_channel(alpha)
        dev = np.abs(chan.bloch_map - rotation_matrix(2.0 * alpha)).max()
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([r * math.cos(phi), r * math.sin(phi)])
        rho = density_from_bloch(v)
        dev = max(dev, np.abs(chan.conjugate(rho) - density_from_bloch(chan.bloch_map @ v)).max())
        worst = max(worst, dev)
        if dev > 1e-12:
            failures += 1
    return failures, worst


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
    if max_residual > 1e-10 or max_det_err > 1e-10:
        mismatches += 1
    return VerifyReport(
        grid_points=grid_points,
        samples=n_samples + roundtrips,
        mismatches=mismatches,
        boundary_excluded=excluded,
        max_roundtrip_residual=max_residual,
        elapsed=time.perf_counter() - start,
    )
