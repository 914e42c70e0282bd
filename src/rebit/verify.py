"""Cross-checks of the closed-form decision procedure against numeric oracles.

The sweeps here back both the ``verify`` CLI command and the acceptance test
suite: the closed-form complete-positivity conditions are compared against
the paper's admissible pentagon on a unital grid and against the sign of
chi's smallest eigenvalue, from Jacobi sweeps, on random (lam1, lam2, w1, w2)
points (where eigenvalue inclusion bounds settle most points' signs first),
the factorization is round-tripped, and two analytic side facts (determinant
implies b, and the orthogonal double-angle law) are spot checked.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bloch import density_from_bloch
from .canonical import factorize, rebuild
from .channel import orthogonal_channel
from .cp import CP_TOL, _charpoly_from_margin, admissible_pentagon, chi_matrix, closed_form_verdict
from .linalg import floor_bounds, jacobi_batch, rotation_matrix

# Distance of |margin| or the smallest |q| from 0 within which a disagreement counts as excluded, not
# as a mismatch: 100 times CP_TOL; chosen, not derived; no test binds it, and it excludes no point
# of run_verify on seeds 0-3 or at the size limits.
BOUNDARY_BAND = 1e-7
CHUNK = 8192  # points per array evaluation in every sweep but the double-angle one
# The grid, random and round-trip sweeps evaluate CHUNK points at a time,
# random points are drawn chunk by chunk from one generator (the same stream
# as one up-front draw), and the random points that the eigenvalue bounds
# leave open go to the oracle whenever CHUNK of them are held, so memory
# stays flat in the sweeps' size (tracemalloc peaks at the size limits: 0.72
# MiB grid, 2.4 MiB random, 1.95 MiB round trip).  Their time does not: a grid
# point costs about 0.02 us, a random point 0.11-0.12 us and a round trip
# 0.33-0.5 us (best of 3, Python 3.11, numpy 2.4, one core of an x86-64 Xeon
# VM whose speed drifts by up to 2x).  These limits keep the largest run near
# 0.2-0.3 s of process time, about 0.09 s of grid and 0.11-0.12 s of random
# points; the round trip is capped at 10^4 points, about 4 ms, whatever the
# command line asks for.
MIN_GRID_STEP = 1e-3  # a 2001 x 2001 grid
MAX_SAMPLES = 1_000_000
ROUNDTRIP_SPAN = 2.0  # round-trip entries are drawn from [-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN]
ROUNDTRIP_TOL = 1e-10  # largest round-trip residual and determinant error that pass
DOUBLE_ANGLE_TOL = 1e-12  # largest deviation from the double-angle law that passes


def _oracle_cp(lam1, lam2, w1, w2) -> np.ndarray:
    """Whether the smallest converged Jacobi eigenvalue of chi reaches -CP_TOL, elementwise over arrays."""
    return jacobi_batch(*chi_matrix(lam1, lam2, w1, w2)).min(axis=0) >= -CP_TOL


def _pentagon_edges() -> tuple[np.ndarray, np.ndarray]:
    """(normals, floors) of :func:`rebit.cp.admissible_pentagon`'s edges, shapes (5, 2) and (5, 1).

    A point p = (lam1, lam2) lies in the polygon of the vertices when it lies
    left of every counterclockwise edge e from a vertex v, up to ``CP_TOL``
    times the edge's length: the cross product e x (p - v), which is n . p -
    n . v with the normal n = (-e_y, e_x), is at least -CP_TOL |e|.  So p is
    inside where ``normals @ p >= floors`` on every row.  Built from the
    vertices alone, it shares no code with the q-values or with chi.
    """
    vertices = admissible_pentagon()
    starts = np.array(vertices)
    ex, ey = (np.array(vertices[1:] + vertices[:1]) - starts).T
    normals = np.stack([-ey, ex], axis=1)
    return normals, ((normals * starts).sum(axis=1) - CP_TOL * np.hypot(ex, ey))[:, None]


def unital_grid_sweep(step: float = 0.01) -> tuple[int, int]:
    """Closed form at zero shift vs the admissible pentagon on the unital scale grid.

    Returns (points, mismatches).  Each grid point's closed-form verdict is
    compared with a point-in-polygon test on :func:`_pentagon_edges`, the
    paper's region built from its vertices, so a q-value formula that is
    wrong in :func:`rebit.cp.q_values` and in :func:`chi_matrix` alike still
    shows.  On the grid square [-1, 1]^2 the two regions are the same but for
    their slack at the edges, which no grid point falls in, so no boundary
    exclusions apply.
    """
    if not MIN_GRID_STEP <= step <= 1.0:
        raise ValueError(f"grid step must be in [{MIN_GRID_STEP:g}, 1], got {step!r}")
    n = round(2.0 / step) + 1
    axis = np.linspace(-1.0, 1.0, n)
    normals, floors = _pentagon_edges()
    mismatches = 0
    for start in range(0, n * n, CHUNK):
        k = np.arange(start, min(start + CHUNK, n * n))
        lam1, lam2 = axis[k // n], axis[k % n]
        closed, _, _ = closed_form_verdict(lam1, lam2, 0.0, 0.0)
        inside = (normals @ np.stack([lam1, lam2]) >= floors).all(axis=0)
        mismatches += int(np.count_nonzero(closed != inside))
    return n * n, mismatches


def random_sweep(samples: int = 100_000, seed: int = 0) -> tuple[int, int, int, int]:
    """Closed form vs eigenvalue signs on random (lam1, lam2, w1, w2) points.

    Points within BOUNDARY_BAND of a decision boundary (small margin or a
    near-zero q) are counted as excluded rather than compared.  Also checks,
    on every closed-form-accepted point, that the b coefficient of the
    characteristic polynomial is nonnegative (the determinant condition is
    supposed to subsume it).  Returns (samples, mismatches, excluded,
    b_violations).

    :func:`floor_bounds` settles most points' oracle verdicts from the chi
    entries alone.  The points it leaves open are held, with their closed-form
    verdicts and boundary flags, and go to :func:`_oracle_cp` whenever CHUNK
    of them are held and once more at the end, so that its sweeps run on full
    arrays.
    """
    rng = np.random.default_rng(seed)
    mismatches = excluded = b_violations = 0
    held, held_count = [], 0

    def tally(differ, near):
        nonlocal mismatches, excluded
        mismatches += int(np.count_nonzero(differ & ~near))
        excluded += int(np.count_nonzero(differ & near))

    for start in range(0, samples, CHUNK):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, (min(CHUNK, samples - start), 4)).T.copy()
        closed, q, margin = closed_form_verdict(lam1, lam2, w1, w2)
        b = _charpoly_from_margin(lam1, lam2, w1, w2, margin)[1]
        b_violations += int(np.count_nonzero(closed & ~(b >= -CP_TOL)))  # ~(>=), not <: a NaN b is a violation
        near = (abs(margin) < BOUNDARY_BAND) | (np.minimum(np.minimum(abs(q[0]), abs(q[1])), abs(q[2])) < BOUNDARY_BAND)
        del q, margin, b  # so that the bounds' temporaries do not sit on top of them
        above, open_ = floor_bounds(*chi_matrix(lam1, lam2, w1, w2), -CP_TOL)
        differ = closed != above
        differ[open_] = False
        tally(differ, near)
        held.append([x.take(open_) for x in (lam1, lam2, w1, w2, closed, near)])
        held_count += open_.size
        del above, open_, differ  # and the oracle's not on top of the bounds'
        if held_count and (held_count >= CHUNK or start + CHUNK >= samples):
            lam1, lam2, w1, w2, closed, near = map(np.concatenate, zip(*held))
            held, held_count = [], 0
            tally(closed != _oracle_cp(lam1, lam2, w1, w2), near)
    return samples, mismatches, excluded, b_violations


def roundtrip_sweep(samples: int = 10_000, seed: int = 0) -> tuple[int, float, float]:
    """Factorization round trip on random channels with entries in [-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN].

    Each point is a linear part A and a shift w, drawn as the six entries
    (a00, a01, a10, a11, w0, w1) in that order.  Returns (samples,
    max_residual, max_det_error), each NaN if any point's is: the largest
    max-abs mismatch between (A, w) and their :func:`rebit.canonical.rebuild`
    from the factors, the same rebuild as ``decompose``'s residual, and the
    largest |det A - lam1 lam2|.
    """
    rng = np.random.default_rng(seed)
    max_residual = max_det_err = 0.0
    for start in range(0, samples, CHUNK):
        entries = rng.uniform(-ROUNDTRIP_SPAN, ROUNDTRIP_SPAN, (min(CHUNK, samples - start), 6)).T
        a00, a01, a10, a11 = entries[:4]
        theta1, theta2, lam1, lam2, s0, s1 = factorize(*entries, np)
        rebuilt = rebuild(theta1, theta2, lam1, lam2, s0, s1)
        for x, e in zip(rebuilt, entries):  # np.maximum keeps a NaN, which Python's max drops unless it comes first
            max_residual = np.maximum(max_residual, abs(x - e).max())
        max_det_err = np.maximum(max_det_err, abs(a00 * a11 - a01 * a10 - lam1 * lam2).max())
    return samples, float(max_residual), float(max_det_err)


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
    if not (max_residual <= ROUNDTRIP_TOL and max_det_err <= ROUNDTRIP_TOL):  # a NaN fails too
        mismatches += 1
    return VerifyReport(
        grid_points=grid_points,
        samples=n_samples + roundtrips,
        mismatches=mismatches,
        boundary_excluded=excluded,
        max_roundtrip_residual=max_residual,
        elapsed=time.perf_counter() - start,
    )
