import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebit.cp import CP_TOL, chi_matrix
import rebit.linalg as linalg
from rebit.linalg import FLOATS, eig_sym3, jacobi_batch, rotation_matrix, svd2


def svd_parts(a):
    o1, s1, s2, o2 = svd2(np.asarray(a, dtype=float))
    return o1, np.diag([s1, s2]), o2


def residual(a):
    o1, sigma, o2 = svd_parts(a)
    return np.abs(o1 @ sigma @ o2.T - np.asarray(a, dtype=float)).max()


def orthogonality_defect(o):
    return np.abs(o.T @ o - np.eye(2)).max()


def test_rotation_matrix_special_angles():
    assert np.abs(rotation_matrix(0.0) - np.eye(2)).max() == 0.0
    assert np.abs(rotation_matrix(math.pi) - np.diag([-1.0, -1.0])).max() < 1e-15
    assert np.abs(rotation_matrix(math.pi / 2) - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-15


def test_rotation_matrix_of_an_array_is_the_stack_of_rotations():
    angles = np.random.default_rng(2).uniform(-7.0, 7.0, (2, 3))
    stack = rotation_matrix(angles)
    assert stack.shape == (2, 3, 2, 2)
    for i in range(2):
        for j in range(3):
            assert np.abs(stack[i, j] - rotation_matrix(float(angles[i, j]))).max() <= 1e-15
    with pytest.raises(ValueError):
        rotation_matrix(np.array([0.0, math.nan]))


def test_svd2_identity():
    o1, s1, s2, o2 = svd2(np.eye(2))
    assert (s1, s2) == (1.0, 1.0)
    assert np.abs(o1 - np.eye(2)).max() < 1e-15
    assert np.abs(o2 - np.eye(2)).max() < 1e-15


def test_svd2_swap_reproduces_input():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    o1, s1, s2, o2 = svd2(a)
    assert (s1, s2) == (1.0, 1.0)
    assert residual(a) < 1e-12
    assert orthogonality_defect(o1) < 1e-12


def test_svd2_mixed_sign_diagonal():
    a = np.diag([3.0, -2.0])
    o1, s1, s2, o2 = svd2(a)
    assert (s1, s2) == (3.0, 2.0)
    assert residual(a) < 1e-12
    # the sign lives in the left factor
    assert o1[0, 0] * o1[1, 1] - o1[0, 1] * o1[1, 0] < 0


def test_svd2_zero_matrix():
    o1, s1, s2, o2 = svd2(np.zeros((2, 2)))
    assert s1 == s2 == 0.0
    assert np.abs(o1 - np.eye(2)).max() == 0.0
    assert np.abs(o2 - np.eye(2)).max() == 0.0


def test_svd2_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd2(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_svd2_random_roundtrip():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        o1, s1, s2, o2 = svd2(a)
        assert s1 >= s2 >= 0.0
        assert np.abs(o1 @ np.diag([s1, s2]) @ o2.T - a).max() <= 1e-12
        assert orthogonality_defect(o1) <= 1e-12
        assert orthogonality_defect(o2) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=4))
def test_svd2_roundtrip_hypothesis(entries):
    a = np.array(entries).reshape(2, 2)
    scale = max(1.0, np.abs(a).max())
    assert residual(a) <= 1e-13 * scale


def test_eig_sym3_diagonal():
    assert eig_sym3(1.5, 0.0, 0.0, 0.5, 0.0, 0.5) == (1.5, 0.5, 0.5)
    assert eig_sym3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)


def stacked(matrices):
    """The six entry arrays (d00, d01, d02, d11, d12, d22) of a list of upper triangles."""
    return [np.array(column) for column in zip(*matrices)]


def full(m):
    """The 3x3 array of an upper triangle (d00, d01, d02, d11, d12, d22)."""
    d00, d01, d02, d11, d12, d22 = m
    return np.array([[d00, d01, d02], [d01, d11, d12], [d02, d12, d22]])


def eig_sym3_batch(*entries):
    """The rows (..., 3) eig_sym3 gives, from jacobi_batch: sorted descending, ties (signed zeros too) in diagonal order."""
    e = np.moveaxis(jacobi_batch(*entries), 0, -1)
    return np.take_along_axis(e, np.argsort(-e, axis=-1, kind="stable"), axis=-1)


def batch_matches_scalar(matrices):
    """jacobi_batch (the numpy path), rows sorted, on the stacked matrices equals eig_sym3 (the FLOATS path) on each, bit for bit."""
    batched = eig_sym3_batch(*stacked(matrices))
    scalar = np.array([eig_sym3(*m) for m in matrices]).reshape(len(matrices), 3)
    return batched.shape == scalar.shape and np.array_equal(batched.view(np.int64), scalar.view(np.int64))


def random_matrices():
    rng = np.random.default_rng(98)
    full = [tuple(rng.uniform(-2.0, 2.0, 6)) for _ in range(3000)]
    chi = [chi_matrix(*rng.uniform(-1.0, 1.0, 4)) for _ in range(3000)]
    return full, chi


CORNERS = [
    (1.5, 0.0, 0.0, 0.5, 0.0, 0.5),  # diagonal with a tie
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),  # zero
    (0.0, 0.0, 0.0, -0.0, 0.0, -0.0),  # signed zeros keep their diagonal order
    (1.0, 0.0, 0.0, 1.0, 0.0, 1.0),  # triple tie
    (0.5, 0.0, 0.5, 0.5, 0.0, 0.5),  # exact tie inside the rotated block
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0),  # rank one, equal diagonal (tau = 0)
    (1e-14, 7e-15, 0.0, 2e-14, 0.0, 0.0),  # off-diagonal just below JACOBI_TOL: frozen
    (1.0, 1e-170, 0.5, 0.0, 0.3, 2.0),  # tau * tau overflows to inf
    chi_matrix(0.5, -0.5, 0.0, 0.0),  # q2 = 0
    chi_matrix(-0.5, 0.5, 0.0, 0.0),  # q1 = 0
    chi_matrix(-0.5, -0.5, 0.0, 0.0),  # q0 = 0
    chi_matrix(0.0, 0.0, 0.0, 1.0),  # singular, on the determinant boundary
    chi_matrix(1.0, 1.0, 0.0, 0.0),  # identity channel
    chi_matrix(0.5, -0.5, 0.3, 0.0),  # q2 = 0 with a shift: negative eigenvalue
]


def test_eig_sym3_batch_matches_scalar_on_random_matrices():
    full, chi = random_matrices()
    assert batch_matches_scalar(full)
    assert batch_matches_scalar(chi)


def test_eig_sym3_batch_matches_scalar_on_corner_cases():
    assert batch_matches_scalar(CORNERS)
    for m in CORNERS:  # one lane at a time, too
        assert batch_matches_scalar([m])


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_eig_sym3_batch_matches_scalar_when_the_sweep_cap_cuts_lanes_off(monkeypatch, cap):
    # Most random lanes need three or four sweeps, so a cap of 1 to 3 stops
    # them while they are still live, in the middle of the batch.
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", cap)
    full, chi = random_matrices()
    assert batch_matches_scalar(CORNERS)
    assert batch_matches_scalar(full)
    assert batch_matches_scalar(chi)


def at_the_floor(entries, floor):
    """The matrices shifted along the diagonal so that their smallest converged eigenvalue is the floor, to a few ulps."""
    shift = floor - jacobi_batch(*entries).min(axis=0)
    d00, d01, d02, d11, d12, d22 = entries
    return [d00 + shift, d01, d02, d11 + shift, d12, d22 + shift]


def weyl_tight(rng, n):
    """t I + c (J - I) with c < 0 and 1.75 |c| <= t < 2 |c|: eigenvalues t - 2|c| < 0 and t + |c| (twice).

    min a_ii - ||offdiag||_F = t - sqrt(6) |c| < 0, but t - sqrt(3) |c| > 0, so
    a Weyl bound that drops the Frobenius norm's factor 2 calls them PSD.
    """
    c = -rng.uniform(0.05, 1.0, n)
    t = -c * rng.uniform(1.75, 2.0, n)
    return [t, c, c, t, c, t]


def gershgorin_tight(rng, n):
    """Weighted Laplacians of a triangle, conjugated by a random diag(+-1): every row diagonally dominant with equality.

    Each row's disc reaches down to exactly 0, the smallest eigenvalue (the
    eigenvector is (1, 1, 1) before the sign flips), and the weights differ,
    so a radius that misses a term, pairs the wrong entries or drops an abs,
    or a disc centre of the wrong sign, takes Gershgorin's bound above 0.
    """
    x, y, z = rng.uniform(0.05, 1.0, (3, n))
    s0, s1, s2 = rng.choice([-1.0, 1.0], (3, n))
    return [x + y, -s0 * s1 * x, -s0 * s2 * y, x + z, -s1 * s2 * z, y + z]


@pytest.mark.parametrize("cap", [0, 1, 2, 3, linalg.JACOBI_MAX_SWEEPS])
def test_jacobi_batch_floor_keeps_every_verdict_when_the_sweep_cap_cuts_lanes_off(monkeypatch, cap):
    # A lane that the bounds settle leaves early with its smallest diagonal
    # entry on the converged sweeps' side of the floor; every other lane runs
    # the same (capped) sweeps as without a floor and keeps their bits.
    rng = np.random.default_rng(12)
    full, chi = map(stacked, random_matrices())
    cases = [
        (full, 0.0),
        (full, -1.0),
        (chi, -CP_TOL),
        (at_the_floor(full, -0.5), -0.5),
        (at_the_floor(chi, -CP_TOL), -CP_TOL),
        (weyl_tight(rng, 3000), 0.0),
        (at_the_floor(gershgorin_tight(rng, 3000), -CP_TOL), -CP_TOL),
    ]
    converged = [jacobi_batch(*entries).min(axis=0) >= floor for entries, floor in cases]
    uncapped = cap == linalg.JACOBI_MAX_SWEEPS
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", cap)
    settled = 0
    for (entries, floor), expected in zip(cases, converged):
        early = linalg.jacobi_batch(*entries, floor=floor)
        same = (early.view(np.int64) == linalg.jacobi_batch(*entries).view(np.int64)).all(axis=0)
        assert np.all(same | ((early.min(axis=0) >= floor) == expected))
        if uncapped:
            assert np.array_equal(early.min(axis=0) >= floor, expected)
        settled += np.count_nonzero(~same)
    assert (settled > 0) == (cap > 0)  # no sweep, no check: a cap of 0 returns the diagonals as they came


def test_jacobi_batch_floor_settles_only_the_lanes_beyond_the_band():
    # Before any sweep, Rayleigh's bound (min a_ii below the floor) and
    # Gershgorin's (min over i of a_ii - r_i above it, r_i = sum_j |a_ij|)
    # settle a lane only when they clear the floor by the band, FLOOR_BAND
    # (1 + max |a_ii| + max r_i); a lane inside the band sweeps at least once.
    # The smallest a_ii and its disc, the one that binds, take each row in turn.
    rng = np.random.default_rng(8)
    upper = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for scale, floor in [(1.0, -CP_TOL), (1.0, 0.0), (1e3, -500.0)]:
        a01, a02 = scale * rng.uniform(-0.3, 0.3, (2, 600))
        r0 = abs(a01) + abs(a02)  # the largest radius, on the row of the smallest a_ii
        big = 2.0 * scale  # the largest |a_ii|, and never the smallest a_ii
        band = linalg.FLOOR_BAND * (1.0 + big + r0)
        depth = rng.choice([0.25, 0.5, 0.9, 1.1, 2.0, 10.0], 600)
        a00 = np.where(rng.random(600) < 0.5, floor - depth * band, floor + r0 + depth * band)
        wide, zero = np.full(600, big), np.zeros(600)
        m = np.array([[a00, a01, a02], [a01, wide, zero], [a02, zero, wide]])
        for k in range(3):
            p = np.roll(np.arange(3), k)
            turned = m[p][:, p]
            early = linalg.jacobi_batch(*(turned[i, j] for i, j in upper), floor=floor)
            swept = (early != np.stack([turned[i, i] for i in range(3)])).any(axis=0)
            assert np.array_equal(swept, depth < 1.0)
        # Where |a01| and |a02| differ, the Frobenius Weyl bound (min a_ii -
        # ||offdiag||_F, ||offdiag||_F = sqrt(2 (a01^2 + a02^2)) > r0) leaves
        # open many of the lanes above the floor that Gershgorin settles.
        off = np.sqrt(2.0 * (a01 * a01 + a02 * a02))
        weyl_open = a00 - off - linalg.FLOOR_BAND * (1.0 + big + off) < floor
        assert np.count_nonzero(weyl_open & (a00 > floor) & (depth > 1.0)) > 100
    # A chi-shaped matrix (a12 = 0), eigenvalues 0.75 -+ sqrt(0.2225) and 1:
    # Gershgorin's bound, 0.1, settles it at the floor 0 before any sweep,
    # where Weyl's, 0.5 - 0.4 sqrt(2) < 0, would not; at the floor 0.15 it sweeps.
    chi = (0.5, 0.4, 0.0, 1.0, 0.0, 1.0)
    assert np.array_equal(linalg.jacobi_batch(*chi, floor=0.0), [0.5, 1.0, 1.0])
    assert not np.array_equal(linalg.jacobi_batch(*chi, floor=0.15), [0.5, 1.0, 1.0])


def sweeps_to_freeze(a):
    """Number of Jacobi sweeps after which the scalar iteration stops on the upper triangle a."""
    sweeps = 0
    while linalg._live(a[1], a[2], a[4], FLOATS):
        a = linalg._sweep(*a, FLOATS)
        sweeps += 1
    return sweeps


def test_eig_sym3_batch_retires_lanes_that_freeze_at_different_sweeps():
    rng = np.random.default_rng(7)
    pool = [(1.0, 0.0, 0.0, 0.5, 0.0, -0.5), (1.0, 0.5, 0.0, 0.5, 0.0, -0.5)]  # 0 and 1 sweeps
    pool += [chi_matrix(*rng.uniform(-1.0, 1.0, 4)) for _ in range(400)]
    pool += [tuple(rng.uniform(-2.0, 2.0, 6)) for _ in range(400)]
    first = {}
    for m in pool:
        first.setdefault(sweeps_to_freeze(m), m)
    assert {0, 1, 2, 3, 4} <= set(first)
    lanes = [first[k] for k in sorted(first)]
    batch = lanes + lanes[::-1] + lanes[1::2]  # freezing lanes sit between live ones
    assert batch_matches_scalar(batch)
    assert batch_matches_scalar(rng.permutation(np.array(pool, dtype=object)).tolist())


def test_eig_sym3_batch_broadcasts_scalar_entries():
    lam = np.linspace(-1.0, 1.0, 7)
    batched = eig_sym3_batch(lam, 0.25, 0.0, 0.5, 0.0, -lam)
    assert batched.shape == (7, 3)
    assert batch_matches_scalar([(x, 0.25, 0.0, 0.5, 0.0, -x) for x in lam])
    assert eig_sym3_batch(np.empty(0), 0.0, 0.0, 0.0, 0.0, 0.0).shape == (0, 3)


def test_eig_sym3_coupled_block():
    # half of [[1,0,1],[0,1,0],[1,0,1]]: 2x2 block gives {1, 0}, middle 1/2
    e = eig_sym3(0.5, 0.0, 0.5, 0.5, 0.0, 0.5)
    assert np.abs(np.array(e) - np.array([1.0, 0.5, 0.0])).max() < 1e-14
    m = full((0.5, 0.0, 0.5, 0.5, 0.0, 0.5))
    assert abs(sum(e) - np.trace(m)) < 1e-10
    assert abs(e[0] * e[1] * e[2] - np.linalg.det(m)) < 1e-10


def test_eig_sym3_random_charpoly():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        m = rng.uniform(-2.0, 2.0, (3, 3))
        m = (m + m.T) / 2.0
        d00, d01, d02, d11, d12, d22 = m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]
        eigs = eig_sym3(d00, d01, d02, d11, d12, d22)
        assert eigs[0] >= eigs[1] >= eigs[2]
        tr, det = np.trace(m), np.linalg.det(m)
        assert abs(sum(eigs) - tr) <= 1e-10
        assert abs(eigs[0] * eigs[1] * eigs[2] - det) <= 1e-10
        pair_sum = d00 * d11 - d01 ** 2 + d00 * d22 - d02 ** 2 + d11 * d22 - d12 ** 2
        bound = 1e-8 * (1.0 + np.abs(m).max() ** 3)
        for x in eigs:
            assert abs(-x ** 3 + tr * x ** 2 - pair_sum * x + det) <= bound

