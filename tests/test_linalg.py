import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebit.cp import CP_TOL, chi_matrix
import rebit.linalg as linalg
from rebit.linalg import FLOATS, eig_sym3, floor_bounds, jacobi_batch, rotation_matrix, svd2


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


def test_rotation_matrix_of_a_float_is_its_row_in_an_array_bit_for_bit():
    # one trig source, np.cos and np.sin, for a float and for an array of angles
    angles = np.random.default_rng(18).uniform(0.0, linalg.TAU, 10_000).tolist()
    angles += [0.0, -0.0, 1e-300, math.pi / 2, math.pi, math.nextafter(linalg.TAU, 0.0), 1e6]
    stack = rotation_matrix(np.array(angles))
    for theta, row in zip(angles, stack, strict=True):
        assert rotation_matrix(theta).tobytes() == row.tobytes()
        assert rotation_matrix(theta).tobytes() == rotation_matrix(np.array([theta]))[0].tobytes()
    with pytest.raises(ValueError, match="rotation angles must be finite"):
        rotation_matrix(math.inf)


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


def brauer_tight(rng, n):
    """A 2x2 block [[x, s sqrt(xy)], [s sqrt(xy), y]], s = +-1, beside the diagonal entry 2: eigenvalues 0, x + y and 2.

    The block's oval, (x - l)(y - l) <= r0 r1 = xy, reaches down to exactly 0,
    the smallest eigenvalue, and so does the block's smaller eigenvalue, the
    interlacing bound.  Where x and y differ, Gershgorin's disc reaches lower,
    to min(x, y) - sqrt(xy) < 0, and an oval whose radii miss a term or pair
    the wrong rows stops above or below 0.
    """
    x, y = rng.uniform(0.05, 1.0, (2, n))
    b = rng.choice([-1.0, 1.0], n) * np.sqrt(x * y)
    zero = np.zeros(n)
    return [x, b, zero, y, zero, np.full(n, 2.0)]


def interlacing_tight(rng, n):
    """brauer_tight's block with its third row coupled: eigenvalues 0 and two above, every off-diagonal entry nonzero.

    The coupling (a02, a12) = t (s sqrt x, sqrt y), 0.05 <= |t| <= 0.5, is
    orthogonal to the block's null vector (sqrt y, -s sqrt x, 0), so that
    vector stays an eigenvector for 0, the smallest eigenvalue (the rest of
    the spectrum is positive, as 2 > t^2).  The block's smaller eigenvalue,
    0, is then the interlacing bound and tight, while the other two blocks'
    are positive and Rayleigh's bound, min(x, y), is far above.
    """
    x, b, _, y, _, wide = brauer_tight(rng, n)
    t = rng.uniform(0.05, 0.5, n) * rng.choice([-1.0, 1.0], n)
    return [x, b, t * np.sign(b) * np.sqrt(x), y, t * np.sqrt(y), wide]


@pytest.mark.parametrize("scale", np.logspace(-3.0, 3.0, 7))
def test_floor_bounds_settle_exactly_the_lanes_beyond_the_band(scale):
    # Each family's bound is its smallest eigenvalue, so a family put at a
    # depth of 0.25 to 10 bands from the floor, above or below, settles
    # exactly where the depth passes 1, on its own side.  Brauer's ovals bind
    # on gershgorin_tight and brauer_tight above the floor, and interlacing
    # binds on brauer_tight and interlacing_tight below it; the band,
    # FLOOR_BAND (1 + max |a_ii| + max r_i), is computed here from the full
    # matrices.  The binding rows take each position in turn.
    rng = np.random.default_rng(23)
    upper = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for family, sides in [(gershgorin_tight, [1.0]), (brauer_tight, [-1.0, 1.0]), (interlacing_tight, [-1.0])]:
        for floor in (-CP_TOL * scale, 0.0, -0.5 * scale):
            m = scale * full(family(rng, 600))
            m[[0, 1, 2], [0, 1, 2]] += floor
            diagonal = m[[0, 1, 2], [0, 1, 2]]
            radii = abs(m).sum(axis=0) - abs(diagonal)
            band = linalg.FLOOR_BAND * (1.0 + abs(diagonal).max(axis=0) + radii.max(axis=0))
            depth = rng.choice([0.25, 0.5, 0.9, 1.1, 2.0, 10.0], 600)
            side = rng.choice(sides, 600)
            m[[0, 1, 2], [0, 1, 2]] += side * depth * band
            for k in range(3):
                p = np.roll(np.arange(3), k)
                turned = m[p][:, p]
                above, open_ = floor_bounds(*(turned[i, j] for i, j in upper), floor)
                settled = np.ones(600, dtype=bool)
                settled[open_] = False
                assert np.array_equal(settled, depth > 1.0)
                assert np.array_equal(above, settled & (side > 0.0))


def test_floor_bounds_give_the_converged_verdict_on_every_lane_they_settle():
    # Random matrices, chi, chi shifted so that its smallest eigenvalue is
    # the floor, and the Weyl- and Gershgorin-tight families: each settled
    # lane is on the converged sweeps' side of the floor.  The lanes at the
    # floor and the Weyl-tight ones stay open; 11,441 of the 24,000 settle.
    rng = np.random.default_rng(12)
    full, chi = map(stacked, random_matrices())
    cases = [
        (full, 0.0),
        (full, -1.0),
        (chi, -CP_TOL),
        (at_the_floor(full, -0.5), -0.5),
        (at_the_floor(chi, -CP_TOL), -CP_TOL),
        (weyl_tight(rng, 3000), 0.0),
        (gershgorin_tight(rng, 3000), -1e-9),
        (at_the_floor(gershgorin_tight(rng, 3000), -CP_TOL), -CP_TOL),
    ]
    settled = 0
    for entries, floor in cases:
        converged = jacobi_batch(*entries).min(axis=0) >= floor
        above, open_ = floor_bounds(*entries, floor)
        done = np.ones(converged.size, dtype=bool)
        done[open_] = False
        assert np.array_equal(above[done], converged[done]) and not above[open_].any()
        settled += np.count_nonzero(done)
    assert settled > 10_000
    # Entries broadcast, and a NaN lane stays open.
    above, open_ = floor_bounds(np.array([1.0, np.nan, -1.0]), 0.25, 0.0, 1.0, 0.0, 1.0, 0.0)
    assert above.tolist() == [True, False, False] and open_.tolist() == [1]


def sweeps_to_freeze(a):
    """Number of Jacobi sweeps after which the scalar iteration stops on the upper triangle a."""
    sweeps = 0
    while linalg._live(a[1], a[2], a[4], FLOATS):
        a = linalg._sweep(*a, FLOATS)
        sweeps += 1
    return sweeps


def test_eig_sym3_batch_keeps_lanes_that_freeze_at_different_sweeps():
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


def test_eig_sym3_batch_keeps_non_finite_lanes_beside_live_ones():
    # A frozen lane is swept on beside the live ones and keeps its entries:
    # an infinite diagonal with zero off-diagonals, a NaN in each of the three
    # off-diagonal entries (where _live reads False on both paths, FLOATS'
    # maximum keeping a NaN as np.maximum does) and a live NaN diagonal sit
    # between live lanes, and each lane, sorted as eig_sym3 sorts, is
    # eig_sym3's, NaN for NaN, with no RuntimeWarning from the frozen lanes' arithmetic.
    nan, inf = math.nan, math.inf
    rng = np.random.default_rng(5)
    live = [chi_matrix(*rng.uniform(-1.0, 1.0, 4)) for _ in range(6)]
    odd = [
        (inf, 0.0, 0.0, 1.0, 0.0, 0.5),
        (1.0, nan, 0.5, 2.0, 0.3, 0.5),
        (nan, 0.5, 0.2, 1.0, 0.1, 0.3),
        (1.0, 0.5, nan, 2.0, 0.3, 0.5),
        (1.0, 0.5, 0.2, 2.0, nan, 0.5),
    ]
    batch = [live[0], odd[0], live[1], odd[1], live[2], odd[2], live[3], odd[3], live[4], odd[4], live[5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lanes = jacobi_batch(*stacked(batch)).T.tolist()
        scalar = [eig_sym3(*m) for m in batch]
    batched = [sorted(lane, reverse=True) for lane in lanes]
    assert np.array_equal(np.array(batched).view(np.int64), np.array(scalar).view(np.int64))
    assert math.isinf(scalar[1][0]) and all(map(math.isnan, scalar[5]))
    assert scalar[7] == scalar[9] == (2.0, 1.0, 0.5)  # frozen at once: the diagonal, sorted


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

