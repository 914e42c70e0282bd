import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebit.canonical import (
    CanonicalForm,
    canonical_decompose,
    decompose_channel,
    factorize,
    rebuild,
    reconstruct,
    reconstruction_residual,
)
from rebit.channel import AffineChannel, as_affine, compose, orthogonal_channel
from rebit.cp import is_cp
from rebit.linalg import TAU, rotation_matrix, svd2


def test_already_diagonal_is_fixed_point():
    theta1, (lam1, lam2), theta2 = canonical_decompose(np.diag([0.5, 0.3]))
    assert theta1 == 0.0 and theta2 == 0.0 and type(theta1) is type(theta2) is float
    assert (lam1, lam2) == (0.5, 0.3)


def test_reflection_absorbed_as_negative_scale():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    theta1, (lam1, lam2), theta2 = canonical_decompose(a)
    assert theta1 == pytest.approx(math.pi / 2)
    assert (lam1, lam2) == (1.0, -1.0)
    assert theta2 == 0.0
    rebuilt = rotation_matrix(theta1) @ np.diag([lam1, lam2]) @ rotation_matrix(theta2)
    assert np.abs(rebuilt - a).max() < 1e-12


def test_left_rotation_recovered():
    a = rotation_matrix(math.pi / 4) @ np.diag([0.8, 0.2])
    theta1, (lam1, lam2), theta2 = canonical_decompose(a)
    assert theta1 == pytest.approx(math.pi / 4)
    assert (lam1, lam2) == pytest.approx((0.8, 0.2))
    rebuilt = rotation_matrix(theta1) @ np.diag([lam1, lam2]) @ rotation_matrix(theta2)
    assert np.abs(rebuilt - a).max() <= 1e-10


def test_zero_matrix_canonical():
    theta1, (lam1, lam2), theta2 = canonical_decompose(np.zeros((2, 2)))
    assert (lam1, lam2) == (0.0, 0.0)
    assert theta1 == 0.0 and theta2 == 0.0


def test_canonical_decompose_checks_its_matrix():
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, np.inf]]), np.eye(3)):
        with pytest.raises(ValueError):
            canonical_decompose(bad)


def test_decompose_identity_channel():
    form = decompose_channel(AffineChannel.identity())
    assert (form.theta1, form.theta2) == (0.0, 0.0)
    assert (form.lam1, form.lam2) == (1.0, 1.0)
    assert np.abs(form.shift).max() == 0.0


def test_decompose_diagonal_keeps_shift():
    form = decompose_channel(AffineChannel(np.diag([0.5, 0.3]), np.array([0.1, 0.2])))
    assert (form.lam1, form.lam2) == (0.5, 0.3)
    assert np.allclose(form.shift, [0.1, 0.2])
    assert form.theta1 == 0.0 and form.theta2 == 0.0


def test_decompose_rotated_shift_moves_to_diagonal_frame():
    a = rotation_matrix(math.pi / 2) @ np.diag([0.6, 0.4])
    form = decompose_channel(AffineChannel(a, np.array([0.2, 0.0])))
    assert form.theta1 == pytest.approx(math.pi / 2)
    assert (form.lam1, form.lam2) == pytest.approx((0.6, 0.4))
    # rot(-pi/2) @ (0.2, 0) = (0, -0.2)
    assert np.allclose(form.shift, [0.0, -0.2], atol=1e-15)


def test_reconstruct_identity_form():
    form = CanonicalForm(theta1=0.0, theta2=0.0, lam1=1.0, lam2=1.0, shift=np.zeros(2))
    channel = reconstruct(form)
    assert np.abs(channel.a - np.eye(2)).max() == 0.0
    assert np.abs(channel.w).max() == 0.0


def test_reconstruct_reflection_form():
    form = CanonicalForm(theta1=math.pi / 2, theta2=0.0, lam1=1.0, lam2=-1.0, shift=np.zeros(2))
    channel = reconstruct(form)
    assert np.abs(channel.a - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-12


def test_canonical_form_validates_convention():
    with pytest.raises(ValueError):
        CanonicalForm(theta1=0.0, theta2=0.0, lam1=-0.5, lam2=0.0, shift=np.zeros(2))
    with pytest.raises(ValueError):
        CanonicalForm(theta1=0.0, theta2=0.0, lam1=0.3, lam2=0.8, shift=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        CanonicalForm(theta1=0.0, theta2=0.0, lam1=0.5, lam2=0.0, shift=(math.inf, 0.0))
    with pytest.raises(ValueError, match="shape"):
        CanonicalForm(theta1=0.0, theta2=0.0, lam1=0.5, lam2=0.0, shift=np.zeros(3))


def test_canonical_form_reduces_angles_to_one_turn():
    def angles(theta1, theta2):
        form = CanonicalForm(theta1=theta1, theta2=theta2, lam1=1.0, lam2=0.5, shift=(0.0, 0.0))
        return form.theta1, form.theta2

    assert angles(-math.pi, 5 * math.pi) == pytest.approx((math.pi, math.pi))
    m = rotation_matrix(angles(0.3, 0.0)[0])
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) < 1e-12
    theta1, theta2 = angles(np.float64(7.0), TAU)
    assert (theta1, theta2) == (7.0 % TAU, 0.0) and type(theta1) is float
    # % rounds a tiny negative angle up to a full turn, which is stored as 0
    assert -1e-20 % TAU == TAU
    assert angles(-1e-20, -1e-300) == (0.0, 0.0)
    assert 0.0 < angles(-1e-15, 0.0)[0] < TAU
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            angles(bad, 0.0)
        with pytest.raises(ValueError, match="rotation angle must be finite"):
            angles(0.0, bad)


def test_roundtrip_random_channels():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        channel = AffineChannel(rng.uniform(-2.0, 2.0, (2, 2)), rng.uniform(-2.0, 2.0, 2))
        form = decompose_channel(channel)
        assert form.lam1 >= abs(form.lam2) >= 0.0
        assert reconstruction_residual(channel, form) <= 1e-10


def test_determinant_and_singular_values_preserved():
    rng = np.random.default_rng(78)
    for _ in range(2000):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        form = decompose_channel(AffineChannel(a, np.zeros(2)))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        assert abs(det_a - form.lam1 * form.lam2) <= 1e-10
        _, s1, s2, _ = svd2(a)
        assert abs(form.lam1 - s1) <= 1e-10
        assert abs(abs(form.lam2) - s2) <= 1e-10


def test_rebuild_is_the_product_of_its_factors_bit_for_bit():
    rng = np.random.default_rng(80)
    theta = rng.uniform(0.0, TAU, (50, 2))
    lam = rng.uniform(-1.0, 1.0, (50, 2))
    shift = rng.uniform(-1.0, 1.0, (50, 2))
    a, w = rebuild(theta[:, 0], theta[:, 1], lam[:, 0], lam[:, 1], shift)
    for row in range(50):
        r1 = rotation_matrix(theta[row, 0])
        assert np.array_equal(a[row], r1 @ np.diag(lam[row]) @ rotation_matrix(theta[row, 1]))
        assert np.array_equal(w[row], r1 @ shift[row])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_roundtrip_hypothesis(entries):
    channel = AffineChannel(np.array(entries[:4]).reshape(2, 2), np.array(entries[4:]))
    assert reconstruction_residual(channel, decompose_channel(channel)) <= 1e-10


def test_factorization_as_composition_of_channels():
    rng = np.random.default_rng(79)
    for _ in range(200):
        channel = AffineChannel(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-0.3, 0.3, 2))
        form = decompose_channel(channel)
        # dressing rotations act on Bloch vectors through half-angle operators
        left = as_affine(orthogonal_channel(rotation_matrix(form.theta1 / 2.0)))
        right = as_affine(orthogonal_channel(rotation_matrix(form.theta2 / 2.0)))
        middle = AffineChannel(np.diag([form.lam1, form.lam2]), form.shift)
        rebuilt = compose(left, compose(middle, right))
        assert np.abs(rebuilt.a - channel.a).max() <= 1e-12
        assert np.abs(rebuilt.w - channel.w).max() <= 1e-12


def test_cp_verdict_invariant_under_factorization():
    rng = np.random.default_rng(80)
    for _ in range(500):
        channel = AffineChannel(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-0.5, 0.5, 2))
        form = decompose_channel(channel)
        diagonal_part = AffineChannel(np.diag([form.lam1, form.lam2]), form.shift)
        assert is_cp(channel).is_cp == is_cp(diagonal_part).is_cp


def float_path(entries: np.ndarray) -> np.ndarray:
    """factorize on Python floats, one row of (a00, a01, a10, a11, w0, w1) at a time."""
    return np.array([factorize(*row) for row in entries.tolist()]).reshape(-1, 6)


def array_path(entries: np.ndarray) -> np.ndarray:
    return np.stack(factorize(*entries.T, np), axis=-1).reshape(-1, 6)


def random_entries(count: int, seed: int, span: float = 2.0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-span, span, (count, 6))


def test_float_and_array_paths_agree_on_random_matrices():
    entries = random_entries(10_000, 81)
    floats, arrays = float_path(entries), array_path(entries)
    # angles compared around the circle: 2*pi - tiny and tiny are neighbours
    angles = np.abs((floats[:, :2] - arrays[:, :2] + math.pi) % TAU - math.pi)
    assert angles.max() <= 1e-14
    assert np.abs(floats[:, 2:] - arrays[:, 2:]).max() <= 1e-14


Z, T = -0.0, 1e-300
DEGENERATE_CORNERS = [
    [[0.0, 0.0], [0.0, -1.0]],
    [[-1.0, 0.0], [0.0, -1.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0], [-1.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[Z, Z], [Z, Z]],
    [[Z, 0.0], [0.0, -1.0]],
    [[Z, 1.0], [-1.0, Z]],
    [[Z, 1.0], [Z, 1.0]],
    [[1.0, 0.0], [0.0, Z]],
    [[1.0, Z], [Z, -1.0]],
    [[T, 0.0], [0.0, T]],
    [[T, 0.0], [0.0, -T]],
    [[1.0, 0.0], [0.0, -T]],
    [[T, T], [T, T]],
    [[T, 1.0], [1.0, T]],
    [[0.0, T], [-T, 0.0]],
]


def corner_entries(shifts) -> np.ndarray:
    return np.array([np.ravel(a).tolist() + list(w) for a in DEGENERATE_CORNERS for w in shifts])


def test_float_and_array_paths_agree_exactly_on_degenerate_corners():
    entries = corner_entries([(0.0, 0.0), (Z, 0.3), (T, -T)])
    floats, arrays = float_path(entries), array_path(entries)
    assert floats.tobytes() == arrays.tobytes()  # bit for bit, signs of zeros included


def test_the_sign_of_a_zero_entry_does_not_change_the_factorization():
    # A signed zero in q would flip the half-angle by pi/2, one in the
    # perpendicular component the sign of lam2, one in the shift its sign.
    entries = corner_entries([(0.0, 0.0), (Z, 0.3), (Z, Z)])
    positive, negative = entries.copy(), entries.copy()
    positive[entries == 0.0] = 0.0
    negative[entries == 0.0] = Z
    for path in (float_path, array_path):
        expected = path(positive)
        assert not np.signbit(expected[expected == 0.0]).any()
        assert path(entries).tobytes() == path(negative).tobytes() == expected.tobytes()


def test_scales_are_the_singular_values_with_the_sign_of_the_determinant():
    entries = random_entries(10_000, 82)
    _, _, lam1, lam2, _, _ = array_path(entries).T
    a = entries[:, :4].reshape(-1, 2, 2)
    sigma = np.linalg.svd(a, compute_uv=False)
    # relative to lam1 = |A|: the small singular value is accurate in absolute terms
    assert np.all(np.abs(lam1 - sigma[:, 0]) <= 1e-14 * lam1)
    assert np.all(np.abs(np.abs(lam2) - sigma[:, 1]) <= 1e-14 * lam1)
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    assert np.array_equal(np.sign(lam2), np.sign(det))


def test_entries_near_1e200_still_raise():
    # A^t A overflows, so the half-angle is NaN and the channel is refused.
    channel = AffineChannel(np.array([[1e200, -2e200], [3e200, 1e200]]), np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        decompose_channel(channel)
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        canonical_decompose(channel.a)
