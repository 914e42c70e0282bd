import math

import numpy as np
import pytest

from rebit.bloch import SIGMA_1, SIGMA_2, bloch_from_density, density_from_bloch, state_polar
from rebit.channel import (
    AffineChannel,
    NotPositiveError,
    apply,
    as_affine,
    compose,
    is_unital,
    orthogonal_channel,
)
from rebit.linalg import rotation_matrix

IDENTITY = AffineChannel.identity()


def random_states(rng, count):
    return [state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi)) for _ in range(count)]


def random_orthogonal(rng):
    omega = rotation_matrix(rng.uniform(0.0, 2 * math.pi))
    if rng.uniform() < 0.5:
        omega = omega @ np.diag([1.0, -1.0])
    return omega


def test_apply_identity_fixes_states():
    rng = np.random.default_rng(11)
    for rho in random_states(rng, 50):
        assert np.abs(apply(IDENTITY, rho) - rho).max() < 1e-15


def test_apply_depolarizing_halves_bloch_vector():
    rho = density_from_bloch([1.0, 0.0])
    out = apply(AffineChannel(0.5 * np.eye(2), np.zeros(2)), rho)
    assert np.allclose(bloch_from_density(out), [0.5, 0.0])


def test_apply_completely_depolarizing_hits_center():
    rng = np.random.default_rng(12)
    zero = AffineChannel(np.zeros((2, 2)), np.zeros(2))
    for rho in random_states(rng, 20):
        assert np.abs(apply(zero, rho) - 0.5 * np.eye(2)).max() < 1e-15


def test_apply_preserves_trace_exactly():
    rng = np.random.default_rng(13)
    for _ in range(200):
        channel = AffineChannel(rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-0.1, 0.1, 2))
        rho = state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        assert np.trace(apply(channel, rho)) == 1.0


def test_apply_flags_positivity_violation_with_norm():
    stretch = AffineChannel(np.diag([1.5, 1.0]), np.zeros(2))
    with pytest.raises(NotPositiveError) as info:
        apply(stretch, density_from_bloch([1.0, 0.0]))
    assert info.value.norm == pytest.approx(1.5)


def test_apply_allows_the_disk_to_stretch_by_positivity_tol():
    # POSITIVITY_TOL (1e-9) is the overshoot past the disk that apply lets through.
    pure = density_from_bloch([1.0, 0.0])
    rho = apply(AffineChannel((1.0 + 1e-10) * np.eye(2), np.zeros(2)), pure)
    assert np.trace(rho) == 1.0 and np.abs(rho - pure).max() <= 1e-10
    with pytest.raises(NotPositiveError):
        apply(AffineChannel((1.0 + 1e-8) * np.eye(2), np.zeros(2)), pure)


def test_compose_identity_is_neutral():
    channel = AffineChannel(np.array([[0.3, 0.1], [-0.2, 0.5]]), np.array([0.05, -0.1]))
    for composed in (compose(IDENTITY, channel), compose(channel, IDENTITY)):
        assert np.abs(composed.a - channel.a).max() == 0.0
        assert np.abs(composed.w - channel.w).max() == 0.0


def test_compose_shift_arithmetic():
    # w1 + A1 w2 = (0.1, 0) + (0.1, 0)
    first = AffineChannel(0.5 * np.eye(2), np.array([0.1, 0.0]))
    second = AffineChannel(np.eye(2), np.array([0.2, 0.0]))
    composed = compose(first, second)
    assert np.allclose(composed.a, 0.5 * np.eye(2))
    assert np.allclose(composed.w, [0.2, 0.0])


def test_compose_rotations_add_angles():
    rng = np.random.default_rng(14)
    for _ in range(50):
        alpha, beta = rng.uniform(0.0, 2 * math.pi, 2)
        left = AffineChannel(rotation_matrix(alpha), np.zeros(2))
        right = AffineChannel(rotation_matrix(beta), np.zeros(2))
        assert np.abs(compose(left, right).a - rotation_matrix(alpha + beta)).max() < 1e-12


def test_compose_matches_sequential_application():
    rng = np.random.default_rng(15)
    for _ in range(100):
        c1 = AffineChannel(rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-0.1, 0.1, 2))
        c2 = AffineChannel(rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-0.1, 0.1, 2))
        rho = state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        assert np.abs(apply(compose(c1, c2), rho) - apply(c1, apply(c2, rho))).max() < 1e-12


def test_orthogonal_channel_identity():
    assert np.abs(orthogonal_channel(np.eye(2)).bloch_map - np.eye(2)).max() == 0.0


def test_orthogonal_channel_allows_omega_off_by_ortho_tol():
    # ORTHO_TOL (1e-12) bounds |Omega^t Omega - I|: a rotation scaled by 1 + 1e-14 passes, by 1 + 1e-11 does not.
    assert orthogonal_channel(rotation_matrix(0.3) * (1.0 + 1e-14)).omega.shape == (2, 2)
    with pytest.raises(ValueError, match="not orthogonal"):
        orthogonal_channel(rotation_matrix(0.3) * (1.0 + 1e-11))


def test_orthogonal_channel_quarter_turn_flips_sigma1():
    chan = orthogonal_channel(rotation_matrix(math.pi / 2))
    assert np.abs(chan.bloch_map - rotation_matrix(math.pi)).max() < 1e-12


def test_orthogonal_channel_double_angle():
    rng = np.random.default_rng(16)
    for _ in range(100):
        alpha = rng.uniform(0.0, 2 * math.pi)
        chan = orthogonal_channel(rotation_matrix(alpha))
        assert np.abs(chan.bloch_map - rotation_matrix(2 * alpha)).max() <= 1e-12


def test_orthogonal_channel_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        orthogonal_channel(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_orthogonal_channel_of_a_stack_is_the_stack_of_channels():
    rng = np.random.default_rng(18)
    omegas = np.stack([rotation_matrix(a) for a in rng.uniform(0.0, 2 * math.pi, 6)])
    omegas[::2] = omegas[::2] @ np.diag([1.0, -1.0])  # reflections too
    chan = orthogonal_channel(omegas.reshape(2, 3, 2, 2))
    rhos = np.stack([state_polar(r, t) for r, t in rng.uniform(0.0, 1.0, (6, 2))]).reshape(2, 3, 2, 2)
    for k, omega in enumerate(omegas):
        one = orthogonal_channel(omega)
        i, j = divmod(k, 3)
        assert np.abs(chan.bloch_map[i, j] - one.bloch_map).max() <= 1e-15
        assert np.abs(chan.conjugate(rhos)[i, j] - one.conjugate(rhos[i, j])).max() <= 1e-15
    assert orthogonal_channel(np.empty((0, 2, 2))).bloch_map.shape == (0, 2, 2)


def test_orthogonal_channel_checks_every_matrix_of_a_stack():
    omegas = np.stack([np.eye(2), rotation_matrix(1.0), np.array([[1.0, 0.2], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        orthogonal_channel(omegas)
    with pytest.raises(ValueError):
        orthogonal_channel(np.eye(3))


def test_reflections_induce_bloch_reflections():
    # conjugating by a reflection reflects the disk: det R = det Omega = -1
    rng = np.random.default_rng(17)
    for _ in range(50):
        omega = rotation_matrix(rng.uniform(0.0, 2 * math.pi)) @ np.diag([1.0, -1.0])
        r = orthogonal_channel(omega).bloch_map
        det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        assert abs(det_r + 1.0) <= 1e-12
        assert np.abs(r.T @ r - np.eye(2)).max() <= 1e-12


def trace_formula_bloch_map(omega):
    """R_jk = Tr(sigma_j Omega sigma_k Omega^t) / 2, one entry at a time."""
    sig = (SIGMA_1, SIGMA_2)
    r = np.empty((2, 2))
    for j in range(2):
        for k in range(2):
            r[j, k] = 0.5 * np.trace(sig[j] @ omega @ sig[k] @ omega.T)
    return r


def test_bloch_map_matches_the_entrywise_trace_formula():
    rng = np.random.default_rng(21)
    dets = set()
    for _ in range(1000):
        omega = random_orthogonal(rng)
        r = orthogonal_channel(omega).bloch_map
        assert np.abs(r - trace_formula_bloch_map(omega)).max() <= 1e-15
        det_omega = omega[0, 0] * omega[1, 1] - omega[0, 1] * omega[1, 0]
        det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
        assert math.copysign(1.0, det_r) == math.copysign(1.0, det_omega)
        dets.add(math.copysign(1.0, det_omega))
    assert dets == {1.0, -1.0}  # rotations and reflections both


def test_conjugation_consistency():
    rng = np.random.default_rng(18)
    for _ in range(1000):
        omega = random_orthogonal(rng)
        chan = orthogonal_channel(omega)
        rho = state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        v = bloch_from_density(rho)
        assert np.abs(density_from_bloch(chan.bloch_map @ v) - chan.conjugate(rho)).max() <= 1e-12


def test_bloch_map_group_property():
    rng = np.random.default_rng(19)
    for _ in range(200):
        o1 = random_orthogonal(rng)
        o2 = random_orthogonal(rng)
        lhs = orthogonal_channel(o1 @ o2).bloch_map
        rhs = orthogonal_channel(o1).bloch_map @ orthogonal_channel(o2).bloch_map
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_as_affine_is_unital_and_matches_conjugation():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        chan = orthogonal_channel(random_orthogonal(rng))
        affine = as_affine(chan)
        assert is_unital(affine)
        rho = state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        assert np.abs(apply(affine, rho) - chan.conjugate(rho)).max() <= 1e-12


def test_as_affine_quarter_rotation():
    affine = as_affine(orthogonal_channel(rotation_matrix(math.pi / 4)))
    assert np.abs(affine.a - rotation_matrix(math.pi / 2)).max() < 1e-12


def test_is_unital():
    assert is_unital(IDENTITY)
    assert is_unital(AffineChannel(np.zeros((2, 2)), np.zeros(2)))
    assert not is_unital(AffineChannel(0.5 * np.eye(2), np.array([0.1, 0.0])))


def test_is_unital_up_to_unital_tol():
    # UNITAL_TOL (1e-12) bounds the shift's norm.
    assert is_unital(AffineChannel(np.eye(2), np.array([1e-13, 0.0])))
    assert not is_unital(AffineChannel(np.eye(2), np.array([1e-11, 0.0])))


def test_channel_json_roundtrip():
    channel = AffineChannel(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0.5, -0.5]))
    doc = {**channel.to_json_dict(), "name": "sample"}
    back = AffineChannel.from_json_dict(doc)
    assert np.abs(back.a - channel.a).max() == 0.0
    assert np.abs(back.w - channel.w).max() == 0.0


def test_channel_json_rejects_unknown_and_missing_fields():
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, 1]], "w": [0, 0], "extra": 1})
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, "x"]], "w": [0, 0]})
    # numeric strings and booleans are not the documented doubles
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [["0.5", True], [0, 1]], "w": [False, "0.1"]})
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, 1]], "w": [True, 0]})
    with pytest.raises(ValueError):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, "0.5"]], "w": [0, 0]})
    with pytest.raises(ValueError, match="must be a JSON object"):
        AffineChannel.from_json_dict([1, 2])
    with pytest.raises(ValueError, match="must be a string"):
        AffineChannel.from_json_dict({"A": [[1, 0], [0, 1]], "w": [0, 0], "name": 3})
    with pytest.raises(ValueError, match="not numeric"):
        AffineChannel.from_json_dict({"A": [[1, 0], [0]], "w": [0, 0]})  # ragged
    with pytest.raises(ValueError, match="not numeric"):
        AffineChannel.from_json_dict({"A": [[10**400, 0], [0, 1]], "w": [0, 0]})  # beyond the largest double
    # JSON integers stay valid
    parsed = AffineChannel.from_json_dict({"A": [[1, 0], [0, 1]], "w": [0, 0]})
    assert np.array_equal(parsed.a, np.eye(2)) and np.array_equal(parsed.w, np.zeros(2))


def test_channel_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        AffineChannel(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_channel_arrays_are_frozen():
    with pytest.raises(ValueError):
        IDENTITY.a[0, 0] = 2.0


def test_stacked_channels_equal_one_by_one_construction():
    rng = np.random.default_rng(16)
    a, w = rng.uniform(-0.5, 0.5, (5, 2, 2)), rng.uniform(-0.2, 0.2, (5, 2))
    expected = [AffineChannel(x, y) for x, y in zip(a, w)]
    stacked = AffineChannel.stacked(a, w)
    assert not a.flags.writeable and not w.flags.writeable  # frozen in place
    for channel, one in zip(stacked, expected, strict=True):
        assert np.array_equal(channel.a, one.a) and np.array_equal(channel.w, one.w)
        assert not channel.a.flags.writeable and not channel.w.flags.writeable
    assert AffineChannel.stacked(np.zeros((0, 2, 2)), np.zeros((0, 2))) == []


def test_stacked_channels_are_plain_slotted_instances_over_row_views():
    rng = np.random.default_rng(18)
    a, w = rng.uniform(-0.5, 0.5, (10_000, 2, 2)), rng.uniform(-0.2, 0.2, (10_000, 2))
    channels = AffineChannel.stacked(a, w)
    assert len(channels) == 10_000
    for row, channel in enumerate(channels):
        assert type(channel) is AffineChannel and not hasattr(channel, "__dict__")
        assert np.shares_memory(channel.a, a) and np.shares_memory(channel.w, w)
        assert not channel.a.flags.writeable and not channel.w.flags.writeable
        assert np.array_equal(channel.a, a[row]) and np.array_equal(channel.w, w[row])


@pytest.mark.parametrize("a, w", [
    (np.zeros((2, 2, 2)), np.zeros((3, 2))),
    (np.zeros((2, 2, 3)), np.zeros((2, 2))),
    (np.full((2, 2, 2), np.nan), np.zeros((2, 2))),
    (np.zeros((2, 2, 2)), np.array([[0.0, 0.0], [np.inf, 0.0]])),
])
def test_stacked_channels_reject_bad_stacks(a, w):
    with pytest.raises(ValueError):
        AffineChannel.stacked(a, w)
