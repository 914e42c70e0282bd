import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebit.bloch import (
    InvalidStateError,
    bloch_from_density,
    density_from_bloch,
    is_valid_state,
    state_polar,
)

MIXED = 0.5 * np.eye(2)


def test_bloch_from_maximally_mixed():
    assert np.abs(bloch_from_density(MIXED)).max() == 0.0


def test_bloch_from_pure_pole():
    assert np.allclose(bloch_from_density(np.diag([1.0, 0.0])), [1.0, 0.0])


def test_bloch_from_offdiagonal_pure():
    # direct trace computation: Tr(sigma_1 rho) = 0, Tr(sigma_2 rho) = 1
    rho = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(bloch_from_density(rho), [0.0, 1.0])


def test_bloch_rejects_bad_trace_and_asymmetry():
    with pytest.raises(InvalidStateError):
        bloch_from_density(np.eye(2))
    with pytest.raises(InvalidStateError):
        bloch_from_density(np.array([[0.5, 0.2], [0.1, 0.5]]))


def test_density_from_bloch_center_and_pole():
    assert np.abs(density_from_bloch([0.0, 0.0]) - MIXED).max() == 0.0
    assert np.abs(density_from_bloch([1.0, 0.0]) - np.diag([1.0, 0.0])).max() == 0.0


def test_density_from_bloch_boundary_point():
    rho = density_from_bloch([0.6, 0.8])
    assert np.abs(rho - 0.5 * np.array([[1.6, 0.8], [0.8, 0.4]])).max() < 1e-15
    eigs = np.linalg.eigvalsh(rho)
    assert np.abs(np.sort(eigs) - np.array([0.0, 1.0])).max() < 1e-12


def test_density_from_bloch_rejects_outside_disk():
    with pytest.raises(InvalidStateError):
        density_from_bloch([0.8, 0.8])
    with pytest.raises(InvalidStateError):
        density_from_bloch([[0.0, 0.0], [0.8, 0.8]])  # one vector of a stack is enough
    with pytest.raises(InvalidStateError):
        density_from_bloch(0.5)
    with pytest.raises(InvalidStateError, match="must be finite"):
        density_from_bloch([math.inf, 0.0])


def test_density_from_bloch_of_a_stack_is_the_stack_of_states():
    v = np.random.default_rng(5).uniform(-0.7, 0.7, (2, 3, 2))
    rhos = density_from_bloch(v)
    assert rhos.shape == (2, 3, 2, 2)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(rhos[i, j], density_from_bloch(v[i, j]))
    assert density_from_bloch(np.empty((0, 2))).shape == (0, 2, 2)


def test_state_polar_center_any_angle():
    for theta in (0.0, 1.0, 4.0):
        assert np.abs(state_polar(0.0, theta) - MIXED).max() == 0.0


def test_state_polar_poles():
    assert np.abs(state_polar(1.0, 0.0) - np.diag([1.0, 0.0])).max() < 1e-15
    assert np.abs(state_polar(1.0, math.pi / 2) - density_from_bloch([0.0, 1.0])).max() < 1e-12


def test_state_polar_rejects_bad_radius():
    with pytest.raises(InvalidStateError):
        state_polar(1.5, 0.0)
    with pytest.raises(InvalidStateError):
        state_polar(-0.1, 0.0)
    with pytest.raises(InvalidStateError, match="must be finite"):
        state_polar(0.5, math.inf)
    with pytest.raises(InvalidStateError, match="must be finite"):
        state_polar(math.nan, 0.0)


def test_is_valid_state_reasons():
    ok, reason = is_valid_state(MIXED)
    assert ok and reason is None
    ok, reason = is_valid_state(np.eye(2))
    assert not ok and "trace" in reason
    ok, reason = is_valid_state(np.array([[0.5, 0.3], [0.0, 0.5]]))
    assert not ok and "symmetric" in reason
    ok, reason = is_valid_state(np.eye(3))
    assert not ok and "expected a 2x2 matrix" in reason
    ok, reason = is_valid_state(np.array([[0.5, 0.0], [0.0, math.nan]]))
    assert not ok and "not finite" in reason
    for t in np.linspace(0.0, 2 * math.pi, 17):
        ok, _ = is_valid_state(density_from_bloch([0.7 * math.cos(t), 0.7 * math.sin(t)]))
        assert ok


def test_is_valid_state_allows_asymmetry_up_to_struct_tol():
    # STRUCT_TOL (1e-12) is the slack of m01 = m10: 1e-13 past it passes, 1e-11 does not.
    assert is_valid_state(np.array([[0.6, 0.1], [0.1 + 1e-13, 0.4]])) == (True, None)
    ok, reason = is_valid_state(np.array([[0.6, 0.1], [0.1 + 1e-11, 0.4]]))
    assert not ok and "not symmetric" in reason


@pytest.mark.parametrize(
    "m", ["abc", [[0.5, 0], [0, "x"]], [[1, 2], [3]], {"a": 1}, [[10**400, 0], [0, 1]], np.array([[0.5, 0.3j], [-0.3j, 0.5]])]
)
def test_is_valid_state_answers_input_that_is_not_a_float_array(m):
    ok, reason = is_valid_state(m)
    assert not ok and "not a float array" in reason


def test_roundtrip_on_polar_grid():
    for r in np.linspace(0.0, 1.0, 21):
        for theta in np.linspace(0.0, 2 * math.pi, 40, endpoint=False):
            rho = state_polar(r, theta)
            v = bloch_from_density(rho)
            assert np.abs(density_from_bloch(v) - rho).max() <= 1e-12
            assert math.hypot(v[0], v[1]) <= 1.0 + 1e-12


@settings(max_examples=300, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
)
def test_roundtrip_hypothesis(r, theta):
    rho = state_polar(r, theta)
    assert np.abs(density_from_bloch(bloch_from_density(rho)) - rho).max() <= 1e-12


def test_pure_state_iff_singular():
    for theta in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
        pure = state_polar(1.0, theta)
        assert abs(np.linalg.det(pure)) < 1e-10
        mixed = state_polar(0.9, theta)
        assert np.linalg.det(mixed) > 1e-3


def test_psd_iff_disk_membership():
    # eigenvalue-sign oracle over a polar grid, 10^4 points
    rng = np.random.default_rng(5)
    rs = rng.uniform(0.0, 1.0, 10_000)
    thetas = rng.uniform(0.0, 2 * math.pi, 10_000)
    rhos = np.array([state_polar(r, t) for r, t in zip(rs, thetas)])
    min_eigs = np.linalg.eigvalsh(rhos)[:, 0]
    assert min_eigs.min() >= -1e-12
    # pushing the radius outside the disk breaks positivity
    outside = 0.5 * np.array([[1.0 + 1.2, 0.0], [0.0, 1.0 - 1.2]])
    assert np.linalg.eigvalsh(outside)[0] < -0.05
    assert not is_valid_state(outside)[0]
