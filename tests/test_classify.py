import math

import numpy as np
import pytest

from rebit.bloch import bloch_from_density, state_polar
from rebit.channel import AffineChannel, apply, as_affine, compose, orthogonal_channel
from rebit.classify import (
    CompletelyDepolarizing,
    Depolarizing,
    General,
    Identity,
    Linear,
    NotCompletelyPositiveError,
    PhaseFlip,
    classify,
    ellipse_peak_norm,
    image_ellipse,
    kraus_rank,
    rank_at,
    sample_cp_channel,
    sample_cp_channels,
    _sample_shift,
)
from rebit.cp import is_cp
from rebit.linalg import rotation_matrix

DIAG = AffineChannel.diagonal


def test_kraus_rank_vertex_edge_interior():
    assert kraus_rank(DIAG(-1.0, 0.0)) == 1
    assert kraus_rank(DIAG(0.0, 1.0)) == 2
    assert kraus_rank(AffineChannel.identity()) == 3


def test_kraus_rank_refuses_non_cp():
    with pytest.raises(NotCompletelyPositiveError):
        kraus_rank(DIAG(1.0, -1.0))


def test_classify_named_families():
    assert classify(AffineChannel.identity()) == Identity()
    assert classify(DIAG(0.7, 1.0)) == PhaseFlip(fixed_axis="vertical", p=pytest.approx(0.3))
    assert classify(DIAG(1.0, 0.7)) == PhaseFlip(fixed_axis="horizontal", p=pytest.approx(0.3))
    assert classify(DIAG(0.5, 0.5)) == Depolarizing(r=0.5, reflect_1=False, reflect_2=False)
    assert classify(DIAG(0.4, 0.0)) == Linear(axis="horizontal", q=0.4)
    assert classify(DIAG(0.0, 0.4)) == Linear(axis="vertical", q=0.4)
    assert classify(DIAG(0.0, 0.0)) == CompletelyDepolarizing()


def test_classify_degenerate_phase_flips():
    flip = classify(DIAG(0.0, 1.0))
    assert isinstance(flip, PhaseFlip) and flip.p == pytest.approx(1.0)
    flip = classify(DIAG(1.0, 0.0))
    assert isinstance(flip, PhaseFlip) and flip.p == pytest.approx(1.0)


def test_classify_reflected_families():
    assert classify(DIAG(-0.4, 0.0)) == Linear(axis="horizontal", q=-0.4)
    assert classify(DIAG(-1.0, 0.0)) == Linear(axis="horizontal", q=-1.0)
    assert classify(DIAG(0.0, -1.0)) == Linear(axis="vertical", q=-1.0)
    dep = classify(DIAG(0.3, -0.3))
    assert dep == Depolarizing(r=pytest.approx(0.3), reflect_1=False, reflect_2=True)
    dep = classify(DIAG(-0.3, -0.3))
    assert dep == Depolarizing(r=pytest.approx(0.3), reflect_1=True, reflect_2=True)


def test_classify_general_cases():
    family = classify(DIAG(0.8, 0.3))
    assert family == General(rank=3, unital=True)
    family = classify(DIAG(0.5, 0.2, 0.1, 0.05))
    assert isinstance(family, General) and not family.unital


def test_classify_refuses_non_cp():
    with pytest.raises(NotCompletelyPositiveError):
        classify(DIAG(1.0, -1.0))


def test_classify_invariant_under_dressing():
    rng = np.random.default_rng(50)
    for seed in range(100):
        channel = sample_cp_channel(seed)
        left = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        right = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        dressed = compose(left, compose(channel, right))
        original = classify(channel)
        rotated = classify(dressed)
        # family kind and size parameters are dressing-invariant; axis flags
        # are reporting-frame bookkeeping
        assert type(original) is type(rotated)
        if isinstance(original, PhaseFlip):
            assert rotated.p == pytest.approx(original.p, abs=1e-9)
        elif isinstance(original, Depolarizing):
            assert rotated.r == pytest.approx(original.r, abs=1e-9)
        elif isinstance(original, Linear):
            assert abs(rotated.q) == pytest.approx(abs(original.q), abs=1e-9)
        elif isinstance(original, General):
            assert rotated == original


def test_rank_stratification_on_pentagon():
    assert rank_at(-1.0, 0.0) == 1
    assert rank_at(0.0, -1.0) == 1
    rng = np.random.default_rng(51)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        # the three diagonal edges, parameterized exactly
        assert rank_at(-1.0 + t, -t) == 2          # lam2 = -lam1 - 1
        assert rank_at(t, t - 1.0) == 2            # lam2 = lam1 - 1
        assert rank_at(-1.0 + t, t) == 2           # lam2 = lam1 + 1
    interior = 0
    while interior < 100:
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        q = (1 + lam1 + lam2, 1 + lam1 - lam2, 1 - lam1 + lam2)
        if min(q) > 1e-3:
            assert rank_at(lam1, lam2) == 3
            interior += 1


def test_image_ellipse_reference_shapes():
    circle = image_ellipse(AffineChannel.identity())
    assert circle.semi_axes == (1.0, 1.0)
    assert np.abs(circle.center).max() == 0.0 and circle.tilt == 0.0
    shifted = image_ellipse(DIAG(0.8, 0.2, 0.1, 0.0))
    assert shifted.semi_axes == pytest.approx((0.8, 0.2))
    assert np.allclose(shifted.center, [0.1, 0.0]) and shifted.tilt == 0.0
    point = image_ellipse(DIAG(0.0, 0.0))
    assert point.semi_axes == (0.0, 0.0)
    assert np.abs(point.center).max() == 0.0


def test_image_ellipse_tilt_tracks_left_rotation():
    a = rotation_matrix(0.7) @ np.diag([0.6, 0.2])
    ellipse = image_ellipse(AffineChannel(a, np.zeros(2)))
    assert ellipse.tilt == pytest.approx(0.7)
    assert ellipse.semi_axes == pytest.approx((0.6, 0.2))


def test_ellipse_peak_norm_against_dense_grid():
    rng = np.random.default_rng(52)
    phis = np.linspace(0.0, 2 * math.pi, 4001)
    for _ in range(300):
        center = rng.uniform(-1.0, 1.0, 2)
        axes = tuple(rng.uniform(0.0, 1.0, 2))
        exact = ellipse_peak_norm(center, axes)
        grid = np.hypot(center[0] + axes[0] * np.cos(phis), center[1] + axes[1] * np.sin(phis)).max()
        assert exact >= grid - 1e-12
        assert exact <= grid + 1e-3


def test_sampler_is_deterministic():
    first = sample_cp_channel(42)
    second = sample_cp_channel(42)
    assert np.abs(first.a - second.a).max() == 0.0
    assert np.abs(first.w - second.w).max() == 0.0


def test_sampler_outputs_are_cp():
    for seed in range(1000):
        channel = sample_cp_channel(seed)
        assert is_cp(channel).is_cp


def test_sampler_unital_flag():
    for seed in range(50):
        channel = sample_cp_channel(seed, unital=True)
        assert np.abs(channel.w).max() == 0.0
        assert is_cp(channel).is_cp


def test_sampler_stream_matches_single_draws():
    rng = np.random.default_rng(3)
    stream = sample_cp_channels(rng, 5)
    assert len(stream) == 5
    for channel in stream:
        assert is_cp(channel).is_cp


class _CornerGenerator:
    """Stands in for a Generator: every draw is the top of its range."""

    def __init__(self):
        self.draws = 0

    def uniform(self, low, high, size=None):
        self.draws += 1
        return high


def test_shift_sampler_raises_instead_of_returning_a_zero_shift():
    # lam = (1/2, 0) puts the shift box at [-1/2, 1/2] x [-1, 1], whose corner
    # fails the determinant condition, so every one of the 100,000 tries misses.
    rng = _CornerGenerator()
    with pytest.raises(RuntimeError, match=r"\(0\.5, 0\.0\)"):
        _sample_shift(rng, 0.5, 0.0)
    assert rng.draws == 2 * 100_000


def test_sampled_images_stay_inside_disk():
    rng = np.random.default_rng(53)
    boundary = [state_polar(1.0, phi) for phi in np.linspace(0.0, 2 * math.pi, 360, endpoint=False)]
    for channel in sample_cp_channels(rng, 200):
        for rho in boundary[::8]:
            v = bloch_from_density(apply(channel, rho))
            assert math.hypot(v[0], v[1]) <= 1.0 + 1e-9


def test_boundary_images_satisfy_ellipse_equation():
    rng = np.random.default_rng(54)
    checked = 0
    while checked < 100:
        channel = sample_cp_channels(rng, 1)[0]
        ellipse = image_ellipse(channel)
        a1, a2 = ellipse.semi_axes
        if a2 < 1e-3:
            continue
        back = rotation_matrix(-ellipse.tilt)
        for phi in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
            v = bloch_from_density(apply(channel, state_polar(1.0, phi)))
            u = back @ (v - ellipse.center)
            residual = abs((u[0] / a1) ** 2 + (u[1] / a2) ** 2 - 1.0)
            assert residual <= 1e-9
        checked += 1
