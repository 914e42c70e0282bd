import importlib
import math

import numpy as np
import pytest

from rebit.bloch import bloch_from_density, state_polar
from rebit.channel import AffineChannel, apply, as_affine, compose, orthogonal_channel
from rebit.classify import (
    ARRAY_OPS,
    CHUNK,
    FLOAT_OPS,
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
    sample_cp_channel,
    sample_cp_channels,
    _admissible,
    _peak_norm,
    _sample_shift,
)
from rebit.cp import chi_matrix, chi_rank, is_cp, q_values, shift_region_contains
from rebit.linalg import TAU, rotation_matrix

DIAG = AffineChannel.diagonal
classify_module = importlib.import_module("rebit.classify")  # the package attribute is the function


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
    assert chi_rank(chi_matrix(-1.0, 0.0)) == 1
    assert chi_rank(chi_matrix(0.0, -1.0)) == 1
    rng = np.random.default_rng(51)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        # the three diagonal edges, parameterized exactly
        assert chi_rank(chi_matrix(-1.0 + t, -t)) == 2  # lam2 = -lam1 - 1
        assert chi_rank(chi_matrix(t, t - 1.0)) == 2  # lam2 = lam1 - 1
        assert chi_rank(chi_matrix(-1.0 + t, t)) == 2  # lam2 = lam1 + 1
    interior = 0
    while interior < 100:
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        q = (1 + lam1 + lam2, 1 + lam1 - lam2, 1 - lam1 + lam2)
        if min(q) > 1e-3:
            assert chi_rank(chi_matrix(lam1, lam2)) == 3
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


def quartic_peak_norm(center, semi_axes) -> float:
    """Largest distance from the origin to an axis-aligned ellipse boundary, from a quartic.

    The stationary points of |center + (a1 cos t, a2 sin t)|^2 solve a quartic
    in tan(t/2), so the maximum is taken over its real roots plus the axis
    angles; degenerate axes are covered by the same candidates.  The reference
    that the secular-equation peak norm is checked against.
    """
    c1, c2 = float(center[0]), float(center[1])
    a1, a2 = semi_axes
    big_a = a2 * c2
    big_b = a1 * c1
    kappa = 0.5 * (a2 * a2 - a1 * a1)
    coeffs = np.array([-big_a, -2.0 * big_b - 4.0 * kappa, 0.0, -2.0 * big_b + 4.0 * kappa, big_a])
    candidates = [0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi]
    nonzero = np.nonzero(coeffs)[0]
    if nonzero.size:
        trimmed = coeffs[nonzero[0]:]
        if trimmed.size > 1:
            for root in np.roots(trimmed):
                if abs(root.imag) < 1e-9:
                    candidates.append(2.0 * math.atan(float(root.real)))
    return max(
        math.hypot(c1 + a1 * math.cos(phi), c2 + a2 * math.sin(phi)) for phi in candidates
    )


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


def reference_channel(rng: np.random.Generator, unital: bool) -> AffineChannel:
    """The one-at-a-time rejection sampler that the batched one reproduces bit for bit."""
    while True:
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        if min(q_values(lam1, lam2)) >= 0.0:
            break
    hi, lo = max(abs(lam1), abs(lam2)), min(abs(lam1), abs(lam2))
    if lam1 * lam2 < 0.0:
        lo = -lo
    shift = np.zeros(2)
    if not unital:
        a1, a2 = abs(hi), abs(lo)
        b1, b2 = max(0.0, 1.0 - a1), max(0.0, 1.0 - a2)
        while True:
            shift = np.array([rng.uniform(-b1, b1), rng.uniform(-b2, b2)])
            _, margin = shift_region_contains(hi, lo, shift[0], shift[1])
            if margin >= 0.0 and ellipse_peak_norm(shift, (a1, a2)) <= 1.0:
                break
    theta1, theta2 = rng.uniform(0.0, TAU, 2)
    r1 = rotation_matrix(theta1)
    return AffineChannel(r1 @ np.diag([hi, lo]) @ rotation_matrix(theta2), r1 @ shift)


def assert_same_stream(seed: int, count: int, unital: bool) -> None:
    """sample_cp_channels against the reference: equal bytes, and the generators end in step."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = sample_cp_channels(rng, count, unital)
    reference = [reference_channel(ref_rng, unital) for _ in range(count)]
    assert len(batch) == count
    for got, want in zip(batch, reference):
        assert got.a.tobytes() == want.a.tobytes()
        assert got.w.tobytes() == want.w.tobytes()
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("count", [0, 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_sampler_matches_the_one_at_a_time_reference(seed, count, unital):
    assert_same_stream(seed, count, unital)


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("chunk", [1, 7])
def test_sampler_stream_does_not_depend_on_the_chunk_size(monkeypatch, chunk, unital):
    rng = np.random.default_rng(8)
    expected = sample_cp_channels(rng, 40, unital)
    monkeypatch.setattr(classify_module, "CHUNK", chunk)
    chunked_rng = np.random.default_rng(8)
    chunked = sample_cp_channels(chunked_rng, 40, unital)
    for got, want in zip(chunked, expected, strict=True):
        assert got.a.tobytes() == want.a.tobytes() and got.w.tobytes() == want.w.tobytes()
    assert chunked_rng.random() == rng.random()


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("seed", [12, 13, 14])
def test_sampler_stream_survives_blocks_that_run_out(monkeypatch, seed, unital):
    # blocks of one pair per channel asked for run out long before their chunk
    # is full, some of them on a last pair that lands in the pentagon
    blocks = []

    def counted(rng, a, w, unital):
        blocks.append(len(a))
        return sample_chunk(rng, a, w, unital)

    sample_chunk = classify_module._sample_chunk
    monkeypatch.setattr(classify_module, "PAIRS_PER_CHANNEL", 1)
    monkeypatch.setattr(classify_module, "_sample_chunk", counted)
    assert_same_stream(seed, CHUNK + 40, unital)
    assert len(blocks) > 2  # 2 without running out: CHUNK, then 40


def test_sampler_finishes_long_shift_searches_with_the_scalar_loop(monkeypatch):
    # with one shift try evaluated per pentagon pair, every channel whose
    # first try misses goes through _sample_shift
    tails = []

    def counted(rng, lam1, lam2):
        tails.append((lam1, lam2))
        return _sample_shift(rng, lam1, lam2)

    monkeypatch.setattr(classify_module, "LOOKAHEAD", 1)
    monkeypatch.setattr(classify_module, "_sample_shift", counted)
    assert_same_stream(11, 120, unital=False)
    assert len(tails) > 10


def test_sampled_channels_are_read_only_and_finite():
    for channel in sample_cp_channels(np.random.default_rng(12), 300):
        for part in (channel.a, channel.w):
            assert not part.flags.writeable and np.isfinite(part).all()
            with pytest.raises(ValueError):
                part[0] = 0.5


def random_ellipses(rng: np.random.Generator, n: int):
    """Semi-axes a1 >= a2 >= 0 and shifts inside the sampler's box, with exact zeros mixed in."""
    a1 = rng.uniform(0.0, 1.0, n)
    a2 = a1 * rng.uniform(0.0, 1.0, n)
    s1 = (1.0 - a1) * rng.uniform(-1.0, 1.0, n)
    s2 = (1.0 - a2) * rng.uniform(-1.0, 1.0, n)
    a2[::7] = 0.0
    a2[1::7] = a1[1::7]
    s1[2::7] = 0.0
    s2[3::7] = 0.0
    return a1, a2, s1, s2


def tangent_ellipses(rng: np.random.Generator, n: int):
    """Ellipses in the sampler's box that osculate the unit circle at (0, 1), nudged sideways.

    a2 = a1^2 (up to a relative 1e-6) and s2 = 1 - a2 put the top of the
    ellipse on the circle with the circle's curvature; s1 goes down to
    1e-300.  There b2 ~ a1^2 - a2^2 with a small b1, and the secular root
    grows as b1^(2/3).
    """
    a1 = rng.uniform(0.05, 0.95, n)
    a2 = a1 * a1 * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-6, -1e-6], n))
    s1 = rng.choice([-1.0, 1.0], n) * (1.0 - a1) * 10.0 ** rng.uniform(-300.0, 0.0, n)
    s2 = rng.choice([-1.0, 1.0], n) * (1.0 - a2)
    return a1, a2, s1, s2


def test_peak_norm_matches_the_quartic_on_floats_and_arrays():
    a1, a2, s1, s2 = random_ellipses(np.random.default_rng(55), 3000)
    # hard cases: b1 = 0 with |b2| < a1^2 - a2^2, where the root is mu = d
    a2[4::7] = 0.5 * a1[4::7]
    s1[4::7] = 0.0
    # shifts along the minor axis of near-circles, mostly with the maximizer at y = 1
    a2[5::7] = 0.95 * a1[5::7]
    s1[5::7] = 0.0
    # b = 0: a centred ellipse, every other one a circle, and a point
    s1[6::7] = s2[6::7] = 0.0
    a2[6::14] = a1[6::14]
    a1[6] = a2[6] = 0.0
    hard = (s1 == 0.0) & (abs(a2 * s2) < a1 * a1 - a2 * a2)
    assert np.count_nonzero(hard) > 200
    # off the sampler's scale, where the start's bound on u^(1/3) must hold for u > 1
    big = (100.0 * part for part in random_ellipses(np.random.default_rng(59), 1000))
    tangent = tangent_ellipses(np.random.default_rng(58), 1000)
    a1, a2, s1, s2 = (np.concatenate(parts) for parts in zip((a1, a2, s1, s2), big, tangent))
    exact = np.array([quartic_peak_norm(s, axes) for s, axes in zip(zip(s1, s2), zip(a1, a2))])
    peak = _peak_norm(s1, s2, a1, a2, ARRAY_OPS)
    assert (np.abs(peak - exact) <= 1e-15 * np.maximum(exact, 1.0)).all()
    scalar = [_peak_norm(*lane, FLOAT_OPS) for lane in zip(s1.tolist(), s2.tolist(), a1.tolist(), a2.tolist())]
    assert np.array(scalar).tobytes() == peak.tobytes()
    # ellipse_peak_norm orders the axes itself
    swapped = np.array([ellipse_peak_norm((y, x), (q, p)) for x, y, p, q in zip(s1, s2, a1, a2)])
    assert (np.abs(swapped - exact) <= 1e-15 * np.maximum(exact, 1.0)).all()


def scalar_decision(lam1, lam2, s1, s2) -> list[bool]:
    """The shift test of _sample_shift, one try at a time, with each peak norm checked against the quartic."""
    decisions = []
    for l1, l2, x, y in zip(lam1, lam2, s1, s2):
        _, margin = shift_region_contains(l1, l2, x, y)
        peak = ellipse_peak_norm(np.array([x, y]), (abs(l1), abs(l2)))
        assert abs(peak - quartic_peak_norm((x, y), (abs(l1), abs(l2)))) <= 1e-15
        decisions.append(bool(margin >= 0.0 and peak <= 1.0))
    return decisions


def test_admissible_matches_the_scalar_decision_on_the_rim():
    # shifts whose image touches the unit circle up to rounding: circles
    # (lam1 = lam2) centred at distance 1 - lam1, ellipses shifted along
    # their major axis by 1 - lam1, and tangent_ellipses, whose nudged ones
    # leave the disk by as little as b1^(4/3)
    rng = np.random.default_rng(56)
    n = 2000
    lam1 = rng.uniform(0.0, 0.95, n)
    phi = rng.uniform(0.0, TAU, n)
    lam2 = np.where(np.arange(n) % 2 == 0, lam1, lam1 * rng.uniform(-1.0, 1.0, n))
    s1 = np.where(lam2 == lam1, (1.0 - lam1) * np.cos(phi), np.copysign(1.0 - lam1, np.cos(phi)))
    s2 = np.where(lam2 == lam1, (1.0 - lam1) * np.sin(phi), 0.0)
    t1, t2, ts1, ts2 = tangent_ellipses(rng, 1000)
    lam1, lam2 = np.concatenate([lam1, t1]), np.concatenate([lam2, np.where(np.arange(1000) % 2 == 0, t2, -t2)])
    s1, s2 = np.concatenate([s1, ts1]), np.concatenate([s2, ts2])
    exact = scalar_decision(lam1, lam2, s1, s2)
    assert 0 < sum(exact[:n]) < n and 0 < sum(exact[n:]) < 1000
    assert _admissible(lam1, lam2, s1, s2).tolist() == exact


def test_admissible_matches_the_scalar_decision_off_the_rim():
    a1, a2, s1, s2 = random_ellipses(np.random.default_rng(57), 3000)
    lam2 = np.where(np.arange(3000) % 2 == 0, a2, -a2)
    admissible = _admissible(a1, lam2, s1, s2)
    assert admissible.any() and not admissible.all()
    assert admissible.tolist() == scalar_decision(a1, lam2, s1, s2)
