import hashlib
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from rebit.bloch import bloch_from_density, state_polar
from rebit.channel import AffineChannel, apply, as_affine, compose, orthogonal_channel
from rebit.classify import (
    CHUNK,
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
)
from rebit.cp import CP_TOL, chi_matrix, chi_rank, closed_form_verdict, decide, is_cp, q_values, shift_region_contains
from rebit.linalg import BRACKET_STEPS, FLOATS, NEWTON_STEPS, TAU, _peak_bracket, _peak_norm, rotation_matrix
from test_cp import FAR_FRAMES

DIAG = AffineChannel.diagonal
classify_module = importlib.import_module("rebit.classify")  # the package attribute is the function
cp_module = importlib.import_module("rebit.cp")


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


def test_classify_makes_one_zero_shift_decision():
    # A shift of 1e-10 is within CLASS_TOL, so the family match takes the
    # channel as unital, and General reports the same decision.
    assert classify(DIAG(1.0, 1.0, 1e-10, 0.0)) == Identity()
    assert classify(DIAG(0.3, 0.6, 1e-10, 0.0)) == General(rank=3, unital=True)
    assert classify(DIAG(0.3, 0.6, 2e-9, 0.0)) == General(rank=3, unital=False)


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


@pytest.mark.parametrize("unital", [False, True])
def test_sampled_channels_hold_at_most_385_bytes_each(unital):
    # Each channel holds its two row views and a slotted instance: about
    # 3.45 MB per 10^4 channels.  Filling an instance __dict__ raised it to
    # 5.4 MB; 3.85 MB is what object.__setattr__ on a dict-less instance held.
    tracemalloc.start()
    try:
        channels = sample_cp_channels(np.random.default_rng(0), 10_000, unital=unital)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(channels) == 10_000
    assert held <= 3.85e6


def test_sampler_stream_matches_single_draws():
    rng = np.random.default_rng(3)
    stream = sample_cp_channels(rng, 5)
    assert len(stream) == 5
    for channel in stream:
        assert is_cp(channel).is_cp


def test_shift_sampler_raises_instead_of_returning_a_zero_shift(monkeypatch):
    # with every shift try rejected, the first channel's search decides exactly
    # 100,000 tries, most of them on pairs drawn past its block, and raises;
    # its widest windows hold a few MiB at most
    tries = []

    def rejecting_decide(lam1, lam2, w1, w2, xp, tol):
        verdict, *rest = decide(lam1, lam2, w1, w2, xp, tol)
        tries.append(verdict.size)
        return np.zeros_like(verdict), *rest

    monkeypatch.setattr(classify_module, "decide", rejecting_decide)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match=r"no admissible shift found for lam = \(0\.\d+, -?0\.\d+\)$"):
            sample_cp_channels(np.random.default_rng(0), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(tries) == 100_000
    assert peak < 8 * 2**20


def test_shift_sampler_raises_where_the_walk_reaches_a_row_with_no_admissible_try(monkeypatch):
    # every shift try of the third channel is rejected, the later rows' are
    # not: the walk must end on the third row and raise, not step past it
    third = np.linalg.svd(sample_cp_channels(np.random.default_rng(0), 3)[2].a, compute_uv=False)[0]

    def rejecting_decide(lam1, lam2, w1, w2, xp, tol):
        verdict, *rest = decide(lam1, lam2, w1, w2, xp, tol)
        return verdict & (abs(lam1 - third) > 1e-9), *rest

    monkeypatch.setattr(classify_module, "decide", rejecting_decide)
    with pytest.raises(RuntimeError, match=rf"no admissible shift found for lam = \({str(third)[:8]}"):
        sample_cp_channels(np.random.default_rng(0), 5)


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
@pytest.mark.parametrize("count", [0, 1, 256, 257, 1024, 1025, CHUNK, CHUNK + 1])  # 256 to 1025 end inside a block
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_sampler_matches_the_one_at_a_time_reference(seed, count, unital):
    assert_same_stream(seed, count, unital)


@pytest.mark.parametrize("unital", [False, True])
@pytest.mark.parametrize("count", [1, 1025, CHUNK + 1])
@pytest.mark.parametrize("head, pairs", [(1, 1), (1, 4), (1, 64), (3, 40), (4, 64), (64, 64)])
def test_sampler_stream_does_not_depend_on_the_shift_window(monkeypatch, head, pairs, count, unital):
    # nor on the block size: blocks of one pair per channel run out, and
    # their last rows' windows run past them
    monkeypatch.setattr(classify_module, "HEAD", head)
    monkeypatch.setattr(classify_module, "PAIRS_PER_CHANNEL", pairs)
    monkeypatch.setattr(classify_module, "UNITAL_PAIRS_PER_CHANNEL", pairs)
    assert_same_stream(21, count, unital)


def test_each_block_decides_its_shift_tries_in_at_most_ten_passes(monkeypatch):
    # one pass over the first try after every pentagon pair, then windows of
    # 4, 16, 64, ... tries for every row still open, up to 100,000: each pass
    # searches fewer rows than the last, and from 64 tries on it decides fewer
    # tries than the first.  A count-1 block searches its first row only
    calls = []  # per block: (rows, first, stop) of each search

    def counted_chunk(rng, a, w, unital):
        calls.append([])
        return sample_chunk(rng, a, w, unital)

    def counted_search(u, starts, lam1, lam2, first, stop):
        calls[-1].append((len(starts), first, stop))
        return first_admissible(u, starts, lam1, lam2, first, stop)

    sample_chunk, first_admissible = classify_module._sample_chunk, classify_module._first_admissible
    monkeypatch.setattr(classify_module, "_sample_chunk", counted_chunk)
    monkeypatch.setattr(classify_module, "_first_admissible", counted_search)
    sample_cp_channels(np.random.default_rng(6), 4 * CHUNK)
    assert len(calls) == 4
    for block in calls:
        assert 1 <= len(block) <= 10
        searched = [rows for rows, _, _ in block]
        assert searched == sorted(set(searched), reverse=True)
        assert all(rows * (stop - first) < block[0][0] for rows, first, stop in block if first >= 64)
    assert any(stop > 64 for block in calls for _, _, stop in block)
    calls.clear()
    for seed in range(50):
        sample_cp_channel(seed)
    assert len(calls) == 50 and all(rows == 1 for block in calls for rows, _, _ in block)


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
    monkeypatch.setattr(classify_module, "UNITAL_PAIRS_PER_CHANNEL", 1)
    monkeypatch.setattr(classify_module, "_sample_chunk", counted)
    assert_same_stream(seed, CHUNK + 40, unital)
    assert len(blocks) > 2  # 2 without running out: CHUNK, then 40


class _CountingGenerator:
    """Passes a Generator's draws through and records the size asked for by each ``random`` call."""

    def __init__(self, rng: np.random.Generator):
        self.bit_generator, self.sizes, self._rng = rng.bit_generator, [], rng

    def random(self, size=None):
        self.sizes.append(size)
        return self._rng.random(size)


def count_shift_searches(monkeypatch) -> tuple[list, list]:
    """Record the tries decide makes on Python floats and the pairs drawn past each block."""
    float_tries, past_block = [], []

    def counted_decide(lam1, lam2, w1, w2, xp, tol):
        if xp is FLOATS:
            float_tries.append((lam1, lam2))
        return decide(lam1, lam2, w1, w2, xp, tol)

    def counted_chunk(rng, a, w, unital):
        counting = _CountingGenerator(rng)
        drawn = sample_chunk(counting, a, w, unital)
        # the block, then the pairs its passes append, then the advance over the used doubles
        past_block.extend(counting.sizes[1:-1])
        return drawn

    sample_chunk = classify_module._sample_chunk
    monkeypatch.setattr(classify_module, "decide", counted_decide)
    monkeypatch.setattr(classify_module, "_sample_chunk", counted_chunk)
    return float_tries, past_block


def test_sampler_decides_its_shift_tries_on_arrays(monkeypatch):
    # the rows whose first try misses are searched on arrays too, in the
    # passes before the walk: decide never runs on Python floats
    float_tries, _ = count_shift_searches(monkeypatch)
    assert_same_stream(11, 120, unital=False)
    assert float_tries == []


@pytest.mark.parametrize("seed, head", [(11, 1), (0, 1), (0, 4)])
def test_sampler_open_row_window_runs_past_the_block(monkeypatch, seed, head):
    # blocks of one pair per channel leave the last rows' windows too few
    # pairs, so a pass appends the generator's next pairs to the block first
    _, past_block = count_shift_searches(monkeypatch)
    monkeypatch.setattr(classify_module, "HEAD", head)
    monkeypatch.setattr(classify_module, "PAIRS_PER_CHANNEL", 1)
    monkeypatch.setattr(classify_module, "UNITAL_PAIRS_PER_CHANNEL", 1)
    assert_same_stream(seed, 300, unital=False)
    assert len(past_block) > 0


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_sampler_fills_each_block_of_non_unital_channels(monkeypatch, seed):
    # no shift search ends a chunk early: 4 x CHUNK channels take 4 blocks
    chunks = []

    def counted(rng, a, w, unital):
        chunks.append(len(a))
        return sample_chunk(rng, a, w, unital)

    sample_chunk = classify_module._sample_chunk
    monkeypatch.setattr(classify_module, "_sample_chunk", counted)
    sample_cp_channels(np.random.default_rng(seed), 4 * CHUNK)
    assert chunks == [CHUNK] * 4


def test_sampler_sends_few_shift_tries_to_newton(monkeypatch):
    # decide's closed-form bounds settle most tries, the bracket nearly all the
    # rest; the Newton peak norm gets almost none
    decided, bracket, newton = [], [], []

    def counted_decide(lam1, lam2, w1, w2, xp, tol):
        decided.append(np.broadcast(lam1, lam2, w1, w2).size)
        return decide(lam1, lam2, w1, w2, xp, tol)

    def counted_bracket(s1, s2, a1, a2, xp):
        bracket.append(np.broadcast(s1, s2, a1, a2).size)
        return _peak_bracket(s1, s2, a1, a2, xp)

    def counted_peak_norm(s1, s2, a1, a2, xp):
        newton.append(np.broadcast(s1, s2, a1, a2).size)
        return _peak_norm(s1, s2, a1, a2, xp)

    monkeypatch.setattr(classify_module, "decide", counted_decide)
    monkeypatch.setattr(cp_module, "_peak_bracket", counted_bracket)
    monkeypatch.setattr(cp_module, "_peak_norm", counted_peak_norm)
    sample_cp_channels(np.random.default_rng(9), 10**4)
    assert 5 * 10**4 < sum(decided) < 1.2 * 10**5  # about 99.6k tries, rows the walk never reaches included
    assert 0 < sum(bracket) < 0.15 * sum(decided)
    assert sum(newton) <= 0.001 * sum(decided)


# PCG64 states after sample_cp_channels(default_rng(seed), 10**4, unital): the
# number of doubles drawn, which every verdict of the sampler sets, and nothing
# that rounds differently across platforms (cos, sin, matmul)
PINNED_STATES = {
    (0, False): 223309362680474810356807554790289689485,
    (0, True): 142927005611384967437629997341063469385,
    (1, False): 125517445112863556197131111669057292240,
    (1, True): 284630804769205133994398593876166698002,
    (2, False): 34213849993585035746142091056621295508,
    (2, True): 302574655704903662024428910984185001612,
    (3, False): 282253810928319282904586091775930957403,
    (3, True): 255577545134626852623419141548789610685,
}


@pytest.mark.parametrize("seed, unital", sorted(PINNED_STATES))
def test_sampler_leaves_the_generator_in_its_pinned_state(seed, unital):
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    sample_cp_channels(rng, 10**4, unital)
    state["state"]["state"] = PINNED_STATES[seed, unital]
    assert rng.bit_generator.state == state


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
    peak = _peak_norm(s1, s2, a1, a2, np)
    assert (np.abs(peak - exact) <= 1e-15 * np.maximum(exact, 1.0)).all()
    scalar = [_peak_norm(*lane, FLOATS) for lane in zip(s1.tolist(), s2.tolist(), a1.tolist(), a2.tolist())]
    assert np.array(scalar).tobytes() == peak.tobytes()
    # ellipse_peak_norm orders the axes itself
    swapped = np.array([ellipse_peak_norm((y, x), (q, p)) for x, y, p, q in zip(s1, s2, a1, a2)])
    assert (np.abs(swapped - exact) <= 1e-15 * np.maximum(exact, 1.0)).all()


def test_peak_norm_of_circles_with_far_centres():
    # b2 = a2 |s2| far above 1: without the floor t >= b2 * 1e-300, t / mu underflows
    # to 0 and the float path divides by zero
    s1, s2, r = np.array([[0.0, 1e30, 0.5], [1e-200, 4e7, 1e15], [3.0, -1e100, 0.9], [0.0, 1e12, 1e-3]]).T
    peak = _peak_norm(s1, s2, r, r, np)
    assert (np.abs(peak - (np.hypot(s1, s2) + r)) <= 1e-15 * peak).all()
    scalar = [_peak_norm(*lane, FLOATS) for lane in zip(s1.tolist(), s2.tolist(), r.tolist(), r.tolist())]
    assert np.array(scalar).tobytes() == peak.tobytes()
    assert ellipse_peak_norm((0.0, 1e30), (0.5, 0.5)) == 1e30


def test_peak_bracket_holds_the_newton_peak_norm_on_floats_and_arrays():
    # lower <= peak^2 <= upper to a few ulps on the peak norm's families and
    # edge cases, the same bits on floats, tight on most lanes and finite on
    # nearly every hard-case lane
    rng = np.random.default_rng(61)
    a1, a2, s1, s2 = random_ellipses(rng, 5000)
    zero = np.zeros(5000)
    far = 10.0 ** rng.uniform(0.0, 30.0, 5000)
    families = [
        random_ellipses(rng, 20000),
        tangent_ellipses(rng, 5000),  # near-tangent: b2 ~ d with a small b1
        (a1, 0.5 * a1, zero, s2),  # the hard case b1 = 0, mostly with b2 < d
        (a1, a2, s1, zero),  # b2 = 0
        (a1, a1, s1, s2),  # circles
        (a1, zero, s1, s2),  # segments
        (zero, zero, s1, s2),  # points
        (a1, a2, s1 * far, s2 * far),  # shifts out to 1e30
    ]
    a1, a2, s1, s2 = (np.concatenate(parts) for parts in zip(*families))
    lower, upper = _peak_bracket(s1, s2, a1, a2, np)
    peak2 = _peak_norm(s1, s2, a1, a2, np) ** 2
    slack = 8 * np.finfo(float).eps * peak2
    assert (lower <= peak2 + slack).all() and (peak2 <= upper + slack).all()
    assert np.count_nonzero(upper - lower <= 1e-12 * peak2) > 0.7 * len(a1)
    # the hard case b1 = 0 with b2 < d, where Newton starts at its root mu = d
    hard = (s1 == 0.0) & (a2 * abs(s2) < (a1 - a2) * (a1 + a2))
    assert np.count_nonzero(hard) > 5000
    assert np.count_nonzero(np.isfinite(upper[hard])) >= 0.95 * np.count_nonzero(hard)
    scalar = [_peak_bracket(*lane, FLOATS) for lane in zip(s1.tolist(), s2.tolist(), a1.tolist(), a2.tolist())]
    assert np.array(scalar).T.tobytes() == np.stack([lower, upper]).tobytes()


def kernel_ellipses(rng: np.random.Generator, n: int):
    """Random, near-tangent, hard-case and log-scaled ellipses, 4n lanes, a1 >= a2 >= 0.

    Built with arithmetic and ``ldexp`` only (no ``**``, whose rounding is
    the platform's), so every platform gets the same input bits.
    """
    random = random_ellipses(rng, n)
    # osculating the unit circle at (0, 1), as in tangent_ellipses, with s1 down to 2^-990
    a1 = rng.uniform(0.05, 0.95, n)
    a2 = a1 * a1 * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-6, -1e-6], n))
    tangent = a1, a2, np.ldexp((1.0 - a1) * rng.uniform(-1.0, 1.0, n), rng.integers(-990, 1, n)), 1.0 - a2
    a1 = rng.uniform(0.0, 1.0, n)
    hard = a1, 0.5 * a1, np.zeros(n), (1.0 - 0.5 * a1) * rng.uniform(-1.0, 1.0, n)  # b1 = 0, mostly b2 < d
    scale = np.ldexp(1.0, rng.integers(-40, 41, n))
    log_scaled = tuple(part * scale for part in random_ellipses(rng, n))
    return tuple(np.concatenate(parts) for parts in zip(random, tangent, hard, log_scaled))


def kernel_outputs(a1, a2, s1, s2, lam2, xp) -> dict:
    """The peak-norm kernel's outputs and decide's verdicts, on arrays (``xp`` numpy) or one lane (FLOATS)."""
    return {
        "peak_norm": (_peak_norm(s1, s2, a1, a2, xp),),
        "bracket": _peak_bracket(s1, s2, a1, a2, xp, BRACKET_STEPS),
        "bracket_newton": _peak_bracket(s1, s2, a1, a2, xp, NEWTON_STEPS),
        "decide": (decide(a1, lam2, s1, s2, xp, 0.0)[0], decide(a1, lam2, s1, s2, xp, CP_TOL)[0]),
    }


# md5 of kernel_outputs on kernel_ellipses(default_rng(83), 2000); the kernels use
# only + - * /, sqrt, maximum and where, which round alike on every platform
KERNEL_MD5 = {
    "peak_norm": "b789aae783c22328b6def77b01315015",
    "bracket": "9c4a777157cee1ae445ea36cf7c8db00",
    "bracket_newton": "8167a0145a7c986f07140b50b815d821",
    "decide": "68036b9e4465004b386bae1ca78cf473",
}


def test_peak_kernel_bits_are_pinned_on_floats_and_arrays():
    a1, a2, s1, s2 = kernel_ellipses(np.random.default_rng(83), 2000)
    lam2 = np.where(np.arange(len(a1)) % 2 == 0, a2, -a2)
    outputs = kernel_outputs(a1, a2, s1, s2, lam2, np)
    assert {name: hashlib.md5(np.stack(out).tobytes()).hexdigest() for name, out in outputs.items()} == KERNEL_MD5
    lanes = range(0, len(a1), 4)
    scalar = [kernel_outputs(*(x[i].item() for x in (a1, a2, s1, s2, lam2)), FLOATS) for i in lanes]
    for name, out in outputs.items():
        assert np.array([lane[name] for lane in scalar]).T.tobytes() == np.stack(out)[:, lanes].tobytes()
    # every step count brackets the peak norm
    peak2 = outputs["peak_norm"][0] ** 2
    for steps in range(NEWTON_STEPS + 1):
        lower, upper = _peak_bracket(s1, s2, a1, a2, np, steps)
        assert (lower <= upper * (1.0 + 1e-12)).all() and (peak2 <= upper * (1.0 + 1e-12)).all()


def scalar_decision(lam1, lam2, s1, s2) -> list[bool]:
    """The reference sampler's shift test, one try at a time, with each peak norm checked against the quartic."""
    decisions = []
    for l1, l2, x, y in zip(lam1, lam2, s1, s2):
        _, margin = shift_region_contains(l1, l2, x, y)
        peak = ellipse_peak_norm(np.array([x, y]), (abs(l1), abs(l2)))
        assert abs(peak - quartic_peak_norm((x, y), (abs(l1), abs(l2)))) <= 1e-15
        decisions.append(bool(margin >= 0.0 and peak <= 1.0))
    return decisions


def float_decision(lam1, lam2, s1, s2) -> list[bool]:
    """decide with FLOATS and tolerance 0, one try at a time: the float path must give the arrays' verdicts."""
    return [decide(*lane, FLOATS, 0.0)[0] for lane in zip(lam1.tolist(), lam2.tolist(), s1.tolist(), s2.tolist())]


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
    admissible, _, _ = decide(lam1, lam2, s1, s2, np, 0.0)  # the batched sampler's test
    assert admissible.tolist() == exact
    assert float_decision(lam1, lam2, s1, s2) == admissible.tolist()


def rim_ellipses(rng: np.random.Generator, ellipses, tol: float):
    """The ellipses scaled about the origin so that their peak norm lies within 1e-12 of 1 + tol."""
    a1, a2, s1, s2 = ellipses
    scale = (1.0 + tol) * (1.0 + rng.uniform(-1e-12, 1e-12, len(a1))) / _peak_norm(s1, s2, a1, a2, np)
    return a1 * scale, a2 * scale, s1 * scale, s2 * scale


def test_decide_equals_the_closed_form_and_the_newton_peak_norm():
    # the bounds must never settle a lane the other way from the peak norm: on
    # the rim, on the peak norm's hard families and on far frames
    rng = np.random.default_rng(71)
    near_circles = random_ellipses(rng, 10000)
    near_circles[1][:] = 0.95 * near_circles[0]
    near_circles[2][::2] = 0.0
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 10000)
    log_scaled = tuple(part * scale for part in random_ellipses(rng, 10000))
    families = [
        random_ellipses(rng, 20000),
        rim_ellipses(rng, random_ellipses(rng, 20000), 0.0),
        rim_ellipses(rng, random_ellipses(rng, 20000), CP_TOL),
        rim_ellipses(rng, tangent_ellipses(rng, 10000), 0.0),
        tangent_ellipses(rng, 10000),
        near_circles,
        log_scaled,
        tuple(np.array(part) for part in zip(*FAR_FRAMES)),
    ]
    a1, a2, s1, s2 = (np.concatenate(parts) for parts in zip(*families))
    lam2 = np.where(np.arange(len(a1)) % 2 == 0, a2, -a2)
    assert len(a1) > 10**5
    lanes = list(zip(a1.tolist(), lam2.tolist(), s1.tolist(), s2.tolist()))
    with np.errstate(over="ignore", invalid="ignore"):  # the far frames overflow to inf
        peak = _peak_norm(s1, s2, a1, a2, np)
        for tol in (0.0, CP_TOL):
            closed, _, _ = closed_form_verdict(a1, lam2, s1, s2, tol)
            expected = closed & (peak <= 1.0 + tol)
            on_rim = closed & (abs(peak - (1.0 + tol)) <= 1e-12)
            assert np.count_nonzero(on_rim & expected) > 1000 and np.count_nonzero(on_rim & ~expected) > 1000
            verdicts, _, _ = decide(a1, lam2, s1, s2, np, tol)
            assert verdicts.tolist() == expected.tolist()
            assert [decide(*lane, FLOATS, tol)[0] for lane in lanes] == expected.tolist()
            rim = np.flatnonzero(on_rim)[::50]  # single lanes as numpy scalars
            assert [decide(*(x[i] for x in (a1, lam2, s1, s2)), np, tol)[0] for i in rim] == expected[rim].tolist()


def test_admissible_matches_the_scalar_decision_off_the_rim():
    a1, a2, s1, s2 = random_ellipses(np.random.default_rng(57), 3000)
    lam2 = np.where(np.arange(3000) % 2 == 0, a2, -a2)
    admissible, _, _ = decide(a1, lam2, s1, s2, np, 0.0)
    assert admissible.any() and not admissible.all()
    assert admissible.tolist() == scalar_decision(a1, lam2, s1, s2)
    assert float_decision(a1, lam2, s1, s2) == admissible.tolist()
