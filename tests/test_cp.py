import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rebit.bloch import SIGMA_0, SIGMA_1, SIGMA_2
from rebit.channel import AffineChannel, as_affine, compose, orthogonal_channel
from rebit.classify import ellipse_peak_norm
from rebit.canonical import decompose_channel
from rebit.cp import (
    CP_TOL,
    DIAGONAL_TOL,
    TIE_TOL,
    admissible_pentagon,
    canonical_frame,
    charpoly_coeffs,
    chi_matrix,
    closed_form_verdict,
    decide,
    diagonal_frame,
    is_cp,
    q_values,
    shift_region_contains,
)
from rebit.linalg import FLOATS, eig_sym3, rotation_matrix
from test_linalg import full

DIAG = AffineChannel.diagonal


def chi_general(channel: AffineChannel) -> np.ndarray:
    """Chi matrix computed from the defining trace sums.

    chi_rs = 1/4 * sum_k Tr[sigma_s sigma_k sigma_r C(sigma_k)] with
    C(sigma_0) = I + w1 sigma_1 + w2 sigma_2 and C(sigma_j) = lam_j sigma_j.
    Only diagonal channels are accepted; decompose first otherwise.  The
    independent derivation route that :func:`chi_matrix` is checked against.
    """
    a = channel.a
    if abs(a[0, 1]) > DIAGONAL_TOL or abs(a[1, 0]) > DIAGONAL_TOL:
        raise ValueError("chi_general requires a diagonal channel; decompose first")
    sig = (SIGMA_0, SIGMA_1, SIGMA_2)
    images = (
        SIGMA_0 + channel.w[0] * SIGMA_1 + channel.w[1] * SIGMA_2,
        a[0, 0] * SIGMA_1,
        a[1, 1] * SIGMA_2,
    )
    chi = np.zeros((3, 3))
    for r in range(3):
        for s in range(3):
            chi[r, s] = 0.25 * math.fsum(
                np.trace(sig[s] @ sig[k] @ sig[r] @ images[k]) for k in range(3)
            )
    assert np.abs(chi - chi.T).max() <= 1e-12
    return chi


def test_chi_matrix_identity_point():
    assert np.abs(full(chi_matrix(1.0, 1.0)) - 0.5 * np.diag([3.0, 1.0, 1.0])).max() == 0.0


def test_chi_matrix_depolarizing_point():
    assert np.abs(full(chi_matrix(0.0, 0.0)) - 0.5 * np.eye(3)).max() == 0.0


def test_chi_matrix_pure_vertical_shift():
    expected = 0.5 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.abs(full(chi_matrix(0.0, 0.0, 0.0, 1.0)) - expected).max() == 0.0


def test_chi_general_matches_closed_form():
    assert np.abs(chi_general(AffineChannel.identity()) - 0.5 * np.diag([3.0, 1.0, 1.0])).max() < 1e-14
    cases = [(0.5, 0.3, 0.0, 0.0), (0.0, 0.0, 0.2, 0.1), (-0.8, 0.4, 0.3, -0.2)]
    for lam1, lam2, w1, w2 in cases:
        computed = chi_general(DIAG(lam1, lam2, w1, w2))
        assert np.abs(computed - full(chi_matrix(lam1, lam2, w1, w2))).max() <= 1e-12


def test_chi_general_random_agreement():
    rng = np.random.default_rng(31)
    for _ in range(500):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        computed = chi_general(DIAG(lam1, lam2, w1, w2))
        assert np.abs(computed - full(chi_matrix(lam1, lam2, w1, w2))).max() <= 1e-12


def test_chi_general_rejects_non_diagonal():
    with pytest.raises(ValueError):
        chi_general(AffineChannel(np.array([[0.5, 0.1], [0.0, 0.5]]), np.zeros(2)))


def test_q_values_reference_points():
    assert q_values(1.0, 1.0) == (1.5, 0.5, 0.5)
    assert q_values(-1.0, 0.0) == (0.0, 0.0, 1.0)
    assert q_values(0.0, -1.0) == (0.0, 1.0, 0.0)


def test_charpoly_identity_point():
    a, b, det_chi = charpoly_coeffs(1.0, 1.0)
    assert (a, b) == (5.0, 3.0)
    assert det_chi == pytest.approx(1.5 * 0.5 * 0.5)


def test_charpoly_origin_and_singular_points():
    a, b, det_chi = charpoly_coeffs(0.0, 0.0)
    assert (a, b, det_chi) == (3.0, 3.0, 0.125)
    _, _, det_chi = charpoly_coeffs(0.0, 0.0, 0.0, 1.0)
    assert det_chi == 0.0
    eigs = eig_sym3(*chi_matrix(0.0, 0.0, 0.0, 1.0))
    assert abs(eigs[2]) < 1e-14


def test_charpoly_matches_chi_trace_and_det():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        a, b, det_chi = charpoly_coeffs(lam1, lam2, w1, w2)
        chi = chi_matrix(lam1, lam2, w1, w2)
        assert abs(np.trace(full(chi)) - a / 2.0) <= 1e-12
        assert abs(np.linalg.det(full(chi)) - det_chi) <= 1e-12
        # b is the disk-bound coefficient: b >= 0 iff ||w||^2 <= 3 + 2s - s^2
        s = lam1 + lam2
        assert abs(b - (3.0 + 2.0 * s - s * s - w1 * w1 - w2 * w2)) <= 1e-12


def test_shift_region_identity_point():
    ok, margin = shift_region_contains(1.0, 1.0, 0.0, 0.0)
    assert ok and margin == pytest.approx(3.0)


def test_shift_region_degenerate_factor_forces_zero_shift():
    ok, margin = shift_region_contains(1.0, 0.0, 0.0, 0.1)
    assert not ok and margin == pytest.approx(-0.02)


def test_shift_region_unit_circle_boundary():
    for phi in np.linspace(0.0, 2 * math.pi, 17):
        ok, margin = shift_region_contains(0.0, 0.0, math.cos(phi), math.sin(phi))
        assert ok
        assert abs(margin) < 1e-15


def test_is_cp_identity_full_rank():
    report = is_cp(AffineChannel.identity())
    assert report.is_cp and report.kraus_rank == 3


def test_is_cp_rejects_transpose_like_reflection():
    report = is_cp(DIAG(1.0, -1.0))
    assert not report.is_cp
    assert report.q[2] == pytest.approx(-0.5)


def test_is_cp_rank_one_vertex():
    report = is_cp(DIAG(-1.0, 0.0))
    assert report.is_cp and report.kraus_rank == 1


def test_is_cp_boundary_shift_rank_two():
    report = is_cp(DIAG(0.0, 0.0, 0.0, 1.0))
    assert report.is_cp
    assert abs(report.margin) < 1e-15
    assert report.kraus_rank == 2


def test_is_cp_computes_the_margin_once(monkeypatch):
    import rebit.cp

    calls = []
    original = rebit.cp.closed_form_verdict

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rebit.cp, "closed_form_verdict", counted)
    dressed = AffineChannel(rotation_matrix(0.4) @ np.diag([0.6, 0.2]) @ rotation_matrix(1.1), [0.1, 0.0])
    # a literal frame outside the canonical sector lam1 >= |lam2| is decided
    # once more, folded into it
    for channel, frames in (
        (AffineChannel.identity(), 1), (DIAG(0.3, -0.7, 0.1, 0.0), 2), (DIAG(1.0, -1.0), 1), (dressed, 1)
    ):
        calls.clear()
        report = is_cp(channel)
        assert len(set(calls)) == len(calls) == frames
        assert (report.a, report.b, report.det_chi) == charpoly_coeffs(*report.frame)


def test_closed_form_verdict_types():
    verdict, _, _ = closed_form_verdict(0.9, -0.9, 0.1, 0.0)
    assert type(verdict) is bool and not verdict
    verdict, _, _ = closed_form_verdict(0.5, 0.5, 0.1, 0.0)
    assert type(verdict) is bool and verdict
    points = np.array(
        [[0.9, -0.9, 0.1, 0.0], [0.5, 0.5, 0.1, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.1]]
    )
    verdicts, (q0, q1, q2), margins = closed_form_verdict(*points.T)
    for row, verdict, *rest in zip(points, verdicts, q0, q1, q2, margins):
        assert (verdict, tuple(rest[:3]), rest[3]) == closed_form_verdict(*row)
    assert verdicts.tolist() == [False, True, True, False]
    # the slack: a margin (shift just past the rim) and a q-value (lam1 just past 1) below 0 by less than CP_TOL
    for point in ((0.0, 0.0, 0.0, 1.0 + 1e-11), (1.0 + 1e-10, 0.0, 0.0, 0.0)):
        assert closed_form_verdict(*point)[0] and not closed_form_verdict(*point, 0.0)[0]


def pentagon_edge_pairs() -> np.ndarray:
    """Scale pairs (lam1, lam2) on the unital admissible pentagon's vertices and edges, one per row."""
    t = np.arange(-128, 129) / 64.0  # exact dyadic steps over [-2, 2], so each edge's q-value is exactly 0
    return np.concatenate(
        [
            np.array(admissible_pentagon()),
            np.stack([t, -1.0 - t], axis=1),  # q0 = 0
            np.stack([t, t + 1.0], axis=1),  # q1 = 0
            np.stack([t, t - 1.0], axis=1),  # q2 = 0
            np.array([(a, b) for a in (0.0, -0.0, 1.0, -1.0) for b in (0.0, -0.0, 1.0, -1.0)]),
            np.random.default_rng(36).uniform(-1.0, 1.0, (1_000, 2)),
        ]
    )


def pentagon_mask(lam1, lam2):
    q0, q1, q2 = q_values(lam1, lam2)
    return (q0 >= 0.0) & (q1 >= 0.0) & (q2 >= 0.0)


def test_closed_form_at_zero_shift_is_the_pentagon():
    # the sampler's pentagon mask: at zero shift the margin 8 q0 q1 q2 adds nothing to the q-values
    lam1, lam2 = pentagon_edge_pairs().T
    assert min((q == 0.0).sum() for q in q_values(lam1, lam2)) >= 257  # every edge point, exactly
    expected = pentagon_mask(lam1, lam2)
    assert 0 < expected.sum() < len(expected)
    assert closed_form_verdict(lam1, lam2, 0.0, 0.0, 0.0)[0].tolist() == expected.tolist()
    floats = [closed_form_verdict(l1, l2, 0.0, 0.0, 0.0)[0] for l1, l2 in zip(lam1.tolist(), lam2.tolist())]
    assert all(type(verdict) is bool for verdict in floats)
    assert floats == expected.tolist()
    # the array path alone on the 201^2 grid and 10^5 random pairs; the float path above shares its formula
    grid = np.linspace(-1.0, 1.0, 201)
    lam1, lam2 = np.concatenate(
        [
            np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2),
            np.random.default_rng(37).uniform(-1.0, 1.0, (100_000, 2)),
        ]
    ).T
    assert np.array_equal(closed_form_verdict(lam1, lam2, 0.0, 0.0, 0.0)[0], pentagon_mask(lam1, lam2))


def test_diagonal_frame_literal_for_diagonal_channels():
    assert diagonal_frame(DIAG(-1.0, 0.0)) == (-1.0, 0.0, 0.0, 0.0)
    assert diagonal_frame(DIAG(0.3, -0.7, 0.1, 0.0)) == (0.3, -0.7, 0.1, 0.0)


def test_diagonal_frame_canonical_for_dressed_channels():
    a = rotation_matrix(0.4) @ np.diag([0.6, 0.2]) @ rotation_matrix(1.1)
    channel = AffineChannel(a, np.zeros(2))
    lam1, lam2, _, _ = diagonal_frame(channel)
    assert (lam1, lam2) == pytest.approx((0.6, 0.2))
    assert is_cp(channel).frame == diagonal_frame(channel)  # the report carries the frame it decided in


def test_admissible_pentagon_vertices():
    vertices = admissible_pentagon()
    assert len(vertices) == 5
    assert (-1.0, 0.0) in vertices and (0.0, -1.0) in vertices and (1.0, 1.0) in vertices
    for lam1, lam2 in vertices:
        assert min(q_values(lam1, lam2)) >= 0.0
    # counterclockwise: positive shoelace area
    area = 0.0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        area += x0 * y1 - x1 * y0
    assert area > 0.0


def test_unital_grid_agreement_coarse():
    # dense version runs in the acceptance suite
    for lam1 in np.linspace(-1.0, 1.0, 41):
        for lam2 in np.linspace(-1.0, 1.0, 41):
            closed = min(q_values(lam1, lam2)) >= -1e-9
            oracle = eig_sym3(*chi_matrix(lam1, lam2))[2] >= -1e-9
            assert closed == oracle


def test_random_sweep_agreement_small():
    rng = np.random.default_rng(33)
    mismatches = 0
    for _ in range(10_000):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        q = q_values(lam1, lam2)
        _, margin = shift_region_contains(lam1, lam2, w1, w2)
        closed = min(q) >= -1e-9 and margin >= -1e-9
        oracle = eig_sym3(*chi_matrix(lam1, lam2, w1, w2))[2] >= -1e-9
        if closed != oracle and abs(margin) >= 1e-7 and min(map(abs, q)) >= 1e-7:
            mismatches += 1
    assert mismatches == 0


def test_det_condition_implies_b_nonnegative():
    rng = np.random.default_rng(34)
    for _ in range(10_000):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        q = q_values(lam1, lam2)
        _, margin = shift_region_contains(lam1, lam2, w1, w2)
        if min(q) >= 0.0 and margin >= 0.0:
            _, b, _ = charpoly_coeffs(lam1, lam2, w1, w2)
            assert b >= -1e-9


def test_b_disk_bound_equals_four():
    grid = np.linspace(-1.0, 1.0, 201)
    values = 3.0 + 2.0 * np.add.outer(grid, grid) - np.add.outer(grid, grid) ** 2
    assert abs(values.max() - 4.0) <= 1e-12


def test_single_shift_eigenvalue_formulas():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        lam1, lam2, w2 = rng.uniform(-1.0, 1.0, 3)
        root = math.sqrt(lam1 * lam1 + w2 * w2)
        expected = sorted(
            [0.5 * (1 + lam1 - lam2), 0.5 * (1 + lam2 + root), 0.5 * (1 + lam2 - root)],
            reverse=True,
        )
        eigs = eig_sym3(*chi_matrix(lam1, lam2, 0.0, w2))
        assert np.abs(np.array(eigs) - np.array(expected)).max() <= 1e-9
        # mirrored shift: the roles of the scale coefficients swap
        lam1, lam2, w1 = rng.uniform(-1.0, 1.0, 3)
        root = math.sqrt(lam2 * lam2 + w1 * w1)
        expected = sorted(
            [0.5 * (1 - lam1 + lam2), 0.5 * (1 + lam1 + root), 0.5 * (1 + lam1 - root)],
            reverse=True,
        )
        eigs = eig_sym3(*chi_matrix(lam1, lam2, w1, 0.0))
        assert np.abs(np.array(eigs) - np.array(expected)).max() <= 1e-9


def test_cp_invariant_under_orthogonal_dressing():
    rng = np.random.default_rng(36)
    for _ in range(500):
        channel = AffineChannel(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-0.5, 0.5, 2))
        left = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        right = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        dressed = compose(left, compose(channel, right))
        assert is_cp(dressed).is_cp == is_cp(channel).is_cp


# Invariants any definition of CP implies: the image of the disk stays in the
# disk, the verdict survives dressing by exact angles, and CP maps compose.


@pytest.mark.parametrize("channel", [DIAG(5.0, 5.0), DIAG(0.5, 0.5, 0.6, 0.0)], ids=["scaled-out", "shifted-out"])
def test_is_cp_implies_the_image_stays_in_the_disk(channel):
    assert ellipse_peak_norm(channel.w, (channel.a[0, 0], channel.a[1, 1])) > 1.0 + CP_TOL
    assert not is_cp(channel).is_cp


def test_rotation_channel_is_cp():
    assert is_cp(as_affine(orthogonal_channel(rotation_matrix(math.pi / 2)))).is_cp


def test_cp_invariant_under_dressing_by_an_exact_angle():
    channel = DIAG(-0.8, -0.8)
    dressed = AffineChannel(rotation_matrix(math.pi) @ channel.a, rotation_matrix(math.pi) @ channel.w)
    assert is_cp(dressed).is_cp
    assert is_cp(channel).is_cp


def test_compose_of_cp_channels_is_cp():
    a = AffineChannel(rotation_matrix(1e-6) @ np.diag([-0.8, -0.8]), np.zeros(2))
    b = AffineChannel(rotation_matrix(-1e-6), np.zeros(2))
    assert is_cp(a).is_cp and is_cp(b).is_cp
    assert is_cp(compose(a, b)).is_cp


@pytest.mark.parametrize("shift", [(0.5, 0.0), (0.0, 0.5), (0.3, 0.4)])
def test_tied_reflection_is_decided_alike_in_every_frame(shift):
    # a reflection with equal singular values: every rotation of the shift is a
    # canonical frame, and the image, a disk of radius 0.5 at distance 0.5, touches the rim
    channels = [
        DIAG(0.5, -0.5, *shift),
        AffineChannel([[0.0, 0.5], [0.5, 0.0]], shift),
        AffineChannel(rotation_matrix(0.3) @ np.diag([0.5, -0.5]) @ rotation_matrix(1.1), shift),
    ]
    assert all(is_cp(channel).is_cp for channel in channels)
    assert not is_cp(DIAG(0.5, -0.5, 0.5, 0.01)).is_cp


ENTRIES = st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4)
SHIFTS = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)
QUARTER_TURNS = st.integers(0, 3)


@settings(max_examples=500, deadline=None)
@given(ENTRIES, SHIFTS)
def test_is_cp_implies_the_canonical_image_stays_in_the_disk(entries, shift):
    channel = AffineChannel(np.reshape(entries, (2, 2)), shift)
    form = decompose_channel(channel)
    if is_cp(channel).is_cp:
        assert ellipse_peak_norm(form.shift, (form.lam1, form.lam2)) <= 1.0 + CP_TOL


@settings(max_examples=500, deadline=None)
@given(ENTRIES, SHIFTS, QUARTER_TURNS, QUARTER_TURNS)
def test_cp_invariant_under_dressing_by_quarter_turns(entries, shift, left, right):
    channel = AffineChannel(np.reshape(entries, (2, 2)), shift)
    r1, r2 = rotation_matrix(left * math.pi / 2), rotation_matrix(right * math.pi / 2)
    dressed = AffineChannel(r1 @ channel.a @ r2, r1 @ channel.w)
    assert is_cp(dressed).is_cp == is_cp(channel).is_cp


@pytest.mark.xfail(strict=True, reason="kraus_rank counts the literal-frame chi, which a half turn changes")
@pytest.mark.parametrize(
    "turned, plain", [(DIAG(-1.0, -1.0), AffineChannel.identity()), (DIAG(-0.8, -0.8), DIAG(0.8, 0.8))]
)
def test_kraus_rank_survives_a_half_turn(turned, plain):
    # diag(-l, -l) is diag(l, l) after a half turn; their chi ranks differ
    # (2 against 3), their real Kraus ranks do not
    assert is_cp(turned).is_cp and is_cp(plain).is_cp
    assert is_cp(turned).kraus_rank == is_cp(plain).kraus_rank


# The canonical fold and the decision, shared by is_cp (floats) and the
# sampler (arrays): both must give every lane the same bits.


def fold_by_turns(lam1, lam2, w1, w2):
    """The fold written out with a quarter turn, a half turn and the tie rule, one frame at a time."""
    if abs(lam1) < abs(lam2):
        lam1, lam2, w1, w2 = lam2, lam1, w2, w1
    if lam1 < 0.0:
        lam1, lam2 = -lam1, -lam2
    if lam2 < 0.0 and lam1 + lam2 <= TIE_TOL:
        w1, w2 = math.hypot(w1, w2), 0.0
    return lam1, lam2, w1, w2


def fold_frames() -> list[tuple[float, float, float, float]]:
    """Diagonal frames in every sector of the fold, as Python floats.

    Canonical frames and their quarter and half turns; among them
    reflections inside, at and outside the TIE_TOL band, exact ties
    included; and every combination of signed zeros.
    """
    rng = np.random.default_rng(61)
    hi = rng.uniform(0.0, 1.0, 1100)
    lo = hi * rng.uniform(-1.0, 1.0, 1100)
    lo[500:] = np.repeat([0.0, 0.5, 1.0, 1.5, 10.0, -1.0], 100) * TIE_TOL - hi[500:]  # lam1 + lam2, in TIE_TOL
    w1, w2 = rng.uniform(-1.0, 1.0, (2, 1100)) * (1.0 - hi)
    turns = [(hi, lo, w1, w2), (lo, hi, w2, w1), (-hi, -lo, w1, w2), (-lo, -hi, w2, w1)]
    frames = [frame for columns in turns for frame in zip(*(column.tolist() for column in columns))]
    values = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0)
    shifts = [(w1, w2) for w1 in (0.0, -0.0, 0.3) for w2 in (0.0, -0.0, -0.2)]
    return frames + [(l1, l2, *shift) for l1 in values for l2 in values for shift in shifts]


def test_canonical_frame_gives_floats_and_arrays_the_same_bits():
    frames = fold_frames()
    columns = [np.array(column) for column in zip(*frames)]
    arrays = canonical_frame(*columns, np)
    lanes = [canonical_frame(*frame, FLOATS) for frame in frames]
    for array, lane in zip(arrays, zip(*lanes)):
        assert array.tobytes() == np.array(lane).tobytes()  # signed zeros included
    ties = 0
    for frame, (lam1, lam2, w1, w2) in zip(frames, lanes):
        assert lam1 >= abs(lam2)
        assert sorted(map(abs, frame[:2])) == sorted((lam1, abs(lam2)))
        turned = fold_by_turns(*frame)
        assert (lam1, lam2, w2) == turned[:2] + turned[3:]
        assert abs(w1 - turned[2]) <= math.ulp(turned[2])  # a square root where the reference takes hypot
        ties += lam2 < 0.0 and lam1 + lam2 <= TIE_TOL
    assert ties > 1000
    # the half turn of (-0.5, 0) leaves lam2 = +0.0, as the sampler's fold always has
    assert math.copysign(1.0, canonical_frame(-0.5, 0.0, 0.0, 0.0, FLOATS)[1]) == 1.0


def test_decide_gives_floats_and_arrays_the_same_bits():
    frames = [canonical_frame(*frame, FLOATS) for frame in fold_frames()]
    columns = [np.array(column) for column in zip(*frames)]
    for tol in (0.0, CP_TOL):
        verdicts, q, margin = decide(*columns, np, tol)
        lanes = [decide(*frame, FLOATS, tol) for frame in frames]
        assert verdicts.tolist() == [verdict for verdict, _, _ in lanes]
        assert all(type(verdict) is bool for verdict, _, _ in lanes)
        assert 0 < verdicts.sum() < len(frames)
        assert np.stack(q, axis=1).tobytes() == np.array([lane_q for _, lane_q, _ in lanes]).tobytes()
        assert margin.tobytes() == np.array([lane_margin for _, _, lane_margin in lanes]).tobytes()


FAR_FRAMES = [
    (0.5, 0.5, 0.0, 1e30),  # a shift far outside the disk, along the second axis
    (0.5, 0.5, 3e200, -1e30),
    (1e30, 1e30, -1e30, 1e154),  # scales so large that the closed form holds by rounding
    (1e15, 1e15, 1e-200, 4e7),
]


@pytest.mark.parametrize("frame", FAR_FRAMES)
def test_decide_refuses_far_frames_without_dividing_by_zero(frame):
    # the closed form or the bounds refuse these frames, on floats and on arrays, without dividing by zero
    frame = canonical_frame(*frame, FLOATS)
    assert decide(*frame, FLOATS)[0] is False
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):  # the far lane overflows to inf
        verdicts, _, _ = decide(*(np.array([value, 0.0]) for value in frame), np)
    assert verdicts.tolist() == [False, True]


BOUNDARY_SHIFTS = st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.9, 1.1))


@settings(max_examples=500, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), BOUNDARY_SHIFTS)
def test_deciding_with_tolerance_zero_implies_deciding_with_cp_tol(lam1, lam2, shift):
    # shifts near the rim of the disk the image may reach, where the two tolerances can differ
    phi, reach = shift
    radius = reach * (1.0 - max(abs(lam1), abs(lam2)))
    frame = canonical_frame(lam1, lam2, radius * math.cos(phi), radius * math.sin(phi), FLOATS)
    strict, _, _ = decide(*frame, FLOATS, 0.0)
    if strict:
        assert decide(*frame, FLOATS)[0]

