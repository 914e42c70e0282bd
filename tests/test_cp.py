import math

import numpy as np
import pytest

from rebit.bloch import SIGMA_0, SIGMA_1, SIGMA_2
from rebit.channel import AffineChannel, as_affine, compose, orthogonal_channel
from rebit.cp import (
    DIAGONAL_TOL,
    admissible_pentagon,
    charpoly_coeffs,
    chi_matrix,
    closed_form_verdict,
    diagonal_frame,
    is_cp,
    q_values,
    shift_region_contains,
)
from rebit.linalg import Sym3, eig_sym3, rotation_matrix

DIAG = AffineChannel.diagonal


def chi_general(channel: AffineChannel) -> Sym3:
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
    return Sym3.from_matrix(chi)


def test_chi_matrix_identity_point():
    assert np.abs(chi_matrix(1.0, 1.0).matrix - 0.5 * np.diag([3.0, 1.0, 1.0])).max() == 0.0


def test_chi_matrix_depolarizing_point():
    assert np.abs(chi_matrix(0.0, 0.0).matrix - 0.5 * np.eye(3)).max() == 0.0


def test_chi_matrix_pure_vertical_shift():
    expected = 0.5 * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    assert np.abs(chi_matrix(0.0, 0.0, 0.0, 1.0).matrix - expected).max() == 0.0


def test_chi_general_matches_closed_form():
    assert np.abs(chi_general(AffineChannel.identity()).matrix - 0.5 * np.diag([3.0, 1.0, 1.0])).max() < 1e-14
    cases = [(0.5, 0.3, 0.0, 0.0), (0.0, 0.0, 0.2, 0.1), (-0.8, 0.4, 0.3, -0.2)]
    for lam1, lam2, w1, w2 in cases:
        computed = chi_general(DIAG(lam1, lam2, w1, w2)).matrix
        assert np.abs(computed - chi_matrix(lam1, lam2, w1, w2).matrix).max() <= 1e-12


def test_chi_general_random_agreement():
    rng = np.random.default_rng(31)
    for _ in range(500):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        computed = chi_general(DIAG(lam1, lam2, w1, w2)).matrix
        assert np.abs(computed - chi_matrix(lam1, lam2, w1, w2).matrix).max() <= 1e-12


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
    eigs = eig_sym3(chi_matrix(0.0, 0.0, 0.0, 1.0))
    assert abs(eigs[2]) < 1e-14


def test_charpoly_matches_chi_trace_and_det():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        a, b, det_chi = charpoly_coeffs(lam1, lam2, w1, w2)
        chi = chi_matrix(lam1, lam2, w1, w2)
        assert abs(chi.trace() - a / 2.0) <= 1e-12
        assert abs(chi.det() - det_chi) <= 1e-12
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
    original = rebit.cp.shift_region_contains

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rebit.cp, "shift_region_contains", counted)
    dressed = AffineChannel(rotation_matrix(0.4) @ np.diag([0.6, 0.2]) @ rotation_matrix(1.1), [0.1, 0.0])
    for channel in (AffineChannel.identity(), DIAG(0.3, -0.7, 0.1, 0.0), DIAG(1.0, -1.0), dressed):
        calls.clear()
        report = is_cp(channel)
        assert len(calls) == 1
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
            oracle = eig_sym3(chi_matrix(lam1, lam2))[2] >= -1e-9
            assert closed == oracle


def test_random_sweep_agreement_small():
    rng = np.random.default_rng(33)
    mismatches = 0
    for _ in range(10_000):
        lam1, lam2, w1, w2 = rng.uniform(-1.0, 1.0, 4)
        q = q_values(lam1, lam2)
        _, margin = shift_region_contains(lam1, lam2, w1, w2)
        closed = min(q) >= -1e-9 and margin >= -1e-9
        oracle = eig_sym3(chi_matrix(lam1, lam2, w1, w2))[2] >= -1e-9
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
        eigs = eig_sym3(chi_matrix(lam1, lam2, 0.0, w2))
        assert np.abs(np.array(eigs) - np.array(expected)).max() <= 1e-9
        # mirrored shift: the roles of the scale coefficients swap
        lam1, lam2, w1 = rng.uniform(-1.0, 1.0, 3)
        root = math.sqrt(lam2 * lam2 + w1 * w1)
        expected = sorted(
            [0.5 * (1 - lam1 + lam2), 0.5 * (1 + lam1 + root), 0.5 * (1 + lam1 - root)],
            reverse=True,
        )
        eigs = eig_sym3(chi_matrix(lam1, lam2, w1, 0.0))
        assert np.abs(np.array(eigs) - np.array(expected)).max() <= 1e-9


def test_cp_invariant_under_orthogonal_dressing():
    rng = np.random.default_rng(36)
    for _ in range(500):
        channel = AffineChannel(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-0.5, 0.5, 2))
        left = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        right = as_affine(orthogonal_channel(rotation_matrix(rng.uniform(0.0, 2 * math.pi))))
        dressed = compose(left, compose(channel, right))
        assert is_cp(dressed).is_cp == is_cp(channel).is_cp
