"""The batched sweeps against one-point-at-a-time reference loops."""

import numpy as np
import pytest

import rebit.verify as verify
from rebit.canonical import decompose_channel, factorize, reconstruction_residual
from rebit.channel import AffineChannel
from rebit.cp import CP_TOL, charpoly_coeffs, chi_entries, chi_matrix, closed_form_verdict
from rebit.linalg import eig_sym3, eig_sym3_batch
from rebit.verify import BOUNDARY_BAND, CHUNK, random_sweep, roundtrip_sweep, run_verify, unital_grid_sweep


def oracle(lam1, lam2, w1, w2):
    return eig_sym3(chi_matrix(lam1, lam2, w1, w2))[2] >= -CP_TOL


def grid_reference(step, oracle=oracle):
    n = round(2.0 / step) + 1
    axis = np.linspace(-1.0, 1.0, n)
    mismatches = 0
    for lam1 in axis:
        for lam2 in axis:
            closed, _, _ = closed_form_verdict(lam1, lam2, 0.0, 0.0)
            if closed != oracle(lam1, lam2, 0.0, 0.0):
                mismatches += 1
    return n * n, mismatches


def random_reference(samples, seed, oracle=oracle, band=BOUNDARY_BAND, b_tol=CP_TOL):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-1.0, 1.0, (samples, 4))
    mismatches = excluded = b_violations = 0
    for lam1, lam2, w1, w2 in params:
        closed, q, margin = closed_form_verdict(lam1, lam2, w1, w2)
        if closed:
            _, b, _ = charpoly_coeffs(lam1, lam2, w1, w2)
            if b < -b_tol:
                b_violations += 1
        if closed != oracle(lam1, lam2, w1, w2):
            if abs(margin) < band or min(map(abs, q)) < band:
                excluded += 1
            else:
                mismatches += 1
    return samples, mismatches, excluded, b_violations


@pytest.mark.parametrize("samples", [0, 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_random_sweep_matches_scalar_reference(samples, seed):
    result = random_sweep(samples, seed)
    assert result == random_reference(samples, seed)
    assert all(type(x) is int for x in result)


@pytest.mark.parametrize("step", [1.0, 0.5, 2.0 / 63, 2.0 / 64])  # 9, 25, 4096 and 4225 points
def test_unital_grid_sweep_matches_scalar_reference(step):
    result = unital_grid_sweep(step)
    assert result == grid_reference(step)
    assert all(type(x) is int for x in result)


@pytest.mark.parametrize("chunk", [1, 4, 7, 25])
def test_sweeps_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(verify, "CHUNK", chunk)
    assert unital_grid_sweep(0.5) == grid_reference(0.5)
    assert random_sweep(60, 3) == random_reference(60, 3)


CHI_CORNERS = [
    (0.5, -0.5, 0.0, 0.0),  # q2 = 0
    (-0.5, 0.5, 0.0, 0.0),  # q1 = 0
    (-0.5, -0.5, 0.0, 0.0),  # q0 = 0
    (0.0, 0.0, 0.0, 1.0),  # singular, on the determinant boundary
    (1.0, 1.0, 0.0, 0.0),  # identity channel
    (0.5, -0.5, 0.3, 0.0),  # q2 = 0 with a shift: negative eigenvalue
    (0.0, 0.0, 0.0, 0.0),  # completely depolarizing: chi = diag(1, 1, 1) / 2
    (1.0, -1.0, 0.0, 0.0),  # the reflection diag(1, -1): eigenvalue -1/2, not CP
]


def test_oracle_takes_the_smallest_of_the_sorted_eigenvalues():
    rng = np.random.default_rng(31)
    axis = np.linspace(-1.0, 1.0, 21)
    sets = [
        np.array(CHI_CORNERS).T,
        rng.uniform(-1.0, 1.0, (4, 10_000)),
        (np.repeat(axis, 21), np.tile(axis, 21), 0.0, 0.0),  # scalar shifts broadcast, as on the grid
    ]
    for lam1, lam2, w1, w2 in sets:
        expected = eig_sym3_batch(*chi_entries(lam1, lam2, w1, w2))[..., 2] >= -CP_TOL
        assert expected.any() and not expected.all()
        assert np.array_equal(verify._oracle_cp(lam1, lam2, w1, w2), expected)


def test_unital_grid_sweep_visits_the_reference_points(monkeypatch):
    # The closed form and the real oracle agree on every grid point, so only a
    # stand-in oracle shows which points the sweep visits.
    def stand_in(lam1, lam2, w1, w2):
        return lam1 > 2.0 * lam2 - 0.3

    monkeypatch.setattr(verify, "_oracle_cp", stand_in)
    monkeypatch.setattr(verify, "CHUNK", 50)
    result = unital_grid_sweep(0.1)
    assert result == grid_reference(0.1, oracle=stand_in)
    assert result[1] > 0


def test_random_sweep_counts_disagreements_as_the_reference_does(monkeypatch):
    # Random points never land within BOUNDARY_BAND of a boundary, so with the
    # real oracle every count is 0.  A stand-in oracle, a wide band and a
    # b threshold that every point misses make all three counts nonzero.
    def stand_in(lam1, lam2, w1, w2):
        return w1 > 0.0

    monkeypatch.setattr(verify, "_oracle_cp", stand_in)
    monkeypatch.setattr(verify, "BOUNDARY_BAND", 0.05)
    monkeypatch.setattr(verify, "CP_TOL", -10.0)
    monkeypatch.setattr(verify, "CHUNK", 64)
    result = random_sweep(1000, 2)
    assert result == random_reference(1000, 2, oracle=stand_in, band=0.05, b_tol=-10.0)
    assert min(result) > 0


def roundtrip_reference(samples, seed, span=2.0):
    rng = np.random.default_rng(seed)
    max_residual = max_det_err = 0.0
    for _ in range(samples):
        a = rng.uniform(-span, span, (2, 2))
        w = rng.uniform(-span, span, 2)
        channel = AffineChannel(a, w)
        form = decompose_channel(channel)
        max_residual = max(max_residual, reconstruction_residual(channel, form))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        max_det_err = max(max_det_err, float(abs(det_a - form.lam1 * form.lam2)))
    return samples, max_residual, max_det_err


@pytest.mark.parametrize("samples", [0, 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_roundtrip_sweep_matches_scalar_reference(samples, seed):
    # The sweep rebuilds with written-out products, the reference with
    # numpy's 2x2 matrix products, so the two round differently.
    result = roundtrip_sweep(samples, seed)
    reference = roundtrip_reference(samples, seed)
    assert result[0] == reference[0] == samples
    assert result[1] == pytest.approx(reference[1], abs=1e-14)
    assert result[2] == pytest.approx(reference[2], abs=1e-14)
    assert all(type(x) is float for x in result[1:])


@pytest.mark.parametrize("chunk", [1, 4, 7, 25])
def test_roundtrip_sweep_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    expected = roundtrip_sweep(60, 3)
    monkeypatch.setattr(verify, "CHUNK", chunk)
    assert roundtrip_sweep(60, 3) == expected


def test_roundtrip_chunked_draw_equals_the_per_point_draws():
    chunked = np.random.default_rng(9).uniform(-2.0, 2.0, (50, 6))
    rng = np.random.default_rng(9)
    single = [np.concatenate([rng.uniform(-2.0, 2.0, (2, 2)).ravel(), rng.uniform(-2.0, 2.0, 2)]) for _ in range(50)]
    assert np.array_equal(chunked, np.array(single))


def swapped_angles(*entries):
    theta1, theta2, *rest = factorize(*entries)
    return (theta2, theta1, *rest)


def unrotated_shift(*entries):
    return (*factorize(*entries)[:4], *entries[4:6])


@pytest.mark.parametrize("wrong", [swapped_angles, unrotated_shift])
def test_a_wrong_factorization_fails_verify(monkeypatch, wrong):
    assert run_verify(grid_step=1.0, samples=50).mismatches == 0
    monkeypatch.setattr(verify, "factorize", wrong)
    report = run_verify(grid_step=1.0, samples=50)
    assert report.mismatches == 1
    assert report.max_roundtrip_residual > 1e-10
