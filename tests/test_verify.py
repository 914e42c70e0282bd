"""The batched sweeps against one-point-at-a-time reference loops."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

import rebit.cp as cp
import rebit.linalg as linalg
import rebit.verify as verify
from rebit.bloch import density_from_bloch
from rebit.canonical import decompose_channel, factorize, rebuild, reconstruction_residual
from rebit.cli import main
from rebit.channel import AffineChannel, OrthogonalChannel, orthogonal_channel
from rebit.cp import CP_TOL, charpoly_coeffs, chi_matrix, closed_form_verdict, q_values
from rebit.linalg import eig_sym3, floor_bounds, jacobi_batch, rotation_matrix
from rebit.verify import BOUNDARY_BAND, CHUNK, random_sweep, roundtrip_sweep, run_verify, unital_grid_sweep


def oracle(lam1, lam2, w1, w2):
    return eig_sym3(*chi_matrix(lam1, lam2, w1, w2))[2] >= -CP_TOL


def grid_reference(step, closed_form=closed_form_verdict):
    n = round(2.0 / step) + 1
    axis = np.linspace(-1.0, 1.0, n)
    mismatches = 0
    for lam1 in axis:
        for lam2 in axis:
            closed, _, _ = closed_form(lam1, lam2, 0.0, 0.0)
            if closed != oracle(lam1, lam2, 0.0, 0.0):
                mismatches += 1
    return n * n, mismatches


def random_reference_prefixes(samples, seed, oracle=oracle, band=BOUNDARY_BAND, b_tol=CP_TOL):
    """random_reference(n, seed) for n = 0 .. samples, in order."""
    rng = np.random.default_rng(seed)
    params = rng.uniform(-1.0, 1.0, (samples, 4))
    mismatches = excluded = b_violations = 0
    yield 0, 0, 0, 0
    for n, (lam1, lam2, w1, w2) in enumerate(params, 1):
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
        yield n, mismatches, excluded, b_violations


def random_reference(samples, seed, **kwargs):
    *_, last = random_reference_prefixes(samples, seed, **kwargs)
    return last


@functools.cache
def chunk_boundary_references(prefixes, seed):
    """The reference for every count up to CHUNK + 1, from one pass over CHUNK + 1 points.

    The first n points drawn for a count above n are those drawn for n, so one
    scalar pass per seed serves every boundary case of that seed.
    """
    return list(prefixes(CHUNK + 1, seed))


@pytest.mark.parametrize("samples", [0, 1, CHUNK // 2, CHUNK // 2 + 1, CHUNK, CHUNK + 1])  # within, on and across a chunk
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_random_sweep_matches_scalar_reference(samples, seed):
    result = random_sweep(samples, seed)
    assert result == chunk_boundary_references(random_reference_prefixes, seed)[samples]
    assert all(type(x) is int for x in result)


@pytest.mark.parametrize("step", [1.0, 0.5, 2.0 / 63, 2.0 / 64, 2.0 / 89, 2.0 / 90])  # 9 to 4225, then 8100 and 8281 points
def test_unital_grid_sweep_matches_scalar_reference(step):
    assert 90 * 90 < CHUNK < 91 * 91  # the last two steps straddle the chunk
    result = unital_grid_sweep(step)
    assert result == grid_reference(step)
    assert all(type(x) is int for x in result)


def test_jacobi_batch_returns_the_unital_grid_chi_diagonal_bit_for_bit():
    # At zero shift chi is diagonal, so its eigenvalues are its diagonal
    # entries; on the finest grid, jacobi_batch returns them with the same bits.
    axis = np.linspace(-1.0, 1.0, round(2.0 / verify.MIN_GRID_STEP) + 1)
    for start in range(0, axis.size, 200):  # 200 rows of the grid at a time
        d00, d01, d02, d11, d12, d22 = entries = chi_matrix(axis[start : start + 200, None], axis[None, :])
        assert d01 == d02 == d12 == 0.0
        diagonal = np.stack(np.broadcast_arrays(d00, d11, d22))
        assert np.array_equal(jacobi_batch(*entries).view(np.int64), diagonal.view(np.int64))


def q2_off_by_005(lam1, lam2):
    q0, q1, q2 = q_values(lam1, lam2)
    return q0, q1, q2 + 0.05


def chi_q2_off_by_005(lam1, lam2, w1=0.0, w2=0.0):
    d00, d01, d02, d11, d12, d22 = chi_matrix(lam1, lam2, w1, w2)
    return d00, d01, d02, d11, d12, d22 + 0.05


def test_a_q_error_in_both_chi_and_the_closed_form_fails_the_unital_grid(monkeypatch):
    # chi's diagonal and the q-values are written out alike, so an error
    # copied into both agrees with itself; the pentagon, built from its
    # vertices alone, does not move.
    assert unital_grid_sweep(0.01) == (40401, 0)
    monkeypatch.setattr(cp, "q_values", q2_off_by_005)
    monkeypatch.setattr(cp, "chi_matrix", chi_q2_off_by_005)
    monkeypatch.setattr(verify, "chi_matrix", chi_q2_off_by_005)
    assert unital_grid_sweep(0.01)[1] > 0


@pytest.mark.parametrize("chunk", [1, 4, 7, 25])
def test_sweeps_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(verify, "CHUNK", chunk)
    assert unital_grid_sweep(0.5) == grid_reference(0.5)
    assert random_sweep(60, 3) == random_reference(60, 3)


@pytest.mark.parametrize("chunk", [4096, 16384])
@pytest.mark.parametrize("seed", [0, 7])
def test_run_verify_report_does_not_depend_on_the_chunk_size(monkeypatch, chunk, seed):
    report = run_verify(seed=seed).to_json_dict()
    monkeypatch.setattr(verify, "CHUNK", chunk)
    other = run_verify(seed=seed).to_json_dict()
    assert report.pop("elapsed") >= 0.0 and other.pop("elapsed") >= 0.0
    assert report == other


def all_open(d00, d01, d02, d11, d12, d22, floor):
    """floor_bounds switched off: it settles no lane."""
    size = np.broadcast(d00, d01, d02, d11, d12, d22).size
    return np.zeros(size, dtype=bool), np.arange(size)


@pytest.mark.parametrize("seed", [0, 7])
def test_run_verify_report_does_not_depend_on_the_bounds(monkeypatch, seed):
    # The report with most points settled by floor_bounds and the rest held
    # for the oracle equals the one where every point runs the sweeps to
    # convergence.
    report = run_verify(seed=seed).to_json_dict()
    monkeypatch.setattr(verify, "floor_bounds", all_open)
    other = run_verify(seed=seed).to_json_dict()
    assert report.pop("elapsed") >= 0.0 and other.pop("elapsed") >= 0.0
    assert report == other


def traced_peak(sweep, *args):
    """The tracemalloc peak, in bytes, of one call of ``sweep(*args)``."""
    tracemalloc.start()
    try:
        sweep(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_sweep_memory_stays_flat_in_its_size():
    # The held points go to the oracle once CHUNK of them are held, so ten
    # times the points do not hold more at once.
    random_sweep(10_000, 1)  # numpy's first-call allocations, outside the measure
    assert traced_peak(random_sweep, 10**6, 1) <= 1.25 * traced_peak(random_sweep, 10**5, 1)


def test_unital_grid_sweep_memory_stays_flat_in_its_size():
    # The grid's points are formed CHUNK at a time, so the finest grid, 99
    # times the points of the default one, holds no more at once.
    unital_grid_sweep(0.01)  # numpy's first-call allocations, outside the measure
    fine = traced_peak(unital_grid_sweep, verify.MIN_GRID_STEP)
    assert fine <= 1.25 * traced_peak(unital_grid_sweep, 0.01)


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


def rim_points(rng, n, spread):
    """(lam1, lam2, w1, w2) inside the pentagon, the shift scaled to within a relative ``spread`` of margin 0."""
    lam1, lam2 = rng.uniform(-1.0, 1.0, (2, 4 * n))
    q0, q1, q2 = q_values(lam1, lam2)
    inside = np.flatnonzero((q0 > 0.0) & (q1 > 0.0) & (q2 > 0.0))[:n]
    lam1, lam2, q0, q1, q2 = (x[inside] for x in (lam1, lam2, q0, q1, q2))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    u1, u2 = np.cos(phi), np.sin(phi)
    t = np.sqrt(8.0 * q0 * q1 * q2 / (u1 * u1 * (2.0 * q2) + u2 * u2 * (2.0 * q1)))
    t *= 1.0 + rng.uniform(-spread, spread, n)
    return lam1, lam2, t * u1, t * u2


def floor_rim_points(rng, n):
    """Rim points pushed out to where the converged smallest eigenvalue of chi crosses -CP_TOL, to 1e-16..1e-10."""
    lam1, lam2, w1, w2 = rim_points(rng, n, 0.0)

    def below(k):
        return jacobi_batch(*chi_matrix(lam1, lam2, k * w1, k * w2)).min(axis=0) < -CP_TOL

    lo, hi = np.ones(n), np.full(n, 2.0)
    crossed = below(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        out = below(mid)
        lo, hi = np.where(out, lo, mid), np.where(out, mid, hi)
    k = hi * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16.0, -10.0, n))
    return lam1[crossed], lam2[crossed], (k * w1)[crossed], (k * w2)[crossed]


def q_zero_lines(rng):
    """The lines q0 = 0, q1 = 0 and q2 = 0 and their copies at q = -CP_TOL, without and with a shift.

    Each shift has one zero component, so that a point on q1 = 0 (q2 = 0),
    which only w1 (w2) couples, can stay PSD.
    """
    line = np.linspace(-1.0, 1.0, 401)
    lines = []
    for q in (0.0, -CP_TOL):
        lines += [(line, 2.0 * q - 1.0 - line), (line, line + 1.0 - 2.0 * q), (line, line - 1.0 + 2.0 * q)]
    lam1, lam2 = (np.concatenate(x) for x in zip(*lines))
    keep = abs(lam2) <= 1.0
    lam1, lam2 = lam1[keep], lam2[keep]
    shift = rng.uniform(-0.2, 0.2, (2, lam1.size))
    shift[rng.integers(0, 2, lam1.size), np.arange(lam1.size)] = 0.0
    return [(lam1, lam2, 0.0, 0.0), (lam1, lam2, *shift)]


def test_oracle_takes_the_smallest_of_the_sorted_eigenvalues():
    # The oracle gives the converged sweeps' verdict, and so does
    # floor_bounds on the points it settles before any sweep: also where the
    # smallest eigenvalue sits at 0 or at the floor, and on chi scaled from
    # 1e-3 to 1e3 with the floor scaled along.
    rng = np.random.default_rng(31)
    axis = np.linspace(-1.0, 1.0, 21)
    sets = [
        np.array(CHI_CORNERS).T,
        rng.uniform(-1.0, 1.0, (4, 10_000)),
        (np.repeat(axis, 21), np.tile(axis, 21), 0.0, 0.0),  # scalar shifts broadcast, as on the grid
        (np.repeat(axis, 21), np.tile(axis, 21), 0.25, -0.125),
        np.concatenate([rim_points(rng, 2000, 1e-10), floor_rim_points(rng, 2000)], axis=1),
        *q_zero_lines(rng),
    ]
    for lam1, lam2, w1, w2 in sets:
        entries = chi_matrix(lam1, lam2, w1, w2)
        expected = jacobi_batch(*entries).min(axis=0) >= -CP_TOL
        assert expected.any() and not expected.all()
        assert np.array_equal(verify._oracle_cp(lam1, lam2, w1, w2), expected)
        for scale in np.logspace(-3.0, 3.0, 7):
            scaled = [scale * x for x in entries]
            floor = -CP_TOL * scale
            converged = jacobi_batch(*scaled).min(axis=0) >= floor
            above, open_ = floor_bounds(*scaled, floor)  # floor_bounds settles lanes with the converged verdict
            settled = np.ones(converged.size, dtype=bool)
            settled[open_] = False
            assert np.array_equal(above[settled], converged[settled]) and not above[open_].any()


def test_random_sweep_runs_fewer_than_one_jacobi_sweep_per_point(monkeypatch):
    # Run to convergence, a random point takes about three sweeps.  Brauer's
    # ovals and the interlacing bound settle about 92 % of the points before
    # any sweep, and the 8,282 they leave open at this seed run 33,128
    # lane-sweeps, 4 a point, in one oracle call: each sweep runs on every
    # held lane until the last one freezes.  Rayleigh's and Gershgorin's
    # bounds alone leave about 40 % open, which fails the bounds below.
    lane_sweeps = points = 0
    sweep, oracle = linalg._sweep, verify._oracle_cp

    def counted(*entries):
        nonlocal lane_sweeps
        lane_sweeps += np.size(entries[0])
        return sweep(*entries)

    def counted_oracle(lam1, lam2, w1, w2):
        nonlocal points
        points += lam1.size
        return oracle(lam1, lam2, w1, w2)

    monkeypatch.setattr(linalg, "_sweep", counted)
    monkeypatch.setattr(verify, "_oracle_cp", counted_oracle)
    assert random_sweep(100_000, 0)[:2] == (100_000, 0)
    assert 0 < lane_sweeps <= 4 * points
    assert 0 < points < 10_000


def test_unital_grid_sweep_visits_the_reference_points(monkeypatch):
    # The closed form and the eigenvalues agree on every grid point, so only
    # a stand-in closed form shows which points the sweep visits.
    def stand_in(lam1, lam2, w1, w2):
        return lam1 > 2.0 * lam2 - 0.3, None, None

    monkeypatch.setattr(verify, "closed_form_verdict", stand_in)
    monkeypatch.setattr(verify, "CHUNK", 50)
    result = unital_grid_sweep(0.1)
    assert result == grid_reference(0.1, closed_form=stand_in)
    assert result[1] > 0


def half_settled(d00, d01, d02, d11, d12, d22, floor):
    """A stand-in for floor_bounds that settles the points with |w1| > 1/2, about half, as w1 > 0 (d01 = w1 / 2)."""
    return d01 > 0.25, np.flatnonzero(abs(d01) <= 0.25)


def stand_in_counts(monkeypatch, bounds):
    """random_sweep(1000, 2) with a stand-in oracle, a wide band and a b threshold every point misses.

    Returns the sweep's result, the reference's, and the sizes of the oracle's calls.
    """
    def stand_in(lam1, lam2, w1, w2):
        return w1 > 0.0

    sizes = []

    def held(lam1, lam2, w1, w2):
        sizes.append(lam1.size)
        return stand_in(lam1, lam2, w1, w2)

    monkeypatch.setattr(verify, "floor_bounds", bounds)
    monkeypatch.setattr(verify, "_oracle_cp", held)
    monkeypatch.setattr(verify, "BOUNDARY_BAND", 0.05)
    monkeypatch.setattr(verify, "CP_TOL", -10.0)
    monkeypatch.setattr(verify, "CHUNK", 64)
    return random_sweep(1000, 2), random_reference(1000, 2, oracle=stand_in, band=0.05, b_tol=-10.0), sizes


def test_random_sweep_counts_disagreements_as_the_reference_does(monkeypatch):
    # Random points never land within BOUNDARY_BAND of a boundary, so with the
    # real oracle every count is 0.  The stand-ins make all three counts
    # nonzero.  With the bounds switched off, every point reaches the oracle.
    result, reference, sizes = stand_in_counts(monkeypatch, all_open)
    assert result == reference
    assert min(result) > 0
    assert sum(sizes) == 1000


def test_random_sweep_counts_settled_and_held_points_as_the_reference_does(monkeypatch):
    # A stand-in bound settles about half of each 64-point chunk by the
    # stand-in oracle's own verdict; the rest are held until 64 are, and
    # once more at the end, so the oracle sees full arrays mid-sweep too.
    result, reference, sizes = stand_in_counts(monkeypatch, half_settled)
    assert result == reference
    assert min(result) > 0
    assert len(sizes) > 2 and min(sizes[:-1]) >= 64 and sizes[-1] > 0
    assert 400 < sum(sizes) < 600


def roundtrip_reference_prefixes(samples, seed, span=2.0):
    """The round trip's (count, largest residual, largest det error) for n = 0 .. samples points, in order."""
    rng = np.random.default_rng(seed)
    max_residual = max_det_err = 0.0
    yield 0, max_residual, max_det_err
    for n in range(1, samples + 1):
        a = rng.uniform(-span, span, (2, 2))
        w = rng.uniform(-span, span, 2)
        channel = AffineChannel(a, w)
        form = decompose_channel(channel)
        max_residual = max(max_residual, reconstruction_residual(channel, form))
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        max_det_err = max(max_det_err, float(abs(det_a - form.lam1 * form.lam2)))
        yield n, max_residual, max_det_err


@pytest.mark.parametrize("samples", [0, 1, CHUNK // 2, CHUNK // 2 + 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_roundtrip_sweep_matches_scalar_reference(samples, seed):
    result = roundtrip_sweep(samples, seed)
    reference = chunk_boundary_references(roundtrip_reference_prefixes, seed)[samples]
    assert result == reference
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


def rebuild_off_in_a00(*factors):
    a00, *rest = rebuild(*factors)
    return (a00 + 1e-9, *rest)


def test_verify_fails_a_rebuild_off_by_more_than_roundtrip_tol(monkeypatch):
    # ROUNDTRIP_TOL (1e-10) bounds the round-trip residual: a rebuild off by 1e-9 in a00 is a mismatch.
    assert run_verify(grid_step=0.5, samples=100, seed=0).mismatches == 0
    monkeypatch.setattr(verify, "rebuild", rebuild_off_in_a00)
    assert run_verify(grid_step=0.5, samples=100, seed=0).mismatches >= 1


def nan_in_one_lam1(*entries):
    theta1, theta2, lam1, lam2, s0, s1 = factorize(*entries)
    lam1 = lam1.copy()
    lam1[len(lam1) // 2] = math.nan  # not the first lane: Python's max drops a NaN that comes later
    return theta1, theta2, lam1, lam2, s0, s1


def test_a_nan_factorization_fails_verify_and_prints_as_null(monkeypatch, capsys):
    monkeypatch.setattr(verify, "factorize", nan_in_one_lam1)
    report = run_verify(grid_step=1.0, samples=50)
    assert report.mismatches == 1
    assert math.isnan(report.max_roundtrip_residual)
    code = main(["verify", "--grid-step", "1", "--samples", "50"])
    doc = json.loads(capsys.readouterr().out, parse_constant=lambda token: pytest.fail(f"{token} is not JSON"))
    assert code == 2 and doc["mismatches"] == 1 and doc["max_roundtrip_residual"] is None


def test_a_nan_b_coefficient_counts_as_a_violation(monkeypatch):
    def nan_b_where_accepted(lam1, lam2, w1, w2, margin):
        a, b, det_chi = charpoly_from_margin(lam1, lam2, w1, w2, margin)
        b = b.copy()
        b[np.flatnonzero(closed_form_verdict(lam1, lam2, w1, w2)[0])[-1]] = math.nan  # the last accepted point
        return a, b, det_chi

    charpoly_from_margin = verify._charpoly_from_margin
    assert random_sweep(50, 0)[3] == 0
    monkeypatch.setattr(verify, "_charpoly_from_margin", nan_b_where_accepted)
    assert random_sweep(50, 0)[3] == 1
    assert run_verify(grid_step=1.0, samples=50).mismatches == 1


def wrong_closed_form(margin_of):
    """closed_form_verdict with its margin computed by ``margin_of(q0, q1, q2, w1, w2)``."""

    def closed_form(lam1, lam2, w1, w2, tol=CP_TOL):
        q0, q1, q2 = q = q_values(lam1, lam2)
        margin = margin_of(q0, q1, q2, w1, w2)
        return (q0 >= -tol) & (q1 >= -tol) & (q2 >= -tol) & (margin >= -tol), q, margin

    return closed_form


def margin_with_4(q0, q1, q2, w1, w2):
    return 4.0 * q0 * q1 * q2 - w1 * w1 * (2.0 * q2) - w2 * w2 * (2.0 * q1)


def margin_with_q1_q2_swapped(q0, q1, q2, w1, w2):
    return 8.0 * q0 * q1 * q2 - w1 * w1 * (2.0 * q1) - w2 * w2 * (2.0 * q2)


@pytest.mark.parametrize("margin_of", [margin_with_4, margin_with_q1_q2_swapped])
def test_a_wrong_closed_form_fails_verify(monkeypatch, margin_of):
    assert run_verify(grid_step=0.1, samples=2000).mismatches == 0
    monkeypatch.setattr(verify, "closed_form_verdict", wrong_closed_form(margin_of))
    assert run_verify(grid_step=0.1, samples=2000).mismatches > 0


def double_angle_reference(count, seed):
    rng = np.random.default_rng(seed)
    failures = 0
    worst = 0.0
    for _ in range(count):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        chan = verify.orthogonal_channel(rotation_matrix(alpha))
        dev = np.abs(chan.bloch_map - rotation_matrix(2.0 * alpha)).max()
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        v = np.array([r * math.cos(phi), r * math.sin(phi)])
        rho = density_from_bloch(v)
        dev = max(dev, np.abs(chan.conjugate(rho) - density_from_bloch(chan.bloch_map @ v)).max())
        worst = max(worst, dev)
        failures += int(dev > verify.DOUBLE_ANGLE_TOL)
    return failures, worst


@pytest.mark.parametrize("count", [0, 1, 100])
@pytest.mark.parametrize("seed", [0, 5, 17])
def test_double_angle_sweep_matches_scalar_reference(count, seed):
    failures, worst = verify.double_angle_sweep(count, seed)
    reference = double_angle_reference(count, seed)
    assert failures == reference[0]
    assert worst == pytest.approx(reference[1], abs=1e-15)
    assert type(failures) is int and type(worst) is float


def test_double_angle_sweep_counts_failures_as_the_reference_does(monkeypatch):
    def off_where_cos_is_positive(omega):
        chan = orthogonal_channel(omega)
        return OrthogonalChannel(chan.omega, chan.bloch_map + 1e-9 * (chan.omega[..., :1, :1] > 0.0))

    monkeypatch.setattr(verify, "orthogonal_channel", off_where_cos_is_positive)
    failures, worst = verify.double_angle_sweep(100, 3)
    assert 0 < failures < 100
    assert failures == double_angle_reference(100, 3)[0]
    assert worst == pytest.approx(double_angle_reference(100, 3)[1], abs=1e-15)


def test_double_angle_sweep_fails_a_bloch_map_off_by_more_than_double_angle_tol(monkeypatch):
    # DOUBLE_ANGLE_TOL (1e-12) bounds the deviation from the double-angle law: a Bloch map off by 1e-10 fails everywhere.
    assert verify.double_angle_sweep(100, 0)[0] == 0

    def off_everywhere(omega):
        chan = orthogonal_channel(omega)
        return OrthogonalChannel(chan.omega, chan.bloch_map + 1e-10)

    monkeypatch.setattr(verify, "orthogonal_channel", off_everywhere)
    assert verify.double_angle_sweep(100, 0)[0] == 100


def test_double_angle_draw_equals_the_per_point_draws():
    rng = np.random.default_rng(4)
    single = [[rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)] for _ in range(50)]
    chunked = np.random.default_rng(4).uniform(0.0, (2.0 * math.pi, 1.0, 2.0 * math.pi), (50, 3))
    assert np.array_equal(chunked, np.array(single))
