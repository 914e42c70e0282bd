"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (use ``pytest tests/test_acceptance.py -s`` to see them
while the suite runs)."""

import json
import math
import time

import numpy as np

from rebit.bloch import state_polar
from rebit.canonical import decompose_channel, reconstruction_residual
from rebit.channel import AffineChannel, orthogonal_channel
from rebit.classify import image_ellipse, sample_cp_channels
from rebit.cli import main
from rebit.cp import charpoly_coeffs, chi_matrix, chi_rank, q_values, shift_region_contains
from rebit.linalg import eig_sym3, rotation_matrix

from test_cli import GOLDEN, NAMED_CHANNELS

CP_EPS = 1e-9
BAND = 1e-7


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def closed_form(lam1, lam2, w1, w2):
    q = q_values(lam1, lam2)
    _, margin = shift_region_contains(lam1, lam2, w1, w2)
    return min(q) >= -CP_EPS and margin >= -CP_EPS, margin, min(map(abs, q))


def oracle(lam1, lam2, w1, w2):
    return eig_sym3(chi_matrix(lam1, lam2, w1, w2))[2] >= -CP_EPS


def test_criterion_1_unital_grid_equivalence():
    start = time.perf_counter()
    axis = np.linspace(-1.0, 1.0, 201)
    mismatches = 0
    for lam1 in axis:
        for lam2 in axis:
            closed, _, _ = closed_form(lam1, lam2, 0.0, 0.0)
            if closed != oracle(lam1, lam2, 0.0, 0.0):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    assert report(
        1, ok, f"unital grid 201x201: {mismatches} mismatches in {elapsed:.2f}s (limit 5s)"
    )


def test_criterion_2_general_equivalence_and_3_det_implies_b():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    params = rng.uniform(-1.0, 1.0, (100_000, 4))
    mismatches = excluded = b_violations = accepted = 0
    for lam1, lam2, w1, w2 in params:
        closed, margin, min_q = closed_form(lam1, lam2, w1, w2)
        if closed:
            accepted += 1
            _, b, _ = charpoly_coeffs(lam1, lam2, w1, w2)
            if b < -CP_EPS:
                b_violations += 1
        if closed != oracle(lam1, lam2, w1, w2):
            if abs(margin) < BAND or min_q < BAND:
                excluded += 1
            else:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok2 = mismatches == 0 and elapsed < 30.0
    assert report(
        2,
        ok2,
        f"10^5 random points: {mismatches} mismatches, {excluded} boundary-excluded, "
        f"{elapsed:.2f}s (limit 30s)",
    )
    ok3 = b_violations == 0
    assert report(3, ok3, f"b >= -1e-9 on all {accepted} accepted points: {b_violations} violations")


def test_criterion_4_decomposition_roundtrip():
    rng = np.random.default_rng(4)
    max_residual = max_det_err = max_rot_defect = 0.0
    for _ in range(10_000):
        channel = AffineChannel(rng.uniform(-2.0, 2.0, (2, 2)), rng.uniform(-2.0, 2.0, 2))
        form = decompose_channel(channel)
        max_residual = max(max_residual, reconstruction_residual(channel, form))
        a = channel.a
        det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        max_det_err = max(max_det_err, abs(det_a - form.lam1 * form.lam2))
        for theta in (form.theta1, form.theta2):
            r = rotation_matrix(theta)
            det_r = r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]
            defect = max(np.abs(r.T @ r - np.eye(2)).max(), abs(det_r - 1.0))
            max_rot_defect = max(max_rot_defect, defect)
    ok = max_residual <= 1e-10 and max_det_err <= 1e-10 and max_rot_defect <= 1e-12
    assert report(
        4,
        ok,
        f"10^4 round trips: residual {max_residual:.2e} (<=1e-10), det error "
        f"{max_det_err:.2e} (<=1e-10), rotation defect {max_rot_defect:.2e} (<=1e-12)",
    )


def test_criterion_5_rank_stratification():
    failures = 0
    for lam1, lam2, expected in [(-1.0, 0.0, 1), (0.0, -1.0, 1)]:
        if chi_rank(chi_matrix(lam1, lam2)) != expected:
            failures += 1
    rng = np.random.default_rng(5)
    for _ in range(100):
        t = rng.uniform(0.0, 1.0)
        for lam1, lam2 in [(-1.0 + t, -t), (t, t - 1.0), (-1.0 + t, t)]:
            if chi_rank(chi_matrix(lam1, lam2)) != 2:
                failures += 1
    interior = 0
    while interior < 100:
        lam1, lam2 = rng.uniform(-1.0, 1.0, 2)
        if min(q_values(lam1, lam2)) > 1e-3:
            if chi_rank(chi_matrix(lam1, lam2)) != 3:
                failures += 1
            interior += 1
    ok = failures == 0
    assert report(5, ok, f"vertices/edges/interior rank strata: {failures} misclassifications")


def test_criterion_6_single_shift_eigenvalues():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        lam1, lam2, w2 = rng.uniform(-1.0, 1.0, 3)
        root = math.sqrt(lam1 * lam1 + w2 * w2)
        expected = sorted(
            [0.5 * (1 + lam1 - lam2), 0.5 * (1 + lam2 + root), 0.5 * (1 + lam2 - root)],
            reverse=True,
        )
        eigs = eig_sym3(chi_matrix(lam1, lam2, 0.0, w2))
        worst = max(worst, np.abs(np.array(eigs) - np.array(expected)).max())
        lam1, lam2, w1 = rng.uniform(-1.0, 1.0, 3)
        root = math.sqrt(lam2 * lam2 + w1 * w1)
        expected = sorted(
            [0.5 * (1 - lam1 + lam2), 0.5 * (1 + lam1 + root), 0.5 * (1 + lam1 - root)],
            reverse=True,
        )
        eigs = eig_sym3(chi_matrix(lam1, lam2, w1, 0.0))
        worst = max(worst, np.abs(np.array(eigs) - np.array(expected)).max())
    ok = worst <= 1e-9
    assert report(6, ok, f"single-shift eigenvalue formulas: worst deviation {worst:.2e} (<=1e-9)")


def test_criterion_7_geometry_containment():
    rng = np.random.default_rng(7)
    phis = np.linspace(0.0, 2 * math.pi, 360, endpoint=False)
    boundary = np.vstack([np.cos(phis), np.sin(phis)])
    worst_norm = 0.0
    worst_residual = 0.0
    degenerate = 0
    for channel in sample_cp_channels(rng, 1000):
        images = channel.a @ boundary + channel.w[:, None]
        worst_norm = max(worst_norm, float(np.hypot(images[0], images[1]).max()))
        ellipse = image_ellipse(channel)
        a1, a2 = ellipse.semi_axes
        if a2 < 1e-3:
            degenerate += 1
            continue
        back = rotation_matrix(-ellipse.tilt)
        u = back @ (images - ellipse.center[:, None])
        residual = np.abs((u[0] / a1) ** 2 + (u[1] / a2) ** 2 - 1.0).max()
        worst_residual = max(worst_residual, float(residual))
    ok = worst_norm <= 1.0 + 1e-9 and worst_residual <= 1e-9
    assert report(
        7,
        ok,
        f"10^3 channels x 360 boundary states: max norm {worst_norm:.12f} (<=1+1e-9), "
        f"ellipse residual {worst_residual:.2e} (<=1e-9), {degenerate} degenerate skipped",
    )


def test_criterion_8_double_angle_and_conjugation():
    rng = np.random.default_rng(8)
    worst_angle = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.0, 2 * math.pi)
        chan = orthogonal_channel(rotation_matrix(alpha))
        worst_angle = max(
            worst_angle, float(np.abs(chan.bloch_map - rotation_matrix(2 * alpha)).max())
        )
    worst_conj = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, 2 * math.pi)
        chan = orthogonal_channel(rotation_matrix(alpha))
        rho = state_polar(rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
        v = np.array([rho[0, 0] - rho[1, 1], rho[0, 1] + rho[1, 0]])
        u = chan.bloch_map @ v
        rotated = 0.5 * np.array([[1.0 + u[0], u[1]], [u[1], 1.0 - u[0]]])
        worst_conj = max(worst_conj, float(np.abs(chan.conjugate(rho) - rotated).max()))
    ok = worst_angle <= 1e-12 and worst_conj <= 1e-12
    assert report(
        8,
        ok,
        f"double angle {worst_angle:.2e} and conjugation {worst_conj:.2e} (both <=1e-12)",
    )


def test_criterion_9_b_disk_maximum():
    axis = np.linspace(-1.0, 1.0, 201)
    sums = np.add.outer(axis, axis)
    values = 3.0 + 2.0 * sums - sums ** 2
    deviation = abs(values.max() - 4.0)
    ok = deviation <= 1e-12
    assert report(9, ok, f"grid max of the shift-disk bound: |max - 4| = {deviation:.2e} (<=1e-12)")


def test_criterion_10_cli_contract(tmp_path, capsys):
    failures = []
    for name, doc in sorted(NAMED_CHANNELS.items()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command, suffix in (("check", "check.json"), ("decompose", "decompose.json"),
                                ("classify", "classify.json")):
            runs = []
            for _ in range(2):
                code = main([command, str(path)])
                runs.append((code, capsys.readouterr().out))
            golden = (GOLDEN / f"{name}.{suffix}").read_text()
            if runs[0] != runs[1]:
                failures.append(f"{name}/{command}: unstable output")
            if runs[0][0] != 0:
                failures.append(f"{name}/{command}: exit {runs[0][0]}")
            if runs[0][1] != golden:
                failures.append(f"{name}/{command}: drifted from golden")
    region_path = tmp_path / "region.svg"
    code = main(["region", "-o", str(region_path)])
    capsys.readouterr()
    if code != 0 or region_path.read_text() != (GOLDEN / "region.svg").read_text():
        failures.append("region: exit code or bytes drifted")
    # documented non-zero exits
    bad = tmp_path / "noncp.json"
    bad.write_text(json.dumps({"A": [[1, 0], [0, -1]], "w": [0, 0]}))
    if main(["check", str(bad)]) != 2:
        failures.append("check non-CP: expected exit 2")
    capsys.readouterr()
    if main(["classify", str(bad)]) != 2:
        failures.append("classify non-CP: expected exit 2")
    capsys.readouterr()
    if main(["check", str(tmp_path / "absent.json")]) != 1:
        failures.append("check missing file: expected exit 1")
    capsys.readouterr()
    ok = not failures
    with capsys.disabled():
        report(10, ok, f"CLI golden contract: {failures if failures else 'byte-stable, exit codes 0/2/1'}")
    assert ok, failures
