"""Acceptance suite: one test per criterion, each printing a pass/fail line.  Each reads its named checks from one
``run_verification()`` report at defaults, the one ``trispin verify`` prints, against the criterion's own literals.
"""

import math

import pytest

from trispin.dynamics import _time_grid
from trispin.report import run_verification

TAU_STAR = 1.360349523175663  # (pi/4) sqrt(3)


@pytest.fixture(scope="module")
def checks():  # each check of the report by name, and its context
    report = run_verification()
    return {"context": report.context} | {c.name: c for c in report.checks}


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _within(check, gate: float) -> bool:  # the report passes check, whose gate is the criterion's and holds
    return check.status == "pass" and check.tolerance == gate and abs(check.measured) <= gate


def test_criterion_01_family_algebra(checks):
    tau, res, rel = checks["family_min_time"], checks["boundary_residuals_max"], checks["integer_relations_max"]
    ok = tau.status == "pass" and abs(tau.measured - TAU_STAR) <= 1e-12 and _within(res, 1e-10) and _within(rel, 1e-10)
    assert _line(1, "final-time algebra", ok, f"tau* {tau.measured!r}, residuals {res.measured:.2e}, {rel.measured:.2e}")


def test_criterion_02_exponential_boundary(checks):
    cols = checks["exp_boundary_columns"]
    assert _line(2, "exponential boundary columns", _within(cols, 1e-10), f"max column deviation {cols.measured:.2e}")


def test_criterion_03_sweep_minimality(checks):
    gap = checks["sweep_minimum"]
    assert _line(3, "sweep minimality", gap.status == "pass" and gap.measured > 0.0, f"(0, 0) first by {gap.measured:.6f}")


def test_criterion_04_alternate_target(checks):
    cols = checks["x6_variant"]
    assert _line(4, "alternate target x6", _within(cols, 1e-10), f"column deviation from -+e2 {cols.measured:.2e}")


def test_criterion_05_structural_closure(checks):
    closure = checks["closure_residual"]
    ok = _within(closure, 1e-12) and closure.note == "10 random parameter sets, 10 times each"
    assert _line(5, "structural closure", ok, f"max residual {closure.measured:.2e} over 10x10 samples")


def test_criterion_06_dynamics_equivalence(checks):
    full, exact = checks["cross_validate_full_vs_rk4"], checks["rotating_exact_vs_rk4"]
    # each check passes only if every row of every set was compared: 5 sets of the 40,812 rows of [0, 3 tau*] at 1e-4
    rows = len(_time_grid(3.0 * TAU_STAR, checks["context"]["dtau"]))
    ok = _within(full, 1e-8) and _within(exact, 1e-8) and rows == 40812 and full.note.startswith("5 random parameter sets")
    detail = f"full-space vs RK4 {full.measured:.2e}, rotating-exact vs RK4 {exact.measured:.2e}, 5 x {rows} rows"
    assert _line(6, "dynamics oracle equivalence", ok, detail)


def test_criterion_07_consistency_scan(checks):
    scan, samples = checks["consistency_scan"], checks["context"]["scan_samples"]
    oracle = math.sqrt(2.0 + math.pi**2 / 3.0)  # bisection target: sqrt(3)*sqrt(w^2-2)/2 = pi/2
    ok = scan.status == "pass" and scan.tolerance == 1e-9 and abs(scan.measured - oracle) <= 1e-9 and samples == 4001
    assert _line(7, "consistency scan", ok, f"{scan.note}; first at omega_hat = {scan.measured:.6f}")


def test_criterion_08_transfer_experiment(checks):
    x8, disc, energy = checks["transfer_x8_at_tau_star"], checks["propagator_discrepancy"], checks["energy_residual_max"]
    within = abs(x8.measured - 1.0) <= 1e-6
    # measured, not assumed: on a miss the ansatz gap, the integrated-generator form's, is the deliverable
    ok = energy.status == "pass" and (within or (math.isfinite(disc.measured) and disc.measured > 0.0))
    detail = f"x8(tau*) = {x8.measured:.6f} (nominal 1, tol 1e-6, {'met' if within else 'violated'}); "
    assert _line(8, "transfer experiment", ok, detail + f"propagator discrepancy {disc.measured:.4f}, {disc.note}")


def test_criterion_09_optimality_probe(checks):
    probe = checks["ansatz_grid_search_x8"]
    early = probe.measured != "never reached" and probe.measured <= 0.95 * TAU_STAR
    assert _line(9, "ansatz optimality probe", probe.status == "pass" and not early, f"{probe.measured}; {probe.note}")


def test_criterion_10_no_transfer_probe(checks):
    probe = checks["no_transfer_probe_x7"]
    assert _line(10, "no-transfer probe", _within(probe, 0.999) and probe.measured < 0.999, f"max x7 {probe.measured:.6f}")
