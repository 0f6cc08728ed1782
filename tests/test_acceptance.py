"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (the consistency scan, the dynamics-equivalence runs, the ansatz
grid pass) are shared through module-scoped fixtures so the suite stays within
its runtime budget.
"""

import math

import numpy as np
import pytest

from trispin.algebra import energy_residual
from trispin.boundary import (
    TRANSFER_COLUMNS,
    analytic_family,
    boundary_residuals,
    closed_form_params,
    consistency_scan,
    exp_boundary_check,
    integer_relations_check,
    sweep_tau,
    transfer_time,
)
from trispin.dynamics import exact_state_trajectory, propagator_discrepancy
from trispin.hilbert import closure_check
from trispin.report import random_consistent_params, dynamics_equivalence
from trispin.search import grid_search

PI = math.pi
TAU_STAR = 0.25 * math.sqrt(3.0) * PI
SEED = 20260810


def _line(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


@pytest.fixture(scope="module")
def scan():
    return consistency_scan(2.0, 4.0, samples=4001)


@pytest.fixture(scope="module")
def consistent_params(scan):
    assert scan.consistent, "no consistent energy scale found"
    point = scan.consistent[0]
    return closed_form_params(point.omega_hat, k_sign=1, **point.branch)


@pytest.fixture(scope="module")
def grid(consistent_params):
    # one pass over the ansatz grid serves the x8 search and the x7 probe
    p = consistent_params
    return grid_search(p.omega_hat, p.k, target="x8", resolution=21, threshold=0.999)


@pytest.fixture(scope="module")
def equivalence():
    rng = np.random.default_rng(SEED)
    params = [random_consistent_params(rng) for _ in range(5)]
    return dynamics_equivalence(params, 3.0 * TAU_STAR, 1e-4)


def test_criterion_01_family_algebra():
    c = analytic_family(0, 0)
    dev_tau = abs(transfer_time(0, 0) - 1.360349523175663)
    res_boundary = float(np.max(np.abs(boundary_residuals(c))))
    res_integer = float(np.max(np.abs(integer_relations_check(c, 0, 0))))
    ok = dev_tau <= 1e-12 and res_boundary <= 1e-10 and res_integer <= 1e-10
    assert _line(
        1,
        "final-time algebra",
        ok,
        f"tau* dev {dev_tau:.2e}, boundary residuals {res_boundary:.2e}, integer relations {res_integer:.2e}",
    )


def test_criterion_02_exponential_boundary():
    c = analytic_family(0, 0)
    col_plus, col_minus = exp_boundary_check(c)
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    dev = max(float(np.max(np.abs(col_plus - e4))), float(np.max(np.abs(col_minus + e4))))
    assert _line(2, "exponential boundary columns", dev <= 1e-10, f"max column deviation {dev:.2e}")


def test_criterion_03_sweep_minimality():
    rows = sweep_tau(3)
    unique_min = (rows[0]["m0"], rows[0]["n0"]) == (0, 0) and rows[1]["tau_star"] > rows[0]["tau_star"]
    assert _line(
        3,
        "sweep minimality",
        unique_min,
        f"min tau* {rows[0]['tau_star']:.6f} at (m0, n0) = ({rows[0]['m0']}, {rows[0]['n0']})",
    )


def test_criterion_04_alternate_target():
    c6 = analytic_family(0, 0, "x6")
    tau6 = c6.a / 2
    col_plus, col_minus = exp_boundary_check(c6)
    x6 = np.array(TRANSFER_COLUMNS["x6"])
    dev_cols = max(float(np.max(np.abs(col_plus - x6))), float(np.max(np.abs(col_minus + x6))))
    ok = abs(tau6 - TAU_STAR) <= 1e-12 and dev_cols <= 1e-10
    assert _line(4, "alternate target x6", ok, f"same tau*, column deviation from -+e2 {dev_cols:.2e}")


def test_criterion_05_structural_closure():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(10):
        p = random_consistent_params(rng)
        worst = max(worst, closure_check(p, rng.uniform(0.0, 5.0, size=10)))
    assert _line(5, "structural closure", worst <= 1e-12, f"max residual {worst:.2e} over 10x10 samples")


def test_criterion_06_dynamics_equivalence(equivalence):
    worst_full, worst_exact, rows = equivalence
    ok = worst_full <= 1e-8 and worst_exact <= 1e-8 and rows == 5 * 40812  # every row of the 5 sets' grids
    assert _line(
        6,
        "dynamics oracle equivalence",
        ok,
        f"full-space vs RK4 {worst_full:.2e}, rotating-exact vs RK4 {worst_exact:.2e}",
    )


def test_criterion_07_consistency_scan(scan):
    found = [cp for cp in scan.consistent if max(cp.residual_b, cp.residual_d) <= 1e-9]
    oracle = math.sqrt(2.0 + PI**2 / 3.0)  # bisection target: sqrt(3)*sqrt(w^2-2)/2 = pi/2
    near = [cp for cp in found if abs(cp.omega_hat - oracle) < 5e-4]
    ok = len(found) >= 1 and len(near) >= 1 and len(scan.omegas) == 4001
    detail = (
        f"{len(found)} consistent point(s); first at omega_hat = {found[0].omega_hat:.6f}"
        if found
        else "none found"
    )
    assert _line(7, "consistency scan", ok, detail)


def test_criterion_08_transfer_experiment(consistent_params):
    p = consistent_params
    assert abs(energy_residual(p)) < 1e-12
    x0 = np.zeros(8)
    x0[0] = 1.0
    x8_final = float(exact_state_trajectory(p, x0, np.array([TAU_STAR]))[0, 7])
    within = abs(x8_final - 1.0) <= 1e-6
    disc = propagator_discrepancy(p, np.linspace(0.0, TAU_STAR, 241))
    # the experiment must complete either way; on violation the ansatz gap is
    # the required deliverable that adjudicates the integrated-generator form
    ok = within or (np.isfinite(disc.max_deviation) and disc.max_deviation > 0.0)
    assert _line(
        8,
        "transfer experiment",
        ok,
        f"x8(tau*) = {x8_final:.6f} (nominal 1, tol 1e-6, {'met' if within else 'violated'}); "
        f"propagator discrepancy {disc.max_deviation:.4f} at tau = {disc.tau_at_max:.4f}",
    )


def test_criterion_09_optimality_probe(grid):
    early = grid.best_tau is not None and grid.best_tau <= 0.95 * TAU_STAR
    best = f"{grid.best_tau:.6f}" if grid.best_tau is not None else "never reached"
    x8, x8_tau, _ = grid.peaks["x8"]
    assert _line(
        9,
        "ansatz optimality probe",
        not early,
        f"best tau to x8 >= 0.999: {best}; largest x8 on grid {x8:.6f} at tau {x8_tau:.4f}",
    )


def test_criterion_10_no_transfer_probe(grid):
    x7, tau, _ = grid.peaks["x7"]
    ok = x7 < 0.999
    assert _line(10, "no-transfer probe", ok, f"max x7 over grid = {x7:.6f} at tau = {tau:.4f}")
