import math

import numpy as np
import pytest

from trispin.algebra import ControlParams, energy_residual, transverse_amplitude
from trispin.boundary import (
    TRANSFER_COLUMNS,
    BoundaryConstants,
    DerivedQuantities,
    _residual_system,
    abcd_from_physical,
    analytic_family,
    boundary_residuals,
    closed_form_params,
    consistency_scan,
    derived_quantities,
    exp_boundary_check,
    family_constants_for_target,
    generator_from_constants,
    integer_relations_check,
    invert_to_physical,
    sinc,
    solution_record,
    swap_bd,
    sweep_tau,
)
from trispin.dynamics import integral_generator

PI = math.pi
TAU_STAR = 0.25 * math.sqrt(3.0) * PI

# independent oracle for the consistent energy scale: the closed-form constants
# reproduce b = -pi*k exactly when sqrt(3)*sqrt(omega_hat^2-2)/2 hits pi/2,
# located here by bisection of that monotone condition.
def _oracle_consistent_omega():
    def g(w):
        return math.sqrt(3.0) * math.sqrt(w * w - 2.0) / 2.0 - PI / 2.0

    lo, hi = 1.5, 4.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


ORACLE_OMEGA = _oracle_consistent_omega()


def test_oracle_omega_closed_form():
    assert abs(ORACLE_OMEGA - math.sqrt(2.0 + PI**2 / 3.0)) < 1e-12


# --- abcd ------------------------------------------------------------------


def test_abcd_without_transverse_drive():
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=1.0, omega_rf=1.0, theta0=0.2)
    c = abcd_from_physical(p, 1.3)
    assert c.b == 0.0 and c.d == 0.0
    assert abs(c.a - 2.6) < 1e-15


def test_abcd_symmetric_couplings():
    p = ControlParams(k=1.0, omega_hat=2.5, b0=1.0, bz=0.0, omega_rf=2.0, theta0=0.0)
    c = abcd_from_physical(p, 0.9)
    assert abs(c.c_plus - c.a) < 1e-14
    assert abs(c.c_minus + c.a) < 1e-14


def test_abcd_at_consistent_point():
    # phase differences evaluated at the closed-form controls: d = 0, b = -pi
    p = ControlParams(
        k=1.0,
        omega_hat=ORACLE_OMEGA,
        b0=transverse_amplitude(ORACLE_OMEGA, 1.0),
        bz=0.0,
        omega_rf=4.0 / math.sqrt(3.0),
        theta0=0.0,
    )
    c = abcd_from_physical(p, TAU_STAR)
    assert abs(c.d) < 1e-12
    assert abs(c.b + PI) < 1e-12


def test_abcd_matches_integral_generator(rng):
    # A_pm built from the constants must equal the integrated generator at tau_star
    k = float(rng.choice([1.0, -1.0]))
    p = ControlParams(
        k=k,
        omega_hat=2.6,
        b0=transverse_amplitude(2.6, k, 0.4),
        bz=0.4,
        omega_rf=float(rng.uniform(-3, 3)),
        theta0=float(rng.uniform(0, 2 * PI)),
    )
    tau = 1.1
    c = abcd_from_physical(p, tau)
    for sign in (1, -1):
        assert np.max(np.abs(generator_from_constants(c, sign) - integral_generator(p, tau, sign))) < 1e-13


# --- derived quantities ------------------------------------------------------


def test_derived_quantities_family_values():
    # hand evaluation at the minimal family: X+ = 5 pi^2/2, sqrt(Delta+) = 2 pi^2,
    # Z+ = 3 pi/2 = (pi/2)(2n+1) with n = 1, Z- = pi/2, and the same for W.
    c, _, _ = analytic_family(0, 0)
    dq = derived_quantities(c)
    assert abs(dq.x_plus - 2.5 * PI**2) < 1e-12
    assert abs(dq.sqrt_delta_plus - 2.0 * PI**2) < 1e-12
    assert abs(dq.z_plus - 1.5 * PI) < 1e-12
    assert abs(dq.z_minus - 0.5 * PI) < 1e-12
    assert abs(dq.w_plus - 1.5 * PI) < 1e-12
    assert abs(dq.w_minus - 0.5 * PI) < 1e-12


def test_derived_quantities_angle_labels_on_grid():
    for m0 in range(4):
        for n0 in range(m0, 4):
            for k_sign in (1, -1):
                c, qn, _ = analytic_family(m0, n0, k_sign)
                dq = derived_quantities(c)
                assert abs(dq.z_plus - 0.5 * PI * (2 * qn.n + 1)) < 1e-12
                assert abs(dq.w_minus - 0.5 * PI * (2 * qn.m + 1)) < 1e-12


def test_derived_quantities_zero_constants():
    dq = derived_quantities(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0))
    assert dq.x_plus == 0.0 and dq.z_plus == 0.0 and dq.w_minus == 0.0


def test_delta_nonnegative_for_random_constants(rng):
    # algebraic inequality X >= 2|ac| checked on 1e5 draws through the API
    vals = rng.uniform(-50.0, 50.0, size=(100_000, 5))
    for a, b, cp, cm, d in vals:
        dq = derived_quantities(BoundaryConstants(a, b, cp, cm, d))
        assert dq.delta_plus >= 0.0 and dq.delta_minus >= 0.0


def test_sinc_series_branch():
    assert sinc(0.0) == 1.0
    z = 5e-5
    assert abs(sinc(z) - math.sin(z) / z) < 5e-16
    assert abs(sinc(2.0) - math.sin(2.0) / 2.0) == 0.0
    # the series sees only small z, so a huge z raises no overflow warning
    assert sinc(1e40) == math.sin(1e40) / 1e40


# --- boundary residuals -------------------------------------------------------


def test_family_residuals_vanish_on_grid():
    for m0 in range(4):
        for n0 in range(m0, 4):
            for k_sign in (1, -1):
                c, qn, _ = analytic_family(m0, n0, k_sign)
                assert np.max(np.abs(boundary_residuals(c))) <= 1e-10
                assert np.max(np.abs(integer_relations_check(c, qn))) <= 1e-10


def test_perturbed_constants_fail():
    c, _, _ = analytic_family(0, 0)
    perturbed = BoundaryConstants(c.a + 0.1, c.b, c.c_plus, c.c_minus, c.d)
    assert np.max(np.abs(boundary_residuals(perturbed))) > 1e-3


def test_trivial_zero_constants_satisfy_system():
    res = boundary_residuals(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(res)) == 0.0


def rejected_branch_residuals(m0, n0, k_sign=1):
    """Boundary residuals with the discarded angle relation Z_minus = Z_plus + 2*pi*p.

    The accepted branch pairs the angles as Z_minus = -Z_plus + 2*pi*p (and
    likewise for W); substituting the same-sign pairing into the residual
    system together with the family constants leaves no solution.
    """
    c, qn, _ = analytic_family(m0, n0, k_sign)
    z_p = 0.5 * PI * (2 * qn.n + 1)
    w_m = 0.5 * PI * (2 * qn.m + 1)
    z_m = z_p + 2.0 * PI * qn.p
    w_p = w_m + 2.0 * PI * qn.q
    sd_p, sd_m = z_p**2 - z_m**2, w_p**2 - w_m**2
    dq = DerivedQuantities(
        x_plus=z_p**2 + z_m**2,
        x_minus=w_p**2 + w_m**2,
        delta_plus=sd_p**2,
        delta_minus=sd_m**2,
        sqrt_delta_plus=sd_p,
        sqrt_delta_minus=sd_m,
        z_plus=z_p,
        z_minus=z_m,
        w_plus=w_p,
        w_minus=w_m,
    )
    return _residual_system(c, dq)


def test_rejected_branch_has_no_solution():
    for m0, n0 in ((0, 0), (0, 1), (1, 1), (2, 3)):
        res = rejected_branch_residuals(m0, n0)
        assert np.max(np.abs(res)) > 1e-3


# --- exponential boundary check -------------------------------------------------


def test_exp_boundary_family_columns():
    c, _, _ = analytic_family(0, 0)
    col_plus, col_minus = exp_boundary_check(c)
    assert np.max(np.abs(col_plus - np.array([0, 0, 0, 1.0]))) < 1e-10
    assert np.max(np.abs(col_minus - np.array([0, 0, 0, -1.0]))) < 1e-10


def test_exp_boundary_zero_constants():
    col_plus, col_minus = exp_boundary_check(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0))
    assert np.allclose(col_plus, [1, 0, 0, 0])
    assert np.allclose(col_minus, [1, 0, 0, 0])


def test_exp_boundary_unit_columns(rng):
    vals = rng.uniform(-3, 3, size=5)
    col_plus, col_minus = exp_boundary_check(BoundaryConstants(*vals))
    assert abs(np.linalg.norm(col_plus) - 1.0) < 1e-12
    assert abs(np.linalg.norm(col_minus) - 1.0) < 1e-12


def test_exp_boundary_grid():
    for m0 in range(4):
        for n0 in range(m0, 4):
            for k_sign in (1, -1):
                c, _, _ = analytic_family(m0, n0, k_sign)
                col_plus, col_minus = exp_boundary_check(c)
                e4 = np.array([0, 0, 0, 1.0])
                assert np.max(np.abs(col_plus - e4)) < 1e-10
                assert np.max(np.abs(col_minus + e4)) < 1e-10


# --- analytic family -------------------------------------------------------------


def test_family_minimal_branch():
    c, qn, tau_star = analytic_family(0, 0, 1)
    assert abs(tau_star - TAU_STAR) < 1e-15
    assert abs(c.a - math.sqrt(3.0) * PI / 2.0) < 1e-15
    assert abs(c.b + PI) < 1e-15
    assert c.c_plus == c.a and c.c_minus == -c.a and c.d == 0.0
    assert (qn.p, qn.q) == (1, 1)


def test_family_next_branch():
    c, qn, tau_star = analytic_family(0, 1, 1)
    assert abs(tau_star - 0.25 * PI * math.sqrt(7.0)) < 1e-15
    assert abs(c.b + 3.0 * PI) < 1e-15
    assert (qn.m, qn.n) == (0, 3)


def test_family_sign_flip_with_coupling():
    c, _, _ = analytic_family(0, 0, -1)
    assert abs(c.b - PI) < 1e-15


def test_family_rejects_bad_ordering():
    with pytest.raises(ValueError, match="index ordering"):
        analytic_family(1, 0)
    with pytest.raises(ValueError):
        analytic_family(-1, 0)


# --- integer relations --------------------------------------------------------------


def test_integer_relations_wrong_p():
    c, qn, _ = analytic_family(0, 0)
    from dataclasses import replace

    wrong = replace(qn, p=2)
    res = integer_relations_check(c, wrong)
    # first relation residual: sqrt(Delta+) - 2 pi^2 p (2n+1-2p) = 2pi^2 + 4pi^2
    assert abs(abs(res[0]) - 6.0 * PI**2) < 1e-9
    assert np.max(np.abs(res)) > 1e-3


# --- closed-form controls -------------------------------------------------------------


def test_closed_form_params_example_values():
    p = closed_form_params(ORACLE_OMEGA, k_sign=1, b0_sign=1, omega_sign=1, theta_sign=-1, r=0)
    assert abs(p.omega_rf - 4.0 / math.sqrt(3.0)) < 1e-12
    assert abs(p.b0 - PI / math.sqrt(3.0)) < 1e-12
    assert abs(p.theta0) < 1e-12
    assert p.bz == 0.0


def test_closed_form_params_energy_consistent(rng):
    for _ in range(5):
        w = float(rng.uniform(1.5, 4.0))
        if w * w <= 2.0:
            continue
        p = closed_form_params(w, k_sign=int(rng.choice([1, -1])), r=int(rng.integers(0, 3)))
        assert abs(energy_residual(p)) < 1e-12


def test_closed_form_params_branch_endpoint():
    w = math.sqrt(2.0) + 1e-9
    p = closed_form_params(w)
    assert p.b0 < 1e-4 and p.omega_rf < 1e-4


def test_closed_form_params_rejects_low_energy():
    with pytest.raises(ValueError):
        closed_form_params(1.2)


# --- inversion ---------------------------------------------------------------------


def _positive_b0_solutions():
    """Inverted controls at the consistent scale on the r = 0, b0 > 0 branch."""
    return [s for s in invert_to_physical(ORACLE_OMEGA, 1.0, TAU_STAR, -PI, r_values=(0,)) if s.branch["b0_sign"] == 1]


def test_invert_finds_reference_rate():
    sols = _positive_b0_solutions()
    rates = [s.params.omega_rf for s in sols]
    assert any(abs(rate - 4.0 / math.sqrt(3.0)) < 1e-9 for rate in rates)


def test_invert_bisection_oracle():
    # independent bisection of 2 b0 tau* sinc(omega tau*/2) = pi on a bracket around the root
    b0 = transverse_amplitude(ORACLE_OMEGA, 1.0)

    def f(om):
        return 2.0 * b0 * TAU_STAR * math.sin(om * TAU_STAR / 2.0) / (om * TAU_STAR / 2.0) - PI

    lo, hi = 2.0, 3.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle_rate = 0.5 * (lo + hi)
    sols = _positive_b0_solutions()
    assert any(abs(s.params.omega_rf - oracle_rate) < 1e-9 for s in sols)


def test_invert_round_trip(rng):
    w = 2.7
    sols = invert_to_physical(w, 1.0, TAU_STAR, -PI)
    assert sols
    for s in sols:
        c = abcd_from_physical(s.params, TAU_STAR)
        assert abs(c.a - 2.0 * TAU_STAR) < 1e-12
        assert abs(c.b + PI) < 1e-9
        assert abs(c.d) < 1e-9
        assert abs(c.c_plus - c.a) < 1e-12
        assert abs(energy_residual(s.params)) < 1e-12


def test_invert_rejects_zero_target():
    with pytest.raises(ValueError, match="nonzero"):
        invert_to_physical(2.5, 1.0, TAU_STAR, 0.0)


@pytest.mark.parametrize("tau_star", [0.0, -1.0])
def test_invert_rejects_nonpositive_tau_star(tau_star):
    with pytest.raises(ValueError, match="tau_star must be positive"):
        invert_to_physical(2.5, 1.0, tau_star, -PI)


def test_invert_empty_when_unreachable():
    # just above the energy floor the drive is too weak to produce |b| = pi
    sols = invert_to_physical(math.sqrt(2.0) + 1e-6, 1.0, TAU_STAR, -PI)
    assert sols == []


# --- consistency scan -----------------------------------------------------------------


def test_scan_finds_consistent_point():
    scan = consistency_scan(2.0, 4.0, samples=4001)
    assert len(scan.omegas) == 4001
    assert scan.omegas[0] > 2.0 and abs(scan.omegas[-1] - 4.0) < 1e-12
    assert scan.consistent
    best = scan.consistent[0]
    assert abs(best.omega_hat - ORACLE_OMEGA) < 1e-7
    assert best.residual_b <= 1e-9 and best.residual_d <= 1e-9
    # the consistent scales are omega_hat_j = sqrt(2 + (2j+1)^2 pi^2/3) for either k,
    # as derived in the scan's docstring
    expected = [math.sqrt(2.0 + (2 * j + 1) ** 2 * PI**2 / 3.0) for j in (0, 1)]
    for k_sign in (1, -1):
        wide = consistency_scan(2.0, 6.0, k_sign=k_sign, samples=4001)
        assert [cp.omega_hat for cp in wide.consistent] == pytest.approx(expected, abs=1e-7)


@pytest.mark.parametrize("lo, hi", [(3.0, 2.0), (2.0, 1.0), (2.0, 2.0), (2.0, math.inf), (math.nan, 4.0)])
def test_scan_rejects_empty_reversed_or_non_finite_range(lo, hi):
    with pytest.raises(ValueError, match=r"scan range \(.*\] must be finite with omega_lo < omega_hi"):
        consistency_scan(lo, hi, samples=11)


def test_scan_empty_below_working_range():
    scan = consistency_scan(math.sqrt(2.0), 1.5, samples=101)
    assert scan.consistent == []


def test_scan_residual_recorded_at_three():
    scan = consistency_scan(2.9, 3.1, samples=21)
    i = int(np.argmin(np.abs(scan.omegas - 3.0)))
    assert np.isfinite(scan.residuals[i])
    assert scan.residuals[i] > 1e-9  # 3.0 is not a consistent scale


# --- sweep -----------------------------------------------------------------------------


def test_sweep_table():
    rows = sweep_tau(3, 3)
    assert len(rows) == 16
    assert (rows[0]["m0"], rows[0]["n0"]) == (0, 0)
    assert abs(rows[0]["tau_star"] - TAU_STAR) < 1e-15
    by_key = {(r["m0"], r["n0"]): r["tau_star"] for r in rows}
    assert abs(by_key[(0, 1)] - 0.25 * PI * math.sqrt(7.0)) < 1e-15
    for m0 in range(4):
        col = [by_key[(m0, n0)] for n0 in range(4)]
        assert all(col[i] < col[i + 1] for i in range(3))
    with pytest.raises(ValueError):
        sweep_tau(-1, 2)


# --- targets ---------------------------------------------------------------------------


def test_target_vectors():
    # every table entry is the first column of exp[A_plus] at its family
    # constants, and exp[A_minus] gives its negative, on several branches and both k
    assert list(TRANSFER_COLUMNS) == ["x8", "x6"]
    for target, column in TRANSFER_COLUMNS.items():
        for m0, n0 in ((0, 0), (0, 2), (1, 1), (2, 3)):
            for k_sign in (1, -1):
                c, _, _ = family_constants_for_target(target, m0, n0, k_sign)
                col_plus, col_minus = exp_boundary_check(c)
                assert np.max(np.abs(col_plus - np.array(column))) < 1e-10, (target, m0, n0, k_sign)
                assert np.max(np.abs(col_minus + np.array(column))) < 1e-10, (target, m0, n0, k_sign)
    with pytest.raises(TypeError):
        TRANSFER_COLUMNS["x7"] = (0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="no solution family"):
        family_constants_for_target("x5x", 0, 0)


def test_x6_family_constants():
    c6, _, tau6 = family_constants_for_target("x6", 0, 0, 1)
    assert c6.b == 0.0
    assert abs(c6.d + PI) < 1e-15
    assert abs(tau6 - TAU_STAR) < 1e-15


def test_x6_exp_columns_along_target_axis():
    # the exchanged-constants generator transfers e1 onto the -e2 / +e2 pair
    c6, _, _ = family_constants_for_target("x6", 0, 0, 1)
    col_plus, col_minus = exp_boundary_check(c6)
    axis = np.zeros(4)
    axis[1] = -1.0
    assert np.max(np.abs(col_plus - axis)) < 1e-10
    assert np.max(np.abs(col_minus + axis)) < 1e-10
    # swapping b and d back recovers the original family residuals
    assert np.max(np.abs(boundary_residuals(swap_bd(c6)))) <= 1e-10


def test_x7_has_no_family():
    with pytest.raises(ValueError, match="no solution family"):
        family_constants_for_target("x7", 0, 0)


# --- JSON record -------------------------------------------------------------------------


def test_solution_record_schema():
    sols = _positive_b0_solutions()
    rec = solution_record(0, 0, k_sign=1, params=sols[0].params, branch=sols[0].branch)
    for key in ("m0", "n0", "k_sign", "tau_star", "a", "b", "c_plus", "c_minus", "d", "p", "q", "params", "residuals"):
        assert key in rec
    assert rec["params"]["branch"] == {"b0_sign": 1, "omega_sign": 1, "theta_sign": -1, "r": 0}
    assert len(rec["residuals"]["boundary"]) == 8
    assert rec["residuals"]["b_eq"] <= 1e-9
    assert rec["residuals"]["d_eq"] <= 1e-9
