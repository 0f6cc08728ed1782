import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from trispin import boundary
from trispin.algebra import ControlParams, energy_residual, transverse_amplitude
from trispin.boundary import TRANSFER_COLUMNS, BoundaryConstants, _residual_system, abcd_from_physical, analytic_family
from trispin.boundary import boundary_residuals, closed_form_params, column_deviations, column_scales, consistency_scan
from trispin.boundary import consistent_scale, derived_quantities, exp_boundary_check, generator_from_constants
from trispin.boundary import integer_relations_check, invert_to_physical, sweep_tau, transfer_time
from trispin.dynamics import integral_generator, phase_integrals, sinc

from conftest import SCAN_LABELS
from mutants import TABLE

PI = math.pi
TAU_STAR = 0.25 * math.sqrt(3.0) * PI
LABELS = [(m0, n0) for m0 in range(4) for n0 in range(m0, 4)]  # the family's labels up to 3
LIVE = {"omega_sign": 1, "theta_sign": -1}


def labelled(omega_hat, k_sign, omega_sign, theta_sign, r):
    """The closed-form control on any of the eight labels: omega_rf = omega_sign*(4/pi)*R and theta0 =
    [(2r+1)*pi + theta_sign*sqrt(3)*R]/2, R = sqrt(omega_hat^2 - 2); on LIVE it has closed_form_params' bits."""
    root = np.sqrt(np.square(omega_hat) - 2.0)
    return replace(closed_form_params(omega_hat, k_sign, r), omega_rf=omega_sign * (4.0 / PI) * root,
                   theta0=0.5 * ((2 * r + 1) * PI + theta_sign * math.sqrt(3.0) * root))


def raises_exactly(call, args, message):
    """call(*args) raises a ValueError whose message is message, "..." standing for any text in it."""
    with pytest.raises(ValueError) as exc:
        call(*args)
    assert re.fullmatch(".*".join(map(re.escape, message.split("..."))), str(exc.value)), str(exc.value)


def _oracle_consistent_omega(lo=1.5, hi=4.0):
    """Independent oracle for the consistent energy scale: the closed-form constants reproduce b = -pi*k exactly when
    sqrt(3)*sqrt(omega_hat^2-2)/2 hits pi/2, located by bisection of that monotone condition."""
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if math.sqrt(3.0) * math.sqrt(mid * mid - 2.0) / 2.0 - PI / 2.0 > 0 else (mid, hi)
    return 0.5 * (lo + hi)


ORACLE_OMEGA = _oracle_consistent_omega()


def both_couplings(m0, n0):
    """(k, constants) of the (m0, n0) family at k = 1 and k = -1, whose constants have b and c_pm negated."""
    c = analytic_family(m0, n0)
    return [(1, c), (-1, replace(c, b=-c.b, c_plus=-c.c_plus, c_minus=-c.c_minus))]


def test_oracle_omega_closed_form():
    assert abs(ORACLE_OMEGA - math.sqrt(2.0 + PI**2 / 3.0)) < 1e-12


# --- abcd ------------------------------------------------------------------


def test_abcd_without_transverse_drive():
    c = abcd_from_physical(ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=1.0, omega_rf=1.0, theta0=0.2), 1.3)
    assert c.b == 0.0 and c.d == 0.0 and abs(c.a - 2.6) < 1e-15


def test_abcd_symmetric_couplings():
    c = abcd_from_physical(ControlParams(k=1.0, omega_hat=2.5, b0=1.0, bz=0.0, omega_rf=2.0, theta0=0.0), 0.9)
    assert abs(c.c_plus - c.a) < 1e-14 and abs(c.c_minus + c.a) < 1e-14


def test_abcd_at_consistent_point():
    # phase differences evaluated at the closed-form controls: d = 0, b = -pi
    p = ControlParams(1.0, ORACLE_OMEGA, transverse_amplitude(ORACLE_OMEGA, 1.0), 0.0, 4.0 / math.sqrt(3.0), 0.0)
    c = abcd_from_physical(p, TAU_STAR)
    assert abs(c.d) < 1e-12 and abs(c.b + PI) < 1e-12


def test_abcd_matches_integral_generator(rng):
    # A_pm built from the constants must equal the integrated generator at tau_star
    k = float(rng.choice([1.0, -1.0]))
    p = ControlParams(k, 2.6, transverse_amplitude(2.6, k, 0.4), 0.4, float(rng.uniform(-3, 3)), float(rng.uniform(0, 2 * PI)))
    assert np.max(np.abs(generator_from_constants(abcd_from_physical(p, 1.1)) - integral_generator(p, 1.1))) < 1e-13


# --- derived quantities ------------------------------------------------------


def test_derived_quantities_family_values():
    # hand evaluation at the minimal family: X+ = 5 pi^2/2, sqrt(Delta+) = 2 pi^2,
    # Z+ = 3 pi/2 = (pi/2)(2n+1) with n = 1, Z- = pi/2, and the same for W.
    (x_p, sd_p, z_p, z_m), (_, _, w_p, w_m) = derived_quantities(analytic_family(0, 0))
    want = [2.5 * PI**2, 2.0 * PI**2, 1.5 * PI, 0.5 * PI, 1.5 * PI, 0.5 * PI]
    assert np.max(np.abs(np.array([x_p, sd_p, z_p, z_m, w_p, w_m]) - want)) < 1e-12


def test_derived_quantities_angle_labels_on_grid():
    for m0, n0 in LABELS:
        for _, c in both_couplings(m0, n0):
            (_, _, z_p, _), (_, _, _, w_m) = derived_quantities(c)
            assert abs(z_p - 0.5 * PI * (4 * n0 + 3)) < 1e-12 and abs(w_m - 0.5 * PI * (4 * m0 + 1)) < 1e-12


# the Levi-Civita symbol of four indices: the Hodge dual of a 4x4 skew a is (*a)_ij = eps_ijkl a_kl / 2
EPS4 = np.zeros((4,) * 4)
for _perm in itertools.permutations(range(4)):
    EPS4[_perm] = np.linalg.det(np.eye(4)[list(_perm)])


def so4_angles(a):
    """(t_+ + t_-, |t_+ - t_-|), the rotation angles of 4x4 skew generators a, t_pm = |h_pm|_F/2, h_pm = (a +- *a)/2."""
    dual = 0.5 * np.einsum("ijkl,...kl->...ij", EPS4, a)
    t_plus, t_minus = (0.25 * np.linalg.norm(a + sign * dual, axis=(-2, -1)) for sign in (1.0, -1.0))
    return t_plus + t_minus, np.abs(t_plus - t_minus)


def random_constants(count, seed=2024):
    return [BoundaryConstants(*v) for v in np.random.default_rng(seed).uniform(-8.0, 8.0, (count, 5))]


def test_derived_angles_are_the_so4_angles_of_the_generators():
    """Z_pm of A_+ and W_pm of A_- are t_+ +- t_- of their self-dual and anti-self-dual parts."""
    labels = [analytic_family(m0, n0, t) for t in TRANSFER_COLUMNS for m0 in range(8) for n0 in range(m0, 8)]
    for c in labels + random_constants(2000):
        (_, _, z_p, z_m), (_, _, w_p, w_m) = derived_quantities(c)
        larger, smaller = so4_angles(generator_from_constants(c))
        assert np.all(np.abs(larger - [z_p, w_p]) <= 1e-12 * larger)
        assert np.all(np.abs(smaller - [z_m, w_m]) <= 1e-12 * larger)


def test_derived_quantities_zero_constants():
    (x_p, _, z_p, _), (_, _, _, w_m) = derived_quantities(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0))
    assert x_p == 0.0 and z_p == 0.0 and w_m == 0.0


def test_delta_nonnegative_for_random_constants(rng):
    # algebraic inequality X >= 2|ac| checked on 1e5 draws through the API: Delta = X^2 - 4a^2c^2 is the
    # factored product f1*f2, f1, f2 = X -+ 2ac, and its root sqrt(f1)*sqrt(f2) is real (not nan) and >= 0
    for a, b, cp, cm, d in rng.uniform(-50.0, 50.0, size=(100_000, 5)):
        (_, sd_p, _, _), (_, sd_m, _, _) = derived_quantities(BoundaryConstants(a, b, cp, cm, d))
        assert sd_p >= 0.0 and sd_m >= 0.0


# --- sinc and the phase integrals against references ---------------------------
# sinc is sin(z)/z, 1 at z = 0, and the phase integrals are tau*sinc(u/2)*(cos, sin)(theta0 + u/2),
# u = omega_rf*tau, with no series and no threshold.  The references are other forms of the same
# values: sinc by its six-term series below |z| = 1e-4, and the phase integrals by angle addition at
# theta0, tau*(c0*C -+ s0*S) with C = sinc(u) and S = (1 - cos u)/u = sin(u/2)*sinc(u/2), which
# cancels nowhere either.  sinc must agree to an ulp, the phase integrals to 1e-15*tau.


def _sinc_reference(z):
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    z2 = np.where(small, z, 0.0) ** 2  # np.where evaluates both forms: keep large z out of the series
    series = 1.0 - z2 / 6.0 + z2**2 / 120.0 - z2**3 / 5040.0 + z2**4 / 362880.0 - z2**5 / 39916800.0
    return np.where(small, series, np.sin(z) / np.where(small, 1.0, z))[()]


def _phase_integrals_reference(p, tau):
    tau = np.asarray(tau, dtype=float)
    u = p.omega_rf * tau
    c0, s0 = np.cos(p.theta0), np.sin(p.theta0)
    cu, su = _sinc_reference(u), np.sin(u / 2.0) * _sinc_reference(u / 2.0)
    return (tau * (c0 * cu - s0 * su))[()], (tau * (s0 * cu + c0 * su))[()]


def _assert_same(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _assert_within_an_ulp(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def _assert_phase_integrals(p, tau):
    """phase_integrals(p, tau) has the reference's type and shape and is within 1e-15*tau of it."""
    for got, want in zip(phase_integrals(p, tau), _phase_integrals_reference(p, tau)):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-15 * np.asarray(tau))


def _mixed(rng, n, small, big):
    """n values, about half of magnitude below small (zeros and both signs among them), the rest up to big."""
    tiny = rng.uniform(-small, small, n // 2)
    tiny[:3] = (0.0, -0.0, small * (1.0 - 2.0**-52))
    large = rng.choice((-1.0, 1.0), n - n // 2) * np.exp(rng.uniform(math.log(small), math.log(big), n - n // 2))
    large[:2] = (small, -small)
    return rng.permutation(np.concatenate([tiny, large]))


def test_sinc_equals_reference_on_mixed_arrays(rng):
    z = _mixed(rng, 4000, 1e-4, 1e6)
    for arg in (z, z.reshape(40, 100), z.reshape(40, 100).T, z[::3], z[np.abs(z) < 1e-4], z[np.abs(z) >= 1e-4], z[:0]):
        _assert_within_an_ulp(sinc(arg), _sinc_reference(arg))
    # above the series' range both are sin(z)/z
    _assert_same(sinc(z[np.abs(z) >= 1e-4]), _sinc_reference(z[np.abs(z) >= 1e-4]))


@pytest.mark.parametrize("z", [0.0, -0.0, 5e-5, -9.99e-5, 1e-4, 2.0, -3.7, 1e40])
def test_sinc_equals_reference_on_scalars(z):
    for arg in (z, np.float64(z), np.array(z)):
        assert type(sinc(arg)) is np.float64
        _assert_within_an_ulp(sinc(arg), _sinc_reference(arg))
        assert abs(z) < 1e-4 or sinc(arg) == math.sin(z) / z


def test_sinc_is_within_an_ulp_of_the_six_term_series():
    # below |z| = 1e-4 plain sin(z)/z is within an ulp of the series, on a dense sample, its
    # edges, zeros of both signs and subnormals
    edge, tiny = np.nextafter(1e-4, 0.0), np.finfo(float).smallest_subnormal
    special = [0.0, edge, tiny, 1e-310, np.finfo(float).tiny, 1e-160, 1.5e-154, 1e-8]
    special += [-z for z in special]
    z = np.concatenate([np.linspace(-edge, edge, 200_001), np.geomspace(tiny, edge, 100_000), special])
    z = np.concatenate([z, -z])
    assert np.all(np.abs(z) < 1e-4) and np.signbit(special[len(special) // 2])
    _assert_within_an_ulp(sinc(z), _sinc_reference(z))
    _assert_within_an_ulp(sinc(z.reshape(-1, 2)), _sinc_reference(z.reshape(-1, 2)))
    for arg in (f(v) for v in special for f in (float, np.float64, np.array)):
        _assert_within_an_ulp(sinc(arg), _sinc_reference(arg))


def _params(omega_rf, theta0):
    return ControlParams(k=1.0, omega_hat=2.5, b0=1.2, bz=0.1, omega_rf=omega_rf, theta0=theta0)


def test_phase_integrals_equal_reference_on_mixed_rates(rng):
    rates = _mixed(rng, 3000, 1e-2, 50.0)
    for tau in (1.0, 0.37, rng.uniform(0.0, 4.0, rates.size)):
        for theta0 in (0.7, rng.uniform(-PI, PI, rates.size)):
            _assert_phase_integrals(_params(rates, theta0), tau)


@pytest.mark.parametrize("omega_rf", [0.0, -0.0, 4e-3, 0.5, -2.0, np.array(0.0), np.array(0.5)])
@pytest.mark.parametrize("tau", [0.0, 1.7, np.float64(2.0), np.array(2.0)])
def test_phase_integrals_equal_reference_on_scalars(omega_rf, tau):
    p = _params(omega_rf, 0.3)
    assert all(type(v) is np.float64 for v in phase_integrals(p, tau))
    _assert_phase_integrals(p, tau)


# scalar or array tau against scalar or array fields of p, including a theta0 of
# its own shape that broadcasts beyond the shape of u
_BROADCASTS = {
    "scalar tau, scalar p": (1.3, 0.0, 0.4),
    "array tau, scalar p": (np.array([0.0, 1e-3, 0.5, 2.0, 7.0]), 0.01, 0.4),
    "array tau, zero rate": (np.array([0.0, 0.5, 2.0]), 0.0, 0.4),
    "scalar tau, array p": (1.3, np.array([0.0, 1e-3, -2e-3, 0.3, 5.0]), np.array([0.1, 0.2, 0.3, 0.4, 0.5])),
    "scalar tau, array theta0": (1.3, 0.0, np.array([0.1, -0.2, 3.0])),
    "array tau, array theta0": (np.array([[0.0], [1.0], [2e-3]]), 1.0, np.array([0.1, -0.2, 3.0, 1.0])),
    "outer tau x p": (np.array([[0.0], [1e-3], [0.9], [3.0]]), np.array([0.0, 2e-3, 1.5]), np.array([0.3, 0.2, -1.0])),
}


@pytest.mark.parametrize("case", list(_BROADCASTS))
def test_phase_integrals_equal_reference_on_every_broadcast(case):
    tau, omega_rf, theta0 = _BROADCASTS[case]
    _assert_phase_integrals(_params(omega_rf, theta0), tau)


def test_phase_integrals_match_gauss_legendre_quadrature():
    # an oracle that shares no formula with the closed form: 64-node Gauss-Legendre quadrature of
    # cos(theta) and sin(theta), exact to a few ulps for |u| <= 60.  The difference-of-sines form
    # (sin(theta) - sin(theta0))/omega_rf, with a series below |u| = 1e-2, is off by 1.8e-14*tau here.
    rng, n = np.random.default_rng(2026), 2000
    u = rng.choice((-1.0, 1.0), n) * np.exp(rng.uniform(math.log(1e-9), math.log(60.0), n))
    taus, theta0 = rng.uniform(0.05, 5.0, n), rng.uniform(-PI, PI, n)
    x, w = np.polynomial.legendre.leggauss(64)
    theta = (u / taus)[:, None] * (0.5 * taus[:, None] * (x + 1.0)) + theta0[:, None]
    quad = (0.5 * taus * (np.cos(theta) @ w), 0.5 * taus * (np.sin(theta) @ w))
    for got, want in zip(phase_integrals(_params(u / taus, theta0), taus), quad):
        assert np.max(np.abs(got - want) / taus) <= 4e-15


def _use_references(monkeypatch):
    """Point the boundary layer at the reference forms, for building reference results."""
    monkeypatch.setattr(boundary, "sinc", _sinc_reference)
    monkeypatch.setattr(boundary, "phase_integrals", _phase_integrals_reference)


def _inversions():
    return [invert_to_physical(2.7, k, tau_star, sign * PI)
            for k in (1.0, -1.0) for sign in (1.0, -1.0) for tau_star in (TAU_STAR, 1.3 * TAU_STAR)]


def test_invert_equals_reference_build(monkeypatch):
    # the roots come from sinc alone, which both builds evaluate as sin(z)/z away from z = 0
    got = _inversions()
    _use_references(monkeypatch)
    want = _inversions()
    assert all(got) and len(got) == len(want)
    for solutions, references in zip(got, want):
        assert [(s.params, s.branch) for s in solutions] == [(s.params, s.branch) for s in references]
        for s, ref in zip(solutions, references):
            assert abs(s.residual_b - ref.residual_b) <= 4e-15 and abs(s.residual_d - ref.residual_d) <= 4e-15


@pytest.mark.parametrize("k_sign", [1, -1])
def test_scan_equals_reference_build(monkeypatch, k_sign):
    got = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=20000)
    _use_references(monkeypatch)
    want = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=20000)
    assert np.array_equal(got.omegas, want.omegas) and np.max(np.abs(got.residuals - want.residuals)) <= 4e-15
    assert len(got.consistent) == 2
    assert [(c.omega_hat, c.branch) for c in got.consistent] == [(c.omega_hat, c.branch) for c in want.consistent]
    for c, ref in zip(got.consistent, want.consistent):
        assert abs(c.residual_b - ref.residual_b) <= 4e-15 and abs(c.residual_d - ref.residual_d) <= 4e-15


def test_removable_singularities_raise_no_floating_point_error():
    # a zero and a huge argument, alone and in one array: no division by zero, no overflow
    for z in (0.0, 1e40, np.array([0.0, 1e40])):
        with np.errstate(all="raise"):
            got = sinc(z)
        _assert_same(got, _sinc_reference(z))
    # at tau = 1e45, fl(1.5e45 + 0.3) has dropped theta0, so only the bounds |int| <= tau and 2/|omega_rf| are checked there
    for p, tau in ((_params(0.0, 0.3), 2.0), (_params(3.0, 0.3), 1e45), (_params(3.0, 0.3), np.array([0.0, 1e45]))):
        with np.errstate(all="raise"):
            got = phase_integrals(p, tau)
        for g in got:
            assert type(g) is (np.float64 if np.ndim(tau) == 0 else np.ndarray) and np.shape(g) == np.shape(tau)
            assert np.all(np.isfinite(g)) and np.all(np.abs(g) <= tau) and np.all(np.abs(g) * abs(p.omega_rf) <= 2.0)


# --- boundary residuals -------------------------------------------------------


def test_family_residuals_vanish_on_grid():
    for m0, n0 in LABELS:
        for _, c in both_couplings(m0, n0):
            assert np.max(np.abs(boundary_residuals(c))) <= 1e-10
            assert np.max(np.abs(integer_relations_check(c, m0, n0))) <= 1e-10


def test_perturbed_constants_fail():
    c = analytic_family(0, 0)
    assert np.max(np.abs(boundary_residuals(replace(c, a=c.a + 0.1)))) > 1e-3


def test_trivial_zero_constants_satisfy_system():
    assert np.max(np.abs(boundary_residuals(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0)))) == 0.0


def test_rejected_branch_has_no_solution():
    # the accepted branch pairs the angles as Z_minus = -Z_plus + 2*pi*p (and likewise for W); the discarded relation
    # Z_minus = Z_plus + 2*pi*p, in the residual system with the family constants, leaves no solution
    for m0, n0 in ((0, 0), (0, 1), (1, 1), (2, 3)):
        p = m0 + n0 + 1
        z_p, w_m = 0.5 * PI * (4 * n0 + 3), 0.5 * PI * (4 * m0 + 1)
        z_m, w_p = z_p + 2.0 * PI * p, w_m + 2.0 * PI * p
        angles = ((z_p**2 + z_m**2, z_p**2 - z_m**2, z_p, z_m), (w_p**2 + w_m**2, w_p**2 - w_m**2, w_p, w_m))
        assert np.max(np.abs(_residual_system(analytic_family(m0, n0), angles))) > 1e-3


# --- exponential boundary check -------------------------------------------------


def test_exp_boundary_family_columns():
    col_plus, col_minus = exp_boundary_check(analytic_family(0, 0))
    assert np.max(np.abs(col_plus - [0, 0, 0, 1.0])) < 1e-10 and np.max(np.abs(col_minus - [0, 0, 0, -1.0])) < 1e-10


def test_exp_boundary_zero_constants():
    col_plus, col_minus = exp_boundary_check(BoundaryConstants(0.0, 0.0, 0.0, 0.0, 0.0))
    assert np.allclose(col_plus, [1, 0, 0, 0]) and np.allclose(col_minus, [1, 0, 0, 0])


def test_exp_boundary_unit_columns(rng):
    col_plus, col_minus = exp_boundary_check(BoundaryConstants(*rng.uniform(-3, 3, size=5)))
    assert abs(np.linalg.norm(col_plus) - 1.0) < 1e-12 and abs(np.linalg.norm(col_minus) - 1.0) < 1e-12


def test_exp_boundary_grid():
    for m0, n0 in LABELS:
        for _, c in both_couplings(m0, n0):
            col_plus, col_minus = exp_boundary_check(c)
            assert np.max(np.abs(col_plus - [0, 0, 0, 1.0])) < 1e-10 and np.max(np.abs(col_minus + [0, 0, 0, 1.0])) < 1e-10


def scaled_column_deviations(c):
    """D (col - target): col the entries (1, 3, 2, 4) of the first columns of exp[A_+] and exp[A_-], + then - each,
    target those of +e4 and -e4, D = diag(-2s+, -2s-, 2s+/a, 2s-/a, s+/a, s-/a, s+/a, s-/a), s_pm = sqrt(Delta_pm)."""
    (_, s_p, _, _), (_, s_m, _, _) = derived_quantities(c)
    d = np.array([-2 * s_p, -2 * s_m, 2 * s_p / c.a, 2 * s_m / c.a, s_p / c.a, s_m / c.a, s_p / c.a, s_m / c.a])
    col = np.stack(exp_boundary_check(c), axis=1)[[0, 2, 1, 3]].reshape(8)
    return d, d * (col - np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0]))


def test_boundary_equations_are_scaled_column_deviations():
    """The eight equations are D (col - target) wherever a != 0, not only at the labels, where each term is 0."""
    rng = np.random.default_rng(7)
    near_zero_a = [replace(c, a=a) for c in random_constants(100, seed=8) for a in (1e-3, 1e-6, -1e-9)]
    near_labels = [BoundaryConstants(*(np.array([c.a, c.b, c.c_plus, c.c_minus, c.d]) + rng.uniform(-1e-6, 1e-6, 5)))
                   for t in TRANSFER_COLUMNS for m0, n0 in LABELS for c in [analytic_family(m0, n0, t)] * 10]
    for c in random_constants(2000) + near_zero_a + near_labels:
        d, want = scaled_column_deviations(c)
        assert np.all(np.abs(boundary_residuals(c) - want) <= 1e-14 * np.maximum(1.0, np.abs(d)))


def test_column_scales_are_the_identitys_diagonal():
    for c in random_constants(200):
        assert np.array_equal(column_scales(c), scaled_column_deviations(c)[0])


def test_column_deviations_are_the_equations_over_their_scales():
    """r / D is col - target, the quantity the analytic record reports, at generic constants and at the labels."""
    for c in random_constants(2000) + [analytic_family(m0, n0) for m0 in range(8) for n0 in range(m0, 8)]:
        d, want = scaled_column_deviations(c)
        assert np.all(np.abs(column_deviations(c) - want / d) <= 1e-14 * np.maximum(1.0, 1.0 / np.abs(d)))


# --- analytic family -------------------------------------------------------------


def test_family_minimal_branch():
    c = analytic_family(0, 0)
    assert isinstance(c, BoundaryConstants) and abs(transfer_time(0, 0) - TAU_STAR) < 1e-15
    assert abs(c.a - math.sqrt(3.0) * PI / 2.0) < 1e-15 and abs(c.b + PI) < 1e-15
    assert c.c_plus == c.a and c.c_minus == -c.a and c.d == 0.0


def test_family_next_branch():
    # label (0, 1) is (m, n) = (0, 3): tau* = (pi/4)*sqrt(1*7) and b = -pi*(n - m)
    assert abs(transfer_time(0, 1) - 0.25 * PI * math.sqrt(7.0)) < 1e-15 and abs(analytic_family(0, 1).b + 3.0 * PI) < 1e-15


@pytest.mark.parametrize("target", ["x8", "x6"])
def test_family_constants_on_every_label(target):
    # the one entry point on every label m0 <= n0 <= 7: a/2 is the transfer time bit for bit, x6 is x8
    # with b and d exchanged, and exp[A_pm] moves e1 to +-TRANSFER_COLUMNS[target].  The integer relations
    # are those of the x8 system: the x8 constants satisfy them, and the x6 ones only once b and d are
    # exchanged back (at the x6 constants themselves some relations are off by pi^2 or more)
    column = np.array(TRANSFER_COLUMNS[target])
    for m0, n0 in ((m0, n0) for m0 in range(8) for n0 in range(m0, 8)):
        c, c8 = analytic_family(m0, n0, target), analytic_family(m0, n0)
        assert c.a / 2 == transfer_time(m0, n0) and c == (replace(c8, b=c8.d, d=c8.b) if target == "x6" else c8)
        col_plus, col_minus = exp_boundary_check(c)
        assert max(np.max(np.abs(col_plus - column)), np.max(np.abs(col_minus + column))) < 1e-10, (m0, n0)
        assert np.max(np.abs(integer_relations_check(c8, m0, n0))) <= 1e-10, (m0, n0)
        assert (np.max(np.abs(integer_relations_check(c, m0, n0))) > 1.0) == (target == "x6"), (m0, n0)


def test_family_label_whose_constants_square_past_the_float_range():
    # b = -pi*(2*n0 + 1) is a float at n0 = 10**200, but b*b is not; at 10**150 both are
    c = analytic_family(0, 10**150)
    assert math.isfinite(c.a * c.a + c.b * c.b)
    raises_exactly(analytic_family, (0, 10**200), f"label (m0, n0) = (0, {10**200}) has constants whose squares ...")


def test_family_sign_flip_with_coupling():
    # the closed-form control at either coupling ratio generates the family constants of that k:
    # k = -1 flips the signs of b and c_pm, so the family needs no k label
    omega_hat, branch = consistent_scale(0)
    for k, c in both_couplings(0, 0):
        got = abcd_from_physical(closed_form_params(omega_hat, k_sign=k, **branch), TAU_STAR)
        for name in ("a", "b", "c_plus", "c_minus", "d"):
            assert abs(getattr(got, name) - getattr(c, name)) <= 1e-9, (k, name)


def test_integer_relations_wrong_p():
    # the (0, 0) constants against label (0, 1), that is n = 3 and p = 2 for n = 1 and p = 1; the first relation's
    # residual sqrt(Delta+) - 2 pi^2 p (2n+1-2p) is 2pi^2 - 12pi^2
    res = integer_relations_check(analytic_family(0, 0), 0, 1)
    assert abs(res[0] + 10.0 * PI**2) < 1e-9 and np.max(np.abs(res)) > 1e-3


# --- closed-form controls -------------------------------------------------------------


def test_closed_form_params_example_values():
    p = closed_form_params(ORACLE_OMEGA, k_sign=1, r=0)
    assert abs(p.omega_rf - 4.0 / math.sqrt(3.0)) < 1e-12 and abs(p.b0 - PI / math.sqrt(3.0)) < 1e-12
    assert abs(p.theta0) < 1e-12 and p.bz == 0.0


def test_closed_form_params_energy_consistent(rng):
    for w in rng.uniform(1.5, 4.0, 5):
        p = closed_form_params(float(w), k_sign=int(rng.choice([1, -1])), r=int(rng.integers(0, 3)))
        assert abs(energy_residual(p)) < 1e-12


def test_closed_form_params_branch_endpoint():
    p = closed_form_params(math.sqrt(2.0) + 1e-9)
    assert p.b0 < 1e-4 and p.omega_rf < 1e-4


@pytest.mark.parametrize("k_sign", [1, -1])
def test_closed_form_params_array_labels_equal_scalar_labels_bitwise(k_sign):
    # the scan's r on an axis of its own against the scales on the last, as _SCAN_BRANCHES has it, and the eight labels
    # of labelled, the scan's references, which on LIVE have closed_form_params' bits
    w = np.linspace(1.5, 6.0, 37)
    p = closed_form_params(w, k_sign=k_sign, r=np.array([0, 1])[:, None])
    for r in (0, 1):
        q, live = closed_form_params(w, k_sign=k_sign, r=r), labelled(w, k_sign, **LIVE, r=r)
        assert p.b0.tobytes() == q.b0.tobytes() == live.b0.tobytes()
        assert p.omega_rf.tobytes() == q.omega_rf.tobytes() == live.omega_rf.tobytes()
        assert p.theta0[r].tobytes() == q.theta0.tobytes() == live.theta0.tobytes()


# --- inversion ---------------------------------------------------------------------


def _field(b0, omega_rf, theta0, taus=np.linspace(0.0, 3.0 * TAU_STAR, 61)):
    """Transverse field (b0 cos theta, b0 sin theta) on taus; bz = 0 for every control compared here."""
    th = omega_rf * taus + theta0
    return np.concatenate([b0 * np.cos(th), b0 * np.sin(th)])


def _distinct_and_covering(kept, old, tol):
    """kept fields pairwise distinct, each old field within tol of exactly one of them; return the match counts."""
    kept, old = np.array(kept), np.array(old)
    gaps = np.max(np.abs(kept[:, None] - kept[None, :]), axis=-1)
    assert np.all(gaps[~np.eye(len(kept), dtype=bool)] > 1e-3)
    matches = np.max(np.abs(old[:, None] - kept[None, :]), axis=-1) <= tol
    assert np.all(matches.sum(axis=1) == 1)
    return matches.sum(axis=0)


def _r0_rates():
    """Rates of the inverted controls at the consistent scale on the r = 0 branch."""
    return [s.params.omega_rf for s in invert_to_physical(ORACLE_OMEGA, 1.0, TAU_STAR, -PI) if s.branch["r"] == 0]


def test_invert_finds_reference_rate():
    assert any(abs(rate - 4.0 / math.sqrt(3.0)) < 1e-9 for rate in _r0_rates())


def test_invert_bisection_oracle():
    # independent bisection of 2 b0 tau* sinc(omega tau*/2) = pi on a bracket around the root
    b0 = transverse_amplitude(ORACLE_OMEGA, 1.0)

    def f(om):
        return 2.0 * b0 * TAU_STAR * math.sin(om * TAU_STAR / 2.0) / (om * TAU_STAR / 2.0) - PI

    lo, hi = 2.0, 3.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(lo) * f(mid) <= 0 else (mid, hi)
    assert any(abs(rate - 0.5 * (lo + hi)) < 1e-9 for rate in _r0_rates())


def test_invert_round_trip(rng):
    sols = invert_to_physical(2.7, 1.0, TAU_STAR, -PI)
    assert sols
    for s in sols:
        c = abcd_from_physical(s.params, TAU_STAR)
        assert abs(c.a - 2.0 * TAU_STAR) < 1e-12 and abs(c.c_plus - c.a) < 1e-12
        assert abs(c.b + PI) < 1e-9 and abs(c.d) < 1e-9 and abs(energy_residual(s.params)) < 1e-12


@pytest.mark.parametrize("omega_hat, b_target", [(2.7, -PI), (4.0, 3.0 * PI), (6.0, -PI)])
def test_invert_solutions_are_distinct_controls(omega_hat, b_target):
    sols = invert_to_physical(omega_hat, 1.0, TAU_STAR, b_target)
    kept = [_field(s.params.b0, s.params.omega_rf, s.params.theta0) for s in sols]
    # the labels b0_sign x r in {0, 1, 2}: theta0 + pi flips the sign of b0, theta0 + 2*pi repeats r
    amp, grid, old = math.sqrt(omega_hat**2 - 2.0), np.linspace(1e-3, 20.0, 10_000), []
    for b0, r in itertools.product((amp, -amp), (0, 1, 2)):
        def f(om):
            z = om * TAU_STAR / 2.0
            return 2.0 * b0 * TAU_STAR * (-1.0) ** r * np.sin(z) / z + b_target

        vals = f(grid)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
            om = brentq(f, grid[i], grid[i + 1], xtol=1e-14)
            old.append(_field(b0, om, 0.5 * ((2 * r + 1) * PI - om * TAU_STAR)))
    assert sols and len(old) == 3 * len(sols)
    # both brentq calls stop within about 1e-14 of the root in omega_rf
    assert np.all(_distinct_and_covering(kept, old, 1e-12) == 3)


@pytest.mark.parametrize("omega_hat, count", [(2.7, 1), (17.0, 9), (20.0, 11), (40.0, 21)])
def test_invert_lists_every_root_below_the_envelope(omega_hat, count):
    # |sinc x| <= 1/x puts every root at omega_rf <= 4*b0/|b_target|; a fixed bracket end of 20 lost those above it
    b0 = transverse_amplitude(omega_hat, 1.0)
    sols = invert_to_physical(omega_hat, 1.0, TAU_STAR, -PI)
    assert len(sols) == count
    assert all(s.params.omega_rf <= 4.0 * b0 / PI and s.residual_b <= 1e-10 and s.residual_d <= 1e-10 for s in sols)
    # a dense reference bracket twice as long: each r's roots lie one in each of its sign-change cells
    grid = np.linspace(1e-6, 8.0 * b0 / PI, 400_001)
    z = grid * TAU_STAR / 2.0
    for r in (0, 1):
        vals = 2.0 * b0 * TAU_STAR * (-1.0) ** r * np.sin(z) / z - PI
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        roots = [s.params.omega_rf for s in sols if s.branch["r"] == r]
        assert len(roots) == len(cells) and all(grid[i] <= om <= grid[i + 1] for i, om in zip(cells, roots))


def test_invert_empty_when_unreachable():
    # just above the energy floor the drive is too weak to produce |b| = pi
    assert invert_to_physical(math.sqrt(2.0) + 1e-6, 1.0, TAU_STAR, -PI) == []


def test_invert_empty_when_every_bracketed_root_fails_the_residual_gate(monkeypatch):
    # at tau_star = 1e300 the grid brackets 1,411 sign changes of the rounded sinc and brentq solves each, but
    # omega_rf*tau_star carries rounding of order tau_star*eps, so no root meets b and d to 1e-10: empty, not unbracketed
    solved = []
    monkeypatch.setattr("scipy.optimize.brentq", lambda *args, **kwargs: solved.append(args) or brentq(*args, **kwargs))
    assert invert_to_physical(2.7, 1.0, 1e300, -PI) == [] and len(solved) == 1411


# --- consistency scan -----------------------------------------------------------------


def test_scan_finds_consistent_point():
    scan = consistency_scan(2.0, 4.0, samples=4001)
    assert len(scan.omegas) == 4001 and scan.omegas[0] > 2.0 and abs(scan.omegas[-1] - 4.0) < 1e-12
    best = scan.consistent[0]
    assert best.omega_hat == math.sqrt(2.0 + PI**2 / 3.0) and abs(best.omega_hat - ORACLE_OMEGA) < 1e-12
    assert best.residual_b <= 1e-9 and best.residual_d <= 1e-9
    # the consistent scales are omega_hat_j = sqrt(2 + (2j+1)^2 pi^2/3) for either k,
    # as derived in the docstring of consistent_scale
    expected = [math.sqrt(2.0 + (2 * j + 1) ** 2 * PI**2 / 3.0) for j in (0, 1)]
    for k_sign in (1, -1):
        assert [cp.omega_hat for cp in consistency_scan(2.0, 6.0, k_sign=k_sign, samples=4001).consistent] == expected


@pytest.mark.parametrize("k_sign", [1, -1])
def test_scan_consistent_scales_are_closed_form_whatever_samples(k_sign):
    expected = [(math.sqrt(2.0 + (2 * j + 1) ** 2 * PI**2 / 3.0), {"r": j % 2}) for j in range(3)]
    for samples in (1, 11, 2000, 20000):
        scan = consistency_scan(2.0, 12.0, k_sign=k_sign, samples=samples)
        assert [(cp.omega_hat, cp.branch) for cp in scan.consistent] == expected
        assert all(max(cp.residual_b, cp.residual_d) <= 1e-9 for cp in scan.consistent)


def test_scan_range_ends_bound_the_consistent_scales():
    w0, w1 = (consistent_scale(j)[0] for j in (0, 1))
    # (lo, hi]: a scale at hi is in, a scale at lo is out
    assert [cp.omega_hat for cp in consistency_scan(2.0, w0, samples=5).consistent] == [w0]
    assert [cp.omega_hat for cp in consistency_scan(w0, w1, samples=5).consistent] == [w1]
    assert consistency_scan(w0, np.nextafter(w1, 0.0), samples=5).consistent == []


def test_consistent_scale_takes_arrays_and_rejects_negative_j():
    omegas, branch = consistent_scale(np.arange(3))
    assert list(omegas) == [consistent_scale(j)[0] for j in range(3)]
    assert list(branch["r"]) == [0, 1, 0] and consistent_scale(1)[1] == {"r": 1}
    raises_exactly(consistent_scale, (-1,), "j must be >= 0")


# generic scales: where sqrt(3)*sqrt(omega_hat^2-2) is an odd multiple of pi, at the consistent
# scales among others, the two theta_sign branches meet (theta0 differs there by pi, made up by r)
@pytest.mark.parametrize("k_sign", [1, -1])
@pytest.mark.parametrize("omega_hat", [1.6, 2.7, 4.5])
def test_scan_branches_are_distinct_controls(k_sign, omega_hat):
    # the scan evaluates two of the eight labels, consistent_scale's branches (test_batched.py holds its curve equal to
    # the best over all eight)
    assert all({**LIVE, **consistent_scale(j)[1]} in SCAN_LABELS for j in (0, 1))
    kept = [_field(p.b0, p.omega_rf, p.theta0) for p in (labelled(omega_hat, k_sign, **branch) for branch in SCAN_LABELS)]
    # the closed form with a free sign of b0 and r in {0, 1, 2}: 24 labels, three per control
    root = math.sqrt(omega_hat**2 - 2.0)
    old = [_field(b0_sign * k_sign * root, omega_sign * (4.0 / PI) * root,
                  0.5 * ((2 * r + 1) * PI + theta_sign * math.sqrt(3.0) * root))
           for b0_sign, omega_sign, theta_sign, r in itertools.product((1, -1), (1, -1), (1, -1), (0, 1, 2))]
    assert np.all(_distinct_and_covering(kept, old, 1e-12) == 3)


def test_scan_empty_below_working_range():
    assert consistency_scan(math.sqrt(2.0), 1.5, samples=101).consistent == []


def test_scan_residual_recorded_at_three():
    scan = consistency_scan(2.9, 3.1, samples=21)
    residual = scan.residuals[int(np.argmin(np.abs(scan.omegas - 3.0)))]
    assert np.isfinite(residual) and residual > 1e-9  # 3.0 is not a consistent scale


def scan_by_branch(omega_lo, omega_hi, k_sign, samples):
    """(residuals, consistent) of the scan before its window pass: one branch over every sample at a time."""
    tau_star, b_target = transfer_time(0, 0), -PI * k_sign

    def branch_residuals(w, branch):
        c = abcd_from_physical(labelled(w, k_sign, **{**LIVE, **branch}), tau_star)
        return np.abs(c.b - b_target), np.abs(c.d)

    omegas = omega_lo + (omega_hi - omega_lo) * np.arange(1, samples + 1) / samples
    residuals = np.full(samples, math.inf)
    for branch in SCAN_LABELS:
        residuals = np.fmin(residuals, np.maximum(*branch_residuals(omegas, branch)))
    top = (math.sqrt(3.0 * (omega_hi * omega_hi - 2.0)) / PI + 1.0) / 2.0
    scales, branch = consistent_scale(np.arange(math.floor(top) + 1))
    res_b, res_d = branch_residuals(scales, branch)
    kept = (omega_lo < scales) & (scales <= omega_hi) & (np.maximum(res_b, res_d) <= 1e-9)
    consistent = [(float(scales[i]), float(res_b[i]), float(res_d[i]), {"r": int(branch["r"][i])}) for i in np.flatnonzero(kept)]
    return residuals, consistent


# windows of dynamics.WINDOW_ROWS = 6,144 samples: one partial (up to 6,143), one whole, one whole and one sample, and
# more; 2,047 to 2,049 were the edges of an earlier budget of 2,048
@pytest.mark.parametrize("k_sign", [1, -1])
@pytest.mark.parametrize("samples", [1, 2047, 2048, 2049, 4001, 6143, 6144, 6145, 20000])
def test_scan_windows_equal_the_per_branch_loop_bitwise(k_sign, samples):
    scan = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=samples)
    residuals, consistent = scan_by_branch(1.5, 6.0, k_sign, samples)
    assert scan.residuals.tobytes() == residuals.tobytes() and len(consistent) == 2
    assert [(c.omega_hat, c.residual_b, c.residual_d, c.branch) for c in scan.consistent] == consistent


@pytest.mark.parametrize("k_sign", [1, -1])
def test_dropped_scan_branches_never_undercut_the_live_pair(k_sign):
    # with x = sqrt(3)*R/2, theta_sign = -omega_sign is pi*(1 - |sin x|) off on its best r and theta_sign = omega_sign
    # at least pi*(1 - |cos(2x)*sin(x)|), no less: the six labels the scan drops may tie with its two, not undercut them
    w = np.random.default_rng(39).uniform(math.sqrt(2.0), 40.0, 2000)
    residuals = []
    for branch in SCAN_LABELS:
        c = abcd_from_physical(labelled(w, k_sign, **branch), transfer_time(0, 0))
        residuals.append(np.maximum(np.abs(c.b + PI * k_sign), np.abs(c.d)))
    live = np.minimum(*(residuals[SCAN_LABELS.index({**LIVE, **consistent_scale(j)[1]})] for j in (0, 1)))
    for branch, residual in zip(SCAN_LABELS, residuals):
        assert np.all(residual >= live - 4.0 * np.spacing(PI)), branch


# the bounds tie at x = (2j+1)*pi/2: within about 5e-8 of omega_hat_j a dropped label may read a few ulp of pi lower,
# the curve's own rounding there (seen: 7e-16 and 2.8e-15 at 48 and 50 of these 200,001 samples 1e-10 apart)
@pytest.mark.parametrize("k_sign", [1, -1])
@pytest.mark.parametrize("j", [0, 1])
def test_scan_near_a_consistent_scale_matches_the_eight_branches(j, k_sign):
    w = float(consistent_scale(j)[0])
    scan = consistency_scan(w - 1e-5, w + 1e-5, k_sign=k_sign, samples=200_001)
    assert np.max(np.abs(scan.residuals - scan_by_branch(w - 1e-5, w + 1e-5, k_sign, 200_001)[0])) <= 5e-15


def test_scan_phase_residuals_are_rounding_at_every_scale():
    # the 10,000 scales up to omega_hat_9999 all pass the 1e-12 phase gate, each within 3 ulp of (2j+1)*pi/2
    scan = consistency_scan(1.5, float(consistent_scale(9999)[0]), samples=1)
    phase = (2 * np.arange(10_000) + 1) * PI / 2.0
    assert len(scan.consistent) == 10_000
    assert np.all(np.array([cp.residual_phase for cp in scan.consistent]) <= 3.0 * np.spacing(phase))


def test_phase_gate_refuses_a_shifted_scale(plant):
    # a radicand 1e-6 too large moves omega_hat_j by about 2e-7: the b residual, quadratic in that, reads 9e-14 and
    # passes its 1e-9 gate; the phase residual, linear in it, reads 2.4e-7 and 8.0e-8
    plant(TABLE["scale_radicand"])
    scales, branch = boundary.consistent_scale(np.arange(2))
    c = abcd_from_physical(closed_form_params(scales, **branch), TAU_STAR)
    assert np.all(np.maximum(np.abs(c.b + PI), np.abs(c.d)) <= 1e-9)
    phase = math.sqrt(3.0) * np.sqrt(np.square(scales) - 2.0) / 2.0 - np.array([1.0, 3.0]) * PI / 2.0
    assert np.all(np.abs(phase) >= 1e-8) and consistency_scan(1.5, 6.0, samples=11).consistent == []


# --- sweep and targets -----------------------------------------------------------------


def test_sweep_table():
    rows = sweep_tau(3)
    # only the branch labels analytic_family accepts, n0 >= m0, with (0, 0) first
    assert sorted((r["m0"], r["n0"]) for r in rows) == LABELS and (rows[0]["m0"], rows[0]["n0"]) == (0, 0)
    assert all(r["tau_star"] == analytic_family(r["m0"], r["n0"]).a / 2 for r in rows)
    by_key = {(r["m0"], r["n0"]): r["tau_star"] for r in rows}
    assert abs(by_key[(0, 0)] - TAU_STAR) < 1e-15 and abs(by_key[(0, 1)] - 0.25 * PI * math.sqrt(7.0)) < 1e-15
    # ascending in tau_star: from a bound of 5 the label order is not, as (1, 5) takes longer than (2, 2)
    taus = [r["tau_star"] for r in sweep_tau(5)]
    assert len(taus) == 21 and taus == sorted(taus) and taus != [transfer_time(m0, n0) for m0 in range(6) for n0 in range(m0, 6)]
    raises_exactly(sweep_tau, (-1,), "the sweep bound must be nonnegative")
    raises_exactly(sweep_tau, (boundary.MAX_LABEL + 1,), "the sweep bound must be at most 1000, got 1001")


def test_target_vectors():
    # every table entry is the first column of exp[A_plus] at its family
    # constants, and exp[A_minus] gives its negative, on several branches and both k
    assert list(TRANSFER_COLUMNS) == ["x8", "x6"]
    for target, column in TRANSFER_COLUMNS.items():
        for m0, n0 in ((0, 0), (0, 2), (1, 1), (2, 3)):
            c8 = analytic_family(m0, n0)
            assert analytic_family(m0, n0, target) == (replace(c8, b=c8.d, d=c8.b) if target == "x6" else c8)
            for k, c in both_couplings(m0, n0):
                col_plus, col_minus = exp_boundary_check(replace(c, b=c.d, d=c.b) if target == "x6" else c)
                assert max(np.max(np.abs(col_plus - column)), np.max(np.abs(col_minus + column))) < 1e-10, (target, m0, n0, k)
    with pytest.raises(TypeError):
        TRANSFER_COLUMNS["x7"] = (0.0, 0.0, 1.0, 0.0)


def test_x6_family_constants():
    c6 = analytic_family(0, 0, "x6")
    assert c6.b == 0.0 and abs(c6.d + PI) < 1e-15 and abs(c6.a / 2 - TAU_STAR) < 1e-15


def test_x6_exp_columns_along_target_axis():
    # the exchanged-constants generator transfers e1 onto the -e2 / +e2 pair
    c6 = analytic_family(0, 0, "x6")
    col_plus, col_minus = exp_boundary_check(c6)
    assert np.max(np.abs(col_plus - [0, -1.0, 0, 0])) < 1e-10 and np.max(np.abs(col_minus + [0, -1.0, 0, 0])) < 1e-10
    # swapping b and d back recovers the original family residuals
    assert np.max(np.abs(boundary_residuals(replace(c6, b=c6.d, d=c6.b)))) <= 1e-10


# --- refusals ---------------------------------------------------------------------------------------------------------

BUDGET = "put the root bracket end 4*b0/|b_target| at {}, over 1000000 steps: it must be at most 1953.12"
FAMILIES = "expected one of x8, x6"

# Every refusal of the boundary layer, each under the name of the test it was: (call, arguments, the ValueError's
# message), a list of them checked in turn, or {case id: row}
REFUSALS = {
    # (4*m0 + 1)*(4*n0 + 3) is an int too large for a float: the label has no transfer time to report
    "test_family_label_without_a_finite_time": (
        analytic_family, (0, 10**400), f"label (m0, n0) = (0, {10**400}) has no finite transfer time"),
    "test_family_rejects_bad_ordering": [
        (analytic_family, (1, 0), "index ordering violated: need n0 >= m0 >= 0, got m0=1, n0=0"),
        (analytic_family, (-1, 0), "index ordering violated: need n0 >= m0 >= 0, got m0=-1, n0=0")],
    # x7 has no family, and the third argument is the target, not a coupling ratio
    "test_x7_has_no_family": [
        (analytic_family, (0, 0, "x7"), f"no solution family exists for target 'x7'; {FAMILIES}"),
        (analytic_family, (0, 0, -1), f"no solution family exists for target -1; {FAMILIES}"),
        (analytic_family, (0, 0, "x5x"), f"no solution family exists for target 'x5x'; {FAMILIES}")],
    "test_closed_form_params_rejects_low_energy": (closed_form_params, (1.2,), "omega_hat^2 must exceed 2, got 1.44"),
    # k_sign labels one family per call, so an array is refused even where each label is +-1
    "test_closed_form_params_rejects_a_label_array_off_plus_minus_one": {
        f"labels{i}": (closed_form_params, (2.7, np.array(labels)), "k_sign must be one label, +1 or -1")
        for i, labels in enumerate(([1, 0], [[-1], [2]], [1, -1]))},
    "test_invert_rejects_zero_target": (
        invert_to_physical, (2.5, 1.0, TAU_STAR, 0.0), "b_target must be nonzero (the d = 0 branch requires b != 0)"),
    "test_invert_rejects_nonpositive_tau_star": {
        str(tau): (invert_to_physical, (2.5, 1.0, tau, -PI), f"tau_star must be positive, got {tau:g}") for tau in (0.0, -1.0)},
    # below |b_target| ~ 0.002*b0 the bracket (0, 4*b0/|b_target|] needs more than MAX_ROOT_STEPS grid steps
    "test_invert_rejects_a_bracket_too_long_to_grid": (
        invert_to_physical, (3.0, 1.0, TAU_STAR, -1e-3), "omega_hat=3 and b_target=-0.001 " + BUDGET.format(10583)),
    "test_scan_rejects_a_range_with_too_many_scales": (
        consistency_scan, (2.0, 1e300, 1, 5), "scan range (2, 1e+300] ends above more than 10000 consistent scales"),
    "test_scan_rejects_empty_reversed_or_non_finite_range": {
        f"{lo}-{hi}": (consistency_scan, (lo, hi, 1, 11), f"scan range ({lo:g}, {hi:g}] must be finite with omega_lo < omega_hi")
        for lo, hi in ((3.0, 2.0), (2.0, 1.0), (2.0, 2.0), (2.0, math.inf), (math.nan, 4.0))},
}


def _test_of(rows):
    """The test of a REFUSALS entry: a row, a list of rows checked in turn, or {case id: row} as its cases."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", rows.values(), ids=rows)
        def test(row):
            raises_exactly(*row)
    else:
        def test():
            for row in rows if isinstance(rows, list) else [rows]:
                raises_exactly(*row)
    return test


globals().update({name: _test_of(rows) for name, rows in REFUSALS.items()})
