import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from trispin import algebra
from trispin.algebra import ControlParams, transverse_amplitude
from trispin.dynamics import (
    CSV_HEADER,
    J,
    MB,
    MC,
    MS,
    MZ,
    build_M,
    build_M_half,
    exact_state_trajectory,
    expm_skew,
    integral_generator,
    join_halves,
    phase_integrals,
    propagate_expm_integral,
    propagate_rk4,
    propagate_rotating_exact,
    propagator_discrepancy,
    rotating_generator,
    split_halves,
    _time_grid,
)
from trispin.hilbert import full_hilbert_trajectory

TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi

E1 = np.array([1.0, 0.0, 0.0, 0.0])
# both halves of x = e1, and the two 4x4 identities: the (2, 4) and (2, 4, 4) initial states
Y1 = np.stack([E1, E1])
EYE2 = np.stack([np.eye(4), np.eye(4)])


def _params(k=1.0, omega_hat=2.5, b0=None, bz=0.3, omega_rf=1.7, theta0=0.6):
    if b0 is None:
        b0 = transverse_amplitude(omega_hat, k, bz)
    return ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=theta0)


def _random_params(rng):
    k = float(rng.choice([1.0, -1.0]))
    omega_hat = float(rng.uniform(1.7, 3.0))
    bz = float(rng.uniform(-0.8, 0.8)) * math.sqrt(omega_hat**2 - 2.0)
    return ControlParams(
        k=k,
        omega_hat=omega_hat,
        b0=transverse_amplitude(omega_hat, k, bz),
        bz=bz,
        omega_rf=float(rng.uniform(-4.0, 4.0)),
        theta0=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


# --- generators ---------------------------------------------------------


def _blocks(p, tau):
    """(P, Q) read off the full generator M = 2[[P, Q], [Q, P]]."""
    m = build_M(p, tau)
    return m[:4, :4] / 2.0, m[:4, 4:] / 2.0


def test_P_zero_field_entries():
    p = _params(b0=0.0, bz=0.0)
    mat = _blocks(p, 1.3)[0]
    expected = np.zeros((4, 4))
    expected[0, 2] = -1.0
    expected[2, 0] = 1.0
    assert np.max(np.abs(mat - expected)) == 0.0


def test_P_entries_at_quarter_phase():
    # theta = pi/2: P23 = b0, P34 = 0
    p = _params(b0=1.0, bz=0.0, omega_rf=1.0, theta0=0.0)
    mat = _blocks(p, math.pi / 2.0)[0]
    assert abs(mat[1, 2] - 1.0) < 1e-14
    assert abs(mat[2, 3]) < 1e-14


def test_P_skew(rng):
    for _ in range(5):
        p = _random_params(rng)
        mat = _blocks(p, float(rng.uniform(0, 5)))[0]
        assert np.max(np.abs(mat + mat.T)) <= 1e-14


def test_Q_entries():
    q = _blocks(_params(k=1.0, bz=0.0), 0.4)[1]
    assert q[1, 3] == -1.0 and q[3, 1] == 1.0
    assert np.max(np.abs(_blocks(_params(k=0.0, bz=0.0), 0.4)[1])) == 0.0
    assert np.allclose(_blocks(_params(k=-1.0, bz=0.0), 0.4)[1], -q)


def test_M_blocks_and_skew(rng):
    p = _random_params(rng)
    tau = 0.8
    m = build_M(p, tau)
    assert np.array_equal(m[:4, :4], m[4:, 4:]) and np.array_equal(m[:4, 4:], m[4:, :4])
    # the halves y_pm = x_plus +- x_minus evolve under M_pm = 2(P +- Q)
    m_plus, m_minus = build_M_half(p, tau)
    assert np.allclose(m[:4, :4] + m[:4, 4:], m_plus)
    assert np.allclose(m[:4, :4] - m[:4, 4:], m_minus)
    assert np.max(np.abs(m + m.T)) <= 1e-14


def test_M_first_row_free_precession():
    # hand-evaluated commutator: with k=0 and no field, dx1/dtau = -2 x3
    p = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)
    m = build_M(p, 0.0)
    row = np.zeros(8)
    row[2] = -2.0
    assert np.allclose(m[0], row)


# --- halves --------------------------------------------------------------


def test_split_halves_initial_state():
    x = np.eye(8)[0]
    y_plus, y_minus = split_halves(x)
    assert np.allclose(y_plus, E1)
    assert np.allclose(y_minus, E1)


def test_split_halves_target_state():
    x = np.eye(8)[7]
    y_plus, y_minus = split_halves(x)
    assert np.allclose(y_plus, [0, 0, 0, 1])
    assert np.allclose(y_minus, [0, 0, 0, -1])


def test_join_inverts_split(rng):
    # any leading axes: (..., 8) <-> (..., 2, 4), + first
    for shape in ((), (3,), (2, 5)):
        x = rng.standard_normal(shape + (8,))
        y = split_halves(x)
        assert y.shape == shape + (2, 4)
        assert np.array_equal(y[..., 0, :], x[..., :4] + x[..., 4:])
        assert np.max(np.abs(join_halves(y) - x)) <= 1e-14
        assert np.max(np.abs(split_halves(join_halves(y)) - y)) <= 1e-14
    x = rng.standard_normal(8)
    # norm bookkeeping: |y+|^2 + |y-|^2 = 2 |x|^2
    y_plus, y_minus = split_halves(x)
    assert abs(np.dot(y_plus, y_plus) + np.dot(y_minus, y_minus) - 2 * np.dot(x, x)) < 1e-12


@pytest.mark.parametrize("tau", [0.7, np.array([0.0, 0.4, 1.3])], ids=["scalar", "array"])
def test_halves_axis_is_plus_first(tau):
    # index 0 of the halves axis is M_+ = MB + (bz + k)*MZ + drive, index 1 is M_-
    p = _params(k=1.0, bz=0.3)
    th = p.theta(np.asarray(tau))[..., None, None]
    drive = p.b0 * (np.cos(th) * MC + np.sin(th) * MS)
    m = build_M_half(p, tau)
    assert m.shape == np.shape(tau) + (2, 4, 4)
    assert np.array_equal(m[..., 0, :, :], MB + (p.bz + p.k) * MZ + drive)
    assert np.array_equal(m[..., 1, :, :], MB + (p.bz - p.k) * MZ + drive)


@pytest.mark.parametrize("m", [1, 4])
def test_propagators_carry_the_halves_axis(rng, m):
    # static drive: each half is exp(tau*M_pm) of its own initial state, + first
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=0.4, omega_rf=1.3, theta0=0.2)
    taus = np.linspace(0.0, 2.0, 5)
    y0 = rng.standard_normal((2, 4, m))
    for propagate in (propagate_expm_integral, propagate_rotating_exact):
        y = propagate(p, y0, taus)
        assert y.shape == (len(taus), 2, 4, m)
        for n, tau in enumerate(taus):
            for half, weight in enumerate((p.bz + p.k, p.bz - p.k)):
                assert np.max(np.abs(y[n, half] - expm(tau * (MB + weight * MZ)) @ y0[half])) < 1e-12


# --- RK4 -----------------------------------------------------------------


def test_rk4_closed_form_rotation():
    # with no field and k=0 the (x1, x3) pair rotates: x1 = cos 2tau, x3 = sin 2tau
    p = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)
    traj = propagate_rk4(p, np.eye(8)[0], 3.0, 1e-3)
    assert np.max(np.abs(traj.states[:, 0] - np.cos(2 * traj.taus))) < 1e-8
    assert np.max(np.abs(traj.states[:, 2] - np.sin(2 * traj.taus))) < 1e-8


def test_rk4_zero_state_stays_zero(rng):
    p = _random_params(rng)
    traj = propagate_rk4(p, np.zeros(8), 1.0, 1e-2)
    assert np.max(np.abs(traj.states)) == 0.0


def test_rk4_norm_conservation(rng):
    p = _random_params(rng)
    traj = propagate_rk4(p, np.eye(8)[0], 5.0, 1e-3)
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-9


def test_rk4_step_longer_than_the_run():
    # the grid is (0, 1), one step of length 1, so the unused powers of the 1e3 step must not be formed (they overflow)
    p = _params()
    long_step = propagate_rk4(p, np.eye(8)[0], 1.0, 1e3)
    one_step = propagate_rk4(p, np.eye(8)[0], 1.0, 1.0)
    assert np.array_equal(long_step.taus, one_step.taus) and np.array_equal(long_step.states, one_step.states)


def test_rk4_rejects_bad_step():
    p = _params()
    with pytest.raises(ValueError):
        propagate_rk4(p, np.eye(8)[0], 1.0, 0.0)


@pytest.mark.parametrize(
    "tau_end, dtau", [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)]
)
def test_time_grid_rejects_bad_step(tau_end, dtau):
    # the one grid every propagator steps on is also the one place the step is checked
    with pytest.raises(ValueError, match="must be finite"):
        _time_grid(tau_end, dtau)


def test_rk4_grid_endpoints():
    p = _params()
    traj = propagate_rk4(p, np.eye(8)[0], 0.95, 1e-1)
    assert traj.taus[0] == 0.0
    assert abs(traj.taus[-1] - 0.95) < 1e-15
    assert np.all(np.diff(traj.taus) > 0)


def test_rk4_one_point_states_are_a_new_writable_array():
    # a one-point grid's only row is the start state: the trajectory holds a copy of the read-only e1, not a view
    start = algebra.E1
    traj = propagate_rk4(_params(), start, 0.0, 1e-3)
    assert traj.states.flags.writeable and not np.shares_memory(traj.states, start)
    assert np.array_equal(traj.states, start[None])


def test_rk4_first_row_is_one_product_on_every_grid():
    # the first row comes from the frame turn's product on every grid, a one-point grid's too: each bit, the sign of
    # a zero included (a -0.0 entry of x0 reads +0.0 as on longer grids), is the same whatever the grid's length
    x0 = np.array([-0.0, 0.3, -0.0, 0.4, 0.5, -0.0, 0.1, -0.2])
    firsts = [propagate_rk4(_params(), x0, tau_end, 1e-3).states[0] for tau_end in (0.0, 1e-3, 2e-3, 0.5)]
    assert all(np.array_equal(row, x0) and np.array_equal(np.signbit(row), np.signbit(firsts[0])) for row in firsts)
    assert not np.any(np.signbit(firsts[0][[0, 2, 5]]))


# --- integrated generator -------------------------------------------------


def _simpson_generator(p, tau, n=2000):
    # independent oracle: composite Simpson quadrature of M_pm entry by entry, both halves
    s = np.linspace(0.0, tau, n + 1)
    mats = np.stack([build_M_half(p, float(si)) for si in s])
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.tensordot(w, mats, axes=1) * (tau / n) / 3.0


def test_integral_generator_matches_simpson(rng):
    for _ in range(3):
        p = _random_params(rng)
        tau = float(rng.uniform(0.5, 2.5))
        assert np.max(np.abs(integral_generator(p, tau) - _simpson_generator(p, tau))) < 1e-10


def test_integral_generator_zero_time(rng):
    p = _random_params(rng)
    assert np.max(np.abs(integral_generator(p, 0.0))) == 0.0


@pytest.mark.parametrize("omega_rf", [0.0, 4e-7, 1e-3, 0.1, 1.0])
def test_integral_generator_small_rates(omega_rf):
    # the product form needs no branch at small or zero rates: it tracks the quadrature oracle throughout
    base = dict(k=1.0, omega_hat=2.5, b0=1.2, bz=0.1, theta0=0.7)
    tau = 1.7
    p = ControlParams(omega_rf=omega_rf, **base)
    assert np.max(np.abs(integral_generator(p, tau) - _simpson_generator(p, tau))) < 1e-12


def test_phase_integrals_zero_rate():
    p = ControlParams(k=1.0, omega_hat=2.0, b0=1.0, bz=0.0, omega_rf=0.0, theta0=0.3)
    int_cos, int_sin = phase_integrals(p, 2.0)
    assert abs(int_cos - 2.0 * math.cos(0.3)) < 1e-14
    assert abs(int_sin - 2.0 * math.sin(0.3)) < 1e-14


def test_phase_integrals_huge_phase():
    # omega_rf*tau = 3e45 raises no floating-point error and gives finite integrals within the bound
    # 2/omega_rf of any integral of cos or sin(omega_rf*s + theta0); theta0 is below an ulp of the
    # phase there (fl(1.5e45 + 0.3) = 1.5e45), so their values carry no digits to compare
    p = ControlParams(k=1.0, omega_hat=2.0, b0=1.0, bz=0.0, omega_rf=3.0, theta0=0.3)
    with np.errstate(all="raise"):
        integrals = phase_integrals(p, 1e45)
    for v in integrals:
        assert math.isfinite(v) and abs(v) <= 0.67


# --- matrix exponential ----------------------------------------------------


def test_expm_zero():
    assert np.allclose(expm_skew(np.zeros((4, 4))), np.eye(4))


def test_expm_planar_rotation():
    gen = np.zeros((4, 4))
    gen[0, 1] = -math.pi
    gen[1, 0] = math.pi
    r = expm_skew(gen)
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = -1.0
    assert np.max(np.abs(r - expected)) < 1e-12


def test_expm_group_inverse(rng):
    a = rng.standard_normal((4, 4))
    a = a - a.T
    assert np.max(np.abs(expm_skew(a) @ expm_skew(-a) - np.eye(4))) < 1e-12


def test_expm_orthogonal(rng):
    a = rng.standard_normal((4, 4))
    a = 3.0 * (a - a.T)
    u = expm_skew(a)
    assert np.max(np.abs(u.T @ u - np.eye(4))) < 1e-12


# --- propagators -----------------------------------------------------------


def test_expm_integral_identity_at_zero(rng):
    p = _random_params(rng)
    y = propagate_expm_integral(p, Y1, 0.0)
    assert np.allclose(y, Y1)


def test_expm_integral_matches_rk4_for_static_drive():
    # b0 = 0 makes the generator constant, where the integrated exponential is exact
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.0, theta0=0.0)
    traj = propagate_rk4(p, np.eye(8)[0], 2.0, 1e-4)
    y = propagate_expm_integral(p, Y1, 2.0)
    assert np.max(np.abs(join_halves(y) - traj.states[-1])) < 1e-8


def test_expm_integral_preserves_norm(rng):
    p = _random_params(rng)
    y = propagate_expm_integral(p, Y1, 1.9)
    assert np.max(np.abs(np.linalg.norm(y, axis=-1) - 1.0)) < 1e-12


def test_expm_integral_over_taus_matches_per_tau(rng):
    p = _random_params(rng)
    taus = np.array([[0.0, 0.3], [1.1, 2.5]])
    for y0 in (Y1, EYE2):
        ys = propagate_expm_integral(p, y0, taus)
        assert ys.shape == taus.shape + np.shape(y0)
        for idx in np.ndindex(taus.shape):
            single = propagate_expm_integral(p, y0, float(taus[idx]))
            assert single.shape == np.shape(y0)
            assert np.array_equal(ys[idx], single)


def test_rotating_exact_frozen_frame():
    p = _params(omega_rf=0.0)
    y = propagate_rotating_exact(p, Y1, 2.1)
    for half, gen in enumerate(build_M_half(p, 0.0)):
        assert np.max(np.abs(y[half] - expm(2.1 * gen) @ E1)) < 1e-12


def test_rotating_exact_matches_rk4(rng):
    p = _random_params(rng)
    tau_end = 3.0
    traj = propagate_rk4(p, np.eye(8)[0], tau_end, 1e-4)
    y = propagate_rotating_exact(p, Y1, tau_end)
    assert np.max(np.abs(join_halves(y) - traj.states[-1])) < 1e-8


def test_rotating_exact_preserves_norm(rng):
    p = _random_params(rng)
    y = propagate_rotating_exact(p, Y1, 2.7)
    assert np.max(np.abs(np.linalg.norm(y, axis=-1) - 1.0)) < 1e-12
    # y0 = eye(4) per half gives the propagators: column j is the call from e_j, and each is orthogonal
    taus = np.array([[0.0, 0.3], [1.1, 2.7]])
    u = propagate_rotating_exact(p, EYE2, taus)
    assert u.shape == taus.shape + (2, 4, 4)
    columns = np.stack([propagate_rotating_exact(p, np.stack([e, e]), taus) for e in np.eye(4)], axis=-1)
    assert np.max(np.abs(u - columns)) <= 1e-15
    assert np.max(np.abs(u.swapaxes(-1, -2) @ u - np.eye(4))) < 1e-12


# c_pm = 2*(bz +- k) - omega_rf sets the (2,4)-plane rate of each co-rotating generator
DEGENERATE = {
    "w1_equals_w2": ControlParams(k=1.0, omega_hat=math.sqrt(3.0), b0=0.0, bz=1.0, omega_rf=2.0, theta0=0.0),
    "zero_rates_plus": _params(bz=1.0, omega_rf=4.0),
    "zero_rates_minus": _params(k=-1.0, bz=1.0, omega_rf=4.0),
}


def test_degenerate_examples_have_degenerate_spectra():
    rates = {name: np.linalg.eigvalsh(1j * rotating_generator(p)) for name, p in DEGENERATE.items()}
    assert np.max(np.abs(rates["w1_equals_w2"] - [-2.0, -2.0, 2.0, 2.0])) <= 1e-14  # b0 = 0 and c_pm = +-2
    assert np.max(np.abs(rates["zero_rates_plus"][0, 1:3])) <= 1e-14  # c_+ = 0
    assert np.max(np.abs(rates["zero_rates_minus"][1, 1:3])) <= 1e-14  # c_- = 0


@pytest.mark.parametrize(
    "p",
    [*(_random_params(np.random.default_rng(seed)) for seed in range(3)), *DEGENERATE.values()],
    ids=["random0", "random1", "random2", *DEGENERATE],
)
def test_rotating_exact_is_the_turned_exponential(p):
    # the real mode table against the frame turn times the exponential of the co-rotating generator
    rng = np.random.default_rng(11)
    taus = np.concatenate([[0.0], rng.uniform(0.0, 3.0 * TAU_STAR, size=6)])
    columns = rng.normal(size=(2, 4, 3))
    for y0 in (EYE2, columns / np.linalg.norm(columns, axis=1, keepdims=True)):
        ys = propagate_rotating_exact(p, y0, taus)
        for tau, y in zip(taus, ys):
            expected = expm_skew(p.omega_rf * tau * J) @ expm_skew(tau * rotating_generator(p)) @ y0
            assert np.max(np.abs(y - expected)) <= 1e-13
    # exact_state_trajectory folds join_halves into the table: the same states as joining the halves
    x0 = rng.normal(size=8) / math.sqrt(8.0)
    joined = join_halves(propagate_rotating_exact(p, split_halves(x0), taus))
    assert np.max(np.abs(exact_state_trajectory(p, x0, taus) - joined)) <= 1e-15


def frame_conjugation_defect(p, tau):
    """max over +- of |M_pm(tau) - exp(phi J) M_pm(0) exp(-phi J)|, phi = theta(tau)-theta0."""
    g = expm((p.theta(tau) - p.theta0) * J)
    return float(np.max(np.abs(build_M_half(p, tau) - g @ build_M_half(p, 0.0) @ g.T)))


def test_frame_conjugation_invariant(rng):
    # the derived orientation: exp(phi J) turns e2 towards e4
    assert J[3, 1] == 1.0 and J[1, 3] == -1.0
    for _ in range(4):
        p = _random_params(rng)
        for tau in rng.uniform(0.0, 4.0, size=4):
            assert frame_conjugation_defect(p, float(tau)) <= 1e-12


def test_exact_trajectory_matches_pointwise(rng):
    p = _random_params(rng)
    taus = np.linspace(0.0, 2.5, 7)
    states = exact_state_trajectory(p, np.eye(8)[0], taus)
    # pointwise oracle by scipy's expm: y_pm = exp(omega_rf tau J) exp[tau (M_pm(0) - omega_rf J)] y_pm(0)
    for i, tau in enumerate(taus):
        y = np.stack([expm(p.omega_rf * tau * J) @ expm(tau * gen) @ E1 for gen in rotating_generator(p)])
        assert np.max(np.abs(states[i] - join_halves(y))) < 1e-11


# --- discrepancy ------------------------------------------------------------


def test_discrepancy_vanishes_for_static_drive():
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=1.2, omega_rf=2.0, theta0=0.1)
    d = propagator_discrepancy(p, np.linspace(0.0, 3.0, 31))
    assert d.max_deviation <= 1e-10


def test_discrepancy_vanishes_for_frozen_phase():
    p = _params(omega_rf=0.0)
    d = propagator_discrepancy(p, np.linspace(0.0, 3.0, 31))
    assert d.max_deviation <= 1e-10


def test_discrepancy_generic_is_recorded(rng):
    p = _random_params(rng)
    d = propagator_discrepancy(p, np.linspace(0.0, 3.0, 31))
    assert d.max_deviation >= 0.0
    assert 0.0 <= d.tau_at_max <= 3.0


@pytest.mark.parametrize(
    "p",
    [
        ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=1.2, omega_rf=2.3, theta0=0.4),  # static drive
        ControlParams(k=-1.0, omega_hat=2.4, b0=1.5, bz=0.6, omega_rf=0.0, theta0=1.1),  # frozen phase
    ],
)
def test_three_propagators_agree_in_special_cases(p):
    # when the generator is effectively constant all three routes coincide
    tau_end = 2.0
    traj = propagate_rk4(p, np.eye(8)[0], tau_end, 1e-4)
    x_rk4 = traj.states[-1]
    x_ansatz = join_halves(propagate_expm_integral(p, Y1, tau_end))
    x_exact = join_halves(propagate_rotating_exact(p, Y1, tau_end))
    assert np.max(np.abs(x_ansatz - x_rk4)) < 1e-8
    assert np.max(np.abs(x_exact - x_rk4)) < 1e-8
    assert np.max(np.abs(x_ansatz - x_exact)) < 1e-8


# --- the sign of the coupling ratio -------------------------------------------

SPIN3_FLIP = np.diag([1.0] * 4 + [-1.0] * 4)


@pytest.mark.parametrize("seed", range(4))
def test_negative_coupling_flips_x5_to_x8(seed):
    # k -> -k is conjugation by sigma_x on spin 3, which flips x5..x8 and nothing else, on every oracle
    p = dataclasses.replace(_random_params(np.random.default_rng(seed)), k=1.0)
    q = dataclasses.replace(p, k=-1.0)
    tau_end, dtau = 3.0 * TAU_STAR, 1e-3
    oracles = {
        "rk4": lambda c: propagate_rk4(c, np.eye(8)[0], tau_end, dtau).states,
        "full-hilbert": lambda c: full_hilbert_trajectory(c, tau_end, dtau).states,
        "rotating-exact": lambda c: exact_state_trajectory(c, np.eye(8)[0], _time_grid(tau_end, dtau)),
    }
    for name, states in oracles.items():
        plus = states(p)
        assert np.max(np.abs(plus[:, 4:])) > 0.1, name  # x5..x8 do not vanish: the flip is seen
        assert np.max(np.abs(states(q) - plus @ SPIN3_FLIP)) <= 1e-13, name


# --- CSV export --------------------------------------------------------------


def test_trajectory_csv_format(tmp_path, rng):
    p = _random_params(rng)
    traj = propagate_rk4(p, np.eye(8)[0], 0.5, 1e-2)
    out = tmp_path / "traj.csv"
    traj.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(traj.taus) + 1
    cells = lines[-1].split(",")
    assert len(cells) == 10
    # 17 significant digits round-trip
    assert float(cells[1]) == traj.states[-1, 0]
    assert abs(float(cells[9]) - np.linalg.norm(traj.states[-1])) < 1e-15
