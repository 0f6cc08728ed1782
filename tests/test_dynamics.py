import dataclasses
import math

import numpy as np
import pytest
from conftest import DEGENERATE
from scipy.linalg import expm

from trispin import algebra
from trispin.algebra import ControlParams, transverse_amplitude
from trispin.dynamics import CSV_HEADER, MB, MC, MS, MZ, J, time_grid, build_M_half, exact_state_trajectory, expm_skew
from trispin.dynamics import integral_generator, join_halves, propagate_expm_integral
from trispin.dynamics import propagate_rk4, propagate_rotating_exact, propagator_discrepancy, rotating_generator, split_halves
from trispin.hilbert import full_hilbert_trajectory

TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi

E1 = np.array([1.0, 0.0, 0.0, 0.0])
# both halves of x = e1, and the two 4x4 identities: the (2, 4) and (2, 4, 4) initial states
Y1 = np.stack([E1, E1])
EYE2 = np.stack([np.eye(4), np.eye(4)])


def _params(k=1.0, omega_hat=2.5, b0=None, bz=0.3, omega_rf=1.7, theta0=0.6):
    b0 = transverse_amplitude(omega_hat, k, bz) if b0 is None else b0
    return ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=theta0)


def _random_params(rng):
    k, omega_hat = float(rng.choice([1.0, -1.0])), float(rng.uniform(1.7, 3.0))
    bz = float(rng.uniform(-0.8, 0.8)) * math.sqrt(omega_hat**2 - 2.0)
    return _params(k, omega_hat, None, bz, float(rng.uniform(-4.0, 4.0)), float(rng.uniform(0.0, 2.0 * math.pi)))


# --- halves --------------------------------------------------------------


def test_split_halves_initial_state():
    y_plus, y_minus = split_halves(np.eye(8)[0])
    assert np.allclose(y_plus, E1) and np.allclose(y_minus, E1)


def test_split_halves_target_state():
    y_plus, y_minus = split_halves(np.eye(8)[7])
    assert np.allclose(y_plus, [0, 0, 0, 1]) and np.allclose(y_minus, [0, 0, 0, -1])


def test_join_inverts_split(rng):
    # any leading axes: (..., 8) <-> (..., 2, 4), + first
    for shape in ((), (3,), (2, 5)):
        x = rng.standard_normal(shape + (8,))
        y = split_halves(x)
        assert y.shape == shape + (2, 4) and np.array_equal(y[..., 0, :], x[..., :4] + x[..., 4:])
        assert np.max(np.abs(join_halves(y) - x)) <= 1e-14
        assert np.max(np.abs(split_halves(join_halves(y)) - y)) <= 1e-14
    # norm bookkeeping: |y+|^2 + |y-|^2 = 2 |x|^2
    x = rng.standard_normal(8)
    assert abs(np.sum(split_halves(x) ** 2) - 2 * np.dot(x, x)) < 1e-12


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
    # with no field and k=0 the (x1, x3) pair rotates, x1 = cos 2tau and x3 = sin 2tau, and the rest stay 0 (seen: 7.7e-13,
    # RK4's truncation)
    p = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)
    traj = propagate_rk4(p, np.eye(8)[0], 3.0, 1e-3)
    want = np.zeros_like(traj.states)
    want[:, 0], want[:, 2] = np.cos(2 * traj.taus), np.sin(2 * traj.taus)
    assert np.max(np.abs(traj.states - want)) < 1e-11


def test_rk4_zero_state_stays_zero(rng):
    assert np.max(np.abs(propagate_rk4(_random_params(rng), np.zeros(8), 1.0, 1e-2).states)) == 0.0


def test_rk4_norm_conservation(rng):
    # RK4 is not norm-preserving: over 5,000 steps of 1e-3 its drift stays under 1e-9
    traj = propagate_rk4(_random_params(rng), np.eye(8)[0], 5.0, 1e-3)
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-9


def test_rk4_step_longer_than_the_run():
    # the grid is (0, 1), one step of length 1, so the unused powers of the 1e3 step must not be formed (they overflow)
    long_step, one_step = (propagate_rk4(_params(), np.eye(8)[0], 1.0, dtau) for dtau in (1e3, 1.0))
    assert np.array_equal(long_step.taus, one_step.taus) and np.array_equal(long_step.states, one_step.states)


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        propagate_rk4(_params(), np.eye(8)[0], 1.0, 0.0)


@pytest.mark.parametrize("tau_end, dtau",
                         [(1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1)])
def test_time_grid_rejects_bad_step(tau_end, dtau):
    # the one grid every propagator steps on is also the one place the step is checked
    with pytest.raises(ValueError, match="must be finite"):
        time_grid(tau_end, dtau)


def test_rk4_grid_endpoints():
    traj = propagate_rk4(_params(), np.eye(8)[0], 0.95, 1e-1)
    assert traj.taus[0] == 0.0 and abs(traj.taus[-1] - 0.95) < 1e-15 and np.all(np.diff(traj.taus) > 0)


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


def test_rk4_memory_beyond_its_trajectory_does_not_grow_with_the_grid(traced):
    # the rows are turned to the lab frame a window of WINDOW_ROWS at a time, into the states: beyond the taus and
    # states, 72 bytes a row, the peak stays at 2.2 MB from 40,812 to 163,243 rows (the whole grid turned at once took
    # 14.0 and 56.2 MB more)
    p = _params()
    propagate_rk4(p, algebra.E1, 0.1, 1e-3)  # first-call set-up
    beyond = []
    for dtau in (1e-4, 2.5e-5):
        rows, peak = traced(lambda: len(propagate_rk4(p, algebra.E1, 3.0 * TAU_STAR, dtau).taus))
        beyond.append(peak - 72 * rows)
    assert rows == 163243 and beyond[1] <= 1.1 * beyond[0] and beyond[1] <= 3e6, beyond


# --- integrated generator -------------------------------------------------


def _simpson_generator(p, tau, n=2000):
    # independent oracle: composite Simpson quadrature of M_pm entry by entry, both halves
    s = np.linspace(0.0, tau, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return np.tensordot(w, np.stack([build_M_half(p, float(si)) for si in s]), axes=1) * (tau / n) / 3.0


def test_integral_generator_matches_simpson(rng):
    for _ in range(3):
        p, tau = _random_params(rng), float(rng.uniform(0.5, 2.5))
        assert np.max(np.abs(integral_generator(p, tau) - _simpson_generator(p, tau))) < 1e-10


def test_integral_generator_zero_time(rng):
    assert np.max(np.abs(integral_generator(_random_params(rng), 0.0))) == 0.0


# --- propagators -----------------------------------------------------------


def test_expm_integral_identity_at_zero(rng):
    assert np.allclose(propagate_expm_integral(_random_params(rng), Y1, 0.0), Y1)


def test_expm_integral_over_taus_matches_per_tau(rng):
    p = _random_params(rng)
    taus = np.array([[0.0, 0.3], [1.1, 2.5]])
    for y0 in (Y1, EYE2):
        ys = propagate_expm_integral(p, y0, taus)
        assert ys.shape == taus.shape + np.shape(y0)
        for idx in np.ndindex(taus.shape):
            single = propagate_expm_integral(p, y0, float(taus[idx]))
            assert single.shape == np.shape(y0) and np.array_equal(ys[idx], single)


def test_rotating_exact_frozen_frame():
    p = _params(omega_rf=0.0)
    y = propagate_rotating_exact(p, Y1, 2.1)
    for half, gen in enumerate(build_M_half(p, 0.0)):
        assert np.max(np.abs(y[half] - expm(2.1 * gen) @ E1)) < 1e-12


def test_rotating_exact_propagator_columns(rng):
    # y0 = eye(4) per half gives the propagators: column j is the call from e_j (test_properties holds them orthogonal)
    p = _random_params(rng)
    taus = np.array([[0.0, 0.3], [1.1, 2.7]])
    u = propagate_rotating_exact(p, EYE2, taus)
    assert u.shape == taus.shape + (2, 4, 4)
    columns = np.stack([propagate_rotating_exact(p, np.stack([e, e]), taus) for e in np.eye(4)], axis=-1)
    assert np.max(np.abs(u - columns)) <= 1e-15


def test_degenerate_examples_have_degenerate_spectra():
    rates = {name: np.linalg.eigvalsh(1j * rotating_generator(p)) for name, p in DEGENERATE.items()}
    assert np.max(np.abs(rates["w1_equals_w2"] - [-2.0, -2.0, 2.0, 2.0])) <= 1e-14  # b0 = 0 and c_pm = +-2
    assert np.max(np.abs(rates["zero_rates_plus"][0, 1:3])) <= 1e-14  # c_+ = 0
    assert np.max(np.abs(rates["zero_rates_minus"][1, 1:3])) <= 1e-14  # c_- = 0


@pytest.mark.parametrize("p", [*(_random_params(np.random.default_rng(seed)) for seed in range(3)), *DEGENERATE.values()],
                         ids=["random0", "random1", "random2", *DEGENERATE])
def test_rotating_exact_is_the_turned_exponential(p):
    # the real mode table against the frame turn times the exponential of the co-rotating generator
    rng = np.random.default_rng(11)
    taus = np.concatenate([[0.0], rng.uniform(0.0, 3.0 * TAU_STAR, size=6)])
    columns = rng.normal(size=(2, 4, 3))
    for y0 in (EYE2, columns / np.linalg.norm(columns, axis=1, keepdims=True)):
        for tau, y in zip(taus, propagate_rotating_exact(p, y0, taus)):
            expected = expm_skew(p.omega_rf * tau * J) @ expm_skew(tau * rotating_generator(p)) @ y0
            assert np.max(np.abs(y - expected)) <= 1e-13
    # exact_state_trajectory folds join_halves into the table: the same states as joining the halves
    x0 = rng.normal(size=8) / math.sqrt(8.0)
    joined = join_halves(propagate_rotating_exact(p, split_halves(x0), taus))
    assert np.max(np.abs(exact_state_trajectory(p, x0, taus) - joined)) <= 1e-15


def test_frame_conjugation_invariant(rng):
    # max over +- of |M_pm(tau) - exp(phi J) M_pm(0) exp(-phi J)|, phi = theta(tau) - theta0; the derived orientation:
    # exp(phi J) turns e2 towards e4
    assert J[3, 1] == 1.0 and J[1, 3] == -1.0
    for _ in range(4):
        p = _random_params(rng)
        for tau in rng.uniform(0.0, 4.0, size=4):
            g = expm((p.theta(tau) - p.theta0) * J)
            assert np.max(np.abs(build_M_half(p, tau) - g @ build_M_half(p, 0.0) @ g.T)) <= 1e-12


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
    assert propagator_discrepancy(p, np.linspace(0.0, 3.0, 31)).max_deviation <= 1e-10


def test_discrepancy_vanishes_for_frozen_phase():
    assert propagator_discrepancy(_params(omega_rf=0.0), np.linspace(0.0, 3.0, 31)).max_deviation <= 1e-10


@pytest.mark.parametrize("p", [ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=1.2, omega_rf=2.3, theta0=0.4),  # static
                               ControlParams(k=-1.0, omega_hat=2.4, b0=1.5, bz=0.6, omega_rf=0.0, theta0=1.1),  # frozen
                               ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.0, theta0=0.0)])
def test_three_propagators_agree_in_special_cases(p):
    # when the generator is effectively constant all three routes coincide
    x_rk4 = propagate_rk4(p, np.eye(8)[0], 2.0, 1e-4).states[-1]
    x_ansatz, x_exact = (join_halves(propagate(p, Y1, 2.0)) for propagate in (propagate_expm_integral, propagate_rotating_exact))
    assert max(np.max(np.abs(a - b)) for a, b in ((x_ansatz, x_rk4), (x_exact, x_rk4), (x_ansatz, x_exact))) < 1e-8


def test_three_routes_agree_on_a_resonant_control():
    # propagate's default grid, 4,083 rows at dtau 1e-3, for the control of the golden propagate CSVs (omega_rf = 2 bz):
    # RK4 against both exact routes to 1e-8, and the full-space route against the reduced one to 1e-13 (seen: 3.1e-15;
    # a stepped full-space oracle read 3.3e-13, its fourth-order truncation)
    p = ControlParams(k=1.0, omega_hat=2.0, b0=1.0, bz=1.0, omega_rf=2.0, theta0=0.0)
    rk4, full = propagate_rk4(p, algebra.E1, 3.0 * TAU_STAR, 1e-3), full_hilbert_trajectory(p, 3.0 * TAU_STAR, 1e-3)
    exact = exact_state_trajectory(p, algebra.E1, rk4.taus)
    assert len(rk4.taus) == 4083 and np.array_equal(full.taus, rk4.taus)
    assert max(np.max(np.abs(rk4.states - states)) for states in (full.states, exact)) <= 1e-8
    assert np.max(np.abs(full.states - exact)) <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_negative_coupling_flips_x5_to_x8(seed):
    # k -> -k is conjugation by sigma_x on spin 3, which flips x5..x8 and nothing else, on every oracle
    p = dataclasses.replace(_random_params(np.random.default_rng(seed)), k=1.0)
    tau_end, dtau = 3.0 * TAU_STAR, 1e-3
    oracles = {
        "rk4": lambda c: propagate_rk4(c, np.eye(8)[0], tau_end, dtau).states,
        "full-hilbert": lambda c: full_hilbert_trajectory(c, tau_end, dtau).states,
        "rotating-exact": lambda c: exact_state_trajectory(c, np.eye(8)[0], time_grid(tau_end, dtau)),
    }
    for name, states in oracles.items():
        plus = states(p)
        assert np.max(np.abs(plus[:, 4:])) > 0.1, name  # x5..x8 do not vanish: the flip is seen
        assert np.max(np.abs(states(dataclasses.replace(p, k=-1.0)) - plus * np.repeat([1.0, -1.0], 4))) <= 1e-13, name


def test_trajectory_csv_format(tmp_path, rng):
    traj = propagate_rk4(_random_params(rng), np.eye(8)[0], 0.5, 1e-2)
    out = tmp_path / "traj.csv"
    traj.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == len(traj.taus) + 1
    cells = lines[-1].split(",")
    # 17 significant digits round-trip
    assert len(cells) == 10 and float(cells[1]) == traj.states[-1, 0]
    assert abs(float(cells[9]) - np.linalg.norm(traj.states[-1])) < 1e-15
