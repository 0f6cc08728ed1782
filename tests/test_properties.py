"""Property tests over random energy-shell controls (hypothesis, derandomized in conftest)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trispin.algebra import PAULI, E1, SECTORS, ControlParams, build_hamiltonian, energy_residual, sector_fields
from trispin.algebra import transverse_amplitude
from trispin.dynamics import build_M, build_M_half, exact_state_trajectory, join_halves, mode_states, mode_table
from trispin.dynamics import propagate_expm_integral, propagate_rk4, propagate_rotating_exact, split_halves
from trispin.hilbert import _PROJECTION, sector_table


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def shell_params(draw):
    """A control set on the fixed-energy shell, bz strictly inside it."""
    k = draw(_floats(-2.0, 2.0))
    omega_hat = math.sqrt(1.0 + k**2) + draw(_floats(1e-3, 3.0))
    bz = draw(_floats(-0.99, 0.99)) * math.sqrt(omega_hat**2 - (1.0 + k**2))
    return ControlParams(k, omega_hat, transverse_amplitude(omega_hat, k, bz), bz, draw(_floats(-6.0, 6.0)),
                         draw(_floats(0.0, 2.0 * math.pi)))


vectors8 = st.lists(_floats(-1.0, 1.0), min_size=8, max_size=8).map(np.array)


@given(shell_params(), vectors8, st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_exact_trajectory_preserves_norm(p, x0, taus):
    states = exact_state_trajectory(p, x0, np.array(taus))
    assert np.max(np.abs(np.linalg.norm(states, axis=-1) - np.linalg.norm(x0))) <= 1e-12


@given(shell_params(), st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_closed_form_propagators_are_orthogonal(p, taus):
    # from eye(4) per half, the integrated-generator ansatz and the rotating-frame closed form give each half's
    # propagator at every tau: exponentials of skew generators, so orthogonal
    for route in (propagate_expm_integral, propagate_rotating_exact):
        u = route(p, np.stack([np.eye(4), np.eye(4)]), np.array(taus))
        assert np.max(np.abs(u.swapaxes(-1, -2) @ u - np.eye(4))) <= 1e-12, route.__name__


@st.composite
def static_or_degenerate_params(draw):
    """A theta0 = 0 shell control, sometimes static (omega_rf = 0) and sometimes at bz = +-k: there, with omega_rf = 0,
    one half loses its MZ term, and its co-rotating generator has a double zero eigenvalue."""
    p = dataclasses.replace(draw(shell_params()), theta0=0.0)
    p = dataclasses.replace(p, omega_rf=0.0) if draw(st.booleans()) else p
    sign = draw(st.sampled_from([0.0, 1.0, -1.0]))
    if sign:
        omega_hat = math.sqrt(1.0 + 2.0 * p.k**2) + draw(_floats(1e-3, 3.0))
        b0 = transverse_amplitude(omega_hat, p.k, sign * p.k)
        p = dataclasses.replace(p, omega_hat=omega_hat, b0=b0, bz=sign * p.k)
    return p


def _shell_example(k, bz, omega_rf):
    return ControlParams(k=k, omega_hat=2.5, b0=transverse_amplitude(2.5, k, bz), bz=bz, omega_rf=omega_rf, theta0=0.0)


EXAMPLE_TAUS = [0.0, 0.37, 1.2, 2.9, 7.5]


# c_pm = 2*(bz +- k) - omega_rf is 0 on one half at each example: a pair of zero rates
@example(_shell_example(1.0, 1.0, 4.0), EXAMPLE_TAUS)
@example(_shell_example(-1.0, 1.0, 4.0), EXAMPLE_TAUS)
@example(_shell_example(1.0, 1.0, 0.0), EXAMPLE_TAUS)
@example(_shell_example(-1.0, 1.0, 0.0), EXAMPLE_TAUS)
# b0 = 0 and c_pm = +-2: both halves have w1 = w2 = 2
@example(ControlParams(k=1.0, omega_hat=math.sqrt(3.0), b0=0.0, bz=1.0, omega_rf=2.0, theta0=0.0), EXAMPLE_TAUS)
@given(static_or_degenerate_params(), st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_mode_table_gives_the_theta0_best_state(p, taus):
    # the frame rotation turns only the (x2, x4) and (x6, x8) planes, as theta0 does, so the co-rotating table
    # (mode_states with no omega_rf) gives the lab frame's x1, x3, x5, x7 and the lengths of those two planes
    taus = np.array(taus)
    lab = exact_state_trajectory(p, E1, taus)
    co = mode_states(*mode_table(p, split_halves(E1)), taus).reshape(-1, 8)
    assert np.max(np.abs(co[:, ::2] - lab[:, ::2])) <= 1e-14
    for x in (co, lab):
        x[:, 1::4] = np.hypot(x[:, 1::4], x[:, 3::4])
    assert np.max(np.abs(co[:, 1::4] - lab[:, 1::4])) <= 1e-14


@given(shell_params(), st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_theta0_turns_the_x2_x4_and_x6_x8_planes(p, taus):
    # from e1, x(tau; theta0) is x(tau; 0) with the (x2, x4) and (x6, x8) planes turned by theta0
    turned = exact_state_trajectory(dataclasses.replace(p, theta0=0.0), E1, np.array(taus))
    c, s = math.cos(p.theta0), math.sin(p.theta0)
    for a, b in ((1, 3), (5, 7)):
        turned[:, a], turned[:, b] = c * turned[:, a] - s * turned[:, b], s * turned[:, a] + c * turned[:, b]
    assert np.max(np.abs(exact_state_trajectory(p, E1, np.array(taus)) - turned)) <= 1e-13


@given(shell_params(), _floats(0.0, 10.0), vectors8)
def test_build_M_decouples_into_halves(p, tau, x):
    # M x = join(M_+ y_+, M_- y_-) with (y_+, y_-) = split(x): the y_pm halves evolve independently; and, to the bit, M
    # is skew and has the blocks 2[[P, Q], [Q, P]]
    m, halves = build_M(p, tau), join_halves((build_M_half(p, tau) @ split_halves(x)[..., None])[..., 0])
    assert np.max(np.abs(m @ x - halves)) <= 1e-12
    assert np.array_equal(m, -m.T) and np.array_equal(m[:4], np.roll(m[4:], 4, axis=1))


@given(shell_params(), _floats(0.0, 5.0), _floats(0.0, 5.0), _floats(1e-3, 0.2))
def test_the_drive_turns_with_the_co_rotating_frame(p, t, s, h):
    # M_pm(t + s) = R M_pm(s) R^T with R = exp(omega_rf t J), and n_s(t + s) = Rz(omega_rf t) n_s(s); the
    # phases theta(t + s) and theta(s) + omega_rf t round apart by about an ulp of theta, so b0 cos(theta)
    # by about b0 ulp(theta): 1e-14 per unit of b0 theta
    tol = 1e-14 * max(1.0, abs(p.b0 * p.theta(t + s)))
    c, sn = math.cos(p.omega_rf * t), math.sin(p.omega_rf * t)
    turn = np.eye(4)
    turn[1, 1], turn[1, 3], turn[3, 1], turn[3, 3] = c, -sn, sn, c
    assert np.max(np.abs(build_M_half(p, t + s) - turn @ build_M_half(p, s) @ turn.T)) <= tol
    rz = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(sector_fields(p, t + s) - sector_fields(p, s) @ rz.T)) <= tol
    # so one co-rotating RK4 step, turned back by R on both halves, is the lab-frame step at t
    step = np.array([propagate_rk4(p, x, h, h).states[-1] for x in np.eye(8)]).T
    turn8 = np.kron(np.eye(2), turn)
    m_left, m_mid, m_right = build_M(p, t), build_M(p, t + h / 2.0), build_M(p, t + h)
    k2 = m_mid + (h / 2.0) * m_mid @ m_left
    k3 = m_mid + (h / 2.0) * m_mid @ k2
    k4 = m_right + h * m_right @ k3
    lab = np.eye(8) + (h / 6.0) * (m_left + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(turn8 @ step @ turn8.T - lab)) <= 1e-14


@given(shell_params(), st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_sector_blocks_are_unitary(su2, p, taus):
    # the rows of the sector table are the projections of two SU(2) blocks G_s3 at any taus, off the block grid too
    x = mode_states(*sector_table(p), np.array(taus), p.omega_rf)
    g = su2(2.0 * x @ _PROJECTION.T)  # _PROJECTION @ _PROJECTION.T is I/2
    assert np.max(np.abs(g.conj().swapaxes(-1, -2) @ g - np.eye(2))) <= 1e-13
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) <= 1e-13


@given(shell_params(), st.lists(_floats(0.0, 10.0), min_size=1, max_size=20))
def test_hamiltonian_is_block_diagonal_on_the_sectors(p, taus):
    # permuted to the sectors (s1, s3), H is exactly zero off its 2x2 diagonal blocks, which are n_s.sigma
    perm = SECTORS.ravel()
    h = build_hamiltonian(p, np.array(taus))[:, perm][:, :, perm]
    in_sector = np.kron(np.eye(4), np.ones((2, 2))) == 1
    assert np.all(h[:, ~in_sector] == 0.0)
    blocks = h[:, in_sector].reshape(-1, 4, 2, 2)
    n_sigma = np.einsum("tsk,kab->tsab", sector_fields(p, np.array(taus)), np.stack([PAULI[a] for a in "xyz"]))
    assert np.max(np.abs(blocks - n_sigma)) <= 1e-15


@given(_floats(-2.0, 2.0), _floats(1e-3, 5.0), _floats(-1.0, 1.0))
def test_transverse_amplitude_lands_on_energy_shell(k, excess, bz_fraction):
    omega_hat = math.sqrt(1.0 + k**2) + excess
    shell = omega_hat**2 - (1.0 + k**2)
    bz = bz_fraction * math.sqrt(shell)
    if bz**2 > shell:
        # at the shell's edge sqrt(shell)**2 can round to just outside it
        with pytest.raises(ValueError, match="no real transverse amplitude"):
            transverse_amplitude(omega_hat, k, bz)
        return
    b0 = transverse_amplitude(omega_hat, k, bz)
    p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=0.0, theta0=0.0)
    assert b0 >= 0.0
    assert abs(energy_residual(p)) <= 1e-12
