"""The batched routes against one-at-a-time references built from public names.

- ``propagate_rk4`` against the plain lab-frame RK4 loop, one ``build_M`` per step, from e1 and from a generic unit
  vector whose halves differ.  The streamed routes take their rows in blocks of ``dynamics.BLOCK_STEPS`` steps and
  windows of ``dynamics.WINDOW_ROWS`` rows; GRIDS reach each edge of that layout through ``tau_end`` and ``dtau``.
- ``full_hilbert_trajectory`` (the sector blocks' Rabi solution as a mode table) against the fourth-order Magnus step
  of the full 8x8 Hamiltonian with a trace per operator, to the Magnus truncation, and against the exact reduced
  route, to rounding, at degenerate controls too.
- ``dynamics.mode_states`` on a ``time_grid`` (blocks, angle addition, the plane turn of (x2, x4) and (x6, x8))
  against the per-tau path, which the same taus take as a column, and ``expm_skew`` of the turn and of the
  co-rotating generator.
- ``consistency_scan`` and ``invert_to_physical`` against scalar ``math`` loops, the scan's scales against the
  refined minima of its residual curve; ``expm_skew`` and ``propagator_discrepancy`` against scipy's ``expm``.
- ``grid_search`` against the loop over a (bz, omega_rf, theta0) grid and the whole box node by node
  (``grid_reference.py``), which also holds every row of the x5 and x7 landscapes, their mirror rows included.
"""

import dataclasses
import math

import numpy as np
import pytest
from conftest import DEGENERATE, SCAN_LABELS
from grid_reference import assert_grid_is_the_whole_box
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar

from trispin import dynamics, search
from trispin.algebra import E1, TAU_STAR, ControlParams, build_hamiltonian, coherence_basis, energy_shell, transverse_amplitude
from trispin.boundary import ROOT_STEP, consistency_scan, consistent_scale, invert_to_physical
from trispin.dynamics import BLOCK_STEPS, WINDOW_ROWS, MB, MC, MS, MZ, J, time_grid, build_M, build_M_half
from trispin.dynamics import exact_state_trajectory, expm_skew, integral_generator, join_halves, phase_integrals
from trispin.dynamics import propagate_rk4, propagate_rotating_exact, propagator_discrepancy, rotating_generator, split_halves
from trispin.hilbert import full_hilbert_trajectory, sector_table
from trispin.report import random_consistent_params

DTAU = 1e-3
# tau_end of each grid, by what the grid tests
GRIDS = {
    "one_point": 0.0,
    "one_step": DTAU,
    "two_steps": 2 * DTAU,
    "block_less_one": (BLOCK_STEPS - 1) * DTAU,
    "one_block": BLOCK_STEPS * DTAU,
    "block_and_one": (BLOCK_STEPS + 1) * DTAU,
    "blocks_then_short_last_step": (3 * BLOCK_STEPS - 0.5) * DTAU,
    "block_of_blocks_less_one": (BLOCK_STEPS**2 - 1) * DTAU,
    "block_of_blocks": BLOCK_STEPS**2 * DTAU,
    "block_of_blocks_and_one": (BLOCK_STEPS**2 + 1) * DTAU,
    "starts_take_a_whole_block": BLOCK_STEPS * (BLOCK_STEPS + 1) * DTAU,
    "one_full_run": 4095 * DTAU,
}
on_grids = pytest.mark.parametrize("tau_end", GRIDS.values(), ids=GRIDS.keys())


def rk4_per_step(p, x0, tau_end, dtau):
    """Vector RK4 in the lab frame, one step per iteration, with the left, middle and right generators of each step
    (``build_M`` over all of them at once has the bits of one call a time)."""
    taus = time_grid(tau_end, dtau)
    h = np.diff(taus)
    lefts, mids, rights = build_M(p, taus[:-1]), build_M(p, taus[:-1] + h / 2.0), build_M(p, taus[1:])
    states = [np.asarray(x0, dtype=float)]
    for h, m_left, m_mid, m_right in zip(h, lefts, mids, rights):
        x = states[-1]
        k1 = m_left @ x
        k2 = m_mid @ (x + (h / 2.0) * k1)
        k3 = m_mid @ (x + (h / 2.0) * k2)
        states.append(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + m_right @ (x + h * k3)))
    return taus, np.array(states)


def gauss4_per_step(p, tau_end, dtau):
    """Fourth-order Magnus stepping of the 8x8 U, one eigendecomposition per iteration.  It adds the increment (V - I) U,
    V - I from expm1 of the eigenvalues, so the product does not carry the rounding of a diagonal near 1 step to step."""
    offset, taus = math.sqrt(3.0) / 6.0, time_grid(tau_end, dtau)
    unitaries = [np.eye(8, dtype=complex)]
    for t, h in zip(taus[:-1], np.diff(taus)):
        h1, h2 = (build_hamiltonian(p, t + (0.5 + sign * offset) * h) for sign in (-1.0, 1.0))
        ev, vec = np.linalg.eigh((h / 2.0) * (h1 + h2) - 1j * (h * h * math.sqrt(3.0) / 12.0) * (h2 @ h1 - h1 @ h2))
        unitaries.append(unitaries[-1] + (vec * np.expm1(-1j * ev)) @ vec.conj().T @ unitaries[-1])
    return taus, np.array(unitaries)


def expectations_by_trace(unitaries):
    """x_i = Tr[O_i U sx1 U^dag]/8 by a trace per operator and sample."""
    basis = np.stack(coherence_basis())
    w = np.einsum("tab,bc,tdc->tad", unitaries, basis[0], unitaries.conj())
    return np.einsum("iab,tab->ti", basis.conj(), w).real / 8.0


@pytest.fixture(scope="module")
def params():
    return random_consistent_params(np.random.default_rng(99))


GENERIC_X0 = np.random.default_rng(5).normal(size=8)
GENERIC_X0 /= np.linalg.norm(GENERIC_X0)


# propagate_rk4 turns its rows to the lab frame a window (dynamics._windows) at a time: W + 1 rows make one window
@pytest.mark.parametrize("tau_end", [*GRIDS.values(), WINDOW_ROWS * DTAU], ids=[*GRIDS, "window_and_one"])
def test_rk4_matches_per_step_loop(params, tau_end):
    for x0 in (E1, GENERIC_X0):
        traj, (taus, states) = propagate_rk4(params, x0, tau_end, DTAU), rk4_per_step(params, x0, tau_end, DTAU)
        assert np.array_equal(traj.taus, taus) and np.max(np.abs(traj.states - states)) <= 1e-13


@on_grids
def test_gauss4_and_projection_match_per_step_loop(params, tau_end):
    # the sector route has no truncation and the Magnus loop is fourth order: its rows drift from the exact ones
    # by C*dtau^4*tau, C = 3.71 here (seen: 4.3e-12 at the last of 4,096 rows), over a rounding floor
    loop_taus, unitaries = gauss4_per_step(params, tau_end, DTAU)
    full = full_hilbert_trajectory(params, tau_end, DTAU)
    assert np.array_equal(full.taus, loop_taus)
    gap = np.max(np.abs(full.states - expectations_by_trace(unitaries)), axis=1)
    assert np.all(gap <= 5.0 * DTAU**4 * loop_taus + 1e-15)


@pytest.mark.parametrize("control", ["random", "free", *DEGENERATE])
def test_sector_route_matches_the_mode_table(params, control):
    # the full-space and the reduced exact routes share no code but mode_states; at w1 = w2 and at zero rates too
    free = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)
    p = {"random": params, "free": free, **DEGENERATE}[control]
    taus = time_grid(3.0 * TAU_STAR, DTAU)
    want = exact_state_trajectory(p, E1, taus)
    assert np.max(np.abs(dynamics.mode_states(*sector_table(p), taus, p.omega_rf) - want)) <= 1e-14


@on_grids
@pytest.mark.parametrize("control", ["random", *DEGENERATE])
def test_exact_grid_path_equals_per_tau_path(params, control, tau_end):
    # on a time_grid, exact_state_trajectory reads the block-factored mode table; the same taus as a
    # column are not a grid and take the per-tau path
    p = params if control == "random" else DEGENERATE[control]
    taus = time_grid(tau_end, DTAU)
    for x0 in (E1, GENERIC_X0):
        grid = exact_state_trajectory(p, x0, taus)
        assert np.max(np.abs(grid - exact_state_trajectory(p, x0, taus[:, None])[:, 0])) <= 1e-14
    # the sector table's 8-wide rows take the grid path too
    sector = sector_table(p)
    grid = dynamics.mode_states(*sector, taus, p.omega_rf)
    assert np.max(np.abs(grid - dynamics.mode_states(*sector, taus[:, None], p.omega_rf)[:, 0])) <= 1e-14
    # the propagators, a (2, 4, 4) state, take the per-tau path on the grid too
    eye = np.broadcast_to(np.eye(4), (2, 4, 4))
    grid = propagate_rotating_exact(p, eye, taus)
    assert grid.shape == (len(taus), 2, 4, 4)
    assert np.max(np.abs(grid - propagate_rotating_exact(p, eye, taus[:, None])[:, 0])) <= 1e-14
    # grid and per-tau rows share mode_states' one turn; the so(4) closed form of exp(omega_rf*tau*J) exp[tau (M_pm(0)
    # - omega_rf J)], with no mode table, is a reference for the turn too
    turned = expm_skew(np.multiply.outer(p.omega_rf * taus, J))[:, None] @ expm_skew(np.multiply.outer(taus, rotating_generator(p)))
    for x0 in (E1, GENERIC_X0):
        want = join_halves((turned @ split_halves(x0)[..., None])[..., 0])
        assert np.max(np.abs(exact_state_trajectory(p, x0, taus) - want)) <= 1e-13
        if x0 is E1:
            assert np.max(np.abs(dynamics.mode_states(*sector_table(p), taus, p.omega_rf) - want)) <= 1e-13


def test_matrix_states_stay_off_the_block_grid(params):
    # only an 8-wide state takes the grid path: the exact leg of propagator_discrepancy, on the 241 taus that verify
    # gives it, a grid, has the bits of the per-tau path that the same taus take as a column
    taus = np.linspace(0.0, TAU_STAR, 241)
    eye = np.broadcast_to(np.eye(4), (2, 4, 4))
    assert np.array_equal(propagate_rotating_exact(params, eye, taus), propagate_rotating_exact(params, eye, taus[:, None])[:, 0])
    assert propagator_discrepancy(params, taus).max_deviation > 0.0


@pytest.mark.parametrize("steps", [2, WINDOW_ROWS - 1, WINDOW_ROWS, WINDOW_ROWS + 1, 2 * WINDOW_ROWS + 1])
def test_on_grid_compares_every_window(params, steps):
    # taus on the grid but for one, an ulp off, at the first or last tau of a window of WINDOW_ROWS or in the middle,
    # in one partial window, one whole, one whole and one of a single tau, and two whole and one: not a grid, so they
    # take the per-tau path, bit for bit.  The last tau is tau_end, free of the grid, and taus[1] the step the others
    # are checked against
    taus = time_grid(steps * DTAU, DTAU)
    assert len(taus) == steps + 1
    edges = {i for lo in range(0, steps, WINDOW_ROWS) for i in (lo, min(lo + WINDOW_ROWS - 1, steps - 1))}
    for i in sorted((edges | {steps // 2}) - {1}):
        moved = taus.copy()
        moved[i] = np.nextafter(moved[i], np.inf)
        assert np.array_equal(exact_state_trajectory(params, E1, moved), exact_state_trajectory(params, E1, moved[:, None])[:, 0]), i


def test_exact_other_taus_give_the_per_tau_result(params):
    # a linspace grid is dtau*arange but for its last entry, so it may take either path (a grid with one entry moved
    # by an ulp takes the per-tau path itself: test_on_grid_compares_every_window)
    taus = np.linspace(0.0, 3.0 * TAU_STAR, 1001)
    per_tau = exact_state_trajectory(params, GENERIC_X0, taus[:, None])[:, 0]
    assert np.max(np.abs(exact_state_trajectory(params, GENERIC_X0, taus) - per_tau)) <= 1e-14


def test_grid_lengths_cover_run_boundaries():
    # the GRIDS above really end on both sides of a block edge, after whole blocks and a shortened last step, around
    # b*b steps, where the block starts (one a block, on a block grid of their own) reach their first block edge, at
    # b*(b + 1), where they are one whole block and one more, and in a long run whose last block is partial; a grid of
    # s steps holds s rows of the block grid and the last row
    b = BLOCK_STEPS
    steps = [0, 1, 2, b - 1, b, b + 1, 3 * b, b * b - 1, b * b, b * b + 1, b * (b + 1), 4095]
    assert [len(time_grid(t, DTAU)) - 1 for t in GRIDS.values()] == steps
    assert np.diff(time_grid(GRIDS["blocks_then_short_last_step"], DTAU))[-1] <= DTAU / 2 + 1e-15


@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
def test_generators_over_array_taus_equal_stacked_scalar_calls(params, shape):
    taus = np.random.default_rng(7).uniform(0.0, 5.0, size=shape)
    flat = np.ravel(taus)
    # a slow drive, omega_rf*tau below 2e-2 on (0, 5): phase_integrals' sinc(omega_rf*tau/2) close to its limit 1
    slow = dataclasses.replace(params, omega_rf=4e-3)
    cases = ((build_M, params, (8, 8)), (build_M_half, params, (2, 4, 4)), (build_hamiltonian, params, (8, 8)),
             (integral_generator, params, (2, 4, 4)), (integral_generator, slow, (2, 4, 4)))
    for build, p, mat_shape in cases:
        batched = build(p, taus)
        assert batched.shape == shape + mat_shape
        assert np.array_equal(batched, np.array([build(p, float(t)) for t in flat]).reshape(shape + mat_shape))


def branch_residual_by_math(omega_hat, k_sign, branch, tau_star, b_target):
    """(|b - b_target|, |d|) of one branch's closed-form controls at one omega_hat, in scalar math.  The phase integrals
    are the difference of sines over omega_rf, not the package's sinc form; omega_rf*tau_star >= 1e-2 on the ranges
    scanned here, which keeps the quotient away from its 0/0 at omega_rf = 0."""
    root = math.sqrt(omega_hat**2 - 2.0)
    b0, omega_rf = k_sign * root, branch["omega_sign"] * (4.0 / math.pi) * root
    theta0 = 0.5 * ((2 * branch["r"] + 1) * math.pi + branch["theta_sign"] * math.sqrt(3.0) * root)
    assert abs(omega_rf * tau_star) >= 1e-2
    th = omega_rf * tau_star + theta0
    int_cos, int_sin = (math.sin(th) - math.sin(theta0)) / omega_rf, (math.cos(theta0) - math.cos(th)) / omega_rf
    return abs(-2.0 * b0 * int_sin - b_target), abs(2.0 * b0 * int_cos)


def scan_by_loop(omegas, k_sign):
    """Per-sample best max(|b - b_target|, |d|) over the branches and its branch; the first branch wins ties."""
    best = [min((max(branch_residual_by_math(float(w), k_sign, branch, TAU_STAR, -math.pi * k_sign)), n)
                for n, branch in enumerate(SCAN_LABELS)) for w in omegas]
    return np.array([res for res, _ in best]), [SCAN_LABELS[n] for _, n in best]


def refined_minima(omegas, k_sign):
    """(omega_hat, branch) at each local minimum of the per-sample curve below 1e-2, refined by bounded minimization.
    A raw grid cannot certify a quadratic tangency to 1e-9, so each minimum is refined on its best branch between its
    neighbours; a refined point is kept if its residual is at most 1e-9 and more than 1e-7 from those kept before it."""
    residuals, branches = scan_by_loop(omegas, k_sign)
    found = []
    for i in range(1, len(omegas) - 1):
        if not residuals[i] <= min(residuals[i - 1], residuals[i + 1]) or residuals[i] >= 1e-2:
            continue

        def worst(w, branch=branches[i]):
            return max(branch_residual_by_math(w, k_sign, branch, TAU_STAR, -math.pi * k_sign))

        res = minimize_scalar(worst, bounds=(omegas[i - 1], omegas[i + 1]), method="bounded", options={"xatol": 1e-13})
        if res.fun <= 1e-9 and all(abs(res.x - w) > 1e-7 for w, _ in found):
            found.append((float(res.x), branches[i]))
    return found


@pytest.mark.parametrize("k_sign", [1, -1])
def test_scan_matches_per_sample_branch_loop(k_sign):
    scan = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=2000)
    residuals, _ = scan_by_loop(scan.omegas, k_sign)
    assert np.max(np.abs(scan.residuals - residuals)) <= 1e-14


@pytest.mark.parametrize("samples", [2000, 4001])
@pytest.mark.parametrize("k_sign", [1, -1])
def test_scan_scales_are_where_the_refined_minima_land(k_sign, samples):
    scan = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=samples)
    refined = refined_minima(scan.omegas, k_sign)
    # the refined minima lie on the closed form's labels omega_sign = 1, theta_sign = -1, the only ones it keeps
    assert [{"omega_sign": 1, "theta_sign": -1, **cp.branch} for cp in scan.consistent] == [branch for _, branch in refined]
    assert [cp.branch for cp in scan.consistent] == [consistent_scale(j)[1] for j in (0, 1)]
    # the minimum is flat to rounding over about 1e-8, so the search stops anywhere on it
    assert np.max(np.abs(np.array([cp.omega_hat for cp in scan.consistent]) - [w for w, _ in refined])) <= 1e-7


def inversion_roots_by_loop(omega_hat, tau_star, b_target):
    """Roots of 2*b0*tau_star*(-1)^r*sinc(omega_rf*tau_star/2) = -b_target, b0 > 0 and r in {0, 1}, per point.

    The bracketing grid is invert_to_physical's: from 0 in steps of ROOT_STEP to one step past 4*b0/|b_target|."""
    b0 = math.sqrt(omega_hat**2 - 2.0)
    grid = ROOT_STEP * np.arange(math.floor(4.0 * b0 / abs(b_target) / ROOT_STEP) + 2)
    roots = []
    for r in (0, 1):
        def f(om):
            z = om * tau_star / 2.0
            return 2.0 * b0 * tau_star * (-1.0) ** r * (math.sin(z) / z if z else 1.0) + b_target

        vals = [f(float(om)) for om in grid]
        roots += [(r, brentq(f, float(grid[i]), float(grid[i + 1]), xtol=1e-15))
                  for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0.0]
    return roots


@pytest.mark.parametrize("omega_hat, b_target", [(2.7, -math.pi), (2.2999713329530, -math.pi), (4.0, 3.0 * math.pi),
                                                 (6.0, -math.pi), (5.5, 2.0)])
def test_inversion_roots_equal_per_point_bracket(omega_hat, b_target):
    roots = [(s.branch["r"], s.params.omega_rf) for s in invert_to_physical(omega_hat, 1.0, TAU_STAR, b_target)]
    assert roots and roots == inversion_roots_by_loop(omega_hat, TAU_STAR, b_target)


def _skew_stack(rng, n, scale):
    a = scale * rng.standard_normal((n, 4, 4))
    return a - a.swapaxes(-1, -2)


def _so4_generator(x, y):
    """4x4 skew generators h_+ + h_- with self-dual part h_+ of components x and anti-self-dual part h_- of y: h_pm has
    (0,1), (0,2), (0,3) entries x or y and (2,3), (3,1), (1,2) entries +-x or +-y, and h_pm^2 = -|x|^2 I or -|y|^2 I,
    so the rotation angles are |x| + |y| and ||x| - |y||."""
    a = np.zeros(np.shape(x)[:-1] + (4, 4))
    for v, sign in ((np.asarray(x), 1.0), (np.asarray(y), -1.0)):
        for m, (i, j), (k, l) in zip(range(3), ((0, 1), (0, 2), (0, 3)), ((2, 3), (3, 1), (1, 2))):
            a[..., i, j] += v[..., m]
            a[..., k, l] += sign * v[..., m]
    return a - a.swapaxes(-1, -2)


def expm_reference(a):
    """scipy's expm at a / 2^s of 2-norm at most 1, squared s times; at a 2-norm of 160, expm(a) is itself 5e-13 off."""
    s = max(0, math.ceil(math.log2(max(np.linalg.norm(a, 2), 1.0))))
    return np.linalg.matrix_power(expm(a / 2**s), 2**s)


@pytest.mark.parametrize("case", ["random", "zero", "planar_rotation", "self_dual", "equal_parts", "scale_30"])
def test_expm_skew_matches_per_matrix_expm(case):
    """Against scipy's expm; self_dual has h_- = 0 (its two angles are equal), equal_parts has t_+ = t_- (one angle 0)."""
    rng = np.random.default_rng(11)
    if case == "random":
        gens = np.concatenate([_skew_stack(rng, 8, 0.3), _skew_stack(rng, 8, 3.0)])
    elif case == "zero":
        gens = np.zeros((3, 4, 4))
    elif case == "planar_rotation":
        gens = np.zeros((4, 4, 4))
        for i, angle in enumerate((0.1, math.pi / 2, math.pi, 7.5)):
            gens[i, 0, 1], gens[i, 1, 0] = -angle, angle
    elif case == "self_dual":
        gens = _so4_generator(rng.uniform(-3.0, 3.0, (8, 3)), np.zeros((8, 3)))
    elif case == "equal_parts":
        x, y = rng.standard_normal((2, 8, 3))
        gens = _so4_generator(x, y * (np.linalg.norm(x, axis=1) / np.linalg.norm(y, axis=1))[:, None])
    else:
        gens = _skew_stack(rng, 8, 30.0)
    batched = expm_skew(gens)
    assert batched.shape == gens.shape and np.array_equal(expm_skew(gens[0]), batched[0])  # a lone (4, 4) too
    assert max(np.max(np.abs(u - expm_reference(a))) for u, a in zip(batched, gens)) <= 1e-13
    assert np.max(np.abs(batched @ batched.swapaxes(-1, -2) - np.eye(4))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(batched) - 1.0)) <= 1e-14


def discrepancy_per_sign(p, taus):
    """(max gap, tau at max) of the ansatz exp[A_pm(tau)] and exp(omega_rf tau J) exp[tau (M_pm(0) - omega_rf J)], the
    max over the taus, the basis initial states and the two halves, one sign and one tau at a time."""
    worst = np.zeros(len(taus))
    for sign in (1, -1):
        static = MB + (p.bz + sign * p.k) * MZ
        rotating = static + p.b0 * (math.cos(p.theta0) * MC + math.sin(p.theta0) * MS) - p.omega_rf * J
        for n, tau in enumerate(taus):
            int_cos, int_sin = phase_integrals(p, tau)
            ansatz = expm(tau * static + p.b0 * (int_cos * MC + int_sin * MS))
            exact = expm(p.omega_rf * tau * J) @ expm(tau * rotating)
            worst[n] = max(worst[n], np.max(np.linalg.norm(ansatz - exact, axis=0)))
    i = int(np.argmax(worst))
    return worst[i], taus[i]


# the largest gap lies on the + half at seed 3 and on the - half at seed 11
@pytest.mark.parametrize("seed", [3, 11])
def test_discrepancy_matches_per_sign_loop(seed):
    p = random_consistent_params(np.random.default_rng(seed))
    taus = np.linspace(0.0, TAU_STAR, 41)
    disc, (max_gap, tau_at_max) = propagator_discrepancy(p, taus), discrepancy_per_sign(p, taus)
    assert abs(disc.max_deviation - max_gap) <= 1e-12 and disc.tau_at_max == tau_at_max


def grid_search_theta0_loop(omega_hat, k, resolution, threshold, dtau):
    """(peak of each of x1..x8, earliest x8 crossing or inf) over a (bz, omega_rf, theta0) grid, one propagation per point."""
    taus = time_grid(3.0 * TAU_STAR, dtau)
    bounds = search.default_bounds(omega_hat)
    bz_axis, rf_axis = (np.linspace(*bounds[name], resolution) for name in ("bz", "omega_rf"))
    theta0_axis = np.linspace(0.0, 2.0 * math.pi, resolution)
    peaks, best_tau = np.full(8, -math.inf), math.inf
    for bz in bz_axis:
        if bz**2 > energy_shell(omega_hat, k):
            continue
        b0 = transverse_amplitude(omega_hat, k, bz)
        for omega_rf in rf_axis:
            for theta0 in theta0_axis:
                p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=theta0)
                states = exact_state_trajectory(p, E1, taus)
                peaks = np.maximum(peaks, states.max(axis=0))
                for i in np.nonzero(states[:, 7] >= threshold)[0][:1]:  # the first crossing row, if any
                    t = brentq(lambda t: exact_state_trajectory(p, E1, t)[7] - threshold, taus[i - 1], taus[i], xtol=1e-12)
                    best_tau = min(best_tau, t)
    return peaks, best_tau


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("omega_hat", [2.3, 3.0])
def test_grid_search_matches_theta0_loop(omega_hat, k):
    resolution, threshold, dtau = 5, 0.8, 5e-2
    # the half box (bz rows from the centre up, x5 and x7 of the other half read as -x5 and -x7) is the whole box,
    # searched for the reachable x8 and for x7, whose peak lies in the other half at k = -1
    res, probe = (assert_grid_is_the_whole_box(omega_hat, k, t, resolution, level, dtau=dtau)
                  for t, level in (("x8", threshold), ("x7", 0.5)))
    assert res.best_tau is not None and probe.best_tau is not None
    peaks, best_tau = grid_search_theta0_loop(omega_hat, k, resolution, threshold, dtau)
    values = np.array([res.peaks[f"x{i}"][0] for i in range(1, 9)])
    # the best over a continuous theta0 is at least the best over its grid, and x1, x3, x5, x7 do not depend on it
    assert np.all(values >= peaks - 1e-12) and np.max(np.abs(values[::2] - peaks[::2])) <= 1e-12
    # the gauge-optimal crossing comes no later than the crossing at any fixed theta0
    assert math.isfinite(best_tau) and res.best_tau <= best_tau + 1e-9


@pytest.mark.parametrize("resolution", [5, 6])
@pytest.mark.parametrize("target", ["x5", "x7"])
def test_mirrored_landscape_is_the_whole_box(target, resolution):
    # for x5 and x7 each evaluated pair off the centre row also lists its mirror (-bz, -omega_rf), whose
    # crossing and peak are those of -x5 and -x7 at the pair: every node of the box once, as evaluated alone
    res = assert_grid_is_the_whole_box(3.0, 1.0, target, resolution, 0.5, dtau=5e-2)
    crossings = [tau for _, _, tau, _, _ in res.landscape if tau is not None]
    assert crossings and res.best_tau == min(crossings)
