"""The batched routes against the one-at-a-time loops they replace.

``propagate_rk4``, ``schrodinger_propagate`` and ``expectation_trajectory`` build
their per-step matrices over runs of ``dynamics._CHUNK_STEPS`` steps.  The
oracles below are the plain one-step-at-a-time versions, kept here only as
references.  The grids cross a run boundary, end in a shortened last step, or
hold a single point.

``consistency_scan`` and ``invert_to_physical`` evaluate the boundary closed
forms over all samples at once, and ``expm_skew`` exponentiates stacks of skew
generators; their oracles are the scalar ``math`` loops and scipy's ``expm``.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from trispin.algebra import E1, TAU_STAR, build_hamiltonian, coherence_basis
from trispin.boundary import _SCAN_BRANCHES, consistency_scan, invert_to_physical
from trispin.dynamics import (
    _CHUNK_STEPS,
    _time_grid,
    build_M,
    build_M_half,
    expm_skew,
    integral_generator,
    propagate_rk4,
)
from trispin.hilbert import expectation_trajectory, schrodinger_propagate
from trispin.report import random_consistent_params

DTAU = 1e-3
# tau_end of each grid, by what the grid tests
GRIDS = {
    "one_point": 0.0,
    "one_full_run": _CHUNK_STEPS * DTAU,
    "run_boundary_then_short_last_step": (_CHUNK_STEPS + 10.5) * DTAU,
}
on_grids = pytest.mark.parametrize("tau_end", GRIDS.values(), ids=GRIDS.keys())


def rk4_per_step(p, x0, tau_end, dtau):
    """Vector RK4, one step per iteration, generators built one time at a time."""
    taus = _time_grid(tau_end, dtau)
    x = np.asarray(x0, dtype=float).copy()
    states = np.empty((len(taus), 8))
    states[0] = x
    for i in range(1, len(taus)):
        t = taus[i - 1]
        h = taus[i] - t
        m_left, m_mid, m_right = build_M(p, t), build_M(p, t + h / 2.0), build_M(p, t + h)
        k1 = m_left @ x
        k2 = m_mid @ (x + (h / 2.0) * k1)
        k3 = m_mid @ (x + (h / 2.0) * k2)
        k4 = m_right @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i] = x
    return taus, states


def gauss4_per_step(p, tau_end, dtau):
    """Fourth-order Magnus stepping of U, one eigendecomposition per iteration."""
    offset = math.sqrt(3.0) / 6.0
    taus = _time_grid(tau_end, dtau)
    unitaries = np.empty((len(taus), 8, 8), dtype=complex)
    u = np.eye(8, dtype=complex)
    unitaries[0] = u
    for i in range(1, len(taus)):
        t = taus[i - 1]
        h = taus[i] - t
        h1 = build_hamiltonian(p, t + (0.5 - offset) * h)
        h2 = build_hamiltonian(p, t + (0.5 + offset) * h)
        herm = (h / 2.0) * (h1 + h2) - 1j * (h * h * math.sqrt(3.0) / 12.0) * (h2 @ h1 - h1 @ h2)
        ev, vec = np.linalg.eigh(herm)
        u = (vec * np.exp(-1j * ev)) @ vec.conj().T @ u
        unitaries[i] = u
    return taus, unitaries


def expectations_by_trace(unitaries):
    """x_i = Tr[O_i U sx1 U^dag]/8 by a trace per operator and sample."""
    basis = np.stack(coherence_basis())
    w = np.einsum("tab,bc,tdc->tad", unitaries, basis[0], unitaries.conj())
    return np.einsum("iab,tab->ti", basis.conj(), w).real / 8.0


@pytest.fixture(scope="module")
def params():
    return random_consistent_params(np.random.default_rng(99))


@on_grids
def test_rk4_matches_per_step_loop(params, tau_end):
    traj = propagate_rk4(params, E1, tau_end, DTAU)
    taus, states = rk4_per_step(params, E1, tau_end, DTAU)
    assert np.array_equal(traj.taus, taus)
    assert np.max(np.abs(traj.states - states)) <= 1e-13


@on_grids
def test_gauss4_and_projection_match_per_step_loop(params, tau_end):
    ut = schrodinger_propagate(params, tau_end, DTAU)
    taus, unitaries = gauss4_per_step(params, tau_end, DTAU)
    assert np.array_equal(ut.taus, taus)
    assert np.max(np.abs(ut.unitaries - unitaries)) <= 1e-13
    assert np.max(np.abs(expectation_trajectory(ut) - expectations_by_trace(unitaries))) <= 1e-13


def test_grid_lengths_cover_run_boundaries():
    # the GRIDS above really have 0, _CHUNK_STEPS and _CHUNK_STEPS + 11 steps
    assert [len(_time_grid(t, DTAU)) - 1 for t in GRIDS.values()] == [0, _CHUNK_STEPS, _CHUNK_STEPS + 11]


@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
def test_generators_over_array_taus_equal_stacked_scalar_calls(params, shape):
    taus = np.random.default_rng(7).uniform(0.0, 5.0, size=shape)
    flat = np.ravel(taus)
    # omega_rf*tau crosses the 1e-2 switch to the phase-integral series inside (0, 5)
    slow = dataclasses.replace(params, omega_rf=4e-3)
    cases = (
        (lambda t: build_M(params, t), (8, 8)),
        (lambda t: build_M_half(params, t, 1), (4, 4)),
        (lambda t: build_M_half(params, t, -1), (4, 4)),
        (lambda t: build_hamiltonian(params, t), (8, 8)),
        (lambda t: integral_generator(params, t, 1), (4, 4)),
        (lambda t: integral_generator(params, t, -1), (4, 4)),
        (lambda t: integral_generator(slow, t, 1), (4, 4)),
    )
    for build, mat_shape in cases:
        batched = build(taus)
        assert batched.shape == shape + mat_shape
        stacked = np.array([build(float(t)) for t in flat]).reshape(shape + mat_shape)
        assert np.array_equal(batched, stacked)


def branch_residual_by_math(omega_hat, k_sign, branch, tau_star, b_target):
    """(|b - b_target|, |d|) of one branch's closed-form controls at one omega_hat, in scalar math.

    Only the closed form of the phase integrals: omega_rf*tau_star >= 1e-2 on
    the ranges scanned here, so the series branch is never needed.
    """
    root = math.sqrt(omega_hat**2 - 2.0)
    b0 = branch["b0_sign"] * k_sign * root
    omega_rf = branch["omega_sign"] * (4.0 / math.pi) * root
    theta0 = 0.5 * ((2 * branch["r"] + 1) * math.pi + branch["theta_sign"] * math.sqrt(3.0) * root)
    assert abs(omega_rf * tau_star) >= 1e-2
    th = omega_rf * tau_star + theta0
    int_cos = (math.sin(th) - math.sin(theta0)) / omega_rf
    int_sin = (math.cos(theta0) - math.cos(th)) / omega_rf
    return abs(-2.0 * b0 * int_sin - b_target), abs(2.0 * b0 * int_cos)


def scan_by_loop(omegas, k_sign):
    """Per-sample best max(|b - b_target|, |d|) over the branches and its branch; the first branch wins ties."""
    best, best_branch = [], []
    for w in omegas:
        res, br = math.inf, _SCAN_BRANCHES[0]
        for branch in _SCAN_BRANCHES:
            r = max(branch_residual_by_math(float(w), k_sign, branch, TAU_STAR, -math.pi * k_sign))
            if r < res:
                res, br = r, branch
        best.append(res)
        best_branch.append(br)
    return np.array(best), best_branch


@pytest.mark.parametrize("k_sign", [1, -1])
def test_scan_matches_per_sample_branch_loop(k_sign):
    scan = consistency_scan(1.5, 6.0, k_sign=k_sign, samples=2000)
    residuals, branches = scan_by_loop(scan.omegas, k_sign)
    assert np.max(np.abs(scan.residuals - residuals)) <= 1e-14
    # a consistent point refines the local minimum of the curve within one sample of it,
    # on the best branch of that sample
    assert len(scan.consistent) == 2
    spacing = scan.omegas[1] - scan.omegas[0]
    for cp in scan.consistent:
        near = np.flatnonzero(np.abs(scan.omegas - cp.omega_hat) <= spacing)
        i = near[np.argmin(residuals[near])]
        assert cp.branch == branches[i]


def inversion_roots_by_loop(omega_hat, tau_star, b_target, r_values=(0, 1, 2), lo=1e-3, hi=20.0):
    """Roots of 2*b0*tau_star*(-1)^r*sinc(omega_rf*tau_star/2) = -b_target by a per-point bracket and bisection."""
    grid = np.linspace(lo, hi, 10_000)
    roots = []
    for b0_sign in (1, -1):
        b0 = b0_sign * math.sqrt(omega_hat**2 - 2.0)
        for r in r_values:

            def f(om):
                z = om * tau_star / 2.0
                return 2.0 * b0 * tau_star * (-1.0) ** r * (math.sin(z) / z) + b_target

            vals = [f(float(om)) for om in grid]
            for i in range(len(grid) - 1):
                if vals[i] * vals[i + 1] >= 0.0:
                    continue
                x1, x2, f1 = float(grid[i]), float(grid[i + 1]), vals[i]
                while x2 - x1 > 1e-12:
                    xm = 0.5 * (x1 + x2)
                    fm = f(xm)
                    if f1 * fm <= 0.0:
                        x2 = xm
                    else:
                        x1, f1 = xm, fm
                roots.append((b0_sign, r, 0.5 * (x1 + x2)))
    return roots


@pytest.mark.parametrize("omega_hat, b_target", [(2.7, -math.pi), (2.2999713329530, -math.pi), (4.0, 3.0 * math.pi)])
def test_inversion_roots_equal_per_point_bracket(omega_hat, b_target):
    sols = invert_to_physical(omega_hat, 1.0, TAU_STAR, b_target)
    roots = [(s.branch["b0_sign"], s.branch["r"], s.params.omega_rf) for s in sols]
    assert roots and roots == inversion_roots_by_loop(omega_hat, TAU_STAR, b_target)


def _skew_stack(rng, n, scale):
    a = scale * rng.standard_normal((n, 4, 4))
    return a - a.swapaxes(-1, -2)


@pytest.mark.parametrize("case", ["random", "zero", "planar_rotation"])
def test_expm_skew_matches_per_matrix_expm(case):
    rng = np.random.default_rng(11)
    if case == "random":
        gens = np.concatenate([_skew_stack(rng, 8, 0.3), _skew_stack(rng, 8, 3.0)])
    elif case == "zero":
        gens = np.zeros((3, 4, 4))
    else:
        gens = np.zeros((4, 4, 4))
        for i, angle in enumerate((0.1, math.pi / 2, math.pi, 7.5)):
            gens[i, 0, 1], gens[i, 1, 0] = -angle, angle
    batched = expm_skew(gens)
    assert batched.shape == gens.shape
    assert max(np.max(np.abs(u - expm(a))) for u, a in zip(batched, gens)) <= 1e-13
