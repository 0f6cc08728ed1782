"""The batched time-grid integrators against the per-step loops they replace.

``propagate_rk4``, ``schrodinger_propagate`` and ``expectation_trajectory`` build
their per-step matrices over runs of ``dynamics._CHUNK_STEPS`` steps.  The
oracles below are the plain one-step-at-a-time versions, kept here only as
references.  The grids cross a run boundary, end in a shortened last step, or
hold a single point.
"""

import math

import numpy as np
import pytest

from trispin.algebra import E1, build_hamiltonian, coherence_basis
from trispin.dynamics import _CHUNK_STEPS, _time_grid, build_M, build_M_half, propagate_rk4
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
    cases = (
        (lambda t: build_M(params, t), (8, 8)),
        (lambda t: build_M_half(params, t, 1), (4, 4)),
        (lambda t: build_M_half(params, t, -1), (4, 4)),
        (lambda t: build_hamiltonian(params, t), (8, 8)),
    )
    for build, mat_shape in cases:
        batched = build(taus)
        assert batched.shape == shape + mat_shape
        stacked = np.array([build(float(t)) for t in flat]).reshape(shape + mat_shape)
        assert np.array_equal(batched, stacked)
