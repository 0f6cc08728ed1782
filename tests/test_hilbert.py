import math

import numpy as np
import pytest
from scipy.linalg import expm

from trispin.algebra import _PAULI, SECTORS, ControlParams, build_hamiltonian, sector_fields
from trispin.hilbert import (
    _hamilton,
    _left,
    closure_check,
    expectation_trajectory,
    full_hilbert_trajectory,
    schrodinger_propagate,
)
from trispin.report import dynamics_equivalence, random_consistent_params

TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi

FREE = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)


def unitarity_defect(unitaries):
    """max over samples and sectors of max-entry |U_s^dag U_s - I|."""
    return float(np.max(np.abs(unitaries.conj().swapaxes(-1, -2) @ unitaries - np.eye(2))))


def test_hamilton_product_is_the_su2_product(rng, su2):
    # the quaternion convention U = q0 I - i q.sigma turns matrix products into Hamilton products
    a, b = rng.normal(size=(2, 50, 4))
    product = su2(a) @ su2(b)
    assert np.max(np.abs(su2((_left(a) @ b[..., None])[..., 0]) - product)) <= 1e-14
    assert np.max(np.abs(su2(_hamilton(a, b)) - product)) <= 1e-14


def test_one_step_is_the_closed_form_rotation(rng, su2):
    # V = cos|v| I - i sin|v|/|v| v.sigma with v from the fields at the two Gauss nodes
    p = random_consistent_params(rng)
    h = 0.05
    n1, n2 = sector_fields(p, h * (0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0))
    v = (h / 2.0) * (n1 + n2) + (h * h * math.sqrt(3.0) / 6.0) * np.cross(n2, n1)
    angle = np.linalg.norm(v, axis=-1)[:, None, None]
    v_sigma = np.einsum("sk,kab->sab", v, np.stack([_PAULI[a] for a in "xyz"]))
    step = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) / angle * v_sigma
    ut = schrodinger_propagate(p, h, h)
    assert len(ut.taus) == 2
    assert np.max(np.abs(su2(ut.quaternions[1]) - step)) <= 1e-15


def test_constant_hamiltonian_is_exact(su2):
    # b0 = 0 freezes H; stepping must reproduce exp(-i H tau)
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.7, theta0=0.3)
    ut = schrodinger_propagate(p, 1.5, 1e-3)
    exact = expm(-1j * 1.5 * build_hamiltonian(p, 0.0))
    assert np.max(np.abs(su2(ut.quaternions[-1]) - exact[SECTORS[:, :, None], SECTORS[:, None, :]])) < 1e-10


def test_zero_duration_is_identity(rng, su2):
    p = random_consistent_params(rng)
    ut = schrodinger_propagate(p, 0.0, 1e-3)
    assert len(ut.taus) == 1
    assert ut.quaternions.shape == (1, 4, 4)
    assert np.array_equal(su2(ut.quaternions[0]), np.broadcast_to(np.eye(2), (4, 2, 2)))


def test_unitarity_and_determinant(rng, su2):
    p = random_consistent_params(rng)
    unitaries = su2(schrodinger_propagate(p, 2.0, 1e-3).quaternions)
    assert unitarity_defect(unitaries) <= 1e-9
    # per sector block: every step is in SU(2)
    assert np.max(np.abs(np.linalg.det(unitaries) - 1.0)) < 1e-9


def test_zero_field_sectors_stay_identity(su2):
    # b0 = bz = 0, k = 1: n = 0 in sectors (+,-) and (-,+), where every step is exp(0)
    p = ControlParams(k=1.0, omega_hat=math.sqrt(2.0), b0=0.0, bz=0.0, omega_rf=0.7, theta0=0.3)
    ut = schrodinger_propagate(p, 1.0, 1e-2)
    assert np.all(np.isfinite(ut.quaternions))
    assert np.array_equal(su2(ut.quaternions[:, 1:3]), np.broadcast_to(np.eye(2), (len(ut.taus), 2, 2, 2)))
    assert np.all(np.isfinite(expectation_trajectory(ut)))


def test_rejects_bad_step_and_scheme(rng):
    p = random_consistent_params(rng)
    with pytest.raises(ValueError):
        schrodinger_propagate(p, 1.0, -1e-3)


def test_expectations_initial_state():
    x = expectation_trajectory(schrodinger_propagate(FREE, 0.0, 1e-3))
    assert np.allclose(x, [np.eye(8)[0]])


def test_expectations_free_precession():
    # matches the reduced closed form x1 = cos 2 tau
    ut = schrodinger_propagate(FREE, 2.0, 1e-3)
    xs = expectation_trajectory(ut)
    assert np.max(np.abs(xs[:, 0] - np.cos(2.0 * ut.taus))) < 1e-9
    assert np.max(np.abs(xs[:, 2] - np.sin(2.0 * ut.taus))) < 1e-9


def test_expectation_norm_bounded(rng):
    p = random_consistent_params(rng)
    ut = schrodinger_propagate(p, 2.0, 1e-3)
    xs = expectation_trajectory(ut)
    assert np.max(np.sum(xs**2, axis=1)) <= 1.0 + 1e-9


def test_closure_free_precession_row():
    res = closure_check(FREE, [0.0])
    assert res.max_residual <= 1e-14
    # the only row-1 coupling is to x3 with coefficient -2 (checked inside closure
    # via the generator); verify the generator row itself as the hand oracle
    from trispin.dynamics import build_M

    row = build_M(FREE, 0.0)[0]
    expected = np.zeros(8)
    expected[2] = -2.0
    assert np.allclose(row, expected)


def test_closure_random_parameters(rng):
    for _ in range(3):
        p = random_consistent_params(rng)
        res = closure_check(p, rng.uniform(0.0, 5.0, size=10))
        assert res.max_residual <= 1e-12


def test_closure_coefficient_matrix_skew(rng):
    # Hermiticity of H and the basis makes the projected coefficient matrix skew;
    # it equals the reduced generator, which is skew by construction
    from trispin.dynamics import build_M

    p = random_consistent_params(rng)
    m = build_M(p, 1.234)
    assert np.max(np.abs(m + m.T)) <= 1e-14


def test_cross_validate_free_case():
    assert dynamics_equivalence([FREE], 2.0, 1e-4)[0] <= 1e-10


def test_cross_validate_consistent_params(rng):
    p = random_consistent_params(rng)
    assert dynamics_equivalence([p], TAU_STAR, 1e-4)[0] <= 1e-8


def test_cross_validate_first_sample_identical(rng):
    p = random_consistent_params(rng)
    full = full_hilbert_trajectory(p, 0.2, 1e-3)
    assert np.max(np.abs(full.states[0] - np.eye(8)[0])) < 1e-14
    assert full.method == "full-hilbert"
