import math

import numpy as np
import pytest
from scipy.linalg import expm

from trispin.algebra import _PAULI, SECTORS, ControlParams, build_hamiltonian, sector_fields
from trispin.hilbert import _mapped_blocks, _sandwich_increments, closure_check, full_hilbert_trajectory
from trispin.report import dynamics_equivalence, random_consistent_params

TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi

FREE = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)


def adjoint(u):
    return u.conj().swapaxes(-1, -2)


def coherence_of_sectors(blocks):
    """G_s3 = U_(+,s3) U_(-,s3)^dag from the four sector blocks U_s, shape (..., 4, 2, 2) -> (..., 2, 2, 2)."""
    return blocks[..., :2, :, :] @ adjoint(blocks[..., 2:, :, :])


def test_step_map_is_the_su2_product(rng, su2):
    # g + D g = (1 + d+) g conj(1 + d-) is V+ G V-^dag under the convention U = q0 I - i q.sigma
    a, b, g = rng.normal(size=(3, 4, 2, 25))
    a, b, g = (q / np.linalg.norm(q, axis=0) for q in (a, b, g))
    e0 = np.eye(4)[:, :1, None]
    stepped = g + np.einsum("rcmn,cmn->rmn", _sandwich_increments(a - e0, b - e0), g)
    expected = su2(a.T) @ su2(g.T) @ adjoint(su2(b.T))
    assert np.max(np.abs(su2(stepped.T) - expected)) <= 1e-14


def test_one_step_is_the_closed_form_rotation(rng, su2):
    # V_s = cos|v| I - i sin|v|/|v| v.sigma with v from the fields at the two Gauss nodes, and G <- V+ G V-^dag
    p = random_consistent_params(rng)
    h = 0.05
    n1, n2 = sector_fields(p, h * (0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0))
    v = (h / 2.0) * (n1 + n2) + (h * h * math.sqrt(3.0) / 6.0) * np.cross(n2, n1)
    angle = np.linalg.norm(v, axis=-1)[:, None, None]
    v_sigma = np.einsum("sk,kab->sab", v, np.stack([_PAULI[a] for a in "xyz"]))
    step = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) / angle * v_sigma
    taus, rows = _mapped_blocks(p, h, h, np.eye(8))
    g = rows.array()
    assert len(taus) == 2
    assert np.max(np.abs(su2(g[1]) - coherence_of_sectors(step))) <= 1e-15


def test_constant_hamiltonian_is_exact(su2):
    # b0 = 0 freezes H; stepping must reproduce the blocks of exp(-i H tau)
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.7, theta0=0.3)
    g = _mapped_blocks(p, 1.5, 1e-3, np.eye(8))[1].array()
    exact = expm(-1j * 1.5 * build_hamiltonian(p, 0.0))
    blocks = exact[SECTORS[:, :, None], SECTORS[:, None, :]]
    assert np.max(np.abs(su2(g[-1]) - coherence_of_sectors(blocks))) < 1e-10


def test_zero_duration_is_identity(rng, su2):
    p = random_consistent_params(rng)
    taus, rows = _mapped_blocks(p, 0.0, 1e-3, np.eye(8))
    g = rows.array()
    assert len(taus) == 1
    assert g.shape == (1, 8)
    assert np.array_equal(su2(g[0]), np.broadcast_to(np.eye(2), (2, 2, 2)))


def test_unitarity_and_determinant(rng, su2):
    p = random_consistent_params(rng)
    blocks = su2(_mapped_blocks(p, 2.0, 1e-3, np.eye(8))[1].array())
    assert np.max(np.abs(adjoint(blocks) @ blocks - np.eye(2))) <= 1e-9
    # every step is in SU(2), so is every G
    assert np.max(np.abs(np.linalg.det(blocks) - 1.0)) < 1e-9


def test_zero_field_blocks_precess_freely(su2):
    # b0 = bz = 0, k = 1: n_s = (0, 0, 2), 0, 0 and (0, 0, -2) in sectors (+,+), (+,-), (-,+), (-,-), so
    # U_s = exp(-2i tau sz), I, I, exp(2i tau sz) and both G_s3 are exp(-2i tau sz)
    p = ControlParams(k=1.0, omega_hat=math.sqrt(2.0), b0=0.0, bz=0.0, omega_rf=0.7, theta0=0.3)
    taus, rows = _mapped_blocks(p, 1.0, 1e-2, np.eye(8))
    g = rows.array()
    phase = np.exp(-2j * taus)[:, None]
    expected = np.stack([phase, 0 * phase, 0 * phase, phase.conj()], axis=-1).reshape(-1, 1, 2, 2)
    assert np.max(np.abs(su2(g) - expected)) <= 1e-14
    assert np.all(np.isfinite(full_hilbert_trajectory(p, 1.0, 1e-2).states))


def test_rejects_bad_step_and_scheme(rng):
    p = random_consistent_params(rng)
    with pytest.raises(ValueError):
        _mapped_blocks(p, 1.0, -1e-3, np.eye(8))


def test_expectations_initial_state():
    x = full_hilbert_trajectory(FREE, 0.0, 1e-3).states
    assert np.allclose(x, [np.eye(8)[0]])


def test_expectations_free_precession():
    # matches the reduced closed form x1 = cos 2 tau
    full = full_hilbert_trajectory(FREE, 2.0, 1e-3)
    assert np.max(np.abs(full.states[:, 0] - np.cos(2.0 * full.taus))) < 1e-9
    assert np.max(np.abs(full.states[:, 2] - np.sin(2.0 * full.taus))) < 1e-9


def test_expectation_norm_bounded(rng):
    p = random_consistent_params(rng)
    xs = full_hilbert_trajectory(p, 2.0, 1e-3).states
    assert np.max(np.sum(xs**2, axis=1)) <= 1.0 + 1e-9


def test_closure_free_precession_row():
    assert closure_check(FREE, [0.0]) <= 1e-14
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
        assert closure_check(p, rng.uniform(0.0, 5.0, size=10)) <= 1e-12


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
