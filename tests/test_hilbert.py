import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from trispin import dynamics
from trispin.algebra import PAULI, E1, SECTORS, TAU_STAR, ControlParams, build_hamiltonian, coherence_basis, embed3
from trispin.algebra import sector_fields, transverse_amplitude
from trispin.dynamics import MZ, _skew, build_M, mode_states
from trispin.hilbert import _HAMILTON, _PROJECTION, closure_check, full_hilbert_trajectory, sector_table
from trispin.report import random_consistent_params

FREE = ControlParams(k=0.0, omega_hat=1.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0)


def adjoint(u):
    return u.conj().swapaxes(-1, -2)


def coherence_of_sectors(blocks):
    """G_s3 = U_(+,s3) U_(-,s3)^dag from the four sector blocks U_s, shape (..., 4, 2, 2) -> (..., 2, 2, 2)."""
    return blocks[..., :2, :, :] @ adjoint(blocks[..., 2:, :, :])


def quaternions(states):
    """The quaternions (g_+, g_-) of the blocks G_s3 from x1..x8: _PROJECTION @ _PROJECTION.T is I/2."""
    return 2.0 * states @ _PROJECTION.T


def expectations(unitaries):
    """x_i = Tr[O_i U sx1 U^dag]/8 of dense 8x8 unitaries, shape (..., 8, 8) -> (..., 8)."""
    basis = np.stack(coherence_basis())
    return np.einsum("iab,...ba->...i", basis, unitaries @ basis[0] @ adjoint(unitaries)).real / 8.0


def test_hamilton_table_is_the_su2_product(rng, su2):
    # component r of unit_i unit_j: the quaternion product is the matrix product under U = q0 I - i q.sigma
    a, b = rng.normal(size=(2, 25, 4))
    product = np.einsum("ni,nj,ijr->nr", a, b, _HAMILTON)
    assert np.max(np.abs(su2(product) - su2(a) @ su2(b))) <= 1e-14


def test_the_blocks_frame_turn_projects_onto_the_reduced_one(rng, su2):
    # Q G Q^dag, Q = exp(-i phi sz/2), turns each block's (g1, g2) plane by phi: generator k, d(g1, g2)/dphi =
    # (-g2, g1); projected, k is the turn of the (x2, x4) and (x6, x8) planes that mode_states applies, exactly
    k = np.kron(np.eye(2), _skew(1, 2, -1.0))
    assert np.array_equal(k @ _PROJECTION, _PROJECTION @ np.kron(np.eye(2), dynamics.J))
    g = rng.normal(size=(5, 8))
    for phi in (0.3, 2.0, -4.0):
        q = expm(-0.5j * phi * PAULI["z"])
        turn = np.eye(8) + np.sin(phi) * k + (1.0 - np.cos(phi)) * k @ k  # exp(phi k), as k^3 = -k
        assert np.max(np.abs(su2(g @ turn.T) - q @ su2(g) @ adjoint(q))) <= 1e-14


def test_one_step_is_the_closed_form_rotation(rng, su2):
    # U_s(h) = Q_h exp(-i h m_s.sigma), m_s = n_s(0) - (omega_rf/2) z and Q_h = exp(-i omega_rf h sz/2), and
    # G_s3 = U_(+,s3) U_(-,s3)^dag, each 2x2 factor by scipy's expm
    p, h = random_consistent_params(rng), 0.05
    m = sector_fields(p, 0.0) - [0.0, 0.0, p.omega_rf / 2.0]
    pauli = np.stack([PAULI[a] for a in "xyz"])
    q = expm(-0.5j * p.omega_rf * h * PAULI["z"])
    blocks = np.stack([q @ expm(-1j * h * np.einsum("k,kab->ab", m_s, pauli)) for m_s in m])
    traj = full_hilbert_trajectory(p, h, h)
    assert len(traj.taus) == 2 and np.max(np.abs(su2(quaternions(traj.states[1])) - coherence_of_sectors(blocks))) <= 1e-15


def test_constant_hamiltonian_is_exact(su2):
    # b0 = 0 freezes H; the sector route must reproduce the blocks of exp(-i H tau), to rounding
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.7, theta0=0.3)
    g = quaternions(full_hilbert_trajectory(p, 1.5, 1e-3).states)
    exact = expm(-1j * 1.5 * build_hamiltonian(p, 0.0))
    blocks = exact[SECTORS[:, :, None], SECTORS[:, None, :]]
    assert np.max(np.abs(su2(g[-1]) - coherence_of_sectors(blocks))) <= 1e-14


def test_zero_duration_is_identity(rng):
    traj = full_hilbert_trajectory(random_consistent_params(rng), 0.0, 1e-3)
    assert len(traj.taus) == 1 and traj.states.shape == (1, 8) and np.max(np.abs(traj.states[0] - E1)) <= 1e-16


def test_unitarity_and_determinant(rng, su2):
    # every U_s is in SU(2), so is every G; as the rows are (g_+, g_-)/2 projected, a unit determinant of both blocks is
    # a unit norm of the row
    blocks = su2(quaternions(full_hilbert_trajectory(random_consistent_params(rng), 2.0, 1e-3).states))
    assert np.max(np.abs(adjoint(blocks) @ blocks - np.eye(2))) <= 1e-14
    assert np.max(np.abs(np.linalg.det(blocks) - 1.0)) <= 1e-14


def test_zero_field_blocks_precess_freely(su2):
    # b0 = bz = 0, k = 1: n_s = (0, 0, 2), 0, 0 and (0, 0, -2) in sectors (+,+), (+,-), (-,+), (-,-), so
    # U_s = exp(-2i tau sz), I, I, exp(2i tau sz) and both G_s3 are exp(-2i tau sz)
    p = ControlParams(k=1.0, omega_hat=math.sqrt(2.0), b0=0.0, bz=0.0, omega_rf=0.7, theta0=0.3)
    traj = full_hilbert_trajectory(p, 1.0, 1e-2)
    phase = np.exp(-2j * traj.taus)[:, None]
    expected = np.stack([phase, 0 * phase, 0 * phase, phase.conj()], axis=-1).reshape(-1, 1, 2, 2)
    assert np.max(np.abs(su2(quaternions(traj.states)) - expected)) <= 1e-14


def test_rejects_bad_step_and_scheme(rng):
    with pytest.raises(ValueError):
        full_hilbert_trajectory(random_consistent_params(rng), 1.0, -1e-3)


def test_sector_route_matches_dense_expm():
    # static H (b0 = 0) in the lab frame: U = exp(-i tau H); a rotating H: U = exp(-i omega_rf tau Sz2/2)
    # exp(-i tau (H(0) - (omega_rf/2) Sz2)), by scipy's expm of the dense 8x8 matrices (seen: 1.6e-15)
    sz2, rng, taus = embed3(None, PAULI["z"], None), np.random.default_rng(21), np.linspace(0.0, 3.0 * TAU_STAR, 13)
    static = ControlParams(k=-0.6, omega_hat=2.0, b0=0.0, bz=1.3, omega_rf=2.5, theta0=0.4)
    for p in [static] + [random_consistent_params(rng) for _ in range(4)]:
        h0 = build_hamiltonian(p, 0.0)
        if p.b0 == 0.0:
            u = np.stack([expm(-1j * t * h0) for t in taus])
        else:
            u = np.stack([expm(-0.5j * p.omega_rf * t * sz2) @ expm(-1j * t * (h0 - 0.5 * p.omega_rf * sz2)) for t in taus])
        assert np.max(np.abs(mode_states(*sector_table(p), taus, p.omega_rf) - expectations(u))) <= 1e-13


def test_rabi_angles_at_tau_star():
    # the co-rotating (0, 0) control: k = 1, b0 = 2/sqrt(3), omega_rf = 2 bz, so m_s has z parts (2, 0, 0, -2) and
    # rates (4, 2, 2, 4)/sqrt(3): at tau* the detuned sectors make whole turns and the resonant ones flip spin 2
    bz = 1.3987619
    for theta0 in (0.0, 0.7, 2.0, 4.5):
        p = ControlParams(k=1.0, omega_hat=math.sqrt(2.0 + 4.0 / 3.0 + bz**2), b0=2.0 / math.sqrt(3.0), bz=bz,
                          omega_rf=2.0 * bz, theta0=theta0)
        table, w = sector_table(p)
        rates = np.concatenate([w[:2] + w[2:], w[:2] - w[2:]]) / 2.0  # r_s in the sector order
        assert np.max(np.abs(2.0 * rates * TAU_STAR - [2.0 * math.pi, math.pi, math.pi, 2.0 * math.pi])) <= 1e-14
        x = mode_states(table, w, np.array([TAU_STAR]), p.omega_rf)[0]
        assert abs(math.hypot(x[5], x[7]) - 1.0) <= 1e-14


def test_parity_rule_of_the_labels():
    # on the resonant line (delta = 0, k = 1) label (m, n) sets tau = (pi/4) sqrt((2m+1)(2n+1)) and
    # b0 = (n - m) pi/(2 tau): the resonant sectors turn by (n - m) pi and the detuned ones by (m + n + 1) pi, so
    # x6, x8 transfer exactly when m + n is odd
    for m, n in ((m, n) for n in range(1, 8) for m in range(n)):
        tau = 0.25 * math.pi * math.sqrt((2 * m + 1) * (2 * n + 1))
        b0 = (n - m) * math.pi / (2.0 * tau)
        p = ControlParams(k=1.0, omega_hat=math.sqrt(2.0 + b0**2 + 1.0), b0=b0, bz=1.0, omega_rf=2.0, theta0=0.3)
        x = mode_states(*sector_table(p), np.array([tau]), p.omega_rf)[0]
        assert abs(math.hypot(x[5], x[7]) - 1.0) <= 1e-13 if (m + n) % 2 else math.hypot(x[5], x[7]) < 0.9, (m, n)


def test_expectations_initial_state():
    assert np.allclose(full_hilbert_trajectory(FREE, 0.0, 1e-3).states, [np.eye(8)[0]])


def test_expectations_free_precession():
    # matches the reduced closed form x1 = cos 2 tau, x3 = sin 2 tau, and the rest 0
    full = full_hilbert_trajectory(FREE, 2.0, 1e-3)
    want = np.zeros_like(full.states)
    want[:, 0], want[:, 2] = np.cos(2.0 * full.taus), np.sin(2.0 * full.taus)
    assert np.max(np.abs(full.states - want)) <= 1e-14


NO_FIELD = ControlParams(k=1.0, omega_hat=2.5, b0=0.0, bz=0.0, omega_rf=1.7, theta0=0.6)


# with no field every projected trace is a sum of integers, so build_M is the projection to the bit; at the quarter
# phase the field lies along y2 but for cos(pi/2) = 6e-17.  Row 1 is free precession, dx1/dtau = -2 x3, and 2Q = k*MZ
# whatever the field
@pytest.mark.parametrize("p, tau, tol", [(FREE, 0.0, 0.0), (NO_FIELD, 1.3, 0.0), (replace(NO_FIELD, k=-1.0), 1.3, 0.0),
                                         (replace(NO_FIELD, b0=1.0, omega_rf=1.0, theta0=0.0), 0.5 * math.pi, 1e-14)],
                         ids=["free", "no_field", "no_field_k_minus", "quarter_phase"])
def test_closure_at_hand_controls(p, tau, tol):
    assert closure_check(p, [tau]) <= tol and np.array_equal(build_M(p, tau)[0], -2.0 * np.eye(8)[2])
    assert np.array_equal(build_M(replace(NO_FIELD, k=p.k, b0=transverse_amplitude(2.5, p.k, 0.0)), 0.4)[:4, 4:], p.k * MZ)


def test_closure_random_parameters(rng):
    for _ in range(3):
        p = random_consistent_params(rng)
        assert closure_check(p, rng.uniform(0.0, 5.0, size=10)) <= 1e-12


def _closure_by_einsum(p, tau_samples):
    """closure_check with its projection written as two einsums: the reference its GEMMs keep the bits of."""
    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    basis = np.stack(coherence_basis())
    h = build_hamiltonian(p, taus)[:, None]
    comm = 1j * (h @ basis - basis @ h)
    coeffs = np.einsum("jab,niab->nij", basis.conj(), comm).real / 8.0
    remainder = comm - np.einsum("nij,jab->niab", coeffs, basis)
    return max(float(np.max(np.abs(coeffs - build_M(p, taus)), initial=0.0)), float(np.max(np.abs(remainder), initial=0.0)))


def test_closure_gemms_keep_the_einsum_bits():
    # verify's closure_residual is the largest of these over 10 random sets of 10 taus each
    rng = np.random.default_rng(17)
    for _ in range(200):
        p, taus = random_consistent_params(rng), rng.uniform(0.0, 5.0, size=10)
        assert closure_check(p, taus) == _closure_by_einsum(p, taus)
    assert closure_check(FREE, []) == _closure_by_einsum(FREE, []) == 0.0
