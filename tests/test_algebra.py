import math

import numpy as np
import pytest

from trispin.algebra import (
    _PAULI,
    ControlParams,
    build_hamiltonian,
    coherence_basis,
    embed3,
    energy_residual,
    transverse_amplitude,
)


def pauli(axis):
    """The package's 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    return _PAULI[axis]


def test_pauli_z_diagonal():
    assert np.allclose(pauli("z"), np.diag([1.0, -1.0]))


def test_pauli_squares_to_identity():
    for axis in "xyz":
        assert np.allclose(pauli(axis) @ pauli(axis), np.eye(2))


def test_pauli_traceless():
    for axis in "xyz":
        assert abs(np.trace(pauli(axis))) == 0.0


def test_embed3_single_site_norm():
    op = embed3(pauli("x"), None, None)
    assert abs(np.trace(op @ op) - 8.0) < 1e-14


def test_embed3_three_site_norm():
    op = embed3(pauli("y"), pauli("y"), pauli("z"))
    assert abs(np.trace(op @ op) - 8.0) < 1e-14


def test_embed3_involution():
    op = embed3(pauli("z"), pauli("z"), None)
    assert np.max(np.abs(op @ op - np.eye(8))) < 1e-14


def test_basis_order_first_and_last():
    basis = coherence_basis()
    assert np.allclose(basis[0], embed3(pauli("x"), None, None))
    assert np.allclose(basis[7], embed3(pauli("y"), pauli("y"), pauli("z")))


def test_basis_orthogonality_all_64_traces():
    # independent oracle: evaluate every pairwise trace directly
    basis = coherence_basis()
    gram = np.array([[np.trace(oi @ oj).real / 8.0 for oj in basis] for oi in basis])
    assert np.max(np.abs(gram - np.eye(8))) < 1e-14


def test_basis_hermitian_traceless_unitary():
    for op in coherence_basis():
        assert np.max(np.abs(op - op.conj().T)) < 1e-14
        assert abs(np.trace(op)) < 1e-14
        assert np.max(np.abs(op @ op.conj().T - np.eye(8))) < 1e-14


def _params(k=1.0, omega_hat=2.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0):
    return ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=theta0)


def test_hamiltonian_control_off():
    p = _params(k=1.0, b0=0.0, bz=0.0)
    expected = embed3(pauli("z"), pauli("z"), None) + embed3(None, pauli("z"), pauli("z"))
    assert np.max(np.abs(build_hamiltonian(p, 0.7) - expected)) < 1e-14


def test_hamiltonian_norm_matches_energy_scale():
    # for an energy-consistent set, Tr[H^2]/8 equals omega_hat^2
    p = _params(k=1.0, omega_hat=2.0, b0=math.sqrt(2.0), bz=0.0, omega_rf=1.3, theta0=0.4)
    assert abs(energy_residual(p)) < 1e-12
    h = build_hamiltonian(p, 1.9)
    assert abs(np.trace(h @ h).real / 8.0 - p.omega_hat**2) < 1e-12


def test_hamiltonian_field_components_at_zero_phase():
    p = _params(b0=1.0, bz=0.0, omega_rf=2.0, theta0=0.0)
    h = build_hamiltonian(p, 0.0)
    x2 = embed3(None, pauli("x"), None)
    y2 = embed3(None, pauli("y"), None)
    assert abs(np.trace(h @ x2).real / 8.0 - 1.0) < 1e-14
    assert abs(np.trace(h @ y2).real / 8.0) < 1e-14


def test_hamiltonian_hermitian_and_norm_phase_independent(rng):
    for _ in range(5):
        p = _params(
            k=rng.uniform(-2, 2),
            b0=rng.uniform(0, 3),
            bz=rng.uniform(-2, 2),
            omega_rf=rng.uniform(-4, 4),
            theta0=rng.uniform(0, 2 * math.pi),
        )
        norm0 = 1.0 + p.k**2 + p.b0**2 + p.bz**2
        for tau in rng.uniform(0, 5, size=3):
            h = build_hamiltonian(p, tau)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14
            assert abs(np.trace(h @ h).real / 8.0 - norm0) < 1e-12


def test_energy_residual_examples():
    assert abs(energy_residual(_params(k=1.0, omega_hat=2.0, b0=math.sqrt(2.0)))) < 1e-14
    assert abs(energy_residual(_params(k=1.0, omega_hat=math.sqrt(2.0), b0=0.0))) < 1e-14
    assert abs(energy_residual(_params(k=0.0, omega_hat=math.sqrt(2.0), b0=1.0))) < 1e-14
    # direct arithmetic: 1 + 1 - (1 - 1) = 2
    assert abs(energy_residual(_params(k=0.0, omega_hat=1.0, b0=1.0, bz=1.0)) - 2.0) < 1e-14


def test_transverse_amplitude_on_shell():
    b0 = transverse_amplitude(2.5, 1.0, bz=0.5)
    assert abs(b0**2 + 0.25 - (2.5**2 - 2.0)) < 1e-12
    with pytest.raises(ValueError, match="no real transverse amplitude"):
        transverse_amplitude(1.2, 1.0)


def test_params_roundtrip_dict():
    p = _params(k=-1.0, omega_hat=2.3, b0=1.1, bz=-0.2, omega_rf=3.3, theta0=0.9)
    assert ControlParams.from_dict(p.to_dict()) == p


def test_params_from_dict_rejects_bool():
    # float(True) is 1.0; a JSON true in a parameter file is no number
    data = _params(k=-1.0, omega_hat=2.3, b0=1.1, bz=-0.2, omega_rf=3.3, theta0=0.9).to_dict()
    with pytest.raises(ValueError, match="invalid bz True"):
        ControlParams.from_dict({**data, "bz": True})
