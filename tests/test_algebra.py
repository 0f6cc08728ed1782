import math
from dataclasses import asdict

import numpy as np
import pytest

from trispin.algebra import PAULI, ControlParams, build_hamiltonian, coherence_basis, embed3, energy_residual, energy_shell
from trispin.algebra import transverse_amplitude


def pauli(axis):
    """The package's 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    return PAULI[axis]


def test_basis_order_first_and_last():
    # the package's Pauli matrices are the textbook ones, and the basis is built from them
    assert [pauli(axis).tolist() for axis in "xyz"] == [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    basis = coherence_basis()
    assert np.array_equal(basis[0], embed3(pauli("x"), None, None))
    assert np.array_equal(basis[7], embed3(pauli("y"), pauli("y"), pauli("z")))


def test_basis_orthogonality_all_64_traces():
    # independent oracle: evaluate every pairwise trace directly
    gram = np.array([[np.trace(oi @ oj).real / 8.0 for oj in coherence_basis()] for oi in coherence_basis()])
    assert np.max(np.abs(gram - np.eye(8))) < 1e-14


def test_basis_hermitian_traceless_unitary():
    # to the bit, so each squares to the identity: the basis and the first bond sz1 sz2 of H
    for op in [*coherence_basis(), embed3(pauli("z"), pauli("z"), None)]:
        assert np.array_equal(op, op.conj().T) and np.trace(op) == 0.0 and np.array_equal(op @ op.conj().T, np.eye(8))


def _params(k=1.0, omega_hat=2.0, b0=0.0, bz=0.0, omega_rf=0.0, theta0=0.0):
    return ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=theta0)


def test_hamiltonian_control_off():
    expected = embed3(pauli("z"), pauli("z"), None) + embed3(None, pauli("z"), pauli("z"))
    assert np.max(np.abs(build_hamiltonian(_params(k=1.0, b0=0.0, bz=0.0), 0.7) - expected)) < 1e-14


def test_hamiltonian_norm_matches_energy_scale():
    # for an energy-consistent set, Tr[H^2]/8 equals omega_hat^2
    p = _params(k=1.0, omega_hat=2.0, b0=math.sqrt(2.0), bz=0.0, omega_rf=1.3, theta0=0.4)
    h = build_hamiltonian(p, 1.9)
    assert abs(energy_residual(p)) < 1e-12 and abs(np.trace(h @ h).real / 8.0 - p.omega_hat**2) < 1e-12


def test_hamiltonian_field_components_at_zero_phase():
    p = _params(b0=1.0, bz=0.0, omega_rf=2.0, theta0=0.0)
    h = build_hamiltonian(p, 0.0)
    x2, y2 = embed3(None, pauli("x"), None), embed3(None, pauli("y"), None)
    assert abs(np.trace(h @ x2).real / 8.0 - 1.0) < 1e-14 and abs(np.trace(h @ y2).real / 8.0) < 1e-14


def test_hamiltonian_hermitian_and_norm_phase_independent(rng):
    for _ in range(5):
        p = _params(k=rng.uniform(-2, 2), b0=rng.uniform(0, 3), bz=rng.uniform(-2, 2), omega_rf=rng.uniform(-4, 4),
                    theta0=rng.uniform(0, 2 * math.pi))
        norm0 = 1.0 + p.k**2 + p.b0**2 + p.bz**2
        for tau in rng.uniform(0, 5, size=3):
            h = build_hamiltonian(p, tau)
            assert np.max(np.abs(h - h.conj().T)) < 1e-14 and abs(np.trace(h @ h).real / 8.0 - norm0) < 1e-12


def test_energy_residual_examples():
    assert abs(energy_residual(_params(k=1.0, omega_hat=2.0, b0=math.sqrt(2.0)))) < 1e-14
    assert abs(energy_residual(_params(k=1.0, omega_hat=math.sqrt(2.0), b0=0.0))) < 1e-14
    assert abs(energy_residual(_params(k=0.0, omega_hat=math.sqrt(2.0), b0=1.0))) < 1e-14
    # direct arithmetic: 1 + 1 - (1 - 1) = 2
    assert abs(energy_residual(_params(k=0.0, omega_hat=1.0, b0=1.0, bz=1.0)) - 2.0) < 1e-14


def test_transverse_amplitude_on_shell():
    assert abs(transverse_amplitude(2.5, 1.0, bz=0.5) ** 2 + 0.25 - (2.5**2 - 2.0)) < 1e-12
    with pytest.raises(ValueError, match="no real transverse amplitude"):
        transverse_amplitude(1.2, 1.0)


@pytest.mark.parametrize("omega_hat", [-2.7, 0.0])
def test_energy_shell_refuses_a_scale_that_is_not_positive(omega_hat):
    # -2.7 has the shell of 2.7, but a negative scale flips the search box and the report's omega_hat
    with pytest.raises(ValueError, match=r"^omega_hat must be positive, got (-2\.7|0)$"):
        energy_shell(omega_hat, 1.0)


SOME = _params(k=-1.0, omega_hat=2.3, b0=1.1, bz=-0.2, omega_rf=3.3, theta0=0.9)


def test_params_roundtrip_dict():
    assert ControlParams.from_dict(asdict(SOME)) == SOME


def test_params_from_dict_rejects_bool():
    # float(True) is 1.0; a JSON true in a parameter file is no number
    with pytest.raises(ValueError, match="invalid bz True"):
        ControlParams.from_dict({**asdict(SOME), "bz": True})
