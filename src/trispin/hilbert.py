"""Independent validation of the reduced dynamics in the full three-qubit space.

The evolution operator is integrated step by step with an exactly unitary
fourth-order Magnus rule, the step unitaries built in batches over the time
grid, and the coherence expectation values are projected out of the propagated
density operator; ``report.dynamics_equivalence`` compares it
with the reduced 8-vector dynamics.  ``closure_check`` verifies, entry by entry,
that the commutator action of the Hamiltonian on the operator basis reproduces
the reduced generator and stays inside the 8-dimensional span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ControlParams, build_hamiltonian, coherence_basis
from .dynamics import _CHUNK_STEPS, Trajectory, _step_chunks, _time_grid, build_M

_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


@dataclass
class UnitaryTrajectory:
    """Sampled evolution operator U(tau), U(0) = identity."""

    taus: np.ndarray
    unitaries: np.ndarray  # shape (n, 8, 8), complex
    dtau: float

    def unitarity_defect(self) -> float:
        """max over samples of max-entry |U^dag U - I|."""
        prods = np.einsum("tba,tbc->tac", self.unitaries.conj(), self.unitaries)
        prods -= np.eye(8)
        return float(np.max(np.abs(prods)))


def schrodinger_propagate(p: ControlParams, tau_end: float, dtau: float) -> UnitaryTrajectory:
    """Integrate i dU/dtau = H(tau) U from the identity.

    Each step is the fourth-order Magnus exponential with two Gauss nodes: the
    node average of H plus the commutator correction (Blanes, Casas, Oteo, Ros,
    Phys. Rep. 470 (2009) 151).  It is exactly unitary per step.  The steps
    are those of ``dynamics._time_grid(tau_end, dtau)``, which rejects a bad step.
    The node Hamiltonians, one batched ``eigh`` and the step unitaries are built
    over runs of ``dynamics._step_chunks``, which bound the (n, 8, 8) temporaries;
    only the product U <- V U is a Python loop.
    """
    taus = _time_grid(tau_end, dtau)
    unitaries = np.empty((len(taus), 8, 8), dtype=complex)
    u = unitaries[0] = np.eye(8, dtype=complex)
    for first, t in _step_chunks(taus):
        h = np.diff(t)
        h1 = build_hamiltonian(p, t[:-1] + (0.5 - _GAUSS_OFFSET) * h)
        h2 = build_hamiltonian(p, t[:-1] + (0.5 + _GAUSS_OFFSET) * h)
        h = h[:, None, None]
        herm = (h / 2.0) * (h1 + h2) - 1j * (h * h * math.sqrt(3.0) / 12.0) * (h2 @ h1 - h1 @ h2)
        ev, vec = np.linalg.eigh(herm)
        steps = (vec * np.exp(-1j * ev)[:, None, :]) @ vec.conj().swapaxes(1, 2)
        for i, v in enumerate(steps, first):
            u = np.matmul(v, u, out=unitaries[i])
    return UnitaryTrajectory(taus=taus, unitaries=unitaries, dtau=dtau)


def expectation_trajectory(ut: UnitaryTrajectory) -> np.ndarray:
    """Coherence expectation values x_i = Tr[O_i U rho(0) U^dag] for rho(0) = (1 + sx1)/8, shape (n, 8).

    W = U sx1 U^dag is formed over runs of at most _CHUNK_STEPS samples and
    projected onto the basis by one real matrix product per run."""
    basis = np.stack(coherence_basis()).reshape(8, 64)
    # Re Tr[O_i W] = sum_ab (Re O_i Re W + Im O_i Im W)_ab for Hermitian O_i; a
    # float view of W interleaves the real and imaginary part of each entry
    projection = np.empty((128, 8))
    projection[0::2], projection[1::2] = basis.real.T, basis.imag.T
    out = np.empty((len(ut.unitaries), 8))
    for start in range(0, len(out), _CHUNK_STEPS):
        u = ut.unitaries[start : start + _CHUNK_STEPS]
        # the identity part of rho(0) drops out of every trace
        w = u @ coherence_basis()[0] @ u.conj().swapaxes(1, 2)
        out[start : start + len(u)] = w.reshape(len(u), 64).view(float) @ projection / 8.0
    return out


def full_hilbert_trajectory(p: ControlParams, tau_end: float, dtau: float) -> Trajectory:
    """Expectation-value trajectory obtained from the full-space propagation."""
    ut = schrodinger_propagate(p, tau_end, dtau)
    return Trajectory(
        taus=ut.taus,
        states=expectation_trajectory(ut),
        method="full-hilbert",
        dtau=dtau,
    )


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of projecting the commutator action onto the operator basis."""

    max_coefficient_error: float  # worst |projection - generator entry|
    max_orthogonal_residual: float  # worst component outside the span

    @property
    def max_residual(self) -> float:
        return max(self.max_coefficient_error, self.max_orthogonal_residual)


def closure_check(p: ControlParams, tau_samples) -> ClosureResult:
    """Verify i[H(tau), O_i] = sum_j M_ij(tau) O_j at each requested tau.

    The projection coefficients Tr[O_j i[H,O_i]]/8 must equal row i of the
    reduced generator and the projection must exhaust the commutator.
    """
    basis = coherence_basis()
    coeff_err = 0.0
    orth = 0.0
    for tau in np.atleast_1d(np.asarray(tau_samples, dtype=float)):
        h = build_hamiltonian(p, tau)
        m = build_M(p, tau)
        for i, op in enumerate(basis):
            comm = 1j * (h @ op - op @ h)
            coeffs = np.array([np.sum(oj.conj() * comm).real / 8.0 for oj in basis])
            coeff_err = max(coeff_err, float(np.max(np.abs(coeffs - m[i]))))
            remainder = comm - np.tensordot(coeffs, np.stack(basis), axes=1)
            orth = max(orth, float(np.max(np.abs(remainder))))
    return ClosureResult(max_coefficient_error=coeff_err, max_orthogonal_residual=orth)
