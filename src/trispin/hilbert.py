"""Independent validation of the reduced dynamics in the full three-qubit space.

H(tau) = sz1*sz2 + k*sz2*sz3 + B(tau).sigma2 commutes with sz1 and sz3.  In each
sector (s1, s3), spanned by sz2 up and down, both bonds act as a static z field,
so H_s = n_s.sigma with n_s = (b0*cos(theta), b0*sin(theta), s1 + k*s3 + bz): the
evolution operator is four SU(2) blocks, stepped in closed form as real unit
quaternions, and the coherences are projected out of the propagated density
operator.  This oracle reads only H, through ``algebra.sector_fields``, and the
operator basis, never the reduced generator M, so
``report.dynamics_equivalence`` compares two independent routes.
``closure_check`` verifies, entry by entry, that the commutator action of H on
the operator basis reproduces the reduced generator and stays inside the span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _PAULI, SECTORS, ControlParams, build_hamiltonian, coherence_basis, sector_fields
from .dynamics import Trajectory, _step, _time_grid, build_M

_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products a b = (a0 b0 - av.bv, a0 bv + b0 av + av x bv) of quaternions on the last axis."""
    a0, av, b0, bv = a[..., :1], a[..., 1:], b[..., :1], b[..., 1:]
    scalar = a0 * b0 - np.sum(av * bv, axis=-1, keepdims=True)
    return np.concatenate([scalar, a0 * bv + b0 * av + np.cross(av, bv)], axis=-1)


# L(q)[r, c] = _LEFT_SIGN[r, c] * q[_LEFT_INDEX[r, c]]: the coefficient of r_c in component r of q r
_LEFT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])


def _left(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrices L(q) with L(q) r = q r, the ``_hamilton`` product, for quaternions on the last axis."""
    return q[..., _LEFT_INDEX] * _LEFT_SIGN


# _PROJECTION takes the quaternions (g_+, g_-) of G_s3 = U_(+,s3) U_(-,s3)^dag to x1..x8:
# x_i = sum_jk Re(w_jk G_jk)/4 with w = O_i[(-,s3), (+,s3)]^T and G = g0 I - i g.sigma (see expectation_trajectory)
_WEIGHTS = np.stack(coherence_basis())[:, SECTORS[2:, :, None], SECTORS[:2, None, :]].swapaxes(-1, -2)
_UNITS = np.stack([np.eye(2), -1j * _PAULI["x"], -1j * _PAULI["y"], -1j * _PAULI["z"]])
_PROJECTION = np.einsum("isab,jab->sji", _WEIGHTS, _UNITS).real.reshape(8, 8) / 4.0


@dataclass
class UnitaryTrajectory:
    """Sampled evolution operator U(tau), U(0) = identity, as sector blocks U_s = q0 I - i(q1 sx + q2 sy + q3 sz)."""

    taus: np.ndarray
    quaternions: np.ndarray  # shape (n, 4, 4): real unit quaternions q, sectors in the order of algebra.SECTORS


def schrodinger_propagate(p: ControlParams, tau_end: float, dtau: float) -> UnitaryTrajectory:
    """Integrate i dU/dtau = H(tau) U from the identity, sector by sector.

    Each step is the fourth-order Magnus exponential on two Gauss nodes (Blanes,
    Casas, Oteo, Ros, Phys. Rep. 470 (2009) 151).  With node fields n1, n2 and
    [a.sigma, b.sigma] = 2i (a x b).sigma, its exponent is -i v.sigma with
    v = (h/2)(n1 + n2) + (sqrt(3) h^2/6)(n2 x n1), so the step is the SU(2)
    rotation V = cos|v| I - i sin|v|/|v| v.sigma, exactly unitary.  ``dynamics._step``
    takes the product in increment form, q <- q + (V - I) q, on the steps of
    ``dynamics._time_grid``, V - I being ``_left`` of the quaternion
    (cos|v| - 1, sin|v|/|v| v) with cos|v| - 1 = -2 sin^2(|v|/2): no diagonal
    near 1 is rounded, where q <- V q drifts by about one unit roundoff a step.
    """

    def increments(t):
        h = np.diff(t)
        n1 = sector_fields(p, t[:-1] + (0.5 - _GAUSS_OFFSET) * h)
        n2 = sector_fields(p, t[:-1] + (0.5 + _GAUSS_OFFSET) * h)
        h = h[:, None, None]
        v = (h / 2.0) * (n1 + n2) + (h * h * math.sqrt(3.0) / 6.0) * np.cross(n2, n1)
        angle = np.linalg.norm(v, axis=-1, keepdims=True)
        # sin|v|/|v| is np.sinc(|v|/pi), which is 1 at |v| = 0
        return _left(np.concatenate([-2.0 * np.sin(angle / 2.0) ** 2, np.sinc(angle / math.pi) * v], axis=-1))

    taus = _time_grid(tau_end, dtau)
    identity = np.tile([[1.0], [0.0], [0.0], [0.0]], (4, 1, 1))
    return UnitaryTrajectory(taus=taus, quaternions=_step(taus, identity, increments)[..., 0])


def expectation_trajectory(ut: UnitaryTrajectory) -> np.ndarray:
    """Coherence expectation values x_i = Tr[O_i U rho(0) U^dag] for rho(0) = (1 + sx1)/8, shape (n, 8).

    The identity part of rho(0) drops out.  sx1 flips s1 only, so W = U sx1 U^dag
    holds just the blocks G_{s3} = U_{(+,s3)} U_{(-,s3)}^dag and their adjoints,
    and for Hermitian O_i, x_i = 2 Re sum_{s3} Tr[O_i[(-,s3), (+,s3)] G_{s3}]/8:
    one real matrix product of the quaternions q_(+,s3) conj(q_(-,s3)) of the
    G_{s3} with ``_PROJECTION`` (U^dag has the quaternion (q0, -q1, -q2, -q3)).
    """
    q = ut.quaternions
    g = _hamilton(q[:, :2], q[:, 2:] * [1.0, -1.0, -1.0, -1.0])
    return g.reshape(len(g), 8) @ _PROJECTION


def full_hilbert_trajectory(p: ControlParams, tau_end: float, dtau: float) -> Trajectory:
    """Expectation-value trajectory obtained from the full-space propagation."""
    ut = schrodinger_propagate(p, tau_end, dtau)
    return Trajectory(taus=ut.taus, states=expectation_trajectory(ut), method="full-hilbert")


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
    reduced generator and the projection must exhaust the commutator; all
    samples and basis operators are projected at once.
    """
    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    basis = np.stack(coherence_basis())
    h = build_hamiltonian(p, taus)[:, None]
    comm = 1j * (h @ basis - basis @ h)  # (n, 8, 8, 8): sample, operator i, matrix
    coeffs = np.einsum("jab,niab->nij", basis.conj(), comm).real / 8.0
    remainder = comm - np.einsum("nij,jab->niab", coeffs, basis)
    return ClosureResult(
        max_coefficient_error=float(np.max(np.abs(coeffs - build_M(p, taus)), initial=0.0)),
        max_orthogonal_residual=float(np.max(np.abs(remainder), initial=0.0)),
    )
