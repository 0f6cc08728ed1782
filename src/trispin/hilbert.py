"""Independent validation of the reduced dynamics in the full three-qubit space.

H(tau) = sz1*sz2 + k*sz2*sz3 + B(tau).sigma2 commutes with sz1 and sz3.  In each
sector (s1, s3), spanned by sz2 up and down, both bonds act as a static z field,
so H_s = n_s.sigma with n_s = (b0*cos(theta), b0*sin(theta), s1 + k*s3 + bz): the
evolution operator is four SU(2) blocks U_s.  The field turns about z at omega_rf,
so each block has the Rabi solution U_s = Q_tau exp(-i tau m_s.sigma) in closed
form, with Q_tau = exp(-i omega_rf tau sz/2) and m_s = n_s(0) - (omega_rf/2) z.
sx1 flips s1 only, so the coherences need just the two blocks
G_s3 = U_(+,s3) U_(-,s3)^dag: real unit quaternions in cos and sin of the rates
r_(+,s3) +- r_(-,s3), r_s = |m_s|, projected onto the operator basis.  This oracle
reads only H, through ``algebra.sector_fields``, and the operator basis, never the
reduced generator M, so ``report.dynamics_equivalence`` compares two independent
routes.  ``closure_check`` verifies, entry by entry, that the commutator action of
H on the operator basis reproduces the reduced generator and stays inside the span.
"""

from __future__ import annotations

import numpy as np

from .algebra import _PAULI, SECTORS, ControlParams, build_hamiltonian, coherence_basis, sector_fields
from .dynamics import Trajectory, _time_grid, build_M, mode_states

# the units of U = q0 I - i(q1 sx + q2 sy + q3 sz), under which matrix products are Hamilton products
_UNITS = np.stack([np.eye(2), -1j * _PAULI["x"], -1j * _PAULI["y"], -1j * _PAULI["z"]])
# _HAMILTON[i, j, r] = Re Tr(unit_r^dag unit_i unit_j)/2 is component r of unit_i unit_j
_HAMILTON = np.einsum("rxw,ixy,jyw->ijr", _UNITS.conj(), _UNITS, _UNITS).real / 2.0
# product to sum: rows cos(a + b), cos(a - b), sin(a + b), sin(a - b) of the columns cos a cos b, cos a sin b,
# sin a cos b and sin a sin b
_TO_SUM = 0.5 * np.array([[1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0]])

# _PROJECTION takes the quaternions (g_+, g_-) of G_s3 to x1..x8:
# x_i = sum_jk Re(w_jk G_jk)/4 with w = O_i[(-,s3), (+,s3)]^T and G = g0 I - i g.sigma (see full_hilbert_trajectory)
_WEIGHTS = np.stack(coherence_basis())[:, SECTORS[2:, :, None], SECTORS[:2, None, :]].swapaxes(-1, -2)
_PROJECTION = np.einsum("isab,jab->sji", _WEIGHTS, _UNITS).real.reshape(8, 8) / 4.0


def sector_table(p: ControlParams) -> tuple[np.ndarray, np.ndarray]:
    """(table, w), shapes s + (8, 8) and s + (4,), s the shape of p's fields: [cos(w*tau), sin(w*tau)] @ table is
    x1..x8 before the frame turn.

    A mode table like ``dynamics.mode_table``'s, for ``dynamics.mode_states``.  U_s = Q_tau V_s solves
    i dU/dtau = H U from the identity, as n_s(tau).sigma = Q_tau (n_s(0).sigma) Q_tau^dag, with
    V_s = exp(-i tau m_s.sigma) = cos(r_s tau) I - i sin(r_s tau) (m_s/r_s).sigma.  So G_s3 = Q_tau F_s3 Q_tau^dag
    with F_s3 = V_(+,s3) V_(-,s3)^dag, whose quaternion is bilinear in cos and sin of r_(+,s3) tau and r_(-,s3) tau:
    by product to sum, a table of the rates w = (r_(+,s3) + r_(-,s3), r_(+,s3) - r_(-,s3)), s3 = +, - each.  The
    turn of G's (g1, g2) planes by omega_rf*tau, projected, is that of the (x2, x4) and (x6, x8) planes by
    exp(omega_rf*tau*J), which ``mode_states`` applies: _PROJECTION maps the one turn generator onto the other.
    """
    m = sector_fields(p, 0.0)
    m[..., 2] -= np.asarray(p.omega_rf)[..., None] / 2.0
    r = np.sqrt(np.sum(m * m, axis=-1))
    lead = r.shape[:-1]
    # quaternions of the cos(r_s tau) and sin(r_s tau) parts of V_s, of V_s^dag for s1 = -; r_s = 0 takes axis 0
    parts = np.zeros(lead + (2, 4, 4))
    parts[..., 0, :, 0] = 1.0
    np.divide(m, r[..., None], out=parts[..., 1, :, 1:], where=r[..., None] > 0.0)
    parts[..., 1, 2:, :] *= -1.0
    # the cos.cos, cos.sin, sin.cos and sin.sin parts of F_s3 on the rows, (s3, quaternion) on the columns
    products = np.einsum("...ash,...bsk,hkr->...absr", parts[..., :2, :], parts[..., 2:, :], _HAMILTON).reshape(lead + (4, 8))
    coef = (_TO_SUM @ products).reshape(lead + (2, 2, 2, 1, 4))  # (cos|sin, sum|difference, s3, 1, quaternion)
    table = (coef * np.eye(2)[:, :, None]).reshape(lead + (8, 8)) @ _PROJECTION  # each s3's rates on its own quaternion
    return table, np.concatenate([r[..., :2] + r[..., 2:], r[..., :2] - r[..., 2:]], axis=-1)


def full_hilbert_trajectory(p: ControlParams, tau_end: float, dtau: float) -> Trajectory:
    """Coherences x_i = Tr[O_i U rho(0) U^dag] for rho(0) = (1 + sx1)/8 on ``_time_grid(tau_end, dtau)``.

    The identity part of rho(0) drops out.  W = U sx1 U^dag holds just the
    blocks G_s3 and their adjoints, and for Hermitian O_i,
    x_i = 2 Re sum_s3 Tr[O_i[(-,s3), (+,s3)] G_s3]/8: one real matrix product
    of the quaternions of the G_s3 with ``_PROJECTION``, folded into ``sector_table``.
    """
    taus = _time_grid(tau_end, dtau)
    return Trajectory(taus=taus, states=mode_states(*sector_table(p), taus, p.omega_rf))


def closure_check(p: ControlParams, tau_samples) -> float:
    """Largest residual of i[H(tau), O_i] = sum_j M_ij(tau) O_j over the requested taus.

    The projection coefficients Tr[O_j i[H,O_i]]/8 must equal row i of the
    reduced generator and the projection must exhaust the commutator; all
    samples and basis operators are projected at once, in two GEMMs over the flattened operators.
    """
    taus = np.atleast_1d(np.asarray(tau_samples, dtype=float))
    basis = np.stack(coherence_basis())
    h = build_hamiltonian(p, taus)[:, None]
    comm = (1j * (h @ basis - basis @ h)).reshape(len(taus), 8, 64)  # sample, operator i, flattened matrix
    flat = basis.reshape(8, 64)
    coeffs = (comm @ flat.conj().T).real / 8.0
    remainder = comm - coeffs @ flat
    return max(
        float(np.max(np.abs(coeffs - build_M(p, taus)), initial=0.0)),  # worst |projection - generator entry|
        float(np.max(np.abs(remainder), initial=0.0)),  # worst component outside the span
    )
