"""Independent validation of the reduced dynamics in the full three-qubit space.

H(tau) = sz1*sz2 + k*sz2*sz3 + B(tau).sigma2 commutes with sz1 and sz3.  In each
sector (s1, s3), spanned by sz2 up and down, both bonds act as a static z field,
so H_s = n_s.sigma with n_s = (b0*cos(theta), b0*sin(theta), s1 + k*s3 + bz): the
evolution operator is four SU(2) blocks U_s.  sx1 flips s1 only, so the
coherences need just the two blocks G_s3 = U_(+,s3) U_(-,s3)^dag, which are
stepped in closed form as real unit quaternions and projected onto the
operator basis.  This oracle reads only H, through ``algebra.sector_fields``,
and the operator basis, never the reduced generator M, so
``report.dynamics_equivalence`` compares two independent routes.
``closure_check`` verifies, entry by entry, that the commutator action of H on
the operator basis reproduces the reduced generator and stays inside the span.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import _PAULI, SECTORS, ControlParams, build_hamiltonian, coherence_basis, sector_fields
from .dynamics import Trajectory, _powers, _skew, _time_grid, build_M, sinc

_GAUSS_OFFSET = math.sqrt(3.0) / 6.0

# the units of U = q0 I - i(q1 sx + q2 sy + q3 sz), under which matrix products are Hamilton products
_UNITS = np.stack([np.eye(2), -1j * _PAULI["x"], -1j * _PAULI["y"], -1j * _PAULI["z"]])
# _SANDWICH[(r, c), (i, j)] = Re Tr(unit_r^dag unit_i unit_c unit_j)/2 is component r of unit_i unit_c unit_j,
# so (a g b)_r = sum_c (_SANDWICH (a (x) b))_rc g_c
_SANDWICH = np.einsum("rxw,ixy,cyz,jzw->rcij", _UNITS.conj(), _UNITS, _UNITS, _UNITS).real.reshape(16, 16) / 2.0
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])[:, None, None]
# Q_phi G Q_phi^dag, Q_phi = exp(-i phi sz/2), turns (g1, g2) by phi: d(g1, g2)/dphi = (-g2, g1), in each block
_TURN = np.kron(np.eye(2), _skew(1, 2, -1.0))

# _PROJECTION takes the quaternions (g_+, g_-) of G_s3 to x1..x8:
# x_i = sum_jk Re(w_jk G_jk)/4 with w = O_i[(-,s3), (+,s3)]^T and G = g0 I - i g.sigma (see full_hilbert_trajectory)
_WEIGHTS = np.stack(coherence_basis())[:, SECTORS[2:, :, None], SECTORS[:2, None, :]].swapaxes(-1, -2)
_PROJECTION = np.einsum("isab,jab->sji", _WEIGHTS, _UNITS).real.reshape(8, 8) / 4.0


def _sandwich_increments(d_plus: np.ndarray, d_minus: np.ndarray) -> np.ndarray:
    """D = L(d+) + R(conj d-) + L(d+) R(conj d-), so that g + D g = (1 + d+) g conj(1 + d-).

    The quaternion components run along the first axis: d_plus and d_minus
    have shape (4, m, n) and D has shape (4, 4, m, n), row index first.  D is one
    real product of ``_SANDWICH`` with w = d+ (x) conj(d-), conj(d-) added to its
    row 0 and d+ to its column 0: the terms of (1 + d+) (x) conj(1 + d-) but the
    identity's own 1, so no diagonal near 1 is rounded.
    """
    c = d_minus * _CONJ
    w = d_plus[:, None] * c[None]
    w[0] += c
    w[:, 0] += d_plus
    return (_SANDWICH @ w.reshape(16, -1)).reshape(w.shape)


def _mapped_blocks(p: ControlParams, tau_end: float, dtau: float, out_map: np.ndarray) -> tuple:
    """(taus, rows), rows the row source of g @ out_map, g the quaternions (g_+, g_-) of G_s3 = U_(+,s3) U_(-,s3)^dag.

    U solves i dU/dtau = H(tau) U from the identity, sector by sector.  Each step
    is the fourth-order Magnus exponential on two Gauss nodes (Blanes, Casas,
    Oteo, Ros, Phys. Rep. 470 (2009) 151).  With node fields n1, n2 and
    [a.sigma, b.sigma] = 2i (a x b).sigma, its exponent is -i v.sigma with
    v = (h/2)(n1 + n2) + (sqrt(3) h^2/6)(n2 x n1), so the step of sector s is the
    SU(2) rotation V_s = cos|v| I - i sin|v|/|v| v.sigma, exactly unitary, and
    G_s3 <- V_(+,s3) G_s3 V_(-,s3)^dag.  The fields turn with the drive, so V_s(t) =
    Q_t V_s(0) Q_t^dag with Q_t = exp(-i omega_rf t sz/2), and F = Q_tau^dag G Q_tau
    steps by one map, F <- W_+ F W_-^dag with W_s = Q_h^dag V_s(0), taken by
    ``dynamics._powers`` as F + D F: D from ``_sandwich_increments`` of V - I =
    (cos|v| - 1, sin|v|/|v| v) and Q_h^dag - I, with cos x - 1 = -2 sin^2(x/2).
    G = Q_tau F Q_tau^dag turns the (g1, g2) plane by omega_rf*tau, a turn that
    ``_powers`` folds into its block table (``_TURN``).
    """
    taus = _time_grid(tau_end, dtau)
    h = np.append(dtau, np.diff(taus[-2:]))  # every step of _time_grid but its last is dtau long
    # (x, y, z) of the fields n1, n2 at the Gauss nodes of a step from 0, each of shape (4 sectors, 2 step lengths)
    (x1, y1, z1), (x2, y2, z2) = (sector_fields(p, (0.5 + s) * h).T for s in (-_GAUSS_OFFSET, _GAUSS_OFFSET))
    a, b = h / 2.0, h * h * math.sqrt(3.0) / 6.0
    v = np.stack([a * (x1 + x2) + b * (y2 * z1 - z2 * y1), a * (y1 + y2) + b * (z2 * x1 - x2 * z1),
                  a * (z1 + z2) + b * (x2 * y1 - y2 * x1)])
    angle = np.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
    d = np.concatenate([-2.0 * np.sin(angle / 2.0)[None] ** 2, sinc(angle) * v])
    # Q_h^dag - I = (cos(omega_rf h/2) - 1) I - i (-sin(omega_rf h/2)) sz; the map is Q_h^dag (V+ F V-^dag) Q_h
    q = np.stack([-2.0 * np.sin(p.omega_rf * h / 4.0) ** 2, 0.0 * h, 0.0 * h, -np.sin(p.omega_rf * h / 2.0)])[:, None]
    step, turn = (_sandwich_increments(*pair).transpose(3, 2, 0, 1) for pair in ((d[:, :2], d[:, 2:]), (q, q)))
    first = np.array([[1.0, 0.0, 0.0, 0.0]] * 2)
    return taus, _powers(turn + step + turn @ step, first, len(taus), (_TURN, p.omega_rf, taus, out_map))


def full_hilbert_trajectory(p: ControlParams, tau_end: float, dtau: float) -> Trajectory:
    """Coherences x_i = Tr[O_i U rho(0) U^dag] for rho(0) = (1 + sx1)/8 from the full-space propagation.

    The identity part of rho(0) drops out.  W = U sx1 U^dag holds just the
    blocks G_s3 and their adjoints, and for Hermitian O_i,
    x_i = 2 Re sum_s3 Tr[O_i[(-,s3), (+,s3)] G_s3]/8: one real matrix product
    of the quaternions of the G_s3 with ``_PROJECTION``, folded into the step product.
    """
    taus, rows = _mapped_blocks(p, tau_end, dtau, _PROJECTION)
    return Trajectory(taus=taus, states=rows.array())


def closure_check(p: ControlParams, tau_samples) -> float:
    """Largest residual of i[H(tau), O_i] = sum_j M_ij(tau) O_j over the requested taus.

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
    return max(
        float(np.max(np.abs(coeffs - build_M(p, taus)), initial=0.0)),  # worst |projection - generator entry|
        float(np.max(np.abs(remainder), initial=0.0)),  # worst component outside the span
    )
