"""Reduced dynamics of the eight closing expectation values.

The expectation vector x = (x1..x8) obeys dx/dtau = M(tau) x with the
skew-symmetric block generator M = 2[[P, Q], [Q, P]].  Splitting into
y_pm = x_plus +- x_minus decouples the system into two 4-vectors driven by
M_pm = 2(P +- Q), which is linear in the drive:

    M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS),  M0_pm = MB + (bz +- k)*MZ.

Every generator in the package is assembled from the four constant matrices
MB, MZ, MC and MS.  Generators and propagated states carry both halves on one
axis of length 2, + first.  Three propagation routes are provided:

* ``propagate_rk4``            classic fixed-step RK4 on the two 4-vectors y_pm,
                               one step map per run in the co-rotating frame,
* ``propagate_expm_integral``  exp of the integrated generator (an ansatz:
                               for the rotating drive the generator does not
                               commute with its integral, so this is *not*
                               guaranteed to equal the time-ordered solution),
* ``propagate_rotating_exact`` closed form in the co-rotating frame from one real
                               ``mode_table``, exact to eigendecomposition accuracy.

``mode_states`` reads every mode table, the search's too; ``propagator_discrepancy``
measures the gap between the last two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ControlParams

CSV_HEADER = "tau,x1,x2,x3,x4,x5,x6,x7,x8,norm"

_BLOCK_STEPS = 32  # steps per block of the step product (see _powers)


def _skew(i: int, j: int, value: float) -> np.ndarray:
    """Read-only 4x4 matrix with entry (i, j) = value and (j, i) = -value (0-based)."""
    out = np.zeros((4, 4))
    out[i, j] = value
    out[j, i] = -value
    out.setflags(write=False)
    return out


# first Ising bond, static z field plus second bond, transverse field components
MB = _skew(0, 2, -2.0)
MZ = _skew(1, 3, -2.0)
MC = _skew(2, 3, 2.0)
MS = _skew(1, 2, 2.0)

# Generator of the co-rotating frame: the rotation of the (2,4) plane, J = MZ/2.
# R = exp(phi*J) maps e2 -> cos(phi) e2 + sin(phi) e4 and e4 -> -sin(phi) e2 +
# cos(phi) e4 (1-based), so R (cos(theta)*MC + sin(theta)*MS) R^T =
# cos(theta+phi)*MC + sin(theta+phi)*MS, while MB (the (1,3) plane) and MZ (the
# (2,4) plane itself) commute with R.  Hence M_pm(tau) = R M_pm(0) R^T with
# phi = omega_rf*tau, and y_pm(tau) = R exp[tau*(M_pm(0) - omega_rf*J)] y_pm(0).
J = _skew(1, 3, -1.0)


# the (+, -) halves axis of every generator and state: M0_pm = MB + (bz + _PM*k)*MZ
_PM = np.array([1.0, -1.0])[:, None, None]
# _JOIN[h, 0, s, 0, 0] = 1/2 and _PM[h]/2 for s = +, -: half h's part of x_plus and x_minus, as in join_halves
_JOIN = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])[:, None, :, None, None]


def static_generator(p: ControlParams) -> np.ndarray:
    """M0_pm = MB + (bz +- k)*MZ, the part of M_pm that does not depend on the phase, shape (2, 4, 4), + first."""
    return MB + (p.bz + _PM * p.k) * MZ


def build_M_half(p: ControlParams, tau) -> np.ndarray:
    """Decoupled generators M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS), shape np.shape(tau) + (2, 4, 4)."""
    th = p.theta(np.asarray(tau, dtype=float))[..., None, None, None]
    return static_generator(p) + p.b0 * (np.cos(th) * MC + np.sin(th) * MS)


def build_M(p: ControlParams, tau) -> np.ndarray:
    """Full 8x8 generator 2*[[P, Q], [Q, P]], with 2P = (M_+ + M_-)/2 and 2Q = (M_+ - M_-)/2.

    The result has shape ``np.shape(tau) + (8, 8)``."""
    m_plus, m_minus = np.moveaxis(build_M_half(p, tau), -3, 0)
    out = np.empty(np.shape(tau) + (8, 8))
    out[..., :4, :4] = out[..., 4:, 4:] = 0.5 * (m_plus + m_minus)
    out[..., :4, 4:] = out[..., 4:, :4] = 0.5 * (m_plus - m_minus)
    return out


def split_halves(x: np.ndarray) -> np.ndarray:
    """y_pm = x_plus +- x_minus, x_plus and x_minus the first and last 4 of the last axis: shape (..., 8) -> (..., 2, 4)."""
    x = np.asarray(x, dtype=float)[..., None, :]
    return x[..., :4] + _PM[:, 0] * x[..., 4:]


def join_halves(y: np.ndarray) -> np.ndarray:
    """Inverse of split_halves: shape (..., 2, 4) -> (..., 8)."""
    y_plus, y_minus = np.moveaxis(np.asarray(y, dtype=float), -2, 0)
    return np.concatenate([(y_plus + y_minus) / 2.0, (y_plus - y_minus) / 2.0], axis=-1)


@dataclass
class Trajectory:
    """Sampled trajectory of the 8-vector, tau strictly increasing from 0."""

    taus: np.ndarray
    states: np.ndarray  # shape (n, 8)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def write_csv(self, path) -> None:
        norms = self.norms()
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for tau, row, nrm in zip(self.taus, self.states, norms):
                cells = [f"{tau:.17g}"] + [f"{v:.17g}" for v in row] + [f"{nrm:.17g}"]
                fh.write(",".join(cells) + "\n")


def _time_grid(tau_end: float, dtau: float) -> np.ndarray:
    """Grid 0, dtau, 2*dtau, ..., tau_end with the last step shortened; the one check of every step."""
    if not (math.isfinite(tau_end) and tau_end >= 0):
        raise ValueError(f"tau_end must be finite and nonnegative, got {tau_end:g}")
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and positive, got {dtau:g}")
    if not math.isfinite(tau_end / dtau):
        raise ValueError(f"tau_end / dtau must be finite, got {tau_end:g} / {dtau:g}")
    n_full = int(math.floor(tau_end / dtau + 1e-12))
    taus = dtau * np.arange(n_full + 1)
    if taus[-1] < tau_end - 1e-12 * max(1.0, tau_end):
        taus = np.append(taus, tau_end)
    else:
        taus[-1] = tau_end
    return taus


def _block_grid(starts: np.ndarray, maps: np.ndarray, out: np.ndarray, turn: tuple | None = None) -> None:
    """out[..., j*b + l, :] = starts[..., j, :] @ maps[..., l, :, :], b = maps.shape[-3], one GEMM over whole blocks.

    Rows are states, so maps act from the right; a last partial block reads the first columns of the table.
    turn = (K, phi, psi, o), if given, also turns row (j, l) by exp((phi_j + psi_l) K) = exp(phi_j K) exp(psi_l K),
    K skew with K^3 = -K, and then maps it by o.  With P = -K^2 and D = I - P, exp(phi K)^T = D + cos(phi) P -
    sin(phi) K, so the row is [s_j, cos(phi_j) s_j, sin(phi_j) s_j] @ [T_l D o; T_l P o; -T_l K o] with
    T_l = maps[l] exp(psi_l K)^T: cos and sin of the block starts and of one block's psi, none per row.
    """
    if out.shape[-2] == 0:
        return
    if turn is not None:
        k, phi, psi, o = turn
        parts = np.stack([np.eye(len(k)) + k @ k, -k @ k, -k])  # D, P, -K
        maps = maps @ (parts[0] + np.cos(psi)[:, None, None] * parts[1] + np.sin(psi)[:, None, None] * parts[2])
        maps = np.concatenate([maps @ part for part in parts @ o], axis=-2)
        starts = np.concatenate([starts, np.cos(phi)[:, None] * starts, np.sin(phi)[:, None] * starts], axis=-1)
    b, width = maps.shape[-3], out.shape[-1]
    table = np.moveaxis(maps, -3, -2).reshape(maps.shape[:-3] + (maps.shape[-2], b * width))
    full, rest = divmod(out.shape[-2], b)
    np.matmul(starts[..., :full, :], table, out=out[..., : full * b, :].reshape(out.shape[:-2] + (full, b * width)))
    if rest:
        last = starts[..., full : full + 1, :] @ table[..., : rest * width]
        out[..., full * b :, :] = last.reshape(out.shape[:-2] + (rest, width))


def _powers(e: np.ndarray, first: np.ndarray, n: int, frame: tuple) -> np.ndarray:
    """Rows exp(phases_i K) y_i @ o, frame = (K, phases, o), of the powers y_i of a step map: shape (n, o.shape[1]).

    y_i = (I + e[0])^i first for i < n - 1 and y_(n-1) = (I + e[1]) y_(n-2).  first has shape (k, m), k
    independent halves, and K, the frame turn, acts on the flattened state; e (2, k, m, m) holds the
    increments of a step of dtau and of the grid's last step, and phases has length n.  With
    E_l = (I + e)^(l+1) - I = E_(l-1) + e E_(l-1) + e for l < _BLOCK_STEPS, y_i at i = 1 + j*_BLOCK_STEPS + l
    is (I + E_l) s_j, turned and mapped by o in one ``_block_grid``, and the block starts
    s_j = (I + E_last)^j first are the rows of _powers on E_last with no turn: n entries recurse to
    n/_BLOCK_STEPS, ...  Increments keep a diagonal near 1 from being rounded each step; e and E_last are
    rounded once and that rounding repeats about n/_BLOCK_STEPS times, so blocks are short.
    """
    k, phases, o = frame
    width = first.size
    out = np.empty((n, o.shape[-1]))
    out[0] = first.reshape(width) @ o
    if n == 1:
        return out
    # rows read E_l only up to l = n - 3 (E_0 is built even at n == 2): with a step longer than the run the rest overflow
    powers = np.empty((max(1, min(_BLOCK_STEPS, n - 2)),) + e.shape[1:])
    powers[0] = e[0]
    for l in range(1, len(powers)):
        powers[l] = powers[l - 1] + e[0] @ powers[l - 1] + e[0]
    m = (n - 2) // _BLOCK_STEPS + 1
    starts = _powers(powers[[-1, -1]], first, m, (np.zeros((width, width)), np.zeros(m), np.eye(width)))
    # maps[l, (h, j), (g, i)] = (I + E_l)[h, i, j] if g = h, else 0, so (s @ maps[l])[(g, i)] = ((I + E_l) s)[g, i]
    maps = np.einsum("lhij,hg->lhjgi", powers[: n - 2], np.eye(len(first))).reshape(-1, width, width) + np.eye(width)
    _block_grid(starts, maps, out[1:-1], (k, phases[: n - 1 : _BLOCK_STEPS], phases[1 : len(maps) + 1], o))
    y = starts[0] if n == 2 else starts[(n - 3) // _BLOCK_STEPS] @ maps[(n - 3) % _BLOCK_STEPS]  # y_(n-2)
    y = y + (e[1] @ y.reshape(first.shape + (1,))).reshape(width)
    _block_grid(y[None], np.eye(width)[None], out[-1:], (k, phases[-1:], np.zeros(1), o))
    return out


_TURN = np.kron(np.eye(2), J)  # the frame turn of both halves of a flattened (2, 4) state and of (x_plus, x_minus)
_JOIN_ROWS = join_halves(np.eye(8).reshape(8, 2, 4))  # y.reshape(8) @ _JOIN_ROWS = join_halves(y)


def propagate_rk4(p: ControlParams, x0: np.ndarray, tau_end: float, dtau: float) -> Trajectory:
    """Classic 4th-order fixed-step RK4 of dy_pm/dtau = M_pm y_pm on ``_time_grid(tau_end, dtau)``, both halves at once.

    With left, middle and right generators A1, A2, A4 of a step of length h, the stages of a
    linear system are K2 = A2 (I + h/2 A1), K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3), and the
    step adds D y, D = h/6 (A1 + 2 K2 + 2 K3 + K4).  As M_pm(t + s) = R M_pm(s) R^T (see J),
    every step of length h is one map in the co-rotating frame, R(-omega_rf h) (I + D(0)); ``_powers``
    turns each state back by exp(omega_rf*tau*J) and joins the halves inside its GEMM.
    """
    taus = _time_grid(tau_end, dtau)
    h = np.append(dtau, np.diff(taus[-2:]))[:, None, None, None]  # every step of _time_grid but its last is dtau long
    left, mid, right = build_M_half(p, np.outer([0.0, 0.5, 1.0], h))
    k2 = mid + (h / 2.0) * (mid @ left)
    k3 = mid + (h / 2.0) * (mid @ k2)
    k4 = right + h * (right @ k3)
    d = (h / 6.0) * (left + 2.0 * k2 + 2.0 * k3 + k4)
    # R(-omega_rf h) - I = -sin(omega_rf h) J + (1 - cos(omega_rf h)) J^2, as J^3 = -J
    turn = -np.sin(p.omega_rf * h) * J + 2.0 * np.sin(p.omega_rf * h / 2.0) ** 2 * (J @ J)
    states = _powers(turn + d + turn @ d, split_halves(x0), len(taus), (_TURN, p.omega_rf * taus, _JOIN_ROWS))
    return Trajectory(taus=taus, states=states)


def phase_integrals(p: ControlParams, tau) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^tau cos(theta(s)) ds, int_0^tau sin(theta(s)) ds), broadcast over tau and the fields of p.

    The closed form divides by omega_rf; where the accumulated phase u = omega_rf*tau
    has |u| < 1e-2, and only there, the removable singularity is evaluated by series.
    """
    tau = np.asarray(tau, dtype=float)
    u = p.omega_rf * tau
    c0, s0 = np.cos(p.theta0), np.sin(p.theta0)
    small = np.abs(u) < 1e-2
    rate = np.where(small, 1.0, p.omega_rf)  # the guard keeps omega_rf = 0 from dividing by zero
    th = p.theta(tau)
    int_cos = np.asarray((np.sin(th) - s0) / rate)  # asarray: a 0-d result is a numpy scalar, which cannot be written
    int_sin = np.asarray((c0 - np.cos(th)) / rate)
    if small.any():
        # int cos(u s/tau + theta0) ds = tau*(c0*C(u) - s0*S(u)), C = sin(u)/u, S = (1-cos u)/u.  The closed form
        # cancels catastrophically for small u; the series is exact to double precision up to |u| ~ 1e-2.
        small = np.broadcast_to(small, int_cos.shape)
        us, ts, c0, s0 = (np.broadcast_to(v, small.shape)[small] for v in (u, tau, c0, s0))
        u2 = us * us
        cu = 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
        su = us / 2.0 - us * u2 / 24.0 + us * u2 * u2 / 720.0 - us * u2 * u2 * u2 / 40320.0
        int_cos[small] = ts * (c0 * cu - s0 * su)
        int_sin[small] = ts * (s0 * cu + c0 * su)
    return int_cos[()], int_sin[()]


def integral_generator(p: ControlParams, tau) -> np.ndarray:
    """A_pm(tau) = int_0^tau M_pm(s) ds = tau*M0_pm + b0*(int cos(theta)*MC + int sin(theta)*MS), shape (..., 2, 4, 4)."""
    tau = np.asarray(tau, dtype=float)
    int_cos, int_sin = (np.asarray(v)[..., None, None, None] for v in phase_integrals(p, tau))
    return tau[..., None, None, None] * static_generator(p) + p.b0 * (int_cos * MC + int_sin * MS)


def expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) of real skew-symmetric generators, shape (..., n, n), from eigh of the Hermitian 1j*a."""
    ev, vec = np.linalg.eigh(1j * np.asarray(a, dtype=float))
    return ((vec * np.exp(-1j * ev)[..., None, :]) @ vec.conj().swapaxes(-1, -2)).real


def propagate_expm_integral(p: ControlParams, y0: np.ndarray, taus: np.ndarray | float) -> np.ndarray:
    """exp[A_pm(tau)] y0 at every tau in taus — the integrated-generator ansatz, not the time-ordered solution.

    y0 has shape (2, 4) or (2, 4, m), both halves + first, and the result has
    shape ``np.shape(taus) + np.shape(y0)``; y0 = two eye(4) gives the propagators."""
    y0 = np.asarray(y0, dtype=float)
    return (expm_skew(integral_generator(p, taus)) @ y0.reshape(2, 4, -1)).reshape(np.shape(taus) + y0.shape)


def rotating_generator(p: ControlParams) -> np.ndarray:
    """Constant co-rotating-frame generators M_pm(0) - omega_rf * J, shape np.shape(p.omega_rf) + (2, 4, 4)."""
    return build_M_half(p, 0.0) - np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J


def mode_table(p: ControlParams, y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, w), shapes (8,) + np.shape(y0) and (4,): [cos(w*tau), sin(w*tau)] @ table is the co-rotating state from y0.

    That is exp[tau (M_pm(0) - omega_rf J)] y0 before the frame turn exp(omega_rf*tau*J), y0 of shape (2, 4) or
    (2, 4, m), both halves + first, joined: the table's halves axis holds x_plus, x_minus = (y_+ +- y_-)/2, so
    from y0 = split_halves(x0) it gives the 8-vector.  An array-valued p.omega_rf prepends its shape to both.  eigh
    of the Hermitian 1j*gen gives a unitary basis vec even at degenerate spectra, where eig can give a singular one,
    and each half's rates as (-w1, -w2, w2, w1), gen being real and skew.  Mode m of half h carries T_m = vec[:, m]
    (vec[:, m]^H y0_h); modes m = 2, 3 at w = ev_m and m' = 3 - m at -w give Re(T_m + T_m') cos(w*tau) +
    Im(T_m - T_m') sin(w*tau), so a degenerate pair (w = 0, or w1 = w2) still sums to its projector.
    """
    ev, vec = np.linalg.eigh(1j * rotating_generator(p))
    modes = vec.swapaxes(-1, -2)  # modes[..., h, m, i]
    amp = modes[..., None] * (modes.conj() @ np.reshape(y0, (2, 4, -1)))[..., None, :]  # amp[..., h, m, i, col]
    up, down = amp[..., 2:, :, :], amp[..., 1::-1, :, :]  # modes m = 2, 3 and their partners 3 - m
    coef = np.stack([(up + down).real, (up - down).imag], axis=-5)  # coef[..., cos|sin, h, m, i, col]
    table = coef[..., None, :, :] * _JOIN  # table[..., cos|sin, h, m, +|-, i, col]
    return table.reshape(ev.shape[:-2] + (8,) + np.shape(y0)), ev[..., 2:].reshape(ev.shape[:-2] + (4,))


def _on_grid(taus) -> bool:
    """Whether taus has 3 or more entries on one axis, all but the last equal to dtau*arange bitwise, as from _time_grid."""
    return np.ndim(taus) == 1 and len(taus) >= 3 and np.array_equal(taus[:-1], taus[1] * np.arange(len(taus) - 1))


def mode_states(table: np.ndarray, w: np.ndarray, taus, omega_rf: float | None = None) -> np.ndarray:
    """[cos(w*tau), sin(w*tau)] @ table at every tau in taus, turned by exp(omega_rf*tau*J) if omega_rf is given.

    (table, w) is a ``mode_table`` with leading shape s and a state of shape (2, 4) or (2, 4, m); the result
    has shape s + np.shape(taus) + state.  For an 8-wide state (2, 4) on ``_on_grid`` taus, all but the last
    tau take one ``_block_grid``: by angle addition the rows at block step l are [cos_l T_c + sin_l T_s;
    cos_l T_s - sin_l T_c], rate by rate, T_c and T_s the cos and sin rows of the table, so cos and sin run
    on the block starts and one block, and the turn exp(omega_rf*tau_j*J) exp(omega_rf*tau_l*J) folds into
    the same GEMM.  The last tau, any other taus and wider states take the direct form and turn (x2, x4)
    of each half, of y_pm or alike of x_plus and x_minus.
    """
    taus = np.asarray(taus, dtype=float)
    lead, state = w.shape[:-1], table.shape[w.ndim :]
    table = table.reshape(lead + (8, -1))
    width = table.shape[-1]
    x = np.empty(lead + (taus.size, width))

    def trig(t):  # cos(w*t) and sin(w*t), shape lead + (len(t), 4) each
        phase = w[..., None, :] * t[:, None]
        return np.cos(phase), np.sin(phase)

    on_grid = width == 8 and _on_grid(taus)
    direct = taus[-1:] if on_grid else taus.reshape(-1)
    rows = x[..., taus.size - len(direct) :, :]
    np.matmul(np.concatenate(trig(direct), axis=-1), table, out=rows)
    if omega_rf is not None:  # exp(phi*J) rotates the (2,4) plane of both halves by phi = omega_rf*tau
        y = rows.reshape(rows.shape[:-1] + (2, 4, -1))
        c, s = (f(omega_rf * direct)[:, None, None] for f in (np.cos, np.sin))
        y[..., 1, :], y[..., 3, :] = c * y[..., 1, :] - s * y[..., 3, :], s * y[..., 1, :] + c * y[..., 3, :]
    if on_grid:
        starts, block = taus[:-1:_BLOCK_STEPS], taus[:-1][:_BLOCK_STEPS]
        c, s = (v[..., None] for v in trig(block))
        t_c, t_s = table[..., None, :4, :], table[..., None, 4:, :]
        maps = np.concatenate([c * t_c + s * t_s, c * t_s - s * t_c], axis=-2)
        turn = None if omega_rf is None else (_TURN, omega_rf * starts, omega_rf * block, np.eye(8))
        _block_grid(np.concatenate(trig(starts), axis=-1), maps, x[..., :-1, :], turn)
    return x.reshape(lead + taus.shape + state)


def propagate_rotating_exact(p: ControlParams, y0: np.ndarray, taus: np.ndarray | float) -> np.ndarray:
    """Exact y_pm(tau) = exp(omega_rf*tau*J) exp[tau (M_pm(0) - omega_rf J)] y0 at every tau in taus.

    One real ``mode_table`` (one eigendecomposition) serves all requested times and
    initial states.  y0 has shape (2, 4) or (2, 4, m), both halves + first; the result
    has shape ``np.shape(taus) + np.shape(y0)``, and y0 = two eye(4) gives the propagators.
    """
    table, w = mode_table(p, y0)
    # y_pm = x_plus +- x_minus; each table row lies in one half, so this undoes the join exactly
    halves = np.stack([table[:, 0] + table[:, 1], table[:, 0] - table[:, 1]], axis=1)
    return mode_states(halves, w, taus, p.omega_rf)


def exact_state_trajectory(p: ControlParams, x0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Rotating-frame exact 8-vectors at every tau in taus, shape np.shape(taus) + (8,), the ``mode_states`` from x0."""
    table, w = mode_table(p, split_halves(x0))
    return mode_states(table, w, taus, p.omega_rf).reshape(np.shape(taus) + (8,))


@dataclass(frozen=True)
class DiscrepancyResult:
    """Largest gap between the integrated-generator ansatz and the exact propagator."""

    max_deviation: float
    tau_at_max: float


def propagator_discrepancy(p: ControlParams, tau_grid: np.ndarray) -> DiscrepancyResult:
    """max over the grid, both halves and all basis initial states of the propagator gap."""
    taus = np.asarray(tau_grid, dtype=float)
    # ansatz[n, h, :, j] = U_ansatz(tau_n) e_j and exact[n, h, :, j] = U_exact(tau_n) e_j on half h
    eye = np.broadcast_to(np.eye(4), (2, 4, 4))
    gap = propagate_expm_integral(p, eye, taus) - propagate_rotating_exact(p, eye, taus)
    worst = np.max(np.linalg.norm(gap, axis=2), axis=(1, 2))
    i = int(np.argmax(worst))
    return DiscrepancyResult(max_deviation=float(worst[i]), tau_at_max=float(taus[i]))
