"""Reduced dynamics of the eight closing expectation values.

The expectation vector x = (x1..x8) obeys dx/dtau = M(tau) x with the
skew-symmetric block generator M = 2[[P, Q], [Q, P]].  Splitting into
y_pm = x_plus +- x_minus decouples the system into two 4-vectors driven by
M_pm = 2(P +- Q), which is linear in the drive:

    M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS),  M0_pm = MB + (bz +- k)*MZ.

Every generator in the package is assembled from the four constant matrices
MB, MZ, MC and MS.  The half generators M_pm and the states of the last two
routes below carry both halves on one axis of length 2, + first; RK4 steps the
8-vector itself.  Three propagation routes are provided:

* ``propagate_rk4``            classic fixed-step RK4 on x with the 8x8 ``build_M``,
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
from types import SimpleNamespace

import numpy as np

from .algebra import ControlParams

CSV_HEADER = "tau,x1,x2,x3,x4,x5,x6,x7,x8,norm"

_BLOCK_STEPS = 32  # steps per block of the step product (see _powers)
_WINDOW_ROWS = 6144  # the one memory budget, rows a streamed loop holds per source; a search block counts its block tables


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
# The frame turn of the 8-vector: J on each of x_plus and x_minus, as on each of y_pm.  With P = -K^2 and D = I - P,
# exp(phi K)^T = D + cos(phi) P - sin(phi) K; _TURN_PARTS = (D, P, -K).
_TURN = np.kron(np.eye(2), J)
_TURN_PARTS = np.stack([np.eye(8) + _TURN @ _TURN, -_TURN @ _TURN, -_TURN])


# the (+, -) halves axis of every generator and state: M0_pm = MB + (bz + _PM*k)*MZ
_PM = np.array([1.0, -1.0])[:, None, None]
# _JOIN[h, 0, s, 0, 0] = 1/2 and _PM[h]/2 for s = +, -: half h's part of x_plus and x_minus, as in join_halves
_JOIN = 0.5 * np.array([[1.0, 1.0], [1.0, -1.0]])[:, None, :, None, None]


def static_generator(p: ControlParams) -> np.ndarray:
    """M0_pm = MB + (bz +- k)*MZ, the part of M_pm that does not depend on the phase, shape (bz's, k's) + (2, 4, 4), + first."""
    bz, k = (np.asarray(v, dtype=float)[..., None, None, None] for v in (p.bz, p.k))
    return MB + (bz + _PM * k) * MZ


def build_M_half(p: ControlParams, tau) -> np.ndarray:
    """Decoupled generators M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS), shape np.shape(tau) + (2, 4, 4)."""
    th = p.theta(np.asarray(tau, dtype=float))[..., None, None, None]
    return static_generator(p) + np.asarray(p.b0, dtype=float)[..., None, None, None] * (np.cos(th) * MC + np.sin(th) * MS)


def build_M(p: ControlParams, tau) -> np.ndarray:
    """Full 8x8 generator 2*[[P, Q], [Q, P]], with 2P = (M_+ + M_-)/2 and 2Q = (M_+ - M_-)/2.

    The result has shape (the broadcast of tau and the fields of p) + (8, 8)."""
    m_plus, m_minus = np.moveaxis(build_M_half(p, tau), -3, 0)
    out = np.empty(m_plus.shape[:-2] + (8, 8))
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
        rows = np.column_stack([self.taus, self.states, self.norms()])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=CSV_HEADER, comments="")


def _grid_rows(tau_end: float, dtau: float) -> int:
    """Rows of the grid 0, dtau, 2*dtau, ..., tau_end with the last step shortened; the one check of every step."""
    if not (math.isfinite(tau_end) and tau_end >= 0):
        raise ValueError(f"tau_end must be finite and nonnegative, got {tau_end:g}")
    if not (math.isfinite(dtau) and dtau > 0):
        raise ValueError(f"dtau must be finite and positive, got {dtau:g}")
    if not math.isfinite(tau_end / dtau):
        raise ValueError(f"tau_end / dtau must be finite, got {tau_end:g} / {dtau:g}")
    n_full = int(math.floor(tau_end / dtau + 1e-12))
    short = dtau * n_full < tau_end - 1e-12 * max(1.0, tau_end)  # a shortened last step ends one more point
    return n_full + 1 + short


def _time_grid(tau_end: float, dtau: float, first: int = 0) -> np.ndarray:
    """The grid of ``_grid_rows``, i*dtau at row i and tau_end at the last, from row first on: any tail has its bits."""
    taus = np.arange(first, _grid_rows(tau_end, dtau), dtype=float)
    taus *= dtau  # in place: a grid of n points holds 8n bytes at its peak
    taus[-1] = tau_end
    return taus


class _Rows:
    """A row source: count rows of a block grid, then the held rows tail; take makes any range of them.

    Grid row j*b + l is s_j @ table[..., :, l, :], s_j row j of the block starts (starts.take(a, z) makes rows a..z-1),
    table of shape (..., 8, b, width): one GEMM reads a block's maps side by side.  Leading axes of the tail and the
    table (sets, oracles) give each entry a GEMM of the shape a lone source has.  A last partial block, the one-row
    product with the table's first columns, is made here and heads the tail.  The rows are co-rotating: each oracle
    turns its own to the lab frame after them, RK4 by ``_turned`` and the mode tables in ``mode_states``.
    """

    def __init__(self, tail, starts=None, table=None, count=0):
        self.tail, self.starts, self.count = tail, starts, count
        self.n = count + tail.shape[-2]
        if count:
            self.b, width = table.shape[-2:]
            self.table = table.reshape(table.shape[:-3] + (-1, self.b * width))
            full, rest = divmod(count, self.b)
            if rest:
                last = (starts.take(full, full + 1) @ self.table[..., : rest * width]).reshape(tail.shape[:-2] + (rest, width))
                self.count, self.tail = full * self.b, np.concatenate([last, tail], axis=-2)

    def take(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """State rows lo..hi-1, shape (..., rows, width), each with the bits it has in the GEMM over every start.

        A GEMM over two or more starts keeps those bits and a one-row product (gemv) does not, so a range in one
        block of several also takes a neighbour; whole blocks are written in place.  out, if given, is a C-contiguous
        array of the result's shape that receives the rows: a caller's buffer, reused window after window."""
        hi, count, width = min(hi, self.n), self.count, self.tail.shape[-1]
        if out is None:
            if lo >= count:  # held rows alone, as a view
                return self.tail[..., lo - count : hi - count, :]
            out = np.empty(self.tail.shape[:-2] + (hi - lo, width))
        out[..., max(count - lo, 0) :, :] = self.tail[..., max(lo - count, 0) : max(hi - count, 0), :]
        if lo < min(hi, count):
            b, g_hi = self.b, min(hi, count)
            j0, j1 = lo // b, -(-g_hi // b)
            if j1 - j0 == 1 and count > b:
                j0, j1 = (j0 - 1, j1) if j0 else (j0, j1 + 1)
            dest = out[..., : g_hi - lo, :]
            if (lo, g_hi) == (j0 * b, j1 * b):
                np.matmul(self.starts.take(j0, j1), self.table, out=dest.reshape(dest.shape[:-2] + (j1 - j0, -1)))
            else:
                rows = (self.starts.take(j0, j1) @ self.table).reshape(dest.shape[:-2] + (-1, width))
                dest[...] = rows[..., lo - j0 * b : g_hi - j0 * b, :]
        return out

    def array(self) -> np.ndarray:
        """Every state row, in one take."""
        return self.take(0, self.n)


def _powers(e: np.ndarray, first: np.ndarray, n: int) -> _Rows:
    """Rows x_i of the powers of a step map: n rows of 8.

    x_i = (I + e[0])^i first for i < n - 1 and x_(n-1) = (I + e[1]) x_(n-2), first an 8-vector; e (2, ..., 8, 8) holds
    the increments of a step of dtau and of the grid's last step, of a stack of sets on its middle axes with first of
    their shape (first may be shared if n > 1).  With E_0 = 0 and E_l = (I + e)^l - I = E_(l-1) + e E_(l-1) + e, x_i
    at i = j*_BLOCK_STEPS + l < n - 1 is s_j @ (I + E_l)^T, on the block grid of a ``_Rows``; x_(n-1) is its one held
    row.  The block starts s_j = (I + E_last)^j first, E_last = E_(_BLOCK_STEPS), are the rows of _powers on E_last:
    n entries recurse to n/_BLOCK_STEPS, ...  Increments keep a diagonal near 1 from being rounded each step; e and
    E_last are rounded once and that rounding repeats about n/_BLOCK_STEPS times, so blocks are short.
    """
    if n == 1:
        return _Rows(first[..., None, :])
    # rows read E_l only up to l = n - 2 and the starts E_last: with a step longer than the run the rest overflow
    powers = np.zeros((min(_BLOCK_STEPS, n - 2) + 1,) + e.shape[1:])
    for l in range(1, len(powers)):
        powers[l] = powers[l - 1] + e[0] @ powers[l - 1] + e[0]
    starts = _powers(powers[[-1, -1]], first, (n - 2) // _BLOCK_STEPS + 1)
    table = np.moveaxis(powers[:_BLOCK_STEPS], 0, -2).swapaxes(-1, -3) + np.eye(8)[:, None]  # s @ table[..., l, :] = (I + E_l) s
    j, l = divmod(n - 2, _BLOCK_STEPS)
    x = (starts.take(j, j + 1) @ table[..., l, :])[..., 0, :]  # x_(n-2)
    x = x + (e[1] @ x[..., None])[..., 0]
    return _Rows(x[..., None, :], starts, table, n - 1)


def _turned(rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """RK4's rows turned to the lab frame by exp(phi K), K = _TURN, phi an angle a row: as K^3 = -K, exp(phi K)^T =
    D + cos(phi) P - sin(phi) K (_TURN_PARTS), so x turns to [x, cos(phi) x, sin(phi) x] @ [D; P; -K], one GEMM for all
    rows.  Each column sums at most two nonzero terms, so a row has the same bits in any GEMM."""
    c, s = np.cos(phi)[..., None], np.sin(phi)[..., None]
    return np.concatenate([rows, c * rows, s * rows], axis=-1) @ _TURN_PARTS.reshape(24, 8)


def propagate_rk4(p: ControlParams, x0: np.ndarray, tau_end: float, dtau: float) -> Trajectory:
    """Classic 4th-order fixed-step RK4 of dx/dtau = M x on ``_time_grid(tau_end, dtau)``, M the 8x8 ``build_M``.

    With left, middle and right generators A1, A2, A4 of a step of length h, the stages of a
    linear system are K2 = A2 (I + h/2 A1), K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3), and the
    step adds D x, D = h/6 (A1 + 2 K2 + 2 K3 + K4).  As M(t + s) = R M(s) R^T, R = exp(omega_rf*t*_TURN) (see J),
    every step of length h is one map in the co-rotating frame, R(-omega_rf h) (I + D(0)); ``_powers`` takes the
    co-rotating states and ``_turned`` turns each back by exp(omega_rf*tau*_TURN), a window of _WINDOW_ROWS rows at a
    time, written into the states: beyond taus and states, memory does not grow with the grid.  The states are a new
    array, never x0.
    """
    taus = _time_grid(tau_end, dtau)
    rows, states = _powers(_rk4_map(p, taus, dtau), np.asarray(x0, dtype=float), len(taus)), np.empty((len(taus), 8))
    for lo in range(0, len(taus), _WINDOW_ROWS):
        window = rows.take(lo, lo + _WINDOW_ROWS, states[lo : lo + _WINDOW_ROWS])
        window[...] = _turned(window, p.omega_rf * taus[lo : lo + _WINDOW_ROWS])
    return Trajectory(taus=taus, states=states)


def _rk4_map(p: ControlParams, taus: np.ndarray, dtau: float) -> np.ndarray:
    """The co-rotating step map's increments for ``_powers`` on a grid of step dtau ending in taus, shape (2,) + s + (8, 8):
    a step of dtau and the grid's last step, s the shape of p's fields, each control of a stack with its bits alone."""
    h = np.append(dtau, np.diff(taus[-2:])).reshape((-1,) + (1,) * np.ndim(p.omega_rf))  # all steps but the last are dtau
    left, mid, right = build_M(p, np.multiply.outer([0.0, 0.5, 1.0], h))
    h = h[..., None, None]
    k2 = mid + (h / 2.0) * (mid @ left)
    k3 = mid + (h / 2.0) * (mid @ k2)
    k4 = right + h * (right @ k3)
    d = (h / 6.0) * (left + 2.0 * k2 + 2.0 * k3 + k4)
    # R(-omega_rf h) - I = -sin(omega_rf h) K + (1 - cos(omega_rf h)) K^2, as K^3 = -K for K = _TURN
    angle = np.asarray(p.omega_rf)[..., None, None] * h
    turn = -np.sin(angle) * _TURN + 2.0 * np.sin(angle / 2.0) ** 2 * (_TURN @ _TURN)
    return turn + d + turn @ d


def sinc(z):
    """sin(z)/z elementwise, 1 at z = 0; a scalar gives a numpy scalar."""
    z = np.asarray(z, dtype=float)
    return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0.0)[()]


def phase_integrals(p: ControlParams, tau) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^tau cos(theta(s)) ds, int_0^tau sin(theta(s)) ds), broadcast over tau and the fields of p.

    By sum-to-product, with u = omega_rf*tau, they are tau*sinc(u/2)*cos(theta0 + u/2) and
    tau*sinc(u/2)*sin(theta0 + u/2): no difference of nearby sines and no division by omega_rf.
    """
    tau = np.asarray(tau, dtype=float)
    half = p.omega_rf * tau / 2.0
    scale = tau * sinc(half)
    return scale * np.cos(p.theta0 + half), scale * np.sin(p.theta0 + half)


def integral_generator(p: ControlParams, tau) -> np.ndarray:
    """A_pm(tau) = int_0^tau M_pm(s) ds = tau*M0_pm + b0*(int cos(theta)*MC + int sin(theta)*MS), shape (..., 2, 4, 4)."""
    tau = np.asarray(tau, dtype=float)
    int_cos, int_sin = (np.asarray(v)[..., None, None, None] for v in phase_integrals(p, tau))
    return tau[..., None, None, None] * static_generator(p) + p.b0 * (int_cos * MC + int_sin * MS)


# flat indices of the Hodge dual of a 4x4 skew a: (*a)[i, j] = a[k, l], (i, j, k, l) an even permutation
_DUAL = [0, 11, 13, 6, 14, 5, 3, 8, 7, 12, 10, 1, 9, 2, 4, 15]


def expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) of real skew-symmetric generators, shape (..., 4, 4), in closed form by so(4) = su(2) + su(2).

    The self-dual and anti-self-dual parts h_pm = (a +- *a)/2 commute and h_pm^2 = -t_pm^2 I, t_pm^2 = |h_pm|_F^2/4,
    so exp(a) = (cos t_+ I + sinc t_+ h_+)(cos t_- I + sinc t_- h_-); a's rotation angles are t_+ +- t_-."""
    a = np.asarray(a, dtype=float)
    dual = a.reshape(a.shape[:-2] + (16,))[..., _DUAL].reshape(a.shape)
    h = 0.5 * np.stack([a + dual, a - dual])
    t = 0.5 * np.sqrt(np.sum(h * h, axis=(-2, -1)))[..., None, None]
    factor = np.cos(t) * np.eye(4) + sinc(t) * h
    return factor[0] @ factor[1]


def propagate_expm_integral(p: ControlParams, y0: np.ndarray, taus: np.ndarray | float) -> np.ndarray:
    """exp[A_pm(tau)] y0 at every tau in taus — the integrated-generator ansatz, not the time-ordered solution.

    y0 has shape (2, 4) or (2, 4, m), both halves + first, and the result has
    shape ``np.shape(taus) + np.shape(y0)``; y0 = two eye(4) gives the propagators."""
    y0 = np.asarray(y0, dtype=float)
    return (expm_skew(integral_generator(p, taus)) @ y0.reshape(2, 4, -1)).reshape(np.shape(taus) + y0.shape)


def rotating_generator(p: ControlParams) -> np.ndarray:
    """Constant co-rotating-frame generators M_pm(0) - omega_rf * J, shape (the broadcast of k, bz, b0, omega_rf) + (2, 4, 4);
    each control of a stack keeps its bits, and one ``mode_table`` (one eigh) takes a group of the search's pairs."""
    return build_M_half(p, 0.0) - np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J


def mode_table(p: ControlParams, y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(table, w), shapes (8,) + np.shape(y0) and (4,): [cos(w*tau), sin(w*tau)] @ table is the co-rotating state from y0.

    That is exp[tau (M_pm(0) - omega_rf J)] y0 before the frame turn exp(omega_rf*tau*J), y0 of shape (2, 4) or
    (2, 4, m), both halves + first, joined: the table's halves axis holds x_plus, x_minus = (y_+ +- y_-)/2, so
    from y0 = split_halves(x0) it gives the 8-vector.  Array-valued k, bz, b0 or omega_rf prepend their shape to both.  eigh
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
    """Whether taus has 3 or more entries on one axis, all but the last dtau*arange bitwise; compared in windows."""
    n = len(taus) - 1 if np.ndim(taus) == 1 else 0
    spans = [(lo, min(lo + _WINDOW_ROWS, n)) for lo in range(0, n, _WINDOW_ROWS)]
    return n >= 2 and all(np.array_equal(taus[lo:hi], taus[1] * np.arange(lo, hi)) for lo, hi in spans)


def mode_states(table: np.ndarray, w: np.ndarray, taus, omega_rf: float | None = None) -> np.ndarray:
    """[cos(w*tau), sin(w*tau)] @ table at every tau in taus, turned by exp(omega_rf*tau*J) if omega_rf is given.

    (table, w) is a ``mode_table`` with leading shape s and a state of shape (2, 4) or (2, 4, m); the result
    has shape s + np.shape(taus) + state, the rows of ``_mode_rows``, each turned in the (2,4) plane of both halves,
    of y_pm or alike of x_plus and x_minus; omega_rf has s's last axes or none."""
    taus = np.asarray(taus, dtype=float)
    lead, state = w.shape[:-1], table.shape[w.ndim :]
    rows = _mode_rows(table, w, taus).array()
    y = rows.reshape(rows.shape[:-1] + (2, 4, -1))
    if omega_rf is not None:
        c, s = (f(np.asarray(omega_rf)[..., None] * taus.reshape(-1))[..., None, None] for f in (np.cos, np.sin))
        y[..., 1, :], y[..., 3, :] = c * y[..., 1, :] - s * y[..., 3, :], s * y[..., 1, :] + c * y[..., 3, :]
    return y.reshape(lead + taus.shape + state)


def _mode_rows(table: np.ndarray, w: np.ndarray, taus: np.ndarray, grid: tuple | None = None) -> _Rows:
    """The rows of ``mode_states`` before its turn, shape s + (taus.size, width), as a row source.

    For an 8-wide state (2, 4) on ``_on_grid`` taus, or with grid = (n, dtau), taus the last of n >= 3 rows i*dtau
    of ``_time_grid``, all but the last tau are a block grid: by angle addition the rows at block step l are [cos_l T_c
    + sin_l T_s; cos_l T_s - sin_l T_c], rate by rate, T_c and T_s the cos and sin rows of the table, so cos and sin
    run on one block and on the block starts, made as a window takes them.  The last tau, any other taus, a grid of
    n < 3 rows and wider states take the direct form."""
    table = table.reshape(w.shape[:-1] + (8, -1))

    def trig(t):  # cos(w*t) and sin(w*t), shape lead + (len(t), 4) each
        phase = w[..., None, :] * t[:, None]
        return np.cos(phase), np.sin(phase)

    n, dtau = grid or ((len(taus), taus[1]) if table.shape[-1] == 8 and _on_grid(taus) else (0, None))
    direct = taus[-1:] if n > 2 else taus.reshape(-1)
    rows = np.concatenate(trig(direct), axis=-1) @ table
    if n < 3:
        return _Rows(rows)
    b = _BLOCK_STEPS
    block = np.arange(min(b, n - 1)) * dtau  # the grid's taus: i*dtau, i an exact float
    # [cos, sin] at the block starts a..z-1, made as they are taken
    starts = SimpleNamespace(take=lambda a, z: np.concatenate(trig(np.arange(a * b, z * b, b, dtype=float) * dtau), axis=-1))
    c, s = (np.swapaxes(v, -1, -2)[..., None, :] for v in trig(block))  # (lead, 4, 1, b): inner loops over 32 taus, not 8 columns
    t_c, t_s = table[..., :4, :, None], table[..., 4:, :, None]
    maps = np.empty(table.shape[:-2] + (8, len(block), table.shape[-1]))  # the block table (lead, 8, b, width), written
    out = np.swapaxes(maps, -1, -2)  # through its (lead, 8, width, b) view
    np.add(c * t_c, s * t_s, out=out[..., :4, :, :]), np.subtract(c * t_s, s * t_c, out=out[..., 4:, :, :])
    return _Rows(rows, starts, maps, n - 1)


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
