"""Reduced dynamics of the eight closing expectation values.

The expectation vector x = (x1..x8) obeys dx/dtau = M(tau) x with the
skew-symmetric block generator M = 2[[P, Q], [Q, P]].  Splitting into
y_pm = x_plus +- x_minus decouples the system into two 4-vectors driven by
M_pm = 2(P +- Q), which is linear in the drive:

    M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS),  M0_pm = MB + (bz +- k)*MZ.

Every generator in the package is assembled from the four constant matrices
MB, MZ, MC and MS.  Three propagation routes are provided:

* ``propagate_rk4``            classic fixed-step RK4 on the full 8-vector, its
                               step matrices built in batches over the time grid,
* ``propagate_expm_integral``  exp of the integrated generator (an ansatz:
                               for the rotating drive the generator does not
                               commute with its integral, so this is *not*
                               guaranteed to equal the time-ordered solution),
* ``propagate_rotating_exact`` closed form obtained in the co-rotating frame,
                               exact up to eigendecomposition accuracy.

``propagator_discrepancy`` measures the gap between the last two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import ControlParams

CSV_HEADER = "tau,x1,x2,x3,x4,x5,x6,x7,x8,norm"

# steps per batch of the time-grid integrators (see _step_chunks)
_CHUNK_STEPS = 4096


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


def static_generator(p: ControlParams, sign: int) -> np.ndarray:
    """M0_pm = MB + (bz +- k)*MZ, the part of M_pm that does not depend on the phase."""
    return MB + (p.bz + sign * p.k) * MZ


def build_M_half(p: ControlParams, tau, sign: int) -> np.ndarray:
    """Decoupled 4x4 generator M_pm(tau) = M0_pm + b0*(cos(theta)*MC + sin(theta)*MS), shape np.shape(tau) + (4, 4)."""
    th = p.theta(np.asarray(tau, dtype=float))[..., None, None]
    return static_generator(p, sign) + p.b0 * (np.cos(th) * MC + np.sin(th) * MS)


def build_M(p: ControlParams, tau) -> np.ndarray:
    """Full 8x8 generator 2*[[P, Q], [Q, P]], with 2P = (M_+ + M_-)/2 and 2Q = (M_+ - M_-)/2.

    The result has shape ``np.shape(tau) + (8, 8)``."""
    m_plus = build_M_half(p, tau, 1)
    m_minus = build_M_half(p, tau, -1)
    out = np.empty(np.shape(tau) + (8, 8))
    out[..., :4, :4] = out[..., 4:, 4:] = 0.5 * (m_plus + m_minus)
    out[..., :4, 4:] = out[..., 4:, :4] = 0.5 * (m_plus - m_minus)
    return out


def split_halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y_pm = x_plus +- x_minus with x_plus = x[:4], x_minus = x[4:]."""
    x = np.asarray(x, dtype=float)
    return x[:4] + x[4:], x[:4] - x[4:]


def join_halves(y_plus: np.ndarray, y_minus: np.ndarray) -> np.ndarray:
    """Inverse of split_halves; the state axis is the last one."""
    y_plus = np.asarray(y_plus, dtype=float)
    y_minus = np.asarray(y_minus, dtype=float)
    return np.concatenate([(y_plus + y_minus) / 2.0, (y_plus - y_minus) / 2.0], axis=-1)


@dataclass
class Trajectory:
    """Sampled trajectory of the 8-vector, tau strictly increasing from 0."""

    taus: np.ndarray
    states: np.ndarray  # shape (n, 8)
    method: str
    dtau: float

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
    n_full = int(math.floor(tau_end / dtau + 1e-12))
    taus = dtau * np.arange(n_full + 1)
    if taus[-1] < tau_end - 1e-12 * max(1.0, tau_end):
        taus = np.append(taus, tau_end)
    else:
        taus[-1] = tau_end
    return taus


def _step_chunks(taus: np.ndarray):
    """Split a grid into runs of at most _CHUNK_STEPS steps; yield (i, t) per run.

    t holds the run's points (neighbouring runs share one) and its steps end
    at grid indices i, i + 1, ...  The batched integrators build every
    per-step matrix of a run at once; the bound keeps each (n, 8, 8) stack at
    a few MB, where the 40k steps of the default grid would take 42 MB per
    complex stack.
    """
    for start in range(0, len(taus) - 1, _CHUNK_STEPS):
        yield start + 1, taus[start : start + _CHUNK_STEPS + 1]


def propagate_rk4(p: ControlParams, x0: np.ndarray, tau_end: float, dtau: float) -> Trajectory:
    """Classic 4th-order fixed-step integration of dx/dtau = M(tau) x on ``_time_grid(tau_end, dtau)``.

    The stages of a linear system are matrices: with left, middle and right
    generators A1, A2, A4 of a step of length h, K2 = A2 (I + h/2 A1),
    K3 = A2 (I + h/2 K2), K4 = A4 (I + h K3), and the step adds
    D x with D = h/6 (A1 + 2 K2 + 2 K3 + K4).  D is formed by batched matmuls
    over runs of ``_step_chunks``; only x <- x + D x is a Python loop.  The
    increment form is deliberate: x <- (I + D) x rounds the identity part at
    every step, and over the 40k steps of the default verify grid it drifted
    from the exact propagator by up to 8e-13, against 2e-14 for x + D x.
    """
    taus = _time_grid(tau_end, dtau)
    x = np.asarray(x0, dtype=float)
    states = np.empty((len(taus), 8))
    states[0] = x
    for first, t in _step_chunks(taus):
        h = np.diff(t)[:, None, None]
        edge = build_M(p, t)
        left, right = edge[:-1], edge[1:]
        mid = build_M(p, t[:-1] + h[:, 0, 0] / 2.0)
        k2 = mid + (h / 2.0) * (mid @ left)
        k3 = mid + (h / 2.0) * (mid @ k2)
        k4 = right + h * (right @ k3)
        increments = (h / 6.0) * (left + 2.0 * k2 + 2.0 * k3 + k4)
        for i, d in enumerate(increments, first):
            states[i] = x = x + d @ x
    return Trajectory(taus=taus, states=states, method="rk4", dtau=dtau)


def phase_integrals(p: ControlParams, tau) -> tuple[np.ndarray, np.ndarray]:
    """(int_0^tau cos(theta(s)) ds, int_0^tau sin(theta(s)) ds), broadcast over tau and the fields of p.

    The closed form divides by omega_rf; for small accumulated phase
    u = omega_rf*tau the removable singularity is evaluated by series.
    """
    tau = np.asarray(tau, dtype=float)
    u = p.omega_rf * tau
    c0 = np.cos(p.theta0)
    s0 = np.sin(p.theta0)
    small = np.abs(u) < 1e-2
    # int cos(u s/tau + theta0) ds = tau*(c0*C(u) - s0*S(u)), C = sin(u)/u, S = (1-cos u)/u.
    # The closed form cancels catastrophically for small u; the series is exact to double
    # precision up to |u| ~ 1e-2.  np.where evaluates both: each gets only its own entries.
    us = np.where(small, u, 0.0)
    u2 = us * us
    cu = 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
    su = us / 2.0 - us * u2 / 24.0 + us * u2 * u2 / 720.0 - us * u2 * u2 * u2 / 40320.0
    rate = np.where(small, 1.0, p.omega_rf)
    th = p.theta(tau)
    int_cos = np.where(small, tau * (c0 * cu - s0 * su), (np.sin(th) - s0) / rate)
    int_sin = np.where(small, tau * (s0 * cu + c0 * su), (c0 - np.cos(th)) / rate)
    return int_cos[()], int_sin[()]


def integral_generator(p: ControlParams, tau, sign: int) -> np.ndarray:
    """A_pm(tau) = int_0^tau M_pm(s) ds = tau*M0_pm + b0*(int cos(theta)*MC + int sin(theta)*MS), shape (..., 4, 4)."""
    tau = np.asarray(tau, dtype=float)
    int_cos, int_sin = (np.asarray(v)[..., None, None] for v in phase_integrals(p, tau))
    return tau[..., None, None] * static_generator(p, sign) + p.b0 * (int_cos * MC + int_sin * MS)


def expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) of real skew-symmetric generators, shape (..., n, n), from eigh of the Hermitian 1j*a."""
    ev, vec = np.linalg.eigh(1j * np.asarray(a, dtype=float))
    return ((vec * np.exp(-1j * ev)[..., None, :]) @ vec.conj().swapaxes(-1, -2)).real


def propagate_expm_integral(p: ControlParams, y0: np.ndarray, taus: np.ndarray | float, sign: int) -> np.ndarray:
    """exp[A_pm(tau)] y0 at every tau in taus — the integrated-generator ansatz, not the time-ordered solution.

    The result has shape ``np.shape(taus) + np.shape(y0)``; y0 = eye(4) gives the propagators."""
    return expm_skew(integral_generator(p, taus, sign)) @ np.asarray(y0, dtype=float)


def rotating_generator(p: ControlParams, sign: int) -> np.ndarray:
    """Constant co-rotating-frame generator M_pm(0) - omega_rf * J."""
    return build_M_half(p, 0.0, sign) - p.omega_rf * J


def propagate_rotating_exact(p: ControlParams, y0: np.ndarray, taus: np.ndarray | float, sign: int) -> np.ndarray:
    """Exact y_pm(tau) = exp(omega_rf*tau*J) exp[tau (M_pm(0) - omega_rf J)] y0 at every tau in taus.

    One eigendecomposition serves all requested times.  The result has shape
    ``np.shape(taus) + (4,)``.
    """
    t = np.ravel(np.asarray(taus, dtype=float))
    # the generator is real skew, so 1j*gen is Hermitian: eigh gives a unitary basis
    # even at degenerate spectra, where plain eig can return a singular one
    ev, vec = np.linalg.eigh(1j * rotating_generator(p, sign))
    coef = vec.conj().T @ np.asarray(y0, dtype=float).astype(complex)
    y = (vec @ (np.exp(np.outer(-1j * ev, t)) * coef[:, None])).real  # (4, n)
    # exp(phi*J) rotates the (2,4) plane by phi = omega_rf*tau
    c, s = np.cos(p.omega_rf * t), np.sin(p.omega_rf * t)
    y[1], y[3] = c * y[1] - s * y[3], s * y[1] + c * y[3]
    return y.T.reshape(np.shape(taus) + (4,))


def exact_state_trajectory(p: ControlParams, x0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Rotating-frame exact 8-vectors at every tau in taus, shape np.shape(taus) + (8,)."""
    y_plus0, y_minus0 = split_halves(x0)
    return join_halves(propagate_rotating_exact(p, y_plus0, taus, 1), propagate_rotating_exact(p, y_minus0, taus, -1))


@dataclass(frozen=True)
class DiscrepancyResult:
    """Largest gap between the integrated-generator ansatz and the exact propagator."""

    max_deviation: float
    tau_at_max: float


def propagator_discrepancy(p: ControlParams, tau_grid: np.ndarray) -> DiscrepancyResult:
    """max over the grid, both halves and all basis initial states of the propagator gap."""
    taus = np.asarray(tau_grid, dtype=float)
    worst = np.zeros(len(taus))
    for sign in (1, -1):
        # ansatz[n, :, j] = U_ansatz(tau_n) e_j and exact[n, :, j] = U_exact(tau_n) e_j
        ansatz = propagate_expm_integral(p, np.eye(4), taus, sign)
        exact = np.stack([propagate_rotating_exact(p, e, taus, sign) for e in np.eye(4)], axis=-1)
        worst = np.maximum(worst, np.max(np.linalg.norm(ansatz - exact, axis=1), axis=1))
    i = int(np.argmax(worst))
    return DiscrepancyResult(max_deviation=float(worst[i]), tau_at_max=float(taus[i]))
