"""Reachability searches over the rotating-control ansatz.

The search space is the energy shell of the rotating drive: (bz, omega_rf)
free, b0 fixed by the energy constraint, and theta0 a gauge read off the state
from e1.  Every search minimizes one objective, the first crossing of the
theta0-best target value on ``dynamics.mode_states`` (``_first_crossing``).
A grid search records the peak of every component x1..x8, so the search for
x8 also measures how close the unreachable x7 comes.

The mirror (bz, omega_rf) -> (-bz, -omega_rf) swaps the halves y_pm up to
S = diag(1, -1, 1, 1), which flips MZ, J and MS and fixes MB, MC and e1: x5 and
x7 change sign and every other theta0-best value stays.  So a grid search
evaluates half of its mirror-symmetric box and reads the other half off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from .dynamics import _time_grid, mode_states, mode_table, split_halves

_CHUNK_STEPS = 4096  # (omega_rf, tau) rows per block of grid_search
_Y1 = split_halves(E1)  # both halves of the start state e1
# component name -> index in the 8-vector; also the CLI's --target choices
COMPONENT_INDEX = {f"x{i}": i - 1 for i in range(1, 9)}
_MIRRORED = ("x5", "x7")  # the components the mirror (bz, omega_rf) -> (-bz, -omega_rf) flips


def _target_index(target: str) -> int:
    try:
        return COMPONENT_INDEX[target]
    except KeyError:
        raise ValueError(f"unknown target {target!r}; expected 'x1'..'x8'") from None


def default_bounds(omega_hat: float) -> dict:
    """Search box covering all closed-form branches with margin, symmetric in bz and in omega_rf."""
    return {"bz": (-omega_hat, omega_hat), "omega_rf": (-8.0, 8.0)}


@dataclass
class SearchResult:
    """Best point found by a grid or local search over the rotating ansatz."""

    best_params: ControlParams | None
    best_tau: float | None
    achieved: float  # largest target expectation seen anywhere
    achieved_params: ControlParams | None
    achieved_tau: float | None
    # (value, tau, params) of the largest value of each component x1..x8 seen
    # anywhere, the target's entry included; (-inf, None, None) when no grid
    # point lies on the energy shell
    peaks: dict
    grid_spec: dict
    feasible: bool
    trace: list = field(default_factory=list)
    # (bz, omega_rf, tau_to_threshold, peak, peak_tau) per evaluated pair, bz from the centre row up; for x5
    # and x7 each pair off the centre row is followed by its mirror (-bz, -omega_rf), so the whole box is listed
    landscape: list = field(default_factory=list)


def _axis(bounds: dict, name: str, resolution: int) -> np.ndarray:
    lo, hi = bounds[name]
    if resolution == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, resolution)


def _best_over_theta0(modes: tuple, taus) -> np.ndarray:
    """The largest value of each component over theta0 at taus, shape s + np.shape(taus) + (8,).

    modes is the ``mode_table`` from e1 of a control, or of an omega_rf block with leading
    shape s, and theta0 a gauge only from e1.  R = exp(theta0*J) turns the drive,
    M_pm(tau; theta0) = R M_pm(tau; 0) R^T, and fixes e1, so y_pm(tau; theta0) =
    R y_pm(tau; 0): with c, s = cos, sin(theta0), x2 -> c*x2 - s*x4 and x4 -> s*x2 + c*x4
    (x6, x8 alike), and x1, x3, x5, x7 do not change.  So the best x2 and the best x4
    are both hypot(x2, x4).  The frame rotation is such a turn, by omega_rf*tau:
    the best values are read off the co-rotating state, ``dynamics.mode_states`` without
    the turn, and ``_best_theta0`` turns it only to read theta0.
    """
    table, w = modes
    taus = np.asarray(taus, dtype=float)
    x = mode_states(table, w, taus).reshape(w.shape[:-1] + taus.shape + (8,))
    x[..., 1::4] = x[..., 3::4] = np.hypot(x[..., 1::4], x[..., 3::4])  # (x2, x6) and (x4, x8)
    return x


def _best_theta0(modes: tuple, tau: float, omega_rf: float, j: int) -> float:
    """theta0 at which component j takes its ``_best_over_theta0`` value at tau; 0 for x1, x3, x5 and x7.

    Read off the lab-frame state (x2, x4) of theta0 = 0, and alike (x6, x8): the best
    x4 is at theta0 = atan2(x2, x4), the best x2 at atan2(-x4, x2).
    """
    if j % 2 == 0:
        return 0.0
    x = mode_states(*modes, tau, omega_rf).reshape(8)
    u, v = x[1::4], x[3::4]  # (x2, x6) and (x4, x8)
    return float((np.arctan2(-v, u) if j % 4 == 1 else np.arctan2(u, v))[j // 4])


def _check_threshold(threshold: float) -> None:
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")


def _first_crossing(
    p: ControlParams, modes: tuple, j: int, threshold: float, taus: np.ndarray, best: np.ndarray, sign: float = 1.0
) -> tuple[float, ControlParams] | None:
    """(tau, p at the best theta0 there) where sign*best[:, j] first reaches threshold; None if it never does.

    modes is a ``mode_table`` from e1 of a theta0 = 0 control, best =
    _best_over_theta0(modes, taus), and p that control or, with sign -1 and j
    x5 or x7, its mirror (bz, omega_rf) -> (-bz, -omega_rf), whose x_j is -x_j
    (module docstring; theta0 moves neither).  brentq solves the crossing on the same
    table in the grid interval holding the first hit; its ends keep their grid
    values, since a single-tau evaluation may differ from a batched row in the last bits.
    """
    hits = np.nonzero(sign * best[:, j] >= threshold)[0]
    if len(hits) == 0:
        return None
    i = int(hits[0])
    if i == 0:  # the state is e1, whatever theta0
        return 0.0, p
    from scipy.optimize import brentq  # imported here: the CLI's start-up needs no scipy
    ends = {float(taus[i - 1]): sign * best[i - 1, j] - threshold, float(taus[i]): sign * best[i, j] - threshold}

    def gap(tau: float) -> float:
        return ends[tau] if tau in ends else sign * _best_over_theta0(modes, tau)[j] - threshold

    tau = brentq(gap, taus[i - 1], taus[i], xtol=1e-15)
    return float(tau), replace(p, theta0=_best_theta0(modes, tau, p.omega_rf, j))


def min_time_to_target(
    p: ControlParams, target: str = "x8", threshold: float = 0.999, tau_max: float = 10.0, dtau: float = 1e-3
) -> tuple[float, ControlParams] | None:
    """(tau, p at the best theta0 there) of the first crossing of the theta0-best x_target; None if never reached.

    p.theta0 is ignored (from e1 it is a gauge).  The crossing is bracketed on
    _time_grid(tau_max, dtau); a threshold above 1 is simply unreachable.
    """
    _check_threshold(threshold)
    j = _target_index(target)
    taus = _time_grid(tau_max, dtau)
    p = replace(p, theta0=0.0)
    modes = mode_table(p, _Y1)
    return _first_crossing(p, modes, j, threshold, taus, _best_over_theta0(modes, taus))


def grid_search(
    omega_hat: float,
    k: float,
    target: str = "x8",
    resolution: int = 21,
    threshold: float = 0.999,
    tau_max: float | None = None,
    dtau: float = 1e-2,
    collect_landscape: bool = False,
) -> SearchResult:
    """Grid scan of the energy-shell ansatz over default_bounds(omega_hat) for the earliest threshold crossing.

    Deterministic for fixed inputs; a control between grid nodes is not seen.  Only
    the bz rows from the centre row up are evaluated (not bz >= 0: the centre node may
    read +-4.4e-16), on the whole omega_rf axis, so the mirror of every other node is
    among them: a node's -x5 and -x7 are the mirror's x5 and x7, reported there.  Each
    on-shell bz row of omega_rf is taken in blocks of at most _CHUNK_STEPS
    (omega_rf, tau) rows, one omega_rf at least: one ``mode_table`` (one eigh call)
    and one ``_best_over_theta0`` pass per block.  Peaks and crossings stay per
    (bz, omega_rf) pair: every reported params/tau pair carries the best theta0 there,
    and each pair's crossing is solved on the bracket its own grid rows give
    (``_first_crossing``), as ``min_time_to_target`` does.  bz values outside the
    energy shell are skipped (no real transverse amplitude there); an omega_hat at or
    below the energy floor, omega_hat^2 <= 1 + k^2, and a threshold that is not
    positive are ValueErrors.  The result also records the largest value of every
    component x1..x8 seen, reached or not, so one pass also bounds the components it
    does not target, and optionally the ((bz, omega_rf) -> reach time, peak)
    landscape of the whole box (``SearchResult.landscape``).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    _check_threshold(threshold)
    shell = energy_shell(omega_hat, k)
    bounds = default_bounds(omega_hat)
    tau_max = 3.0 * TAU_STAR if tau_max is None else tau_max
    taus = _time_grid(tau_max, dtau)
    idx = _target_index(target)
    rf_axis = _axis(bounds, "omega_rf", resolution)
    width = max(1, _CHUNK_STEPS // len(taus))  # omega_rf values per block

    best_tau = math.inf
    best_params: ControlParams | None = None
    peaks = {name: (-math.inf, None, None) for name in COMPONENT_INDEX}
    landscape: list = []
    for row, bz in enumerate(_axis(bounds, "bz", resolution)[resolution // 2 :]):
        if bz**2 > shell:
            continue
        b0 = transverse_amplitude(omega_hat, k, bz)
        for start in range(0, len(rf_axis), width):
            block = rf_axis[start : start + width]
            tables, rates = mode_table(ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=block, theta0=0.0), _Y1)
            bests = _best_over_theta0((tables, rates), taus)
            for omega_rf, modes, best in zip(block, zip(tables, rates), bests):
                p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
                mirror = replace(p, bz=-bz, omega_rf=-omega_rf)
                top, bottom = np.argmax(best, axis=0), np.argmin(best, axis=0)
                for name, j in COMPONENT_INDEX.items():
                    i = top[j]
                    if best[i, j] > peaks[name][0]:
                        theta0 = _best_theta0(modes, taus[i], omega_rf, j)
                        peaks[name] = (float(best[i, j]), float(taus[i]), replace(p, theta0=theta0))
                    i = bottom[j]
                    if name in _MIRRORED and -best[i, j] > peaks[name][0]:
                        peaks[name] = (float(-best[i, j]), float(taus[i]), mirror)
                sides = [(p, 1.0, top[idx])] + ([(mirror, -1.0, bottom[idx])] if target in _MIRRORED else [])
                for side, (q, sign, i) in enumerate(sides):
                    hit = _first_crossing(q, modes, idx, threshold, taus, best, sign)
                    if hit and hit[0] < best_tau:
                        best_tau, best_params = hit
                    if collect_landscape and (side == 0 or row > 0 or resolution % 2 == 0):  # a centre row holds its mirrors
                        reached = hit[0] if hit else None
                        landscape.append((float(q.bz), float(q.omega_rf), reached, float(sign * best[i, idx]), float(taus[i])))
    achieved, achieved_tau, achieved_params = peaks[target]
    return SearchResult(
        best_params=best_params,
        best_tau=None if math.isinf(best_tau) else best_tau,
        achieved=achieved,
        achieved_params=achieved_params,
        achieved_tau=achieved_tau,
        peaks=peaks,
        grid_spec={
            "omega_hat": omega_hat,
            "k": k,
            "target": target,
            "bounds": bounds,
            "resolution": resolution,
            "threshold": threshold,
            "tau_max": tau_max,
            "dtau": dtau,
        },
        feasible=best_params is not None,
        landscape=landscape,
    )


def refine_local(seed: SearchResult, iterations: int = 120) -> SearchResult:
    """Simplex refinement of (bz, omega_rf) minimizing the threshold-crossing time.

    theta0 is read off the state and b0 restores the energy constraint after
    every move.  The reported time never increases across iterations; an
    infeasible seed is returned unchanged.
    """
    if not seed.feasible or seed.best_params is None or seed.best_tau is None:
        return replace(seed, trace=list(seed.trace))
    from scipy.optimize import minimize  # imported here: the CLI's start-up needs no scipy
    spec = seed.grid_spec
    omega_hat, k = spec["omega_hat"], spec["k"]
    target, threshold = spec["target"], spec["threshold"]
    tau_max, dtau = spec["tau_max"], spec["dtau"]
    shell = energy_shell(omega_hat, k)
    best = {"tau": seed.best_tau, "params": seed.best_params}
    trace = [seed.best_tau]

    def objective(v: np.ndarray) -> float:
        bz, omega_rf = v
        if bz**2 >= shell:
            return 10.0 * tau_max
        p = replace(seed.best_params, b0=transverse_amplitude(omega_hat, k, bz), bz=float(bz), omega_rf=float(omega_rf))
        hit = min_time_to_target(p, target, threshold, tau_max=tau_max, dtau=dtau)
        if hit is None:
            return 10.0 * tau_max
        t, p = hit
        if t < best["tau"]:
            best["tau"], best["params"] = t, p
        trace.append(best["tau"])
        return t

    x0 = np.array([seed.best_params.bz, seed.best_params.omega_rf])
    minimize(objective, x0, method="Nelder-Mead", options={"maxfev": iterations, "xatol": 1e-10, "fatol": 1e-12})
    return replace(seed, best_params=best["params"], best_tau=best["tau"], trace=trace)
