"""Reachability searches over the rotating-control ansatz.

The search space is the energy shell of the rotating drive: (bz, omega_rf)
free, b0 fixed by the energy constraint, and theta0 a gauge read off the state
from e1.  Every search minimizes one objective, the first crossing time of the
theta0-best target value, solved by ``_first_crossing`` on the mode table; no
objective reads theta0, so a search reads it once per result it reports
(``_at_best_theta0``), not at every crossing and peak it solves.
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
from .dynamics import BLOCK_STEPS, WINDOW_ROWS, time_grid, mode_states, mode_table, split_halves

_GROUP_PAIRS = 256  # pairs per mode_table (one eigh) of grid_search: every default grid's 168-231, 128 KB of tables
_Y1 = split_halves(E1)  # both halves of the start state e1
# component name -> index in the 8-vector; also the CLI's --target choices
COMPONENT_INDEX = {f"x{i}": i - 1 for i in range(1, 9)}
_MIRRORED = ("x5", "x7")  # the components the mirror (bz, omega_rf) -> (-bz, -omega_rf) flips
# A peak at most this is rounding: the state has unit norm, so a component sums terms of at most unit size, each
# rounded to an ulp of 1, and 2**-40 is 4096 ulps of 1.  Over the x2..x8 grids measured (omega_hat 2.3 to 1000, k = +-1)
# rounding read at most 1.1e-14, and the smallest peak that rose 2.5e-6
ROUNDING = 2.0**-40


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
    # (value, tau, params) of the largest value of each component x1..x8 seen
    # anywhere, the target's entry included; (-inf, None, None) when no grid
    # point lies on the energy shell
    peaks: dict
    grid_spec: dict
    # (bz, omega_rf, tau_to_threshold, peak, peak_tau) per evaluated pair, bz from the centre row up; for x5
    # and x7 each pair off the centre row is followed by its mirror (-bz, -omega_rf), so the whole box is listed.
    # peak_tau is None where the peak is at most ROUNDING: a target that never rises above rounding has no peak tau
    landscape: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.best_params is not None


def _axis(bounds: dict, name: str, resolution: int) -> np.ndarray:
    lo, hi = bounds[name]
    if resolution == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, resolution)


def _best_over_theta0(modes: tuple, taus) -> np.ndarray:
    """The largest value of each component over theta0 at taus, shape s + np.shape(taus) + (8,).

    modes is the ``mode_table`` from e1 of a control, or of a block of them with leading shape s; from e1
    theta0 is a gauge.  R = exp(theta0*J) turns the drive, M_pm(tau; theta0) = R M_pm(tau; 0) R^T, and fixes
    e1, so y_pm(tau; theta0) = R y_pm(tau; 0): with c, s = cos, sin(theta0), x2 -> c*x2 - s*x4 and x4 -> s*x2 +
    c*x4 (x6, x8 alike), and x1, x3, x5, x7 stay.  So the best x2 and x4 are both hypot(x2, x4).  The frame
    turn by omega_rf*tau is such a turn: the co-rotating ``mode_states`` serve, turned only to read theta0.
    """
    table, w = modes
    taus = np.asarray(taus, dtype=float)
    x = mode_states(table, w, taus).reshape(w.shape[:-1] + taus.shape + (8,))
    x[..., 1::4] = x[..., 3::4] = np.hypot(x[..., 1::4], x[..., 3::4])  # (x2, x6) and (x4, x8)
    return x


def _state(modes: tuple, tau: float) -> np.ndarray:
    """The co-rotating 8-vector at one tau in one gemv, with the bits of the single-tau ``mode_states`` (4.5 against 15 us)."""
    table, phase = modes[0], modes[1] * tau
    return np.concatenate([np.cos(phase), np.sin(phase)]) @ table.reshape(8, 8)


def _at_best_theta0(p: ControlParams, tau: float, j: int) -> ControlParams:
    """p, a theta0 = 0 control, at the theta0 where x_j takes its ``_best_over_theta0`` value at tau: the theta0 reader.

    Read off p's lab-frame (x2, x4) at tau, from p's own ``mode_table`` (which has the bits of p's row of a block's
    table: eigh and the amplitude products run per matrix), and alike (x6, x8): the best x4 is at theta0 = atan2(x2,
    x4), the best x2 at atan2(-x4, x2).  x1, x3, x5 and x7 keep p, and so does tau = 0, where the state is e1.
    """
    if j % 2 == 0 or tau == 0.0:
        return p
    x = mode_states(*mode_table(p, _Y1), tau, p.omega_rf).reshape(8)
    u, v = x[1::4], x[3::4]  # (x2, x6) and (x4, x8)
    return replace(p, theta0=float((np.arctan2(-v, u) if j % 4 == 1 else np.arctan2(u, v))[j // 4]))


def _check_threshold(threshold: float) -> None:
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")


def _target_values(modes: tuple, j: int, taus: np.ndarray) -> np.ndarray:
    """The theta0-best x_j at taus off only the table's columns of x_j and of its theta0 partner, x4, x2, x8, x6 for x2..x8."""
    cols, phase = modes[0].reshape(8, 8)[:, [j & ~2, j | 2] if j % 2 else [j]], modes[1] * taus[:, None]
    x = np.concatenate([np.cos(phase), np.sin(phase)], axis=1) @ cols
    return np.hypot(x[:, 0], x[:, 1]) if j % 2 else x[:, 0]


def _first_crossing(modes: tuple, j: int, threshold: float, taus: np.ndarray, x: np.ndarray,
                    sign: float = 1.0) -> float | None:
    """The tau where sign times the theta0-best x_j first reaches threshold; None if never.

    modes is a ``mode_table`` from e1 of a theta0 = 0 control or, with sign -1 and j x5 or x7, of the pair whose
    mirror (bz, omega_rf) -> (-bz, -omega_rf) is searched: the mirror's x_j is -x_j (module docstring).  x is the
    theta0-best x_j on taus: a grid search's rows, or ``_target_values``.  brentq solves the crossing in the
    grid interval of the first hit on the scalar theta0-best x_j off ``_state``, which has the bits of the
    single-tau ``_best_over_theta0``; the bracket's ends keep their grid values, which it may miss in the last bits.
    The gauge theta0 is not read here: a search reads it once per reported result (``_at_best_theta0``).
    """
    hits = np.flatnonzero(sign * x >= threshold)
    if len(hits) == 0:
        return None
    i = int(hits[0])
    if i == 0:  # the state is e1, whatever theta0
        return 0.0
    from scipy.optimize import brentq  # imported here: the CLI's start-up needs no scipy
    ends = {float(taus[i - 1]): sign * x[i - 1] - threshold, float(taus[i]): sign * x[i] - threshold}

    def gap(tau: float) -> float:
        if tau in ends:
            return ends[tau]
        y = _state(modes, tau)
        return sign * (np.hypot(y[j & ~2], y[j | 2]) if j % 2 else y[j]) - threshold

    return float(brentq(gap, taus[i - 1], taus[i], xtol=1e-15))


def min_time_to_target(p: ControlParams, target: str, threshold: float, tau_max: float, dtau: float) -> float | None:
    """The first crossing time of the theta0-best x_target; None if never reached.

    p.theta0 is ignored (from e1 it is a gauge), and the theta0 of the crossing is not read.  The crossing is
    bracketed on time_grid(tau_max, dtau) off the target's columns (``_first_crossing``); a threshold above 1 is
    unreachable.
    """
    _check_threshold(threshold)
    j, taus, modes = _target_index(target), time_grid(tau_max, dtau), mode_table(replace(p, theta0=0.0), _Y1)
    return _first_crossing(modes, j, threshold, taus, _target_values(modes, j, taus))


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

    Deterministic for fixed inputs; a control between grid nodes is not seen.  Only the bz rows from the centre row up
    are evaluated (not bz >= 0: the centre node may read +-4.4e-16), on the whole omega_rf axis, so the mirror of every
    other node is among them: a node's -x5 and -x7 are the mirror's x5 and x7, reported there.  The on-shell (bz,
    omega_rf) pairs, row by row, get their mode tables from one ``mode_table`` (one eigh) per group of _GROUP_PAIRS and
    their rows from one ``_best_over_theta0`` pass per block in a group, one pair at least: a block holds the budget of
    WINDOW_ROWS rows, a pair's n grid rows and 8*min(BLOCK_STEPS, n - 1) of its ``_mode_rows`` block table, and a
    group's fields are read off the bz and omega_rf axes by row and column, so memory does not grow with the pairs.
    argmax and argmin find a block's peaks, the first of equal ones as a loop would (argmin, for the mirror, over x5 and
    x7 alone), and its crossing pairs, solved on their grid rows (``_first_crossing``).  The best crossing
    and each peak keep their pair and sign alone; after the last block each control is rebuilt from its pair, at its
    theta0 (``_at_best_theta0``).  bz off the energy shell is skipped; an omega_hat at or below the energy floor,
    omega_hat^2 <= 1 + k^2, and a threshold that is not positive are ValueErrors.  The result also records the largest
    value of every component x1..x8 seen, reached or not, and optionally the landscape of the whole box
    (``SearchResult.landscape``), with no peak tau where the peak is at most ROUNDING: the state has unit norm, so a
    target that never rises above 4096 ulps of 1 is rounding, and the argmax of rounding is no tau.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    _check_threshold(threshold)
    shell = energy_shell(omega_hat, k)
    bounds = default_bounds(omega_hat)
    tau_max = 3.0 * TAU_STAR if tau_max is None else tau_max
    taus = time_grid(tau_max, dtau)
    idx = _target_index(target)
    rf_axis = _axis(bounds, "omega_rf", resolution)
    bz_axis = np.array([bz for bz in _axis(bounds, "bz", resolution)[resolution // 2 :] if bz**2 <= shell])
    b0_axis = np.array([transverse_amplitude(omega_hat, k, v) for v in bz_axis])
    held = len(taus) + 8 * min(BLOCK_STEPS, len(taus) - 1)  # a pair's rows in a block: its grid rows and block table
    pairs, width = len(bz_axis) * len(rf_axis), max(1, WINDOW_ROWS // held)  # the pairs, row by row; per block
    signs, mirrored = (1.0, -1.0)[: 1 + (target in _MIRRORED)], [x in _MIRRORED for x in COMPONENT_INDEX]

    def fields(m):  # (b0, bz, omega_rf) of pair m, or of an array of pairs: row m // len(rf_axis), column m % len(rf_axis)
        row, col = np.divmod(m, len(rf_axis))
        return b0_axis[row], bz_axis[row], rf_axis[col]

    def pair(m: int, sign: float) -> ControlParams:  # pair m, or its mirror, at theta0 = 0
        b0, bz, rf = map(float, fields(m))
        return ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=sign * bz, omega_rf=sign * rf, theta0=0.0)

    def blocks():  # (first pair, tables, rates) of each block of width pairs in a group, the group's tables in one eigh
        for first in range(0, pairs, _GROUP_PAIRS):
            group = fields(np.arange(first, min(first + _GROUP_PAIRS, pairs)))
            tables, rates = mode_table(ControlParams(k, omega_hat, *group, 0.0), _Y1)
            yield from ((first + n, tables[n : n + width], rates[n : n + width]) for n in range(0, len(rates), width))

    # the best crossing and the running peaks keep (pair, sign); their controls are built once they are final
    best_tau, kept, landscape, peaks = math.inf, None, [], {name: (-math.inf, None, None) for name in COMPONENT_INDEX}
    for start, tables, rates in blocks():
        best = _best_over_theta0((tables, rates), taus)  # (pairs, taus, 8)
        ends = best.argmax(axis=1), np.zeros((len(best), 8), dtype=np.intp)  # the peak rows of each pair and of its mirror
        ends[1][:, mirrored] = best[:, :, mirrored].argmin(axis=1)  # the mirror is read for x5 and x7 alone
        high, low = (best[np.arange(len(best))[:, None], end, range(8)] for end in ends)  # the rows of the peaks
        values = high, np.where(mirrored, -low, -math.inf)  # the peaks of a pair, and of its mirror for x5 and x7
        candidates = np.stack(values, axis=1).reshape(-1, 8)  # each pair's peaks, then its mirror's
        first = candidates.argmax(axis=0)  # the first of equal peaks, as a loop over the pairs would take
        for j in np.flatnonzero(candidates[first, range(8)] > [peak[0] for peak in peaks.values()]):
            n, side = divmod(first[j], 2)
            found = start + n, (1.0, -1.0)[side]
            peaks[f"x{j + 1}"] = (float(candidates[first[j], j]), float(taus[ends[side][n, j]]), found)
        x, crosses = best[:, :, idx], np.stack(values[: len(signs)], axis=1)[:, :, idx] >= threshold  # a peak reaches it
        for n, side in np.argwhere(crosses | collect_landscape):  # pair by pair, each before its mirror
            m, i, sign = start + n, ends[side][n, idx], signs[side]
            tau = _first_crossing((tables[n], rates[n]), idx, threshold, taus, x[n], sign) if crosses[n, side] else None
            if tau is not None and tau < best_tau:
                best_tau, kept = tau, (m, sign)
            if collect_landscape and (side == 0 or m >= len(rf_axis) or resolution % 2 == 0):  # a centre row holds its mirrors
                (_, bz, rf), peak = fields(m), float(sign * x[n, i])
                peak_tau = float(taus[i]) if peak > ROUNDING else None
                landscape.append((sign * float(bz), sign * float(rf), tau, peak, peak_tau))
        del best, x  # so that the next block's rows are made with none of these held

    peaks = {name: (value, tau, found and _at_best_theta0(pair(*found), tau, j))
             for (name, (value, tau, found)), j in zip(peaks.items(), COMPONENT_INDEX.values())}
    best_params = kept and _at_best_theta0(pair(*kept), best_tau, idx)
    return SearchResult(
        best_params=best_params,
        best_tau=None if math.isinf(best_tau) else best_tau,
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
        landscape=landscape,
    )


def refine_local(seed: SearchResult) -> SearchResult:
    """Simplex refinement of (bz, omega_rf) minimizing the threshold-crossing time, at most 120 evaluations.

    b0 restores the energy constraint after every move, and theta0 is read off the state once, at the best control
    (``_at_best_theta0``).  The reported time is the best seen, so never later than the seed's; a seed that is
    infeasible or not improved on is returned unchanged.
    """
    if not seed.feasible:
        return seed
    from scipy.optimize import minimize  # imported here: the CLI's start-up needs no scipy
    spec = seed.grid_spec
    omega_hat, k = spec["omega_hat"], spec["k"]
    target, threshold = spec["target"], spec["threshold"]
    tau_max, dtau = spec["tau_max"], spec["dtau"]
    shell = energy_shell(omega_hat, k)
    best = {"tau": seed.best_tau, "params": None}  # the best control improving on the seed, at theta0 = 0

    def objective(v: np.ndarray) -> float:
        bz, omega_rf = v
        if bz**2 >= shell:
            return 10.0 * tau_max
        p = ControlParams(k, omega_hat, transverse_amplitude(omega_hat, k, bz), float(bz), float(omega_rf), 0.0)
        t = min_time_to_target(p, target, threshold, tau_max=tau_max, dtau=dtau)
        if t is None:
            return 10.0 * tau_max
        if t < best["tau"]:
            best["tau"], best["params"] = t, p
        return t

    x0 = np.array([seed.best_params.bz, seed.best_params.omega_rf])
    minimize(objective, x0, method="Nelder-Mead", options={"maxfev": 120, "xatol": 1e-10, "fatol": 1e-12})
    p, tau = best["params"], best["tau"]
    return seed if p is None else replace(seed, best_params=_at_best_theta0(p, tau, _target_index(target)), best_tau=tau)
