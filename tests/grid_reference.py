"""grid_search's whole box, node by node through the public propagator: the reference of the grid tests."""

import itertools
import math
from functools import cache

import numpy as np
from scipy.optimize import brentq

from trispin.algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from trispin.dynamics import time_grid, exact_state_trajectory, mode_states, mode_table, split_halves
from trispin.search import COMPONENT_INDEX, ROUNDING, default_bounds, grid_search

Y1 = split_halves(E1)


def theta0_best(x):
    """States x from e1 at theta0 = 0 with x2, x4 (x6, x8) set to their best over theta0, hypot(x2, x4) (hypot(x6, x8))."""
    x[..., [1, 3]] = np.hypot(x[..., 1], x[..., 3])[..., None]
    x[..., [5, 7]] = np.hypot(x[..., 5], x[..., 7])[..., None]
    return x


@cache
def grid_search_full_box(omega_hat, k, resolution, targets, tau_max, dtau):
    """grid_search's whole box node by node, by public routes alone: (peaks, found, axes).  Every on-shell (bz, omega_rf)
    node of default_bounds (the centre alone at resolution 1) is propagated on its own from e1 at theta0 = 0 (its
    ``mode_table`` and ``mode_states``, as ``exact_state_trajectory``) and read at its best theta0.  peaks holds the
    (value, tau) of the largest of each of x1..x8; found maps each (target, threshold) of targets to (the earliest crossing
    or inf, {(i, j): (the crossing or None, the peak of x_target, its tau or None where the peak is at most ROUNDING)})
    over the nodes (bz_axis[i], rf_axis[j]), each crossing solved by brentq on the node's own values; axes is (bz_axis,
    rf_axis).  Cached for the session, so every caller reads the same objects and none may change them."""
    taus, bounds = time_grid(tau_max, dtau), default_bounds(omega_hat)
    axes = [np.linspace(*bounds[name], resolution) if resolution > 1 else np.array([0.5 * sum(bounds[name])])
            for name in ("bz", "omega_rf")]
    peaks, found = [(-math.inf, None)] * 8, {key: [math.inf, {}] for key in targets}
    for (i, bz), (j, omega_rf) in itertools.product(*map(enumerate, axes)):
        if bz**2 > energy_shell(omega_hat, k):
            continue
        modes = mode_table(ControlParams(k, omega_hat, transverse_amplitude(omega_hat, k, bz), bz, omega_rf, 0.0), Y1)
        x = theta0_best(mode_states(*modes, taus, omega_rf).reshape(-1, 8))
        rows = np.argmax(x, axis=0)
        peaks = [(x[r, n], taus[r]) if x[r, n] > peak[0] else peak for n, (peak, r) in enumerate(zip(peaks, rows))]
        for (target, level), result in found.items():
            n, t = COMPONENT_INDEX[target], None
            hits = np.flatnonzero(x[:, n] >= level)
            if len(hits):
                r = hits[0]
                t = brentq(lambda t: theta0_best(mode_states(*modes, t, omega_rf).reshape(8))[n] - level,
                           taus[r - 1], taus[r], xtol=1e-15) if r else 0.0
                result[0] = min(result[0], t)
            result[1][i, j] = (t, x[rows[n], n], taus[rows[n]] if x[rows[n], n] > ROUNDING else None)
    return peaks, found, axes


def assert_grid_is_the_whole_box(omega_hat, k, target, resolution, threshold, tau_max=None, dtau=1e-2, targets=None):
    """grid_search with its landscape against ``grid_search_full_box``, all to 1e-12; returns the result.  Every reported
    peak matches with its tau, and its control gives it under ``exact_state_trajectory``; best_tau matches; every
    on-shell node is listed once, from the centre bz row up (the whole box for x5 and x7, which list each mirror), with
    its crossing, peak and peak tau, which both leave empty where the peak is rounding.  A reported peak at rounding
    level (every node's) has no definite tau, which is not compared.  targets, (target, threshold) pairs holding this
    one, share one reference over several targets."""
    res = grid_search(omega_hat, k, target, resolution, threshold, tau_max, dtau, collect_landscape=True)
    tau_max = 3.0 * TAU_STAR if tau_max is None else tau_max
    peaks, found, axes = grid_search_full_box(omega_hat, k, resolution, tuple(targets or [(target, threshold)]), tau_max, dtau)
    best_tau, nodes = found[target, threshold]
    for (name, (value, tau, p)), (want, want_tau) in zip(res.peaks.items(), peaks):
        if p is None:  # no node on the energy shell
            assert (value, tau, want, want_tau) == (-math.inf, None, -math.inf, None)
            continue
        assert abs(value - want) <= 1e-12 and (want <= ROUNDING or abs(tau - want_tau) <= 1e-12), name
        assert abs(exact_state_trajectory(p, E1, np.array([tau]))[0, COMPONENT_INDEX[name]] - value) <= 1e-12, name
    assert (res.best_tau is None) == math.isinf(best_tau)
    assert res.best_tau is None or abs(res.best_tau - best_tau) <= 1e-12
    listed = []
    for bz, omega_rf, reached, peak, peak_tau in res.landscape:
        node = tuple(int(np.argmin(np.abs(axis - v))) for axis, v in zip(axes, (bz, omega_rf)))
        assert max(abs(axis[n] - v) for axis, n, v in zip(axes, node, (bz, omega_rf))) <= 1e-12
        want, want_peak, want_tau = nodes[node]
        assert (reached is None) == (want is None) and (reached is None or abs(reached - want) <= 1e-12), node
        assert abs(peak - want_peak) <= 1e-12 and (peak_tau is None) == (want_tau is None), node
        assert peak_tau is None or abs(peak_tau - want_tau) <= 1e-12, node
        listed.append(node)
    assert sorted(listed) == sorted(n for n in nodes if target in ("x5", "x7") or n[0] >= resolution // 2)
    return res

