import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from trispin import dynamics, search
from trispin.algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from trispin.boundary import closed_form_params
from trispin.hilbert import sector_table
from trispin.dynamics import _BLOCK_STEPS, _on_grid, _time_grid, exact_state_trajectory, mode_table, split_halves
from trispin.search import _best_over_theta0, grid_search, min_time_to_target, refine_local

PI = math.pi
TAU_STAR = 0.25 * math.sqrt(3.0) * PI
OMEGA = math.sqrt(2.0 + PI**2 / 3.0)  # consistent energy scale
PARAMS = closed_form_params(OMEGA)


def component(p, tau, j):
    return float(exact_state_trajectory(p, E1, np.array([tau]))[0, j])


def x8(p, tau):
    return component(p, tau, 7)


def test_target_expectation_at_zero():
    assert abs(x8(PARAMS, 0.0)) < 1e-14
    assert abs(exact_state_trajectory(PARAMS, E1, np.array([0.0]))[0, 0] - 1.0) < 1e-14
    with pytest.raises(ValueError, match="unknown target"):
        min_time_to_target(PARAMS, "x9", 0.999, 5.0, 1e-2)


def test_target_expectation_at_transfer_time_is_recorded():
    # nominal transfer value is 1; the exact propagation is the arbiter here,
    # so the outcome is recorded rather than asserted
    value = x8(PARAMS, TAU_STAR)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    print(f"x8(tau_star) at the closed-form controls: {value:.6f}")


def test_trajectory_norm_preserved():
    taus = np.linspace(0.0, 3.0 * TAU_STAR, 400)
    from trispin.dynamics import exact_state_trajectory

    states = exact_state_trajectory(PARAMS, np.eye(8)[0], taus)
    assert np.max(np.abs(np.sum(states**2, axis=1) - 1.0)) < 1e-9


def test_min_time_unreachable_threshold():
    assert min_time_to_target(PARAMS, "x8", threshold=1.1, tau_max=2.0, dtau=1e-2) is None


def test_min_time_without_transverse_drive():
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.0, theta0=0.0)
    assert min_time_to_target(p, "x8", threshold=0.999, tau_max=10.0, dtau=1e-2) is None


def test_min_time_bisection_accuracy():
    t = min_time_to_target(PARAMS, "x8", threshold=0.5, tau_max=5.0, dtau=1e-2)
    assert t is not None
    # the crossing is that of x8 at the theta0 _at_best_theta0 reads there
    p = search._at_best_theta0(dataclasses.replace(PARAMS, theta0=0.0), t, 7)
    assert abs(x8(p, t) - 0.5) < 1e-7
    # crossing is located to 1e-9 in tau
    assert x8(p, t - 1e-9) < 0.5
    # theta0 is a gauge: the input's theta0 does not move the crossing
    assert min_time_to_target(dataclasses.replace(PARAMS, theta0=1.0), "x8", 0.5, 5.0, 1e-2) == t


def test_threshold_equal_to_a_grid_value_is_a_crossing():
    # at a row whose single-tau evaluation (brentq's) falls below its grid value, a re-evaluated bracket end
    # would lose the sign change; the grid value is kept.  Each search brackets on its own rows:
    # min_time_to_target on the target's columns (_target_values), grid_search on the batched rows of
    # _best_over_theta0.  (bz, omega_rf) = (0, 0) is the one node of the default box at resolution 1
    omega_hat, bz, omega_rf, tau_max, dtau = 2.7, 0.0, 0.0, 3.0 * TAU_STAR, 1e-2
    b0 = transverse_amplitude(omega_hat, 1.0, bz)
    p = ControlParams(k=1.0, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
    taus = _time_grid(tau_max, dtau)  # the grid both searches bracket on
    modes = mode_table(p, split_halves(E1))
    single = np.array([_best_over_theta0(modes, t)[7] for t in taus])

    def threshold_at_a_kept_end(grid):  # a new record of grid whose single-tau value reads below it
        record = np.maximum.accumulate(grid)
        found = [i for i in range(1, len(taus)) if grid[i] > record[i - 1] and single[i] < grid[i]]
        assert found
        return found[len(found) // 2]

    rows = search._target_values(modes, 7, taus)
    i = threshold_at_a_kept_end(rows)
    assert min_time_to_target(p, "x8", float(rows[i]), tau_max=tau_max, dtau=dtau) == taus[i]
    best = _best_over_theta0(modes, taus)[:, 7]
    i = threshold_at_a_kept_end(best)
    res = grid_search(omega_hat, 1.0, resolution=1, threshold=float(best[i]), tau_max=tau_max, dtau=dtau)
    assert res.best_tau == taus[i]
    # a threshold equal to the peak is reached, at the peak's first row
    assert min_time_to_target(p, "x8", float(rows.max()), tau_max=tau_max, dtau=dtau) == taus[np.argmax(rows)]
    res = grid_search(omega_hat, 1.0, resolution=1, threshold=float(best.max()), tau_max=tau_max, dtau=dtau)
    assert res.best_tau == taus[np.argmax(best)]


@pytest.mark.parametrize(
    "tau_max, dtau",
    [(3.0 * TAU_STAR, 1e-2), (_BLOCK_STEPS * 1e-2, 1e-2), ((_BLOCK_STEPS + 0.5) * 1e-2, 1e-2)],
    ids=["search_grid", "one_block_then_the_last", "one_block_then_a_short_last_step"],
)
def test_grid_rows_equal_per_tau_rows(tau_max, dtau):
    # on a _time_grid the rows come from the block-factored mode table, a scalar tau takes the direct
    # form; the search grid ends in a partial block and a shortened last step
    taus = _time_grid(tau_max, dtau)
    assert _on_grid(taus)
    omega_hat, bz = 2.7, 0.3
    b0 = transverse_amplitude(omega_hat, 1.0, bz)
    block = ControlParams(k=1.0, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=np.linspace(-8.0, 8.0, 7), theta0=0.0)
    single = dataclasses.replace(block, omega_rf=1.1)
    for p in (block, single):
        modes = mode_table(p, split_halves(E1))
        rows = _best_over_theta0(modes, taus)
        per_tau = np.stack([_best_over_theta0(modes, t) for t in taus], axis=-2)
        assert rows.shape == per_tau.shape
        assert np.max(np.abs(rows - per_tau)) <= 1e-14

@pytest.mark.parametrize("threshold", [0.0, -0.5, math.nan])
def test_searches_reject_a_threshold_that_is_not_positive(threshold):
    # e1 meets any threshold <= 0 at tau = 0, so neither search would measure anything
    with pytest.raises(ValueError, match="threshold must be positive"):
        min_time_to_target(PARAMS, "x8", threshold, 5.0, 1e-2)
    with pytest.raises(ValueError, match="threshold must be positive"):
        grid_search(OMEGA, 1.0, resolution=3, threshold=threshold)


def test_min_time_rejects_bad_arguments():
    with pytest.raises(ValueError):
        min_time_to_target(PARAMS, "x8", 0.999, -1.0, 1e-2)


def test_grid_search_membership_of_reference_point():
    # a grid through the closed-form controls must do at least as well as they do: at
    # omega_hat = sqrt(2 + pi^2/4) they are bz = 0 and omega_rf = (4/pi)*(pi/2) = 2, and
    # the default box at resolution 9 has the nodes 0 in bz and 2 in omega_rf
    omega_hat = math.sqrt(2.0 + PI**2 / 4.0)
    reference = closed_form_params(omega_hat)
    assert reference.bz == 0.0 and abs(reference.omega_rf - 2.0) <= 1e-15
    taus = _time_grid(3.0 * TAU_STAR, 1e-2)  # the search's own tau grid
    ref_curve = exact_state_trajectory(reference, E1, taus)[:, 7]
    ref_best = taus[np.argmax(ref_curve >= 0.5)]
    res = grid_search(omega_hat, 1.0, target="x8", resolution=9, threshold=0.5, dtau=1e-2)
    assert res.feasible
    assert res.best_tau <= ref_best + 1e-2
    assert res.peaks["x8"][0] >= float(np.max(ref_curve)) - 1e-9


def _grid():
    return grid_search(2.7, 1.0, resolution=7, threshold=0.6, dtau=5e-2, collect_landscape=True)


def test_landscape_crossings_are_the_per_pair_crossings():
    # the landscape lists the evaluated half of the box, bz >= 0 at this scale; each crossing is the
    # per-pair crossing of its pair and of the pair's mirror (-bz, -omega_rf)
    res = _grid()
    assert len(res.landscape) == 3 * 7 and all(row[0] >= 0.0 for row in res.landscape)
    reached = [(bz, omega_rf, tau) for bz, omega_rf, tau, _, _ in res.landscape if tau is not None]
    assert len(reached) >= 8
    for bz, omega_rf, tau in reached:
        p = ControlParams(k=1.0, omega_hat=2.7, b0=transverse_amplitude(2.7, 1.0, bz), bz=bz, omega_rf=omega_rf, theta0=0.0)
        for q in (p, dataclasses.replace(p, bz=-bz, omega_rf=-omega_rf)):
            alone = min_time_to_target(q, "x8", 0.6, tau_max=3.0 * TAU_STAR, dtau=5e-2)
            assert abs(alone - tau) <= 1e-12


def test_grid_search_takes_no_bounds_and_rejects_bad_resolution():
    # the half-box quotient needs the mirror-symmetric default box, so no other box is accepted
    with pytest.raises(TypeError, match="bounds"):
        grid_search(OMEGA, 1.0, bounds={"bz": (0, 1), "omega_rf": (0, 1)})
    with pytest.raises(ValueError):
        grid_search(OMEGA, 1.0, resolution=0)


@pytest.mark.parametrize("omega_hat, k", [(1.2, 1.0), (1.0, -1.0), (1.0, 0.0), (math.nan, 1.0)])
def test_grid_search_rejects_omega_at_or_below_energy_floor(omega_hat, k):
    # omega_hat^2 <= 1 + k^2 leaves no drive on the energy shell
    with pytest.raises(ValueError, match="energy floor"):
        grid_search(omega_hat, k, resolution=3)


def test_grid_search_deterministic():
    a = grid_search(OMEGA, 1.0, resolution=5, threshold=0.9, dtau=5e-2)
    b = grid_search(OMEGA, 1.0, resolution=5, threshold=0.9, dtau=5e-2)
    assert a.peaks == b.peaks and a.best_tau == b.best_tau


def test_refine_local_infeasible_seed_unchanged():
    seed = grid_search(OMEGA, 1.0, resolution=5, threshold=0.999, dtau=1e-2)
    assert not seed.feasible
    out = refine_local(seed)
    assert out.best_params == seed.best_params and out.best_tau == seed.best_tau


def test_refine_local_never_later_than_its_seed():
    seed = grid_search(OMEGA, 1.0, resolution=5, threshold=0.5, dtau=2e-2)
    assert seed.feasible
    out = refine_local(seed)
    assert out.best_tau <= seed.best_tau


def test_refine_local_reaches_the_gauge_optimal_crossing():
    # the 3-D (bz, omega_rf, theta0) simplex stopped at 1.1734306052 from this seed
    seed = grid_search(3.0179148702571723, 1.0, threshold=0.95)
    out = refine_local(seed)
    assert out.best_tau <= 1.1734305373 + 1e-9
    assert abs(x8(out.best_params, out.best_tau) - 0.95) < 1e-9


def test_refine_local_pins_the_second_refined_time():
    # the second of the two times the benchmark's search workload refines to
    out = refine_local(grid_search(3.451292785680343, 1.0, threshold=0.95))
    assert abs(out.best_tau - 1.8290756054) <= 1e-9
    assert abs(x8(out.best_params, out.best_tau) - 0.95) < 1e-9


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_mirror_controls_cross_together(k):
    # S = diag(1, -1, 1, 1) flips MZ, J and MS and fixes MB, MC and e1, so
    # (bz, omega_rf) -> (-bz, -omega_rf) swaps the halves y_pm up to S: x6
    # stays, x8 changes sign and the theta0-best x8 keeps its crossing.  So
    # grid_search evaluates only one point of each mirror pair.
    rng = np.random.default_rng(7)
    crossings = 0
    for _ in range(12):  # about half of them cross, near the line omega_rf = 2*bz
        omega_hat = rng.uniform(2.0, 3.5)
        bz = rng.uniform(-1.0, 1.0) * math.sqrt(energy_shell(omega_hat, k))
        b0, omega_rf = transverse_amplitude(omega_hat, k, bz), 2.0 * bz + rng.uniform(-1.0, 1.0)
        p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
        mirror = dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)
        hit, mirror_hit = (min_time_to_target(q, "x8", 0.9, tau_max=10.0, dtau=1e-3) for q in (p, mirror))
        assert (hit is None) == (mirror_hit is None)
        if hit is not None:
            crossings += 1
            assert abs(hit - mirror_hit) <= 1e-12
    assert crossings >= 6


def test_mirror_flips_exactly_the_listed_components():
    # the set grid_search reads as -value at the mirror, derived from the dynamics: on random on-shell
    # controls the theta0-best components at (-bz, -omega_rf) are those at (bz, omega_rf), up to a sign
    # that flips on exactly search._MIRRORED, and only there
    rng = np.random.default_rng(23)
    taus = _time_grid(3.0 * TAU_STAR, 1e-2)
    for k in (1.0, -1.0, 1.0, -1.0):
        omega_hat = rng.uniform(2.0, 3.5)
        bz = rng.uniform(-1.0, 1.0) * math.sqrt(energy_shell(omega_hat, k))
        p = ControlParams(k=k, omega_hat=omega_hat, b0=transverse_amplitude(omega_hat, k, bz), bz=bz,
                          omega_rf=rng.uniform(-8.0, 8.0), theta0=0.0)
        mirror = dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)
        best, at_mirror = (_best_over_theta0(mode_table(q, split_halves(E1)), taus) for q in (p, mirror))
        same = np.max(np.abs(at_mirror - best), axis=0) <= 1e-13
        opposite = np.max(np.abs(at_mirror + best), axis=0) <= 1e-13
        assert {name for name, j in search.COMPONENT_INDEX.items() if opposite[j] and not same[j]} == set(search._MIRRORED)
        assert all(same[j] for name, j in search.COMPONENT_INDEX.items() if name not in search._MIRRORED)


def test_grid_search_reports_a_control_of_the_evaluated_half():
    # the box holds both (bz, omega_rf) and (-bz, -omega_rf), whose x8 crossings agree to rounding;
    # only the half from the centre bz row up is evaluated, so which of the two is reported is fixed
    first, again = (grid_search(2.7, 1.0, threshold=0.95) for _ in range(2))
    assert abs(first.best_tau - 1.1828305981602452) <= 1e-12  # the whole box's crossing
    assert (first.best_params.bz, first.best_params.omega_rf) == pytest.approx((1.89, 4.0), abs=1e-12)
    assert (again.best_tau, again.best_params) == (first.best_tau, first.best_params)
    # x5 and x7 of the other half are -x5 and -x7 of this one: at k = -1 the x7 peak lies there
    value, tau, p = grid_search(2.7, -1.0, resolution=5, threshold=0.95).peaks["x7"]
    assert p.bz < 0.0 and abs(component(p, tau, 6) - value) <= 1e-12


def test_half_box_keeps_a_centre_row_that_reads_below_zero():
    # the half box is the bz rows from the centre row up, not bz >= 0: at omega_hat = 2.714
    # the centre of the 21 bz nodes reads -4.4e-16, and its row is still evaluated
    omega_hat = 2.714
    bz_axis = np.linspace(-omega_hat, omega_hat, 21)
    assert bz_axis[10] < 0.0
    res = grid_search(omega_hat, 1.0, threshold=0.95, tau_max=1.0, dtau=5e-2, collect_landscape=True)
    rows = sorted({bz for bz, _, _, _, _ in res.landscape})
    assert rows[0] == bz_axis[10]
    assert rows == [bz for bz in bz_axis[10:] if bz**2 <= energy_shell(omega_hat, 1.0)]
    assert len(res.landscape) == 21 * len(rows)


def test_no_transfer_probe_degenerate_grid():
    res = grid_search(OMEGA, 1.0, target="x7", resolution=1, threshold=1.0, tau_max=1.0)
    value, tau, params = res.peaks["x7"]
    assert np.isfinite(value) and 0.0 <= tau <= 1.0 and params is not None
    # no bz grid value on the energy shell (the nodes are bz = +-omega_hat): every peak is empty
    off_shell = grid_search(OMEGA, 1.0, resolution=2)
    assert all(peak == (-math.inf, None, None) for peak in off_shell.peaks.values())


def test_no_transfer_probe_contrast():
    # x7 stays well below transfer while x8 climbs much higher in the same grid pass
    res = grid_search(OMEGA, 1.0, target="x8", resolution=9, threshold=1.0)
    x7, x8 = res.peaks["x7"][0], res.peaks["x8"][0]
    assert x7 < 0.999
    assert x8 > x7
    print(f"grid maxima: x8={x8:.4f}, x7={x7:.4f}")


def test_grid_peaks_match_single_target_searches():
    # one pass records every component exactly as a search for that component would
    res = grid_search(OMEGA, 1.0, target="x8", resolution=3, threshold=0.9, dtau=5e-2)
    assert list(res.peaks) == [f"x{i}" for i in range(1, 9)]
    for target in res.peaks:
        single = grid_search(OMEGA, 1.0, target=target, resolution=3, threshold=0.9, dtau=5e-2)
        assert single.peaks == res.peaks


# --- grid_search's pair blocks against the per-pair loop they replaced -----------------------------------


def bits(v):
    """v with every float written as its hex string, so that == compares bit for bit."""
    if dataclasses.is_dataclass(v):
        return bits(dataclasses.astuple(v))
    if isinstance(v, (tuple, list)):
        return tuple(bits(x) for x in v)
    if isinstance(v, dict):
        return {key: bits(x) for key, x in v.items()}
    return float(v).hex() if isinstance(v, float) else v


def crossing_by_pair(p, modes, j, threshold, taus, best, sign):
    """search._first_crossing before the column reader, and before theta0 was read once per reported result: brentq on
    the single-tau _best_over_theta0 rows, and (tau, p at the theta0 of the best x_j there) at every crossing."""
    hits = np.nonzero(sign * best[:, j] >= threshold)[0]
    if len(hits) == 0:
        return None
    i = int(hits[0])
    if i == 0:
        return 0.0, p
    ends = {float(taus[i - 1]): sign * best[i - 1, j] - threshold, float(taus[i]): sign * best[i, j] - threshold}

    def gap(tau):
        return ends[tau] if tau in ends else sign * _best_over_theta0(modes, tau)[j] - threshold

    tau = brentq(gap, taus[i - 1], taus[i], xtol=1e-15)
    return float(tau), search._at_best_theta0(p, float(tau), j)


def grid_by_pair(omega_hat, k, targets, resolution, tau_max, dtau):
    """{(target, threshold): (best_tau, best_params, peaks, landscape)} of grid_search before its pair blocks, for
    each (target, threshold) of targets: one mode table and one pass of rows per pair, and peaks and crossings pair by
    pair, with theta0 read at every crossing and every new peak.  The pairs' rows and peaks, which no target changes,
    are made once for all targets."""
    shell, bounds, taus = energy_shell(omega_hat, k), search.default_bounds(omega_hat), _time_grid(tau_max, dtau)
    found = {key: [math.inf, None, []] for key in targets}  # best_tau, best_params, landscape
    peaks = {name: (-math.inf, None, None) for name in search.COMPONENT_INDEX}
    for row, bz in enumerate(search._axis(bounds, "bz", resolution)[resolution // 2 :]):
        if bz**2 > shell:
            continue
        b0 = transverse_amplitude(omega_hat, k, bz)
        for omega_rf in search._axis(bounds, "omega_rf", resolution):
            p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
            mirror = dataclasses.replace(p, bz=-bz, omega_rf=-omega_rf)
            modes = mode_table(p, split_halves(E1))
            best = _best_over_theta0(modes, taus)
            top, bottom = np.argmax(best, axis=0), np.argmin(best, axis=0)
            for name, j in search.COMPONENT_INDEX.items():
                i = top[j]
                if best[i, j] > peaks[name][0]:
                    peaks[name] = (float(best[i, j]), float(taus[i]), search._at_best_theta0(p, float(taus[i]), j))
                i = bottom[j]
                if name in search._MIRRORED and -best[i, j] > peaks[name][0]:
                    peaks[name] = (float(-best[i, j]), float(taus[i]), mirror)
            for (target, threshold), result in found.items():
                idx = search.COMPONENT_INDEX[target]
                sides = [(p, 1.0, top[idx])] + ([(mirror, -1.0, bottom[idx])] if target in search._MIRRORED else [])
                for side, (q, sign, i) in enumerate(sides):
                    hit = crossing_by_pair(q, modes, idx, threshold, taus, best, sign)
                    if hit and hit[0] < result[0]:
                        result[:2] = hit
                    if side == 0 or row > 0 or resolution % 2 == 0:  # a centre row holds its mirrors
                        reached = hit[0] if hit else None
                        peak = float(sign * best[i, idx])
                        result[2].append((float(q.bz), float(q.omega_rf), reached, peak, float(taus[i])))
    return {key: (None if math.isinf(tau) else tau, params, peaks, rows) for key, (tau, params, rows) in found.items()}


# every (target, threshold) that the grids below compare with the per-pair loop
PER_PAIR_TARGETS = [("x1", 0.999), ("x2", 0.6), ("x3", 0.5), ("x4", 0.6), ("x5", 0.5), ("x6", 0.6), ("x7", 0.3), ("x8", 0.6)]
BLOCK_TARGETS = [("x8", 0.6), ("x7", 0.3), ("x5", 0.5)]  # the paper's target, and the two with a mirror


@pytest.fixture(scope="module")
def per_pair():
    """per_pair(omega_hat, k, resolution, dtau): grid_by_pair at every BLOCK_TARGETS entry on the default tau_max,
    made once per module for each grid and read by every case that compares a target on it."""
    grids = {}

    def reference(*grid):
        if grid not in grids:
            omega_hat, k, resolution, dtau = grid
            grids[grid] = grid_by_pair(omega_hat, k, BLOCK_TARGETS, resolution, 3.0 * TAU_STAR, dtau)
        return grids[grid]

    return reference


def assert_grid_equals_the_per_pair_loop(reference, omega_hat, k, target, resolution, threshold, dtau, tau_max=None):
    res = grid_search(omega_hat, k, target=target, resolution=resolution, threshold=threshold, tau_max=tau_max, dtau=dtau,
                      collect_landscape=True)
    best_tau, best_params, peaks, landscape = reference[target, threshold]
    assert bits(res.peaks) == bits(peaks)
    assert bits(res.best_params) == bits(best_params)
    assert bits(res.best_tau) == bits(best_tau)
    assert bits(res.landscape) == bits(landscape)  # bz, omega_rf, tau_to_threshold, peak, peak_tau
    return best_tau, landscape


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("resolution", [1, 2, 7, 21])
@pytest.mark.parametrize("target, threshold", BLOCK_TARGETS)
def test_pair_blocks_equal_the_per_pair_loop(per_pair, target, threshold, resolution, k):
    # at dtau = 1e-2 a block holds 9 pairs: the rows of 7 and of 21 omega_rf values straddle blocks, and the
    # 21 pairs of resolution 7 end in a partial one; resolution 2 has no bz node on the energy shell, and 1 one pair
    reference = per_pair(2.7, k, resolution, 1e-2)
    _, landscape = assert_grid_equals_the_per_pair_loop(reference, 2.7, k, target, resolution, threshold, 1e-2)
    assert (resolution == 2) == (not landscape)
    if resolution >= 7:
        assert any(tau is not None for _, _, tau, _, _ in landscape)


# grids that reach every edge of grid_search's layout through its public inputs, at the package's budgets, at dtau
# 1e-2: a grid of 1 or 2 rows, all made direct; b, b + 1, b + 2 and b + 3 rows around the first block edge of the mode
# rows (b = _BLOCK_STEPS; b + 3 after a shortened last step); 51 rows, whose blocks of 20 pairs leave the last of
# resolution 7's 21 pairs alone; the default 410 rows, whose blocks of 9 pairs straddle the bz rows of 7 and end
# part-full; and resolution 29, 348 pairs, over one eigh group of 256: the second group is part-full, and the first ends
# in a block of 4.  Every target, at three scales and k = +-1 (on the largest grid one reached at row 0, where theta0
# stays 0, one mirrored, and x8): the odd targets have a theta0 of their own, and x5 and x7 a mirror
EDGES = {
    "one_row": (2.7, 1.0, 7, 0.0, PER_PAIR_TARGETS),
    "two_rows": (2.3, -1.0, 7, 0.5e-2, PER_PAIR_TARGETS),
    "block_less_one": (2.7, -1.0, 7, (_BLOCK_STEPS - 1) * 1e-2, PER_PAIR_TARGETS),
    "one_block": (3.45, 1.0, 7, _BLOCK_STEPS * 1e-2, PER_PAIR_TARGETS),
    "block_and_one": (2.7, 1.0, 7, (_BLOCK_STEPS + 1) * 1e-2, PER_PAIR_TARGETS),
    "partial_block_short_step": (2.3, 1.0, 7, (_BLOCK_STEPS + 1.5) * 1e-2, PER_PAIR_TARGETS),
    "one_pair_block": (2.7, -1.0, 7, 0.5, PER_PAIR_TARGETS),
    "blocks_straddle_rows": (3.45, -1.0, 7, None, PER_PAIR_TARGETS),
    "two_groups": (2.7, 1.0, 29, None, [("x1", 0.999), ("x5", 0.5), ("x8", 0.6)]),
}


@pytest.mark.parametrize("omega_hat, k, resolution, tau_max, targets", EDGES.values(), ids=EDGES)
def test_grid_edges_equal_the_per_pair_loop(omega_hat, k, resolution, tau_max, targets):
    reference = grid_by_pair(omega_hat, k, targets, resolution, 3.0 * TAU_STAR if tau_max is None else tau_max, 1e-2)
    for target, threshold in targets:
        best_tau, landscape = assert_grid_equals_the_per_pair_loop(
            reference, omega_hat, k, target, resolution, threshold, 1e-2, tau_max
        )
        assert landscape and (target != "x1" or best_tau == 0.0)
    if tau_max == 0.0:  # the one row is e1 itself, whatever theta0: every reported control keeps theta0 = 0
        assert all(p.theta0 == 0.0 for _, _, p in grid_search(omega_hat, k, resolution=7, tau_max=0.0).peaks.values())


def test_theta0_is_read_once_per_reported_result(monkeypatch):
    # a grid search reads theta0 for its 8 peaks and its best crossing, at most 9 times, and refine_local once,
    # at its best control, after the simplex, both through the one reader; its evaluations call min_time_to_target
    # through the module
    reads, evals = [], []
    at_best_theta0, min_time = search._at_best_theta0, search.min_time_to_target
    monkeypatch.setattr(search, "_at_best_theta0", lambda *a: reads.append(a) or at_best_theta0(*a))
    monkeypatch.setattr(search, "min_time_to_target", lambda *a, **kw: evals.append(a) or min_time(*a, **kw))
    for omega_hat in (2.7, 3.0179148702571723, 3.451292785680343):
        seed = grid_search(omega_hat, 1.0, threshold=0.95)
        assert seed.feasible and 0 < len(reads) <= 9 and not evals
        reads.clear()
        out = refine_local(seed)
        assert out is not seed and len(reads) == 1 and 0 < len(evals) <= 120
        reads.clear()
        evals.clear()


def test_grid_memory_does_not_grow_with_the_resolution():
    # the pairs' mode tables are made in groups of _GROUP_PAIRS and their rows in blocks, so only the pair axes grow
    # with the resolution.  At this tau_max (6 rows) the budget gives blocks of 133 pairs, 6 grid rows and 40 block
    # table rows each, so each group of 256 pairs is two blocks and the ratio checks the group bound: resolution 41
    # evaluates 738 pairs in 3 groups, and 81, 2,835 in 12.  One mode table for the whole grid peaked at 4.3 and
    # 6.9 MB, here at 1.1 and 1.2 MB; a kept peak that held a view of its group's tables held up to 9 groups
    grid_search(2.7, 1.0, resolution=3, threshold=0.6, tau_max=0.05)  # first-call set-up; scipy (26 MB) is imported above
    peaks = []
    for resolution in (41, 81):
        tracemalloc.start()
        try:
            grid_search(2.7, 1.0, resolution=resolution, threshold=0.6, tau_max=0.05)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0] and peaks[1] <= 3e6


@pytest.mark.parametrize("tau_max, rows", [(0.34, 35), (0.5, 51)])
def test_short_grid_memory_stays_near_the_default_grid(tau_max, rows):
    # a block counts each pair's _mode_rows block table, 8*min(_BLOCK_STEPS, n - 1) rows, with its n grid rows: 9 pairs
    # a block on the default 410 rows, as when only the grid rows were counted, but 21 and 20 pairs on these short
    # grids, not 117 and 80, which peaked at 4.4 and 3.1 MB against the default grid's 0.87 MB
    assert len(_time_grid(tau_max, 1e-2)) == rows
    grid_search(2.7, 1.0, resolution=3, threshold=0.6, tau_max=0.05)  # first-call set-up; scipy (26 MB) is imported above
    peaks = []
    for grid_end in (None, tau_max):
        tracemalloc.start()
        try:
            grid_search(2.7, 1.0, resolution=41, threshold=0.6, tau_max=grid_end)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_mode_table_of_a_pair_block_equals_the_per_control_tables_bitwise():
    # rotating_generator broadcasts bz and b0 as it does omega_rf, and eigh takes each control alone.  The oracle
    # comparison stacks verify's random sets, which draw k = +-1: with a k per control, the sectors' tables and the RK4
    # step maps of such a stack are the per-control ones too
    rng = np.random.default_rng(5)
    bz = rng.uniform(-1.0, 1.0, 13) * math.sqrt(energy_shell(2.7, 1.0))
    b0 = np.array([transverse_amplitude(2.7, 1.0, v) for v in bz])
    block = ControlParams(k=1.0, omega_hat=2.7, b0=b0, bz=bz, omega_rf=rng.uniform(-8.0, 8.0, 13), theta0=0.0)
    mixed = dataclasses.replace(block, k=rng.choice([1.0, -1.0], 13), theta0=rng.uniform(0.0, 2.0 * math.pi, 13))
    assert set(mixed.k) == {1.0, -1.0}  # energy_shell and transverse_amplitude read k^2 alone
    tail = _time_grid(3.0 * TAU_STAR, 1e-4)[-2:]
    sectors, steps = sector_table(mixed), dynamics._rk4_map(mixed, tail, 1e-4)
    assert sectors[0].shape == (13, 8, 8) and steps.shape == (2, 13, 8, 8)
    for stack in (block, mixed):
        tables, rates = mode_table(stack, split_halves(E1))
        assert tables.shape == (13, 8, 2, 4) and rates.shape == (13, 4)
        for n in range(13):
            alone = ControlParams(*(float(np.broadcast_to(v, 13)[n]) for v in dataclasses.astuple(stack)))
            table, w = mode_table(alone, split_halves(E1))
            assert tables[n].tobytes() == table.tobytes() and rates[n].tobytes() == w.tobytes()
            if stack is mixed:
                assert all(a[n].tobytes() == b.tobytes() for a, b in zip(sectors, sector_table(alone)))
                assert steps[:, n].tobytes() == dynamics._rk4_map(alone, tail, 1e-4).tobytes()


@pytest.mark.parametrize("j", range(8))
def test_target_values_equal_the_theta0_best_values(j):
    # brentq's scalar evaluator, the theta0-best x_j off _state, has the bits of the single-tau
    # _best_over_theta0 at 1,000 seeded taus, at a control and at its mirror (whose x5 and x7 are the pair's with
    # the sign flipped), so a crossing solved on given rows is the per-pair loop's; _target_values, the rows of
    # min_time_to_target, equal the batched rows of a search grid to 1e-14
    rng = np.random.default_rng(29)
    bz = 0.6
    p = ControlParams(k=1.0, omega_hat=2.7, b0=transverse_amplitude(2.7, 1.0, bz), bz=bz, omega_rf=2.3, theta0=0.0)
    grid = _time_grid(3.0 * TAU_STAR, 1e-2)
    for q in (p, dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)):
        modes = mode_table(q, split_halves(E1))
        for t in rng.uniform(0.0, 3.0 * TAU_STAR, 1000):
            x = search._state(modes, t)
            assert (np.hypot(x[j & ~2], x[j | 2]) if j % 2 else x[j]) == _best_over_theta0(modes, t)[j]
        best = _best_over_theta0(modes, grid)
        assert np.max(np.abs(search._target_values(modes, j, grid) - best[:, j])) <= 1e-14
        for sign in (1.0, -1.0)[: 1 + (j in (4, 6))]:
            rows = sign * best[:, j]
            for threshold in np.quantile(rows[rows > 0.0], [0.1, 0.5, 0.9]) if np.any(rows > 0.0) else []:
                got = search._first_crossing(modes, j, threshold, grid, best[:, j], sign)
                assert bits(got) == bits(crossing_by_pair(q, modes, j, threshold, grid, best, sign)[0])


def test_first_crossing_on_the_target_columns():
    # thresholds that the rows of x8 first reach early, in the middle and at the last row, x1's 1 at row 0,
    # and one that x8 never reaches; a kept bracket end puts each crossing on its row
    taus = _time_grid(0.5, 1e-4)  # 5,001 rows on which x8 at the closed-form control rises from 0
    modes = mode_table(PARAMS, split_halves(E1))
    values = search._target_values(modes, 7, taus)
    assert np.all(np.diff(values) > 0.0)
    for j, row in [(7, 1), (7, 2500), (7, len(taus) - 1), (0, 0), (7, None)]:
        threshold = 0.5 if j == 0 else 1.0 if row is None else float(values[row])
        hit = search._first_crossing(modes, j, threshold, taus, search._target_values(modes, j, taus))
        assert (hit is None) if row is None else hit == taus[row]
    # a grid of the one row tau = 0
    assert min_time_to_target(PARAMS, "x1", 0.5, tau_max=0.0, dtau=1e-2) == 0.0


@pytest.mark.parametrize("target, threshold", [("x8", 0.6), ("x7", 0.3), ("x6", 0.6), ("x5", 0.5)])
def test_each_reported_control_does_what_the_report_says(target, threshold):
    # through public routes alone: every peak's control, theta0 included, gives the peak's value at its tau under the
    # exact propagator, the mirror pair's control for a peak or crossing of x5 and x7 read off the mirror; and the
    # grid's and the refinement's best control reaches the threshold at best_tau.  On resolution 7 at three scales and
    # k = +-1, the crossings of x8 and x6 need a theta0 of their own, and some results come from the mirror
    j, mirrored, theta0s = search.COMPONENT_INDEX[target], [], []
    for k in (1.0, -1.0):
        for omega_hat in (2.3, 2.7, 3.45):
            res = grid_search(omega_hat, k, target=target, resolution=7, threshold=threshold)
            for name, (value, tau, p) in res.peaks.items():
                x = exact_state_trajectory(p, E1, np.array([tau]))[0, search.COMPONENT_INDEX[name]]
                assert abs(x - value) <= 1e-12, (name, k, omega_hat)
                mirrored.append(p.bz < -1e-9)
            for found in (res, refine_local(res)):
                p = found.best_params
                x = exact_state_trajectory(p, E1, np.array([found.best_tau]))[0, j]
                assert found.feasible and abs(x - threshold) <= 1e-12, (k, omega_hat)
                mirrored.append(p.bz < -1e-9)
                theta0s.append(abs(p.theta0))
    assert any(mirrored) and (max(theta0s) > 0.1) == (target in ("x8", "x6"))
