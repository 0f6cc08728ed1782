import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from trispin import search
from trispin.algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from trispin.boundary import closed_form_params
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
    hit = min_time_to_target(PARAMS, "x8", threshold=0.5, tau_max=5.0, dtau=1e-2)
    assert hit is not None
    t, p = hit
    # the returned params carry the theta0 that attains the crossing
    assert abs(x8(p, t) - 0.5) < 1e-7
    # crossing is located to 1e-9 in tau
    assert x8(p, t - 1e-9) < 0.5
    # theta0 is a gauge: the input's theta0 does not move the crossing
    assert min_time_to_target(dataclasses.replace(PARAMS, theta0=1.0), "x8", 0.5, 5.0, 1e-2)[0] == t


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
    t, _ = min_time_to_target(p, "x8", float(rows[i]), tau_max=tau_max, dtau=dtau)
    assert t == taus[i]
    best = _best_over_theta0(modes, taus)[:, 7]
    i = threshold_at_a_kept_end(best)
    res = grid_search(omega_hat, 1.0, resolution=1, threshold=float(best[i]), tau_max=tau_max, dtau=dtau)
    assert res.best_tau == taus[i]
    # a threshold equal to the peak is reached, at the peak's first row
    assert min_time_to_target(p, "x8", float(rows.max()), tau_max=tau_max, dtau=dtau)[0] == taus[np.argmax(rows)]
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


@pytest.mark.parametrize("width", [1, 2, 3])
def test_omega_rf_blocks_do_not_change_the_grid(monkeypatch, width):
    # at the default block size the 3 rows of 7 pairs are one block; here they split into blocks of
    # width pairs, which straddle the bz rows for widths 2 and 3, and with width 2 the last is partial
    whole = _grid()
    rows = len(_time_grid(3.0 * TAU_STAR, 5e-2))
    monkeypatch.setattr(search, "_CHUNK_STEPS", width * rows + rows - 1)
    blocked = _grid()
    assert blocked.peaks == whole.peaks
    assert blocked.best_tau == whole.best_tau and blocked.best_params == whole.best_params
    assert blocked.landscape == whole.landscape


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
            alone, _ = min_time_to_target(q, "x8", 0.6, tau_max=3.0 * TAU_STAR, dtau=5e-2)
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
            assert abs(hit[0] - mirror_hit[0]) <= 1e-12
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
    """search._first_crossing before the column reader: brentq on the single-tau _best_over_theta0 rows."""
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
    return float(tau), dataclasses.replace(p, theta0=search._best_theta0(modes, tau, p.omega_rf, j))


def grid_by_pair(omega_hat, k, target, resolution, threshold, tau_max, dtau):
    """(best_tau, best_params, peaks, landscape) of grid_search before its pair blocks: blocks of one bz row's
    omega_rf values, and peaks and crossings pair by pair."""
    shell, bounds, taus = energy_shell(omega_hat, k), search.default_bounds(omega_hat), _time_grid(tau_max, dtau)
    idx, rf_axis = search.COMPONENT_INDEX[target], search._axis(bounds, "omega_rf", resolution)
    width = max(1, search._CHUNK_STEPS // len(taus))
    best_tau, best_params, landscape = math.inf, None, []
    peaks = {name: (-math.inf, None, None) for name in search.COMPONENT_INDEX}
    for row, bz in enumerate(search._axis(bounds, "bz", resolution)[resolution // 2 :]):
        if bz**2 > shell:
            continue
        b0 = transverse_amplitude(omega_hat, k, bz)
        for start in range(0, len(rf_axis), width):
            block = rf_axis[start : start + width]
            p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=block, theta0=0.0)
            tables, rates = mode_table(p, split_halves(E1))
            for omega_rf, modes, best in zip(block, zip(tables, rates), _best_over_theta0((tables, rates), taus)):
                p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
                mirror = dataclasses.replace(p, bz=-bz, omega_rf=-omega_rf)
                top, bottom = np.argmax(best, axis=0), np.argmin(best, axis=0)
                for name, j in search.COMPONENT_INDEX.items():
                    i = top[j]
                    if best[i, j] > peaks[name][0]:
                        theta0 = search._best_theta0(modes, taus[i], omega_rf, j)
                        peaks[name] = (float(best[i, j]), float(taus[i]), dataclasses.replace(p, theta0=theta0))
                    i = bottom[j]
                    if name in search._MIRRORED and -best[i, j] > peaks[name][0]:
                        peaks[name] = (float(-best[i, j]), float(taus[i]), mirror)
                sides = [(p, 1.0, top[idx])] + ([(mirror, -1.0, bottom[idx])] if target in search._MIRRORED else [])
                for side, (q, sign, i) in enumerate(sides):
                    hit = crossing_by_pair(q, modes, idx, threshold, taus, best, sign)
                    if hit and hit[0] < best_tau:
                        best_tau, best_params = hit
                    if side == 0 or row > 0 or resolution % 2 == 0:  # a centre row holds its mirrors
                        reached = hit[0] if hit else None
                        landscape.append((float(q.bz), float(q.omega_rf), reached, float(sign * best[i, idx]), float(taus[i])))
    return (None if math.isinf(best_tau) else best_tau), best_params, peaks, landscape


def assert_grid_equals_the_per_pair_loop(omega_hat, k, target, resolution, threshold, dtau):
    res = grid_search(omega_hat, k, target=target, resolution=resolution, threshold=threshold, dtau=dtau,
                      collect_landscape=True)
    best_tau, best_params, peaks, landscape = grid_by_pair(omega_hat, k, target, resolution, threshold,
                                                           3.0 * TAU_STAR, dtau)
    assert bits(res.peaks) == bits(peaks)
    assert bits(res.best_params) == bits(best_params)
    assert (res.best_tau is None) == (best_tau is None)
    assert best_tau is None or abs(res.best_tau - best_tau) <= 2e-15
    assert len(res.landscape) == len(landscape)
    for got, want in zip(res.landscape, landscape):
        assert bits(got[:2] + got[3:]) == bits(want[:2] + want[3:])  # bz, omega_rf, peak, peak_tau
        assert (got[2] is None) == (want[2] is None)
        assert want[2] is None or abs(got[2] - want[2]) <= 2e-15
    return landscape


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("resolution", [1, 2, 7, 21])
@pytest.mark.parametrize("target, threshold", [("x8", 0.6), ("x7", 0.3), ("x5", 0.5)])
def test_pair_blocks_equal_the_per_pair_loop(target, threshold, resolution, k):
    # at dtau = 1e-2 a block holds 9 pairs: the rows of 7 and of 21 omega_rf values straddle blocks, and the
    # 21 pairs of resolution 7 end in a partial one; resolution 2 has no bz node on the energy shell, and 1 one pair
    landscape = assert_grid_equals_the_per_pair_loop(2.7, k, target, resolution, threshold, 1e-2)
    assert (resolution == 2) == (not landscape)
    if resolution >= 7:
        assert any(tau is not None for _, _, tau, _, _ in landscape)


@pytest.mark.parametrize("pairs", [3, 4, 9, 16])
@pytest.mark.parametrize("target, threshold", [("x8", 0.6), ("x7", 0.3), ("x5", 0.5)])
def test_pair_blocks_across_bz_rows_equal_the_per_pair_loop(monkeypatch, target, threshold, pairs):
    # resolution 7 at omega_hat 2.7 evaluates 3 bz rows of 7 pairs; blocks of 3, 4, 9 and 16 pairs straddle
    # the rows, and all but blocks of 3 end in a partial block
    rows = len(_time_grid(3.0 * TAU_STAR, 5e-2))
    monkeypatch.setattr(search, "_CHUNK_STEPS", pairs * rows + rows - 1)
    landscape = assert_grid_equals_the_per_pair_loop(2.7, 1.0, target, 7, threshold, 5e-2)
    assert len({bz for bz, _, _, _, _ in landscape if bz >= 0.0}) == 3 and 7 % pairs and (21 % pairs or pairs == 3)


def test_mode_table_of_a_pair_block_equals_the_per_control_tables_bitwise():
    # rotating_generator broadcasts bz and b0 as it does omega_rf, and eigh takes each control alone
    rng = np.random.default_rng(5)
    bz = rng.uniform(-1.0, 1.0, 13) * math.sqrt(energy_shell(2.7, 1.0))
    b0 = np.array([transverse_amplitude(2.7, 1.0, v) for v in bz])
    block = ControlParams(k=1.0, omega_hat=2.7, b0=b0, bz=bz, omega_rf=rng.uniform(-8.0, 8.0, 13), theta0=0.0)
    tables, rates = mode_table(block, split_halves(E1))
    assert tables.shape == (13, 8, 2, 4) and rates.shape == (13, 4)
    for n in range(13):
        alone = dataclasses.replace(block, b0=float(b0[n]), bz=float(bz[n]), omega_rf=float(block.omega_rf[n]))
        table, w = mode_table(alone, split_halves(E1))
        assert tables[n].tobytes() == table.tobytes() and rates[n].tobytes() == w.tobytes()


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
                got = search._first_crossing(q, modes, j, threshold, grid, best[:, j], sign)
                assert bits(got) == bits(crossing_by_pair(q, modes, j, threshold, grid, best, sign))


def test_first_crossing_on_the_target_columns():
    # thresholds that the rows of x8 first reach early, in the middle and at the last row, x1's 1 at row 0,
    # and one that x8 never reaches; a kept bracket end puts each crossing on its row
    taus = _time_grid(0.5, 1e-4)  # 5,001 rows on which x8 at the closed-form control rises from 0
    modes = mode_table(PARAMS, split_halves(E1))
    values = search._target_values(modes, 7, taus)
    assert np.all(np.diff(values) > 0.0)
    for j, row in [(7, 1), (7, 2500), (7, len(taus) - 1), (0, 0), (7, None)]:
        threshold = 0.5 if j == 0 else 1.0 if row is None else float(values[row])
        hit = search._first_crossing(PARAMS, modes, j, threshold, taus)
        assert (hit is None) if row is None else hit[0] == taus[row]
    # a grid of the one row tau = 0
    assert min_time_to_target(PARAMS, "x1", 0.5, tau_max=0.0, dtau=1e-2) == (0.0, dataclasses.replace(PARAMS, theta0=0.0))
