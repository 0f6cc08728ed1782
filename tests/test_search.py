import dataclasses
import math

import numpy as np
import pytest
from grid_reference import assert_grid_is_the_whole_box, grid_search_full_box, theta0_best
from scipy.optimize import brentq

from trispin.algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from trispin.boundary import closed_form_params, consistent_scale
from trispin.dynamics import BLOCK_STEPS, time_grid, exact_state_trajectory, mode_states, mode_table, split_halves
from trispin.hilbert import sector_table
from trispin.report import run_verification
from trispin.search import COMPONENT_INDEX, grid_search, min_time_to_target, refine_local

OMEGA = math.sqrt(2.0 + math.pi**2 / 3.0)  # consistent energy scale
PARAMS = closed_form_params(OMEGA)


def component(p, tau, j=7):
    return float(exact_state_trajectory(p, E1, np.array([tau]))[0, j])


def test_target_expectation_at_zero():
    assert abs(component(PARAMS, 0.0)) < 1e-14 and abs(component(PARAMS, 0.0, 0) - 1.0) < 1e-14
    with pytest.raises(ValueError, match="unknown target"):
        min_time_to_target(PARAMS, "x9", 0.999, 5.0, 1e-2)


def test_target_expectation_at_transfer_time_is_recorded():
    # nominal transfer value is 1; the exact propagation is the arbiter here,
    # so the outcome is recorded rather than asserted
    value = component(PARAMS, TAU_STAR)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    print(f"x8(tau_star) at the closed-form controls: {value:.6f}")


def test_min_time_unreachable_threshold():
    assert min_time_to_target(PARAMS, "x8", threshold=1.1, tau_max=2.0, dtau=1e-2) is None


def test_min_time_without_transverse_drive():
    p = ControlParams(k=1.0, omega_hat=2.0, b0=0.0, bz=math.sqrt(2.0), omega_rf=0.0, theta0=0.0)
    assert min_time_to_target(p, "x8", threshold=0.999, tau_max=10.0, dtau=1e-2) is None


def test_min_time_bisection_accuracy():
    t = min_time_to_target(PARAMS, "x8", threshold=0.5, tau_max=5.0, dtau=1e-2)
    # the crossing is that of the theta0-best x8, hypot(x6, x8) at any theta0, located to 1e-9 in tau
    best = theta0_best(exact_state_trajectory(PARAMS, E1, np.array([t, t - 1e-9])))[:, 7]
    assert abs(best[0] - 0.5) < 1e-7 and best[1] < 0.5
    # theta0 is a gauge: the input's theta0 does not move the crossing
    assert min_time_to_target(dataclasses.replace(PARAMS, theta0=1.0), "x8", 0.5, 5.0, 1e-2) == t


def test_threshold_equal_to_a_grid_value_is_a_crossing():
    # a crossing is bracketed on the grid's own rows, and a bracket end keeps its grid value, which brentq's
    # single-tau evaluation may read below: a threshold equal to a peak, a grid value, is reached at the peak's row.
    # Each node's peak of the landscape as the threshold is reached at that node's peak_tau, node by node
    grid = dict(resolution=7, tau_max=3.0 * TAU_STAR, dtau=1e-2)
    rows = grid_search(2.7, 1.0, threshold=0.5, collect_landscape=True, **grid).landscape
    assert len(rows) >= 20
    for bz, omega_rf, _, peak, peak_tau in rows[::3]:
        reached = grid_search(2.7, 1.0, threshold=peak, collect_landscape=True, **grid).landscape
        assert [tau for b, o, tau, _, _ in reached if (b, o) == (bz, omega_rf)] == [peak_tau]
    # at resolution 1 the one node is the centre of the box, (bz, omega_rf) = (0, 0)
    (bz, omega_rf, _, peak, peak_tau), = grid_search(2.7, 1.0, threshold=0.5, collect_landscape=True, resolution=1).landscape
    assert (bz, omega_rf) == (0.0, 0.0) and grid_search(2.7, 1.0, resolution=1, threshold=peak).best_tau == peak_tau
    # min_time_to_target brackets on rows of its own: at a threshold equal to the node's theta0-best x8 at a row it
    # crosses at that row, to rounding
    p = ControlParams(k=1.0, omega_hat=2.7, b0=transverse_amplitude(2.7, 1.0, 0.0), bz=0.0, omega_rf=0.0, theta0=0.0)
    taus = time_grid(3.0 * TAU_STAR, 1e-2)
    best = theta0_best(exact_state_trajectory(p, E1, taus))[:, 7]
    for i in np.flatnonzero(best > np.maximum.accumulate(best) - 1e-15)[1::7]:  # rows that set a new record
        assert abs(min_time_to_target(p, "x8", float(best[i]), 3.0 * TAU_STAR, 1e-2) - taus[i]) <= 1e-12


@pytest.mark.parametrize("tau_max, dtau", [(3.0 * TAU_STAR, 1e-2), (BLOCK_STEPS * 1e-2, 1e-2), ((BLOCK_STEPS + 0.5) * 1e-2, 1e-2)],
                         ids=["search_grid", "one_block_then_the_last", "one_block_then_a_short_last_step"])
def test_grid_rows_equal_per_tau_rows(tau_max, dtau):
    # on a time_grid the rows of a stack of controls, as grid_search takes them, come from the block-factored mode
    # table, and taus as a column take the direct form; the search grid ends in a partial block and a shortened last step
    taus = time_grid(tau_max, dtau)
    block = ControlParams(1.0, 2.7, transverse_amplitude(2.7, 1.0, 0.3), 0.3, np.linspace(-8.0, 8.0, 7), 0.0)
    for p in (block, dataclasses.replace(block, omega_rf=1.1)):
        modes = mode_table(p, split_halves(E1))
        rows, per_tau = mode_states(*modes, taus), mode_states(*modes, taus[:, None])[..., 0, :, :]
        assert rows.shape == per_tau.shape == np.shape(p.omega_rf) + (len(taus), 2, 4)
        assert np.max(np.abs(rows - per_tau)) <= 1e-14


@pytest.mark.parametrize("threshold", [0.0, -0.5, math.nan])
def test_searches_reject_a_threshold_that_is_not_positive(threshold):
    # e1 meets any threshold <= 0 at tau = 0, so neither search would measure anything
    for search in (lambda: min_time_to_target(PARAMS, "x8", threshold, 5.0, 1e-2),
                   lambda: grid_search(OMEGA, 1.0, resolution=3, threshold=threshold)):
        with pytest.raises(ValueError, match="threshold must be positive"):
            search()


def test_min_time_rejects_bad_arguments():
    with pytest.raises(ValueError):
        min_time_to_target(PARAMS, "x8", 0.999, -1.0, 1e-2)


def test_grid_search_membership_of_reference_point():
    # a grid through the closed-form controls must do at least as well as they do: at
    # omega_hat = sqrt(2 + pi^2/4) they are bz = 0 and omega_rf = (4/pi)*(pi/2) = 2, and
    # the default box at resolution 9 has the nodes 0 in bz and 2 in omega_rf
    omega_hat = math.sqrt(2.0 + math.pi**2 / 4.0)
    reference = closed_form_params(omega_hat)
    assert reference.bz == 0.0 and abs(reference.omega_rf - 2.0) <= 1e-15
    taus = time_grid(3.0 * TAU_STAR, 1e-2)  # the search's own tau grid
    ref_curve = exact_state_trajectory(reference, E1, taus)[:, 7]
    res = grid_search(omega_hat, 1.0, target="x8", resolution=9, threshold=0.5, dtau=1e-2)
    assert res.feasible and res.best_tau <= taus[np.argmax(ref_curve >= 0.5)] + 1e-2
    assert res.peaks["x8"][0] >= float(np.max(ref_curve)) - 1e-9


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
    a, b = (grid_search(OMEGA, 1.0, resolution=5, threshold=0.9, dtau=5e-2) for _ in range(2))
    assert a.peaks == b.peaks and a.best_tau == b.best_tau


def test_refine_local_infeasible_seed_unchanged():
    seed = grid_search(OMEGA, 1.0, resolution=5, threshold=0.999, dtau=1e-2)
    out = refine_local(seed)
    assert not seed.feasible and out.best_params == seed.best_params and out.best_tau == seed.best_tau


def test_refine_local_never_later_than_its_seed():
    seed = grid_search(OMEGA, 1.0, resolution=5, threshold=0.5, dtau=2e-2)
    assert seed.feasible and refine_local(seed).best_tau <= seed.best_tau


def test_refine_local_reaches_the_gauge_optimal_crossing():
    # the 3-D (bz, omega_rf, theta0) simplex stopped at 1.1734306052 from this seed
    seed = grid_search(3.0179148702571723, 1.0, threshold=0.95)
    out = refine_local(seed)
    assert out.best_tau <= 1.1734305373 + 1e-9 and abs(component(out.best_params, out.best_tau) - 0.95) < 1e-9


def test_refine_local_pins_the_second_refined_time():
    # the second of the two times the benchmark's search workload refines to
    out = refine_local(grid_search(3.451292785680343, 1.0, threshold=0.95))
    assert abs(out.best_tau - 1.8290756054) <= 1e-9 and abs(component(out.best_params, out.best_tau) - 0.95) < 1e-9


@pytest.mark.parametrize("k", [1.0, -1.0])
def test_mirror_controls_cross_together(k):
    # S = diag(1, -1, 1, 1) flips MZ, J and MS and fixes MB, MC and e1, so
    # (bz, omega_rf) -> (-bz, -omega_rf) swaps the halves y_pm up to S: x6
    # stays, x8 changes sign and the theta0-best x8 keeps its crossing.  So
    # grid_search evaluates only one point of each mirror pair.
    rng, crossings = np.random.default_rng(7), 0
    for _ in range(12):  # about half of them cross, near the line omega_rf = 2*bz
        omega_hat = rng.uniform(2.0, 3.5)
        bz = rng.uniform(-1.0, 1.0) * math.sqrt(energy_shell(omega_hat, k))
        b0, omega_rf = transverse_amplitude(omega_hat, k, bz), 2.0 * bz + rng.uniform(-1.0, 1.0)
        p = ControlParams(k=k, omega_hat=omega_hat, b0=b0, bz=bz, omega_rf=omega_rf, theta0=0.0)
        mirror = dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)
        hit, mirror_hit = (min_time_to_target(q, "x8", 0.9, tau_max=10.0, dtau=1e-3) for q in (p, mirror))
        assert (hit is None) == (mirror_hit is None) and (hit is None or abs(hit - mirror_hit) <= 1e-12)
        crossings += hit is not None
    assert crossings >= 6


def test_mirror_flips_exactly_the_listed_components():
    # the set grid_search reads as -value at the mirror, derived from the dynamics: on random on-shell controls the
    # theta0-best components at (-bz, -omega_rf) are those at (bz, omega_rf), up to a sign that flips on x5 and x7 alone
    rng = np.random.default_rng(23)
    taus = time_grid(3.0 * TAU_STAR, 1e-2)
    for k in (1.0, -1.0, 1.0, -1.0):
        omega_hat = rng.uniform(2.0, 3.5)
        bz = rng.uniform(-1.0, 1.0) * math.sqrt(energy_shell(omega_hat, k))
        p = ControlParams(k=k, omega_hat=omega_hat, b0=transverse_amplitude(omega_hat, k, bz), bz=bz,
                          omega_rf=rng.uniform(-8.0, 8.0), theta0=0.0)
        mirror = dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)
        best, at_mirror = (theta0_best(exact_state_trajectory(q, E1, taus)) for q in (p, mirror))
        same = np.max(np.abs(at_mirror - best), axis=0) <= 1e-13
        opposite = np.max(np.abs(at_mirror + best), axis=0) <= 1e-13
        assert {name for name, j in COMPONENT_INDEX.items() if opposite[j] and not same[j]} == {"x5", "x7"}
        assert all(same[j] for name, j in COMPONENT_INDEX.items() if name not in ("x5", "x7"))


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
    bz_axis = np.linspace(-2.714, 2.714, 21)
    res = grid_search(2.714, 1.0, threshold=0.95, tau_max=1.0, dtau=5e-2, collect_landscape=True)
    rows = sorted({bz for bz, _, _, _, _ in res.landscape})
    assert bz_axis[10] < 0.0 and rows[0] == bz_axis[10] and len(res.landscape) == 21 * len(rows)
    assert rows == [bz for bz in bz_axis[10:] if bz**2 <= energy_shell(2.714, 1.0)]


def test_no_transfer_probe_degenerate_grid():
    res = grid_search(OMEGA, 1.0, target="x7", resolution=1, threshold=1.0, tau_max=1.0)
    value, tau, params = res.peaks["x7"]
    assert np.isfinite(value) and 0.0 <= tau <= 1.0 and params is not None
    # no bz grid value on the energy shell (the nodes are bz = +-omega_hat): every peak is empty
    assert all(peak == (-math.inf, None, None) for peak in grid_search(OMEGA, 1.0, resolution=2).peaks.values())


def test_no_transfer_probe_contrast():
    # x7 stays well below transfer while x8 climbs much higher in the same grid pass
    res = grid_search(OMEGA, 1.0, target="x8", resolution=9, threshold=1.0)
    x7, x8 = res.peaks["x7"][0], res.peaks["x8"][0]
    assert x7 < 0.999 and x8 > x7
    print(f"grid maxima: x8={x8:.4f}, x7={x7:.4f}")


def test_grid_peaks_match_single_target_searches():
    # one pass records every component exactly as a search for that component would
    res = grid_search(OMEGA, 1.0, target="x8", resolution=3, threshold=0.9, dtau=5e-2)
    assert list(res.peaks) == [f"x{i}" for i in range(1, 9)]
    for target in res.peaks:
        assert grid_search(OMEGA, 1.0, target=target, resolution=3, threshold=0.9, dtau=5e-2).peaks == res.peaks


# --- grid_search's pair blocks against the per-pair loop over the whole box (grid_reference.py) -------------------

# every (target, threshold) that the grids below compare with the whole box
TARGETS = [("x1", 0.999), ("x2", 0.6), ("x3", 0.5), ("x4", 0.6), ("x5", 0.5), ("x6", 0.6), ("x7", 0.3), ("x8", 0.6)]
BLOCK_TARGETS = [("x8", 0.6), ("x7", 0.3), ("x5", 0.5)]  # the paper's target, and the two with a mirror


@pytest.mark.parametrize("k", [1.0, -1.0])
@pytest.mark.parametrize("resolution", [1, 2, 7, 21])
@pytest.mark.parametrize("target, threshold", BLOCK_TARGETS)
def test_pair_blocks_equal_the_per_pair_loop(target, threshold, resolution, k):
    # at dtau = 1e-2 a block holds 9 pairs: the rows of 7 and of 21 omega_rf values straddle blocks, and the
    # 21 pairs of resolution 7 end in a partial one; resolution 2 has no bz node on the energy shell, and 1 one pair
    res = assert_grid_is_the_whole_box(2.7, k, target, resolution, threshold, targets=BLOCK_TARGETS)
    assert (resolution == 2) == (not res.landscape)
    assert resolution < 7 or any(tau is not None for _, _, tau, _, _ in res.landscape)


# grids that reach every edge of grid_search's layout through its public inputs, at the package's budgets, at dtau
# 1e-2: a grid of 1 or 2 rows, all made direct; b, b + 1, b + 2 and b + 3 rows around the first block edge of the mode
# rows (b = BLOCK_STEPS; b + 3 after a shortened last step); 51 rows, whose blocks of 20 pairs leave the last of
# resolution 7's 21 pairs alone; the default 410 rows, whose blocks of 9 pairs straddle the bz rows of 7 and end
# part-full; and resolution 29, 348 pairs, over one eigh group of 256: the second group is part-full, and the first ends
# in a block of 4.  Every target, at three scales and k = +-1 (on the largest grid one reached at row 0, where theta0
# stays 0, one mirrored, and x8): the odd targets have a theta0 of their own, and x5 and x7 a mirror
EDGES = {
    "one_row": (2.7, 1.0, 7, 0.0, TARGETS),
    "two_rows": (2.3, -1.0, 7, 0.5e-2, TARGETS),
    "block_less_one": (2.7, -1.0, 7, (BLOCK_STEPS - 1) * 1e-2, TARGETS),
    "one_block": (3.45, 1.0, 7, BLOCK_STEPS * 1e-2, TARGETS),
    "block_and_one": (2.7, 1.0, 7, (BLOCK_STEPS + 1) * 1e-2, TARGETS),
    "partial_block_short_step": (2.3, 1.0, 7, (BLOCK_STEPS + 1.5) * 1e-2, TARGETS),
    "one_pair_block": (2.7, -1.0, 7, 0.5, TARGETS),
    "blocks_straddle_rows": (3.45, -1.0, 7, None, TARGETS),
    "two_groups": (2.7, 1.0, 29, None, [("x1", 0.999), ("x5", 0.5), ("x8", 0.6)]),
}


@pytest.mark.parametrize("omega_hat, k, resolution, tau_max, targets", EDGES.values(), ids=EDGES)
def test_grid_edges_equal_the_per_pair_loop(omega_hat, k, resolution, tau_max, targets):
    for target, threshold in targets:
        res = assert_grid_is_the_whole_box(omega_hat, k, target, resolution, threshold, tau_max, targets=targets)
        assert res.landscape and (target != "x1" or res.best_tau == 0.0)
    if tau_max == 0.0:  # the one row is e1 itself, whatever theta0: every reported control keeps theta0 = 0
        assert all(p.theta0 == 0.0 for _, _, p in grid_search(omega_hat, k, resolution=7, tau_max=0.0).peaks.values())


def test_default_grid_is_the_whole_box():
    # search's and verify's grid, 21 x 21 at the auto scale, whose 168 pairs make blocks of 9 that straddle the bz rows
    # and end in one of 6: x8 peaks at 0.982243 at tau 1.34, short of verify's 0.999, and x7, verify's no-transfer
    # probe, at 0.829033, each matched by the report to 1e-12
    omega_hat = float(consistent_scale(0)[0])
    res = assert_grid_is_the_whole_box(omega_hat, 1.0, "x8", 21, 0.999)
    (x8, x8_tau), (x7, x7_tau) = (grid_search_full_box(omega_hat, 1.0, 21, (("x8", 0.999),), 3.0 * TAU_STAR, 1e-2)[0][j]
                                  for j in (7, 6))
    assert round(x8, 6) == 0.982243 and x8 < 0.999 and abs(x8_tau - 1.34) <= 1e-12 and res.best_tau is None
    assert round(x7, 6) == 0.829033
    checks = {c.name: c for c in run_verification(n_dynamics=0, scan_samples=801).checks}
    probe, grid = checks["no_transfer_probe_x7"], checks["ansatz_grid_search_x8"]
    assert abs(probe.measured - x7) <= 1e-12 and abs(float(probe.note.removeprefix("largest x7 at tau=")) - x7_tau) <= 1e-12
    assert grid.measured == "never reached" and grid.note == f"largest x8 seen {x8:.6g} at tau={x8_tau:.6g}"


def test_landscape_crossings_are_the_per_pair_searches_at_the_pair_and_its_mirror():
    # search --omega-hat 2.7 --threshold 0.95 --landscape lists the half box from bz = 0 up, and each crossing is the
    # one min_time_to_target finds alone at its pair and at the mirror (-bz, -omega_rf), whose x8 crosses with it
    res = grid_search(2.7, 1.0, "x8", 21, 0.95, collect_landscape=True)
    rows = [(bz, omega_rf, tau) for bz, omega_rf, tau, _, _ in res.landscape if tau is not None]
    assert min(bz for bz, _, _, _, _ in res.landscape) >= 0.0 and rows
    for bz, omega_rf, tau in rows:
        for sign in (1.0, -1.0):
            p = ControlParams(1.0, 2.7, transverse_amplitude(2.7, 1.0, bz), sign * bz, sign * omega_rf, 0.0)
            assert abs(min_time_to_target(p, "x8", 0.95, tau_max=3.0 * TAU_STAR, dtau=1e-2) - tau) <= 1e-12, (p, tau)


def grid_peak(traced, **grid):
    """The traced memory peak of grid_search(2.7, 1.0, threshold=0.6, **grid), after an untraced first-call set-up
    (scipy, 26 MB, is imported above)."""
    grid_search(2.7, 1.0, resolution=3, threshold=0.6, tau_max=0.05)
    return traced(lambda: grid_search(2.7, 1.0, threshold=0.6, **grid))[1]


def test_grid_memory_does_not_grow_with_the_resolution(traced):
    # the pairs' mode tables are made in groups of _GROUP_PAIRS and their rows in blocks, and each group's fields are
    # read off the axes, so only the axes grow with the resolution.  At this tau_max (6 rows) the budget gives blocks of
    # 133 pairs, 6 grid rows and 40 block table rows each, so each group of 256 pairs is two blocks and the ratio checks
    # the group bound: resolution 41 evaluates 738 pairs in 3 groups, and 161, 11,109 in 44.  One mode table for the
    # whole grid peaked at 4.3 MB at resolution 41; fields of every pair, made up front, 1.34 MB at 161 against 1.09
    # at 41; here both read 1.07 MB
    peaks = [grid_peak(traced, resolution=resolution, tau_max=0.05) for resolution in (41, 161)]
    assert peaks[1] <= 1.1 * peaks[0] and peaks[1] <= 3e6


@pytest.mark.parametrize("tau_max, rows", [(0.34, 35), (0.5, 51)])
def test_short_grid_memory_stays_near_the_default_grid(traced, tau_max, rows):
    # a block counts each pair's block table of mode rows, 8*min(BLOCK_STEPS, n - 1) rows, with its n grid rows: 9 pairs
    # a block on the default 410 rows, as when only the grid rows were counted, but 21 and 20 pairs on these short
    # grids, not 117 and 80, which peaked at 4.4 and 3.1 MB against the default grid's 0.87 MB
    assert len(time_grid(tau_max, 1e-2)) == rows
    peaks = [grid_peak(traced, resolution=41, tau_max=grid_end) for grid_end in (None, tau_max)]
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_mode_table_of_a_pair_block_equals_the_per_control_tables_bitwise():
    # rotating_generator broadcasts bz and b0 as it does omega_rf, and eigh takes each control alone.  The oracle
    # comparison stacks verify's random sets, which draw k = +-1: with a k per control, the sectors' tables of such a
    # stack are the per-control ones too
    rng = np.random.default_rng(5)
    bz = rng.uniform(-1.0, 1.0, 13) * math.sqrt(energy_shell(2.7, 1.0))
    b0 = np.array([transverse_amplitude(2.7, 1.0, v) for v in bz])
    block = ControlParams(k=1.0, omega_hat=2.7, b0=b0, bz=bz, omega_rf=rng.uniform(-8.0, 8.0, 13), theta0=0.0)
    mixed = dataclasses.replace(block, k=rng.choice([1.0, -1.0], 13), theta0=rng.uniform(0.0, 2.0 * math.pi, 13))
    assert set(mixed.k) == {1.0, -1.0}  # energy_shell and transverse_amplitude read k^2 alone
    sectors = sector_table(mixed)
    assert sectors[0].shape == (13, 8, 8)
    for stack in (block, mixed):
        tables, rates = mode_table(stack, split_halves(E1))
        assert tables.shape == (13, 8, 2, 4) and rates.shape == (13, 4)
        for n in range(13):
            alone = ControlParams(*(float(np.broadcast_to(v, 13)[n]) for v in dataclasses.astuple(stack)))
            table, w = mode_table(alone, split_halves(E1))
            assert tables[n].tobytes() == table.tobytes() and rates[n].tobytes() == w.tobytes()
            if stack is mixed:
                assert all(a[n].tobytes() == b.tobytes() for a, b in zip(sectors, sector_table(alone)))


@pytest.mark.parametrize("j", range(8))
def test_target_values_equal_the_theta0_best_values(j):
    # min_time_to_target solves the crossing of the theta0-best x_j: at a control and at its mirror (whose x5 and x7
    # are the pair's with the sign flipped), at three thresholds off the grid values, it crosses where brentq does on
    # the exact propagator's theta0-best values
    bz = 0.6
    p = ControlParams(k=1.0, omega_hat=2.7, b0=transverse_amplitude(2.7, 1.0, bz), bz=bz, omega_rf=2.3, theta0=0.0)
    grid = time_grid(3.0 * TAU_STAR, 1e-2)
    for q in (p, dataclasses.replace(p, bz=-p.bz, omega_rf=-p.omega_rf)):
        best = theta0_best(exact_state_trajectory(q, E1, grid))[:, j]
        for threshold in (1.0 - 1e-9) * np.quantile(best[best > 0.0], [0.1, 0.5, 0.9]) if np.any(best > 0.0) else []:
            i = np.flatnonzero(best >= threshold)[0]

            def gap(t):
                return theta0_best(exact_state_trajectory(q, E1, t))[j] - threshold

            want = 0.0 if i == 0 else brentq(gap, grid[i - 1], grid[i], xtol=1e-15)
            assert abs(min_time_to_target(q, f"x{j + 1}", threshold, 3.0 * TAU_STAR, 1e-2) - want) <= 1e-12


def test_first_crossing_on_the_target_columns():
    # thresholds midway between rows that the theta0-best x8 first reaches early, in the middle and at the last row
    # cross in that row's step; x1's 1 is reached at row 0, and 1 by x8 never
    taus = time_grid(0.5, 1e-4)  # 5,001 rows on which x8 at the closed-form control rises from 0
    values = theta0_best(exact_state_trajectory(PARAMS, E1, taus))[:, 7]
    assert np.all(np.diff(values) > 0.0)
    for row in (100, 2500, len(taus) - 1):
        hit = min_time_to_target(PARAMS, "x8", 0.5 * (values[row - 1] + values[row]), 0.5, 1e-4)
        assert taus[row - 1] < hit < taus[row]
    assert min_time_to_target(PARAMS, "x1", 0.5, 0.5, 1e-4) == 0.0
    assert min_time_to_target(PARAMS, "x8", 1.0, 0.5, 1e-4) is None
    # a grid of the one row tau = 0
    assert min_time_to_target(PARAMS, "x1", 0.5, tau_max=0.0, dtau=1e-2) == 0.0


@pytest.mark.parametrize("target, threshold", [("x8", 0.6), ("x7", 0.3), ("x6", 0.6), ("x5", 0.5)])
def test_each_reported_control_does_what_the_report_says(target, threshold):
    # through public routes alone: every peak's control, theta0 included, gives the peak's value at its tau under the
    # exact propagator, the mirror pair's control for a peak or crossing of x5 and x7 read off the mirror; and the
    # grid's and the refinement's best control reaches the threshold at best_tau.  On resolution 7 at three scales and
    # k = +-1, the crossings of x8 and x6 need a theta0 of their own, and some results come from the mirror
    j, mirrored, theta0s = COMPONENT_INDEX[target], [], []
    for k in (1.0, -1.0):
        for omega_hat in (2.3, 2.7, 3.45):
            res = grid_search(omega_hat, k, target=target, resolution=7, threshold=threshold)
            for name, (value, tau, p) in res.peaks.items():
                x = exact_state_trajectory(p, E1, np.array([tau]))[0, COMPONENT_INDEX[name]]
                assert abs(x - value) <= 1e-12, (name, k, omega_hat)
                mirrored.append(p.bz < -1e-9)
            for found in (res, refine_local(res)):
                p = found.best_params
                x = exact_state_trajectory(p, E1, np.array([found.best_tau]))[0, j]
                assert found.feasible and abs(x - threshold) <= 1e-12, (k, omega_hat)
                mirrored.append(p.bz < -1e-9)
                theta0s.append(abs(p.theta0))
    assert any(mirrored) and (max(theta0s) > 0.1) == (target in ("x8", "x6"))
