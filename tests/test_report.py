import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import trispin.report as report_module
from trispin import dynamics
from trispin.algebra import E1, TAU_STAR
from trispin.boundary import closed_form_params, consistent_scale, invert_to_physical, transfer_time
from trispin.dynamics import (
    _WINDOW_ROWS,
    _mode_rows,
    _rk4_rows,
    _time_grid,
    exact_state_trajectory,
    mode_table,
    propagate_rk4,
    split_halves,
)
from trispin.hilbert import _PROJECTION, _mapped_blocks, full_hilbert_trajectory
from trispin.report import DEFAULT_SEED, dynamics_equivalence, random_consistent_params, run_verification

QUICK = dict(n_dynamics=0, grid_resolution=3, scan_samples=801)


def test_zero_dynamics_sets_is_skipped_not_passed():
    report = run_verification(**QUICK)
    checks = {c.name: c for c in report.checks}
    check = checks["cross_validate_full_vs_rk4"]
    assert check.status == "skipped" and check.measured is None
    # a skipped bounded check still states what it would have been held to
    assert check.expected == 0.0 and check.tolerance == 1e-8
    assert checks["closure_residual"].status == "pass"
    assert report.passed
    assert "SKIPPED  cross_validate_full_vs_rk4" in report.to_text()


def _patched(name, change):
    """A stand-in for report.<name> that calls it and passes its result through change."""
    original = getattr(report_module, name)
    return name, lambda *args, **kwargs: change(original(*args, **kwargs))


@pytest.mark.parametrize(
    "patch, failing",
    [
        (_patched("transfer_time", lambda tau_star: tau_star + 1e-9), "family_min_time"),
        (_patched("sweep_tau", lambda rows: [rows[1], rows[0]] + rows[2:]), "sweep_minimum"),
        (_patched("consistency_scan", lambda scan: replace(scan, consistent=[])), "consistency_scan"),
        (_patched("grid_search", lambda gs: replace(gs, best_tau=0.5 * TAU_STAR)), "ansatz_grid_search_x8"),
        (_patched("grid_search", lambda gs: replace(gs, peaks={**gs.peaks, "x7": (0.9995, 1.0, None)})), "no_transfer_probe_x7"),
    ],
    ids=["family_min_time", "sweep_minimum", "consistency_scan", "early_best_tau", "x7_reached"],
)
def test_each_rule_fails_its_check_alone(monkeypatch, patch, failing):
    # push one check's rule to its fail side: that check, and only it, reads fail, so the report fails
    monkeypatch.setattr(report_module, *patch)
    report = run_verification(**QUICK)
    assert [c.name for c in report.checks if c.status == "fail"] == [failing]
    assert not report.passed
    assert report.to_text().endswith("overall: FAIL")


def test_default_grid_values():
    # verify's grid over the energy-shell ansatz at its defaults reads its rows off the block-factored mode table
    report = run_verification()
    assert report.passed
    checks = {c.name: c for c in report.checks}
    assert checks["ansatz_grid_search_x8"].note == "largest x8 seen 0.982243 at tau=1.34"
    assert f"{checks['no_transfer_probe_x7'].measured:.6g}" == "0.829033"


@pytest.mark.parametrize(
    "omega_hat, control",
    [
        ("auto", "closed-form control"),
        (2.7, "inverted control"),
        (1.5, "closed-form control; no inverted control exists at omega_hat=1.5"),
    ],
    ids=["defaults", "inverted", "below_the_inversion_floor"],
)
def test_transfer_provenance_names_the_propagated_control(omega_hat, control):
    # a numeric omega_hat propagates the first inverted control; below sqrt(10/3) the inversion has
    # no root, and the check falls back to the closed-form control and says so
    report = run_verification(omega_hat=omega_hat, **QUICK)
    check = {c.name: c for c in report.checks}["transfer_x8_at_tau_star"]
    assert check.provenance == f"exact propagation of the {control}"
    omega, tau_star = report.context["omega_hat"], transfer_time(0, 0)
    sols = invert_to_physical(omega, 1.0, tau_star, -math.pi)
    assert bool(sols) == (omega_hat != 1.5)
    params = sols[0].params if control == "inverted control" else closed_form_params(omega, **consistent_scale(0)[1])
    assert check.measured == float(exact_state_trajectory(params, E1, np.array([tau_star]))[0, 7])
    if omega_hat == 1.5:
        assert f"{check.measured:.6g}" == "0.641215"


@pytest.mark.parametrize(
    "arguments, match, also_forbidden",
    [
        (dict(omega_hat=1.2), "energy floor", ("consistency_scan",)),
        (dict(n_dynamics=-1), "n_dynamics must be nonnegative, got -1", ("consistency_scan",)),
        (dict(grid_resolution=0), "resolution must be >= 1", ("consistency_scan",)),
        (dict(scan_samples=0, grid_resolution=3), "samples must be >= 1", ()),
        (dict(seed=-1), "seed must be nonnegative, got -1", ("consistency_scan",)),
    ],
    ids=["low_energy", "negative_dynamics_sets", "zero_resolution", "zero_scan_samples", "negative_seed"],
)
def test_low_energy_is_refused_before_any_check(monkeypatch, arguments, match, also_forbidden):
    # a bad argument is a ValueError up front, like the step: no check runs first, and none reads "skipped".
    # The grid search runs before the scan, so an omega_hat or a resolution it refuses never reaches the scan
    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the arguments were checked")

    for name in ("analytic_family", "closure_check", "dynamics_equivalence") + also_forbidden:
        monkeypatch.setattr(report_module, name, forbidden)
    with pytest.raises(ValueError, match=match):
        run_verification(**arguments)


def test_inversion_step_budget_is_refused_before_any_check(monkeypatch):
    # at omega_hat 1600 the inversion's bracket end 4*b0/pi is 2037.2, over the 1953.1 its 10^6 steps of 2^-9 reach;
    # the inversion runs before any check, after reading the label's constants, and its error names both inputs
    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the arguments were checked")

    for name in ("boundary_residuals", "closure_check", "dynamics_equivalence"):
        monkeypatch.setattr(report_module, name, forbidden)
    with pytest.raises(ValueError, match=r"^omega_hat=1600 and b_target=-3\.14159 put the root bracket end"):
        run_verification(omega_hat=1600.0, n_dynamics=0, grid_resolution=3, scan_samples=801)
    # 1533.98 is the largest omega_hat the inversion accepts at b = -pi
    monkeypatch.undo()
    run_verification(omega_hat=1533.98, n_dynamics=0, grid_resolution=3, scan_samples=801)


def _whole_trajectory_gaps(params_list, tau_end, dtau):
    """dynamics_equivalence by whole trajectories from the three public oracles: the reference it streams."""
    worst_full = worst_exact = 0.0
    for p in params_list:
        reduced = propagate_rk4(p, E1, tau_end, dtau)
        gaps = []
        for states in (full_hilbert_trajectory(p, tau_end, dtau).states, exact_state_trajectory(p, E1, reduced.taus)):
            d = states - reduced.states
            gaps.append(math.sqrt(float(np.max(np.einsum("ij,ij->i", d, d)))))
        worst_full, worst_exact = max(worst_full, gaps[0]), max(worst_exact, gaps[1])
    return worst_full, worst_exact


# rows, of which every oracle's grid holds all but the last, in blocks of 32 from row 0: 2 and 3 a lone step and
# two; 32, 33 and 34 end one grid row before, on and after the first block edge, 35 two after; 2048, 2049 and 2050
# one grid row before, on and after the first window edge (2,048 rows, 64 blocks); in 2081 the last window holds
# one whole block, which takes a neighbour; 40,812 is verify's default grid
@pytest.mark.parametrize("rows", [2, 3, 32, 33, 34, 35, 2048, 2049, 2050, 2081, 40812])
def test_windowed_comparison_equals_whole_trajectories(rows):
    tau_end, dtau = (3.0 * TAU_STAR, 1e-4) if rows == 40812 else ((rows - 1) * 1e-3, 1e-3)
    assert len(_time_grid(tau_end, dtau)) == rows
    rng = np.random.default_rng(rows)
    params = [random_consistent_params(rng) for _ in range(2)]
    got = dynamics_equivalence(params, tau_end, dtau)
    assert got == _whole_trajectory_gaps(params, tau_end, dtau)
    assert all(type(v) is float for v in got)
    # row by row, not only at the largest gap: each oracle's windows are its public trajectory bit for bit
    p = params[0]
    taus, reduced = _rk4_rows(p, E1, tau_end, dtau)
    sources = {
        "rk4": (reduced, propagate_rk4(p, E1, tau_end, dtau).states),
        "full": (_mapped_blocks(p, tau_end, dtau, _PROJECTION)[1], full_hilbert_trajectory(p, tau_end, dtau).states),
        "exact": (_mode_rows(*mode_table(p, split_halves(E1)), taus, p.omega_rf), exact_state_trajectory(p, E1, taus)),
    }
    for name, (source, whole) in sources.items():
        windows = [source.take(lo, lo + _WINDOW_ROWS) for lo in range(0, rows, _WINDOW_ROWS)]
        assert np.array_equal(np.concatenate(windows), whole), name


def test_comparison_windows_take_only_their_own_blocks(monkeypatch):
    # every grid starts at state row 0, so each 2,048-row window of verify's default grid is 64 whole blocks (the last
    # window 59 and the held rows): one GEMM over exactly its own block starts, written in place, in every oracle
    windows, take, starts = [], dynamics._Rows.take, dynamics._Rows._starts

    def comparison_take(self, lo, hi, out=None):
        if out is not None:  # only the comparison passes its window buffer
            windows.append((self, lo, min(hi, self.count), []))
        return take(self, lo, hi, out)

    def recorded_starts(self, a, z):
        if windows and windows[-1][0] is self:
            windows[-1][3].append((a, z))
        return starts(self, a, z)

    monkeypatch.setattr(dynamics._Rows, "take", comparison_take)
    monkeypatch.setattr(dynamics._Rows, "_starts", recorded_starts)
    dynamics_equivalence([random_consistent_params(np.random.default_rng(DEFAULT_SEED))], 3.0 * TAU_STAR, 1e-4)
    assert len(windows) == 3 * 20 and len({id(source) for source, *_ in windows}) == 3
    for source, lo, grid_hi, asked in windows:
        assert source.b == 32 and lo % 32 == grid_hi % 32 == 0
        assert asked == [(lo // 32, grid_hi // 32)]
    # each window takes the full-space, exact and RK4 rows in turn; the block starts of the full-space oracle and of
    # RK4 are a plain power source, with no turn and an 8-row table (the exact oracle's are held rows)
    full, exact, reduced = (source for source, *_ in windows[:3])
    for rows in (full, reduced):
        assert rows.trig is not None and rows.starts.trig is None
        assert rows.starts.table.shape == (8, 32 * 8)
    assert exact.starts.count == 0


def test_windowed_comparison_holds_no_trajectory():
    # whole trajectories peaked at 49.1e6 bytes: three 163,245 x 8 trajectories of a set and their differences
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(2)]
    tracemalloc.start()
    try:
        gaps = dynamics_equivalence(params, 3.0 * TAU_STAR, 2.5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(gaps) <= 1e-12
    assert peak <= 3e6
