import json
import math

import numpy as np
import pytest

import trispin.report as report_module
from trispin.algebra import E1, TAU_STAR
from trispin.boundary import BoundaryConstants, closed_form_params, consistent_scale, invert_to_physical, transfer_time
from trispin.cli import main
from trispin.dynamics import time_grid, exact_state_trajectory, propagate_rk4
from trispin.hilbert import full_hilbert_trajectory
from trispin.report import DEFAULT_SEED, dynamics_equivalence, random_consistent_params, run_verification

from mutants import BOTH, TABLE

QUICK = dict(n_dynamics=0, grid_resolution=3, scan_samples=801)


def test_zero_dynamics_sets_is_skipped_not_passed():
    report = run_verification(**QUICK)
    checks = {c.name: c for c in report.checks}
    # a skipped bounded check still states what it would have been held to
    for check in (checks[name] for name in BOTH):
        assert check.status == "skipped" and check.measured is None and check.expected == 0.0 and check.tolerance == 1e-8
    assert checks["closure_residual"].status == "pass" and report.passed
    assert "SKIPPED  cross_validate_full_vs_rk4" in report.to_text()


def verify_checks(tmp_path, capsys, flags):
    """(exit code, checks) of verify at flags, which write no error."""
    out = tmp_path / "report.json"
    code = main(["verify", *flags, "--out", str(out)])
    assert capsys.readouterr().err == ""
    return code, json.loads(out.read_text())["checks"]


@pytest.mark.parametrize("row", TABLE.values(), ids=TABLE)
def test_each_row_gives_its_verify_record(plant, tmp_path, capsys, row):
    # with row planted, the checks its record names fail, and only they; a row verify passes exits 0.  A check that
    # comes to catch a row verify passes fails its case here, and the row's record moves to the checks that fail
    plant(row)
    code, checks = verify_checks(tmp_path, capsys, row.flags)
    assert tuple(c["name"] for c in checks if c["status"] == "fail") == row.fails and code == (1 if row.fails else 0)


def test_energy_mutant_fails_verify(plant, tmp_path, capsys):
    # b0 off the energy shell, wherever the random sets and the grid's pairs are built: at omega_hat 1000 too the
    # residual reads the 0.01, over a gate of 8 ulps of omega_hat^2 (9.3e-10), to the residual's rounding (1.2e-10)
    row = TABLE["energy_shell"]
    plant(row)
    checks = verify_checks(tmp_path, capsys, ("--omega-hat", "1000") + row.flags)[1]
    assert abs({c["name"]: c for c in checks}["energy_residual_max"]["measured"] - 0.01) <= 1e-9


@pytest.mark.parametrize("omega_hat", [100.0, 1000.0, 1533.98])
def test_energy_gate_follows_the_shell(tmp_path, capsys, strict_json, omega_hat):
    # b0^2 + bz^2 and omega_hat^2 round to ulps of omega_hat^2: residuals of 1.8e-12, 1.2e-10 and 4.7e-10 here, one
    # ulp each, under a gate of 8 ulps (README) and over an absolute 1e-12
    out = tmp_path / "report.json"
    code = main(["verify", "--omega-hat", str(omega_hat), "--dynamics-sets", "0", "--scan-samples", "801", "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    check = {c["name"]: c for c in strict_json(out)["checks"]}["energy_residual_max"]
    assert check["status"] == "pass" and check["tolerance"] == 8 * math.ulp(omega_hat**2) and check["measured"] > 1e-12


def test_energy_check_reads_every_propagated_control():
    # the control of the transfer check, the random sets and the grid's 8 peaks and best (it crosses 0.999 here)
    report = run_verification(omega_hat=2.7, n_dynamics=2, grid_resolution=21, scan_samples=801)
    check = {c.name: c for c in report.checks}["energy_residual_max"]
    # its gate, 8 ulps of the largest omega_hat^2, in [4, 16) here: far inside 1e-12
    assert check.status == "pass" and check.tolerance in (8 * math.ulp(4.0), 8 * math.ulp(8.0)) and check.measured <= 4e-15
    assert check.note == "the inverted control, 2 random parameter sets and 9 grid results"


def test_generic_equations_check_reads_the_identity():
    # r/D against col - target at random constants, relative to max(1, 1/|D|): rounding, far inside the 1e-12 gate
    constants = [BoundaryConstants(*np.random.default_rng(3).uniform(-8.0, 8.0, 5)) for _ in range(50)]
    assert report_module.equations_against_columns(constants) <= 1e-14
    check = {c.name: c for c in run_verification(**QUICK).checks}["boundary_equations_generic"]
    assert check.status == "pass" and check.tolerance == 1e-12 and check.measured <= 1e-14


@pytest.mark.parametrize(
    "omega_hat, control",
    [("auto", "closed-form control"), (2.7, "inverted control"),
     (1.5, "closed-form control; no inverted control exists at omega_hat=1.5")],
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
    assert omega_hat != 1.5 or f"{check.measured:.6g}" == "0.641215"


def forbidden(*args, **kwargs):
    raise AssertionError("a check ran before the arguments were checked")


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
    for name in ("analytic_family", "closure_check", "dynamics_equivalence") + also_forbidden:
        monkeypatch.setattr(report_module, name, forbidden)
    with pytest.raises(ValueError, match=match):
        run_verification(**arguments)


def test_inversion_step_budget_is_refused_before_any_check(monkeypatch):
    # at omega_hat 1600 the inversion's bracket end 4*b0/pi is 2037.2, over the 1953.1 its 10^6 steps of 2^-9 reach;
    # the inversion runs before any check, after reading the label's constants, and its error names both inputs
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


# rows, of which every oracle's grid holds all but the last, in blocks of 32 from row 0: 1 the lone tau 0, 2 and 3 a
# lone step and two; 32, 33 and 34 end one grid row before, on and after the first block edge, 35 two after.  A window
# takes 6,144 // sets rows of each set, in whole blocks: 3,072 for 2 sets, 1,216 for 5 and 1,024 for a group of 6.
# 2048, 2049 and 2050 end one grid row before, on and after the second window edge of 6 sets, 3072, 3073 and 3074 the
# first of 2 and 1217 on the first of 5; in 1249, 2081 and 3105 the last window of 5, 6 and 2 sets holds one whole
# block, which takes a neighbour; 40,812 is verify's default grid
ROWS = [1, 2, 3, 32, 33, 34, 35, 1217, 1249, 2048, 2049, 2050, 2081, 3072, 3073, 3074, 3105, 40812]


def _grid(rows):
    tau_end, dtau = (3.0 * TAU_STAR, 1e-4) if rows == 40812 else ((rows - 1) * 1e-3, 1e-3)
    assert len(time_grid(tau_end, dtau)) == rows
    return tau_end, dtau


@pytest.mark.parametrize("rows", ROWS)
def test_corotating_comparison_equals_the_lab_frame_one(rows):
    # |R a - R b| = |a - b| for the shared orthogonal turn R: the streamed gaps match the public lab-frame trajectories'
    # to rounding, a few last bits of gaps near 1e-15
    tau_end, dtau = _grid(rows)
    for seed in range(3):
        rng = np.random.default_rng([rows, seed])
        params = [random_consistent_params(rng) for _ in range(2)]
        got, lab = dynamics_equivalence(params, tau_end, dtau), _whole_trajectory_gaps(params, tau_end, dtau)
        assert max(abs(a - b) for a, b in zip(got, lab)) <= 2.2e-16, (seed, got, lab)


@pytest.mark.parametrize("rows", ROWS)
def test_stacked_sets_equal_single_set_calls(rows):
    # 1, 2, 5 and 7 sets at once (7 as groups of 6 and 1), k = +-1 mixed: the gaps of a stack are, bit for bit, the
    # largest of its sets' gaps alone, as every GEMM keeps a lone set's shape, and every row of every set is compared
    tau_end, dtau = _grid(rows)
    rng = np.random.default_rng([rows, 7])
    params = [random_consistent_params(rng) for _ in range(7)]
    assert {p.k for p in params} == {1.0, -1.0}
    alone = [dynamics_equivalence([p], tau_end, dtau) for p in params]
    assert {single[2] for single in alone} == {rows}
    for sets in (1, 2, 5, 7):
        full, exact = (max(single[i] for single in alone[:sets]) for i in (0, 1))
        assert dynamics_equivalence(params[:sets], tau_end, dtau) == (full, exact, sets * rows), sets


# verify's flags: its defaults; a coarser grid, whose 12,367 steps are 386 blocks of 32 and 15 more, with 2 sets and
# with 7, a group of 6 and one of 1 that both end in a partial window; and 4 times the default steps, 163,243 rows a set
@pytest.mark.parametrize("flags", [(), ("--dtau", "3.3e-4", "--dynamics-sets", "2"),
                                   ("--dtau", "3.3e-4", "--dynamics-sets", "7"), ("--dtau", "2.5e-5", "--dynamics-sets", "2")],
                         ids=["defaults", "coarse_2_sets", "coarse_7_sets", "fine_2_sets"])
def test_oracle_gaps_are_rounding(tmp_path, capsys, strict_json, flags):
    # both oracle gaps stay at 1e-12, far inside their 1e-8 gate (seen: 7.3e-15 and 7.5e-15 at defaults, 6.0e-15 on the
    # fine grid).  On the coarse grid they read 8.09e-13, RK4's own truncation, about (3.3)^4 times the default's: the
    # gate keeps 19% headroom there, and measures RK4's order more than the oracles' rounding
    out = tmp_path / "report.json"
    assert main(["verify", *flags, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in strict_json(out)["checks"]}
    assert all(checks[name]["measured"] <= 1e-12 for name in BOTH), [checks[name]["measured"] for name in BOTH]


def test_comparison_memory_does_not_grow_with_the_set_count(traced):
    # at most 6 sets at once, and a window of 6,144 rows over them: 20 sets (groups of 6, 6, 6 and 2) peak about
    # where 5 do, one set's sources more
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(20)]
    peaks = [traced(lambda: dynamics_equivalence(params[:sets], 3.0 * TAU_STAR, 1e-3))[1] for sets in (5, 20)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_skipped_window_fails_both_oracle_checks(plant, tmp_path, capsys):
    # the last window left out: the rows compared still pass their gates, but a gap stands for every row of every
    # set, so both checks fail (its record) and say how many rows they compared
    plant(TABLE["skipped_window"])
    checks = {c["name"]: c for c in verify_checks(tmp_path, capsys, TABLE["skipped_window"].flags)[1]}
    assert all(checks[name]["measured"] <= 1e-8 for name in BOTH)
    missed = "compared 36864 of 40812 state rows"  # 6 windows of 6,144 rows, the seventh's 3,948 left out
    sets = "1 random parameter sets, omega_hat drawn in (1.6, 3.0), on [0, 3*tau_star], dtau=0.0001"
    assert [checks[name]["note"] for name in BOTH] == [f"{sets}; {missed}"] * 2


def test_windowed_comparison_holds_no_trajectory(traced):
    # whole trajectories peaked at 49.1e6 bytes: three 163,243 x 8 trajectories of a set and their differences
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(2)]
    (*gaps, rows), peak = traced(lambda: dynamics_equivalence(params, 3.0 * TAU_STAR, 2.5e-5))
    assert max(gaps) <= 1e-12 and rows == 2 * len(time_grid(3.0 * TAU_STAR, 2.5e-5)) and peak <= 3e6
