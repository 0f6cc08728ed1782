import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import trispin.report as report_module
from trispin import algebra, boundary, cli, dynamics, hilbert, search
from trispin.algebra import E1, TAU_STAR
from trispin.boundary import BoundaryConstants, closed_form_params, consistent_scale, invert_to_physical, transfer_time
from trispin.cli import main
from trispin.dynamics import (
    _TURN,
    _WINDOW_ROWS,
    _mode_rows,
    _powers,
    _rk4_map,
    _time_grid,
    exact_state_trajectory,
    mode_states,
    mode_table,
    propagate_rk4,
    split_halves,
)
from trispin.hilbert import full_hilbert_trajectory, sector_table
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


@pytest.mark.parametrize(
    "name, old, new, failing",
    [
        # the second term of r[0] times 1.001, and the sign of the c+ d term of r[4]: at the family constants each
        # term is 0 alone, so only constants away from the labels see them
        ("_residual_system", "- (x_p - 2 * a * a + sd_p) * czm", "- 1.001 * (x_p - 2 * a * a + sd_p) * czm",
         "boundary_equations_generic"),
        ("_residual_system", "r[4] = b * (czp - czm) - cp * d", "r[4] = b * (czp - czm) + cp * d",
         "boundary_equations_generic"),
        # the radicand 1e-6 too large: b is 9e-14 off, under its 1e-9 gate; the phase 2.4e-7 off, over its 1.6e-12
        ("consistent_scale", "PI**2 / 3.0)", "PI**2 / 3.0 + 1e-6)", "consistency_scan"),
    ],
    ids=["r0_term", "r4_sign", "scale_radicand"],
)
def test_boundary_mutants_fail_verify(mutate, tmp_path, capsys, name, old, new, failing):
    mutate(boundary, name, old, new)
    out = tmp_path / "report.json"
    code = main(["verify", "--dynamics-sets", "0", "--resolution", "3", "--scan-samples", "801", "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == [failing]


class MutantPassed(Exception):
    """verify exited 0 with a one-line fault in place."""


@pytest.mark.xfail(strict=True, raises=MutantPassed, reason="no verify check reads this fault yet (ROADMAP item 10)")
@pytest.mark.parametrize(
    "module, name, old, new",
    [
        # the theta0-best x2, x4, x6 and x8 read as |x2| and |x6|: the grid's x8 peak falls, and no crossing was read
        (search, "_best_over_theta0", "np.hypot(x[..., 1::4], x[..., 3::4])", "np.abs(x[..., 1::4])"),
        # the mirror's x5 and x7 taken with the pair's sign: x7's peak stays under its 0.999 bound
        (search, "grid_search", "np.where(mirrored, -low, -math.inf)", "np.where(mirrored, low, -math.inf)"),
        # an early crossing of x8 against 0 instead of 0.95*tau_star: no grid control reaches 0.999, so none is judged
        (report_module, "run_verification", "gs.best_tau > 0.95 * tau_star", "gs.best_tau > 0"),
        # the sweep in label order: label (0, 0) is first either way, and (0, 1) after it takes longer
        (boundary, "sweep_tau", 'return sorted(rows, key=lambda row: row["tau_star"])', "return list(rows)"),
    ],
    ids=["hypot_to_abs", "mirror_sign", "early_best_tau_zero", "sweep_unsorted"],
)
def test_mutants_that_verify_still_passes(mutate, monkeypatch, tmp_path, capsys, module, name, old, new):
    # the standing audit of the faults verify does not see at its default grid: each case is an expected failure
    # until a check catches its fault, when it shows as an XPASS and the case moves to the tests above
    mutate(module, name, old, new)
    for other in (report_module, cli):  # the names report and the CLI import are patched there too
        if other is not module and hasattr(other, name):
            monkeypatch.setattr(other, name, getattr(module, name))
    out = tmp_path / "report.json"
    code = main(["verify", "--dynamics-sets", "0", "--scan-samples", "801", "--out", str(out)])
    assert code in (0, 1) and capsys.readouterr().err == ""
    if code == 0:
        raise MutantPassed(f"{name}: {old!r} -> {new!r}")


def test_energy_mutant_fails_verify(mutate, monkeypatch, tmp_path, capsys):
    # b0 off the energy shell: 0.01 under the root of transverse_amplitude, read by name where the random
    # sets and the grid's pairs are built.  No other check reads the energy, so only the energy check fails, at the
    # auto scale and at 1000, where its gate, 8 ulps of omega_hat^2, is 9.3e-10 and the residual's rounding 1.2e-10
    mutate(algebra, "transverse_amplitude", "math.sqrt(r)", "math.sqrt(r + 0.01)")
    for module in (report_module, search):
        monkeypatch.setattr(module, "transverse_amplitude", algebra.transverse_amplitude)
    out = tmp_path / "report.json"
    for scale, rounding in (([], 1e-15), (["--omega-hat", "1000"], 1e-9)):
        code = main(["verify", *scale, "--dynamics-sets", "1", "--resolution", "3", "--scan-samples", "801", "--out", str(out)])
        assert code == 1 and capsys.readouterr().err == ""
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks if c["status"] == "fail"] == ["energy_residual_max"]
        assert abs({c["name"]: c for c in checks}["energy_residual_max"]["measured"] - 0.01) <= rounding


@pytest.mark.parametrize("omega_hat", [100.0, 1000.0, 1533.98])
def test_energy_gate_follows_the_shell(tmp_path, capsys, omega_hat):
    # b0^2 + bz^2 and omega_hat^2 round to ulps of omega_hat^2: residuals of 1.8e-12, 1.2e-10 and 4.7e-10 here, one
    # ulp each, under a gate of 8 ulps (README) and over an absolute 1e-12
    out = tmp_path / "report.json"
    code = main(["verify", "--omega-hat", str(omega_hat), "--dynamics-sets", "0", "--scan-samples", "801", "--out", str(out)])
    assert code == 0 and capsys.readouterr().err == ""
    check = {c["name"]: c for c in json.loads(out.read_text())["checks"]}["energy_residual_max"]
    assert check["status"] == "pass" and check["tolerance"] == 8 * math.ulp(omega_hat**2) and check["measured"] > 1e-12


BOTH = ["cross_validate_full_vs_rk4", "rotating_exact_vs_rk4"]


@pytest.mark.parametrize(
    "module, name, old, new, failing",
    [
        # the step map's frame turn, R(-omega_rf h) turned the other way: RK4's co-rotating rows
        (dynamics, "_rk4_map", "-np.sin(angle) * _TURN", "+np.sin(angle) * _TURN", BOTH),
        # RK4's turn to the lab frame, as -K in _TURN_PARTS or as the sine of its angles: RK4's last row in the lab frame
        (dynamics, "_TURN_PARTS", None, None, BOTH),
        (dynamics, "_turned", "np.sin(phi)[..., None]", "-np.sin(phi)[..., None]", BOTH),
        # the plane turn of the mode rows: the full and exact last rows in the lab frame
        (dynamics, "mode_states", "np.asarray(omega_rf)[..., None] * taus", "-np.asarray(omega_rf)[..., None] * taus", BOTH),
        # each oracle's own frame: the sectors' rotating field and the reduced co-rotating generator
        (hilbert, "sector_table", "m[..., 2] -= ", "m[..., 2] += ", BOTH[:1]),
        (dynamics, "rotating_generator", "- np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J",
         "+ np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J", BOTH[1:]),
    ],
    ids=["rk4_step_turn", "turn_parts", "block_turn_sine", "direct_turn", "sector_frame", "rotating_J"],
)
def test_frame_and_turn_mutants_fail_verify(mutate, monkeypatch, tmp_path, capsys, module, name, old, new, failing):
    # the oracles are compared co-rotating, where one frame turn cancels; each set's last row, compared in the lab
    # frame, still sees a fault in either turn.  Names report imports are patched there too
    if old is None:
        monkeypatch.setattr(dynamics, name, np.stack([np.eye(8) + _TURN @ _TURN, -_TURN @ _TURN, _TURN]))
    else:
        mutate(module, name, old, new)
        if hasattr(report_module, name):
            monkeypatch.setattr(report_module, name, getattr(module, name))
    out = tmp_path / "report.json"
    code = main(["verify", "--dynamics-sets", "1", "--resolution", "3", "--scan-samples", "801", "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == ""
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == failing


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
    report = run_verification(**QUICK)
    check = {c.name: c for c in report.checks}["boundary_equations_generic"]
    assert check.status == "pass" and check.tolerance == 1e-12 and check.measured <= 1e-14


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


def _corotating_gaps(params_list, tau_end, dtau):
    """dynamics_equivalence by whole trajectories: the reference it streams.

    Every row co-rotating, RK4's the powers of its step map and the others the public mode_states with no turn; and
    the last row in the lab frame, RK4's from propagate_rk4 and the others mode_states at the last tau alone (a 2-row
    grid's trajectories take their last row in a two-row product, whose last bits can differ)."""
    worst_full = worst_exact = 0.0
    for p in params_list:
        taus = _time_grid(tau_end, dtau)
        reduced, lab = _powers(_rk4_map(p, taus, dtau), E1, len(taus)).array(), propagate_rk4(p, E1, tau_end, dtau).states[-1]
        gaps = []
        for table, w in (sector_table(p), mode_table(p, split_halves(E1))):
            last = mode_states(table, w, taus[-1:], p.omega_rf).reshape(8)
            d = np.vstack([mode_states(table, w, taus).reshape(-1, 8) - reduced, last - lab])
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
    assert len(_time_grid(tau_end, dtau)) == rows
    return tau_end, dtau


@pytest.mark.parametrize("rows", ROWS)
def test_windowed_comparison_equals_whole_trajectories(rows):
    tau_end, dtau = _grid(rows)
    rng = np.random.default_rng(rows)
    params = [random_consistent_params(rng) for _ in range(2)]
    got = dynamics_equivalence(params, tau_end, dtau)
    assert got == _corotating_gaps(params, tau_end, dtau) + (2 * rows,)
    assert all(type(v) is float for v in got[:2])
    # row by row, not only at the largest gap: the windows of the two sources are the co-rotating whole trajectories
    # bit for bit, the mode tables' both at once, full then exact, on a leading axis of 2
    p = params[0]
    taus = _time_grid(tau_end, dtau)
    tables, w = (np.stack([a, b.reshape(a.shape)]) for a, b in zip(sector_table(p), mode_table(p, split_halves(E1))))
    rk4 = _powers(_rk4_map(p, taus, dtau), E1, len(taus))
    modes = np.stack([mode_states(*sector_table(p), taus), mode_states(*mode_table(p, split_halves(E1)), taus).reshape(-1, 8)])
    for name, (source, whole) in {"rk4": (rk4, rk4.array()), "modes": (_mode_rows(tables, w, taus), modes)}.items():
        windows = [source.take(lo, lo + _WINDOW_ROWS) for lo in range(0, rows, _WINDOW_ROWS)]
        assert np.array_equal(np.concatenate(windows, axis=-2), whole), name


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


def test_comparison_memory_does_not_grow_with_the_set_count():
    # at most 6 sets at once, and a window of 6,144 rows over them: 20 sets (groups of 6, 6, 6 and 2) peak about
    # where 5 do, one set's sources more
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(20)]
    peaks = []
    for sets in (5, 20):
        tracemalloc.start()
        try:
            dynamics_equivalence(params[:sets], 3.0 * TAU_STAR, 1e-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_skipped_window_fails_both_oracle_checks(mutate, tmp_path, capsys):
    # the last window left out: the rows compared still pass their gates, but a gap stands for every row of every
    # set, so both checks fail and say how many rows they compared
    mutate(report_module, "dynamics_equivalence", "for lo in range(0, n, share):", "for lo in range(0, n, share)[:-1]:")
    out = tmp_path / "report.json"
    code = main(["verify", "--dynamics-sets", "1", "--resolution", "3", "--scan-samples", "801", "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert [name for name, c in checks.items() if c["status"] == "fail"] == BOTH
    assert all(checks[name]["measured"] <= 1e-8 for name in BOTH)
    missed = "compared 36864 of 40812 state rows"  # 6 windows of 6,144 rows, the seventh's 3,948 left out
    assert checks[BOTH[0]]["note"] == f"1 random parameter sets on [0, 3*tau_star], dtau=0.0001; {missed}"
    assert checks[BOTH[1]]["note"] == missed


def test_comparison_windows_take_only_their_own_blocks(monkeypatch):
    # verify's 5 default sets at once: every window takes the same 1,216 rows (38 whole blocks, 6,144 // 5 rounded down
    # to blocks) of each set, the last window 21 blocks and the held rows, in one GEMM over exactly its own
    # block starts, written in place, in both sources.  No source reads the whole grid or checks it
    windows, take = [], dynamics._Rows.take

    def comparison_take(self, lo, hi, out=None):
        if out is None:
            return take(self, lo, hi)
        # only the comparison passes its window buffer; the block starts record what the window takes of them
        assert out.flags.c_contiguous
        asked, starts_take = [], self.starts.take
        windows.append((self, lo, min(hi, self.count), asked))
        self.starts.take = lambda a, z: asked.append((a, z)) or starts_take(a, z)
        try:
            return take(self, lo, hi, out)
        finally:
            self.starts.take = starts_take

    def forbidden(taus):
        assert len(taus) == 1, "a grid checked"  # only the lab frame's last row is a tau array
        return False

    def tail_only(tau_end, dtau, first=0):
        taus = _time_grid(tau_end, dtau, first)
        assert len(taus) <= 2
        return taus

    monkeypatch.setattr(dynamics._Rows, "take", comparison_take)
    monkeypatch.setattr(dynamics, "_on_grid", forbidden)
    monkeypatch.setattr(report_module, "_time_grid", tail_only)
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(5)]
    *_, rows = dynamics_equivalence(params, 3.0 * TAU_STAR, 1e-4)
    assert rows == 5 * 40812 and len(windows) == 2 * 34 and len({id(source) for source, *_ in windows}) == 2
    assert {hi - lo for _, lo, hi, _ in windows[:-2]} == {1216} and windows[-1][2] - windows[-1][1] == 21 * 32
    for source, lo, grid_hi, asked in windows:
        assert source.b == 32 and lo % 32 == grid_hi % 32 == 0
        assert asked == [(lo // 32, grid_hi // 32)]
    # each window takes the two mode tables' rows, then RK4's, all co-rotating: 8-column starts and 8-row tables,
    # one per set and oracle.  The block starts of RK4 are a plain power source; the mode tables' are cos and sin of
    # the rates at the starts' taus, made as a window takes them, with the bits of the grid's taus
    modes, reduced = (source for source, *_ in windows[:2])
    assert modes.starts.take(0, 1).shape[-1] == reduced.starts.take(0, 1).shape[-1] == 8
    assert modes.table.shape == (2, 5, 8, 32 * 8) and reduced.table.shape == (5, 8, 32 * 8)
    assert reduced.starts.table.shape == (5, 8, 32 * 8)
    assert not isinstance(modes.starts, dynamics._Rows)
    w = np.stack([np.stack([sector_table(p)[1], mode_table(p, split_halves(E1))[1]]) for p in params], axis=1)
    phase = w[..., None, :] * _time_grid(3.0 * TAU_STAR, 1e-4)[:-1:32, None]
    assert np.array_equal(modes.starts.take(0, 1276), np.concatenate([np.cos(phase), np.sin(phase)], axis=-1))


def test_windowed_comparison_holds_no_trajectory():
    # whole trajectories peaked at 49.1e6 bytes: three 163,243 x 8 trajectories of a set and their differences
    rng = np.random.default_rng(DEFAULT_SEED)
    params = [random_consistent_params(rng) for _ in range(2)]
    tracemalloc.start()
    try:
        *gaps, rows = dynamics_equivalence(params, 3.0 * TAU_STAR, 2.5e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(gaps) <= 1e-12 and rows == 2 * len(_time_grid(3.0 * TAU_STAR, 2.5e-5))
    assert peak <= 3e6
