import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from trispin import dynamics
from trispin.algebra import E1, ControlParams
from trispin.boundary import analytic_family, boundary_residuals, closed_form_params, column_deviations, consistent_scale
from trispin.boundary import derived_quantities, sweep_tau
from trispin.cli import main
from trispin.dynamics import CSV_HEADER, build_M, propagate_rk4
from trispin.hilbert import ROUTES
from trispin.report import column_gap
from trispin.search import COMPONENT_INDEX

PI = math.pi
OMEGA = math.sqrt(2.0 + PI**2 / 3.0)
CONTROL = asdict(closed_form_params(OMEGA))
METHODS = tuple(ROUTES)  # the --method choices


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_params(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(CONTROL))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


# --- usage errors: exit 2 ---------------------------------------------------------------------------------------------


class Refusal(NamedTuple):
    argv: str  # split on spaces; "{}" stands for the test's directory
    error: str  # the one error line, "..." standing for any text
    files: dict = {}  # what the directory holds before the run, {name: text, or a value written as JSON}


def refused(tmp_path, capsys, argv, error, files={}):
    """Run argv in tmp_path, which holds files, and hold it to the whole exit-2 contract: exit code 2, nothing on stdout,
    one error: line, error, with only argparse's usage before it, and no file written (argv without --out gets one)."""
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [arg.replace("{}", str(tmp_path)) for arg in argv.split()]
    try:
        code = main(argv if "--out" in argv else argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse's own refusals
        code = exc.code
    out, err = capsys.readouterr()
    *usage, line = err.splitlines() or [""]
    assert code == 2 and out == "" and err.endswith("\n") and (not usage or usage[0].startswith("usage: ")), err
    assert [row for row in err.splitlines() if "error:" in row] == [line]
    assert line.startswith("error: ") != bool(usage)  # argparse's line starts with the command's name
    pattern = ".*".join(map(re.escape, error.replace("{}", str(tmp_path)).split("...")))
    assert re.fullmatch(pattern, line[line.index("error: "):]), line
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


N0 = "1" + "0" * 400
K_COMMANDS = {"analytic": "analytic --m0 0 --n0 0", "verify": "verify", "scan": "scan --from 2 --to 3", "search": "search",
              "invert": "invert --omega-hat 2.7"}
SHELL = "has no energy shell: omega_hat^2 must exceed the energy floor 1 + k^2 and be finite"
BUDGET = "put the root bracket end 4*b0/|b_target| at {}, over 1000000 steps: it must be at most 1953.12"
PROPAGATE = "propagate --params-file {}/p.json"
STEP = "dtau must be finite and positive"
INVALID = "error: config file {}/c.json has invalid"


def params_file(**fields):
    """The files of a propagate refusal: p.json, CONTROL with fields changed."""
    return {"p.json": {**CONTROL, **fields}}


NOT_A_NUMBER = {"null": None, "list": [1.0], "object": {"v": 1.0}, "text": "abc", "bool": True}

# Every refusal of the command line, each under the name of its test: a Refusal, a list of them checked in turn, or
# {case id: Refusal}
REFUSALS = {
    "test_analytic_label_without_a_finite_time_is_usage_error": Refusal(
        f"analytic --m0 0 --n0 {N0}", f"error: label (m0, n0) = (0, {N0}) has no finite transfer time"),
    # inverted controls solve only the d = 0 branch; for x6 they would realize the x8 constants
    "test_analytic_x6_realization_is_usage_error": Refusal(
        "analytic --m0 0 --n0 0 --target x6 --omega-hat 2.5", "error: --omega-hat realizes only target x8, not x6"),
    # label (0, 0) has b = -pi, and the inversion needs 2*b0*tau* > pi with b0 = sqrt(omega_hat^2 - 2): omega_hat above
    # sqrt(10/3) = 1.8257419 (test_analytic_with_realization)
    "test_analytic_below_the_inversion_floor_is_usage_error": Refusal(
        "analytic --m0 0 --n0 0 --omega-hat 1.5", "error: no inverted control realizes label (m0, n0) = (0, 0) at omega_hat=1.5"),
    "test_analytic_rejects_bad_ordering": Refusal(
        "analytic --m0 1 --n0 0", "error: index ordering violated: need n0 >= m0 >= 0, got m0=1, n0=0"),
    # an input file that cannot be opened is an OSError, reported like an unwritable --out
    "test_propagate_missing_params_file": Refusal(
        "propagate --params-file {}/nope.json", "error: [Errno 2] No such file or directory: '{}/nope.json'"),
    "test_missing_input_file_is_reported_by_the_os_error": {flag: Refusal(
        f"propagate {flag} {{}}/nope.json", "error: [Errno 2] No such file or directory: '{}/nope.json'")
        for flag in ("--config", "--params-file")},
    "test_unwritable_out_is_usage_error": Refusal(
        "sweep --max 1 --out {}/missing/r.json", "error: [Errno 2] No such file or directory: '{}/missing/r.json'"),
    "test_parameter_file_must_hold_object": Refusal(
        PROPAGATE, "error: parameter file {}/p.json must hold a JSON object", {"p.json": "[1, 2]"}),
    "test_parameter_file_field_must_be_a_number": {case: Refusal(
        PROPAGATE, f"error: parameter file {{}}/p.json has invalid bz {value!r}", params_file(bz=value))
        for case, value in NOT_A_NUMBER.items()},
    # "nan" and "inf" are JSON strings that float() reads; ControlParams.from_dict refuses them too
    "test_propagate_rejects_non_finite_params": Refusal(
        PROPAGATE, "error: parameter file {}/p.json has non-finite omega_hat", params_file(omega_hat=math.nan)),
    "test_propagate_rejects_non_finite_text_params": Refusal(
        PROPAGATE, "error: parameter file {}/p.json has non-finite omega_hat", params_file(omega_hat="nan", theta0="-inf")),
    # energy_shell's rule holds for a parameter file too
    "test_propagate_refuses_a_scale_that_is_not_positive": {str(w): Refusal(
        PROPAGATE, f"error: parameter file {{}}/p.json has omega_hat must be positive, got {w:g}", params_file(omega_hat=w))
        for w in (-2.0, 0.0)},
    # every field is finite, but b0 = 1e308 overflows inside each propagator
    "test_propagate_refuses_a_trajectory_that_is_not_finite": {m: Refusal(
        f"{PROPAGATE} --method {m} --tau-end 1 --dtau 0.1",
        f"error: parameter file {{}}/p.json gives a trajectory that is not finite (method {m})", params_file(b0=1e308))
        for m in METHODS},
    # json reads these as floats, whose text ("nan", "inf") the flag's own type refuses
    "test_config_rejects_non_finite_number": {literal: Refusal(
        "search --omega-hat 2.5 --resolution 1 --config {}/c.json", f"{INVALID} threshold {json.loads(literal)!r}",
        {"c.json": f'{{"threshold": {literal}}}'}) for literal in ("NaN", "Infinity", "-Infinity", "1e999")},
    # the flag's type and choices apply to a config value too: no TypeError traceback later
    "test_config_value_checked_like_its_flag": {case: Refusal(
        f"{argv} --config {{}}/c.json", f"{INVALID} {key} {value!r}", {"c.json": {key: value}})
        for case, argv, key, value in (("int", "search --omega-hat 2.5", "resolution", 2.5),
                                       ("int_samples", "scan --from 2 --to 3", "samples", 10.5),
                                       ("choices", "search --omega-hat 2.5", "target", "x9"),
                                       ("list", "search --omega-hat 2.5", "resolution", [21]))},
    "test_config_rejects_unknown_key": Refusal(
        "analytic --config {}/c.json", "error: unknown config key 'banana' for command 'analytic'",
        {"c.json": {"m0": 0, "n0": 0, "banana": 3}}),
    # k = -1 only flips x5..x8, so no family command takes a coupling ratio, as a flag or a config key
    "test_config_key_k_is_unknown": {command: Refusal(
        f"{argv} --config {{}}/c.json", f"error: unknown config key 'k' for command {command!r}", {"c.json": {"k": 1}})
        for command, argv in K_COMMANDS.items()},
    "test_k_flag_is_unknown": {command: Refusal(f"{argv} --k -1", "error: unrecognized arguments: --k -1")
                               for command, argv in K_COMMANDS.items()},
    # invert lists each control once, so there is no r label, and its root bracket (0, 4*b0/|b_target|] follows from
    # the inputs; flags, like config keys, are full names
    "test_invert_has_no_r_flag": Refusal("invert --omega-hat 2.7 --r 0", "error: unrecognized arguments: --r 0"),
    "test_invert_has_no_root_bracket_settings": [
        Refusal("invert --omega-hat 2.7 --root-hi 30", "error: unrecognized arguments: --root-hi 30"),
        Refusal("invert --omega-hat 2.7 --config {}/c.json", "error: unknown config key 'root_lo' for command 'invert'",
                {"c.json": {"root_lo": 0.5}})],
    "test_flag_prefix_is_not_an_abbreviation": {
        "prefix_of_one_flag": Refusal("search --thr 0.5", "error: unrecognized arguments: --thr 0.5"),
        "prefix_of_two_flags": Refusal("search --t 0.5", "error: unrecognized arguments: --t 0.5")},
    "test_invert_tiny_target_is_usage_error": Refusal(
        "invert --omega-hat 3 --b-target=-1e-3", "error: omega_hat=3 and b_target=-0.001 " + BUDGET.format(10583)),
    # above omega_hat = 1533.98 the bracket end 4*b0/pi at b = -pi passes the 10^6 steps of 2^-9: the error names the
    # omega_hat that grew it, not only the b_target the user left at its default
    "test_inversion_step_budget_names_omega_hat": {command: Refusal(
        argv, "error: omega_hat=1600 and b_target=-3.14159 " + BUDGET.format(2037.18))
        for command, argv in (("verify", "verify --omega-hat 1600 --dynamics-sets 0 --resolution 3"),
                              ("analytic", "analytic --m0 0 --n0 0 --omega-hat 1600"), ("invert", "invert --omega-hat 1600"))},
    # --from and --to are required, but a config file may supply them (test_config_file_merging)
    "test_scan_range_from_config": Refusal(
        "scan --samples 100 --config {}/c.json", "error: --from and --to are required", {"c.json": {"range_from": 2}}),
    "test_required_flag_is_usage_error": {
        "labels": Refusal("analytic --m0 0", "error: --m0 and --n0 are required"),
        "params_file": Refusal("propagate", "error: --params-file is required"),
        "positive_tau_end": Refusal(f"{PROPAGATE} --tau-end 0", "error: --tau-end must be positive", params_file()),
        "omega_hat": Refusal("invert", "error: --omega-hat is required")},
    # the rows grow as max^2 / 2: above 1000 the sweep is refused before any row is built
    "test_sweep_table": Refusal("sweep --max 1001", "error: the sweep bound must be at most 1000, got 1001"),
    # a threshold of 0 would be met by e1 itself and report a crossing at tau = 0
    "test_search_threshold_not_positive_is_usage_error": {t: Refusal(
        f"search --omega-hat 2.5 --resolution 3 --threshold {t}", f"error: threshold must be positive, got {float(t)}")
        for t in ("0", "-1")},
    # a bad step, a step count that is not finite, and a time grid too large to allocate
    "test_bad_step_or_time_is_usage_error": {
        **{f"argv{n}": Refusal(f"search --omega-hat 2.5 --resolution 1 --dtau {dtau}", f"error: {STEP}, got {dtau}")
           for n, dtau in enumerate(("0", "-0.1"))},
        "argv2": Refusal("invert --omega-hat 2.5 --tau-star -1", "error: tau_star must be positive, got -1"),
        "argv3": Refusal("search --omega-hat 2.5 --resolution 1 --dtau 1e-320",
                         "error: tau_end / dtau must be finite, got 4.08105 / 9.99989e-321"),
        "argv4": Refusal(f"{PROPAGATE} --tau-end 1 --dtau 1e-320", "error: tau_end / dtau must be finite, got 1 / 9.99989e-321",
                         params_file()),
        "argv5": Refusal(f"{PROPAGATE} --tau-end 1e6 --dtau 1e-9", "error: --tau-end 1e+06 and --dtau 1e-09 make "
                         "1e+15 rows, whose taus and states need 7.2e+16 bytes, more than the ... bytes of physical memory by "
                         "7.2e+16 bytes",
                         params_file())},
    # argparse refuses the value before any command runs
    "test_non_finite_number_is_usage_error": {
        "argv0": Refusal("search --omega-hat 2.5 --resolution 1 --threshold nan",
                         "error: argument --threshold: not a finite number: 'nan'"),
        "argv1": Refusal("search --omega-hat inf --resolution 1", "error: argument --omega-hat: not a finite number: 'inf'"),
        "argv2": Refusal("scan --from nan --to 4 --samples 10", "error: argument --from: not a finite number: 'nan'")},
    "test_verify_refuses_low_energy": Refusal("verify --omega-hat 1.2", f"error: omega_hat=1.2 {SHELL}"),
    "test_verify_negative_dynamics_sets_is_usage_error": Refusal(
        "verify --dynamics-sets -2", "error: n_dynamics must be nonnegative, got -2"),
    # numpy's own message named neither the flag nor the value
    "test_verify_negative_seed_is_usage_error": Refusal("verify --seed -1", "error: seed must be nonnegative, got -1"),
    # no dynamics set uses the step, but a bad one is still a usage error, before any check
    "test_verify_checks_its_step_with_no_dynamics_sets": {dtau: Refusal(
        f"verify --dynamics-sets 0 --dtau {dtau}", f"error: {STEP}, got {dtau}") for dtau in ("0", "-1")},
    # omega_hat is finite, but omega_hat^2 is not: Python's float ** raised OverflowError here
    "test_energy_shell_out_of_float_range_is_usage_error": {command: Refusal(
        f"{command} {labels}--omega-hat {w}", f"error: omega_hat={float(w):g} {SHELL}")
        for command, labels, w in (("verify", "", "1e155"), ("search", "", "1e200"), ("invert", "", "1e200"),
                                   ("analytic", "--m0 0 --n0 0 ", "1e200"))},
    # a negative scale has the shell of its size, but it reverses search's box and the report's omega_hat
    "test_negative_omega_hat_is_usage_error": {command: Refusal(
        f"{command} {labels}--omega-hat {w}", f"error: omega_hat must be positive, got {w}")
        for command, labels, w in (("search", "--threshold 0.95 ", "-2.7"), ("verify", "", "-2.3"), ("invert", "", "-2.7"),
                                   ("analytic", "--m0 0 --n0 0 ", "-2.7"))},
}


def _test_of(rows):
    """The test of a REFUSALS entry: a Refusal, a list of them checked in turn, or {case id: Refusal} as its cases."""
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", rows.values(), ids=rows)
        def test(tmp_path, capsys, row):
            refused(tmp_path, capsys, *row)
    else:
        def test(tmp_path, capsys):
            for n, row in enumerate([rows] if isinstance(rows, Refusal) else rows):
                (tmp_path / str(n)).mkdir()
                refused(tmp_path / str(n), capsys, *row)
    return test


globals().update({name: _test_of(rows) for name, rows in REFUSALS.items()})


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "trispin.cli", "propagate", "--method", "warp"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_analytic_with_realization(capsys):
    # just above the inversion floor sqrt(10/3) the control has a tiny rate and meets b and d
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--omega-hat", repr(math.sqrt(10.0 / 3.0) + 1e-9))
    rec = json.loads(out)
    assert code == 0 and rec["params"] is not None and 0.0 < rec["params"]["omega_rf"] < 2e-4
    assert rec["residuals"]["b_eq"] <= 1e-10 and rec["residuals"]["d_eq"] <= 1e-10


@pytest.mark.parametrize("zeros, code", [(150, 0), (200, 2)])
def test_analytic_label_whose_constants_square_past_the_float_range(tmp_path, capsys, zeros, code):
    # at 200 zeros b*b overflowed in derived_quantities: an OverflowError traceback and exit 1
    n0 = "1" + "0" * zeros
    if code == 2:
        refused(tmp_path, capsys, f"analytic --m0 0 --n0 {n0}",
                f"error: label (m0, n0) = (0, {n0}) has constants whose squares are not finite floats")
    else:
        got, out, err = _run(capsys, "analytic", "--m0", "0", "--n0", n0)
        assert got == 0 and json.loads(out)["n0"] == int(n0) and err == ""


@pytest.mark.parametrize("n0", [0, 10**150])
def test_analytic_boundary_residuals_are_column_deviations(capsys, n0):
    # residuals.boundary is r / D of r = D (col - target): at (0, 10**150) r itself reads up to 4.8e285
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", str(n0))
    boundary, c = json.loads(out)["residuals"]["boundary"], analytic_family(0, n0)
    assert code == 0 and boundary == column_deviations(c).tolist() and max(abs(v) for v in boundary) <= 1e-15
    assert (max(abs(v) for v in boundary_residuals(c)) > 1e280) == (n0 > 0)


@pytest.mark.parametrize("target", ["x8", "x6"])
@pytest.mark.parametrize("n0, resolved", [(83442, True), (83443, False), (10**150, False)])
def test_analytic_columns_are_measured_or_skipped(capsys, n0, resolved, target):
    # the columns are cos and sin of A_pm's rotation angles, each a float only to its spacing: from the angle 2**19 on
    # that spacing is 2**-33 = 1.2e-10, over the columns' 1e-10, and the gap would be the spacing's, not the constants'.
    # Label (0, 83442) has a largest angle of 524286.26 (spacing 5.8e-11), (0, 83443) 524292.54 (1.2e-10), and
    # (0, 10**150) 6.3e150, where the columns read 1.0 beside column deviations of 2.1e-16
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", str(n0), "--target", target)
    rec, c = json.loads(out), analytic_family(0, n0, target)
    angle = max(half[2] for half in derived_quantities(c))
    assert code == 0 and (angle < 2.0**19) == resolved and (math.ulp(angle) <= 1e-10) == resolved
    if resolved:
        assert rec["residuals"]["columns"] == column_gap(c, target) <= 1e-10 and "note" not in rec
    else:
        assert rec["residuals"]["columns"] is None and column_gap(c, target) > 0.0
        assert rec["note"] == (f"residuals.columns skipped: the rotation angle {angle:.6g} of A_pm is a float only to "
                               f"{math.ulp(angle):.3g}, above the columns' tolerance 1e-10")


@pytest.mark.parametrize("target", ["x8", "x6"])
@pytest.mark.parametrize("m0, n0", [(0, 0), (1, 2), (3, 7)])
def test_analytic_record_measures_its_own_constants(capsys, m0, n0, target):
    # residuals.boundary are the x8 system's; residuals.columns checks the listed constants of the target
    code, out, _ = _run(capsys, "analytic", "--m0", str(m0), "--n0", str(n0), "--target", target)
    columns = json.loads(out)["residuals"]["columns"]
    assert code == 0 and columns == column_gap(analytic_family(m0, n0, target), target) <= 1e-10


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0, "n0": 1}))
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg))
    assert code == 0 and abs(json.loads(out)["tau_star"] - 0.25 * PI * math.sqrt(7.0)) < 1e-12
    # flags override the config file
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg), "--n0", "0")
    assert code == 0 and abs(json.loads(out)["tau_star"] - 0.25 * math.sqrt(3.0) * PI) < 1e-12
    # a key names the flag's destination: --from and --to of scan are range_from and range_to
    cfg.write_text(json.dumps({"range_from": 2, "range_to": 3}))
    code, _, _ = _run(capsys, "scan", "--samples", "100", "--config", str(cfg), "--out", str(tmp_path / "scan.json"))
    found = json.loads((tmp_path / "scan.json").read_text())["consistent"]
    assert code == 0 and [round(cp["omega_hat"], 6) for cp in found] == [2.299971]


def test_config_hyphenated_key_sets_flag(tmp_path, capsys):
    # "tau-star" names the flag --tau-star like "tau_star" does
    cfg, out = tmp_path / "cfg.json", tmp_path / "invert.json"
    cfg.write_text(json.dumps({"tau-star": 1.5}))
    assert _run(capsys, "invert", "--omega-hat", str(OMEGA), "--config", str(cfg), "--out", str(out))[0] == 0
    # d = 0 fixes theta0 = [(2r+1)*pi - omega_rf*tau_star]/2 at the configured tau_star
    sols = json.loads(out.read_text())
    assert sols and all(abs(s["params"]["theta0"] - 0.5 * ((2 * s["branch"]["r"] + 1) * PI - s["params"]["omega_rf"] * 1.5))
                        <= 1e-12 for s in sols)


def test_config_null_leaves_flag_default(tmp_path, capsys, monkeypatch):
    # null is no flag text: the entry is skipped, so --out stays unset and the table goes to stdout, in full digits
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": None, "max": None}))
    code, out, _ = _run(capsys, "sweep", "--config", "cfg.json")
    header, *rows = out.splitlines()
    assert code == 0 and header == "m0,n0,tau_star"
    assert [tuple(map(float, row.split(","))) for row in rows] == [tuple(r.values()) for r in sweep_tau(3)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_scan_finds_consistent_scale(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, _, _ = _run(capsys, "scan", "--from", "2.0", "--to", "4.0", "--samples", "4001", "--out", str(out))
    payload = json.loads(out.read_text())
    assert code == 0 and len(payload["curve"]) == 4001
    assert [c["omega_hat"] for c in payload["consistent"]] == [OMEGA]


def test_search_off_the_energy_shell_writes_null_achieved(tmp_path, capsys, strict_json):
    # at resolution 2 no bz grid value lies on the energy shell, so the target has no peak: null, not -Infinity
    out = tmp_path / "search.json"
    assert _run(capsys, "search", "--resolution", "2", "--out", str(out))[0] == 0
    payload = strict_json(out)
    assert payload["achieved"] is None and payload["achieved_tau"] is None and payload["achieved_params"] is None
    assert payload["feasible"] is False


# (search's flags, the control and time it reports, target): the default grid's x8 peak, 0.982243, and the x8 and x6
# crossings of 0.95 at omega_hat 2.7, whose theta0 search reads off the x6 and x8 columns (seen: 3.3e-13, 5.6e-12 off)
REPORTED = {
    "default_peak": ((), "achieved", "x8"),
    "x8_crossing": (("--omega-hat", "2.7", "--threshold", "0.95"), "best", "x8"),
    "x6_crossing": (("--target", "x6", "--omega-hat", "2.7", "--threshold", "0.95"), "best", "x6"),
}


@pytest.mark.parametrize("argv, reported, target", REPORTED.values(), ids=REPORTED)
def test_reported_control_reaches_its_value_under_rk4(tmp_path, capsys, strict_json, argv, reported, target):
    # the control read back from search's JSON, propagated as propagate --method rk4 does at its default dtau 1e-3
    out = tmp_path / "search.json"
    assert _run(capsys, "search", *argv, "--out", str(out))[0] == 0
    payload = strict_json(out)
    tau, value = payload[f"{reported}_tau"], payload["achieved"] if reported == "achieved" else 0.95
    traj = propagate_rk4(ControlParams.from_dict(payload[f"{reported}_params"]), E1, tau, 1e-3)
    assert abs(traj.taus[-1] - tau) <= 1e-15 and abs(traj.states[-1, COMPONENT_INDEX[target]] - value) <= 1e-8
    assert reported == "best" or round(value, 6) == 0.982243


# the commands whose JSON no other test reads: strict JSON, as RFC 8259 has no NaN or Infinity
@pytest.mark.parametrize("argv", [
    ("invert", "--omega-hat", "2.7"), ("invert", "--omega-hat", "20"),
    ("analytic", "--m0", "0", "--n0", "0", "--omega-hat", "2.7"), ("analytic", "--m0", "1", "--n0", "2", "--target", "x6"),
    ("scan", "--from", "1.5", "--to", "6"), ("scan", "--from", "1.5", "--to", "6.0", "--samples", "6145"),
    ("sweep", "--max", "3"),
], ids=["invert", "invert_20", "analytic", "analytic_x6", "scan", "scan_6145", "sweep"])
def test_json_artifacts_are_strict_json(tmp_path, capsys, strict_json, argv):
    out = tmp_path / "out.json"
    assert _run(capsys, *argv, "--out", str(out))[0] == 0
    assert strict_json(out)


def test_search_auto_records_its_scale(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert _run(capsys, "search", "--omega-hat", "auto", "--resolution", "1", "--out", str(out))[0] == 0
    assert json.loads(out.read_text())["grid_spec"]["omega_hat"] == consistent_scale(0)[0]


def test_mirrored_landscape_holds_the_reported_crossing(tmp_path, capsys):
    # for x5 and x7 the landscape lists the whole box: here best_tau lies at (-1.5, -0.0), the mirror
    # of an evaluated pair, and it is the earliest crossing in the CSV
    out, land = tmp_path / "search.json", tmp_path / "landscape.csv"
    assert _run(capsys, "search", "--target", "x5", "--omega-hat", "3", "--threshold", "0.5", "--resolution", "5",
                "--landscape", str(land), "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    rows = np.genfromtxt(land, delimiter=",", names=True)
    assert (payload["best_params"]["bz"], payload["best_params"]["omega_rf"]) == (-1.5, 0.0)
    assert payload["best_tau"] == np.nanmin(rows["tau_to_threshold"])
    # every on-shell node once: bz = +-3 lie off the shell
    nodes = sorted((bz, omega_rf) for bz in (-1.5, 0.0, 1.5) for omega_rf in (-8.0, -4.0, 0.0, 4.0, 8.0))
    assert sorted(zip(rows["bz"], rows["omega_rf"])) == nodes


def test_invert_contains_reference_rate(tmp_path, capsys):
    out = tmp_path / "invert.json"
    assert _run(capsys, "invert", "--omega-hat", str(OMEGA), "--b-target", str(-PI), "--out", str(out))[0] == 0
    assert any(abs(s["params"]["omega_rf"] - 4.0 / math.sqrt(3.0)) < 1e-9 for s in json.loads(out.read_text()))


def test_importing_the_cli_loads_no_scipy():
    # scipy.optimize is imported where brentq and minimize are called, so start-up does not pay for it
    code = "import sys, trispin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_another_modules_private_name():
    # a name that another module needs is public (time_grid, WINDOW_ROWS, ROUTES, ...); tests may still read _ names
    imports = [f"{path.name}:{node.lineno} {alias.name}" for path in sorted(Path(dynamics.__file__).parent.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert imports == []


def _verify(tmp_path, capsys, *flags):
    """(exit code, stdout, {name: check}) of verify at flags."""
    out = tmp_path / "report.json"
    code, stdout, _ = _run(capsys, "verify", *flags, "--out", str(out))
    return code, stdout, {c["name"]: c for c in json.loads(out.read_text())["checks"]}


def test_verify_quick_run(tmp_path, capsys):
    # the report always carries the measured transfer value and the ansatz gap
    code, stdout, checks = _verify(tmp_path, capsys, "--omega-hat", "auto", "--dynamics-sets", "1", "--resolution", "5",
                                   "--scan-samples", "801")
    assert code == 0 and {"transfer_x8_at_tau_star", "propagator_discrepancy"} <= set(checks)
    assert "overall: PASS" in stdout


def test_verify_failed_check_exits_1_and_writes_report(tmp_path, capsys, strict_json):
    # RK4's truncation at dtau 0.5 puts both oracle gaps near 0.35, far over their 1e-8 gate
    out = tmp_path / "r.json"
    code, stdout, err = _run(capsys, "verify", "--dtau", "0.5", "--dynamics-sets", "1", "--resolution", "3",
                             "--scan-samples", "801", "--out", str(out))
    assert code == 1 and err == ""
    payload = strict_json(out)
    assert payload["passed"] is False
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failed == ["cross_validate_full_vs_rk4", "rotating_exact_vs_rk4"]
    assert stdout.endswith(f"overall: FAIL\nreport written to {out}\n")


def test_verify_without_on_shell_grid_point_skips_searches(tmp_path, capsys):
    # at resolution 2 the bz axis is (-omega_hat, omega_hat), both off the energy shell
    code, stdout, checks = _verify(tmp_path, capsys, "--dynamics-sets", "1", "--dtau", "1e-3", "--resolution", "2",
                                   "--scan-samples", "801")
    assert code == 0 and checks["ansatz_grid_search_x8"]["status"] == checks["no_transfer_probe_x7"]["status"] == "skipped"
    assert "SKIPPED  ansatz_grid_search_x8" in stdout and "overall: PASS" in stdout


def test_verify_auto_is_closed_form_scale_whatever_scan_samples(tmp_path, capsys):
    # "auto" is consistent_scale(0), so the scan's sample count cannot move it
    for samples in ("1", "801"):
        out = tmp_path / f"report{samples}.json"
        assert _run(capsys, "verify", "--dynamics-sets", "0", "--scan-samples", samples, "--out", str(out))[0] == 0
        assert json.loads(out.read_text())["context"]["omega_hat"] == OMEGA


def test_propagate_expm_integral_reports_discrepancy(tmp_path, capsys):
    out = tmp_path / "ansatz.csv"
    code, stdout, _ = _run(capsys, "propagate", "--params-file", _write_params(tmp_path), "--method", "expm-integral",
                           "--dtau", "1e-2", "--tau-end", "1.5", "--out", str(out))
    assert code == 0 and "propagator discrepancy" in stdout and out.exists()


@pytest.mark.parametrize("method", METHODS)
def test_propagate_refuses_a_trajectory_over_physical_memory(tmp_path, capsys, monkeypatch, traced, method):
    # the machine read as 64 MiB: 932,068 rows need 72 bytes each of taus and states, 32 bytes too many, which the
    # error's 3-digit counts do not show but its excess does.  They are refused before the grid is made, whose taus
    # alone take 7.5 MB, with one error line and no file
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**14}.__getitem__)
    assert traced(lambda: refused(
        tmp_path, capsys, f"{PROPAGATE} --method {method} --dtau 1e-5 --tau-end 9.32067", "error: --tau-end 9.32067 and "
        "--dtau 1e-05 make 9.32e+05 rows, whose taus and states need 6.71e+07 bytes, more than the 6.71e+07 bytes of "
        "physical memory by 32 bytes", params_file()))[1] <= 1e6


@pytest.mark.parametrize("method", METHODS)
def test_propagate_memory_grows_by_the_guards_bytes_a_row(tmp_path, capsys, monkeypatch, traced, method):
    # the guard above counts the taus and states, 72 bytes a row; everything else is made a window of rows at a time
    # (the CSV and its norms, the lab-frame turn, expm-integral and its discrepancy), so from 4 to 8 whole windows the
    # peak grows by at most 80 bytes a row (seen: 64-73; whole-grid temporaries took 117-160, and 2,184 for expm-integral).
    # Windows of 128 rows keep the rows cheap to write under tracemalloc; with the collector off, no run frees an
    # earlier run's parsers, and a first run, untraced, takes the set-up
    monkeypatch.setattr(dynamics, "WINDOW_ROWS", 128)
    argv = ("propagate", "--params-file", _write_params(tmp_path), "--method", method, "--out", str(tmp_path / "x.csv"))

    def peak(rows):  # the traced peak of a run over rows rows
        code, traced_bytes = traced(lambda: _run(capsys, *argv, "--dtau", "1e-3", "--tau-end", str((rows - 1) / 1000))[0])
        assert code == 0
        return traced_bytes

    gc.disable()
    try:
        assert _run(capsys, *argv, "--tau-end", "0.01")[0] == 0
        small = peak(4 * 128 + 2)
        growth = peak(8 * 128 + 2) - small
    finally:
        gc.enable()
    assert growth <= 80 * 4 * 128, growth / (4 * 128)


def test_propagate_fits_a_trajectory_to_the_last_row(tmp_path, capsys, monkeypatch):
    # the machine read as 256 KiB: 3,640 rows of 72 bytes fit, 3,641 do not
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 64}.__getitem__)
    pf, out = _write_params(tmp_path), tmp_path / "x.csv"
    for tau_end, code in (("3.639", 0), ("3.64", 2)):
        assert _run(capsys, "propagate", "--params-file", pf, "--dtau", "1e-3", "--tau-end", tau_end, "--out", str(out))[0] == code
    assert len(_read_csv(out)) == 3640


# (grid flags, rows): 1, 2, 3, 33 and 34 rows, a step longer than the run (one shortened step), and three grids refused
# with exit 2, a step count that is not finite and two too large to allocate: 1e303 rows, and 1e308, whose bytes pass
# the float range
PROPAGATE_GRIDS = {
    "1_row": (("--tau-end", "1e-300"), 1),
    "2_rows": (("--tau-end", "1e-3"), 2),
    "3_rows": (("--tau-end", "2e-3"), 3),
    "33_rows": (("--tau-end", "0.032"), 33),
    "34_rows": (("--tau-end", "0.033"), 34),
    "step_past_the_end": (("--tau-end", "1", "--dtau", "10"), 2),
    "subnormal_step": (("--dtau", "5e-324"), "error: tau_end / dtau must be finite, got 4.08105 / 4.94066e-324"),
    "huge_run": (("--tau-end", "1e300"), "error: --tau-end 1e+300 and --dtau 0.001 make 1e+303 rows, whose taus and states "
                 "need 7.2e+304 bytes, more than the ... bytes of physical memory by 7.2e+304 bytes"),
    "float_range_run": (("--tau-end", "1e308", "--dtau", "1"), "error: --tau-end 1e+308 and --dtau 1 make 1e+308 rows, whose "
                        "taus and states need inf bytes, more than the ... bytes of physical memory by inf bytes"),
}


@pytest.mark.parametrize("grid, rows", PROPAGATE_GRIDS.values(), ids=PROPAGATE_GRIDS.keys())
def test_propagate_edge_grids_exit_cleanly(tmp_path, capsys, grid, rows):
    # every method exits 0, or 2 by the exit-2 contract: a traceback would raise here.  Where they run, the three
    # routes agree: RK4 to 1e-8 and the two exact ones to 1e-13; over one step of length 1 RK4's truncation is of
    # order 1, so there it must equal one classic RK4 step of the lab-frame build_M
    if isinstance(rows, str):
        for method in METHODS:
            (tmp_path / method).mkdir()
            refused(tmp_path / method, capsys, f"propagate --params-file {{}}/p.json --method {method} {' '.join(grid)}",
                    rows, params_file())
        return
    pf, states = _write_params(tmp_path), {}
    for method in METHODS:
        out = tmp_path / f"{method}.csv"
        code, stdout, err = _run(capsys, "propagate", "--params-file", pf, "--method", method, *grid, "--out", str(out))
        assert code == 0 and err == "" and stdout.endswith(f"wrote {rows} samples (method={method}) to {out}\n")
        states[method] = _read_csv(out)
    rk4, exact, full = (states[m] for m in ("rk4", "rotating-exact", "full-hilbert"))
    assert all(np.array_equal(s[:, 0], rk4[:, 0]) for s in states.values()) and len(rk4) == rows
    assert np.max(np.abs(exact[:, 1:9] - full[:, 1:9])) <= 1e-13
    if rk4[-1, 0] <= 0.1:
        assert max(np.max(np.abs(rk4[:, 1:9] - s[:, 1:9])) for s in (exact, full)) <= 1e-8
    else:
        p, h, x = closed_form_params(OMEGA), rk4[-1, 0], rk4[0, 1:9]
        m_left, m_mid, m_right = (build_M(p, f * h) for f in (0.0, 0.5, 1.0))
        k2 = m_mid @ (x + (h / 2.0) * (m_left @ x))
        k3 = m_mid @ (x + (h / 2.0) * k2)
        step = x + (h / 6.0) * (m_left @ x + 2.0 * k2 + 2.0 * k3 + m_right @ (x + h * k3))
        assert np.max(np.abs(rk4[-1, 1:9] - step)) <= 1e-13
