import json
import math
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from trispin.boundary import analytic_family, boundary_residuals, closed_form_params, column_deviations, consistent_scale
from trispin.boundary import derived_quantities
from trispin.cli import main
from trispin.dynamics import CSV_HEADER, build_M
from trispin.report import column_gap
from trispin.search import grid_search

PI = math.pi
TAU_STAR = 0.25 * math.sqrt(3.0) * PI
OMEGA = math.sqrt(2.0 + PI**2 / 3.0)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_params(tmp_path, params=None):
    params = params if params is not None else closed_form_params(OMEGA)
    path = tmp_path / "params.json"
    path.write_text(json.dumps(asdict(params)))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_analytic_record(capsys):
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["tau_star"] - 1.360349523175663) < 1e-12
    assert max(abs(v) for v in rec["residuals"]["boundary"]) <= 1e-10


def test_analytic_next_branch(capsys):
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "1")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["tau_star"] - 0.25 * PI * math.sqrt(7.0)) < 1e-12


def test_analytic_with_realization(capsys):
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--omega-hat", str(OMEGA))
    rec = json.loads(out)
    assert code == 0
    assert rec["params"] is not None
    assert rec["residuals"]["b_eq"] <= 1e-9


def test_analytic_record_schema(capsys):
    # the record is built in cmd_analytic: the label, tau*, the constants, p, and at --omega-hat the first
    # inverted control with the residuals of the constants it generates
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--omega-hat", str(OMEGA))
    rec = json.loads(out)
    assert code == 0
    assert list(rec) == ["m0", "n0", "target", "tau_star", "a", "b", "c_plus", "c_minus", "d", "p", "params",
                         "residuals", "energy_residual"]
    # the family has no k label (k = -1 is a sign flip) and one half-integer label p
    assert rec["p"] == 1 and rec["tau_star"] == rec["a"] / 2
    assert rec["params"]["branch"] == {"omega_sign": 1, "theta_sign": -1, "r": 0}
    assert list(rec["residuals"]) == ["boundary", "columns", "b_eq", "d_eq"]
    assert len(rec["residuals"]["boundary"]) == 8
    assert rec["residuals"]["columns"] <= 1e-10
    assert rec["residuals"]["b_eq"] <= 1e-9
    assert rec["residuals"]["d_eq"] <= 1e-9
    assert abs(rec["energy_residual"]) <= 1e-12


def test_analytic_label_without_a_finite_time_is_usage_error(capsys):
    # (4*m0 + 1)*(4*n0 + 3) does not fit a float: math.sqrt raised OverflowError, a traceback and exit 1
    n0 = "1" + "0" * 400
    code, out, err = _run(capsys, "analytic", "--m0", "0", "--n0", n0)
    assert code == 2 and out == ""
    assert err == f"error: label (m0, n0) = (0, {n0}) has no finite transfer time\n"


@pytest.mark.parametrize("zeros, code", [(150, 0), (200, 2)])
def test_analytic_label_whose_constants_square_past_the_float_range(capsys, zeros, code):
    # at 200 zeros b*b overflowed in derived_quantities: an OverflowError traceback and exit 1
    n0 = "1" + "0" * zeros
    got, out, err = _run(capsys, "analytic", "--m0", "0", "--n0", n0)
    assert got == code
    if code == 0:
        assert json.loads(out)["n0"] == int(n0) and err == ""
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: label (m0, n0) = (0, {n0}) has constants whose squares")


@pytest.mark.parametrize("n0", [0, 10**150])
def test_analytic_boundary_residuals_are_column_deviations(capsys, n0):
    # residuals.boundary is r / D of r = D (col - target): at (0, 10**150) r itself reads up to 4.8e285
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", str(n0))
    assert code == 0
    boundary = json.loads(out)["residuals"]["boundary"]
    c = analytic_family(0, n0)
    assert boundary == column_deviations(c).tolist()
    assert max(abs(v) for v in boundary) <= 1e-15
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
    rec = json.loads(out)
    assert code == 0
    assert rec["residuals"]["columns"] == column_gap(analytic_family(m0, n0, target), target)
    assert rec["residuals"]["columns"] <= 1e-10


def test_analytic_x6_realization_is_usage_error(capsys):
    # inverted controls solve only the d = 0 branch; for x6 they would realize the x8 constants
    code, out, err = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--target", "x6", "--omega-hat", "2.5")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--target", "x6")
    rec = json.loads(out)
    assert code == 0 and rec["params"] is None
    assert (rec["b"], rec["d"]) == (0.0, -PI)
    assert max(abs(v) for v in rec["residuals"]["boundary"]) <= 1e-10


def test_analytic_below_the_inversion_floor_is_usage_error(capsys):
    # label (0, 0) has b = -pi, and the inversion needs 2*b0*tau* > pi with b0 = sqrt(omega_hat^2 - 2),
    # that is omega_hat > sqrt(10/3) = 1.8257419: below it no control is attached, so the request fails
    code, out, err = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--omega-hat", "1.5")
    assert code == 2 and out == ""
    assert err == "error: no inverted control realizes label (m0, n0) = (0, 0) at omega_hat=1.5\n"
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--omega-hat", repr(math.sqrt(10.0 / 3.0) + 1e-9))
    rec = json.loads(out)
    assert code == 0 and rec["params"] is not None
    assert 0.0 < rec["params"]["omega_rf"] < 2e-4
    assert rec["residuals"]["b_eq"] <= 1e-10 and rec["residuals"]["d_eq"] <= 1e-10


def test_analytic_rejects_bad_ordering(capsys):
    code, _, err = _run(capsys, "analytic", "--m0", "1", "--n0", "0")
    assert code == 2
    assert "ordering" in err


def test_propagate_methods_agree(tmp_path, capsys):
    pf = _write_params(tmp_path)
    out_rk4 = tmp_path / "rk4.csv"
    out_exact = tmp_path / "exact.csv"
    code, _, _ = _run(capsys, "propagate", "--params-file", pf, "--method", "rk4",
                      "--dtau", "1e-3", "--tau-end", "2.0", "--out", str(out_rk4))
    assert code == 0
    code, _, _ = _run(capsys, "propagate", "--params-file", pf, "--method", "rotating-exact",
                      "--dtau", "1e-3", "--tau-end", "2.0", "--out", str(out_exact))
    assert code == 0
    a, b = _read_csv(out_rk4), _read_csv(out_exact)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-8


def test_propagate_expm_integral_reports_discrepancy(tmp_path, capsys):
    pf = _write_params(tmp_path)
    out = tmp_path / "ansatz.csv"
    code, stdout, _ = _run(capsys, "propagate", "--params-file", pf, "--method", "expm-integral",
                           "--dtau", "1e-2", "--tau-end", "1.5", "--out", str(out))
    assert code == 0
    assert "propagator discrepancy" in stdout
    assert out.exists()


def test_propagate_full_hilbert(tmp_path, capsys):
    pf = _write_params(tmp_path)
    out = tmp_path / "full.csv"
    code, _, _ = _run(capsys, "propagate", "--params-file", pf, "--method", "full-hilbert",
                      "--dtau", "1e-3", "--tau-end", "0.5", "--out", str(out))
    assert code == 0
    rows = _read_csv(out)
    assert abs(rows[0, 1] - 1.0) < 1e-12
    assert np.max(np.abs(rows[:, 9] - 1.0)) < 1e-9


def test_propagate_missing_params_file(tmp_path, capsys):
    code, _, err = _run(capsys, "propagate", "--params-file", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "nope.json" in err


@pytest.mark.parametrize("flag", ["--config", "--params-file"])
def test_missing_input_file_is_reported_by_the_os_error(tmp_path, capsys, flag):
    # an input file that cannot be opened is an OSError, reported like an unwritable --out
    path = tmp_path / "nope.json"
    code, stdout, err = _run(capsys, "propagate", flag, str(path), "--out", str(tmp_path / "x.csv"))
    assert code == 2 and stdout == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not (tmp_path / "x.csv").exists()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0, "n0": 1}))
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg))
    assert code == 0
    assert abs(json.loads(out)["tau_star"] - 0.25 * PI * math.sqrt(7.0)) < 1e-12
    # flags override the config file
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg), "--n0", "0")
    assert code == 0
    assert abs(json.loads(out)["tau_star"] - TAU_STAR) < 1e-12


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_rejects_non_finite_number(tmp_path, capsys, literal):
    # json reads these as floats, whose text ("nan", "inf") the flag's own type refuses
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threshold": %s}' % literal)
    out = tmp_path / "search.json"
    code, stdout, err = _run(capsys, "search", "--omega-hat", "2.5", "--resolution", "1",
                             "--config", str(cfg), "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == f"error: config file {cfg} has invalid threshold {json.loads(literal)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("search", "--omega-hat", "2.5"), {"resolution": 2.5}),
        (("scan", "--from", "2", "--to", "3"), {"samples": 10.5}),
        (("search", "--omega-hat", "2.5"), {"target": "x9"}),
        (("search", "--omega-hat", "2.5"), {"resolution": [21]}),
    ],
    ids=["int", "int_samples", "choices", "list"],
)
def test_config_value_checked_like_its_flag(tmp_path, capsys, argv, entry):
    # the flag's type and choices apply to a config value too: no TypeError traceback later
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, stdout, err = _run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out.json"))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"invalid {next(iter(entry))}" in err


def test_config_hyphenated_key_sets_flag(tmp_path, capsys):
    # "tau-star" names the flag --tau-star like "tau_star" does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau-star": 1.5}))
    out = tmp_path / "invert.json"
    code, _, _ = _run(capsys, "invert", "--omega-hat", str(OMEGA), "--config", str(cfg), "--out", str(out))
    assert code == 0
    # d = 0 fixes theta0 = [(2r+1)*pi - omega_rf*tau_star]/2 at the configured tau_star
    sols = json.loads(out.read_text())
    assert sols
    for s in sols:
        p = s["params"]
        assert abs(p["theta0"] - 0.5 * ((2 * s["branch"]["r"] + 1) * PI - p["omega_rf"] * 1.5)) <= 1e-12


def test_invert_has_no_root_bracket_settings(tmp_path, capsys):
    # the bracket (0, 4*b0/|b_target|] follows from the inputs: --root-hi and root_lo are unknown
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--omega-hat", "2.7", "--root-hi", "30"])
    assert exc.value.code == 2 and "unrecognized arguments: --root-hi 30" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"root_lo": 0.5}))
    code, stdout, err = _run(capsys, "invert", "--omega-hat", "2.7", "--config", str(cfg))
    assert code == 2 and stdout == ""
    assert err == "error: unknown config key 'root_lo' for command 'invert'\n"


def test_invert_tiny_target_is_usage_error(tmp_path, capsys):
    out = tmp_path / "invert.json"
    code, stdout, err = _run(capsys, "invert", "--omega-hat", "3", "--b-target=-1e-3", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == ("error: omega_hat=3 and b_target=-0.001 put the root bracket end 4*b0/|b_target| at 10583, "
                   "over 1000000 steps: it must be at most 1953.12\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--omega-hat", "1600", "--dynamics-sets", "0", "--resolution", "3"),
        ("analytic", "--m0", "0", "--n0", "0", "--omega-hat", "1600"),
        ("invert", "--omega-hat", "1600"),
    ],
    ids=["verify", "analytic", "invert"],
)
def test_inversion_step_budget_names_omega_hat(tmp_path, capsys, argv):
    # at b = -pi the bracket end 4*b0/pi passes the 10^6 steps of 2^-9 above omega_hat = 1533.98: the error
    # names the omega_hat that grew it, not only the b_target the user left at its default
    out = tmp_path / "out.json"
    code, stdout, err = _run(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == ("error: omega_hat=1600 and b_target=-3.14159 put the root bracket end 4*b0/|b_target| at 2037.18, "
                   "over 1000000 steps: it must be at most 1953.12\n")


def test_scan_range_from_config(tmp_path, capsys):
    # --from and --to are required, but a config file may supply them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"range_from": 2, "range_to": 3}))
    out = tmp_path / "scan.json"
    code, _, _ = _run(capsys, "scan", "--samples", "100", "--config", str(cfg), "--out", str(out))
    assert code == 0
    found = json.loads(out.read_text())["consistent"]
    assert [round(cp["omega_hat"], 6) for cp in found] == [2.299971]
    code, stdout, err = _run(capsys, "scan", "--from", "2", "--samples", "100")
    assert code == 2 and stdout == ""
    assert err == "error: --from and --to are required\n"


def test_config_null_leaves_flag_default(tmp_path, capsys, monkeypatch):
    # null is no flag text: the entry is skipped, so --out stays unset and the table goes to stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": None, "max": None}))
    code, out, _ = _run(capsys, "sweep", "--config", "cfg.json")
    assert code == 0 and out.splitlines()[0] == "m0,n0,tau_star" and len(out.splitlines()) == 11
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_parameter_file_must_hold_object(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text("[1, 2]")
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and "must hold a JSON object" in err


@pytest.mark.parametrize(
    "value", [None, [1.0], {"v": 1.0}, "abc", True], ids=["null", "list", "object", "text", "bool"]
)
def test_parameter_file_field_must_be_a_number(tmp_path, capsys, value):
    params = asdict(closed_form_params(OMEGA))
    params["bz"] = value
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert str(pf) in err and "invalid bz" in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0, "n0": 0, "banana": 3}))
    code, _, err = _run(capsys, "analytic", "--config", str(cfg))
    assert code == 2
    assert "banana" in err


K_COMMANDS = {
    "analytic": ["analytic", "--m0", "0", "--n0", "0"],
    "verify": ["verify"],
    "scan": ["scan", "--from", "2", "--to", "3"],
    "search": ["search"],
    "invert": ["invert", "--omega-hat", "2.7"],
}


@pytest.mark.parametrize("command", list(K_COMMANDS))
def test_k_flag_is_unknown(capsys, command):
    # k = -1 only flips x5..x8, so no family command takes a coupling ratio
    with pytest.raises(SystemExit) as exc:
        main(K_COMMANDS[command] + ["--k", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --k -1" in errors[0]


@pytest.mark.parametrize("command", list(K_COMMANDS))
def test_config_key_k_is_unknown(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 1}))
    code, stdout, err = _run(capsys, *K_COMMANDS[command], "--config", str(cfg), "--out", str(tmp_path / "out.json"))
    assert code == 2 and stdout == ""
    assert err == f"error: unknown config key 'k' for command {command!r}\n"
    assert not (tmp_path / "out.json").exists()


def test_sweep_table(capsys):
    code, out, _ = _run(capsys, "sweep", "--max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m0,n0,tau_star"
    # the 10 branch labels with n0 >= m0 of the 4 x 4 grid
    assert len(lines) == 11
    assert all(int(m0) <= int(n0) for m0, n0, _ in (line.split(",") for line in lines[1:]))
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0", "0")
    # the rows grow as max^2 / 2: above 1000 the sweep is refused before any row is built
    code, out, err = _run(capsys, "sweep", "--max", "1001")
    assert code == 2 and out == ""
    assert err == "error: the sweep bound must be at most 1000, got 1001\n"


def test_scan_finds_consistent_scale(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, _, _ = _run(capsys, "scan", "--from", "2.0", "--to", "4.0", "--samples", "4001",
                      "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["curve"]) == 4001
    assert [c["omega_hat"] for c in payload["consistent"]] == [OMEGA]


def test_search_reports_max_x7(tmp_path, capsys):
    out = tmp_path / "search.json"
    code, _, _ = _run(capsys, "search", "--target", "x7", "--omega-hat", str(OMEGA),
                      "--resolution", "5", "--dtau", "5e-2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert "achieved" in payload and payload["achieved"] < 0.999


def test_search_json_reads_the_target_peak(tmp_path, capsys):
    # achieved, achieved_tau and achieved_params are peaks[target]; the x7 peak lies in the mirrored half of
    # the box, which the search reads off the evaluated half
    out = tmp_path / "search.json"
    code, _, _ = _run(capsys, "search", "--target", "x7", "--omega-hat", "2.7", "--threshold", "0.999",
                      "--resolution", "7", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    value, tau, params = grid_search(2.7, 1.0, "x7", 7, 0.999).peaks["x7"]
    assert (payload["achieved"], payload["achieved_tau"], payload["achieved_params"]) == (value, tau, asdict(params))
    assert f"{value:.6f} {tau:.6g}" == "0.766635 4.08105"
    assert (params.bz, params.omega_rf) == pytest.approx((-1.8, -8.0), abs=1e-12)
    assert payload["feasible"] is False and payload["best_params"] is None


def test_search_off_the_energy_shell_writes_null_achieved(tmp_path, capsys):
    # at resolution 2 no bz grid value lies on the energy shell, so the target has no peak: null, not -Infinity
    out = tmp_path / "search.json"
    code, _, _ = _run(capsys, "search", "--resolution", "2", "--out", str(out))
    assert code == 0

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    payload = json.loads(out.read_text(), parse_constant=refuse)
    assert payload["achieved"] is None and payload["achieved_tau"] is None and payload["achieved_params"] is None
    assert payload["feasible"] is False


def test_search_auto_records_its_scale(tmp_path, capsys):
    out = tmp_path / "search.json"
    code, _, _ = _run(capsys, "search", "--omega-hat", "auto", "--resolution", "1", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["grid_spec"]["omega_hat"] == consistent_scale(0)[0]


def test_search_landscape_csv(tmp_path, capsys):
    out = tmp_path / "search.json"
    land = tmp_path / "landscape.csv"
    code, _, _ = _run(capsys, "search", "--target", "x8", "--omega-hat", str(OMEGA),
                      "--resolution", "3", "--dtau", "5e-2", "--threshold", "0.5",
                      "--out", str(out), "--landscape", str(land))
    assert code == 0
    lines = land.read_text().splitlines()
    assert lines[0] == "bz,omega_rf,tau_to_threshold,peak,peak_tau"
    # one row per on-shell (bz, omega_rf) pair: only bz = 0 of the 3 bz values is on the shell
    assert len(lines) == 1 + 3


def test_mirrored_landscape_holds_the_reported_crossing(tmp_path, capsys):
    # for x5 and x7 the landscape lists the whole box: here best_tau lies at (-1.5, -0.0), the mirror
    # of an evaluated pair, and it is the earliest crossing in the CSV
    out, land = tmp_path / "search.json", tmp_path / "landscape.csv"
    code, _, _ = _run(capsys, "search", "--target", "x5", "--omega-hat", "3", "--threshold", "0.5",
                      "--resolution", "5", "--landscape", str(land), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    rows = np.genfromtxt(land, delimiter=",", names=True)
    assert (payload["best_params"]["bz"], payload["best_params"]["omega_rf"]) == (-1.5, 0.0)
    assert payload["best_tau"] == np.nanmin(rows["tau_to_threshold"])
    # every on-shell node once: bz = +-3 lie off the shell
    nodes = sorted((bz, omega_rf) for bz in (-1.5, 0.0, 1.5) for omega_rf in (-8.0, -4.0, 0.0, 4.0, 8.0))
    assert sorted(zip(rows["bz"], rows["omega_rf"])) == nodes


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_search_threshold_not_positive_is_usage_error(tmp_path, capsys, threshold):
    # a threshold of 0 would be met by e1 itself and report a crossing at tau = 0
    out = tmp_path / "search.json"
    code, stdout, err = _run(capsys, "search", "--omega-hat", "2.5", "--resolution", "3", "--threshold", threshold, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: threshold must be positive") and err.count("\n") == 1


def test_invert_contains_reference_rate(tmp_path, capsys):
    out = tmp_path / "invert.json"
    code, _, _ = _run(capsys, "invert", "--omega-hat", str(OMEGA), "--b-target", str(-PI), "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(abs(s["params"]["omega_rf"] - 4.0 / math.sqrt(3.0)) < 1e-9 for s in payload)


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--dtau", "0"),
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--dtau", "-0.1"),
        ("invert", "--omega-hat", "2.5", "--tau-star", "-1"),
        # a step count that is not finite, and a time grid too large to allocate
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--dtau", "1e-320"),
        ("propagate", "--tau-end", "1", "--dtau", "1e-320"),
        ("propagate", "--tau-end", "1e6", "--dtau", "1e-9"),
    ],
)
def test_bad_step_or_time_is_usage_error(tmp_path, capsys, argv):
    traj = tmp_path / "traj.csv"
    if argv[0] == "propagate":
        argv += ("--params-file", _write_params(tmp_path), "--out", str(traj))
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "" and not traj.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--threshold", "nan"),
        ("search", "--omega-hat", "inf", "--resolution", "1"),
        ("scan", "--from", "nan", "--to", "4", "--samples", "10"),
    ],
)
def test_non_finite_number_is_usage_error(capsys, argv):
    # argparse rejects the value before any command runs
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not a finite number" in captured.err


def test_invert_has_no_r_flag(capsys):
    # invert lists each control once, so there is no r label to choose
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--omega-hat", "2.7", "--r", "0"])
    assert exc.value.code == 2 and "--r" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["search", "--thr", "0.5"], ["search", "--t", "0.5"]],
    ids=["prefix_of_one_flag", "prefix_of_two_flags"],
)
def test_flag_prefix_is_not_an_abbreviation(capsys, argv):
    # config keys must be full flag names, and so must command-line flags
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_verify_refuses_low_energy(capsys):
    code, _, err = _run(capsys, "verify", "--omega-hat", "1.2")
    assert code == 2
    assert "energy floor" in err


def test_verify_quick_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = _run(
        capsys, "verify", "--omega-hat", "auto", "--dynamics-sets", "1",
        "--resolution", "5", "--scan-samples", "801", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    names = {c["name"] for c in payload["checks"]}
    # the report always carries the measured transfer value and the ansatz gap
    assert "transfer_x8_at_tau_star" in names
    assert "propagator_discrepancy" in names
    assert payload["passed"] is True
    assert "overall: PASS" in stdout


def test_verify_failed_check_exits_1_and_writes_report(tmp_path, capsys):
    # RK4's truncation at dtau 0.5 puts both oracle gaps near 0.35, far over their 1e-8 gate
    out = tmp_path / "r.json"
    code, stdout, err = _run(
        capsys, "verify", "--dtau", "0.5", "--dynamics-sets", "1", "--resolution", "3",
        "--scan-samples", "801", "--out", str(out),
    )
    assert code == 1 and err == ""
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failed == ["cross_validate_full_vs_rk4", "rotating_exact_vs_rk4"]
    assert stdout.endswith(f"overall: FAIL\nreport written to {out}\n")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "trispin.cli", "propagate", "--method", "warp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_importing_the_cli_loads_no_scipy():
    # scipy.optimize is imported where brentq and minimize are called, so start-up does not pay for it
    code = "import sys, trispin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_without_on_shell_grid_point_skips_searches(tmp_path, capsys):
    # at resolution 2 the bz axis is (-omega_hat, omega_hat), both off the energy shell
    out = tmp_path / "report.json"
    code, stdout, _ = _run(
        capsys, "verify", "--dynamics-sets", "1", "--dtau", "1e-3", "--resolution", "2",
        "--scan-samples", "801", "--out", str(out),
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert status["ansatz_grid_search_x8"] == "skipped" and status["no_transfer_probe_x7"] == "skipped"
    assert "SKIPPED  ansatz_grid_search_x8" in stdout and "overall: PASS" in stdout


def test_verify_zero_dynamics_sets_skips_oracle_checks(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = _run(
        capsys, "verify", "--dynamics-sets", "0", "--resolution", "3", "--scan-samples", "801", "--out", str(out),
    )
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("cross_validate_full_vs_rk4", "rotating_exact_vs_rk4"):
        assert checks[name]["status"] == "skipped" and checks[name]["measured"] is None


def test_verify_negative_dynamics_sets_is_usage_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, err = _run(capsys, "verify", "--dynamics-sets", "-2", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: n_dynamics must be nonnegative, got -2\n"


def test_verify_negative_seed_is_usage_error(tmp_path, capsys):
    # numpy's own message named neither the flag nor the value
    out = tmp_path / "report.json"
    code, stdout, err = _run(capsys, "verify", "--seed", "-1", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("dtau", ["0", "-1"])
def test_verify_checks_its_step_with_no_dynamics_sets(tmp_path, capsys, dtau):
    # no dynamics set uses the step, but a bad one is still a usage error, before any check
    out = tmp_path / "report.json"
    code, stdout, err = _run(capsys, "verify", "--dynamics-sets", "0", "--dtau", dtau, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and "dtau" in err and err.count("\n") == 1


def test_verify_auto_is_closed_form_scale_whatever_scan_samples(tmp_path, capsys):
    # "auto" is consistent_scale(0), so the scan's sample count cannot move it
    selected = []
    for samples in ("1", "801"):
        out = tmp_path / f"report{samples}.json"
        code, _, _ = _run(capsys, "verify", "--dynamics-sets", "0", "--scan-samples", samples, "--out", str(out))
        assert code == 0
        selected.append(json.loads(out.read_text())["context"]["omega_hat"])
    assert selected == [math.sqrt(2 + math.pi**2 / 3)] * 2


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code, _, err = _run(capsys, "sweep", "--max", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and str(out) in err and len(err.strip().splitlines()) == 1


def test_propagate_rejects_non_finite_params(tmp_path, capsys):
    params = asdict(closed_form_params(OMEGA))
    params["omega_hat"] = float("nan")
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(out))
    assert code == 2
    assert "non-finite omega_hat" in err
    assert not out.exists()


def test_propagate_rejects_non_finite_text_params(tmp_path, capsys):
    # "nan" and "inf" are JSON strings that float() reads; ControlParams.from_dict refuses them
    params = asdict(closed_form_params(OMEGA))
    params["omega_hat"], params["theta0"] = "nan", "-inf"
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(out))
    assert code == 2 and not out.exists()
    assert err == f"error: parameter file {pf} has non-finite omega_hat\n"


@pytest.mark.parametrize("omega_hat", [-2.0, 0.0])
def test_propagate_refuses_a_scale_that_is_not_positive(tmp_path, capsys, omega_hat):
    # the parameter file of the CI propagate steps, but for omega_hat: energy_shell's rule holds for a file too
    params = {"k": 1.0, "omega_hat": omega_hat, "b0": 1.0, "bz": 1.0, "omega_rf": 2.0, "theta0": 0.0}
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out = tmp_path / "x.csv"
    code, stdout, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: parameter file {pf} has omega_hat must be positive, got {omega_hat:g}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--omega-hat", "1e155"),
        ("search", "--omega-hat", "1e200"),
        ("invert", "--omega-hat", "1e200"),
        ("analytic", "--m0", "0", "--n0", "0", "--omega-hat", "1e200"),
    ],
    ids=["verify", "search", "invert", "analytic"],
)
def test_energy_shell_out_of_float_range_is_usage_error(capsys, argv):
    # omega_hat is finite, but omega_hat^2 is not: Python's float ** raised OverflowError here
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--omega-hat", "-2.7", "--threshold", "0.95"),
        ("verify", "--omega-hat", "-2.3"),
        ("invert", "--omega-hat", "-2.7"),
        ("analytic", "--m0", "0", "--n0", "0", "--omega-hat", "-2.7"),
    ],
    ids=["search", "verify", "invert", "analytic"],
)
def test_negative_omega_hat_is_usage_error(capsys, argv):
    # a negative scale has the shell of its size, but it reverses search's box and the report's omega_hat
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: omega_hat must be positive, got -2.") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["rk4", "full-hilbert", "rotating-exact", "expm-integral"])
def test_propagate_refuses_a_trajectory_that_is_not_finite(tmp_path, capsys, method):
    # every field is finite, but b0 = 1e308 overflows inside each propagator
    params = asdict(closed_form_params(OMEGA))
    params["b0"] = 1e308
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out = tmp_path / "x.csv"
    argv = ("propagate", "--params-file", str(pf), "--method", method, "--tau-end", "1", "--dtau", "0.1")
    code, stdout, err = _run(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and str(pf) in err and "not finite" in err


# (grid flags, rows): 1, 2, 3, 33 and 34 rows, a step longer than the run (one shortened step), and two grids refused
# with exit 2, a step count that is not finite and one too large to allocate (1e303 rows)
PROPAGATE_GRIDS = {
    "1_row": (("--tau-end", "1e-300"), 1),
    "2_rows": (("--tau-end", "1e-3"), 2),
    "3_rows": (("--tau-end", "2e-3"), 3),
    "33_rows": (("--tau-end", "0.032"), 33),
    "34_rows": (("--tau-end", "0.033"), 34),
    "step_past_the_end": (("--tau-end", "1", "--dtau", "10"), 2),
    "subnormal_step": (("--dtau", "5e-324"), None),
    "huge_run": (("--tau-end", "1e300"), None),
}


@pytest.mark.parametrize("grid, rows", PROPAGATE_GRIDS.values(), ids=PROPAGATE_GRIDS.keys())
def test_propagate_edge_grids_exit_cleanly(tmp_path, capsys, grid, rows):
    # every method exits 0, or 2 with nothing on stdout and one error line: a traceback would raise here.  Where they
    # run, the three routes agree: RK4 to 1e-8 and the two exact ones to 1e-13; over one step of length 1 RK4's
    # truncation is of order 1, so there it must equal one classic RK4 step of the lab-frame build_M
    pf = _write_params(tmp_path)
    states = {}
    for method in ("rk4", "expm-integral", "rotating-exact", "full-hilbert"):
        out = tmp_path / f"{method}.csv"
        code, stdout, err = _run(capsys, "propagate", "--params-file", pf, "--method", method, *grid, "--out", str(out))
        if rows is None:
            assert code == 2 and stdout == "" and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0 and err == "" and stdout.endswith(f"wrote {rows} samples (method={method}) to {out}\n")
            states[method] = _read_csv(out)
    if rows is None:
        return
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
