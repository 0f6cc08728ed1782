import json
import math
import subprocess
import sys

import numpy as np
import pytest

from trispin.boundary import closed_form_params
from trispin.cli import main
from trispin.dynamics import CSV_HEADER

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
    path.write_text(json.dumps(params.to_dict()))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_analytic_record(capsys):
    code, out, _ = _run(capsys, "analytic", "--m0", "0", "--n0", "0", "--k", "1")
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


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0, "n0": 1, "k": 1}))
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg))
    assert code == 0
    assert abs(json.loads(out)["tau_star"] - 0.25 * PI * math.sqrt(7.0)) < 1e-12
    # flags override the config file
    code, out, _ = _run(capsys, "analytic", "--config", str(cfg), "--n0", "0")
    assert code == 0
    assert abs(json.loads(out)["tau_star"] - TAU_STAR) < 1e-12


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_config_rejects_non_finite_number(tmp_path, capsys, literal):
    # json reads these as floats; the argv parse of --threshold never sees them
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threshold": %s}' % literal)
    out = tmp_path / "search.json"
    code, stdout, err = _run(capsys, "search", "--omega-hat", "2.5", "--resolution", "1",
                             "--config", str(cfg), "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite threshold" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, entry",
    [
        (("search", "--omega-hat", "2.5"), {"resolution": 2.5}),
        (("scan", "--from", "2", "--to", "3"), {"samples": 10.5}),
        (("search", "--omega-hat", "2.5"), {"target": "x9"}),
        (("invert", "--omega-hat", "2.5"), {"r": [0, "one"]}),
    ],
    ids=["int", "int_samples", "choices", "multi_value"],
)
def test_config_value_checked_like_its_flag(tmp_path, capsys, argv, entry):
    # the flag's type and choices apply to a config value too: no TypeError traceback later
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, stdout, err = _run(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / "out.json"))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"invalid {next(iter(entry))}" in err


def test_config_list_sets_multi_value_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": [0, 1], "root-hi": 10}))
    out = tmp_path / "invert.json"
    code, _, _ = _run(capsys, "invert", "--omega-hat", str(OMEGA), "--config", str(cfg), "--out", str(out))
    assert code == 0
    assert {s["branch"]["r"] for s in json.loads(out.read_text())} == {0, 1}


def test_config_null_leaves_flag_default(tmp_path, capsys, monkeypatch):
    # null is no flag text: the entry is skipped, so --out stays unset and the table goes to stdout
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": None, "max": None}))
    code, out, _ = _run(capsys, "sweep", "--config", "cfg.json")
    assert code == 0 and out.splitlines()[0] == "m0,n0,tau_star" and len(out.splitlines()) == 17
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_parameter_file_must_hold_object(tmp_path, capsys):
    pf = tmp_path / "params.json"
    pf.write_text("[1, 2]")
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("error: ") and "must hold a JSON object" in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m0": 0, "n0": 0, "banana": 3}))
    code, _, err = _run(capsys, "analytic", "--config", str(cfg))
    assert code == 2
    assert "banana" in err


def test_sweep_table(capsys):
    code, out, _ = _run(capsys, "sweep", "--max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m0,n0,tau_star"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0", "0")


def test_scan_finds_consistent_scale(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, _, _ = _run(capsys, "scan", "--from", "2.0", "--to", "4.0", "--samples", "4001",
                      "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["curve"]) == 4001
    assert any(abs(c["omega_hat"] - OMEGA) < 5e-4 for c in payload["consistent"])


def test_search_reports_max_x7(tmp_path, capsys):
    out = tmp_path / "search.json"
    code, _, _ = _run(capsys, "search", "--target", "x7", "--omega-hat", str(OMEGA),
                      "--resolution", "5", "--dtau", "5e-2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert "achieved" in payload and payload["achieved"] < 0.999


def test_search_landscape_csv(tmp_path, capsys):
    out = tmp_path / "search.json"
    land = tmp_path / "landscape.csv"
    code, _, _ = _run(capsys, "search", "--target", "x8", "--omega-hat", str(OMEGA),
                      "--resolution", "3", "--dtau", "5e-2", "--threshold", "0.5",
                      "--out", str(out), "--landscape", str(land))
    assert code == 0
    lines = land.read_text().splitlines()
    assert lines[0] == "bz,omega_rf,theta0,tau_to_threshold,peak,peak_tau"
    assert len(lines) > 1


def test_invert_contains_reference_rate(tmp_path, capsys):
    out = tmp_path / "invert.json"
    code, _, _ = _run(capsys, "invert", "--omega-hat", str(OMEGA), "--b-target", str(-PI),
                      "--r", "0", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert any(abs(s["params"]["omega_rf"] - 4.0 / math.sqrt(3.0)) < 1e-9 for s in payload)


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--dtau", "0"),
        ("search", "--omega-hat", "2.5", "--resolution", "1", "--dtau", "-0.1"),
        ("invert", "--omega-hat", "2.5", "--tau-star", "-1"),
    ],
)
def test_bad_step_or_time_is_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
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


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "trispin.cli", "propagate", "--method", "warp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


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


def test_verify_auto_without_consistent_scale_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--dynamics-sets", "0", "--scan-samples", "1")
    assert code == 2
    assert err.startswith("error: no consistent energy scale") and len(err.strip().splitlines()) == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code, _, err = _run(capsys, "sweep", "--max", "1", "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and str(out) in err and len(err.strip().splitlines()) == 1


def test_propagate_rejects_non_finite_params(tmp_path, capsys):
    params = closed_form_params(OMEGA).to_dict()
    params["omega_hat"] = float("nan")
    pf = tmp_path / "params.json"
    pf.write_text(json.dumps(params))
    out = tmp_path / "x.csv"
    code, _, err = _run(capsys, "propagate", "--params-file", str(pf), "--out", str(out))
    assert code == 2
    assert "non-finite omega_hat" in err
    assert not out.exists()
