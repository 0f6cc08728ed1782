import math
from dataclasses import replace

import numpy as np
import pytest

import trispin.report as report_module
from trispin.algebra import E1, TAU_STAR
from trispin.boundary import analytic_family, closed_form_params, consistent_scale, invert_to_physical
from trispin.dynamics import exact_state_trajectory
from trispin.report import run_verification

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
        (_patched("analytic_family", lambda r: (r[0], r[1], r[2] + 1e-9)), "family_min_time"),
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
    omega, tau_star = report.context["omega_hat"], analytic_family(0, 0)[2]
    sols = invert_to_physical(omega, 1.0, tau_star, -math.pi)
    assert bool(sols) == (omega_hat != 1.5)
    params = sols[0].params if control == "inverted control" else closed_form_params(omega, **consistent_scale(0)[1])
    assert check.measured == float(exact_state_trajectory(params, E1, np.array([tau_star]))[0, 7])
    if omega_hat == 1.5:
        assert f"{check.measured:.6g}" == "0.641215"


def test_low_energy_is_refused_before_any_check(monkeypatch):
    # a numeric omega_hat is checked against the energy floor up front, like the step: no dynamics run first
    import trispin.report as report

    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the energy floor was checked")

    for name in ("analytic_family", "closure_check", "dynamics_equivalence", "consistency_scan"):
        monkeypatch.setattr(report, name, forbidden)
    with pytest.raises(ValueError, match="energy floor"):
        run_verification(omega_hat=1.2)
