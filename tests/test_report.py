import pytest

from trispin.report import run_verification


def test_zero_closure_sets_is_skipped_not_passed():
    report = run_verification(n_dynamics=0, n_closure=0, grid_resolution=3, scan_samples=801)
    check = report.get("closure_residual")
    assert check.status == "skipped" and check.measured is None
    assert report.passed
    assert "SKIPPED  closure_residual" in report.to_text()


def test_default_grid_values():
    # verify's grid over the energy-shell ansatz at its defaults reads its rows off the block-factored mode table
    report = run_verification()
    assert report.passed
    assert report.get("ansatz_grid_search_x8").note == "largest x8 seen 0.982243 at tau=1.34"
    assert f"{report.get('no_transfer_probe_x7').measured:.6g}" == "0.829033"


def test_low_energy_is_refused_before_any_check(monkeypatch):
    # a numeric omega_hat is checked against the energy floor up front, like the step: no dynamics run first
    import trispin.report as report

    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the energy floor was checked")

    for name in ("analytic_family", "closure_check", "dynamics_equivalence", "consistency_scan"):
        monkeypatch.setattr(report, name, forbidden)
    with pytest.raises(ValueError, match="energy floor"):
        run_verification(omega_hat=1.2)
