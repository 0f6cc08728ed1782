from trispin.report import run_verification


def test_zero_closure_sets_is_skipped_not_passed():
    report = run_verification(n_dynamics=0, n_closure=0, grid_resolution=3, scan_samples=801)
    check = report.get("closure_residual")
    assert check.status == "skipped" and check.measured is None
    assert report.passed
    assert "SKIPPED  closure_residual" in report.to_text()
