"""Structured verification report and the runner that fills it.

Each check records its measured value, the expected value with a provenance
note naming the oracle it came from, and a status that ``VerificationReport.add``
sets by one rule: "skipped" when nothing was measured (measured None, for
example zero random parameter sets), else "measured" when the check asserts
nothing (an experiment whose outcome is reported, not assumed), else "pass" or
"fail".  A skipped check counts neither as a pass nor as a failure; the report
passes when no check fails.  The runner is deterministic: random parameter
draws use a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import E1, TAU_STAR, ControlParams, energy_shell, transverse_amplitude
from .boundary import (
    SCAN_SAMPLES,
    TRANSFER_COLUMNS,
    BoundaryConstants,
    analytic_family,
    boundary_residuals,
    closed_form_params,
    consistency_scan,
    consistent_scale,
    exp_boundary_check,
    family_constants_for_target,
    integer_relations_check,
    invert_to_physical,
    sweep_tau,
)
from .dynamics import _time_grid, exact_state_trajectory, propagate_rk4, propagator_discrepancy
from .hilbert import closure_check, full_hilbert_trajectory
from .search import grid_search

DEFAULT_SEED = 20260810
# omega_hat window of the consistency_scan check
SCAN_RANGE = (2.0, 4.0)


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "measured" | "skipped"
    measured: float | str | None
    expected: float | str | None
    tolerance: float | None
    provenance: str
    note: str = ""


@dataclass
class VerificationReport:
    context: dict
    checks: list[Check] = field(default_factory=list)

    def add(
        self,
        name: str,
        measured: float | str | None,
        provenance: str,
        passed: bool | None = None,
        *,
        expected: float | None = None,
        tolerance: float | None = None,
        note: str = "",
    ) -> None:
        """Record a check: "skipped" if measured is None, "measured" if passed is None, else "pass" or "fail"."""
        if measured is None:
            status = "skipped"
        elif passed is None:
            status = "measured"
        else:
            status = "pass" if passed else "fail"
        self.checks.append(Check(name, status, measured, expected, tolerance, provenance, note))

    def add_bounded(
        self, name: str, measured: float | None, tolerance: float, provenance: str, note: str = ""
    ) -> None:
        """A check of measured against 0 that passes when measured <= tolerance."""
        passed = measured is not None and measured <= tolerance
        self.add(name, measured, provenance, passed, expected=0.0, tolerance=tolerance, note=note)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_text(self) -> str:
        lines = []
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            measured = f"{c.measured:.6g}" if isinstance(c.measured, float) else str(c.measured)
            parts = [f"{c.status.upper():8s} {c.name:<{width}s} measured={measured}"]
            if c.tolerance is not None:
                parts.append(f"tol={c.tolerance:g}")
            if c.expected is not None:
                expected = f"{c.expected:.9g}" if isinstance(c.expected, float) else str(c.expected)
                parts.append(f"expected={expected}")
            parts.append(f"[{c.provenance}]")
            if c.note:
                parts.append(f"({c.note})")
            lines.append("  ".join(parts))
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def random_consistent_params(rng: np.random.Generator) -> ControlParams:
    """Draw an energy-consistent rotating-control parameter set."""
    k = float(rng.choice([1.0, -1.0]))
    omega_hat = float(rng.uniform(1.6, 3.0))
    shell = math.sqrt(energy_shell(omega_hat, k))
    bz = float(rng.uniform(-0.9, 0.9)) * shell
    return ControlParams(
        k=k,
        omega_hat=omega_hat,
        b0=transverse_amplitude(omega_hat, k, bz),
        bz=bz,
        omega_rf=float(rng.uniform(-5.0, 5.0)),
        theta0=float(rng.uniform(0.0, 2.0 * math.pi)),
    )


def column_gap(c: BoundaryConstants, target: str) -> float:
    """Largest deviation of the first columns of exp[A_pm] from +-TRANSFER_COLUMNS[target]."""
    col_plus, col_minus = exp_boundary_check(c)
    column = np.array(TRANSFER_COLUMNS[target])
    return max(float(np.max(np.abs(col_plus - column))), float(np.max(np.abs(col_minus + column))))


def _largest_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest Euclidean distance between matching rows of a and b: the root of the largest row sum of squares."""
    d = a - b
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", d, d))))


def dynamics_equivalence(params_list, tau_end: float, dtau: float = 1e-4) -> tuple[float, float]:
    """(max full-Hilbert vs RK4 deviation, max rotating-exact vs RK4 deviation), all from x = e1."""
    worst_full = 0.0
    worst_exact = 0.0
    for p in params_list:
        reduced = propagate_rk4(p, E1, tau_end, dtau)
        full = full_hilbert_trajectory(p, tau_end, dtau)
        exact = exact_state_trajectory(p, E1, reduced.taus)
        worst_full = max(worst_full, _largest_gap(full.states, reduced.states))
        worst_exact = max(worst_exact, _largest_gap(exact, reduced.states))
    return worst_full, worst_exact


def run_verification(
    omega_hat: float | str = "auto",
    dtau: float = 1e-4,
    n_dynamics: int = 5,
    grid_resolution: int = 21,
    scan_samples: int = SCAN_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Run every verification check and return the filled report.

    omega_hat "auto" selects the lowest consistent scale, consistent_scale(0);
    a numeric omega_hat must satisfy omega_hat^2 > 2.  The transfer check
    propagates the closed-form control at "auto", and at a numeric omega_hat the
    first inverted control, or the closed-form one where no inverted control
    exists (omega_hat <= sqrt(10/3)); its provenance names the control.  The family checks run at
    coupling ratio k = 1: k = -1 flips x5..x8 and no reported value
    (analytic_family); the random parameter sets draw both.
    """
    _time_grid(3.0 * TAU_STAR, dtau)  # a bad step is a ValueError before any check, even with no dynamics sets
    if omega_hat != "auto":
        energy_shell(omega_hat, 1.0)  # so is an omega_hat at or below the energy floor
    rng = np.random.default_rng(seed)
    report = VerificationReport(
        context={
            "omega_hat_request": omega_hat,
            "dtau": dtau,
            "seed": seed,
            "scan_samples": scan_samples,
            "scan_range": list(SCAN_RANGE),
        }
    )

    # --- final-time algebra, minimal branch ---
    constants, qn, tau_star = analytic_family(0, 0)
    report.add(
        "family_min_time",
        tau_star,
        "closed-form integer family, minimal branch",
        abs(tau_star - TAU_STAR) <= 1e-12,
        expected=TAU_STAR,
        tolerance=1e-12,
    )
    report.add_bounded(
        "boundary_residuals_max",
        float(np.max(np.abs(boundary_residuals(constants)))),
        1e-10,
        "scalar boundary system at the family constants",
    )
    report.add_bounded(
        "integer_relations_max",
        float(np.max(np.abs(integer_relations_check(constants, qn)))),
        1e-10,
        "integer-labelled relations at the family constants",
    )
    report.add_bounded(
        "exp_boundary_columns",
        column_gap(constants, "x8"),
        1e-10,
        "matrix exponential of the final-time generator",
    )

    rows = sweep_tau(3)
    gap = rows[1]["tau_star"] - rows[0]["tau_star"]
    report.add(
        "sweep_minimum",
        gap,
        "closed-form sweep over the (m0, n0) grid",
        (rows[0]["m0"], rows[0]["n0"]) == (0, 0) and gap > 0,
        note="gap between the smallest and second-smallest transfer times",
    )

    # --- alternate target: b and d exchanged ---
    # the exchanged family has the same tau_star, residuals and integer
    # relations as the x8 family by construction; only its columns are new
    report.add_bounded(
        "x6_variant",
        column_gap(family_constants_for_target("x6", 0, 0)[0], "x6"),
        1e-10,
        "exponential columns of the exchanged-constants family",
    )

    # --- structural closure of the reduced generator ---
    worst_closure = 0.0
    for _ in range(10):
        p = random_consistent_params(rng)
        taus = rng.uniform(0.0, 5.0, size=10)
        worst_closure = max(worst_closure, closure_check(p, taus))
    report.add_bounded(
        "closure_residual",
        worst_closure,
        1e-12,
        "commutator projection onto the operator basis",
        note="10 random parameter sets, 10 times each",
    )

    # --- dynamics oracle equivalence ---
    dyn_params = [random_consistent_params(rng) for _ in range(n_dynamics)]
    worst_full, worst_exact = dynamics_equivalence(dyn_params, 3.0 * tau_star, dtau)
    report.add_bounded(
        "cross_validate_full_vs_rk4",
        worst_full if dyn_params else None,
        1e-8,
        "full-space propagation vs reduced RK4",
        note=f"{n_dynamics} random parameter sets on [0, 3*tau_star], dtau={dtau:g}",
    )
    report.add_bounded(
        "rotating_exact_vs_rk4",
        worst_exact if dyn_params else None,
        1e-8,
        "rotating-frame closed form vs reduced RK4",
    )

    # --- consistency of the closed-form control constants ---
    scan = consistency_scan(*SCAN_RANGE, samples=scan_samples)
    report.add(
        "consistency_scan",
        scan.consistent[0].omega_hat if scan.consistent else "none",
        "closed-form constants against the b, d boundary equations",
        bool(scan.consistent),
        tolerance=1e-9,
        note=f"{len(scan.consistent)} consistent energy scale(s) in ({SCAN_RANGE[0]}, {SCAN_RANGE[1]}]",
    )

    auto_omega, branch = consistent_scale(0)
    omega_sel = auto_omega if omega_hat == "auto" else float(omega_hat)
    params = closed_form_params(omega_sel, **branch)
    control = "closed-form control"
    if omega_hat != "auto":
        # away from a consistent scale the closed forms miss the b, d equations,
        # so use inverted controls, which satisfy them exactly wherever they exist
        sols = invert_to_physical(omega_sel, 1.0, tau_star, -math.pi)
        if sols:
            params, branch = sols[0].params, sols[0].branch
            control = "inverted control"
        else:
            control += f"; no inverted control exists at omega_hat={omega_sel:g}"
    report.context["omega_hat"] = omega_sel
    report.context["branch"] = branch

    # --- transfer experiment (outcome reported, not assumed) ---
    x8_final = float(exact_state_trajectory(params, E1, np.array([tau_star]))[0, 7])
    report.add(
        "transfer_x8_at_tau_star",
        x8_final,
        f"exact propagation of the {control}",
        expected=1.0,
        tolerance=1e-6,
        note="within tolerance" if abs(x8_final - 1.0) <= 1e-6 else "tolerance violated; see propagator_discrepancy",
    )
    disc = propagator_discrepancy(params, np.linspace(0.0, tau_star, 241))
    report.add(
        "propagator_discrepancy",
        disc.max_deviation,
        "integrated-generator ansatz vs time-ordered propagator on [0, tau_star]",
        note=f"largest gap at tau={disc.tau_at_max:.6g}",
    )

    # --- reachability probes: one grid pass measures both x8 and x7 ---
    gs = grid_search(omega_sel, 1.0, target="x8", resolution=grid_resolution, threshold=0.999)
    x8, x8_tau, _ = gs.peaks["x8"]
    if x8_tau is None:
        # at low resolution no bz grid value may lie on the energy shell
        note = f"no grid point on the energy shell at resolution {grid_resolution}"
        for name in ("ansatz_grid_search_x8", "no_transfer_probe_x7"):
            report.add(name, None, "grid over the energy-shell ansatz", note=note)
        return report
    report.add(
        "ansatz_grid_search_x8",
        gs.best_tau if gs.best_tau is not None else "never reached",
        "grid over the energy-shell ansatz",
        gs.best_tau is None or gs.best_tau > 0.95 * tau_star,
        note=f"largest x8 seen {x8:.6g} at tau={x8_tau:.6g}",
    )
    x7, x7_tau, _ = gs.peaks["x7"]
    report.add(
        "no_transfer_probe_x7",
        x7,
        "grid over the energy-shell ansatz",
        x7 < 0.999,
        tolerance=0.999,
        note=f"largest x7 at tau={x7_tau:.6g}",
    )
    return report
