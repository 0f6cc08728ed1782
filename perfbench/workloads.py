"""The benchmark's workloads: inputs drawn from a seed, one timed pass, checks after it.

Each workload has three parts:

* ``inputs(seed, size)``   a JSON-able dict built only from the seed and the size,
* ``run(inputs, workdir)``  the timed pass, calling trispin through module
                            attributes so that the tracer's patches apply,
* ``check(inputs, out)``    the correctness checks, run after the timed region.
                            Each returns ``(checks, gaps)``: one ``Check`` per name
                            in the workload's ``CHECKS`` and the gaps between
                            outputs and their independent oracles, from which
                            ``accuracy_digits`` is computed.

``size`` is "full" for the benchmark and "smoke" for the smoke test.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from trispin import algebra, boundary, cli, dynamics, search

TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi
E1 = np.eye(8)[0]

# The paper's central negative finding at the consistent scale 2.29997...:
# x8(tau*) under the exact propagator and the gap between that propagator and
# the integrated-generator ansatz exp[int M] on 241 taus in [0, tau*].
X8_AT_TAU_STAR = 0.0853155
DISCREPANCY_AT_2_3 = 1.518782
# The two consistent energy scales in (1.5, 6], the same for both signs of k,
# and the ansatz gap at the second one.
CONSISTENT_SCALES = (2.2999713, 5.6221716)
DISCREPANCY_AT_5_6 = 1.989866

ACCURACY_CAP = 15.0


@dataclass
class Check:
    name: str
    ok: bool
    worst: float | str
    tolerance: float | None

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "worst": self.worst, "tolerance": self.tolerance}


def accuracy_digits(gaps: list[float]) -> float:
    """-log10 of the worst oracle gap, capped at ACCURACY_CAP; 0 when no gap was measured or one is not finite."""
    worst = max(gaps, default=math.inf)
    if not math.isfinite(worst):
        return 0.0
    if worst <= 10.0**-ACCURACY_CAP:
        return ACCURACY_CAP
    return min(ACCURACY_CAP, -math.log10(worst))


def _bounded(name: str, values, tolerance: float) -> Check:
    worst = max(values, default=math.inf)
    return Check(name, bool(worst <= tolerance), worst, tolerance)


# --------------------------------------------------------------------------- verify


class Verify:
    """``trispin verify`` with default flags: what a user runs to reproduce the paper."""

    CHECKS = ("exit_code", "transfer_x8_at_tau_star", "propagator_discrepancy", "oracle_agreement")
    SMOKE_FLAGS = ["--dynamics-sets", "1", "--dtau", "2.5e-4", "--resolution", "5", "--scan-samples", "1001"]

    @staticmethod
    def inputs(seed: int, size: str) -> dict:
        rng = random.Random(f"verify:{seed}")
        argv = ["verify", "--seed", str(rng.randrange(1, 2**31))]
        if size == "smoke":
            argv += Verify.SMOKE_FLAGS
        return {"argv": argv}

    @staticmethod
    def run(inputs: dict, workdir: str) -> dict:
        out = os.path.join(workdir, "report.json")
        code = cli.main(inputs["argv"] + ["--out", out])
        return {"exit_code": code, "report": out}

    @staticmethod
    def check(inputs: dict, out: dict) -> tuple[list[Check], list[float]]:
        with open(out["report"]) as fh:
            measured = {c["name"]: c["measured"] for c in json.load(fh)["checks"]}
        x8 = measured["transfer_x8_at_tau_star"]
        disc = measured["propagator_discrepancy"]
        # the report's own oracle comparisons: full-space gauss4 and the
        # rotating-frame closed form, each against reduced RK4
        gaps = [measured["cross_validate_full_vs_rk4"], measured["rotating_exact_vs_rk4"]]
        checks = [
            Check("exit_code", out["exit_code"] == 0, float(out["exit_code"]), 0.0),
            _bounded("transfer_x8_at_tau_star", [abs(x8 - X8_AT_TAU_STAR)], 1e-6),
            _bounded("propagator_discrepancy", [abs(disc - DISCREPANCY_AT_2_3)], 1e-5),
            _bounded("oracle_agreement", gaps, 1e-8),
        ]
        return checks, gaps


# --------------------------------------------------------------------------- search


class Search:
    """The ansatz reachability sweep: grid_search at threshold 0.95, then refine_local.

    One energy scale is drawn from each band.  Within a band the number of bz
    grid values on the energy shell is fixed (15, 17 and 19 of 21), so every
    seed evaluates the same number of grid points.
    """

    CHECKS = ("feasible", "on_energy_shell", "refined_not_later", "threshold_crossing", "rk4_agreement")
    BANDS = ((2.0, 2.3), (2.5, 3.1), (3.3, 3.6))
    THRESHOLD = 0.95
    BISECTION_TOL = 1e-9

    @staticmethod
    def inputs(seed: int, size: str) -> dict:
        rng = random.Random(f"search:{seed}")
        bands = Search.BANDS if size == "full" else Search.BANDS[:1]
        return {
            "omega_hats": [rng.uniform(lo, hi) for lo, hi in bands],
            "k": 1.0,
            "resolution": 21 if size == "full" else 11,
        }

    @staticmethod
    def run(inputs: dict, workdir: str) -> list:
        results = []
        for omega_hat in inputs["omega_hats"]:
            grid = search.grid_search(
                omega_hat,
                inputs["k"],
                target="x8",
                resolution=inputs["resolution"],
                threshold=Search.THRESHOLD,
                collect_landscape=True,
            )
            results.append((grid, search.refine_local(grid)))
        return results

    @staticmethod
    def _x8(p, tau: float) -> float:
        return float(dynamics.exact_state_trajectory(p, E1, np.array([tau]))[0, 7])

    @staticmethod
    def _crossing_gap(p, tau: float) -> float:
        """Distance from tau to the threshold crossing that brentq finds within 1e-6 of it."""
        h = 1e-6
        f = lambda t: Search._x8(p, t) - Search.THRESHOLD  # noqa: E731
        if not (f(tau - h) < 0.0 < f(tau + h)):
            return math.inf
        return abs(tau - brentq(f, tau - h, tau + h, xtol=1e-15))

    @staticmethod
    def check(inputs: dict, out: list) -> tuple[list[Check], list[float]]:
        feasible = all(grid.feasible and refined.feasible for grid, refined in out)
        bests = [(r.best_params, r.best_tau) for pair in out for r in pair if r.best_params is not None]
        shell = [abs(algebra.energy_residual(p)) for p, _ in bests]
        later = [max(0.0, refined.best_tau - grid.best_tau) for grid, refined in out if grid.feasible]
        crossing = [Search._crossing_gap(p, tau) for p, tau in bests]
        checks = [
            Check("feasible", feasible, float(sum(not g.feasible for g, _ in out)), 0.0),
            _bounded("on_energy_shell", shell, 1e-12),
            _bounded("refined_not_later", later, 0.0),
            _bounded("threshold_crossing", crossing, Search.BISECTION_TOL),
        ]
        rk4 = []
        if bests:
            # independent propagation at the earliest crossing found overall
            p, tau = min(bests, key=lambda b: b[1])
            traj = dynamics.propagate_rk4(p, E1, tau, 1e-4)
            exact = dynamics.exact_state_trajectory(p, E1, traj.taus)
            rk4 = [
                float(np.max(np.linalg.norm(exact - traj.states, axis=1))),
                abs(float(traj.states[-1, 7]) - Search.THRESHOLD),
            ]
        checks.append(_bounded("rk4_agreement", rk4, 1e-8))
        return checks, crossing + rk4[:1]


# --------------------------------------------------------------------------- scan


def _quadrature_bd(p, tau: float) -> tuple[float, float]:
    """Boundary constants b = -2 b0 int sin(theta), d = 2 b0 int cos(theta) by Gauss-Legendre quadrature.

    An oracle independent of the closed-form phase integrals the program uses.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    theta = p.omega_rf * 0.5 * tau * (x + 1.0) + p.theta0
    scale = p.b0 * tau  # 2 * b0 * (tau / 2) from the change of interval
    return -scale * float(w @ np.sin(theta)), scale * float(w @ np.cos(theta))


class Scan:
    """The boundary-value layer on its own: consistency scans, inversions and the ansatz gap."""

    CHECKS = (
        "consistent_scales",
        "scan_residuals",
        "inversions_solved",
        "inversion_residuals",
        "energy_residuals",
        "propagator_discrepancy",
    )

    @staticmethod
    def inputs(seed: int, size: str) -> dict:
        rng = random.Random(f"scan:{seed}")
        n = 25 if size == "full" else 3
        inversions = []
        for _ in range(n):
            k = rng.choice((1.0, -1.0))
            b_target = rng.choice((1.0, -1.0)) * math.pi * rng.uniform(0.5, 1.5)
            inversions.append({"omega_hat": rng.uniform(2.5, 6.0), "k": k, "b_target": b_target})
        return {"range": [1.5, 6.0], "samples": 20000 if size == "full" else 2000, "inversions": inversions}

    @staticmethod
    def run(inputs: dict, workdir: str) -> dict:
        lo, hi = inputs["range"]
        taus = np.linspace(0.0, TAU_STAR, 241)
        scans, discrepancies = {}, {}
        for k in (1, -1):
            scans[k] = boundary.consistency_scan(lo, hi, k_sign=k, samples=inputs["samples"])
            for cp in scans[k].consistent:
                params = boundary.closed_form_params(cp.omega_hat, k_sign=k, **cp.branch)
                discrepancies[(k, cp.omega_hat)] = (params, dynamics.propagator_discrepancy(params, taus))
        inversions = [
            boundary.invert_to_physical(inv["omega_hat"], inv["k"], TAU_STAR, inv["b_target"])
            for inv in inputs["inversions"]
        ]
        return {"scans": scans, "discrepancies": discrepancies, "inversions": inversions}

    @staticmethod
    def check(inputs: dict, out: dict) -> tuple[list[Check], list[float]]:
        scale_gaps = []
        for scan in out["scans"].values():
            found = sorted(cp.omega_hat for cp in scan.consistent)
            if len(found) != len(CONSISTENT_SCALES):
                scale_gaps.append(math.inf)
            else:
                scale_gaps += [abs(a - b) for a, b in zip(found, CONSISTENT_SCALES)]
        scan_gaps, energy, disc_gaps = [], [], []
        for (k, omega_hat), (params, disc) in out["discrepancies"].items():
            b, d = _quadrature_bd(params, TAU_STAR)
            scan_gaps += [abs(b + math.pi * k), abs(d)]
            energy.append(abs(algebra.energy_residual(params)))
            ref = DISCREPANCY_AT_2_3 if omega_hat < 4.0 else DISCREPANCY_AT_5_6
            disc_gaps.append(abs(disc.max_deviation - ref))
        inv_gaps, reported = [], []
        for inv, sols in zip(inputs["inversions"], out["inversions"]):
            for sol in sols:
                b, d = _quadrature_bd(sol.params, TAU_STAR)
                inv_gaps += [abs(b - inv["b_target"]), abs(d)]
                reported += [sol.residual_b, sol.residual_d]
                energy.append(abs(algebra.energy_residual(sol.params)))
        unsolved = sum(1 for sols in out["inversions"] if not sols)
        checks = [
            _bounded("consistent_scales", scale_gaps, 1e-6),
            _bounded("scan_residuals", scan_gaps, 1e-9),
            Check("inversions_solved", unsolved == 0, float(unsolved), 0.0),
            _bounded("inversion_residuals", inv_gaps + reported, 1e-10),
            _bounded("energy_residuals", energy, 1e-12),
            _bounded("propagator_discrepancy", disc_gaps, 1e-5),
        ]
        return checks, scan_gaps + inv_gaps + energy


WORKLOADS = {"verify": Verify, "search": Search, "scan": Scan}
