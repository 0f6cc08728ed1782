"""The one-line faults the suite plants, in one table, and a runner that plants one in a copy of ``src/``.

Each row is a plausible bug: one text of one file of ``src/trispin`` replaced, a text that occurs there once.  Its
record says what ``trispin verify``, run with the row's flags, does with the fault in place: the checks that fail, or,
where verify passes, why; and whether Tier-1 catches it.  Tier-1 plants every row in process (``plant``, through the
``plant`` fixture of conftest.py) and holds verify to the row's record (test_report.py).  In-process planting compiles
again the one top-level statement that holds the row's text and rebinds the names it binds, so it cannot plant a fault
that acts only at import time, such as a constant derived at import from the planted one; the runner plants in files.
It plants each row in a temporary copy of ``src/`` and runs Tier-1 (pytest -x) on it in a subprocess, less the tests
that plant that row, whose own planting would fail there; the tests that plant other rows run, each a second fault:

    python tests/mutants.py [ID ...]  # about 4 min 20 s for the 32 rows (2 vCPU), each at most one Tier-1 run

It prints one line a row and exits 1 if any outcome differs from the row's record.
"""

from __future__ import annotations

import __future__
import argparse
import ast
import importlib
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# verify's flags beyond its defaults: no dynamics sets or one, and a 3 x 3 grid or the default 21 x 21
QUICK = ("--dynamics-sets", "0", "--resolution", "3", "--scan-samples", "801")
ONE_SET = ("--dynamics-sets", "1", "--resolution", "3", "--scan-samples", "801")
GRID = ("--dynamics-sets", "0", "--scan-samples", "801")
BOTH = ("cross_validate_full_vs_rk4", "rotating_exact_vs_rk4")

# the tests that plant one row of this table, besides test_each_row_gives_its_verify_record's case of each row
PLANTING = {"test_energy_mutant_fails_verify": "energy_shell", "test_skipped_window_fails_both_oracle_checks": "skipped_window",
            "test_phase_gate_refuses_a_shifted_scale": "scale_radicand"}


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # under src/trispin
    old: str
    new: str
    flags: tuple  # verify's flags
    fails: tuple = ()  # the checks verify fails, in report order; none if it passes
    reason: str = ""  # why verify passes; empty if it fails
    tier1: bool = True  # whether Tier-1 fails on a copy with the row planted (the runner)

    def __post_init__(self):
        assert bool(self.fails) != bool(self.reason), self.id


TABLE = {row.id: row for row in [
    # the second term of r[0] times 1.001, and the sign of the c+ d term of r[4]: at the family constants each term is
    # 0 alone, so only constants away from the labels see them
    Mutant("r0_term", "boundary.py", "- (x_p - 2 * a * a + sd_p) * czm", "- 1.001 * (x_p - 2 * a * a + sd_p) * czm",
           QUICK, ("boundary_equations_generic",)),
    Mutant("r4_sign", "boundary.py", "r[4] = b * (czp - czm) - cp * d", "r[4] = b * (czp - czm) + cp * d",
           QUICK, ("boundary_equations_generic",)),
    # the radicand 1e-6 too large: b is 9e-14 off, under its 1e-9 gate; the phase 2.4e-7 off, over its 1.6e-12
    Mutant("scale_radicand", "boundary.py", "PI**2 / 3.0)", "PI**2 / 3.0 + 1e-6)", QUICK, ("consistency_scan",)),
    # b0 0.01 under the root of transverse_amplitude: only the energy check reads the energy
    Mutant("energy_shell", "algebra.py", "math.sqrt(r)", "math.sqrt(r + 0.01)", ONE_SET, ("energy_residual_max",)),
    # the step map's frame turn, R(-omega_rf h) turned the other way: RK4's co-rotating rows
    Mutant("rk4_step_turn", "dynamics.py", "-np.sin(angle) * _TURN", "+np.sin(angle) * _TURN", ONE_SET, BOTH),
    # RK4's turn to the lab frame, as -K in _TURN_PARTS or as the sine of its angles: RK4's last row in the lab frame
    Mutant("turn_parts", "dynamics.py", "-_TURN])", "_TURN])", ONE_SET, BOTH),
    Mutant("block_turn_sine", "dynamics.py", "np.sin(phi)[..., None]", "-np.sin(phi)[..., None]", ONE_SET, BOTH),
    # the plane turn of the mode rows: the full and exact last rows in the lab frame
    Mutant("direct_turn", "dynamics.py", "f(phi)[..., None, None]", "f(-phi)[..., None, None]", ONE_SET, BOTH),
    # each oracle's own frame: the sectors' rotating field and the reduced co-rotating generator
    Mutant("sector_frame", "hilbert.py", "m[..., 2] -= ", "m[..., 2] += ", ONE_SET, BOTH[:1]),
    Mutant("rotating_J", "dynamics.py", "- np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J",
           "+ np.asarray(p.omega_rf, dtype=float)[..., None, None, None] * J", ONE_SET, BOTH[1:]),
    # the comparison's last window left out: the rows compared pass their gates, but the row count does not
    Mutant("skipped_window", "report.py", "for lo in range(0, n, share):", "for lo in range(0, n, share)[:-1]:",
           ONE_SET, BOTH),
    # RK4's shortened last step taken as a whole one: its last row, compared in the lab frame
    Mutant("rk4_last_step", "dynamics.py", "h = np.append(dtau, np.diff(taus[-2:]))", "h = np.append(dtau, dtau)",
           ONE_SET, BOTH),
    # the comparison's groups one set short: at 7 sets (groups of 6 and 1) a set is never compared, and the row count
    # says so; verify's default 5 sets are one group, which loses none
    Mutant("set_group_edge", "report.py", "group = params_list[first : first + size]",
           "group = params_list[first : first + size - 1]",
           ("--dynamics-sets", "7", "--resolution", "3", "--scan-samples", "801"), BOTH),
    # a partial last block made from the block start before its own: RK4's block starts are a _Rows of their own,
    # which the mode tables' are not, so the oracles part
    Mutant("partial_block_start", "dynamics.py", "starts.take(full, full + 1) @ self.table",
           "starts.take(full - 1, full) @ self.table", ONE_SET, BOTH),
    # a range inside one block made by a one-row product: rounding only
    Mutant("single_block_window", "dynamics.py", "if j1 - j0 == 1 and count > b:", "if j1 - j0 == 0 and count > b:",
           ONE_SET, reason="only the last bits of a one-block window change, far inside the 1e-8 oracle gates"),
    # the last tau of each whole window of _on_grid left unchecked
    Mutant("grid_window_edge", "dynamics.py", "min(lo + WINDOW_ROWS, n)) for lo", "min(lo + WINDOW_ROWS - 1, n)) for lo",
           ONE_SET, reason="every tau verify propagates lies on its grid, so a tau the grid check skips changes nothing"),
    # matrix states on the block grid
    Mutant("matrix_states_on_grid", "dynamics.py", "table.shape[-1] == 8 and _on_grid(taus)", "_on_grid(taus)", ONE_SET,
           reason="only propagator_discrepancy, a measured check, propagates matrix states: its rounding moves"),
    # the full-space route left co-rotating: its last row in the lab frame
    Mutant("hilbert_unturned", "hilbert.py", "mode_route(sector_table(p), p.omega_rf,", "mode_route(sector_table(p), 0.0,",
           ONE_SET, BOTH[:1]),
    # the last pair of every mode-table group lost, and a group's last block when it holds one pair
    Mutant("group_last_pair", "search.py", "min(first + _GROUP_PAIRS, pairs)", "min(first + _GROUP_PAIRS - 1, pairs)", GRID,
           reason="verify's grid, 168 pairs, is one group, which loses no pair"),
    Mutant("one_pair_block", "search.py", "for n in range(0, len(rates), width))", "for n in range(0, len(rates) - 1, width))",
           GRID, reason="verify's grid ends in a block of 6 pairs, which is not lost"),
    # refusals only a row of a refusal table reads (test_cli.py, test_boundary.py): scan's own check of --from and --to,
    # a float flag that takes inf, and the inversion's refusal of b_target = 0
    Mutant("scan_range_required", "cli.py", "_require(args.range_from is not None and args.range_to is not None,",
           "_require(True,", QUICK, reason="verify runs no scan command, and its scan range is its own"),
    Mutant("finite_takes_inf", "cli.py", "if not math.isfinite(value):", "if math.isnan(value):", QUICK,
           reason="verify's flags here are all finite"),
    Mutant("zero_b_target", "boundary.py", "if b_target == 0.0:", "if False:", QUICK,
           reason="verify inverts only at b = -pi"),
    # one rule of report.py pushed to its fail side: its check, and only it, fails
    Mutant("family_time_shift", "report.py", "tau_star = transfer_time(0, 0)", "tau_star = transfer_time(0, 0) + 1e-9", QUICK,
           ("family_min_time",)),
    Mutant("sweep_reversed", "report.py", "rows = sweep_tau(3)", "rows = sweep_tau(3)[::-1]", QUICK, ("sweep_minimum",)),
    Mutant("scan_first_dropped", "report.py", "bool(scan.consistent),", "bool(scan.consistent[1:]),", QUICK,
           ("consistency_scan",)),
    # at 0.95 the grid's first crossing is at tau 1.18, under 0.95 * tau_star = 1.29
    Mutant("grid_threshold_low", "report.py", "resolution=grid_resolution, threshold=0.999)",
           "resolution=grid_resolution, threshold=0.95)", GRID, ("ansatz_grid_search_x8",)),
    Mutant("x7_bound_low", "report.py", "x7 < 0.999,", "x7 < 0.8,", GRID, ("no_transfer_probe_x7",)),
    # faults no verify check reads yet, each named with the ROADMAP item that should catch it
    Mutant("hypot_to_abs", "search.py", "np.hypot(x[..., 1::4], x[..., 3::4])", "np.abs(x[..., 1::4])", GRID,
           reason="the grid's x8 peak falls and no crossing is read, so both grid checks still pass (items 5, 7)"),
    Mutant("mirror_sign", "search.py", "np.where(mirrored, -low, -math.inf)", "np.where(mirrored, low, -math.inf)", GRID,
           reason="x7's peak stays under its 0.999 bound, so both grid checks still pass (items 5, 8)"),
    Mutant("early_best_tau_zero", "report.py", "gs.best_tau > 0.95 * tau_star", "gs.best_tau > 0", GRID,
           reason="no grid control reaches 0.999, so no crossing is judged (item 7)"),
    Mutant("sweep_unsorted", "boundary.py", 'return sorted(rows, key=lambda row: row["tau_star"])', "return list(rows)", GRID,
           reason="label (0, 0) is first either way, and (0, 1) after it takes longer (item 1)"),
]}


def _planted(text: str, row: Mutant) -> str:
    """text, the source of row's file, with row planted; its old text must occur there once."""
    if text.count(row.old) != 1:
        raise ValueError(f"{row.id}: {row.old!r} occurs {text.count(row.old)} times in {row.file}, not once")
    return text.replace(row.old, row.new)


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets]


def plant(row: Mutant, setattr) -> None:
    """Plant row in the loaded package: the top-level statement of its file that holds old is compiled again with new,
    in a copy of its module's globals, and each name it binds is set by setattr (monkeypatch.setattr, say) in every
    loaded trispin module that holds the same object by that name, as it would be with the file changed."""
    module = importlib.import_module(f"trispin.{row.file.removesuffix('.py')}")
    source = Path(module.__file__).read_text()
    planted = _planted(source, row).splitlines(keepends=True)  # old and new are one line: the lines stay in place
    line = source.count("\n", 0, source.index(row.old)) + 1
    node = next(n for n in ast.parse(source).body if n.lineno <= line <= n.end_lineno)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    statement = "".join(planted[first - 1 : node.end_lineno])
    namespace = dict(vars(module))
    flags = __future__.annotations.compiler_flag
    exec(compile("\n" * (first - 1) + statement, module.__file__, "exec", flags=flags, dont_inherit=True), namespace)
    for name in _bound_names(node):
        was = getattr(module, name)
        for loaded in [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "trispin"]:
            if getattr(loaded, name, None) is was:
                setattr(loaded, name, namespace[name])


def _planted_copy(row: Mutant, into: Path) -> dict:
    """Copy src/ into into with row planted; the environment that imports the copy."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "trispin" / row.file
    path.write_text(_planted(path.read_text(), row))
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def tier1_outcome(row: Mutant) -> tuple[str, bool]:
    """(the first Tier-1 test that fails with row planted, or that none does, whether that is its record)."""
    with tempfile.TemporaryDirectory() as tmp:
        env = _planted_copy(row, Path(tmp))
        # row cannot be planted again in the copy; rows share no text, so every other row still can
        left_out = [f"test_each_row_gives_its_verify_record[{row.id}]"]
        left_out += [test for test, planted in PLANTING.items() if planted == row.id]
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-k",
                   f"not ({' or '.join(left_out)})", str(ROOT / "tests")]
        run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return "not caught", not row.tier1
    if run.returncode != 1:  # no test failed: pytest itself did (exit 2 to 5)
        return f"pytest exit {run.returncode}: {(run.stderr.strip().splitlines() or [''])[-1]}", False
    first = next((line for line in run.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), "no summary line")
    return f"caught: {first.split(' - ')[0]}", row.tier1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Plant each row of the mutation table in a copy of src/ and run Tier-1.")
    parser.add_argument("ids", nargs="*", help="rows to run (default: all)")
    args = parser.parse_args(argv)
    differ = []
    for row in [TABLE[i] for i in args.ids] if args.ids else TABLE.values():
        said, as_recorded = tier1_outcome(row)
        record = "" if as_recorded else "   <-- differs from its record"
        print(f"{row.id:24s} {said}{record}", flush=True)
        differ += [] if as_recorded else [row.id]
    print(f"{len(differ)} row(s) differ from their record" + (f": {', '.join(differ)}" if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
