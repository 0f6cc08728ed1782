"""Command-line interface: reproducible verification runs and file-based exports.

Subcommands: analytic, propagate, verify, sweep, scan, search, invert.  Every
JSON payload is built here; the analytic record reads its label's constants
from ``boundary.analytic_family``, the one entry point per label.  Trajectories
go to CSV with the fixed header ``tau,x1,...,x8,norm``.  Exit codes: 0 success,
1 check failure, 2 usage error.  Only propagate reads a coupling ratio k (from
its parameter file); the others take k = 1, since k = -1 only flips x5..x8.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from .algebra import TAU_STAR, ControlParams, energy_residual
from .boundary import (
    SCAN_SAMPLES,
    TRANSFER_COLUMNS,
    analytic_family,
    column_deviations,
    consistency_scan,
    consistent_scale,
    derived_quantities,
    invert_to_physical,
    sweep_tau,
    transfer_time,
)
from .dynamics import grid_rows, propagator_discrepancy, trajectory
from .hilbert import ROUTES
from .report import COLUMN_TOLERANCE, DEFAULT_SEED, column_gap, run_verification
from .search import COMPONENT_INDEX, grid_search


def _read_json(path: str, what: str) -> dict:
    """The JSON object in path; each caller checks its values (a flag's type, ControlParams.from_dict)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return data


def _set_config_defaults(sp: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make the entries of config file path defaults of subcommand sp, each read from its text like its flag's value."""
    actions = {action.dest: action for action in sp._actions if action.dest not in ("config", "help")}
    defaults = {}
    for key, value in _read_json(path, "config file").items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        if value is None:  # null leaves the flag at its own default
            continue
        try:
            defaults[action.dest] = (action.type or str)(str(value))
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"config file {path} has invalid {key} {value!r}") from None
        if action.choices is not None and defaults[action.dest] not in action.choices:
            raise ValueError(f"config file {path} has invalid {key} {value!r}")
    sp.set_defaults(**defaults)


def _write_json(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, default=float)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def finite(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors (exit 2), like non-numbers."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def finite_or_auto(text: str) -> float | str:
    return text if text == "auto" else finite(text)


def cmd_analytic(args: argparse.Namespace) -> int:
    _require(args.m0 is not None and args.n0 is not None, "--m0 and --n0 are required")
    # invert_to_physical solves only the d = 0 branch, which is the x8 family
    _require(args.omega_hat is None or args.target == "x8", f"--omega-hat realizes only target x8, not {args.target}")
    constants = analytic_family(args.m0, args.n0, args.target)
    tau_star = transfer_time(args.m0, args.n0)
    # the scalar boundary system is written for x8, so it is evaluated at the x8 constants
    residuals = column_deviations(analytic_family(args.m0, args.n0))
    angle = max(half[2] for half in derived_quantities(constants))  # the largest rotation angle of A_pm
    # the columns are cos and sin of it, a float only to its spacing: past COLUMN_TOLERANCE the spacing sets their gap
    columns = column_gap(constants, args.target) if math.ulp(angle) <= COLUMN_TOLERANCE else None
    record = {
        "m0": args.m0,
        "n0": args.n0,
        "target": args.target,
        "tau_star": tau_star,
        **asdict(constants),
        "p": args.m0 + args.n0 + 1,
        "params": None,
        "residuals": {
            "boundary": [float(v) for v in residuals],
            "columns": columns,
            "b_eq": None,
            "d_eq": None,
        },
    }
    if columns is None:
        record["note"] = (f"residuals.columns skipped: the rotation angle {angle:.6g} of A_pm is a float only to "
                          f"{math.ulp(angle):.3g}, above the columns' tolerance {COLUMN_TOLERANCE:g}")
    if args.omega_hat is not None:
        sols = invert_to_physical(args.omega_hat, 1.0, tau_star, constants.b)
        _require(bool(sols), f"no inverted control realizes label (m0, n0) = ({args.m0}, {args.n0}) "
                             f"at omega_hat={args.omega_hat:g}")
        params = sols[0].params
        record["params"] = {key: value for key, value in asdict(params).items() if key != "k"} | {"branch": sols[0].branch}
        record["residuals"]["b_eq"] = sols[0].residual_b
        record["residuals"]["d_eq"] = sols[0].residual_d
        record["energy_residual"] = energy_residual(params)
    _write_json(record, args.out)
    return 0


def _read_params_file(path: str) -> ControlParams:
    data = _read_json(path, "parameter file")
    try:
        return ControlParams.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"parameter file {path} is missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"parameter file {path} has {exc}") from None


def cmd_propagate(args: argparse.Namespace) -> int:
    _require(args.params_file is not None, "--params-file is required")
    _require(args.out is not None, "--out is required for propagate")
    p = _read_params_file(args.params_file)
    _require(args.tau_end > 0, "--tau-end must be positive")
    # refused before anything is allocated: the taus and states alone, 72 bytes a row, must fit in physical memory
    rows, memory = grid_rows(args.tau_end, args.dtau), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # 72.0 * rows: bytes past the float range read inf, where the int's format would overflow; the excess too, as near
    # the edge the two counts read alike at 3 digits
    _require(72 * rows <= memory, f"--tau-end {args.tau_end:g} and --dtau {args.dtau:g} make {rows:.3g} rows, whose taus and "
                                  f"states need {72.0 * rows:.3g} bytes, more than the {memory:.3g} bytes of physical memory "
                                  f"by {72.0 * rows - memory:.3g} bytes")
    with np.errstate(over="ignore", invalid="ignore"):  # huge fields overflow: refused below, not warned about
        traj = trajectory(ROUTES[args.method](p, args.tau_end, args.dtau), args.tau_end, args.dtau)
        disc = propagator_discrepancy(p, traj.taus) if args.method == "expm-integral" else None  # the ansatz's gap
        finite = all(np.all(np.isfinite(norms)) for *_, norms in traj.windows())
        bounded = finite and (disc is None or math.isfinite(disc.max_deviation))
    _require(bounded, f"parameter file {args.params_file} gives a trajectory that is not finite (method {args.method})")
    if disc is not None:
        print(f"propagator discrepancy vs rotating-exact: max={disc.max_deviation:.17g} at tau={disc.tau_at_max:.17g}")
    traj.write_csv(args.out)
    print(f"wrote {len(traj.taus)} samples (method={args.method}) to {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the checks, print them and write the report: exit 0 if none fails (skipped and measured ones do not), else 1."""
    report = run_verification(
        omega_hat=args.omega_hat,
        dtau=args.dtau,
        n_dynamics=args.dynamics_sets,
        grid_resolution=args.resolution,
        scan_samples=args.scan_samples,
        seed=args.seed,
    )
    print(report.to_text())
    if args.out:
        payload = {"context": report.context, "passed": report.passed, "checks": [asdict(c) for c in report.checks]}
        _write_json(payload, args.out)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep_tau(args.max)
    if args.out:
        _write_json(rows, args.out)
    else:
        print("m0,n0,tau_star")
        for row in rows:
            print(f"{row['m0']},{row['n0']},{row['tau_star']:.17g}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    _require(args.range_from is not None and args.range_to is not None, "--from and --to are required")
    result = consistency_scan(args.range_from, args.range_to, samples=args.samples)
    payload = {
        "consistent": [asdict(cp) for cp in result.consistent],
        "curve": [{"omega_hat": float(w), "residual": float(r)} for w, r in zip(result.omegas, result.residuals)],
    }
    if args.out:
        _write_json(payload, args.out)
    else:
        for cp in result.consistent:
            print(f"consistent omega_hat = {cp.omega_hat:.12g}  (b residual {cp.residual_b:.3g}, d residual {cp.residual_d:.3g})")
        if not result.consistent:
            print("no consistent energy scale in range")
        print(f"curve: {len(result.omegas)} samples, min residual {float(np.min(result.residuals)):.3g}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    omega = float(consistent_scale(0)[0]) if args.omega_hat == "auto" else args.omega_hat
    result = grid_search(
        omega,
        1.0,
        target=args.target,
        resolution=args.resolution,
        threshold=args.threshold,
        tau_max=args.tau_max,
        dtau=args.dtau,
        collect_landscape=args.landscape is not None,
    )
    if args.landscape:
        with open(args.landscape, "w") as fh:
            fh.write("bz,omega_rf,tau_to_threshold,peak,peak_tau\n")
            for bz, omega_rf, reached, peak, peak_tau in result.landscape:
                reach_cell, tau_cell = (f"{v:.17g}" if v is not None else "" for v in (reached, peak_tau))
                fh.write(f"{bz:.17g},{omega_rf:.17g},{reach_cell},{peak:.17g},{tau_cell}\n")
    peak, peak_tau, peak_params = result.peaks[args.target]
    payload = {
        "grid_spec": result.grid_spec,
        "feasible": result.feasible,
        "best_tau": result.best_tau,
        "best_params": asdict(result.best_params) if result.best_params else None,
        # with no bz row on the energy shell the peak is the -inf sentinel, which JSON cannot hold
        "achieved": peak if peak_tau is not None else None,
        "achieved_tau": peak_tau,
        "achieved_params": asdict(peak_params) if peak_params else None,
    }
    _write_json(payload, args.out)
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    _require(args.omega_hat is not None, "--omega-hat is required")
    sols = invert_to_physical(args.omega_hat, 1.0, args.tau_star, args.b_target)
    _write_json([asdict(s) for s in sols], args.out)
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="trispin",
        description="Coherence transfer in a driven three-qubit Ising chain: solve, propagate, verify.",
        allow_abbrev=False,  # flags, like config keys, are full names: a removed flag must not become another
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_common(sp):
        sp.add_argument("--config", default=None, help="JSON config file; flags override its entries")
        sp.add_argument("--out", default=None, help="output path (defaults to stdout where applicable)")

    sp = commands["analytic"] = sub.add_parser("analytic", help="closed-form solution record for an integer branch")
    sp.add_argument("--m0", type=int, default=None)
    sp.add_argument("--n0", type=int, default=None)
    sp.add_argument("--target", default="x8", choices=tuple(TRANSFER_COLUMNS))
    sp.add_argument("--omega-hat", type=finite, default=None, help="attach a physical realization at this energy scale")
    add_common(sp)
    sp.set_defaults(func=cmd_analytic)

    sp = commands["propagate"] = sub.add_parser("propagate", help="propagate x from e1 and export the trajectory CSV")
    sp.add_argument("--params-file", default=None, help="JSON file with k, omega_hat, b0, bz, omega_rf, theta0")
    sp.add_argument("--method", default="rk4", choices=tuple(ROUTES))
    sp.add_argument("--dtau", type=finite, default=1e-3)
    sp.add_argument("--tau-end", type=finite, default=3.0 * TAU_STAR)
    add_common(sp)
    sp.set_defaults(func=cmd_propagate)

    sp = commands["verify"] = sub.add_parser("verify", help="run the full verification suite")
    sp.add_argument("--omega-hat", type=finite_or_auto, default="auto", help="energy scale, or 'auto' to pick a consistent one")
    sp.add_argument("--dtau", type=finite, default=1e-4)
    sp.add_argument("--dynamics-sets", type=int, default=5)
    sp.add_argument("--resolution", type=int, default=21)
    sp.add_argument("--scan-samples", type=int, default=SCAN_SAMPLES)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = commands["sweep"] = sub.add_parser("sweep", help="table of transfer times over the integer grid")
    sp.add_argument("--max", type=int, default=3)
    add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = commands["scan"] = sub.add_parser("scan", help="scan energy scales for closed-form consistency")
    sp.add_argument("--from", dest="range_from", type=finite, default=None)
    sp.add_argument("--to", dest="range_to", type=finite, default=None)
    sp.add_argument("--samples", type=int, default=SCAN_SAMPLES)
    add_common(sp)
    sp.set_defaults(func=cmd_scan)

    sp = commands["search"] = sub.add_parser("search", help="grid search of the ansatz for a transfer target")
    sp.add_argument("--target", default="x8", choices=tuple(COMPONENT_INDEX))
    sp.add_argument("--omega-hat", type=finite_or_auto, default="auto")
    sp.add_argument("--resolution", type=int, default=21)
    sp.add_argument("--threshold", type=finite, default=0.999)
    sp.add_argument("--tau-max", type=finite, default=None)
    sp.add_argument("--dtau", type=finite, default=1e-2)
    sp.add_argument("--landscape", default=None, help="also write the ((bz, omega_rf) -> reach time, peak) CSV here")
    add_common(sp)
    sp.set_defaults(func=cmd_search)

    sp = commands["invert"] = sub.add_parser("invert", help="solve for controls reproducing target boundary constants")
    sp.add_argument("--omega-hat", type=finite, default=None)
    sp.add_argument("--tau-star", type=finite, default=TAU_STAR)
    sp.add_argument("--b-target", type=finite, default=-math.pi)
    add_common(sp)
    sp.set_defaults(func=cmd_invert)

    return parser, commands


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # Config entries become subcommand defaults, so explicit flags win.
            _set_config_defaults(commands[args.command], args.command, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # OSError: an input or output path that cannot be opened; MemoryError: a grid too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
