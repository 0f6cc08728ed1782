"""trispin benchmark: one workload, timed end to end, or traced per module.

    python3 perfbench/run.py --workload verify|search|scan|all --seed N \
        --seconds S --trace 0|1 [--size full|smoke] [--out results.json]

Run from the root of a checkout; trispin is imported from ./src.  Every pass
runs in a fresh single-process interpreter (perfbench/worker.py) with the
BLAS/OpenMP thread counts pinned to 1.

--trace 0  runs a fixed number of passes, round(--seconds / PASS_S[workload])
           and at least one, and reports the fastest pass's wall time, the
           median set-up time over SETUP_SAMPLES fresh interpreters, the
           median peak RSS and the accuracy digits.  Wall and set-up times
           are rescaled to a reference machine speed that worker.py samples
           while they run.
--trace 1  runs one untraced and one traced pass and reports every per-layer
           metric, plus tracing.overhead_s = traced minus untraced wall_s.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --out also writes the
full record (provenance, inputs, every pass and check) as JSON.  Exit code 0
means the benchmark ran; failed checks show in the JSON, not the exit code.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify", "search", "scan")
SETUP_SAMPLES = 5
# Seconds of one full-size pass at the seed commit.  They fix how many passes
# fill --seconds, so every commit takes the fastest of the same number of
# passes and a faster program does not also get more samples to pick from.
PASS_S = {"verify": 30.0, "search": 7.0, "scan": 8.0}
# Each workload ends within this budget; a pass that would overrun it is killed.
DEADLINE_S = 170.0
# One thread everywhere: the program's matrices are 4x4 and 8x8, where BLAS
# threads only add scheduler noise on a shared machine, and a fixed thread
# count makes accuracy_digits repeat bit for bit.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}


class BenchError(RuntimeError):
    pass


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith(".hit_ratio"):
        return "ratio"
    return "count"


def worker(mode: str, workload: str, seed: int, size: str, trace: int, deadline: float) -> dict:
    """Run worker.py once and return its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--root", ROOT,
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", str(trace),
    ]  # fmt: skip
    env = dict(os.environ, **THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the next pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish within the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def provenance(args: argparse.Namespace, environment: dict) -> dict:
    commit, dirty = "unknown", None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_modified": dirty,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        **environment,
        "thread_env": THREAD_ENV,
        "seed": args.seed,
        "argv": [os.path.relpath(a, ROOT) if a.startswith(ROOT + os.sep) else a for a in sys.argv],
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def measure(workload: str, args: argparse.Namespace, deadline: float) -> dict:
    """All passes for one workload; returns metrics, check totals and the raw passes."""
    if args.trace:
        plain = worker("pass", workload, args.seed, args.size, 0, deadline)
        traced = worker("pass", workload, args.seed, args.size, 1, deadline)
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        setups = []
    else:
        # set-up samples are taken before, during and after the passes, so
        # they do not all fall into one stretch of a noisy machine
        setups = [worker("setup", workload, args.seed, args.size, 0, deadline) for _ in range(2)]
        n = max(1, round(args.seconds / PASS_S[workload]))
        passes = [worker("pass", workload, args.seed, args.size, 0, deadline) for _ in range(n)]
        setups += passes
        while len(setups) < SETUP_SAMPLES:
            setups.append(worker("setup", workload, args.seed, args.size, 0, deadline))
        setups = [{k: p[k] for k in ("setup_s", "setup_raw_s", "setup_probe")} for p in setups]
        metrics = {
            # rescaled to the reference speed, then the fastest: see "Noise" in README.md
            "wall_s": min(p["wall_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "accuracy_digits": min(p["accuracy_digits"] for p in passes),
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "setup_samples": setups,
        "passes": passes,
    }


def summary_lines(record: dict) -> list[str]:
    name = record["workload"]
    n = sum(1 for p in record["passes"] if "layers" not in p)
    lines = []
    for metric, value in record["metrics"].items():
        note = ""
        if metric == "wall_s":
            raw = ", ".join(f"{p['wall_raw_s']:.4g}" for p in record["passes"] if "layers" not in p)
            note = f"  (fastest of {n} pass{'es' if n != 1 else ''}, rescaled; as measured {raw} s)"
        elif metric == "peak_rss_mb":
            note = f"  (median of {n} pass{'es' if n != 1 else ''})"
        elif metric == "setup_s":
            raw = statistics.median(p["setup_raw_s"] for p in record["setup_samples"])
            note = f"  (median of {len(record['setup_samples'])} interpreters, rescaled; as measured {raw:.4g} s)"
        lines.append(f"{name:7s} {metric:34s} {value:>14.6g} {unit(metric)}{note}")
    lines.append(
        f"{name:7s} {'fail_frac':34s} {record['fail_frac']:>14.6g} ratio"
        f"  ({record['failed']} of {record['attempted']} checks failed)"
    )
    pinned = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    reported = record["passes"][0]["environment"]["blas_threads"]
    lines.append(f"{name:7s} {'threads':34s} {pinned}; OpenBLAS reports {reported}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="trispin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", default=None, help="also write the full record here as JSON")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "trispin", "__init__.py")):
        print(f"error: no trispin sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [measure(name, args, time.monotonic() + DEADLINE_S) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for record in records:
        print("\n".join(summary_lines(record)))
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for metric, value in record["metrics"].items():
            key = f"{record['workload']}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit(metric)}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.out:
        full = {
            "provenance": provenance(args, records[0]["passes"][0]["environment"]),
            "workload": args.workload,
            "size": args.size,
            "seconds": args.seconds,
            "trace": args.trace,
            "records": records,
        }
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
