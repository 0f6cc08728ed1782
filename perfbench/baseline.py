"""Measure the baseline: untraced runs on several seeds per workload, then one traced run each.

    python3 perfbench/baseline.py [--out perfbench/results/baseline.json]

Every run is one run.py invocation, made as the benchmark's command is made,
for each workload in BENCHMARK.json, on seeds 1..RUNS, with its run_seconds.
Runs take turns across workloads (seed 1 of each, then seed 2, ...), so
every workload sees the same stretch of machine time.  The output records
each run's metrics, checks and provenance, and for each workload and
end-to-end metric the median, the quartiles from statistics.quantiles(n=4),
the spread (q3 - q1) / median, and whether that spread is below a third of
the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out = os.path.relpath(os.path.join(tmp, "record.json"), ROOT)
        cmd = [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", out,
        ]  # fmt: skip
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
        with open(os.path.join(ROOT, out)) as fh:
            full = json.load(fh)
    record = full["records"][0]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "result": result,
        "pass_wall_s": [p["wall_s"] for p in record["passes"]],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in record["passes"]],
        "setup_samples": record["setup_samples"],
        "checks": [p["checks"] for p in record["passes"]],
        "inputs": record["passes"][0]["inputs"],
        "provenance": full["provenance"],
    }


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "n": len(values),
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
            "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3.0,
            "values": values,
        }
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "results", "baseline.json"))
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    untraced: dict[str, list] = {w: [] for w in names}
    for seed in range(1, RUNS + 1):
        for workload in names:
            run = run_once(workload, seed, seconds, 0)
            untraced[workload].append(run)
            metrics = "  ".join(f"{k}={v['value']:.6g}" for k, v in run["result"]["metrics"].items())
            print(f"{workload} seed {seed}: {metrics}  failed={run['result']['failed']}", flush=True)
    traced = {}
    for workload in names:
        traced[workload] = run_once(workload, 1, seconds, 1)
        print(f"{workload} traced: done", flush=True)

    payload = {
        "what": (
            f"trispin benchmark baseline: untraced runs on seeds 1..{RUNS} per workload plus one traced run"
            " (seed 1). For reference only: the machine drifts between sessions, so the before figures of a"
            " performance claim come from parent and change runs taking turns in one session."
        ),
        "run_seconds": seconds,
        "provenance": untraced[names[0]][0]["provenance"],
        "workloads": {
            w: {
                "summary": summarise(untraced[w], bounds),
                "attempted": sum(r["result"]["attempted"] for r in untraced[w]),
                "failed": sum(r["result"]["failed"] for r in untraced[w]),
                "per_layer": {k: v["value"] for k, v in traced[w]["result"]["metrics"].items()},
                "runs": untraced[w],
                "traced_run": traced[w],
            }
            for w in names
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
    for w in names:
        for name, s in payload["workloads"][w]["summary"].items():
            print(f"{w:7s} {name:16s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}  bound {s['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
