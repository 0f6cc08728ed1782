"""One workload pass (or one set-up measurement) in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --mode pass|setup --workload NAME \
        --seed N --size full|smoke --trace 0|1

Imports trispin from ROOT/src, times the set-up, then (mode "pass") runs the
workload once with the clock around it, reads the peak resident set, runs the
checks and prints one JSON object as the last line of stdout.  run.py starts
this script with the BLAS/OpenMP thread counts pinned in the environment.

While the set-up and the pass run, a SpeedProbe times a fixed reference
kernel every PROBE_INTERVAL_S on the same thread.  Each time is reported both
as measured (``*_raw_s``) and rescaled to the speed at which the kernel takes
REF_KERNEL_S (``setup_s``, ``wall_s``); see "Noise" in README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import sys
import tempfile
import time
import traceback


PROBE_INTERVAL_S = 0.02
# Seconds of one reference kernel call at the speed the rescaled times are
# quoted at; about the kernel's median time on the machine of README.md.
REF_KERNEL_S = 1.0e-4


def _reference_kernel() -> float:
    """Fixed interpreter-bound work, independent of trispin and of numpy."""
    x = 0.0
    for i in range(1500):
        x = x * 0.5 + i * 1.0001
    return x


class SpeedProbe:
    """Mean time of the reference kernel, sampled on a timer while a region runs.

    The machine this benchmark was built on switches its speed every fraction
    of a second and drifts through slower and faster stretches.  Sampling the
    kernel inside the region measures the speed the region actually got.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> SpeedProbe:
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a region shorter than one interval
            self._sample()

    def rescale(self, seconds: float) -> float:
        """``seconds`` as it would read at the reference kernel speed."""
        return seconds * REF_KERNEL_S * len(self.samples) / sum(self.samples)

    def summary(self) -> dict:
        return {"samples": len(self.samples), "mean_s": sum(self.samples) / len(self.samples)}


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _set_up(root: str) -> dict:
    """Time to import trispin and finish its lazy initialisation."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        import numpy as np
        import trispin
        from trispin import algebra, dynamics

        algebra.coherence_basis()
        # the first propagation resolves the phase orientation and warms scipy's expm
        p = algebra.ControlParams(k=1.0, omega_hat=2.4, b0=1.5, bz=0.3, omega_rf=1.7, theta0=0.9)
        dynamics.exact_state_trajectory(p, np.eye(8)[0], np.array([0.0, 0.5]))
        seconds = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(trispin.__file__), os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"trispin was imported from {trispin.__file__}, not from {src}")
    return {"setup_s": probe.rescale(seconds), "setup_raw_s": seconds, "setup_probe": probe.summary()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--mode", choices=("pass", "setup"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    result = _set_up(args.root)
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.size)
    tr = tracer.Tracer() if args.trace else None
    workdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        if tr is not None:
            tr.install()
        error = None
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            try:
                out = workload.run(inputs, tmp)
            except Exception:  # a workload that raises fails every one of its checks
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        if tr is not None:
            tr.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            try:
                checks, gaps = workload.check(inputs, out)
            except Exception:
                error = traceback.format_exc()
    if error is not None:
        print(error, file=sys.stderr)
        checks = [workloads.Check(name, False, "raised", None) for name in workload.CHECKS]
        gaps = [float("inf")]
    result.update(
        wall_s=probe.rescale(wall),
        wall_raw_s=wall,
        pass_probe=probe.summary(),
        peak_rss_mb=rss_mb,
        checks=[c.to_dict() for c in checks],
        attempted=len(checks),
        failed=sum(not c.ok for c in checks),
        accuracy_digits=workloads.accuracy_digits(gaps),
        inputs=inputs,
        environment=_environment(),
    )
    if tr is not None:
        result["layers"] = tr.metrics()
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
