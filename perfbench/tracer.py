"""Spans around calls into trispin's public functions, recorded from the benchmark's side.

The tracer replaces a function wherever a trispin module binds it (the module
that defines it, every module that imported it by name, and the package
namespace), so calls made inside the program are timed too, such as
``dynamics.build_M`` called from ``propagate_rk4`` or ``exact_state_trajectory``
as bound in ``trispin.search``.  Nothing under ``src/`` is edited.

A span's time is measured around the call.  Its self time is that time minus
the time of the spans it directly encloses.  Work counts come from the call's
arguments or result, so they stay comparable when a later version batches the
work into fewer calls.
"""

from __future__ import annotations

import sys
from time import perf_counter

# consistency_scan evaluates every omega sample on 2 b0 signs x 2 rate signs
# x 2 phase signs x 3 values of r.
SCAN_BRANCHES = 24


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _as_list(x):
    try:
        return list(x)
    except TypeError:
        return [x]


def _grid_points(result) -> int:
    """Grid points on the energy shell, recomputed from the search's own grid spec."""
    spec = result.grid_spec
    res = spec["resolution"]
    lo, hi = spec["bounds"]["bz"]
    shell = spec["omega_hat"] ** 2 - (1.0 + spec["k"] ** 2)
    if res == 1:
        axis = [0.5 * (lo + hi)]
    else:
        axis = [lo + (hi - lo) * i / (res - 1) for i in range(res)]
    return sum(1 for bz in axis if bz * bz <= shell) * res * res


# (defining module, function, span name, counters from (args, kwargs, result))
PROBES = (
    ("trispin.cli", "main", "cli", None),
    ("trispin.report", "run_verification", "report", None),
    ("trispin.dynamics", "propagate_rk4", "dynamics.rk4", lambda a, k, r: {"steps": len(r.taus) - 1}),
    ("trispin.dynamics", "build_M", "dynamics.generator", None),
    ("trispin.dynamics", "build_M_half", "dynamics.generator", None),
    ("trispin.algebra", "build_hamiltonian", "algebra.hamiltonian", None),
    ("trispin.hilbert", "full_hilbert_trajectory", "hilbert.gauss4", lambda a, k, r: {"steps": len(r.taus) - 1}),
    (
        "trispin.hilbert",
        "closure_check",
        "hilbert.closure",
        lambda a, k, r: {"samples": len(_as_list(_arg(a, k, 1, "tau_samples")))},
    ),
    ("trispin.dynamics", "exact_state_trajectory", "dynamics.exact", lambda a, k, r: {"samples": len(r)}),
    ("trispin.search", "grid_search", "search.grid", lambda a, k, r: {"points": _grid_points(r)}),
    ("trispin.search", "min_time_to_target", "search.bisect", None),
    ("trispin.dynamics", "propagate_rotating_exact", "dynamics.rotating_exact", None),
    ("trispin.search", "refine_local", "search.refine", None),
    (
        "trispin.boundary",
        "consistency_scan",
        "boundary.scan",
        lambda a, k, r: {"branch_evals": len(r.omegas) * SCAN_BRANCHES, "consistent": len(r.consistent)},
    ),
    ("trispin.boundary", "invert_to_physical", "boundary.invert", lambda a, k, r: {"solutions": len(r)}),
    (
        "trispin.dynamics",
        "propagator_discrepancy",
        "dynamics.discrepancy",
        lambda a, k, r: {"taus": len(_arg(a, k, 1, "tau_grid"))},
    ),
)


class Span:
    __slots__ = ("calls", "total", "child", "counts", "parents")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.counts: dict[str, int] = {}
        self.parents: dict[str | None, int] = {}

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Aggregated spans for one traced workload pass."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._patches: list[tuple] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def wrap(self, name: str, fn, counters=None):
        span = self.span(name)
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span.calls += 1
                span.total += dt
                span.child += frame[1]
                span.parents[parent] = span.parents.get(parent, 0) + 1
            if counters is not None:
                for key, n in counters(args, kwargs, result).items():
                    span.counts[key] = span.counts.get(key, 0) + n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of each probed function in the loaded trispin modules.

        A probe whose module or function is gone raises, so a renamed function
        fails the traced run instead of reading as a layer that costs 0.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "trispin" or n.startswith("trispin.")]
        for module_name, attr, name, counters in PROBES:
            self.span(name)
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                raise LookupError(f"tracer probe {module_name}.{attr} not found")
            wrapper = self.wrap(name, original, counters)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    def uninstall(self) -> None:
        while self._patches:
            module, key, original = self._patches.pop()
            setattr(module, key, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except tracing.overhead_s, which needs an untraced pass."""
        s = self.span

        def rate(n, seconds):
            return n / seconds if seconds > 0 else 0.0

        rk4, gauss4, exact = s("dynamics.rk4"), s("hilbert.gauss4"), s("dynamics.exact")
        grid, bisect, scan = s("search.grid"), s("search.bisect"), s("boundary.scan")
        points = grid.counts.get("points", 0)
        branch_evals = scan.counts.get("branch_evals", 0)
        return {
            "dynamics.rk4.s": rk4.total,
            "dynamics.rk4.steps": rk4.counts.get("steps", 0),
            "dynamics.rk4.steps_per_s": rate(rk4.counts.get("steps", 0), rk4.total),
            "dynamics.generator.calls": s("dynamics.generator").calls,
            "dynamics.generator.s": s("dynamics.generator").total,
            "algebra.hamiltonian.calls": s("algebra.hamiltonian").calls,
            "algebra.hamiltonian.s": s("algebra.hamiltonian").total,
            "hilbert.gauss4.s": gauss4.total,
            "hilbert.gauss4.steps": gauss4.counts.get("steps", 0),
            "hilbert.gauss4.steps_per_s": rate(gauss4.counts.get("steps", 0), gauss4.total),
            "hilbert.closure.s": s("hilbert.closure").total,
            "hilbert.closure.samples": s("hilbert.closure").counts.get("samples", 0),
            "dynamics.exact.s": exact.total,
            "dynamics.exact.calls": exact.calls,
            "dynamics.exact.samples": exact.counts.get("samples", 0),
            "dynamics.exact.samples_per_s": rate(exact.counts.get("samples", 0), exact.total),
            "search.grid.s": grid.total,
            "search.grid.points": points,
            "search.grid.points_per_s": rate(points, grid.total),
            "search.grid.hit_ratio": bisect.parents.get("search.grid", 0) / points if points else 0.0,
            "search.bisect.s": bisect.total,
            "search.bisect.calls": bisect.calls,
            "dynamics.rotating_exact.calls": s("dynamics.rotating_exact").calls,
            "dynamics.rotating_exact.s": s("dynamics.rotating_exact").total,
            "search.refine.s": s("search.refine").total,
            "search.refine.evals": bisect.parents.get("search.refine", 0),
            "boundary.scan.s": scan.total,
            "boundary.scan.branch_evals": branch_evals,
            "boundary.scan.branch_evals_per_s": rate(branch_evals, scan.total),
            "boundary.scan.consistent": scan.counts.get("consistent", 0),
            "boundary.invert.s": s("boundary.invert").total,
            "boundary.invert.calls": s("boundary.invert").calls,
            "boundary.invert.solutions": s("boundary.invert").counts.get("solutions", 0),
            "dynamics.discrepancy.s": s("dynamics.discrepancy").total,
            "dynamics.discrepancy.taus": s("dynamics.discrepancy").counts.get("taus", 0),
            "report.self_s": s("report").self_time,
            "cli.self_s": s("cli").self_time,
        }
