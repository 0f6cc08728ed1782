import json
import math
import tracemalloc
from pathlib import Path

import mutants
import numpy as np
import pytest
from hypothesis import settings

from trispin.algebra import ControlParams, transverse_amplitude

pytest.register_assert_rewrite("grid_reference")

# property tests draw the same examples on every run of the same test selection
# (hypothesis also draws literals from the loaded modules, so running one file
# alone can give other examples); eigendecompositions make per-example timings
# too uneven for a deadline
settings.register_profile("trispin", derandomize=True, deadline=None)
settings.load_profile("trispin")

# controls of degenerate co-rotating spectra: c_pm = 2*(bz +- k) - omega_rf is the (2,4)-plane rate of each half's
# co-rotating generator, so b0 = 0 with c_pm = +-2 repeats a rate, and c_+ = 0 or c_- = 0 zeroes a pair
DEGENERATE = {
    "w1_equals_w2": ControlParams(k=1.0, omega_hat=math.sqrt(3.0), b0=0.0, bz=1.0, omega_rf=2.0, theta0=0.0),
    "zero_rates_plus": ControlParams(1.0, 2.5, transverse_amplitude(2.5, 1.0, 1.0), 1.0, 4.0, 0.6),
    "zero_rates_minus": ControlParams(-1.0, 2.5, transverse_amplitude(2.5, -1.0, 1.0), 1.0, 4.0, 0.6),
}
# the closed form's eight labels omega_sign x theta_sign x r, in the order of its axes: closed_form_params keeps the
# first of each pair of equal fields, omega_sign = 1 and theta_sign = -1 (consistency_scan's docstring says why)
SCAN_LABELS = [{"omega_sign": o, "theta_sign": t, "r": r} for o in (1, -1) for t in (1, -1) for r in (0, 1)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def su2_matrices(quaternions):
    """U = q0 I - i(q1 sx + q2 sy + q3 sz) for quaternions on the last axis, shape (..., 2, 2), complex.  A last axis of
    8 holds two quaternions, the blocks (g_+, g_-) that ``2 * x @ hilbert._PROJECTION.T`` reads off a row x1..x8 of the
    full-space oracle: the result then has shape (..., 2, 2, 2)."""
    q = np.asarray(quaternions, dtype=float)
    if q.shape[-1] == 8:
        q = q.reshape(q.shape[:-1] + (2, 4))
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    return np.stack([q0 - 1j * q3, -q2 - 1j * q1, q2 - 1j * q1, q0 + 1j * q3], axis=-1).reshape(q0.shape + (2, 2))


@pytest.fixture(scope="session")
def su2():
    """The 2x2 complex view of sector quaternions (``su2_matrices``), which the package itself never builds."""
    return su2_matrices


def _refuse(literal):
    raise ValueError(f"{literal} is not JSON")


@pytest.fixture(scope="session")
def strict_json():
    """strict_json(path): the JSON value in path, NaN and Infinity refused: Python's json writes and reads them, but
    RFC 8259 has neither."""
    return lambda path: json.loads(Path(path).read_text(), parse_constant=_refuse)


def _traced(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced():
    """traced(call): (call(), the tracemalloc peak while it ran), tracing on for the call alone."""
    return _traced


@pytest.fixture
def plant(monkeypatch):
    """plant(row): a row of the mutation table (mutants.py) planted in the loaded package for one test."""
    return lambda row: mutants.plant(row, monkeypatch.setattr)
