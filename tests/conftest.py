import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run of the same test selection
# (hypothesis also draws literals from the loaded modules, so running one file
# alone can give other examples); eigendecompositions make per-example timings
# too uneven for a deadline
settings.register_profile("trispin", derandomize=True, deadline=None)
settings.load_profile("trispin")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def su2_matrices(quaternions):
    """U = q0 I - i(q1 sx + q2 sy + q3 sz) for quaternions on the last axis, shape (..., 2, 2), complex.

    A last axis of 8 holds two quaternions, the blocks (g_+, g_-) that ``2 * x @ hilbert._PROJECTION.T`` reads
    off a row x1..x8 of the full-space oracle: the result then has shape (..., 2, 2, 2).
    """
    q = np.asarray(quaternions, dtype=float)
    if q.shape[-1] == 8:
        q = q.reshape(q.shape[:-1] + (2, 4))
    q0, q1, q2, q3 = np.moveaxis(q, -1, 0)
    return np.stack([q0 - 1j * q3, -q2 - 1j * q1, q2 - 1j * q1, q0 + 1j * q3], axis=-1).reshape(q0.shape + (2, 2))


@pytest.fixture(scope="session")
def su2():
    """The 2x2 complex view of sector quaternions (``su2_matrices``), which the package itself never builds."""
    return su2_matrices


@pytest.fixture
def mutate(monkeypatch):
    """mutate(module, name, old, new): module.<name>, for one test, compiled from its source with old, which must occur
    once, replaced by new, as a one-line bug would change it.  The copy reads a snapshot of the module's globals."""

    def apply(module, name, old, new):
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(module, name, namespace[name])

    return apply
