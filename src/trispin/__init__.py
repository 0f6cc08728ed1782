"""Coherence transfer in a three-qubit Ising chain under a rotating local control.

Exact propagators for the reduced eight-dimensional expectation dynamics, the
final-time boundary-value algebra with its integer-labelled solution family,
a full-Hilbert-space cross-check, and reachability searches over the
fixed-energy rotating ansatz.
"""

__version__ = "0.1.0"
