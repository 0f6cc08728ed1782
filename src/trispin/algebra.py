"""Operator algebra for a three-qubit Ising chain driven on the middle site.

Everything is expressed in rescaled, dimensionless units: time is measured in
units of the first Ising bond, fields and the energy scale are divided by it.
The chain Hamiltonian is

    H(tau) = sz1*sz2 + k*sz2*sz3 + B(tau).sigma2,

with a static z component and a transverse component rotating at a constant
rate, B(tau) = (b0*cos(theta), b0*sin(theta), bz), theta = omega_rf*tau + theta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ID2 = np.eye(2, dtype=complex)


def embed3(op1: np.ndarray | None, op2: np.ndarray | None, op3: np.ndarray | None) -> np.ndarray:
    """Kronecker product over sites 1,2,3; ``None`` stands for the identity."""
    a, b, c = (ID2 if o is None else np.asarray(o, dtype=complex) for o in (op1, op2, op3))
    return np.kron(np.kron(a, b), c)


# The eight operators whose expectation values close under the chain dynamics,
# in the frozen index order used by every other module:
#   x1=sx1, x2=sy1 sx2, x3=sy1 sz2, x4=sy1 sy2,
#   x5=sx1 sz3, x6=sy1 sx2 sz3, x7=sy1 sz2 sz3, x8=sy1 sy2 sz3.
_BASIS_AXES = (
    ("x", None, None),
    ("y", "x", None),
    ("y", "z", None),
    ("y", "y", None),
    ("x", None, "z"),
    ("y", "x", "z"),
    ("y", "z", "z"),
    ("y", "y", "z"),
)

# Initial state of every transfer experiment: <sx1> = 1, all other coherences 0.
E1 = np.eye(8)[0]
E1.setflags(write=False)

# Minimal transfer time sqrt(3)*pi/4 of the closed-form solution family.
TAU_STAR = 0.25 * math.sqrt(3.0) * math.pi


@dataclass(frozen=True)
class ControlParams:
    """Dimensionless controls of the rotating drive.

    k         coupling ratio of the second Ising bond to the first
    omega_hat total energy scale entering the fixed-norm constraint
    b0        amplitude of the rotating transverse field
    bz        static z field
    omega_rf  rotation rate of the transverse field
    theta0    initial phase of the transverse field (radians)
    """

    k: float
    omega_hat: float
    b0: float
    bz: float
    omega_rf: float
    theta0: float

    def theta(self, tau: float) -> float:
        return self.omega_rf * tau + self.theta0

    @classmethod
    def from_dict(cls, data: dict) -> "ControlParams":
        """Controls from the six fields of a mapping; a bool, nan, inf or non-number field, or omega_hat <= 0, is a ValueError."""
        values = {}
        for f in ("k", "omega_hat", "b0", "bz", "omega_rf", "theta0"):
            try:
                if isinstance(data[f], bool):  # float(True) is 1.0, but a JSON true is no number
                    raise TypeError
                values[f] = float(data[f])
            except (TypeError, ValueError):
                raise ValueError(f"invalid {f} {data[f]!r}") from None
            if not math.isfinite(values[f]):
                raise ValueError(f"non-finite {f}")
        if values["omega_hat"] <= 0:  # energy_shell's rule: the scale of the fixed-energy shell is positive
            raise ValueError(f"omega_hat must be positive, got {values['omega_hat']:g}")
        return cls(**values)


def energy_residual(p: ControlParams) -> float:
    """Residual of the fixed-energy condition  b0^2 + bz^2 - (omega_hat^2 - (1 + k^2))."""
    return p.b0**2 + p.bz**2 - (p.omega_hat**2 - (1.0 + p.k**2))


def energy_shell(omega_hat: float, k: float) -> float:
    """b0^2 + bz^2 on the fixed-energy shell, omega_hat^2 - (1 + k^2); ValueError unless omega_hat > 0 and 0 < shell < inf."""
    if omega_hat <= 0:  # a nan falls to the shell's own check
        raise ValueError(f"omega_hat must be positive, got {omega_hat:g}")
    try:
        shell = omega_hat**2 - (1.0 + k**2)
    except OverflowError:  # a float ** that overflows raises, where * would give inf
        shell = math.inf
    if not 0 < shell < math.inf:
        raise ValueError(f"omega_hat={omega_hat:g} has no energy shell: omega_hat^2 must exceed "
                         "the energy floor 1 + k^2 and be finite")
    return shell


def transverse_amplitude(omega_hat: float, k: float, bz: float = 0.0) -> float:
    """Transverse amplitude b0 >= 0 that puts (bz, b0) on the fixed-energy shell."""
    r = omega_hat**2 - (1.0 + k**2) - bz**2
    if r < 0:
        raise ValueError(
            f"no real transverse amplitude: omega_hat^2={omega_hat**2:.6g} < 1 + k^2 + bz^2={1 + k**2 + bz**2:.6g}"
        )
    return math.sqrt(r)


_ZZ12 = embed3(_PAULI["z"], _PAULI["z"], None)
_ZZ23 = embed3(None, _PAULI["z"], _PAULI["z"])
_X2 = embed3(None, _PAULI["x"], None)
_Y2 = embed3(None, _PAULI["y"], None)
_Z2 = embed3(None, _PAULI["z"], None)
_BASIS = tuple(embed3(*(None if a is None else _PAULI[a] for a in axes)) for axes in _BASIS_AXES)
for _op in (_ZZ12, _ZZ23, _X2, _Y2, _Z2, *_BASIS):
    _op.setflags(write=False)


def coherence_basis() -> tuple[np.ndarray, ...]:
    """The eight-operator basis O_1..O_8 (read-only arrays, Tr[O_i O_j] = 8 delta_ij)."""
    return _BASIS


def build_hamiltonian(p: ControlParams, tau) -> np.ndarray:
    """Chain Hamiltonian sz1*sz2 + k*sz2*sz3 + B(tau).sigma2 as dense 8x8 matrices, shape np.shape(tau) + (8, 8)."""
    th = p.theta(np.asarray(tau, dtype=float))[..., None, None]
    return _ZZ12 + p.k * _ZZ23 + p.bz * _Z2 + p.b0 * (np.cos(th) * _X2 + np.sin(th) * _Y2)


# basis indices (sz2 up, sz2 down) of the sectors (s1, s3) = (+,+), (+,-), (-,+), (-,-) that H
# leaves invariant (it commutes with sz1 and sz3), with index 4*a1 + 2*a2 + a3 and a = 0 for spin up
SECTORS = np.array([[0, 2], [1, 3], [4, 6], [5, 7]])


def sector_fields(p: ControlParams, tau) -> np.ndarray:
    """Fields n_s(tau), H = n_s.sigma on sector s (both bonds add s1 + k*s3 to bz), shape np.shape(tau) + (4, 3);
    at a scalar tau, array fields of p (a stack of controls) give their shape + (4, 3)."""
    th = p.theta(np.asarray(tau, dtype=float))[..., None]
    nz = np.array([1.0, 1.0, -1.0, -1.0]) + np.multiply.outer(p.k, [1.0, -1.0, 1.0, -1.0]) + np.asarray(p.bz)[..., None]
    b0 = np.asarray(p.b0)[..., None]
    return np.stack(np.broadcast_arrays(b0 * np.cos(th), b0 * np.sin(th), nz), axis=-1)
