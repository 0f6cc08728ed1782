"""Final-time boundary-value algebra for the coherence transfer.

The integrated generator at the final time tau_star is fixed by five scalars

    a = 2*tau_star,   c_pm = (bz +- k)*a,
    b = 2*(b0/omega_rf)*[cos(theta(tau_star)) - cos(theta0)],
    d = 2*(b0/omega_rf)*[sin(theta(tau_star)) - sin(theta0)],

and the transfer condition "first column of exp[A_pm] = +-e4" reduces to eight
transcendental equations in (a, b, c_pm, d).  This module implements those
equations, the integer-labelled closed-form solution family, the equivalent
integer relations, the inversion back to physical controls, and the scan that
locates energy scales where the closed-form control constants satisfy the b, d
equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.optimize import minimize_scalar

from .algebra import ControlParams, energy_residual
from .dynamics import MB, MC, MS, MZ, expm_skew, phase_integrals

PI = math.pi


@dataclass(frozen=True)
class BoundaryConstants:
    """The five scalars fixing the final-time generator."""

    a: float
    b: float
    c_plus: float
    c_minus: float
    d: float

    def c(self, sign: int) -> float:
        return self.c_plus if sign > 0 else self.c_minus


@dataclass(frozen=True)
class QuantumNumbers:
    """Integer labels of a solution branch: m=2*m0, n=2*n0+1, 2p=2q=m+n+1."""

    m0: int
    n0: int
    m: int
    n: int
    p: int
    q: int


@dataclass(frozen=True)
class DerivedQuantities:
    """Intermediates of the scalar boundary system (all real)."""

    x_plus: float
    x_minus: float
    delta_plus: float
    delta_minus: float
    sqrt_delta_plus: float
    sqrt_delta_minus: float
    z_plus: float
    z_minus: float
    w_plus: float
    w_minus: float


def sinc(z):
    """sin(z)/z elementwise, the removable singularity handled by a 6-term series; a scalar gives a numpy scalar."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    z2 = np.where(small, z, 0.0) ** 2  # np.where evaluates both forms: keep large z out of the series
    series = 1.0 - z2 / 6.0 + z2**2 / 120.0 - z2**3 / 5040.0 + z2**4 / 362880.0 - z2**5 / 39916800.0
    return np.where(small, series, np.sin(z) / np.where(small, 1.0, z))[()]


def abcd_from_physical(p: ControlParams, tau_star: float) -> BoundaryConstants:
    """Boundary constants generated by a control parameter set at final time tau_star; array fields give arrays."""
    a = 2.0 * tau_star
    int_cos, int_sin = phase_integrals(p, tau_star)
    # b = 2*(b0/omega_rf)*[cos(theta(t*)) - cos(theta0)] = -2*b0*int sin(theta)
    return BoundaryConstants(
        a=a,
        b=-2.0 * p.b0 * int_sin,
        c_plus=(p.bz + p.k) * a,
        c_minus=(p.bz - p.k) * a,
        d=2.0 * p.b0 * int_cos,
    )


def derived_quantities(c: BoundaryConstants) -> DerivedQuantities:
    """X, Delta and the angle pairs (Z, W).

    Delta_pm = X_pm^2 - 4 a^2 c_pm^2 is evaluated in the factored form
    ((a-c)^2 + b^2 + d^2)((a+c)^2 + b^2 + d^2), which is nonnegative in exact
    arithmetic and in floating point; the smaller angle is recovered from
    Z_plus * Z_minus = |a c| to avoid cancellation.
    """
    bd = c.b**2 + c.d**2

    def angles(cc: float) -> tuple[float, float, float, float, float]:
        f1 = (c.a - cc) ** 2 + bd  # X - 2ac
        f2 = (c.a + cc) ** 2 + bd  # X + 2ac
        x = 0.5 * (f1 + f2)
        delta = f1 * f2
        sqrt_delta = math.sqrt(f1) * math.sqrt(f2)
        big = math.sqrt(0.5 * (x + sqrt_delta))
        small = abs(c.a * cc) / big if big > 0.0 else 0.0
        return x, delta, sqrt_delta, big, small

    x_p, delta_p, sd_p, z_p, z_m = angles(c.c_plus)
    x_m, delta_m, sd_m, w_p, w_m = angles(c.c_minus)
    return DerivedQuantities(
        x_plus=x_p,
        x_minus=x_m,
        delta_plus=delta_p,
        delta_minus=delta_m,
        sqrt_delta_plus=sd_p,
        sqrt_delta_minus=sd_m,
        z_plus=z_p,
        z_minus=z_m,
        w_plus=w_p,
        w_minus=w_m,
    )


def _sqrt_delta_over_a(sqrt_delta: float, a: float) -> float:
    if a != 0.0:
        return sqrt_delta / a
    return 0.0 if sqrt_delta == 0.0 else math.inf


def _residual_system(c: BoundaryConstants, dq: DerivedQuantities) -> np.ndarray:
    """The eight boundary equations, LHS - RHS, component order (11)+-, (31)+-, (21)+-, (41)+-."""
    czp, czm = math.cos(dq.z_plus), math.cos(dq.z_minus)
    cwp, cwm = math.cos(dq.w_plus), math.cos(dq.w_minus)
    szp, szm = sinc(dq.z_plus), sinc(dq.z_minus)
    swp, swm = sinc(dq.w_plus), sinc(dq.w_minus)
    x_p, sd_p, x_m, sd_m = dq.x_plus, dq.sqrt_delta_plus, dq.x_minus, dq.sqrt_delta_minus
    a, b, d = c.a, c.b, c.d
    cp, cm = c.c_plus, c.c_minus
    r = np.empty(8)
    r[0] = (x_p - 2 * a * a - sd_p) * czp - (x_p - 2 * a * a + sd_p) * czm
    r[1] = (x_m - 2 * a * a - sd_m) * cwp - (x_m - 2 * a * a + sd_m) * cwm
    r[2] = (x_p - 2 * cp * cp + sd_p) * szp - (x_p - 2 * cp * cp - sd_p) * szm
    r[3] = (x_m - 2 * cm * cm + sd_m) * swp - (x_m - 2 * cm * cm - sd_m) * swm
    r[4] = b * (czp - czm) - cp * d * (szp - szm)
    r[5] = b * (cwp - cwm) - cm * d * (swp - swm)
    r[6] = d * (czp - czm) + cp * b * (szp - szm) - _sqrt_delta_over_a(sd_p, a)
    r[7] = d * (cwp - cwm) + cm * b * (swp - swm) + _sqrt_delta_over_a(sd_m, a)
    return r


def boundary_residuals(c: BoundaryConstants) -> np.ndarray:
    """Residuals of the eight scalar boundary equations for the e4 transfer target."""
    return _residual_system(c, derived_quantities(c))


def generator_from_constants(c: BoundaryConstants, sign: int) -> np.ndarray:
    """Final-time generator A_pm = (a*MB + c_pm*MZ + d*MC - b*MS)/2, the integral_generator in the constants."""
    return 0.5 * (c.a * MB + c.c(sign) * MZ + c.d * MC - c.b * MS)


def exp_boundary_check(c: BoundaryConstants) -> tuple[np.ndarray, np.ndarray]:
    """First columns of exp[A_plus] and exp[A_minus] (the transferred initial state)."""
    col_plus, col_minus = expm_skew(np.stack([generator_from_constants(c, sign) for sign in (1, -1)]))[:, :, 0]
    return col_plus, col_minus


def analytic_family(m0: int, n0: int, k_sign: int = 1) -> tuple[BoundaryConstants, QuantumNumbers, float]:
    """Closed-form solution branch labelled by integers n0 >= m0 >= 0.

    With m = 2*m0 and n = 2*n0+1 the solution is a = |c_pm| = (pi/2) *
    sqrt((2m+1)(2n+1)), b = -pi*k_sign*(n-m), d = 0, and tau_star = a/2.
    c_plus = k_sign*a is the orientation realized by a physical control with
    bz = 0 and coupling ratio k_sign.
    """
    if m0 != int(m0) or n0 != int(n0):
        raise ValueError("m0 and n0 must be integers")
    m0, n0 = int(m0), int(n0)
    if not (0 <= m0 <= n0):
        raise ValueError(f"index ordering violated: need n0 >= m0 >= 0, got m0={m0}, n0={n0}")
    if k_sign not in (1, -1):
        raise ValueError("k_sign must be +1 or -1")
    m, n = 2 * m0, 2 * n0 + 1
    a = 0.5 * PI * math.sqrt((2 * m + 1) * (2 * n + 1))
    constants = BoundaryConstants(
        a=a,
        b=-PI * k_sign * (n - m),
        c_plus=k_sign * a,
        c_minus=-k_sign * a,
        d=0.0,
    )
    qn = QuantumNumbers(m0=m0, n0=n0, m=m, n=n, p=m0 + n0 + 1, q=m0 + n0 + 1)
    return constants, qn, a / 2.0


def integer_relations_check(c: BoundaryConstants, qn: QuantumNumbers) -> np.ndarray:
    """Residuals of the eight integer-labelled relations equivalent to the boundary system.

    Degenerate labels with 2p = 2n+1 or 2q = 2m+1 make some relations singular
    and produce inf residuals, which is the honest answer for an invalid branch.
    """
    dq = derived_quantities(c)
    a2b2 = c.a**2 + c.b**2
    m, n, p, q = qn.m, qn.n, qn.p, qn.q
    two_n1, two_m1 = 2 * n + 1, 2 * m + 1
    r = np.empty(8)
    r[0] = dq.sqrt_delta_plus - 2 * PI**2 * p * (two_n1 - 2 * p)
    r[1] = dq.sqrt_delta_minus + 2 * PI**2 * q * (two_m1 - 2 * q)
    r[2] = (a2b2 + c.c_plus**2) - 0.5 * PI**2 * (two_n1**2 - 4 * p * two_n1 + 8 * p * p)
    r[3] = (a2b2 + c.c_minus**2) - 0.5 * PI**2 * (two_m1**2 - 4 * q * two_m1 + 8 * q * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        r[4] = dq.sqrt_delta_plus - (a2b2 - c.c_plus**2) * 2 * p / (two_n1 - 2 * p)
        r[5] = dq.sqrt_delta_minus + (a2b2 - c.c_minus**2) * 2 * q / (two_m1 - 2 * q)
        r[6] = c.a * c.b * c.c_plus - (-1.0) ** (n + 1) * (a2b2 - c.c_plus**2) * PI * two_n1 * (
            two_n1 - 4 * p
        ) / (4.0 * (two_n1 - 2 * p))
        r[7] = c.a * c.b * c.c_minus - (-1.0) ** m * (a2b2 - c.c_minus**2) * PI * two_m1 * (
            two_m1 - 4 * q
        ) / (4.0 * (two_m1 - 2 * q))
    return r


# First column of exp[A_plus(tau_star)] at each target's family constants;
# exp[A_minus] gives its negative.  x6 is the x8 family with b and d exchanged.
# x7 is absent: no family transfers e1 there.
TRANSFER_COLUMNS = MappingProxyType({"x8": (0.0, 0.0, 0.0, 1.0), "x6": (0.0, -1.0, 0.0, 0.0)})


def family_constants_for_target(
    target: str, m0: int, n0: int, k_sign: int = 1
) -> tuple[BoundaryConstants, QuantumNumbers, float]:
    """Analytic-family constants whose exp[A_pm] first columns are +-TRANSFER_COLUMNS[target]."""
    if target not in TRANSFER_COLUMNS:
        raise ValueError(
            f"no solution family exists for target {target!r}; expected one of {', '.join(TRANSFER_COLUMNS)}"
        )
    c, qn, tau_star = analytic_family(m0, n0, k_sign)
    return (swap_bd(c) if target == "x6" else c), qn, tau_star


def swap_bd(c: BoundaryConstants) -> BoundaryConstants:
    """Exchange the constants b and d."""
    return BoundaryConstants(a=c.a, b=c.d, c_plus=c.c_plus, c_minus=c.c_minus, d=c.b)


def closed_form_params(
    omega_hat,
    k_sign: int = 1,
    b0_sign: int = 1,
    omega_sign: int = 1,
    theta_sign: int = -1,
    r: int = 0,
) -> ControlParams:
    """Closed-form control constants for the minimal-time branch at energy scale omega_hat.

    bz = 0, b0 = b0_sign*k*sqrt(omega_hat^2-2), omega_rf = omega_sign*(4/pi)*
    sqrt(omega_hat^2-2), theta0 = [(2r+1)*pi + theta_sign*sqrt(3)*
    sqrt(omega_hat^2-2)]/2.  Energy-consistent by construction; whether the b, d
    boundary equations hold at a given omega_hat is measured by consistency_scan,
    not assumed.  An array omega_hat gives array-valued b0, omega_rf and theta0.
    """
    if np.any(np.square(omega_hat) <= 2.0):
        raise ValueError(f"omega_hat^2 must exceed 2, got {np.min(np.square(omega_hat)):.6g}")
    for name, s in (("k_sign", k_sign), ("b0_sign", b0_sign), ("omega_sign", omega_sign), ("theta_sign", theta_sign)):
        if s not in (1, -1):
            raise ValueError(f"{name} must be +1 or -1")
    root = np.sqrt(np.square(omega_hat) - 2.0)
    return ControlParams(
        k=float(k_sign),
        omega_hat=omega_hat,
        b0=b0_sign * k_sign * root,
        bz=0.0,
        omega_rf=omega_sign * (4.0 / PI) * root,
        theta0=0.5 * ((2 * r + 1) * PI + theta_sign * math.sqrt(3.0) * root),
    )


@dataclass(frozen=True)
class InvertedSolution:
    """A physical control set reproducing requested boundary constants."""

    params: ControlParams
    branch: dict
    residual_b: float
    residual_d: float


def invert_to_physical(
    omega_hat: float,
    k: float,
    tau_star: float,
    b_target: float,
    r_values: tuple[int, ...] = (0, 1, 2),
    root_range: tuple[float, float] = (1e-3, 20.0),
) -> list[InvertedSolution]:
    """Solve for controls realizing (a=2*tau_star, b=b_target, c_pm=+-k*a, d=0).

    bz = 0 follows from c_plus = -c_minus, |b0| = sqrt(omega_hat^2-2) from the
    energy constraint, and d = 0 fixes theta0 = [(2r+1)*pi - omega_rf*tau_star]/2.
    What remains is one scalar equation for omega_rf,

        2*b0*tau_star*(-1)^r * sinc(omega_rf*tau_star/2) = -b_target,

    solved by bracketing on 10,000 points of root_range, evaluated as one
    array, followed by bisection.  The equation is even in omega_rf, so only
    positive rates are scanned.  An empty result means no sign change was
    bracketed, not a failure.
    """
    if omega_hat**2 <= 2.0:
        raise ValueError(f"omega_hat^2 must exceed 2, got {omega_hat**2:.6g}")
    if b_target == 0.0:
        raise ValueError("b_target must be nonzero (the d = 0 branch requires b != 0)")
    if tau_star <= 0.0:
        raise ValueError(f"tau_star must be positive, got {tau_star:g}")
    if abs(abs(k) - 1.0) > 1e-12:
        raise ValueError("the solution family requires |k| = 1")
    lo, hi = root_range
    if not (0.0 < lo < hi):
        raise ValueError("root_range must satisfy 0 < lo < hi")
    amp = math.sqrt(omega_hat**2 - 2.0)
    grid = np.linspace(lo, hi, 10_000)
    solutions: list[InvertedSolution] = []
    for b0_sign in (1, -1):
        b0 = b0_sign * amp
        for r in r_values:
            def f(om):
                return 2.0 * b0 * tau_star * (-1.0) ** r * sinc(om * tau_star / 2.0) + b_target

            vals = f(grid)
            idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            for i in idx:
                x1, x2, f1 = grid[i], grid[i + 1], vals[i]
                while x2 - x1 > 1e-12:
                    xm = 0.5 * (x1 + x2)
                    fm = f(xm)
                    if f1 * fm <= 0.0:
                        x2 = xm
                    else:
                        x1, f1 = xm, fm
                om_root = 0.5 * (x1 + x2)
                params = ControlParams(
                    k=float(k),
                    omega_hat=omega_hat,
                    b0=b0,
                    bz=0.0,
                    omega_rf=om_root,
                    theta0=0.5 * ((2 * r + 1) * PI - om_root * tau_star),
                )
                c = abcd_from_physical(params, tau_star)
                res_b = abs(c.b - b_target)
                res_d = abs(c.d)
                if res_b <= 1e-10 and res_d <= 1e-10:
                    solutions.append(
                        InvertedSolution(
                            params=params,
                            branch={"b0_sign": b0_sign, "omega_sign": 1, "theta_sign": -1, "r": r},
                            residual_b=res_b,
                            residual_d=res_d,
                        )
                    )
    return solutions


@dataclass(frozen=True)
class ConsistentPoint:
    """An energy scale where the closed-form constants satisfy the b, d equations."""

    omega_hat: float
    residual_b: float
    residual_d: float
    branch: dict


@dataclass
class ScanResult:
    omegas: np.ndarray
    residuals: np.ndarray  # best-over-branches max(|b - b_target|, |d|) per sample
    consistent: list[ConsistentPoint]


SCAN_SAMPLES = 4001
_SCAN_BRANCHES = tuple(
    {"b0_sign": bs, "omega_sign": os_, "theta_sign": ts, "r": r}
    for bs in (1, -1)
    for os_ in (1, -1)
    for ts in (1, -1)
    for r in (0, 1, 2)
)


def consistency_scan(
    omega_lo: float,
    omega_hi: float,
    k_sign: int = 1,
    samples: int = SCAN_SAMPLES,
) -> ScanResult:
    """Scan omega_hat over (omega_lo, omega_hi] for closed-form consistency.

    For every sampled omega_hat and all sign branches with r in {0, 1, 2} the
    residuals |b - (-pi*k)| and |d| of the boundary constants generated by the
    closed-form controls are evaluated at the minimal tau_star.  A raw grid
    cannot certify a quadratic tangency to the 1e-9 tolerance, so local minima
    of the curve are refined by bounded scalar minimization before the test.

    Where the consistent scales lie: the closed forms give |b0/omega_rf| = pi/4,
    and on the branches with theta_sign = -omega_sign d = 0 identically while
    b = -pi*k*b0_sign*(-1)^r*sin(x), x = sqrt(3)*sqrt(omega_hat^2-2)/2.  b = -pi*k
    thus needs sin(x) = +-1: omega_hat_j = sqrt(2 + (2j+1)^2*pi^2/3), that is
    2.2999713332 and 5.6221715736 for j = 0, 1 and either k (derivation: README).
    """
    if not (math.isfinite(omega_lo) and math.isfinite(omega_hi) and omega_lo < omega_hi):
        raise ValueError(f"scan range ({omega_lo:g}, {omega_hi:g}] must be finite with omega_lo < omega_hi")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if omega_lo < math.sqrt(2.0) - 1e-12:
        raise ValueError("scan range must stay above the energy floor omega_hat^2 > 2")
    _, _, tau_star = analytic_family(0, 0, k_sign)
    b_target = -PI * k_sign

    def branch_residuals(w, branch: dict) -> tuple[np.ndarray, np.ndarray]:
        c = abcd_from_physical(closed_form_params(w, k_sign=k_sign, **branch), tau_star)
        return np.abs(c.b - b_target), np.abs(c.d)

    omegas = omega_lo + (omega_hi - omega_lo) * np.arange(1, samples + 1) / samples
    # running best over the branches; the strict < lets the first branch win ties
    residuals = np.full(samples, math.inf)
    best = np.zeros(samples, dtype=int)
    for j, branch in enumerate(_SCAN_BRANCHES):
        res = np.maximum(*branch_residuals(omegas, branch))
        better = res < residuals
        residuals[better] = res[better]
        best[better] = j

    consistent: list[ConsistentPoint] = []

    def record(w: float, branch: dict) -> None:
        rb, rd = (float(v) for v in branch_residuals(w, branch))
        if max(rb, rd) <= 1e-9 and all(abs(w - cp.omega_hat) > 1e-7 for cp in consistent):
            consistent.append(ConsistentPoint(omega_hat=w, residual_b=rb, residual_d=rd, branch=branch))

    for i in np.flatnonzero(residuals <= 1e-9):
        record(float(omegas[i]), _SCAN_BRANCHES[best[i]])
    inner = residuals[1:-1]
    for i in 1 + np.flatnonzero((inner <= residuals[:-2]) & (inner <= residuals[2:]) & (inner < 1e-2)):
        branch = _SCAN_BRANCHES[best[i]]
        res = minimize_scalar(
            lambda w: max(branch_residuals(w, branch)),
            bounds=(float(omegas[i - 1]), float(omegas[i + 1])),
            method="bounded",
            options={"xatol": 1e-13},
        )
        record(float(res.x), branch)
    consistent.sort(key=lambda cp: cp.omega_hat)
    return ScanResult(omegas=omegas, residuals=residuals, consistent=consistent)


def sweep_tau(m0_max: int, n0_max: int) -> list[dict]:
    """Closed-form tau_star over the (m0, n0) grid, sorted ascending by tau_star."""
    if m0_max < 0 or n0_max < 0:
        raise ValueError("sweep bounds must be nonnegative")
    rows = []
    for m0 in range(m0_max + 1):
        for n0 in range(n0_max + 1):
            m, n = 2 * m0, 2 * n0 + 1
            rows.append({
                "m0": m0,
                "n0": n0,
                "tau_star": 0.25 * PI * math.sqrt((2 * m + 1) * (2 * n + 1)),
            })
    rows.sort(key=lambda row: row["tau_star"])
    return rows


def solution_record(
    m0: int,
    n0: int,
    k_sign: int = 1,
    params: ControlParams | None = None,
    branch: dict | None = None,
    target: str = "x8",
) -> dict:
    """JSON-ready record of a solution branch, optionally with a physical realization."""
    c, qn, tau_star = family_constants_for_target(target, m0, n0, k_sign)
    # the scalar boundary system is written for x8, so it is evaluated at the family constants
    res = boundary_residuals(analytic_family(m0, n0, k_sign)[0])
    record = {
        "m0": qn.m0,
        "n0": qn.n0,
        "k_sign": k_sign,
        "target": target,
        "tau_star": tau_star,
        "a": c.a,
        "b": c.b,
        "c_plus": c.c_plus,
        "c_minus": c.c_minus,
        "d": c.d,
        "p": qn.p,
        "q": qn.q,
        "params": None,
        "residuals": {
            "boundary": [float(v) for v in res],
            "b_eq": None,
            "d_eq": None,
        },
    }
    if params is not None:
        cc = abcd_from_physical(params, tau_star)
        record["params"] = {
            "omega_hat": params.omega_hat,
            "b0": params.b0,
            "bz": params.bz,
            "omega_rf": params.omega_rf,
            "theta0": params.theta0,
            "branch": branch,
        }
        record["residuals"]["b_eq"] = abs(cc.b - c.b)
        record["residuals"]["d_eq"] = abs(cc.d - c.d)
        record["energy_residual"] = energy_residual(params)
    return record
