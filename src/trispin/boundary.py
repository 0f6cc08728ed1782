"""Final-time boundary-value algebra for the coherence transfer.

The integrated generator at the final time tau_star is fixed by five scalars

    a = 2*tau_star,   c_pm = (bz +- k)*a,
    b = -2*b0*int sin(theta) = -a*b0*sinc(u/2)*sin(theta0 + u/2),
    d =  2*b0*int cos(theta) =  a*b0*sinc(u/2)*cos(theta0 + u/2),   u = omega_rf*tau_star,

and the transfer condition "first column of exp[A_pm] = +-e4" reduces to eight
transcendental equations in (a, b, c_pm, d).  This module implements those
equations, the integer-labelled closed-form solution family, the equivalent
integer relations, the inversion back to physical controls, and the scan that
locates energy scales where the closed-form control constants satisfy the b, d
equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .algebra import ControlParams, energy_shell
from .dynamics import WINDOW_ROWS, MB, MC, MS, MZ, expm_skew, phase_integrals, sinc

PI = math.pi


@dataclass(frozen=True)
class BoundaryConstants:
    """The five scalars fixing the final-time generator."""

    a: float
    b: float
    c_plus: float
    c_minus: float
    d: float


def abcd_from_physical(p: ControlParams, tau_star: float) -> BoundaryConstants:
    """Boundary constants generated by a control parameter set at final time tau_star; array fields give arrays."""
    a = 2.0 * tau_star
    int_cos, int_sin = phase_integrals(p, tau_star)
    return BoundaryConstants(
        a=a,
        b=-2.0 * p.b0 * int_sin,
        c_plus=(p.bz + p.k) * a,
        c_minus=(p.bz - p.k) * a,
        d=2.0 * p.b0 * int_cos,
    )


def derived_quantities(c: BoundaryConstants) -> tuple[tuple, tuple]:
    """Per sign of c_pm, (X, sqrt(Delta), larger angle, smaller angle): (X+, sqrt(Delta+), Z+, Z-), (X-, sqrt(Delta-), W+, W-).

    Delta_pm = X_pm^2 - 4 a^2 c_pm^2 is evaluated in the factored form
    f1*f2 = ((a-c)^2 + b^2 + d^2)((a+c)^2 + b^2 + d^2), whose factors are
    nonnegative in exact arithmetic and in floating point, so sqrt(Delta) =
    sqrt(f1)*sqrt(f2); the smaller angle is recovered from
    Z_plus * Z_minus = |a c| to avoid cancellation.
    """
    bd = c.b**2 + c.d**2

    def angles(cc: float) -> tuple[float, float, float, float]:
        f1 = (c.a - cc) ** 2 + bd  # X - 2ac
        f2 = (c.a + cc) ** 2 + bd  # X + 2ac
        x = 0.5 * (f1 + f2)
        sqrt_delta = math.sqrt(f1) * math.sqrt(f2)
        big = math.sqrt(0.5 * (x + sqrt_delta))
        small = abs(c.a * cc) / big if big > 0.0 else 0.0
        return x, sqrt_delta, big, small

    return angles(c.c_plus), angles(c.c_minus)


def _sqrt_delta_over_a(sqrt_delta: float, a: float) -> float:
    if a != 0.0:
        return sqrt_delta / a
    return 0.0 if sqrt_delta == 0.0 else math.inf


def _residual_system(c: BoundaryConstants, dq: tuple) -> np.ndarray:
    """The eight boundary equations, LHS - RHS, component order (11)+-, (31)+-, (21)+-, (41)+-; dq as from derived_quantities."""
    (x_p, sd_p, z_p, z_m), (x_m, sd_m, w_p, w_m) = dq
    czp, czm = math.cos(z_p), math.cos(z_m)
    cwp, cwm = math.cos(w_p), math.cos(w_m)
    szp, szm = sinc(z_p), sinc(z_m)
    swp, swm = sinc(w_p), sinc(w_m)
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


def column_scales(c: BoundaryConstants) -> np.ndarray:
    """The diagonal D of r = D·(col - target) (README), a != 0, from s_pm = sqrt(Delta_pm)."""
    s = np.array([half[1] for half in derived_quantities(c)])
    return np.concatenate([-2.0 * s, 2.0 * s / c.a, s / c.a, s / c.a])


def column_deviations(c: BoundaryConstants) -> np.ndarray:
    """r / D of r = D·(col - target) (README), a != 0: the column deviations, which, unlike r, do not grow with the label."""
    return boundary_residuals(c) / column_scales(c)


def generator_from_constants(c: BoundaryConstants) -> np.ndarray:
    """Final-time generators A_pm = (a*MB + c_pm*MZ + d*MC - b*MS)/2, the integral_generator in the constants, shape (2, 4, 4)."""
    c_pm = np.array([c.c_plus, c.c_minus])[:, None, None]
    return 0.5 * (c.a * MB + c_pm * MZ + c.d * MC - c.b * MS)


def exp_boundary_check(c: BoundaryConstants) -> tuple[np.ndarray, np.ndarray]:
    """First columns of exp[A_plus] and exp[A_minus] (the transferred initial state)."""
    col_plus, col_minus = expm_skew(generator_from_constants(c))[:, :, 0]
    return col_plus, col_minus


def transfer_time(m0: int, n0: int) -> float:
    """tau_star = (pi/4)*sqrt((2m+1)(2n+1)) with m = 2*m0, n = 2*n0+1, for any m0, n0 >= 0."""
    return 0.25 * PI * math.sqrt((4 * m0 + 1) * (4 * n0 + 3))


# First column of exp[A_plus(tau_star)] at each target's analytic_family constants;
# exp[A_minus] gives its negative.  x7 is absent: no family transfers e1 there.
TRANSFER_COLUMNS = MappingProxyType({"x8": (0.0, 0.0, 0.0, 1.0), "x6": (0.0, -1.0, 0.0, 0.0)})


def analytic_family(m0: int, n0: int, target: str = "x8") -> BoundaryConstants:
    """Closed-form constants of the branch labelled by integers n0 >= m0 >= 0, for a target in TRANSFER_COLUMNS.

    With m = 2*m0 and n = 2*n0+1 the x8 solution is a = c_plus = -c_minus =
    (pi/2)*sqrt((2m+1)(2n+1)) = 2*transfer_time(m0, n0), b = -pi*(n-m), d = 0:
    the orientation realized by a physical control with bz = 0 and coupling
    ratio k = 1.  The coupling ratio k = -1 is conjugation by sigma_x on spin 3,
    which flips x5..x8 and nothing else; its family is this one with the signs
    of b and c_pm flipped.  The x6 constants exchange b and d.  A label whose
    transfer time, or whose a*a + b*b, is not a finite float is a ValueError.
    """
    if target not in TRANSFER_COLUMNS:
        raise ValueError(
            f"no solution family exists for target {target!r}; expected one of {', '.join(TRANSFER_COLUMNS)}"
        )
    if m0 != int(m0) or n0 != int(n0):
        raise ValueError("m0 and n0 must be integers")
    m0, n0 = int(m0), int(n0)
    if not (0 <= m0 <= n0):
        raise ValueError(f"index ordering violated: need n0 >= m0 >= 0, got m0={m0}, n0={n0}")
    try:
        a = 2.0 * transfer_time(m0, n0)
    except OverflowError:
        raise ValueError(f"label (m0, n0) = ({m0}, {n0}) has no finite transfer time") from None
    c = BoundaryConstants(a=a, b=-PI * (2 * n0 + 1 - 2 * m0), c_plus=a, c_minus=-a, d=0.0)
    if not math.isfinite(a * a + c.b * c.b):
        raise ValueError(f"label (m0, n0) = ({m0}, {n0}) has constants whose squares are not finite floats")
    return replace(c, b=c.d, d=c.b) if target == "x6" else c


def integer_relations_check(c: BoundaryConstants, m0: int, n0: int) -> np.ndarray:
    """Residuals of the eight integer relations of label (m0, n0), equivalent to the boundary system.

    They read m = 2*m0, n = 2*n0+1 and p = m0+n0+1, so no denominator 2n+1-2p or 2m+1-2p is 0.
    """
    (_, sd_p, _, _), (_, sd_m, _, _) = derived_quantities(c)
    a2b2 = c.a**2 + c.b**2
    m, n, p = 2 * m0, 2 * n0 + 1, m0 + n0 + 1
    two_n1, two_m1 = 2 * n + 1, 2 * m + 1
    r = np.empty(8)
    r[0] = sd_p - 2 * PI**2 * p * (two_n1 - 2 * p)
    r[1] = sd_m + 2 * PI**2 * p * (two_m1 - 2 * p)
    r[2] = (a2b2 + c.c_plus**2) - 0.5 * PI**2 * (two_n1**2 - 4 * p * two_n1 + 8 * p * p)
    r[3] = (a2b2 + c.c_minus**2) - 0.5 * PI**2 * (two_m1**2 - 4 * p * two_m1 + 8 * p * p)
    r[4] = sd_p - (a2b2 - c.c_plus**2) * 2 * p / (two_n1 - 2 * p)
    r[5] = sd_m + (a2b2 - c.c_minus**2) * 2 * p / (two_m1 - 2 * p)
    r[6] = c.a * c.b * c.c_plus - (-1.0) ** (n + 1) * (a2b2 - c.c_plus**2) * PI * two_n1 * (
        two_n1 - 4 * p
    ) / (4.0 * (two_n1 - 2 * p))
    r[7] = c.a * c.b * c.c_minus - (-1.0) ** m * (a2b2 - c.c_minus**2) * PI * two_m1 * (
        two_m1 - 4 * p
    ) / (4.0 * (two_m1 - 2 * p))
    return r


def closed_form_params(omega_hat, k_sign: int = 1, r: int = 0) -> ControlParams:
    """Closed-form control constants for the minimal-time branch at energy scale omega_hat.

    With R = sqrt(omega_hat^2-2): bz = 0, b0 = k*R, omega_rf = (4/pi)*R and
    theta0 = [(2r+1)*pi - sqrt(3)*R]/2, the one sign choice of omega_rf and of
    the sqrt(3)*R term that can solve the b, d equations (consistency_scan).
    The sign of b0 is no label: (b0, theta0) and (-b0, theta0 + pi) give the
    same field, so r and r + 1 cover it, and r + 2 repeats r.  Energy-consistent
    by construction; whether the b, d boundary equations hold at a given
    omega_hat is measured by consistency_scan, not assumed.  Array omega_hat and
    r broadcast: b0 and omega_rf take omega_hat's shape, theta0 that with r's.
    """
    if np.any(np.square(omega_hat) <= 2.0):
        raise ValueError(f"omega_hat^2 must exceed 2, got {np.min(np.square(omega_hat)):.6g}")
    if np.ndim(k_sign) != 0 or abs(k_sign) != 1:  # one family per call
        raise ValueError("k_sign must be one label, +1 or -1")
    root = np.sqrt(np.square(omega_hat) - 2.0)
    return ControlParams(
        k=float(k_sign),
        omega_hat=omega_hat,
        b0=k_sign * root,
        bz=0.0,
        omega_rf=(4.0 / PI) * root,
        theta0=0.5 * ((2 * r + 1) * PI - math.sqrt(3.0) * root),
    )


def consistent_scale(j):
    """(omega_hat_j, branch_j), the j-th energy scale where the closed-form constants solve the b, d equations.

    The closed forms give |b0/omega_rf| = pi/4, d = 0 identically and
    b = -pi*k*(-1)^r*sin(x), x = sqrt(3)*sqrt(omega_hat^2-2)/2 (README).
    b = -pi*k needs x = (2j+1)*pi/2 and r = j mod 2: omega_hat_j =
    sqrt(2 + (2j+1)^2*pi^2/3), 2.2999713332 and 5.6221715736 for j = 0, 1, on
    branch {r: j mod 2} for either k.  An integer array j gives arrays
    omega_hat_j and branch_j["r"].
    """
    if np.any(np.asarray(j) < 0):
        raise ValueError("j must be >= 0")
    return np.sqrt(2.0 + (2 * j + 1) ** 2 * PI**2 / 3.0), {"r": j % 2}


ROOT_STEP = 2.0**-9  # omega_rf step of invert_to_physical's bracketing grid
MAX_ROOT_STEPS = 1_000_000  # steps of that grid at most


@dataclass(frozen=True)
class InvertedSolution:
    """A physical control set reproducing requested boundary constants."""

    params: ControlParams
    branch: dict
    residual_b: float
    residual_d: float


def invert_to_physical(omega_hat: float, k: float, tau_star: float, b_target: float) -> list[InvertedSolution]:
    """Solve for controls realizing (a=2*tau_star, b=b_target, c_pm=+-k*a, d=0).

    bz = 0 follows from c_plus = -c_minus, b0 = sqrt(omega_hat^2-2) > 0 from the
    energy constraint, and d = 0 fixes theta0 = [(2r+1)*pi - omega_rf*tau_star]/2
    with r in {0, 1}: a negative b0 is the same field with theta0 + pi, and
    r + 2 is theta0 + 2*pi, so each control is listed once.  What remains is
    one scalar equation for omega_rf,

        2*b0*tau_star*(-1)^r * sinc(omega_rf*tau_star/2) = -b_target.

    The equation is even in omega_rf, so only positive rates are scanned, and as
    |sinc x| <= 1/x, the left side is at most 4*b0/omega_rf in size: every root
    has omega_rf <= 4*b0/|b_target|, the end included (at a ``consistent_scale``
    the end is the closed-form rate).  So the grid runs from 0 in steps of
    ROOT_STEP to one step past the end, shared by r = 0, 1, and brentq solves each
    sign change on it; more than MAX_ROOT_STEPS steps is a ValueError.  A root is
    kept if its controls meet b and d = 0 to 1e-10.  An empty result is not a
    failure: no sign change was bracketed, or every root failed that gate (at
    tau_star = 1e300, omega_hat = 2.7 and b_target = -pi, all 1,411 do).
    """
    if b_target == 0.0:
        raise ValueError("b_target must be nonzero (the d = 0 branch requires b != 0)")
    if tau_star <= 0.0:
        raise ValueError(f"tau_star must be positive, got {tau_star:g}")
    if abs(abs(k) - 1.0) > 1e-12:
        raise ValueError("the solution family requires |k| = 1")
    b0 = math.sqrt(energy_shell(omega_hat, k))
    hi = 4.0 * b0 / abs(b_target)
    if not hi <= ROOT_STEP * MAX_ROOT_STEPS:
        raise ValueError(f"omega_hat={omega_hat:g} and b_target={b_target:g} put the root bracket end 4*b0/|b_target| "
                         f"at {hi:g}, over {MAX_ROOT_STEPS} steps: it must be at most {ROOT_STEP * MAX_ROOT_STEPS:g}")
    from scipy.optimize import brentq  # imported here: the CLI's start-up needs no scipy
    grid = ROOT_STEP * np.arange(math.floor(hi / ROOT_STEP) + 2)
    sinc_grid = sinc(grid * tau_star / 2.0)
    solutions: list[InvertedSolution] = []
    for r in (0, 1):
        def f(om):
            return 2.0 * b0 * tau_star * (-1.0) ** r * sinc(om * tau_star / 2.0) + b_target

        vals = 2.0 * b0 * tau_star * (-1.0) ** r * sinc_grid + b_target  # f(grid), from the shared sinc grid
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            # the bracket ends keep their grid values: a scalar sinc may differ from the array one in the last bits
            ends = {float(grid[i]): vals[i], float(grid[i + 1]): vals[i + 1]}
            om_root = brentq(lambda om: ends[om] if om in ends else f(om), grid[i], grid[i + 1], xtol=1e-15)
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
                        branch={"r": r},
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
    residual_phase: float  # |x - (2j+1)*pi/2| with x = sqrt(3)*sqrt(omega_hat^2-2)/2
    branch: dict


@dataclass
class ScanResult:
    omegas: np.ndarray
    residuals: np.ndarray  # best-over-branches max(|b - b_target|, |d|) per sample
    consistent: list[ConsistentPoint]


SCAN_SAMPLES = 4001
MAX_SCALES = 10_000  # a scan range may end above at most this many consistent scales
MAX_LABEL = 1000  # sweep_tau builds (label_max + 1)(label_max + 2)/2 rows: 501,501 and about 160 MB at this bound
# consistent_scale's branches, r on an axis of its own against the scales on the last
_SCAN_BRANCHES = {"r": np.array([0, 1])[:, None]}


def consistency_scan(
    omega_lo: float,
    omega_hi: float,
    k_sign: int = 1,
    samples: int = SCAN_SAMPLES,
) -> ScanResult:
    """Residual curve of the closed-form controls over (omega_lo, omega_hi], and the consistent scales in it.

    The curve holds per sampled omega_hat the best max(|b - (-pi*k)|, |d|) of the boundary constants that the controls
    of closed_form_params generate at the minimal tau_star, over its branches r in {0, 1}, _SCAN_BRANCHES.  Why no
    other branch (README): the closed form allows omega_rf = omega_sign*(4/pi)*R and a theta_sign*sqrt(3)*R term in
    theta0.  With x = sqrt(3)*R/2, theta_sign = -omega_sign gives d = 0 and b = -pi*k*(-1)^r*sin(x), so its best r is
    pi*(1 - |sin x|) off, and its two omega_sign tie bitwise; theta_sign = omega_sign gives
    b = -pi*k*(-1)^r*cos(2x)*sin(x), at least pi*(1 - |cos(2x)*sin(x)|) >= pi*(1 - |sin x|) off.  So closed_form_params
    keeps omega_sign = 1, theta_sign = -1 alone.  The curve is made in windows of the memory budget, WINDOW_ROWS
    samples, so its temporaries do not grow with samples.  The consistent points are the scales of consistent_scale in
    the range, whatever samples is; each is kept only if its b, d residuals are at most 1e-9 and its residual_phase,
    linear in the scale's error where the b residual is quadratic, at most 1e-12*(2j+1)*pi/2.
    """
    if not (math.isfinite(omega_lo) and math.isfinite(omega_hi) and omega_lo < omega_hi):
        raise ValueError(f"scan range ({omega_lo:g}, {omega_hi:g}] must be finite with omega_lo < omega_hi")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if omega_lo < math.sqrt(2.0) - 1e-12:
        raise ValueError("scan range must stay above the energy floor omega_hat^2 > 2")
    # consistent_scale(j) <= omega_hi needs j + 1 <= top; one j more absorbs rounding
    top = (math.sqrt(3.0 * max(omega_hi * omega_hi - 2.0, 0.0)) / PI + 1.0) / 2.0
    if not top <= MAX_SCALES:
        raise ValueError(f"scan range ({omega_lo:g}, {omega_hi:g}] ends above more than {MAX_SCALES} consistent scales")
    tau_star = transfer_time(0, 0)
    b_target = -PI * k_sign

    def branch_residuals(w, branch: dict) -> tuple[np.ndarray, np.ndarray]:
        c = abcd_from_physical(closed_form_params(w, k_sign=k_sign, **branch), tau_star)
        return np.abs(c.b - b_target), np.abs(c.d)

    omegas = omega_lo + (omega_hi - omega_lo) * np.arange(1, samples + 1) / samples
    residuals = np.empty(samples)
    for lo in range(0, samples, WINDOW_ROWS):  # both branches of a window at once, each temporary 96 KB
        worst = np.maximum(*branch_residuals(omegas[lo : lo + WINDOW_ROWS], _SCAN_BRANCHES))
        # best over the branches; fmin passes over a NaN branch
        residuals[lo : lo + WINDOW_ROWS] = np.fmin.reduce(worst, axis=0, initial=math.inf)

    j = np.arange(math.floor(top) + 1)
    scales, branch = consistent_scale(j)
    res_b, res_d = branch_residuals(scales, branch)
    phase = (2 * j + 1) * PI / 2.0
    res_phase = np.abs(math.sqrt(3.0) * np.sqrt(np.square(scales) - 2.0) / 2.0 - phase)
    kept = (omega_lo < scales) & (scales <= omega_hi) & (np.maximum(res_b, res_d) <= 1e-9) & (res_phase <= 1e-12 * phase)
    consistent = [
        ConsistentPoint(*map(float, (scales[i], res_b[i], res_d[i], res_phase[i])), {**branch, "r": int(branch["r"][i])})
        for i in np.flatnonzero(kept)
    ]
    return ScanResult(omegas=omegas, residuals=residuals, consistent=consistent)


def sweep_tau(label_max: int) -> list[dict]:
    """Closed-form tau_star over the branch labels label_max >= n0 >= m0 >= 0, sorted ascending by tau_star."""
    if label_max < 0:
        raise ValueError("the sweep bound must be nonnegative")
    if label_max > MAX_LABEL:
        raise ValueError(f"the sweep bound must be at most {MAX_LABEL}, got {label_max}")
    rows = (
        {"m0": m0, "n0": n0, "tau_star": transfer_time(m0, n0)}
        for m0 in range(label_max + 1)
        for n0 in range(m0, label_max + 1)
    )
    return sorted(rows, key=lambda row: row["tau_star"])
