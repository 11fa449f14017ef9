"""Certified root location for the defining equation.

For n not in {0, -1} and s > 0 the equation phi_n(s, T) = 0 has a root in the
open band (s+2, s+2+4/s), bracketed by endpoints where the sign of phi_n is
known in closed form:

    n > 1:   T = s+2+c/s, s+2+c'/s with c  = 2 - 2cos(pi/k),
                                       c' = 2 - 2cos(3pi/k), k = 2n+1
    n = -2:  T = s+2+1/s (value 1/s > 0) and s+2+2/s (value -1)
    n < -2:  as n > 1 with k = 2|n| - 1
    n = 1:   no bracket needed, T = s + 2 + 1/(s+1) exactly.

The root is found by ITP (kernels.itp: regula falsi, truncated and projected
so that it never takes more than one step beyond bisection's count) in the
offset coordinate d = (T - s - 2)*s, where the trace of the commutator word
is 2 - d exactly; the T form loses the root entirely to rounding once s is
large (see Bracket.delta_lo).

The same branch has a closed form in the eigenangle theta of W, with
trace W = 2 - d = 2 cos(theta): phi_n = 0 reads
s = 2 sin(theta/2) sin(n theta) / cos((n + 1/2) theta), and s runs strictly
monotonically between 0 and inf as theta crosses the open interval
branch_interval(n).  branch_point evaluates it; slopes.invert walks the
whole branch in theta with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, cos, inf, isfinite, pi, sin, sqrt

from . import kernels
from .errors import DomainError, NonConvergence, NumericsError
from .exactpoly import check_n

DEFAULT_TOL_T = 1e-13
DEFAULT_MAX_ITER = 200


def check_positive(name: str, value: float) -> float:
    """value as a float; DomainError unless it is finite and positive."""
    value = float(value)
    if not 0.0 < value < inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return value


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval in T.

    delta_lo/delta_hi are the same endpoints in the offset coordinate
    d = (T - s - 2)*s; the solver searches in d because T = s + 2 + d/s
    cannot represent the bracket once d/s falls under ulp(s).  phi_lo and
    phi_hi are phi_delta at delta_lo and delta_hi, nonzero with opposite
    signs; the ITP kernel interpolates between them, so solve evaluates
    neither end again.
    """

    lo: float
    hi: float
    phi_lo: float
    phi_hi: float
    delta_lo: float
    delta_hi: float


@dataclass(frozen=True)
class RepSolution:
    """A root (n, s, T) with the derived scalars downstream modules need.

    trace_W and theta are carried at full precision from the offset
    coordinate; recomputing them from T would reintroduce the cancellation
    the solver avoids.  phi_residual is the achieved |phi_n| at T.
    """

    n: int
    s: float
    T: float
    t: float
    trace_W: float
    theta: float
    phi_residual: float
    iterations: int


def tau_num(m: int, trace: float) -> float:
    """Numeric (z^m - z^-m)/(z - z^-1) with z + 1/z = trace, |trace| <= 2."""
    trace = float(trace)
    if not abs(trace) <= 2.0:
        if abs(trace) - 2.0 <= 1e-12:
            trace = 2.0 if trace > 0 else -2.0
        else:
            raise DomainError(f"trace must lie in [-2, 2], got {trace}")
    return kernels.cheb_pair(m - 1, trace)[0]


def phi_num(n: int, s: float, T: float) -> float:
    """Numeric phi_n(s, T) for T in the trace band [s+2, s+2+4/s]."""
    check_n(n)
    s = check_positive("s", s)
    T = float(T)
    delta = ((T - s) - 2.0) * s
    # rounding slack: computing delta from T costs about s*ulp(T)
    slack = max(1e-9, 8e-16 * s * max(abs(T), 1.0))
    if not -slack <= delta <= 4.0 + slack:
        raise DomainError(
            f"T = {T} outside the trace band [s+2, s+2+4/s] for s = {s}"
        )
    delta = min(max(delta, 0.0), 4.0)
    return kernels.phi_delta(n, s, delta)


def _delta_window(n: int) -> tuple[float, float]:
    """Certified sign-change endpoints in the offset coordinate."""
    if n == -2:
        return 1.0, 2.0
    k = abs(2 * n + 1)  # 2n + 1 for n > 1, 2|n| - 1 for n < -2
    return 2.0 - 2.0 * cos(pi / k), 2.0 - 2.0 * cos(3.0 * pi / k)


def bracket(n: int, s: float) -> Bracket:
    """Interval with opposite signs of phi_n at the endpoints.

    Raises DomainError for n = 1 (phi_1 is linear in T; solve uses its
    closed form).
    """
    check_n(n)
    s = check_positive("s", s)
    if n == 1:
        raise DomainError("n = 1 has no bracket; phi_1 is linear in T")
    dlo, dhi = _delta_window(n)
    f_lo = kernels.phi_delta(n, s, dlo)
    f_hi = kernels.phi_delta(n, s, dhi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        raise NumericsError(
            f"bracket endpoints lost their certified signs at n={n}, s={s}: "
            f"phi = {f_lo}, {f_hi}"
        )
    return Bracket(
        lo=s + 2.0 + dlo / s,
        hi=s + 2.0 + dhi / s,
        phi_lo=f_lo,
        phi_hi=f_hi,
        delta_lo=dlo,
        delta_hi=dhi,
    )


def t_from_T(T: float) -> float:
    """Larger root of t + 1/t = T, real for T >= 2."""
    T = float(T)
    if not T >= 2.0:
        raise DomainError(f"T must be at least 2, got {T}")
    return 0.5 * (T + sqrt(T * T - 4.0))


def branch_interval(n: int) -> tuple[float, float]:
    """Open theta interval of n's root branch; n must pass check_n.

        n > 1:   (pi/n, 3pi/(2n+1)),         s increasing
        n = 1:   (0, pi/3),                  s increasing
        n < -1:  (pi/(2|n|-1), pi/|n|),      s decreasing

    s runs from 0 to inf across it, so it tends to 0 at the low end and to
    inf at the high end for n >= 1, and the other way round for n < -1.
    """
    if n == 1:
        return 0.0, pi / 3
    if n > 1:
        return pi / n, 3 * pi / (2 * n + 1)
    return pi / (2 * abs(n) - 1), pi / abs(n)


def branch_point(n: int, theta: float) -> tuple[float, float, float]:
    """(s, T, t) of the root branch at eigenangle theta of W, in closed form.

    theta must lie inside branch_interval(n), where s is positive and finite;
    no check is made, since invert calls this once per root-finding step.
    T = s + 2 + d/s with d = 4 sin^2(theta/2) is the form solve uses, and t
    comes from t_from_T as in solve, so a branch point differs from
    solve(n, s) only by solve's tolerance and phi_delta's rounding.
    """
    h = sin(0.5 * theta)
    s = 2.0 * h * sin(n * theta) / cos((n + 0.5) * theta)
    T = s + 2.0 + 4.0 * h * h / s
    return s, T, t_from_T(T)


def solve(n: int, s: float) -> RepSolution:
    """Locate the certified root of phi_n(s, .) to |hi - lo| < DEFAULT_TOL_T in T.

    ITP runs on the bracket's delta window from the phi values the bracket
    computed, to a width of DEFAULT_TOL_T * min(s, 1) in delta, so a solve
    makes iterations + 3 phi_delta calls: two bracket ends, one per step and
    the residual.
    """
    check_n(n)
    s = check_positive("s", s)
    if n == 1:
        delta = s / (s + 1.0)
        T = s + 2.0 + 1.0 / (s + 1.0)
        iters = 0
    else:
        br = bracket(n, s)
        # a width of tol*min(s, 1) in delta is at most tol in T = s + 2 + delta/s;
        # tol*s would outgrow the delta window, at most 4 wide, past s ~ 4e13
        delta, iters, status = kernels.itp(
            lambda d: kernels.phi_delta(n, s, d), br.delta_lo, br.delta_hi,
            br.phi_lo, br.phi_hi, DEFAULT_TOL_T * min(s, 1.0), DEFAULT_MAX_ITER, 0.0,
        )
        if status == kernels.ITER_CAP:
            raise NonConvergence(
                f"root finding hit the {DEFAULT_MAX_ITER}-iteration cap at n={n}, "
                f"s={s}; tol={DEFAULT_TOL_T} is too small for the floating format"
            )
        T = s + 2.0 + delta / s
    trace = 2.0 - delta
    t = t_from_T(T)
    residual = kernels.phi_delta(n, s, delta)
    if not (isfinite(T) and isfinite(t) and isfinite(residual)):
        raise NumericsError(
            f"solve left the floating range at n={n}, s={s}: T = {T}, "
            f"t = {t}, phi_residual = {residual}"
        )
    return RepSolution(
        n=n,
        s=s,
        T=T,
        t=t,
        trace_W=trace,
        # 2 - trace = delta = 4 sin^2(theta/2), read from delta itself: acos
        # of the rounded trace loses theta's low digits as theta -> 0
        theta=2.0 * asin(0.5 * sqrt(delta)),
        phi_residual=residual,
        iterations=iters,
    )
