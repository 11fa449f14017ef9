"""Certified root location for the defining equation.

For n not in {0, -1} and s > 0 the equation phi_n(s, T) = 0 has a root in the
open band (s+2, s+2+4/s), bracketed by endpoints where the sign of phi_n is
known in closed form:

    n > 1:   T = s+2+c/s, s+2+c'/s with c  = 2 - 2cos(pi/(2n+1)),
                                       c' = 2 - 2cos(3pi/(2n+1))
    n = -2:  T = s+2+1/s (value 1/s > 0) and s+2+2/s (value -1)
    n < -2:  as n > 1 with 2|n| - 1 in place of 2n+1
    n = 1:   no bracket needed, T = s + 2 + 1/(s+1) exactly.

Bisection runs in the offset coordinate d = (T - s - 2)*s, where the trace of
the commutator word is 2 - d exactly; the T form loses the root entirely to
rounding once s is large (see Bracket.delta_lo).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import acos, cos, inf, pi, sqrt

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
    d = (T - s - 2)*s; the solver bisects in d because T = s + 2 + d/s
    cannot represent the bracket once d/s falls under ulp(s).
    """

    lo: float
    hi: float
    sign_lo: int
    sign_hi: int
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
    return kernels.cheb_ratio(m, trace)


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
    if n > 1:
        c = 2.0 - 2.0 * cos(pi / (2 * n + 1))
        c2 = 2.0 - 2.0 * cos(3.0 * pi / (2 * n + 1))
        return c, c2
    if n == -2:
        return 1.0, 2.0
    m = -n
    d = 2.0 - 2.0 * cos(pi / (2 * m - 1))
    d2 = 2.0 - 2.0 * cos(3.0 * pi / (2 * m - 1))
    return d, d2


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
        sign_lo=1 if f_lo > 0 else -1,
        sign_hi=1 if f_hi > 0 else -1,
        delta_lo=dlo,
        delta_hi=dhi,
    )


def t_from_T(T: float) -> float:
    """Larger root of t + 1/t = T, real for T >= 2."""
    T = float(T)
    if not T >= 2.0:
        raise DomainError(f"T must be at least 2, got {T}")
    return 0.5 * (T + sqrt(T * T - 4.0))


def solve(n: int, s: float, tol: float = DEFAULT_TOL_T) -> RepSolution:
    """Locate the certified root of phi_n(s, .) to |hi - lo| < tol in T."""
    check_n(n)
    s = check_positive("s", s)
    check_positive("tol", tol)
    if n == 1:
        delta = s / (s + 1.0)
        T = s + 2.0 + 1.0 / (s + 1.0)
        iters = 0
    else:
        br = bracket(n, s)
        delta, iters, status = kernels.bisect_phi_delta(
            n, s, br.delta_lo, br.delta_hi, tol * s, DEFAULT_MAX_ITER
        )
        if status == kernels.ITER_CAP:
            raise NonConvergence(
                f"bisection hit the {DEFAULT_MAX_ITER}-iteration cap at n={n}, "
                f"s={s}; tol={tol} is too small for the floating format"
            )
        T = s + 2.0 + delta / s
    trace = 2.0 - delta
    return RepSolution(
        n=n,
        s=s,
        T=T,
        t=t_from_T(T),
        trace_W=trace,
        theta=acos(0.5 * trace),
        phi_residual=kernels.phi_delta(n, s, delta),
        iterations=iters,
    )
