"""Certified root location for the defining equation.

For n not in {0, -1} and s > 0 the equation phi_n(s, T) = 0 has one root on
the branch that runs from s = 0 to s = inf, in the open band
(s+2, s+2+4/s).  The branch is explicit in the eigenangle theta of W, with
trace W = 2 - d = 2 cos(theta) and T = s + 2 + d/s: phi_n = 0 reads

    s = 2 sin(theta/2) sin(n theta) / cos((n + 1/2) theta),

and s runs strictly monotonically between 0 and inf as theta crosses the
open interval branch_interval(n).  branch_point evaluates it; solve finds
the theta of a given s by ITP (kernels.itp: regula falsi, truncated and
projected so that it never takes more than one step beyond bisection's
count) on the same equation with the denominator cleared, and
slopes.invert walks the whole branch in theta with it.  Both reach ITP
through branch_root; _branch(n) is the one record of which end is s -> 0.
n = 1 keeps its closed form T = s + 2 + 1/(s+1): its branch has d -> 0 as
s -> 0, where theta's absolute resolution would cost T its digits.
solve's root runs in _root on plain floats, which slopes.g_eval calls too,
so a RepSolution is built only where solve returns one, and only solve
evaluates phi_n at the root for its residual.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import asin, cos, inf, isfinite, pi, sin, sqrt

from . import kernels
from .errors import DomainError, NonConvergence, NumericsError
from .exactpoly import check_n, is_int


def check_positive(name: str, value: float) -> float:
    """value as a float; DomainError unless it is finite and positive."""
    value = float(value)
    if not 0.0 < value < inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return value


class RepSolution(
    namedtuple("RepSolution", "n s T t trace_W theta phi_residual iterations")
):
    """A root (n, s, T) with the derived scalars downstream modules need.

    trace_W and theta are carried at full precision from the branch angle;
    recomputing them from T would reintroduce the cancellation the solver
    avoids.  phi_residual is phi_n at the root, evaluated independently of
    the branch equation solve zeroes.
    """

    __slots__ = ()


def tau_num(m: int, trace: float) -> float:
    """Numeric (z^m - z^-m)/(z - z^-1) with z + 1/z = trace, |trace| <= 2."""
    if not is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
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


def t_from_T(T: float) -> float:
    """Larger root of t + 1/t = T, real for T >= 2."""
    T = float(T)
    if not T >= 2.0:
        raise DomainError(f"T must be at least 2, got {T}")
    return 0.5 * (T + sqrt(T * T - 4.0))


@lru_cache(maxsize=64)
def _branch(n: int) -> tuple[float, float, float, float]:
    """(zero, inf_end, den_zero, num_inf): the one record of n's root branch;
    n must pass check_n.

    zero and inf_end are the eigenangles theta where s -> 0 and s -> inf:

        n > 1:   pi/n,       3pi/(2n+1)
        n = 1:   0,          pi/3
        n < -1:  pi/|n|,     pi/(2|n|-1)

    so s rises with theta for n >= 1 and falls for n < -1.  den_zero =
    cos((n + 1/2) theta) at zero and num_inf = 2 sin(theta/2) sin(n theta) at
    inf_end are the factors of solve's end values.  The record depends on n
    alone, so a small functools cache, cleared with the package's other
    caches, computes it once per n, not once per root.
    """
    if n == 1:
        zero, inf_end = 0.0, pi / 3
    elif n > 1:
        zero, inf_end = pi / n, 3 * pi / (2 * n + 1)
    else:
        zero, inf_end = pi / abs(n), pi / (2 * abs(n) - 1)
    return zero, inf_end, _branch_terms(n, zero)[2], _branch_terms(n, inf_end)[1]


def branch_interval(n: int) -> tuple[float, float]:
    """Open theta interval of n's root branch, lower end first."""
    return tuple(sorted(_branch(n)[:2]))


def _branch_terms(n: int, theta: float) -> tuple[float, float, float]:
    """(sin(theta/2), 2 sin(theta/2) sin(n theta), cos((n + 1/2) theta)): the
    branch equation s * cos((n + 1/2) theta) = 2 sin(theta/2) sin(n theta)."""
    h = sin(0.5 * theta)
    return h, 2.0 * h * sin(n * theta), cos((n + 0.5) * theta)


def _branch_equation(n: int, s: float):
    """theta -> s cos((n + 1/2) theta) - 2 sin(theta/2) sin(n theta).

    _branch_terms's equation with its denominator cleared, written out in
    one expression, bit for bit s * den - num of its terms, so that each ITP
    step of solve costs one Python call.
    """
    a = n + 0.5

    def branch_eq(theta):
        return s * cos(a * theta) - 2.0 * sin(0.5 * theta) * sin(n * theta)

    return branch_eq


def branch_point(n: int, theta: float) -> tuple[float, float, float]:
    """(s, T, t) of the root branch at eigenangle theta of W, in closed form.

    theta must lie inside branch_interval(n), where s is positive and finite.
    Within rounding of an end the closed form can still give s <= 0 (at
    n = 2, float(pi/2) lies just below the true s -> 0 end); that is a
    NumericsError naming the end.  T = s + 2 + d/s with d = 4 sin^2(theta/2)
    and t = t_from_T(T), as in solve, so a branch point differs from
    solve(n, s) only in where theta's rounding falls.
    """
    h, num, den = _branch_terms(n, theta)
    s = num / den
    if not s > 0.0:
        zero, inf_end, _, _ = _branch(n)
        end, name = (zero, "0") if abs(theta - zero) <= abs(theta - inf_end) else (inf_end, "inf")
        raise NumericsError(
            f"branch point at theta = {theta} rounds onto the s -> {name} end "
            f"{end} of n={n}'s branch: s = {s} is not positive"
        )
    T = s + 2.0 + 4.0 * h * h / s
    return s, T, t_from_T(T)


def branch_root(branch: tuple, f, f_zero: float, f_inf: float) -> tuple[float, int, bool]:
    """kernels.itp on f across the theta interval of branch, the _branch(n)
    record: (theta, iterations, capped).

    f_zero and f_inf are f's values at the ends where s -> 0 and s -> inf,
    nonzero with opposite signs; ITP never evaluates an end, and it stops at
    hi - lo < 2 ulp(hi), float resolution.
    """
    zero, inf_end, _, _ = branch
    if zero < inf_end:
        return kernels.itp(f, zero, inf_end, f_zero, f_inf)
    return kernels.itp(f, inf_end, zero, f_inf, f_zero)


def _root(n: int, s: float) -> tuple[float, float, float, float, int]:
    """(T, t, delta, theta, iterations) of the root at (n, s).

    The root core on plain floats, for solve and slopes.g_eval, which
    validate n and s and build the one record their caller receives.
    branch_root runs ITP on f = s cos((n + 1/2) theta) - 2 sin(theta/2)
    sin(n theta), the branch equation with its denominator cleared.  Its end
    values are closed form, s cos((n + 1/2) theta) < 0 where s -> 0 and
    -2 sin(theta/2) sin(n theta) > 0 where s -> inf, both read from the one
    _branch(n) lookup of the root, so no end is evaluated.
    delta = 4 sin^2(theta/2) then gives T = s + 2 + delta/s and trace W =
    2 - delta.  A root makes no phi_delta call; solve evaluates the residual.
    n = 1 has the exact closed form T = s + 2 + 1/(s+1) and takes no step.
    """
    if n == 1:
        delta = s / (s + 1.0)
        # delta = 4 sin^2(theta/2)
        theta = 2.0 * asin(0.5 * sqrt(delta))
        T = s + 2.0 + 1.0 / (s + 1.0)
        iters = 0
    else:
        branch = _branch(n)
        _, _, den_zero, num_inf = branch
        theta, iters, capped = branch_root(
            branch, _branch_equation(n, s), s * den_zero, -num_inf
        )
        if capped:
            raise NonConvergence(
                f"root finding hit the {kernels.ITP_MAX_ITER}-iteration cap at n={n}, s={s}"
            )
        h = sin(0.5 * theta)
        delta = 4.0 * h * h
        T = s + 2.0 + delta / s
    t = t_from_T(T)
    if not (isfinite(T) and isfinite(t)):
        raise NumericsError(
            f"solve left the floating range at n={n}, s={s}: T = {T}, t = {t}"
        )
    return T, t, delta, theta, iters


def solve(n: int, s: float) -> RepSolution:
    """Locate the root of phi_n(s, .) on the branch, to float resolution in
    theta (see _root), as a RepSolution with phi_n's residual there."""
    check_n(n)
    s = check_positive("s", s)
    T, t, delta, theta, iters = _root(n, s)
    residual = kernels.phi_delta(n, s, delta)
    if not isfinite(residual):
        raise NumericsError(
            f"solve left the floating range at n={n}, s={s}: phi_residual = {residual}"
        )
    return RepSolution(n, s, T, t, 2.0 - delta, theta, residual, iters)
