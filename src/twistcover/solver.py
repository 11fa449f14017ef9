"""Certified root location for the defining equation.

For n not in {0, -1} and s > 0 the equation phi_n(s, T) = 0 has one root on
the branch that runs from s = 0 to s = inf, in the open band
(s+2, s+2+4/s).  The branch is explicit in the eigenangle theta of W, with
trace W = 2 - d = 2 cos(theta) and T = s + 2 + d/s: phi_n = 0 reads

    s = 2 sin(theta/2) sin(n theta) / cos((n + 1/2) theta),

and s runs strictly monotonically between 0 and inf as theta crosses the
open interval branch_interval(n).  branch_point evaluates it; solve finds
the theta of a given s by ITP (kernels.itp: two-sided regula falsi,
projected so that it never takes more than n0 steps beyond bisection's
count) on the same equation with the denominator cleared, and slopes.invert
walks the whole branch in theta with it.  Both reach ITP through
_branch_root on the _branch(n) record of which end is s -> 0, formed once
per public call and handed down, not cached.  Each runs its own ITP
constants: solve's equation is smooth with closed-form end values, so it
runs ROOT_K1 = 0 (no truncation toward the midpoint) and ROOT_N0 = 4;
invert's g - p/q is steep near both ends and keeps kernels.itp's truncated
defaults, ITP_K1 and ITP_N0 = 3.
n = 1 keeps its closed form T = s + 2 + 1/(s+1): its branch has d -> 0 as
s -> 0, where theta's absolute resolution would cost T its digits.
solve's root runs in _root on plain floats, which slopes.g_eval calls too,
so a RepSolution is built only where solve returns one, and only solve
evaluates phi_n at the root for its residual.
"""

from __future__ import annotations

from collections import namedtuple
from math import asin, cos, isfinite, pi, sin, sqrt

from . import kernels
from .errors import (
    DomainError, NonConvergence, NumericsError, _too_large, as_float, check_n,
    check_positive, is_int,
)

# ITP constants of solve's search (invert keeps kernels.ITP_K1/ITP_N0): the
# branch equation is smooth with closed-form end values, and the two-sided
# regula falsi keeps both ends fresh, so a truncation toward the midpoint
# only costs steps (5.80 -> 4.68 per root on the scan window at n != 1);
# n0 = 4 leaves room for early steps that hug the s -> 0 end, where n0 = 3
# spends the slack and ends as bisection (23 steps at solve(3, 1e-6))
ROOT_K1 = 0.0
ROOT_N0 = 4


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
    trace = as_float("trace", trace)
    if not abs(trace) <= 2.0:
        if abs(trace) - 2.0 <= 1e-12:
            trace = 2.0 if trace > 0 else -2.0
        else:
            raise DomainError(f"trace must lie in [-2, 2], got {trace}")
    try:
        return kernels.cheb_pair(m - 1, trace)[0]
    except OverflowError:
        raise _too_large("m", m) from None


def phi_num(n: int, s: float, T: float) -> float:
    """Numeric phi_n(s, T) for T in the trace band [s+2, s+2+4/s]."""
    check_n(n)
    s = check_positive("s", s)
    T = as_float("T", T)
    # an infinite T would make the slack below infinite too
    if not isfinite(T):
        raise DomainError(f"T must be finite, got {T}")
    delta = ((T - s) - 2.0) * s
    # rounding slack: computing delta from T costs about s*ulp(T)
    slack = max(1e-9, 8e-16 * s * max(abs(T), 1.0))
    if not -slack <= delta <= 4.0 + slack:
        raise DomainError(
            f"T = {T} outside the trace band [s+2, s+2+4/s] for s = {s}"
        )
    delta = min(max(delta, 0.0), 4.0)
    try:
        return kernels.phi_delta(n, s, delta)
    except OverflowError:
        raise _too_large("n", n) from None


def t_from_T(T: float) -> float:
    """Larger root of t + 1/t = T, real for T >= 2."""
    T = as_float("T", T)
    if not T >= 2.0:
        raise DomainError(f"T must be at least 2, got {T}")
    return 0.5 * (T + sqrt(T * T - 4.0))


def _branch(n: int) -> tuple[float, float, float, float]:
    """(zero, inf_end, den_zero, num_inf): the one record of n's root branch;
    n must pass check_n.

    zero and inf_end are the eigenangles theta where s -> 0 and s -> inf:

        n > 1:   pi/n,       3pi/(2n+1)
        n = 1:   0,          pi/3
        n < -1:  pi/|n|,     pi/(2|n|-1)

    so s rises with theta for n >= 1 and falls for n < -1.  den_zero =
    cos((n + 1/2) theta) at zero and num_inf = 2 sin(theta/2) sin(n theta) at
    inf_end are the factors of solve's end values.  Each public entry forms
    the record once per call, after its own checks, and hands it down; an n
    beyond double range is refused by _too_large.
    """
    try:
        if n == 1:
            zero, inf_end = 0.0, pi / 3
        elif n > 1:
            zero, inf_end = pi / n, 3 * pi / (2 * n + 1)
        else:
            zero, inf_end = pi / abs(n), pi / (2 * abs(n) - 1)
    except OverflowError:
        raise _too_large("n", n) from None
    return zero, inf_end, _branch_terms(n, zero)[2], _branch_terms(n, inf_end)[1]


def branch_interval(n: int) -> tuple[float, float]:
    """Open theta interval of n's root branch, lower end first."""
    check_n(n)
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

    theta must lie inside the open interval branch_interval(n), where s is
    positive and finite; any other theta, NaN and +-inf included, is a
    DomainError.  Within rounding of an end the closed form can still give
    s <= 0 (at n = 13, at the first float inside the s -> 0 end); that is a
    NumericsError naming the end.  T = s + 2 + d/s with d = 4 sin^2(theta/2)
    and t = t_from_T(T), as in solve, so a branch point differs from
    solve(n, s) only in where theta's rounding falls.
    """
    check_n(n)
    branch = _branch(n)
    lo, hi = sorted(branch[:2])
    # as_float refuses an integer theta beyond double range, which the
    # message below could not format
    if not lo < as_float("theta", theta) < hi:
        raise DomainError(f"theta must lie in n={n}'s branch interval ({lo}, {hi}), got {theta}")
    return _branch_point(n, theta, branch)


def _branch_point(n: int, theta: float, branch: tuple) -> tuple[float, float, float]:
    """branch_point for a checked n and theta on branch, the _branch(n)
    record (read only to name an end): the core of invert's steps.

    t_from_T's root is written out, as in _root, without its check T >= 2:
    T = s + 2 + d/s with s > 0 and d >= 0 always meets it.
    """
    h, num, den = _branch_terms(n, theta)
    s = num / den
    if not s > 0.0:
        zero, inf_end, _, _ = branch
        end, name = (zero, "0") if abs(theta - zero) <= abs(theta - inf_end) else (inf_end, "inf")
        raise NumericsError(
            f"branch point at theta = {theta} rounds onto the s -> {name} end "
            f"{end} of n={n}'s branch: s = {s} is not positive"
        )
    T = s + 2.0 + 4.0 * h * h / s
    return s, T, 0.5 * (T + sqrt(T * T - 4.0))


def _branch_root(
    branch: tuple, f, f_zero: float, f_inf: float, k1=kernels.ITP_K1, n0=kernels.ITP_N0
) -> tuple[float, int, bool]:
    """kernels.itp on f across the theta interval of branch, the _branch(n)
    record, with ITP constants k1 and n0: (theta, iterations, capped).

    f_zero and f_inf are f's values at the ends where s -> 0 and s -> inf,
    nonzero with opposite signs; ITP never evaluates an end, and it stops at
    hi - lo < 2 ulp(hi), float resolution.
    """
    zero, inf_end, _, _ = branch
    if zero < inf_end:
        return kernels.itp(f, zero, inf_end, f_zero, f_inf, k1, n0)
    return kernels.itp(f, inf_end, zero, f_inf, f_zero, k1, n0)


def _root(n: int, s: float, branch: tuple) -> tuple[float, float, float, float, int]:
    """(T, t, delta, theta, iterations) of the root at (n, s) on branch.

    The root core on plain floats, for solve and slopes.g_eval, which
    validate n and s, form the _branch(n) record and build the one record
    their caller receives.  _branch_root runs ITP, at ROOT_K1 and ROOT_N0,
    on f = s cos((n + 1/2) theta) - 2 sin(theta/2) sin(n theta), the branch
    equation with its denominator cleared.  Its end values,
    s cos((n + 1/2) theta) < 0 where s -> 0 and -2 sin(theta/2) sin(n theta)
    > 0 where s -> inf, are read from the record, so no end is evaluated.
    delta = 4 sin^2(theta/2) then gives T = s + 2 + delta/s >= 2, trace W =
    2 - delta and t, t_from_T's root written out as in _branch_point.  A
    root makes no phi_delta call; solve evaluates the residual.
    n = 1 has the exact closed form T = s + 2 + 1/(s+1) and takes no step.
    """
    if n == 1:
        delta = s / (s + 1.0)
        # delta = 4 sin^2(theta/2)
        theta = 2.0 * asin(0.5 * sqrt(delta))
        T = s + 2.0 + 1.0 / (s + 1.0)
        iters = 0
    else:
        _, _, den_zero, num_inf = branch
        theta, iters, capped = _branch_root(
            branch, _branch_equation(n, s), s * den_zero, -num_inf, ROOT_K1, ROOT_N0
        )
        if capped:
            raise NonConvergence(
                f"root finding hit the {kernels.ITP_MAX_ITER}-iteration cap at n={n}, s={s}"
            )
        h = sin(0.5 * theta)
        delta = 4.0 * h * h
        T = s + 2.0 + delta / s
    t = 0.5 * (T + sqrt(T * T - 4.0))
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
    T, t, delta, theta, iters = _root(n, s, _branch(n))
    residual = kernels.phi_delta(n, s, delta)
    if not isfinite(residual):
        raise NumericsError(
            f"solve left the floating range at n={n}, s={s}: phi_residual = {residual}"
        )
    return RepSolution(n, s, T, t, 2.0 - delta, theta, residual, iters)
