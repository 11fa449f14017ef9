"""The slope map g and its inversion.

At the solution for (n, s) the peripheral generators act with stretch factors
A = sqrt(t) (meridian) and B (longitude), and

    g(s) = -log B / log A.

A Dehn filling along x^p L^q kills the lifted peripheral element exactly when
A^p B^q = 1, i.e. g(s) = p/q.  g tends to 0 as s -> 0 and to 4 as s -> inf,
so every rational slope strictly inside (0, 4) is attained.  invert() runs
ITP once along the whole root branch, in the eigenangle theta of W, with
those two limits as the values at the branch's open ends; each step gets its
(s, T, t) in closed form from solver.branch_point, without a solve.
"""

from __future__ import annotations

from collections import namedtuple
from math import exp, gcd, log

from . import kernels, solver
from .errors import DomainError, NonConvergence, NumericsError, SlopeOutOfRange
from .exactpoly import check_n, is_int
from .rep import longitude_holonomy

DEFAULT_TOL_G = 1e-9


class SlopeSample(namedtuple("SlopeSample", "s T t B g")):
    """One evaluated point of the slope map."""

    __slots__ = ()


class InvertReport(namedtuple("InvertReport", "evaluations")):
    """Diagnostics from invert(): the number of slope samples the search
    consulted, one branch point per ITP step plus the one g_eval at the
    result."""

    __slots__ = ()


def _slope(n: int, s: float, t: float) -> tuple[float, float]:
    """(B, g) at a root (n, s, t): the one evaluation of the slope map."""
    # at |n| >= 2^55 T can round to 2.0, where t = 1 and log(t) = 0
    if not t > 1.0:
        raise NumericsError(f"eigenvalue t = {t} is not > 1 at n={n}, s={s}")
    b = longitude_holonomy(s, t)
    if not b > 0:
        raise NumericsError(f"longitude entry B = {b} not positive at n={n}, s={s}")
    return b, -2.0 * log(b) / log(t)


def g_eval(n: int, s: float) -> SlopeSample:
    """Solve at (n, s) and evaluate the slope map there.

    The root comes from solver._root, the core solve shares, on plain
    floats: the one record built is the returned sample, and no phi_n
    residual is evaluated, since only solve reports one.
    """
    check_n(n)
    s = solver.check_positive("s", s)
    T, t = solver._root(n, s)[:2]
    b, g = _slope(n, s, t)
    # B < 1 at every s > 0, so B = 1 (g = -0.0) is s below float resolution;
    # invert's steps call _slope instead, to which g = -0 is a valid sign
    if not b < 1.0:
        raise NumericsError(f"longitude entry B = {b} is not < 1 at n={n}, s={s}")
    return SlopeSample(s, T, t, b, g)


def _log_grid(s_min: float, s_max: float, samples: int) -> list[float]:
    lo = log(s_min)
    hi = log(s_max)
    step = (hi - lo) / (samples - 1)
    xs = [exp(lo + i * step) for i in range(samples)]
    xs[0] = s_min
    xs[-1] = s_max
    return xs


def scan(n: int, s_min: float, s_max: float, samples: int) -> list[SlopeSample]:
    """Slope map on a log-spaced grid, sorted by s."""
    if not (0 < s_min < s_max):
        raise DomainError(f"need 0 < s_min < s_max, got {s_min}, {s_max}")
    if not isinstance(samples, int) or samples < 2:
        raise DomainError(f"samples must be an integer of at least 2, got {samples!r}")
    return [g_eval(n, s) for s in _log_grid(s_min, s_max, samples)]


def invert(n: int, p: int, q: int) -> tuple[SlopeSample, InvertReport]:
    """Find s with |g(s) - p/q| <= DEFAULT_TOL_G; p/q must be reduced and in
    (0, 4).

    kernels.itp runs once over n's whole branch interval in theta, to float
    resolution, through solver.branch_root on the solver._branch(n) record.
    Its end values are g's limits minus p/q: -p/q where s -> 0 and 4 - p/q
    where s -> inf, which bracket every p/q in (0, 4).  ITP never evaluates
    an end, so the open ends, where s is 0 or inf, are never touched; each
    step evaluates g at solver.branch_point, with no solve.
    The returned sample is g_eval at the s of the final theta, so it is
    exactly what a fresh g_eval at s* gives, and it must meet DEFAULT_TOL_G.
    A final theta that rounds onto an end of the branch, where the closed
    form gives no positive s (1/10^17 at n = 2), is a NumericsError naming
    p/q, n and the end; a breakdown in the final g_eval (B rounds to 1 at
    n = -1000, 1/10^17) names p/q too and keeps its class.
    A bracket that collapses without meeting the bound is a jump, not a
    crossing: NonConvergence reports it, as it does kernels.ITP_MAX_ITER.
    """
    check_n(n)
    if not (is_int(p) and is_int(q)):
        raise DomainError(f"p and q must be integers, got {p!r}, {q!r}")
    if q < 1:
        raise DomainError(f"q must be a positive integer, got {q}")
    if gcd(p, q) != 1:
        raise DomainError(f"p/q must be in lowest terms, got {p}/{q}")
    # decided on the integers: p / q may overflow or round onto an end
    if not 0 < p < 4 * q:
        raise SlopeOutOfRange(
            f"slope {p}/{q} is outside the certified open interval (0, 4)"
        )
    r = p / q
    if not 0.0 < r < 4.0:
        raise NumericsError(
            f"slope {p}/{q} lies in (0, 4) but rounds to {r} in double precision"
        )

    def g_minus_r(theta):
        s, _, t = solver.branch_point(n, theta)
        return _slope(n, s, t)[1] - r

    theta, iters, capped = solver.branch_root(solver._branch(n), g_minus_r, -r, 4.0 - r)
    try:
        smp = g_eval(n, solver.branch_point(n, theta)[0])
    except NumericsError as exc:
        raise type(exc)(f"slope {p}/{q}: {exc}") from exc
    if abs(smp.g - r) <= DEFAULT_TOL_G:
        return smp, InvertReport(iters + 1)
    if capped:
        cap = kernels.ITP_MAX_ITER
        raise NonConvergence(f"slope root finding hit the {cap}-iteration cap for n={n}, {p}/{q}")
    raise NonConvergence(
        f"bracket around s = {smp.s} collapsed at n={n} with |g - {p}/{q}| = "
        f"{abs(smp.g - r):.3e} > tol = {DEFAULT_TOL_G}; g jumps across the target "
        f"(branch discontinuity) or tol is below attainable resolution"
    )
