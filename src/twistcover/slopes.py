"""The slope map g and its inversion.

At the solution for (n, s) the peripheral generators act with stretch factors
A = sqrt(t) (meridian) and B (longitude), and

    g(s) = -log B / log A.

A Dehn filling along x^p L^q kills the lifted peripheral element exactly when
A^p B^q = 1, i.e. g(s) = p/q.  g tends to 0 as s -> 0 and to 4 as s -> inf,
so every rational slope strictly inside (0, 4) is attained; invert() finds
the leftmost attaining s on a log scan grid and runs ITP along the root
branch between the two grid samples, in the eigenangle theta of W, where
solver.branch_point gives each step's (s, T, t) in closed form without a
solve.  The grid does not depend on the slope, so it is scanned once per n
and its samples, with their theta, are reused for every p/q at that n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, gcd, log, ulp

from . import kernels, solver
from .errors import DomainError, NoBracketFound, NonConvergence, NumericsError, SlopeOutOfRange
from .rep import longitude_holonomy

DEFAULT_TOL_G = 1e-9
GRID_S_MIN = 1e-6
GRID_S_MAX = 1e8
GRID_POINTS = 400
# grids kept by _grid_samples; one grid of SlopeSamples holds about 100 KB
GRID_CACHE_SIZE = 64


@dataclass(frozen=True)
class SlopeSample:
    """One evaluated point of the slope map."""

    s: float
    T: float
    t: float
    B: float
    g: float


@dataclass(frozen=True)
class InvertReport:
    """Diagnostics from invert(): every sign-change interval the scan found
    (leftmost one is used), and the number of slope samples the search
    consulted: the grid points, cached or not, plus one branch point per ITP
    step, plus the one g_eval at the result.  So `evaluations` is the same on
    every call with the same arguments."""

    brackets: tuple
    evaluations: int


def _slope(n: int, s: float, t: float) -> tuple[float, float]:
    """(B, g) at a root (n, s, t): the one evaluation of the slope map."""
    b = longitude_holonomy(s, t)
    if not b > 0:
        raise NumericsError(f"longitude entry B = {b} not positive at n={n}, s={s}")
    return b, -2.0 * log(b) / log(t)


def _sample(n: int, sol: solver.RepSolution) -> SlopeSample:
    b, g = _slope(n, sol.s, sol.t)
    return SlopeSample(s=sol.s, T=sol.T, t=sol.t, B=b, g=g)


def g_eval(n: int, s: float) -> SlopeSample:
    """Solve at (n, s) and evaluate the slope map there."""
    return _sample(n, solver.solve(n, s))


def _log_grid(s_min: float, s_max: float, samples: int) -> list[float]:
    lo = log(s_min)
    hi = log(s_max)
    step = (hi - lo) / (samples - 1)
    xs = [exp(lo + i * step) for i in range(samples)]
    xs[0] = s_min
    xs[-1] = s_max
    return xs


# typed, so that n = 2.0 is not served the grid of n = 2: solve() rejects it
@lru_cache(maxsize=GRID_CACHE_SIZE, typed=True)
def _grid_samples(n: int) -> tuple[tuple[SlopeSample, ...], tuple[float, ...]]:
    """invert()'s scan grid at n, evaluated once and then reused: the
    g_eval samples and, index for index, the theta of each one's root.

    lru_cache keeps no result for a call that raises, so an n whose grid
    fails raises again on every call.
    """
    sols = [solver.solve(n, s) for s in _log_grid(GRID_S_MIN, GRID_S_MAX, GRID_POINTS)]
    return tuple(_sample(n, sol) for sol in sols), tuple(sol.theta for sol in sols)


def scan(n: int, s_min: float, s_max: float, samples: int) -> list[SlopeSample]:
    """Slope map on a log-spaced grid, sorted by s."""
    if not (0 < s_min < s_max):
        raise DomainError(f"need 0 < s_min < s_max, got {s_min}, {s_max}")
    if not isinstance(samples, int) or samples < 2:
        raise DomainError(f"samples must be an integer of at least 2, got {samples!r}")
    return [g_eval(n, s) for s in _log_grid(s_min, s_max, samples)]


def scan_to_csv(rows: list[SlopeSample]) -> str:
    """CSV table "s,T,t,B,g", 17 significant digits per cell."""
    out = ["s,T,t,B,g"]
    for r in rows:
        out.append(
            ",".join(format(v, ".17g") for v in (r.s, r.T, r.t, r.B, r.g))
        )
    return "\n".join(out) + "\n"


def invert(n: int, p: int, q: int) -> tuple[SlopeSample, InvertReport]:
    """Find s with |g(s) - p/q| <= DEFAULT_TOL_G; p/q must be reduced and in
    (0, 4).

    Scans a log grid over [1e-6, 1e8] for sign changes of g - p/q and takes
    the leftmost.  Between its two grid samples, kernels.itp runs in theta
    from their g values to float resolution; each step evaluates g at
    solver.branch_point, with no solve.  The returned sample is g_eval at the
    s of the final theta, so it is exactly what a fresh g_eval at s* gives,
    and it must meet DEFAULT_TOL_G.  The grid comes from a per-n cache, so
    `evaluations` is the grid points plus the ITP steps plus one either way.
    A bracket that collapses without meeting the bound is a jump, not a
    crossing: NonConvergence reports it, as it does solver.DEFAULT_MAX_ITER.
    """
    if not isinstance(p, int) or not isinstance(q, int):
        raise DomainError(f"p and q must be integers, got {p!r}, {q!r}")
    if q < 1:
        raise DomainError(f"q must be a positive integer, got {q}")
    if gcd(p, q) != 1:
        raise DomainError(f"p/q must be in lowest terms, got {p}/{q}")
    r = p / q
    if not 0.0 < r < 4.0:
        raise SlopeOutOfRange(
            f"slope {p}/{q} is outside the certified open interval (0, 4)"
        )

    samples, thetas = _grid_samples(n)
    for smp in samples:
        if abs(smp.g - r) <= DEFAULT_TOL_G:
            return smp, InvertReport(brackets=((smp.s, smp.s),), evaluations=len(samples))

    crossings = [
        i for i in range(len(samples) - 1)
        if (samples[i].g - r > 0) != (samples[i + 1].g - r > 0)
    ]
    if not crossings:
        gs = [smp.g for smp in samples]
        raise NoBracketFound(
            f"g - {p}/{q} never changes sign on the scan grid for n={n}; "
            f"observed g in [{min(gs):.6g}, {max(gs):.6g}]"
        )
    brackets = tuple((samples[i].s, samples[i + 1].s) for i in crossings)

    i = crossings[0]
    ends = sorted(((thetas[i], samples[i].g - r), (thetas[i + 1], samples[i + 1].g - r)))
    (lo, f_lo), (hi, f_hi) = ends  # s falls as theta rises for n < -1

    def g_minus_r(theta):
        s, _, t = solver.branch_point(n, theta)
        return _slope(n, s, t)[1] - r

    # ftol = 0, tol = 4 ulp(hi): ITP stops at hi - lo < 2 ulp(hi), float resolution
    theta, iters, status = kernels.itp(
        g_minus_r, lo, hi, f_lo, f_hi, 4.0 * ulp(hi), solver.DEFAULT_MAX_ITER, 0.0,
    )
    smp = g_eval(n, solver.branch_point(n, theta)[0])
    if abs(smp.g - r) <= DEFAULT_TOL_G:
        return smp, InvertReport(brackets=brackets, evaluations=len(samples) + iters + 1)
    if status == kernels.ITER_CAP:
        cap = solver.DEFAULT_MAX_ITER
        raise NonConvergence(f"slope root finding hit the {cap}-iteration cap for n={n}, {p}/{q}")
    raise NonConvergence(
        f"bracket around s = {smp.s} collapsed with |g - {p}/{q}| = "
        f"{abs(smp.g - r):.3e} > tol = {DEFAULT_TOL_G}; g jumps across the target "
        f"(branch discontinuity) or tol is below attainable resolution"
    )
