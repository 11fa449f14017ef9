"""The slope map g and its inversion.

At the solution for (n, s) the peripheral generators act with stretch factors
A = sqrt(t) (meridian) and B (longitude), and

    g(s) = -log B / log A.

A Dehn filling along x^p L^q kills the lifted peripheral element exactly when
A^p B^q = 1, i.e. g(s) = p/q.  g tends to 0 as s -> 0 and to 4 as s -> inf,
so every rational slope strictly inside (0, 4) is attained; invert() finds
the leftmost attaining s on a logarithmic scan grid and bisects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, gcd, log, sqrt

from .errors import DomainError, NoBracketFound, NonConvergence, NumericsError, SlopeOutOfRange
from .rep import longitude_holonomy
from .solver import DEFAULT_TOL_T, check_positive, solve

DEFAULT_TOL_G = 1e-9
GRID_S_MIN = 1e-6
GRID_S_MAX = 1e8
GRID_POINTS = 400


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
    (leftmost one is used), and the number of slope evaluations spent."""

    brackets: tuple
    evaluations: int


def g_eval(n: int, s: float, tol_T: float = DEFAULT_TOL_T) -> SlopeSample:
    """Solve at (n, s) and evaluate the slope map there."""
    sol = solve(n, s, tol=tol_T)
    b = longitude_holonomy(sol.s, sol.t)
    if not b > 0:
        raise NumericsError(f"longitude entry B = {b} not positive at n={n}, s={s}")
    g = -2.0 * log(b) / log(sol.t)
    return SlopeSample(s=sol.s, T=sol.T, t=sol.t, B=b, g=g)


def _log_grid(s_min: float, s_max: float, samples: int) -> list[float]:
    lo = log(s_min)
    hi = log(s_max)
    step = (hi - lo) / (samples - 1)
    xs = [exp(lo + i * step) for i in range(samples)]
    xs[0] = s_min
    xs[-1] = s_max
    return xs


def scan(
    n: int,
    s_min: float,
    s_max: float,
    samples: int,
    tol_T: float = DEFAULT_TOL_T,
) -> list[SlopeSample]:
    """Slope map on a log-spaced grid, sorted by s."""
    if not (0 < s_min < s_max):
        raise DomainError(f"need 0 < s_min < s_max, got {s_min}, {s_max}")
    if samples < 2:
        raise DomainError(f"samples must be at least 2, got {samples}")
    return [g_eval(n, s, tol_T) for s in _log_grid(s_min, s_max, samples)]


def scan_to_csv(rows: list[SlopeSample]) -> str:
    """CSV table "s,T,t,B,g", 17 significant digits per cell."""
    out = ["s,T,t,B,g"]
    for r in rows:
        out.append(
            ",".join(format(v, ".17g") for v in (r.s, r.T, r.t, r.B, r.g))
        )
    return "\n".join(out) + "\n"


def invert(
    n: int,
    p: int,
    q: int,
    tol: float = DEFAULT_TOL_G,
    tol_T: float = DEFAULT_TOL_T,
) -> tuple[SlopeSample, InvertReport]:
    """Find s with |g(s) - p/q| <= tol; p/q must be reduced and in (0, 4).

    Scans a log grid over [1e-6, 1e8] for sign changes of g - p/q, takes the
    leftmost, and bisects geometrically; returns the sample at s with the
    report of how it was found.  If the interval collapses to float
    resolution without meeting tol the sign change was a jump, not a
    crossing, and NonConvergence reports it instead of returning a bogus s.
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
    check_positive("tol", tol)

    evaluations = 0

    def f(s: float) -> SlopeSample:
        nonlocal evaluations
        evaluations += 1
        return g_eval(n, s, tol_T)

    grid = _log_grid(GRID_S_MIN, GRID_S_MAX, GRID_POINTS)
    samples = [f(s) for s in grid]
    for smp in samples:
        if abs(smp.g - r) <= tol:
            return smp, InvertReport(brackets=((smp.s, smp.s),), evaluations=evaluations)

    brackets = []
    for a, b in zip(samples, samples[1:]):
        if (a.g - r > 0) != (b.g - r > 0):
            brackets.append((a.s, b.s))
    if not brackets:
        gs = [smp.g for smp in samples]
        raise NoBracketFound(
            f"g - {p}/{q} never changes sign on the scan grid for n={n}; "
            f"observed g in [{min(gs):.6g}, {max(gs):.6g}]"
        )

    lo, hi = brackets[0]
    lo_pos = f(lo).g - r > 0
    result = None
    for _ in range(200):
        mid = sqrt(lo * hi)
        smp = f(mid)
        diff = smp.g - r
        if abs(diff) <= tol:
            result = smp
            break
        if hi - lo <= 1e-15 * hi:
            raise NonConvergence(
                f"interval [{lo}, {hi}] collapsed with |g - {p}/{q}| = "
                f"{abs(diff):.3e} > tol = {tol}; g jumps across the target "
                f"(branch discontinuity) or tol is below attainable resolution"
            )
        if (diff > 0) == lo_pos:
            lo = mid
        else:
            hi = mid
    if result is None:
        raise NonConvergence(
            f"slope bisection hit the iteration cap for n={n}, slope {p}/{q}"
        )
    return result, InvertReport(brackets=tuple(brackets), evaluations=evaluations)
