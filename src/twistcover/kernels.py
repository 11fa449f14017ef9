"""Hot kernels.

These three functions are the inner loops of the solver: cheb_pair, the
one float evaluation of the trace recursion (two consecutive Chebyshev
ratios); phi_delta, the defining function in the offset coordinate
d = (T - s - 2)*s; and itp, the bracketing root finder.  itp interpolates
by two-sided regula falsi: when the same end of its bracket moves twice in
a row, the value of the end that stayed put is scaled (Anderson-Bjorck), so
neither end goes stale.  A step of itp that would land on an end of its
bracket moves tol/4 inside that end (tol = 4 ulp(hi), itp's own), not to
the midpoint, so a root pinned to an end within rounding ends the search in
a step instead of twenty or so halvings.  Each search passes its own ITP
constants: the truncation k1 and the slack n0.  Whatever the interpolant
does, the worst case stays n0 steps beyond bisection's count.  The kernels
take and return plain floats; cheb_pair's trace lies in [-2, 2].
"""

from math import acos, pi, sin, ulp

# ITP constants of Oliveira & Takahashi: the truncation is
# k1 / (hi - lo) * width**ITP_K2, and n0 is the number of steps a search may
# take beyond bisection's count; ITP_MAX_ITER caps the steps of one search.
# ITP_K1 and ITP_N0 are itp's defaults, the constants of slopes.invert,
# where g - p/q is steep near both branch ends: without the truncation the
# grid's mean falls from 9.79 to 8.83 evaluations, but (2, 399999999/10^8)
# takes 55 against its gate of 52.  solve runs solver.ROOT_K1 and ROOT_N0.
ITP_K1 = 0.004
ITP_K2 = 2
ITP_N0 = 3
ITP_MAX_ITER = 200


def cheb_pair(m, x):
    """(U(m + 1), U(m)) for U(k) = (z^k - z^-k)/(z - z^-1), z + z^-1 = x.

    Its domain is x in [-2, 2], for any integer m: phi_delta takes delta in
    [0, 4], and solver.tau_num snaps a trace within 1e-12 of +-2 onto it and
    refuses the rest.  There U(k) is sin(k*theta)/sin(theta) with x =
    2*cos(theta), and the two values share one acos and one sine; the
    removable singularities at x = +-2 take the limit values k and
    (-1)^(k-1) * k.  An x outside the domain is acos's ValueError.
    """
    theta = acos(0.5 * x)
    if theta < 1e-8:
        return float(m + 1), float(m)
    if pi - theta < 1e-8:
        # (-1)^(k-1) * k at k = m + 1 and k = m: exactly one is negated
        if m % 2 == 0:
            return float(m + 1), float(-m)
        return float(-(m + 1)), float(m)
    st = sin(theta)
    return sin((m + 1) * theta) / st, sin(m * theta) / st


def phi_delta(n, s, delta):
    """Defining function at T = s + 2 + delta/s, evaluated through the trace.

    trace(W) = 2 - delta exactly in this parametrization, so the evaluation
    stays well conditioned for arbitrarily large s.
    """
    hi, lo = cheb_pair(n, 2.0 - delta)
    return hi - (1.0 + delta / s) * lo


def itp(f, lo, hi, f_lo, f_hi, k1=ITP_K1, n0=ITP_N0):
    """Locate f's sign change on [lo, hi] by ITP; returns (root, iterations, capped).

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) steps to the regula falsi point, nudged toward the midpoint
    by k1 / (hi - lo) * width**ITP_K2 and kept within a slack r of the
    midpoint.  The caller supplies a certified bracket: f_lo and f_hi are f
    at lo and hi, nonzero with opposite signs, so f is called once per step
    and never at an end.  A step point x with f(x) == 0.0 is returned at
    once.

    k1 and n0 are the search's constants, ITP_K1 and ITP_N0 unless given.
    The truncation guards a search whose f is steep near an end of the
    bracket, as slopes.invert's g - p/q is near both.  On a smooth f with
    closed-form end values, as solve's branch equation, the two-sided
    interpolation below already keeps both ends fresh and the truncation
    only costs steps: solver passes k1 = 0, and the loop then skips the
    truncation, bit for bit the formula's zero nudge.

    The interpolation is two-sided (Anderson & Bjorck, BIT 13 (1973), a
    relative of the Pegasus method of Dowell & Jarratt, BIT 12 (1972)).
    Plain regula falsi leaves one end stale on a convex f, so only the other
    end moves and the projection forces near-bisection steps.  Here, when the
    same end moves twice in a row, the value of the end that stayed put is
    scaled by m = 1 - f(x)/f_same, f_same being the moving end's previous
    value, or by 1/2 when m <= 0.  The next regula falsi point then moves
    toward the stale end, and a smooth root converges superlinearly from
    both sides.  Scaling never flips an end's sign but may underflow it to
    0, so which end a step replaces is read from lo's sign at entry.

    The tolerance is tol = 4 ulp(hi).  The loop runs until the width drops
    below tol/2 = 2 ulp(hi), float resolution, and returns the midpoint, as
    bisection does, so the midpoint sits within tol/4 of the bracketed root.
    Bisection needs floor(log2((hi-lo)/tol)) + 2 halvings for that.  The
    slack r keeps the width after j steps at most (hi-lo) * 2**(n0 - j),
    whatever the interpolant, so in exact arithmetic ITP stops within n0
    steps more than bisection: at most ceil(log2((hi-lo)/tol)) + n0 + 1
    unless the ratio is a power of two.  The slack is all the room the
    interpolant has: r = (hi-lo) * 2**(n0 - j - 1) - width/2 shrinks as
    bisection would, so early steps that hug one end, shrinking the bracket
    by less than half, spend it.  Once r reaches 0 every step is the
    midpoint, and the search ends as bisection, up to n0 steps beyond its
    count (solve(3, 1e-6) took 23 steps at k1 = 0 and n0 = 3, 4 at n0 = 4).
    A midpoint that is no longer strictly interior means float resolution
    was reached first (the root lies where floats are coarser than at hi);
    that too ends the search.  Only reaching ITP_MAX_ITER steps sets capped.

    A step point that is not strictly interior has reached an end: the
    regula falsi point rounds onto the end whose value is nearest 0, as once
    the root sits within rounding of it.  It moves tol/4 inside that end
    (Brent's minimum step, 1973), so the next bracket is either the tol/4
    sliver beside the end, which stops the loop, or the rest less tol/4.
    Bisecting instead would spend a step per halving on a root already
    pinned to the end.  The point stays within the slack r: it reached an
    end, so r was at least half the width, and the bound above holds.  The
    midpoint is kept only when the inset point is not strictly interior
    either (tol/4 below float resolution at the end).
    """
    tol = 4.0 * ulp(hi)
    target = 0.5 * tol
    k1 /= hi - lo
    # halved before each step, it is the width that step may leave
    slack_width = (hi - lo) * 2.0**n0
    lo_pos = f_lo > 0.0
    # -1 when lo moved last, 1 when hi did, 0 before the first step
    moved = 0
    iters = 0
    while hi - lo >= target:
        if iters >= ITP_MAX_ITER:
            return 0.5 * (lo + hi), iters, True
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, iters, False
        # interpolate (regula falsi), truncate toward the midpoint unless k1
        # is 0, project into the slack r around it; sigma is the sign of mid
        # minus the regula falsi point, so sigma * (mid - x) is |mid - x|
        # for each x on that point's side of mid
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = 1.0 if x < mid else -1.0
        if k1:
            trunc = k1 * width**ITP_K2
            x = x + sigma * trunc if trunc <= sigma * (mid - x) else mid
        slack_width *= 0.5
        r = slack_width - 0.5 * width if slack_width > 0.5 * width else 0.0
        if sigma * (mid - x) > r:
            x = mid - sigma * r
        if x <= lo or x >= hi:
            x = lo + 0.25 * tol if x <= lo else hi - 0.25 * tol
            if not lo < x < hi:
                x = mid
        fx = f(x)
        iters += 1
        if fx == 0.0:
            return x, iters, False
        # the end moving a second time in a row scales its partner's value
        if (fx > 0.0) == lo_pos:
            if moved < 0:
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, moved = x, fx, -1
        else:
            if moved > 0:
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, moved = x, fx, 1
    return 0.5 * (lo + hi), iters, False
