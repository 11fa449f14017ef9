"""Hot kernels.

These four functions are the inner loops of the solver and the cover
arithmetic: cheb_pair, the one float evaluation of the trace recursion (two
consecutive Chebyshev ratios, which rep.w_power, solver.tau_num and phi_delta
all read); phi_delta, the defining function in the offset coordinate
d = (T - s - 2)*s, which gives solve its residual; itp, the root finder of
solve and of invert, both in the branch angle theta (through
solver.branch_root, between the ends of solver._branch(n)), where solve's
steps evaluate the branch equation and invert's evaluate g at a
closed-form branch point; and cover_compose, the cover group law.  A step of
itp that would land on an end of its bracket moves tol/4 inside that end
(tol = 4 ulp(hi), itp's own), not to the midpoint, so a root pinned to an
end within rounding ends the search in a step instead of twenty or so
halvings; the worst case stays one step beyond bisection's count.

The kernels take and return plain floats and complexes.  Their callers keep
to that on the hot paths: solver._root returns a tuple, and a RepSolution or
SlopeSample (each a namedtuple) is built once, where a public function
returns it.  Only solve calls phi_delta, for the residual it reports; a root
for g_eval, and so for scan and invert, makes none.  In the cover module a
CoverElem is itself a checked (gamma, omega) tuple, and the group law's
steps compose plain pairs.
"""

from math import acos, acosh, atan2, cos, pi, sin, sinh, ulp

# ITP constants of Oliveira & Takahashi: the truncation is
# ITP_K1 / (hi - lo) * width**ITP_K2, and ITP_N0 is the number of steps it
# may take beyond bisection's count; ITP_MAX_ITER caps the steps of one search
ITP_K1 = 0.2
ITP_K2 = 2
ITP_N0 = 1
ITP_MAX_ITER = 200


def cheb_pair(m, x):
    """(U(m + 1), U(m)) for U(k) = (z^k - z^-k)/(z - z^-1), z + z^-1 = x.

    Valid for any real x and integer m; the two values share one acos (or
    acosh) and one sine (or sinh).  On [-2, 2], U(k) is sin(k*theta)/sin(theta)
    with x = 2*cos(theta); the removable singularities at x = +-2 take the
    limit values k and (-1)^(k-1) * k.  Outside [-2, 2] the sinh form applies.
    """
    if abs(x) <= 2.0:
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
    xi = acosh(0.5 * abs(x))
    sh = sinh(xi)
    hi = sinh((m + 1) * xi) / sh
    lo = sinh(m * xi) / sh
    if x < 0.0:
        if m % 2 != 0:
            hi = -hi
        else:
            lo = -lo
    return hi, lo


def phi_delta(n, s, delta):
    """Defining function at T = s + 2 + delta/s, evaluated through the trace.

    trace(W) = 2 - delta exactly in this parametrization, so the evaluation
    stays well conditioned for arbitrarily large s.
    """
    hi, lo = cheb_pair(n, 2.0 - delta)
    return hi - (1.0 + delta / s) * lo


def itp(f, lo, hi, f_lo, f_hi):
    """Locate f's sign change on [lo, hi] by ITP; returns (root, iterations, capped).

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) steps to the regula falsi point, nudged toward the midpoint
    by ITP_K1 * width**ITP_K2 and kept within a slack r of the midpoint, so
    it converges superlinearly on a smooth root.  The caller supplies a
    certified bracket: f_lo and f_hi are f at lo and hi, nonzero with
    opposite signs, so f is called once per step and never at an end.  A
    step point x with f(x) == 0.0 is returned at once.

    The tolerance is tol = 4 ulp(hi).  The loop runs until the width drops
    below tol/2 = 2 ulp(hi), float resolution, and returns the midpoint, as
    bisection does, so the midpoint sits within tol/4 of the bracketed root.
    Bisection needs floor(log2((hi-lo)/tol)) + 2 halvings for that.  The
    slack r keeps the width after j steps at most (hi-lo) * 2**(ITP_N0 - j),
    so in exact arithmetic ITP stops within ITP_N0 = 1 step more:
    ceil(log2((hi-lo)/tol)) + 2 unless the ratio is a power of two.  A
    midpoint that is no longer strictly interior means float resolution was
    reached first (the root lies where floats are coarser than at hi); that
    too ends the search.  Only reaching ITP_MAX_ITER steps sets capped.

    A step point that is not strictly interior has reached an end: the
    regula falsi point rounds onto the end whose f is nearest 0 once the
    root sits within rounding of it.  It moves tol/4 inside that end (Brent's
    minimum step, 1973), so the next bracket is either the tol/4 sliver
    beside the end, which stops the loop, or the rest less tol/4.  Bisecting
    instead would spend a step per halving on a root already pinned to the
    end.  The point stays within the slack r: it reached an end, so r was at
    least half the width, and the bound above holds.  The midpoint is kept
    only when the inset point is not strictly interior either (tol/4 below
    float resolution at the end).
    """
    tol = 4.0 * ulp(hi)
    target = 0.5 * tol
    k1 = ITP_K1 / (hi - lo)
    # halved before each step, it is the width that step may leave
    slack_width = (hi - lo) * 2.0**ITP_N0
    iters = 0
    while hi - lo >= target:
        if iters >= ITP_MAX_ITER:
            return 0.5 * (lo + hi), iters, True
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, iters, False
        # interpolate (regula falsi), truncate toward the midpoint, project
        # into the slack r around it; sigma is the sign of mid - x_f, so
        # sigma * (mid - x) is |mid - x| for each x on x_f's side of mid
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = 1.0 if x_f < mid else -1.0
        trunc = k1 * width**ITP_K2
        x = x_f + sigma * trunc if trunc <= sigma * (mid - x_f) else mid
        slack_width *= 0.5
        r = slack_width - 0.5 * width
        if r < 0.0:
            r = 0.0
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
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    return 0.5 * (lo + hi), iters, False


def cover_compose(g1, w1, g2, w2):
    """Group law of the universal cover in the (gamma, omega) chart.

    gamma'' = (gamma2 + gamma1*e^(-2i*w2)) / (1 + gamma1*conj(gamma2)*e^(-2i*w2))
    omega'' = w1 + w2 + arg(1 + gamma1*conj(gamma2)*e^(-2i*w2))

    The arg term equals the principal log form (1/2i)Log(d/conj(d)) because
    Re(d) > 0 whenever both gammas lie in the unit disk; that positivity is
    asserted on every call so a branch crossing can never pass silently.
    """
    c = cos(-2.0 * w2)
    sn = sin(-2.0 * w2)
    ph = complex(c, sn)
    den = 1.0 + g1 * g2.conjugate() * ph
    if den.real <= 0.0:
        raise ValueError("principal log branch violated; element outside the unit disk")
    g = (g2 + g1 * ph) / den
    w = w1 + w2 + atan2(den.imag, den.real)
    return g, w
