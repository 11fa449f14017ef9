"""Hot kernels.

These four functions are the inner loops of the solver and the cover
arithmetic: the Chebyshev ratio, the defining function in the solver's
offset coordinate, the bisection loop over it, and the cover group law.
"""

from math import acos, acosh, atan2, cos, pi, sin, sinh

# bisect_phi_delta status codes
CONVERGED = 0
FLOAT_LIMIT = 1
ITER_CAP = 2


def cheb_ratio(m, x):
    """(z^m - z^-m)/(z - z^-1) where z + z^-1 = x, for any real x, integer m.

    On [-2, 2] this is sin(m*theta)/sin(theta) with x = 2*cos(theta); the
    removable singularities at x = +-2 take the limit values m and
    (-1)^(m-1) * m.  Outside [-2, 2] the sinh form applies.
    """
    ax = abs(x)
    if ax <= 2.0:
        theta = acos(0.5 * x)
        if theta < 1e-8:
            return float(m)
        if pi - theta < 1e-8:
            return float(m) if (m - 1) % 2 == 0 else float(-m)
        return sin(m * theta) / sin(theta)
    xi = acosh(0.5 * ax)
    r = sinh(m * xi) / sinh(xi)
    if x < 0.0 and (m - 1) % 2 != 0:
        r = -r
    return r


def _cheb_ratio_pair(m, x):
    """(cheb_ratio(m + 1, x), cheb_ratio(m, x)), bit for bit, sharing one
    acos (or acosh) and one sine (or sinh) between the two."""
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
    hi, lo = _cheb_ratio_pair(n, 2.0 - delta)
    return hi - (1.0 + delta / s) * lo


def bisect_phi_delta(n, s, lo, hi, sign_lo, tol, max_iter):
    """Bisect phi_delta's sign change on [lo, hi] in the delta coordinate.

    The caller supplies a certified bracket: phi_delta is nonzero at both
    ends with opposite signs, and sign_lo (+1 or -1) is its sign at lo, so
    neither end is evaluated here.  Returns (root, iterations, status).

    The loop runs until the width drops below tol/2, so iterations <=
    ceil(log2((hi-lo)/tol)) + 1 in exact arithmetic, one halving inside the
    ceil+2 bound to absorb rounding of the widths, and the returned midpoint
    sits within ~tol/4 of the bracketed root.  A midpoint that is no longer
    strictly interior means float resolution was reached; that counts as
    converged (status FLOAT_LIMIT).  Only the iteration cap is a failure.
    """
    lo_pos = sign_lo > 0
    target = 0.5 * tol
    iters = 0
    while hi - lo >= target:
        if iters >= max_iter:
            return 0.5 * (lo + hi), iters, ITER_CAP
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, iters, FLOAT_LIMIT
        f = phi_delta(n, s, mid)
        iters += 1
        if f == 0.0:
            return mid, iters, CONVERGED
        if (f > 0.0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iters, CONVERGED


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
