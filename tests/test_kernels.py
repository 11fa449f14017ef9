"""Kernels against exact oracles and the solver's own values."""

import math
import random
from cmath import rect
from fractions import Fraction
from functools import partial
from math import acos, pi, sin

import pytest

from twistcover import kernels, slopes, solver
from twistcover.checks import GRID_N, GRID_SLOPES
from twistcover.exactpoly import tau_exact


def test_cheb_ratio_against_exact_recursion():
    # both components of cheb_pair against the exact recursion, on its
    # domain [-2, 2]
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(-12, 13)
        den = rng.randrange(1, 12)
        x = Fraction(rng.randrange(-2 * den, 2 * den + 1), den)
        got = kernels.cheb_pair(m, float(x))
        want = (float(tau_exact(m + 1, x)), float(tau_exact(m, x)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (m, x)


def test_cheb_ratio_spot_values():
    # x = 1 is theta = pi/3: sin(5 theta)/sin(theta) = -1
    assert kernels.cheb_pair(4, 1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    # boundary x = 2: tau_m -> m
    assert kernels.cheb_pair(6, 2.0)[0] == 7.0
    assert kernels.cheb_pair(7, -2.0)[1] == 7.0
    # outside its domain [-2, 2] it refuses rather than answers
    for x in (2.5, -2.5, 2.0 + 4e-16):
        with pytest.raises(ValueError):
            kernels.cheb_pair(2, x)


def test_cheb_pair_sign_rule_at_the_removable_singularities():
    # U(k) -> k at x = 2 and (-1)^(k-1) * k at x = -2, exactly
    for m in range(-20, 21):
        assert kernels.cheb_pair(m, 2.0) == (m + 1, m), m
        assert kernels.cheb_pair(m, -2.0) == ((-1) ** m * (m + 1), (-1) ** (m - 1) * m), m


# delta windows with phi's sign fixed at each end: (2 - 2cos(pi/k),
# 2 - 2cos(3pi/k)) with k = |2n + 1|, and (1, 2) for n = -2
DELTA_WINDOWS = {
    (2, 1.0): (2 - 2 * math.cos(math.pi / 5), 2 - 2 * math.cos(3 * math.pi / 5), -1, 1),
    (-2, 1.0): (1.0, 2.0, 1, -1),
    (3, 0.5): (2 - 2 * math.cos(math.pi / 7), 2 - 2 * math.cos(3 * math.pi / 7), -1, 1),
    (-4, 2.0): (2 - 2 * math.cos(math.pi / 7), 2 - 2 * math.cos(3 * math.pi / 7), 1, -1),
}


def test_phi_delta_matches_solver_values():
    # phi in the delta chart vanishes exactly where the T-chart phi does
    from twistcover.solver import phi_num

    for (n, s), (d_lo, d_hi, sign_lo, sign_hi) in DELTA_WINDOWS.items():
        assert math.copysign(1, kernels.phi_delta(n, s, d_lo)) == sign_lo
        assert math.copysign(1, kernels.phi_delta(n, s, d_hi)) == sign_hi
        mid = 0.5 * (d_lo + d_hi)
        assert kernels.phi_delta(n, s, mid) == pytest.approx(
            phi_num(n, s, s + 2 + mid / s), rel=1e-9, abs=1e-12
        )


def test_bisect_statuses(monkeypatch):
    d_lo, d_hi, _, _ = DELTA_WINDOWS[2, 1.0]
    phi = partial(kernels.phi_delta, 2, 1.0)
    window = (d_lo, d_hi, phi(d_lo), phi(d_hi))
    root, iters, capped = kernels.itp(phi, *window)
    assert not capped
    assert 0 < iters <= 60
    bits = math.log2((d_hi - d_lo) / (4.0 * math.ulp(d_hi)))
    assert iters <= math.ceil(bits) + kernels.ITP_N0 + 1
    # delta = T - s - 2 at s = 1 with T = (17 + sqrt(17))/4
    assert root == pytest.approx((5 + math.sqrt(17)) / 4, rel=1e-12)

    # the cap is read when itp runs
    monkeypatch.setattr(kernels, "ITP_MAX_ITER", 3)
    assert kernels.itp(phi, *window)[1:] == (3, True)
    monkeypatch.undo()

    # tol = 4 ulp(2**-1000) is far below the spacing of floats at a jump at
    # -1.25, so the bracket closes on two neighbouring floats and the
    # midpoint, no longer interior, ends the search: not capped
    seen = []

    def step(x):
        seen.append(x)
        return -1.0 if x < -1.25 else 1.0

    assert kernels.itp(step, -3.0, 2.0**-1000, -1.0, 1.0) == (-1.25, 55, False)
    assert len(seen) == 55
    # within ITP_N0 steps of bisection's count, float resolution or not
    # (the ratio of the window to tol overflows a float, its log2 does not)
    bits = math.log2(3.0 + 2.0**-1000) - math.log2(4.0 * math.ulp(2.0**-1000))
    assert len(seen) <= math.ceil(bits) + kernels.ITP_N0 + 1


def test_itp_returns_an_exact_zero_at_once():
    # x^3 + 2 on [-3, 2**-1000]: float resolution at the root is far coarser
    # than tol, and the first step point where f is exactly 0.0 (the 14th)
    # comes back as it is, not the bracket midpoint
    seen = []

    def f(x):
        seen.append(x)
        return x**3 + 2.0

    root, iters, capped = kernels.itp(f, -3.0, 2.0**-1000, -25.0, 2.0)
    assert (iters, capped) == (14, False)
    assert len(seen) == 14 and root == seen[-1]
    assert root**3 + 2.0 == 0.0
    assert all(x**3 + 2.0 != 0.0 for x in seen[:-1])


@pytest.mark.parametrize(
    "f, lo, hi, steps",
    [(lambda x: x**8 - 0.5, 0.0, 2.0, 17), (lambda x: x * x - 2.0, 0.0, 10.0, 11)],
    ids=["x^8 - 1/2", "x^2 - 2"],
)
def test_itp_scales_the_stale_end_of_a_convex_f(f, lo, hi, steps):
    # on a convex f plain regula falsi moves only the end nearest the root,
    # so the other end's value stays stale and the slack forces bisection:
    # 55 steps on both.  Scaling the end that stayed put makes the steps
    # close in from both sides.
    root, iters, capped = kernels.itp(f, lo, hi, f(lo), f(hi))
    assert (iters, capped) == (steps, False)
    assert abs(f(root)) <= 1e-14


@pytest.mark.parametrize(
    "n, s", [(3, 0.020691380811147925), (-3, 0.05032159359259993), (3, 2532.2627816987933)]
)
def test_itp_steps_inside_an_end_it_reaches(n, s):
    # solve's branch equation at points where the regula falsi point rounds
    # onto the end whose f is ~0 once |f| is near 1e-16: the step moves tol/4
    # inside that end, not to the midpoint, and the next bracket is the tol/4
    # sliver beside it (bisecting toward the end took 31, 32 and 31 steps)
    zero, _, den_zero, num_inf = solver._branch(n)
    lo, hi = solver.branch_interval(n)
    # itp's own tolerance
    tol = 4.0 * math.ulp(hi)
    f_zero, f_inf = s * den_zero, -num_inf
    f_lo, f_hi = (f_zero, f_inf) if zero == lo else (f_inf, f_zero)
    branch_eq = solver._branch_equation(n, s)
    seen = []

    def f(x):
        seen.append((x, branch_eq(x)))
        return seen[-1][1]

    _, iters, capped = kernels.itp(f, lo, hi, f_lo, f_hi)
    assert not capped and iters == len(seen) <= 10
    # replay itp's bracket, with the scaling of the end that stayed put, to
    # find the steps whose regula falsi point was on an end
    insets = 0
    moved = 0
    for x, fx in seen:
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if x_f <= lo or x_f >= hi:
            assert x == (lo + 0.25 * tol if x_f <= lo else hi - 0.25 * tol), (x, lo, hi)
            assert x != 0.5 * (lo + hi)
            insets += 1
        if (fx > 0.0) == (f_lo > 0.0):
            if moved < 0:
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, moved = x, fx, -1
        else:
            if moved > 0:
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, moved = x, fx, 1
    assert insets >= 1


def _itp_truncating(f, lo, hi, f_lo, f_hi, k1, n0):
    """kernels.itp's loop with the truncation formula and the clamp of the
    slack r written out in full at every step, whatever k1: the reference
    for the loop that skips the truncation when k1 is 0."""
    tol = 4.0 * math.ulp(hi)
    target = 0.5 * tol
    k1 = k1 / (hi - lo)
    slack_width = (hi - lo) * 2.0**n0
    lo_pos = f_lo > 0.0
    moved = 0
    iters = 0
    while hi - lo >= target:
        if iters >= kernels.ITP_MAX_ITER:
            return 0.5 * (lo + hi), iters, True
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid, iters, False
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        sigma = 1.0 if x_f < mid else -1.0
        trunc = k1 * width**kernels.ITP_K2
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


def _solve_search(n, s):
    """(f, lo, hi, f_lo, f_hi) of solve's theta search at (n, s), oriented
    as solver._branch_root orients it."""
    zero, inf_end, den_zero, num_inf = solver._branch(n)
    f = solver._branch_equation(n, s)
    if zero < inf_end:
        return f, zero, inf_end, s * den_zero, -num_inf
    return f, inf_end, zero, -num_inf, s * den_zero


def _solve_points():
    """A seeded sample of (n, s) over the grid's n, +-10, +-20 and +-1000."""
    rng = random.Random(4242)
    ns = [n for n in GRID_N if n != 1] + [10, -10, 20, -20, 1000, -1000]
    return [(rng.choice(ns), 10.0 ** rng.uniform(-8.0, 12.0)) for _ in range(600)]


def _solve_searches():
    return [_solve_search(n, s) for n, s in _solve_points()]


def _invert_searches():
    """invert's theta search for every 9th grid slope at each grid n."""
    out = []
    for n in GRID_N:
        branch = solver._branch(n)
        for p, q in GRID_SLOPES[::9]:

            def g_minus_r(theta, n=n, branch=branch, r=p / q):
                s, _, t = solver._branch_point(n, theta, branch)
                return slopes._slope(n, s, t)[1] - r

            zero, inf_end, _, _ = branch
            f_zero, f_inf = -p / q, 4.0 - p / q
            if zero < inf_end:
                out.append((g_minus_r, zero, inf_end, f_zero, f_inf))
            else:
                out.append((g_minus_r, inf_end, zero, f_inf, f_zero))
    return out


def _synthetic_searches():
    d_lo, d_hi, _, _ = DELTA_WINDOWS[2, 1.0]
    phi = partial(kernels.phi_delta, 2, 1.0)
    yield phi, d_lo, d_hi, phi(d_lo), phi(d_hi)
    yield (lambda x: -1.0 if x < -1.25 else 1.0), -3.0, 2.0**-1000, -1.0, 1.0
    yield (lambda x: x**3 + 2.0), -3.0, 2.0**-1000, -25.0, 2.0
    for f, lo, hi in [
        (lambda x: x**8 - 0.5, 0.0, 2.0), (lambda x: x * x - 2.0, 0.0, 10.0),
        (lambda x: x**3 - 2.0, 0.0, 10.0), (lambda x: math.exp(x) - 2.0, 0.0, 20.0),
        (lambda x: x**10 - 1.0, 0.0, 4.0),
    ]:
        yield f, lo, hi, f(lo), f(hi)


@pytest.mark.parametrize("searches", [_solve_searches, _invert_searches, _synthetic_searches])
def test_itp_skips_a_zero_truncation_bit_for_bit(searches):
    # at k1 = 0 the loop skips the truncation; the full formula gives a zero
    # truncation, and both return the same root, steps and cap, at solve's
    # n0 and at kernels.ITP_N0.  At the default constants, invert's, the
    # loop is the full formula's too, on invert's own searches as well.
    for f, lo, hi, f_lo, f_hi in searches():
        for n0 in (solver.ROOT_N0, kernels.ITP_N0):
            got = kernels.itp(f, lo, hi, f_lo, f_hi, 0.0, n0)
            want = _itp_truncating(f, lo, hi, f_lo, f_hi, 0.0, n0)
            assert repr(got) == repr(want), (lo, hi, n0)
        got = kernels.itp(f, lo, hi, f_lo, f_hi)
        want = _itp_truncating(f, lo, hi, f_lo, f_hi, kernels.ITP_K1, kernels.ITP_N0)
        assert repr(got) == repr(want), (lo, hi)


def test_solve_runs_itp_at_its_own_constants():
    # solve's root is kernels.itp at solver.ROOT_K1 and ROOT_N0 on the
    # search that test_itp_skips_a_zero_truncation_bit_for_bit replays
    for n, s in _solve_points():
        theta, iters, _ = kernels.itp(*_solve_search(n, s), solver.ROOT_K1, solver.ROOT_N0)
        sol = solver.solve(n, s)
        assert (repr(sol.theta), sol.iterations) == (repr(theta), iters), (n, s)


def test_cover_compose_rejects_nonprincipal_branch():
    # inside the disk |g1*conj(g2)| < 1 keeps Re(den) > 0, so the guard can
    # only fire on invalid input; feed it some to prove it is wired up
    with pytest.raises(ValueError):
        kernels.cover_compose(1.5 + 0j, 0.0, -0.9 + 0j, 0.0)


def test_unit_phase_rect_is_complex_of_cos_and_sin():
    # cover_compose (at -2 w), cover._inv (at 2 w) and cover.unchart (at w)
    # form e^(i phi) as cmath.rect(1, phi): CPython's rect is 1*cos(phi),
    # 1*sin(phi), and (1, phi) at phi == 0, so the bits are complex(cos, sin)'s
    rng = random.Random(17)
    ws = [0.0, -0.0, 1e300, -1e300, 5e-324, pi, -pi, 1e-9, 1e9]
    ws += [rng.uniform(-50.0, 50.0) for _ in range(2000)]
    ws += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 20.0) for _ in range(1000)]
    for w in ws:
        for phi in (w, -2.0 * w, 2.0 * w):
            assert repr(rect(1.0, phi)) == repr(complex(math.cos(phi), math.sin(phi))), phi


def _cheb_ratio(m, x):
    """The single-value formula on [-2, 2], kept as the reference that
    cheb_pair must match bit for bit."""
    theta = acos(0.5 * x)
    if theta < 1e-8:
        return float(m)
    if pi - theta < 1e-8:
        return float(m) if (m - 1) % 2 == 0 else float(-m)
    return sin(m * theta) / sin(theta)


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_phi_delta_is_the_cheb_ratio_formula_bit_for_bit():
    # cheb_pair shares one acos between its two Chebyshev ratios; the
    # single-value formula is the reference, inside the band delta in [0, 4]
    # and on its edges, the whole of phi_delta's domain
    ns = sorted(GRID_N + (-20, -10, 10, 20))
    edges = (0.0, 4.0, 1e-17, 5e-17, 1e-16, 4.0 - 4e-16, 2e-8, 4.0 - 2e-8)
    rng = random.Random(11)
    for k in range(1500):
        s = 10.0 ** rng.uniform(-7.0, 9.0)
        if k % 10 == 0:
            delta = edges[k // 10 % len(edges)]
        else:
            delta = rng.uniform(0.0, 4.0)
        x = 2.0 - delta
        for n in ns:
            hi, lo = _cheb_ratio(n + 1, x), _cheb_ratio(n, x)
            pair = kernels.cheb_pair(n, x)
            assert _same_bits(pair[0], hi) and _same_bits(pair[1], lo), (n, x)
            want = hi - (1.0 + delta / s) * lo
            got = kernels.phi_delta(n, s, delta)
            assert _same_bits(got, want), (n, s, delta)
