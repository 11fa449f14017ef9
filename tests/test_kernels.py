"""Kernels against exact oracles and the solver's own values."""

import math
import random
from fractions import Fraction
from functools import partial
from math import acos, acosh, pi, sin, sinh

import pytest

from twistcover import kernels, solver
from twistcover.checks import GRID_N
from twistcover.exactpoly import tau_exact


def test_cheb_ratio_against_exact_recursion():
    # both components of cheb_pair against the exact recursion
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(-12, 13)
        x = Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))
        got = kernels.cheb_pair(m, float(x))
        want = (float(tau_exact(m + 1, x)), float(tau_exact(m, x)))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (m, x)


def test_cheb_ratio_spot_values():
    # x = 1 is theta = pi/3: sin(5 theta)/sin(theta) = -1
    assert kernels.cheb_pair(4, 1.0)[0] == pytest.approx(-1.0, abs=1e-12)
    # boundary x = 2: tau_m -> m
    assert kernels.cheb_pair(6, 2.0)[0] == 7.0
    assert kernels.cheb_pair(7, -2.0)[1] == 7.0
    # hyperbolic branch, exact integer answers
    assert kernels.cheb_pair(2, 2.5)[0] == pytest.approx(5.25, rel=1e-14)
    assert kernels.cheb_pair(4, -2.5)[1] == pytest.approx(-10.625, rel=1e-14)


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

    assert kernels.itp(step, -3.0, 2.0**-1000, -1.0, 1.0) == (-1.25, 53, False)
    assert len(seen) == 53


def test_itp_returns_an_exact_zero_at_once():
    # x^3 + 2 on [-3, 2**-1000]: float resolution at the root is far coarser
    # than tol, and the first step point where f is exactly 0.0 (the 11th)
    # comes back as it is, not the bracket midpoint
    seen = []

    def f(x):
        seen.append(x)
        return x**3 + 2.0

    root, iters, capped = kernels.itp(f, -3.0, 2.0**-1000, -25.0, 2.0)
    assert (iters, capped) == (11, False)
    assert len(seen) == 11 and root == seen[-1]
    assert root**3 + 2.0 == 0.0
    assert all(x**3 + 2.0 != 0.0 for x in seen[:-1])


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
    # replay itp's bracket to find the steps whose regula falsi point was on
    # an end
    insets = 0
    for x, fx in seen:
        x_f = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if x_f <= lo or x_f >= hi:
            assert x == (lo + 0.25 * tol if x_f <= lo else hi - 0.25 * tol), (x, lo, hi)
            assert x != 0.5 * (lo + hi)
            insets += 1
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
    assert insets >= 1


def test_cover_compose_rejects_nonprincipal_branch():
    # inside the disk |g1*conj(g2)| < 1 keeps Re(den) > 0, so the guard can
    # only fire on invalid input; feed it some to prove it is wired up
    with pytest.raises(ValueError):
        kernels.cover_compose(1.5 + 0j, 0.0, -0.9 + 0j, 0.0)


def _cheb_ratio(m, x):
    """The single-value formula, kept as the reference that cheb_pair must
    match bit for bit."""
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


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_phi_delta_is_the_cheb_ratio_formula_bit_for_bit():
    # cheb_pair shares one acos/acosh between its two Chebyshev ratios; the
    # single-value formula is the reference, inside the band delta in [0, 4],
    # on its edges and outside it
    ns = sorted(GRID_N + (-20, -10, 10, 20))
    edges = (0.0, 4.0, 1e-17, 5e-17, 1e-16, 4.0 - 4e-16, 2e-8, 4.0 - 2e-8)
    rng = random.Random(11)
    for k in range(1500):
        s = 10.0 ** rng.uniform(-7.0, 9.0)
        if k % 10 == 0:
            delta = edges[k // 10 % len(edges)]
        elif k % 10 < 7:
            delta = rng.uniform(0.0, 4.0)
        elif k % 10 == 7:
            delta = -rng.uniform(0.0, 50.0)
        else:
            delta = 4.0 + rng.uniform(0.0, 50.0)
        x = 2.0 - delta
        for n in ns:
            hi, lo = _cheb_ratio(n + 1, x), _cheb_ratio(n, x)
            pair = kernels.cheb_pair(n, x)
            assert _same_bits(pair[0], hi) and _same_bits(pair[1], lo), (n, x)
            want = hi - (1.0 + delta / s) * lo
            got = kernels.phi_delta(n, s, delta)
            assert _same_bits(got, want), (n, s, delta)
