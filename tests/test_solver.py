"""Numeric root isolation: tau/phi evaluation, the root branch, solve."""

import math
import random

import pytest

import twistcover.kernels as kernels
import twistcover.slopes as slopes
import twistcover.solver as solver
from twistcover import (
    DomainError,
    NonConvergence,
    phi_num,
    solve,
    t_from_T,
    tau_num,
)
from twistcover.checks import GRID_N, GRID_S
from twistcover.exactpoly import phi_exact


def test_tau_num_spot_values():
    # trace 1.5 is theta = acos(0.75): tau_2 = 1.5, tau_3 = 1.5^2 - 1
    assert tau_num(2, 1.5) == pytest.approx(1.5, abs=1e-15)
    assert tau_num(3, 1.5) == pytest.approx(1.25, abs=1e-12)
    assert tau_num(5, 2.0) == 5.0
    assert tau_num(0, 0.3) == 0.0
    assert tau_num(-4, 1.1) == -tau_num(4, 1.1)


def test_tau_num_rejects_traces_outside_band():
    with pytest.raises(DomainError):
        tau_num(3, 2.1)
    with pytest.raises(DomainError):
        tau_num(3, -2.1)
    # a hair over 2 is clamped, not rejected
    assert tau_num(3, 2.0 + 1e-13) == pytest.approx(3.0, abs=1e-9)


def test_phi_num_sign_anchors():
    assert phi_num(-2, 1.0, 4.0) == pytest.approx(1.0, abs=1e-12)
    assert phi_num(-2, 1.0, 5.0) == pytest.approx(-1.0, abs=1e-12)
    # n = 1 root of T^2 ... at s = 1: phi_1(1, 3.5) = 0
    assert phi_num(1, 1.0, 3.5) == pytest.approx(0.0, abs=1e-14)


def test_phi_num_matches_exact_on_random_points():
    rng = random.Random(271828)
    for _ in range(100):
        n = rng.choice(GRID_N)
        s = rng.uniform(0.05, 20.0)
        # stay inside the elliptic band: T in (s+2, s+2+4/s)
        T = s + 2 + rng.uniform(0.0, 4.0) / s
        want = float(phi_exact(n, s, T))
        got = phi_num(n, s, T)
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-8 * scale, (n, s, T)


def test_phi_num_rejects_points_outside_band():
    with pytest.raises(DomainError):
        phi_num(2, 1.0, 2.5)  # T < s + 2
    with pytest.raises(DomainError):
        phi_num(2, 1.0, 7.5)  # T > s + 2 + 4/s


def test_solve_n1_closed_form():
    for i in range(50):
        s = 10.0 ** (-3 + 6 * i / 49)
        sol = solve(1, s)
        assert sol.T == pytest.approx(s + 2 + 1 / (s + 1), rel=1e-12)
        assert sol.iterations == 0


def test_solve_quadratic_cases():
    assert solve(2, 1.0).T == pytest.approx((17 + math.sqrt(17)) / 4, abs=1e-10)
    assert solve(-2, 1.0).T == pytest.approx((7 + math.sqrt(5)) / 2, abs=1e-10)


def test_solve_grid_soundness():
    for n in GRID_N:
        for s in GRID_S:
            sol = solve(n, s)
            assert sol.n == n and sol.s == s
            assert sol.t > 1.0
            # t solves t + 1/t = T; window, trace and exact residual are
            # the solve_grid_soundness suite's
            assert sol.t + 1.0 / sol.t == pytest.approx(sol.T, rel=1e-14)


def test_solve_residual_field_matches_phi():
    sol = solve(3, 2.0)
    assert sol.phi_residual == pytest.approx(phi_num(3, 2.0, sol.T), abs=1e-12)


def test_solve_rejects_bad_n():
    for n in (0, -1):
        with pytest.raises(DomainError):
            solve(n, 1.0)
    # True == 1 and hashes like it, but it is no twist parameter
    for n in (True, False):
        with pytest.raises(DomainError, match="n must be an integer"):
            solve(n, 1.0)


def test_solve_rejects_bad_s():
    with pytest.raises(DomainError):
        solve(2, 0.0)
    with pytest.raises(DomainError):
        solve(2, -1.0)


@pytest.mark.parametrize("n", [2, -3, 5])
def test_solve_evaluates_each_point_once(phi_delta_calls, n):
    # ITP steps on the branch equation in theta; phi_delta is evaluated once,
    # for the residual
    sol = solve(n, 0.5)
    assert sol.iterations > 0
    assert phi_delta_calls[0] == 1


@pytest.mark.parametrize("s", [1e13, 1e14, 1e20])
def test_solve_large_s_finds_the_root(s):
    # the search runs in theta, to float resolution, whatever the size of s
    sol = solve(2, s)
    assert sol.iterations > 0
    assert abs(sol.phi_residual) <= 1e-12


def test_solve_iterations_on_the_inversion_grid():
    # ITP converges superlinearly, yet never exceeds the bisection bound of
    # the bisection_iteration_bound suite: the theta window against solve's
    # tol = 4 ulp(hi).  The grid is the scan workload's 400-point log window
    # over [1e-6, 1e8]; measured mean 7.023 steps with n = 1's zeros, max 11
    # (9.073 and 32 when a step that reached an end fell back to the
    # midpoint).
    xs = slopes._log_grid(1e-6, 1e8, 400)
    iterations = []
    for n in GRID_N:
        lo, hi = solver.branch_interval(n)
        allowed = math.ceil(math.log2((hi - lo) / (4.0 * math.ulp(hi)))) + 2
        for s in xs:
            sol = solve(n, s)
            iterations.append(sol.iterations)
            assert sol.iterations <= allowed, (n, s)
    mean = sum(iterations) / len(iterations)
    assert mean <= 7.03, mean
    assert max(iterations) <= 11


@pytest.mark.parametrize(
    "n, s", [(3, 0.020691380811147925), (-3, 0.05032159359259993), (3, 2532.2627816987933)]
)
def test_solve_does_not_bisect_toward_a_pinned_end(n, s):
    # the regula falsi point rounds onto an end once |f| ~ 1e-16; stepping
    # tol/4 inside it ends the search (31, 32 and 31 steps bisecting instead)
    assert solve(n, s).iterations <= 10


def test_branch_equation_is_the_branch_terms_bit_for_bit():
    # solve's one-expression branch equation against _branch_terms, the
    # definition branch_point reads
    rng = random.Random(1618)
    for n in BRANCH_N:
        lo, hi = solver.branch_interval(n)
        for _ in range(50):
            theta = rng.uniform(lo, hi)
            s = 10.0 ** rng.uniform(-8.0, 12.0)
            _, num, den = solver._branch_terms(n, theta)
            assert solver._branch_equation(n, s)(theta) == s * den - num, (n, s, theta)


@pytest.mark.parametrize(
    "n, s",
    [
        (1000, 6.2e7), (-1000, 8e7), (1000, 1e8), (-1000, 1e8), (1000, 1e13),
        (-2, 1e20), (6, 1e100), (-6, 1e20),
    ],
)
def test_solve_far_out_on_the_branch(n, s):
    # points where phi_delta at a fixed delta window lost its signs, so a
    # search that began from them refused the solve; the theta search has
    # closed-form end values whose signs cannot be lost
    sol = solve(n, s)
    assert math.isfinite(sol.T) and s + 2.0 <= sol.T <= s + 2.0 + 4.0 / s, sol


@pytest.mark.parametrize("n", [1000, -1000])
def test_scan_far_out_on_the_branch(n):
    rows = slopes.scan(n, 1e-6, 1e8, 400)
    assert len(rows) == 400
    for r in rows:
        assert math.isfinite(r.T) and r.s + 2.0 <= r.T <= r.s + 2.0 + 4.0 / r.s, r


def test_solve_iteration_cap(monkeypatch):
    monkeypatch.setattr(kernels, "ITP_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="3-iteration cap"):
        solve(2, 1.0)


BRANCH_N = [n for n in range(-60, 61) if n not in (0, -1)] + [1000, -1000]


def test_branch_is_strictly_monotone():
    # 1999 even fractions of the interval plus 9 that close in on each end
    fracs = {k / 2000 for k in range(1, 2000)}
    fracs |= {10.0**-j for j in range(4, 13)} | {1 - 10.0**-j for j in range(4, 13)}
    fracs = sorted(fracs)
    for n in BRANCH_N:
        lo, hi = solver.branch_interval(n)
        ss = [solver.branch_point(n, lo + (hi - lo) * u)[0] for u in fracs]
        if n < -1:
            ss.reverse()
        assert 0.0 < ss[0], n
        assert ss[-1] < math.inf, n
        # branch_interval's ends are where s -> 0 and s -> inf, the ends at
        # which invert puts g's limits 0 and 4: measured s <= 2.1e-12 and
        # s >= 1.0e9 at 1e-12 of the width from them
        assert ss[0] < 1e-9 and ss[-1] > 1e8, n
        assert all(a < b for a, b in zip(ss, ss[1:])), n


def test_solve_recovers_the_branch():
    # solve at s(theta) lands on delta(theta) = 4 sin^2(theta/2); measured
    # worst 8.9e-16 over s in [1e-6, 1e8] (2.0e-14 when solve searched delta)
    rng = random.Random(314159)
    checked = 0
    for _ in range(2000):
        n = rng.choice(BRANCH_N)
        lo, hi = solver.branch_interval(n)
        theta = lo + (hi - lo) * rng.uniform(0.001, 0.999)
        s, T, t = solver.branch_point(n, theta)
        if not 1e-6 <= s <= 1e8:
            continue
        sol = solve(n, s)
        assert abs((2.0 - sol.trace_W) - 4.0 * math.sin(0.5 * theta) ** 2) <= 1e-14, (n, theta)
        assert t == t_from_T(T)
        checked += 1
    assert checked >= 1000


@pytest.mark.parametrize("n", [1000, -1000])
def test_solve_theta_at_full_precision(n):
    # solve returns the theta it found, not acos of the rounded trace, which
    # loses theta's low digits as theta -> 0 (relative error 3.8e-12 and
    # 6.0e-12 through acos, 5.9e-13 and 2.7e-13 through asin of delta);
    # measured 0 at both n
    lo, hi = solver.branch_interval(n)
    theta = lo + 0.37 * (hi - lo)
    sol = solve(n, solver.branch_point(n, theta)[0])
    assert abs(sol.theta - theta) <= 1e-14 * theta


def test_branch_matches_the_linear_case():
    for k in range(200):
        s, T, _ = solver.branch_point(1, math.pi / 3 * (k + 0.5) / 200)
        assert T == pytest.approx(s + 2 + 1 / (s + 1), rel=1e-15), s


def test_t_from_T():
    assert t_from_T(2.5) == pytest.approx(2.0, rel=1e-15)
    phi = (1 + math.sqrt(5)) / 2
    assert t_from_T(math.sqrt(5)) == pytest.approx(phi, rel=1e-14)
    assert t_from_T(2.0) == 1.0
    with pytest.raises(DomainError):
        t_from_T(1.5)
