"""Numeric root isolation: tau/phi evaluation, certified brackets, solve."""

import math
import random

import pytest

import twistcover.solver as solver
from twistcover import (
    DomainError,
    NonConvergence,
    bracket,
    eval_exact,
    phi_num,
    riley_poly,
    solve,
    t_from_T,
    tau_num,
)
from twistcover.checks import GRID_N, GRID_S


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
        want = float(eval_exact(riley_poly(n), s, T))
        got = phi_num(n, s, T)
        scale = max(1.0, abs(want))
        assert abs(got - want) <= 1e-8 * scale, (n, s, T)


def test_phi_num_rejects_points_outside_band():
    with pytest.raises(DomainError):
        phi_num(2, 1.0, 2.5)  # T < s + 2
    with pytest.raises(DomainError):
        phi_num(2, 1.0, 7.5)  # T > s + 2 + 4/s


def test_bracket_frozen_endpoints():
    br = bracket(2, 1.0)
    assert br.lo == pytest.approx((9 - math.sqrt(5)) / 2, rel=1e-15)
    assert br.hi == pytest.approx((9 + math.sqrt(5)) / 2, rel=1e-15)
    assert (br.sign_lo, br.sign_hi) == (-1, 1)

    br = bracket(-2, 2.0)
    assert (br.lo, br.hi) == (4.5, 5.0)
    assert (br.sign_lo, br.sign_hi) == (1, -1)

    # 2|n| - 1 = 2m + 1 makes these windows coincide, signs flipped
    same = bracket(-3, 1.0)
    assert (same.lo, same.hi) == (bracket(2, 1.0).lo, bracket(2, 1.0).hi)
    assert (same.sign_lo, same.sign_hi) == (1, -1)


def test_bracket_sign_convention_on_grid():
    for n in GRID_N:
        if n == 1:
            continue
        for s in GRID_S:
            br = bracket(n, s)
            if n > 1:
                assert (br.sign_lo, br.sign_hi) == (-1, 1)
            else:
                assert (br.sign_lo, br.sign_hi) == (1, -1)
            assert s + 2 < br.lo < br.hi < s + 2 + 4.0 / s


def test_bracket_n1_defers_to_closed_form():
    with pytest.raises(DomainError, match="n = 1 has no bracket"):
        bracket(1, 1.0)


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


def test_solve_rejects_bad_s():
    with pytest.raises(DomainError):
        solve(2, 0.0)
    with pytest.raises(DomainError):
        solve(2, -1.0)


def test_solve_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="3-iteration cap"):
        solve(2, 1.0)


def test_t_from_T():
    assert t_from_T(2.5) == pytest.approx(2.0, rel=1e-15)
    phi = (1 + math.sqrt(5)) / 2
    assert t_from_T(math.sqrt(5)) == pytest.approx(phi, rel=1e-14)
    assert t_from_T(2.0) == 1.0
    with pytest.raises(DomainError):
        t_from_T(1.5)
