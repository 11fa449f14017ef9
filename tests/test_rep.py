"""Parabolic-free SL2 representation: generators, words, longitude."""

import math
import random

import pytest

from twistcover import (
    DomainError,
    HolonomyData,
    Mat2,
    NumericsError,
    OffDiagonalTooLarge,
    g_eval,
    gen_matrices,
    longitude,
    longitude_holonomy,
    relation_residual,
    solve,
    t_from_T,
    w_matrix,
    w_power,
)
from twistcover.rep import (
    IDENTITY2,
    longitude_word,
    max_abs_diff,
    relator_word,
    sigma_factor,
    w_rev_power,
    w_rev_word,
    w_word,
    word_eval,
)
from twistcover.checks import grid_solutions, w_rev_fold
from twistcover.solver import RepSolution


def test_generator_matrices_at_s1_t4():
    X, Y = gen_matrices(1.0, 4.0)
    assert max_abs_diff(X, Mat2(2.0, 0.0, 0.0, 0.5)) < 1e-15
    want_Y = Mat2(4.0 / 3.0, -5.0 / 9.0, -1.0, 7.0 / 6.0)
    assert max_abs_diff(Y, want_Y) < 1e-15


def test_w_matrix_at_s1_t4():
    W = w_matrix(1.0, 4.0)
    want = Mat2(-2.0 / 3.0, 35.0 / 18.0, -1.0, 17.0 / 12.0)
    assert max_abs_diff(W, want) < 1e-14
    # matches the letter-by-letter product
    X, Y = gen_matrices(1.0, 4.0)
    assert max_abs_diff(W, word_eval(w_word(1), X, Y)) < 1e-14


def test_determinants_are_one():
    rng = random.Random(97)
    for _ in range(50):
        s = 10.0 ** rng.uniform(-2, 2)
        t = 1.0 + 10.0 ** rng.uniform(-2, 2)
        X, Y = gen_matrices(s, t)
        for M in (X, Y, w_matrix(s, t)):
            scale = 1.0 + abs(M.m11 * M.m22) + abs(M.m12 * M.m21)
            assert abs(M.det() - 1.0) <= 1e-10 * scale


def test_trace_of_w_closed_form():
    rng = random.Random(101)
    for _ in range(50):
        s = 10.0 ** rng.uniform(-2, 2)
        t = 1.0 + 10.0 ** rng.uniform(-2, 2)
        T = t + 1.0 / t
        want = s * s - (T - 2.0) * s + 2.0
        assert w_matrix(s, t).trace() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_word_builders():
    assert w_word(1) == "xYXy"
    assert w_word(-1) == "YxyX"
    assert w_word(2) == "xYXyxYXy"
    assert w_rev_word(1) == "yXYx"
    assert w_rev_word(-2) == "XyxYXyxY"
    assert relator_word(2) == "xYXyxYXy" + "x" + "YxyXYxyX" + "Y"
    assert longitude_word(2) == "yXYxyXYx" + "xYXyxYXy"
    for n in (1, 2, 5, -2, -5):
        word = longitude_word(n)
        for letter in "xy":
            assert word.count(letter) == word.count(letter.upper())


def test_word_eval_inverse_letters():
    X, Y = gen_matrices(1.0, 4.0)
    assert max_abs_diff(word_eval("xX", X, Y), IDENTITY2) < 1e-15
    assert max_abs_diff(word_eval("yY", X, Y), IDENTITY2) < 1e-14
    assert max_abs_diff(word_eval("", X, Y), IDENTITY2) == 0.0
    with pytest.raises(DomainError):
        word_eval("xz", X, Y)


def test_word_eval_is_the_left_fold_of_matmul():
    # word_eval folds @ from the identity letter by letter, so it must equal
    # the fold of @ exactly, not within a tolerance
    rng = random.Random(4040)
    for _, sol in grid_solutions():
        X, Y = gen_matrices(sol.s, sol.t)
        table = {"x": X, "X": X.inverse(), "y": Y, "Y": Y.inverse()}
        for _ in range(4):
            word = "".join(rng.choice("xXyY") for _ in range(rng.randrange(41)))
            folded = IDENTITY2
            for ch in word:
                folded = folded @ table[ch]
            assert word_eval(word, X, Y) == folded, (sol.s, word)


def test_w_power_matches_iterated_product():
    X, Y = gen_matrices(0.7, 3.0)
    for n in (-7, -3, -1, 0, 1, 2, 5, 8):
        fast = w_power(n, 0.7, 3.0)
        slow = word_eval(w_word(n), X, Y) if n else IDENTITY2
        scale = 1.0 + slow.maxabs()
        assert max_abs_diff(fast, slow) / scale < 1e-12, n


def test_w_rev_is_sigma_transform():
    # rho(w_rev) = D rho(w) D^-1 entrywise: flips the off-diagonal by sigma
    for s, t in ((0.7, 3.0), (1.0, 4.0), (2.0, 6.0)):
        X, Y = gen_matrices(s, t)
        for n in (-4, -2, 1, 3, 5):
            fast = w_rev_power(n, s, t)
            slow = word_eval(w_rev_word(n), X, Y)
            scale = 1.0 + slow.maxabs()
            assert max_abs_diff(fast, slow) / scale < 1e-10, (n, s, t)


def test_sigma_factor():
    # s = 1, t the n = 1 root: u^2 = T - 2 = 3/2, sigma = 1.5/0.5 = 3
    t = solve(1, 1.0).t
    assert sigma_factor(1.0, t) == pytest.approx(3.0, rel=1e-12)
    # pole at s = u^2
    with pytest.raises(DomainError):
        sigma_factor(2.25, 4.0)


def test_longitude_sigma_pole_by_rounding_is_numerics_error():
    # on the branch u^2 - s = T - s - 2 > 0, but at s ~ 2.5e8 it rounds to 0:
    # a float limit, not a bad input, so it is not a DomainError
    smp = g_eval(2, 251188643.1509582)
    with pytest.raises(NumericsError, match="at n=2, u\\^2 - s = T - s - 2 > 0 rounds to 0"):
        longitude(2, smp)


def test_relation_residual_off_solution():
    # (s, t) = (1, 4) is not on the n = 1 variety; the defect is visible
    assert relation_residual(1, 1.0, 4.0) > 0.01


def test_longitude_is_diagonal_at_solutions():
    for n in (1, 2, -2, 3, -4):
        sol = solve(n, 1.0)
        ell, hol = longitude(n, sol)
        scale = 1.0 + ell.maxabs()
        assert abs(ell.m12) / scale < 1e-6
        assert abs(ell.m21) / scale < 1e-6
        assert ell.m11 * ell.m22 == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < ell.m11 < 1.0  # contracting eigenvalue first
        assert hol.offdiag_residual < 1e-6


def test_longitude_holonomy_closed_form():
    # B = (t - s - 1) / ((1 + s) t - 1); frozen value at n = s = 1
    sol = solve(1, 1.0)
    b = longitude_holonomy(1.0, sol.t)
    assert b == pytest.approx(0.22078900754823924, abs=1e-15)
    ell, hol = longitude(1, sol)
    assert hol.B == b
    assert abs(ell.m11 - b) / (1.0 + ell.maxabs()) < 1e-10


def test_longitude_rejects_off_variety_input():
    # hand-built point near but not on the n = 2 variety
    T = 5.8
    fake = RepSolution(
        n=2,
        s=1.0,
        T=T,
        t=t_from_T(T),
        trace_W=1.0 - (T - 2.0) + 2.0,
        theta=math.acos((1.0 - (T - 2.0) + 2.0) / 2.0),
        phi_residual=float("nan"),
        iterations=0,
    )
    with pytest.raises(OffDiagonalTooLarge):
        longitude(2, fake)


@pytest.mark.parametrize("n", [0, -1, True, 2.5])
def test_longitude_rejects_a_bad_twist_parameter(n):
    # n = 0 would give the identity and n = -1 an off-diagonal refusal, the
    # exit-2 class; both are the caller's error
    with pytest.raises(DomainError, match="n must"):
        longitude(n, solve(2, 1.0))


def test_mat2_operations():
    a = Mat2(1.0, 2.0, 3.0, 4.0)
    b = Mat2(0.0, 1.0, 1.0, 0.0)
    assert (a @ b) == Mat2(2.0, 1.0, 4.0, 3.0)
    assert a.trace() == 5.0
    assert a.det() == -2.0
    assert a.maxabs() == 4.0
    # inverse is the adjugate, exact for the det = 1 matrices used everywhere
    u = Mat2(2.0, 3.0, 1.0, 2.0)
    assert max_abs_diff(u @ u.inverse(), IDENTITY2) == 0.0


def test_public_functions_return_the_records():
    assert HolonomyData(0.5, 0.0).lifted_gamma == (0.25 - 1.0) / (0.25 + 1.0)
    ell, hol = longitude(2, solve(2, 1.0))
    assert type(ell) is Mat2 and type(hol) is HolonomyData
    assert {type(m) for m in (*gen_matrices(1.0, 4.0), w_matrix(1.0, 4.0), IDENTITY2)} == {Mat2}
    assert {type(m) for m in (w_power(3, 1.0, 4.0), w_rev_power(-2, 1.0, 4.0))} == {Mat2}
    X, Y = gen_matrices(1.0, 4.0)
    assert {type(m) for m in (X @ Y, X.inverse(), word_eval("xY", X, Y))} == {Mat2}


@pytest.mark.parametrize("index", [0, 29, 65])
def test_w_rev_fold_matches_word_eval(index):
    # the prefix fold that check_reversed_word_transform reads is the word
    # evaluation it replaced, exactly
    _, sol = grid_solutions()[index]
    X, Y = gen_matrices(sol.s, sol.t)
    powers = w_rev_fold(X, Y, 6)
    assert sorted(powers) == list(range(-6, 7))
    for m in range(-6, 7):
        assert powers[m] == word_eval(w_rev_word(m), X, Y), (sol.s, m)


def test_gen_matrices_rejects_degenerate_params():
    with pytest.raises(DomainError):
        gen_matrices(0.0, 4.0)
    with pytest.raises(DomainError):
        gen_matrices(1.0, 1.0)


@pytest.mark.parametrize("fn", [gen_matrices, w_matrix, sigma_factor, longitude_holonomy])
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_nonfinite_t_is_a_domain_error(fn, t):
    with pytest.raises(DomainError, match="t must be finite"):
        fn(1.0, t)


@pytest.mark.parametrize(
    "s, t, text",
    [
        (1.0, 0.0, "t must be finite and positive"),
        (1.0, -1.0, "t must be finite and positive"),
        (1.0, 1.0, "t must exceed 1"),
        (-1.0, 3.0, "s must be finite and positive"),
        (0.0, 3.0, "s must be finite and positive"),
        (math.nan, 3.0, "s must be finite and positive"),
        (math.inf, 3.0, "s must be finite and positive"),
    ],
)
def test_longitude_holonomy_refuses_what_gen_matrices_refuses(s, t, text):
    # the closed form would give 2.0 at (1, 0) and NaN at a NaN s
    for fn in (longitude_holonomy, gen_matrices):
        with pytest.raises(DomainError, match=text):
            fn(s, t)


@pytest.mark.parametrize("fn", [w_power, w_rev_power, relation_residual])
def test_non_integer_n_is_a_domain_error(fn):
    with pytest.raises(DomainError, match="n must be an integer"):
        fn(2.5, 1.0, 4.0)
    # bool subclasses int, and W^True would pass for W^1
    with pytest.raises(DomainError, match="n must be an integer"):
        fn(True, 1.0, 4.0)


def test_w_power_beyond_double_range_is_numerics():
    # at trace W = -95.01 cheb_pair takes its sinh form, which overflows at
    # |n| acosh(|trace|/2) > 710: a bare OverflowError, now the refusal of an
    # integer argument beyond double range
    with pytest.raises(NumericsError, match=r"n is too large for double precision: \|n\| has 11 bits"):
        w_power(2000, 1.0, 100.0)
