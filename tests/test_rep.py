"""Parabolic-free SL2 representation: generators, words, longitude."""

import math
import random
from fractions import Fraction

import pytest

from twistcover import (
    DomainError,
    Mat2,
    NumericsError,
    gen_matrices,
    longitude_holonomy,
    relation_residual,
    solve,
    w_matrix,
    w_power,
)
from twistcover.rep import (
    IDENTITY2,
    longitude_word,
    max_abs_diff,
    relator_word,
    w_rev_word,
    w_word,
    word_eval,
)
from twistcover import checks
from twistcover.checks import _cleared_generators, grid_solutions


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
    # lemma (a) of the longitude_lemmas suite in floats, for any (s, t) and
    # n: rho(w_rev^n) = D rho(w^n)^T D^-1 with D = diag(1, sigma)
    for s, t in ((0.7, 3.0), (1.0, 4.0), (2.0, 6.0)):
        u2 = t - 2.0 + 1.0 / t
        sigma = s * u2 / (u2 - s)
        X, Y = gen_matrices(s, t)
        for n in (-4, -2, 1, 3, 5):
            u11, u12, u21, u22 = word_eval(w_word(n), X, Y)
            slow = word_eval(w_rev_word(n), X, Y)
            fast = Mat2(u11, u21 / sigma, u12 * sigma, u22)
            scale = 1.0 + slow.maxabs()
            assert max_abs_diff(fast, slow) / scale < 1e-10, (n, s, t)


def test_relation_residual_off_solution():
    # (s, t) = (1, 4) is not on the n = 1 variety; the defect is visible
    assert relation_residual(1, 1.0, 4.0) > 0.01


def test_longitude_is_diagonal_at_solutions():
    # what the longitude_lemmas suite proves for every n, seen in floats on
    # the letter-by-letter product: diag(B, 1/B) with B the closed form
    for n in (1, 2, -2, 3, -4):
        sol = solve(n, 1.0)
        ell = word_eval(longitude_word(n), *gen_matrices(sol.s, sol.t))
        b = longitude_holonomy(sol.s, sol.t)
        scale = 1.0 + ell.maxabs()
        assert max_abs_diff(ell, Mat2(b, 0.0, 0.0, 1.0 / b)) / scale < 1e-10, n
        assert 0.0 < ell.m11 < 1.0  # contracting eigenvalue first


def test_longitude_holonomy_closed_form():
    # B = (t - s - 1) / ((1 + s) t - 1); frozen value at n = s = 1
    sol = solve(1, 1.0)
    b = longitude_holonomy(1.0, sol.t)
    assert b == pytest.approx(0.22078900754823924, abs=1e-15)


def test_lemma_generators_are_gen_matrices():
    # the longitude_lemmas suite proves its identities about these
    # polynomial matrices; at (m, s) they are gen_matrices(s, m^2)
    *_, xn, yn = _cleared_generators()

    def at(poly, m, s):
        return sum(c * s**a * m**b for (a, b), c in poly.coeffs.items())

    for m, s in ((2, 1), (Fraction(3, 2), Fraction(1, 3)), (5, Fraction(7, 2))):
        v2 = (m * m - 1) ** 2
        gx, gy = gen_matrices(float(s), float(m * m))
        got = [at(e, m, s) / m for e in xn] + [at(e, m, s) / (m * v2) for e in yn]
        for g, w in zip(got, gx + gy):
            assert abs(float(g) - w) <= 1e-15 * (1.0 + abs(w)), (m, s)


def test_lemma_suite_refuses_a_wrong_generator(monkeypatch):
    # the proof is not vacuous: with one entry of Yn changed the suite fails
    real = _cleared_generators()

    def shifted():
        s, m2, v2, xn, yn = real
        return s, m2, v2, xn, yn._replace(m12=yn.m12 + s)

    monkeypatch.setattr(checks, "_cleared_generators", shifted)
    res = checks.check_longitude_lemmas()
    assert not res.passed and res.worst == 1.0


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
    assert {type(m) for m in (*gen_matrices(1.0, 4.0), w_matrix(1.0, 4.0), IDENTITY2)} == {Mat2}
    assert type(w_power(3, 1.0, 4.0)) is Mat2
    X, Y = gen_matrices(1.0, 4.0)
    assert {type(m) for m in (X @ Y, X.inverse(), word_eval("xY", X, Y))} == {Mat2}


def test_gen_matrices_rejects_degenerate_params():
    with pytest.raises(DomainError):
        gen_matrices(0.0, 4.0)
    with pytest.raises(DomainError):
        gen_matrices(1.0, 1.0)


@pytest.mark.parametrize("fn", [gen_matrices, w_matrix, longitude_holonomy])
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


@pytest.mark.parametrize("fn", [w_power, relation_residual])
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
