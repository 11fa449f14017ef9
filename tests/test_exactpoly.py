"""Exact-arithmetic layer: the defining polynomials and their recursion.

The n = 1 and n = 2 polynomials were expanded by hand and are frozen here
coefficient for coefficient; everything else is checked against the recursion
itself in exact rational arithmetic.
"""

import random
from fractions import Fraction

import pytest

from twistcover import BivarPoly, DomainError, TRACE_POLY, eval_exact, riley_poly, tau_poly

# phi_1 = T^2 ... in (s_deg, T_deg) form: s^2 + 3s + 3 - (s+1)T
PHI_1 = {(1, 1): -1, (0, 1): -1, (2, 0): 1, (1, 0): 3, (0, 0): 3}

PHI_2 = {
    (2, 2): 1,
    (1, 2): 1,
    (3, 1): -2,
    (2, 1): -6,
    (1, 1): -7,
    (0, 1): -2,
    (4, 0): 1,
    (3, 0): 5,
    (2, 0): 11,
    (1, 0): 12,
    (0, 0): 5,
}


def test_phi_1_frozen():
    assert riley_poly(1).coeffs == PHI_1


def test_phi_2_frozen():
    assert riley_poly(2).coeffs == PHI_2


def test_phi_minus_2_is_shift_times_trace_minus_one():
    # phi_{-2} = tau_{-1} - (T-1-s) tau_{-2} = -1 + (T-1-s) tau_2
    shift = BivarPoly({(0, 1): 1, (0, 0): -1, (1, 0): -1})
    expected = shift * TRACE_POLY - BivarPoly.const(1)
    assert riley_poly(-2) == expected


def test_phi_values_on_the_s_equals_1_line():
    # phi_2(1, T) = 2T^2 - 17T + 34,  phi_{-2}(1, T) = -T^2 + 7T - 11
    for T in (0, 1, 4, 7, Fraction(9, 2)):
        assert eval_exact(riley_poly(2), 1, T) == 2 * T * T - 17 * T + 34
        assert eval_exact(riley_poly(-2), 1, T) == -T * T + 7 * T - 11


def test_tau_small_cases():
    assert tau_poly(0) == BivarPoly.zero()
    assert tau_poly(1) == BivarPoly.const(1)
    assert tau_poly(2) == TRACE_POLY
    assert tau_poly(3) == TRACE_POLY * TRACE_POLY - BivarPoly.const(1)


def test_riley_T_degree_is_abs_n():
    # the riley_T_degree suite covers the standard grid; these lie outside it
    for n in (8, -8):
        assert riley_poly(n).degree_T == abs(n)


def test_rejected_twist_parameters():
    for n in (0, -1):
        with pytest.raises(DomainError):
            riley_poly(n)


def test_evaluate_is_exact_rational():
    p = riley_poly(3)
    v = eval_exact(p, Fraction(1, 3), Fraction(7, 2))
    assert isinstance(v, Fraction)
    # independently: sum the terms by hand
    s, T = Fraction(1, 3), Fraction(7, 2)
    total = sum(c * s**a * T**b for (a, b), c in p.coeffs.items())
    assert v == total


def test_float_arguments_evaluate_at_their_binary_value():
    p = riley_poly(2)
    assert eval_exact(p, 0.5, 0.25) == eval_exact(p, Fraction(1, 2), Fraction(1, 4))


def test_terms_serialization_order_and_roundtrip():
    p = riley_poly(2)
    terms = p.terms()
    keys = [(d["T_deg"], d["s_deg"]) for d in terms]
    assert keys == sorted(keys)
    assert all(isinstance(d["coeff"], str) for d in terms)
    assert BivarPoly.from_terms(terms) == p


def test_poly_arithmetic_basics():
    a = BivarPoly({(1, 0): 2, (0, 1): -1})
    b = BivarPoly({(1, 0): -2, (0, 0): 5})
    assert (a + b).coeffs == {(0, 1): -1, (0, 0): 5}
    assert (a - a) == BivarPoly.zero()
    assert not BivarPoly.zero()
    assert (a * 0) == BivarPoly.zero()
    assert (3 * a).coeffs == {(1, 0): 6, (0, 1): -3}


def test_product_degrees_add():
    rng = random.Random(1729)
    for _ in range(25):
        a = BivarPoly({(rng.randrange(4), rng.randrange(4)): rng.randrange(1, 9)})
        b = tau_poly(rng.randrange(2, 6))
        ab = a * b
        assert ab.degree_s == a.degree_s + b.degree_s
        assert ab.degree_T == a.degree_T + b.degree_T
