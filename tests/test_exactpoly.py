"""Exact-arithmetic layer: the defining polynomials and their recursion.

The n = 1 and n = 2 polynomials were expanded by hand and are frozen here
coefficient for coefficient; everything else is checked against the recursion
itself in exact rational arithmetic.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import twistcover
from twistcover import BivarPoly, DomainError, TRACE_POLY, riley_poly, tau_poly
from twistcover.exactpoly import clear_cache, phi_exact, tau_exact

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
        assert phi_exact(2, 1, T) == 2 * T * T - 17 * T + 34
        assert phi_exact(-2, 1, T) == -T * T + 7 * T - 11


def test_tau_small_cases():
    assert tau_poly(0) == BivarPoly.zero()
    assert tau_poly(1) == BivarPoly.const(1)
    assert tau_poly(2) == TRACE_POLY
    assert tau_poly(3) == TRACE_POLY * TRACE_POLY - BivarPoly.const(1)


def test_riley_T_degree_is_abs_n():
    # the riley_T_degree suite covers the standard grid; these lie outside it
    for n in (8, -8):
        assert riley_poly(n).degree_T == abs(n)


# both exact entry points validate n
BUILDERS = (riley_poly, lambda n: phi_exact(n, 1, 4))


def test_rejected_twist_parameters():
    for build in BUILDERS:
        for n in (0, -1):
            with pytest.raises(DomainError):
                build(n)


def test_non_integer_twist_parameter():
    # a float n would recurse without end in the tau recursion
    for build in BUILDERS:
        with pytest.raises(DomainError, match="n must be an integer"):
            build(2.5)


def _summed(p: BivarPoly, s: Fraction, T: Fraction) -> Fraction:
    """p at (s, T), its coefficients summed term by term."""
    s_pow = [s**a for a in range(p.degree_s + 1)]
    T_pow = [T**b for b in range(p.degree_T + 1)]
    return sum((c * s_pow[a] * T_pow[b] for (a, b), c in p.coeffs.items()), Fraction(0))


def test_evaluate_is_exact_rational():
    # the expanded coefficients and the scalar recursion agree exactly, at
    # rational points and at floats taken at their binary value
    rng = random.Random(314159)
    points = [
        (Fraction(rng.randrange(1, 60), rng.randrange(1, 13)), Fraction(rng.randrange(-90, 91), rng.randrange(1, 9)))
        for _ in range(6)
    ]
    for _ in range(6):
        s = 10.0 ** rng.uniform(-2.0, 1.5)
        points.append((s, s + 2.0 + 4.0 * rng.random() / s))
    for s, T in points:
        fs, fT = Fraction(s), Fraction(T)
        for n in range(-12, 13):
            if n in (0, -1):
                continue
            v = phi_exact(n, s, T)
            assert isinstance(v, Fraction)
            assert v == _summed(riley_poly(n), fs, fT), (n, s, T)
        K = _summed(TRACE_POLY, fs, fT)
        for m in range(-12, 13):
            assert tau_exact(m, K) == _summed(tau_poly(m), fs, fT), (m, s, T)


def test_float_arguments_evaluate_at_their_binary_value():
    assert phi_exact(2, 0.5, 0.25) == phi_exact(2, Fraction(1, 2), Fraction(1, 4))
    assert phi_exact(2, 0.1, 4.0) == phi_exact(2, Fraction(0.1), 4)
    assert phi_exact(2, 0.1, 4.0) != phi_exact(2, Fraction(1, 10), 4)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_tau_memo_builds_without_deep_recursion():
    # the memo fills from the bottom, so depth does not grow with |m|
    want_tau, want_phi = tau_poly(60), riley_poly(-60)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        clear_cache()
        got_tau, got_phi = tau_poly(60), riley_poly(-60)
    finally:
        sys.setrecursionlimit(limit)
    assert got_tau == want_tau and got_phi == want_phi


def test_riley_poly_is_the_memo_free_walk():
    # riley_poly walks two live terms; its coefficients are tau_poly's
    shift = BivarPoly({(0, 1): 1, (0, 0): -1, (1, 0): -1})
    for n in range(-20, 21):
        if n in (0, -1):
            continue
        assert riley_poly(n) == tau_poly(n + 1) - shift * tau_poly(n), n


def test_riley_poly_memory():
    # through tau_poly's memo, which keeps every tau_j with j <= |n| (O(n^3)
    # terms), riley_poly(100) grew a fresh interpreter's peak RSS by 54 MB;
    # the two-live-term walk grows it by about 6 MB
    code = (
        "import resource, sys\n"
        "from twistcover import riley_poly\n"
        "unit = 1 if sys.platform == 'darwin' else 1024\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "riley_poly(100)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) * unit)\n"
    )
    path = [str(Path(twistcover.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    grown = int(out.stdout)
    assert grown < 20 * 2**20, f"riley_poly(100) grew the peak RSS by {grown / 2**20:.1f} MB"


def test_terms_serialization_order_and_roundtrip():
    p = riley_poly(2)
    terms = p.terms()
    keys = [(d["T_deg"], d["s_deg"]) for d in terms]
    assert keys == sorted(keys)
    assert all(isinstance(d["coeff"], str) for d in terms)


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
