"""Exact-arithmetic layer: the defining polynomials and their recursion.

The n = 1 and n = 2 polynomials were expanded by hand and are frozen here
coefficient for coefficient; everything else is checked against the recursion
itself in exact rational arithmetic.
"""

import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twistcover
from twistcover import BivarPoly, DomainError, TRACE_POLY, riley_poly, solve, tau_num, tau_poly
from twistcover.checks import SEED, grid_solutions
from twistcover.exactpoly import _pack, _tau_nonneg, _unpack, clear_cache, phi_exact, tau_exact

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
    # a float n would recurse without end in the tau recursion; a bool is an
    # int subclass, yet True is no twist parameter
    for build in BUILDERS:
        for n in (2.5, True, False):
            with pytest.raises(DomainError, match="n must be an integer"):
                build(n)


@pytest.mark.parametrize(
    "build",
    [tau_poly, lambda m: tau_exact(m, 3), lambda m: tau_num(m, 1.5)],
    ids=["tau_poly", "tau_exact", "tau_num"],
)
@pytest.mark.parametrize("m", [2.5, True, "3"])
def test_non_integer_trace_index(build, m):
    # each trace recursion walks |m| integer steps; True is an int subclass,
    # yet no index
    with pytest.raises(DomainError, match="m must be an integer"):
        build(m)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: phi_exact(2, math.inf, 3.0),
        lambda: phi_exact(2, 1.0, math.nan),
        lambda: phi_exact(2, 1.0, -math.inf),
        lambda: tau_exact(3, math.nan),
        lambda: tau_exact(3, math.inf),
    ],
)
def test_non_finite_float_arguments_are_domain_errors(call):
    # a NaN or infinite float has no exact value: Fraction raised a bare
    # OverflowError or ValueError for it
    with pytest.raises(DomainError, match="must be finite"):
        call()


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


def test_poly_arithmetic_basics():
    a = BivarPoly({(1, 0): 2, (0, 1): -1})
    b = BivarPoly({(1, 0): -2, (0, 0): 5})
    assert (a + b).coeffs == {(0, 1): -1, (0, 0): 5}
    assert (a - a) == BivarPoly.zero()
    assert not BivarPoly.zero()
    assert (a * 0) == BivarPoly.zero()
    assert (3 * a).coeffs == {(1, 0): 6, (0, 1): -3}
    with pytest.raises(ValueError, match="negative degree"):
        BivarPoly({(-1, 0): 1})


@pytest.mark.parametrize(
    "terms",
    [{(0, 0): 2.5}, {(1.5, 0): 1}, {(0, 2.0): 1}, {(0, 0): "7"}, {(0, 0): True},
     {(True, 0): 1}, {(0, 0): Fraction(3)}],
)
def test_terms_must_be_integers(terms):
    # int() would truncate 2.5 to 2, file s^1.5 under s^1 and read "7" and
    # True as 7 and 1
    with pytest.raises(DomainError, match="must be integers"):
        BivarPoly(terms)


def test_product_degrees_add():
    rng = random.Random(1729)
    for _ in range(25):
        a = BivarPoly({(rng.randrange(4), rng.randrange(4)): rng.randrange(1, 9)})
        b = tau_poly(rng.randrange(2, 6))
        ab = a * b
        assert ab.degree_s == a.degree_s + b.degree_s
        assert ab.degree_T == a.degree_T + b.degree_T


def test_repr_format():
    assert repr(riley_poly(1)) == "BivarPoly(3 + 3*s + 1*s^2 + -1*T + -1*s*T)"
    assert repr(BivarPoly()) == "BivarPoly(0)"
    p = BivarPoly({(3, 0): -(2**70), (0, 2): 5})
    assert repr(p) == "BivarPoly(-1180591620717411303424*s^3 + 5*T^2)"


# sha256 of repr(sorted(p.coeffs.items())), taken from the sparse-dict
# implementation that the packed rows replaced
DIGESTS = {
    ("riley", -40): "16971e87ba59eb876b7818a43b066b2736665321de8bbad7769f98a0c6133ace",
    ("riley", -7): "7c4a8e380a1ee05a17e807a9cec8bb769f1819d5a927ba135f85bf524f942b80",
    ("riley", 2): "29e20416bb8653c0718d45b86826a58b6f119bc63109fb02743618e9eb3d47b3",
    ("riley", 9): "1b3f7d986fc61d03c0d4d196d9dbd6fe699c4263c8623a505f728837798ad5ed",
    ("riley", 40): "ab11c2276fa7a41cc46dabd1f7b389dfe6c38c784ca2eb42018d2335c4848a36",
    ("tau", 60): "07a87e7780d0272b2f54b8dbd5b0670a84db7ab9454a2cfb0680c5d7241f9490",
}
TAU_200_DIGEST = "9ba8f98c8c41201434edc09ae97f64502bb4b1fffeeb7ee8915160d2f0695402"


def _digest(p: BivarPoly) -> str:
    return hashlib.sha256(repr(sorted(p.coeffs.items())).encode()).hexdigest()


@pytest.mark.parametrize("which, n", sorted(DIGESTS))
def test_pinned_coefficient_digests(which, n):
    build = riley_poly if which == "riley" else tau_poly
    assert _digest(build(n)) == DIGESTS[which, n]


def test_tau_memo_is_bounded():
    # past |m| = 64 tau_poly walks two live terms instead of filling the memo
    clear_cache()
    p = tau_poly(200)
    assert _tau_nonneg.cache_info().currsize <= 65
    assert _digest(p) == TAU_200_DIGEST


# the sparse-dict arithmetic that the packed rows replaced, kept as the
# oracle: {(s_degree, T_degree): int} with no zero coefficients


def _ref_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, c in q.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _ref_neg(p: dict) -> dict:
    return {k: -c for k, c in p.items()}


def _ref_scale(p: dict, k: int) -> dict:
    return {key: c * k for key, c in p.items()} if k else {}


def _ref_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            k = (a1 + a2, b1 + b2)
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _random_terms(rng: random.Random) -> dict:
    """Up to 7 terms of mixed sign, each coefficient 1 to 300 bits long."""
    terms = {}
    for _ in range(rng.randrange(8)):
        bits = rng.randrange(1, 301)
        c = rng.getrandbits(bits) | (1 << (bits - 1))
        terms[(rng.randrange(6), rng.randrange(5))] = c if rng.random() < 0.5 else -c
    return terms


def _assert_matches(p: BivarPoly, ref: dict, what):
    assert p.coeffs == ref, what
    assert bool(p) == bool(ref), what
    assert p.degree_T == max((b for _, b in ref), default=-1), what
    assert p.degree_s == max((a for a, _ in ref), default=-1), what
    assert p == BivarPoly(ref), what


def test_packed_arithmetic_matches_the_dict_oracle():
    rng = random.Random(20161)
    for chain in range(300):
        ref = _random_terms(rng)
        p = BivarPoly(ref)
        _assert_matches(p, ref, (chain, "start"))
        for step in range(6):
            op = rng.choice(("+", "-", "*", "neg", "scale"))
            if op == "neg":
                p, ref = -p, _ref_neg(ref)
            elif op == "scale":
                k = rng.choice((0, -3, 2**100, rng.randrange(-(2**40), 2**40)))
                p, ref = (p * k, _ref_scale(ref, k)) if rng.random() < 0.5 else (k * p, _ref_scale(ref, k))
            else:
                other = _random_terms(rng)
                q = BivarPoly(other)
                if op == "+":
                    p, ref = p + q, _ref_add(ref, other)
                elif op == "-":
                    p, ref = p - q, _ref_add(ref, _ref_neg(other))
                elif rng.random() < 0.5:
                    p, ref = p * q, _ref_mul(ref, other)
                else:
                    p, ref = q * p, _ref_mul(other, ref)
            _assert_matches(p, ref, (chain, step, op))


def test_equality_across_slot_widths():
    rng = random.Random(1618)
    for _ in range(50):
        terms = _random_terms(rng)
        p = BivarPoly(terms)
        # the same polynomial, reached through coefficients 700 bits longer,
        # which no slot of p holds
        q = p * 2**700 - p * (2**700 - 1)
        assert q._w > p._w or not terms
        assert q == p and p == q
        assert q.coeffs == p.coeffs == terms
        assert (q + BivarPoly.const(1)) != p
        assert not (q - p)


def test_repeated_sums_outgrow_their_slots():
    # each sum doubles the coefficients, so 200 of them outgrow the 64-bit
    # slots that these small coefficients start in
    terms = {(0, 0): 3, (1, 2): -5, (4, 1): 7, (2, 0): -1}
    p = BivarPoly(terms)
    for i in range(200):
        p = p + p if i % 2 else p - (-p)
    assert p.coeffs == _ref_scale(terms, 2**200)
    assert p == BivarPoly(terms) * 2**200


def test_product_that_forces_a_repack():
    rng = random.Random(2718)
    # 63-bit coefficients fill 128-bit slots to within one bit of half, and
    # a product of 12 terms needs 130 bits
    terms = {(a, b): rng.choice((-1, 1)) * (rng.getrandbits(63) | 1 << 62) for a in range(4) for b in range(3)}
    p = BivarPoly(terms)
    pp = p * p
    assert pp._w > p._w
    assert pp.coeffs == _ref_mul(terms, terms)
    assert pp * p == p * pp
    assert (pp * p).coeffs == _ref_mul(_ref_mul(terms, terms), terms)


def test_repack_by_byte_slices_equals_the_digit_walk():
    # _at moves whole biased digits between slots; the oracle decodes every
    # digit and packs it again
    for m in range(41):
        for p in (tau_poly(m), -tau_poly(m)):
            w = p._w
            for w2 in (w + 8, w + 64, 2 * w + 16):
                q = p._at(w2)
                assert q._w == w2
                assert q._rows == tuple(_pack(_unpack(row, w), w2) for row in p._rows), (m, w2)
                assert q.coeffs == p.coeffs


# the Fraction walk that the integer walk replaced, kept as the oracle


def _fraction_tau_pair(m: int, K: Fraction):
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(m if m >= 0 else -m - 1):
        lo, hi = hi, K * hi - lo
    return (lo, hi) if m >= 0 else (-hi, -lo)


def _fraction_phi(n: int, s, T) -> Fraction:
    s, T = Fraction(s), Fraction(T)
    tn, tnp = _fraction_tau_pair(n, s * s - (T - 2) * s + 2)
    return tnp - (T - 1 - s) * tn


def _exact_suite_points():
    """Every (n, s, T) at which the phi_exact_vs_float and
    solve_grid_soundness suites evaluate phi_exact."""
    rng = random.Random(SEED)
    ns = [n for n in range(-8, 9) if n not in (0, -1)]
    for _ in range(100):
        n = rng.choice(ns)
        s = 10.0 ** rng.uniform(-3.0, 2.0)
        yield n, s, s + 2.0 + 4.0 * rng.random() / s
    for n, sol in grid_solutions():
        yield n, sol.s, sol.T


def test_integer_walk_equals_the_fraction_walk():
    for n, s, T in _exact_suite_points():
        assert phi_exact(n, s, T) == _fraction_phi(n, s, T), (n, s, T)
        K = Fraction(s) ** 2 - (Fraction(T) - 2) * Fraction(s) + 2
        for m in (-9, -2, -1, 0, 1, 2, 9):
            assert tau_exact(m, K) == _fraction_tau_pair(m, K)[0], (m, s, T)


def test_exact_sign_proof_at_large_n():
    # the Fraction walk paid a gcd per step: 3.4 s for these two signs
    sol = solve(1000, 2.5)
    below, above = math.nextafter(sol.T, 0.0), math.nextafter(sol.T, math.inf)
    start = time.perf_counter()
    signs = (phi_exact(1000, 2.5, below) > 0, phi_exact(1000, 2.5, above) > 0)
    elapsed = time.perf_counter() - start
    assert signs[0] != signs[1]
    assert elapsed < 0.5, f"two exact evaluations at n = 1000 took {elapsed:.2f} s"
