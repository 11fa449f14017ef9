"""Exact bivariate polynomials in (s, T) over the integers.

The defining polynomial of a twist knot's parameter variety is built from the
recursion

    tau_0 = 0,  tau_1 = 1,
    tau_{m+1} = (s^2 - (T-2)*s + 2) * tau_m - tau_{m-1},
    tau_{-m} = -tau_m,

and phi_n = tau_{n+1} - (T - 1 - s) * tau_n.  The real parameters feeding the
numeric solver are roots of phi_n in T; this module is the exact-arithmetic
ground truth against which the floating evaluation is checked.  tau_poly and
riley_poly expand the recursion into coefficients; tau_exact and phi_exact run
it on the exact value of the trace at one point, in O(|n|) rational steps.
riley_poly, tau_exact and phi_exact share one walk with two live terms;
tau_poly keeps a memo, since the identity suites ask for the same tau_m often.

Representation: sparse dict {(s_degree, T_degree): int} with no explicit zero
coefficients; the zero polynomial is the empty dict.  Coefficients are plain
Python ints, so nothing overflows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError


class BivarPoly:
    """Immutable-by-convention sparse polynomial in s and T."""

    __slots__ = ("coeffs",)

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for (sd, td), c in terms.items():
                c = int(c)
                if c != 0:
                    coeffs[(int(sd), int(td))] = c
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): c})

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        p = BivarPoly()
        p.coeffs = out
        return p

    def __neg__(self) -> "BivarPoly":
        p = BivarPoly()
        p.coeffs = {k: -c for k, c in self.coeffs.items()}
        return p

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BivarPoly()
            p = BivarPoly()
            p.coeffs = {k: c * other for k, c in self.coeffs.items()}
            return p
        out: dict = {}
        for (a1, b1), c1 in self.coeffs.items():
            for (a2, b2), c2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                v = out.get(k, 0) + c1 * c2
                if v:
                    out[k] = v
                else:
                    del out[k]
        p = BivarPoly()
        p.coeffs = out
        return p

    __rmul__ = __mul__

    @property
    def degree_s(self) -> int:
        return max((k[0] for k in self.coeffs), default=-1)

    @property
    def degree_T(self) -> int:
        return max((k[1] for k in self.coeffs), default=-1)

    def terms(self) -> list:
        """Serialization form: coefficients as decimal strings, ordered
        lexicographically by T-degree then s-degree."""
        items = sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return [
            {"s_deg": a, "T_deg": b, "coeff": str(c)} for (a, b), c in items
        ]

    def __repr__(self):
        if not self.coeffs:
            return "BivarPoly(0)"
        bits = []
        for (a, b), c in sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            term = str(c)
            if a:
                term += f"*s^{a}" if a > 1 else "*s"
            if b:
                term += f"*T^{b}" if b > 1 else "*T"
            bits.append(term)
        return "BivarPoly(" + " + ".join(bits) + ")"


# tr(W) as a polynomial: s^2 - (T-2)*s + 2
TRACE_POLY = BivarPoly({(2, 0): 1, (1, 1): -1, (1, 0): 2, (0, 0): 2})

# T - 1 - s
_SHIFT = BivarPoly({(0, 1): 1, (0, 0): -1, (1, 0): -1})

_ONE = BivarPoly.const(1)


# memoized: the identity suites ask for the same tau_m again and again, and a
# cold verify pass takes about 7x longer without the memo
@lru_cache(maxsize=None)
def _tau_nonneg(m: int) -> BivarPoly:
    if m == 0:
        return BivarPoly.zero()
    if m == 1:
        return _ONE
    return TRACE_POLY * _tau_nonneg(m - 1) - _tau_nonneg(m - 2)


def tau_poly(m: int) -> BivarPoly:
    """m-th trace recursion polynomial; tau_{-m} = -tau_m."""
    k = abs(m)
    # fill the memo from the bottom, so that each call below recurses one
    # level deep however large |m| is
    for j in range(2, k):
        _tau_nonneg(j)
    p = _tau_nonneg(k)
    return p if m >= 0 else -p


def _tau_pair(m: int, K, zero, one):
    """(tau_m, tau_{m+1}) at the trace K, in one walk of the recursion with
    two live terms, over the ring whose zero and one are given (Fractions at
    a point, or BivarPolys with K = TRACE_POLY); negative m comes from
    tau_{-m} = -tau_m."""
    lo, hi = zero, one
    for _ in range(m if m >= 0 else -m - 1):
        lo, hi = hi, K * hi - lo
    # for m < 0 the walk stopped at (tau_{-m-1}, tau_{-m})
    return (lo, hi) if m >= 0 else (-hi, -lo)


def tau_exact(m: int, K) -> Fraction:
    """tau_m at the exact trace value K, by the recursion."""
    return _tau_pair(m, Fraction(K), Fraction(0), Fraction(1))[0]


def check_n(n: int) -> None:
    """DomainError unless n is an integer twist parameter other than 0 and -1.

    n = 0 and n = -1 give the unknot and the trefoil, which are outside this
    machinery.
    """
    if not isinstance(n, int):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n in (0, -1):
        raise DomainError(f"n must not be 0 or -1, got {n}")


def riley_poly(n: int) -> BivarPoly:
    """Defining polynomial phi_n = tau_{n+1} - (T-1-s)*tau_n.

    It walks the recursion with two live terms, as phi_exact does, and not
    through tau_poly's memo, which would keep every tau_j with j <= |n|:
    O(n^2) terms in memory instead of O(n^3).
    """
    check_n(n)
    tn, tnp = _tau_pair(n, TRACE_POLY, BivarPoly.zero(), _ONE)
    return tnp - _SHIFT * tn


def phi_exact(n: int, s, T) -> Fraction:
    """Exact value of phi_n at (s, T), by the trace recursion.

    s and T may be int, Fraction or float; floats are taken at their exact
    binary value.  Equal to riley_poly(n) summed term by term at (s, T).
    """
    check_n(n)
    s = Fraction(s)
    T = Fraction(T)
    K = s * s - (T - 2) * s + 2
    tn, tnp = _tau_pair(n, K, Fraction(0), Fraction(1))
    return tnp - (T - 1 - s) * tn


def clear_cache() -> None:
    """Drop memoized tau polynomials (used by timing tests)."""
    _tau_nonneg.cache_clear()
