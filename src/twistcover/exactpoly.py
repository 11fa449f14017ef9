"""Exact bivariate polynomials in (s, T) over the integers.

The defining polynomial of a twist knot's parameter variety is built from the
recursion

    tau_0 = 0,  tau_1 = 1,
    tau_{m+1} = (s^2 - (T-2)*s + 2) * tau_m - tau_{m-1},
    tau_{-m} = -tau_m,

and phi_n = tau_{n+1} - (T - 1 - s) * tau_n.  The real parameters feeding the
numeric solver are roots of phi_n in T; this module is the exact-arithmetic
ground truth against which the floating evaluation is checked.

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

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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

    def evaluate(self, s, T) -> Fraction:
        """Exact value at rational (s, T).  Accepts int, Fraction or float;
        floats are taken at their exact binary value."""
        s = Fraction(s)
        T = Fraction(T)
        total = Fraction(0)
        for (a, b), c in self.coeffs.items():
            total += c * s**a * T**b
        return total

    def terms(self) -> list:
        """Serialization form: coefficients as decimal strings, ordered
        lexicographically by T-degree then s-degree."""
        items = sorted(self.coeffs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        return [
            {"s_deg": a, "T_deg": b, "coeff": str(c)} for (a, b), c in items
        ]

    @classmethod
    def from_terms(cls, terms) -> "BivarPoly":
        return cls({(d["s_deg"], d["T_deg"]): int(d["coeff"]) for d in terms})

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


@lru_cache(maxsize=None)
def _tau_nonneg(m: int) -> BivarPoly:
    if m == 0:
        return BivarPoly.zero()
    if m == 1:
        return _ONE
    return TRACE_POLY * _tau_nonneg(m - 1) - _tau_nonneg(m - 2)


def tau_poly(m: int) -> BivarPoly:
    """m-th trace recursion polynomial; tau_{-m} = -tau_m."""
    if m >= 0:
        return _tau_nonneg(m)
    return -_tau_nonneg(-m)


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
    """Defining polynomial phi_n = tau_{n+1} - (T-1-s)*tau_n."""
    check_n(n)
    return tau_poly(n + 1) - _SHIFT * tau_poly(n)


def eval_exact(p: BivarPoly, s, T) -> Fraction:
    """Exact rational evaluation of p at (s, T)."""
    return p.evaluate(s, T)


def clear_cache() -> None:
    """Drop memoized tau polynomials (used by timing tests)."""
    _tau_nonneg.cache_clear()
