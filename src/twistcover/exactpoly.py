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
it on the exact value of the trace at one point, in O(|n|) integer steps over
one common denominator, and form a single Fraction at the end.  All of them
share one walk with two live terms; tau_poly keeps a memo for |m| <= 64, since
the identity suites ask for the same tau_m often.

Representation: one Python int per T-degree j (Kronecker substitution in s).
Row j is sum_a c_{a,j} * 2^(w*a), with balanced digits |c| < 2^(w-1), so
negative coefficients need no special care and +, -, negation and scaling
are row-wise big-int operations.  A product adds c * (row << w*a) for each
term (a, b, c) of the smaller operand into row j + b of the larger.  Each
instance carries its slot width w, a multiple of 8, and an upper bound on
its coefficients' absolute values: a sum adds its operands' bounds, and a
product multiplies the larger operand's bound by the smaller's sum of
|coefficients|.  When a result's bound would not fit a slot, the operand is
repacked at w = max(64, 2*bits + 2) rounded up to whole bytes, bits the
bound's bit length; an m-step walk thus repacks O(log m) times.  The
highest row is nonzero, and the zero polynomial has no rows.  coeffs is the
decoded {(s_degree, T_degree): int} dict without zero coefficients, ordered
by T-degree then s-degree; it is built on first use, once per instance,
through int.to_bytes in O(size).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import DomainError


def _width(bits: int) -> int:
    """Slot width for coefficients of `bits` bits, in whole bytes, with room
    for coefficients twice as long before the next repack."""
    return max(64, (2 * bits + 9) & ~7)


def _bias(n: int, k: int) -> int:
    """sum_a 2^(8k-1) * 2^(8k*a) for a < n: the offset that makes n balanced
    k-byte digits nonnegative."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _unpack(row: int, w: int) -> list:
    """Balanced base-2^w digits of row, lowest first; the last may be 0."""
    k = w >> 3
    n = row.bit_length() // w + 1
    buf = memoryview((row + _bias(n, k)).to_bytes(n * k, "little"))
    half = 1 << (w - 1)
    return [int.from_bytes(buf[i : i + k], "little") - half for i in range(0, n * k, k)]


def _pack(digits: list, w: int) -> int:
    """The row whose balanced base-2^w digits are `digits`, lowest first."""
    k = w >> 3
    half = 1 << (w - 1)
    buf = b"".join((c + half).to_bytes(k, "little") for c in digits)
    return int.from_bytes(buf, "little") - _bias(len(digits), k)


def _fit(w: int, mag: int) -> int:
    """w if coefficients up to mag in absolute value fit its balanced slots,
    else the wider slot width for them."""
    bits = mag.bit_length()
    return w if bits < w else _width(bits)


def is_int(value) -> bool:
    """True for an int that is not a bool: bool subclasses int, but True and
    False are no integer parameters."""
    return isinstance(value, int) and not isinstance(value, bool)


def _new(rows: tuple, w: int, mag: int) -> "BivarPoly":
    p = object.__new__(BivarPoly)
    p._rows, p._w, p._mag, p._coeffs = rows, w, mag, None
    return p


class BivarPoly:
    """Immutable-by-convention polynomial in s and T with integer coefficients."""

    __slots__ = ("_rows", "_w", "_mag", "_coeffs")

    def __init__(self, terms=None):
        by_T: dict = {}
        mag = 0
        if terms:
            for (sd, td), c in terms.items():
                if not (is_int(sd) and is_int(td) and is_int(c)):
                    raise DomainError(
                        f"degrees and coefficient must be integers, got {(sd, td)!r}: {c!r}"
                    )
                if sd < 0 or td < 0:
                    raise DomainError(f"negative degree in term {(sd, td)}")
                by_T.setdefault(td, {})[sd] = c
        rows = [0] * (max(by_T) + 1 if by_T else 0)
        for td, row in by_T.items():
            digits = [0] * (max(row) + 1)
            for sd, c in row.items():
                digits[sd] = c
                mag = max(mag, abs(c))
            rows[td] = digits
        w = _width(mag.bit_length())
        rows = [_pack(d, w) if d else 0 for d in rows]
        while rows and not rows[-1]:
            rows.pop()
        self._rows, self._w, self._mag, self._coeffs = tuple(rows), w, mag, None

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BivarPoly":
        return cls({(0, 0): c})

    @property
    def coeffs(self) -> dict:
        if self._coeffs is None:
            w = self._w
            self._coeffs = {
                (a, j): c
                for j, row in enumerate(self._rows)
                for a, c in enumerate(_unpack(row, w))
                if c
            }
        return self._coeffs

    def _at(self, w: int) -> "BivarPoly":
        """self repacked at slot width w >= self._w."""
        if w == self._w:
            return self
        return _new(tuple(_pack(_unpack(row, self._w), w) for row in self._rows), w, self._mag)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if self._w == other._w:
            return self._rows == other._rows
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self._rows)

    def _combine(self, other: "BivarPoly", negate: bool) -> "BivarPoly":
        mag = self._mag + other._mag
        w = _fit(max(self._w, other._w), mag)
        p, q = self._at(w), other._at(w)
        if negate:
            rows = [a - b for a, b in zip_longest(p._rows, q._rows, fillvalue=0)]
        else:
            rows = [a + b for a, b in zip_longest(p._rows, q._rows, fillvalue=0)]
        while rows and not rows[-1]:
            rows.pop()
        return _new(tuple(rows), w, mag if rows else 0)

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, False)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self._combine(other, True)

    def __neg__(self) -> "BivarPoly":
        return _new(tuple(-row for row in self._rows), self._w, self._mag)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if other == 0 or not self._rows:
                return BivarPoly()
            mag = self._mag * abs(other)
            p = self._at(_fit(self._w, mag))
            return _new(tuple(row * other for row in p._rows), p._w, mag)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        if not self._rows or not other._rows:
            return BivarPoly()
        small, big = self, other
        if sum(map(int.bit_length, small._rows)) > sum(map(int.bit_length, big._rows)):
            small, big = big, small
        # every product coefficient is a sum of terms c * d with d a
        # coefficient of big, so it is at most big's bound times sum |c|
        by_a: dict = {}
        total = 0
        for (a, b), c in small.coeffs.items():
            by_a.setdefault(a, []).append((b, c))
            total += abs(c)
        mag = big._mag * total
        big = big._at(_fit(big._w, mag))
        w = big._w
        n = len(big._rows)
        out = [0] * (len(small._rows) + n - 1)
        for a, bc in by_a.items():
            xs = [row << (w * a) for row in big._rows] if a else big._rows
            for b, c in bc:
                acc = out[b : b + n]
                if c == 1:
                    out[b : b + n] = [o + x for o, x in zip(acc, xs)]
                elif c == -1:
                    out[b : b + n] = [o - x for o, x in zip(acc, xs)]
                else:
                    out[b : b + n] = [o + c * x for o, x in zip(acc, xs)]
        return _new(tuple(out), w, mag)

    __rmul__ = __mul__

    @property
    def degree_s(self) -> int:
        return max((a for a, _ in self.coeffs), default=-1)

    @property
    def degree_T(self) -> int:
        return len(self._rows) - 1

    def __repr__(self):
        if not self._rows:
            return "BivarPoly(0)"
        bits = []
        for (a, b), c in self.coeffs.items():
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


# memoized for m <= 64 (tau_poly walks past that): the identity suites ask
# for the same tau_m with m <= 31 again and again, and a cold verify pass
# takes about 7x longer without the memo
@lru_cache(maxsize=None)
def _tau_nonneg(m: int) -> BivarPoly:
    if m == 0:
        return BivarPoly.zero()
    if m == 1:
        return _ONE
    return TRACE_POLY * _tau_nonneg(m - 1) - _tau_nonneg(m - 2)


def tau_poly(m: int) -> BivarPoly:
    """m-th trace recursion polynomial; tau_{-m} = -tau_m."""
    if not is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
    k = abs(m)
    if k > 64:
        # a memo this far out would keep O(k^3) coefficients alive
        p = _tau_pair(k, TRACE_POLY, BivarPoly.zero(), _ONE)[0]
    else:
        # fill the memo from the bottom, so that each call below recurses
        # one level deep however large |m| is
        for j in range(2, k):
            _tau_nonneg(j)
        p = _tau_nonneg(k)
    return p if m >= 0 else -p


def _tau_pair(m: int, K, zero, one, D2=1):
    """(a_m, a_{m+1}) for a_0 = zero, a_1 = one and
    a_{j+1} = K * a_j - D2 * a_{j-1}, in one walk with two live terms; for
    m < 0, (-a_{-m}, -a_{-m-1}).

    With D2 = 1 this is (tau_m, tau_{m+1}) at the trace K, over the ring
    whose zero and one are given (BivarPolys with K = TRACE_POLY), since
    tau_{-m} = -tau_m.  Over the integers, with K = k/D, the walk with
    (k, D^2) gives tau_j = a_j / D^(j-1) and pays no gcd.
    """
    lo, hi = zero, one
    for _ in range(m if m >= 0 else -m - 1):
        lo, hi = hi, K * hi - D2 * lo
    # for m < 0 the walk stopped at (a_{-m-1}, a_{-m})
    return (lo, hi) if m >= 0 else (-hi, -lo)


def _scaled_pair(m: int, K: Fraction) -> tuple[int, int, int]:
    """(x, y, d) with (tau_m, tau_{m+1}) = (x/d, y/d) at the trace K = k/D,
    walked over the integers; d is a power of D."""
    k, D = K.numerator, K.denominator
    x, y = _tau_pair(m, k, 0, 1, D * D)
    # a_j carries D^(j-1): bring the lower-index term up to the other's power
    if m >= 0:
        return x * D, y, D**m
    return x, y * D, D ** (-m - 1)


def tau_exact(m: int, K) -> Fraction:
    """tau_m at the exact trace value K, by the recursion."""
    if not is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
    x, _, d = _scaled_pair(m, Fraction(K))
    return Fraction(x, d)


def check_n(n: int) -> None:
    """DomainError unless n is an integer twist parameter other than 0 and -1.

    n = 0 and n = -1 give the unknot and the trefoil, which are outside this
    machinery.
    """
    if not is_int(n):
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
    x, y, d = _scaled_pair(n, s * s - (T - 2) * s + 2)
    shift = T - 1 - s
    u, v = shift.numerator, shift.denominator
    return Fraction(y * v - u * x, v * d)


def clear_cache() -> None:
    """Drop memoized tau polynomials (used by timing tests)."""
    _tau_nonneg.cache_clear()
