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
share one walk with two live terms, _tau_pair, for every m of either sign;
nothing is cached.

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
from itertools import zip_longest
from math import isfinite

from .errors import DomainError, check_n, is_int


def _width(bits: int) -> int:
    """Slot width for coefficients of `bits` bits, in whole bytes, with room
    for coefficients twice as long before the next repack."""
    return max(64, (2 * bits + 9) & ~7)


def _bias(n: int, k: int, slot: int | None = None) -> int:
    """sum_a 2^(8k-1) * 2^(8 slot*a) for a < n: the offset that makes n
    balanced k-byte digits nonnegative, each in a slot of `slot` bytes
    (k unless given)."""
    pad = bytes(0 if slot is None else slot - k)
    return int.from_bytes((bytes(k - 1) + b"\x80" + pad) * n, "little")


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
        """self repacked at slot width w >= self._w: each row is
        _pack(_unpack(row, self._w), w), moved by byte slices.

        The biased k1-byte digits of a row go into k2-byte slots by k1
        strided slice copies, and the bias, now one 2^(w1-1) per k2-byte
        slot, comes off the repacked integer; no digit is decoded.
        """
        if w == self._w:
            return self
        w1 = self._w
        k1, k2 = w1 >> 3, w >> 3
        rows = []
        for row in self._rows:
            n = row.bit_length() // w1 + 1
            buf = (row + _bias(n, k1)).to_bytes(n * k1, "little")
            out = bytearray(n * k2)
            for j in range(k1):
                out[j::k2] = buf[j::k1]
            rows.append(int.from_bytes(out, "little") - _bias(n, k1, k2))
        return _new(tuple(rows), w, self._mag)

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
                out[b : b + n] = [o + c * x for o, x in zip(out[b : b + n], xs)]
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


def tau_poly(m: int) -> BivarPoly:
    """m-th trace recursion polynomial; tau_{-m} = -tau_m."""
    if not is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
    return _tau_pair(m, TRACE_POLY, BivarPoly.zero(), _ONE)[0]


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


def _exact(name: str, value) -> Fraction:
    """value as a Fraction, at a float's exact binary value; DomainError for
    a NaN or infinite float, which has none, and for a value that Fraction
    rejects, such as None or 1j."""
    if isinstance(value, float) and not isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def tau_exact(m: int, K) -> Fraction:
    """tau_m at the exact trace value K, by the recursion."""
    if not is_int(m):
        raise DomainError(f"m must be an integer, got {m!r}")
    x, _, d = _scaled_pair(m, _exact("K", K))
    return Fraction(x, d)


def riley_poly(n: int) -> BivarPoly:
    """Defining polynomial phi_n = tau_{n+1} - (T-1-s)*tau_n.

    It walks the recursion with two live terms, as tau_poly and phi_exact
    do, so it keeps O(n^2) terms in memory, not the O(n^3) of every tau_j
    with j <= |n|.
    """
    check_n(n)
    tn, tnp = _tau_pair(n, TRACE_POLY, BivarPoly.zero(), _ONE)
    return tnp - _SHIFT * tn


def phi_exact(n: int, s, T) -> Fraction:
    """Exact value of phi_n at (s, T), by the trace recursion.

    s and T may be int, Fraction or finite float; floats are taken at their
    exact binary value.  Equal to riley_poly(n) summed term by term at (s, T).
    """
    check_n(n)
    s = _exact("s", s)
    T = _exact("T", T)
    x, y, d = _scaled_pair(n, s * s - (T - 2) * s + 2)
    shift = T - 1 - s
    u, v = shift.numerator, shift.denominator
    return Fraction(y * v - u * x, v * d)

