"""Numeric matrices of the knot group representation.

Generators (meridians) for parameters s > 0, t > 1, writing u = sqrt(t) - 1/sqrt(t):

    X = [[sqrt(t), 0], [0, 1/sqrt(t)]]
    Y = [[(t-s-1)/u, s/u^2 - 1], [-s, (s+1-1/t)/u]]

The commutator word is w = x y^-1 x^-1 y; its reversal w_rev = y x^-1 y^-1 x.
Words are strings in SnapPy convention: lowercase is a generator, uppercase
its inverse, so w = "xYXy".  Powers of W = rho(w) come from the trace
recursion (u_11 = w_11 tau_n - tau_{n-1} and so on) rather than repeated
multiplication; repeated multiplication is kept only as the test oracle.

The longitude is rho(w_rev^n w^n).  rho(w_rev^n) is the sigma-conjugate
transform of rho(w^n), with sigma = s u^2 / (u^2 - s); at a solution of the
defining equation the longitude matrix is diagonal with positive (1,1) entry
B = (t-s-1)/((1+s)t - 1).

Mat2 and HolonomyData are slotted namedtuples; Mat2's methods unpack its
entries, and matrices are boxed from a 4-tuple by _mat, without __new__.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from math import sqrt

from . import kernels
from .errors import (
    DomainError, NumericsError, OffDiagonalTooLarge, _too_large, check_n, check_positive, is_int,
)

OFFDIAG_TOL = 1e-6


class Mat2(namedtuple("Mat2", "m11 m12 m21 m22")):
    """Real 2x2 matrix; every matrix in this module has determinant 1."""

    __slots__ = ()

    def __matmul__(self, o: Mat2) -> Mat2:
        a11, a12, a21, a22 = self
        b11, b12, b21, b22 = o
        return _mat((a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                     a21 * b11 + a22 * b21, a21 * b12 + a22 * b22))

    def det(self) -> float:
        m11, m12, m21, m22 = self
        return m11 * m22 - m12 * m21

    def trace(self) -> float:
        return self[0] + self[3]

    def inverse(self) -> Mat2:
        # adjugate; exact inverse only because det = 1
        m11, m12, m21, m22 = self
        return _mat((m22, -m12, -m21, m11))

    def maxabs(self) -> float:
        m11, m12, m21, m22 = self
        return max(abs(m11), abs(m12), abs(m21), abs(m22))


# four entries into a Mat2 without the namedtuple's argument handling
_mat = partial(tuple.__new__, Mat2)

IDENTITY2 = Mat2(1.0, 0.0, 0.0, 1.0)


def max_abs_diff(a: Mat2, b: Mat2) -> float:
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return max(abs(a11 - b11), abs(a12 - b12), abs(a21 - b21), abs(a22 - b22))


def _check_params(s: float, t: float) -> tuple[float, float]:
    s = check_positive("s", s)
    t = check_positive("t", t)
    # u = sqrt(t) - 1/sqrt(t) vanishes at t = 1
    if t - 1.0 < 1e-12:
        raise DomainError(f"t must exceed 1 by more than 1e-12, got {t}")
    return s, t


def gen_matrices(s: float, t: float) -> tuple[Mat2, Mat2]:
    """Meridian images (X, Y) at parameters (s, t)."""
    s, t = _check_params(s, t)
    rt = sqrt(t)
    u = rt - 1.0 / rt
    u2 = u * u
    gx = _mat((rt, 0.0, 0.0, 1.0 / rt))
    gy = _mat(((t - s - 1.0) / u, s / u2 - 1.0, -s, (s + 1.0 - 1.0 / t) / u))
    return gx, gy


def w_matrix(s: float, t: float) -> Mat2:
    """Closed form of W = rho(x y^-1 x^-1 y)."""
    s, t = _check_params(s, t)
    rt = sqrt(t)
    u2 = t - 2.0 + 1.0 / t
    # 1 + s - s*t + s^2*t/(t-1), factored to keep the cancellation mild
    w11 = 1.0 + s + s * t * (s + 1.0 - t) / (t - 1.0)
    w12 = (t - 1.0 + s * t) / rt * (u2 - s) / u2
    w21 = s * (1.0 + s - t) / rt
    w22 = 1.0 + s - s * s / (t - 1.0) - s / t
    return _mat((w11, w12, w21, w22))


def sigma_factor(s: float, t: float) -> float:
    """sigma = s u^2/(u^2 - s); poles where t + 1/t = s + 2 are rejected."""
    s, t = _check_params(s, t)
    u2 = t - 2.0 + 1.0 / t
    denom = u2 - s
    if denom == 0.0:
        raise DomainError(f"sigma has a pole at (s, t) = ({s}, {t})")
    return s * u2 / denom


def word_eval(word: str, gen_x: Mat2, gen_y: Mat2) -> Mat2:
    """Left-to-right product of a word in x, y; uppercase means inverse."""
    table = {"x": gen_x, "X": gen_x.inverse(), "y": gen_y, "Y": gen_y.inverse()}
    acc = IDENTITY2
    for ch in word:
        g = table.get(ch)
        if g is None:
            raise DomainError(f"unknown generator letter {ch!r}")
        acc = acc @ g
    return acc


def w_word(n: int) -> str:
    """Word for w^n; w = xY Xy, w^-1 = YxyX."""
    if not is_int(n):
        raise DomainError(f"n must be an integer, got {n!r}")
    return ("xYXy" if n >= 0 else "YxyX") * abs(n)


def w_rev_word(n: int) -> str:
    """Word for w_rev^n; w_rev = yXYx (w with its letters reversed)."""
    if not is_int(n):
        raise DomainError(f"n must be an integer, got {n!r}")
    return ("yXYx" if n >= 0 else "XyxY") * abs(n)


def longitude_word(n: int) -> str:
    return w_rev_word(n) + w_word(n)


def relator_word(n: int) -> str:
    """w^n x w^-n y^-1, trivial in the knot group."""
    return w_word(n) + "x" + w_word(-n) + "Y"


def w_power(n: int, s: float, t: float) -> Mat2:
    """W^n through the trace recursion, for any integer n; an n or a W^n
    beyond double range (cheb_pair's sinh form at |trace W| > 2) is refused."""
    if not is_int(n):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n == 0:
        return IDENTITY2
    w11, w12, w21, w22 = w_matrix(s, t)
    tr = w11 + w22
    try:
        tnp, tn = kernels.cheb_pair(n, tr)
        tnm = kernels.cheb_pair(n - 1, tr)[1]
    except OverflowError:
        raise _too_large("n", n) from None
    return _mat((w11 * tn - tnm, w12 * tn, w21 * tn, tnp - w11 * tn))


def w_rev_power(n: int, s: float, t: float) -> Mat2:
    """rho(w_rev^n): the sigma-conjugate transform of W^n."""
    u11, u12, u21, u22 = w_power(n, s, t)
    sigma = sigma_factor(s, t)
    return _mat((u11, u21 / sigma, u12 * sigma, u22))


def relation_residual(n: int, s: float, t: float) -> float:
    """Max-abs entrywise difference of rho(w^n x) and rho(y w^n), scaled by
    1 + the larger entry norm, which is the meaningful reading once entries
    grow with s and t.

    Zero exactly when (s, t) solves the defining equation.
    """
    gx, gy = gen_matrices(s, t)
    wn = w_power(n, s, t)
    lhs = wn @ gx
    rhs = gy @ wn
    return max_abs_diff(lhs, rhs) / (1.0 + max(lhs.maxabs(), rhs.maxabs()))


class HolonomyData(namedtuple("HolonomyData", "B offdiag_residual")):
    """Peripheral scalars at a solution: longitude entry B > 0 and the
    achieved off-diagonal residual of the longitude matrix (scaled by 1 + its
    entry norm)."""

    __slots__ = ()

    @property
    def lifted_gamma(self) -> float:
        """Chart gamma of the lifted longitude, (B^2 - 1)/(B^2 + 1)."""
        b = self[0]
        return (b * b - 1.0) / (b * b + 1.0)


def _holonomy(s: float, t: float) -> float:
    """longitude_holonomy at an (s, t) its caller holds valid: the slope
    map's hot path and longitude's B."""
    return (t - s - 1.0) / ((1.0 + s) * t - 1.0)


def longitude_holonomy(s: float, t: float) -> float:
    """Closed form of the longitude's (1,1) entry, B = (t-s-1)/((1+s)t - 1),
    at (s, t) as gen_matrices checks them."""
    return _holonomy(*_check_params(s, t))


def longitude(n: int, sol) -> tuple[Mat2, HolonomyData]:
    """rho(longitude) at a solution, with its peripheral scalars.

    The matrix is assembled from W^n and sigma; it must come out diagonal to
    OFFDIAG_TOL, and OffDiagonalTooLarge signals that sol does not actually
    satisfy the defining equation.  B is reported from the closed form; the matrix
    (1,1) entry is the cross-check, not the source.  Only sol.s and sol.t are
    read, so a slopes.SlopeSample serves as well as a RepSolution.
    """
    check_n(n)
    s, t = sol.s, sol.t
    u11, u12, u21, u22 = w_power(n, s, t)
    try:
        sigma = sigma_factor(s, t)
    except DomainError as exc:
        # on the branch T > s + 2 strictly, so a zero denominator is rounding
        # at large s, not a bad input
        raise NumericsError(f"at n={n}, u^2 - s = T - s - 2 > 0 rounds to 0: {exc}") from exc
    e12 = u11 * u12 + u21 * u22 / sigma
    e21 = u11 * u12 * sigma + u21 * u22
    ell = _mat((u11 * u11 + u21 * u21 / sigma, e12, e21, u12 * u12 * sigma + u22 * u22))
    offdiag = max(abs(e12), abs(e21)) / (1.0 + ell.maxabs())
    if not offdiag <= OFFDIAG_TOL:
        raise OffDiagonalTooLarge(
            f"longitude off-diagonal residual {offdiag:.3e} > {OFFDIAG_TOL} at n={n}, "
            f"s={s}, t={t}; the pair does not solve the defining equation"
        )
    b = _holonomy(s, t)
    if not b > 0:
        raise NumericsError(f"longitude entry B = {b} is not positive at s={s}, t={t}")
    return ell, HolonomyData(b, offdiag)
