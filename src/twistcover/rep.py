"""Numeric matrices of the knot group representation.

Generators (meridians) for parameters s > 0, t > 1, writing u = sqrt(t) - 1/sqrt(t):

    X = [[sqrt(t), 0], [0, 1/sqrt(t)]]
    Y = [[(t-s-1)/u, s/u^2 - 1], [-s, (s+1-1/t)/u]]

The commutator word is w = x y^-1 x^-1 y; its reversal w_rev = y x^-1 y^-1 x.
Words are strings in SnapPy convention: lowercase is a generator, uppercase
its inverse, so w = "xYXy".  Powers of W = rho(w) come from the trace
recursion (u_11 = w_11 tau_n - tau_{n-1} and so on) rather than repeated
multiplication; repeated multiplication is kept only as the test oracle.

The longitude is rho(w_rev^n w^n).  At a solution of the defining equation
it is diag(B, 1/B) with B = (t-s-1)/((1+s)t - 1), for every n (Riley, Quart.
J. Math. Oxford 35 (1984)).  The checks.longitude_lemmas suite proves the
identities behind that exactly, as integer polynomials, so no longitude
matrix is formed here: longitude_holonomy is B's closed form.

Mat2 is a slotted namedtuple, boxed from a 4-tuple by _mat, without
__new__.  Its methods unpack its entries and use only +, - and * on them
(inverse is the adjugate), so the lemma suite runs them on polynomials too.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from math import sqrt

from . import kernels
from .errors import DomainError, _too_large, check_positive, is_int


class Mat2(namedtuple("Mat2", "m11 m12 m21 m22")):
    """2x2 matrix; every matrix this module builds is real with determinant 1."""

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


def _holonomy(s: float, t: float) -> float:
    """longitude_holonomy at an (s, t) its caller holds valid: the slope
    map's hot path, and so the B of every certificate."""
    return (t - s - 1.0) / ((1.0 + s) * t - 1.0)


def longitude_holonomy(s: float, t: float) -> float:
    """Closed form of the longitude's (1,1) entry, B = (t-s-1)/((1+s)t - 1),
    at (s, t) as gen_matrices checks them."""
    return _holonomy(*_check_params(s, t))
