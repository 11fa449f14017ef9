"""Numeric matrices of the knot group representation.

Generators (meridians) for parameters s > 0, t > 1, writing u = sqrt(t) - 1/sqrt(t):

    X = [[sqrt(t), 0], [0, 1/sqrt(t)]]
    Y = [[(t-s-1)/u, s/u^2 - 1], [-s, (s+1-1/t)/u]]

The commutator word is w = x y^-1 x^-1 y; its reversal w_rev = y x^-1 y^-1 x.
Words are strings in SnapPy convention: lowercase is a generator, uppercase
its inverse, so w = "xYXy".  No W = rho(w) or power of it is formed
here: word_eval, the left fold of a word's letters, is the tests' float
oracle.

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

from .errors import DomainError, check_positive, is_int


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


def _holonomy(s: float, t: float) -> float:
    """longitude_holonomy at an (s, t) its caller holds valid: the slope
    map's hot path, and so the B of every certificate."""
    return (t - s - 1.0) / ((1.0 + s) * t - 1.0)


def longitude_holonomy(s: float, t: float) -> float:
    """Closed form of the longitude's (1,1) entry, B = (t-s-1)/((1+s)t - 1),
    at (s, t) as gen_matrices checks them."""
    return _holonomy(*_check_params(s, t))
