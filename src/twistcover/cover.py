"""Universal cover of SL(2,R) in the (gamma, omega) chart.

SL(2,R) is conjugate to SU(1,1) = {[[a, b], [conj(b), conj(a)]] : |a|^2 - |b|^2 = 1}
via the map psi implemented by to_su11.  Writing a = |a| e^{i om} and
g = b/a puts SU(1,1) in coordinates (g, om mod 2pi) with |g| < 1; letting om
run over all of R instead gives the universal cover.  Elements are composed
by cover_mul, which tracks om along the continuous branch: the correction
atan2 term is safe because its argument 1 + g1 conj(g2) e^{-2i om2} always
has positive real part.

A CoverElem is a (gamma, omega) tuple, checked once where it is built.  The
group law's steps (_compose, _inv, _pow, _word) form plain pairs, each checked
as it is formed, so saturation is caught where it happens; cover_mul,
cover_inv, cover_pow and cover_word box the result with _box, unchecked.
SU11Elem (boxed by _su11 the same way) and SurgeryCertificate are slotted
namedtuples too.

The point of the chart: the kernel of the covering map is {(0, 2 m pi)}, so
proving that a lifted word equals (0, 0) on the nose, and not just up to a
deck transformation, is a statement about a real number omega, not about a
matrix.  certificate() produces that statement for the peripheral word
x^p L^q at the slope-p/q parameter.
"""

from __future__ import annotations

from cmath import isfinite, phase
from collections import namedtuple
from functools import lru_cache, partial
from math import cos, inf, sin, sqrt

from . import kernels
from .errors import (
    CertificateFailed,
    DomainError,
    LongitudeOmegaNonzero,
    NumericsError,
    RelatorNotCentral,
)
from .exactpoly import check_n, is_int
from .rep import Mat2, gen_matrices, longitude
from .slopes import DEFAULT_TOL_G, invert
from .solver import RepSolution

DEFAULT_TOL_CERT = 1e-6
# Relator and longitude products keep intermediate |gamma| within ~1/norm^2
# of the unit circle, and the final collapse divides by that margin, so lift
# residuals scale like norm^2 * eps.  On the standard grid the worst case
# (n = -6, s = 100) reaches 1.1e-6; the lift tolerance sits above that
# envelope while still catching non-solutions, whose residuals are O(1).
DEFAULT_LIFT_TOL = 1e-5
LONGITUDE_GAMMA_TOL = 1e-8


def _check(gamma: complex, omega: float) -> None:
    """CoverElem's checks on a (gamma, omega) pair."""
    # abs() of a NaN or infinite gamma is never below 1, so this accepts
    # only a finite pair inside the disk
    if abs(gamma) < 1.0 and -inf < omega < inf:
        return
    # a non-finite coordinate is a numerical breakdown, not a bad input
    if not (isfinite(gamma) and isfinite(omega)):
        raise NumericsError(f"cover element ({gamma}, {omega}) is not finite")
    if not abs(gamma) < 1.0:
        raise DomainError(f"|gamma| = {abs(gamma)} is not < 1")


class CoverElem(namedtuple("CoverElem", "gamma omega")):
    """Point of the universal cover: gamma in the open unit disk, omega real.
    The constructor checks it; the namedtuple's _make and _replace do not."""

    __slots__ = ()

    def __new__(cls, gamma: complex, omega: float) -> CoverElem:
        _check(gamma, omega)
        return _box((gamma, omega))


# a checked pair into a CoverElem, without checking it again
_box = partial(tuple.__new__, CoverElem)


class SU11Elem(namedtuple("SU11Elem", "alpha beta")):
    """Matrix [[alpha, beta], [conj(beta), conj(alpha)]] with |alpha|^2 - |beta|^2 = 1."""

    __slots__ = ()

    def defect(self) -> float:
        """Deviation of |alpha|^2 - |beta|^2 from 1."""
        alpha, beta = self
        return abs(alpha) ** 2 - abs(beta) ** 2 - 1.0


_su11 = partial(tuple.__new__, SU11Elem)


IDENTITY_COVER = CoverElem(0j, 0.0)


def to_su11(m: Mat2) -> SU11Elem:
    """Conjugate a real matrix of determinant 1 into SU(1,1)."""
    det = m.det()
    m11, m12, m21, m22 = m
    scale = 1.0 + abs(m11 * m22) + abs(m12 * m21)
    if not abs(det - 1.0) <= 1e-9 * scale:
        raise DomainError(f"matrix determinant {det} is not 1")
    alpha = complex(0.5 * (m11 + m22), 0.5 * (m12 - m21))
    beta = complex(0.5 * (m11 - m22), -0.5 * (m12 + m21))
    return _su11((alpha, beta))


def from_su11(u: SU11Elem) -> Mat2:
    alpha, beta = u
    return Mat2(
        alpha.real + beta.real,
        alpha.imag - beta.imag,
        -alpha.imag - beta.imag,
        alpha.real - beta.real,
    )


def su11_mul(u: SU11Elem, v: SU11Elem) -> SU11Elem:
    """Matrix product downstairs; cover_mul must project onto this."""
    (ua, ub), (va, vb) = u, v
    return _su11((ua * va + ub * vb.conjugate(), ua * vb + ub * va.conjugate()))


def su11_dist(u: SU11Elem, v: SU11Elem) -> float:
    (ua, ub), (va, vb) = u, v
    return max(abs(ua - va), abs(ub - vb))


def chart(u: SU11Elem) -> CoverElem:
    """Principal chart value: omega = arg(alpha) in (-pi, pi]."""
    alpha, beta = u
    return CoverElem(beta / alpha, phase(alpha))


def unchart(e: CoverElem) -> SU11Elem:
    g, w = e
    norm = sqrt(1.0 - (g.real * g.real + g.imag * g.imag))
    alpha = complex(cos(w), sin(w)) / norm
    return _su11((alpha, g * alpha))


def _compose(a: tuple, b: tuple) -> tuple:
    """cover_mul on (gamma, omega) pairs, checked as a CoverElem is."""
    g1, w1 = a
    g2, w2 = b
    try:
        g, w = kernels.cover_compose(g1, w1, g2, w2)
        _check(g, w)
    except ValueError as exc:  # DomainError from _check included
        raise NumericsError(f"cover composition left the chart: {exc}") from exc
    return g, w


def _inv(a: tuple) -> tuple:
    """cover_inv on a (gamma, omega) pair, checked as a CoverElem is."""
    g, w = a
    ph = complex(cos(2.0 * w), sin(2.0 * w))
    g, w = -g * ph, -w
    _check(g, w)
    return g, w


def _pow(a: tuple, k: int) -> tuple:
    """cover_pow on a (gamma, omega) pair."""
    if k < 0:
        a = _inv(a)
        k = -k
    acc = None
    while True:
        if k & 1:
            acc = a if acc is None else _compose(acc, a)
        k >>= 1
        if not k:
            return IDENTITY_COVER if acc is None else acc
        a = _compose(a, a)


def _word(word: str, x: tuple, y: tuple) -> tuple:
    """cover_word on (gamma, omega) pairs."""
    table = {"x": x, "y": y, "X": _inv(x), "Y": _inv(y)}
    acc = None
    for ch in word:
        try:
            letter = table[ch]
        except KeyError:
            raise DomainError(f"unknown letter {ch!r} in word") from None
        acc = letter if acc is None else _compose(acc, letter)
    return IDENTITY_COVER if acc is None else acc


def cover_mul(a: CoverElem, b: CoverElem) -> CoverElem:
    """Product in the cover; projects to the SU(1,1) product of a then b.

    A branch violation and a |gamma| rounded onto the unit circle (chart
    saturation) are numerical failures: the exact product is in the disk."""
    return _box(_compose(a, b))


def cover_inv(a: CoverElem) -> CoverElem:
    return _box(_inv(a))


def cover_pow(a: CoverElem, k: int) -> CoverElem:
    """a^k (a^-1 to the power -k for k < 0) by squaring, O(log |k|)
    compositions: at most 2 floor(log2 |k|), against |k| for a fold.

    The product is reassociated, so it matches the left fold, its test
    oracle, only to rounding.  k must be an integer (not a bool).
    """
    if not is_int(k):
        raise DomainError(f"k must be an integer, got {k!r}")
    return _box(_pow(a, k))


def cover_word(word: str, xt: CoverElem, yt: CoverElem) -> CoverElem:
    """Evaluate a word in x, y (X, Y for inverses) left to right.

    The fold starts from the first letter, not from the identity: that
    saves a composition and no bit, since the identity's product with an
    element is exact up to the sign of a zero."""
    return _box(_word(word, xt, yt))


@lru_cache(maxsize=1)
def _lifted_w_power(n: int, x: tuple, y: tuple) -> tuple:
    """Lift of w^n, w = x y^-1 x^-1 y, by squaring: O(log |n|) compositions.

    The relator and the longitude both contain w^n; one entry is enough for
    lifted_longitude to reuse the power that lift_generators formed at the
    same lifts.
    """
    return _pow(_word("xYXy", x, y), n)


def lift_generators(n: int, sol: RepSolution) -> tuple[CoverElem, CoverElem, float]:
    """Lift the generator images to the cover so the relator maps to (0, 0).

    Only sol.s and sol.t are read, so a slopes.SlopeSample serves as well.

    x lifts with omega exactly 0: alpha of its SU(1,1) image is
    (t+1)/(2 sqrt(t)), real and positive.  y takes its principal chart value.
    That needs no central correction (0, 2 k pi): Y has the trace of X,
    sqrt(t) + 1/sqrt(t) > 2, so Re(alpha) of its SU(1,1) image exceeds 1 and
    the principal value is Y's lift with translation number 0.  The lifted
    w^n x w^-n, a conjugate of x's lift, also has translation number 0 and
    projects to Y, so it is that same lift: k = 0.  The returned residual is
    the lifted relator's distance from (0, 0), and it is the only gate: a
    lift on the wrong level would leave a residual near 2 pi and raise
    RelatorNotCentral.

    The relator w^n x w^-n y^-1 is formed from the lifted w raised to the
    n-th power by squaring, O(log |n|) compositions, not letter by letter.
    """
    check_n(n)
    gen_x, gen_y = gen_matrices(sol.s, sol.t)
    xt = chart(to_su11(gen_x))
    yt = chart(to_su11(gen_y))
    wn = _lifted_w_power(n, xt, yt)
    g, w = _compose(_compose(_compose(wn, xt), _inv(wn)), _inv(yt))
    residual = max(abs(g), abs(w))
    if not residual <= DEFAULT_LIFT_TOL:
        raise RelatorNotCentral(
            f"lifted relator at n={n}, s={sol.s} is ({g}, {w}), "
            f"residual {residual:.3e} > {DEFAULT_LIFT_TOL}; the parameters do "
            f"not satisfy the group relation"
        )
    return xt, yt, residual


def lifted_longitude(n: int, xt: CoverElem, yt: CoverElem) -> CoverElem:
    """Lift of the longitude; |omega| must stay within DEFAULT_TOL_CERT.

    The longitude w_rev^n w^n, w_rev = y x^-1 y^-1 x, is the product of two
    powers by squaring, O(log |n|) compositions, not a letter walk.
    """
    check_n(n)
    g, w = _compose(_pow(_word("yXYx", xt, yt), n), _lifted_w_power(n, xt, yt))
    if not abs(w) <= DEFAULT_TOL_CERT:
        raise LongitudeOmegaNonzero(
            f"lifted longitude has omega = {w}, "
            f"|omega| > {DEFAULT_TOL_CERT} at n={n}"
        )
    return _box((g, w))


class SurgeryCertificate(
    namedtuple(
        "SurgeryCertificate",
        "n p q s_star t B gamma_x gamma_L relator_residual longitude_omega "
        "final_gamma_abs final_omega tol_slope tol_certificate",
    )
):
    """Record that the lifted peripheral word x^p L^q equals (0, 0).

    gamma_x and gamma_L are the chart coordinates of the lifted meridian and
    longitude; final_gamma_abs and final_omega measure the distance of the
    lifted x^p L^q from the identity of the cover.
    """

    __slots__ = ()


def certificate(n: int, p: int, q: int) -> SurgeryCertificate:
    """Full pipeline: invert the slope map at p/q, lift, and certify.

    Finds s* with g(s*) = p/q, lifts the representation there, and verifies
    that the lifted x^p L^q lands on (0, 0) within DEFAULT_TOL_CERT.  It
    lifts at invert's own sample, whose s and t come from g_eval at s*, the
    certificate's one solve (invert's steps evaluate the branch in closed form).
    The lifted longitude's gamma must match the holonomy's value
    (rep.HolonomyData.lifted_gamma) to LONGITUDE_GAMMA_TOL.
    """
    smp, _ = invert(n, p, q)
    _, hol = longitude(n, smp)
    xt, yt, rel_res = lift_generators(n, smp)
    lt = lifted_longitude(n, xt, yt)
    err = abs(lt.gamma - hol.lifted_gamma)
    if not err <= LONGITUDE_GAMMA_TOL:
        raise NumericsError(
            f"lifted longitude gamma = {lt.gamma} differs from holonomy "
            f"value {hol.lifted_gamma} by {err:.3e} > {LONGITUDE_GAMMA_TOL}"
        )
    stage = f"closure of x^{p} L^{q} at n={n}, r={p}/{q}, s*={smp.s}"
    try:
        final = cover_mul(cover_pow(xt, p), cover_pow(lt, q))
    except NumericsError as exc:
        raise NumericsError(f"{stage} failed: {exc}") from exc
    final_gamma_abs = abs(final.gamma)
    if not (final_gamma_abs <= DEFAULT_TOL_CERT and abs(final.omega) <= DEFAULT_TOL_CERT):
        raise CertificateFailed(
            f"{stage} failed: lifted word is ({final.gamma}, {final.omega}); "
            f"|gamma| = {final_gamma_abs:.3e}, |omega| = {abs(final.omega):.3e} "
            f"exceed tol = {DEFAULT_TOL_CERT} "
            f"(relator residual {rel_res:.3e}, longitude omega {lt.omega:.3e})"
        )
    return SurgeryCertificate(
        n=n,
        p=p,
        q=q,
        s_star=smp.s,
        t=smp.t,
        B=hol.B,
        gamma_x=xt.gamma.real,
        gamma_L=lt.gamma.real,
        relator_residual=rel_res,
        longitude_omega=lt.omega,
        final_gamma_abs=final_gamma_abs,
        final_omega=final.omega,
        tol_slope=DEFAULT_TOL_G,
        tol_certificate=DEFAULT_TOL_CERT,
    )
