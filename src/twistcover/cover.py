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
SU11Elem and SurgeryCertificate are slotted namedtuples too, boxed the same
way by _su11 and _cert.

_pow is one squaring loop, accumulate then square, whose step is _compose,
or _tanh_add on the real gammas for an element on the real axis (omega ==
0, real gamma; the lifted meridian x).  Such an element lies in a
hyperbolic one-parameter subgroup, gamma = tanh(u), where the law is tanh
addition, gamma'' = (gamma1 + gamma2)/(1 + gamma1 gamma2) with omega staying
0.  That is bit for bit the real part of cover_compose on such pairs: with
zero imaginary parts and e^(-2i omega) = 1 - 0i, every cross term of the
complex law is +-0.

_closure is the one place x^p L^q is formed, for certificate and
checks.audit alike, each lifted word once in one frame with no state kept
between calls: _lift forms x, y, their inverses, w^n and the relator,
_longitude w_rev^n w^n from them (w and w_rev are _commutator at (x, y)
and at (y, x)), and the closure is composed on plain pairs, so it boxes
three CoverElems: x, y and the longitude.

The point of the chart: the kernel of the covering map is {(0, 2 m pi)}, so
proving that a lifted word equals (0, 0) on the nose, and not just up to a
deck transformation, is a statement about a real number omega, not about a
matrix.  certificate() produces that statement for the peripheral word
x^p L^q at the slope-p/q parameter.
"""

from __future__ import annotations

from cmath import isfinite, phase, rect
from collections import namedtuple
from functools import partial
from math import inf, sqrt

from . import kernels
from .errors import (
    CertificateFailed,
    DomainError,
    LongitudeOmegaNonzero,
    NumericsError,
    RelatorNotCentral,
    _int_text,
    _str_digit_limit,
    check_n,
    is_int,
)
from .rep import Mat2, gen_matrices
from .slopes import DEFAULT_TOL_G, invert

DEFAULT_TOL_CERT = 1e-6
# Relator and longitude products keep intermediate |gamma| within ~1/norm^2
# of the unit circle, and the final collapse divides by that margin, so lift
# residuals scale like norm^2 * eps: at most 1.1e-6 on the standard grid
# (n = -6, s = 100), but above this bound on solve's own roots from s = 300
# on, so a refusal does not show that the point is off the group relation.
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
    alpha = rect(1.0, w) / norm
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
    ph = rect(1.0, 2.0 * w)
    g, w = -g * ph, -w
    _check(g, w)
    return g, w


def _tanh_add(u: float, v: float) -> float:
    """_compose's gamma for two elements on the real axis: the tanh
    addition (u + v)/(1 + u v), refused as _compose refuses it when it
    rounds onto the unit circle."""
    g = (u + v) / (1.0 + u * v)
    if not abs(g) < 1.0:
        raise NumericsError(f"cover composition left the chart: |gamma| = {abs(g)} is not < 1")
    return g


def _pow(a: tuple, k: int) -> tuple:
    """cover_pow on a (gamma, omega) pair: accumulate, then square, one
    step per bit.  On the real axis the step is _tanh_add on the real
    gammas, elsewhere it is _compose.

    On the axis the result keeps a's zero imaginary part and omega, as
    _compose does for the lifted meridian (gamma > 0 with omega = +0);
    elsewhere on the axis the two may differ in the sign of a zero.
    """
    if k < 0:
        a = _inv(a)
        k = -k
    g, w = a
    real_axis = w == 0.0 and g.imag == 0.0
    a, step = (g.real, _tanh_add) if real_axis else (a, _compose)
    acc = None
    while True:
        if k & 1:
            acc = a if acc is None else step(acc, a)
        k >>= 1
        if not k:
            break
        a = step(a, a)
    if acc is None:
        return IDENTITY_COVER
    return (complex(acc, g.imag), w) if real_axis else acc


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
    oracle, only to rounding.  An a on the real axis is powered by the tanh
    addition chain on floats (see the module docstring), with the same gamma
    and the same refusals.  k must be an integer (not a bool).
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


def _commutator(a: tuple, b: tuple, ai: tuple, bi: tuple) -> tuple:
    """a b^-1 a^-1 b from a, b and their inverses, composed left to right in
    3 compositions, as cover_word folds it: w = x y^-1 x^-1 y at (x, y) and
    w_rev = y x^-1 y^-1 x at (y, x)."""
    return _compose(_compose(_compose(a, bi), ai), b)


def _lift(n: int, s: float, t: float) -> tuple:
    """(x, y, x^-1, y^-1, w^n, residual) at (s, t), for an n that has passed
    check_n: the lift frame.  x and y are CoverElems, the rest pairs; the
    residual is the lifted relator w^n x w^-n y^-1's distance from (0, 0),
    and RelatorNotCentral refuses it above DEFAULT_LIFT_TOL.  A generator
    matrix that rounding carries off determinant 1 or onto the unit circle
    of the chart is a NumericsError naming n and s."""
    gen_x, gen_y = gen_matrices(s, t)
    try:
        xt = chart(to_su11(gen_x))
        yt = chart(to_su11(gen_y))
    except DomainError as exc:
        # the matrices are gen_matrices' own, of determinant 1 and inside
        # the chart in exact arithmetic, so this refusal is rounding
        raise NumericsError(
            f"generator lift at n={_int_text(n)}, s={s} failed by rounding: {exc}"
        ) from exc
    xi, yi = _inv(xt), _inv(yt)
    wn = _pow(_commutator(xt, yt, xi, yi), n)
    g, w = _compose(_compose(_compose(wn, xt), _inv(wn)), yi)
    residual = max(abs(g), abs(w))
    if not residual <= DEFAULT_LIFT_TOL:
        raise RelatorNotCentral(
            f"lifted relator at n={_int_text(n)}, s={s} is ({g}, {w}), "
            f"residual {residual:.3e} > DEFAULT_LIFT_TOL = {DEFAULT_LIFT_TOL}"
        )
    return xt, yt, xi, yi, wn, residual


def _longitude(n: int, xt: tuple, yt: tuple, xi: tuple, yi: tuple, wn: tuple) -> CoverElem:
    """The lifted longitude w_rev^n w^n from _lift's frame: w_rev^n by
    squaring, then one composition with w^n.  LongitudeOmegaNonzero unless
    |omega| <= DEFAULT_TOL_CERT."""
    g, w = _compose(_pow(_commutator(yt, xt, yi, xi), n), wn)
    if not abs(w) <= DEFAULT_TOL_CERT:
        raise LongitudeOmegaNonzero(
            f"lifted longitude has omega = {w}, "
            f"|omega| > {DEFAULT_TOL_CERT} at n={_int_text(n)}"
        )
    return _box((g, w))


def lift_generators(n: int, sol) -> tuple[CoverElem, CoverElem, float]:
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

    It keeps x, y and the residual of _lift's frame; lifted_longitude forms
    the frame's inverses and w^n again, where _closure forms w^n once.
    """
    check_n(n)
    xt, yt, _, _, _, residual = _lift(n, sol.s, sol.t)
    return xt, yt, residual


def lifted_longitude(n: int, xt: CoverElem, yt: CoverElem) -> CoverElem:
    """Lift of the longitude; |omega| must stay within DEFAULT_TOL_CERT.

    The longitude w_rev^n w^n, w_rev = y x^-1 y^-1 x, is the product of two
    powers by squaring, O(log |n|) compositions, not a letter walk.  Called
    alone it recomputes what _lift's frame holds, the inverses of x and y
    and w^n, by the same steps, so its result equals the longitude that
    certificate forms from the frame bit for bit.
    """
    check_n(n)
    xi, yi = _inv(xt), _inv(yt)
    return _longitude(n, xt, yt, xi, yi, _pow(_commutator(xt, yt, xi, yi), n))


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


_cert = partial(tuple.__new__, SurgeryCertificate)


def _closure_stage(n: int, p: int, q: int, s_star: float) -> str:
    """The closure stage a failed certificate names; formatted on failure only.

    An integer that str may refuse, one of more digits than Python's limit
    (errors._str_digit_limit), is named through errors._int_text.  Any
    such integer has more than 3 bits per digit of that limit, since a
    decimal digit holds log2(10) bits; every other one goes through str,
    whose text _int_text would give too.  The choice sits in the return
    expression, so an ordinary refusal runs no statement of _int_text and
    adds none to the statements a certificate runs (CERTIFICATE_STATEMENTS
    in tests/test_cover.py), which one statement keeps at 231.
    """
    return "closure of x^{1} L^{2} at n={0}, r={1}/{2}, s*={3}".format(
        *map(
            _int_text if max(abs(n), p, q).bit_length() > 3 * _str_digit_limit() else str,
            (n, p, q),
        ),
        s_star,
    )


def _closure(n: int, p: int, q: int, s: float, t: float, b: float) -> tuple:
    """(x, L, relator residual, gamma, omega) of x^p L^q at (s, t), for an n
    that has passed check_n.  L's gamma must match the holonomy value of
    the longitude entry b, (b^2 - 1)/(b^2 + 1), to LONGITUDE_GAMMA_TOL, and
    a composition that leaves the chart names the closure stage."""
    want = (b * b - 1.0) / (b * b + 1.0)
    xt, yt, xi, yi, wn, rel_res = _lift(n, s, t)
    lt = _longitude(n, xt, yt, xi, yi, wn)
    if not abs(lt.gamma - want) <= LONGITUDE_GAMMA_TOL:
        raise NumericsError(
            f"lifted longitude gamma = {lt.gamma} differs from holonomy "
            f"value {want} by {abs(lt.gamma - want):.3e} > {LONGITUDE_GAMMA_TOL}"
        )
    try:
        g, w = _compose(_pow(xt, p), _pow(lt, q))
    except NumericsError as exc:
        raise NumericsError(f"{_closure_stage(n, p, q, s)} failed: {exc}") from exc
    return xt, lt, rel_res, g, w


def certificate(n: int, p: int, q: int) -> SurgeryCertificate:
    """Full pipeline: invert the slope map at p/q, lift, and certify.

    Finds s* with g(s*) = p/q and verifies that _closure's x^p L^q at
    invert's own sample, whose s and t come from the one root at s*, lands
    on (0, 0) within DEFAULT_TOL_CERT.  The longitude's holonomy is the
    sample's B, the closed form of rep.longitude_holonomy: on the root the
    longitude is diag(B, 1/B) by the lemmas that checks.longitude_lemmas
    proves exactly, so no matrix is formed here.
    """
    smp, _ = invert(n, p, q)
    xt, lt, rel_res, g, w = _closure(n, p, q, smp.s, smp.t, smp.B)
    final_gamma_abs = abs(g)
    if not (final_gamma_abs <= DEFAULT_TOL_CERT and abs(w) <= DEFAULT_TOL_CERT):
        raise CertificateFailed(
            f"{_closure_stage(n, p, q, smp.s)} failed: lifted word is ({g}, {w}); "
            f"|gamma| = {final_gamma_abs:.3e}, |omega| = {abs(w):.3e} "
            f"exceed tol = {DEFAULT_TOL_CERT} "
            f"(relator residual {rel_res:.3e}, longitude omega {lt.omega:.3e})"
        )
    return _cert((
        n, p, q, smp.s, smp.t, smp.B, xt.gamma.real, lt.gamma.real, rel_res,
        lt.omega, final_gamma_abs, w, DEFAULT_TOL_G, DEFAULT_TOL_CERT,
    ))
