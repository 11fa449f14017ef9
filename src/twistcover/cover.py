"""Universal cover of SL(2,R) in the (gamma, omega) chart.

SL(2,R) is conjugate to SU(1,1) = {[[a, b], [conj(b), conj(a)]] : |a|^2 - |b|^2 = 1}
via the map psi implemented by to_su11.  Writing a = |a| e^{i om} and
g = b/a puts SU(1,1) in coordinates (g, om mod 2pi) with |g| < 1; letting om
run over all of R instead gives the universal cover.  Elements are composed
by cover_mul, which tracks om along the continuous branch: the correction
atan2 term is safe because its argument 1 + g1 conj(g2) e^{-2i om2} always
has positive real part.

The point of the chart: the kernel of the covering map is {(0, 2 m pi)}, so
proving that a lifted word equals (0, 0) on the nose, and not just up to a
deck transformation, is a statement about a real number omega, not about a
matrix.  certificate() produces that statement for the peripheral word
x^p L^q at the slope-p/q parameter.
"""

from __future__ import annotations

import json
from cmath import phase
from dataclasses import asdict, dataclass
from math import cos, sin, sqrt, tau

from . import kernels
from ._version import __version__
from .errors import (
    CertificateFailed,
    DomainError,
    LongitudeOmegaNonzero,
    NumericsError,
    RelatorNotCentral,
)
from .rep import Mat2, gen_matrices, longitude, longitude_word, relator_word
from .slopes import DEFAULT_TOL_G, invert
from .solver import DEFAULT_TOL_T, RepSolution, check_positive, solve

DEFAULT_TOL_CERT = 1e-6
# Relator and longitude words keep intermediate |gamma| within ~1/norm^2 of
# the unit circle, and the final collapse divides by that margin, so lift
# residuals scale like norm^2 * eps.  On the standard grid the worst case
# (|n| = 6, s = 100) reaches 1.3e-6; the lift tolerance sits above that
# envelope while still catching non-solutions, whose residuals are O(1).
DEFAULT_LIFT_TOL = 1e-5
LONGITUDE_GAMMA_TOL = 1e-8


@dataclass(frozen=True)
class CoverElem:
    """Point of the universal cover: gamma in the open unit disk, omega real."""

    gamma: complex
    omega: float

    def __post_init__(self) -> None:
        if not abs(self.gamma) < 1.0:
            raise DomainError(f"|gamma| = {abs(self.gamma)} is not < 1")


@dataclass(frozen=True)
class SU11Elem:
    """Matrix [[alpha, beta], [conj(beta), conj(alpha)]] with |alpha|^2 - |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def defect(self) -> float:
        """Deviation of |alpha|^2 - |beta|^2 from 1."""
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0


IDENTITY_COVER = CoverElem(0j, 0.0)


def to_su11(m: Mat2) -> SU11Elem:
    """Conjugate a real matrix of determinant 1 into SU(1,1)."""
    det = m.det()
    scale = 1.0 + abs(m.m11 * m.m22) + abs(m.m12 * m.m21)
    if not abs(det - 1.0) <= 1e-9 * scale:
        raise DomainError(f"matrix determinant {det} is not 1")
    alpha = complex(0.5 * (m.m11 + m.m22), 0.5 * (m.m12 - m.m21))
    beta = complex(0.5 * (m.m11 - m.m22), -0.5 * (m.m12 + m.m21))
    return SU11Elem(alpha, beta)


def from_su11(u: SU11Elem) -> Mat2:
    return Mat2(
        m11=u.alpha.real + u.beta.real,
        m12=u.alpha.imag - u.beta.imag,
        m21=-u.alpha.imag - u.beta.imag,
        m22=u.alpha.real - u.beta.real,
    )


def su11_mul(u: SU11Elem, v: SU11Elem) -> SU11Elem:
    """Matrix product downstairs; cover_mul must project onto this."""
    return SU11Elem(
        u.alpha * v.alpha + u.beta * v.beta.conjugate(),
        u.alpha * v.beta + u.beta * v.alpha.conjugate(),
    )


def su11_dist(u: SU11Elem, v: SU11Elem) -> float:
    return max(abs(u.alpha - v.alpha), abs(u.beta - v.beta))


def chart(u: SU11Elem) -> CoverElem:
    """Principal chart value: omega = arg(alpha) in (-pi, pi]."""
    return CoverElem(u.beta / u.alpha, phase(u.alpha))


def unchart(e: CoverElem) -> SU11Elem:
    g = e.gamma
    norm = sqrt(1.0 - (g.real * g.real + g.imag * g.imag))
    alpha = complex(cos(e.omega), sin(e.omega)) / norm
    return SU11Elem(alpha, g * alpha)


def cover_mul(a: CoverElem, b: CoverElem) -> CoverElem:
    """Product in the cover; projects to the SU(1,1) product of a then b."""
    try:
        g, w = kernels.cover_compose(a.gamma, a.omega, b.gamma, b.omega)
    except ValueError as exc:
        raise NumericsError(f"cover composition left the chart: {exc}") from exc
    return CoverElem(g, w)


def cover_inv(a: CoverElem) -> CoverElem:
    ph = complex(cos(2.0 * a.omega), sin(2.0 * a.omega))
    return CoverElem(-a.gamma * ph, -a.omega)


def cover_pow(a: CoverElem, k: int) -> CoverElem:
    if k < 0:
        a = cover_inv(a)
        k = -k
    acc = IDENTITY_COVER
    for _ in range(k):
        acc = cover_mul(acc, a)
    return acc


def cover_word(word: str, xt: CoverElem, yt: CoverElem) -> CoverElem:
    """Evaluate a word in x, y (X, Y for inverses) left to right."""
    table = {"x": xt, "y": yt, "X": cover_inv(xt), "Y": cover_inv(yt)}
    acc = IDENTITY_COVER
    for ch in word:
        try:
            acc = cover_mul(acc, table[ch])
        except KeyError:
            raise DomainError(f"unknown letter {ch!r} in word") from None
    return acc


def lift_generators(n: int, sol: RepSolution) -> tuple[CoverElem, CoverElem, float]:
    """Lift the generator images to the cover so the relator maps to (0, 0).

    x lifts with omega exactly 0: alpha of its SU(1,1) image is
    (t+1)/(2 sqrt(t)), real and positive.  y takes its principal chart value
    and then the unique central correction (0, 2 k pi); because y appears in
    the relator with exponent sum -1, k is read off by rounding the
    uncorrected relator's omega to the nearest multiple of 2 pi.  The
    returned residual is the corrected relator's distance from (0, 0),
    re-evaluated rather than inferred.
    """
    gen_x, gen_y = gen_matrices(sol.s, sol.t)
    xt = chart(to_su11(gen_x))
    yt0 = chart(to_su11(gen_y))
    word = relator_word(n)
    rel = cover_word(word, xt, yt0)
    k = round(rel.omega / tau)
    yt = yt0
    if k != 0:
        yt = CoverElem(yt0.gamma, yt0.omega + tau * k)
        rel = cover_word(word, xt, yt)
    residual = max(abs(rel.gamma), abs(rel.omega))
    if not residual <= DEFAULT_LIFT_TOL:
        raise RelatorNotCentral(
            f"lifted relator at n={n}, s={sol.s} is ({rel.gamma}, {rel.omega}), "
            f"residual {residual:.3e} > {DEFAULT_LIFT_TOL}; the parameters do "
            f"not satisfy the group relation"
        )
    return xt, yt, residual


def lifted_longitude(
    n: int, xt: CoverElem, yt: CoverElem, expected_gamma: float | None = None
) -> CoverElem:
    """Lift of the longitude; |omega| must stay within DEFAULT_TOL_CERT.

    Optionally cross-checks gamma against the closed form (B^2-1)/(B^2+1)
    computed from the holonomy, to LONGITUDE_GAMMA_TOL.
    """
    lt = cover_word(longitude_word(n), xt, yt)
    if not abs(lt.omega) <= DEFAULT_TOL_CERT:
        raise LongitudeOmegaNonzero(
            f"lifted longitude has omega = {lt.omega}, "
            f"|omega| > {DEFAULT_TOL_CERT} at n={n}"
        )
    if expected_gamma is not None:
        err = abs(lt.gamma - expected_gamma)
        if not err <= LONGITUDE_GAMMA_TOL:
            raise NumericsError(
                f"lifted longitude gamma = {lt.gamma} differs from holonomy "
                f"value {expected_gamma} by {err:.3e} > {LONGITUDE_GAMMA_TOL}"
            )
    return lt


@dataclass(frozen=True)
class SurgeryCertificate:
    """Record that the lifted peripheral word x^p L^q equals (0, 0).

    gamma_x and gamma_L are the chart coordinates of the lifted meridian and
    longitude; final_gamma_abs and final_omega measure the distance of the
    lifted x^p L^q from the identity of the cover.
    """

    n: int
    p: int
    q: int
    s_star: float
    t: float
    B: float
    gamma_x: float
    gamma_L: float
    relator_residual: float
    longitude_omega: float
    final_gamma_abs: float
    final_omega: float
    tol_slope: float
    tol_certificate: float


def certificate(
    n: int,
    p: int,
    q: int,
    tol_g: float = DEFAULT_TOL_G,
    tol_cert: float = DEFAULT_TOL_CERT,
    tol_T: float = DEFAULT_TOL_T,
) -> SurgeryCertificate:
    """Full pipeline: invert the slope map at p/q, lift, and certify.

    Finds s* with g(s*) = p/q, lifts the representation there, and verifies
    that the lifted x^p L^q lands on (0, 0) within tol_cert.
    """
    check_positive("tol_cert", tol_cert)
    smp, _ = invert(n, p, q, tol=tol_g, tol_T=tol_T)
    sol = solve(n, smp.s, tol=tol_T)
    _, hol = longitude(n, sol)
    xt, yt, rel_res = lift_generators(n, sol)
    b = hol.B
    gamma_l_expected = (b * b - 1.0) / (b * b + 1.0)
    lt = lifted_longitude(n, xt, yt, expected_gamma=gamma_l_expected)
    final = cover_mul(cover_pow(xt, p), cover_pow(lt, q))
    final_gamma_abs = abs(final.gamma)
    final_omega = final.omega
    if not (final_gamma_abs <= tol_cert and abs(final_omega) <= tol_cert):
        raise CertificateFailed(
            f"lifted x^{p} L^{q} at n={n}, s*={sol.s} is "
            f"({final.gamma}, {final.omega}); |gamma| = {final_gamma_abs:.3e}, "
            f"|omega| = {abs(final_omega):.3e} exceed tol = {tol_cert} "
            f"(relator residual {rel_res:.3e}, longitude omega {lt.omega:.3e})"
        )
    return SurgeryCertificate(
        n=n,
        p=p,
        q=q,
        s_star=sol.s,
        t=sol.t,
        B=b,
        gamma_x=xt.gamma.real,
        gamma_L=lt.gamma.real,
        relator_residual=rel_res,
        longitude_omega=lt.omega,
        final_gamma_abs=final_gamma_abs,
        final_omega=final_omega,
        tol_slope=tol_g,
        tol_certificate=tol_cert,
    )


def certificate_json(cert: SurgeryCertificate) -> str:
    """Serialize with a fixed field order, version first."""
    payload = {"version": __version__}
    payload.update(asdict(cert))
    return json.dumps(payload, indent=2) + "\n"
