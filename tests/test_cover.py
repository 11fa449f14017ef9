"""Universal cover of SL2(R): chart arithmetic, lifts, certificates."""

import json
import math
import random

import pytest

from twistcover import (
    CertificateFailed,
    CoverElem,
    DomainError,
    LongitudeOmegaNonzero,
    NumericsError,
    RelatorNotCentral,
    SlopeOutOfRange,
    certificate,
    certificate_json,
    chart,
    cover_inv,
    cover_mul,
    cover_pow,
    cover_word,
    from_su11,
    lift_generators,
    lifted_longitude,
    solve,
    to_su11,
    unchart,
)
from twistcover.cover import IDENTITY_COVER, SU11Elem, su11_dist, su11_mul
from twistcover.rep import IDENTITY2, Mat2, gen_matrices, max_abs_diff
from twistcover.solver import RepSolution, t_from_T

TAU = 2.0 * math.pi


def rand_elem(rng: random.Random) -> CoverElem:
    r = rng.uniform(0.0, 0.9)
    th = rng.uniform(-math.pi, math.pi)
    return CoverElem(complex(r * math.cos(th), r * math.sin(th)), rng.uniform(-8.0, 8.0))


def test_cayley_conjugation_examples():
    u = to_su11(IDENTITY2)
    assert (u.alpha, u.beta) == (1.0 + 0j, 0j)
    assert chart(u) == IDENTITY_COVER

    # rotation about the fixed point of the disk model winds omega
    phi = 0.7
    R = Mat2(math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi))
    e = chart(to_su11(R))
    assert abs(e.gamma) == 0.0
    assert e.omega == pytest.approx(phi, rel=1e-15)

    # diagonal hyperbolic: X at t = 4
    X, _ = gen_matrices(1.0, 4.0)
    u = to_su11(X)
    assert (u.alpha, u.beta) == (1.25 + 0j, 0.75 + 0j)
    e = chart(u)
    assert e.gamma == 0.6 + 0j
    assert e.omega == 0.0


def test_su11_norm_preserved():
    rng = random.Random(23)
    for _ in range(100):
        s = 10.0 ** rng.uniform(-1, 1)
        t = 1.0 + 10.0 ** rng.uniform(-1, 1)
        X, Y = gen_matrices(s, t)
        for M in (X, Y, X @ Y, Y @ X):
            u = to_su11(M)
            assert abs(u.defect()) < 1e-10
            assert max_abs_diff(from_su11(u), M) < 1e-9 * (1.0 + M.maxabs())


def test_su11_mul_matches_matrix_product():
    X, Y = gen_matrices(1.0, 4.0)
    lhs = su11_mul(to_su11(X), to_su11(Y))
    rhs = to_su11(X @ Y)
    assert su11_dist(lhs, rhs) < 1e-14


def test_to_su11_requires_unit_determinant():
    with pytest.raises(DomainError):
        to_su11(Mat2(2.0, 0.0, 0.0, 2.0))


def test_cover_elem_stays_in_disk():
    with pytest.raises(DomainError):
        CoverElem(1.0 + 0j, 0.0)
    with pytest.raises(DomainError):
        CoverElem(0.8 + 0.7j, 0.0)


def test_chart_unchart_roundtrip():
    rng = random.Random(29)
    for _ in range(200):
        e = rand_elem(rng)
        u = unchart(e)
        assert abs(u.defect()) < 1e-12
        back = chart(u)
        assert abs(back.gamma - e.gamma) < 1e-12
        # omega comes back reduced to the principal branch
        assert math.remainder(back.omega - e.omega, TAU) == pytest.approx(0.0, abs=1e-12)


def test_unchart_full_turn_projects_to_identity():
    u = unchart(CoverElem(0j, TAU))
    assert max_abs_diff(from_su11(u), IDENTITY2) < 1e-15


def test_cover_mul_exact_cases():
    a = CoverElem(0.5 + 0j, 0.0)
    assert cover_mul(a, a) == CoverElem(0.8 + 0j, 0.0)

    r1 = CoverElem(0j, 1.25)
    r2 = CoverElem(0j, 2.5)
    assert cover_mul(r1, r2) == CoverElem(0j, 3.75)

    assert cover_mul(a, IDENTITY_COVER) == a
    assert cover_mul(IDENTITY_COVER, a) == a


def test_cover_inverse():
    rng = random.Random(31)
    for _ in range(200):
        a = rand_elem(rng)
        for prod in (cover_mul(a, cover_inv(a)), cover_mul(cover_inv(a), a)):
            assert abs(prod.gamma) < 1e-14
            assert abs(prod.omega) < 1e-14
        dbl = cover_inv(cover_inv(a))
        assert abs(dbl.gamma - a.gamma) < 1e-14
        assert dbl.omega == a.omega  # omega negation is involutive on the nose


def test_cover_projection_commutes_with_mul():
    rng = random.Random(37)
    for _ in range(200):
        a, b = rand_elem(rng), rand_elem(rng)
        lhs = unchart(cover_mul(a, b))
        rhs = su11_mul(unchart(a), unchart(b))
        # projection forgets the winding: compare up to sign
        d = min(su11_dist(lhs, rhs), su11_dist(lhs, SU11Elem(-rhs.alpha, -rhs.beta)))
        assert d < 1e-10


def test_cover_pow():
    a = CoverElem(0.3 - 0.2j, 0.4)
    assert cover_pow(a, 0) == IDENTITY_COVER
    assert cover_pow(a, 1) == a
    assert cover_pow(a, 2) == cover_mul(a, a)
    assert cover_pow(a, -2) == cover_mul(cover_inv(a), cover_inv(a))

    sixth = CoverElem(0j, math.pi / 3.0)
    full = cover_pow(sixth, 6)
    assert abs(full.gamma) == 0.0
    assert full.omega == pytest.approx(TAU, rel=1e-15)


def test_cover_word_folds_left_to_right():
    rng = random.Random(41)
    xt, yt = rand_elem(rng), rand_elem(rng)
    assert cover_word("", xt, yt) == IDENTITY_COVER
    assert cover_word("xX", xt, yt) == IDENTITY_COVER
    manual = cover_mul(cover_mul(xt, yt), cover_inv(xt))
    assert cover_word("xyX", xt, yt) == manual
    with pytest.raises(DomainError):
        cover_word("xq", xt, yt)


def test_lift_generators_at_solution():
    sol = solve(1, 1.0)
    xt, yt, residual = lift_generators(1, sol)
    assert xt.omega == 0.0  # diagonal positive generator lifts to the zero fiber
    assert xt.gamma == pytest.approx((sol.t - 1.0) / (sol.t + 1.0), rel=1e-14)
    assert residual < 1e-8
    rel = cover_word("xYXy" + "x" + "YxyX" + "Y", xt, yt)
    assert abs(rel.gamma) < 1e-9
    assert abs(rel.omega) < 1e-9


def test_lift_rejects_off_variety_input():
    T = 5.8
    fake = RepSolution(
        n=2,
        s=1.0,
        T=T,
        t=t_from_T(T),
        trace_W=1.0 - (T - 2.0) + 2.0,
        theta=math.acos((1.0 - (T - 2.0) + 2.0) / 2.0),
        phi_residual=float("nan"),
        iterations=0,
    )
    with pytest.raises(RelatorNotCentral):
        lift_generators(2, fake)


def test_lifted_longitude_frozen_value():
    sol = solve(1, 1.0)
    xt, yt, _ = lift_generators(1, sol)
    lt = lifted_longitude(1, xt, yt)
    assert lt.gamma.real == pytest.approx(-0.9070362073481097, abs=1e-12)
    assert abs(lt.gamma.imag) < 1e-12
    assert abs(lt.omega) < 1e-12
    # gamma_L determined by the boundary holonomy: (B^2 - 1)/(B^2 + 1)
    from twistcover import longitude_holonomy

    b = longitude_holonomy(1.0, sol.t)
    want = (b * b - 1.0) / (b * b + 1.0)
    lifted_longitude(1, xt, yt, expected_gamma=want)  # must not raise


@pytest.mark.parametrize("expected_gamma", [0.99, math.nan])
def test_lifted_longitude_rejects_wrong_gamma(expected_gamma):
    # the lifted gamma at n = 2, s = 1 is far from 0.99, and NaN matches nothing
    xt, yt, _ = lift_generators(2, solve(2, 1.0))
    with pytest.raises(NumericsError, match="differs from holonomy"):
        lifted_longitude(2, xt, yt, expected_gamma=expected_gamma)


def test_lifted_longitude_flags_winding():
    # off the variety the boundary word picks up rotation; the zero-fiber
    # requirement has to fail loudly
    X, Y = gen_matrices(1.0, 4.0)
    xt, yt = chart(to_su11(X)), chart(to_su11(Y))
    with pytest.raises(LongitudeOmegaNonzero):
        lifted_longitude(1, xt, yt)


def test_deck_shift_invariance():
    # the boundary word has zero exponent sum in each generator, so shifting
    # either lift by a full turn cannot move the lifted longitude
    sol = solve(2, 1.0)
    xt, yt, _ = lift_generators(2, sol)
    base = lifted_longitude(2, xt, yt)
    for jx, jy in ((1, 0), (0, 1), (-2, 3)):
        xs = CoverElem(xt.gamma, xt.omega + TAU * jx)
        ys = CoverElem(yt.gamma, yt.omega + TAU * jy)
        shifted = lifted_longitude(2, xs, ys)
        assert abs(shifted.gamma - base.gamma) < 1e-10
        assert shifted.omega == pytest.approx(base.omega, abs=1e-10)


def test_certificate_round_slope():
    cert = certificate(2, 1, 1)
    assert cert.n == 2 and cert.p == 1 and cert.q == 1
    assert cert.s_star == pytest.approx(0.7709120507242778, abs=1e-6)
    assert cert.final_gamma_abs < 1e-6
    assert abs(cert.final_omega) < 1e-6
    assert cert.relator_residual < 1e-5
    assert cert.longitude_omega < 1e-6
    # slope 1 forces B = t^(-1/2), hence gamma_L = -gamma_x
    assert cert.gamma_L == pytest.approx(-cert.gamma_x, abs=1e-8)
    assert cert.gamma_x == pytest.approx((cert.t - 1.0) / (cert.t + 1.0), rel=1e-12)


def test_certificate_json_stable():
    cert = certificate(-2, 1, 2)
    blob = certificate_json(cert)
    assert blob == certificate_json(cert)
    data = json.loads(blob)
    assert list(data)[0] == "version"
    expected = {
        "version",
        "n",
        "p",
        "q",
        "s_star",
        "t",
        "B",
        "gamma_x",
        "gamma_L",
        "relator_residual",
        "longitude_omega",
        "final_gamma_abs",
        "final_omega",
        "tol_slope",
        "tol_certificate",
    }
    assert set(data) == expected
    assert data["n"] == -2 and data["p"] == 1 and data["q"] == 2
    assert blob.endswith("\n")


def test_certificate_failure_modes():
    with pytest.raises(SlopeOutOfRange):
        certificate(1, 4, 1)
    with pytest.raises(CertificateFailed):
        certificate(2, 1, 1, tol_cert=1e-16)
