"""Universal cover of SL2(R): chart arithmetic, lifts, certificates."""

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
from twistcover import cover
from twistcover.checks import GRID_N, GRID_S
from twistcover.cover import (
    DEFAULT_LIFT_TOL,
    DEFAULT_TOL_CERT,
    IDENTITY_COVER,
    LONGITUDE_GAMMA_TOL,
    SU11Elem,
    SurgeryCertificate,
    su11_dist,
    su11_mul,
)
from twistcover.rep import (
    IDENTITY2,
    Mat2,
    gen_matrices,
    longitude,
    longitude_word,
    max_abs_diff,
    relator_word,
)
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
    for gamma in (1.0 + 0j, -1.0 + 0j, 1j, -1j, 0.8 + 0.7j):
        with pytest.raises(DomainError, match="is not < 1"):
            CoverElem(gamma, 0.0)
    # the open disk's edge and any finite omega pass
    below = math.nextafter(1.0, 0.0)
    for gamma in (complex(below, 0.0), complex(0.0, -below)):
        for omega in (-1e300, 1e300):
            assert CoverElem(gamma, omega) == (gamma, omega)


def test_cover_mul_saturation_is_numerics():
    # both factors lie in the disk; their product rounds onto its boundary
    a = CoverElem(complex(1.0 - 2.0**-52, 0.0), 0.0)
    with pytest.raises(NumericsError, match="left the chart"):
        cover_mul(a, a)


@pytest.mark.parametrize(
    "gamma, omega",
    [
        (0j, math.nan),
        (0j, math.inf),
        (complex(math.nan, 0.0), 0.0),
        (complex(0.0, math.nan), 0.0),
        (complex(math.inf, 0.0), 0.0),
        (complex(-math.inf, math.nan), 0.0),
        (0j, -math.inf),
        (0.5 + 0j, math.nan),
    ],
)
def test_cover_elem_rejects_nonfinite_as_numerics(gamma, omega):
    # a non-finite pair never takes _check's in-disk fast path, and the
    # finiteness test classes it before the disk test can
    with pytest.raises(NumericsError, match="not finite"):
        CoverElem(gamma, omega)


def test_public_functions_return_the_records():
    X, Y = gen_matrices(1.0, 4.0)
    u, v = to_su11(X), to_su11(Y)
    assert {type(r) for r in (u, su11_mul(u, v), unchart(chart(v)))} == {SU11Elem}
    assert type(from_su11(u)) is Mat2
    assert u.defect() == abs(u.alpha) ** 2 - abs(u.beta) ** 2 - 1.0
    assert type(certificate(2, 1, 1)) is SurgeryCertificate


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


def left_fold_pow(a: CoverElem, k: int) -> CoverElem:
    """a^k one composition at a time: the oracle for cover_pow."""
    step = a if k >= 0 else cover_inv(a)
    acc = IDENTITY_COVER
    for _ in range(abs(k)):
        acc = cover_mul(acc, step)
    return acc


def test_cover_pow_matches_left_fold():
    # conjugates of rotations (elliptic, omega winds with k) and of short
    # real-axis elements (hyperbolic, translation length below 0.3, so
    # |gamma| of the 64th power stays off the unit circle)
    rng = random.Random(43)
    for i in range(120):
        g = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c = CoverElem(g, rng.uniform(-4.0, 4.0))
        if i % 2:
            core = CoverElem(0j, rng.uniform(-math.pi, math.pi))
        else:
            core = CoverElem(complex(math.tanh(rng.uniform(-0.15, 0.15)), 0.0), 0.0)
        a = cover_mul(cover_mul(c, core), cover_inv(c))
        k = rng.randint(-64, 64)
        got, want = cover_pow(a, k), left_fold_pow(a, k)
        assert abs(got.gamma - want.gamma) <= 1e-10, (i, k)
        assert abs(got.omega - want.omega) <= 1e-10, (i, k)


@pytest.mark.parametrize("gamma", [-0.07, 0.03, 0.1])
def test_cover_pow_stays_on_the_real_axis(gamma):
    a = CoverElem(complex(gamma, 0.0), 0.0)
    assert cover_pow(a, 0) == IDENTITY_COVER
    assert cover_pow(a, 1) == a
    for k in range(-64, 65):
        e = cover_pow(a, k)
        assert e.omega == 0.0 and e.gamma.imag == 0.0, k
        assert e.gamma.real == pytest.approx(math.tanh(k * math.atanh(gamma)), abs=1e-12)


def test_cover_word_folds_left_to_right():
    rng = random.Random(41)
    xt, yt = rand_elem(rng), rand_elem(rng)
    assert cover_word("", xt, yt) == IDENTITY_COVER
    assert cover_word("xX", xt, yt) == IDENTITY_COVER
    manual = cover_mul(cover_mul(xt, yt), cover_inv(xt))
    assert cover_word("xyX", xt, yt) == manual
    with pytest.raises(DomainError):
        cover_word("xq", xt, yt)


def boxed_pow(a: CoverElem, k: int) -> CoverElem:
    """cover_pow's squaring loop with every step a CoverElem: the bit-for-bit
    oracle for the pair path."""
    if k < 0:
        a = cover_inv(a)
        k = -k
    acc = None
    while True:
        if k & 1:
            acc = a if acc is None else cover_mul(acc, a)
        k >>= 1
        if not k:
            return IDENTITY_COVER if acc is None else acc
        a = cover_mul(a, a)


def boxed_word(word: str, xt: CoverElem, yt: CoverElem) -> CoverElem:
    """A word folded from the identity with every step a CoverElem: the
    bit-for-bit oracle for cover_word, which starts from the first letter."""
    table = {"x": xt, "y": yt, "X": cover_inv(xt), "Y": cover_inv(yt)}
    acc = IDENTITY_COVER
    for ch in word:
        acc = cover_mul(acc, table[ch])
    return acc


def test_pair_paths_match_boxed_loops():
    # the conjugates of test_cover_pow_matches_left_fold, whose powers stay
    # off the unit circle, and words of up to 8 letters in random elements
    rng = random.Random(47)
    for i in range(200):
        c = rand_elem(rng)
        if i % 2:
            core = CoverElem(0j, rng.uniform(-math.pi, math.pi))
        else:
            core = CoverElem(complex(math.tanh(rng.uniform(-0.15, 0.15)), 0.0), 0.0)
        a = cover_mul(cover_mul(c, core), cover_inv(c))
        k = rng.randint(-64, 64)
        assert cover_pow(a, k) == boxed_pow(a, k), (i, k)
        xt, yt = rand_elem(rng), rand_elem(rng)
        word = "".join(rng.choice("xyXY") for _ in range(rng.randint(0, 8)))
        assert cover_word(word, xt, yt) == boxed_word(word, xt, yt), (i, word)


@pytest.mark.parametrize("n", GRID_N)
def test_pair_paths_match_boxed_loops_on_grid_lifts(n):
    for s in GRID_S:
        xt, yt, residual = lift_generators(n, solve(n, s))
        w = boxed_word("xYXy", xt, yt)
        w_rev = boxed_word("yXYx", xt, yt)
        assert cover_word("xYXy", xt, yt) == w
        assert cover_word("yXYx", xt, yt) == w_rev
        wn = boxed_pow(w, n)
        assert cover_pow(w, n) == wn
        rel = cover_mul(cover_mul(cover_mul(wn, xt), cover_inv(wn)), cover_inv(yt))
        assert residual == max(abs(rel.gamma), abs(rel.omega)), s
        assert lifted_longitude(n, xt, yt) == cover_mul(boxed_pow(w_rev, n), wn), s


def test_saturation_inside_a_power_or_word_is_caught():
    # a^2 rounds onto the unit circle: every step is checked, not only the
    # record a caller receives
    a = CoverElem(complex(1.0 - 2.0**-52, 0.0), 0.0)
    with pytest.raises(NumericsError, match="left the chart"):
        cover_pow(a, 4)
    with pytest.raises(NumericsError, match="left the chart"):
        cover_word("xx", a, IDENTITY_COVER)


def test_cover_elem_is_the_pair():
    e = CoverElem(0.5 + 0j, 1.0)
    assert e == (0.5 + 0j, 1.0) and hash(e) == hash((0.5 + 0j, 1.0))
    g, w = e
    assert (g, w) == (e.gamma, e.omega) == (0.5 + 0j, 1.0)
    assert repr(e) == "CoverElem(gamma=(0.5+0j), omega=1.0)"
    xt, yt, _ = lift_generators(2, solve(2, 1.0))
    results = [
        chart(to_su11(IDENTITY2)),
        xt,
        yt,
        lifted_longitude(2, xt, yt),
        cover_mul(e, xt),
        cover_inv(e),
        cover_pow(e, 0),
        cover_pow(e, 1),
        cover_pow(e, -3),
        cover_word("", xt, yt),
        cover_word("x", xt, yt),
        cover_word("xYXy", xt, yt),
    ]
    for i, r in enumerate(results):
        assert type(r) is CoverElem, i


def test_each_element_is_checked_once(cover_checks):
    rng = random.Random(53)
    a, b = rand_elem(rng), rand_elem(rng)
    cover_checks[0] = 0
    cover_mul(a, b)
    assert cover_checks[0] == 1
    cover_checks[0] = 0
    cover_inv(a)
    assert cover_checks[0] == 1
    # a power checks each of its compositions, and its result no more
    cover_checks[0] = 0
    cover_pow(a, 5)  # a^2, a^4, a * a^4
    assert cover_checks[0] == 3


@pytest.mark.parametrize("n, p, q", [(2, 3, 2), (-20, 41, 12)])
def test_certificate_builds_few_records(n, p, q, cover_elems_built):
    # the lifts of x and y, the longitude, x^p, L^q and their product: the
    # group law's intermediate steps are pairs, not records
    certificate(n, p, q)
    assert 0 < cover_elems_built[0] <= 6


def test_lift_generators_at_solution():
    sol = solve(1, 1.0)
    xt, yt, residual = lift_generators(1, sol)
    assert xt.omega == 0.0  # diagonal positive generator lifts to the zero fiber
    assert xt.gamma == pytest.approx((sol.t - 1.0) / (sol.t + 1.0), rel=1e-14)
    assert residual < 1e-8
    rel = cover_word("xYXy" + "x" + "YxyX" + "Y", xt, yt)
    assert abs(rel.gamma) < 1e-9
    assert abs(rel.omega) < 1e-9


POWERED_LIFT_POINTS = [(n, s) for n in GRID_N for s in GRID_S] + [
    (n, s) for n in (-100, -20, 20, 100) for s in (0.05, 0.5, 2.0)
]


@pytest.mark.parametrize("n, s", POWERED_LIFT_POINTS)
def test_powered_lift_matches_letter_walk(n, s):
    sol = solve(n, s)
    xt, yt, residual = lift_generators(n, sol)
    lt = lifted_longitude(n, xt, yt)
    rel_walk = cover_word(relator_word(n), xt, yt)
    lt_walk = cover_word(longitude_word(n), xt, yt)
    assert residual <= DEFAULT_LIFT_TOL
    assert max(abs(rel_walk.gamma), abs(rel_walk.omega)) <= DEFAULT_LIFT_TOL
    assert abs(lt.omega) <= DEFAULT_TOL_CERT
    assert abs(lt_walk.omega) <= DEFAULT_TOL_CERT
    # the bound of the longitude_lift_level suite
    assert abs(lt.gamma - lt_walk.gamma) <= 1e-7


@pytest.mark.parametrize("n", [2, -6, 20, -1000, 10**4])
def test_lift_compositions_grow_with_log_n(n, cover_compose_calls):
    # the letter walk takes 16|n| + 2; squaring takes at most 2 log2|n|
    # per power, lifted_longitude reuses lift_generators' w^n, and each of
    # the two four-letter words starts from its first letter
    sol = solve(n, 0.05)
    cover._lifted_w_power.cache_clear()
    cover_compose_calls[0] = 0
    xt, yt, _ = lift_generators(n, sol)
    lifted_longitude(n, xt, yt)
    assert cover_compose_calls[0] <= 4 * math.ceil(math.log2(abs(n))) + 14
    # exactly: 3 per word, 3 for the relator, 1 for the longitude, and per
    # power one squaring per bit below the top and one product per further
    # set bit
    m = abs(n)
    assert cover_compose_calls[0] == 10 + 2 * (m.bit_length() + bin(m).count("1") - 2)


@pytest.mark.parametrize("n", [-100, 100])
@pytest.mark.parametrize("p, q", [(1, 1), (3, 2), (5, 2)])
def test_certificate_at_large_n(n, p, q):
    cert = certificate(n, p, q)
    assert cert.final_gamma_abs <= DEFAULT_TOL_CERT
    assert abs(cert.final_omega) <= DEFAULT_TOL_CERT


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


@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_lifts_reject_a_bad_twist_parameter(n):
    # a bad n is a DomainError, checked before any composition: n = 0 gave
    # the identity as a longitude, 0 and True a RelatorNotCentral (the exit
    # class of a numerical breakdown) and 2.0 a bare TypeError
    sol = solve(2, 1.0)
    xt, yt, _ = lift_generators(2, sol)
    with pytest.raises(DomainError, match="n must"):
        lift_generators(n, sol)
    with pytest.raises(DomainError, match="n must"):
        lifted_longitude(n, xt, yt)


@pytest.mark.parametrize("k", [True, False, 2.0, "2"])
def test_cover_pow_rejects_a_non_integer_exponent(k):
    # True read as 1 and False as 0; a float or a string raised a bare TypeError
    with pytest.raises(DomainError, match="k must be an integer"):
        cover_pow(CoverElem(0.3 - 0.2j, 0.4), k)


def test_lift_takes_y_at_its_principal_value():
    # y's principal chart value is already the level on which the relator
    # closes (lift_generators raises otherwise), over both signs of n and
    # small to moderate s; Re(alpha) > 1 puts its omega inside (-pi/2, pi/2)
    for n in (-20, -6, -2, 2, 3, 20):
        for s in (1e-3, 0.5, 10.0):
            sol = solve(n, s)
            _, yt, _ = lift_generators(n, sol)
            assert yt == chart(to_su11(gen_matrices(sol.s, sol.t)[1])), (n, s)
            assert abs(yt.omega) < math.pi / 2, (n, s)


def test_lift_on_a_wrong_level_is_refused(monkeypatch):
    # shift y's lift by a full turn: the relator, with exponent sum -1 in y,
    # then misses (0, 0) by 2 pi, and the residual gate has to say so
    principal = cover.chart
    shifted = []

    def chart_y_shifted(u):
        e = principal(u)
        shifted.append(e)
        return e if len(shifted) == 1 else CoverElem(e.gamma, e.omega + TAU)

    monkeypatch.setattr(cover, "chart", chart_y_shifted)
    with pytest.raises(RelatorNotCentral, match="residual 6.28"):
        lift_generators(2, solve(2, 1.0))


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
    assert longitude(1, sol)[1].lifted_gamma == want
    assert abs(lt.gamma - want) <= LONGITUDE_GAMMA_TOL


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


@pytest.mark.parametrize("gamma", [0.99, math.nan])
def test_certificate_rejects_longitude_gamma_off_holonomy(monkeypatch, gamma):
    # a holonomy B shifted to lifted gamma 0.99, far from the lifted
    # longitude's at n = 2, r = 1, or to NaN, which matches nothing
    real = cover.longitude

    def shifted(n, sol):
        ell, hol = real(n, sol)
        return ell, hol._replace(B=math.sqrt((1.0 + gamma) / (1.0 - gamma)))

    monkeypatch.setattr(cover, "longitude", shifted)
    with pytest.raises(NumericsError, match="differs from holonomy"):
        certificate(2, 1, 1)


def test_certificate_failure_modes():
    with pytest.raises(SlopeOutOfRange):
        certificate(1, 4, 1)
    with pytest.raises(CertificateFailed):
        # the lifted x^11 L^3 misses (0, 0) by |gamma| = 9.012e-04
        certificate(2, 11, 3)
