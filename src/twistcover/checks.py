"""Runtime invariant suites over the standard parameter grid.

Each check sweeps a documented family of cases and yields one (residual,
fmt, *parts) tuple per case, its location unformatted.  @_suite(bound)
above it is its one declaration: the wrapper names the result after the
function, keeps the worst residual and where it was first attained,
formatting that one location as fmt.format(*parts), and appends the check
to ALL_CHECKS in source order.  A check fails closed, called directly or
by run_all: a NaN counts as infinite, and a DomainError or NumericsError
raised in it is a FAIL with worst inf, bound nan and the refusal as its
where.  The CLI `verify` runs them all, and the acceptance tests run each
one as a gate.  GRID_N, GRID_S, GRID_SLOPES and grid_solutions are the one
standard grid that tests and benchmarks import; grid_lifts caches on it
the cover._lift frames that certificates run.  Most suites test float code
on that grid; longitude_lemmas instead proves, on exact polynomials, the
algebra that makes the longitude diag(B, 1/B) at every n, which
certificates take as given.  The exact layer is checked where the grid
reaches it, riley_poly's degree and phi_exact against the float phi; the
tau recursion is its definition and has no suite of its own.  The cover
group-law suites draw plain (gamma, omega) pairs and compose them with
cover._compose, the checked core every certificate uses; chart_roundtrip
goes through cover.chart, the function it tests, and deck_shift_invariance
shifts the generators under lifted_longitude, which forms the longitude
certificates form.  Checks are independent and reseed their own RNG, so
they run in any order or subset.  audit is the one recheck of a
certificate: it replays the certificate's closure, cover._closure, at a
fresh g_eval(s*), and its record gives the slope miss, the closure, the
projection residual against PROJECTION_TOL and the first bound missed;
certificate_soundness, the tests and the work counts all read it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, wraps
from cmath import rect
from math import ceil, cos, gcd, inf, isnan, log2, nan, pi, sqrt, tau, ulp

from . import cover, exactpoly, rep, slopes, solver
from .errors import DomainError, NumericsError

GRID_N = (-6, -5, -4, -3, -2, 1, 2, 3, 4, 5, 6)
GRID_S = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
# the 183 reduced p/q in (0, 4) with q <= 12, ascending (any two differ by at
# least 1/132, so their quotients in floats order them exactly)
GRID_SLOPES = tuple(sorted(
    ((p, q) for q in range(1, 13) for p in range(1, 4 * q) if gcd(p, q) == 1),
    key=lambda pq: pq[0] / pq[1],
))
SEED = 1729
# x^p L^q rebuilt from a certificate and pushed down to a matrix must be
# the identity to this entry distance: the acceptance bound, tighter than
# the chart closure of cover.DEFAULT_TOL_CERT
PROJECTION_TOL = 1e-8

# (residual, fmt, *parts): where is fmt.format(*parts)
Cases = Iterator[tuple]


class CheckResult(namedtuple("CheckResult", "name passed worst bound where")):
    __slots__ = ()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        loc = f"  [{self.where}]" if self.where else ""
        return f"{tag}  {self.name}: worst {self.worst:.3e} vs bound {self.bound:.1e}{loc}"


def _fold(name: str, bound: float, cases: Cases) -> CheckResult:
    """The largest residual of the cases and where it was first attained; a
    NaN counts as infinite, so it fails the check where it first appears.
    Only that case's location is formatted, once, not every case's."""
    worst, at = 0.0, None
    for case in cases:
        value = case[0]
        if isnan(value):
            value = inf
        if value > worst or at is None:
            worst = max(worst, value)
            at = case
    where = "" if at is None else at[1].format(*at[2:])
    return CheckResult(name, worst <= bound, worst, bound, where)


# every declared check, in source order; run_all reads it at call time
ALL_CHECKS: tuple = ()


def _suite(bound: float):
    """Declare a check against bound, evaluated here, once."""

    def declare(fn):
        name = fn.__name__.removeprefix("check_")

        @wraps(fn)
        def check() -> CheckResult:
            try:
                return _fold(name, bound, fn())
            except (DomainError, NumericsError) as exc:
                # never compared, so the bound reads nan
                return CheckResult(name, False, inf, nan, f"{type(exc).__name__}: {exc}")

        global ALL_CHECKS
        ALL_CHECKS += (check,)
        return check

    return declare


@lru_cache(maxsize=None)
def grid_solutions() -> tuple:
    return tuple((n, solver.solve(n, s)) for n in GRID_N for s in GRID_S)


@lru_cache(maxsize=None)
def grid_lifts() -> tuple:
    """cover._lift's frame at each grid solution, in grid_solutions() order."""
    return tuple(cover._lift(n, sol.s, sol.t) for n, sol in grid_solutions())


def _random_cover_elem(draw, omega_span: float = 10.0) -> tuple:
    """A (gamma, omega) pair, |gamma| < 0.95 and |omega| < omega_span, from a
    bound Random.random; each draw is Random.uniform(lo, hi) written out to
    the same bits, lo + (hi - lo) * random() as random.py defines it, and
    gamma = rect(r, theta) is complex(r cos(theta), r sin(theta)) bit for bit."""
    return rect(0.95 * draw(), tau * draw()), -omega_span + 2.0 * omega_span * draw()


@_suite(0.0)
def check_riley_T_degree() -> Cases:
    for n in GRID_N:
        deg = exactpoly.riley_poly(n).degree_T
        yield abs(deg - abs(n)), "n={}", n


@_suite(1e-8)
def check_phi_exact_vs_float() -> Cases:
    """Float evaluation against exact rational evaluation at random points."""
    rng = random.Random(SEED)
    ns = [n for n in range(-8, 9) if n not in (0, -1)]
    for i in range(100):
        n = rng.choice(ns)
        s = 10.0 ** rng.uniform(-3.0, 2.0)
        T = s + 2.0 + 4.0 * rng.random() / s
        vx = float(exactpoly.phi_exact(n, s, T))
        vf = solver.phi_num(n, s, T)
        yield abs(vf - vx) / (1.0 + abs(vx)), "case {}: n={}, s={:.6g}", i, n, s


@_suite(1e-12)
def check_plateau_tau_signs() -> Cases:
    """At trace 2cos(pi/(2m+1)) the values tau_m = tau_{m+1} > 0; at
    trace 2cos(3pi/(2m+1)) they are equal and negative (m >= 2)."""
    for m in range(1, 13):
        a = 2.0 * cos(pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va > 0.0 and vb > 0.0):
            yield inf, "m={} inner sign", m
        yield abs(va - vb) / max(1.0, abs(va)), "m={} inner", m
    for m in range(2, 13):
        a = 2.0 * cos(3.0 * pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va < 0.0 and vb < 0.0):
            yield inf, "m={} outer sign", m
        yield abs(va - vb) / max(1.0, abs(va)), "m={} outer", m


@_suite(1e-9)
def check_solve_grid_soundness() -> Cases:
    """Window containment, branch angle, trace range, t reconstruction, and
    the exact polynomial residual at every grid solution."""
    for n, sol in grid_solutions():
        s = sol.s
        if not (s + 2.0 < sol.T < s + 2.0 + 4.0 / s):
            yield inf, "n={}, s={} window", n, s
        lo, hi = solver.branch_interval(n)
        if not lo < sol.theta < hi:
            yield inf, "n={}, s={} theta", n, s
        if not (-2.0 < sol.trace_W < 2.0):
            yield inf, "n={}, s={} trace", n, s
        if not abs(sol.t + 1.0 / sol.t - sol.T) <= 1e-12 * (1.0 + abs(sol.T)):
            yield inf, "n={}, s={} t vs T", n, s
        res = abs(float(exactpoly.phi_exact(n, s, sol.T)))
        yield res, "n={}, s={}", n, s


@_suite(0.0)
def check_bisection_iteration_bound() -> Cases:
    """iterations <= ceil(log2(window/tol)) + 2, the theta window against
    kernels.itp's own tol = 4 ulp(hi): a measured gate, tighter than itp's
    guarantee of n0 steps beyond bisection.  solve runs ITP untruncated
    (solver.ROOT_K1 = 0) with n0 = solver.ROOT_N0 = 4, since its branch
    equation is smooth with closed-form end values; only invert, whose
    g - p/q is steep near both ends, keeps kernels.ITP_K1 and ITP_N0 = 3."""
    for n, sol in grid_solutions():
        if n == 1:
            continue
        lo, hi = solver.branch_interval(n)
        allowed = ceil(log2((hi - lo) / (4.0 * ulp(hi)))) + 2
        yield float(max(0, sol.iterations - allowed)), "n={}, s={}", n, sol.s


@_suite(1e-10)
def check_determinant_one() -> Cases:
    """det X = det Y = 1 in floats at every grid solution."""
    for n, sol in grid_solutions():
        for name, m in zip("XY", rep.gen_matrices(sol.s, sol.t)):
            scale = 1.0 + abs(m.m11 * m.m22) + abs(m.m12 * m.m21)
            yield abs(m.det() - 1.0) / scale, "n={}, s={}, matrix {}", n, sol.s, name


def _cleared_generators() -> tuple:
    """(s, m^2, v^2, Xn, Yn) as exactpoly.BivarPolys in s and m = sqrt(t),
    m in the T slot: the generator matrices with their denominators
    cleared, rep.gen_matrices(s, m^2) = (Xn/m, Yn/(m v^2)), v = m^2 - 1."""
    poly = exactpoly.BivarPoly
    s, m, one = poly({(1, 0): 1}), poly({(0, 1): 1}), poly.const(1)
    m2 = m * m
    v = m2 - one
    v2 = v * v
    xn = rep.Mat2(m2, poly(), poly(), one)
    yn = rep.Mat2(
        m2 * v * (m2 - s - one), m * (s * m2 - v2), -(s * m * v2), v * ((s + one) * m2 - one)
    )
    return s, m2, v2, xn, yn


@_suite(0.0)
def check_longitude_lemmas() -> Cases:
    """Riley's longitude for every n, proved as identities of integer
    polynomials in (m, s): each case is 0 when its two sides expand to the
    same polynomial.

    With v = m^2 - 1, X = Xn/m and Y = Yn/(m v^2) (_cleared_generators),
    W = Wn/(m^4 v^4) and rho(w_rev) = Vn/(m^4 v^4); sigma = s v^2/(v^2 -
    s m^2) = sn/sd, c = Cn/(m^4 v^4) with Cn = m^2 v^4 (m^2 - (s + 1)(v^2 -
    s m^2)), B = (m^2 - s - 1)/((1 + s) m^2 - 1) = Bn/Bd, P = Wn - Cn I,
    and R(M) = (m11, m21/sigma, m12 sigma, m22), which reverses products.
    The cases: det Y = 1; tr W is exactpoly's trace s^2 - (T - 2) s + 2;
    c = tr W - T + s + 1; (a) rho(w_rev) = R(W); (b) (W - cI) X =
    Y (W - cI); (c) R(W - cI)(W - cI) = det(W - cI) diag(B, 1/B).

    On phi_n = tau_{n+1} - (T - 1 - s) tau_n = 0 the trace recursion gives
    tau_{n-1} = c tau_n, so W^n = tau_n (W - cI) by Cayley-Hamilton, and
    (b) is the relation W^n X = Y W^n.  By (a), rho(w_rev^n) = R(W^n), so
    the longitude R(W^n) W^n is diag(B, 1/B) by (c), since tau_n^2 det(W -
    cI) = det W^n = 1.  Every division is by a value that is nonzero on the
    branch: m > 1, s > 0, sd = m^2 (T - s - 2) > 0, and Bn = t - s - 1 > 0
    where B > 0.  n enters only through the root.
    """
    s, m2, v2, xn, yn = _cleared_generators()
    one = exactpoly.BivarPoly.const(1)
    d4 = m2 * m2 * v2 * v2
    # Mat2.inverse is the adjugate
    wn = xn @ yn.inverse() @ xn.inverse() @ yn
    vn = yn @ xn.inverse() @ yn.inverse() @ xn
    sn, sd = s * v2, v2 - s * m2
    cn = m2 * v2 * v2 * (m2 - (s + one) * sd)
    bn, bd = m2 - s - one, (one + s) * m2 - one
    pn = rep.Mat2(wn.m11 - cn, wn.m12, wn.m21, wn.m22 - cn)
    p11, p12, p21, p22 = pn
    det = pn.det()
    cases = [
        ("det Y = 1", yn.det(), m2 * v2 * v2),
        ("tr W", m2 * wn.trace(), d4 * ((s * s + 2 * one) * m2 - s * v2)),
        ("c", m2 * cn, m2 * wn.trace() - d4 * (m2 * m2 + one) + d4 * m2 * (s + one)),
        ("(a) entry 11", vn.m11, wn.m11),
        ("(a) entry 12", sn * vn.m12, sd * wn.m21),
        ("(a) entry 21", sd * vn.m21, sn * wn.m12),
        ("(a) entry 22", vn.m22, wn.m22),
    ]
    for ij, lhs, rhs in zip(("11", "12", "21", "22"), pn @ xn, yn @ pn):
        cases.append((f"(b) entry {ij}", v2 * lhs, rhs))
    cases += [
        ("(c) off-diagonal", sn * p11 * p12, -(sd * p21 * p22)),
        ("(c) entry 11", bd * (sn * p11 * p11 + sd * p21 * p21), sn * bn * det),
        ("(c) entry 22", bn * (sn * p12 * p12 + sd * p22 * p22), sd * bd * det),
    ]
    for name, lhs, rhs in cases:
        yield 0.0 if not lhs - rhs else 1.0, "{}", name


@_suite(1.0)
def check_small_s_limits() -> Cases:
    """t -> (3+sqrt(5))/2 for n=1, B -> 1, g -> 0 as s -> 0."""
    t1 = solver.solve(1, 1e-6).t
    yield abs(t1 - (3.0 + sqrt(5.0)) / 2.0) / 1e-4, "n=1 t limit"
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e-6)
        yield abs(smp.B - 1.0) / 0.01, "n={} B limit", n
        yield smp.g / 0.005, "n={} g limit", n


@_suite(1.0)
def check_large_s_limits() -> Cases:
    """t - s -> 2, s/t -> 1, B t^2 -> 1, g -> 4 as s -> infinity."""
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e6)
        yield abs(smp.t - smp.s - 2.0) / 0.01, "n={} t-s", n
        yield abs(smp.s / smp.t - 1.0) / 0.01, "n={} s/t", n
        yield abs(smp.B * smp.t**2 - 1.0) / 0.01, "n={} B t^2", n
        yield (4.0 - smp.g) / 0.005, "n={} g limit", n


@_suite(slopes.DEFAULT_TOL_G)
def check_invert_recheck() -> Cases:
    """Inversion results re-verified by an independent slope evaluation."""
    for n, p, q in ((1, 1, 1), (2, 3, 2), (-2, 1, 2)):
        smp, _ = slopes.invert(n, p, q)
        again = slopes.g_eval(n, smp.s)
        yield abs(again.g - p / q), "n={}, r={}/{}", n, p, q


@_suite(1e-10)
def check_cover_projection_homomorphism() -> Cases:
    draw = random.Random(SEED).random
    for i in range(1000):
        a = _random_cover_elem(draw)
        b = _random_cover_elem(draw)
        lhs = cover.unchart(cover._compose(a, b))
        rhs = cover.su11_mul(cover.unchart(a), cover.unchart(b))
        yield cover.su11_dist(lhs, rhs), "case {}", i


@_suite(1e-10)
def check_cover_associativity() -> Cases:
    draw = random.Random(SEED + 1).random
    for i in range(1000):
        a, b, c = (_random_cover_elem(draw) for _ in range(3))
        g1, w1 = cover._compose(cover._compose(a, b), c)
        g2, w2 = cover._compose(a, cover._compose(b, c))
        yield max(abs(g1 - g2), abs(w1 - w2)), "case {}", i


@_suite(0.0)
def check_real_axis_closure() -> Cases:
    """Products of (gamma, 0) with real gamma stay on the real axis with
    omega exactly zero."""
    draw = random.Random(SEED + 2).random
    for i in range(1000):
        # Random.uniform(-0.99, 0.99) written out, as in _random_cover_elem
        a = (complex(-0.99 + 1.98 * draw(), 0.0), 0.0)
        b = (complex(-0.99 + 1.98 * draw(), 0.0), 0.0)
        g, w = cover._compose(a, b)
        ok = w == 0.0 and g.imag == 0.0 and abs(g.real) < 1.0
        yield 0.0 if ok else 1.0, "case {}", i


@_suite(1e-12)
def check_central_commutation() -> Cases:
    rng = random.Random(SEED + 3)
    for i in range(1000):
        a = _random_cover_elem(rng.random)
        c = (0j, tau * rng.randint(-3, 3))
        (g1, w1), (g2, w2) = cover._compose(c, a), cover._compose(a, c)
        if w1 != w2:
            yield inf, "case {} omega", i
        yield abs(g1 - g2), "case {}", i


@_suite(1e-12)
def check_chart_roundtrip() -> Cases:
    draw = random.Random(SEED + 4).random
    for i in range(1000):
        g, w = e = _random_cover_elem(draw, omega_span=pi - 1e-9)
        u = cover.unchart(e)
        yield abs(u.defect()), "case {} defect", i
        back = cover.chart(u)
        yield abs(back.gamma - g), "case {} gamma", i
        yield abs(back.omega - w), "case {} omega", i


@_suite(cover.DEFAULT_LIFT_TOL)
def check_lift_relator_residual() -> Cases:
    for (n, sol), frame in zip(grid_solutions(), grid_lifts()):
        yield frame[5], "n={}, s={}", n, sol.s


@_suite(cover.DEFAULT_TOL_CERT)
def check_longitude_lift_level() -> Cases:
    """Lifted longitude has |omega| within cover.DEFAULT_TOL_CERT and gamma
    within 1e-7 of the holonomy value (wider than cover.LONGITUDE_GAMMA_TOL:
    the grid reaches B ~ 1e-4, where gamma sits within ulps of the unit
    circle)."""
    for (n, sol), frame in zip(grid_solutions(), grid_lifts()):
        lt = cover._longitude(n, *frame[:5])
        b = rep.longitude_holonomy(sol.s, sol.t)
        if not abs(lt.gamma - (b * b - 1.0) / (b * b + 1.0)) <= 1e-7:
            yield inf, "n={}, s={} gamma", n, sol.s
        yield abs(lt.omega), "n={}, s={}", n, sol.s


@_suite(1e-10)
def check_deck_shift_invariance() -> Cases:
    """The longitude word has zero exponent sum in each generator, so
    shifting both lifted generators by deck transformations leaves it fixed:
    checked on lifted_longitude, the product by squaring that certificates
    take."""
    for n, sol in ((2, solver.solve(2, 1.0)), (-3, solver.solve(-3, 0.5))):
        xt, yt, _ = cover.lift_generators(n, sol)
        base = cover.lifted_longitude(n, xt, yt)
        for kx, ky in ((1, 1), (1, -1), (-2, 3)):
            xs = cover.CoverElem(xt.gamma, xt.omega + tau * kx)
            ys = cover.CoverElem(yt.gamma, yt.omega + tau * ky)
            shifted = cover.lifted_longitude(n, xs, ys)
            d = max(abs(shifted.gamma - base.gamma), abs(shifted.omega - base.omega))
            yield d, "n={}, shifts ({}, {})", n, kx, ky


class Audit(namedtuple("Audit", "slope gamma omega projection verdict")):
    """audit's record: slope is |g(s*) - p/q|; gamma (|gamma|) and omega are
    the chart closure of the rebuilt x^p L^q; projection is its entry
    distance to the identity downstairs; verdict names the first bound
    missed, "slope", "closure" or "projection", or is "ok"."""

    __slots__ = ()


def audit(cert) -> Audit:
    """Recheck a certificate from its n, p, q and s_star alone.

    One root serves both halves.  slopes.g_eval at s* gives the slope miss
    against slopes.DEFAULT_TOL_G, and its s, t and B go to cover._closure,
    the frame certificate runs, so x^p L^q is formed as certificate forms
    it; its closure is held to cover.DEFAULT_TOL_CERT and pushed down
    through unchart and from_su11 to meet the identity within
    PROJECTION_TOL.  A refusal in the rebuild is raised, as certificate
    raises it.  Every comparison fails closed on a NaN.
    """
    n, p, q = cert.n, cert.p, cert.q
    smp = slopes.g_eval(n, cert.s_star)
    *_, g, omega = cover._closure(n, p, q, smp.s, smp.t, smp.B)
    slope = abs(smp.g - p / q)
    gamma = abs(g)
    projection = rep.max_abs_diff(cover.from_su11(cover.unchart((g, omega))), rep.IDENTITY2)
    if not slope <= slopes.DEFAULT_TOL_G:
        verdict = "slope"
    elif not (gamma <= cover.DEFAULT_TOL_CERT and abs(omega) <= cover.DEFAULT_TOL_CERT):
        verdict = "closure"
    elif not projection <= PROJECTION_TOL:
        verdict = "projection"
    else:
        verdict = "ok"
    return Audit(slope, gamma, omega, projection, verdict)


@_suite(PROJECTION_TOL)
def check_certificate_soundness() -> Cases:
    """One full certificate, audited: its x^p L^q rebuilt, pushed back down
    to a matrix and compared against the identity."""
    cert = cover.certificate(2, 1, 1)
    yield audit(cert).projection, "n=2, r=1/1 projection"


def run_all() -> list[CheckResult]:
    """Every suite in ALL_CHECKS; one that a library refusal stops fails and
    the suites after it still run.  The grid's lifts are rebuilt once per
    call, against the tolerances of that time."""
    grid_lifts.cache_clear()
    return [fn() for fn in ALL_CHECKS]
