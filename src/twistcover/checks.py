"""Runtime invariant suites over the standard parameter grid.

Each check sweeps a documented family of cases and yields one (residual,
where) pair per case.  @_suite(bound) above it is its one declaration: the
driver names the result after the function, keeps the worst residual and
where it was first attained, and appends the check to ALL_CHECKS in source
order.  A check fails closed, called directly or by run_all: a NaN counts as
infinite, and a DomainError or NumericsError raised in it is a FAIL with
worst inf, bound nan and the refusal as its where.  The CLI `verify` runs
them all, and the acceptance tests run each one as a gate.  GRID_N,
GRID_S, GRID_SLOPES and grid_solutions are the one standard grid that tests
and benchmarks import; grid_longitudes and grid_lifts do rep.longitude and
cover.lift_generators on it once.  Checks are independent and reseed their
own RNG, so they run in any order or subset.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, wraps
from math import ceil, cos, gcd, inf, isnan, log2, nan, pi, sin, sqrt, tau, ulp

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

Cases = Iterator[tuple[float, str]]


class CheckResult(namedtuple("CheckResult", "name passed worst bound where")):
    __slots__ = ()

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        loc = f"  [{self.where}]" if self.where else ""
        return f"{tag}  {self.name}: worst {self.worst:.3e} vs bound {self.bound:.1e}{loc}"


def _fold(name: str, bound: float, pairs: Cases) -> CheckResult:
    """The largest residual of the pairs and where it was first attained; a
    NaN counts as infinite, so it fails the check where it first appears."""
    worst, where = 0.0, ""
    for value, at in pairs:
        if isnan(value):
            value = inf
        if value > worst or where == "":
            worst = max(worst, value)
            where = at
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
def grid_longitudes() -> tuple:
    """rep.longitude at each grid solution, in grid_solutions() order."""
    return tuple(rep.longitude(n, sol) for n, sol in grid_solutions())


@lru_cache(maxsize=None)
def grid_lifts() -> tuple:
    """cover.lift_generators at each grid solution, in grid_solutions() order."""
    return tuple(cover.lift_generators(n, sol) for n, sol in grid_solutions())


def _random_cover_elem(rng: random.Random, omega_span: float = 10.0) -> cover.CoverElem:
    r = rng.uniform(0.0, 0.95)
    th = rng.uniform(0.0, tau)
    g = complex(r * cos(th), r * sin(th))
    return cover.CoverElem(g, rng.uniform(-omega_span, omega_span))


@_suite(0.0)
def check_tau_three_term() -> Cases:
    """tau(m+1) - K tau(m) + tau(m-1) = 0 as exact polynomials, |m| <= 30."""
    for m in range(-30, 31):
        expr = (
            exactpoly.tau_poly(m + 1)
            - exactpoly.TRACE_POLY * exactpoly.tau_poly(m)
            + exactpoly.tau_poly(m - 1)
        )
        yield 0.0 if not expr else 1.0, f"m={m}"


@_suite(0.0)
def check_tau_odd_symmetry() -> Cases:
    for m in range(0, 31):
        ok = exactpoly.tau_poly(-m) == -exactpoly.tau_poly(m)
        yield 0.0 if ok else 1.0, f"m={m}"


@_suite(0.0)
def check_riley_T_degree() -> Cases:
    for n in GRID_N:
        deg = exactpoly.riley_poly(n).degree_T
        yield abs(deg - abs(n)), f"n={n}"


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
        yield abs(vf - vx) / (1.0 + abs(vx)), f"case {i}: n={n}, s={s:.6g}"


@_suite(1e-12)
def check_plateau_tau_signs() -> Cases:
    """At trace 2cos(pi/(2m+1)) the values tau_m = tau_{m+1} > 0; at
    trace 2cos(3pi/(2m+1)) they are equal and negative (m >= 2)."""
    for m in range(1, 13):
        a = 2.0 * cos(pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va > 0.0 and vb > 0.0):
            yield inf, f"m={m} inner sign"
        yield abs(va - vb) / max(1.0, abs(va)), f"m={m} inner"
    for m in range(2, 13):
        a = 2.0 * cos(3.0 * pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va < 0.0 and vb < 0.0):
            yield inf, f"m={m} outer sign"
        yield abs(va - vb) / max(1.0, abs(va)), f"m={m} outer"


@_suite(1e-9)
def check_solve_grid_soundness() -> Cases:
    """Window containment, branch angle, trace range, t reconstruction, and
    the exact polynomial residual at every grid solution."""
    for n, sol in grid_solutions():
        s = sol.s
        where = f"n={n}, s={s}"
        if not (s + 2.0 < sol.T < s + 2.0 + 4.0 / s):
            yield inf, where + " window"
        lo, hi = solver.branch_interval(n)
        if not lo < sol.theta < hi:
            yield inf, where + " theta"
        if not (-2.0 < sol.trace_W < 2.0):
            yield inf, where + " trace"
        if not abs(sol.t + 1.0 / sol.t - sol.T) <= 1e-12 * (1.0 + abs(sol.T)):
            yield inf, where + " t vs T"
        res = abs(float(exactpoly.phi_exact(n, s, sol.T)))
        yield res, where


@_suite(0.0)
def check_bisection_iteration_bound() -> Cases:
    """iterations <= ceil(log2(window/tol)) + 2, the theta window against
    kernels.itp's own tol = 4 ulp(hi)."""
    for n, sol in grid_solutions():
        if n == 1:
            continue
        lo, hi = solver.branch_interval(n)
        allowed = ceil(log2((hi - lo) / (4.0 * ulp(hi)))) + 2
        yield float(max(0, sol.iterations - allowed)), f"n={n}, s={sol.s}"


def _det_residual(m: rep.Mat2) -> float:
    scale = 1.0 + abs(m.m11 * m.m22) + abs(m.m12 * m.m21)
    return abs(m.det() - 1.0) / scale


@_suite(1e-10)
def check_determinant_one() -> Cases:
    for (n, sol), (ell, _) in zip(grid_solutions(), grid_longitudes()):
        s, t = sol.s, sol.t
        gx, gy = rep.gen_matrices(s, t)
        mats = [gx, gy, rep.w_matrix(s, t), rep.w_power(n, s, t), rep.w_rev_power(n, s, t), ell]
        for i, m in enumerate(mats):
            yield _det_residual(m), f"n={n}, s={s}, matrix {i}"


@_suite(1e-10)
def check_trace_w_closed_form() -> Cases:
    for n, sol in grid_solutions():
        s = sol.s
        tr_mat = rep.w_matrix(s, sol.t).trace()
        tr_cf = s * s - (sol.T - 2.0) * s + 2.0
        yield abs(tr_mat - tr_cf) / (1.0 + abs(tr_cf)), f"n={n}, s={s}"


@_suite(1e-8)
def check_w_power_vs_iterated() -> Cases:
    for _, sol in grid_solutions():
        s, t = sol.s, sol.t
        wm = rep.w_matrix(s, t)
        wi = wm.inverse()
        acc_p = rep.IDENTITY2
        acc_m = rep.IDENTITY2
        for k in range(1, 11):
            acc_p = acc_p @ wm
            acc_m = acc_m @ wi
            for m, acc in ((k, acc_p), (-k, acc_m)):
                d = rep.max_abs_diff(rep.w_power(m, s, t), acc)
                yield d / (1.0 + acc.maxabs()), f"s={s}, power {m}"


def w_rev_fold(gx: rep.Mat2, gy: rep.Mat2, k_max: int) -> dict:
    """rho(w_rev^m) for |m| <= k_max, keyed by m: one left fold with @ per
    sign, extending w_rev^(k-1) by the letters of rep.w_rev_word(+-1).  So it
    is rep.word_eval(rep.w_rev_word(m), gx, gy), the same fold, bit for bit."""
    table = {"x": gx, "X": gx.inverse(), "y": gy, "Y": gy.inverse()}
    out = {0: rep.IDENTITY2}
    for sign in (1, -1):
        acc = rep.IDENTITY2
        for k in range(1, k_max + 1):
            for ch in rep.w_rev_word(sign):
                acc = acc @ table[ch]
            out[sign * k] = acc
    return out


@_suite(1e-8)
def check_reversed_word_transform() -> Cases:
    """rho(w_rev^n) from the sigma transform against direct word evaluation."""
    for _, sol in grid_solutions():
        s, t = sol.s, sol.t
        powers = w_rev_fold(*rep.gen_matrices(s, t), 6)
        for m in range(-6, 7):
            direct = powers[m]
            d = rep.max_abs_diff(rep.w_rev_power(m, s, t), direct)
            yield d / (1.0 + direct.maxabs()), f"s={s}, n={m}"


@_suite(rep.OFFDIAG_TOL)
def check_longitude_diagonal() -> Cases:
    for (n, sol), (ell, hol) in zip(grid_solutions(), grid_longitudes()):
        if not ell.m11 > 0.0:
            yield inf, f"n={n}, s={sol.s} sign"
        yield hol.offdiag_residual, f"n={n}, s={sol.s}"


@_suite(1e-10)
def check_longitude_entry_product() -> Cases:
    for (n, sol), (ell, _) in zip(grid_solutions(), grid_longitudes()):
        yield abs(ell.m11 * ell.m22 - 1.0), f"n={n}, s={sol.s}"


@_suite(1e-10)
def check_holonomy_matrix_cross_check() -> Cases:
    """Longitude (1,1) entry against the closed form for B."""
    for (n, sol), (ell, hol) in zip(grid_solutions(), grid_longitudes()):
        yield abs(ell.m11 - hol.B) / (1.0 + ell.maxabs()), f"n={n}, s={sol.s}"


@_suite(1e-9)
def check_offdiag_vanishing_identity() -> Cases:
    """u11 u12 sigma + u21 u22 = 0 at solutions (the longitude (2,1) entry).

    Scaled like every matrix comparison, by 1 + the entry norm of the matrix
    the residual lives in; the unscaled sum is pinned to the T granularity
    near the sigma pole and cannot reach this bound at large s."""
    for (n, sol), (ell, _) in zip(grid_solutions(), grid_longitudes()):
        yield abs(ell.m21) / (1.0 + ell.maxabs()), f"n={n}, s={sol.s}"


@_suite(1e-8)
def check_relation_residual() -> Cases:
    for n, sol in grid_solutions():
        yield rep.relation_residual(n, sol.s, sol.t), f"n={n}, s={sol.s}"


@_suite(1.0)
def check_small_s_limits() -> Cases:
    """t -> (3+sqrt(5))/2 for n=1, B -> 1, g -> 0 as s -> 0."""
    t1 = solver.solve(1, 1e-6).t
    yield abs(t1 - (3.0 + sqrt(5.0)) / 2.0) / 1e-4, "n=1 t limit"
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e-6)
        yield abs(smp.B - 1.0) / 0.01, f"n={n} B limit"
        yield smp.g / 0.005, f"n={n} g limit"


@_suite(1.0)
def check_large_s_limits() -> Cases:
    """t - s -> 2, s/t -> 1, B t^2 -> 1, g -> 4 as s -> infinity."""
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e6)
        yield abs(smp.t - smp.s - 2.0) / 0.01, f"n={n} t-s"
        yield abs(smp.s / smp.t - 1.0) / 0.01, f"n={n} s/t"
        yield abs(smp.B * smp.t**2 - 1.0) / 0.01, f"n={n} B t^2"
        yield (4.0 - smp.g) / 0.005, f"n={n} g limit"


@_suite(slopes.DEFAULT_TOL_G)
def check_invert_recheck() -> Cases:
    """Inversion results re-verified by an independent slope evaluation."""
    for n, p, q in ((1, 1, 1), (2, 3, 2), (-2, 1, 2)):
        smp, _ = slopes.invert(n, p, q)
        again = slopes.g_eval(n, smp.s)
        yield abs(again.g - p / q), f"n={n}, r={p}/{q}"


@_suite(1e-10)
def check_cover_projection_homomorphism() -> Cases:
    rng = random.Random(SEED)
    for i in range(1000):
        a = _random_cover_elem(rng)
        b = _random_cover_elem(rng)
        lhs = cover.unchart(cover.cover_mul(a, b))
        rhs = cover.su11_mul(cover.unchart(a), cover.unchart(b))
        yield cover.su11_dist(lhs, rhs), f"case {i}"


@_suite(1e-10)
def check_cover_associativity() -> Cases:
    rng = random.Random(SEED + 1)
    for i in range(1000):
        a, b, c = (_random_cover_elem(rng) for _ in range(3))
        lhs = cover.cover_mul(cover.cover_mul(a, b), c)
        rhs = cover.cover_mul(a, cover.cover_mul(b, c))
        yield max(abs(lhs.gamma - rhs.gamma), abs(lhs.omega - rhs.omega)), f"case {i}"


@_suite(0.0)
def check_real_axis_closure() -> Cases:
    """Products of (gamma, 0) with real gamma stay on the real axis with
    omega exactly zero."""
    rng = random.Random(SEED + 2)
    for i in range(1000):
        a = cover.CoverElem(complex(rng.uniform(-0.99, 0.99), 0.0), 0.0)
        b = cover.CoverElem(complex(rng.uniform(-0.99, 0.99), 0.0), 0.0)
        prod = cover.cover_mul(a, b)
        ok = prod.omega == 0.0 and prod.gamma.imag == 0.0 and abs(prod.gamma.real) < 1.0
        yield 0.0 if ok else 1.0, f"case {i}"


@_suite(1e-12)
def check_central_commutation() -> Cases:
    rng = random.Random(SEED + 3)
    for i in range(1000):
        a = _random_cover_elem(rng)
        c = cover.CoverElem(0j, tau * rng.randint(-3, 3))
        lhs = cover.cover_mul(c, a)
        rhs = cover.cover_mul(a, c)
        if lhs.omega != rhs.omega:
            yield inf, f"case {i} omega"
        yield abs(lhs.gamma - rhs.gamma), f"case {i}"


@_suite(1e-12)
def check_chart_roundtrip() -> Cases:
    rng = random.Random(SEED + 4)
    for i in range(1000):
        e = _random_cover_elem(rng, omega_span=pi - 1e-9)
        u = cover.unchart(e)
        yield abs(u.defect()), f"case {i} defect"
        back = cover.chart(u)
        yield abs(back.gamma - e.gamma), f"case {i} gamma"
        yield abs(back.omega - e.omega), f"case {i} omega"


@_suite(cover.DEFAULT_LIFT_TOL)
def check_lift_relator_residual() -> Cases:
    for (n, sol), (_, _, res) in zip(grid_solutions(), grid_lifts()):
        yield res, f"n={n}, s={sol.s}"


@_suite(cover.DEFAULT_TOL_CERT)
def check_longitude_lift_level() -> Cases:
    """Lifted longitude has |omega| within cover.DEFAULT_TOL_CERT and gamma
    within 1e-7 of the holonomy value (wider than cover.LONGITUDE_GAMMA_TOL:
    the grid reaches B ~ 1e-4, where gamma sits within ulps of the unit
    circle)."""
    for (n, sol), (_, hol), (xt, yt, _) in zip(grid_solutions(), grid_longitudes(), grid_lifts()):
        lt = cover.lifted_longitude(n, xt, yt)
        where = f"n={n}, s={sol.s}"
        if not abs(lt.gamma - hol.lifted_gamma) <= 1e-7:
            yield inf, where + " gamma"
        yield abs(lt.omega), where


@_suite(1e-10)
def check_deck_shift_invariance() -> Cases:
    """The longitude word has zero exponent sum in each generator, so
    shifting both lifted generators by deck transformations leaves it fixed."""
    for n, sol in ((2, solver.solve(2, 1.0)), (-3, solver.solve(-3, 0.5))):
        xt, yt, _ = cover.lift_generators(n, sol)
        base = cover.cover_word(rep.longitude_word(n), xt, yt)
        for kx, ky in ((1, 1), (1, -1), (-2, 3)):
            xs = cover.CoverElem(xt.gamma, xt.omega + tau * kx)
            ys = cover.CoverElem(yt.gamma, yt.omega + tau * ky)
            shifted = cover.cover_word(rep.longitude_word(n), xs, ys)
            d = max(abs(shifted.gamma - base.gamma), abs(shifted.omega - base.omega))
            yield d, f"n={n}, shifts ({kx}, {ky})"


def projection_residual(cert: cover.SurgeryCertificate) -> float:
    """Rebuild x^p L^q from a fresh solve at s*, push it back down to a
    matrix and return its largest entry distance to the identity."""
    sol = solver.solve(cert.n, cert.s_star)
    xt, yt, _ = cover.lift_generators(cert.n, sol)
    lt = cover.lifted_longitude(cert.n, xt, yt)
    final = cover.cover_mul(cover.cover_pow(xt, cert.p), cover.cover_pow(lt, cert.q))
    return rep.max_abs_diff(cover.from_su11(cover.unchart(final)), rep.IDENTITY2)


@_suite(1e-8)
def check_certificate_soundness() -> Cases:
    """One full certificate, with the final element pushed back down to a
    matrix and compared against the identity."""
    cert = cover.certificate(2, 1, 1)
    yield projection_residual(cert), "n=2, r=1/1 projection"


def run_all() -> list[CheckResult]:
    """Every suite in ALL_CHECKS; one that a library refusal stops fails and
    the suites after it still run.  The grid's longitudes and lifts are
    rebuilt once per call, against the tolerances of that time."""
    grid_longitudes.cache_clear()
    grid_lifts.cache_clear()
    return [fn() for fn in ALL_CHECKS]
