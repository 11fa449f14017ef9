"""Runtime invariant suites over the standard parameter grid.

Every check sweeps a documented family of cases, records the worst residual
it saw and where, and compares against its bound.  The CLI `verify`
subcommand runs all of them, and the acceptance tests run each one as a
gate.  GRID_N, GRID_S and grid_solutions are the one definition of the
standard grid that tests and benchmarks import.  Checks are independent
and reseed their own RNG, so they can run in any order or subset.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, cos, inf, isnan, log2, pi, sin, sqrt, tau

from . import cover, exactpoly, rep, slopes, solver
from .errors import DomainError

GRID_N = (-6, -5, -4, -3, -2, 1, 2, 3, 4, 5, 6)
GRID_S = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float
    where: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        loc = f"  [{self.where}]" if self.where else ""
        return f"{tag}  {self.name}: worst {self.worst:.3e} vs bound {self.bound:.1e}{loc}"


class _Worst:
    """Running maximum with the location that attained it; a NaN counts as
    infinite, so it fails the check where it first appears."""

    def __init__(self) -> None:
        self.value = 0.0
        self.where = ""

    def push(self, value: float, where: str) -> None:
        if isnan(value):
            value = inf
        if value > self.value or self.where == "":
            self.value = max(self.value, value)
            self.where = where

    def fail(self, where: str) -> None:
        self.push(inf, where)

    def result(self, name: str, bound: float) -> CheckResult:
        return CheckResult(name, self.value <= bound, self.value, bound, self.where)


@lru_cache(maxsize=None)
def grid_solutions() -> tuple:
    return tuple((n, solver.solve(n, s)) for n in GRID_N for s in GRID_S)


def _random_cover_elem(rng: random.Random, omega_span: float = 10.0) -> cover.CoverElem:
    r = rng.uniform(0.0, 0.95)
    th = rng.uniform(0.0, tau)
    g = complex(r * cos(th), r * sin(th))
    return cover.CoverElem(g, rng.uniform(-omega_span, omega_span))


def check_tau_three_term() -> CheckResult:
    """tau(m+1) - K tau(m) + tau(m-1) = 0 as exact polynomials, |m| <= 30."""
    w = _Worst()
    for m in range(-30, 31):
        expr = (
            exactpoly.tau_poly(m + 1)
            - exactpoly.TRACE_POLY * exactpoly.tau_poly(m)
            + exactpoly.tau_poly(m - 1)
        )
        w.push(0.0 if not expr else 1.0, f"m={m}")
    return w.result("tau_three_term", 0.0)


def check_tau_odd_symmetry() -> CheckResult:
    w = _Worst()
    for m in range(0, 31):
        ok = exactpoly.tau_poly(-m) == -exactpoly.tau_poly(m)
        w.push(0.0 if ok else 1.0, f"m={m}")
    return w.result("tau_odd_symmetry", 0.0)


def check_riley_T_degree() -> CheckResult:
    w = _Worst()
    for n in GRID_N:
        deg = exactpoly.riley_poly(n).degree_T
        w.push(abs(deg - abs(n)), f"n={n}")
    return w.result("riley_T_degree", 0.0)


def check_phi_exact_vs_float() -> CheckResult:
    """Float evaluation against exact rational evaluation at random points."""
    rng = random.Random(SEED)
    w = _Worst()
    ns = [n for n in range(-8, 9) if n not in (0, -1)]
    for i in range(100):
        n = rng.choice(ns)
        s = 10.0 ** rng.uniform(-3.0, 2.0)
        T = s + 2.0 + 4.0 * rng.random() / s
        vx = float(exactpoly.eval_exact(exactpoly.riley_poly(n), s, T))
        vf = solver.phi_num(n, s, T)
        w.push(abs(vf - vx) / (1.0 + abs(vx)), f"case {i}: n={n}, s={s:.6g}")
    return w.result("phi_exact_vs_float", 1e-8)


def check_plateau_tau_signs() -> CheckResult:
    """At trace 2cos(pi/(2m+1)) the values tau_m = tau_{m+1} > 0; at
    trace 2cos(3pi/(2m+1)) they are equal and negative (m >= 2)."""
    w = _Worst()
    for m in range(1, 13):
        a = 2.0 * cos(pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va > 0.0 and vb > 0.0):
            w.fail(f"m={m} inner sign")
        w.push(abs(va - vb) / max(1.0, abs(va)), f"m={m} inner")
    for m in range(2, 13):
        a = 2.0 * cos(3.0 * pi / (2 * m + 1))
        va, vb = solver.tau_num(m, a), solver.tau_num(m + 1, a)
        if not (va < 0.0 and vb < 0.0):
            w.fail(f"m={m} outer sign")
        w.push(abs(va - vb) / max(1.0, abs(va)), f"m={m} outer")
    return w.result("plateau_tau_signs", 1e-12)


def check_bracket_signs() -> CheckResult:
    w = _Worst()
    for n in GRID_N:
        if n == 1:
            try:
                solver.bracket(n, 1.0)
                w.fail("n=1 should defer to the closed form")
            except DomainError:
                w.push(0.0, "n=1")
            continue
        for s in GRID_S:
            br = solver.bracket(n, s)
            ok = br.sign_lo * br.sign_hi < 0 and br.lo < br.hi
            w.push(0.0 if ok else 1.0, f"n={n}, s={s}")
    return w.result("bracket_signs", 0.0)


def check_solve_grid_soundness() -> CheckResult:
    """Window containment, trace range, t reconstruction, and the exact
    polynomial residual at every grid solution."""
    w = _Worst()
    for n, sol in grid_solutions():
        s = sol.s
        where = f"n={n}, s={s}"
        if not (s + 2.0 < sol.T < s + 2.0 + 4.0 / s):
            w.fail(where + " window")
        if not (-2.0 < sol.trace_W < 2.0):
            w.fail(where + " trace")
        if not abs(sol.t + 1.0 / sol.t - sol.T) <= 1e-12 * (1.0 + abs(sol.T)):
            w.fail(where + " t vs T")
        res = abs(float(exactpoly.eval_exact(exactpoly.riley_poly(n), s, sol.T)))
        w.push(res, where)
    return w.result("solve_grid_soundness", 1e-9)


def check_bisection_iteration_bound() -> CheckResult:
    """iterations <= ceil(log2(window/tol)) + 2."""
    w = _Worst()
    for n, sol in grid_solutions():
        if n == 1:
            continue
        br = solver.bracket(n, sol.s)
        allowed = ceil(log2((br.hi - br.lo) / solver.DEFAULT_TOL_T)) + 2
        w.push(float(max(0, sol.iterations - allowed)), f"n={n}, s={sol.s}")
    return w.result("bisection_iteration_bound", 0.0)


def _det_residual(m: rep.Mat2) -> float:
    scale = 1.0 + abs(m.m11 * m.m22) + abs(m.m12 * m.m21)
    return abs(m.det() - 1.0) / scale


def check_determinant_one() -> CheckResult:
    w = _Worst()
    for n, sol in grid_solutions():
        s, t = sol.s, sol.t
        gx, gy = rep.gen_matrices(s, t)
        mats = [gx, gy, rep.w_matrix(s, t), rep.w_power(n, s, t), rep.w_rev_power(n, s, t)]
        mats.append(rep.longitude(n, sol)[0])
        for i, m in enumerate(mats):
            w.push(_det_residual(m), f"n={n}, s={s}, matrix {i}")
    return w.result("determinant_one", 1e-10)


def check_trace_w_closed_form() -> CheckResult:
    w = _Worst()
    for n, sol in grid_solutions():
        s = sol.s
        tr_mat = rep.w_matrix(s, sol.t).trace()
        tr_cf = s * s - (sol.T - 2.0) * s + 2.0
        w.push(abs(tr_mat - tr_cf) / (1.0 + abs(tr_cf)), f"n={n}, s={s}")
    return w.result("trace_w_closed_form", 1e-10)


def check_w_power_vs_iterated() -> CheckResult:
    w = _Worst()
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
                w.push(d / (1.0 + acc.maxabs()), f"s={s}, power {m}")
    return w.result("w_power_vs_iterated", 1e-8)


def check_reversed_word_transform() -> CheckResult:
    """rho(w_rev^n) from the sigma transform against direct word evaluation."""
    w = _Worst()
    for _, sol in grid_solutions():
        s, t = sol.s, sol.t
        gx, gy = rep.gen_matrices(s, t)
        for m in range(-6, 7):
            direct = rep.word_eval(rep.w_rev_word(m), gx, gy)
            d = rep.max_abs_diff(rep.w_rev_power(m, s, t), direct)
            w.push(d / (1.0 + direct.maxabs()), f"s={s}, n={m}")
    return w.result("reversed_word_transform", 1e-8)


def check_longitude_diagonal() -> CheckResult:
    w = _Worst()
    for n, sol in grid_solutions():
        ell, hol = rep.longitude(n, sol)
        if not ell.m11 > 0.0:
            w.fail(f"n={n}, s={sol.s} sign")
        w.push(hol.offdiag_residual, f"n={n}, s={sol.s}")
    return w.result("longitude_diagonal", 1e-6)


def check_longitude_entry_product() -> CheckResult:
    w = _Worst()
    for n, sol in grid_solutions():
        ell, _ = rep.longitude(n, sol)
        w.push(abs(ell.m11 * ell.m22 - 1.0), f"n={n}, s={sol.s}")
    return w.result("longitude_entry_product", 1e-10)


def check_holonomy_matrix_cross_check() -> CheckResult:
    """Longitude (1,1) entry against the closed form for B."""
    w = _Worst()
    for n, sol in grid_solutions():
        ell, hol = rep.longitude(n, sol)
        w.push(abs(ell.m11 - hol.B) / (1.0 + ell.maxabs()), f"n={n}, s={sol.s}")
    return w.result("holonomy_matrix_cross_check", 1e-10)


def check_offdiag_vanishing_identity() -> CheckResult:
    """u11 u12 sigma + u21 u22 = 0 at solutions (the longitude (2,1) entry).

    Scaled like every matrix comparison, by 1 + the entry norm of the matrix
    the residual lives in; the unscaled sum is pinned to the T granularity
    near the sigma pole and cannot reach this bound at large s."""
    w = _Worst()
    for n, sol in grid_solutions():
        ell, _ = rep.longitude(n, sol)
        w.push(abs(ell.m21) / (1.0 + ell.maxabs()), f"n={n}, s={sol.s}")
    return w.result("offdiag_vanishing_identity", 1e-9)


def check_relation_residual() -> CheckResult:
    w = _Worst()
    for n, sol in grid_solutions():
        w.push(rep.relation_residual(n, sol.s, sol.t), f"n={n}, s={sol.s}")
    return w.result("relation_residual", 1e-8)


def check_small_s_limits() -> CheckResult:
    """t -> (3+sqrt(5))/2 for n=1, B -> 1, g -> 0 as s -> 0."""
    w = _Worst()
    t1 = solver.solve(1, 1e-6).t
    w.push(abs(t1 - (3.0 + sqrt(5.0)) / 2.0) / 1e-4, "n=1 t limit")
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e-6)
        w.push(abs(smp.B - 1.0) / 0.01, f"n={n} B limit")
        w.push(smp.g / 0.005, f"n={n} g limit")
    return w.result("small_s_limits", 1.0)


def check_large_s_limits() -> CheckResult:
    """t - s -> 2, s/t -> 1, B t^2 -> 1, g -> 4 as s -> infinity."""
    w = _Worst()
    for n in GRID_N:
        smp = slopes.g_eval(n, 1e6)
        w.push(abs(smp.t - smp.s - 2.0) / 0.01, f"n={n} t-s")
        w.push(abs(smp.s / smp.t - 1.0) / 0.01, f"n={n} s/t")
        w.push(abs(smp.B * smp.t**2 - 1.0) / 0.01, f"n={n} B t^2")
        w.push((4.0 - smp.g) / 0.005, f"n={n} g limit")
    return w.result("large_s_limits", 1.0)


def check_invert_recheck() -> CheckResult:
    """Inversion results re-verified by an independent slope evaluation."""
    w = _Worst()
    for n, p, q in ((1, 1, 1), (2, 3, 2), (-2, 1, 2)):
        smp, _ = slopes.invert(n, p, q)
        again = slopes.g_eval(n, smp.s)
        w.push(abs(again.g - p / q), f"n={n}, r={p}/{q}")
    return w.result("invert_recheck", slopes.DEFAULT_TOL_G)


def check_cover_projection_homomorphism() -> CheckResult:
    rng = random.Random(SEED)
    w = _Worst()
    for i in range(1000):
        a = _random_cover_elem(rng)
        b = _random_cover_elem(rng)
        lhs = cover.unchart(cover.cover_mul(a, b))
        rhs = cover.su11_mul(cover.unchart(a), cover.unchart(b))
        w.push(cover.su11_dist(lhs, rhs), f"case {i}")
    return w.result("cover_projection_homomorphism", 1e-10)


def check_cover_associativity() -> CheckResult:
    rng = random.Random(SEED + 1)
    w = _Worst()
    for i in range(1000):
        a, b, c = (_random_cover_elem(rng) for _ in range(3))
        lhs = cover.cover_mul(cover.cover_mul(a, b), c)
        rhs = cover.cover_mul(a, cover.cover_mul(b, c))
        w.push(max(abs(lhs.gamma - rhs.gamma), abs(lhs.omega - rhs.omega)), f"case {i}")
    return w.result("cover_associativity", 1e-10)


def check_real_axis_closure() -> CheckResult:
    """Products of (gamma, 0) with real gamma stay on the real axis with
    omega exactly zero."""
    rng = random.Random(SEED + 2)
    w = _Worst()
    for i in range(1000):
        a = cover.CoverElem(complex(rng.uniform(-0.99, 0.99), 0.0), 0.0)
        b = cover.CoverElem(complex(rng.uniform(-0.99, 0.99), 0.0), 0.0)
        prod = cover.cover_mul(a, b)
        ok = prod.omega == 0.0 and prod.gamma.imag == 0.0 and abs(prod.gamma.real) < 1.0
        w.push(0.0 if ok else 1.0, f"case {i}")
    return w.result("real_axis_closure", 0.0)


def check_central_commutation() -> CheckResult:
    rng = random.Random(SEED + 3)
    w = _Worst()
    for i in range(1000):
        a = _random_cover_elem(rng)
        c = cover.CoverElem(0j, tau * rng.randint(-3, 3))
        lhs = cover.cover_mul(c, a)
        rhs = cover.cover_mul(a, c)
        if lhs.omega != rhs.omega:
            w.fail(f"case {i} omega")
        w.push(abs(lhs.gamma - rhs.gamma), f"case {i}")
    return w.result("central_commutation", 1e-12)


def check_chart_roundtrip() -> CheckResult:
    rng = random.Random(SEED + 4)
    w = _Worst()
    for i in range(1000):
        e = _random_cover_elem(rng, omega_span=pi - 1e-9)
        u = cover.unchart(e)
        w.push(abs(u.defect()), f"case {i} defect")
        back = cover.chart(u)
        w.push(abs(back.gamma - e.gamma), f"case {i} gamma")
        w.push(abs(back.omega - e.omega), f"case {i} omega")
    return w.result("chart_roundtrip", 1e-12)


def check_lift_relator_residual() -> CheckResult:
    # 1e-5 is the double-precision envelope at the grid corners; see the
    # DEFAULT_LIFT_TOL note in cover
    w = _Worst()
    for n, sol in grid_solutions():
        _, _, res = cover.lift_generators(n, sol)
        w.push(res, f"n={n}, s={sol.s}")
    return w.result("lift_relator_residual", 1e-5)


def check_longitude_lift_level() -> CheckResult:
    """Lifted longitude has omega ~ 0 and gamma within 1e-7 of the holonomy
    value (wider than cover.LONGITUDE_GAMMA_TOL: the grid reaches B ~ 1e-4,
    where gamma sits within ulps of the unit circle)."""
    w = _Worst()
    for n, sol in grid_solutions():
        _, hol = rep.longitude(n, sol)
        xt, yt, _ = cover.lift_generators(n, sol)
        expected = (hol.B**2 - 1.0) / (hol.B**2 + 1.0)
        lt = cover.lifted_longitude(n, xt, yt)
        where = f"n={n}, s={sol.s}"
        if not abs(lt.gamma - expected) <= 1e-7:
            w.fail(where + " gamma")
        w.push(abs(lt.omega), where)
    return w.result("longitude_lift_level", 1e-6)


def check_deck_shift_invariance() -> CheckResult:
    """The longitude word has zero exponent sum in each generator, so
    shifting both lifted generators by deck transformations leaves it fixed."""
    w = _Worst()
    for n, sol in ((2, solver.solve(2, 1.0)), (-3, solver.solve(-3, 0.5))):
        xt, yt, _ = cover.lift_generators(n, sol)
        base = cover.cover_word(rep.longitude_word(n), xt, yt)
        for kx, ky in ((1, 1), (1, -1), (-2, 3)):
            xs = cover.CoverElem(xt.gamma, xt.omega + tau * kx)
            ys = cover.CoverElem(yt.gamma, yt.omega + tau * ky)
            shifted = cover.cover_word(rep.longitude_word(n), xs, ys)
            d = max(abs(shifted.gamma - base.gamma), abs(shifted.omega - base.omega))
            w.push(d, f"n={n}, shifts ({kx}, {ky})")
    return w.result("deck_shift_invariance", 1e-10)


def projection_residual(cert: cover.SurgeryCertificate) -> float:
    """Rebuild x^p L^q from a fresh solve at s*, push it back down to a
    matrix and return its largest entry distance to the identity."""
    sol = solver.solve(cert.n, cert.s_star)
    xt, yt, _ = cover.lift_generators(cert.n, sol)
    lt = cover.lifted_longitude(cert.n, xt, yt)
    final = cover.cover_mul(cover.cover_pow(xt, cert.p), cover.cover_pow(lt, cert.q))
    return rep.max_abs_diff(cover.from_su11(cover.unchart(final)), rep.IDENTITY2)


def check_certificate_soundness() -> CheckResult:
    """One full certificate, with the final element pushed back down to a
    matrix and compared against the identity."""
    w = _Worst()
    cert = cover.certificate(2, 1, 1)
    w.push(projection_residual(cert), "n=2, r=1/1 projection")
    return w.result("certificate_soundness", 1e-8)


ALL_CHECKS = (
    check_tau_three_term,
    check_tau_odd_symmetry,
    check_riley_T_degree,
    check_phi_exact_vs_float,
    check_plateau_tau_signs,
    check_bracket_signs,
    check_solve_grid_soundness,
    check_bisection_iteration_bound,
    check_determinant_one,
    check_trace_w_closed_form,
    check_w_power_vs_iterated,
    check_reversed_word_transform,
    check_longitude_diagonal,
    check_longitude_entry_product,
    check_holonomy_matrix_cross_check,
    check_offdiag_vanishing_identity,
    check_relation_residual,
    check_small_s_limits,
    check_large_s_limits,
    check_invert_recheck,
    check_cover_projection_homomorphism,
    check_cover_associativity,
    check_real_axis_closure,
    check_central_commutation,
    check_chart_roundtrip,
    check_lift_relator_residual,
    check_longitude_lift_level,
    check_deck_shift_invariance,
    check_certificate_soundness,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
