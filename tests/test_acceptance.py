"""End-to-end acceptance runs: every release gate in one file.

Each gate and each invariant suite of twistcover.checks prints a single
PASS line with the measured margin, so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Gate
tolerances and timing budgets are stated inline next to each assertion;
suite bounds live with the suites.
"""

import ast
import inspect
import math
from time import perf_counter

import pytest
from bench_counts import grid_counts

import twistcover.checks as checks
from twistcover import (
    BivarPoly,
    CertificateFailed,
    certificate,
    cover,
    g_eval,
    phi_num,
    riley_poly,
    solve,
)

CERT_PAIRS = [
    (n, p, q)
    for n in (1, 2, 3, -2, -3)
    for p, q in ((1, 2), (1, 1), (2, 1), (3, 1), (7, 2))
]

PHI_1 = {(1, 1): -1, (0, 1): -1, (2, 0): 1, (1, 0): 3, (0, 0): 3}
PHI_2 = {
    (2, 2): 1, (1, 2): 1,
    (3, 1): -2, (2, 1): -6, (1, 1): -7, (0, 1): -2,
    (4, 0): 1, (3, 0): 5, (2, 0): 11, (1, 0): 12, (0, 0): 5,
}


def report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


def timed_suites(*suites):
    """Run invariant suites back to back; each must pass."""
    start = perf_counter()
    results = [fn() for fn in suites]
    elapsed = perf_counter() - start
    for res in results:
        assert res.passed, res.line()
    return results, elapsed


@pytest.fixture(scope="module")
def certificates():
    """All certified fillings used by the surgery and longitude gates."""
    out = []
    for n, p, q in CERT_PAIRS:
        start = perf_counter()
        cert = certificate(n, p, q)
        out.append((cert, perf_counter() - start))
    return out


def test_defining_polynomials_exact(monkeypatch):
    # the budget is the work, not the time: riley_poly(n) for n >= 1 takes
    # n + 1 products of two polynomials, n steps of the tau walk and one by
    # T - 1 - s
    products = []
    mul = BivarPoly.__mul__

    def counting_mul(self, other):
        if isinstance(other, BivarPoly):
            products.append(other)
        return mul(self, other)

    monkeypatch.setattr(BivarPoly, "__mul__", counting_mul)
    start = perf_counter()
    got_1 = riley_poly(1).coeffs
    products_1 = len(products)
    got_2 = riley_poly(2).coeffs
    elapsed = perf_counter() - start
    assert got_1 == PHI_1
    assert got_2 == PHI_2
    assert (products_1, len(products) - products_1) == (2, 3)
    report("defining polynomials", f"n=1,2 coefficient-exact in {elapsed * 1e6:.0f}us")


def test_phi_sign_anchors():
    worst = max(
        abs(phi_num(-2, 1.0, 4.0) - 1.0),
        abs(phi_num(-2, 1.0, 5.0) + 1.0),
    )
    assert worst < 1e-12
    report("phi sign anchors", f"worst deviation {worst:.2e} vs 1e-12")


def test_root_isolation_grid():
    # a cold grid, so the time covers the solving; the budget is the work,
    # not the time: the ITP steps of the 66 grid roots, measured 365 (420
    # with invert's truncated constants)
    checks.grid_solutions.cache_clear()
    ((grid,), elapsed) = timed_suites(checks.check_solve_grid_soundness)
    steps = sum(sol.iterations for _, sol in checks.grid_solutions())
    assert steps <= 365, steps
    report(
        "root isolation grid",
        f"66 points, worst exact residual {grid.worst:.2e} vs 1e-9, "
        f"{steps} ITP steps vs 365, {elapsed * 1e3:.0f}ms",
    )


def test_closed_form_roots():
    worst = 0.0
    for i in range(50):
        s = 10.0 ** (-3 + 6 * i / 49)
        dev = abs(solve(1, s).T - (s + 2 + 1 / (s + 1)))
        worst = max(worst, dev)
        assert dev < 1e-12, s
    quad = max(
        abs(solve(2, 1.0).T - (17 + math.sqrt(17)) / 4),
        abs(solve(-2, 1.0).T - (7 + math.sqrt(5)) / 2),
    )
    assert quad < 1e-10
    report("closed form roots", f"linear worst {worst:.2e} vs 1e-12, quadratic {quad:.2e} vs 1e-10")


def test_surgery_certificates(certificates):
    worst_g = worst_final = worst_proj = worst_time = 0.0
    for cert, elapsed in certificates:
        checked = checks.audit(cert)
        assert checked.verdict == "ok", (cert.n, cert.p, cert.q, checked)
        # tighter than the audit's slope bound, slopes.DEFAULT_TOL_G
        worst_g = max(worst_g, checked.slope)
        assert checked.slope < 1e-12, (cert.n, cert.p, cert.q)

        worst_final = max(worst_final, cert.final_gamma_abs, abs(cert.final_omega))
        assert cert.final_gamma_abs < 1e-6
        assert abs(cert.final_omega) < 1e-6

        worst_proj = max(worst_proj, checked.projection)

        worst_time = max(worst_time, elapsed)
        assert elapsed < 2.0, (cert.n, cert.p, cert.q, elapsed)
    report(
        "surgery certificates",
        f"25 fillings, slope {worst_g:.2e}/1e-12, closure {worst_final:.2e}/1e-6, "
        f"projection {worst_proj:.2e}/{checks.PROJECTION_TOL:.0e}, slowest {worst_time:.2f}s/2s",
    )


COVER_SUITES = (
    checks.check_cover_projection_homomorphism,
    checks.check_cover_associativity,
    checks.check_real_axis_closure,
    checks.check_central_commutation,
    checks.check_chart_roundtrip,
)


def test_cover_property_suites():
    # the time is reported, not gated; the work is gated below
    results, elapsed = timed_suites(*COVER_SUITES)
    report(
        "cover property suites",
        f"{len(COVER_SUITES)} suites x 1000 cases in {elapsed * 1e3:.0f}ms, "
        f"worst {max(r.worst for r in results):.2e}",
    )


def test_cover_property_suites_compose_plain_pairs(
    cover_elems_built, cover_checks, cover_compose_calls
):
    # the suites draw plain pairs and compose them with cover._compose, which
    # checks each result itself: 8000 compositions, and chart_roundtrip's
    # 1000 charts are the only CoverElems built, so the only ones _check runs on
    timed_suites(*COVER_SUITES)
    assert cover_compose_calls[0] == 8000
    assert cover_elems_built[0] == 1000
    assert cover_checks[0] == 1000


def test_longitude_lift_level(certificates):
    worst = max(cert.longitude_omega for cert, _ in certificates)
    assert worst < 1e-6
    report("longitude lift level", f"worst omega {worst:.2e} vs 1e-6 over 25 fillings")


@pytest.mark.parametrize(
    "suite", checks.ALL_CHECKS, ids=lambda fn: fn.__name__.removeprefix("check_")
)
def test_invariant_suite(suite):
    res = suite()
    assert res.passed, res.line()
    print(res.line())


def test_suite_fails_closed_on_nan():
    res = checks._fold("nan_probe", 1e-6, [(1e-12, "a"), (float("nan"), "b"), (1e-9, "c")])
    assert not res.passed
    assert res.worst == math.inf and res.where == "b"


def _eager_fold(name, bound, cases):
    """The reference fold: every case's location formatted as it comes."""
    worst, where = 0.0, ""
    for value, fmt, *parts in cases:
        at = fmt.format(*parts)
        if math.isnan(value):
            value = math.inf
        if value > worst or where == "":
            worst = max(worst, value)
            where = at
    return checks.CheckResult(name, worst <= bound, worst, bound, where)


def test_lazy_locations_fold_as_eager_ones():
    # _fold formats only the worst case's location; on every suite its
    # result, where included, equals the fold that formats them all
    for suite in checks.ALL_CHECKS:
        got = suite()
        assert got == _eager_fold(got.name, got.bound, suite.__wrapped__()), got.name


def test_suite_fails_closed_on_a_refusal_when_called_directly(monkeypatch):
    # no lifted relator meets this tolerance, so lift_generators refuses
    # inside the suite; the suite itself records the FAIL, not only run_all
    monkeypatch.setattr(cover, "DEFAULT_LIFT_TOL", 1e-30)
    checks.grid_lifts.cache_clear()
    try:
        res = checks.check_lift_relator_residual()
    finally:
        checks.grid_lifts.cache_clear()
    assert not res.passed
    assert res.worst == math.inf and math.isnan(res.bound)
    assert res.where.startswith("RelatorNotCentral:")


def test_every_suite_is_declared_once_in_source_order():
    source = inspect.getsource(checks)
    defined = [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    ]
    assert len(defined) == 18
    assert [fn.__name__ for fn in checks.ALL_CHECKS] == defined
    assert [getattr(checks, name) for name in defined] == list(checks.ALL_CHECKS)
    results = checks.run_all()
    assert [r.name for r in results] == [name.removeprefix("check_") for name in defined]


def test_batch_certify_budget(g_eval_calls, root_calls, phi_delta_calls):
    # the bound is a count of slope evaluations, not a time: one per slope.
    # invert's ITP steps in theta evaluate the branch in closed form, so the
    # one root per slope is invert's sample at s*, taken from g_eval's core
    # with no g_eval call, and a certificate lifts at that sample, so it
    # solves nowhere else.  Each root searches the branch
    # equation in theta and evaluates no phi_n residual (only solve reports
    # one), so the 20 roots take no phi_delta call.  Both counts are exact,
    # so a path that stopped counting (or stopped solving) fails as surely
    # as an extra root or residual.
    fracs = [(p, q) for q in range(1, 6) for p in range(1, 4 * q) if math.gcd(p, q) == 1][:20]
    refused = 0
    for p, q in fracs:
        try:
            certificate(2, p, q)
        except CertificateFailed:
            refused += 1
    budget = len(fracs)
    calls = root_calls[0]
    assert calls == budget, f"{calls} slope evaluations for {len(fracs)} certificates"
    assert g_eval_calls[0] == 0, f"{g_eval_calls[0]} g_evals for {len(fracs)} certificates"
    evals = phi_delta_calls[0]
    assert evals == 0, f"{evals} phi_delta calls for {len(fracs)} certificates"
    report(
        "batch certify budget",
        f"n=2, {len(fracs)} slopes ({refused} refused), {calls} slope evaluations vs {budget}, "
        f"{evals} phi_delta calls vs 0",
    )


def test_certify_verdicts_on_the_standard_grid():
    # every n of GRID_N at every reduced p/q in (0, 4) with q <= 12: the count
    # of each verdict is pinned, so a change to certificate that moves a slope
    # from one verdict to another fails here.  (-5, 23/8) sits at the closure
    # bound, in cover_pow's rounding noise: solve's root at the same s* moved
    # by at most 2 ulp of theta, and its |gamma| went 3.5e-6 -> 7.5e-7 vs 1e-6
    assert len(checks.GRID_SLOPES) == 183
    verdicts, misses, operations = grid_counts()
    assert verdicts == {"certified": 1206, "CertificateFailed": 444, "NumericsError": 363}
    report(
        "certify verdicts on the grid",
        ", ".join(f"{k} {v}" for k, v in verdicts.items())
        + f"; {misses} projection misses; cover operations {operations}",
    )


def test_large_n_certificates():
    # every reduced p/q with q <= 6 at |n| = 100, 1000, 10^4 certifies.  solve
    # finds s*'s theta on the same closed-form branch equation that invert
    # walks, so phi_delta's float noise at |n| = 10^4 (up to 6e-9) no longer
    # moves the root; measured worst |g - p/q| 1.7e-12, at n = -10^4
    fracs = [(p, q) for q in range(1, 7) for p in range(1, 4 * q) if math.gcd(p, q) == 1]
    assert len(fracs) == 47
    worst = 0.0
    for n in (100, -100, 1000, -1000, 10**4, -(10**4)):
        for p, q in fracs:
            cert = certificate(n, p, q)
            dev = abs(g_eval(n, cert.s_star).g - p / q)
            assert dev <= 1e-9, (n, p, q, dev)
            worst = max(worst, dev)
    report(
        "large n certificates",
        f"{6 * 47} of {6 * 47} certified, worst |g - p/q| {worst:.2e} vs 1e-9",
    )
