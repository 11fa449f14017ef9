"""End-to-end acceptance runs: every release gate in one file.

Each gate and each invariant suite of twistcover.checks prints a single
PASS line with the measured margin, so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist.  Gate
tolerances and timing budgets are stated inline next to each assertion;
suite bounds live with the suites.
"""

import math
from time import perf_counter

import pytest

import twistcover.checks as checks
from twistcover import certificate, g_eval, phi_num, riley_poly, solve
from twistcover.exactpoly import clear_cache

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


def test_defining_polynomials_exact():
    clear_cache()
    start = perf_counter()
    got_1 = riley_poly(1).coeffs
    got_2 = riley_poly(2).coeffs
    elapsed = perf_counter() - start
    assert got_1 == PHI_1
    assert got_2 == PHI_2
    assert elapsed < 1e-3, f"polynomial construction took {elapsed:.2e}s"
    report("defining polynomials", f"n=1,2 coefficient-exact in {elapsed * 1e6:.0f}us")


def test_phi_sign_anchors():
    worst = max(
        abs(phi_num(-2, 1.0, 4.0) - 1.0),
        abs(phi_num(-2, 1.0, 5.0) + 1.0),
    )
    assert worst < 1e-12
    report("phi sign anchors", f"worst deviation {worst:.2e} vs 1e-12")


def test_root_isolation_grid():
    # cold caches, so the budget covers building the polynomials and solving
    checks.grid_solutions.cache_clear()
    clear_cache()
    (_, grid), elapsed = timed_suites(checks.check_bracket_signs, checks.check_solve_grid_soundness)
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s"
    report(
        "root isolation grid",
        f"66 points, worst exact residual {grid.worst:.2e} vs 1e-9, {elapsed * 1e3:.0f}ms",
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
        r = cert.p / cert.q
        g_dev = abs(g_eval(cert.n, cert.s_star).g - r)
        worst_g = max(worst_g, g_dev)
        assert g_dev < 1e-9, (cert.n, cert.p, cert.q)

        worst_final = max(worst_final, cert.final_gamma_abs, abs(cert.final_omega))
        assert cert.final_gamma_abs < 1e-6
        assert abs(cert.final_omega) < 1e-6

        proj = checks.projection_residual(cert)
        worst_proj = max(worst_proj, proj)
        assert proj < 1e-8, (cert.n, cert.p, cert.q)

        worst_time = max(worst_time, elapsed)
        assert elapsed < 2.0, (cert.n, cert.p, cert.q, elapsed)
    report(
        "surgery certificates",
        f"25 fillings, slope {worst_g:.2e}/1e-9, closure {worst_final:.2e}/1e-6, "
        f"projection {worst_proj:.2e}/1e-8, slowest {worst_time:.2f}s/2s",
    )


def test_cover_property_suites():
    results, elapsed = timed_suites(
        checks.check_cover_projection_homomorphism,
        checks.check_cover_associativity,
        checks.check_real_axis_closure,
        checks.check_central_commutation,
    )
    assert elapsed < 1.0, f"property suites took {elapsed:.3f}s"
    report(
        "cover property suites",
        f"4 suites x 1000 cases in {elapsed * 1e3:.0f}ms, "
        f"worst {max(r.worst for r in results):.2e}",
    )


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
    w = checks._Worst()
    w.push(1e-12, "a")
    w.push(float("nan"), "b")
    w.push(1e-9, "c")
    res = w.result("nan_probe", 1e-6)
    assert not res.passed
    assert res.worst == math.inf and res.where == "b"
