"""Slope map g and its inversion along the root branch."""

import math

import pytest

import twistcover.checks as checks
import twistcover.cover as cover
import twistcover.kernels as kernels
import twistcover.rep as rep
import twistcover.slopes as slopes
import twistcover.solver as solver
from twistcover import (
    DomainError,
    NonConvergence,
    NumericsError,
    SlopeOutOfRange,
    g_eval,
    invert,
    scan,
    solve,
)
from twistcover.checks import GRID_N, GRID_SLOPES


def test_g_frozen_values():
    assert g_eval(1, 1.0).g == pytest.approx(2.6070663536573102, abs=1e-13)
    assert g_eval(2, 1.0).g == pytest.approx(1.339982523007227, abs=1e-12)
    assert g_eval(1, 0.001).g == pytest.approx(0.004644419329673867, abs=1e-14)


def test_g_sample_is_consistent():
    smp = g_eval(-3, 2.0)
    sol = solve(-3, 2.0)
    assert smp.s == 2.0
    assert smp.T == sol.T
    assert smp.t == sol.t
    assert 0.0 < smp.B < 1.0
    assert smp.g == pytest.approx(-2.0 * math.log(smp.B) / math.log(smp.t), rel=1e-15)
    assert 0.0 < smp.g < 4.0


@pytest.mark.parametrize("n", GRID_N)
def test_g_eval_root_matches_solve_bit_for_bit(n, rep_solutions_built, root_calls, phi_delta_calls):
    # g_eval and solve share solver._root; only solve builds a RepSolution
    # and evaluates phi_n's residual, so a scan makes one root per sample,
    # no RepSolution and no phi_delta call
    rows = scan(n, 1e-6, 1e8, 400)
    assert (root_calls[0], phi_delta_calls[0], rep_solutions_built[0]) == (400, 0, 0)
    for row in rows:
        sol = solve(n, row.s)
        assert (row.T, row.t) == (sol.T, sol.t), row.s
    assert (root_calls[0], phi_delta_calls[0], rep_solutions_built[0]) == (800, 400, 400)


@pytest.mark.parametrize(
    "cls, fields, text",
    [
        (
            slopes.SlopeSample,
            {"s": 1.0, "T": 5.25, "t": 5.0, "B": 0.5, "g": 1.5},
            "SlopeSample(s=1.0, T=5.25, t=5.0, B=0.5, g=1.5)",
        ),
        (slopes.InvertReport, {"evaluations": 11}, "InvertReport(evaluations=11)"),
        (
            solver.RepSolution,
            {"n": 2, "s": 1.0, "T": 5.25, "t": 5.0, "trace_W": -0.25, "theta": 1.75,
             "phi_residual": 0.0, "iterations": 10},
            "RepSolution(n=2, s=1.0, T=5.25, t=5.0, trace_W=-0.25, theta=1.75, "
            "phi_residual=0.0, iterations=10)",
        ),
        (
            rep.Mat2,
            {"m11": 1.0, "m12": 2.0, "m21": -0.5, "m22": 4.0},
            "Mat2(m11=1.0, m12=2.0, m21=-0.5, m22=4.0)",
        ),
        (
            cover.CoverElem,
            {"gamma": 0.5 - 0.25j, "omega": -1.5},
            "CoverElem(gamma=(0.5-0.25j), omega=-1.5)",
        ),
        (
            cover.SU11Elem,
            {"alpha": 1.25 + 0j, "beta": 0.75 - 0.5j},
            "SU11Elem(alpha=(1.25+0j), beta=(0.75-0.5j))",
        ),
        (
            cover.SurgeryCertificate,
            {"n": 2, "p": 3, "q": 2, "s_star": 0.5, "t": 4.0, "B": 0.125, "gamma_x": 0.6,
             "gamma_L": -0.9, "relator_residual": 1e-15, "longitude_omega": 0.0,
             "final_gamma_abs": 2e-16, "final_omega": -0.0, "tol_slope": 1e-9,
             "tol_certificate": 1e-6},
            "SurgeryCertificate(n=2, p=3, q=2, s_star=0.5, t=4.0, B=0.125, gamma_x=0.6, "
            "gamma_L=-0.9, relator_residual=1e-15, longitude_omega=0.0, "
            "final_gamma_abs=2e-16, final_omega=-0.0, tol_slope=1e-09, tol_certificate=1e-06)",
        ),
        (
            checks.CheckResult,
            {"name": "probe", "passed": True, "worst": 0.5, "bound": 1.0, "where": "n=2"},
            "CheckResult(name='probe', passed=True, worst=0.5, bound=1.0, where='n=2')",
        ),
    ],
)
def test_records_are_frozen_tuples(cls, fields, text):
    # every record the package returns is a slotted namedtuple: the repr and
    # field order a frozen dataclass had, and no assignment
    rec = cls(**fields)
    assert repr(rec) == text
    assert rec._asdict() == fields and list(rec._asdict()) == list(fields)
    assert rec == cls(*fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        rec.extra = 0


def test_public_functions_return_the_records():
    assert type(g_eval(2, 1.0)) is slopes.SlopeSample
    assert {type(r) for r in scan(2, 0.5, 2.0, 3)} == {slopes.SlopeSample}
    smp, report = invert(2, 3, 2)
    assert (type(smp), type(report)) == (slopes.SlopeSample, slopes.InvertReport)
    assert type(solve(2, 1.0)) is solver.RepSolution


def test_g_rejects_bad_inputs():
    with pytest.raises(DomainError):
        g_eval(0, 1.0)
    with pytest.raises(DomainError):
        g_eval(2, -1.0)


def test_scan_grid_shape():
    rows = scan(1, 0.01, 100.0, 21)
    assert len(rows) == 21
    assert rows[0].s == 0.01
    assert rows[-1].s == 100.0
    ss = [r.s for r in rows]
    assert ss == sorted(ss)
    # log spacing: constant ratio
    ratios = [ss[i + 1] / ss[i] for i in range(len(ss) - 1)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_scan_csv_frozen_row():
    # the first row of scan, written as scan --format csv writes it
    rows = scan(1, 1.0, 2.0, 2)
    line = ",".join(format(v, ".17g") for v in rows[0])
    assert line == "1,3.5,3.1861406616345072,0.22078900754823924,2.6070663536573102"


def test_scan_validation():
    with pytest.raises(DomainError):
        scan(1, -1.0, 10.0, 5)
    with pytest.raises(DomainError):
        scan(1, 10.0, 1.0, 5)
    with pytest.raises(DomainError):
        scan(1, 1.0, 10.0, 1)
    with pytest.raises(DomainError):
        scan(1, 1e-3, 1e3, 3.0)  # range() would raise a bare TypeError
    # n and the window are checked once, up front, for every sample
    with pytest.raises(DomainError, match="s_max < inf"):
        scan(2, 1.0, math.inf, 3)
    for n in (0, -1, True, 2.5):
        with pytest.raises(DomainError, match="n must"):
            scan(n, 1.0, 10.0, 3)


@pytest.mark.parametrize("n", [1, 2, -3, 1000])
def test_scan_rows_are_g_eval_samples(n, branch_records):
    # scan and g_eval share one per-sample core; scan forms n's branch
    # record once for all of its samples, g_eval once per call
    rows = scan(n, 1e-6, 1e8, 41)
    assert branch_records[0] == 1
    assert rows == [g_eval(n, r.s) for r in rows]
    assert branch_records[0] == 1 + len(rows)


def test_invert_hits_requested_slope():
    # the returned sample is g_eval's at s*, and the theta walk reaches float
    # resolution: measured worst |g - p/q| 7.5e-15 over this domain (2.7e-13
    # when solve searched phi_delta's delta window instead of the branch)
    for n in GRID_N + (-20, -10, 10, 20):
        for p, q in GRID_SLOPES:
            smp, _ = invert(n, p, q)
            assert smp == g_eval(n, smp.s), (n, p, q)
            assert abs(smp.g - p / q) <= 1e-13, (n, p, q)


def test_invert_evaluations_on_the_grid(branch_calls):
    # one branch point per theta step plus one for the result, over GRID_N x
    # q <= 12: measured mean 9.789, max 15 (10.827 and 16 with plain regula
    # falsi, 12.07 and 31 when a step that reached an end fell back to the
    # midpoint)
    evaluations = []
    for n in GRID_N:
        for p, q in GRID_SLOPES:
            branch_calls[0] = 0
            _, report = invert(n, p, q)
            assert report.evaluations == branch_calls[0], (n, p, q)
            evaluations.append(branch_calls[0])
    assert len(evaluations) == 2013
    assert sum(evaluations) / len(evaluations) <= 9.79
    assert max(evaluations) <= 15


def test_invert_report():
    smp, report = invert(2, 3, 2)
    assert abs(smp.g - 1.5) <= 1e-9
    # at least one theta step, plus the g_eval at s*
    assert report.evaluations > 1


def test_invert_is_deterministic():
    a = invert(-3, 7, 2)
    b = invert(-3, 7, 2)
    assert a == b


def test_invert_validation():
    with pytest.raises(DomainError):
        invert(2, 2, 4)  # not in lowest terms
    with pytest.raises(DomainError):
        invert(2, 1, 0)
    with pytest.raises(DomainError):
        invert(2, 1.0, 2)  # floats are not slopes
    # bools are int subclasses, but no slope's numerator or denominator
    for p, q in ((True, 1), (3, True), (True, True)):
        with pytest.raises(DomainError, match="must be integers"):
            invert(2, p, q)
    with pytest.raises(DomainError, match="n must be an integer"):
        invert(True, 1, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, 0, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, -1, 2)
    with pytest.raises(SlopeOutOfRange):
        invert(2, 4, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, 9, 2)
    # p / q would overflow a float; the interval needs no division
    with pytest.raises(SlopeOutOfRange):
        invert(2, 10**400, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, -(10**400), 3)
    with pytest.raises(DomainError):
        invert(0, 1, 1)


def test_invert_slope_rounding_onto_an_end_is_numerics():
    # inside (0, 4), but p / q rounds onto an end: a float-resolution limit
    with pytest.raises(NumericsError, match="rounds to 0.0"):
        invert(2, 1, 10**400)
    with pytest.raises(NumericsError, match="rounds to 4.0"):
        invert(2, 4 * 10**20 - 1, 10**20)


def test_invert_root_on_a_branch_end_is_numerics():
    # at n = 2 the s -> 0 end is float(pi/2), just below the true pi/2, where
    # the closed form gives s < 0; ITP's root for 1/10^17 rounds onto it
    with pytest.raises(NumericsError) as exc:
        invert(2, 1, 10**17)
    msg = str(exc.value)
    assert msg.startswith("slope 1/100000000000000000: ")
    assert f"s -> 0 end {math.pi / 2} of n=2's branch" in msg
    # the s -> inf end: 4 - 1/10^15 at n = -500
    with pytest.raises(NumericsError, match=r"s -> inf end .* of n=-500's branch"):
        invert(-500, 4 * 10**15 - 1, 10**15)
    # other n keep a positive s that close to the s -> 0 end, and n = -100
    # keeps a finite s that close to the s -> inf end (its two-sided steps
    # stop short of it)
    for n, p, q in ((-3, 1, 10**17), (6, 1, 10**17), (-100, 4 * 10**15 - 1, 10**15)):
        smp, _ = invert(n, p, q)
        assert smp.s > 0.0 and abs(g_eval(n, smp.s).g - p / q) <= slopes.DEFAULT_TOL_G


def test_branch_point_with_t_one_is_numerics():
    # at |n| >= 2^55 T rounds to 2.0 near s = 0, so t = 1 and log(t) = 0
    with pytest.raises(NumericsError, match=r"t = 1.0 is not > 1 at n=4611686018427387904"):
        g_eval(2**62, 1e-18)
    with pytest.raises(NumericsError, match=r"t = 1.0 is not > 1 at n=36028797018963968"):
        invert(2**55, 1, 2)


def test_longitude_entry_rounding_to_one_is_numerics():
    # B < 1 for every s > 0; below the float resolution of the s -> 0 end
    # it rounds to 1 and g reads -0.0, a breakdown, not a sample
    for n, s in ((1, 1e-17), (2, 1e-16), (1, 5e-324)):
        with pytest.raises(NumericsError, match=rf"B = 1.0 is not < 1 at n={n}, s={s}"):
            g_eval(n, s)
    # invert's final sample is a g_eval, so a root there is refused too
    with pytest.raises(NumericsError, match=r"B = 1.0 is not < 1 at n=-10,"):
        invert(-10, 1, 10**17)
    # at n = -1000 the steps stop at an s where B is still below 1
    smp, _ = invert(-1000, 1, 10**17)
    assert abs(g_eval(-1000, smp.s).g - 1e-17) <= slopes.DEFAULT_TOL_G


def test_slope_limits():
    # the map runs from 0 to 4 as s sweeps the positive axis
    assert g_eval(1, 1e-6).g < 0.005
    assert g_eval(1, 1e6).g > 3.995


@pytest.mark.parametrize("n, p, q", [(2, 3, 2), (-3, 7, 2), (1, 1, 1), (4, 5, 3)])
def test_invert_cold_and_warm_agree(
    n, p, q, g_eval_calls, root_calls, branch_calls, branch_records
):
    # invert keeps no state, so a repeated call repeats the first one exactly
    results = []
    for _ in range(2):
        g_eval_calls[0] = root_calls[0] = branch_calls[0] = branch_records[0] = 0
        smp, report = invert(n, p, q)
        assert abs(smp.g - p / q) <= 1e-12
        # the theta steps solve nothing; the one root is the returned sample,
        # taken from g_eval's core on the record invert formed for its steps
        assert g_eval_calls[0] == 0
        assert root_calls[0] == 1
        assert branch_records[0] == 1
        # each step makes one branch point and the result one more
        assert 0 < branch_calls[0] - 1 < 30
        assert report.evaluations == branch_calls[0]
        results.append((smp, report))
    assert results[1] == results[0]


def test_invert_refuses_a_jump(monkeypatch, branch_calls):
    # g steps from 1 to 3 at s = 2, at every branch point and at the result:
    # the limits 0 and 4 bracket 2/1, but no s attains it
    def jumping_slope(n, s, t):
        return 0.5, 1.0 if s < 2.0 else 3.0

    monkeypatch.setattr(slopes, "_slope", jumping_slope)
    with pytest.raises(NonConvergence, match="g jumps across the target") as exc:
        invert(2, 2, 1)
    assert " at n=2 " in str(exc.value)
    # ITP collapses the bracket in theta onto the jump, well inside the cap
    assert 0 < branch_calls[0] - 1 < kernels.ITP_MAX_ITER
    where = float(str(exc.value).split("bracket around s = ")[1].split()[0])
    assert where == pytest.approx(2.0, rel=1e-12)


def test_invert_iteration_cap(monkeypatch):
    # n = 1 solves in closed form, so the cap binds only invert's own loop,
    # which needs 8 steps in theta for 3/2
    monkeypatch.setattr(kernels, "ITP_MAX_ITER", 3)
    with pytest.raises(NonConvergence, match="3-iteration cap"):
        invert(1, 3, 2)


@pytest.mark.parametrize("n, p, q, err", [(0, 1, 1, DomainError), (2.0, 1, 1, DomainError)])
def test_invert_errors_are_not_cached(n, p, q, err):
    for _ in range(2):
        with pytest.raises(err):
            invert(n, p, q)


EXTREME_SLOPES = (
    [(1, 10**k) for k in range(1, 9)]
    + [(4 * 10**k - 1, 10**k) for k in range(1, 9)]
    + [(355, 113)]
)


@pytest.mark.parametrize("n", [2, -3, 6, -6])
def test_invert_extreme_slopes(n, branch_calls):
    # g's limits 0 and 4 bracket slopes as close to either end as 1e-8; the
    # measured worst |g - p/q| is 9.6e-11 and the most theta steps 32
    lo, hi = solver.branch_interval(n)
    # a measured gate: ITP may take kernels.ITP_N0 steps more than bisection
    # to float resolution, yet on this set it never takes more than one
    steps = math.ceil(math.log2((hi - lo) / (4.0 * math.ulp(hi)))) + 2
    for p, q in EXTREME_SLOPES:
        branch_calls[0] = 0
        smp, report = invert(n, p, q)
        assert abs(smp.g - p / q) <= slopes.DEFAULT_TOL_G, (n, p, q)
        assert report.evaluations == branch_calls[0] <= steps + 1, (n, p, q)
