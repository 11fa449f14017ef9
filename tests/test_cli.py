"""Command line surface: formats, exit codes, determinism."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistcover
from twistcover import __version__, checks, cover, scan
from twistcover.cli import main


def _reject_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def run(capsys, *argv):
    """Exit code, stdout and stderr of one CLI call; every JSON document it
    writes must be valid JSON, so Infinity and NaN fail the test."""
    code = main(list(argv))
    captured = capsys.readouterr()
    for text in (captured.out, captured.err):
        if text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)
    return code, captured.out, captured.err


def run_child(*argv):
    """Run a fresh interpreter that imports the same package as this
    process, installed or not, under another PYTHONHASHSEED: "0" (no hash
    randomization), or "1" where this process runs under "0"."""
    path = [str(Path(twistcover.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p), "PYTHONHASHSEED": seed}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_both(capsys, argv):
    """run() in this process and the same argv in a fresh `python -W error
    -m twistcover.cli`; the two must agree byte for byte on exit code,
    stdout and stderr."""
    got = run(capsys, *argv)
    child = run_child("-W", "error", "-m", "twistcover.cli", *argv)
    assert (child.returncode, child.stdout, child.stderr) == got, argv
    return got


def test_riley_json_golden(capsys):
    code, out, err = run(capsys, "riley", "--n", "1")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["n"] == 1
    assert data["terms"] == [
        {"s_deg": 0, "T_deg": 0, "coeff": "3"},
        {"s_deg": 1, "T_deg": 0, "coeff": "3"},
        {"s_deg": 2, "T_deg": 0, "coeff": "1"},
        {"s_deg": 0, "T_deg": 1, "coeff": "-1"},
        {"s_deg": 1, "T_deg": 1, "coeff": "-1"},
    ]


def test_riley_csv_golden(capsys):
    code, out, err = run(capsys, "riley", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "s_deg,T_deg,coeff",
        "0,0,5",
        "1,0,12",
        "2,0,11",
        "3,0,5",
        "4,0,1",
        "0,1,-2",
        "1,1,-7",
        "2,1,-6",
        "3,1,-2",
        "1,2,1",
        "2,2,1",
    ]


def test_solve_json(capsys):
    code, out, err = run(capsys, "solve", "--n", "2", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert data["T"] == pytest.approx((17 + 17**0.5) / 4, abs=1e-10)
    assert data["t"] == pytest.approx(5.084084146565323, abs=1e-10)


@pytest.mark.parametrize("s", ["1e13", "1e14", "1e20"])
def test_solve_large_s_finds_the_root(capsys, s):
    # the search runs in theta, to float resolution, whatever the size of s
    code, out, err = run(capsys, "solve", "--n", "2", "--s", s)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["iterations"] > 0
    assert abs(data["phi_residual"]) <= 1e-12


def test_solve_text_format(capsys):
    code, out, err = run(capsys, "solve", "--n", "2", "--s", "1", "--format", "text")
    assert code == 0
    assert any(line.startswith("T = ") for line in out.splitlines())


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "solve", "--n", "0", "--s", "1")
    assert code == 1 and out == ""
    data = json.loads(err)
    assert data["error"] == "DomainError"
    assert "n must not be 0 or -1" in data["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "2", "--s", "inf"),
        ("slope", "--n", "2", "--s", "inf"),
        ("scan", "--n", "2", "--s-min", "1", "--s-max", "inf", "--samples", "3"),
    ],
)
def test_nonfinite_inputs_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "2", "--s", "5e-324"),  # delta/s overflows T
        ("solve", "--n", "2", "--s", "1e300"),  # T*T overflows t
        ("solve", "--n", "1", "--s", "1e300"),
        # g_eval shares solve's root, so it fails the same way
        ("slope", "--n", "2", "--s", "5e-324"),
        ("slope", "--n", "2", "--s", "1e300"),
        ("slope", "--n", "1", "--s", "1e300"),
    ],
)
def test_nonfinite_solutions_are_numerics_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == "NumericsError"
    assert f"n={argv[2]}" in data["message"] and f"s={float(argv[4])}" in data["message"]


# The CLI contract, defined once: run_both runs each command below in this
# process and in a fresh interpreter, and the two must agree byte for byte.
# RERUNS exit 0 and reach every writer: verify, the root finder's work counts
# (solve, slope), certify at the certify set's largest |n|, scan on invert's
# window, riley's CSV and text, and the key = value text.  REFUSALS are float
# resolution limits: exit 2 with one NumericsError that names the limit.
RERUNS = (
    "verify",
    "verify --format json",
    "solve --n 2 --s 1",
    "solve --n 2 --s 1 --format text",
    "slope --n 2 --r 3/2",
    "certify --n -20 --r 41/12",
    "certify --n -3 --r 7/2 --format text",
    "scan --n 6 --s-min 1e-6 --s-max 1e8 --samples 400 --format csv",
    "scan --n 6 --s-min 1e-6 --s-max 1e8 --samples 400 --format json",
    "riley --n 6 --format csv",
    "riley --n -4 --format text",
)
# the one refusal row raised as a subclass of NumericsError
RELATOR_ROUNDING = ("certify", "--n", "3", "--r", "3999/1000")
REFUSALS = (
    # a slope inside (0, 4) whose p / q rounds onto an end
    (("slope", "--n", "2", "--r", "1/1" + "0" * 400), "rounds to 0.0"),
    (("slope", "--n", "2", "--r", "399999999999999999999/100000000000000000000"), "rounds to 4.0"),
    # T rounds to 2, so t = 1
    (("certify", "--n", str(2**55), "--r", "1/2"), "t = 1.0 is not > 1"),
    (("slope", "--n", str(2**62), "--s", "1e-18"), "t = 1.0 is not > 1"),
    # invert's root in theta rounds onto an end of the branch, where the
    # closed form gives s <= 0
    (("slope", "--n", "2", "--r", "1/" + "1" + "0" * 17), "rounds onto the s -> 0 end"),
    (("slope", "--n", "2", "--r", "1/" + "1" + "0" * 21), "rounds onto the s -> 0 end"),
    (("certify", "--n", "2", "--r", "1/" + "1" + "0" * 17), "rounds onto the s -> 0 end"),
    (("slope", "--n", "-500", "--r", "3999999999999999/1" + "0" * 15), "rounds onto the s -> inf end"),
    # B rounds to 1, where g would read -0.0
    (("slope", "--n", "1", "--s", "1e-17"), "B = 1.0 is not < 1 at n=1, s=1e-17"),
    (("slope", "--n", "2", "--s", "1e-16"), "B = 1.0 is not < 1 at n=2, s=1e-16"),
    # at the s of invert's final sample, which names the slope
    (
        ("slope", "--n", "-10", "--r", "1/" + "1" + "0" * 17),
        "slope 1/100000000000000000: longitude entry B = 1.0 is not < 1 at n=-10",
    ),
    # at an s* near 1e9 the float generator Y misses determinant 1
    (
        ("certify", "--n", "2", "--r", "39999999999/10000000000"),
        "generator lift at n=2, s=966681660.3508468 failed by rounding",
    ),
    # |gamma| of x^15, a partial product of x^47's power, rounds onto the
    # unit circle
    (("certify", "--n", "2", "--r", "47/12"), "closure of x^47 L^12 at n=2"),
    # n = +-10^400 does not convert to a float
    *(
        (argv, "n is too large for double precision: |n| has 1329 bits")
        for big in ("1" + "0" * 400, "-1" + "0" * 400)
        for argv in (
            ("solve", "--n", big, "--s", "1"),
            ("scan", "--n", big, "--s-min", "1", "--s-max", "2", "--samples", "3"),
            ("certify", "--n", big, "--r", "1/2"),
        )
    ),
    # t - s - 1 cancels, so B's numerator rounds below 0 (s = 1e16 gives g = 4.0)
    (("slope", "--n", "2", "--s", "3e16"), "B = -1.111111111111111e-33 not positive at n=2, s=3e+16"),
    # samples = +-10^400 does not convert to a float either, and scan's log
    # grid divides by it
    *(
        (
            ("scan", "--n", "2", "--s-min", "1", "--s-max", "2", "--samples", big),
            "samples is too large for double precision: |samples| has 1329 bits",
        )
        for big in ("1" + "0" * 400, "-1" + "0" * 400)
    ),
    # the squaring lift's rounding carries the relator past the lift
    # tolerance at s* = 500.8, although phi_3 changes sign exactly across
    # solve's T +- 1 ulp there
    (RELATOR_ROUNDING, "residual 3.340e-05 > DEFAULT_LIFT_TOL = 1e-05"),
    # at an s* near 1.6e6 the lifted relator's w^-n rounds onto the unit
    # circle: an element of the lift frame, so not a bad argument
    (
        ("certify", "--n", "3", "--r", "29370411/7342603"),
        "generator lift at n=3, s=1598541.5512155106 failed by rounding: "
        "cover composition left the chart",
    ),
    # the lifted longitude's gamma misses its holonomy value by rounding
    (
        ("certify", "--n", "-2", "--r", "16385/4097"),
        "closure of x^16385 L^4097 at n=-2, r=16385/4097, s*=449.3458469799335 "
        "failed: lifted longitude gamma = ",
    ),
    (
        ("certify", "--n", "20", "--r", "8195/2049"),
        "closure of x^8195 L^2049 at n=20, r=8195/2049, s*=55.086813478034266 "
        "failed: lifted longitude gamma = ",
    ),
)


@pytest.mark.parametrize("command", RERUNS)
def test_reruns_agree_in_a_fresh_interpreter(capsys, command):
    code, out, err = run_both(capsys, command.split())
    assert code == 0 and err == "" and out.endswith("\n")
    if command == "verify --format json":
        # run() has already refused NaN and Infinity
        data = json.loads(out)
        assert data["all_passed"] is True and len(data["results"]) == len(checks.ALL_CHECKS)


@pytest.mark.parametrize("argv, text", REFUSALS)
def test_float_resolution_limits_are_numerics_errors(capsys, argv, text):
    code, out, err = run_both(capsys, argv)
    assert code == 2 and out == ""
    data = json.loads(err)
    error = "RelatorNotCentral" if argv == RELATOR_ROUNDING else "NumericsError"
    assert data["error"] == error and text in data["message"]


def test_slope_requires_exactly_one_target(capsys):
    code, _, err = run(capsys, "slope", "--n", "2")
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"
    code, _, err = run(capsys, "slope", "--n", "2", "--s", "1", "--r", "1/2")
    assert code == 1


def test_slope_forward(capsys):
    code, out, _ = run(capsys, "slope", "--n", "1", "--s", "1")
    assert code == 0
    data = json.loads(out)
    assert data["g"] == pytest.approx(2.6070663536573102, abs=1e-13)


def test_slope_inverse(capsys):
    code, out, _ = run(capsys, "slope", "--n", "2", "--r", "3/2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["g"] - 1.5) <= 1e-9
    assert "brackets" not in data and data["evaluations"] > 1


def test_slope_bare_integer_is_over_one(capsys):
    code, out, err = run(capsys, "slope", "--n", "2", "--r", "3")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert (data["p"], data["q"]) == (3, 1)
    assert run(capsys, "slope", "--n", "2", "--r", "3/1")[1] == out


def test_slope_rejects_unreduced_fraction(capsys):
    code, _, err = run(capsys, "slope", "--n", "2", "--r", "2/4")
    assert code == 1
    assert "lowest terms" in json.loads(err)["message"]


def test_slope_rejects_nonnumeric_fraction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["slope", "--n", "2", "--r", "a/b"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "UsageError" in err


def test_certify_out_of_range_slope(capsys):
    # 10^400 / 1 overflows a float; the interval is decided on the integers
    for r in ("4/1", "1" + "0" * 400):
        code, out, err = run(capsys, "certify", "--n", "1", "--r", r)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "SlopeOutOfRange"


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--n", "2", "--r", "1/1")
    assert code == 0
    data = json.loads(out)
    assert data["version"] == __version__
    assert data["final_gamma_abs"] < 1e-6
    assert abs(data["final_omega"]) < 1e-6
    code2, out2, _ = run(capsys, "certify", "--n", "2", "--r", "1/1")
    assert out2 == out  # byte-identical rerun


def test_certify_json_stable(capsys):
    code, blob, _ = run(capsys, "certify", "--n", "-2", "--r", "1/2")
    assert code == 0
    assert blob == run(capsys, "certify", "--n", "-2", "--r", "1/2")[1]
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


def test_certify_text_matches_json(capsys):
    # both formats print the certificate's _asdict(), version first
    code, out, _ = run(capsys, "certify", "--n", "-3", "--r", "7/2")
    assert code == 0
    code, text, _ = run(capsys, "certify", "--n", "-3", "--r", "7/2", "--format", "text")
    assert code == 0
    pairs = [tuple(line.split(" = ", 1)) for line in text.splitlines()]
    assert pairs == [(k, str(v)) for k, v in json.loads(out).items()]
    assert pairs[0] == ("version", __version__) and len(pairs) == 15


# Full stdout of six commands, captured once; the CLI promises byte-identical
# output for identical inputs, so any drift in a digit or a field is a change.
# The solve, slope --s and scan payloads are the records' _asdict(), so these
# also pin the records' field order.
GOLDEN_STDOUT = {
    "solve --n 2 --s 1": """\
{
  "version": "0.1.0",
  "n": 2,
  "s": 1.0,
  "T": 5.280776406404415,
  "t": 5.08408414656533,
  "trace_W": -0.28077640640441537,
  "theta": 1.7116498168299654,
  "phi_residual": 8.881784197001252e-16,
  "iterations": 7
}
""",
    "slope --n 2 --r 3/2": """\
{
  "version": "0.1.0",
  "n": 2,
  "p": 3,
  "q": 2,
  "s_star": 1.1154183222724732,
  "T": 5.175461063932209,
  "t": 4.974433133060254,
  "B": 0.30022185356063963,
  "g": 1.4999999999999947,
  "evaluations": 11
}
""",
    "certify --n -3 --r 7/2": """\
{
  "version": "0.1.0",
  "n": -3,
  "p": 7,
  "q": 2,
  "s_star": 2.15055225321013,
  "t": 4.151062037865561,
  "B": 0.08283642698345964,
  "gamma_x": 0.611730554728722,
  "gamma_L": -0.9863697815657465,
  "relator_residual": 2.1414556042597855e-14,
  "longitude_omega": 1.5265566588595902e-14,
  "final_gamma_abs": 1.5598082048888075e-11,
  "final_omega": -1.5581138179494322e-11,
  "tol_slope": 1e-09,
  "tol_certificate": 1e-06
}
""",
    "slope --n 2 --s 1": """\
{
  "version": "0.1.0",
  "n": 2,
  "s": 1.0,
  "T": 5.280776406404415,
  "t": 5.08408414656533,
  "B": 0.33639043786708306,
  "g": 1.3399825230072273
}
""",
    "scan --n 2 --s-min 0.5 --s-max 2 --samples 3 --format json": """\
{
  "version": "0.1.0",
  "n": 2,
  "rows": [
    {
      "s": 0.5,
      "T": 6.860920843432739,
      "t": 6.71193245496036,
      "B": 0.5747673896106675,
      "g": 0.5817465923598477
    },
    {
      "s": 1.0,
      "T": 5.280776406404415,
      "t": 5.08408414656533,
      "B": 0.33639043786708306,
      "g": 1.3399825230072273
    },
    {
      "s": 2.0,
      "T": 5.193712943361397,
      "t": 4.993450624746654,
      "B": 0.14258944572201815,
      "g": 2.4224275451000246
    }
  ]
}
""",
    "solve --n 2 --s 1 --format text": """\
version = 0.1.0
n = 2
s = 1.0
T = 5.280776406404415
t = 5.08408414656533
trace_W = -0.28077640640441537
theta = 1.7116498168299654
phi_residual = 8.881784197001252e-16
iterations = 7
""",
}


@pytest.mark.parametrize("command", GOLDEN_STDOUT)
def test_stdout_golden(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert out == GOLDEN_STDOUT[command]


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--n", "1", "--s-min", "1", "--s-max", "2", "--samples", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,T,t,B,g"
    assert lines[1] == "1,3.5,3.1861406616345072,0.22078900754823924,2.6070663536573102"
    code2, out2, _ = run(capsys, "scan", "--n", "1", "--s-min", "1", "--s-max", "2", "--samples", "2", "--format", "csv")
    assert out2 == out


def test_scan_csv_format(capsys):
    rows = scan(1, 0.5, 2.0, 3)
    code, text, _ = run(capsys, "scan", "--n", "1", "--s-min", "0.5", "--s-max", "2", "--samples", "3", "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "s,T,t,B,g"
    assert len(lines) == 4
    assert text.endswith("\n")
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row.s
        assert float(cells[1]) == row.T
        assert float(cells[2]) == row.t
        assert float(cells[3]) == row.B
        assert float(cells[4]) == row.g  # %.17g round-trips exactly


def test_riley_terms_order(capsys):
    code, out, _ = run(capsys, "riley", "--n", "2")
    assert code == 0
    terms = json.loads(out)["terms"]
    keys = [(d["T_deg"], d["s_deg"]) for d in terms]
    assert keys == sorted(keys)
    assert all(isinstance(d["coeff"], str) for d in terms)


@pytest.mark.parametrize(
    "r, error",
    [
        # x^19 at s* has |gamma| = tanh(19 log sqrt(t)), which rounds to 1
        ("19/5", "NumericsError"),
        # the lifted x^11 L^3 misses (0, 0) by |gamma| = 9.012e-04
        ("11/3", "CertificateFailed"),
    ],
)
def test_closure_failure_exits_2(capsys, r, error):
    code, out, err = run(capsys, "certify", "--n", "2", "--r", r)
    assert code == 2 and out == ""
    data = json.loads(err)
    assert data["error"] == error
    p, q = r.split("/")
    assert f"closure of x^{p} L^{q}" in data["message"]
    assert "n=2" in data["message"] and f"r={r}" in data["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--n", "2"),  # missing --s
        # bounds are constants, not options
        ("solve", "--n", "2", "--s", "1", "--tol-T", "1e-15"),
        ("slope", "--n", "2", "--r", "3/2", "--tol-g", "1e-12"),
        ("certify", "--n", "2", "--r", "7/2", "--tol-cert", "0.5"),
        # an empty denominator is not an integer; bare "3" is 3/1
        ("certify", "--n", "2", "--r", "3/"),
        ("slope", "--n", "2", "--r", "3/"),
    ],
)
def test_usage_error_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "UsageError" in captured.err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json_fail_closed_writes_null(capsys, monkeypatch):
    # a suite that fails closed records worst = inf; the JSON document must
    # stay valid and carry null for it
    def failing_suite():
        return checks._fold("fails_closed", 1.0, [(math.inf, "case 0")])

    monkeypatch.setattr(checks, "ALL_CHECKS", (failing_suite,))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 2
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["results"] == [
        {"name": "fails_closed", "passed": False, "worst": None, "bound": 1.0, "where": "case 0"}
    ]
    assert data["all_passed"] is False
    code, out, _ = run(capsys, "verify")
    assert code == 2 and out.startswith("FAIL  fails_closed: worst inf vs bound")


def test_verify_reports_every_suite_when_one_raises(capsys, monkeypatch):
    # a lift tolerance no residual meets makes lift_generators raise inside
    # several suites; each of them fails and the rest still run
    monkeypatch.setattr(cover, "DEFAULT_LIFT_TOL", 1e-30)
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 2
    data = json.loads(out, parse_constant=_reject_constant)
    results = {r["name"]: r for r in data["results"]}
    assert len(data["results"]) == len(results) == len(checks.ALL_CHECKS) == 18
    lift = results["lift_relator_residual"]
    assert not lift["passed"] and lift["worst"] is None and lift["bound"] is None
    assert lift["where"].startswith("RelatorNotCentral: lifted relator at n=")
    assert results["riley_T_degree"]["passed"]
    assert data["all_passed"] is False
    code, out, _ = run(capsys, "verify")
    lines = out.splitlines()
    assert code == 2 and len(lines) == 19
    assert "FAIL  lift_relator_residual: worst inf vs bound nan  [RelatorNotCentral" in out
    assert lines[0].startswith("PASS  riley_T_degree")


def test_entry_point_subprocess():
    out = run_child("-m", "twistcover.cli", "riley", "--n", "-2", "--format", "csv")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "s_deg,T_deg,coeff"


def test_import_leaves_out_dataclasses_and_inspect():
    # the records are namedtuples, so importing the CLI loads neither module
    probe = "import sys, twistcover.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = run_child("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_runtime_dependencies():
    # the package runs on the standard library alone; modules that site hooks
    # load at interpreter start are not the package's, so they are subtracted
    listing = "import sys; print(sorted(sys.modules))"
    bare = run_child("-c", listing)
    loaded = run_child("-c", "import twistcover.cli, twistcover.checks; " + listing)
    assert bare.returncode == 0 and loaded.returncode == 0, loaded.stderr
    added = set(ast.literal_eval(loaded.stdout)) - set(ast.literal_eval(bare.stdout))
    foreign = sorted(
        m for m in added
        if m.partition(".")[0] not in sys.stdlib_module_names | {"twistcover"}
    )
    assert foreign == []
