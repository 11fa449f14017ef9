"""Command line surface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistcover
from twistcover import __version__
from twistcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ("solve", "--n", "2", "--s", "1", "--tol-T", "inf"),
        ("certify", "--n", "2", "--r", "7/2", "--tol-cert", "nan"),
        ("certify", "--n", "2", "--r", "7/2", "--tol-cert", "inf"),
        ("slope", "--n", "2", "--r", "3/2", "--tol-g", "nan"),
        ("slope", "--n", "2", "--s", "inf"),
        ("scan", "--n", "2", "--s-min", "1", "--s-max", "inf", "--samples", "3"),
    ],
)
def test_nonfinite_inputs_are_domain_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


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
    assert data["brackets"] and data["evaluations"] > 0


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
    code, _, err = run(capsys, "certify", "--n", "1", "--r", "4/1")
    assert code == 1
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


# Full stdout of three commands, captured once; the CLI promises byte-identical
# output for identical inputs, so any drift in a digit or a field is a change.
GOLDEN_STDOUT = {
    "solve --n 2 --s 1": """\
{
  "version": "0.1.0",
  "n": 2,
  "s": 1.0,
  "T": 5.280776406404408,
  "t": 5.084084146565323,
  "trace_W": -0.28077640640440826,
  "theta": 1.7116498168299619,
  "phi_residual": -2.8199664825478976e-14,
  "iterations": 46
}
""",
    "slope --n 2 --r 3/2": """\
{
  "version": "0.1.0",
  "n": 2,
  "p": 3,
  "q": 2,
  "s_star": 1.1154183219884457,
  "T": 5.175461064137046,
  "t": 4.974433133273718,
  "B": 0.3002218536431868,
  "g": 1.4999999996171036,
  "brackets": [
    [
      1.084145868935835,
      1.1753722651306366
    ]
  ],
  "evaluations": 427
}
""",
    "certify --n -3 --r 7/2": """\
{
  "version": "0.1.0",
  "n": -3,
  "p": 7,
  "q": 2,
  "s_star": 2.1505522549842464,
  "t": 4.151062039482287,
  "B": 0.08283642688498666,
  "gamma_x": 0.6117305548505853,
  "gamma_L": -0.9863697815979305,
  "relator_residual": 2.3412363485908135e-14,
  "longitude_omega": 1.657726587246115e-14,
  "final_gamma_abs": 1.0151751968706233e-09,
  "final_omega": -3.1746031914151872e-12,
  "tol_slope": 1e-09,
  "tol_certificate": 1e-06
}
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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "2"])  # missing --s
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "UsageError" in err


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


def test_entry_point_subprocess():
    # the child imports the same package as this process, installed or not
    path = [str(Path(twistcover.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    out = subprocess.run(
        [sys.executable, "-m", "twistcover.cli", "riley", "--n", "-2", "--format", "csv"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "s_deg,T_deg,coeff"
