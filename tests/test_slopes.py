"""Slope map g and its inversion over the certified grid."""

import math

import pytest

from twistcover import (
    DomainError,
    SlopeOutOfRange,
    g_eval,
    invert,
    scan,
    scan_to_csv,
    solve,
)


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


def test_scan_validation():
    with pytest.raises(DomainError):
        scan(1, -1.0, 10.0, 5)
    with pytest.raises(DomainError):
        scan(1, 10.0, 1.0, 5)
    with pytest.raises(DomainError):
        scan(1, 1.0, 10.0, 1)


def test_scan_to_csv_format():
    rows = scan(1, 0.5, 2.0, 3)
    text = scan_to_csv(rows)
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


def test_scan_csv_frozen_row():
    rows = scan(1, 1.0, 2.0, 2)
    line = scan_to_csv(rows).splitlines()[1]
    assert line == "1,3.5,3.1861406616345072,0.22078900754823924,2.6070663536573102"


def test_invert_hits_requested_slope():
    for n, p, q in ((1, 1, 1), (2, 3, 2), (-2, 1, 2), (3, 7, 2)):
        smp, _ = invert(n, p, q)
        assert abs(smp.g - p / q) <= 1e-9, (n, p, q)
        # independent recheck through the forward map
        again = g_eval(n, smp.s)
        assert abs(again.g - p / q) <= 1e-9, (n, p, q)


def test_invert_report():
    smp, report = invert(2, 3, 2)
    assert abs(smp.g - 1.5) <= 1e-9
    assert len(report.brackets) >= 1
    lo, hi = report.brackets[0]
    assert lo < smp.s < hi
    assert report.evaluations > 0


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
    with pytest.raises(SlopeOutOfRange):
        invert(2, 0, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, -1, 2)
    with pytest.raises(SlopeOutOfRange):
        invert(2, 4, 1)
    with pytest.raises(SlopeOutOfRange):
        invert(2, 9, 2)
    with pytest.raises(DomainError):
        invert(0, 1, 1)


def test_slope_limits():
    # the map runs from 0 to 4 as s sweeps the positive axis
    assert g_eval(1, 1e-6).g < 0.005
    assert g_eval(1, 1e6).g > 3.995
