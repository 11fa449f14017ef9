"""The library's error contract and its caches.

Every public function of solver, slopes, rep, cover, exactpoly and errors
either returns or refuses with DomainError (a bad argument) or NumericsError
(a numerical failure); any other exception escaping one is a defect, and
perfbench counts it as a wrong output.
"""

import importlib
import inspect
import math
import pkgutil
import sys

import pytest

import twistcover
import twistcover.cover as cover
import twistcover.errors as errors
import twistcover.exactpoly as exactpoly
import twistcover.rep as rep
import twistcover.slopes as slopes
import twistcover.solver as solver
from twistcover import DomainError, NumericsError

# 10^5000 is past the 4300 digits at which str() of an int raises, so a
# refusal that formats it with str would escape as a bare ValueError
HUGE = (10**400, -(10**400), 10**5000, -(10**5000))
# "abc", None and 1j are no numbers at all: float() and Fraction() raise a
# bare ValueError or TypeError for them
BAD_VALUES = (math.nan, math.inf, -math.inf, 0, -1, 2.5, True, "abc", None, 1j) + HUGE

_SOL = solver.solve(2, 1.0)
_XT, _YT, _ = cover.lift_generators(2, _SOL)

# function -> (valid arguments, the numeric arguments fed BAD_VALUES one at a
# time, the numeric arguments whose work grows with their size by design and
# so are fed every bad value but HUGE)
CONTRACT = {
    errors.is_int: (dict(value=2), "value", ""),
    errors.check_n: (dict(n=2), "n", ""),
    errors.as_float: (dict(name="s", value=1.0), "value", ""),
    errors.check_positive: (dict(name="s", value=1.0), "value", ""),
    solver.tau_num: (dict(m=3, trace=1.5), "m trace", ""),
    solver.phi_num: (dict(n=2, s=1.0, T=3.5), "n s T", ""),
    solver.t_from_T: (dict(T=2.5), "T", ""),
    solver.branch_interval: (dict(n=2), "n", ""),
    solver.branch_point: (dict(n=2, theta=1.7), "n theta", ""),
    solver.solve: (dict(n=2, s=1.0), "n s", ""),
    slopes.g_eval: (dict(n=2, s=1.0), "n s", ""),
    slopes.scan: (dict(n=2, s_min=0.5, s_max=2.0, samples=3), "n s_min s_max samples", ""),
    slopes.invert: (dict(n=2, p=3, q=2), "n p q", ""),
    rep.gen_matrices: (dict(s=1.0, t=3.0), "s t", ""),
    rep.w_word: (dict(n=2), "", "n"),
    rep.w_rev_word: (dict(n=2), "", "n"),
    rep.longitude_word: (dict(n=2), "", "n"),
    rep.relator_word: (dict(n=2), "", "n"),
    rep.longitude_holonomy: (dict(s=1.0, t=3.0), "s t", ""),
    cover.cover_pow: (dict(a=_XT, k=3), "k", ""),
    cover.lift_generators: (dict(n=2, sol=_SOL), "n", ""),
    cover.lifted_longitude: (dict(n=2, xt=_XT, yt=_YT), "n", ""),
    cover.certificate: (dict(n=2, p=3, q=2), "n p q", ""),
    exactpoly.tau_poly: (dict(m=3), "", "m"),
    exactpoly.riley_poly: (dict(n=2), "", "n"),
    exactpoly.tau_exact: (dict(m=3, K=1), "K", "m"),
    exactpoly.phi_exact: (dict(n=2, s=1, T=3), "s T", "n"),
}

# public functions whose arguments are all records, Mat2s, CoverElems or
# words, or that take none
NO_NUMERIC_ARGUMENT = {
    rep.max_abs_diff, rep.word_eval, cover.to_su11, cover.from_su11,
    cover.su11_mul, cover.su11_dist, cover.chart, cover.unchart,
    cover.cover_mul, cover.cover_inv, cover.cover_word,
}


def _public_functions():
    for mod in (solver, slopes, rep, cover, exactpoly, errors):
        for name, value in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(value):
                if value.__module__ == mod.__name__:
                    yield value


def test_the_contract_table_covers_every_public_function():
    assert set(_public_functions()) == set(CONTRACT) | NO_NUMERIC_ARGUMENT


def _calls():
    for fn, (valid, numeric, growing) in CONTRACT.items():
        for arg in numeric.split():
            for value in BAD_VALUES:
                yield fn, {**valid, arg: value}
        for arg in growing.split():
            for value in BAD_VALUES:
                if value not in HUGE:
                    yield fn, {**valid, arg: value}


def test_each_call_returns_or_refuses_by_the_contract():
    # 598 calls, most of them refusals: a few milliseconds in all; the count
    # is exact, so a row that stops yielding its calls is seen
    calls = 0
    for fn, kwargs in _calls():
        try:
            fn(**kwargs)
        except (DomainError, NumericsError):
            pass
        except Exception as exc:
            pytest.fail(f"{fn.__module__}.{fn.__name__}(**{kwargs!r}) raised {exc!r}")
        calls += 1
    assert calls == 598


def test_arguments_beyond_double_range_have_one_refusal():
    # an integer too large for a float is the NumericsError of
    # errors._too_large, naming the argument and giving its bit length
    n = 10**400
    for call, name in (
        (lambda: solver.tau_num(n, 1.5), "m"),
        (lambda: solver.phi_num(n, 1.0, 3.5), "n"),
        (lambda: solver.phi_num(2, 1.0, n), "T"),
        (lambda: solver.solve(-n, 1.0), "n"),
        (lambda: solver.solve(2, n), "s"),
        (lambda: slopes.scan(2, 1.0, n, 3), "s_max"),
        (lambda: slopes.scan(2, 1.0, 2.0, n), "samples"),
        (lambda: rep.longitude_holonomy(1.0, n), "t"),
        (lambda: solver.branch_point(2, n), "theta"),
    ):
        with pytest.raises(NumericsError) as exc:
            call()
        assert str(exc.value) == (
            f"{name} is too large for double precision: |{name}| has 1329 bits"
        )


BEYOND_STR = 10**5000


@pytest.mark.parametrize(
    "n, p, q, cls, text",
    [
        (2, 1, BEYOND_STR, NumericsError,
         "slope 1/<integer of 16610 bits> lies in (0, 4) but rounds to 0.0"),
        (2, BEYOND_STR, 3, DomainError,
         "slope <integer of 16610 bits>/3 is outside the certified open interval"),
        (2, 1, -BEYOND_STR, DomainError,
         "q must be a positive integer, got -<integer of 16610 bits>"),
        (2, 2 * BEYOND_STR, 2, DomainError,
         "p/q must be in lowest terms, got <integer of 16611 bits>/2"),
    ],
    # pytest's own ids would format the integers with str
    ids=["rounds to 0", "outside (0, 4)", "q negative", "not reduced"],
)
def test_integers_beyond_str_are_named_by_bit_length(n, p, q, cls, text):
    # str() of an int past 4300 digits raises ValueError; the refusals of
    # invert, and so of certificate, name such an integer by its bit length
    for fn in (slopes.invert, cover.certificate):
        with pytest.raises(cls) as exc:
            fn(n, p, q)
        assert str(exc.value).startswith(text), fn


def test_the_closure_stage_names_a_huge_slope_by_bit_length():
    # invert accepts r = 1 + 10^-5000, which rounds to 1.0; x^p then leaves
    # the chart, and the closure stage names p and q by their bit lengths
    with pytest.raises(NumericsError) as exc:
        cover.certificate(2, BEYOND_STR + 1, BEYOND_STR)
    assert str(exc.value).startswith(
        "closure of x^<integer of 16610 bits> L^<integer of 16610 bits> at n=2, "
        "r=<integer of 16610 bits>/<integer of 16610 bits>, s*="
    )


def test_ordinary_integers_keep_their_digits():
    # the closure stage names every integer that str formats by its digits
    big = 2**64 + 1
    assert errors._int_text(-(10**400)) == str(-(10**400))
    assert errors._int_text(-BEYOND_STR) == "-<integer of 16610 bits>"
    assert cover._closure_stage(-3, 7, 2, 0.5) == "closure of x^7 L^2 at n=-3, r=7/2, s*=0.5"
    want = f"closure of x^{big} L^1 at n=2, r={big}/1, s*=0.5"
    assert cover._closure_stage(2, big, 1, 0.5) == want


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit"
)
def test_the_closure_stage_follows_the_digit_limit():
    # with str's limit lowered to 640 digits, an integer of 700 digits is
    # named by its bit length and one of 600 digits still by its digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        over = cover._closure_stage(2, 10**700, 1, 0.5)
        under = cover._closure_stage(2, 10**600, 1, 0.5)
    finally:
        sys.set_int_max_str_digits(limit)
    assert over.startswith("closure of x^<integer of 2326 bits> L^1 at n=2, r=<integer")
    assert under == f"closure of x^{10**600} L^1 at n=2, r={10**600}/1, s*=0.5"


def test_the_package_caches_are_the_grid_work():
    # the branch record and the lift frame are formed per call and handed
    # down, and tau_poly walks afresh on every call; the caches left hold
    # verify's grids
    for info in pkgutil.iter_modules(twistcover.__path__):
        importlib.import_module(f"twistcover.{info.name}")
    cached = set()
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("twistcover") and mod is not None:
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    cached.add(f"{value.__module__}.{value.__qualname__}")
    assert cached == {
        "twistcover.checks.grid_solutions",
        "twistcover.checks.grid_lifts",
    }
