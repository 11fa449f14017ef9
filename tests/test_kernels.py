"""Kernel backends: the pure-Python reference against the compiled extension.

Every kernel has two implementations that must agree pointwise (same libm
calls in the same order), plus oracle checks that are backend independent.
"""

import math
import random
from fractions import Fraction

import pytest

from twistcover.checks import GRID_N
from twistcover.kernels import CONVERGED, FLOAT_LIMIT, ITER_CAP, compiled, pure
from twistcover.solver import bracket

needs_compiled = pytest.mark.skipif(compiled is None, reason="compiled kernels unavailable")


def cheb_oracle(m: int, x: Fraction) -> Fraction:
    """tau_m by the bare three-term recursion in exact arithmetic."""
    lo, hi = Fraction(0), Fraction(1)
    if m == 0:
        return lo
    for _ in range(abs(m) - 1):
        lo, hi = hi, x * hi - lo
    return hi if m > 0 else -hi


def test_cheb_ratio_against_exact_recursion():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(-12, 13)
        x = Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))
        want = float(cheb_oracle(m, x))
        got = pure.cheb_ratio(m, float(x))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (m, x)


def test_cheb_ratio_spot_values():
    # x = 1 is theta = pi/3: sin(5 theta)/sin(theta) = -1
    assert pure.cheb_ratio(5, 1.0) == pytest.approx(-1.0, abs=1e-12)
    # boundary x = 2: tau_m -> m
    assert pure.cheb_ratio(7, 2.0) == 7.0
    assert pure.cheb_ratio(7, -2.0) == 7.0
    # hyperbolic branch, exact integer answers
    assert pure.cheb_ratio(3, 2.5) == pytest.approx(5.25, rel=1e-14)
    assert pure.cheb_ratio(4, -2.5) == pytest.approx(-10.625, rel=1e-14)


def test_phi_delta_matches_solver_values():
    # phi in the delta chart vanishes exactly where the T-chart phi does
    from twistcover.solver import phi_num

    for n, s in ((2, 1.0), (-2, 1.0), (3, 0.5), (-4, 2.0)):
        br = bracket(n, s)
        assert math.copysign(1, pure.phi_delta(n, s, br.delta_lo)) == br.sign_lo
        assert math.copysign(1, pure.phi_delta(n, s, br.delta_hi)) == br.sign_hi
        mid = 0.5 * (br.delta_lo + br.delta_hi)
        assert pure.phi_delta(n, s, mid) == pytest.approx(
            phi_num(n, s, s + 2 + mid / s), rel=1e-9, abs=1e-12
        )


def test_bisect_statuses():
    br = bracket(2, 1.0)
    root, iters, status = pure.bisect_phi_delta(2, 1.0, br.delta_lo, br.delta_hi, 1e-13, 200)
    assert status == CONVERGED
    assert 0 < iters <= 60
    # delta = T - s - 2 at s = 1 with T = (17 + sqrt(17))/4
    assert root == pytest.approx((5 + math.sqrt(17)) / 4, rel=1e-12)

    _, _, capped = pure.bisect_phi_delta(2, 1.0, br.delta_lo, br.delta_hi, 1e-13, 3)
    assert capped == ITER_CAP

    # demanding more resolution than doubles have stops at the float limit
    _, _, limited = pure.bisect_phi_delta(2, 1.0, br.delta_lo, br.delta_hi, 0.0, 200)
    assert limited == FLOAT_LIMIT


def test_cover_compose_rejects_nonprincipal_branch():
    # inside the disk |g1*conj(g2)| < 1 keeps Re(den) > 0, so the guard can
    # only fire on invalid input; feed it some to prove it is wired up
    with pytest.raises(ValueError):
        pure.cover_compose(1.5 + 0j, 0.0, -0.9 + 0j, 0.0)


@needs_compiled
def test_parity_cheb_ratio():
    rng = random.Random(11)
    for _ in range(500):
        m = rng.randrange(-30, 31)
        x = rng.uniform(-4.0, 4.0)
        assert pure.cheb_ratio(m, x) == compiled.cheb_ratio(m, x), (m, x)
    for x in (2.0, -2.0, 2.0 + 1e-9, -2.0 - 1e-9):
        for m in range(-6, 7):
            assert pure.cheb_ratio(m, x) == compiled.cheb_ratio(m, x)


@needs_compiled
def test_parity_phi_delta():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.choice(GRID_N)
        s = 10.0 ** rng.uniform(-3, 3)
        delta = rng.uniform(0.0, 4.0)
        assert pure.phi_delta(n, s, delta) == compiled.phi_delta(n, s, delta), (n, s, delta)


@needs_compiled
def test_parity_bisect():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([m for m in GRID_N if m != 1])
        s = 10.0 ** rng.uniform(-2, 2)
        br = bracket(n, s)
        got_p = pure.bisect_phi_delta(n, s, br.delta_lo, br.delta_hi, 1e-13 * s, 200)
        got_c = compiled.bisect_phi_delta(n, s, br.delta_lo, br.delta_hi, 1e-13 * s, 200)
        assert got_p == got_c, (n, s)


@needs_compiled
def test_parity_cover_compose():
    rng = random.Random(19)
    for _ in range(500):
        def elem():
            r = rng.uniform(0.0, 0.95)
            th = rng.uniform(-math.pi, math.pi)
            return complex(r * math.cos(th), r * math.sin(th)), rng.uniform(-10, 10)

        g1, w1 = elem()
        g2, w2 = elem()
        try:
            got_p = pure.cover_compose(g1, w1, g2, w2)
        except ValueError:
            with pytest.raises(ValueError):
                compiled.cover_compose(g1, w1, g2, w2)
            continue
        got_c = compiled.cover_compose(g1, w1, g2, w2)
        assert got_p == got_c, (g1, w1, g2, w2)

