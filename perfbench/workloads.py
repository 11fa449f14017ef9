"""Seeded inputs, the timed library call, and the output checks of each
workload.

A workload holds a finite list of distinct inputs built from the seed.  A
run calls them in order and starts again from the top only if it exhausts
the list.  Each output is checked outside the timed call:

- a call that the library refuses with one of its own errors, or an output
  that breaks a bound stated below, counts as missed; the share not missed
  is the gated `ok_frac`;
- an output that misses the accuracy the library documents, or an
  exception that is not one of the library's own errors, counts as wrong
  (and as missed): a failed operation, which makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from math import exp, gcd, log, sqrt

from twistcover import checks, cover, slopes, solver
from twistcover.errors import DomainError, NumericsError
from twistcover.rep import IDENTITY2, max_abs_diff

GOLDEN = (sqrt(5.0) - 1.0) / 2.0

# The standard n grid (checks.GRID_N), fixed here so the inputs stay the
# same if the library's grid moves.
GRID_N = (-6, -5, -4, -3, -2, 1, 2, 3, 4, 5, 6)

# The bounds tests/test_acceptance.py puts on a certificate.
SLOPE_TOL = 1e-9
PROJECTION_TOL = 1e-8
CLOSURE_TOL = 1e-6

# A refusal the library documents, as opposed to a crash.
LIBRARY_ERRORS = (DomainError, NumericsError)


@dataclass
class Verdict:
    """Checked outcome of one timed call."""

    outputs: int
    missed: int = 0
    wrong: int = 0
    reasons: Counter = field(default_factory=Counter)


def golden_order(size: int, seed: int) -> list[int]:
    """0..size-1 in the order of a seeded golden-ratio walk, so that every
    prefix is spread evenly over the range."""
    u = random.Random(seed).random()
    order: list[int] = []
    seen: set[int] = set()
    for k in range(4 * size):
        i = int(((u + k * GOLDEN) % 1.0) * size)
        if i not in seen:
            seen.add(i)
            order.append(i)
    order.extend(i for i in range(size) if i not in seen)
    return order


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def error_verdict(outputs: int, exc: Exception) -> Verdict:
    wrong = 0 if isinstance(exc, LIBRARY_ERRORS) else outputs
    return Verdict(outputs, outputs, wrong, Counter({type(exc).__name__: outputs}))


class Certify:
    """cover.certificate(n, p, q) over every reduced p/q in (0, 4) with
    q <= 12 and n in the standard grid plus a few larger |n|.

    The pairs are sorted by slope, then n, and walked in golden-ratio order,
    so the pairs a run reaches cover the slope interval evenly whatever its
    length.
    """

    name = "certify"
    unit = "certificates"
    count_ops = 40

    def __init__(self, seed: int) -> None:
        ns = sorted(GRID_N + (-20, -10, 10, 20))
        fracs = sorted(
            ((p, q) for q in range(1, 13) for p in range(1, 4 * q) if gcd(p, q) == 1),
            key=lambda f: f[0] / f[1],
        )
        pairs = [(n, p, q) for p, q in fracs for n in ns]
        self.items = [pairs[i] for i in golden_order(len(pairs), seed)]

    def prepare(self) -> None:
        pass

    def outputs(self, item) -> int:
        return 1

    def call(self, item):
        return cover.certificate(*item)

    def check(self, item, cert) -> Verdict:
        n, p, q = item
        try:
            g_dev = abs(slopes.g_eval(n, cert.s_star).g - p / q)
            # rebuild the filled word from scratch and project it down
            sol = solver.solve(n, cert.s_star)
            xt, yt, _ = cover.lift_generators(n, sol)
            lt = cover.lifted_longitude(n, xt, yt)
            final = cover.cover_mul(cover.cover_pow(xt, p), cover.cover_pow(lt, q))
            proj = max_abs_diff(cover.from_su11(cover.unchart(final)), IDENTITY2)
        except LIBRARY_ERRORS:
            return Verdict(1, 1, 1, Counter(recheck=1))
        # the certificate's own claim: slope and closure within tolerance
        claimed = (
            (cert.n, cert.p, cert.q) == item
            and g_dev <= SLOPE_TOL
            and abs(final.gamma) <= CLOSURE_TOL
            and abs(final.omega) <= CLOSURE_TOL
            and cert.final_gamma_abs <= CLOSURE_TOL
            and abs(cert.final_omega) <= CLOSURE_TOL
        )
        if not claimed:
            return Verdict(1, 1, 1, Counter(recheck=1))
        # the tighter projection bound of the acceptance gate
        if proj > PROJECTION_TOL:
            return Verdict(1, 1, 0, Counter(projection=1))
        return Verdict(1)


class Scan:
    """slopes.scan(n, 1e-6, 1e8, 400) over the standard n grid: forward
    g_eval on the window and grid density invert searches.

    Sweep j shifts the whole window by a seeded fraction of one grid step,
    so no two calls share an input; n is shuffled within each sweep.
    """

    name = "scan"
    unit = "g samples"
    count_ops = len(GRID_N)
    S_MIN = 1e-6
    S_MAX = 1e8
    SAMPLES = 400
    SWEEPS = 256

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        u = rng.random()
        step = log(self.S_MAX / self.S_MIN) / (self.SAMPLES - 1)
        self.items = []
        for j in range(self.SWEEPS):
            shift = exp(((u + j * GOLDEN) % 1.0 - 0.5) * step)
            ns = list(GRID_N)
            rng.shuffle(ns)
            self.items += [(n, self.S_MIN * shift, self.S_MAX * shift, self.SAMPLES) for n in ns]

    def prepare(self) -> None:
        pass

    def outputs(self, item) -> int:
        return item[3]

    def call(self, item):
        return slopes.scan(*item)

    def check(self, item, rows) -> Verdict:
        samples = item[3]
        if len(rows) != samples:
            return Verdict(samples, samples, samples, Counter(count=samples))
        v = Verdict(samples)
        prev = 0.0
        for r in rows:
            in_band = r.s + 2.0 <= r.T <= r.s + 2.0 + 4.0 / r.s
            if not (0.0 < r.g < 4.0 and in_band):
                v.missed += 1
                v.reasons["g_range" if in_band else "T_band"] += 1
                # g may reach 4 by rounding, never by more than the slope tolerance
                if not (0.0 < r.g < 4.0 + SLOPE_TOL and in_band):
                    v.wrong += 1
            elif not r.s > prev:
                v.missed += 1
                v.wrong += 1
                v.reasons["order"] += 1
            prev = r.s
        return v


class Verify:
    """Cold passes of checks.run_all(), every cache in the package cleared
    before each pass, as each `twistcover verify` pays.  run_all takes no
    input, so the seed changes nothing here."""

    name = "verify"
    unit = "verify passes"
    count_ops = 1

    def __init__(self, seed: int) -> None:
        self.items = [[fn.__name__ for fn in checks.ALL_CHECKS]]

    def prepare(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("twistcover"):
                continue
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    def outputs(self, item) -> int:
        return 1

    def call(self, item):
        return checks.run_all()

    def check(self, item, results) -> Verdict:
        bad = Counter(r.name for r in results if not r.passed)
        if len(results) != len(item):
            bad["count"] += 1
        return Verdict(1, 1, 1, bad) if bad else Verdict(1)


WORKLOADS = {w.name: w for w in (Certify, Scan, Verify)}
