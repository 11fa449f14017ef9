"""Spans and call counts around twistcover's public functions.

A Tracer swaps a wrapper in for each traced function at every module
attribute of the package that refers to it (its import sites, including
the defining module, so calls inside that module are seen too), and puts
the originals back on exit.  Nothing under src/ changes.

Functions called a few thousand times per operation get a counting wrapper;
the rest get a span (name, parent span, operation index, start, end, note,
error class).  Spans stay in memory; work_counts reads them once the traced
pass has ended.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from importlib import import_module
from time import perf_counter

PACKAGE = "twistcover"

# span name -> (module, attribute)
SPAN_TARGETS = {
    "kernels.bisect_phi_delta": ("twistcover.kernels", "bisect_phi_delta"),
    "solver.solve": ("twistcover.solver", "solve"),
    "slopes.g_eval": ("twistcover.slopes", "g_eval"),
    "slopes.invert": ("twistcover.slopes", "invert"),
    "slopes.scan": ("twistcover.slopes", "scan"),
    "rep.longitude": ("twistcover.rep", "longitude"),
    "cover.lift_generators": ("twistcover.cover", "lift_generators"),
    "cover.lifted_longitude": ("twistcover.cover", "lifted_longitude"),
    "cover.cover_pow": ("twistcover.cover", "cover_pow"),
    "cover.certificate": ("twistcover.cover", "certificate"),
    "exactpoly.riley_poly": ("twistcover.exactpoly", "riley_poly"),
    "exactpoly.tau_poly": ("twistcover.exactpoly", "tau_poly"),
    "exactpoly.eval_exact": ("twistcover.exactpoly", "eval_exact"),
}

# counted only: each is too cheap and too frequent for a span
COUNT_TARGETS = {
    "kernels.phi_delta": ("twistcover.kernels", "phi_delta"),
    "kernels.cover_compose": ("twistcover.kernels", "cover_compose"),
    "rep.longitude_holonomy": ("twistcover.rep", "longitude_holonomy"),
    "cover.cover_mul": ("twistcover.cover", "cover_mul"),
}

# what a span keeps from a successful call's result
NOTES = {
    "solver.solve": lambda out: (out.n, out.iterations),
    "slopes.g_eval": lambda out: out.s,
}

# span record fields
NAME, PARENT, OP, START, END, NOTE, ERROR = range(7)


class Tracer:
    """Context manager that traces the package while it is entered.

    Set `op` to the index of the operation about to run and call
    `end_op()` after it, so spans and counts can be split by operation.
    While `paused` is true, calls go through unrecorded.

    Every span adds to the self time, inclusive time and call count of its
    name as it ends, so memory does not grow with the run.  Only the spans
    of the first `keep_ops` operations are kept as records.
    """

    def __init__(self, keep_ops: int) -> None:
        self.keep_ops = keep_ops
        self.spans: list = []
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts = Counter()
        self.counts_after_op: list = []
        self.op = -1
        self.paused = False
        self._stack: list = []
        self._swapped: list = []

    def end_op(self) -> None:
        if self.op < self.keep_ops:
            self.counts_after_op.append(dict(self.counts))

    def _span(self, name, fn):
        spans = self.spans
        stack = self._stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            keep = self.op < self.keep_ops
            idx = len(spans) if keep else -1
            if keep:
                spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]  # record index, time spent in child spans
            stack.append(frame)
            err = None
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                err = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                incl_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if keep:
                    kept = note(out) if note is not None and err is None else None
                    spans[idx] = (name, parent, self.op, start, end, kept, err)

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _swap(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._swapped.append((mod, attr, original))

    def __enter__(self) -> "Tracer":
        # a target the package no longer has is skipped, and its metrics read 0
        for name, (modname, attr) in SPAN_TARGETS.items():
            fn = getattr(import_module(modname), attr, None)
            if fn is not None:
                self._swap(fn, self._span(name, fn))
        for name, (modname, attr) in COUNT_TARGETS.items():
            fn = getattr(import_module(modname), attr, None)
            self.counts[name] = 0
            if fn is not None:
                self._swap(fn, self._count(name, fn))
        # run_all() iterates this tuple, so each suite is wrapped inside it
        checks = import_module("twistcover.checks")
        suites = checks.ALL_CHECKS
        self._swapped.append((checks, "ALL_CHECKS", suites))
        checks.ALL_CHECKS = tuple(
            self._span("checks." + fn.__name__.removeprefix("check_"), fn) for fn in suites
        )
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, attr, original in reversed(self._swapped):
            setattr(mod, attr, original)
        self._swapped.clear()


def work_counts(tracer: Tracer) -> dict:
    """Deterministic work counts over the operations whose spans were kept.

    Every value is an integer or a tuple of integers, so two passes over
    the same inputs must give equal dicts.
    """
    spans = tracer.spans
    out: dict = {name + ".calls": n for name, n in tracer.counts_after_op[-1].items()}
    calls = Counter(rec[NAME] for rec in spans)
    for name in SPAN_TARGETS:
        out[name + ".calls"] = calls[name]

    iters = [rec[NOTE] for rec in spans if rec[NAME] == "solver.solve" and rec[ERROR] is None]
    out["solver.iters_sum"] = sum(it for _, it in iters)
    out["solver.iters_max"] = max((it for _, it in iters), default=0)
    out["solver.solved"] = len(iters)
    # phi_delta calls per solve: 2 bracket endpoints, 2 more inside the
    # bisection, 1 residual, plus one per bisection step; n = 1 has a closed
    # form and evaluates only the residual
    out["kernels.phi_evals.computed"] = sum(it + (5 if n != 1 else 1) for n, it in iters)

    # invert scans its grid left to right before bisecting, so its grid
    # evaluations are the leading run of increasing s among its g_eval calls
    inverts = {i for i, rec in enumerate(spans) if rec[NAME] == "slopes.invert"}
    evals: dict = defaultdict(list)
    for rec in spans:
        if rec[NAME] == "slopes.g_eval" and rec[PARENT] in inverts:
            evals[rec[PARENT]].append(rec[NOTE])
    grid = 0
    for ss in evals.values():
        run = 1
        while run < len(ss) and ss[run] is not None and ss[run - 1] is not None and ss[run] > ss[run - 1]:
            run += 1
        grid += run
    out["slopes.invert.evals"] = sum(len(ss) for ss in evals.values())
    out["slopes.invert.grid_evals"] = grid

    fails = Counter(
        rec[ERROR] for rec in spans if rec[NAME] == "cover.certificate" and rec[ERROR] is not None
    )
    out["cover.certificate.errors"] = tuple(sorted(fails.items()))
    return out
