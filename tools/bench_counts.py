"""Deterministic work counts of the twistcover pipeline, kept as a trajectory.

    python tools/bench_counts.py --label "what the tree holds"
    python tools/bench_counts.py --src ../other-checkout/src --label "..."

computes the counts of the package under --src (default: this repository's
src/; the tree must have checks.audit, which the grid's projection misses
are read from, so a checkout from before it cannot be counted) and writes
them to BENCH_pipeline.json at the repository root, as the entry named
--label: an entry of that label is replaced, any other is kept,
and a new one goes last, so the file reads oldest first.  The counts are:

- solve_steps: ITP steps of solve over the scan benchmark's window, the
  400 log-spaced s in [1e-6, 1e8], at each n of GRID_N (n = 1's closed form
  takes 0), and over the 66 roots of checks.grid_solutions;
- invert_evaluations: InvertReport.evaluations of invert over GRID_N x
  GRID_SLOPES, and the pairs it refuses;
- grid_verdicts: certificate's verdict class on GRID_N x GRID_SLOPES;
- projection_misses: the certified pairs among those whose checks.audit
  projection residual, the rebuilt x^p L^q pushed down to a matrix, exceeds
  checks.PROJECTION_TOL = 1e-8 (ROADMAP F1); one pass over the grid gives
  both of these counts;
- certificate_statements: the distinct statements of the package that one
  certificate per pair of GRID_N x every 7th GRID_SLOPES entry executes;
- verify_statements and verify_suites: the distinct statements that one
  cold checks.run_all() pass executes, verify's trusted base, and the
  number of suites it runs, len(checks.ALL_CHECKS).

They repeat exactly on one platform, so tests/test_bench_counts.py gates the
last entry against a fresh count.  The Python version is recorded beside
them; times are not, since they would not repeat.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import platform
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = ROOT / "BENCH_pipeline.json"


def _statement_of_line(path: str) -> dict:
    """line -> (first line, column) of the innermost statement holding it; a
    function's statement holds its decorators too."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    owner = {}
    # ast.walk goes breadth first, so an inner statement overwrites the
    # lines of the statements that hold it
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            for line in range(first, node.end_lineno + 1):
                owner[line] = (node.lineno, node.col_offset)
    return owner


def statements_executed(run) -> int:
    """Distinct statements of the twistcover package that run() executes.

    Each sys.settrace line event counts the innermost ast.stmt holding its
    line, so the count does not depend on how a Python version splits a
    statement's line events; each call counts the def statement of the
    function entered, at the code's first line.  Every functools cache in
    the package is cleared first, so a warm cache hides no body.
    """
    owners = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("twistcover"):
            continue
        owners[mod.__file__] = _statement_of_line(mod.__file__)
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            path = frame.f_code.co_filename
            hit.add((path, owners[path][frame.f_lineno]))
        return local

    def start(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in owners:
            return None
        hit.add((code.co_filename, owners[code.co_filename][code.co_firstlineno]))
        return local

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return len(hit)


def certify_sample() -> None:
    """One certificate per pair of GRID_N x every 7th GRID_SLOPES entry,
    refusals included: the run whose statements are the trusted base."""
    from twistcover import NumericsError, certificate
    from twistcover.checks import GRID_N, GRID_SLOPES

    for n in GRID_N:
        for p, q in GRID_SLOPES[::7]:
            try:
                certificate(n, p, q)
            except NumericsError:
                pass


def grid_counts() -> tuple[dict, int]:
    """(grid_verdicts, projection_misses), from one certificate(n, p, q) per
    pair of GRID_N x GRID_SLOPES: certified or the refusal's class,
    counted, and the certified pairs whose checks.audit projection residual
    exceeds checks.PROJECTION_TOL."""
    from twistcover import NumericsError, certificate
    from twistcover.checks import GRID_N, GRID_SLOPES, PROJECTION_TOL, audit

    verdicts = Counter()
    misses = 0
    for n in GRID_N:
        for p, q in GRID_SLOPES:
            try:
                cert = certificate(n, p, q)
            except NumericsError as exc:
                verdicts[type(exc).__name__] += 1
                continue
            verdicts["certified"] += 1
            misses += audit(cert).projection > PROJECTION_TOL
    return dict(sorted(verdicts.items())), misses


def solve_steps() -> dict:
    from twistcover import checks, slopes, solver

    steps = [
        solver.solve(n, s).iterations
        for n in checks.GRID_N
        for s in slopes._log_grid(1e-6, 1e8, 400)
    ]
    return {
        "roots": len(steps),
        "mean": sum(steps) / len(steps),
        "max": max(steps),
        "grid_roots": len(checks.grid_solutions()),
        "grid_total": sum(sol.iterations for _, sol in checks.grid_solutions()),
    }


def invert_evaluations() -> dict:
    from twistcover import NumericsError, checks, slopes

    evaluations = []
    refused = 0
    for n in checks.GRID_N:
        for p, q in checks.GRID_SLOPES:
            try:
                evaluations.append(slopes.invert(n, p, q)[1].evaluations)
            except NumericsError:
                refused += 1
    return {
        "slopes": len(evaluations) + refused,
        "mean": sum(evaluations) / len(evaluations),
        "max": max(evaluations),
        "refused": refused,
    }


def counts() -> dict:
    """Every count of an entry, from the twistcover on sys.path."""
    from twistcover import checks

    verdicts, misses = grid_counts()
    return {
        "solve_steps": solve_steps(),
        "invert_evaluations": invert_evaluations(),
        "grid_verdicts": verdicts,
        "projection_misses": misses,
        "certificate_statements": statements_executed(certify_sample),
        "verify_statements": statements_executed(checks.run_all),
        "verify_suites": len(checks.ALL_CHECKS),
    }


def record(entries: list, label: str, entry_counts: dict) -> list:
    """entries with the entry named label set to entry_counts: in place if
    one exists, else appended."""
    entry = {"label": label, "python": platform.python_version(), "counts": entry_counts}
    if any(old["label"] == label for old in entries):
        return [entry if old["label"] == label else old for old in entries]
    return entries + [entry]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the twistcover package to count; "
                        "it must have checks.audit")
    parser.add_argument("--label", required=True, help="name of the entry to write")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    entries = json.loads(BENCH_FILE.read_text())["entries"] if BENCH_FILE.exists() else []
    entries = record(entries, args.label, counts())
    BENCH_FILE.write_text(json.dumps({"entries": entries}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
