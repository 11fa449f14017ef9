"""Command line frontend.

Exit codes: 0 success, 1 domain error (bad parameters, including usage
errors), 2 numerical failure.  Payload goes to stdout, structured errors to
stderr as one JSON object.  Identical inputs produce byte-identical output:
floats are emitted in shortest round-trip form by the json module, and the
version string sits in its own header field.  This is the one module that
formats output: the library returns records, and only this module turns them
into JSON, text or CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import isfinite

from . import checks, cover, exactpoly, slopes, solver
from ._version import __version__
from .errors import DomainError, NumericsError


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _finite_or_null(x: float) -> float | None:
    # JSON has no inf or nan
    return x if isfinite(x) else None


def _emit(fmt: str, payload: dict) -> str:
    """payload as JSON, or as one "key = value" line per field."""
    if fmt == "json":
        return _json(payload)
    return "".join(f"{k} = {v}\n" for k, v in payload.items())


def _rational(text: str) -> tuple[int, int]:
    """Parse "p/q" (or "p", meaning p/1) without reducing; reducibility is
    the library's call to reject.  "p/" has an empty denominator and is
    refused."""
    num, slash, den = text.strip().partition("/")
    try:
        return int(num), int(den) if slash else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse defaults to exit code 2; usage problems are domain errors
        self.print_usage(sys.stderr)
        sys.stderr.write(_json({"error": "UsageError", "message": message}))
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    sub.add_argument("--n", type=int, required=True, help="twist parameter, not 0 or -1")
    sub.add_argument("--format", choices=formats, default=formats[0])


def _build_parser() -> _Parser:
    parser = _Parser(prog="twistcover")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("riley", help="exact defining polynomial")
    _add_common(p, ("json", "csv", "text"))
    p.set_defaults(handler=_cmd_riley)

    p = subs.add_parser("solve", help="root of the defining polynomial at s")
    _add_common(p, ("json", "text"))
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("slope", help="evaluate g at s, or invert g at r = p/q")
    _add_common(p, ("json", "text"))
    p.add_argument("--s", type=float)
    p.add_argument("--r", type=_rational, metavar="P/Q")
    p.set_defaults(handler=_cmd_slope)

    p = subs.add_parser("scan", help="table of the slope map on a log grid")
    _add_common(p, ("csv", "json"))
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_scan)

    p = subs.add_parser("certify", help="surgery certificate for slope p/q")
    _add_common(p, ("json", "text"))
    p.add_argument("--r", type=_rational, metavar="P/Q", required=True)
    p.set_defaults(handler=_cmd_certify)

    p = subs.add_parser("verify", help="run every invariant suite on the standard grid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_riley(a) -> tuple[str, int]:
    # coeffs is ordered by T-degree, then s-degree
    coeffs = exactpoly.riley_poly(a.n).coeffs.items()
    if a.format == "json":
        terms = [{"s_deg": i, "T_deg": j, "coeff": str(c)} for (i, j), c in coeffs]
        return _json({"version": __version__, "n": a.n, "terms": terms}), 0
    if a.format == "csv":
        lines = ["s_deg,T_deg,coeff"] + [f"{i},{j},{c}" for (i, j), c in coeffs]
    else:
        lines = [f"n = {a.n}, {len(coeffs)} terms"]
        lines += [f"  s^{i} T^{j}  {c}" for (i, j), c in coeffs]
    return "\n".join(lines) + "\n", 0


def _cmd_solve(a) -> tuple[str, int]:
    sol = solver.solve(a.n, a.s)
    return _emit(a.format, {"version": __version__, **sol._asdict()}), 0


def _cmd_slope(a) -> tuple[str, int]:
    if (a.s is None) == (a.r is None):
        raise DomainError("slope takes exactly one of --s or --r")
    if a.s is not None:
        smp = slopes.g_eval(a.n, a.s)
        return _emit(a.format, {"version": __version__, "n": a.n, **smp._asdict()}), 0
    p, q = a.r
    smp, report = slopes.invert(a.n, p, q)
    payload = {
        "version": __version__,
        "n": a.n,
        "p": p,
        "q": q,
        "s_star": smp.s,
        "T": smp.T,
        "t": smp.t,
        "B": smp.B,
        "g": smp.g,
        "evaluations": report.evaluations,
    }
    return _emit(a.format, payload), 0


def _cmd_scan(a) -> tuple[str, int]:
    rows = slopes.scan(a.n, a.s_min, a.s_max, a.samples)
    if a.format == "csv":
        # 17 significant digits round-trip every double
        lines = [",".join(slopes.SlopeSample._fields)]
        lines += [",".join(format(v, ".17g") for v in r) for r in rows]
        return "\n".join(lines) + "\n", 0
    payload = {"version": __version__, "n": a.n, "rows": [r._asdict() for r in rows]}
    return _json(payload), 0


def _cmd_certify(a) -> tuple[str, int]:
    cert = cover.certificate(a.n, *a.r)
    return _emit(a.format, {"version": __version__, **cert._asdict()}), 0


def _cmd_verify(a) -> tuple[str, int]:
    results = checks.run_all()
    ok = all(r.passed for r in results)
    code = 0 if ok else 2
    if a.format == "json":
        payload = {
            "version": __version__,
            # a suite that fails closed records worst = inf, and one that
            # raised also bound = nan; null stands for either
            "results": [
                {**r._asdict(), "worst": _finite_or_null(r.worst), "bound": _finite_or_null(r.bound)}
                for r in results
            ],
            "all_passed": ok,
        }
        return _json(payload), code
    lines = [r.line() for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return "\n".join(lines) + "\n", code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = args.handler(args)
    except (DomainError, NumericsError) as exc:
        sys.stderr.write(_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1 if isinstance(exc, DomainError) else 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
