"""Command line frontend.

Exit codes: 0 success, 1 domain error (bad parameters, including usage
errors), 2 numerical failure.  Payload goes to stdout, structured errors to
stderr as one JSON object.  Identical inputs produce byte-identical output:
floats are emitted in shortest round-trip form by the json module, and the
version string sits in its own header field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import checks, cover, exactpoly, slopes, solver
from ._version import __version__
from .errors import DomainError, NumericsError


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _text(pairs) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def _rational(text: str) -> tuple[int, int]:
    """Parse "p/q" (or "p") without reducing; reducibility is the library's
    call to reject."""
    body = text.strip()
    num, _, den = body.partition("/")
    try:
        return int(num), int(den) if den else 1
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
    p.add_argument("--tol-T", type=float, default=solver.DEFAULT_TOL_T)
    p.set_defaults(handler=_cmd_solve)

    p = subs.add_parser("slope", help="evaluate g at s, or invert g at r = p/q")
    _add_common(p, ("json", "text"))
    p.add_argument("--s", type=float)
    p.add_argument("--r", type=_rational, metavar="P/Q")
    p.add_argument("--tol-T", type=float, default=solver.DEFAULT_TOL_T)
    p.add_argument("--tol-g", type=float, default=slopes.DEFAULT_TOL_G)
    p.set_defaults(handler=_cmd_slope)

    p = subs.add_parser("scan", help="table of the slope map on a log grid")
    _add_common(p, ("csv", "json"))
    p.add_argument("--s-min", type=float, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol-T", type=float, default=solver.DEFAULT_TOL_T)
    p.set_defaults(handler=_cmd_scan)

    p = subs.add_parser("certify", help="surgery certificate for slope p/q")
    _add_common(p, ("json", "text"))
    p.add_argument("--r", type=_rational, metavar="P/Q", required=True)
    p.add_argument("--tol-T", type=float, default=solver.DEFAULT_TOL_T)
    p.add_argument("--tol-g", type=float, default=slopes.DEFAULT_TOL_G)
    p.add_argument("--tol-cert", type=float, default=cover.DEFAULT_TOL_CERT)
    p.set_defaults(handler=_cmd_certify)

    p = subs.add_parser("verify", help="run every invariant suite on the standard grid")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _cmd_riley(a) -> tuple[str, int]:
    terms = exactpoly.riley_poly(a.n).terms()
    if a.format == "json":
        return _json({"version": __version__, "n": a.n, "terms": terms}), 0
    if a.format == "csv":
        lines = ["s_deg,T_deg,coeff"]
        lines += [f"{t['s_deg']},{t['T_deg']},{t['coeff']}" for t in terms]
        return "\n".join(lines) + "\n", 0
    lines = [f"n = {a.n}, {len(terms)} terms"]
    lines += [f"  s^{t['s_deg']} T^{t['T_deg']}  {t['coeff']}" for t in terms]
    return "\n".join(lines) + "\n", 0


def _cmd_solve(a) -> tuple[str, int]:
    sol = solver.solve(a.n, a.s, tol=a.tol_T)
    payload = {"version": __version__, **asdict(sol)}
    if a.format == "json":
        return _json(payload), 0
    return _text(payload.items()), 0


def _cmd_slope(a) -> tuple[str, int]:
    if (a.s is None) == (a.r is None):
        raise DomainError("slope takes exactly one of --s or --r")
    if a.s is not None:
        smp = slopes.g_eval(a.n, a.s, tol_T=a.tol_T)
        payload = {"version": __version__, "n": a.n, **asdict(smp)}
    else:
        p, q = a.r
        smp, report = slopes.invert(a.n, p, q, tol=a.tol_g, tol_T=a.tol_T)
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
            "brackets": [list(b) for b in report.brackets],
            "evaluations": report.evaluations,
        }
    if a.format == "json":
        return _json(payload), 0
    return _text(payload.items()), 0


def _cmd_scan(a) -> tuple[str, int]:
    rows = slopes.scan(a.n, a.s_min, a.s_max, a.samples, tol_T=a.tol_T)
    if a.format == "csv":
        return slopes.scan_to_csv(rows), 0
    payload = {"version": __version__, "n": a.n, "rows": [asdict(r) for r in rows]}
    return _json(payload), 0


def _cmd_certify(a) -> tuple[str, int]:
    p, q = a.r
    cert = cover.certificate(
        a.n, p, q, tol_g=a.tol_g, tol_cert=a.tol_cert, tol_T=a.tol_T
    )
    if a.format == "json":
        return cover.certificate_json(cert), 0
    pairs = [("version", __version__)] + list(asdict(cert).items())
    return _text(pairs), 0


def _cmd_verify(a) -> tuple[str, int]:
    results = checks.run_all()
    ok = all(r.passed for r in results)
    code = 0 if ok else 2
    if a.format == "json":
        payload = {
            "version": __version__,
            "results": [asdict(r) for r in results],
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
    except DomainError as exc:
        sys.stderr.write(_json({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except NumericsError as exc:
        sys.stderr.write(_json({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
