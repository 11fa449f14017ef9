"""Pipeline benchmark for twistcover.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads are `certify`, `scan`, `verify`, or `all` for the three in turn
in one process.  With --trace 0 the run is untraced and reports the
end-to-end metrics; with --trace 1 it reports the per-layer metrics from a
traced pass.  BENCHMARK.json at the repository root declares both sets with
their units.  Human-readable lines go first; the last line of stdout is one
JSON object.  Results with the run's context also go to
perfbench/results/.  The benchmark runs the package from src/ and builds
nothing: the compiled kernels are optional and the run records which
backend it used.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# fresh interpreters timed before the workloads and again after them, so
# the median spans the run rather than one moment of it
SETUP_REPEATS = 5


@dataclass
class Outcome:
    seconds: float
    verdict: object
    fingerprint: str


@dataclass
class Pass:
    outcomes: list
    seconds: float


def fingerprint(result, error) -> str:
    if error is not None:
        return type(error).__name__
    return hashlib.sha256(repr(result).encode()).hexdigest()


def run_pass(wl, ops: int, seconds: float = 0.0, tracer=None) -> Pass:
    """Call the workload's inputs in order until `seconds` have been spent
    in calls and at least `ops` calls are done.

    Only the library call is timed.  Preparing an input (such as clearing
    caches) and checking the output happen outside it, with the tracer
    paused, and only the verdict and a fingerprint of the output are kept.
    """
    from workloads import error_verdict

    outcomes = []
    busy = 0.0
    i = 0
    while i < ops or busy < seconds:
        item = wl.items[i % len(wl.items)]
        wl.prepare()
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            result, error = wl.call(item), None
        except Exception as exc:
            result, error = None, exc
        t1 = perf_counter()
        busy += t1 - t0
        if tracer is not None:
            tracer.end_op()
            tracer.paused = True
        if error is None:
            verdict = wl.check(item, result)
        else:
            verdict = error_verdict(wl.outputs(item), error)
        if tracer is not None:
            tracer.paused = False
        outcomes.append(Outcome(t1 - t0, verdict, fingerprint(result, error)))
        i += 1
    return Pass(outcomes, busy)


def tail(values: list) -> tuple[float, float]:
    """The highest percentile up to the 95th with at least ten values
    beyond it (never below the median), and that percentile."""
    xs = sorted(values)
    k = max(min(ceil(0.95 * len(xs)) - 1, len(xs) - 11), (len(xs) - 1) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure_setup() -> list:
    """Wall times of fresh interpreters that import twistcover.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import twistcover.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return times


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twistcover").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def context(seed: int, wls) -> dict:
    from twistcover import kernels
    from workloads import digest

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        # a package with a single kernel implementation may drop the switch
        "backend": getattr(kernels, "BACKEND", "absent"),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "seed": seed,
        "inputs_sha256": {wl.name: digest(wl.items) for wl in wls},
    }


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was counted."""
    return a / b if b else 0.0


def totals(run: Pass, verdicts: list) -> dict:
    return {
        "attempted": sum(v.outputs for v in verdicts),
        "missed": sum(v.missed for v in verdicts),
        "wrong": sum(v.wrong for v in verdicts),
        "calls": len(run.outcomes),
    }


def end_to_end(wl, seconds: float) -> tuple[dict, dict, list]:
    run_pass(wl, 1)  # warm-up, untimed
    run = run_pass(wl, 1, seconds)
    verdicts = [o.verdict for o in run.outcomes]
    t = totals(run, verdicts)
    ok = t["attempted"] - t["missed"]
    lat_ms = [o.seconds * 1e3 for o in run.outcomes]
    tail_ms, tail_pct = tail(lat_ms)
    metrics = {"call_ms_tail": tail_ms, "ok_frac": ok / t["attempted"]}
    # recorded and printed, but too unsteady on a shared machine to gate on
    t.update(
        seconds=run.seconds,
        ok_per_s=ok / run.seconds,
        call_ms_p50=statistics.median(lat_ms),
        tail_percentile=tail_pct,
    )
    reasons = sum((v.reasons for v in verdicts), start=Counter())
    t["fail_reasons"] = dict(sorted(reasons.items()))
    lines = [
        f"{wl.name}: {t['calls']} calls in {run.seconds:.2f} s of call time, "
        f"{t['attempted']} {wl.unit} attempted, {t['missed']} refused or missed a bound, "
        f"{t['wrong']} wrong",
        f"{wl.name}: ok_per_s = {t['ok_per_s']:.6g} 1/s (correct {wl.unit} per second of call time)",
        f"{wl.name}: call latency over {t['calls']} calls: call_ms_p50 = {t['call_ms_p50']:.6g} ms, "
        f"p{tail_pct:.0f} = {tail_ms:.6g} ms",
    ]
    if reasons:
        lines.append(f"{wl.name}: misses by reason {t['fail_reasons']}")
    return metrics, t, lines


def per_layer(wl, seconds: float, suites: list) -> tuple[dict, dict, list, list]:
    from tracer import END, START, Tracer, work_counts

    run_pass(wl, 1)  # warm-up, untimed
    base = run_pass(wl, wl.count_ops, seconds / 2)
    with Tracer(wl.count_ops) as tr:
        traced = run_pass(wl, len(base.outcomes), tracer=tr)
    with Tracer(wl.count_ops) as again:
        run_pass(wl, wl.count_ops, tracer=again)
    counts = work_counts(tr)
    repeat_counts = work_counts(again)

    verdicts = [o.verdict for o in traced.outcomes]
    t = totals(traced, verdicts)
    t["wrong"] += sum(o.verdict.wrong for o in base.outcomes)
    same_outputs = [o.fingerprint for o in base.outcomes] == [o.fingerprint for o in traced.outcomes]
    t.update(
        deterministic_counts=counts == repeat_counts,
        same_outputs=same_outputs,
        base_seconds=base.seconds,
        traced_seconds=traced.seconds,
        work_counts={k: list(v) if isinstance(v, tuple) else v for k, v in counts.items()},
    )

    count_outputs = sum(v.outputs for v in verdicts[: wl.count_ops])
    traced_outputs = t["attempted"]
    self_s, incl_s, calls = tr.self_s, tr.incl_s, tr.calls
    wall = traced.seconds
    certs = counts["cover.certificate.calls"]

    def per_op(key):
        return counts[key] / count_outputs

    def share(name):
        return self_s.get(name, 0.0) / wall

    def mean_us(name):
        return ratio(self_s.get(name, 0.0) * 1e6, calls[name])

    m = {
        "kernels.bisect_phi_delta.calls": per_op("kernels.bisect_phi_delta.calls"),
        "kernels.bisect_phi_delta.self_ms": self_s.get("kernels.bisect_phi_delta", 0.0) * 1e3 / traced_outputs,
        "kernels.phi_delta.calls": per_op("kernels.phi_delta.calls"),
        "kernels.phi_evals.computed": per_op("kernels.phi_evals.computed"),
        "kernels.cover_compose.calls": per_op("kernels.cover_compose.calls"),
        "solver.solve.calls": per_op("solver.solve.calls"),
        "solver.solve.self_us_mean": mean_us("solver.solve"),
        "solver.iters_mean": ratio(counts["solver.iters_sum"], counts["solver.solved"]),
        "solver.iters_max": counts["solver.iters_max"],
        "slopes.invert.self_share": share("slopes.invert"),
        "slopes.invert.evals_per_call": ratio(counts["slopes.invert.evals"], counts["slopes.invert.calls"]),
        "slopes.invert.grid_share": ratio(counts["slopes.invert.grid_evals"], counts["slopes.invert.evals"]),
        "slopes.g_eval.self_us_mean": mean_us("slopes.g_eval"),
        "rep.longitude.self_share": share("rep.longitude"),
        "rep.longitude_holonomy.calls": per_op("rep.longitude_holonomy.calls"),
        "cover.lift_generators.self_share": share("cover.lift_generators"),
        "cover.lifted_longitude.self_share": share("cover.lifted_longitude"),
        "cover.cover_pow.self_share": share("cover.cover_pow"),
        "cover.cover_mul.calls": per_op("cover.cover_mul.calls"),
    }
    errors = dict(counts["cover.certificate.errors"])
    for cls in ("recheck", "projection"):
        errors[cls] = sum(v.reasons[cls] for v in verdicts[: wl.count_ops])
    for cls in CERT_ERRORS:
        n = sum(errors.values()) if cls == "other" else errors.pop(cls, 0)
        m["cover.certificate.fail." + cls] = ratio(n, certs)
    for name in ("riley_poly", "tau_poly", "eval_exact"):
        m[f"exactpoly.{name}.calls"] = per_op(f"exactpoly.{name}.calls")
        m[f"exactpoly.{name}.self_share"] = share("exactpoly." + name)
    for suite in suites:
        m[f"checks.{suite}.share"] = incl_s.get("checks." + suite, 0.0) / wall
    suite_failures = sum(v.reasons[suite] for v in verdicts[: wl.count_ops] for suite in suites)
    m["checks.failed"] = suite_failures / count_outputs
    m["trace.overhead_frac"] = traced.seconds / base.seconds - 1.0

    lines = [
        f"{wl.name}: traced {t['calls']} calls in {traced.seconds:.2f} s "
        f"against {base.seconds:.2f} s untraced; work counts over the first "
        f"{wl.count_ops} calls ({count_outputs} {wl.unit}), repeated: "
        f"{'identical' if t['deterministic_counts'] else 'DIFFERENT'}",
    ]
    # the repeated pass over the first calls is the one kept on disk: its
    # spans are a complete trace of the inputs the work counts cover
    t0 = again.spans[0][START] if again.spans else 0.0
    spans = [
        (*rec[:START], round((rec[START] - t0) * 1e6, 1), round((rec[END] - t0) * 1e6, 1), *rec[END + 1 :])
        for rec in again.spans
    ]
    return m, t, lines, spans


# certificate failure classes reported one by one; "recheck" is a returned
# certificate that breaks its own tolerances on a recheck, "projection" one
# that only misses the acceptance gate's projection bound, "other" any other
# exception class
CERT_ERRORS = (
    "CertificateFailed",
    "DomainError",
    "SlopeOutOfRange",
    "NumericsError",
    "NonConvergence",
    "NoBracketFound",
    "OffDiagonalTooLarge",
    "RelatorNotCentral",
    "LongitudeOmegaNonzero",
    "recheck",
    "projection",
    "other",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "scan", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "twistcover" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no twistcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import twistcover

    if Path(twistcover.__file__).resolve().parent != SRC / "twistcover":
        print(f"perfbench: imported twistcover from {twistcover.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    suites = [name[len("checks.") : -len(".share")] for name in units if name.startswith("checks.") and name.endswith(".share")]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    wls = [WORKLOADS[name](args.seed) for name in names]
    ctx = context(args.seed, wls)
    print(
        f"context: python {ctx['python']}, backend {ctx['backend']}, nproc {ctx['nproc']}, "
        f"git {ctx['git_revision'][:12]}, seed {args.seed}"
    )

    setup_times = [] if args.trace else measure_setup()
    metrics: dict = {}
    report = {"context": ctx, "workloads": {}}
    correct = True
    attempted = failed = 0
    for wl in wls:
        prefix = wl.name + "." if args.workload == "all" else ""
        if args.trace:
            m, t, lines, spans = per_layer(wl, args.seconds, suites)
            correct &= t["deterministic_counts"] and t["same_outputs"]
        else:
            m, t, lines = end_to_end(wl, args.seconds)
            spans = None
        correct &= t["wrong"] == 0
        attempted += t["attempted"]
        # a refusal or a missed bound is the library's answer on that input
        # and shows in ok_frac; a failed operation is a wrong output
        failed += t["wrong"]
        if set(m) | {"setup_s"} != set(units) | {"setup_s"}:
            print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(m) ^ set(units))}", file=sys.stderr)
            return 2
        metrics.update({prefix + k: v for k, v in m.items()})
        report["workloads"][wl.name] = t
        for line in lines:
            print(line)
        if spans is not None:
            RESULTS.mkdir(exist_ok=True)
            with gzip.open(RESULTS / f"spans-{wl.name}-seed{args.seed}.jsonl.gz", "wt", compresslevel=1) as fh:
                fh.write('["name","parent","op","start_us","end_us","note","error"]\n')
                for rec in spans:
                    fh.write(json.dumps(rec) + "\n")
    if not args.trace:
        setup_times += measure_setup()
        metrics["setup_s"] = statistics.median(setup_times)

    out = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k.split(".", 1)[1] if args.workload == "all" and k != "setup_s" else k]}
            for k, v in metrics.items()
        },
    }
    for k, v in out["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    report.update(out)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
