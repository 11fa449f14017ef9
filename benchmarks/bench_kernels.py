"""Timing comparison of the pure-Python kernels against the compiled ones.

Both backends are imported directly, so one run measures both regardless of
which backend the package selected.  Usage:

    python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import math
import random
from time import perf_counter

from twistcover.checks import GRID_N, GRID_S
from twistcover.kernels import BACKEND, compiled, pure
from twistcover.solver import bracket

# n = 1 has a closed-form root and no bracket
BRACKET_N = tuple(n for n in GRID_N if n != 1)


def bench(fn, repeat):
    best = math.inf
    for _ in range(repeat):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def make_workloads():
    rng = random.Random(1729)

    cheb_args = [(rng.randrange(-30, 31), rng.uniform(-4.0, 4.0)) for _ in range(20000)]

    phi_args = []
    for n in BRACKET_N:
        for _ in range(400):
            s = 10.0 ** rng.uniform(-2, 2)
            phi_args.append((n, s, rng.uniform(0.0, 4.0)))

    bisect_args = []
    for n in BRACKET_N:
        for s in GRID_S:
            br = bracket(n, s)
            bisect_args.append((n, s, br.delta_lo, br.delta_hi, 1e-13 * s, 200))

    def elem():
        r = rng.uniform(0.0, 0.9)
        th = rng.uniform(-math.pi, math.pi)
        return complex(r * math.cos(th), r * math.sin(th)), rng.uniform(-8.0, 8.0)

    compose_args = []
    for _ in range(20000):
        (g1, w1), (g2, w2) = elem(), elem()
        compose_args.append((g1, w1, g2, w2))

    return {
        "cheb_ratio x20k": (cheb_args, lambda mod, a: [mod.cheb_ratio(m, x) for m, x in a]),
        "phi_delta x4k": (phi_args, lambda mod, a: [mod.phi_delta(n, s, d) for n, s, d in a]),
        "bisect x60": (bisect_args, lambda mod, a: [mod.bisect_phi_delta(*args) for args in a]),
        "cover_compose x20k": (compose_args, lambda mod, a: [mod.cover_compose(*args) for args in a]),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="best-of-N timing")
    opts = parser.parse_args()

    print(f"selected backend: {BACKEND}")
    if compiled is None:
        print("compiled extension not built; timing the pure kernels only\n")
    header = f"{'workload':<22}{'pure':>12}{'compiled':>12}{'speedup':>10}"
    print(header)
    print("-" * len(header))

    for name, (args, runner) in make_workloads().items():
        t_pure = bench(lambda: runner(pure, args), opts.repeat)
        if compiled is not None:
            t_comp = bench(lambda: runner(compiled, args), opts.repeat)
            print(f"{name:<22}{t_pure * 1e3:>10.2f}ms{t_comp * 1e3:>10.2f}ms{t_pure / t_comp:>9.1f}x")
        else:
            print(f"{name:<22}{t_pure * 1e3:>10.2f}ms{'-':>12}{'-':>10}")


if __name__ == "__main__":
    main()
