#!/usr/bin/env python3
"""Agreement statistics between the numeric searches and the closed form.

Samples random acute shapes on the unit circumradius, solves each with the
simplex search and with reflection descent from random starts, and prints
the worst deviations from the orthic-triangle answer, the number of runs
that did not converge or clamped, and the mean and largest number of
descent sweeps.  Exits 3 if any run did not converge.

    PYTHONPATH=src python scripts/run_oracle_sweep.py --triangles 1000
"""

import argparse
import math
import random
import sys
import time

from fagnano.geometry import Triangle, dist, orthic_triangle
from fagnano.optimize import (
    InscribedConfig,
    min_perimeter_closed_form,
    minimize_grid_then_simplex,
    minimize_reflection_descent,
)


def sample_triangle(rng, margin):
    while True:
        alpha = rng.uniform(margin, math.pi / 2 - margin)
        beta = rng.uniform(margin, math.pi / 2 - margin)
        gamma = math.pi - alpha - beta
        if margin <= gamma <= math.pi / 2 - margin:
            return Triangle.from_angles(alpha, beta)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triangles", type=int, default=1000)
    parser.add_argument("--starts", type=int, default=10, help="descents per triangle")
    parser.add_argument("--margin", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    worst_rel = worst_feet = 0.0
    nonconverged = clamped = 0
    sweeps = []
    start = time.perf_counter()
    for _ in range(args.triangles):
        t = sample_triangle(rng, args.margin)
        closed = min_perimeter_closed_form(t)
        feet = orthic_triangle(t).feet
        runs = [minimize_grid_then_simplex(t)]
        for _ in range(args.starts):
            seed = InscribedConfig(
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.95),
                rng.uniform(0.05, 0.95),
            )
            descent = minimize_reflection_descent(t, seed)
            sweeps.append(descent.iterations)
            runs.append(descent)
        for result in runs:
            nonconverged += not result.converged
            clamped += result.clamped
            worst_rel = max(worst_rel, abs(result.perimeter - closed) / closed)
            located = result.config.points(t)
            worst_feet = max(
                worst_feet,
                max(dist(p, f) for p, f in zip(located, feet)) / t.diameter(),
            )
    elapsed = time.perf_counter() - start
    print(
        f"{args.triangles} triangles x (1 grid-simplex + {args.starts} descents): "
        f"worst relative perimeter gap {worst_rel:.3e}, "
        f"worst foot offset {worst_feet:.3e} diameters, {elapsed:.1f}s"
    )
    if sweeps:
        print(
            f"descent sweeps: mean {sum(sweeps) / len(sweeps):.1f}, max {max(sweeps)}"
        )
    print(f"runs not converged: {nonconverged}, runs clamped: {clamped}")
    return 3 if nonconverged else 0


if __name__ == "__main__":
    sys.exit(main())
