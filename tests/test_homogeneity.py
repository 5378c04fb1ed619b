"""Exact homogeneity across the double range.

Scaling a triangle by 2^k is exact, and every result is computed on the
triangle's power-of-two frame, which is the same at every scale.  So at scale
2^k the lengths and coordinates are the scale-1 values times 2^k, bit for bit,
and the angles, margins, residuals, side parameters and counts are the
scale-1 values, for k anywhere from -1000 to 1000.
"""

import math
import random

from conftest import incenter, orthocenter, random_acute_triangle, scaled
from fagnano import cli
from fagnano.geometry import Triangle, angles, classify, orthic_triangle
from fagnano.optimize import (
    InscribedConfig,
    minimize_grid_then_simplex,
    minimize_reflection_descent,
)
from fagnano.theorem import incenter_orthocenter_check, proof_steps, verdict

K_LIMIT = 1000


def shapes():
    """21 named acute shapes with coordinates that scale exactly to 2^-1000."""
    rng = random.Random(20161018)
    named = {
        "golden-bfc": cli.parse_triangle("golden-bfc"),
        "equilateral": cli.parse_triangle("equilateral"),
        # Largest angle 1e-5 below pi/2: the minimizers warn.
        "near-right": Triangle.from_angles(0.6, math.pi / 2 + 1e-5 - 0.6),
        # Smallest angle 0.01, largest 0.004 below pi/2.
        "sliver": Triangle.from_angles(0.01, math.pi / 2 - 0.004),
    }
    for i in range(17):
        named[f"acute-{i}"] = random_acute_triangle(rng)
    return named


def lengths(t, start):
    """Every length and coordinate result."""
    orth = orthic_triangle(t)
    simplex = minimize_grid_then_simplex(t)
    descent = minimize_reflection_descent(t, start)
    values = [
        *(c for p in orth.feet for c in p.as_tuple()),
        orth.perimeter,
        *orthocenter(t).as_tuple(),
        *incenter(t).as_tuple(),
    ]
    for result in (simplex, descent):
        values.append(result.perimeter)
        values.extend(p for _, p in result.history)
        values.extend(c for p in result.config.points(t) for c in p.as_tuple())
    return values


def invariants(t, start):
    """Every scale-free result."""
    report = proof_steps(t)
    simplex = minimize_grid_then_simplex(t)
    descent = minimize_reflection_descent(t, start)
    return (
        angles(t),
        classify(t),
        orthic_triangle(t).angles,
        report,
        verdict(t),
        incenter_orthocenter_check(t).hex(),
        *(
            (r.config, r.iterations, r.converged, r.clamped, r.warning, r.extrapolations,
             tuple(i for i, _ in r.history))
            for r in (simplex, descent)
        ),
    )


def test_results_are_exactly_homogeneous():
    rng = random.Random(1606)
    for name, t in shapes().items():
        start = InscribedConfig(*(rng.uniform(0.05, 0.95) for _ in range(3)))
        base_lengths = lengths(t, start)
        base_invariants = invariants(t, start)
        ks = (-K_LIMIT, K_LIMIT, *(rng.randint(-K_LIMIT, K_LIMIT) for _ in range(3)))
        for k in ks:
            big = scaled(t, k)
            assert scaled(big, -k) == t, (name, k)  # the scaling is exact
            want = [math.ldexp(x, k).hex() for x in base_lengths]
            assert [x.hex() for x in lengths(big, start)] == want, (name, k)
            assert invariants(big, start) == base_invariants, (name, k)
