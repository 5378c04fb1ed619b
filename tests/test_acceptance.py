"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion with its measured runtime.
"""

import json
import math
import random
import time

from conftest import random_acute_triangle
from fagnano.cli import main
from fagnano.geometry import Triangle, dist, orthic_triangle
from fagnano.golden import build
from fagnano.optimize import (
    InscribedConfig,
    min_perimeter_closed_form,
    minimize_grid_then_simplex,
    minimize_reflection_descent,
)
from fagnano.theorem import incenter_orthocenter_check, proof_steps, scan_angle_space

QUARTER_PI = math.pi / 4


def report(number, label, ok, detail):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_golden_exactness(capsys):
    start = time.perf_counter()
    code = main(["golden"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    names = {v["name"]: v for v in doc["values"]}
    residuals = {
        name: names[name]["residual"] for name in ("bg", "ge", "he", "ge_over_he")
    }
    ok = code == 0 and max(residuals.values()) <= 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(
            1,
            "golden example exactness",
            ok,
            f"max residual {max(residuals.values()):.3e} (limit 1e-12), "
            f"runtime {elapsed:.3f}s (limit 1s)",
        )


def test_criterion_2_side_proportions(capsys):
    fig = build()
    sides = sorted([fig.gh, fig.he, fig.ge])
    ratios = (sides[0] / sides[0], sides[1] / sides[0], sides[2] / sides[0])
    expected = (1.0, 2.0, math.sqrt(5.0))
    gaps = [abs(r - e) for r, e in zip(ratios, expected)]
    ok = max(gaps) <= 1e-12
    with capsys.disabled():
        report(
            2,
            "(1, 2, sqrt 5) proportionality",
            ok,
            f"component gaps {['%.3e' % g for g in gaps]} (limit 1e-12 each)",
        )


def test_criterion_3_biconditional_scan(capsys):
    start = time.perf_counter()
    scan = scan_angle_space(200, tol_angle=1e-9)
    elapsed = time.perf_counter() - start
    ok = not scan.counterexamples and elapsed < 30.0
    with capsys.disabled():
        report(
            3,
            "biconditional scan at resolution 200",
            ok,
            f"{scan.samples_tested} samples, "
            f"{len(scan.counterexamples)} counterexamples, "
            f"worst law residual {scan.worst_law_residual:.2f} eps (limit 8), "
            f"runtime {elapsed:.2f}s (limit 30s)",
        )


def test_criterion_4_optimizer_oracle_equivalence(capsys):
    rng = random.Random(20160601)
    start = time.perf_counter()
    worst_rel = 0.0
    worst_feet = 0.0
    sweeps = []
    nonconverged = clamped = 0
    for _ in range(1000):
        t = random_acute_triangle(rng)
        closed = min_perimeter_closed_form(t)
        feet = orthic_triangle(t).feet
        scale = t.diameter()

        result = minimize_grid_then_simplex(t)
        nonconverged += not result.converged
        clamped += result.clamped
        assert result.converged
        worst_rel = max(worst_rel, abs(result.perimeter - closed) / closed)
        located = result.config.points(t)
        worst_feet = max(
            worst_feet,
            max(dist(p, f) for p, f in zip(located, feet)) / scale,
        )

        for _ in range(10):
            seed = InscribedConfig(
                rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            )
            descent = minimize_reflection_descent(t, seed)
            sweeps.append(descent.iterations)
            nonconverged += not descent.converged
            clamped += descent.clamped
            assert descent.converged
            values = [p for _, p in descent.history]
            assert all(b < a for a, b in zip(values, values[1:]))
            worst_rel = max(worst_rel, abs(descent.perimeter - closed) / closed)
            located = descent.config.points(t)
            worst_feet = max(
                worst_feet,
                max(dist(p, f) for p, f in zip(located, feet)) / scale,
            )
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and worst_feet <= 1e-4 and elapsed < 60.0
    with capsys.disabled():
        report(
            4,
            "optimizer agrees with closed form",
            ok,
            f"1000 triangles + {len(sweeps)} descents: worst relative perimeter "
            f"{worst_rel:.3e} (limit 1e-6), worst foot distance {worst_feet:.3e}"
            f" of diameter (limit 1e-4), descent sweeps mean "
            f"{sum(sweeps) / len(sweeps):.1f} max {max(sweeps)}, runs not "
            f"converged {nonconverged}, runs clamped {clamped}, "
            f"runtime {elapsed:.1f}s (limit 60s)",
        )


def test_criterion_5_proof_step_identities(capsys):
    rng = random.Random(271828)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        t = random_acute_triangle(rng)
        worst = max(worst, max(proof_steps(t).all_unconditional()))
    worst_quarter = 0.0
    for _ in range(2_000):
        alpha = rng.uniform(QUARTER_PI + 0.01, math.pi / 2 - 0.01)
        rep = proof_steps(Triangle.from_angles(alpha, QUARTER_PI))
        assert rep.quarter_relation_active
        worst_quarter = max(worst_quarter, rep.quarter_relation_residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and worst_quarter <= 1e-9
    with capsys.disabled():
        report(
            5,
            "proof-step identities",
            ok,
            f"10000 triangles: worst unconditional residual {worst:.3e}, "
            f"2000 quarter-pi samples: worst {worst_quarter:.3e} (limits 1e-9), "
            f"runtime {elapsed:.1f}s",
        )


def test_criterion_6_incenter_orthocenter(capsys):
    rng = random.Random(16180339)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        worst = max(worst, incenter_orthocenter_check(random_acute_triangle(rng)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    with capsys.disabled():
        report(
            6,
            "incenter(orthic) is the orthocenter",
            ok,
            f"10000 triangles: worst normalized distance {worst:.3e} "
            f"(limit 1e-9), runtime {elapsed:.1f}s",
        )


def test_criterion_7_cli_determinism(capsys, tmp_path):
    stdout_commands = [
        ["orthic", "equilateral"],
        ["orthic", "golden-bfc"],
        ["minimize", "equilateral"],
        ["minimize", "golden-bfc", "--method", "reflection"],
        ["scan", "--resolution", "16"],
        ["golden"],
    ]
    stable = True
    for argv in stdout_commands:
        outputs = []
        for _ in range(2):
            code = main(list(argv))
            outputs.append((code, capsys.readouterr().out))
        stable = stable and outputs[0] == outputs[1]

    for target in ("equilateral", "golden-figure"):
        blobs = []
        for run_index in range(2):
            path = tmp_path / f"{target}-{run_index}.svg"
            code = main(["render", target, "--output", str(path)])
            capsys.readouterr()
            blobs.append((code, path.read_bytes()))
        stable = stable and blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1]

    with capsys.disabled():
        report(
            7,
            "CLI determinism",
            stable,
            f"{len(stdout_commands)} JSON commands and 2 SVG renders byte-identical",
        )
