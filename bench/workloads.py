"""Seeded inputs, correctness gates and timed loops of the three workloads.

* ``verify``: ``theorem.scan_angle_space`` at six resolutions, then
  ``theorem.proof_steps`` and ``theorem.incenter_orthocenter_check`` on each
  of a set of acute and quarter-pi triangles.
* ``oracle``: per triangle, the closed form, one grid + simplex search and
  one reflection descent; a fixed 1 in 50 of the parents is near-right.
* ``cli``: ``fagnano.cli.main(argv)`` in-process, one request at a time, with
  stdout captured.

Every input is generated from the seed before timing starts, so the program
receives only triangles, starts and argv lists.  The inputs of a workload
make one pass, and a run repeats the same pass until ``--seconds`` have
passed, so each run keeps the stated mix and every call is timed several
times, seconds apart.  Only the program call of an op is timed; its gate runs
after it, and a breach counts as a failed op.

The host's speed alternates between levels up to 1.6x apart, for seconds to
minutes at a time, whatever runs on it.  Every time is therefore reported in
reference seconds: a call's wall time divided by the wall time of a fixed
reference computation (``reference_work``) sampled just before and just
after it, on the same CPU, times ``REFERENCE_S``.  The speed level cancels.
A call's time is its median over the passes; throughput and latency
percentiles are computed from those per-call times.

Run as a script this module is the single-process child that ``run.py``
starts for one workload; it writes its tallies as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy  # noqa: E402

from fagnano import cli, golden, jsonio, optimize, render, theorem  # noqa: E402
from fagnano.geometry import (  # noqa: E402
    Point,
    Triangle,
    angles,
    classify,
    dist,
    orthic_triangle,
)

from run import IMPORT_ALL  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

# A reference second is the time of 1 / REFERENCE_S reference computations.
REFERENCE_S = 1e-4
REFERENCE_EVERY_S = 0.05  # program time between two reference samples
REFERENCE_CALLS = 5  # one sample is the least of this many computations

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0

# Acceptance-suite limits (tests/test_acceptance.py); a breach fails the op.
RESIDUAL_LIMIT = 1e-9  # proof steps, incenter(orthic) vs orthocenter
PERIMETER_REL_LIMIT = 1e-6  # solver perimeter vs closed form
FEET_LIMIT = 1e-4  # solver points vs altitude feet, per unit diameter
CLI_VALUE_LIMIT = 1e-12  # CLI JSON values vs library values
GOLDEN_LIMIT = 1e-12

# Shapes keep every angle this far from 0 and pi/2, as in the acceptance suite.
ACUTE_MARGIN = 0.01
NEAR_RIGHT_SHARE = 50  # one near-right parent in this many
NEAR_RIGHT_LOG10_M = (-3.0, -2.0)  # largest angle pi/2 - m, m log-uniform
CLI_SCAN_RESOLUTION = 16
# Requests of one cli block: 40% orthic, 15% minimize, 15% reflection,
# 15% render, 10% golden, 5% scan.
CLI_BLOCK = (
    ("orthic",) * 8
    + ("minimize",) * 3
    + ("reflection",) * 3
    + ("render",) * 3
    + ("golden",) * 2
    + ("scan",)
)
# <line>, <polygon> and <text> elements of the default figures: three sides,
# three altitudes and three orthic sides, the golden figure's two rectangles,
# and six labels (plus the golden figure's two foot labels).
SVG_ELEMENTS = {
    "triangle": {"<line ": 9, "<polygon ": 0, "<text ": 6},
    "golden-figure": {"<line ": 9, "<polygon ": 2, "<text ": 8},
}


@dataclass(frozen=True)
class Size:
    # Several small scans, not one large one, so that the reference samples
    # on either side of a call lie close to it in time.
    scan_resolutions: tuple
    acute_triangles: int
    quarter_triangles: int
    oracle_block: int
    descents: int
    oracle_blocks: int  # per pass
    cli_blocks: int  # per pass


SIZES = {
    "full": Size(
        scan_resolutions=(40, 44, 48, 52, 56, 60),
        acute_triangles=1000,
        quarter_triangles=200,
        oracle_block=NEAR_RIGHT_SHARE,
        descents=1,
        oracle_blocks=20,
        cli_blocks=50,
    ),
    "tiny": Size(
        scan_resolutions=(16,),
        acute_triangles=20,
        quarter_triangles=5,
        oracle_block=5,
        descents=1,
        oracle_blocks=2,
        cli_blocks=1,
    ),
}


# --------------------------------------------------------------------------
# Reference seconds


@dataclass(frozen=True)
class _Vec:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite coordinates")


_REFERENCE_GRID = numpy.linspace(0.0, 1.0, 256)


def reference_work() -> float:
    """A fixed computation in the package's style, independent of its code:
    small frozen points checked for finiteness, float math, a numpy call."""
    total = 0.0
    a = _Vec(0.0, 0.0)
    for i in range(60):
        b = _Vec(math.cos(0.1 * i), math.sin(0.1 * i))
        m = _Vec((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
        total += math.hypot(b.x - m.x, b.y - m.y) + math.atan2(m.y, m.x + 2.0)
        a = b
    return total + float(numpy.sum(numpy.sqrt(_REFERENCE_GRID + total)))


def reference_sample() -> float:
    """Least wall time of a few back-to-back reference computations."""
    best = math.inf
    for _ in range(REFERENCE_CALLS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------
# Tallies and the op runner


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    calls: list = field(default_factory=list)  # per call of a pass: (ops, is a latency op)
    passes: list = field(default_factory=list)  # per pass, per call: (wall s, reference index)
    refs: list = field(default_factory=list)  # reference samples, in the order taken
    failures: list = field(default_factory=list)
    since_ref: float = 0.0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(message)

    def take_reference(self) -> None:
        self.refs.append(reference_sample())
        self.since_ref = 0.0

    def start_pass(self) -> None:
        self.passes.append([])
        self.take_reference()

    def record(self, elapsed: float, samples: int, latency: bool) -> None:
        if len(self.passes) == 1:
            self.calls.append((samples, latency))
        self.passes[-1].append((elapsed, len(self.refs) - 1))
        self.since_ref += elapsed
        if self.since_ref >= REFERENCE_EVERY_S:
            self.take_reference()

    def scaled(self, elapsed: float, ref: int) -> float:
        """``elapsed`` in reference seconds, by the samples either side of it."""
        after = self.refs[ref + 1] if ref + 1 < len(self.refs) else self.refs[ref]
        return elapsed * REFERENCE_S / ((self.refs[ref] + after) / 2.0)

    def call_times(self) -> list:
        """Each call's median time over the passes, in reference seconds."""
        if any(len(times) != len(self.calls) for times in self.passes):
            raise ValueError("passes made different calls")
        return [
            statistics.median(self.scaled(*sample) for sample in samples)
            for samples in zip(*self.passes)
        ]

    def to_document(self) -> dict:
        times = self.call_times()
        ops = sum(samples for samples, _ in self.calls)
        lat = sorted(t for t, (_, latency) in zip(times, self.calls) if latency)
        wall = sum(elapsed for calls in self.passes for elapsed, _ in calls)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "passes": len(self.passes),
            "wall_s": self.wall_s,
            "pass_s": sum(times),
            "ops_per_pass": ops,
            "ops_per_s": ops / sum(times),
            "op_p50_ms": 1e3 * percentile(lat, 0.50),
            "op_p99_ms": 1e3 * percentile(lat, 0.99),
            "latency_samples": len(lat),
            "wall_ops_per_s": ops * len(self.passes) / wall,
            "reference_samples": len(self.refs),
            "reference_median_s": statistics.median(self.refs),
            "failures": self.failures,
        }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(tally, tracer, name, fn, *args, check, samples=1, latency=True):
    """Time one program call, then gate its result outside the timed region.

    ``samples`` is how many ops the call stands for (a scan is one op per
    sample); ``check`` returns a list of problems, each a failed op.
    Returns the call's result (None if it raised) and whether it passed.
    """
    start = time.perf_counter()
    try:
        out = tracer.call(name, fn, *args)
    except Exception as exc:  # any program error is a failed op, not a crash
        tally.attempted += samples
        tally.record(time.perf_counter() - start, samples, latency)
        tally.fail(samples, f"{name}: {type(exc).__name__}: {exc}")
        return None, False
    tally.record(time.perf_counter() - start, samples, latency)
    tally.attempted += samples
    try:
        problems = check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output
        problems = [f"unreadable result: {type(exc).__name__}: {exc}"]
    if problems:
        tally.fail(min(samples, len(problems)), f"{name}: {problems[0]}")
    return out, not problems


# --------------------------------------------------------------------------
# Input generation


def sample_acute_angles(rng: random.Random, margin: float = ACUTE_MARGIN):
    """Uniform angle pair of an acute shape, every angle ``margin`` from 0 and pi/2."""
    while True:
        alpha = rng.uniform(margin, HALF_PI - margin)
        beta = rng.uniform(margin, HALF_PI - margin)
        if margin <= math.pi - alpha - beta <= HALF_PI - margin:
            return alpha, beta


def acute_triangle(rng: random.Random) -> Triangle:
    return Triangle.from_angles(*sample_acute_angles(rng))


def random_start(rng: random.Random) -> optimize.InscribedConfig:
    return optimize.InscribedConfig(
        rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
    )


def near_right_triangle(u: float, v: float) -> Triangle:
    """Largest angle pi/2 - m at vertex a, m = 10**(-3 + u); beta from v.

    ``u`` and ``v`` in [0, 1) place the shape; beta stays in
    [0.05, pi/2 - 0.05], so the angle at a remains the largest.
    """
    low, high = NEAR_RIGHT_LOG10_M
    m = 10.0 ** (low + u * (high - low))
    beta = 0.05 + v * (HALF_PI - 0.1)
    return Triangle.from_angles(HALF_PI - m, beta)


@dataclass(frozen=True)
class VerifyInputs:
    resolutions: tuple
    nodes: tuple  # per resolution, the nodes its scan visits
    acute: tuple
    quarter: tuple


def verify_inputs(seed: int, size: Size, workdir: str) -> VerifyInputs:
    rng = random.Random(f"verify-{seed}")
    nodes = tuple(
        tuple(theorem.acute_grid_nodes(r)) + tuple(theorem.quarter_pi_locus_nodes(r))
        for r in size.scan_resolutions
    )
    acute = tuple(acute_triangle(rng) for _ in range(size.acute_triangles))
    quarter = tuple(
        Triangle.from_angles(
            rng.uniform(QUARTER_PI + ACUTE_MARGIN, HALF_PI - ACUTE_MARGIN), QUARTER_PI
        )
        for _ in range(size.quarter_triangles)
    )
    return VerifyInputs(size.scan_resolutions, nodes, acute, quarter)


@dataclass(frozen=True)
class OracleCase:
    triangle: Triangle
    starts: tuple
    feet: tuple


def oracle_inputs(seed: int, size: Size, workdir: str) -> tuple:
    """Blocks of ``oracle_block`` cases, exactly one near-right per block.

    The near-right shapes are the same in every run: the first points of the
    R2 additive recurrence from (0.5, 0.5), over log m and beta.  Their
    descents take from about 3 to 110 ms, depending on both, so a seeded
    set of them would move ``op_p99_ms`` more than the program does.  The seed
    draws the acute shapes, every start, and each block's near-right slot.
    """
    rng = random.Random(f"oracle-{seed}")
    blocks = []
    for b in range(size.oracle_blocks):
        slot = rng.randrange(size.oracle_block)
        cases = []
        for i in range(size.oracle_block):
            if i == slot:
                t = near_right_triangle(
                    (0.5 + b * 0.7548776662466927) % 1.0,
                    (0.5 + b * 0.5698402909980532) % 1.0,
                )
            else:
                t = acute_triangle(rng)
            starts = tuple(random_start(rng) for _ in range(size.descents))
            cases.append(OracleCase(t, starts, orthic_triangle(t).feet))
        blocks.append(tuple(cases))
    return tuple(blocks)


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    expected: object


def _coords_text(t: Triangle) -> str:
    return ",".join(repr(v) for p in t.vertices for v in (p.x, p.y))


def _expected(kind: str, argv: tuple):
    """The library's own answer for a request, computed before timing."""
    spec = render.RenderSpec()
    if kind == "orthic":
        return orthic_triangle(cli.parse_triangle(argv[1]))
    if kind == "minimize":
        return optimize.minimize_grid_then_simplex(cli.parse_triangle(argv[1]))
    if kind == "reflection":
        return optimize.minimize_reflection_descent(
            cli.parse_triangle(argv[1]), cli.parse_config(argv[5])
        )
    if kind == "golden":
        fig = golden.build()
        return {"phi": fig.phi, **golden.report_document(golden.reproduce_paper_values(fig))}
    if kind == "scan":
        return theorem.scan_angle_space(CLI_SCAN_RESOLUTION).to_document()
    if argv[1] == "golden-figure":
        return render.render_golden(golden.build(), spec)
    return render.render_triangle(cli.parse_triangle(argv[1]), spec)


def cli_inputs(seed: int, size: Size, workdir: str) -> tuple:
    """Blocks of 20 requests in the stated mix, shuffled within each block.

    One render in three draws the golden figure; the others, like every
    triangle argument, draw from the acute sampler.  Each render writes its
    own file under ``workdir``.
    """
    rng = random.Random(f"cli-{seed}")
    blocks = []
    expected_cache: dict = {}
    renders = 0
    for _ in range(size.cli_blocks):
        kinds = list(CLI_BLOCK)
        rng.shuffle(kinds)
        requests = []
        for kind in kinds:
            if kind == "golden":
                argv = ("golden",)
            elif kind == "scan":
                argv = ("scan", "--resolution", str(CLI_SCAN_RESOLUTION))
            elif kind == "render":
                target = (
                    "golden-figure" if renders % 3 == 0 else _coords_text(acute_triangle(rng))
                )
                path = os.path.join(workdir, f"figure-{renders}.svg")
                argv = ("render", target, "--output", path)
                renders += 1
            elif kind == "reflection":
                start = ",".join(repr(v) for v in random_start(rng).as_tuple())
                argv = (
                    "minimize",
                    _coords_text(acute_triangle(rng)),
                    "--method",
                    "reflection",
                    "--start",
                    start,
                )
            else:
                argv = (kind, _coords_text(acute_triangle(rng)))
            key = (kind, argv[1] if kind == "render" else argv)
            if key not in expected_cache:
                expected_cache[key] = _expected(kind, argv)
            requests.append(Request(kind, argv, expected_cache[key]))
        blocks.append(tuple(requests))
    return tuple(blocks)


# --------------------------------------------------------------------------
# Gates


def _scan_problems(report, nodes: int) -> list:
    problems = [
        f"counterexample at angles {angles_.as_tuple()}"
        for angles_, _ in report.counterexamples
    ]
    seen = report.samples_tested + report.samples_skipped
    if seen != nodes:
        problems.append(f"scan covered {seen} of {nodes} nodes")
    return problems


def _triangle_problems(quarter: bool, out) -> list:
    """Criteria 5 and 6 on one triangle; on the quarter-pi locus also the
    quarter relation."""
    report, distance = out
    problems = []
    worst = max(report.all_unconditional())
    if worst > RESIDUAL_LIMIT:
        problems.append(f"proof-step residual {worst:.3e}")
    if quarter and not report.quarter_relation_active:
        problems.append("quarter relation inactive on the quarter-pi locus")
    elif quarter and report.quarter_relation_residual > RESIDUAL_LIMIT:
        problems.append(f"quarter relation residual {report.quarter_relation_residual:.3e}")
    if distance > RESIDUAL_LIMIT:
        problems.append(f"incenter/orthocenter gap {distance:.3e}")
    return problems


def _oracle_problems(case: OracleCase, out) -> list:
    """Criterion 4: every run converged, matches the closed form and the feet."""
    closed, results = out
    t = case.triangle
    scale = t.diameter()
    problems = []
    for index, result in enumerate(results):
        label = "grid-simplex" if index == 0 else f"descent {index}"
        if not result.converged:
            problems.append(f"{label} did not converge")
        rel = abs(result.perimeter - closed) / closed
        if not rel <= PERIMETER_REL_LIMIT:
            problems.append(f"{label} perimeter off by {rel:.3e} relative")
        located = result.config.points(t)
        offset = max(dist(p, f) for p, f in zip(located, case.feet)) / scale
        if not offset <= FEET_LIMIT:
            problems.append(f"{label} points {offset:.3e} diameters from the feet")
        if index > 0:
            values = [p for _, p in result.history]
            if not all(b < a for a, b in zip(values, values[1:])):
                problems.append(f"{label} history not strictly decreasing")
    return problems


def _close(got, want) -> bool:
    return abs(got - want) <= CLI_VALUE_LIMIT


def _cli_value_problems(req: Request, text: str) -> list:
    doc = json.loads(text)
    want = req.expected
    if req.kind == "orthic":
        got = [doc["perimeter"], *doc["angles"].values()]
        got += [v for foot in doc["feet"].values() for v in foot]
        ref = [want.perimeter, *want.angles.as_tuple()]
        ref += [v for foot in want.feet for v in foot.as_tuple()]
    elif req.kind in ("minimize", "reflection"):
        if not doc["converged"] or doc["iterations"] != want.iterations:
            return [f"converged={doc['converged']} after {doc['iterations']} iterations"]
        got = [doc["perimeter"], *doc["config"].values()]
        ref = [want.perimeter, *want.config.as_tuple()]
    elif req.kind == "golden":
        if not doc["max_residual"] <= GOLDEN_LIMIT:
            return [f"golden residual {doc['max_residual']:.3e}"]
        got = [doc["phi"]] + [v["computed"] for v in doc["values"]]
        ref = [want["phi"]] + [v["computed"] for v in want["values"]]
    else:
        return [] if doc == want else ["scan report differs from the library's"]
    if len(got) != len(ref) or not all(_close(g, r) for g, r in zip(got, ref)):
        return [f"values differ from the library's: {got} vs {ref}"]
    return []


def _cli_problems(req: Request, outputs: dict, out) -> list:
    """Exit 0, library-matching output, and byte-identical repeats."""
    code, text, err = out
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    if req.kind == "render":
        with open(req.argv[3], "rb") as handle:
            blob = handle.read()
        svg = blob.decode("utf-8")
        kind = "golden-figure" if req.argv[1] == "golden-figure" else "triangle"
        counts = {tag: svg.count(tag) for tag in SVG_ELEMENTS[kind]}
        if counts != SVG_ELEMENTS[kind]:
            return [f"svg element counts {counts}"]
        if svg != req.expected:
            return ["svg differs from the library's"]
    else:
        blob = text.encode("utf-8")
        problems = _cli_value_problems(req, text)
        if problems:
            return problems
    first = outputs.setdefault(req.argv, blob)
    return [] if first == blob else ["repeated argv gave different bytes"]


# --------------------------------------------------------------------------
# Blocks


def verify_pass(inputs: VerifyInputs, tally: Tally, tracer) -> None:
    for resolution, nodes in zip(inputs.resolutions, inputs.nodes):
        tracer.next_op()
        report, passed = run_op(
            tally,
            tracer,
            "theorem.scan_angle_space",
            theorem.scan_angle_space,
            resolution,
            check=functools.partial(_scan_problems, nodes=len(nodes)),
            samples=len(nodes),
            latency=False,
        )
        if tracer.enabled and passed:
            tracer.count("theorem.scan_samples", len(nodes))
            tracer.count("theorem.scan_tested", report.samples_tested)
            with tracer.under(tracer.last):
                for alpha, beta in nodes:
                    tri = tracer.call("geometry.from_angles", Triangle.from_angles, alpha, beta)
                    tracer.call("geometry.angles", angles, tri)
                    tracer.call("geometry.orthic_triangle", orthic_triangle, tri)
            # Probes of calls the scan does not make itself; not its children.
            for alpha, beta in nodes:
                tri = Triangle.from_angles(alpha, beta)
                tracer.call("geometry.point", Point, tri.a.x, tri.a.y)
                tracer.call("geometry.classify", classify, tri)
                tracer.call("theorem.verdict", theorem.verdict, tri)
    for triangles, quarter in ((inputs.acute, False), (inputs.quarter, True)):
        check = functools.partial(_triangle_problems, quarter)
        for t in triangles:
            tracer.next_op()
            run_op(tally, tracer, "verify.triangle", _check_triangle, t, tracer, check=check)


def _check_triangle(t: Triangle, tracer):
    return (
        tracer.call("theorem.proof_steps", theorem.proof_steps, t),
        tracer.call(
            "theorem.incenter_orthocenter_check", theorem.incenter_orthocenter_check, t
        ),
    )


def _solve(case: OracleCase, tracer):
    t = case.triangle
    closed = tracer.call(
        "optimize.min_perimeter_closed_form", optimize.min_perimeter_closed_form, t
    )
    results = [
        tracer.call(
            "optimize.minimize_grid_then_simplex", optimize.minimize_grid_then_simplex, t
        )
    ]
    for start in case.starts:
        results.append(
            tracer.call(
                "optimize.minimize_reflection_descent",
                optimize.minimize_reflection_descent,
                t,
                start,
            )
        )
    return closed, results


def oracle_pass(blocks: tuple, tally: Tally, tracer) -> None:
    for case in (case for block in blocks for case in block):
        tracer.next_op()
        out, _ = run_op(
            tally,
            tracer,
            "oracle.op",
            _solve,
            case,
            tracer,
            check=functools.partial(_oracle_problems, case),
        )
        if tracer.enabled and out is not None:
            grid, *descents = out[1]
            tracer.count("optimize.grid_simplex_iterations", grid.iterations)
            for result in out[1]:
                tracer.count("optimize.nonconverged", int(not result.converged))
                tracer.count("optimize.clamped", int(result.clamped))
            for result in descents:
                tracer.count("optimize.descent_sweeps", result.iterations)
                tracer.count("optimize.descent_useful_sweeps", len(result.history) - 1)
            tracer.call("optimize.objective", optimize.objective, case.triangle, grid.config)


def _invoke(argv: tuple):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _replay_cli(req: Request, text: str, tracer) -> None:
    """Re-run, on the same inputs, the public functions ``main`` used."""
    tracer.call("cli.build_parser", cli.build_parser)
    spec = render.RenderSpec()
    kind, argv = req.kind, req.argv
    if kind == "golden":
        fig = tracer.call("golden.build", golden.build)
        tracer.call("golden.reproduce_paper_values", golden.reproduce_paper_values, fig)
    elif kind == "scan":
        tracer.call("theorem.scan_angle_space", theorem.scan_angle_space, CLI_SCAN_RESOLUTION)
    elif kind == "render" and argv[1] == "golden-figure":
        fig = tracer.call("golden.build", golden.build)
        svg = tracer.call("render.render_golden", render.render_golden, fig, spec)
        tracer.count("render.svg_bytes", len(svg.encode("utf-8")))
    else:
        t = tracer.call("cli.parse_triangle", cli.parse_triangle, argv[1])
        if kind == "render":
            svg = tracer.call("render.render_triangle", render.render_triangle, t, spec)
            tracer.count("render.svg_bytes", len(svg.encode("utf-8")))
        elif kind == "orthic":
            tracer.call("geometry.orthic_triangle", orthic_triangle, t)
        elif kind == "minimize":
            tracer.call(
                "optimize.minimize_grid_then_simplex", optimize.minimize_grid_then_simplex, t
            )
        else:
            start = tracer.call("cli.parse_config", cli.parse_config, argv[5])
            tracer.call(
                "optimize.minimize_reflection_descent",
                optimize.minimize_reflection_descent,
                t,
                start,
            )
    if kind != "render":
        tracer.call("jsonio.dumps", jsonio.dumps, json.loads(text))
        tracer.count("jsonio.bytes", len(text.encode("utf-8")))


def cli_pass(blocks: tuple, tally: Tally, tracer, outputs: dict) -> None:
    """Every pass repeats each argv; ``outputs`` keeps the first pass's bytes."""
    for req in (req for block in blocks for req in block):
        tracer.next_op()
        out, passed = run_op(
            tally,
            tracer,
            f"cli.main.{req.argv[0]}",
            _invoke,
            req.argv,
            check=functools.partial(_cli_problems, req, outputs),
        )
        if tracer.enabled and passed:
            with tracer.under(tracer.last):
                _replay_cli(req, out[1], tracer)


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_pass: object


WORKLOADS = {
    "verify": Workload(verify_inputs, verify_pass),
    "oracle": Workload(oracle_inputs, oracle_pass),
    "cli": Workload(cli_inputs, cli_pass),
}


def time_setup() -> float:
    """Wall seconds of one set-up (``IMPORT_ALL``) in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_ALL, SRC], check=True, capture_output=True, timeout=120
    )
    return time.perf_counter() - start


def measure(name: str, inputs, seconds: float, tracer, after_pass=None) -> Tally:
    """Repeat whole passes of ``name`` while the next one ends within ``seconds``.

    The first pass always runs; each further pass starts only if a pass as
    long as the last one would end in time.  ``after_pass``, if given, runs
    untimed after each pass.
    """
    run_pass = WORKLOADS[name].run_pass
    if name == "cli":
        run_pass = functools.partial(run_pass, outputs={})
    tally = Tally()
    start = time.perf_counter()
    last = 0.0
    while not tally.passes or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        tally.start_pass()
        run_pass(inputs, tally, tracer)
        if after_pass is not None:
            after_pass()
        last = time.perf_counter() - begun
    tally.wall_s = time.perf_counter() - start
    return tally


# --------------------------------------------------------------------------
# Per-layer metrics of a traced run


def per_layer_metrics(verify, oracle, cli_) -> dict:
    """Named per-layer metrics, each from the traced pass of its workload."""
    metrics = {}
    for fn in ("point", "from_angles", "orthic_triangle", "angles", "classify"):
        metrics[f"geometry.{fn}_us"] = verify.mean_us(f"geometry.{fn}")
    samples = verify.counter_sum("theorem.scan_samples")
    scan = "theorem.scan_angle_space"
    metrics["theorem.scan_us_per_sample"] = verify.total_us(scan) / samples
    metrics["theorem.proof_steps_us"] = verify.mean_us("theorem.proof_steps")
    metrics["theorem.incenter_orthocenter_us"] = verify.mean_us(
        "theorem.incenter_orthocenter_check"
    )
    metrics["theorem.verdict_us"] = verify.mean_us("theorem.verdict")
    metrics["theorem.scan_tested_ratio"] = verify.counter_sum("theorem.scan_tested") / samples
    metrics["theorem.self_us"] = verify.self_us(scan) / samples

    sweeps = oracle.counter_sum("optimize.descent_sweeps")
    descent = "optimize.minimize_reflection_descent"
    grid = "optimize.minimize_grid_then_simplex"
    metrics["optimize.grid_simplex_ms"] = oracle.mean_us(grid) / 1e3
    metrics["optimize.grid_simplex_iterations"] = oracle.counter_mean(
        "optimize.grid_simplex_iterations"
    )
    metrics["optimize.descent_ms"] = oracle.mean_us(descent) / 1e3
    metrics["optimize.descent_sweeps_mean"] = oracle.counter_mean("optimize.descent_sweeps")
    metrics["optimize.descent_sweeps_max"] = oracle.counter_max("optimize.descent_sweeps")
    metrics["optimize.descent_us_per_sweep"] = oracle.total_us(descent) / sweeps
    metrics["optimize.descent_useful_sweep_ratio"] = (
        oracle.counter_sum("optimize.descent_useful_sweeps") / sweeps
    )
    metrics["optimize.objective_us"] = oracle.mean_us("optimize.objective")
    metrics["optimize.closed_form_us"] = oracle.mean_us("optimize.min_perimeter_closed_form")
    metrics["optimize.nonconverged"] = oracle.counter_sum("optimize.nonconverged")
    metrics["optimize.clamped"] = oracle.counter_sum("optimize.clamped")

    for command in ("orthic", "minimize", "render", "golden", "scan"):
        metrics[f"cli.main_us.{command}"] = cli_.mean_us(f"cli.main.{command}")
    metrics["cli.build_parser_us"] = cli_.mean_us("cli.build_parser")
    metrics["cli.parse_triangle_us"] = cli_.mean_us("cli.parse_triangle")
    metrics["cli.self_us"] = cli_.self_us("cli.main.*") / cli_.calls("cli.main.*")
    metrics["jsonio.dumps_us"] = cli_.mean_us("jsonio.dumps")
    metrics["jsonio.bytes"] = cli_.counter_mean("jsonio.bytes")
    metrics["render.triangle_us"] = cli_.mean_us("render.render_triangle")
    metrics["render.golden_us"] = cli_.mean_us("render.render_golden")
    metrics["render.svg_bytes"] = cli_.counter_mean("render.svg_bytes")
    metrics["golden.build_us"] = cli_.mean_us("golden.build")
    metrics["golden.reproduce_us"] = cli_.mean_us("golden.reproduce_paper_values")
    return metrics


# --------------------------------------------------------------------------
# Child process entry point


def _blas_record() -> str:
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one workload in this process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True, help="render output directory")
    parser.add_argument("--out", required=True, help="JSON report path")
    args = parser.parse_args(argv)

    # The reference computations and the calls they scale must run on the
    # same CPU, at the same speed level; set-up interpreters inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    size = SIZES[args.size]
    names = sorted(WORKLOADS) if args.trace else [args.workload]
    inputs = {n: WORKLOADS[n].make_inputs(args.seed, size, args.workdir) for n in names}
    gc.collect()
    gc.freeze()  # keep the inputs out of the collections timed below

    report = {
        "fagnano": os.path.dirname(sys.modules["fagnano"].__file__),
        "numpy": numpy.__version__,
        "blas": _blas_record(),
    }
    # A traced run splits --seconds in quarters: one untraced, for the
    # overhead ratio, and one traced for each workload.
    seconds = args.seconds / 4.0 if args.trace else args.seconds
    setup = report["setup_samples_s"] = []
    setup_wall = report["setup_wall_s"] = []

    def set_up() -> None:
        before = reference_sample()
        setup_wall.append(time_setup())
        after = reference_sample()
        setup.append(setup_wall[-1] * REFERENCE_S / ((before + after) / 2.0))

    tally = measure(args.workload, inputs[args.workload], seconds, NullTracer(), set_up)
    report["tally"] = tally.to_document()
    if args.trace:
        summaries, passes = {}, {}
        for name in names:
            tracer = Tracer()
            passes[name] = measure(name, inputs[name], seconds, tracer).to_document()
            summaries[name] = tracer.summary()
            tracer.write(os.path.join(args.workdir, f"spans-{name}.csv.gz"))
        report["traced"] = passes
        report["layers"] = {name: s.to_document() for name, s in summaries.items()}
        metrics = per_layer_metrics(summaries["verify"], summaries["oracle"], summaries["cli"])
        metrics["trace_overhead_ratio"] = (
            report["tally"]["ops_per_s"] / passes[args.workload]["ops_per_s"]
        )
        report["per_layer"] = metrics
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
