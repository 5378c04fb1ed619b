"""The package's public surface, pinned.

Each module's public definitions are read with ``ast`` from its source file,
so a name that one module imports from another does not count.  A
definition is public when its name has no leading underscore or is a dunder;
for each public class its public methods and properties count as well.  A
change that adds or removes a public name must edit SURFACE.

A record whose ``__init__`` ``_Record`` builds from ``_fields`` has no
``__init__`` in its source, so none is listed; its constructor's fields,
order and defaults are pinned in test_records.RECORDS.
"""

import ast
import pathlib

import fagnano

SURFACE = {
    "__init__": set(),
    "__main__": set(),
    "cli": {
        "EXIT_OK", "EXIT_PARSE", "EXIT_PRECONDITION", "EXIT_NONCONVERGENCE",
        "EXIT_COUNTEREXAMPLE", "EXIT_IO", "GOLDEN_RESIDUAL_LIMIT",
        "parse_triangle", "parse_config", "build_parser", "main",
    },
    "geometry": {
        "DEGENERACY_TOL", "ANGLE_TOL", "ANGLE_SUM_TOL",
        "GeometryError", "NonFiniteError", "DegenerateTriangleError", "NotAcuteError",
        "Point", "Point.as_tuple",
        "dist",
        "TriangleKind", "TriangleClass",
        "AngleTriple", "AngleTriple.__init__", "AngleTriple.as_tuple",
        "Triangle", "Triangle.__init__", "Triangle.from_angles",
        "Triangle.vertices", "Triangle.diameter",
        "angles", "classify", "check_tolerance", "require_acute",
        "OrthicResult", "OrthicResult.feet", "OrthicResult.side_lengths",
        "orthic_triangle",
    },
    "golden": {
        "PHI",
        "ValueCheck", "ValueCheck.residual", "ValueCheck.to_document",
        "GoldenFigure",
        "build", "law_of_cosines", "reproduce_paper_values", "report_document",
    },
    "jsonio": {"format_float", "dumps"},
    "optimize": {
        "CLAMP_MARGIN", "NEAR_RIGHT_MARGIN", "DEFAULT_MAX_ITER",
        "DEFAULT_SIMPLEX_TOL", "DEFAULT_DESCENT_TOL",
        "InvalidConfigError",
        "InscribedConfig", "InscribedConfig.__init__",
        "InscribedConfig.as_tuple", "InscribedConfig.points",
        "MinimizeResult",
        "objective", "minimize_grid_then_simplex", "minimize_reflection_descent",
        "min_perimeter_closed_form",
    },
    "render": {"RenderSpec", "RenderSpec.__init__", "render_triangle", "render_golden"},
    "theorem": {
        "QUARTER_PI", "HALF_PI", "ANGLE_LAW_BOUND",
        "TheoremVerdict", "TheoremVerdict.to_document", "verdict",
        "ProofStepReport", "ProofStepReport.all_unconditional",
        "proof_steps",
        "incenter_orthocenter_check",
        "ScanReport", "ScanReport.to_document",
        "acute_grid_nodes", "quarter_pi_locus_nodes", "scan_angle_space",
    },
}


def is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def defined_names(source: str) -> set[str]:
    """Public top-level functions, classes and constants of a module, with
    the public methods and properties of its public classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, functions) and is_public(node.name):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names.add(node.name)
            names.update(
                f"{node.name}.{member.name}"
                for member in node.body
                if isinstance(member, functions) and is_public(member.name)
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")
            )
    return names


def test_public_surface_is_pinned():
    package = pathlib.Path(fagnano.__file__).parent
    surface = {path.stem: defined_names(path.read_text()) for path in package.glob("*.py")}
    unpinned = {m: names - SURFACE.get(m, set()) for m, names in surface.items()}
    gone = {m: names - surface.get(m, set()) for m, names in SURFACE.items()}
    assert {m: v for m, v in unpinned.items() if v} == {}
    assert {m: v for m, v in gone.items() if v} == {}
