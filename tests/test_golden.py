import math

import pytest

from fagnano import cli
from fagnano.geometry import TriangleKind, angles, classify, dist, orthic_triangle
from fagnano.golden import build, law_of_cosines, report_document, reproduce_paper_values
from fagnano.optimize import minimize_grid_then_simplex
from fagnano.theorem import verdict


@pytest.fixture(scope="module")
def fig():
    return build()


def test_phi_value(fig):
    assert fig.phi == (1.0 + math.sqrt(5.0)) / 2.0
    assert fig.phi == 1.6180339887498949  # same double, written to 17 digits
    assert abs(fig.phi**2 - (fig.phi + 1.0)) <= 1e-15


def test_cli_preset_is_the_figure_triangle(fig):
    # The golden-bfc preset reads its coordinates from the golden module.
    assert cli.parse_triangle("golden-bfc") == fig.triangle_bfc


def test_rectangle_and_square_measures(fig):
    assert dist(fig.a, fig.b) == 1.0
    assert dist(fig.b, fig.c) == pytest.approx(fig.phi, abs=1e-15)
    square = (fig.a, fig.b, fig.e, fig.f)
    for i in range(4):
        assert dist(square[i], square[(i + 1) % 4]) == pytest.approx(1.0, abs=1e-12)
        p, corner, r = square[i], square[(i + 1) % 4], square[(i + 2) % 4]
        ux, uy, vx, vy = p.x - corner.x, p.y - corner.y, r.x - corner.x, r.y - corner.y
        assert abs(ux * vx + uy * vy) <= 1e-12


def test_leftover_rectangle_is_golden(fig):
    # fecd: removing the unit square leaves a rectangle similar to the whole
    long_side = dist(fig.f, fig.e)
    short_side = dist(fig.e, fig.c)
    assert long_side / short_side == pytest.approx(fig.phi, abs=1e-12)
    outer = dist(fig.b, fig.c) / dist(fig.a, fig.b)
    assert long_side / short_side == pytest.approx(outer, abs=1e-12)


def test_triangle_bfc_is_acute_with_quarter_pi_at_b(fig):
    assert classify(fig.triangle_bfc).kind is TriangleKind.ACUTE
    assert fig.triangle_bfc.a == fig.b
    assert angles(fig.triangle_bfc).alpha == pytest.approx(math.pi / 4, abs=1e-15)


# The figure stores only the lengths measured from the feet; the feet
# themselves come from the orthic triangle of bfc (order b, c, f).
def test_foot_from_f_is_square_corner(fig):
    assert dist(orthic_triangle(fig.triangle_bfc).foot_from_c, fig.e) <= 1e-12


def test_foot_labels(fig):
    g = orthic_triangle(fig.triangle_bfc).foot_from_b
    assert dist(g, fig.b) == pytest.approx(fig.bg, abs=1e-15)
    assert g.x == pytest.approx(1.0 - fig.phi / 2.0, abs=1e-12)
    assert g.y == pytest.approx(fig.phi / 2.0, abs=1e-12)


def test_reproduced_values_match_closed_forms(fig):
    checks = reproduce_paper_values(fig)
    by_name = {c.name: c for c in checks}
    assert by_name["bg"].expected == fig.phi / math.sqrt(2.0)
    assert by_name["ge"].expected == math.sqrt(
        (1.0 + fig.phi**2) / (2.0 * fig.phi**2)
    )
    assert by_name["he"].expected == math.sqrt(2.0 / (1.0 + fig.phi**2))
    assert by_name["ge_over_he"].expected == math.sqrt(5.0) / 2.0
    for check in checks:
        assert check.residual <= 1e-12, check


def test_ge_three_ways(fig):
    coordinate = fig.ge
    closed = math.sqrt((1.0 + fig.phi**2) / (2.0 * fig.phi**2))
    via_cosines = law_of_cosines(fig.bg, dist(fig.b, fig.e), math.pi / 4.0)
    assert abs(coordinate - closed) <= 1e-12
    assert abs(coordinate - via_cosines) <= 1e-12
    assert abs(closed - via_cosines) <= 1e-12


def test_orthic_right_angle_pythagoras(fig):
    assert fig.gh**2 + fig.he**2 == pytest.approx(fig.ge**2, abs=1e-12)


def test_side_proportions(fig):
    sides = sorted([fig.gh, fig.he, fig.ge])
    assert sides[1] / sides[0] == pytest.approx(2.0, abs=1e-12)
    assert sides[2] / sides[0] == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_law_of_cosines_basics():
    assert law_of_cosines(1.0, 1.0, math.pi / 3.0) == pytest.approx(1.0, abs=1e-15)
    assert law_of_cosines(3.0, 4.0, math.pi / 2.0) == pytest.approx(5.0, abs=1e-15)
    for p, q in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="sides must be positive and finite"):
            law_of_cosines(p, q, 1.0)
    with pytest.raises(ValueError):
        law_of_cosines(1.0, 1.0, math.pi)


def test_figure_is_theorem_instance(fig):
    v = verdict(fig.triangle_bfc)
    assert v.biconditional_holds and v.pairing_holds is True
    assert v.quarter_pi_vertex == 0  # vertex b of the rectangle


def test_orthic_perimeter_matches_optimizer(fig):
    result = minimize_grid_then_simplex(fig.triangle_bfc)
    orthic = orthic_triangle(fig.triangle_bfc)
    assert abs(result.perimeter - orthic.perimeter) / orthic.perimeter <= 1e-6


def test_report_document_shape(fig):
    doc = report_document(reproduce_paper_values(fig))
    assert set(doc) == {"values", "max_residual"}
    assert doc["max_residual"] <= 1e-12
    assert {v["name"] for v in doc["values"]} >= {"bg", "ge", "he", "ge_over_he"}
