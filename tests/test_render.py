import math
import re

import pytest

from conftest import scaled
from fagnano.geometry import NotAcuteError, Point, Triangle
from fagnano.golden import build
from fagnano.render import RenderSpec, render_golden, render_triangle


def test_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec(width_px=32)
    with pytest.raises(ValueError):
        RenderSpec(height_px=10)
    with pytest.raises(ValueError):
        RenderSpec(width_px=200, height_px=200, margin_px=50)
    RenderSpec(width_px=200, height_px=200, margin_px=49)


def test_equilateral_line_inventory(equilateral):
    svg = render_triangle(equilateral, RenderSpec())
    assert svg.count("<line ") == 9  # 3 edges + 3 altitudes + 3 orthic sides
    assert svg.count("<polygon ") == 0


def test_overlays_can_be_disabled(equilateral):
    svg = render_triangle(
        equilateral, RenderSpec(show_altitudes=False, show_orthic=False)
    )
    assert svg.count("<line ") == 3


def test_golden_figure_inventory():
    svg = render_golden(build(), RenderSpec())
    assert svg.count("<line ") == 9
    assert svg.count("<polygon ") == 2  # rectangle and square outlines


def test_non_acute_with_overlays_raises():
    right = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    with pytest.raises(NotAcuteError):
        render_triangle(right, RenderSpec())
    svg = render_triangle(
        right, RenderSpec(show_altitudes=False, show_orthic=False)
    )
    assert svg.count("<line ") == 3


def test_deterministic_bytes(equilateral):
    spec = RenderSpec(width_px=512, height_px=384, margin_px=30)
    assert render_triangle(equilateral, spec) == render_triangle(equilateral, spec)
    assert render_golden(build(), spec) == render_golden(build(), spec)


def test_coordinates_respect_margins(equilateral):
    spec = RenderSpec(width_px=400, height_px=300, margin_px=40)
    svg = render_triangle(equilateral, spec)
    xs = [float(v) for v in re.findall(r'x[12]="([-0-9.]+)"', svg)]
    ys = [float(v) for v in re.findall(r'y[12]="([-0-9.]+)"', svg)]
    assert min(xs) >= spec.margin_px - 1e-6 and max(xs) <= 400 - spec.margin_px + 1e-6
    assert min(ys) >= spec.margin_px - 1e-6 and max(ys) <= 300 - spec.margin_px + 1e-6


def test_y_axis_is_flipped(equilateral):
    # the apex has the largest world y, so it must map to the smallest
    # screen y
    spec = RenderSpec(show_labels=False)
    svg = render_triangle(equilateral, spec)
    ys = [float(v) for v in re.findall(r'y[12]="([-0-9.]+)"', svg)]
    apex_screen_y = min(ys)
    base_screen_y = max(ys)
    assert apex_screen_y < base_screen_y


@pytest.mark.parametrize("k", (-1000, -44, 30, 1000))
def test_power_of_two_scale_gives_the_same_svg(equilateral, k):
    # The canvas fits the figure to the viewport, so a triangle scaled by
    # 2^k, which is exact, draws the same picture byte for byte.
    scalene = Triangle(Point(-1.0, 0.3), Point(2.5, -0.7), Point(0.4, 3.0))
    for t in (equilateral, scalene):
        assert render_triangle(scaled(t, k), RenderSpec()) == render_triangle(t, RenderSpec())


def test_subnormal_triangle_renders_finite_coordinates(equilateral):
    # Spans near 1e-319 would make the viewport scale overflow to inf and
    # every coordinate NaN; the canvas measures offsets in units of a power
    # of two near the span.  The feet lose bits here, so only finiteness is
    # required.
    tiny = scaled(equilateral, -1060)
    numbers = re.findall(r' (?:x|y|x1|y1|x2|y2|cx|cy)="([^"]+)"', render_triangle(tiny, RenderSpec()))
    assert numbers and all(math.isfinite(float(v)) for v in numbers)
