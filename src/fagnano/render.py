"""Standalone SVG diagrams of triangles with altitudes and orthic overlays.

Output is deterministic byte-for-byte for identical inputs: fixed coordinate
formatting, no timestamps, no environment lookups.  World coordinates map
into the margin-inset viewport by one uniform scale-and-translate (aspect
preserved) with the y axis flipped so figures read the usual way up.
"""

from __future__ import annotations

import math

from .geometry import Point, Triangle, _Record, _set, orthic_triangle
from .golden import GoldenFigure


class RenderSpec(_Record):
    _fields = (
        "width_px", "height_px", "margin_px", "show_altitudes", "show_orthic", "show_labels",
    )

    def __init__(
        self, width_px: int = 640, height_px: int = 480, margin_px: int = 48,
        show_altitudes: bool = True, show_orthic: bool = True, show_labels: bool = True,
    ):
        if width_px < 64 or height_px < 64:
            raise ValueError(f"viewport {width_px}x{height_px} below the 64 px minimum")
        # The layout takes the height and the drawable width (the width less
        # both margins) as floats: a size beyond the float range is refused.
        try:
            float(height_px)
        except OverflowError:
            raise ValueError(f"height {height_px} px is beyond the float range") from None
        if not (0 <= margin_px < min(width_px, height_px) / 4):
            raise ValueError(
                f"margin {margin_px} must be nonnegative and below "
                f"min(width, height)/4 = {min(width_px, height_px) / 4:g}"
            )
        try:
            float(width_px - 2 * margin_px)
        except OverflowError:
            raise ValueError(
                f"width {width_px} px less both margins is beyond the float range"
            ) from None
        _set(self, "width_px", width_px)
        _set(self, "height_px", height_px)
        _set(self, "margin_px", margin_px)
        _set(self, "show_altitudes", show_altitudes)
        _set(self, "show_orthic", show_orthic)
        _set(self, "show_labels", show_labels)


class _Canvas:
    """Collects SVG elements over a fixed world-to-screen transform."""

    def __init__(self, points: list[Point], spec: RenderSpec):
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        # The points span an area, so neither span is zero.  Offsets times
        # 2^-k put the larger span in [0.5, 1): the scale can then neither
        # overflow nor underflow, and is the same at every power-of-two scale.
        self.k = math.frexp(max(xmax - xmin, ymax - ymin))[1]
        span_x = math.ldexp(xmax - xmin, -self.k)
        span_y = math.ldexp(ymax - ymin, -self.k)
        avail_w = spec.width_px - 2 * spec.margin_px
        avail_h = spec.height_px - 2 * spec.margin_px
        self.scale = min(avail_w / span_x, avail_h / span_y)
        if math.isinf(self.scale):
            # A drawable size near the float maximum over a span below 1.
            raise ValueError(
                f"viewport {spec.width_px}x{spec.height_px} px is too large to lay out"
            )
        self.ox = spec.margin_px + (avail_w - self.scale * span_x) / 2.0
        self.oy = spec.margin_px + (avail_h - self.scale * span_y) / 2.0
        self.xmin, self.ymin = xmin, ymin
        self.height = spec.height_px
        self.elements: list[str] = []

    def to_screen(self, p: Point) -> tuple[float, float]:
        sx = self.ox + math.ldexp(p.x - self.xmin, -self.k) * self.scale
        sy = self.height - (self.oy + math.ldexp(p.y - self.ymin, -self.k) * self.scale)
        return sx, sy

    def line(self, p: Point, q: Point, stroke: str, width: float, dash: str = "") -> None:
        x1, y1 = self.to_screen(p)
        x2, y2 = self.to_screen(q)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{x1:.4f}" y1="{y1:.4f}" x2="{x2:.4f}" y2="{y2:.4f}" '
            f'stroke="{stroke}" stroke-width="{width:g}"{extra}/>'
        )

    def polygon(self, points: list[Point], stroke: str, width: float) -> None:
        coords = " ".join(
            "{:.4f},{:.4f}".format(*self.to_screen(p)) for p in points
        )
        self.elements.append(
            f'<polygon points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width:g}"/>'
        )

    def dot(self, p: Point, fill: str) -> None:
        x, y = self.to_screen(p)
        self.elements.append(f'<circle cx="{x:.4f}" cy="{y:.4f}" r="2.5" fill="{fill}"/>')

    def label(self, p: Point, text: str, dx: float = 6.0, dy: float = -6.0) -> None:
        x, y = self.to_screen(p)
        self.elements.append(
            f'<text x="{x + dx:.4f}" y="{y + dy:.4f}" font-family="sans-serif" '
            f'font-size="14">{text}</text>'
        )

    def render(self, spec: RenderSpec) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{spec.width_px}" height="{spec.height_px}" '
            f'viewBox="0 0 {spec.width_px} {spec.height_px}">'
        )
        body = "\n".join("  " + el for el in self.elements)
        return f"{head}\n{body}\n</svg>\n"


def _draw_construction(
    canvas: _Canvas,
    t: Triangle,
    spec: RenderSpec,
    vertex_labels: tuple[str | None, str | None, str | None],
    foot_labels: tuple[str | None, str | None, str | None],
) -> None:
    a, b, c = t.vertices
    canvas.line(a, b, "#1a1a1a", 1.6)
    canvas.line(b, c, "#1a1a1a", 1.6)
    canvas.line(c, a, "#1a1a1a", 1.6)
    feet = None
    if spec.show_altitudes or spec.show_orthic:
        feet = orthic_triangle(t).feet
    if spec.show_altitudes:
        for vertex, foot in zip(t.vertices, feet):
            canvas.line(vertex, foot, "#7a7a7a", 1.0, dash="5,4")
    if spec.show_orthic:
        fa, fb, fc = feet
        canvas.line(fa, fb, "#c03030", 1.4)
        canvas.line(fb, fc, "#c03030", 1.4)
        canvas.line(fc, fa, "#c03030", 1.4)
    if spec.show_labels:
        for p, name in zip(t.vertices, vertex_labels):
            canvas.dot(p, "#1a1a1a")
            if name:
                canvas.label(p, name)
        if feet is not None:
            for p, name in zip(feet, foot_labels):
                canvas.dot(p, "#c03030")
                if name:
                    canvas.label(p, name, dx=6.0, dy=14.0)


def render_triangle(t: Triangle, spec: RenderSpec) -> str:
    """Triangle with optional altitude and orthic overlays (feet D, E, F)."""
    canvas = _Canvas(list(t.vertices), spec)
    _draw_construction(canvas, t, spec, ("A", "B", "C"), ("D", "E", "F"))
    return canvas.render(spec)


def render_golden(fig: GoldenFigure, spec: RenderSpec) -> str:
    """The golden rectangle, its unit square, and the inscribed construction.

    The triangle's vertices already carry rectangle labels, so only the two
    feet away from the square corner get their own (H from b, G from c).
    """
    canvas = _Canvas([fig.a, fig.b, fig.c, fig.d], spec)
    canvas.polygon([fig.a, fig.b, fig.c, fig.d], "#9a9a9a", 1.0)
    canvas.polygon([fig.a, fig.b, fig.e, fig.f], "#9a9a9a", 1.0)
    _draw_construction(
        canvas, fig.triangle_bfc, spec, (None, None, None), ("H", "G", None)
    )
    if spec.show_labels:
        for p, name in (
            (fig.a, "A"),
            (fig.b, "B"),
            (fig.c, "C"),
            (fig.d, "D"),
            (fig.e, "E"),
            (fig.f, "F"),
        ):
            canvas.label(p, name, dx=-16.0 if p.x < 0.5 else 6.0, dy=-6.0)
    return canvas.render(spec)
