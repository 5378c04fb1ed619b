"""The golden-rectangle construction and its minimal inscribed triangle.

A golden rectangle abcd (ab = 1, bc = phi) splits into the unit square abef
and the smaller golden rectangle fecd.  Triangle bfc is acute with a pi/4
angle at b, so its minimal inscribed triangle ghe is right-angled at h with
sides in proportion (1, 2, sqrt(5)).  Everything below reproduces the named
lengths bg, ge, he, gh from coordinates and checks them against their closed
forms.

Fixed embedding: a=(0,0), b=(1,0), c=(1,phi), d=(0,phi), e=(1,1), f=(0,1).
This puts bc on the line x=1, so the altitude foot dropped from f lands
exactly on the square corner e (the two uses of the label e coincide and the
builder asserts it).
"""

from __future__ import annotations

import math

from .geometry import Point, Triangle, _Record, dist, orthic_triangle

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# The fixed embedding above, as coordinate pairs.
A, B, C, D, E, F = (0.0, 0.0), (1.0, 0.0), (1.0, PHI), (0.0, PHI), (1.0, 1.0), (0.0, 1.0)


class ValueCheck(_Record):
    """One reproduced quantity: coordinate value vs. closed form."""

    _fields = ("name", "computed", "expected")

    @property
    def residual(self) -> float:
        return abs(self.computed - self.expected)

    def to_document(self) -> dict:
        return dict(zip(self._fields, self._values()), residual=self.residual)


class GoldenFigure(_Record):
    _fields = ("phi", "a", "b", "c", "d", "e", "f", "triangle_bfc", "bg", "ge", "he", "gh")


def build() -> GoldenFigure:
    """Construct the figure and measure the named lengths.

    ``triangle_bfc`` is stored in the (already counterclockwise) vertex order
    b, c, f, so the feet are: from b -> h on cf, from c -> g on fb, and from
    f -> the square corner e on bc.  The feet are not stored: bg, ge, he and
    gh are measured from them here, and ``orthic_triangle(triangle_bfc)``
    gives them again.
    """
    a, b, c, d, e, f = (Point(*p) for p in (A, B, C, D, E, F))
    tri = Triangle(b, c, f)
    orth = orthic_triangle(tri)
    h = orth.foot_from_a
    g = orth.foot_from_b
    e_foot = orth.foot_from_c
    if dist(e_foot, e) > 1e-12:
        raise AssertionError(
            f"altitude foot from f {e_foot} does not coincide with square corner {e}"
        )
    return GoldenFigure(
        phi=PHI,
        a=a,
        b=b,
        c=c,
        d=d,
        e=e,
        f=f,
        triangle_bfc=tri,
        bg=dist(b, g),
        ge=dist(g, e),
        he=dist(h, e),
        gh=dist(g, h),
    )


def law_of_cosines(p: float, q: float, included_angle: float) -> float:
    """Third side of a triangle with sides p, q enclosing the given angle."""
    if not (0.0 < p < math.inf and 0.0 < q < math.inf):
        raise ValueError(f"sides must be positive and finite, got ({p}, {q})")
    if not (0.0 < included_angle < math.pi):
        raise ValueError(f"included angle {included_angle} outside (0, pi)")
    return math.sqrt(p * p + q * q - 2.0 * p * q * math.cos(included_angle))


def reproduce_paper_values(fig: GoldenFigure) -> list[ValueCheck]:
    """Compare every coordinate-measured quantity with its closed form.

    Closed forms: bg = phi/sqrt(2), ge = sqrt((1 + phi^2) / (2 phi^2)),
    he = sqrt(2 / (1 + phi^2)), ge/he = sqrt(5)/2, and orthic sides sorted and
    divided by the smallest equal to (1, 2, sqrt(5)).  The law-of-cosines row
    rebuilds ge from bg, be and the pi/4 angle at b as a third route.
    """
    phi = fig.phi
    checks = [
        ValueCheck("bg", fig.bg, phi / math.sqrt(2.0)),
        ValueCheck("ge", fig.ge, math.sqrt((1.0 + phi * phi) / (2.0 * phi * phi))),
        ValueCheck("he", fig.he, math.sqrt(2.0 / (1.0 + phi * phi))),
        ValueCheck("ge_over_he", fig.ge / fig.he, math.sqrt(5.0) / 2.0),
        ValueCheck(
            "ge_law_of_cosines",
            law_of_cosines(fig.bg, dist(fig.b, fig.e), math.pi / 4.0),
            fig.ge,
        ),
    ]
    sides = sorted([fig.gh, fig.he, fig.ge])
    checks.append(ValueCheck("side_ratio_min", sides[0] / sides[0], 1.0))
    checks.append(ValueCheck("side_ratio_mid", sides[1] / sides[0], 2.0))
    checks.append(ValueCheck("side_ratio_max", sides[2] / sides[0], math.sqrt(5.0)))
    return checks


def report_document(checks: list[ValueCheck]) -> dict:
    """Deterministic report payload for the checks."""
    return {
        "values": [check.to_document() for check in checks],
        "max_residual": max(check.residual for check in checks),
    }
