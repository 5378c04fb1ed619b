"""Plane-geometry primitives: triangles, altitude feet, orthic triangles, centers.

Everything here is a pure function of double-precision coordinates.  Angles are
measured with the two-argument arctangent of cross and dot products, never with
``acos``, so values near 0 and pi keep full precision.  Degeneracy and
right-angle classification are tolerance based; the tolerances are module
constants shared by every consumer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

# A triangle is degenerate when area < DEGENERACY_TOL * (longest side)^2.
DEGENERACY_TOL = 1e-12
# Acute/Right/Obtuse boundary: |largest angle - pi/2| <= ANGLE_TOL.
ANGLE_TOL = 1e-9
# AngleTriple components must sum to pi within this.
ANGLE_SUM_TOL = 1e-12


class GeometryError(ValueError):
    """Base class for construction failures."""


class NonFiniteError(GeometryError):
    """A coordinate was NaN or infinite."""


class DegenerateTriangleError(GeometryError):
    """Triangle area is below the degeneracy tolerance."""


class NotAcuteError(GeometryError):
    """An operation that requires an acute triangle got a non-acute one."""


@dataclass(frozen=True)
class Point:
    """A position in the Euclidean plane.  Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        x, y = float(self.x), float(self.y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NonFiniteError(f"non-finite coordinates ({self.x}, {self.y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def dot(self, other: Point) -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: Point) -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def lerp(p: Point, q: Point, t: float) -> Point:
    """Affine point p + t*(q - p)."""
    return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def _angle(ux: float, uy: float, vx: float, vy: float) -> float:
    """Unsigned angle between the vectors (ux, uy) and (vx, vy), in [0, pi]."""
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def angle_between(u: Point, v: Point) -> float:
    """Unsigned angle between two vectors, in [0, pi]."""
    return _angle(u.x, u.y, v.x, v.y)


def angle_at(p: Point, q: Point, r: Point) -> float:
    """Angle at vertex q of the path p-q-r, in [0, pi]."""
    return angle_between(p - q, r - q)


class TriangleKind(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class TriangleClass:
    """Shape classification plus the signed margin of the largest angle.

    ``margin = pi/2 - largest_angle``: positive for acute, negative for obtuse,
    |margin| <= tol for right.  For degenerate input the margin is still the
    (meaningless) value computed from the collapsed angles.
    """

    kind: TriangleKind
    margin: float


@dataclass(frozen=True)
class AngleTriple:
    """Interior angles in radians, indexed by vertex (alpha at a, etc.)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for value in (self.alpha, self.beta, self.gamma):
            if not (0.0 < value < math.pi):
                raise GeometryError(f"angle {value} outside (0, pi)")
        if abs(self.alpha + self.beta + self.gamma - math.pi) > ANGLE_SUM_TOL:
            raise GeometryError(
                f"angle sum {self.alpha + self.beta + self.gamma} differs from pi "
                f"by more than {ANGLE_SUM_TOL}"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)

    def largest(self) -> tuple[int, float]:
        """(vertex index, value) of the largest angle."""
        values = self.as_tuple()
        i = max(range(3), key=lambda k: values[k])
        return i, values[i]


@dataclass(frozen=True)
class Triangle:
    """Ordered vertex triple, normalized to counterclockwise orientation.

    Construction swaps b and c when the input winds clockwise (the swap is
    observable) and rejects triangles whose longest side is zero or leaves the
    double range, or whose area falls below the degeneracy tolerance.
    """

    a: Point
    b: Point
    c: Point

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        # Measure the sides on bare floats first: a coordinate difference that
        # overflows must name its side, where a Point subtraction would fail
        # as a non-finite Point.
        longest = 0.0
        for q, r in ((a, b), (b, c), (c, a)):
            length = dist(q, r)
            if not math.isfinite(length):
                raise DegenerateTriangleError(
                    f"side ({q.x!r}, {q.y!r})-({r.x!r}, {r.y!r}) has length "
                    f"{length!r}, outside the double range; rescale the triangle"
                )
            longest = max(longest, length)
        ux, uy, vx, vy = b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y
        tested, limit = ux * vy - uy * vx, DEGENERACY_TOL * longest * longest
        if not (math.isfinite(tested) and sys.float_info.min <= limit <= sys.float_info.max):
            # The cross products overflowed, or the limit left the normal
            # range (it underflows to 0 for tiny sides, which would pass
            # any collinear triple).  Scaling the differences by 2^-e, e the
            # exponent of the longest side, is exact and puts the longest
            # side in [0.5, 1), where the same test can neither overflow nor
            # underflow; the scaled area also gives the orientation below.
            e = -math.frexp(longest)[1]
            ux, uy = math.ldexp(ux, e), math.ldexp(uy, e)
            vx, vy = math.ldexp(vx, e), math.ldexp(vy, e)
            size = math.ldexp(longest, e)
            tested, limit = ux * vy - uy * vx, DEGENERACY_TOL * size * size
        if longest == 0.0 or abs(tested) / 2.0 < limit:
            raise DegenerateTriangleError("vertices are (near-)collinear")
        if tested < 0.0:
            object.__setattr__(self, "b", c)
            object.__setattr__(self, "c", b)

    @classmethod
    def from_angles(
        cls, alpha: float, beta: float, circumradius: float = 1.0
    ) -> Triangle:
        """Instantiate the shape with interior angles (alpha, beta, pi-alpha-beta)
        on a circle of the given radius centered at the origin.
        """
        gamma = math.pi - alpha - beta
        if min(alpha, beta, gamma) <= 0.0:
            raise GeometryError(f"angles ({alpha}, {beta}, {gamma}) do not form a triangle")
        # Central angle over each side is twice the opposite interior angle.
        ta = 0.0
        tb = 2.0 * gamma
        tc = 2.0 * gamma + 2.0 * alpha
        r = circumradius
        return cls(
            Point(r * math.cos(ta), r * math.sin(ta)),
            Point(r * math.cos(tb), r * math.sin(tb)),
            Point(r * math.cos(tc), r * math.sin(tc)),
        )

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    def vertex(self, i: int) -> Point:
        return self.vertices[i]

    def side_lengths(self) -> tuple[float, float, float]:
        """Lengths (|bc|, |ca|, |ab|), i.e. the side opposite each vertex."""
        return (dist(self.b, self.c), dist(self.c, self.a), dist(self.a, self.b))

    def signed_area(self) -> float:
        return (self.b - self.a).cross(self.c - self.a) / 2.0

    def area(self) -> float:
        return abs(self.signed_area())

    def diameter(self) -> float:
        return max(self.side_lengths())


def _largest(x: float, y: float, z: float) -> float:
    """max(x, y, z), but NaN when any of them is NaN: max skips a NaN that
    is not its first argument, and a NaN angle must not pass for acute."""
    if x != x or y != y or z != z:
        return math.nan
    return max(x, y, z)


def _raw_angles(a: Point, b: Point, c: Point) -> tuple[float, float, float]:
    return (angle_at(b, a, c), angle_at(c, b, a), angle_at(a, c, b))


def angles(t: Triangle) -> AngleTriple:
    """Interior angles of the triangle, from edge vectors at each vertex."""
    return AngleTriple(*_raw_angles(t.a, t.b, t.c))


def _classification(
    area2: float, longest: float, largest: float, tol: float
) -> TriangleClass:
    """Classify from the doubled signed area, the longest side and the
    largest interior angle."""
    margin = math.pi / 2.0 - largest
    if longest == 0.0 or abs(area2) / 2.0 < DEGENERACY_TOL * longest * longest:
        return TriangleClass(TriangleKind.DEGENERATE, margin)
    if margin > tol:
        kind = TriangleKind.ACUTE
    elif margin < -tol:
        kind = TriangleKind.OBTUSE
    else:
        kind = TriangleKind.RIGHT
    return TriangleClass(kind, margin)


def classify_points(
    a: Point, b: Point, c: Point, tol: float = ANGLE_TOL
) -> TriangleClass:
    """Total classification of a raw vertex triple (degenerate is a result)."""
    area2 = (b - a).cross(c - a)
    longest = max(dist(a, b), dist(b, c), dist(c, a))
    return _classification(area2, longest, _largest(*_raw_angles(a, b, c)), tol)


def classify(t: Triangle, tol: float = ANGLE_TOL) -> TriangleClass:
    """classify_points(t.a, t.b, t.c, tol), bit for bit, on bare floats.

    A Triangle has every side length finite, so none of the coordinate
    differences that classify_points builds as Points can fail.
    """
    ax, ay, bx, by, cx, cy = t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y
    # Each difference is formed as classify_points forms it: x - y and
    # -(y - x) can differ in the sign of a zero.
    bax, bay, cax, cay = bx - ax, by - ay, cx - ax, cy - ay
    return _classification(
        bax * cay - bay * cax,
        max(math.hypot(ax - bx, ay - by), math.hypot(bx - cx, by - cy), math.hypot(cax, cay)),
        _largest(
            _angle(bax, bay, cax, cay),
            _angle(cx - bx, cy - by, ax - bx, ay - by),
            _angle(ax - cx, ay - cy, bx - cx, by - cy),
        ),
        tol,
    )


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def require_acute(t: Triangle, tol: float = ANGLE_TOL) -> TriangleClass:
    """Raise NotAcuteError naming the offending angle unless t is acute;
    return the classification otherwise.  A tol that is negative, NaN or
    infinite raises ValueError."""
    check_tolerance("tol", tol)
    cls = classify(t, tol)
    if cls.kind is not TriangleKind.ACUTE:
        # A side whose squared length leaves the double range turns the
        # angles into NaN; name the side instead of a meaningless angle.
        for q, r in ((t.b, t.c), (t.c, t.a), (t.a, t.b)):
            projection_param(q.x, q.y, q.x, q.y, r.x, r.y)
        i, largest = angles(t).largest()
        raise NotAcuteError(
            f"triangle is {cls.kind.value}, not acute: largest angle "
            f"{largest!r} rad at vertex {'abc'[i]}"
        )
    return cls


def projection_param(
    px: float, py: float, qx: float, qy: float, rx: float, ry: float
) -> float:
    """Parameter s of the orthogonal projection of p onto the line q + s*(r - q).

    Raises DegenerateTriangleError when |r - q|^2 leaves the normal double
    range: it underflows for tiny sides and overflows for huge ones, and the
    quotient would be a division by zero or inf/inf.
    """
    dx, dy = rx - qx, ry - qy
    dd = dx * dx + dy * dy
    if not (sys.float_info.min <= dd <= sys.float_info.max):
        raise DegenerateTriangleError(
            f"side ({qx!r}, {qy!r})-({rx!r}, {ry!r}) has squared length {dd!r}, "
            "outside the normal double range; rescale the triangle"
        )
    return ((px - qx) * dx + (py - qy) * dy) / dd


def foot_of_altitude(t: Triangle, vertex: int) -> Point:
    """Orthogonal projection of the chosen vertex onto the opposite side line."""
    if vertex not in (0, 1, 2):
        raise GeometryError(f"vertex index must be 0, 1 or 2, got {vertex}")
    v = t.vertices
    p = v[vertex]
    q = v[(vertex + 1) % 3]
    r = v[(vertex + 2) % 3]
    return lerp(q, r, projection_param(p.x, p.y, q.x, q.y, r.x, r.y))


@dataclass(frozen=True)
class OrthicResult:
    """The three altitude feet with the measures of the triangle they span.

    ``angles`` is indexed by hosting foot: alpha at foot_from_a, and so on.
    """

    foot_from_a: Point
    foot_from_b: Point
    foot_from_c: Point
    angles: AngleTriple
    perimeter: float

    @property
    def feet(self) -> tuple[Point, Point, Point]:
        return (self.foot_from_a, self.foot_from_b, self.foot_from_c)

    def side_lengths(self) -> tuple[float, float, float]:
        """Lengths of the orthic sides opposite each foot."""
        fa, fb, fc = self.feet
        return (dist(fb, fc), dist(fc, fa), dist(fa, fb))


def orthic_triangle(t: Triangle, tol: float = ANGLE_TOL) -> OrthicResult:
    """Altitude feet plus angles and perimeter of the triangle they form.

    Only defined for acute parents: the feet of a right or obtuse triangle do
    not give the minimal inscribed triangle, so non-acute input raises.
    """
    require_acute(t, tol)
    fa = foot_of_altitude(t, 0)
    fb = foot_of_altitude(t, 1)
    fc = foot_of_altitude(t, 2)
    return OrthicResult(
        foot_from_a=fa,
        foot_from_b=fb,
        foot_from_c=fc,
        angles=AngleTriple(*_raw_angles(fa, fb, fc)),
        perimeter=perimeter(fa, fb, fc),
    )


def orthocenter(t: Triangle) -> Point:
    """Common point of the three altitudes (intersection of two of them)."""
    ax, ay, bx, by, cx, cy = t.a.x, t.a.y, t.b.x, t.b.y, t.c.x, t.c.y
    # Altitude from a: through a, perpendicular to bc; similarly from b.
    d1x, d1y = -(cy - by), cx - bx
    d2x, d2y = -(ay - cy), ax - cx
    det = d1x * d2y - d1y * d2x
    if det == 0.0:
        raise DegenerateTriangleError("altitudes are parallel")
    s = ((bx - ax) * d2y - (by - ay) * d2x) / det
    return Point(ax + d1x * s, ay + d1y * s)


def incenter(t: Triangle) -> Point:
    """Side-length-weighted vertex average; equidistant from the three sides."""
    la, lb, lc = t.side_lengths()
    w = la + lb + lc
    return Point(
        (la * t.a.x + lb * t.b.x + lc * t.c.x) / w,
        (la * t.a.y + lb * t.b.y + lc * t.c.y) / w,
    )


def perimeter(p: Point, q: Point, r: Point) -> float:
    return dist(p, q) + dist(q, r) + dist(r, p)
