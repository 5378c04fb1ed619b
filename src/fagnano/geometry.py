"""Plane-geometry primitives: triangles, altitude feet, orthic triangles, centers.

Everything here is a pure function of double-precision coordinates.  Angles are
measured with the two-argument arctangent of cross and dot products, never with
``acos``, so values near 0 and pi keep full precision.  Degeneracy and
right-angle classification are tolerance based; the tolerances are module
constants shared by every consumer.

Each ``Triangle`` carries a power-of-two frame: its vertices times 2^e, e
putting the largest |coordinate| in [0.5, 1).  That scaling is exact, so every
measure is computed in the frame, where no square, cross product or quotient
leaves the double range, and lengths and coordinates are mapped back with
``math.ldexp(x, -e)``.  ``Triangle`` checks, once, that its vertices and its
perimeter are finite.  Outputs in the subnormal range may lose bits.

A ``Triangle`` also measures itself once: construction stores its frame side
lengths, its frame vertex angles and its classification at ``ANGLE_TOL``,
which ``diameter``, ``angles``, ``classify`` and ``require_acute`` read
instead of measuring again.
"""

from __future__ import annotations

import math
import sys
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


# How a record's __init__ sets a field: its own __setattr__ raises.
_set = object.__setattr__


class _Record:
    """Frozen value record: ``_fields`` names, in order, the attributes that
    equality, hash and repr read.

    Two records are equal when they are of the same class and their field
    tuples are equal, so a NaN field still equals itself; the hash is the
    field tuple's.  Assignment and deletion raise AttributeError, so each
    subclass's ``__init__`` sets its attributes with ``_set``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Point(_Record):
    """A position in the Euclidean plane: a plain value, neither checked nor
    converted.  ``Triangle`` rejects a vertex that is not finite."""

    _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        _set(self, "x", x)
        _set(self, "y", y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def dist(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _angle(ux: float, uy: float, vx: float, vy: float) -> float:
    """Unsigned angle between the vectors (ux, uy) and (vx, vy), in [0, pi]."""
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def _vertex_angles(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> tuple[float, float, float]:
    """Interior angles at a, b and c of the triangle with these vertices.

    ``_angle`` of each apex's two edge vectors, computed on the three
    shared edge differences: q - p is exactly -(p - q), so each angle has
    ``_angle``'s bits wherever its cross and dot products are not both
    zero, as on every frame and its feet (a zero edge reads the sign of a
    zero there)."""
    abx, aby = bx - ax, by - ay
    bcx, bcy = cx - bx, cy - by
    cax, cay = ax - cx, ay - cy
    atan2 = math.atan2
    return (
        atan2(abs(abx * cay - aby * cax), -(abx * cax + aby * cay)),
        atan2(abs(bcx * aby - bcy * abx), -(bcx * abx + bcy * aby)),
        atan2(abs(cax * bcy - cay * bcx), -(cax * bcx + cay * bcy)),
    )


def _frame(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> tuple:
    """``Triangle``'s construction on bare floats: the checks, then the frame,
    the frame sides, the vertex angles and whether b and c were swapped (see
    ``Triangle``)."""
    # e puts the largest |coordinate| in [0.5, 1): every coordinate
    # difference is then at most 2 in magnitude, and every side of a
    # triangle that passes the area test is longer than about 1e-28.
    e = -math.frexp(max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy)))[1]
    ldexp = math.ldexp
    fax, fay, fbx, fby = ldexp(ax, e), ldexp(ay, e), ldexp(bx, e), ldexp(by, e)
    fcx, fcy = ldexp(cx, e), ldexp(cy, e)
    ab = math.hypot(fax - fbx, fay - fby)
    bc = math.hypot(fbx - fcx, fby - fcy)
    ca = math.hypot(fcx - fax, fcy - fay)
    # Finite vertices give frame sides of at most 2*sqrt(2) each.
    frame_perimeter = ab + bc + ca
    if not math.isfinite(frame_perimeter):
        x, y = next(v for v in ((ax, ay), (bx, by), (cx, cy)) if not all(map(math.isfinite, v)))
        raise NonFiniteError(f"non-finite coordinates ({x}, {y})")
    # The one range rule: every length, foot, center and inscribed
    # perimeter of an acute triangle is bounded by its perimeter.
    if math.frexp(frame_perimeter)[1] - e > sys.float_info.max_exp:
        raise DegenerateTriangleError(
            f"perimeter {frame_perimeter!r} * 2**{-e} is outside the double "
            "range; rescale the triangle"
        )
    tested = (fbx - fax) * (fcy - fay) - (fby - fay) * (fcx - fax)
    longest = max(ab, bc, ca)
    if longest == 0.0 or abs(tested) / 2.0 < DEGENERACY_TOL * longest * longest:
        raise DegenerateTriangleError("vertices are (near-)collinear")
    swapped = tested < 0.0
    if swapped:
        fbx, fby, fcx, fcy = fcx, fcy, fbx, fby
        ab, ca = ca, ab
    # The swap negates the doubled area exactly and keeps the longest side,
    # so the frame is never degenerate and its margin alone classifies it.
    return (
        (e, fax, fay, fbx, fby, fcx, fcy),
        (bc, ca, ab),
        _vertex_angles(fax, fay, fbx, fby, fcx, fcy),
        swapped,
    )


def _unit_circle(alpha: float, beta: float) -> tuple[float, ...]:
    """The vertex floats of ``Triangle.from_angles(alpha, beta)``."""
    gamma = math.pi - alpha - beta
    if not (alpha > 0.0 and beta > 0.0 and gamma > 0.0):
        raise GeometryError(f"angles ({alpha}, {beta}, {gamma}) do not form a triangle")
    # Central angle over each side is twice the opposite interior angle.
    tb = 2.0 * gamma
    tc = 2.0 * gamma + 2.0 * alpha
    return 1.0, 0.0, math.cos(tb), math.sin(tb), math.cos(tc), math.sin(tc)


class TriangleKind(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"


class TriangleClass(_Record):
    """Shape classification plus the signed margin of the largest angle.

    ``margin = pi/2 - largest_angle``: positive for acute, negative for obtuse,
    |margin| <= tol for right.
    """

    _fields = ("kind", "margin")

    def __init__(self, kind: TriangleKind, margin: float):
        _set(self, "kind", kind)
        _set(self, "margin", margin)


class AngleTriple(_Record):
    """Interior angles in radians, indexed by vertex (alpha at a, etc.)."""

    _fields = ("alpha", "beta", "gamma")

    def __init__(self, alpha: float, beta: float, gamma: float):
        for value in (alpha, beta, gamma):
            if not (0.0 < value < math.pi):
                raise GeometryError(f"angle {value} outside (0, pi)")
        if abs(alpha + beta + gamma - math.pi) > ANGLE_SUM_TOL:
            raise GeometryError(
                f"angle sum {alpha + beta + gamma} differs from pi "
                f"by more than {ANGLE_SUM_TOL}"
            )
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "gamma", gamma)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


class Triangle(_Record):
    """Ordered vertex triple, normalized to counterclockwise orientation.

    Construction checks and measures the vertices, once, in ``_frame``: it
    rejects a non-finite vertex, an area below the degeneracy tolerance and a
    perimeter outside the double range, and swaps b and c when the input
    winds clockwise (the swap is observable).  ``frame`` holds
    (e, ax, ay, bx, by, cx, cy): the vertices, after the swap, times 2^e;
    ``frame_sides`` the lengths (|bc|, |ca|, |ab|) of the sides they span;
    ``vertex_angles`` their interior angles at a, b and c;
    ``classification`` their ``TriangleClass`` at ``ANGLE_TOL``.  These
    four are not fields: equality, hash and repr read a, b and c only.
    """

    _fields = ("a", "b", "c")

    def __init__(self, a: Point, b: Point, c: Point):
        frame, frame_sides, vertex_angles, swapped = _frame(a.x, a.y, b.x, b.y, c.x, c.y)
        if swapped:
            b, c = c, b
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "frame", frame)
        _set(self, "frame_sides", frame_sides)
        _set(self, "vertex_angles", vertex_angles)
        margin = math.pi / 2.0 - max(vertex_angles)
        _set(self, "classification", _by_margin(margin, ANGLE_TOL))

    @classmethod
    def from_angles(cls, alpha: float, beta: float) -> Triangle:
        """Instantiate the shape with interior angles (alpha, beta, pi-alpha-beta)
        on the unit circle centered at the origin, with a at (1, 0).
        """
        ax, ay, bx, by, cx, cy = _unit_circle(alpha, beta)
        return cls(Point(ax, ay), Point(bx, by), Point(cx, cy))

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.a, self.b, self.c)

    def diameter(self) -> float:
        return math.ldexp(max(self.frame_sides), -self.frame[0])


def angles(t: Triangle) -> AngleTriple:
    """Interior angles of the triangle, as measured on its frame at construction."""
    return AngleTriple(*t.vertex_angles)


def _by_margin(margin: float, tol: float) -> TriangleClass:
    """Classify a non-degenerate triangle from pi/2 minus its largest angle."""
    if margin > tol:
        kind = TriangleKind.ACUTE
    elif margin < -tol:
        kind = TriangleKind.OBTUSE
    else:
        kind = TriangleKind.RIGHT
    return TriangleClass(kind, margin)


def classify(t: Triangle, tol: float = ANGLE_TOL) -> TriangleClass:
    """Kind and margin of t at ``tol``, read from the classification that
    ``Triangle`` measured on its frame, so the same at every scale.  A tol
    that is negative, NaN or infinite raises ValueError."""
    if tol == ANGLE_TOL:
        return t.classification
    check_tolerance("tol", tol)
    return _by_margin(t.classification.margin, tol)


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless value is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def require_acute(t: Triangle, tol: float = ANGLE_TOL) -> TriangleClass:
    """Raise NotAcuteError naming the offending angle unless t is acute;
    return the classification otherwise.  A tol that is negative, NaN or
    infinite raises ValueError (from ``classify``)."""
    cls = classify(t, tol)
    _acute_gate(t.vertex_angles, cls.margin, tol)
    return cls


def _acute_gate(vertex_angles: tuple[float, float, float], margin: float, tol: float) -> None:
    """Raise NotAcuteError naming the largest of vertex_angles unless margin,
    pi/2 minus that angle, exceeds tol."""
    if not margin > tol:
        largest = max(vertex_angles)
        raise NotAcuteError(
            f"triangle is {_by_margin(margin, tol).kind.value}, not acute: largest angle "
            f"{largest!r} rad at vertex {'abc'[vertex_angles.index(largest)]}"
        )


def projection_param(
    px: float, py: float, qx: float, qy: float, rx: float, ry: float
) -> float:
    """Parameter s of the orthogonal projection of p onto the line q + s*(r - q).

    Unchecked: the callers pass frame coordinates, where |r - q|^2 is a
    normal double.
    """
    dx, dy = rx - qx, ry - qy
    return ((px - qx) * dx + (py - qy) * dy) / (dx * dx + dy * dy)


def _feet(t: Triangle, tol: float = ANGLE_TOL) -> tuple[float, float, float, float, float, float]:
    """Frame coordinates of the altitude feet from a, b and c: each vertex
    projected orthogonally onto the line through the other two.  Only an
    acute triangle has them: ``require_acute(t, tol)`` is called first."""
    require_acute(t, tol)
    return _frame_feet(t.frame)


def _frame_feet(frame: tuple) -> tuple[float, float, float, float, float, float]:
    """The altitude feet of the frame (e, ax, ay, bx, by, cx, cy), unchecked:
    the caller has passed the acute gate."""
    _, ax, ay, bx, by, cx, cy = frame
    sa = projection_param(ax, ay, bx, by, cx, cy)
    sb = projection_param(bx, by, cx, cy, ax, ay)
    sc = projection_param(cx, cy, ax, ay, bx, by)
    return (
        bx + sa * (cx - bx), by + sa * (cy - by),
        cx + sb * (ax - cx), cy + sb * (ay - cy),
        ax + sc * (bx - ax), ay + sc * (by - ay),
    )


def _unframed(e: int, x: float, y: float) -> Point:
    """The frame point (x, y) at the triangle's own scale.  A point that
    lands past the double range there, such as the orthocenter of a
    non-acute triangle, raises NonFiniteError, not ``math.ldexp``'s
    OverflowError."""
    try:
        return Point(math.ldexp(x, -e), math.ldexp(y, -e))
    except OverflowError:
        raise NonFiniteError(f"frame point ({x!r}, {y!r}) * 2**{-e} overflows") from None


def _perimeter(
    px: float, py: float, qx: float, qy: float, rx: float, ry: float
) -> float:
    """Perimeter of the triangle with these vertices."""
    return (
        math.hypot(px - qx, py - qy) + math.hypot(qx - rx, qy - ry) + math.hypot(rx - px, ry - py)
    )


class OrthicResult(_Record):
    """The three altitude feet with the measures of the triangle they span.

    ``angles`` is indexed by hosting foot: alpha at foot_from_a, and so on.
    """

    _fields = ("foot_from_a", "foot_from_b", "foot_from_c", "angles", "perimeter")

    def __init__(
        self, foot_from_a: Point, foot_from_b: Point, foot_from_c: Point,
        angles: AngleTriple, perimeter: float,
    ):
        _set(self, "foot_from_a", foot_from_a)
        _set(self, "foot_from_b", foot_from_b)
        _set(self, "foot_from_c", foot_from_c)
        _set(self, "angles", angles)
        _set(self, "perimeter", perimeter)

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
    e = t.frame[0]
    feet = _feet(t, tol)
    return OrthicResult(
        foot_from_a=_unframed(e, feet[0], feet[1]),
        foot_from_b=_unframed(e, feet[2], feet[3]),
        foot_from_c=_unframed(e, feet[4], feet[5]),
        angles=AngleTriple(*_vertex_angles(*feet)),
        perimeter=math.ldexp(_perimeter(*feet), -e),
    )


def _orthocenter(ax, ay, bx, by, cx, cy) -> tuple[float, float]:
    """Common point of the three altitudes (intersection of two of them).
    Unchecked: det is the frame's doubled area, which ``Triangle`` keeps at
    >= 2 * DEGENERACY_TOL * longest^2, far above its rounding error."""
    # Altitude from a: through a, perpendicular to bc; similarly from b.
    d1x, d1y = -(cy - by), cx - bx
    d2x, d2y = -(ay - cy), ax - cx
    det = d1x * d2y - d1y * d2x
    s = ((bx - ax) * d2y - (by - ay) * d2x) / det
    return ax + d1x * s, ay + d1y * s


def _incenter(ax, ay, bx, by, cx, cy) -> tuple[float, float]:
    """Side-length-weighted vertex average; equidistant from the three sides."""
    la, lb, lc = math.hypot(bx - cx, by - cy), math.hypot(cx - ax, cy - ay), math.hypot(ax - bx, ay - by)
    w = la + lb + lc
    return (la * ax + lb * bx + lc * cx) / w, (la * ay + lb * by + lc * cy) / w
