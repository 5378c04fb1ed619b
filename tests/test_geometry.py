import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from conftest import (
    acute_angle_pairs,
    acute_triangles,
    incenter,
    orthocenter,
    projection,
    random_acute_triangle,
    scaled,
    similarity,
)
from fagnano.geometry import (
    ANGLE_TOL,
    DEGENERACY_TOL,
    AngleTriple,
    DegenerateTriangleError,
    GeometryError,
    NonFiniteError,
    NotAcuteError,
    Point,
    Triangle,
    TriangleKind,
    _orthocenter,
    _perimeter,
    _unframed,
    angles,
    classify,
    dist,
    orthic_triangle,
    require_acute,
)
from fagnano import geometry

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def project_oracle(p: Point, q: Point, r: Point) -> Point:
    """Independent altitude-foot oracle, no projection formula involved.

    The squared distance from p to q + t*(r - q) is exactly quadratic in t,
    so the vertex of the parabola through three samples is the minimizer; a
    Brent run cross-checks that the vertex really is a minimum.
    """
    def gap(t):
        x = q.x + t * (r.x - q.x)
        y = q.y + t * (r.y - q.y)
        return (p.x - x) ** 2 + (p.y - y) ** 2

    t0, t1, t2 = 0.0, 0.5, 1.0
    f0, f1, f2 = gap(t0), gap(t1), gap(t2)
    num = (t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)
    den = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
    t_star = t1 - 0.5 * num / den
    assert abs(minimize_scalar(gap, bracket=(-1.0, 0.5, 2.0)).x - t_star) <= 1e-7
    return Point(q.x + t_star * (r.x - q.x), q.y + t_star * (r.y - q.y))


def angle_oracle(p: Point, q: Point, r: Point) -> float:
    """Independent angle measure at q via the arccos route."""
    ux, uy, vx, vy = p.x - q.x, p.y - q.y, r.x - q.x, r.y - q.y
    return math.acos((ux * vx + uy * vy) / (math.hypot(ux, uy) * math.hypot(vx, vy)))


def side_lengths(t: Triangle) -> tuple[float, float, float]:
    """Lengths (|bc|, |ca|, |ab|) that t stored at construction, at its own scale."""
    return tuple(math.ldexp(s, -t.frame[0]) for s in t.frame_sides)


# ---------------------------------------------------------------- construction


def test_triangle_rejects_non_finite_vertex():
    # Point is a plain value; Triangle is where a vertex is checked.
    assert Point(math.nan, 0.0).y == 0.0
    for bad in (Point(math.nan, 0.0), Point(0.0, math.inf), Point(-math.inf, math.nan)):
        for others in ((Point(0, 0), Point(1, 0)), (Point(1e300, 0.0), Point(0.0, 1e300))):
            with pytest.raises(NonFiniteError) as raised:
                Triangle(*others, bad)
            assert str(raised.value) == f"non-finite coordinates ({bad.x}, {bad.y})"
            with pytest.raises(NonFiniteError):
                Triangle(bad, *others)
            with pytest.raises(NonFiniteError):
                classify(Triangle(others[0], bad, others[1]))
    # from_angles always builds on the unit circle: it takes no radius.
    with pytest.raises(TypeError):
        Triangle.from_angles(1.0, 1.0, 2.0)


def test_from_angles_rejects_nan_angle():
    # A NaN angle is named as the bad input, not as a computed vertex.
    for alpha, beta in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(GeometryError) as raised:
            Triangle.from_angles(alpha, beta)
        assert type(raised.value) is GeometryError
        assert str(raised.value) == f"angles ({alpha}, {beta}, nan) do not form a triangle"


def test_triangle_rejects_collinear():
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point(0, 0), Point(1, 0), Point(2, 0))
    with pytest.raises(DegenerateTriangleError):
        Triangle(Point(0, 0), Point(1, 0), Point(2, 1e-13))
    # Tiny sides: DEGENERACY_TOL * size^2 would underflow to 0 at this
    # scale; the area test runs in the power-of-two frame, where it cannot.
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        Triangle(Point(0, 0), Point(1e-160, 0), Point(2e-160, 0))
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        Triangle(Point(5e-324, 0), Point(0, 0), Point(0, 0))
    # A triangle at the same scale that is not collinear still constructs.
    Triangle(Point(0, 0), Point(1e-160, 0), Point(0, 1e-160))


def test_triangle_rejects_coincident_vertices():
    # The area test alone compares 0 < 0 here; the zero longest side decides.
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        Triangle(Point(0, 0), Point(0, 0), Point(0, 0))


def test_triangle_rejects_collinear_whose_area_overflows():
    # Both cross-product terms would overflow at this scale and their
    # difference would be NaN; the area test runs in the power-of-two frame,
    # where it cannot overflow.
    with pytest.raises(DegenerateTriangleError, match="collinear"):
        Triangle(Point(0, 0), Point(1e200, 1e200), Point(2e200, 2e200))
    # A triangle at the same scale that is not collinear still constructs.
    Triangle(Point(0, 0), Point(1e200, 0), Point(1e200, 2e200))


def test_triangle_names_an_overflowing_side():
    # Finite coordinates whose difference overflows: the side, and so the
    # perimeter, leaves the double range.  The perimeter is named, not a
    # non-finite Point.
    with pytest.raises(DegenerateTriangleError, match=r"perimeter .* outside the double range"):
        Triangle(Point(0, 0), Point(1e308, 0), Point(-1e308, 1))
    # Every side is finite here, but their sum is not.
    with pytest.raises(DegenerateTriangleError, match=r"perimeter .* outside the double range"):
        Triangle(Point(0, 0), Point(1e308, 0), Point(0, 1e308))
    Triangle(Point(0, 0), Point(5e307, 0), Point(0, 5e307))


@pytest.mark.parametrize(
    "coords, error, message",
    [
        ((0.0, 0.0, 1.0, 0.0, math.nan, 1.0), NonFiniteError, "non-finite coordinates (nan, 1.0)"),
        ((0.0, math.inf, 0.0, 0.0, 1.0, 0.0), NonFiniteError, "non-finite coordinates (0.0, inf)"),
        (
            (0.0, 0.0, 1e308, 0.0, -1e308, 1.0),
            DegenerateTriangleError,
            "perimeter 2.2250738585072014 * 2**1024 is outside the double range; "
            "rescale the triangle",
        ),
        (
            (0.0, 0.0, -1e308, 1.0, 1e308, 0.0),
            DegenerateTriangleError,
            "perimeter 2.2250738585072014 * 2**1024 is outside the double range; "
            "rescale the triangle",
        ),
        ((0.0, 0.0, 1.0, 0.0, 2.0, 1e-13), DegenerateTriangleError, "vertices are (near-)collinear"),
        ((0.0, 0.0, 1.0, 0.0, 2.0, -1e-13), DegenerateTriangleError, "vertices are (near-)collinear"),
    ],
)
def test_triangle_checks_are_the_frame_checks(coords, error, message):
    # Triangle's construction checks the vertex floats on its frame: the
    # same error and message, whichever way the input winds.
    ax, ay, bx, by, cx, cy = coords
    with pytest.raises(error) as raised:
        Triangle(Point(ax, ay), Point(bx, by), Point(cx, cy))
    assert type(raised.value) is error and str(raised.value) == message


def test_triangle_normalizes_orientation():
    t = Triangle(Point(0, 0), Point(0, 1), Point(1, 0))  # clockwise input
    assert t.b == Point(1, 0) and t.c == Point(0, 1)
    _, ax, ay, bx, by, cx, cy = t.frame
    assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
    ccw = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))  # kept as given
    assert ccw.b == Point(1, 0) and ccw.c == Point(0, 1)
    # The swap comes before the measures: both windings store the same ones.
    assert repr((t.frame, t.frame_sides, t.vertex_angles)) == repr(
        (ccw.frame, ccw.frame_sides, ccw.vertex_angles)
    )
    # Both cross products of the area overflow here; the swap must still
    # follow the winding, as it does for the same shape at scale 1.
    small = Triangle(Point(0, 0), Point(1, 2), Point(2, 1))
    assert small.b == Point(2, 1) and small.c == Point(1, 2)
    huge = Triangle(Point(0, 0), Point(1e200, 2e200), Point(2e200, 1e200))
    assert huge.b == Point(2e200, 1e200) and huge.c == Point(1e200, 2e200)


def test_angle_triple_invariants():
    with pytest.raises(GeometryError):
        AngleTriple(math.pi / 2, math.pi / 2, 0.0)
    with pytest.raises(GeometryError):
        AngleTriple(1.0, 1.0, math.pi - 2.0 + 1e-9)


# --------------------------------------------------------------------- angles


def test_angles_equilateral(equilateral):
    tri = angles(equilateral)
    for value in tri.as_tuple():
        assert value == pytest.approx(math.pi / 3, abs=1e-12)


def test_angles_golden_quarter_pi_at_b(golden_bfc):
    # vertex a is B = (1, 0) after orientation normalization
    assert golden_bfc.a == Point(1.0, 0.0)
    assert angles(golden_bfc).alpha == pytest.approx(math.pi / 4, abs=1e-15)


def test_angles_axis_aligned_right():
    t = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
    tri = angles(t)
    assert tri.alpha == pytest.approx(math.pi / 2, abs=1e-15)
    assert tri.beta == pytest.approx(math.atan(3 / 4), abs=1e-15)
    assert tri.gamma == pytest.approx(math.atan(4 / 3), abs=1e-15)


@given(acute_triangles(margin=0.01))
def test_angle_sum_is_pi(t):
    assert abs(sum(angles(t).as_tuple()) - math.pi) <= 1e-12


# ------------------------------------------------------------- classification


def test_classify_equilateral(equilateral):
    assert classify(equilateral).kind is TriangleKind.ACUTE
    assert classify(equilateral).margin == pytest.approx(math.pi / 6, abs=1e-12)


def test_classify_right():
    cls = classify(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))
    assert cls.kind is TriangleKind.RIGHT
    assert abs(cls.margin) <= 1e-15


def test_classify_obtuse():
    # independent derivation: the largest arccos-measured angle exceeds pi/2
    a, b, c = Point(0, 0), Point(1, 0), Point(2, 0.1)
    largest = max(angle_oracle(b, a, c), angle_oracle(a, b, c), angle_oracle(a, c, b))
    assert largest > math.pi / 2
    cls = classify(Triangle(a, b, c))
    assert cls.kind is TriangleKind.OBTUSE
    assert cls.margin == pytest.approx(math.pi / 2 - largest, abs=1e-12)
    assert cls.margin < 0


def classify_shapes():
    """Seeded acute, near-right, right, obtuse and near-degenerate triangles."""
    rng = random.Random(20161018)
    shapes = [random_acute_triangle(rng) for _ in range(8)]
    for m in (1e-3, 1e-9, 2e-9, 1e-12):
        shapes.append(Triangle.from_angles(math.pi / 2 - m, rng.uniform(0.2, 1.3)))
        shapes.append(Triangle.from_angles(math.pi / 2 + m, rng.uniform(0.2, 1.3)))
    for _ in range(4):
        p, q, s = rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        shapes.append(Triangle(Point(s, 0.0), Point(s + p, 0.0), Point(s, q)))
    for _ in range(4):
        shapes.append(Triangle(Point(0, 0), Point(1, 0), Point(rng.uniform(1.1, 3.0), rng.uniform(0.1, 2.0))))
    for h in (3e-12, 1e-11, 1e-9):
        shapes.append(Triangle(Point(0, 0), Point(1, 0), Point(rng.uniform(0.0, 1.0), h)))
        shapes.append(Triangle(Point(0, 0), Point(1, 0), Point(rng.uniform(1.0, 2.0), h)))
    return shapes


def test_classify_is_scale_invariant():
    # classify reads what Triangle measured on its power-of-two frame, so at
    # any exact scale 2^k it gives the kind and margin of scale 1.
    rng = random.Random(5)
    scales = [-1000, -600, 600, 1000] + [rng.randint(-1000, 1000) for _ in range(30)]
    shapes = classify_shapes()
    exact = 0
    for shape in shapes:
        coords = [v for p in shape.vertices for v in p.as_tuple()]
        want = {tol: classify(Triangle(*shape.vertices), tol) for tol in (0.0, 1e-9, 1e-3)}
        for k in scales:
            if any(math.ldexp(math.ldexp(v, k), -k) != v for v in coords):
                continue  # a subnormal coordinate: not an exact scaling
            exact += 1
            big = scaled(shape, k)
            for tol, w in want.items():
                got = classify(big, tol)
                assert (got.kind, got.margin.hex()) == (w.kind, w.margin.hex()), (k, tol)
    assert exact > len(shapes) * len(scales) // 2
    # Decimal scales at which the squared sides underflow or overflow.
    decimal_shapes = {
        "obtuse": ((0, 0), (1, 0), (2, 0.1)),
        "right": ((0, 0), (1, 0), (0, 1)),
        "acute": ((0, 0), (1, 0), (0.4, 0.9)),
    }
    for name, pts in decimal_shapes.items():
        want = classify(Triangle(*(Point(x, y) for x, y in pts)))
        for s in (1e-170, 1e160):
            got = classify(Triangle(*(Point(x * s, y * s) for x, y in pts)))
            assert got.kind is want.kind, (name, s)
            assert got.margin == pytest.approx(want.margin, abs=1e-15), (name, s)
    # Collinear and coincident triples are degenerate at every scale.
    for pts in (((0, 0), (1, 0), (2, 0)), ((0, 0), (1, 1), (3, 3)), ((0.5, 0.25),) * 3):
        for s in [1.0, 1e-170, 1e160] + [math.ldexp(1.0, k) for k in scales]:
            with pytest.raises(DegenerateTriangleError):
                classify(Triangle(*(Point(x * s, y * s) for x, y in pts)))


def frame_formula(t: Triangle, tol: float):
    """Oracle: the classification as it was computed from ``t.frame`` on
    every call, before a Triangle stored its own.  Returns the kind, the
    margin and the three frame vertex angles."""
    _, ax, ay, bx, by, cx, cy = t.frame
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    longest = max(
        math.hypot(ax - bx, ay - by), math.hypot(bx - cx, by - cy), math.hypot(cx - ax, cy - ay)
    )
    vertex_angles = []
    for (px, py), (qx, qy), (rx, ry) in (
        ((ax, ay), (bx, by), (cx, cy)),
        ((bx, by), (cx, cy), (ax, ay)),
        ((cx, cy), (ax, ay), (bx, by)),
    ):
        ux, uy, vx, vy = qx - px, qy - py, rx - px, ry - py
        vertex_angles.append(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))
    largest = math.nan if any(x != x for x in vertex_angles) else max(vertex_angles)
    margin = math.pi / 2 - largest
    # Every t here was constructed, so it passed the degeneracy test.
    assert longest > 0.0 and abs(area2) / 2 >= DEGENERACY_TOL * longest * longest
    if margin > tol:
        kind = TriangleKind.ACUTE
    elif margin < -tol:
        kind = TriangleKind.OBTUSE
    else:
        kind = TriangleKind.RIGHT
    return kind, margin, tuple(vertex_angles)


@st.composite
def classified_shapes(draw):
    """Acute, right, near-right, obtuse and sliver triangles at scale 2^k,
    |k| <= 1000, in either orientation."""
    family = draw(st.sampled_from(["acute", "right", "near-right", "obtuse", "sliver"]))
    if family == "acute":
        alpha, beta = draw(acute_angle_pairs(margin=1e-3))
        vertices = Triangle.from_angles(alpha, beta).vertices
    elif family == "right":
        p, q = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        vertices = (Point(0.0, 0.0), Point(p, 0.0), Point(0.0, q))
    elif family == "near-right":
        m = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-13.0, -2.0))
        vertices = Triangle.from_angles(math.pi / 2 - m, draw(st.floats(0.01, 1.5))).vertices
    elif family == "obtuse":
        alpha = draw(st.floats(math.pi / 2 + 1e-3, math.pi - 0.02))
        vertices = Triangle.from_angles(alpha, draw(st.floats(0.005, math.pi - alpha - 0.005))).vertices
    else:
        x, h = draw(st.floats(-1.0, 2.0)), 10.0 ** draw(st.floats(-10.0, -2.0))
        vertices = (Point(0.0, 0.0), Point(1.0, 0.0), Point(x, h))
    if draw(st.booleans()):
        vertices = vertices[::-1]
    k = draw(st.integers(-1000, 1000))
    try:
        return Triangle(*(Point(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in vertices))
    except DegenerateTriangleError:
        # A sliver scaled into the subnormal range can lose its height.
        assume(False)


def outcome(func, *args):
    try:
        return func(*args)
    except GeometryError as exc:
        return type(exc).__name__, str(exc)


def dist_formula(t: Triangle) -> tuple[float, float, float]:
    """Oracle: the side lengths as they were measured with ``dist`` on the
    vertices, before a Triangle stored its frame sides."""
    return (dist(t.b, t.c), dist(t.c, t.a), dist(t.a, t.b))


@settings(max_examples=400)
@given(classified_shapes(), st.sampled_from([0.0, 1e-12, ANGLE_TOL, 1e-6, 1e-3, 0.2]))
# Subnormal sides, where the frame and the dist formula round |bc| apart.
@example(
    Triangle(
        Point(5.680491164615e-311, -7.4755144881954e-311),
        Point(3.171545050129e-311, -1.4724737611636e-311),
        Point(-8.573091199067e-311, -2.840811436727e-311),
    ),
    ANGLE_TOL,
)
def test_stored_classification_matches_the_frame_formula(t, tol):
    # Normal lengths match bit for bit; a subnormal one may lose one bit
    # (2^-1074) in either formula when mapped back from the frame.
    want = dist_formula(t)
    for got, old in zip((*side_lengths(t), t.diameter()), (*want, max(want))):
        if old >= 2.0 ** -1022:
            assert got.hex() == old.hex()
        else:
            assert abs(got - old) <= 2.0 ** -1074
    kind, margin, vertex_angles = frame_formula(t, tol)
    got = classify(t, tol)
    assert (got.kind, got.margin.hex()) == (kind, margin.hex())
    assert outcome(angles, t) == outcome(AngleTriple, *vertex_angles)
    kind, margin, _ = frame_formula(t, ANGLE_TOL)
    if kind is TriangleKind.ACUTE:
        got = require_acute(t)
        assert (got.kind, got.margin.hex()) == (kind, margin.hex())
    else:
        with pytest.raises(NotAcuteError, match=f"triangle is {kind.value}, not acute"):
            require_acute(t)


def test_right_and_obtuse_triangles_construct_at_every_scale():
    right = Triangle(Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 0.5))
    obtuse = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.1))
    for k in (-1000, -40, 0, 40, 1000):
        for parent, kind in ((right, TriangleKind.RIGHT), (obtuse, TriangleKind.OBTUSE)):
            t = scaled(parent, k)
            assert classify(t).kind is kind
            with pytest.raises(NotAcuteError):
                require_acute(t)


def test_stored_classification_is_read_without_trigonometry(monkeypatch):
    t = Triangle.from_angles(1.0, 1.1)
    obtuse = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.1))
    want = (classify(t), classify(t, 0.2), angles(t), side_lengths(t), t.diameter())

    def forbidden(*args):
        raise AssertionError("measured again")

    monkeypatch.setattr(math, "atan2", forbidden)
    monkeypatch.setattr(math, "hypot", forbidden)
    assert require_acute(t) == want[0]
    assert (classify(t), classify(t, 0.2), angles(t), side_lengths(t), t.diameter()) == want
    with pytest.raises(NotAcuteError) as raised:
        require_acute(obtuse)
    assert str(raised.value) == (
        "triangle is obtuse, not acute: largest angle 3.0419240010986313 rad at vertex b"
    )


# ------------------------------------------------------------- altitude feet


def test_foot_equilateral_apex(equilateral):
    foot = orthic_triangle(equilateral).feet[2]
    assert foot.x == pytest.approx(0.5, abs=1e-15)
    assert foot.y == pytest.approx(0.0, abs=1e-15)


def test_foot_golden_from_f_is_square_corner(golden_bfc):
    # vertices after normalization: a=B, b=C, c=F; BC is the line x=1
    foot = orthic_triangle(golden_bfc).feet[2]
    assert dist(foot, Point(1.0, 1.0)) <= 1e-12


def test_foot_golden_from_c_matches_oracle(golden_bfc):
    foot = orthic_triangle(golden_bfc).feet[1]  # vertex b is C=(1, phi), side is FB
    oracle = project_oracle(golden_bfc.b, golden_bfc.c, golden_bfc.a)
    assert dist(foot, oracle) <= 1e-9
    assert foot.x == pytest.approx(1.0 - PHI / 2.0, abs=1e-12)
    assert foot.y == pytest.approx(PHI / 2.0, abs=1e-12)
    # |B - foot| is the golden figure's segment of length phi/sqrt(2)
    assert dist(golden_bfc.a, foot) == pytest.approx(PHI / math.sqrt(2), abs=1e-12)


@given(acute_triangles(margin=0.01))
def test_foot_projection_residual(t):
    feet = orthic_triangle(t).feet
    for v in range(3):
        p = t.vertices[v]
        q = t.vertices[(v + 1) % 3]
        r = t.vertices[(v + 2) % 3]
        foot = feet[v]
        dx, dy = p.x - foot.x, p.y - foot.y
        sx, sy = r.x - q.x, r.y - q.y
        residual = abs(dx * sx + dy * sy) / (math.hypot(dx, dy) * math.hypot(sx, sy))
        assert residual <= 1e-12


def test_reference_projection_on_axis_line():
    assert projection(0.25, 7.0, 0.0, 0.0, 2.0, 0.0) == 0.125
    assert projection(-3.0, 1.0, 1.0, 0.0, 2.0, 0.0) == -4.0  # beyond q


@given(
    acute_angle_pairs(margin=0.01),
    st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.integers(min_value=-1000, max_value=1000),
)
def test_frame_feet_match_the_reference_projection(node, mantissa, angle, dx, dy, k):
    # The written-out feet, on shared edge differences, are bit for bit
    # each vertex projected with the reference formula onto the line
    # through the other two, on frames of acute triangles from 2^-1000 to
    # 2^1000 in size, rotated and moved off the origin.
    try:
        t = similarity(
            Triangle.from_angles(*node), math.ldexp(mantissa, k), angle,
            math.ldexp(dx, k), math.ldexp(dy, k),
        )
    except GeometryError:
        assume(False)
    assume(classify(t).kind is TriangleKind.ACUTE)
    _, ax, ay, bx, by, cx, cy = t.frame
    sa = projection(ax, ay, bx, by, cx, cy)
    sb = projection(bx, by, cx, cy, ax, ay)
    sc = projection(cx, cy, ax, ay, bx, by)
    want = (
        bx + sa * (cx - bx), by + sa * (cy - by),
        cx + sb * (ax - cx), cy + sb * (ay - cy),
        ax + sc * (bx - ax), ay + sc * (by - ay),
    )
    assert repr(geometry._frame_feet(ax, ay, bx, by, cx, cy)) == repr(want)
    assert repr(geometry._feet(t)) == repr(want)


def raised(f, *args):
    """The class and text of what ``f(*args)`` raises, or None."""
    try:
        f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


def test_feet_gate_raises_what_require_acute_raises():
    # At the default tolerance _feet reads the stored margin and calls
    # require_acute only to raise: right and obtuse triangles get its
    # NotAcuteError text, at every scale.  Any other tol takes the full
    # check, so a bad or too loose tol raises what require_acute raises.
    right = Triangle(Point(0.0, 0.0), Point(3.0, 0.0), Point(0.0, 0.5))
    obtuse = Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.1))
    near_right = Triangle(Point(0, 0), Point(1, 0), Point(0.5, 0.5000000001))
    for parent in (right, obtuse, near_right):
        for k in (-1000, 0, 1000):
            t = scaled(parent, k)
            want = raised(require_acute, t)
            assert want is not None and want[0] is NotAcuteError
            assert raised(geometry._feet, t) == want
            assert raised(geometry._feet, t, ANGLE_TOL) == want
    acute = Triangle.from_angles(1.2, 1.1)  # margin about 0.37
    for t in (acute, right, obtuse, near_right):
        for tol in (0.5, math.nan, -1.0, math.pi / 6):
            want = raised(require_acute, t, tol)
            assert want is not None and want[0] in (NotAcuteError, ValueError), tol
            assert raised(geometry._feet, t, tol) == want, tol
    # An acute triangle passes at the default and at any tol it clears.
    assert raised(geometry._feet, acute) is None
    assert raised(geometry._feet, acute, 0.0) is None
    assert raised(geometry._feet, Triangle.from_angles(1.04, 1.05), 0.5) is None


def test_points_of_an_obtuse_triangle_past_the_double_range():
    # The perimeter is finite, but the orthocenter lies outside the triangle,
    # past 1.8e308: it is reported as a non-finite point, not as an
    # OverflowError.
    t = Triangle(Point(1.7e308, 3.5e307), Point(1.6e308, 0.0), Point(1.61e308, 1e306))
    with pytest.raises(NonFiniteError, match=r"\* 2\*\*1024 overflows"):
        _unframed(t.frame[0], *_orthocenter(*t.frame[1:]))
    # Its feet are never mapped back: the acute gate comes first.
    with pytest.raises(NotAcuteError):
        orthic_triangle(t)


def test_require_acute_classifies_huge_triangles_as_their_scaled_copies():
    # From about 1.3e154 up a side's squared length overflows at the
    # triangle's own scale.  On the power-of-two frame each triangle
    # classifies as its exact copy at scale 2^-512 does, and a non-acute one
    # names its largest angle.
    rng = random.Random(20160622)
    kinds = set()
    for _ in range(200):
        xs = [rng.uniform(-1.6e154, 1.6e154) for _ in range(6)]
        t = Triangle(Point(xs[0], xs[1]), Point(xs[2], xs[3]), Point(xs[4], xs[5]))
        unit = scaled(t, -512)
        assert classify(t) == classify(unit)
        assert angles(t) == angles(unit)
        try:
            require_acute(t)
            kinds.add("acute")
        except NotAcuteError as exc:
            assert "largest angle" in str(exc)
            kinds.add("not acute")
    assert kinds == {"acute", "not acute"}
    # Squared sides overflow here at scale 1, where max() would skip a NaN
    # angle at c; on the frame it is acute, with the margin of its copy at
    # scale 2^-997.
    t = Triangle(Point(0, 0), Point(1e300, 0), Point(5e299, 1e300))
    unit = scaled(t, -997)
    assert require_acute(t) == require_acute(unit)
    assert classify(t).kind is TriangleKind.ACUTE


# ------------------------------------------------------------ orthic triangle


def test_orthic_equilateral_is_medial(equilateral):
    orth = orthic_triangle(equilateral)
    mids = (Point(0.75, math.sqrt(3) / 4), Point(0.25, math.sqrt(3) / 4), Point(0.5, 0))
    for foot, mid in zip(orth.feet, mids):
        assert dist(foot, mid) <= 1e-15
    assert orth.perimeter == pytest.approx(1.5, abs=1e-12)


def test_orthic_golden_side_proportions(golden_bfc):
    sides = sorted(orthic_triangle(golden_bfc).side_lengths())
    ratios = [s / sides[0] for s in sides]
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert ratios[1] == pytest.approx(2.0, abs=1e-12)
    assert ratios[2] == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_orthic_angles_match_independent_oracle():
    # shape (pi/4, pi/3, 5*pi/12): feet located by 1-d minimization, angles
    # measured by arccos, then compared against the package and the frozen
    # expected triple (pi/2, pi/3, pi/6).
    t = Triangle.from_angles(math.pi / 4, math.pi / 3)
    a, b, c = t.vertices
    feet = (project_oracle(a, b, c), project_oracle(b, c, a), project_oracle(c, a, b))
    oracle = (
        angle_oracle(feet[1], feet[0], feet[2]),
        angle_oracle(feet[0], feet[1], feet[2]),
        angle_oracle(feet[0], feet[2], feet[1]),
    )
    orth = orthic_triangle(t)
    for measured, from_oracle in zip(orth.angles.as_tuple(), oracle):
        assert measured == pytest.approx(from_oracle, abs=1e-9)
    expected = (math.pi / 2, math.pi / 3, math.pi / 6)
    for measured, exp in zip(orth.angles.as_tuple(), expected):
        assert measured == pytest.approx(exp, abs=1e-9)


def test_orthic_rejects_non_acute():
    with pytest.raises(NotAcuteError, match="largest angle"):
        orthic_triangle(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))
    with pytest.raises(NotAcuteError, match="obtuse"):
        orthic_triangle(Triangle(Point(0, 0), Point(1, 0), Point(2, 0.1)))
    # A negative tolerance used to pass this obtuse parent as acute, and
    # classify read it ACUTE at -1 and RIGHT at NaN or infinity.
    obtuse = Triangle(Point(0, 0), Point(1, 0), Point(2, 0.1))
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            orthic_triangle(Triangle(Point(0, 0), Point(1, 0), Point(-0.1, 1)), bad)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            classify(obtuse, bad)


def test_orthic_tolerance_reaches_the_acute_gate():
    # Largest angle 2.0e-10 short of right: right at the default tolerance,
    # acute at tol 0, where the feet are formed.
    t = Triangle(Point(0, 0), Point(1, 0), Point(0.5, 0.5000000001))
    assert classify(t).margin == pytest.approx(2.0e-10, rel=1e-6)
    with pytest.raises(NotAcuteError, match="right, not acute"):
        orthic_triangle(t)
    orth = orthic_triangle(t, tol=0.0)
    assert orth.foot_from_c == Point(0.5, 0.0)
    assert orth.perimeter == pytest.approx(1.0, abs=1e-9)


def test_acute_gate_rejects_a_tolerance_no_triangle_passes(equilateral):
    # The equilateral's margin pi/2 - pi/3 = pi/6 is the largest: at a tol
    # of pi/6 or more the gate is a bad option, not a right triangle.
    # classify keeps its meaning at any tolerance.
    sixth = math.pi / 6
    assert require_acute(equilateral, 0.5).kind is TriangleKind.ACUTE
    for tol in (sixth, 0.6, 2.0):
        with pytest.raises(ValueError, match=rf"tol must be below pi/6 = {sixth!r}, got"):
            require_acute(equilateral, tol)
        with pytest.raises(ValueError, match="below pi/6"):
            orthic_triangle(equilateral, tol)
        assert classify(equilateral, tol).kind is TriangleKind.RIGHT


def test_orthic_angle_law_sweep():
    # orthic angle at foot_from_x == pi - 2 * (parent angle at x); this
    # coordinate-level law is what makes the characterization checkable.
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(10_000):
        t = random_acute_triangle(rng)
        parent = angles(t).as_tuple()
        orth = orthic_triangle(t).angles.as_tuple()
        worst = max(
            worst,
            max(abs(o - (math.pi - 2.0 * p)) for o, p in zip(orth, parent)),
        )
    assert worst <= 1e-9


@given(acute_triangles(margin=0.01))
def test_orthic_feet_strictly_inside_sides(t):
    orth = orthic_triangle(t)
    for v, foot in enumerate(orth.feet):
        q = t.vertices[(v + 1) % 3]
        r = t.vertices[(v + 2) % 3]
        sx, sy = r.x - q.x, r.y - q.y
        fx, fy = foot.x - q.x, foot.y - q.y
        s = (fx * sx + fy * sy) / (sx * sx + sy * sy)
        assert 0.0 < s < 1.0
        # and the foot sits on the side line itself
        offset = abs(fx * sy - fy * sx) / math.hypot(sx, sy)
        assert offset <= 1e-12 * math.hypot(sx, sy)


@given(acute_triangles(margin=0.01))
def test_orthic_perimeter_is_sum_of_feet_distances(t):
    orth = orthic_triangle(t)
    fa, fb, fc = orth.feet
    assert orth.perimeter == pytest.approx(
        dist(fa, fb) + dist(fb, fc) + dist(fc, fa), abs=1e-12
    )


# -------------------------------------------------------------------- centers


def test_orthocenter_equilateral(equilateral):
    assert dist(orthocenter(equilateral), Point(0.5, math.sqrt(3) / 6)) <= 1e-15


def test_orthocenter_right_vertex():
    t = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    assert dist(orthocenter(t), Point(0, 0)) <= 1e-15


def test_orthocenter_golden(golden_bfc):
    # derived by hand from the embedding: altitude from F is y = 1, altitude
    # from C meets it at x = 2 - phi; incidence on the third altitude is exact.
    h = orthocenter(golden_bfc)
    assert dist(h, Point(2.0 - PHI, 1.0)) <= 1e-12


@given(acute_triangles(margin=0.01))
def test_orthocenter_lies_on_all_altitudes(t):
    h = orthocenter(t)
    for v in range(3):
        p = t.vertices[v]
        q = t.vertices[(v + 1) % 3]
        r = t.vertices[(v + 2) % 3]
        # The altitude from p runs along (-(r - q).y, (r - q).x).
        dx, dy = q.y - r.y, r.x - q.x
        residual = abs((h.x - p.x) * dy - (h.y - p.y) * dx) / math.hypot(dx, dy)
        assert residual <= 1e-10


def test_incenter_equilateral(equilateral):
    assert dist(incenter(equilateral), Point(0.5, math.sqrt(3) / 6)) <= 1e-15


def test_incenter_345():
    t = Triangle(Point(0, 0), Point(4, 0), Point(0, 3))
    assert dist(incenter(t), Point(1, 1)) <= 1e-12


@given(acute_triangles(margin=0.01))
def test_incenter_equidistant_from_sides(t):
    center = incenter(t)
    gaps = []
    for v in range(3):
        q = t.vertices[(v + 1) % 3]
        r = t.vertices[(v + 2) % 3]
        sx, sy = r.x - q.x, r.y - q.y
        gaps.append(abs((center.x - q.x) * sy - (center.y - q.y) * sx) / math.hypot(sx, sy))
    assert max(gaps) - min(gaps) <= 1e-10


def test_incenter_of_orthic_is_orthocenter_golden(golden_bfc):
    orth = orthic_triangle(golden_bfc)
    inner = Triangle(*orth.feet)
    assert dist(incenter(inner), orthocenter(golden_bfc)) <= 1e-10


# ------------------------------------------------------------------ perimeter


def test_perimeter_unit_right():
    assert _perimeter(0, 0, 1, 0, 0, 1) == pytest.approx(
        2.0 + math.sqrt(2.0), abs=1e-15
    )


def test_perimeter_coincident_points_is_zero():
    assert _perimeter(0.3, 0.7, 0.3, 0.7, 0.3, 0.7) == 0.0


def test_perimeter_golden_feet_proportionality(golden_bfc):
    orth = orthic_triangle(golden_bfc)
    fa, fb, fc = orth.feet
    smallest = min(orth.side_lengths())
    assert _perimeter(fa.x, fa.y, fb.x, fb.y, fc.x, fc.y) == pytest.approx(
        (1.0 + 2.0 + math.sqrt(5.0)) * smallest, abs=1e-12
    )


# ----------------------------------------------------------------- invariance


@given(
    acute_triangles(margin=0.02),
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_similarity_invariance(t, scale, angle, dx, dy):
    moved = similarity(t, scale, angle, dx, dy)
    assert orthic_triangle(moved).perimeter == pytest.approx(
        scale * orthic_triangle(t).perimeter, rel=1e-12
    )
    for before, after in zip(angles(t).as_tuple(), angles(moved).as_tuple()):
        assert after == pytest.approx(before, abs=1e-12)


@given(acute_triangles(margin=0.02))
def test_reflection_invariance(t):
    mirrored = Triangle(
        Point(-t.a.x, t.a.y), Point(-t.b.x, t.b.y), Point(-t.c.x, t.c.y)
    )
    assert sorted(angles(mirrored).as_tuple()) == pytest.approx(
        sorted(angles(t).as_tuple()), abs=1e-12
    )
    assert orthic_triangle(mirrored).perimeter == pytest.approx(
        orthic_triangle(t).perimeter, rel=1e-12
    )
