import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import theorem_bits
from conftest import (
    acute_angle_pairs,
    acute_triangles,
    check_pin_tables,
    check_pins,
    orthocenter,
    pin_test,
    random_acute_triangle,
    sample_acute_angles,
    scaled,
    verdict_fields_oracle,
)
from fagnano import cli, geometry, jsonio, theorem
from fagnano.geometry import (
    ANGLE_TOL,
    AngleTriple,
    GeometryError,
    NotAcuteError,
    Point,
    Triangle,
    angles,
    classify,
    orthic_triangle,
    TriangleKind,
)
from fagnano.optimize import min_perimeter_closed_form
from fagnano.theorem import (
    acute_grid_nodes,
    incenter_orthocenter_check,
    proof_steps,
    quarter_pi_locus_nodes,
    scan_angle_space,
    verdict,
)

QUARTER_PI = math.pi / 4
HALF_PI = math.pi / 2


# -------------------------------------------------------------------- verdict


QUARTER_PI_SHAPE = Triangle.from_angles(QUARTER_PI, 3 * math.pi / 8)


# The pi/4 vertex taken to a, b and c in turn by cyclic reordering.
@pytest.mark.parametrize(
    "t, k",
    [
        (QUARTER_PI_SHAPE, 0),
        (Triangle(QUARTER_PI_SHAPE.c, QUARTER_PI_SHAPE.a, QUARTER_PI_SHAPE.b), 1),
        (Triangle(QUARTER_PI_SHAPE.b, QUARTER_PI_SHAPE.c, QUARTER_PI_SHAPE.a), 2),
    ],
    ids=["a", "b", "c"],
)
def test_verdict_quarter_pi_shape(t, k):
    v = verdict(t)
    assert v.orthic_is_right
    assert v.right_vertex == v.quarter_pi_vertex == k
    assert v.has_quarter_pi and v.quarter_pi_unique
    assert v.pairing_holds is True
    assert v.biconditional_holds


def test_verdict_equilateral(equilateral):
    v = verdict(equilateral)
    assert not v.orthic_is_right
    assert not v.has_quarter_pi
    assert v.right_vertex is None and v.quarter_pi_vertex is None
    assert v.pairing_holds is None
    assert v.biconditional_holds


def test_verdict_golden(golden_bfc):
    # right orthic angle at the foot dropped from b (the pi/4 vertex)
    v = verdict(golden_bfc)
    assert v.orthic_is_right and v.right_vertex == 0
    assert v.has_quarter_pi and v.quarter_pi_vertex == 0
    assert v.pairing_holds is True and v.biconditional_holds


def test_verdict_rejects_non_acute():
    with pytest.raises(NotAcuteError):
        verdict(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))


def measured_verdict(t, tol):
    """The verdict at ``tol`` on the measured parent and orthic angles of
    ``t``: the scan's call, since verdict decides at ANGLE_TOL only."""
    orthic = geometry._vertex_angles(*geometry._feet(t))
    return theorem.TheoremVerdict(*theorem._verdict_core(t.vertex_angles, orthic, tol))


def test_verdict_tolerance_coupling():
    # parent within tol/2 of pi/4 <=> orthic within tol of pi/2; probe both
    # sides of the threshold with a tol far above coordinate noise
    tol = 1e-6
    inside = Triangle.from_angles(QUARTER_PI + 0.4 * tol, 1.2)
    v = measured_verdict(inside, tol)
    assert v.has_quarter_pi and v.orthic_is_right and v.biconditional_holds
    outside = Triangle.from_angles(QUARTER_PI + 0.8 * tol, 1.2)
    v = measured_verdict(outside, tol)
    assert not v.has_quarter_pi and not v.orthic_is_right and v.biconditional_holds


def test_two_quarter_pi_angles_is_right_and_gated():
    # two angles strictly within tol/2 of pi/4 force the third within tol of
    # pi/2, so the acute gate excludes everything the verdict would have
    # counted twice (at the exact tol/2 boundary rounding decides)
    eps = 0.45 * ANGLE_TOL
    for da, db in ((eps, eps), (-eps, eps), (-eps, -eps)):
        alpha, beta = QUARTER_PI + da, QUARTER_PI + db
        gamma = math.pi - alpha - beta
        assert abs(gamma - HALF_PI) <= 2 * eps + 1e-15
        t = Triangle.from_angles(alpha, beta)
        assert classify(t).kind is TriangleKind.RIGHT
        with pytest.raises(NotAcuteError):
            verdict(t)


def test_tol_angle_is_not_the_acuteness_tolerance():
    # (0.8, 0.8, pi - 1.6) is acute with margin 1.6 - pi/2 = 0.029; the
    # scan's tol_angle of 0.2 loosens only the verdict's tests, where it once
    # classified the triangle as right.  Both base angles lie within 0.1 of
    # pi/4, and the orthic angles at their feet within 0.2 of pi/2.
    t = Triangle.from_angles(0.8, 0.8)
    assert classify(t).margin == pytest.approx(1.6 - HALF_PI, abs=1e-12)
    v = measured_verdict(t, 0.2)
    assert v.orthic_is_right and v.has_quarter_pi and not v.quarter_pi_unique


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.1])
def test_verdict_core_matches_the_comprehension_oracle(tol):
    # Every angle sits at pi/4 or pi/2, offset by 0, +-tol/4, +-tol/2, +-tol
    # or +-2 tol: the values straddle both tests' thresholds and give exact
    # ties between orthic candidates and two or three pi/4 candidates.  The
    # first five fields read one side only, and the last two combine the
    # sides only through them, so every parent tuple meets one orthic tuple
    # of each kind of orthic fields, and every orthic tuple one parent tuple
    # of each kind of parent fields.  repr tells a bool from an int.
    assert list(theorem.TheoremVerdict._fields) == [
        "orthic_is_right",
        "right_vertex",
        "has_quarter_pi",
        "quarter_pi_vertex",
        "quarter_pi_unique",
        "pairing_holds",
        "biconditional_holds",
    ]
    offsets = {s * k * tol for s in (1, -1) for k in (0, 0.25, 0.5, 1, 2)}
    values = sorted({base + d for base in (QUARTER_PI, HALF_PI) for d in offsets})
    tuples = list(itertools.product(values, repeat=3))
    far = (1.0, 1.0, 1.0)
    orthic_kinds = {verdict_fields_oracle(far, o, tol)[:2]: o for o in tuples}
    parent_kinds = {verdict_fields_oracle(p, far, tol)[2:5]: p for p in tuples}
    pairs = [
        *itertools.product(tuples, orthic_kinds.values()),
        *itertools.product(parent_kinds.values(), tuples),
    ]
    for p, o in pairs:
        assert repr(theorem._verdict_core(p, o, tol)) == repr(
            verdict_fields_oracle(p, o, tol)
        ), (p, o)
    # Right angle at each foot or none; pi/4 at no, one or several vertices.
    assert set(orthic_kinds) == {(False, None), (True, 0), (True, 1), (True, 2)}
    assert {k[0] for k in parent_kinds if not k[2]} == {False, True}
    if tol:
        # An exact tie between two orthic candidates goes to the first.
        o = (HALF_PI + tol / 4, HALF_PI + tol / 4, HALF_PI + tol / 2)
        assert theorem._verdict_core(far, o, tol)[1] == 0
        # None, one at a, b or c, several from a (two or three) or from b.
        assert len(parent_kinds) == 1 + 3 + 2


@settings(max_examples=60)
@given(acute_triangles(margin=0.05), st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_stable_under_vertex_noise(t, seed):
    rng = random.Random(seed)
    scale = 1e-12 * t.diameter()
    moved = Triangle(
        *(
            Point(p.x + rng.uniform(-scale, scale), p.y + rng.uniform(-scale, scale))
            for p in t.vertices
        )
    )
    before, after = verdict(t), verdict(moved)
    assert before.orthic_is_right == after.orthic_is_right
    assert before.has_quarter_pi == after.has_quarter_pi
    assert before.quarter_pi_unique == after.quarter_pi_unique
    assert before.biconditional_holds == after.biconditional_holds


# ---------------------------------------------------------------- proof steps


def test_proof_steps_equilateral(equilateral):
    report = proof_steps(equilateral)
    assert max(report.all_unconditional()) <= 1e-12
    assert max(report.bisection_residuals) <= 1e-12  # zero by symmetry
    assert not report.quarter_relation_active


def test_proof_steps_quarter_pi_at_b():
    # the quarter relation needs the right orthic angle at the foot from b,
    # so the pi/4 angle goes in the beta slot
    t = Triangle.from_angles(3 * math.pi / 8, QUARTER_PI)
    report = proof_steps(t)
    assert report.quarter_relation_active
    assert report.quarter_relation_residual <= 1e-9
    assert max(report.all_unconditional()) <= 1e-9


def test_proof_steps_golden(golden_bfc):
    report = proof_steps(golden_bfc)
    assert report.quad_sum_residual <= 1e-9
    assert max(report.all_unconditional()) <= 1e-9
    # the pi/4 angle of this triangle sits at vertex a, not b, so the
    # b-anchored quarter relation is dormant
    assert not report.quarter_relation_active


def test_proof_steps_rejects_non_acute():
    with pytest.raises(NotAcuteError):
        proof_steps(Triangle(Point(0, 0), Point(1, 0), Point(2, 0.1)))


@given(acute_triangles(margin=0.01))
def test_proof_steps_identities_hold(t):
    report = proof_steps(t)
    assert max(report.all_unconditional()) <= 1e-9


@given(st.floats(min_value=QUARTER_PI + 0.01, max_value=HALF_PI - 0.01))
def test_quarter_relation_on_locus(alpha):
    report = proof_steps(Triangle.from_angles(alpha, QUARTER_PI))
    assert report.quarter_relation_active
    assert report.quarter_relation_residual <= 1e-9


# ------------------------------------------------------- incenter/orthocenter


def test_incenter_orthocenter_equilateral(equilateral):
    assert incenter_orthocenter_check(equilateral) <= 1e-15


def test_incenter_orthocenter_golden(golden_bfc):
    assert incenter_orthocenter_check(golden_bfc) <= 1e-12


def test_centers_finite_on_the_flattest_triangles_at_extreme_scales():
    # Triangle keeps |cross| >= 2 * DEGENERACY_TOL * longest^2, so the
    # orthocenter's determinant cannot vanish.  Slivers of height 2.000001e-12
    # over a unit base pass that test by a hair; an isosceles needle whose
    # base angles are 2e-9 short of right is the acute check's own extreme.
    acute = Triangle(Point(1.0, 0.0), Point(0.0, -2e-9), Point(0.0, 2e-9))
    h = 2.000001e-12
    for k in (-500, 0, 500):
        for x in (1e-3, 0.5, 0.999):
            sliver = Triangle(
                Point(0.0, 0.0), Point(math.ldexp(1.0, k), 0.0),
                Point(math.ldexp(x, k), math.ldexp(h, k)),
            )
            center = orthocenter(sliver)
            assert center.x == pytest.approx(math.ldexp(x, k), rel=1e-9)
            assert center.y == pytest.approx(math.ldexp(x * (1.0 - x) / h, k), rel=1e-3)
        needle = scaled(acute, k)
        assert all(math.isfinite(v) for v in orthocenter(needle).as_tuple())
        assert incenter_orthocenter_check(needle) <= 1e-12


def test_incenter_orthocenter_sweep():
    rng = random.Random(31337)
    worst = max(
        incenter_orthocenter_check(random_acute_triangle(rng)) for _ in range(1000)
    )
    assert worst <= 1e-9


# ----------------------------------------------------------------------- scan


def expected_scan_count(n):
    """Independent enumeration of the documented sweep: every node is tested."""
    grid = sum(1 for i in range(1, n) for j in range(1, n) if i + j > n)
    return grid + n - 1  # the quarter-pi locus phase


def test_scan_resolution_8_counts():
    report = scan_angle_space(8)
    assert report.samples_tested == expected_scan_count(8) == 28
    assert report.samples_skipped == 0
    assert report.counterexamples == ()
    assert 0.0 < report.worst_law_residual <= theorem.ANGLE_LAW_BOUND


def test_scan_resolution_64_clean():
    report = scan_angle_space(64)
    assert report.counterexamples == ()
    assert report.samples_tested == expected_scan_count(64)


def test_scan_validation():
    for bad in (7, 8.5, math.nan, 1e9, "16"):
        with pytest.raises(ValueError, match="grid_resolution must be an int >= 8"):
            scan_angle_space(bad)
    with pytest.raises(ValueError, match=r"grid_resolution 10* is beyond the float range"):
        scan_angle_space(10**400)
    for bad in (math.nan, math.inf, -1e-9):
        with pytest.raises(ValueError, match="tol_angle must be finite"):
            scan_angle_space(16, tol_angle=bad)
    # The tol_angle floor is the law's bound 8 eps / m on the last locus
    # node, m = pi / (4 n): 32 n eps / pi.
    for n in (8, 16, 40, 200):
        floor = 32 * n * 2.0**-52 / math.pi
        assert scan_angle_space(n, tol_angle=floor * (1 + 1e-12)).counterexamples == ()
        with pytest.raises(ValueError, match=f"tol_angle .* is below {floor:.3g},"):
            scan_angle_space(n, tol_angle=floor * (1 - 1e-12))


def test_locus_nodes_all_produce_right_orthic():
    for alpha, beta in quarter_pi_locus_nodes(32):
        assert beta == QUARTER_PI
        t = Triangle.from_angles(alpha, beta)
        v = verdict(t)
        assert v.orthic_is_right and v.right_vertex == 1
        assert v.pairing_holds is True


def test_grid_nodes_are_strictly_acute():
    for alpha, beta in acute_grid_nodes(16):
        gamma = math.pi - alpha - beta
        assert 0 < alpha < HALF_PI and 0 < beta < HALF_PI and 0 < gamma < HALF_PI


@pytest.mark.parametrize("n", (*range(8, 65), 200, 400))
def test_grid_nodes_match_the_filtered_double_loop(n):
    # The grid starts j at n - i + 1 instead of filtering i + j > n: the
    # same nodes in the same order, (n - 1)(n - 2)/2 of them, which the
    # bench's verify node count assumes.
    h = HALF_PI / n
    filtered = [
        (i * h, j * h) for i in range(1, n) for j in range(1, n) if i + j > n
    ]
    nodes = list(acute_grid_nodes(n))
    assert nodes == filtered
    assert len(nodes) == (n - 1) * (n - 2) // 2


@pytest.mark.parametrize("node", ((HALF_PI, QUARTER_PI), (2.0, 0.5)), ids=("right", "obtuse"))
def test_scan_node_gate_still_fires(node):
    # The scan kernel calls the acute gate only when a node's margin fails,
    # and then raises what require_acute raises on the same shape, also
    # after nodes that pass.
    with pytest.raises(NotAcuteError) as want:
        geometry.require_acute(Triangle.from_angles(*node))
    for nodes in ([node], [(1.0, 1.1), node]):
        with pytest.raises(NotAcuteError) as got:
            theorem._scan_nodes(nodes, -math.inf)
        assert str(got.value) == str(want.value)


def test_scan_refuses_a_resolution_whose_nodes_reach_the_gate(monkeypatch):
    # Past _MAX_RESOLUTION the last nodes come within 2 * ANGLE_TOL of a
    # right angle, and from about 7.9e8 on the acute gate would refuse
    # them: the scan names grid_resolution before its first node, even at
    # a tol_angle above the law's rounding bound.
    top = theorem._MAX_RESOLUTION
    assert HALF_PI / 2 / top > 2 * ANGLE_TOL >= HALF_PI / 2 / (top + 1)

    def forbidden(nodes, limit):
        raise AssertionError("a node was measured")

    monkeypatch.setattr(theorem, "_scan_nodes", forbidden)
    for n, tol in ((top + 1, 1.0), (2 * 10**9, 1.0), (2 * 10**9, ANGLE_TOL), (10**11, 1.0)):
        with pytest.raises(ValueError, match=f"^grid_resolution {n} is above {top},"):
            scan_angle_space(n, tol)


def test_largest_scan_resolution_passes_the_gate():
    # The nodes of the largest accepted resolution nearest a right angle,
    # the last locus node (margin pi / (4 n)) and the grid's three corners
    # (pi / (2 n)), pass the acute gate through Triangle.from_angles.  The
    # corners are slivers whose short side is about 4 pi / (2 n): rounding
    # of their unit-circle vertices takes about a quarter of their margin,
    # which still clears 2 * ANGLE_TOL.
    # The generators' own arithmetic, k * h, for the last two locus nodes
    # and the corners (i, j) = (2, n - 1), (n - 1, 2) and (n - 1, n - 1).
    def locus_node(n, k):
        return (QUARTER_PI + k * (QUARTER_PI / n), QUARTER_PI)

    def grid_node(n, i, j):
        return (i * (HALF_PI / n), j * (HALF_PI / n))

    def corners(n):
        return [grid_node(n, 2, n - 1), grid_node(n, n - 1, 2), grid_node(n, n - 1, n - 1)]

    assert list(quarter_pi_locus_nodes(16))[-2:] == [locus_node(16, 14), locus_node(16, 15)]
    assert set(corners(16)) <= set(acute_grid_nodes(16))
    n = theorem._MAX_RESOLUTION
    h = HALF_PI / n
    locus = [locus_node(n, n - 2), locus_node(n, n - 1)]
    grid = corners(n)
    for node, margin in ((locus[-1], h / 2), *((g, h) for g in grid)):
        t = Triangle.from_angles(*node)
        measured = geometry.require_acute(t).margin
        assert 0.7 * margin < measured < (1 + 1e-6) * margin, node
        assert measured > 2 * ANGLE_TOL * (1 - 1e-6), node
    _, flagged = theorem._scan_nodes([*locus, *grid], -math.inf)
    assert len(flagged) == 5


def test_scan_report_serialization_is_deterministic():
    a = scan_angle_space(8)
    b = scan_angle_space(8)
    text_a = jsonio.dumps(a.to_document())
    text_b = jsonio.dumps(b.to_document())
    assert text_a == text_b
    parsed = json.loads(text_a)
    assert list(parsed.keys()) == [
        "grid_resolution",
        "samples_tested",
        "counterexamples",
        "tol_angle",
        "worst_law_residual",
    ]


def test_orthic_measures_map_no_foot_back(monkeypatch):
    # The scan, verdict and the closed form measure the frame feet: none of
    # them builds an OrthicResult, whose feet _unframed maps back.
    t = Triangle.from_angles(1.0, 1.1)
    calls = {
        "scan": lambda: jsonio.dumps(scan_angle_space(16).to_document()),
        "verdict": lambda: verdict(t),
        "closed form": lambda: min_perimeter_closed_form(t),
    }
    want = {name: call() for name, call in calls.items()}

    def forbidden(*args):
        raise AssertionError("a foot was mapped back")

    monkeypatch.setattr(geometry, "_unframed", forbidden)
    with pytest.raises(AssertionError, match="mapped back"):
        orthic_triangle(t)
    for name, call in calls.items():
        assert call() == want[name], name


def test_scan_builds_no_triangle(monkeypatch):
    # Each scan node is measured on the bare floats of its vertices: no
    # Triangle is constructed, and the report is the same.
    args = ((16,), (16, 0.1))
    want = {a: jsonio.dumps(scan_angle_space(*a).to_document()) for a in args}

    def forbidden(self, *vertices):
        raise AssertionError("a Triangle was built")

    monkeypatch.setattr(geometry.Triangle, "__init__", forbidden)
    with pytest.raises(AssertionError, match="Triangle"):
        Triangle.from_angles(1.0, 1.1)
    for a in args:
        assert jsonio.dumps(scan_angle_space(*a).to_document()) == want[a], a


def reference_nodes(nodes, limit, vertex_angles=geometry._vertex_angles):
    """``theorem._scan_nodes``' contract on the reference route: each node's
    Triangle.from_angles, the parent angles it stores, the orthic angles
    ``vertex_angles`` measures on its ``_feet``, and r * m from them."""
    worst, flagged = 0.0, []
    for alpha, beta in nodes:
        t = Triangle.from_angles(alpha, beta)
        parent = t.vertex_angles
        orth = vertex_angles(*geometry._feet(t))
        r = max(abs(o + 2.0 * p - math.pi) for o, p in zip(orth, parent))
        law = r * (HALF_PI - max(parent))
        worst = max(worst, law)
        if law > limit:
            flagged.append((alpha, beta, parent, orth, law))
    return worst, flagged


def assert_kernel_is_the_reference(nodes):
    """The kernel at limit -inf gives every node's values, in node order,
    repr-equal to the reference route's."""
    worst, flagged = theorem._scan_nodes(nodes, -math.inf)
    want_worst, want = reference_nodes(nodes, -math.inf)
    assert len(flagged) == len(want) == len(nodes)
    for got, node_want in zip(flagged, want):
        assert repr(got) == repr(node_want), got[:2]
    assert repr(worst) == repr(want_worst)


def test_scan_nodes_share_from_angles_frame():
    # The scan measures a node on the unit-circle floats that
    # Triangle.from_angles takes, with no Triangle: Triangle keeps their
    # order (no swap), and its frame, those floats times 1/2, gives the
    # same parent angles, orthic angles and r * m bit for bit.
    nodes = [
        node
        for n in (40, 200)
        for node in (*acute_grid_nodes(n), *quarter_pi_locus_nodes(n))
    ]
    assert len(nodes) == 780 + 19_900
    for alpha, beta in nodes:
        coords = geometry._unit_circle(alpha, beta)
        t = Triangle.from_angles(alpha, beta)
        assert repr(tuple(p.as_tuple() for p in t.vertices)) == repr(
            (coords[0:2], coords[2:4], coords[4:6])
        )
        assert repr(t.frame) == repr((-1, *(x / 2 for x in coords)))
    assert_kernel_is_the_reference(nodes)


@settings(deadline=None)
@given(acute_angle_pairs(margin=1e-6))
def test_off_grid_nodes_share_from_angles_frame(node):
    # Off the grid too, down to margins of 1e-6 from 0 and from pi/2: the
    # scan's one pass over a node's edges gives the parent angles of
    # Triangle.from_angles and the orthic angles of its frame feet.
    assert_kernel_is_the_reference([node])


def test_scan_measures_each_node_in_one_pass(monkeypatch):
    # The scan measures a node's parent angles, foot parameters and orthic
    # angles in one kernel pass: the kernel runs once on the grid at the
    # law's bound and once on the locus at -inf, each node once and in
    # order, and neither _vertex_angles nor the feet kernels run.
    want = jsonio.dumps(scan_angle_space(16).to_document())
    scan_nodes, calls = theorem._scan_nodes, []

    def recording(nodes, limit):
        nodes = list(nodes)
        calls.append((nodes, limit))
        return scan_nodes(nodes, limit)

    def forbidden(*args):
        raise AssertionError("a node was measured outside the kernel")

    monkeypatch.setattr(theorem, "_scan_nodes", recording)
    for module, name in ((theorem, "_vertex_angles"), (theorem, "_feet"),
                         (geometry, "_feet"), (geometry, "_frame_feet")):
        monkeypatch.setattr(module, name, forbidden)
    assert jsonio.dumps(scan_angle_space(16).to_document()) == want
    grid, locus = list(acute_grid_nodes(16)), list(quarter_pi_locus_nodes(16))
    assert calls == [(grid, theorem.ANGLE_LAW_BOUND * 2.0**-52), (locus, -math.inf)]
    _, flagged = scan_nodes(grid + locus, -math.inf)
    assert [(alpha, beta) for alpha, beta, *_ in flagged] == grid + locus
    assert len(flagged) == 120


def test_checks_build_no_angle_triple(monkeypatch):
    # The scan and verdict decide on the measured angle tuples: the scan
    # wraps a node's angles in an AngleTriple only for a counterexample.
    golden = cli.parse_triangle("golden-bfc")
    calls = {
        "scan": lambda: scan_angle_space(16).to_document(),
        "verdict": lambda: verdict(golden).to_document(),
    }
    want = {name: call() for name, call in calls.items()}

    def forbidden(*args):
        raise AssertionError("an AngleTriple was built")

    monkeypatch.setattr(geometry, "AngleTriple", forbidden)
    monkeypatch.setattr(theorem, "AngleTriple", forbidden)
    with pytest.raises(AssertionError, match="AngleTriple"):
        angles(golden)
    for name, call in calls.items():
        assert call() == want[name], name


def test_passing_scan_nodes_build_no_verdict(monkeypatch):
    # The scan decides each node on the verdict's field tuple: it builds a
    # TheoremVerdict only for a counterexample.
    args = ((16,), (40,))
    want = {a: jsonio.dumps(scan_angle_space(*a).to_document()) for a in args}

    def forbidden(*args):
        raise AssertionError("a TheoremVerdict was built")

    monkeypatch.setattr(theorem, "TheoremVerdict", forbidden)
    for a in args:
        assert jsonio.dumps(scan_angle_space(*a).to_document()) == want[a], a
    with pytest.raises(AssertionError, match="TheoremVerdict"):
        scan_angle_space(16, 0.1)


@pytest.mark.parametrize("n", [16, 40])
def test_scan_requires_the_right_vertex_on_the_locus(monkeypatch, n):
    # A core that puts the right orthic angle at the foot from a on the
    # beta = pi/4 locus makes each of its n - 1 nodes a counterexample; grid
    # nodes pass the angle law, so the core never sees them.
    real = theorem._verdict_core

    def at_a_on_locus(p, o, tol_angle):
        fields = real(p, o, tol_angle)
        if abs(p[1] - QUARTER_PI) < 1e-9:
            return (fields[0], 0, *fields[2:])
        return fields

    monkeypatch.setattr(theorem, "_verdict_core", at_a_on_locus)
    report = scan_angle_space(n)
    assert len(report.counterexamples) == n - 1
    for tri, v in report.counterexamples:
        assert abs(tri.beta - QUARTER_PI) < 1e-9
        assert v.right_vertex == 0 and v.pairing_holds is True
    monkeypatch.setattr(theorem, "_verdict_core", lambda p, o, tol: real(p, o, tol))
    assert scan_angle_space(n).counterexamples == ()


@pytest.mark.parametrize("args", [(16,), (40,), (16, 0.1)], ids=["16", "40", "16-loose"])
def test_scan_calls_the_verdict_on_the_locus_only(monkeypatch, args):
    # Grid nodes that pass the angle law build no verdict: the verdict core
    # runs once per locus node, in order, and the report is byte-identical.
    want = jsonio.dumps(scan_angle_space(*args).to_document())
    verdict_core, verdict_angles = theorem._verdict_core, []

    def recording_verdict_core(p, o, tol_angle):
        verdict_angles.append((p, o))
        return verdict_core(p, o, tol_angle)

    monkeypatch.setattr(theorem, "_verdict_core", recording_verdict_core)
    assert jsonio.dumps(scan_angle_space(*args).to_document()) == want
    n = args[0]
    # The kernel at -inf gives the locus nodes' angles, in node order.
    _, locus = theorem._scan_nodes(quarter_pi_locus_nodes(n), -math.inf)
    assert [(alpha, beta) for alpha, beta, *_ in locus] == list(quarter_pi_locus_nodes(n))
    assert all(beta == QUARTER_PI for _, beta, *_ in locus)
    assert len(verdict_angles) == n - 1
    assert verdict_angles == [(p, o) for _, _, p, o, _ in locus]


def test_scan_fails_on_a_foot_off_by_1e_14(monkeypatch):
    # The first foot coordinate scaled by (1 + 1e-14) before the orthic
    # angles are measured breaks the angle law past its bound on 41 of the
    # 120 nodes at resolution 16, grid nodes among them; the band the scan
    # once skipped on reported none.  The kernel's values are the reference
    # route's bit for bit, so the perturbation goes into that route, and
    # the scan, reading it through the kernel's contract, reports those 41.
    def perturbed(dx, *rest):
        return geometry._vertex_angles(dx * (1 + 1e-14), *rest)

    nodes = (*acute_grid_nodes(16), *quarter_pi_locus_nodes(16))
    assert_kernel_is_the_reference(nodes)
    limit = theorem.ANGLE_LAW_BOUND * 2.0**-52
    worst, flagged = reference_nodes(nodes, limit, perturbed)
    assert len(flagged) == 41
    assert worst > limit
    monkeypatch.setattr(
        theorem, "_scan_nodes", lambda nodes, limit: reference_nodes(nodes, limit, perturbed)
    )
    report = scan_angle_space(16)
    assert len(report.counterexamples) == 41
    assert [tri.as_tuple() for tri, _ in report.counterexamples] == [p for _, _, p, _, _ in flagged]
    assert any(tri.beta != QUARTER_PI for tri, _ in report.counterexamples)
    assert report.worst_law_residual > theorem.ANGLE_LAW_BOUND


def test_scan_law_tests_each_measured_orthic_angle(monkeypatch):
    # Each of the three law residuals decides on its own: 1e-13 added to
    # one measured orthic angle makes grid counterexamples, with the worst
    # residual past the bound.  The shift goes into the reference route,
    # whose values the kernel's are bit for bit, and the scan reads it
    # through the kernel's contract.
    nodes = (*acute_grid_nodes(16), *quarter_pi_locus_nodes(16))
    assert_kernel_is_the_reference(nodes)
    _, measured = theorem._scan_nodes(nodes, -math.inf)
    parents = {AngleTriple(*p) for _, _, p, _, _ in measured}
    for k in range(3):

        def shifted(*points, k=k):
            measured = list(geometry._vertex_angles(*points))
            measured[k] += 1e-13
            return tuple(measured)

        monkeypatch.setattr(
            theorem, "_scan_nodes", lambda nodes, limit, f=shifted: reference_nodes(nodes, limit, f)
        )
        report = scan_angle_space(16)
        assert any(tri.beta != QUARTER_PI for tri, _ in report.counterexamples), k
        assert all(tri in parents for tri, _ in report.counterexamples), k
        assert report.worst_law_residual > theorem.ANGLE_LAW_BOUND, k


@pytest.mark.parametrize("bound", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [16, 40])
def test_scan_flags_the_nodes_past_a_patched_bound(monkeypatch, n, bound):
    # The scan reports exactly the nodes whose kernel r * m exceeds
    # ANGLE_LAW_BOUND * eps, in node order: the grid's past the bound, then
    # the locus's, every one of which passes the biconditional here.
    grid, locus = list(acute_grid_nodes(n)), list(quarter_pi_locus_nodes(n))
    _, measured = theorem._scan_nodes(grid + locus, -math.inf)
    limit = bound * 2.0**-52
    want = [p for _, _, p, _, law in measured if law > limit]
    flagged_grid = sum(law > limit for _, _, _, _, law in measured[: len(grid)])
    if 0.0 < bound < 1.0:
        assert 0 < flagged_grid < len(grid)
    monkeypatch.setattr(theorem, "ANGLE_LAW_BOUND", bound)
    report = scan_angle_space(n)
    assert [tri.as_tuple() for tri, _ in report.counterexamples] == want
    assert all(v.biconditional_holds for _, v in report.counterexamples)
    worst = max(law for *_, law in measured)
    assert report.worst_law_residual == worst / 2.0**-52


# ----------------------------------------------------- biconditional directions


def test_forward_direction_samples():
    # exactly one pi/4 angle -> right orthic angle at the matching foot
    rng = random.Random(17)
    for _ in range(200):
        alpha = rng.uniform(QUARTER_PI + 1e-3, HALF_PI - 1e-3)
        t = Triangle.from_angles(alpha, QUARTER_PI)
        v = verdict(t)
        assert v.orthic_is_right
        assert abs(orthic_triangle(t).angles.beta - HALF_PI) <= 1e-8
        assert v.right_vertex == 1 and v.pairing_holds is True


def test_reverse_direction_samples():
    # all angles at least 1e-6 away from pi/4 -> no orthic angle near pi/2
    rng = random.Random(18)
    checked = 0
    while checked < 200:
        t = random_acute_triangle(rng)
        if min(abs(x - QUARTER_PI) for x in angles(t).as_tuple()) < 1e-6:
            continue
        checked += 1
        orth = orthic_triangle(t).angles.as_tuple()
        assert all(abs(o - HALF_PI) > 1e-8 for o in orth)
        assert not verdict(t).orthic_is_right


# --------------------------------------------------------------- bit identity
#
# The per-triangle checks run float arithmetic in a fixed order, so their
# results are pinned to the bit.  PINS names, for each table of
# theorem_bits.py, its keys in file order and the function that computes a
# key's entry; tests/record_bits.py writes the tables from it.  Any change
# there is a change of numerics, not a refactor.

BIT_SCALES = (-500, -40, 0, 17, 500)


def bit_shapes():
    """The named unit-size shapes of theorem_bits.CHECKS."""
    rng = random.Random(20160623)
    shapes = {f"acute-{i}": Triangle.from_angles(*sample_acute_angles(rng)) for i in range(10)}
    for i, (alpha, beta) in enumerate(quarter_pi_locus_nodes(5)):
        shapes[f"quarter-{i}"] = Triangle.from_angles(alpha, beta)
    shapes["equilateral"] = cli.parse_triangle("equilateral")
    shapes["golden-bfc"] = cli.parse_triangle("golden-bfc")
    return shapes


def check_bits(t):
    """Every field of proof_steps, the incenter check, the orthocenter and
    the verdict document, floats as float.hex."""
    report = proof_steps(t)
    h = orthocenter(t)
    return (
        report.angle_sum_residual.hex(),
        tuple(r.hex() for r in report.bisection_residuals),
        report.quarter_relation_residual.hex(),
        report.quarter_relation_active,
        report.quad_sum_residual.hex(),
        tuple(r.hex() for r in report.decomposition_residuals),
        incenter_orthocenter_check(t).hex(),
        (h.x.hex(), h.y.hex()),
        verdict(t).to_document(),
    )


BAD_INPUTS = {
    "right": Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)),
    "obtuse": Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.1)),
}


def raising_calls():
    """(function name, case) -> (function, arguments) of every pinned raise."""
    calls = {}
    for case, t in BAD_INPUTS.items():
        for func in (proof_steps, incenter_orthocenter_check, verdict):
            calls[func.__name__, case] = (func, (t,))
    return calls


def raised_bits(func, args):
    with pytest.raises((GeometryError, ValueError)) as info:
        func(*args)
    return type(info.value).__name__, str(info.value)


def scan_sha256(args):
    """sha256 of the report of scan_angle_space(*args), the digest that
    theorem_bits.SCAN_SHA256 pins and CI checks the installed scan against."""
    text = jsonio.dumps(scan_angle_space(*args).to_document())
    return hashlib.sha256(text.encode("ascii")).hexdigest()


BIT_SHAPES = bit_shapes()
PINS = {
    "CHECKS": (
        [(name, k) for name in BIT_SHAPES for k in BIT_SCALES],
        lambda key: check_bits(scaled(BIT_SHAPES[key[0]], key[1])),
    ),
    "RAISES": (list(raising_calls()), lambda key: raised_bits(*raising_calls()[key])),
    "SCAN_SHA256": ([(8,), (16,), (40,), (200,), (400,), (16, 0.1)], scan_sha256),
}


def test_pins_cover_every_table():
    check_pin_tables(theorem_bits, PINS)


test_checks_bit_identical = pin_test(theorem_bits, PINS, "CHECKS")
test_check_exceptions_identical = pin_test(theorem_bits, PINS, "RAISES")


@pytest.mark.parametrize(
    "args", sorted(PINS["SCAN_SHA256"][0]), ids=lambda a: "-".join(map(str, a))
)
def test_scan_report_bytes_pinned(args):
    check_pins(theorem_bits, PINS, "SCAN_SHA256", keys=[args])


def test_checks_compute_where_squared_sides_overflow():
    # The squared sides of this triangle overflow at its own scale.  On the
    # power-of-two frame each check gives what its copy at scale 2^-997
    # gives, and the orthocenter is that copy's, mapped back.
    t = Triangle(Point(0.0, 0.0), Point(1e300, 0.0), Point(5e299, 1e300))
    unit = scaled(t, -997)
    got, want = check_bits(t), check_bits(unit)
    h = orthocenter(unit)
    assert got[-2] == (math.ldexp(h.x, 997).hex(), math.ldexp(h.y, 997).hex())
    assert got[:-2] + got[-1:] == want[:-2] + want[-1:]
