import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import theorem_bits
from conftest import (
    acute_triangles,
    orthocenter,
    random_acute_triangle,
    sample_acute_angles,
    scaled,
    verdict_fields_oracle,
)
from fagnano import cli, geometry, jsonio, theorem
from fagnano.geometry import (
    ANGLE_TOL,
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
    # counted twice (at the exact tol/2 boundary rounding decides, which is
    # what the scan's exclusion band is for)
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


# What _verdict_core returns where the scan's band test passes a grid node:
# no right orthic angle, no pi/4 parent angle, and a biconditional that holds.
OFF_BAND_FIELDS = (False, None, False, None, False, None, True)


# An angle's side of its threshold and how far past the band it lies.
BAND_OFFSET = st.tuples(st.sampled_from((1.0, -1.0)), st.floats(min_value=0.0, max_value=1.5))


@settings(max_examples=300)
@given(
    st.floats(min_value=0.0, max_value=0.1),
    st.floats(min_value=0.0, max_value=0.2, exclude_min=True),
    st.tuples(BAND_OFFSET, BAND_OFFSET, BAND_OFFSET),
    st.tuples(BAND_OFFSET, BAND_OFFSET, BAND_OFFSET),
)
def test_verdict_core_is_constant_off_the_band(tol, extra, p_offsets, o_offsets):
    # The scan only counts its grid nodes: with band > tol >= 0, every
    # parent angle at least band from pi/4 and every orthic angle at least
    # band from pi/2 (the nodes its band test does not skip), the verdict
    # cannot fail.  repr tells a bool from an int.
    band = tol + extra
    assume(band > tol)
    p = tuple(QUARTER_PI + s * (band + d) for s, d in p_offsets)
    o = tuple(HALF_PI + s * (band + d) for s, d in o_offsets)
    assume(all(abs(x - QUARTER_PI) >= band for x in p))
    assume(all(abs(x - HALF_PI) >= band for x in o))
    assert repr(theorem._verdict_core(p, o, tol)) == repr(OFF_BAND_FIELDS)


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


def expected_scan_counts(n, tol_angle, boundary_band):
    """Independent enumeration of the documented sweep."""
    h = HALF_PI / n
    tested = skipped = 0
    for i in range(1, n):
        for j in range(1, n):
            if i + j <= n:
                continue
            alpha, beta = i * h, j * h
            gamma = math.pi - alpha - beta
            parent = (alpha, beta, gamma)
            orthic = tuple(math.pi - 2 * x for x in parent)
            if (
                min(abs(x - QUARTER_PI) for x in parent) < boundary_band
                or min(abs(x - HALF_PI) for x in orthic) < boundary_band
            ):
                skipped += 1
            else:
                tested += 1
    tested += n - 1  # the quarter-pi locus phase
    return tested, skipped


def test_scan_resolution_8_counts():
    report = scan_angle_space(8)
    tested, skipped = expected_scan_counts(8, ANGLE_TOL, 1e-6)
    assert report.samples_tested == tested
    assert report.samples_skipped == skipped
    assert report.counterexamples == ()


def test_scan_resolution_64_clean():
    report = scan_angle_space(64)
    assert report.counterexamples == ()
    tested, skipped = expected_scan_counts(64, ANGLE_TOL, 1e-6)
    assert report.samples_tested == tested


def test_scan_validation():
    for bad in (7, 8.5, math.nan, 1e9, "16"):
        with pytest.raises(ValueError, match="grid_resolution must be an int >= 8"):
            scan_angle_space(bad)
    with pytest.raises(ValueError):
        scan_angle_space(16, tol_angle=1e-6, boundary_band=1e-6)
    for bad in (math.nan, math.inf, -1e-9):
        with pytest.raises(ValueError, match="tol_angle must be finite"):
            scan_angle_space(16, tol_angle=bad)
        with pytest.raises(ValueError, match="boundary_band must be finite"):
            scan_angle_space(16, boundary_band=bad)
    # Every grid node has a parent angle within 0.785 of pi/4: only the
    # locus would be tested.
    assert expected_scan_counts(40, ANGLE_TOL, 0.785) == (39, 741)
    with pytest.raises(ValueError, match=r"boundary_band \(0.785\) skips all 741 grid nodes"):
        scan_angle_space(40, boundary_band=0.785)


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
        "samples_skipped",
        "counterexamples",
        "boundary_band",
        "tol_angle",
    ]


# sha256 of jsonio.dumps(scan_angle_space(*args).to_document()).  The (16,
# 0.1, 0.2) report lists counterexamples, so their angles are pinned to the
# digit.  CI reads this dict (with ast, keep it a literal) and checks the
# installed `fagnano scan` at (16,), (200,) and (16, 0.1, 0.2) against it.
SCAN_SHA256 = {
    (8,): "bfd4b74b918c9c04484e721322078bf58c375c9d6326c5d287db852e13291768",
    (16,): "05dfde3a207c60078efc8c5649bc866516d982ca736b4329426d12b1a344e1e0",
    (40,): "8972ddf81b922f6ee0fd450f1b80e9539223f6c76bc0931ce60a03b174173739",
    (200,): "1abe380cc57b868eb94a3146b0ccaa65f357e9524dc74625872df1540cc18259",
    (16, 0.1, 0.2): "c8f3d607d1d9358bc2d5b45a84214bf02df7ac6c8d0a15f8e5a0683915acc4db",
}


@pytest.mark.parametrize("args", sorted(SCAN_SHA256), ids=lambda a: "-".join(map(str, a)))
def test_scan_report_bytes_pinned(args):
    text = jsonio.dumps(scan_angle_space(*args).to_document())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == SCAN_SHA256[args]


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
    # Each scan node is measured on the bare floats of its frame: no
    # Triangle is constructed, and the report is the same.
    args = ((16,), (16, 0.1, 0.2))
    want = {a: jsonio.dumps(scan_angle_space(*a).to_document()) for a in args}

    def forbidden(self, *vertices):
        raise AssertionError("a Triangle was built")

    monkeypatch.setattr(geometry.Triangle, "__init__", forbidden)
    with pytest.raises(AssertionError, match="Triangle"):
        Triangle.from_angles(1.0, 1.1)
    for a in args:
        assert jsonio.dumps(scan_angle_space(*a).to_document()) == want[a], a


def test_scan_nodes_share_from_angles_frame():
    # The scan and Triangle.from_angles place a node with one helper and
    # measure it with one frame function: bit for bit the same measures.
    nodes = (*acute_grid_nodes(40), *quarter_pi_locus_nodes(40))
    assert len(nodes) == 741 + 39
    for alpha, beta in nodes:
        coords = geometry._unit_circle(alpha, beta)
        frame, frame_sides, vertex_angles, swapped = geometry._frame(*coords)
        t = Triangle.from_angles(alpha, beta)
        assert not swapped
        assert repr(tuple(p.as_tuple() for p in t.vertices)) == repr(
            (coords[0:2], coords[2:4], coords[4:6])
        )
        assert repr((t.frame, t.frame_sides, t.vertex_angles)) == repr(
            (frame, frame_sides, vertex_angles)
        ), (alpha, beta)


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
        scan_angle_space(16, 0.1, 0.2)


@pytest.mark.parametrize("n", [16, 40])
def test_scan_requires_the_right_vertex_on_the_locus(monkeypatch, n):
    # A core that puts the right orthic angle at the foot from a on the
    # beta = pi/4 locus makes each of its n - 1 nodes a counterexample; grid
    # nodes are only counted, so the core never sees them.
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


@pytest.mark.parametrize("args", [(16,), (40,), (16, 0.1, 0.2)], ids=["16", "40", "16-loose"])
def test_scan_calls_the_verdict_on_the_locus_only(monkeypatch, args):
    # Grid nodes are only counted: the verdict core runs once per locus
    # node, in order, and the report is byte-identical.
    want = jsonio.dumps(scan_angle_space(*args).to_document())
    node_angles, verdict_core = theorem._node_angles, theorem._verdict_core
    last_node, verdict_nodes = [], []

    def recording_node_angles(alpha, beta):
        last_node[:] = [(alpha, beta)]
        return node_angles(alpha, beta)

    def recording_verdict_core(p, o, tol_angle):
        verdict_nodes.append(last_node[0])
        return verdict_core(p, o, tol_angle)

    monkeypatch.setattr(theorem, "_node_angles", recording_node_angles)
    monkeypatch.setattr(theorem, "_verdict_core", recording_verdict_core)
    assert jsonio.dumps(scan_angle_space(*args).to_document()) == want
    n = args[0]
    assert len(verdict_nodes) == n - 1
    assert all(beta == QUARTER_PI for _, beta in verdict_nodes)
    assert verdict_nodes == list(quarter_pi_locus_nodes(n))


def test_scan_band_tests_each_measured_orthic_angle():
    # At a band of 1e-16 the measured orthic angles, which differ from
    # pi - 2 * parent by rounding, decide skips of their own: each of the
    # three orthic comparisons alone skips a grid node that no other
    # comparison does, so dropping any one of them changes samples_skipped.
    n, band = 18, 1e-16
    skipped = 0
    alone = [0] * 6
    for alpha, beta in acute_grid_nodes(n):
        frame, _, parent, _ = geometry._frame(*geometry._unit_circle(alpha, beta))
        orth = geometry._vertex_angles(*geometry._frame_feet(frame))
        near = [abs(x - QUARTER_PI) < band for x in parent]
        near += [abs(x - HALF_PI) < band for x in orth]
        if any(near):
            skipped += 1
            if sum(near) == 1:
                alone[near.index(True)] += 1
    assert alone[3:] == [1, 3, 1]
    report = scan_angle_space(n, 0.0, band)
    assert (report.samples_tested, report.samples_skipped) == (142, 11)
    assert report.samples_skipped == skipped


# ----------------------------------------------------- biconditional directions


def test_forward_direction_samples():
    # exactly one pi/4 angle -> right orthic angle at the matching foot
    rng = random.Random(17)
    for _ in range(200):
        alpha = rng.uniform(QUARTER_PI + 1e-3, HALF_PI - 1e-3)
        t = Triangle.from_angles(alpha, QUARTER_PI)
        v = verdict(t)
        assert v.orthic_is_right
        assert abs(verdict_orthic_angle(t) - HALF_PI) <= 1e-8
        assert v.right_vertex == 1 and v.pairing_holds is True


def verdict_orthic_angle(t):
    from fagnano.geometry import orthic_triangle

    return orthic_triangle(t).angles.beta


def test_reverse_direction_samples():
    # all angles at least 1e-6 away from pi/4 -> no orthic angle near pi/2
    from fagnano.geometry import orthic_triangle

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
# results are pinned to the bit.  theorem_bits.py holds values and raised
# exceptions recorded from the checks that built a Point for every coordinate
# difference; any change there is a change of numerics, not a refactor.

BIT_SCALES = (-500, -40, 0, 17, 500)


def bit_shapes():
    """The named unit-size shapes of theorem_bits.CHECKS."""
    rng = random.Random(20160623)
    shapes = {
        f"acute-{i}": Triangle.from_angles(*sample_acute_angles(rng)) for i in range(10)
    }
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


def test_checks_bit_identical():
    for name, t in bit_shapes().items():
        for k in BIT_SCALES:
            assert check_bits(scaled(t, k)) == theorem_bits.CHECKS[name, k], (name, k)


def test_check_exceptions_identical():
    calls = raising_calls()
    assert calls.keys() == theorem_bits.RAISES.keys()
    for key, (func, args) in calls.items():
        assert raised_bits(func, args) == theorem_bits.RAISES[key], key


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
