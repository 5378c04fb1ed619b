"""Numeric verification of the right-orthic characterization.

For an acute triangle the minimal inscribed triangle is the orthic triangle,
and it is right-angled exactly when the parent has a single pi/4 angle; the
right angle then sits at the foot of the altitude dropped from that vertex.
This module evaluates both directions of that biconditional on individual
triangles, re-derives every intermediate angle identity of the underlying
argument from explicit coordinates, and sweeps triangle shape space for
counterexamples.  Both directions rest on the orthic-angle law, orthic
angle at the foot from x = pi - 2 * (parent angle at x): one batch kernel
(``_scan_nodes``) measures every node inline on its unit-circle vertex
floats, with no ``Triangle`` and no call of its own, about 1.9 us a node
(2-vCPU Xeon, Python 3.11).  The scan checks the law at every node and
decides the pi/4-locus nodes on the verdict's fields as a plain tuple,
building a ``TheoremVerdict`` only for a counterexample.

Tolerance coupling: the orthic-angle test at pi/2 uses a tolerance tol while
the parent-angle test at pi/4 uses ``tol / 2``, because the exact relation
orthic angle = pi - 2 * parent angle doubles perturbations.  ``verdict`` and
``proof_steps`` decide at ``ANGLE_TOL``; only the scan takes its own
``tol_angle`` (not the acuteness tolerance), at least the law's rounding
bound on the pi/4 locus.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .geometry import (
    ANGLE_TOL,
    AngleTriple,
    Triangle,
    _acute_gate,
    _feet,
    _incenter,
    _orthocenter,
    _Record,
    _unit_circle,
    _vertex_angles,
    check_tolerance,
)

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0

# A scan node fails the orthic-angle law when r * m > ANGLE_LAW_BOUND * eps
# (see scan_angle_space); over the acute region r * m stays near 2 eps.
ANGLE_LAW_BOUND = 8
_EPS = math.ulp(1.0)
# The largest grid_resolution n the scan takes: its last locus node keeps a
# margin pi / (4 * n) of 2 * ANGLE_TOL, and its grid corners, slivers of
# margin pi / (2 * n), lose at most about a quarter of it to rounding.
_MAX_RESOLUTION = int(QUARTER_PI / (2.0 * ANGLE_TOL))


class TheoremVerdict(_Record):
    """Both directions of the characterization, evaluated on one triangle.

    ``pairing_holds`` is None when either side of the biconditional is false
    (the opposite-angle claim is only meaningful when both hold).
    """

    _fields = (
        "orthic_is_right", "right_vertex", "has_quarter_pi", "quarter_pi_vertex",
        "quarter_pi_unique", "pairing_holds", "biconditional_holds",
    )

    def to_document(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _verdict_core(
    p: tuple[float, float, float], o: tuple[float, float, float], tol_angle: float
) -> tuple[bool, int | None, bool, int | None, bool, bool | None, bool]:
    """The verdict's fields, in ``TheoremVerdict`` order, on parent and orthic
    angle tuples indexed by vertex: a plain tuple, so a passing scan node
    builds no ``TheoremVerdict``."""
    # right_vertex: the first index with the smallest |o - pi/2| within tol.
    d0, d1, d2 = abs(o[0] - HALF_PI), abs(o[1] - HALF_PI), abs(o[2] - HALF_PI)
    right_vertex, best = None, math.inf
    if d0 <= tol_angle:
        right_vertex, best = 0, d0
    if d1 <= tol_angle and d1 < best:
        right_vertex, best = 1, d1
    if d2 <= tol_angle and d2 < best:
        right_vertex = 2
    orthic_is_right = right_vertex is not None

    half_tol = tol_angle / 2.0
    q0 = abs(p[0] - QUARTER_PI) <= half_tol
    q1 = abs(p[1] - QUARTER_PI) <= half_tol
    q2 = abs(p[2] - QUARTER_PI) <= half_tol
    quarter_pi_vertex = 0 if q0 else 1 if q1 else 2 if q2 else None
    quarter_pi_unique = q0 + q1 + q2 == 1

    pairing_holds = (
        right_vertex == quarter_pi_vertex if orthic_is_right and quarter_pi_unique else None
    )
    return (
        orthic_is_right,
        right_vertex,
        quarter_pi_vertex is not None,
        quarter_pi_vertex,
        quarter_pi_unique,
        pairing_holds,
        orthic_is_right == quarter_pi_unique,
    )


def verdict(t: Triangle) -> TheoremVerdict:
    """Evaluate the biconditional and the opposite-angle pairing on ``t``.

    The orthic angle at foot_from_x is compared against pi/2 at ``ANGLE_TOL``;
    the parent angle at x against pi/4 at ``ANGLE_TOL / 2``.  The pairing
    check is the index correspondence between those two hits.  ``t`` must be
    acute at ``ANGLE_TOL``.  The orthic angles are measured on the frame
    feet; no ``OrthicResult`` is built.
    """
    return TheoremVerdict(
        *_verdict_core(t.vertex_angles, _vertex_angles(*_feet(t)), ANGLE_TOL)
    )


class ProofStepReport(_Record):
    """Residuals of the intermediate identities, from explicit coordinates.

    With d, e, f the feet of the altitudes from a, b, c:

    * ``angle_sum_residual``: the three orthic angles against pi.
    * ``bisection_residuals``: each altitude bisects the orthic angle at its
      foot (at f split by fc, at d split by da, at e split by eb).
    * ``quarter_relation_residual``: angle(cfe) + angle(ade) against pi/4;
      only meaningful when the orthic angle at e is right, see
      ``quarter_relation_active``.
    * ``quad_sum_residual``: interior angles of quadrilateral b, d, e, f
      against 2*pi.
    * ``decomposition_residuals``: angle(bfe) against pi/2 + angle(cfe), and
      angle(bde) against pi/2 + angle(ade).
    """

    _fields = (
        "angle_sum_residual", "bisection_residuals", "quarter_relation_residual",
        "quarter_relation_active", "quad_sum_residual", "decomposition_residuals",
    )

    def all_unconditional(self) -> tuple[float, ...]:
        """Every residual that must vanish for any acute triangle."""
        return (
            self.angle_sum_residual,
            *self.bisection_residuals,
            self.quad_sum_residual,
            *self.decomposition_residuals,
        )


def proof_steps(t: Triangle) -> ProofStepReport:
    """Residuals of the proof's identities on the acute triangle ``t``.

    Every angle is measured on the frame coordinates of ``t`` and its feet
    (see ``Triangle.frame``), where no difference or product leaves the
    double range.  ``t`` must be acute at ``ANGLE_TOL``, and
    ``quarter_relation_active`` tests the orthic angle at e at ``ANGLE_TOL``.
    """
    _, ax, ay, bx, by, cx, cy = t.frame
    dx, dy, ex, ey, fx, fy = _feet(t)
    # Edge vectors p - q out of each apex q: "dex" is the x of e - d.
    dex, dey, dfx, dfy = ex - dx, ey - dy, fx - dx, fy - dy
    dax, day, dbx, dby = ax - dx, ay - dy, bx - dx, by - dy
    edx, edy, efx, efy, ebx, eby = dx - ex, dy - ey, fx - ex, fy - ey, bx - ex, by - ey
    fdx, fdy, fex, fey = dx - fx, dy - fy, ex - fx, ey - fy
    fcx, fcy, fbx, fby = cx - fx, cy - fy, bx - fx, by - fy

    angle_d, angle_e, angle_f = _vertex_angles(dx, dy, ex, ey, fx, fy)
    angle_sum_residual = abs(angle_d + angle_e + angle_f - math.pi)

    # The angle between u and v, atan2(|u x v|, u . v), written out.
    atan2 = math.atan2
    dfc = atan2(abs(fdx * fcy - fdy * fcx), fdx * fcx + fdy * fcy)
    cfe = atan2(abs(fcx * fey - fcy * fex), fcx * fex + fcy * fey)
    fda = atan2(abs(dfx * day - dfy * dax), dfx * dax + dfy * day)
    ade = atan2(abs(dax * dey - day * dex), dax * dex + day * dey)
    feb = atan2(abs(efx * eby - efy * ebx), efx * ebx + efy * eby)
    bed = atan2(abs(ebx * edy - eby * edx), ebx * edx + eby * edy)
    bisection_residuals = (abs(dfc - cfe), abs(fda - ade), abs(feb - bed))

    quarter_relation_residual = abs(cfe + ade - QUARTER_PI)
    quarter_relation_active = abs(angle_e - HALF_PI) <= ANGLE_TOL

    angle_b = t.vertex_angles[1]
    bfe = atan2(abs(fbx * fey - fby * fex), fbx * fex + fby * fey)
    bde = atan2(abs(dbx * dey - dby * dex), dbx * dex + dby * dey)
    quad_sum_residual = abs(angle_b + angle_e + bfe + bde - 2.0 * math.pi)
    decomposition_residuals = (
        abs(bfe - HALF_PI - cfe),
        abs(bde - HALF_PI - ade),
    )
    # Positional, in _fields order: six keywords cost about 0.3 us a call.
    return ProofStepReport(
        angle_sum_residual,
        bisection_residuals,
        quarter_relation_residual,
        quarter_relation_active,
        quad_sum_residual,
        decomposition_residuals,
    )


def incenter_orthocenter_check(t: Triangle) -> float:
    """Distance between incenter(orthic) and orthocenter, over the diameter.

    Measured on the frame of ``t`` and divided by the frame diameter that
    ``t`` stored at construction, so the ratio is the same at every scale,
    also where the feet of ``t`` would be subnormal.
    """
    ix, iy = _incenter(*_feet(t))
    # Unpacked, not *t.frame[1:], as in _feet.
    _, ax, ay, bx, by, cx, cy = t.frame
    hx, hy = _orthocenter(ax, ay, bx, by, cx, cy)
    return math.hypot(ix - hx, iy - hy) / max(t.frame_sides)


class ScanReport(_Record):
    """Outcome of a shape-space sweep.  Empty counterexamples is a pass;
    ``worst_law_residual`` is the largest r * m / eps (see ``scan_angle_space``)."""

    _fields = (
        "grid_resolution", "samples_tested", "counterexamples", "tol_angle", "worst_law_residual"
    )
    # Not a field: every node is tested.  The bench adds it to samples_tested;
    # ROADMAP item 2 removes it.
    samples_skipped = 0

    def to_document(self) -> dict:
        document = dict(zip(self._fields, self._values()))
        document["counterexamples"] = [
            {"angles": list(tri.as_tuple()), "verdict": v.to_document()}
            for tri, v in self.counterexamples
        ]
        return document


def acute_grid_nodes(grid_resolution: int) -> Iterator[tuple[float, float]]:
    """Angle pairs (alpha, beta) = (i, j) * (pi/2)/n over the open acute simplex.

    Admissible nodes have all three angles strictly inside (0, pi/2), which
    for this grid is exactly i + j > n.
    """
    h = HALF_PI / grid_resolution
    for i in range(1, grid_resolution):
        alpha = i * h
        for j in range(grid_resolution - i + 1, grid_resolution):
            yield (alpha, j * h)


def quarter_pi_locus_nodes(grid_resolution: int) -> Iterator[tuple[float, float]]:
    """Angle pairs with beta = pi/4 exactly and alpha strictly in (pi/4, pi/2)."""
    h = QUARTER_PI / grid_resolution
    for k in range(1, grid_resolution):
        yield (QUARTER_PI + k * h, QUARTER_PI)


def _scan_nodes(nodes: Iterable[tuple[float, float]], limit: float) -> tuple[float, list]:
    """Measure each scan node (alpha, beta) on the vertex floats of
    ``Triangle.from_angles(alpha, beta)``, after the acute gate at
    ``ANGLE_TOL``: parent angles p, orthic angles o, and law residual times
    margin, r * m.  Return the largest r * m (0.0 for no node) and, in node
    order, (alpha, beta, p, o, r * m) of each node whose r * m exceeds
    ``limit`` (every node at -inf).

    A unit-circle node needs none of ``Triangle``'s checks, and its frame,
    the same floats times 1/2, gives the same angles.  The dot product at
    each vertex gives its parent angle and a foot parameter (the foot from
    a lies |ab| cos B from b along bc).  Every angle is ``_vertex_angles``'
    expression and every foot ``_frame_feet``'s, bit for bit (rounding is
    sign-symmetric), and a node calls only ``_unit_circle`` and six atan2."""
    worst, flagged = 0.0, []
    atan2, pi = math.atan2, math.pi
    for alpha, beta in nodes:
        ax, ay, bx, by, cx, cy = _unit_circle(alpha, beta)
        abx, aby = bx - ax, by - ay
        bcx, bcy = cx - bx, cy - by
        cax, cay = ax - cx, ay - cy
        dot_a = abx * cax + aby * cay
        dot_b = bcx * abx + bcy * aby
        dot_c = cax * bcx + cay * bcy
        p0 = atan2(abs(abx * cay - aby * cax), -dot_a)
        p1 = atan2(abs(bcx * aby - bcy * abx), -dot_b)
        p2 = atan2(abs(cax * bcy - cay * bcx), -dot_c)
        # max() by two comparisons, and _acute_gate called only to raise:
        # every scan node is acute, so the margin test alone passes it.
        largest = p1 if p1 > p0 else p0
        if p2 > largest:
            largest = p2
        margin = HALF_PI - largest
        if not margin > ANGLE_TOL:
            _acute_gate((p0, p1, p2), margin, ANGLE_TOL)
        sa = -dot_b / (bcx * bcx + bcy * bcy)
        sb = -dot_c / (cax * cax + cay * cay)
        sc = -dot_a / (abx * abx + aby * aby)
        # The feet d, e, f from a, b, c, and the orthic angles at them.
        dx, dy = bx + sa * bcx, by + sa * bcy
        ex, ey = cx + sb * cax, cy + sb * cay
        fx, fy = ax + sc * abx, ay + sc * aby
        dex, dey = ex - dx, ey - dy
        efx, efy = fx - ex, fy - ey
        fdx, fdy = dx - fx, dy - fy
        o0 = atan2(abs(dex * fdy - dey * fdx), -(dex * fdx + dey * fdy))
        o1 = atan2(abs(efx * dey - efy * dex), -(efx * dex + efy * dey))
        o2 = atan2(abs(fdx * efy - fdy * efx), -(fdx * efx + fdy * efy))
        r, r1, r2 = abs(o0 + 2.0 * p0 - pi), abs(o1 + 2.0 * p1 - pi), abs(o2 + 2.0 * p2 - pi)
        # Two comparisons, not max(): its call costs about 3% of a node.
        if r1 > r:
            r = r1
        if r2 > r:
            r = r2
        law = r * margin
        if law > worst:
            worst = law
        if law > limit:
            flagged.append((alpha, beta, (p0, p1, p2), (o0, o1, o2), law))
    return worst, flagged


def scan_angle_space(grid_resolution: int, tol_angle: float = ANGLE_TOL) -> ScanReport:
    """Sweep acute shape space for violations of either direction.

    Each node is measured on the bare floats of its vertices on the unit
    circle (``_scan_nodes``): the scan builds no ``Point`` or ``Triangle``
    and runs none of ``Triangle``'s checks.  Every grid and beta = pi/4
    locus node is tested against the orthic-angle law: with
    r = max over x of |o_x + 2 * p_x - pi| and m = pi/2 - max(p), a node
    with r * m > ``ANGLE_LAW_BOUND`` * eps (eps = 2**-52) is a
    counterexample.  A locus node must also pass the biconditional with a
    right orthic angle at the foot from b.  The report gives the worst
    r * m / eps.  A passing node builds no ``TheoremVerdict``.  A grid node
    fails through the law alone, so its verdict can read
    ``biconditional_holds`` True; ``worst_law_residual``, the largest over
    the run, shows how far the law missed.

    ``tol_angle`` sets only the verdict tests: every node is acute by
    construction and passes the acute gate at ``ANGLE_TOL``.  On the locus
    the law puts the orthic angle at b within ``ANGLE_LAW_BOUND`` * eps / m
    of pi/2, and m falls to pi / (4 * grid_resolution): a ``tol_angle``
    below that bound would decide on rounding and raises ValueError, as
    does a ``grid_resolution`` beyond the float range or above about 3.9e8
    (``_MAX_RESOLUTION``), whose last nodes would near the acute gate.
    """
    if not (isinstance(grid_resolution, int) and grid_resolution >= 8):
        raise ValueError(f"grid_resolution must be an int >= 8, got {grid_resolution!r}")
    check_tolerance("tol_angle", tol_angle)
    limit = ANGLE_LAW_BOUND * _EPS
    try:
        floor = limit / (QUARTER_PI / grid_resolution)
    except OverflowError:
        raise ValueError(f"grid_resolution {grid_resolution} is beyond the float range") from None
    if grid_resolution > _MAX_RESOLUTION:
        raise ValueError(
            f"grid_resolution {grid_resolution} is above {_MAX_RESOLUTION}, the largest whose"
            f" nodes all stay more than 2 * ANGLE_TOL ({2 * ANGLE_TOL:g}) from a right angle"
        )
    if tol_angle < floor:
        raise ValueError(
            f"tol_angle ({tol_angle!r}) is below {floor:.3g}, the angle law's"
            f" rounding bound at resolution {grid_resolution}"
        )
    worst, grid = _scan_nodes(acute_grid_nodes(grid_resolution), limit)
    counterexamples: list[tuple[AngleTriple, TheoremVerdict]] = [
        (AngleTriple(*parent), TheoremVerdict(*_verdict_core(parent, orth, tol_angle)))
        for _, _, parent, orth, _ in grid
    ]
    locus_worst, locus = _scan_nodes(quarter_pi_locus_nodes(grid_resolution), -math.inf)
    worst = max(worst, locus_worst)
    for _, _, parent, orth, law in locus:
        fields = _verdict_core(parent, orth, tol_angle)
        orthic_is_right, right_vertex, _, _, _, pairing_holds, biconditional_holds = fields
        # Both directions, and the forward one at the matching foot: the
        # pi/4 angle at b must give a right orthic angle at the foot from b.
        holds = biconditional_holds and pairing_holds is not False
        if law > limit or not (holds and orthic_is_right and right_vertex == 1):
            counterexamples.append((AngleTriple(*parent), TheoremVerdict(*fields)))

    return ScanReport(
        grid_resolution=grid_resolution,
        # The (n - 1)(n - 2)/2 grid nodes and the n - 1 locus nodes.
        samples_tested=grid_resolution * (grid_resolution - 1) // 2,
        counterexamples=tuple(counterexamples),
        tol_angle=tol_angle,
        worst_law_residual=worst / _EPS,
    )
