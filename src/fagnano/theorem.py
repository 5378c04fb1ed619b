"""Numeric verification of the right-orthic characterization.

For an acute triangle the minimal inscribed triangle is the orthic triangle,
and it is right-angled exactly when the parent has a single pi/4 angle; the
right angle then sits at the foot of the altitude dropped from that vertex.
This module evaluates both directions of that biconditional on individual
triangles, re-derives every intermediate angle identity of the underlying
argument from explicit coordinates, and sweeps triangle shape space for
counterexamples.  The scan only counts its grid nodes, whose verdict
cannot fail off the skip band, and decides its pi/4-locus nodes on the
verdict's fields as a plain tuple, building a ``TheoremVerdict`` only for a
counterexample.

Tolerance coupling: the orthic-angle test at pi/2 uses a tolerance tol while
the parent-angle test at pi/4 uses ``tol / 2``, because the exact relation
orthic angle = pi - 2 * parent angle doubles perturbations.  ``verdict`` and
``proof_steps`` decide at ``ANGLE_TOL``; only the scan takes its own
``tol_angle`` (not the acuteness tolerance).  Scan samples within
``boundary_band`` of either threshold are skipped, not adjudicated: a
floating-point iff cannot be decided on its knife edge.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .geometry import (
    ANGLE_TOL,
    AngleTriple,
    Triangle,
    _acute_gate,
    _angle,
    _feet,
    _frame,
    _frame_feet,
    _incenter,
    _orthocenter,
    _Record,
    _set,
    _unit_circle,
    _vertex_angles,
    check_tolerance,
)

QUARTER_PI = math.pi / 4.0
HALF_PI = math.pi / 2.0

DEFAULT_BOUNDARY_BAND = 1e-6


class TheoremVerdict(_Record):
    """Both directions of the characterization, evaluated on one triangle.

    ``pairing_holds`` is None when either side of the biconditional is false
    (the opposite-angle claim is only meaningful when both hold).
    """

    _fields = (
        "orthic_is_right", "right_vertex", "has_quarter_pi", "quarter_pi_vertex",
        "quarter_pi_unique", "pairing_holds", "biconditional_holds",
    )

    def __init__(
        self, orthic_is_right: bool, right_vertex: int | None, has_quarter_pi: bool,
        quarter_pi_vertex: int | None, quarter_pi_unique: bool, pairing_holds: bool | None,
        biconditional_holds: bool,
    ):
        _set(self, "orthic_is_right", orthic_is_right)
        _set(self, "right_vertex", right_vertex)
        _set(self, "has_quarter_pi", has_quarter_pi)
        _set(self, "quarter_pi_vertex", quarter_pi_vertex)
        _set(self, "quarter_pi_unique", quarter_pi_unique)
        _set(self, "pairing_holds", pairing_holds)
        _set(self, "biconditional_holds", biconditional_holds)

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

    def __init__(
        self, angle_sum_residual: float, bisection_residuals: tuple[float, float, float],
        quarter_relation_residual: float, quarter_relation_active: bool,
        quad_sum_residual: float, decomposition_residuals: tuple[float, float],
    ):
        _set(self, "angle_sum_residual", angle_sum_residual)
        _set(self, "bisection_residuals", bisection_residuals)
        _set(self, "quarter_relation_residual", quarter_relation_residual)
        _set(self, "quarter_relation_active", quarter_relation_active)
        _set(self, "quad_sum_residual", quad_sum_residual)
        _set(self, "decomposition_residuals", decomposition_residuals)

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

    dfc = _angle(fdx, fdy, fcx, fcy)
    cfe = _angle(fcx, fcy, fex, fey)
    fda = _angle(dfx, dfy, dax, day)
    ade = _angle(dax, day, dex, dey)
    feb = _angle(efx, efy, ebx, eby)
    bed = _angle(ebx, eby, edx, edy)
    bisection_residuals = (abs(dfc - cfe), abs(fda - ade), abs(feb - bed))

    quarter_relation_residual = abs(cfe + ade - QUARTER_PI)
    quarter_relation_active = abs(angle_e - HALF_PI) <= ANGLE_TOL

    angle_b = t.vertex_angles[1]
    bfe = _angle(fbx, fby, fex, fey)
    bde = _angle(dbx, dby, dex, dey)
    quad_sum_residual = abs(angle_b + angle_e + bfe + bde - 2.0 * math.pi)
    decomposition_residuals = (
        abs(bfe - HALF_PI - cfe),
        abs(bde - HALF_PI - ade),
    )
    return ProofStepReport(
        angle_sum_residual=angle_sum_residual,
        bisection_residuals=bisection_residuals,
        quarter_relation_residual=quarter_relation_residual,
        quarter_relation_active=quarter_relation_active,
        quad_sum_residual=quad_sum_residual,
        decomposition_residuals=decomposition_residuals,
    )


def incenter_orthocenter_check(t: Triangle) -> float:
    """Distance between incenter(orthic) and orthocenter, over the diameter.

    Measured on the frame of ``t`` and divided by the frame diameter that
    ``t`` stored at construction, so the ratio is the same at every scale,
    also where the feet of ``t`` would be subnormal.
    """
    ix, iy = _incenter(*_feet(t))
    hx, hy = _orthocenter(*t.frame[1:])
    return math.hypot(ix - hx, iy - hy) / max(t.frame_sides)


class ScanReport(_Record):
    """Outcome of a shape-space sweep.  Empty counterexamples is a pass."""

    _fields = (
        "grid_resolution", "samples_tested", "samples_skipped", "counterexamples",
        "boundary_band", "tol_angle",
    )

    def __init__(
        self, grid_resolution: int, samples_tested: int, samples_skipped: int,
        counterexamples: tuple[tuple[AngleTriple, TheoremVerdict], ...],
        boundary_band: float, tol_angle: float,
    ):
        _set(self, "grid_resolution", grid_resolution)
        _set(self, "samples_tested", samples_tested)
        _set(self, "samples_skipped", samples_skipped)
        _set(self, "counterexamples", counterexamples)
        _set(self, "boundary_band", boundary_band)
        _set(self, "tol_angle", tol_angle)

    def to_document(self) -> dict:
        return {
            "grid_resolution": self.grid_resolution,
            "samples_tested": self.samples_tested,
            "samples_skipped": self.samples_skipped,
            "counterexamples": [
                {"angles": list(tri.as_tuple()), "verdict": v.to_document()}
                for tri, v in self.counterexamples
            ],
            "boundary_band": self.boundary_band,
            "tol_angle": self.tol_angle,
        }


def acute_grid_nodes(grid_resolution: int) -> Iterator[tuple[float, float]]:
    """Angle pairs (alpha, beta) = (i, j) * (pi/2)/n over the open acute simplex.

    Admissible nodes have all three angles strictly inside (0, pi/2), which
    for this grid is exactly i + j > n.
    """
    h = HALF_PI / grid_resolution
    for i in range(1, grid_resolution):
        for j in range(1, grid_resolution):
            if i + j > grid_resolution:
                yield (i * h, j * h)


def quarter_pi_locus_nodes(grid_resolution: int) -> Iterator[tuple[float, float]]:
    """Angle pairs with beta = pi/4 exactly and alpha strictly in (pi/4, pi/2)."""
    h = QUARTER_PI / grid_resolution
    for k in range(1, grid_resolution):
        yield (QUARTER_PI + k * h, QUARTER_PI)


def _node_angles(
    alpha: float, beta: float
) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Parent and orthic angles of the scan node (alpha, beta), measured on
    the bare floats of its unit-circumradius frame (those of
    ``Triangle.from_angles``) after the acute gate at ``ANGLE_TOL``."""
    frame, _, parent, _ = _frame(*_unit_circle(alpha, beta))
    _acute_gate(parent, HALF_PI - max(parent), ANGLE_TOL)
    return parent, _vertex_angles(*_frame_feet(frame))


def scan_angle_space(
    grid_resolution: int,
    tol_angle: float = ANGLE_TOL,
    boundary_band: float = DEFAULT_BOUNDARY_BAND,
) -> ScanReport:
    """Sweep acute shape space for violations of either direction.

    Each node is measured on the unit circumradius, on the bare floats of
    its frame: the scan builds no ``Point`` or ``Triangle``.  The grid loop
    only counts the open-simplex nodes: it skips a knife-edge node (any
    parent angle within ``boundary_band`` of pi/4, or any orthic angle
    within it of pi/2) and tests every other one, whose verdict cannot fail
    because ``boundary_band`` exceeds ``tol_angle``.  The locus loop decides
    the beta = pi/4 nodes on the verdict's fields and requires the
    biconditional with a right orthic angle at the foot from b, so
    counterexamples come only from the locus.  Both kinds of node count
    toward ``samples_tested``.  ``tol_angle`` sets only the verdict tests:
    every node is acute by construction and passes the acute gate at
    ``ANGLE_TOL``.  A passing locus node builds no ``TheoremVerdict``.  A
    ``boundary_band`` that skips every grid node raises ValueError.
    """
    if not (isinstance(grid_resolution, int) and grid_resolution >= 8):
        raise ValueError(f"grid_resolution must be an int >= 8, got {grid_resolution!r}")
    check_tolerance("tol_angle", tol_angle)
    check_tolerance("boundary_band", boundary_band)
    if boundary_band <= tol_angle:
        raise ValueError(
            f"boundary_band ({boundary_band}) must exceed tol_angle ({tol_angle})"
        )
    # Off the band no angle is within boundary_band > tol_angle of its
    # threshold, so _verdict_core would return (False, None, False, None,
    # False, None, True), which passes.
    tested = 0
    skipped = 0
    for alpha, beta in acute_grid_nodes(grid_resolution):
        (p0, p1, p2), (o0, o1, o2) = _node_angles(alpha, beta)
        if (
            abs(p0 - QUARTER_PI) < boundary_band
            or abs(p1 - QUARTER_PI) < boundary_band
            or abs(p2 - QUARTER_PI) < boundary_band
            or abs(o0 - HALF_PI) < boundary_band
            or abs(o1 - HALF_PI) < boundary_band
            or abs(o2 - HALF_PI) < boundary_band
        ):
            skipped += 1
        else:
            tested += 1
    if tested == 0:
        raise ValueError(f"boundary_band ({boundary_band}) skips all {skipped} grid nodes")

    counterexamples: list[tuple[AngleTriple, TheoremVerdict]] = []
    for alpha, beta in quarter_pi_locus_nodes(grid_resolution):
        parent, orth = _node_angles(alpha, beta)
        fields = _verdict_core(parent, orth, tol_angle)
        orthic_is_right, right_vertex, _, _, _, pairing_holds, biconditional_holds = fields
        # Both directions, and the forward one at the matching foot: the
        # pi/4 angle at b must give a right orthic angle at the foot from b.
        if not (
            biconditional_holds
            and pairing_holds is not False
            and orthic_is_right
            and right_vertex == 1
        ):
            counterexamples.append((AngleTriple(*parent), TheoremVerdict(*fields)))
    tested += grid_resolution - 1

    return ScanReport(
        grid_resolution=grid_resolution,
        samples_tested=tested,
        samples_skipped=skipped,
        counterexamples=tuple(counterexamples),
        boundary_band=boundary_band,
        tol_angle=tol_angle,
    )
