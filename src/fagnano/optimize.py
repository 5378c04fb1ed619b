"""Numerical solvers for the minimal-perimeter inscribed triangle.

Two independent search routes over the open parameter cube (0,1)^3, where each
parameter picks an affine point on one side of an acute triangle:

* a Nelder-Mead simplex search started at the medial configuration, the
  side midpoints (the perimeter is a sum of norms of affine maps of the
  parameters, so it is convex on the cube and no grid search is needed to
  find a start), and
* exact coordinate descent: with two inscribed vertices held fixed, the best
  point on the remaining side is found by reflecting one fixed vertex across
  that side's line and cutting the straight segment with it (the shortest-path
  unfolding argument), accelerated by depth-1 Anderson extrapolation over the
  sweeps.  An extrapolated point is kept only if it lies inside the clamp box
  and does not raise the perimeter; convergence is still judged on the plain
  sweep, and the recorded perimeter history stays strictly decreasing.

Both exist to be checked against the closed-form answer, the orthic triangle's
perimeter, so neither route is allowed to peek at altitude feet.

Inputs are validated once at entry; the inner loops run on bare floats in the
triangle's power-of-two frame (see ``Triangle.frame``), so every decision is
the same at any scale, and the perimeters are mapped back with ``math.ldexp``.
Those floats live in locals, not in lists: the simplex keeps its four sorted
vertices and their values in eight names, and the descent unrolls its
three-axis sweep over three parameters and the three sides.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .geometry import (
    GeometryError,
    Point,
    Triangle,
    _feet,
    _perimeter,
    _Record,
    _set,
    _unframed,
    require_acute,
)

# Parameters are confined to [CLAMP_MARGIN, 1 - CLAMP_MARGIN] by the descent
# steps; for acute parents the optimum is interior, so hitting the clamp is a
# warning sign, not business as usual.
CLAMP_MARGIN = 1e-9
# Parents closer than this to right-angled get a warning on their results: the
# minimal inscribed triangle collapses toward a doubled altitude segment and
# the minimum becomes ill-conditioned.
NEAR_RIGHT_MARGIN = 1e-3

DEFAULT_MAX_ITER = 10_000
DEFAULT_SIMPLEX_TOL = 1e-10
DEFAULT_DESCENT_TOL = 1e-15


class InvalidConfigError(GeometryError):
    """A side parameter left the open interval (0, 1)."""


class InscribedConfig(_Record):
    """Side parameters selecting one interior point per side.

    ``t_on_bc`` picks b + t*(c-b), ``t_on_ca`` picks c + t*(a-c) and
    ``t_on_ab`` picks a + t*(b-a).  All three live strictly inside (0, 1):
    a vertex sitting on a corner degenerates the inscribed triangle.
    """

    _fields = ("t_on_bc", "t_on_ca", "t_on_ab")

    def __init__(self, t_on_bc: float, t_on_ca: float, t_on_ab: float):
        for name, value in zip(self._fields, (t_on_bc, t_on_ca, t_on_ab)):
            if not (0.0 < value < 1.0):
                raise InvalidConfigError(f"{name}={value} outside the open interval (0, 1)")
        _set(self, "t_on_bc", t_on_bc)
        _set(self, "t_on_ca", t_on_ca)
        _set(self, "t_on_ab", t_on_ab)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t_on_bc, self.t_on_ca, self.t_on_ab)

    def points(self, t: Triangle) -> tuple[Point, Point, Point]:
        """The selected points (on bc, on ca, on ab), computed in the frame."""
        e, ax, ay, bx, by, cx, cy = t.frame
        s1, s2, s3 = self.as_tuple()
        return (
            _unframed(e, bx + s1 * (cx - bx), by + s1 * (cy - by)),
            _unframed(e, cx + s2 * (ax - cx), cy + s2 * (ay - cy)),
            _unframed(e, ax + s3 * (bx - ax), ay + s3 * (by - ay)),
        )


class MinimizeResult(_Record):
    """Outcome of one minimization run.

    ``history`` holds (iteration, perimeter) pairs, starting with the initial
    evaluation; for the reflection-descent method it is strictly decreasing.
    ``clamped`` reports that some descent step had to be pulled back into the
    open cube; ``warning`` flags ill-conditioned near-right parents.
    ``extrapolations`` counts the accepted extrapolated descent steps (always
    0 for the simplex search); it is not part of the CLI's JSON.
    """

    _fields = (
        "config", "perimeter", "iterations", "converged", "history",
        "clamped", "warning", "extrapolations",
    )
    # The generated __init__'s defaults.
    clamped = False
    warning = None
    extrapolations = 0


def objective(t: Triangle, c: InscribedConfig) -> float:
    """Perimeter of the inscribed triangle selected by ``c``: the
    perimeter of ``c.points(t)``, computed as the searches compute it."""
    require_acute(t)
    return math.ldexp(_raw_objective(t)(*c.as_tuple()), -t.frame[0])


def _raw_objective(t: Triangle):
    """Unchecked objective over three bare parameters; +inf outside (0,1)^3.

    Used by the searches, which probe outside the feasible cube.  The
    perimeter is that of the frame: times 2^e, see ``Triangle.frame``.
    """
    _, ax, ay, bx, by, cx, cy = t.frame
    ubc_x, ubc_y = cx - bx, cy - by
    uca_x, uca_y = ax - cx, ay - cy
    uab_x, uab_y = bx - ax, by - ay
    hypot = math.hypot

    def f(t1: float, t2: float, t3: float) -> float:
        if not (0.0 < t1 < 1.0 and 0.0 < t2 < 1.0 and 0.0 < t3 < 1.0):
            return math.inf
        px, py = bx + t1 * ubc_x, by + t1 * ubc_y
        qx, qy = cx + t2 * uca_x, cy + t2 * uca_y
        rx, ry = ax + t3 * uab_x, ay + t3 * uab_y
        return hypot(px - qx, py - qy) + hypot(qx - rx, qy - ry) + hypot(rx - px, ry - py)

    return f


def _check_limits(max_iter: int, tol: float) -> None:
    """Both searches' stopping limits: an int ``max_iter`` >= 1 and a
    finite ``tol`` > 0."""
    if not (isinstance(max_iter, int) and max_iter >= 1):
        raise ValueError(f"max_iter must be an int >= 1, got {max_iter!r}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _near_right_warning(margin: float) -> str | None:
    if margin < NEAR_RIGHT_MARGIN:
        return (
            f"parent is within {margin!r} rad of right-angled; the minimum is "
            "ill-conditioned"
        )
    return None


def minimize_grid_then_simplex(
    t: Triangle,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_SIMPLEX_TOL,
) -> MinimizeResult:
    """Nelder-Mead simplex search started at the medial configuration.

    The first vertex is (0.5, 0.5, 0.5), the side midpoints; the other three
    add 1/8 along one axis each.  The perimeter is convex on the cube, so no
    grid search is needed to pick the start: on 1000 random acute triangles
    and 15 near-right ones the medial start reaches the closed-form
    perimeter within 3e-15 relative, as a 16^3 grid start did.  The step
    matters more, because Nelder-Mead can stall even on convex functions
    (McKinnon, SIAM J. Optim. 1998): from this start a step of 1/4 reported
    convergence on sliver triangles with perimeters up to 43% above the
    minimum, and 1/16 left more slivers short of the rounding floor than 1/8
    does.  The name dates from an earlier version that picked the start on a
    coarse grid; it stays because callers and the ``--method grid-simplex``
    option use it.

    Converged means the final simplex diameter in parameter space fell below
    ``tol``.  The returned perimeter never exceeds the medial configuration's
    perimeter.
    """
    margin = require_acute(t).margin
    _check_limits(max_iter, tol)
    f = _raw_objective(t)
    dist = math.dist
    e = t.frame[0]
    # The history holds perimeters mapped back from the frame; ``recorded``
    # is its last entry in the frame.
    recorded = f(0.5, 0.5, 0.5)
    history: list[tuple[int, float]] = [(0, math.ldexp(recorded, -e))]
    # The vertices P0..P3 and their values v0..v3 stay sorted by value, in
    # the order a stable sort gives: P0 is the best vertex, P3 the worst.
    (v0, P0), (v1, P1), (v2, P2), (v3, P3) = sorted(
        (
            (recorded, (0.5, 0.5, 0.5)),
            (f(0.625, 0.5, 0.5), (0.625, 0.5, 0.5)),
            (f(0.5, 0.625, 0.5), (0.5, 0.625, 0.5)),
            (f(0.5, 0.5, 0.625), (0.5, 0.5, 0.625)),
        ),
        key=itemgetter(0),
    )

    iterations = 0
    converged = False
    while iterations < max_iter:
        # The same decision as max(six edge lengths) < tol: best-worst, the
        # edge likeliest to be long, is tested first.
        if (
            dist(P0, P3) < tol
            and dist(P0, P1) < tol
            and dist(P0, P2) < tol
            and dist(P1, P2) < tol
            and dist(P1, P3) < tol
            and dist(P2, P3) < tol
        ):
            converged = True
            break
        iterations += 1

        b0, b1, b2 = P0
        s0, s1, s2 = P1
        h0, h1, h2 = P2
        w0, w1, w2 = P3
        c0 = (b0 + s0 + h0) / 3.0
        c1 = (b1 + s1 + h1) / 3.0
        c2 = (b2 + s2 + h2) / 3.0
        # Reflect the worst vertex through the centroid c of the other three
        # (coefficient 1), expand by 2, contract and shrink by 1/2.
        r0 = c0 + (c0 - w0)
        r1 = c1 + (c1 - w1)
        r2 = c2 + (c2 - w2)
        fr = f(r0, r1, r2)
        if v0 <= fr < v2:
            new, fnew = (r0, r1, r2), fr
        elif fr < v0:
            x0 = c0 + 2.0 * (c0 - w0)
            x1 = c1 + 2.0 * (c1 - w1)
            x2 = c2 + 2.0 * (c2 - w2)
            fe = f(x0, x1, x2)
            if fe < fr:
                new, fnew = (x0, x1, x2), fe
            else:
                new, fnew = (r0, r1, r2), fr
        else:
            if fr < v3:
                x0 = c0 + 0.5 * (r0 - c0)
                x1 = c1 + 0.5 * (r1 - c1)
                x2 = c2 + 0.5 * (r2 - c2)
            else:
                x0 = c0 + 0.5 * (w0 - c0)
                x1 = c1 + 0.5 * (w1 - c1)
                x2 = c2 + 0.5 * (w2 - c2)
            fc = f(x0, x1, x2)
            if fc < fr and fc < v3:
                new, fnew = (x0, x1, x2), fc
            else:
                # Shrink toward the best vertex: the only step that replaces
                # more than one vertex, and the only one that re-sorts.
                new = None
                Q1 = (b0 + 0.5 * (s0 - b0), b1 + 0.5 * (s1 - b1), b2 + 0.5 * (s2 - b2))
                Q2 = (b0 + 0.5 * (h0 - b0), b1 + 0.5 * (h1 - b1), b2 + 0.5 * (h2 - b2))
                Q3 = (b0 + 0.5 * (w0 - b0), b1 + 0.5 * (w1 - b1), b2 + 0.5 * (w2 - b2))
                (v0, P0), (v1, P1), (v2, P2), (v3, P3) = sorted(
                    ((v0, P0), (f(*Q1), Q1), (f(*Q2), Q2), (f(*Q3), Q3)),
                    key=itemgetter(0),
                )
        if new is not None:
            # The worst vertex goes; its replacement lands after the kept
            # vertices of equal value, where a stable sort would put it.
            if fnew < v1:
                if fnew < v0:
                    P0, P1, P2, P3 = new, P0, P1, P2
                    v0, v1, v2, v3 = fnew, v0, v1, v2
                else:
                    P1, P2, P3 = new, P1, P2
                    v1, v2, v3 = fnew, v1, v2
            elif fnew < v2:
                P2, P3 = new, P2
                v2, v3 = fnew, v2
            else:
                P3, v3 = new, fnew
        if v0 < recorded:
            recorded = v0
            history.append((iterations, math.ldexp(recorded, -e)))

    # v0 is f(*P0), the value objective() maps back.
    return MinimizeResult(
        config=InscribedConfig(*P0),
        perimeter=math.ldexp(v0, -e),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        warning=_near_right_warning(margin),
    )


def _best_on_side(qx, qy, ux, uy, uu, px, py, fx, fy) -> float:
    """Parameter on the side q -> q + u minimizing the broken path
    |p - X| + |X - f| over the side line; ``uu`` is u . u.

    Reflects p across the side and intersects the straightened segment with
    it; the result is exactly optimal for this one-dimensional subproblem.
    """
    s = ((px - qx) * ux + (py - qy) * uy) / uu
    mx = 2.0 * (qx + s * ux) - px
    my = 2.0 * (qy + s * uy) - py
    wx, wy = fx - mx, fy - my
    denom = ux * wy - uy * wx
    if denom == 0.0:
        # Straightened chord parallel to the side: every point ties; keep
        # the projection of the chord midpoint.
        return (((mx + fx) / 2.0 - qx) * ux + ((my + fy) / 2.0 - qy) * uy) / uu
    return ((mx - qx) * wy - (my - qy) * wx) / denom


def minimize_reflection_descent(
    t: Triangle,
    start: InscribedConfig,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_DESCENT_TOL,
) -> MinimizeResult:
    """Exact coordinate descent over the three side parameters, with
    depth-1 Anderson extrapolation over the sweeps.

    Each sweep solves the three one-point subproblems in turn by the
    reflection construction: the plain sweep G maps the parameters x to
    g = G(x).  With the previous pair (x', g'), the residuals r = g - x and
    dr = r - (g' - x') give gamma = (r . dr) / (dr . dr) and the candidate
    y = g - gamma * (g - g') (Walker & Ni, SIAM J. Numer. Anal. 2011).  The
    descent continues from y only if dr . dr > 0, y lies inside the clamp
    box [CLAMP_MARGIN, 1 - CLAMP_MARGIN]^3 (it is never clamped), y differs
    from g and f(y) <= f(g); otherwise it continues from g, as plain descent
    would.  Near-right parents, where the plain sweep contracts slowly, need
    tens of sweeps instead of thousands; ``extrapolations`` counts the
    accepted candidates.

    ``iterations`` counts sweeps and ``clamped`` reports that a reflection
    step hit the boundary; the candidate never counts as either.  Converged
    means some plain sweep improved the perimeter by less than
    ``tol * perimeter`` without clamping; the descent then keeps polishing
    while measurable strict progress remains, so the reported parameters
    sit at the rounding floor, not merely at the tolerance.  Only sweeps
    that lowered the perimeter by at least ``tol * perimeter`` are recorded
    in the history, which is therefore strictly decreasing.
    """
    margin = require_acute(t).margin
    _check_limits(max_iter, tol)
    f = _raw_objective(t)
    p0, p1, p2 = start.as_tuple()
    current = f(p0, p1, p2)
    e, ax, ay, bx, by, cx, cy = t.frame
    history: list[tuple[int, float]] = [(0, math.ldexp(current, -e))]
    # Parameter pk picks the frame point q + pk * u on side k: bc from b,
    # ca from c and ab from a; uuk is u . u.
    u0x, u0y = cx - bx, cy - by
    u1x, u1y = ax - cx, ay - cy
    u2x, u2y = bx - ax, by - ay
    uu0 = u0x * u0x + u0y * u0y
    uu1 = u1x * u1x + u1y * u1y
    uu2 = u2x * u2x + u2y * u2y
    lo, hi = CLAMP_MARGIN, 1.0 - CLAMP_MARGIN
    ever_clamped = False
    converged = False
    decided = False
    iterations = 0
    extrapolations = 0
    # The previous sweep's plain result g' and residual g' - x'.
    prev_g0 = prev_g1 = prev_g2 = 0.0
    prev_r0 = prev_r1 = prev_r2 = 0.0
    for sweep in range(1, max_iter + 1):
        iterations = sweep
        x0, x1, x2 = p0, p1, p2
        sweep_clamped = False
        # Each side's best point between the points on the other two sides,
        # the later sides seeing the earlier sides' new points.
        p0 = _best_on_side(
            bx, by, u0x, u0y, uu0, cx + p1 * u1x, cy + p1 * u1y, ax + p2 * u2x, ay + p2 * u2y
        )
        if not (lo <= p0 <= hi):
            p0 = min(max(p0, lo), hi)
            sweep_clamped = True
        p1 = _best_on_side(
            cx, cy, u1x, u1y, uu1, ax + p2 * u2x, ay + p2 * u2y, bx + p0 * u0x, by + p0 * u0y
        )
        if not (lo <= p1 <= hi):
            p1 = min(max(p1, lo), hi)
            sweep_clamped = True
        p2 = _best_on_side(
            ax, ay, u2x, u2y, uu2, bx + p0 * u0x, by + p0 * u0y, cx + p1 * u1x, cy + p1 * u1y
        )
        if not (lo <= p2 <= hi):
            p2 = min(max(p2, lo), hi)
            sweep_clamped = True
        if sweep_clamped:
            ever_clamped = True
        new = f(p0, p1, p2)
        if new > current:
            # Rounding noise at the attractor; drop the sweep so the history
            # and the reported config stay monotone.
            p0, p1, p2 = x0, x1, x2
            if not decided:
                converged, decided = not sweep_clamped, True
            break
        improved = current - new
        g0, g1, g2 = p0, p1, p2
        r0, r1, r2 = g0 - x0, g1 - x1, g2 - x2
        stationary = improved < tol * new or improved == 0.0
        if sweep > 1:
            # Every earlier sweep ran to its end and left its pair (g', r').
            d0, d1, d2 = r0 - prev_r0, r1 - prev_r1, r2 - prev_r2
            dd = d0 * d0 + d1 * d1 + d2 * d2
            if dd > 0.0:
                gamma = (r0 * d0 + r1 * d1 + r2 * d2) / dd
                e0 = g0 - gamma * (g0 - prev_g0)
                e1 = g1 - gamma * (g1 - prev_g1)
                e2 = g2 - gamma * (g2 - prev_g2)
                if lo <= e0 <= hi and lo <= e1 <= hi and lo <= e2 <= hi:
                    fe = f(e0, e1, e2)
                    # A tie is accepted: at the rounding floor the perimeter
                    # cannot order the two points, and the extrapolated one
                    # is the better estimate of the fixed point.
                    if fe <= new and (e0 != g0 or e1 != g1 or e2 != g2):
                        p0, p1, p2 = e0, e1, e2
                        new = fe
                        extrapolations += 1
        prev_g0, prev_g1, prev_g2 = g0, g1, g2
        prev_r0, prev_r1, prev_r2 = r0, r1, r2
        step = current - new
        current = new
        if step >= tol * current:
            history.append((sweep, math.ldexp(new, -e)))
        if stationary and not decided:
            # Sub-tolerance plain sweep without clamping: stationary (a
            # zero gain counts even where tol * new underflows to 0).
            # Clamped and stuck instead: pinned to the boundary, not a
            # minimum.
            converged, decided = not sweep_clamped, True
        if improved == 0.0:
            break
    # current is f(p0, p1, p2), the value objective() maps back.
    return MinimizeResult(
        config=InscribedConfig(p0, p1, p2),
        perimeter=math.ldexp(current, -e),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        clamped=ever_clamped,
        warning=_near_right_warning(margin),
        extrapolations=extrapolations,
    )


def min_perimeter_closed_form(t: Triangle) -> float:
    """The known answer: the orthic triangle's perimeter, measured on the
    frame feet (``orthic_triangle(t).perimeter``, bit for bit)."""
    return math.ldexp(_perimeter(*_feet(t)), -t.frame[0])
