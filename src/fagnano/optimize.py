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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .geometry import (
    GeometryError,
    Point,
    Triangle,
    _unframed,
    orthic_triangle,
    projection_param,
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


@dataclass(frozen=True)
class InscribedConfig:
    """Side parameters selecting one interior point per side.

    ``t_on_bc`` picks b + t*(c-b), ``t_on_ca`` picks c + t*(a-c) and
    ``t_on_ab`` picks a + t*(b-a).  All three live strictly inside (0, 1):
    a vertex sitting on a corner degenerates the inscribed triangle.
    """

    t_on_bc: float
    t_on_ca: float
    t_on_ab: float

    def __post_init__(self):
        for name, value in (
            ("t_on_bc", self.t_on_bc),
            ("t_on_ca", self.t_on_ca),
            ("t_on_ab", self.t_on_ab),
        ):
            if not (0.0 < value < 1.0):
                raise InvalidConfigError(f"{name}={value} outside the open interval (0, 1)")

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


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of one minimization run.

    ``history`` holds (iteration, perimeter) pairs, starting with the initial
    evaluation; for the reflection-descent method it is strictly decreasing.
    ``clamped`` reports that some descent step had to be pulled back into the
    open cube; ``warning`` flags ill-conditioned near-right parents.
    ``extrapolations`` counts the accepted extrapolated descent steps (always
    0 for the simplex search); it is not part of the CLI's JSON.
    """

    config: InscribedConfig
    perimeter: float
    iterations: int
    converged: bool
    history: tuple[tuple[int, float], ...]
    clamped: bool = False
    warning: str | None = None
    extrapolations: int = 0


def objective(t: Triangle, c: InscribedConfig) -> float:
    """Perimeter of the inscribed triangle selected by ``c``: the
    perimeter of ``c.points(t)``, computed as the searches compute it."""
    require_acute(t)
    return math.ldexp(_raw_objective(t)(c.as_tuple()), -t.frame[0])


def _raw_objective(t: Triangle):
    """Unchecked objective over bare parameter triples; +inf outside (0,1)^3.

    Used by the searches, which probe outside the feasible cube.  The
    perimeter is that of the frame: times 2^e, see ``Triangle.frame``.
    """
    _, ax, ay, bx, by, cx, cy = t.frame
    ubc_x, ubc_y = cx - bx, cy - by
    uca_x, uca_y = ax - cx, ay - cy
    uab_x, uab_y = bx - ax, by - ay
    hypot = math.hypot

    def f(params: tuple[float, float, float]) -> float:
        t1, t2, t3 = params
        if not (0.0 < t1 < 1.0 and 0.0 < t2 < 1.0 and 0.0 < t3 < 1.0):
            return math.inf
        px, py = bx + t1 * ubc_x, by + t1 * ubc_y
        qx, qy = cx + t2 * uca_x, cy + t2 * uca_y
        rx, ry = ax + t3 * uab_x, ay + t3 * uab_y
        return hypot(px - qx, py - qy) + hypot(qx - rx, qy - ry) + hypot(rx - px, ry - py)

    return f


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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    f = _raw_objective(t)
    dist = math.dist

    simplex = [
        (0.5, 0.5, 0.5),
        (0.625, 0.5, 0.5),
        (0.5, 0.625, 0.5),
        (0.5, 0.5, 0.625),
    ]
    values = [f(x) for x in simplex]
    # The history holds perimeters mapped back from the frame; ``recorded``
    # is its last entry in the frame.
    e, recorded = t.frame[0], values[0]
    history: list[tuple[int, float]] = [(0, math.ldexp(recorded, -e))]
    # The simplex stays sorted by value, in the order a stable sort gives.
    order = sorted(range(4), key=values.__getitem__)
    simplex = [simplex[i] for i in order]
    values = [values[i] for i in order]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    iterations = 0
    converged = False
    while iterations < max_iter:
        best, second, third, worst = simplex
        # The same decision as max(six edge lengths) < tol: best-worst, the
        # edge likeliest to be long, is tested first.
        if (
            dist(best, worst) < tol
            and dist(best, second) < tol
            and dist(best, third) < tol
            and dist(second, third) < tol
            and dist(second, worst) < tol
            and dist(third, worst) < tol
        ):
            converged = True
            break
        iterations += 1

        v0, _, v2, v3 = values
        b0, b1, b2 = best
        s0, s1, s2 = second
        h0, h1, h2 = third
        w0, w1, w2 = worst
        c0 = (b0 + s0 + h0) / 3.0
        c1 = (b1 + s1 + h1) / 3.0
        c2 = (b2 + s2 + h2) / 3.0
        reflected = (
            c0 + alpha * (c0 - w0),
            c1 + alpha * (c1 - w1),
            c2 + alpha * (c2 - w2),
        )
        fr = f(reflected)
        if v0 <= fr < v2:
            new, fnew = reflected, fr
        elif fr < v0:
            expanded = (
                c0 + gamma * (c0 - w0),
                c1 + gamma * (c1 - w1),
                c2 + gamma * (c2 - w2),
            )
            fe = f(expanded)
            if fe < fr:
                new, fnew = expanded, fe
            else:
                new, fnew = reflected, fr
        else:
            if fr < v3:
                r0, r1, r2 = reflected
                contracted = (
                    c0 + rho * (r0 - c0),
                    c1 + rho * (r1 - c1),
                    c2 + rho * (r2 - c2),
                )
            else:
                contracted = (
                    c0 + rho * (w0 - c0),
                    c1 + rho * (w1 - c1),
                    c2 + rho * (w2 - c2),
                )
            fc = f(contracted)
            if fc < min(fr, v3):
                new, fnew = contracted, fc
            else:
                new = None
                simplex = [
                    best,
                    (b0 + sigma * (s0 - b0), b1 + sigma * (s1 - b1), b2 + sigma * (s2 - b2)),
                    (b0 + sigma * (h0 - b0), b1 + sigma * (h1 - b1), b2 + sigma * (h2 - b2)),
                    (b0 + sigma * (w0 - b0), b1 + sigma * (w1 - b1), b2 + sigma * (w2 - b2)),
                ]
                values = [v0, f(simplex[1]), f(simplex[2]), f(simplex[3])]
                # Only a shrink replaces more than one vertex and re-sorts.
                order = sorted(range(4), key=values.__getitem__)
                simplex = [simplex[i] for i in order]
                values = [values[i] for i in order]
        if new is not None:
            # The worst vertex goes; its replacement lands after the kept
            # vertices of equal value, where a stable sort would put it.
            k = bisect_right(values, fnew, 0, 3)
            del simplex[3], values[3]
            simplex.insert(k, new)
            values.insert(k, fnew)
        if values[0] < recorded:
            recorded = values[0]
            history.append((iterations, math.ldexp(recorded, -e)))

    # values[0] is f(simplex[0]), the value objective() maps back.
    return MinimizeResult(
        config=InscribedConfig(*simplex[0]),
        perimeter=math.ldexp(values[0], -e),
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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    f = _raw_objective(t)
    params = list(start.as_tuple())
    current = f(tuple(params))
    e, ax, ay, bx, by, cx, cy = t.frame
    history: list[tuple[int, float]] = [(0, math.ldexp(current, -e))]
    # Sides bc, ca and ab as (q.x, q.y, u.x, u.y, u . u) for the frame
    # points q + s * u; side k carries parameter k.
    sides = []
    for qx, qy, rx, ry in ((bx, by, cx, cy), (cx, cy, ax, ay), (ax, ay, bx, by)):
        ux, uy = rx - qx, ry - qy
        sides.append((qx, qy, ux, uy, ux * ux + uy * uy))
    lo, hi = CLAMP_MARGIN, 1.0 - CLAMP_MARGIN
    ever_clamped = False
    converged = False
    decided = False
    iterations = 0
    extrapolations = 0
    # The previous sweep's plain result g' and residual g' - x'.
    prev_g = None
    prev_r0 = prev_r1 = prev_r2 = 0.0
    for sweep in range(1, max_iter + 1):
        iterations = sweep
        old_params = list(params)
        sweep_clamped = False
        for axis in range(3):
            k1, k2 = (axis + 1) % 3, (axis + 2) % 3
            qx, qy, ux, uy, _ = sides[k1]
            s = params[k1]
            px, py = qx + s * ux, qy + s * uy
            qx, qy, ux, uy, _ = sides[k2]
            s = params[k2]
            fx, fy = qx + s * ux, qy + s * uy
            t_new = _best_on_side(*sides[axis], px, py, fx, fy)
            if not (lo <= t_new <= hi):
                t_new = min(max(t_new, lo), hi)
                sweep_clamped = True
                ever_clamped = True
            params[axis] = t_new
        new = f(tuple(params))
        if new > current:
            # Rounding noise at the attractor; drop the sweep so the history
            # and the reported config stay monotone.
            params = old_params
            if not decided:
                converged, decided = not sweep_clamped, True
            break
        improved = current - new
        g0, g1, g2 = params
        r0, r1, r2 = g0 - old_params[0], g1 - old_params[1], g2 - old_params[2]
        moved = max(abs(r0), abs(r1), abs(r2))
        stationary = improved < tol * new
        if prev_g is not None:
            d0, d1, d2 = r0 - prev_r0, r1 - prev_r1, r2 - prev_r2
            dd = d0 * d0 + d1 * d1 + d2 * d2
            if dd > 0.0:
                gamma = (r0 * d0 + r1 * d1 + r2 * d2) / dd
                e0 = g0 - gamma * (g0 - prev_g[0])
                e1 = g1 - gamma * (g1 - prev_g[1])
                e2 = g2 - gamma * (g2 - prev_g[2])
                if lo <= e0 <= hi and lo <= e1 <= hi and lo <= e2 <= hi:
                    fe = f((e0, e1, e2))
                    # A tie is accepted: at the rounding floor the perimeter
                    # cannot order the two points, and the extrapolated one
                    # is the better estimate of the fixed point.
                    if fe <= new and (e0, e1, e2) != (g0, g1, g2):
                        params = [e0, e1, e2]
                        new = fe
                        extrapolations += 1
        prev_g = (g0, g1, g2)
        prev_r0, prev_r1, prev_r2 = r0, r1, r2
        step = current - new
        current = new
        if step >= tol * current:
            history.append((sweep, math.ldexp(new, -e)))
        if stationary and not decided:
            # Sub-tolerance plain sweep without clamping: stationary.
            # Clamped and stuck instead: pinned to the boundary, not a
            # minimum.
            converged, decided = not sweep_clamped, True
        if improved == 0.0 or moved == 0.0:
            if not decided:
                converged, decided = not sweep_clamped, True
            break
    # current is f(params), the value objective() maps back.
    return MinimizeResult(
        config=InscribedConfig(*params),
        perimeter=math.ldexp(current, -e),
        iterations=iterations,
        converged=converged,
        history=tuple(history),
        clamped=ever_clamped,
        warning=_near_right_warning(margin),
        extrapolations=extrapolations,
    )


def min_perimeter_closed_form(t: Triangle) -> float:
    """The known answer: the orthic triangle's perimeter, via coordinates."""
    return orthic_triangle(t).perimeter


def orthic_config(t: Triangle) -> InscribedConfig:
    """Side parameters of the altitude feet (the closed-form optimizer seat):
    each vertex's projection parameter on the opposite side, in the frame."""
    require_acute(t)
    _, ax, ay, bx, by, cx, cy = t.frame
    return InscribedConfig(
        t_on_bc=projection_param(ax, ay, bx, by, cx, cy),
        t_on_ca=projection_param(bx, by, cx, cy, ax, ay),
        t_on_ab=projection_param(cx, cy, ax, ay, bx, by),
    )
