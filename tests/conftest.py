"""Shared fixtures: canonical triangles, random shape sampling, strategies."""

import math
import random

import pytest
from hypothesis import assume, settings, strategies as st

from fagnano.geometry import Point, Triangle, _incenter, _orthocenter, _unframed
from fagnano.optimize import InscribedConfig

settings.register_profile("numeric", deadline=None)
settings.load_profile("numeric")

# Shape-space sampling keeps every angle this far from 0 and pi/2: residual
# bounds in the 1e-9 range assume the orthic triangle does not collapse.
ACUTE_MARGIN = 0.01


def sample_acute_angles(rng: random.Random, margin: float = ACUTE_MARGIN):
    while True:
        alpha = rng.uniform(margin, math.pi / 2 - margin)
        beta = rng.uniform(margin, math.pi / 2 - margin)
        gamma = math.pi - alpha - beta
        if margin <= gamma <= math.pi / 2 - margin:
            return alpha, beta


def random_acute_triangle(rng: random.Random, margin: float = ACUTE_MARGIN) -> Triangle:
    alpha, beta = sample_acute_angles(rng, margin)
    return Triangle.from_angles(alpha, beta)


@st.composite
def acute_angle_pairs(draw, margin: float = 0.05):
    alpha = draw(st.floats(min_value=margin, max_value=math.pi / 2 - margin))
    beta = draw(st.floats(min_value=margin, max_value=math.pi / 2 - margin))
    gamma = math.pi - alpha - beta
    assume(margin <= gamma <= math.pi / 2 - margin)
    return alpha, beta


@st.composite
def acute_triangles(draw, margin: float = 0.05):
    alpha, beta = draw(acute_angle_pairs(margin=margin))
    return Triangle.from_angles(alpha, beta)


def similarity(t: Triangle, scale: float, angle: float, dx: float, dy: float) -> Triangle:
    """Rotate, scale and translate (direct isometry times a dilation)."""
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def move(p: Point) -> Point:
        return Point(
            scale * (p.x * cos_a - p.y * sin_a) + dx,
            scale * (p.x * sin_a + p.y * cos_a) + dy,
        )

    return Triangle(move(t.a), move(t.b), move(t.c))


def scaled(t: Triangle, k: int) -> Triangle:
    """t with every coordinate times 2^k, which is exact."""
    return Triangle(*(Point(math.ldexp(p.x, k), math.ldexp(p.y, k)) for p in t.vertices))


def orthocenter(t: Triangle) -> Point:
    """Common point of the three altitudes of t, from the library's frame kernel."""
    return _unframed(t.frame[0], *_orthocenter(*t.frame[1:]))


def incenter(t: Triangle) -> Point:
    """Center of the inscribed circle of t, from the library's frame kernel."""
    return _unframed(t.frame[0], *_incenter(*t.frame[1:]))


def projection(px: float, py: float, qx: float, qy: float, rx: float, ry: float) -> float:
    """Parameter s of the orthogonal projection of p onto the line
    q + s*(r - q): the tests' reference for the library's feet."""
    dx, dy = rx - qx, ry - qy
    return ((px - qx) * dx + (py - qy) * dy) / (dx * dx + dy * dy)


def orthic_config(t: Triangle) -> InscribedConfig:
    """Side parameters of the altitude feet: each vertex's projection
    parameter on the opposite side, in the frame."""
    _, ax, ay, bx, by, cx, cy = t.frame
    return InscribedConfig(
        t_on_bc=projection(ax, ay, bx, by, cx, cy),
        t_on_ca=projection(bx, by, cx, cy, ax, ay),
        t_on_ab=projection(cx, cy, ax, ay, bx, by),
    )


def verdict_fields_oracle(p, o, tol_angle):
    """The verdict's seven fields, in TheoremVerdict order, by the list
    comprehensions and lambda of the library's first verdict: a reference
    for ``theorem._verdict_core``'s unrolled tests."""
    half_pi, quarter_pi = math.pi / 2.0, math.pi / 4.0
    right_candidates = [i for i in range(3) if abs(o[i] - half_pi) <= tol_angle]
    orthic_is_right = bool(right_candidates)
    right_vertex = (
        min(right_candidates, key=lambda i: abs(o[i] - half_pi))
        if right_candidates
        else None
    )

    quarter_candidates = [
        i for i in range(3) if abs(p[i] - quarter_pi) <= tol_angle / 2.0
    ]
    has_quarter_pi = bool(quarter_candidates)
    quarter_pi_unique = len(quarter_candidates) == 1
    quarter_pi_vertex = quarter_candidates[0] if quarter_candidates else None

    biconditional_holds = orthic_is_right == (has_quarter_pi and quarter_pi_unique)
    if orthic_is_right and has_quarter_pi and quarter_pi_unique:
        pairing_holds = right_vertex == quarter_pi_vertex
    else:
        pairing_holds = None
    return (
        orthic_is_right,
        right_vertex,
        has_quarter_pi,
        quarter_pi_vertex,
        quarter_pi_unique,
        pairing_holds,
        biconditional_holds,
    )


def check_pin_tables(data, pins):
    """Assert that the tables of the pin file ``data`` match its registry
    ``pins``, name -> (keys, value), one to one, each holding its keys in order."""
    assert [name for name in vars(data) if name.isupper()] == list(pins)
    for name, (keys, _) in pins.items():
        assert list(getattr(data, name)) == list(keys), name


def check_pins(data, pins, *names, keys=None):
    """Assert that each named table of ``data`` holds, for each key (all of
    them by default), the entry ``pins[name]`` computes, naming the key."""
    for name in names:
        table_keys, value = pins[name]
        for key in table_keys if keys is None else keys:
            assert value(key) == getattr(data, name)[key], (name, key)


def pin_test(data, pins, *names):
    """A test of the named tables of ``data`` by check_pins."""
    return lambda: check_pins(data, pins, *names)


@pytest.fixture
def equilateral() -> Triangle:
    return Triangle(Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, math.sqrt(3.0) / 2.0))


@pytest.fixture
def golden_bfc() -> Triangle:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return Triangle(Point(1.0, 0.0), Point(0.0, 1.0), Point(1.0, phi))
