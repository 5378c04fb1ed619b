import hashlib
import io
import math
import random
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import optimize_bits
from conftest import (
    acute_triangles,
    check_pin_tables,
    orthic_config,
    pin_test,
    random_acute_triangle,
    sample_acute_angles,
    scaled,
)
from fagnano import cli
from fagnano.geometry import (
    NotAcuteError,
    Point,
    Triangle,
    dist,
    orthic_triangle,
)
from fagnano.optimize import (
    DEFAULT_MAX_ITER,
    InscribedConfig,
    InvalidConfigError,
    _best_on_side,
    min_perimeter_closed_form,
    minimize_grid_then_simplex,
    minimize_reflection_descent,
    objective,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def params_to_points(t, params):
    t1, t2, t3 = params
    return (
        Point(t.b.x + t1 * (t.c.x - t.b.x), t.b.y + t1 * (t.c.y - t.b.y)),
        Point(t.c.x + t2 * (t.a.x - t.c.x), t.c.y + t2 * (t.a.y - t.c.y)),
        Point(t.a.x + t3 * (t.b.x - t.a.x), t.a.y + t3 * (t.b.y - t.a.y)),
    )


# ------------------------------------------------------------------ objective


def test_objective_medial_equilateral(equilateral):
    assert objective(equilateral, InscribedConfig(0.5, 0.5, 0.5)) == pytest.approx(
        1.5, abs=1e-12
    )


def test_objective_quarter_points(equilateral):
    # direct coordinate evaluation as the oracle, plus the law-of-cosines
    # closed form for the same three congruent chords
    c = InscribedConfig(0.25, 0.25, 0.25)
    pts = params_to_points(equilateral, c.as_tuple())
    expected = sum(
        dist(pts[i], pts[(i + 1) % 3]) for i in range(3)
    )
    value = objective(equilateral, c)
    assert value == pytest.approx(expected, abs=1e-14)
    chord = 3.0 * math.sqrt(
        0.25**2 + 0.75**2 - 2.0 * 0.25 * 0.75 * math.cos(math.pi / 3.0)
    )
    assert value == pytest.approx(chord, abs=1e-12)
    assert value == pytest.approx(1.9843134832984428, abs=1e-12)
    assert value > 1.5  # worse than the optimum


def test_objective_at_orthic_params_is_orthic_perimeter(golden_bfc):
    config = orthic_config(golden_bfc)
    assert objective(golden_bfc, config) == pytest.approx(
        orthic_triangle(golden_bfc).perimeter, abs=1e-12
    )


def test_objective_preconditions():
    right = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    with pytest.raises(NotAcuteError):
        objective(right, InscribedConfig(0.5, 0.5, 0.5))
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(InvalidConfigError):
            InscribedConfig(bad, 0.5, 0.5)


# ----------------------------------------------------------- grid then simplex


def test_grid_simplex_equilateral(equilateral):
    result = minimize_grid_then_simplex(equilateral)
    assert result.converged
    assert result.extrapolations == 0
    assert result.perimeter == pytest.approx(1.5, abs=1e-9)
    for value in result.config.as_tuple():
        assert value == pytest.approx(0.5, abs=1e-6)


def test_grid_simplex_golden_matches_closed_forms(golden_bfc):
    result = minimize_grid_then_simplex(golden_bfc)
    ge = math.sqrt((1.0 + PHI**2) / (2.0 * PHI**2))
    expected = (1.0 + 2.0 + math.sqrt(5.0)) * math.sqrt(ge**2 / 5.0)
    assert result.perimeter == pytest.approx(expected, rel=1e-9)
    assert result.perimeter == pytest.approx(
        min_perimeter_closed_form(golden_bfc), rel=1e-9
    )


def test_grid_simplex_never_worse_than_grid(golden_bfc):
    result = minimize_grid_then_simplex(golden_bfc)
    # independent evaluation of a coarse grid
    ts = [(i + 0.5) / 8 for i in range(8)]
    best = math.inf
    for t1 in ts:
        for t2 in ts:
            for t3 in ts:
                pts = params_to_points(golden_bfc, (t1, t2, t3))
                best = min(
                    best, sum(dist(pts[i], pts[(i + 1) % 3]) for i in range(3))
                )
    assert result.perimeter <= best + 1e-15


def test_grid_simplex_random_against_oracle():
    rng = random.Random(7)
    for _ in range(25):
        t = random_acute_triangle(rng)
        result = minimize_grid_then_simplex(t)
        assert result.converged
        closed = min_perimeter_closed_form(t)
        assert abs(result.perimeter - closed) / closed <= 1e-6


def test_grid_simplex_validation(equilateral):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            minimize_grid_then_simplex(equilateral, tol=bad)
    with pytest.raises(NotAcuteError):
        minimize_grid_then_simplex(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))


def test_grid_simplex_non_convergence_flag(golden_bfc):
    result = minimize_grid_then_simplex(golden_bfc, max_iter=2)
    assert not result.converged
    assert result.iterations == 2


def test_result_perimeter_equals_objective(golden_bfc):
    for result in (
        minimize_grid_then_simplex(golden_bfc),
        minimize_reflection_descent(golden_bfc, InscribedConfig(0.4, 0.4, 0.4)),
    ):
        assert result.perimeter == pytest.approx(
            objective(golden_bfc, result.config), abs=1e-12
        )


def test_objective_is_the_reported_perimeter_bit_for_bit():
    # objective() and both searches evaluate one perimeter formula, so the
    # perimeter a search reports is objective() of its config, to the bit.
    rng = random.Random(1608)
    for _ in range(20):
        t = random_acute_triangle(rng)
        start = InscribedConfig(*(rng.uniform(0.05, 0.95) for _ in range(3)))
        for result in (minimize_grid_then_simplex(t), minimize_reflection_descent(t, start)):
            assert objective(t, result.config).hex() == result.perimeter.hex()


# ---------------------------------------------------------- reflection descent


def test_reflection_equilateral_converges_to_medial(equilateral):
    result = minimize_reflection_descent(equilateral, InscribedConfig(0.3, 0.6, 0.45))
    assert result.converged
    assert result.perimeter == pytest.approx(1.5, abs=1e-12)
    for value in result.config.as_tuple():
        assert value == pytest.approx(0.5, abs=1e-8)


def test_reflection_golden_finds_orthic_parameters(golden_bfc):
    result = minimize_reflection_descent(golden_bfc, InscribedConfig(0.5, 0.5, 0.5))
    assert result.converged
    target = orthic_config(golden_bfc)
    for got, want in zip(result.config.as_tuple(), target.as_tuple()):
        assert got == pytest.approx(want, abs=1e-8)


def test_reflection_orthic_start_is_fixed_point(golden_bfc):
    result = minimize_reflection_descent(golden_bfc, orthic_config(golden_bfc))
    assert result.converged
    assert len(result.history) == 1  # nothing recorded beyond the first evaluation
    assert result.history[0][0] == 0


def test_reflection_fixed_point_any_acute():
    rng = random.Random(41)
    for _ in range(10):
        t = random_acute_triangle(rng)
        result = minimize_reflection_descent(t, orthic_config(t))
        assert result.converged
        assert len(result.history) == 1


# Frozen from a randomized search: a start hugging the corner forces a
# clamped step, after which the descent still reaches the optimum.
CLAMP_RECOVERY_SHAPE = (0.770835391360292, 0.8103794669074901)
CLAMP_RECOVERY_START = (1.1651413508404745e-08,) * 3
# A near-right shape whose start clamps side ca, the middle step of a sweep.
CLAMP_CA_SHAPE = (1.4699710063348028, 1.4998947074550086)
CLAMP_CA_START = (0.99999999, 0.9996199307711273, 1e-08)


def test_reflection_clamp_recovery():
    for shape, start in (
        (CLAMP_RECOVERY_SHAPE, CLAMP_RECOVERY_START), (CLAMP_CA_SHAPE, CLAMP_CA_START)
    ):
        t = Triangle.from_angles(*shape)
        result = minimize_reflection_descent(t, InscribedConfig(*start))
        assert result.clamped
        assert result.converged
        closed = min_perimeter_closed_form(t)
        assert abs(result.perimeter - closed) / closed <= 1e-9


def test_best_on_side_parallel_chord():
    # Side q = (0, 0), u = (1, 0): p = (0, 1) reflects to (0, -1), level
    # with f = (2, -1), so the straightened chord runs parallel to the side
    # and every point ties; the chord midpoint (1, -1) projects to 1.0.
    assert _best_on_side(0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2.0, -1.0) == 1.0


def test_reflection_validation(equilateral):
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            minimize_reflection_descent(equilateral, InscribedConfig(0.5, 0.5, 0.5), tol=bad)
    with pytest.raises(NotAcuteError):
        minimize_reflection_descent(
            Triangle(Point(0, 0), Point(1, 0), Point(0, 1)),
            InscribedConfig(0.5, 0.5, 0.5),
        )


@pytest.mark.parametrize("bad", (0, -5, 2.5))
def test_max_iter_must_be_an_int_of_at_least_one(equilateral, bad):
    # One rule for both searches, the CLI's --max-iter rule, so no limit
    # below 1 reads as a non-convergence and no fraction is rounded up.
    with pytest.raises(ValueError, match=r"max_iter must be an int >= 1, got"):
        minimize_grid_then_simplex(equilateral, max_iter=bad)
    with pytest.raises(ValueError, match=r"max_iter must be an int >= 1, got"):
        minimize_reflection_descent(equilateral, InscribedConfig(0.5, 0.5, 0.5), max_iter=bad)


def test_reflection_max_iter_exhaustion(golden_bfc):
    result = minimize_reflection_descent(golden_bfc, InscribedConfig(0.5, 0.5, 0.5), max_iter=1)
    assert not result.converged
    assert result.iterations == 1


@settings(max_examples=40)
@given(
    acute_triangles(margin=0.02),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_reflection_history_monotone_and_agrees_with_oracle(t, p1, p2, p3):
    result = minimize_reflection_descent(t, InscribedConfig(p1, p2, p3))
    values = [p for _, p in result.history]
    assert all(later < earlier for earlier, later in zip(values, values[1:]))
    closed = min_perimeter_closed_form(t)
    assert abs(result.perimeter - closed) / closed <= 1e-9


# (m, beta, start) grid of near-right parents from_angles(pi/2 - m, beta):
# plain coordinate descent needed 2 000 sweeps at m = 1e-3 and ran out of
# its 10 000 below that; with extrapolation the worst case takes 44.
NEAR_RIGHT_MS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
NEAR_RIGHT_BETAS = (0.1, math.pi / 4, 1.3)
NEAR_RIGHT_STARTS = ((0.3, 0.3, 0.3), (0.05, 0.9, 0.1), (0.9, 0.9, 0.9), (0.5, 0.2, 0.7))


@pytest.mark.parametrize("beta", NEAR_RIGHT_BETAS)
@pytest.mark.parametrize("m", NEAR_RIGHT_MS)
def test_reflection_near_right_converges_in_few_sweeps(m, beta):
    t = Triangle.from_angles(math.pi / 2 - m, beta)
    closed = min_perimeter_closed_form(t)
    feet = orthic_triangle(t).feet
    for start in NEAR_RIGHT_STARTS:
        result = minimize_reflection_descent(t, InscribedConfig(*start))
        assert result.converged and not result.clamped, start
        assert result.iterations <= 100, start
        # Fails if a change silently stops accepting extrapolated steps.
        assert result.extrapolations > 0, start
        values = [p for _, p in result.history]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert abs(result.perimeter - closed) / closed <= 1e-9, start
        located = result.config.points(t)
        offset = max(dist(p, f) for p, f in zip(located, feet)) / t.diameter()
        assert offset <= 1e-4, start


@pytest.mark.parametrize("beta", NEAR_RIGHT_BETAS)
@pytest.mark.parametrize("m", NEAR_RIGHT_MS)
def test_grid_simplex_near_right_converges(m, beta):
    t = Triangle.from_angles(math.pi / 2 - m, beta)
    closed = min_perimeter_closed_form(t)
    result = minimize_grid_then_simplex(t)
    assert result.converged
    assert abs(result.perimeter - closed) / closed <= 1e-9
    located = result.config.points(t)
    feet = orthic_triangle(t).feet
    assert max(dist(p, f) for p, f in zip(located, feet)) / t.diameter() <= 1e-4


def sliver_triangles(count, seed):
    """Acute triangles whose smallest angle is log-uniform in [1e-4, 0.02].

    The other two angles both lie within that angle of pi/2, so a sliver is
    near-right too; its margin is 0.1 to 0.5 times the smallest angle.
    """
    rng = random.Random(seed)
    shapes = []
    for _ in range(count):
        smallest = math.exp(rng.uniform(math.log(1e-4), math.log(0.02)))
        shapes.append(
            Triangle.from_angles(smallest, math.pi / 2 - smallest * rng.uniform(0.1, 0.9))
        )
    return shapes


def test_grid_simplex_converges_on_slivers():
    # The simplex start step decides these: from the medial start a step of
    # 1/4 instead of 1/8 reports convergence up to 43% above the minimum.
    for t in sliver_triangles(200, 20161001):
        result = minimize_grid_then_simplex(t)
        assert result.converged, t
        closed = min_perimeter_closed_form(t)
        assert abs(result.perimeter - closed) / closed <= 1e-6, t


def test_reflection_single_step_is_locally_optimal(golden_bfc):
    # after one sweep, wiggling any single parameter cannot improve it given
    # the other two stay put (exactness of the unfolding step)
    result = minimize_reflection_descent(golden_bfc, InscribedConfig(0.4, 0.7, 0.3), max_iter=1)
    base = result.config.as_tuple()
    value = objective(golden_bfc, result.config)
    # only the last-updated axis is guaranteed optimal mid-descent; at the
    # orthic fixed point all three are, tested below
    t3 = base[2]
    for delta in (-1e-6, 1e-6):
        shifted = InscribedConfig(base[0], base[1], t3 + delta)
        assert objective(golden_bfc, shifted) >= value


def test_stationarity_of_orthic_configuration():
    rng = random.Random(99)
    for _ in range(20):
        t = random_acute_triangle(rng)
        config = orthic_config(t)
        base = objective(t, config)
        values = config.as_tuple()
        for axis in range(3):
            for delta in (-1e-4, 1e-4):
                perturbed = list(values)
                perturbed[axis] += delta
                assert objective(t, InscribedConfig(*perturbed)) > base


def test_scale_equivariance():
    rng = random.Random(5)
    for _ in range(10):
        t = random_acute_triangle(rng)
        s = rng.uniform(0.2, 8.0)
        scaled = Triangle(
            Point(s * t.a.x, s * t.a.y),
            Point(s * t.b.x, s * t.b.y),
            Point(s * t.c.x, s * t.c.y),
        )
        r1 = minimize_grid_then_simplex(t)
        r2 = minimize_grid_then_simplex(scaled)
        for u, v in zip(r1.config.as_tuple(), r2.config.as_tuple()):
            assert u == pytest.approx(v, abs=1e-6)
        assert r2.perimeter == pytest.approx(s * r1.perimeter, rel=1e-9)


# ------------------------------------------------------------- closed form


def test_closed_form_equilateral(equilateral):
    assert min_perimeter_closed_form(equilateral) == pytest.approx(1.5, abs=1e-12)


def test_closed_form_golden(golden_bfc):
    ge = math.sqrt((1.0 + PHI**2) / (2.0 * PHI**2))
    expected = (1.0 + 2.0 + math.sqrt(5.0)) * ge / math.sqrt(5.0)
    assert min_perimeter_closed_form(golden_bfc) == pytest.approx(expected, abs=1e-12)


def test_closed_form_matches_simplex_on_known_shape():
    t = Triangle.from_angles(math.pi / 4, math.pi / 3)
    result = minimize_grid_then_simplex(t)
    closed = min_perimeter_closed_form(t)
    assert abs(result.perimeter - closed) / closed <= 1e-6


def test_closed_form_rejects_non_acute():
    with pytest.raises(NotAcuteError):
        min_perimeter_closed_form(Triangle(Point(0, 0), Point(1, 0), Point(0, 1)))


def test_closed_form_is_the_orthic_perimeter_bit_for_bit():
    # The closed form measures the frame feet and maps only their perimeter
    # back: the float orthic_triangle(t).perimeter gives, at every scale, and
    # the same NotAcuteError where t is right or obtuse.
    rng = random.Random(20161016)
    right = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    obtuse = Triangle(Point(0, 0), Point(1, 0), Point(2, 0.1))
    for k in (-500, 0, 500):
        for _ in range(300):
            t = scaled(random_acute_triangle(rng, rng.choice((1e-2, 1e-6))), k)
            assert min_perimeter_closed_form(t).hex() == orthic_triangle(t).perimeter.hex()
        for parent in (right, obtuse):
            t = scaled(parent, k)
            with pytest.raises(NotAcuteError) as closed:
                min_perimeter_closed_form(t)
            with pytest.raises(NotAcuteError) as orthic:
                orthic_triangle(t)
            assert str(closed.value) == str(orthic.value)


def test_near_right_warning_flag():
    t = Triangle.from_angles(math.pi / 2 - 5e-4, math.pi / 4)
    result = minimize_grid_then_simplex(t)
    assert result.warning is not None
    healthy = minimize_grid_then_simplex(Triangle.from_angles(1.0, 1.0))
    assert healthy.warning is None


# --------------------------------------------------------------- bit identity
#
# The solvers run float arithmetic in a fixed order, so their results are
# pinned to the bit.  PINS names, for each table of optimize_bits.py, its
# keys in file order and the function that computes a key's entry;
# tests/record_bits.py writes the tables from it.  Any change there is a
# change of numerics, not a refactor.

# (m, beta) for the near-right parents from_angles(pi/2 - m, beta).
BIT_NEAR_RIGHT = (
    (1e-2, math.pi / 4), (3e-3, math.pi / 4), (1e-3, math.pi / 4), (1e-2, 0.4), (1e-3, 1.1)
)


def bit_runs():
    """(shape, start) pairs: 30 random acute shapes, then the near-right
    parents, each with a random start."""
    rng, starts = random.Random(20160622), random.Random(7)
    shapes = [Triangle.from_angles(*sample_acute_angles(rng)) for _ in range(30)]
    shapes += [Triangle.from_angles(math.pi / 2 - m, b) for m, b in BIT_NEAR_RIGHT]
    return [(t, InscribedConfig(*(starts.uniform(0.05, 0.95) for _ in range(3)))) for t in shapes]


def result_bits(result):
    """Every field of a MinimizeResult, floats as float.hex; the history,
    thousands of entries for near-right parents, as its length and digest."""
    return (
        tuple(v.hex() for v in result.config.as_tuple()),
        result.perimeter.hex(),
        result.iterations,
        result.converged,
        result.clamped,
        result.warning,
        len(result.history),
        hashlib.sha256("\n".join(f"{i} {p.hex()}" for i, p in result.history).encode()).hexdigest(),
    )


def descent_bits(result):
    """result_bits plus the count of accepted extrapolated steps."""
    return result_bits(result) + (result.extrapolations,)


def cli_stdout_digest(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    data = out.getvalue().encode()
    return code, len(data), hashlib.sha256(data).hexdigest()


BIT_CLI_COMMANDS = {
    "grid-simplex": ["minimize", "golden-bfc"],
    "reflection": ["minimize", "golden-bfc", "--method", "reflection"],
}

# Shapes of SIMPLEX_TIES: symmetric ones, where simplex vertices tie on
# perimeter and the order among equal values decides the next step.
TIE_SHAPES = {
    "equilateral": cli.parse_triangle("equilateral"),
    "golden-bfc": cli.parse_triangle("golden-bfc"),
    "isosceles-tall": Triangle(Point(0.0, 0.0), Point(2.0, 0.0), Point(1.0, 3.0)),
    "isosceles-flat": Triangle(Point(-1.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.5)),
}


def near_face_cases(count):
    """Acute shapes, each with a start whose parameters lie 1e-10 to 1e-6
    from 0 or from 1, close enough to a face that some descents clamp."""
    rng = random.Random(20161018)
    cases = []
    for _ in range(count):
        t = Triangle.from_angles(*sample_acute_angles(rng))
        start = []
        for _ in range(3):
            gap = 10.0 ** -rng.uniform(6.0, 10.0)
            start.append(gap if rng.random() < 0.5 else 1.0 - gap)
        cases.append((t, InscribedConfig(*start)))
    return cases


RUNS = bit_runs()
INDICES = range(len(RUNS))
NEAR_FACE_CASES = near_face_cases(40)
CLAMP_RECOVERY_RUN = (Triangle.from_angles(*CLAMP_RECOVERY_SHAPE), InscribedConfig(*CLAMP_RECOVERY_START))


def descent(index, max_iter=DEFAULT_MAX_ITER):
    return minimize_reflection_descent(*RUNS[index], max_iter=max_iter)


# Runs cut off by max_iter, before any convergence test decides them; a
# loose simplex tolerance, which ends on the diameter test, and max_iter=7,
# inside the first steps; the descent from test_reflection_clamp_recovery's
# first start, clamped at every limit.
PINS = {
    "SIMPLEX": (INDICES, lambda i: result_bits(minimize_grid_then_simplex(RUNS[i][0]))),
    "SIMPLEX_TIES": (
        [*((name, DEFAULT_MAX_ITER) for name in TIE_SHAPES), *(("golden-bfc", m) for m in (1, 5, 50))],
        lambda key: result_bits(minimize_grid_then_simplex(TIE_SHAPES[key[0]], max_iter=key[1])),
    ),
    "DESCENT": (INDICES, lambda i: result_bits(descent(i))),
    "CLI_STDOUT": (BIT_CLI_COMMANDS, lambda method: cli_stdout_digest(BIT_CLI_COMMANDS[method])),
    "DESCENT_EXTRAPOLATIONS": (INDICES, lambda i: descent(i).extrapolations),
    "DESCENT_CUT": (
        [(i, m) for i in INDICES for m in (1, 2, 5)], lambda key: descent_bits(descent(*key))
    ),
    "SIMPLEX_LIMITS": (
        [(i, *option) for i in INDICES for option in (("tol", 1e-6), ("max_iter", 7))],
        lambda key: result_bits(minimize_grid_then_simplex(RUNS[key[0]][0], **{key[1]: key[2]})),
    ),
    "CLAMP_RECOVERY": (
        (1, 2, 5, DEFAULT_MAX_ITER),
        lambda m: descent_bits(minimize_reflection_descent(*CLAMP_RECOVERY_RUN, max_iter=m)),
    ),
    "NEAR_FACE": (
        range(len(NEAR_FACE_CASES)),
        lambda i: descent_bits(minimize_reflection_descent(*NEAR_FACE_CASES[i])),
    ),
}


def test_pins_cover_every_table():
    check_pin_tables(optimize_bits, PINS)
    # The near-face pins cover the clamped path: 10 of the 40 descents clamp.
    assert sum(bits[4] for bits in optimize_bits.NEAR_FACE.values()) == 10


test_grid_simplex_bit_identical = pin_test(optimize_bits, PINS, "SIMPLEX")
test_grid_simplex_ties_bit_identical = pin_test(optimize_bits, PINS, "SIMPLEX_TIES")
test_reflection_descent_bit_identical = pin_test(
    optimize_bits, PINS, "DESCENT", "DESCENT_EXTRAPOLATIONS"
)
test_reflection_descent_cut_off_bit_identical = pin_test(optimize_bits, PINS, "DESCENT_CUT")
test_grid_simplex_limits_bit_identical = pin_test(optimize_bits, PINS, "SIMPLEX_LIMITS")
test_reflection_clamp_recovery_bit_identical = pin_test(optimize_bits, PINS, "CLAMP_RECOVERY")
test_reflection_near_face_bit_identical = pin_test(optimize_bits, PINS, "NEAR_FACE")
test_cli_minimize_stdout_bit_identical = pin_test(optimize_bits, PINS, "CLI_STDOUT")
