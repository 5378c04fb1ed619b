import json
import math
import os
import random
import subprocess
import sys

import pytest

import fagnano
from fagnano.cli import build_parser, main
from fagnano.geometry import Triangle

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- orthic


def test_orthic_equilateral(capsys):
    code, out, _ = run(capsys, "orthic", "equilateral")
    assert code == 0
    doc = json.loads(out)
    assert doc["perimeter"] == pytest.approx(1.5, abs=1e-12)
    # Its acute margin is pi/6, the largest any triangle has: a --tol just
    # below still passes it, one of pi/6 or more is a bad option.
    assert run(capsys, "orthic", "equilateral", "--tol", "0.5") == (0, out, "")


def test_orthic_golden_ratios(capsys):
    code, out, _ = run(capsys, "orthic", "golden-bfc")
    assert code == 0
    doc = json.loads(out)
    sides = sorted(doc["side_lengths"])
    assert sides[1] / sides[0] == pytest.approx(2.0, abs=1e-12)
    assert sides[2] / sides[0] == pytest.approx(math.sqrt(5.0), abs=1e-12)


def test_orthic_right_triangle_exits_2(capsys):
    code, _, err = run(capsys, "orthic", "0,0,1,0,0,1")
    assert code == 2
    assert "largest angle" in err


def test_orthic_degenerate_exits_2(capsys):
    code, _, err = run(capsys, "orthic", "0,0,1,0,2,0")
    assert code == 2
    assert "collinear" in err


@pytest.mark.parametrize(
    "text",
    (
        "0,0,1,0,2,0",
        "0,0,0,0,0,0",
        "1,1,1,1,2,2",
        "0,0,1e200,1e200,2e200,2e200",
        "0,0,1e-160,0,2e-160,0",
        "5e-324,0,0,0,0,0",
    ),
    ids=(
        "collinear", "coincident", "two-coincident", "collinear-huge", "collinear-tiny",
        "coincident-tiny",
    ),
)
def test_degenerate_input_message(capsys, text):
    code, out, err = run(capsys, "orthic", text)
    assert (code, out) == (2, "")
    assert err == (
        f"fagnano: precondition: triangle {text!r}: vertices are (near-)collinear\n"
    )


# An integer of 401 digits, beyond the float range.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "argv",
    (
        ["orthic", "0,0,1,0,-0.1,1", "--tol", "-1"],
        ["orthic", "golden-bfc", "--tol", "nan"],
        ["minimize", "golden-bfc", "--tol", "nan"],
        ["minimize", "golden-bfc", "--tol", "inf"],
        ["minimize", "golden-bfc", "--method", "reflection", "--tol", "nan"],
        ["minimize", "golden-bfc", "--tol", "0"],
        ["minimize", "golden-bfc", "--method", "reflection", "--tol", "0"],
        ["golden", "--tol", "inf"],
        ["scan", "--resolution", "8", "--tol-angle", "inf"],
        ["scan", "--resolution", "8", "--tol-angle", "nan"],
        ["minimize", "golden-bfc", "--max-iter", "0"],
        ["minimize", "golden-bfc", "--method", "reflection", "--max-iter", "-1"],
        ["orthic", "equilateral", "--tol", "abc"],
        ["orthic", "equilateral", "--tol", "0.6"],
        pytest.param(["render", "equilateral", "--width", HUGE], id="render --width HUGE"),
        pytest.param(["render", "equilateral", "--height", HUGE], id="render --height HUGE"),
        pytest.param(["scan", "--resolution", HUGE], id="scan --resolution HUGE"),
        ["scan", "--resolution", "100000000000", "--tol-angle", "1"],
    ),
    ids=lambda argv: " ".join(argv),
)
def test_bad_tolerance_exits_1_naming_the_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    if argv[-1] == HUGE:
        # A size or resolution beyond the float range is refused in one
        # line, not an OverflowError traceback; no figure is written.
        assert err == {
            "--width": f"fagnano: error: width {HUGE} px less both margins is beyond the"
            " float range\n",
            "--height": f"fagnano: error: height {HUGE} px is beyond the float range\n",
            "--resolution": f"fagnano: error: grid_resolution {HUGE} is beyond the float"
            " range\n",
        }[argv[-2]]
        return
    if argv[:3] == ["scan", "--resolution", "100000000000"]:
        # A resolution whose last nodes would reach the acute gate is
        # refused before the first node, naming the resolution, not a
        # right triangle the user never gave.
        assert err == (
            "fagnano: error: grid_resolution 100000000000 is above 392699081, the"
            " largest whose nodes all stay more than 2 * ANGLE_TOL (2e-09) from a"
            " right angle\n"
        )
        return
    if argv[-2] == "--max-iter":
        reason = f"iteration limit must be >= 1, got {int(argv[-1])!r}"
    elif argv[0] == "minimize":
        # The solvers need a finite tol > 0: refused at parse time, naming
        # the option and that rule.
        reason = f"solver tolerance must be finite and > 0, got {float(argv[-1])!r}"
    elif argv[-1] == "abc":
        reason = "invalid float value: 'abc'"
    elif argv[-1] == "0.6":
        # No triangle's acute margin reaches pi/6: the acute gate rejects
        # the tolerance, not the triangle.
        assert err == f"fagnano: error: tol must be below pi/6 = {math.pi / 6!r}, got 0.6\n"
        return
    else:
        reason = f"tolerance must be finite and >= 0, got {float(argv[-1])!r}"
    assert err == f"fagnano: error: argument {argv[-2]}: {reason}\n"


def test_overflowing_side_of_finite_input_exits_2(capsys):
    # Every coordinate is finite, but b - c is not, and neither is the
    # perimeter: the perimeter is named.
    code, out, err = run(capsys, "orthic", "0,0,1e308,0,-1e308,1")
    assert (code, out) == (2, "")
    assert "perimeter 2.2250738585072014 * 2**1024 is outside the double range" in err
    assert "degenerate" not in err


def test_orthic_parse_failures(capsys):
    assert run(capsys, "orthic", "0,0,1,0")[0] == 1          # wrong arity
    assert run(capsys, "orthic", "0,0,1,0,x,1")[0] == 1      # not a number
    assert run(capsys, "orthic", "no-such-preset")[0] == 1
    # A non-finite coordinate is rejected by Triangle; the message names
    # both the argument and the vertex.
    for text, vertex in (("0,0,1,0,nan,1", "(nan, 1.0)"), ("0,0,1e400,0,0,1", "(inf, 0.0)")):
        assert run(capsys, "orthic", text) == (
            1, "", f"fagnano: error: triangle {text!r}: non-finite coordinates {vertex}\n"
        )


def test_orthic_tol_reaches_the_acute_gate(capsys):
    # Largest angle 2.0e-10 short of right: a precondition failure at the
    # default --tol, feet at --tol 0.
    text = "0,0,1,0,0.5,0.5000000001"
    assert run(capsys, "orthic", text)[0] == 2
    code, out, err = run(capsys, "orthic", text, "--tol", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["feet"]["from_c"] == [0.5, 0.0]


@pytest.mark.parametrize(
    "argv", (["orthic", "equilateral"], ["render", "equilateral", "--json"]), ids=("orthic", "render")
)
def test_empty_output_path_is_an_io_error(capsys, argv):
    # An empty --output names no file: it is not a request for stdout.
    assert run(capsys, *argv, "--output", "") == (
        5, "", "fagnano: i/o error: [Errno 2] No such file or directory: ''\n"
    )


def test_orthic_output_file(capsys, tmp_path):
    path = tmp_path / "orthic.json"
    code, out, _ = run(capsys, "orthic", "equilateral", "--output", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["perimeter"] == pytest.approx(1.5)


# ------------------------------------------------------------------- minimize


def test_minimize_grid_simplex_equilateral(capsys):
    code, out, _ = run(capsys, "minimize", "equilateral")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "grid-simplex"
    assert doc["perimeter"] == pytest.approx(1.5, abs=1e-6)
    assert doc["converged"] is True
    assert doc["history"][0][0] == 0


def test_minimize_reflection_golden_matches_feet(capsys):
    code, out, _ = run(capsys, "minimize", "golden-bfc", "--method", "reflection")
    assert code == 0
    doc = json.loads(out)
    # known closed-form feet parameters for this embedding
    from conftest import orthic_config
    from fagnano.cli import parse_triangle

    target = orthic_config(parse_triangle("golden-bfc"))
    assert doc["config"]["t_on_bc"] == pytest.approx(target.t_on_bc, abs=1e-8)
    assert doc["config"]["t_on_ca"] == pytest.approx(target.t_on_ca, abs=1e-8)
    assert doc["config"]["t_on_ab"] == pytest.approx(target.t_on_ab, abs=1e-8)


def test_minimize_non_convergence_exit_3(capsys):
    code, out, _ = run(
        capsys, "minimize", "golden-bfc", "--method", "reflection", "--max-iter", "1"
    )
    assert code == 3
    doc = json.loads(out)  # result still printed
    assert doc["converged"] is False


def test_minimize_reflection_near_right_converges(capsys):
    # One angle 1e-4 rad short of right: plain coordinate descent ran out of
    # its 10 000 sweeps here (exit 3); the extrapolated descent converges.
    t = Triangle.from_angles(math.pi / 2 - 1e-4, math.pi / 4)
    coords = ",".join(repr(v) for p in t.vertices for v in (p.x, p.y))
    code, out, _ = run(
        capsys, "minimize", coords, "--method", "reflection", "--start", "0.3,0.3,0.3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["iterations"] <= 100
    assert "extrapolations" not in doc


def test_minimize_bad_method_exit_1(capsys):
    code, _, _ = run(capsys, "minimize", "equilateral", "--method", "newton")
    assert code == 1


def test_minimize_bad_start_exit_1(capsys):
    for start, reason in (
        ("0,0.5,0.5", "t_on_bc=0.0 outside the open interval (0, 1)"),
        ("0.5,0.5", "expected three comma-separated parameters, got '0.5,0.5'"),
        ("a,b,c", "bad parameter in 'a,b,c': could not convert string to float: 'a'"),
    ):
        code, _, err = run(
            capsys, "minimize", "equilateral", "--method", "reflection", "--start", start
        )
        assert code == 1
        assert err == f"fagnano: error: {reason}\n"


def test_reflection_default_start_is_the_medial_configuration(capsys):
    argv = ("minimize", "golden-bfc", "--method", "reflection")
    default = run(capsys, *argv)
    assert default[0] == 0
    assert default == run(capsys, *argv, "--start", "0.5,0.5,0.5")


# ----------------------------------------------------------------------- scan


def test_scan_small_resolution(capsys):
    code, out, _ = run(capsys, "scan", "--resolution", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["counterexamples"] == []
    assert doc["samples_tested"] > 0


def test_scan_defaults_clean(capsys):
    code, out, _ = run(capsys, "scan")  # resolution 200, tol 1e-9
    assert code == 0
    doc = json.loads(out)
    assert doc["grid_resolution"] == 200
    assert doc["counterexamples"] == []


def test_scan_tol_angle_below_the_floor_exit_1(capsys):
    # At resolution 16 the law puts the orthic angle at the foot from b on
    # the last locus node within 8 eps / (pi/64) = 3.62e-14 of pi/2: a
    # tol_angle of 0 would report that rounding as 14 counterexamples.
    code, out, err = run(capsys, "scan", "--resolution", "16", "--tol-angle", "0")
    assert (code, out) == (1, "")
    assert err == (
        "fagnano: error: tol_angle (0.0) is below 3.62e-14, the angle law's"
        " rounding bound at resolution 16\n"
    )
    assert run(capsys, "scan", "--resolution", "16", "--tol-angle", "3.7e-14")[0] == 0


def test_boundary_band_is_an_unknown_option(capsys):
    code, out, err = run(capsys, "scan", "--resolution", "16", "--boundary-band", "1")
    assert (code, out) == (1, "")
    assert err == "fagnano: error: unrecognized arguments: --boundary-band 1\n"


def test_scan_invalid_resolution_exit_1(capsys):
    assert run(capsys, "scan", "--resolution", "4")[0] == 1


def test_scan_loose_tolerance_gives_a_verdict_not_a_bad_triangle(capsys):
    # Grid nodes are acute by construction and classified at ANGLE_TOL; a
    # tol_angle near the grid step only loosens the verdict tests.  At 0.1
    # both pi/4 tests on the locus nodes with alpha or gamma within 0.05 of
    # pi/4 hit twice, so the forward direction reports them.
    from fagnano.theorem import scan_angle_space

    report = scan_angle_space(16, tol_angle=0.1)
    assert report.samples_tested == 120
    assert [v.quarter_pi_unique for _, v in report.counterexamples] == [False, False]
    code, out, err = run(capsys, "scan", "--resolution", "16", "--tol-angle", "0.1")
    assert (code, err) == (4, "")
    assert json.loads(out) == json.loads(json.dumps(report.to_document()))


def test_scan_counterexample_exit_4(capsys, monkeypatch):
    # the characterization holds, so exit 4 is only reachable through the
    # dispatcher; feed it a doctored report
    import fagnano.cli as cli
    from fagnano.geometry import AngleTriple
    from fagnano.theorem import ScanReport, TheoremVerdict

    fake = ScanReport(
        grid_resolution=8,
        samples_tested=1,
        counterexamples=(
            (
                AngleTriple(1.0, 1.0, math.pi - 2.0),
                TheoremVerdict(True, 0, False, None, False, None, False),
            ),
        ),
        tol_angle=1e-9,
        worst_law_residual=2.0,
    )
    monkeypatch.setattr(cli, "scan_angle_space", lambda *a, **k: fake)
    code, out, _ = run(capsys, "scan", "--resolution", "8")
    assert code == 4
    assert json.loads(out)["counterexamples"]


# --------------------------------------------------------------------- golden


def test_golden_report(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    assert "1.1180339887498949" in out  # sqrt(5)/2 at 17 significant digits
    doc = json.loads(out)
    assert doc["max_residual"] <= 1e-12
    assert doc["phi"] == pytest.approx(PHI)


def test_golden_unwritable_path_exit_5(capsys, tmp_path):
    code, _, err = run(
        capsys, "golden", "--output", str(tmp_path / "missing" / "out.json")
    )
    assert code == 5


# --------------------------------------------------------------------- render


def test_render_triangle(capsys, tmp_path):
    path = tmp_path / "eq.svg"
    code, out, _ = run(capsys, "render", "equilateral", "--output", str(path), "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary == {
        "output": str(path), "line_elements": 9, "polygon_elements": 0, "text_elements": 6
    }
    text = path.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_render_golden_figure(capsys, tmp_path):
    path = tmp_path / "golden.svg"
    code, _, _ = run(capsys, "render", "golden-figure", "--output", str(path))
    assert code == 0
    text = path.read_text()
    assert text.count("<polygon ") == 2
    assert text.count("<line ") == 9


def test_render_non_acute_exit_2(capsys, tmp_path):
    code, _, _ = run(
        capsys, "render", "0,0,1,0,0,1", "--output", str(tmp_path / "x.svg")
    )
    assert code == 2


def test_render_bad_spec_exit_1(capsys, tmp_path):
    code, _, _ = run(
        capsys, "render", "equilateral", "--width", "32",
        "--output", str(tmp_path / "x.svg"),
    )
    assert code == 1


def test_render_unwritable_exit_5(capsys, tmp_path):
    code, _, _ = run(
        capsys, "render", "equilateral", "--output", str(tmp_path / "no" / "x.svg")
    )
    assert code == 5


# The largest power of ten a render size can be: at 10**308 the drawable
# size over a span below 1 overflows the layout's scale.
@pytest.mark.parametrize("exponent", (307, 308))
def test_render_size_near_the_float_maximum(capsys, tmp_path, exponent):
    path = tmp_path / "x.svg"
    size = str(10**exponent)
    argv = ["render", "equilateral", "--width", size, "--height", size, "--output", str(path)]
    code, out, err = run(capsys, *argv)
    if exponent == 308:
        assert (code, out) == (1, "")
        assert err == f"fagnano: error: viewport {size}x{size} px is too large to lay out\n"
        assert not path.exists()
    else:
        assert (code, out, err) == (0, "", "")
        text = path.read_text()
        assert "nan" not in text and "inf" not in text


# ---------------------------------------------------------- output files

OUTPUT_ARGV = {
    "svg": ["render", "golden-figure"],
    "json": ["orthic", "golden-bfc"],
}


def fresh_write(capsys, tmp_path, kind):
    path = tmp_path / f"fresh.{kind}"
    assert run(capsys, *OUTPUT_ARGV[kind], "--output", str(path)) == (0, "", "")
    return path.read_bytes()


@pytest.mark.parametrize("old_size", ("longer", "equal", "shorter"))
@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_existing_output_file_holds_a_fresh_write(capsys, tmp_path, kind, old_size):
    # The file is overwritten in place and cut only if it was longer.
    fresh = fresh_write(capsys, tmp_path, kind)
    size = {"longer": 100_000, "equal": len(fresh), "shorter": len(fresh) // 2}[old_size]
    path = tmp_path / f"old.{kind}"
    path.write_bytes(b"x" * size)
    assert run(capsys, *OUTPUT_ARGV[kind], "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == fresh


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_output_to_dev_null(capsys, kind):
    # A character device cannot be truncated; nothing asks it to be.
    assert run(capsys, *OUTPUT_ARGV[kind], "--output", "/dev/null") == (0, "", "")


@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_new_output_file_mode_matches_open(capsys, tmp_path, kind):
    reference, path = tmp_path / "reference", tmp_path / f"new.{kind}"
    mask = os.umask(0o027)
    try:
        with open(reference, "w"):
            pass
        assert run(capsys, *OUTPUT_ARGV[kind], "--output", str(path)) == (0, "", "")
    finally:
        os.umask(mask)
    assert os.stat(path).st_mode == os.stat(reference).st_mode


@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_symlinked_output_writes_through_the_link(capsys, tmp_path, kind):
    fresh = fresh_write(capsys, tmp_path, kind)
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"x" * 100_000)
    try:
        link.symlink_to(target)
    except OSError:
        pytest.skip("symlinks are not available")
    assert run(capsys, *OUTPUT_ARGV[kind], "--output", str(link)) == (0, "", "")
    assert link.is_symlink()
    assert target.read_bytes() == fresh


# -------------------------------------------------- leading minus signs

NEGATIVE = "-1,0,1,0,0,1.5"


@pytest.mark.parametrize(
    "argv",
    (
        ["orthic", NEGATIVE],
        ["orthic", NEGATIVE, "--tol", "1e-9"],
        ["orthic", "-.5,-0.25,1,0,0,1.5"],
        ["minimize", NEGATIVE],
        ["minimize", NEGATIVE, "--method", "reflection", "--tol", "1e-9"],
    ),
    ids=" ".join,
)
def test_negative_first_coordinate_is_a_value(capsys, argv):
    # The unescaped form gives what the "--" form, which always worked, gives.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    escaped = [argv[0], *argv[2:], "--", argv[1]]
    assert (code, out, err) == run(capsys, *escaped)


def test_render_negative_first_coordinate(capsys, tmp_path):
    plain, escaped = tmp_path / "plain.svg", tmp_path / "escaped.svg"
    assert run(capsys, "render", NEGATIVE, "--output", str(plain)) == (0, "", "")
    assert run(capsys, "render", "--output", str(escaped), "--", NEGATIVE) == (0, "", "")
    assert plain.read_bytes() == escaped.read_bytes()


# ----------------------------------------------------------- extreme scales

EXTREME_COMMANDS = (["orthic"], ["minimize", "--method", "reflection"], ["minimize"])
EXTREME_IDS = ("orthic", "reflection", "grid-simplex")


def run_python(*args):
    """``python ARGS`` in a fresh interpreter that imports this fagnano."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fagnano.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def run_process(*argv):
    return run_python("-m", "fagnano", *argv)


# Acute triangles whose squared sides underflow to 0 (1e-170) or overflow to
# inf (1e200) at their own scale.  Triangle's power-of-two frame computes
# them as it does their copies near scale 1.
EXTREME_ACUTE = {
    "tiny": "0,0,4e-170,0,1e-170,2e-170",
    "huge": "0,0,4e200,0,1e200,2e200",
}


@pytest.mark.parametrize("scale", sorted(EXTREME_ACUTE))
@pytest.mark.parametrize("command", EXTREME_COMMANDS, ids=EXTREME_IDS)
def test_extreme_scale_exits_0_without_traceback(command, scale):
    proc = run_process(command[0], EXTREME_ACUTE[scale], *command[1:])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert 0.0 < doc["perimeter"] < math.inf


# Extreme-scale inputs that fail a precondition: an obtuse tiny triangle, a
# perimeter that overflows, and an obtuse triangle near 1e154 whose squared
# sides overflow.  Each exits 2 naming the cause, without a traceback.
EXTREME_INVALID = {
    "tiny": ("0,0,4e-170,0,5e-170,2e-170", "triangle is obtuse, not acute"),
    "huge": ("1e308,0,-1e308,0,0,1e308", "perimeter"),
    "nan-angles": (
        "8.583045863408102e+153,-5.540433187773721e+153,"
        "1.0887243497345633e+154,-8.18356394540435e+153,"
        "-2.9908082907804727e+153,1.002477878833545e+154",
        "triangle is obtuse, not acute",
    ),
}


@pytest.mark.parametrize("scale", sorted(EXTREME_INVALID))
@pytest.mark.parametrize("command", EXTREME_COMMANDS, ids=EXTREME_IDS)
def test_extreme_scale_exits_2_without_traceback(command, scale):
    text, cause = EXTREME_INVALID[scale]
    proc = run_process(command[0], text, *command[1:])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr.startswith("fagnano: precondition: ")
    assert cause in proc.stderr
    assert proc.stdout == ""


# Near 1.3e154 the reflection step's cross products, or only its
# denominator, overflow at the triangle's own scale from this start.  In the
# frame the descent is the one of the exact copy at scale 2^-512.
@pytest.mark.parametrize(
    "coords",
    ("0,0,1.3e154,0,6.5e153,1.1e154", "0,0,1.1e154,0,5.5e153,9.5e153"),
    ids=("cross-products", "denominator"),
)
def test_reflection_step_near_1e154_matches_scaled_copy(capsys, coords):
    unit = ",".join(repr(math.ldexp(float(x), -512)) for x in coords.split(","))
    docs = []
    for text in (coords, unit):
        code, out, _ = run(
            capsys, "minimize", text, "--method", "reflection", "--start", "0.05,0.9,0.1"
        )
        assert code == 0
        docs.append(json.loads(out))
    big, small = docs
    assert big["config"] == small["config"]
    assert big["iterations"] == small["iterations"]
    assert big["perimeter"] == math.ldexp(small["perimeter"], 512)
    assert big["history"] == [[i, math.ldexp(p, 512)] for i, p in small["history"]]


# -------------------------------------------------------------------- fuzzing


def fuzz_argvs(n, seed):
    """Seeded orthic, minimize (both methods) and render requests on
    coordinates with decimal exponents from -320 to 308 and mixed signs.
    Each coordinate keeps its triangle's exponent with probability 0.8, so
    some triangles are acute; those that mix exponents are mostly needles."""
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.randint(-320, 308)
        coords = []
        for _ in range(6):
            exponent = k if rng.random() < 0.8 else rng.randint(-320, 308)
            coords.append(f"{rng.choice(('', '-'))}{rng.uniform(1.0, 10.0):.6f}e{exponent}")
        text = ",".join(coords)
        yield ["orthic", text]
        yield ["minimize", text]
        yield ["minimize", text, "--method", "reflection"]
        yield ["render", text, "--json"]


def reject_constant(name):
    raise ValueError(f"non-finite {name} in the output")


def test_cli_fuzz_exits_with_a_documented_code(capsys, tmp_path):
    svg = str(tmp_path / "fuzz.svg")
    codes = {}
    for argv in fuzz_argvs(300, 20261018):
        if argv[0] == "render":
            argv = argv + ["--output", svg]
        code, out, err = run(capsys, *argv)
        assert code in range(6), argv
        if code == 0:
            json.loads(out, parse_constant=reject_constant)
        else:
            assert out == "" and err.startswith("fagnano: "), argv
        codes[code] = codes.get(code, 0) + 1
    # The seed reaches both success and precondition failures.
    assert {0, 2} <= codes.keys(), codes


def test_cli_fuzz_processes_print_no_traceback(tmp_path):
    svg = str(tmp_path / "fuzz.svg")
    for argv in fuzz_argvs(2, 1606):
        if argv[0] == "render":
            argv = argv + ["--output", svg]
        proc = run_process(*argv)
        assert proc.returncode in range(6), argv
        assert "Traceback" not in proc.stderr, argv
        assert "RuntimeWarning" not in proc.stderr, argv


# ---------------------------------------------------------------- numpy import

# pytest's own process already holds these modules, so a fresh interpreter
# imports the package, runs the commands in order and reports after each
# which of them are loaded; none of them needs one.  numpy is not a
# dependency, and dataclasses (with inspect, which it loads) cost a fifth of
# the package's start-up.
UNWANTED = ("numpy", "dataclasses", "inspect")
MODULE_PROBE = """
import contextlib, io, json, sys
import fagnano, fagnano.cli, fagnano.geometry, fagnano.golden, fagnano.jsonio
import fagnano.optimize, fagnano.render, fagnano.theorem
unwanted = sys.argv[2:]
loaded = [["import", 0, [m for m in unwanted if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = fagnano.cli.main(argv)
    loaded.append([" ".join(argv), code, [m for m in unwanted if m in sys.modules]])
print(json.dumps(loaded))
"""
# The same interpreter with only the stdlib modules fagnano and MODULE_PROBE
# import: what it loads, fagnano cannot keep out.
STDLIB_PROBE = """
import argparse, collections.abc, contextlib, enum, functools, io, json, json.encoder
import math, operator, re, sys
print(json.dumps([m for m in sys.argv[1:] if m in sys.modules]))
"""


def probe(script, *args, flags=()):
    proc = run_python(*flags, "-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_numpy(tmp_path):
    commands = [
        ["orthic", "golden-bfc"],
        ["golden"],
        ["scan", "--resolution", "8"],
        ["render", "equilateral", "--output", str(tmp_path / "e.svg")],
        ["minimize", "golden-bfc", "--method", "reflection"],
        ["minimize", "golden-bfc"],
    ]
    loaded = probe(MODULE_PROBE, json.dumps(commands), *UNWANTED)
    labels = ["import", *(" ".join(argv) for argv in commands)]
    assert [(label, code, "numpy" in mods) for label, code, mods in loaded] == [
        (label, 0, False) for label in labels
    ]
    stdlib = probe(STDLIB_PROBE, *UNWANTED)
    if stdlib:
        pytest.skip(f"this Python's own stdlib loads {', '.join(stdlib)}")
    assert loaded == [[label, 0, []] for label in labels]


def test_importing_fagnano_loads_no_typing():
    # typing costs several ms of start-up, and fagnano annotates with
    # collections.abc.  Both probes run under -S, because a site .pth file
    # may import typing before any program runs.
    loaded = probe(MODULE_PROBE, "[]", "typing", flags=("-S",))
    stdlib = probe(STDLIB_PROBE, "typing", flags=("-S",))
    if stdlib:
        pytest.skip("this Python's own stdlib loads typing")
    assert loaded == [["import", 0, []]]


# Each module imports on its own, in a fresh interpreter, and loads only the
# fagnano modules it uses: the package root re-exports nothing.
IMPORT_GRAPH = {
    "geometry": [],
    "jsonio": [],
    "golden": ["geometry"],
    "optimize": ["geometry"],
    "theorem": ["geometry"],
    "render": ["geometry", "golden"],
    "cli": ["geometry", "golden", "jsonio", "optimize", "render", "theorem"],
}
IMPORT_PROBE = """
import importlib, json, sys
name = sys.argv[1]
importlib.import_module("fagnano." + name)
print(json.dumps(sorted(
    m[len("fagnano."):] for m in sys.modules
    if m.startswith("fagnano.") and m != "fagnano." + name
)))
"""


def test_each_module_imports_alone():
    for name, uses in IMPORT_GRAPH.items():
        assert probe(IMPORT_PROBE, name) == uses, name


# ------------------------------------------------------------------- general


def test_help_names_the_exit_codes_only():
    # --help shows the module docstring: the exit codes and the note on
    # negative coordinates, in plain text, no implementation notes.
    proc = run_process("--help")
    assert proc.returncode == 0 and proc.stderr == ""
    for code in ("0 success", "1 parse/config failure", "2 precondition violation",
                 "3 non-convergence", "4 counterexample", "5 I/O failure"):
        assert code in proc.stdout
    assert "benchmark" not in proc.stdout and "``" not in proc.stdout


def test_scan_help_documents_both_options(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["scan", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert raised.value.code == 0
    for line in (
        "--resolution RESOLUTION grid steps per right angle, an integer of at least 8"
        " (default 200)",
        "--tol-angle TOL_ANGLE pi/4-locus verdict tolerance (default 1e-9), at least"
        " 32*n*eps/pi at resolution n",
    ):
        assert line in out, line


def test_unknown_command_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_grid_n_is_an_unknown_option(capsys):
    code, out, err = run(capsys, "minimize", "equilateral", "--grid-n", "9")
    assert (code, out) == (1, "")
    assert err == "fagnano: error: unrecognized arguments: --grid-n 9\n"


def test_missing_command_exit_1(capsys):
    assert run(capsys)[0] == 1


def test_stdout_determinism(capsys):
    for argv in (
        ["orthic", "golden-bfc"],
        ["minimize", "equilateral"],
        ["minimize", "golden-bfc", "--method", "reflection"],
        ["scan", "--resolution", "8"],
        ["golden"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_file_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "render", "golden-figure", "--output", str(a))
    run(capsys, "render", "golden-figure", "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    (
        ["orthic", "golden-bfc", "--json"],
        ["minimize", "equilateral", "--json"],
        ["scan", "--resolution", "8", "--json"],
        ["golden", "--json"],
        ["minimize", "golden-bfc", "--start", "0.1,0.1,0.1"],
        ["minimize", "golden-bfc", "--start", "garbage"],
    ),
    ids=(
        "orthic-json", "minimize-json", "scan-json", "golden-json", "grid-simplex-start",
        "grid-simplex-start-garbage",
    ),
)
def test_option_that_would_do_nothing_exits_1(capsys, argv):
    # JSON is already the output of these commands, and the grid-simplex
    # search has no start: the option is rejected, not ignored.
    option = next(arg for arg in argv if arg in ("--json", "--start"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("fagnano: error: ") and option in err


# ------------------------------------------------------------- parser reuse


def run_fresh(capsys, *argv):
    """One request through a parser built anew instead of the shared one."""
    args = build_parser.__wrapped__().parse_args(list(argv))
    code = args.func(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_options_do_not_leak_into_the_next_request(capsys, tmp_path):
    path = tmp_path / "m.json"
    code, out, _ = run(
        capsys, "minimize", "equilateral", "--tol", "1e-3", "--max-iter", "50",
        "--output", str(path),
    )
    assert code == 0 and out == ""
    second = run(capsys, "minimize", "equilateral")
    assert second == run_fresh(capsys, "minimize", "equilateral")
    assert second[1] and second[1] != path.read_text()


def test_parse_failure_then_valid_request(capsys):
    code, out, err = run(capsys, "minimize", "equilateral", "--max-iter", "x")
    assert code == 1 and out == "" and "--max-iter" in err
    assert run(capsys, "orthic", "golden-bfc") == run_fresh(capsys, "orthic", "golden-bfc")


@pytest.mark.parametrize(
    "argv",
    (
        ["orthic", "equilateral"],
        ["orthic", "golden-bfc"],
        ["minimize", "equilateral"],
        ["minimize", "golden-bfc", "--method", "reflection"],
        ["scan", "--resolution", "16"],
        ["golden"],
        ["render", "equilateral"],
        ["render", "golden-figure"],
    ),
    ids=" ".join,
)
def test_shared_parser_matches_a_fresh_one(capsys, tmp_path, argv):
    # The acceptance suite's criterion-7 commands.
    if argv[0] == "render":
        shared, fresh = tmp_path / "shared.svg", tmp_path / "fresh.svg"
        assert run(capsys, *argv, "--output", str(shared)) == run_fresh(
            capsys, *argv, "--output", str(fresh)
        )
        assert shared.read_bytes() == fresh.read_bytes()
    else:
        assert run(capsys, *argv) == run_fresh(capsys, *argv)


# ------------------------------------------------------- subcommand dispatch

# The criterion-7 commands, then help, errors, abbreviations and "--".
# Render commands write figure.svg, or fig.svg through the abbreviated
# --out, in the test's working directory.
DISPATCH_ARGV = (
    ["orthic", "equilateral"],
    ["orthic", "golden-bfc"],
    ["minimize", "equilateral"],
    ["minimize", "golden-bfc", "--method", "reflection"],
    ["scan", "--resolution", "16"],
    ["golden"],
    ["render", "equilateral"],
    ["render", "golden-figure"],
    [],
    ["-h"],
    ["orthic", "-h"],
    ["bogus"],
    ["orth", "equilateral"],
    ["--", "orthic", "equilateral"],
    ["orthic", "--", NEGATIVE],
    ["orthic", NEGATIVE],
    ["orthic", "equilateral", "extra"],
    ["orthic", "equilateral", "--bogus"],
    ["minimize", "golden-bfc", "--meth", "reflection"],
    ["render", "equilateral", "--out", "fig.svg"],
    ["minimize", "equilateral", "--max-iter", "x"],
    ["golden", "--json"],
)


def outcome(capsys, directory, argv):
    """Exit code, stdout, stderr, any SystemExit code, and the files written."""
    try:
        code, exit_code = main(list(argv)), None
    except SystemExit as raised:
        code, exit_code = None, raised.code
    captured = capsys.readouterr()
    files = {}
    for path in sorted(directory.iterdir()):
        files[path.name] = path.read_bytes()
        path.unlink()
    return code, captured.out, captured.err, exit_code, files


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_subcommand_dispatch_matches_the_full_parse(capsys, monkeypatch, tmp_path, argv):
    # main hands a request that starts with a subcommand's name to that
    # subcommand's parser; with no names to match, every request takes the
    # full parse.  argparse's handling of "--" differs between Pythons, so
    # each runs both paths.
    monkeypatch.chdir(tmp_path)
    dispatched = outcome(capsys, tmp_path, argv)
    if argv[0:1] == ["--"]:
        # "--" before a name gives the plain request's outcome on every
        # Python; Python 3.11's full parse would read "--" as the name.
        argv = argv[1:]
    monkeypatch.setattr(build_parser(), "subcommands", {})
    assert dispatched == outcome(capsys, tmp_path, argv)


def test_subcommand_request_skips_the_top_level_parse(capsys, monkeypatch):
    parser = build_parser()
    calls = []
    parse_known_args = parser.parse_known_args

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_known_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counting)
    plain = run(capsys, "orthic", "equilateral")
    assert plain[0] == 0
    assert run(capsys, "--", "orthic", "equilateral") == plain
    assert calls == []
    run(capsys, "--", "orth", "equilateral")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv", (["orthic", "equilateral"], ["--", "orthic", "equilateral"], []),
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_main_reads_sys_argv_without_arguments(capsys, monkeypatch, argv):
    expected = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["fagnano", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
