"""The value records behave as frozen dataclasses did.

Each of the package's 13 records is built by keyword, with its defaults left
out, and checked for equality, hash, repr, immutability, pickling, deep
copying and the TypeError of a wrong call.  Field names are listed here, not
read from the records, so the same test holds for any implementation of
them.  For two records whose ``__init__`` is built from ``_fields`` the
bytecode is also compared with that of a ``def`` written out below.
"""

import copy
import math
import pickle

import pytest

from fagnano import golden
from fagnano.geometry import (
    AngleTriple,
    OrthicResult,
    Point,
    Triangle,
    TriangleClass,
    TriangleKind,
)
from fagnano.golden import GoldenFigure, ValueCheck
from fagnano.optimize import InscribedConfig, MinimizeResult
from fagnano.render import RenderSpec
from fagnano.theorem import ProofStepReport, ScanReport, TheoremVerdict

FIG = golden.build()
GOLDEN_FIELDS = ("phi", "a", "b", "c", "d", "e", "f", "triangle_bfc", "bg", "ge", "he", "gh")
VERDICT = {
    "orthic_is_right": True,
    "right_vertex": 1,
    "has_quarter_pi": True,
    "quarter_pi_vertex": 1,
    "quarter_pi_unique": True,
    "pairing_holds": True,
    "biconditional_holds": True,
}

# (class, keyword arguments, the defaults they leave out, one changed field).
# The fields, in order, are the keywords followed by the defaults.
RECORDS = [
    (Point, {"x": 1.5, "y": -2.0}, {}, {"y": 2.0}),
    (TriangleClass, {"kind": TriangleKind.ACUTE, "margin": 0.25}, {}, {"margin": -0.25}),
    (
        AngleTriple,
        {"alpha": 1.0, "beta": 1.1, "gamma": math.pi - 2.1},
        {},
        {"alpha": 1.1, "beta": 1.0},
    ),
    (
        Triangle,
        {"a": Point(0.0, 0.0), "b": Point(4.0, 0.0), "c": Point(1.0, 3.0)},
        {},
        {"c": Point(1.0, 2.0)},
    ),
    (
        OrthicResult,
        {
            "foot_from_a": Point(1.0, 0.5),
            "foot_from_b": Point(0.5, 1.0),
            "foot_from_c": Point(0.0, 0.25),
            "angles": AngleTriple(1.0, 1.0, math.pi - 2.0),
            "perimeter": 2.75,
        },
        {},
        {"perimeter": 2.5},
    ),
    (ValueCheck, {"name": "bg", "computed": 1.25, "expected": 1.25 + 2.0**-52}, {}, {"name": "ge"}),
    (
        GoldenFigure,
        {name: getattr(FIG, name) for name in GOLDEN_FIELDS},
        {},
        {"gh": 2.0 * FIG.gh},
    ),
    (InscribedConfig, {"t_on_bc": 0.25, "t_on_ca": 0.5, "t_on_ab": 0.75}, {}, {"t_on_ab": 0.5}),
    (
        MinimizeResult,
        {
            "config": InscribedConfig(0.25, 0.5, 0.75),
            "perimeter": 2.0,
            "iterations": 12,
            "converged": True,
            "history": ((0, 2.5), (12, 2.0)),
        },
        {"clamped": False, "warning": None, "extrapolations": 0},
        {"converged": False},
    ),
    (
        RenderSpec,
        {"width_px": 320, "height_px": 200},
        {"margin_px": 48, "show_altitudes": True, "show_orthic": True, "show_labels": True},
        {"show_labels": False},
    ),
    (TheoremVerdict, VERDICT, {}, {"pairing_holds": None}),
    (
        ProofStepReport,
        {
            "angle_sum_residual": 0.0,
            "bisection_residuals": (1e-16, 0.0, 2e-16),
            "quarter_relation_residual": 0.5,
            "quarter_relation_active": False,
            "quad_sum_residual": 4e-16,
            "decomposition_residuals": (0.0, 1e-16),
        },
        {},
        {"quarter_relation_active": True},
    ),
    (
        ScanReport,
        {
            "grid_resolution": 16,
            "samples_tested": 120,
            "counterexamples": ((AngleTriple(1.0, 1.1, math.pi - 2.1), TheoremVerdict(**VERDICT)),),
            "tol_angle": 1e-9,
            "worst_law_residual": 2.0,
        },
        {},
        {"counterexamples": ()},
    ),
]

# The written-out form of two generated __init__s: store each argument.
_set = object.__setattr__


def point_init(self, x, y):
    _set(self, "x", x)
    _set(self, "y", y)


def minimize_result_init(
    self, config, perimeter, iterations, converged, history,
    clamped=False, warning=None, extrapolations=0,
):
    _set(self, "config", config)
    _set(self, "perimeter", perimeter)
    _set(self, "iterations", iterations)
    _set(self, "converged", converged)
    _set(self, "history", history)
    _set(self, "clamped", clamped)
    _set(self, "warning", warning)
    _set(self, "extrapolations", extrapolations)


WRITTEN_OUT_INIT = {Point: point_init, MinimizeResult: minimize_result_init}

PINNED_REPR = {
    Point: "Point(x=1.5, y=-2.0)",
    Triangle: "Triangle(a=Point(x=0.0, y=0.0), b=Point(x=4.0, y=0.0), c=Point(x=1.0, y=3.0))",
}


@pytest.mark.parametrize(
    "cls, kwargs, defaults, change", RECORDS, ids=[entry[0].__name__ for entry in RECORDS]
)
def test_record_behaves_as_a_frozen_dataclass(cls, kwargs, defaults, change):
    r = cls(**kwargs)
    fields = [*kwargs, *defaults]
    values = tuple(getattr(r, name) for name in fields)

    # Keyword construction fills the defaults; positional construction and
    # spelled-out defaults build an equal record.
    for name, default in defaults.items():
        assert getattr(r, name) is default, name
    assert values == (*kwargs.values(), *defaults.values())
    assert cls(*kwargs.values()) == r
    assert cls(**kwargs, **defaults) == r

    # Equality: the same class and equal field tuples.
    changed = cls(**{**kwargs, **defaults, **change})
    assert r == cls(**kwargs) and not r != cls(**kwargs)
    assert r != changed and not r == changed
    other = next(entry for entry in RECORDS if entry[0] is not cls)
    assert r != other[0](**other[1])
    subclass = type("Subclass", (cls,), {})
    assert subclass.__init__ is cls.__init__
    assert r != subclass(**kwargs)
    assert r != values and r.__eq__(values) is NotImplemented

    assert hash(r) == hash(values)
    assert hash(r) == hash(cls(**kwargs))

    fields_repr = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(r) == f"{cls.__qualname__}({fields_repr})"
    if cls in PINNED_REPR:
        assert repr(r) == PINNED_REPR[cls]

    # A wrong call names the class's __init__, as a def in its body would.
    init_name = rf"^{cls.__qualname__}\.__init__\(\)"
    if cls is not RenderSpec:  # every RenderSpec field has a default
        with pytest.raises(TypeError, match=rf"{init_name} missing 1 required positional"):
            cls(*[*kwargs.values()][:-1])
    with pytest.raises(TypeError, match=rf"{init_name} got an unexpected keyword argument"):
        cls(**kwargs, extra=0)

    # A generated __init__ does per call what the written-out def does.
    if cls in WRITTEN_OUT_INIT:
        code, written = cls.__init__.__code__, WRITTEN_OUT_INIT[cls].__code__
        assert code.co_code == written.co_code
        assert code.co_names == written.co_names
        assert code.co_varnames == written.co_varnames
        assert cls.__init__.__defaults__ == WRITTEN_OUT_INIT[cls].__defaults__

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, name) for name in fields) == values

    clones = [pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*clones, copy.copy(r), copy.deepcopy(r)):
        assert type(clone) is cls
        assert clone == r and hash(clone) == hash(r)
        assert vars(clone) == vars(r)
        if cls is Triangle:
            assert clone.frame == r.frame and clone.classification == r.classification


def test_nan_field_equals_itself():
    # Field tuples compare by identity first, as a dataclass's do.
    r = ValueCheck("nan", math.nan, 1.0)
    assert r == r and r == ValueCheck("nan", r.computed, 1.0)
    assert r != ValueCheck("nan", float("nan"), 1.0)
