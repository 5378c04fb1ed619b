import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fagnano import jsonio


def test_floats_carry_17_significant_digits():
    text = jsonio.dumps({"phi": (1 + math.sqrt(5)) / 2})
    assert "1.6180339887498949" in text


def test_round_trip_types():
    doc = {
        "i": 3,
        "f": 0.1,
        "s": "x\"y",
        "b": True,
        "n": None,
        "seq": [1.5, [2, {}], {"k": []}],
    }
    parsed = json.loads(jsonio.dumps(doc))
    assert parsed["i"] == 3
    assert parsed["f"] == 0.1
    assert parsed["s"] == 'x"y'
    assert parsed["b"] is True
    assert parsed["n"] is None
    assert parsed["seq"][0] == 1.5


def test_key_order_is_insertion_order():
    text = jsonio.dumps({"z": 1, "a": 2, "m": 3})
    assert text.index('"z"') < text.index('"a"') < text.index('"m"')


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        jsonio.dumps({"bad": float("nan")})
    with pytest.raises(ValueError):
        jsonio.dumps([float("inf")])


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        jsonio.dumps({"obj": object()})


def test_deterministic_output():
    doc = {"values": [1 / 3, 2 / 7], "name": "r"}
    assert jsonio.dumps(doc) == jsonio.dumps(doc)


PINNED_DOC = {
    "nested": {"pair": (1, 4.0), "empty_dict": {}, "empty_list": [], "deep": [[-2.5], {"k": ()}]},
    "flags": [True, False, None],
    "int": -42,
    "negative": -0.1,
    "subnormal": 5e-324,
    "huge": 1e300,
    'quote"back\\slash\ttab\n': "line\nbreak",
    "caf\u00e9 \u2713": "na\u00efve \u03c0 \U0001d70b",
    "np": np.float64(1 / 3),
}

PINNED_TEXT = r"""{
  "nested": {
    "pair": [
      1,
      4
    ],
    "empty_dict": {},
    "empty_list": [],
    "deep": [
      [
        -2.5
      ],
      {
        "k": []
      }
    ]
  },
  "flags": [
    true,
    false,
    null
  ],
  "int": -42,
  "negative": -0.10000000000000001,
  "subnormal": 4.9406564584124654e-324,
  "huge": 1.0000000000000001e+300,
  "quote\"back\\slash\ttab\n": "line\nbreak",
  "caf\u00e9 \u2713": "na\u00efve \u03c0 \ud835\udf0b",
  "np": 0.33333333333333331
}
"""


def test_pinned_bytes():
    # Every CLI report goes through dumps, so its exact text is pinned here:
    # indentation, separators, escapes and the 17-digit float format.
    assert jsonio.dumps(PINNED_DOC) == PINNED_TEXT


json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@given(json_docs)
def test_round_trip_property(doc):
    assert json.loads(jsonio.dumps(doc)) == doc
