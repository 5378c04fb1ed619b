"""Deterministic JSON emission: fixed key order, floats at 17 significant digits.

The stock ``json`` module formats floats with ``repr``, whose digit count
varies by value; reports here must be byte-identical across runs and
platforms, so this tiny serializer pins the float format instead.  Input keys
are emitted in insertion order; NaN and infinities are rejected.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps(str)'s quoting


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value} not representable")
    return format(value, ".17g")


def _emit(value, pieces: list[str], pad: str) -> None:
    # Floats are most of every document, so they are tested first.
    if isinstance(value, float):
        pieces.append(format_float(value))
    elif value is None:
        pieces.append("null")
    elif value is True:
        pieces.append("true")
    elif value is False:
        pieces.append("false")
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        inner = pad + "  "
        pieces.append("{\n")
        for key, item in value.items():
            pieces.append(f"{inner}{_quote(str(key))}: ")
            _emit(item, pieces, inner)
            pieces.append(",\n")
        pieces[-1] = "\n"  # no comma after the last member
        pieces.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        inner = pad + "  "
        pieces.append("[\n")
        for item in value:
            pieces.append(inner)
            _emit(item, pieces, inner)
            pieces.append(",\n")
        pieces[-1] = "\n"  # no comma after the last element
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Serialize to pretty-printed JSON text with a trailing newline."""
    pieces: list[str] = []
    _emit(value, pieces, "")
    return "".join(pieces) + "\n"
