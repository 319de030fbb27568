"""The JSON encoding and the JSON text of the ``ramify/1`` schema.

Every result the library reports (a report, a check, a criterion) is an
immutable ``typing.NamedTuple`` record.  A JSON encoder would write a
record as an array, so each goes through ``encode`` first, which makes
it the dict of its fields, or calls the ``to_json`` its class binds: a
short method that reshapes what ``encode`` gives, or ``encode`` itself.
``dumps`` then writes the encoded value as text, the one writer of
every JSON document the command line prints.  This module imports
``series``, so ``fields`` (below ``series``) binds no ``to_json``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .series import Cut, LaurentSeries

_PLAIN = frozenset((str, int, bool, type(None)))


def encode(x):
    """The one encoder of the ``ramify/1`` schema.

    A Fraction becomes ``"num/den"``, a Cut ``{"value", "bound"}``, an
    Enum its value and a LaurentSeries its text.  A record becomes the
    dict of its encoded fields, unless its class binds a ``to_json`` of
    its own; dicts, lists and tuples are encoded item by item, and None,
    bool, int and str pass through.  The exact type is tried first; an
    instance of a subclass is encoded only as a record, dict, list,
    tuple or Enum.
    """
    t = type(x)
    if t in _PLAIN:
        return x
    if t is Fraction:
        return f"{x.numerator}/{x.denominator}"
    if t is Cut:
        return {"value": encode(x.value), "bound": "closed" if x.closed else "open"}
    if t is LaurentSeries:
        return str(x)
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, tuple) and hasattr(t, "_fields"):
        if getattr(t, "to_json", encode) is not encode:
            return x.to_json()
        return {name: encode(v) for name, v in zip(t._fields, x)}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, Enum):
        return x.value
    raise TypeError(f"no ramify/1 encoding for {t.__name__}")


def dumps(x):
    """The text of x that the standard ``json`` module writes with an
    indent of 2 and sorted keys, byte for byte, for what ``encode``
    returns: dicts with str keys, lists, str, int, bool and None.
    Anything else raises TypeError."""
    out = []
    _write(x, "\n", out.append)
    return "".join(out)


def _write(x, newline, out):
    """Append the text of x to ``out``; ``newline`` is the line break
    and indent of the level x is written at."""
    t = type(x)
    if t is str:
        out(_quote(x))
    elif t is dict:
        if not x:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(x):
            if type(k) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
            out(sep + _quote(k) + ": ")
            _write(x[k], inner, out)
            sep = "," + inner
        out(newline + "}")
    elif t is list:
        if not x:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in x:
            out(sep)
            _write(v, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif x is None:
        out("null")
    elif x is True:
        out("true")
    elif x is False:
        out("false")
    elif t is int:
        out(str(x))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
