"""The JSON encoding of the ``ramify/1`` schema.

Every result the library reports (a report, a check, a criterion) is an
immutable ``typing.NamedTuple`` record.  ``json.dumps`` would write a
record as an array, so each goes through ``encode`` first: its
``to_json`` is ``encode``, or a short method that reshapes what
``encode`` gives.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction


def encode(x):
    """The one encoder of the ``ramify/1`` schema.

    A Fraction becomes ``"num/den"``, a Cut ``{"value", "bound"}``, an
    Enum its value and a LaurentSeries its text.  A record becomes the
    dict of its encoded fields, unless its class binds a ``to_json`` of
    its own; dicts, lists and tuples are encoded item by item, and None,
    bool, int and str pass through.
    """
    from .series import Cut, LaurentSeries  # series imports fields, which imports this module

    if isinstance(x, tuple) and hasattr(x, "_fields"):
        if getattr(type(x), "to_json", encode) is not encode:
            return x.to_json()
        return {name: encode(v) for name, v in zip(x._fields, x)}
    if isinstance(x, dict):
        return {k: encode(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Cut):
        return {"value": encode(x.value), "bound": "closed" if x.closed else "open"}
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, LaurentSeries):
        return str(x)
    if x is None or isinstance(x, (bool, int, str)):
        return x
    raise TypeError(f"no ramify/1 encoding for {type(x).__name__}")
