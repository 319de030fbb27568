"""The one ramify/1 encoder and the records it renders."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramify.extension import ASExtension, RamificationType
from ramify.fields import FieldSpec
from ramify.invariants import CheckResult, InvariantReport, build_report
from ramify.records import dumps, encode
from ramify.selftest import CriterionResult
from ramify.series import Cut, LaurentSeries, ValueGroup
from ramify.tower import TowerLevel, TowerSpec, tower_report

F3 = FieldSpec.finite(3)


def test_encoding_rules():
    z = ValueGroup.discrete(1)
    series = LaurentSeries.monomial(F3, -2, 2, 4)
    assert encode(Fraction(-3, 6)) == "-1/2"
    assert encode(Cut.at_least(2, z)) == {"value": "2/1", "bound": "closed"}
    assert encode(Cut.above(Fraction(1, 2), ValueGroup.z_one_over_p(3))) == {
        "value": "1/2", "bound": "open",
    }
    assert encode(RamificationType.WILD) == "wild"
    assert encode(series) == str(series)
    assert encode({"a": [Fraction(1), None, True, 3, "s"]}) == {"a": ["1/1", None, True, 3, "s"]}
    level = TowerLevel(0, 2, 0, Fraction(1), Fraction(1, 3), Fraction(2))
    assert encode([level]) == [{"index": 0, "n_i": 2, "shift": 0, "v_x": "1/1",
                               "v_y": "1/3", "neg_v_f": "2/1"}]
    with pytest.raises(TypeError):
        encode(F3)


def test_records_keep_their_own_json_shape():
    check = CheckResult("c", False, {"bound": Cut.at_least(0, ValueGroup.discrete(1))})
    assert check.to_json() == {"ok": False, "bound": {"value": "0/1", "bound": "closed"}}
    report = InvariantReport(Fraction(0), None, RamificationType.TRIVIAL, {"c": check})
    assert encode(report)["checks"] == {"c": check.to_json()}
    assert CriterionResult(3, "x", True).to_json() == {"id": 3, "name": "x", "ok": True, "detail": ""}


def test_reports_are_immutable_records():
    ext = ASExtension(F3, LaurentSeries.monomial(F3, -2, 1, 32))
    report = build_report(ext)
    with pytest.raises(AttributeError):
        report.e = 1
    tower = tower_report(TowerSpec(FieldSpec.finite(3, 2), 2, 3))
    assert tower.to_json()["q"] == 9 and tower.best_f_exists is tower.j_cut.closed


# str values and keys with quotes, backslashes, control and non-ASCII
# characters (astral ones are written as surrogate pairs)
texts = st.text() | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\n\t\r", "\x7f", "é", "ñ\u2028", "\U0001f600", ""]
)
scalars = (
    st.none() | st.booleans() | texts
    | st.integers() | st.integers(min_value=2 ** 64) | st.integers(max_value=-(2 ** 64))
)
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_dumps_is_json_dumps_with_indent_two_and_sorted_keys(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_writes_empty_containers_and_plain_values():
    value = {"b": [], "a": {}, "c": [{}, [], None, True, False, -(10 ** 30), "q\"\\"]}
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)
    for scalar in ({}, [], None, True, 0, "x"):
        assert dumps(scalar) == json.dumps(scalar, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {"a": 0.5}, [float("nan")], {1: "a"}, {"a": {2: []}}])
def test_dumps_refuses_floats_and_keys_other_than_str(value):
    with pytest.raises(TypeError):
        dumps(value)
