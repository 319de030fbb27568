"""The README's library example runs and shows the values its comments
state, so the documentation cannot drift from the code."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The lines of the first python block under "## Library"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_readme_library_example_states_its_values():
    namespace = {}
    stated = {}
    for line in library_block():
        code, sep, comment = line.partition("  # ")
        if sep:
            stated[code.strip()] = (comment, eval(code, namespace))
        else:
            exec(line, namespace)
    assert {code: comment for code, (comment, _) in stated.items()} == {
        "ext.swan": "Fraction(2)",
        "ext.alpha().norm()": "t^-2, the defining series",
        "ext.alpha().valuation()": "Fraction(-2, 3), in v_K units",
        "F3.from_int(2) * ext.alpha()": "<L| (2)*a>: a scalar is a constant of K",
        "report.different": "{v >= 2}",
        "report.all_checks_pass()": "True",
    }
    values = {code: value for code, (_, value) in stated.items()}
    assert values["ext.swan"] == Fraction(2)
    assert str(values["ext.alpha().norm()"]) == "t^-2"
    assert values["ext.alpha().valuation()"] == Fraction(-2, 3)
    assert repr(values["F3.from_int(2) * ext.alpha()"]) == "<L| (2)*a>"
    assert repr(values["report.different"]) == "{v >= 2}"
    assert values["report.all_checks_pass()"] is True
