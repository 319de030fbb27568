"""Golden-output regression: the JSON and text reports of fixed command
lines.

``tests/data/golden.json`` holds the exit code and stdout of each case
below, and the file a ``--csv`` case writes.  Any change to the
arithmetic core or to the report encoding must leave them byte-identical.
To re-record after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ramify.cli import main

DATA = Path(__file__).parent / "data" / "golden.json"
# stands for a temporary --csv path in a case's argv
CSV = "<csv>"


def _analyze(field, f, prec=24, trials=2, seed=11, fmt="json"):
    return ["analyze", "--field", field, "--f", f, "--prec", str(prec),
            "--trials", str(trials), "--seed", str(seed), "--format", fmt]


def _tower(p, n, q, trials=40, seed=5, fmt="json"):
    return ["tower", "--p", str(p), "--n", str(n), "--q", str(q), "--depth", "6",
            "--trials", str(trials), "--seed", str(seed), "--format", fmt]


# Each analyze series is f_best plus an h^p - h the reduction must undo.
CASES = {
    "analyze-F2": _analyze("Fp:2", "t^-7 + t^-3 + t^-4 - t^-2 + t^3"),
    "analyze-F3": _analyze("Fp:3", "2*t^-5 + t^-1 + t^-6 - t^-2 + 2*t^4"),
    "analyze-F4": _analyze("Fq:4", "(w+1)*t^-3 + w*t^-1 + (w+1)^2*t^-4 - (w+1)*t^-2 + w*t^5"),
    "analyze-F8": _analyze("Fq:8", "(w^2+1)*t^-5 + (w)^2*t^-2 - w*t^-1 + (w^2+w)*t"),
    "analyze-F9": _analyze("Fq:9", "(2*w+1)*t^-4 + w*t^-1 + (w+2)^3*t^-3 - (w+2)*t^-1 + t^2"),
    "analyze-F25": _analyze("Fq:25", "(3*w+2)*t^-2 + (w+1)*t^-1 + (2*w)^5*t^-5 - 2*w*t^-1 + w*t^3"),
    "analyze-F5": _analyze("Fp:5", "3*t^-4 + 2*t^-1 + t^-5 - t^-1 + 4*t^2", prec=28, trials=1),
    "analyze-F2u": _analyze("Fp(u):2", "u*t^-6 + t^-3 + (u+1)^2*t^-2 - (u+1)*t^-1 + u*t"),
    "analyze-F3u": _analyze("Fp(u):3", "(u+1)*t^-3 + 2*t^-1 + u^3*t^-6 - u*t^-2 + t^2"),
    # F_p(u) coefficients with nontrivial denominators
    "analyze-F2u-rational": _analyze(
        "Fp(u):2", "(u^2/(u+1))*t^-6+(1/u)*t^-1+(u+1)^2*t^-2-(u+1)*t^-1+u*t", fmt="text"),
    "analyze-F3u-rational": _analyze(
        "Fp(u):3", "(u/(u^2+1))*t^-3+(2/(u+2))*t^-1+t^2", trials=1),
    "tower-q4": _tower(2, 5, 4),
    "tower-q9": _tower(3, 2, 9),
    "tower-q27": _tower(3, 4, 27),
    "tower-q49": _tower(7, 3, 49),
    "tower-q125": _tower(5, 7, 125),
    # trivial (most report fields None) and unramified reports
    "analyze-F2-trivial": _analyze("Fp:2", "t"),
    "analyze-F2-trivial-text": _analyze("Fp:2", "t", fmt="text"),
    "analyze-F2-unramified": _analyze("Fp:2", "1 + t"),
    "analyze-F2-unramified-text": _analyze("Fp:2", "1 + t", fmt="text"),
    "analyze-F3-text": _analyze("Fp:3", "2*t^-5 + t^-1 + t^-6 - t^-2 + 2*t^4", fmt="text"),
    "tower-q9-text-csv": _tower(3, 2, 9, fmt="text") + ["--csv", CSV],
    # p = 7: the O(2^p p) norm and the discriminant of the trace form;
    # then two low precisions that suffice
    "analyze-F7": _analyze("Fp:7", "t^-1", prec=36, trials=1),
    "analyze-F7-prec12": ["analyze", "--field", "Fp:7", "--f", "t^-1",
                          "--prec", "12", "--trials", "1", "--seed", "1"],
    "analyze-F7-prec1": ["analyze", "--field", "Fp:7", "--f", "t^-1",
                         "--prec", "1", "--trials", "1", "--seed", "1"],
    # --prec below the Swan conductor 5: the report reads the exact
    # principal part t^-5, so it is the report at any --prec
    "analyze-F2-prec4": ["analyze", "--field", "Fp:2", "--f", "t^-5",
                         "--prec", "4", "--trials", "1", "--seed", "1"],
}


def run(argv):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "levels.csv"
        with contextlib.redirect_stdout(out):
            code = main([str(csv) if a == CSV else a for a in argv])
        result = {"argv": argv, "exit": code, "stdout": out.getvalue()}
        if CSV in argv:
            result["csv"] = csv.read_text()
    return result


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden):
    expected = golden[name]
    assert expected["argv"] == CASES[name]
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    recorded = {name: run(argv) for name, argv in sorted(CASES.items())}
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
