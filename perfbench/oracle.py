"""Closed-form answers for every generated configuration.

``check`` compares one CLI result with what the generator knows about
its input and returns the list of mismatches; an empty list means the
output is correct.  Cuts are compared as the JSON the CLI prints:
``{"value": "num/den", "bound": "closed"|"open"}``.
"""

from __future__ import annotations

import json
from fractions import Fraction


def _frac(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _cut(value, closed=True):
    return {"value": _frac(value), "bound": "closed" if closed else "open"}


def analyze_answer(p, n, classification):
    """The invariants of an extension whose best representative has a
    pole of order n: wild when p does not divide n, ferocious when it
    does and the residue is not a p-th power."""
    n = Fraction(n)
    if classification == "wild":
        different = Fraction(p - 1) * (n + 1) / p
        e, f_inertia = p, 1
    else:
        different = Fraction(p - 1) * n / p
        e, f_inertia = 1, p
    return {
        "swan": _frac(n),
        "classification": classification,
        "e": e,
        "f_inertia": f_inertia,
        "h": _cut(n),
        "n_of_j": _cut(n),
        "j_sigma": _cut(n / p),
        "different": _cut(different),
    }


def tower_answer(p, n, depth):
    """Levels n_i = p^i n - (p^i - 1)/(p - 1) and the open limit cuts
    J = {v > v_0}, H = {v > p v_0} with v_0 = (n - 1/(p-1))/p."""
    v0 = (n - Fraction(1, p - 1)) / p
    return {
        "n_i": [p ** i * n - (p ** i - 1) // (p - 1) for i in range(depth + 1)],
        "j_cut": _cut(v0, closed=False),
        "h_cut": _cut(p * v0, closed=False),
    }


def _same_series(text_a, text_b, field_spec, prec):
    from ramify.errors import RamifyError
    from ramify.parsing import parse_field_spec, parse_series

    field = parse_field_spec(field_spec)
    try:
        return parse_series(text_a, field, prec) == parse_series(text_b, field, prec)
    except RamifyError:
        return False


def _check_analyze(config, payload):
    expect = config["expect"]
    want = analyze_answer(expect["p"], expect["n"], expect["classification"])
    report = payload.get("report", {})
    problems = [
        f"{key}: got {report.get(key)!r}, want {value!r}"
        for key, value in want.items()
        if report.get(key) != value
    ]
    if payload.get("pass") is not True:
        problems.append("pass is not true")
    failing = [name for name, c in report.get("checks", {}).items() if not c.get("ok")]
    if failing:
        problems.append(f"failing checks: {failing}")
    if not _same_series(payload.get("f_best", ""), expect["f_best"], config["field"], config["prec"]):
        problems.append(f"f_best: got {payload.get('f_best')!r}, want {expect['f_best']!r}")
    return problems


def _check_tower(config, payload):
    expect = config["expect"]
    want = tower_answer(expect["p"], expect["n"], expect["depth"])
    problems = []
    got_n = [lv.get("n_i") for lv in payload.get("levels", [])]
    if got_n != want["n_i"]:
        problems.append(f"n_i: got {got_n}, want {want['n_i']}")
    report = payload.get("report", {})
    for key in ("j_cut", "h_cut"):
        if report.get(key) != want[key]:
            problems.append(f"{key}: got {report.get(key)!r}, want {want[key]!r}")
    identity = payload.get("step_identity", {})
    if identity.get("ok") is not True or identity.get("trials") != expect["trials"]:
        problems.append(f"step identity: {identity!r}")
    if payload.get("pass") is not True:
        problems.append("pass is not true")
    return problems


def check(config, code, text):
    """Mismatches between one CLI result and the closed-form answer."""
    if code != 0:
        return [f"exit code {code}: {text[:200]}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"output is not JSON: {text[:200]!r}"]
    if payload.get("schema") != "ramify/1" or payload.get("command") != config["kind"]:
        return [f"unexpected schema/command: {payload.get('schema')!r} {payload.get('command')!r}"]
    if config["kind"] == "analyze":
        return _check_analyze(config, payload)
    return _check_tower(config, payload)
