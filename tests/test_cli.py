import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ramify.cli import main, make_parser
from ramify.errors import FieldLiteralError, InvalidSpec, ParseError
from ramify.extension import P_LIMIT, SIZE_LIMIT, ASExtension
from ramify.fields import FieldSpec
from ramify.parsing import (
    NESTING_LIMIT,
    PREC_LIMIT,
    _tokenize,
    factor_prime_power,
    parse_field_spec,
    parse_series,
)

from oracles import random_series, stepwise_tokenize


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_canonical_json(text):
    """text is exactly what json.dumps(indent=2, sort_keys=True) writes
    for the value it encodes."""
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


# -- parsing ------------------------------------------------------------------


def test_parse_series_examples():
    f2u = parse_field_spec("Fp(u):2")
    s = parse_series("t^-4 + u*t^-2", f2u, 8)
    assert s.support() == [-4, -2]
    assert s.prec == 8
    f3 = parse_field_spec("Fp:3")
    assert parse_series("2*t^-1", f3, 8).coeffs == {-1: f3.from_int(2)}


def test_parse_series_error_position():
    f3 = parse_field_spec("Fp:3")
    with pytest.raises(ParseError) as err:
        parse_series("t^", f3, 8)
    assert err.value.position == 2


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--field", "Fp:3", "--f", "t^-1 + $"], "unexpected character '$' (at offset 7)"),
    (["analyze", "--field", "Fq:9:w^2 + 1 $", "--f", "t^-1"],
     "unexpected character '$' (at offset 8)"),
], ids=["series", "modulus"])
def test_a_bad_character_is_named_at_its_own_offset(argv, message, capsys):
    # the offset is the bad character's, not that of the space before it
    assert run_cli(argv, capsys) == (2, f"error: {message}\n")


@given(st.text(alphabet="tuw_x09+-*/^() \t\n\x0b\x1c\u2003$.,=é٣", max_size=24))
@settings(max_examples=400, deadline=None)
def test_one_pass_tokens_match_the_stepwise_tokenizer(text):
    """The same tokens as one match per token; where that raised at the
    whitespace before a bad character, one pass names the character at
    its own offset."""
    try:
        want = stepwise_tokenize(text)
    except ParseError as err:
        bad = len(text) - len(text[err.position:].lstrip())
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert got.value.position == bad
        assert str(got.value) == f"unexpected character {text[bad]!r} (at offset {bad})"
        return
    assert _tokenize(text) == want


def test_parse_field_literal_error():
    f3 = parse_field_spec("Fp:3")
    with pytest.raises(FieldLiteralError):
        parse_series("u*t^-2", f3, 8)


def test_parse_field_specs():
    assert parse_field_spec("Fp:5").order == 5
    f9 = parse_field_spec("Fq:9:w^2+1")
    assert f9.order == 9 and f9.degree == 2
    f3u = parse_field_spec("Fp(u):3")
    assert not f3u.is_finite and f3u.var == "u"
    with pytest.raises(InvalidSpec):
        parse_field_spec("Fq:12:w^2+1")
    with pytest.raises(ParseError):
        parse_field_spec("nonsense")
    with pytest.raises(InvalidSpec):
        parse_field_spec("Fq:4:w^2+1")  # reducible modulus over F_2
    assert parse_field_spec("Fq:27:a^3+2*a+2") == FieldSpec.finite(3, 3, (2, 2, 0, 1), var="a")
    with pytest.raises(ParseError):
        parse_field_spec("Fq:9:w^2+")  # a dangling '+'
    for spec in ("Fq:5:w^7", "Fq:7:w^2+1"):  # a modulus of degree other than m
        with pytest.raises(InvalidSpec):
            parse_field_spec(spec)


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(64) == (2, 6)
    assert factor_prime_power(1000000007) == (1000000007, 1)
    assert factor_prime_power(2 ** 63) == (2, 63)
    assert factor_prime_power(18446744073709551557) == (18446744073709551557, 1)  # < 2^64
    for q in (0, 1, 12, 1000000014):
        with pytest.raises(InvalidSpec):
            factor_prime_power(q)
    assert parse_field_spec("Fq:1000000007") == FieldSpec.finite(1000000007)
    with pytest.raises(InvalidSpec):
        parse_field_spec("Fq:1000000014")
    assert parse_field_spec("Fq:18446744073709551557").order == 18446744073709551557


def test_huge_field_order_exits_two_at_once(capsys):
    start = time.perf_counter()
    code, out = run_cli(
        ["analyze", "--field", "Fq:1000000000000000000000000000057", "--f", "t^-1"], capsys
    )
    assert code == 2 and out.startswith("error: ")
    assert time.perf_counter() - start < 1.0
    for q in (2 ** 64, 10 ** 30 + 57):
        with pytest.raises(InvalidSpec):
            factor_prime_power(q)


def test_large_characteristic_exits_two_at_once(capsys):
    # beyond P_LIMIT an extension is refused before any arithmetic: a
    # product in L costs p^2 dots, far too many at p = 1009 and just
    # below 2^64
    for p in (101, 1009, 18446744073709551557):
        start = time.perf_counter()
        code, out = run_cli(
            ["analyze", "--field", f"Fp:{p}", "--f", "t^-1", "--prec", "2", "--trials", "1"],
            capsys,
        )
        assert code == 2 and out.startswith("error: ") and f"above the limit {P_LIMIT}" in out
        assert time.perf_counter() - start < 1.0
    # the bound is the extension's: the field itself keeps a large p
    big = FieldSpec.finite(2 ** 61 - 1)
    with pytest.raises(InvalidSpec):
        ASExtension(big, parse_series("t^-1", big, 2))
    top = FieldSpec.finite(P_LIMIT)
    assert ASExtension(top, parse_series("t^-1", top, 2)).swan == 1


def test_swan_conductor_above_the_limit_exits_two_at_once(capsys):
    # a report costs about (p * swan)^2, so an unbounded pole order would
    # run until it is killed; the bound is SIZE_LIMIT // p on the reduced
    # pole order, wild or ferocious, and above p = 61 it refuses every
    # ferocious extension, whose Swan conductor is at least p
    for field, f in (
        ("Fp:2", f"t^-{SIZE_LIMIT // 2 + 1}"),
        ("Fp:2", "t^-999999999999"),
        ("Fp(u):2", f"u*t^-{SIZE_LIMIT // 2 + 2}"),
        ("Fp:97", "t^-42 + t^-41"),
        ("Fp(u):67", "u*t^-67"),
    ):
        p = int(field.split(":")[1])
        start = time.perf_counter()
        code, out = run_cli(["analyze", "--field", field, "--f", f, "--prec", "8"], capsys)
        assert code == 2 and out.startswith("error: ")
        assert f"above the limit {SIZE_LIMIT // p} at p = {p}" in out
        assert time.perf_counter() - start < 1.0
    # t^-(2^40) over F_2 reduces to t^-1, not refused for its literal
    code, out = run_cli(["analyze", "--field", "Fp:2", "--f", "t^-1099511627776", "--prec", "8"],
                        capsys)
    assert code == 0 and "best f:         t^-1\n" in out
    for p, f in ((3, f"t^-{SIZE_LIMIT // 3}"), (97, "t^-41 + t^-40")):
        field = FieldSpec.finite(p)
        assert ASExtension(field, parse_series(f, field, 2)).swan == SIZE_LIMIT // p
    fpu = FieldSpec.rational(61)
    assert ASExtension(fpu, parse_series("u*t^-61", fpu, 2)).swan == 61


def test_precision_above_the_limit_exits_two_at_once(capsys):
    # a series inverse holds one slot per known term, so an unbounded
    # --prec such as 99999999999 would run out of memory before it ends
    f2 = FieldSpec.finite(2)
    assert parse_series("t^-1", f2, PREC_LIMIT).prec == PREC_LIMIT
    for prec in (PREC_LIMIT + 1, 99999999999):
        with pytest.raises(ParseError):
            parse_series("t^-1", f2, prec)
        start = time.perf_counter()
        code, out = run_cli(
            ["analyze", "--field", "Fp:2", "--f", "t^-1", "--prec", str(prec), "--trials", "1"],
            capsys,
        )
        assert code == 2 and out.startswith("error: ") and f"above the limit {PREC_LIMIT}" in out
        assert time.perf_counter() - start < 1.0


def nested(depth, core):
    return "(" * depth + core + ")" * depth


def test_parenthesis_nesting_is_capped(capsys):
    f2u = parse_field_spec("Fp(u):2")
    deepest = nested(NESTING_LIMIT, "u") + "*t^-2"
    assert parse_series(deepest, f2u, 8) == parse_series("u*t^-2", f2u, 8)
    argv = ["analyze", "--field", "Fp(u):2", "--prec", "8", "--trials", "1"]
    assert run_cli(argv + ["--f", deepest], capsys)[0] == 0
    for depth in (NESTING_LIMIT + 1, 600):
        too_deep = nested(depth, "u") + "*t^-2"
        with pytest.raises(ParseError) as err:
            parse_series(too_deep, f2u, 8)
        assert err.value.position == NESTING_LIMIT
        code, out = run_cli(argv + ["--f", too_deep], capsys)
        assert code == 2 and out.startswith("error: ")
    # the modulus is read by the same coefficient grammar
    modulus = "Fq:4:" + nested(1000, "w^2+w+1")
    code, out = run_cli(["analyze", "--field", modulus, "--f", "t^-1", "--prec", "8"], capsys)
    assert code == 2 and out.startswith("error: ")


def test_parse_print_roundtrip_random():
    for field in (FieldSpec.finite(3), FieldSpec.rational(3), FieldSpec.finite(3, 2)):
        rng = random.Random(17)
        for _ in range(25):
            s = random_series(field, rng, -5, 5, 12)
            if s.is_zero_known():
                continue
            assert parse_series(str(s), field, 12) == s


# -- analyze ------------------------------------------------------------------


def test_analyze_wild_example(capsys):
    code, out = run_cli(
        ["analyze", "--field", "Fp:2", "--f", "t^-4", "--prec", "8"], capsys
    )
    assert code == 0
    assert "swan:           1/1" in out
    assert "classification: wild" in out
    assert "FAIL" not in out


def test_analyze_ferocious_json(capsys):
    code, out = run_cli(
        ["analyze", "--field", "Fp(u):2", "--f", "u*t^-2", "--prec", "8",
         "--format", "json", "--trials", "20"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "ramify/1"
    assert data["f_best"] == "u*t^-2"
    report = data["report"]
    assert report["swan"] == "2/1"
    assert report["classification"] == "ferocious"
    assert report["rsw"]["du"] == "1/u"
    assert data["pass"] is True


def test_analyze_unramified_exit_zero(capsys):
    code, out = run_cli(
        ["analyze", "--field", "Fp:3", "--f", "1 + t", "--prec", "4"], capsys
    )
    assert code == 0
    assert "swan:           0/1" in out


def test_analyze_bad_input_exit_two(capsys):
    code, _ = run_cli(["analyze", "--field", "Fp:3", "--f", "t^", "--prec", "4"], capsys)
    assert code == 2
    code, _ = run_cli(["analyze", "--field", "Zp:3", "--f", "t", "--prec", "4"], capsys)
    assert code == 2


def test_analyze_below_the_swan_conductor_prints_the_report_of_the_extension(capsys):
    # --prec 4 is below the Swan conductor 5, but a report reads the exact
    # principal part t^-5, so it is the --prec 120 report, echoes included
    argv = ["analyze", "--field", "Fp:2", "--f", "t^-5", "--prec", "4", "--trials", "5"]
    code, out = run_cli(argv, capsys)
    assert code == 0, out
    assert (code, out) == run_cli(argv[:6] + ["120"] + argv[7:], capsys)
    assert "rsw:            (1)*dlog t  (mod {v >= 3})" in out.splitlines()


def test_l_arithmetic_keeps_the_precision_its_operands_determine(capsys):
    # each of three cuts alone makes this run exit 3, a check needing a
    # series known further than it was: product and sample coordinates
    # at f's precision, and conjugate coordinates at the least precision
    # of all coordinates
    code, out = run_cli(
        ["analyze", "--field", "Fp:2", "--f", "t^-1", "--prec", "2", "--trials", "1"], capsys
    )
    assert code == 0, out
    assert "check different_vs_trace_dual: pass" in out


@pytest.mark.parametrize("field, f, prec, seed", [
    ("Fp:5", "t^-2", 10, 0),
    ("Fp:5", "t^-2", 10, 1),
    ("Fp:5", "t^-2", 10, 2),
    ("Fp:3", "t^-2", 6, 2),
    ("Fp:3", "t^-2", 6, 3),
])
def test_unit_inverses_keep_the_precision_of_the_norm(field, f, prec, seed, capsys):
    # the multiplicative product rule inverts sampled units; an inverse
    # known less far than the norm's minors makes these runs exit 3
    code, out = run_cli(
        ["analyze", "--field", field, "--f", f, "--prec", str(prec),
         "--trials", "1", "--seed", str(seed)],
        capsys,
    )
    assert code == 0, out


def test_analyze_determinism(capsys):
    argv = ["analyze", "--field", "Fp:3", "--f", "t^-2", "--prec", "16",
            "--format", "json", "--trials", "15", "--seed", "7"]
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


# -- tower --------------------------------------------------------------------


def test_tower_text(capsys):
    code, out = run_cli(["tower", "--p", "3", "--n", "2", "--q", "9", "--depth", "5"], capsys)
    assert code == 0
    assert "H   = {v > 3/2}" in out
    assert "step identity: pass" in out


def test_tower_rejects_bad_spec(capsys):
    code, _ = run_cli(["tower", "--p", "2", "--n", "1", "--q", "4", "--depth", "5"], capsys)
    assert code == 2
    code, _ = run_cli(["tower", "--p", "2", "--n", "3", "--q", "9", "--depth", "5"], capsys)
    assert code == 2
    code, _ = run_cli(["tower", "--p", "2", "--n", "3", "--q", "2", "--depth", "5"], capsys)
    assert code == 2
    # no built-in modulus for this order
    code, _ = run_cli(["tower", "--p", "2", "--n", "3", "--q", "32", "--depth", "5"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["tower", "--p", "5", "--n", "2", "--q", "25", "--depth", "6300", "--trials", "1"],
    ["tower", "--p", "5", "--n", "1" * 4200, "--q", "25", "--depth", "200"],
    # 4,299 digits: n and 3np - 1 print, T''s numerator 36n - 7 would not
    ["tower", "--p", "7", "--n", str(3 * 10 ** 4298 + 2), "--q", "49", "--depth", "0"],
])
def test_a_tower_too_wide_to_print_exits_two_at_once(argv, tmp_path, capsys):
    """Python refuses to print an int of over 4,300 digits, so a tower
    whose output would hold one exits 2 before any work, with no
    traceback."""
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{GOOD_LINE}\n{shlex.join(argv)}\n")
    start = time.perf_counter()
    code, out = run_cli(argv, capsys)
    assert code == 2 and out.startswith("error: ") and "Python's limit for printing an int" in out
    code, out = run_cli(["--batch", str(batch)], capsys)
    assert code == 2 and [run["exit"] for run in json.loads(out)["runs"]] == [0, 2]
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == ""


def test_tower_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "levels.csv"
    code, out = run_cli(
        ["tower", "--p", "2", "--n", "3", "--q", "4", "--depth", "4",
         "--format", "json", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["report"]["v_0"] == "1/1"
    assert len(data["levels"]) == 5
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,n_i,shift,v_x,v_y,neg_v_f"
    assert len(lines) == 6


# -- invalid input ----------------------------------------------------------------

GOOD_LINE = "analyze --field Fp:2 --f t^-1 --prec 12 --trials 2 --format json"


@pytest.mark.parametrize(
    "line",
    [
        "analyze --field Fp:4 --f t^-1 --prec 8",
        "analyze --field Fp(u):4 --f t^-1 --prec 8",
        "tower --p 3 --n 2 --q 9 --trials 0",
        "analyze --field Fp:3 --f t^-2 --prec 16 --trials 0",
        "analyze --field Fp:3 --prec 8",  # argparse: --f is missing
        "--batch {batch} --out",
        "tower --p 3 --n 2 --q 9 --depth 3 --csv {missing}/levels.csv",  # unwritable
    ],
)
def test_bad_input_exits_two_and_batch_goes_on(line, tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    line = line.format(batch=batch, missing=tmp_path / "missing")
    batch.write_text(f"{GOOD_LINE}\n{line}\n{GOOD_LINE}\n")
    assert main(shlex.split(line)) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("error: ") and captured.err == ""
    code, out = run_cli(["--batch", str(batch)], capsys)
    data = json.loads(out)
    assert data["schema"] == "ramify/1"
    assert [run["exit"] for run in data["runs"]] == [0, 2, 0]
    assert data["runs"][1]["config"] == line
    assert data["runs"][1]["output"].startswith("error: ")
    assert code == 2


def test_batch_line_with_an_unclosed_quote(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(f"{GOOD_LINE}\nanalyze --field Fp:2 --f 't^-1\n{GOOD_LINE}\n")
    code, out = run_cli(["--batch", str(batch)], capsys)
    assert capsys.readouterr().err == ""
    data = json.loads(out)
    assert [run["exit"] for run in data["runs"]] == [0, 2, 0]
    assert data["runs"][1]["output"].startswith("error: ")
    assert code == 2


def test_unwritable_out_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    batch = tmp_path / "batch.txt"
    batch.write_text(GOOD_LINE + "\n")
    for argv in (
        ["analyze", "--field", "Fp:2", "--f", "t^-1", "--prec", "12", "--trials", "2",
         "--out", str(missing)],
        ["--batch", str(batch), "--out", str(missing)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("error: cannot write ") and captured.err == ""


def test_batch_takes_no_other_arguments(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(GOOD_LINE + "\n")
    code, out = run_cli(["--batch", str(batch), "analyze", "--field", "Fp:2"], capsys)
    assert code == 2 and out.startswith("error: ")
    code, out = run_cli(["--batch", str(tmp_path / "missing.txt")], capsys)
    assert code == 2 and out.startswith("error: ")


# -- fuzz of the whole command line -------------------------------------------------

# valid fields (p <= 5, so that each fuzzed report stays cheap) with
# their variable, and specs the parser must reject
VALID_FIELDS = [
    ("Fp:2", None), ("Fp:3", None), ("Fp:5", None), ("Fq:4", "w"),
    ("Fq:9:w^2+1", "w"), ("Fp(u):2", "u"), ("Fp(u):3", "u"),
]
INVALID_FIELDS = [
    ("Fp:4", None), ("Fp:1", None), ("Fp(u):4", "u"), ("Fq:6", None),
    ("Fq:4:w^2+1", "w"), ("Fq:1000000014", None), ("Zp:3", None), ("", None),
    ("Fq:9:w^2+", "w"), ("Fq:5:w^7", "w"), ("Fq:7:w^2+1", "w"),
]
BAD_TERMS = [
    "t^", "(", "t^-", "", "*t", "1/0*t", "x*t", "0*t^-2", "t^-2*u", "w^-1*t",
    nested(600, "1") + "*t",
]


@st.composite
def analyze_argv(draw):
    field, var = draw(st.sampled_from(VALID_FIELDS * 3 + INVALID_FIELDS))
    coeffs = ["", "2*", "(-1)*"]
    if var:
        coeffs += [f"{var}*", f"({var}+1)*", f"{var}^2/({var}+1)*"]
    terms = draw(st.lists(
        st.builds("{}t^{}".format, st.sampled_from(coeffs), st.integers(-6, 3)),
        min_size=1, max_size=3,
    ))
    if draw(st.integers(0, 4)) == 0:
        terms.insert(draw(st.integers(0, len(terms))), draw(st.sampled_from(BAD_TERMS)))
    f = " + ".join(terms)
    return [
        "analyze", "--field", field, "--f", f,
        "--prec", str(draw(st.integers(0, 12))),
        "--trials", str(draw(st.sampled_from([0, 1, 1, 2, 2]))),
        "--seed", str(draw(st.integers(0, 99))),
        "--format", draw(st.sampled_from(["json", "text"])),
    ]


def _main_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(analyze_argv())
def test_fuzz_main_single(argv):
    code, out = _main_quietly(argv)
    # a report reads the exact principal part, so no --prec >= 1 exits 3
    assert code in (0, 1, 2)
    if code >= 2:
        assert out.startswith("error: ")
    elif argv[-1] == "json":
        assert json.loads(out)["schema"] == "ramify/1"
        assert_canonical_json(out.removesuffix("\n"))


@settings(max_examples=40, deadline=None)
@given(st.lists(analyze_argv(), min_size=1, max_size=3))
def test_fuzz_main_batch(configs):
    with tempfile.TemporaryDirectory() as tmp:
        batch = Path(tmp) / "batch.txt"
        batch.write_text("".join(shlex.join(argv) + "\n" for argv in configs))
        code, out = _main_quietly(["--batch", str(batch)])
    data = json.loads(out)
    assert data["schema"] == "ramify/1"
    assert_canonical_json(out.removesuffix("\n"))
    exits = [run["exit"] for run in data["runs"]]
    assert len(exits) == len(configs)
    assert set(exits) <= {0, 1, 2}
    assert code == max(exits)


# -- batch and output files -----------------------------------------------------


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "analyze --field Fp:2 --f t^-1 --prec 12 --trials 10 --format json\n"
        "# a comment line\n"
        "tower --p 3 --n 2 --q 9 --depth 3 --format json\n"
    )
    out_path = tmp_path / "out.json"
    code = main(["--batch", str(batch), "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["command"] == "batch"
    assert [run["exit"] for run in data["runs"]] == [0, 0]
    # order follows the input file
    assert "analyze" in data["runs"][0]["config"]
    assert "tower" in data["runs"][1]["config"]


def test_every_json_output_is_written_as_json_dumps_writes_it(tmp_path, capsys):
    """analyze over F_p, F_q and F_p(u), tower and selftest, each alone
    and as the lines of one batch, whose own JSON quotes theirs."""
    lines = [
        "analyze --field Fp:2 --f t^-4 --prec 8 --format json",
        "analyze --field Fq:9 --f 'w*t^-5 + (w+1)*t^-1 + (2*w+1)*t' --prec 16 --format json",
        "analyze --field 'Fp(u):3' --f '((u+1)/u)*t^-2 + u*t^-1 + (1/(u^2+1))*t' --prec 12"
        " --format json",
        "analyze --field 'Fp(u):2' --f 'u*t^-2' --prec 8 --format json",
        "analyze --field Fp:2 --f t^-5 --prec 0 --format json",
        "tower --p 3 --n 2 --q 9 --depth 3 --format json",
        "selftest --format json",
    ]
    batch = tmp_path / "batch.txt"
    batch.write_text("".join(line + "\n" for line in lines))
    code, out = run_cli(["--batch", str(batch)], capsys)
    assert code == 2
    out = out.removesuffix("\n")
    assert_canonical_json(out)
    runs = json.loads(out)["runs"]
    assert [run["exit"] for run in runs] == [0, 0, 0, 0, 2, 0, 0]
    for line, run in zip(lines, runs):
        alone = run_cli(shlex.split(line), capsys)
        assert alone == (run["exit"], run["output"] + "\n")
        if run["exit"] < 2:
            assert_canonical_json(run["output"])


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["analyze", "--field", "Fp:2", "--f", "t^-1", "--prec", "12",
         "--trials", "10", "--format", "json", "--out", str(out_path)]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["schema"] == "ramify/1"


@pytest.mark.parametrize("command", [
    ["analyze", "--field", "Fp:2", "--f", "t^-1", "--prec", "12", "--trials", "2"],
    ["tower", "--p", "3", "--n", "2", "--q", "9", "--depth", "3", "--trials", "4"],
])
def test_out_before_or_after_the_subcommand(command, tmp_path, capsys):
    code, printed = run_cli(command, capsys)
    out_path = tmp_path / "report.txt"
    for argv in (["--out", str(out_path)] + command, command + ["--out", str(out_path)]):
        out_path.unlink(missing_ok=True)
        assert run_cli(argv, capsys) == (code, "")
        assert out_path.read_text() == printed


TOWER_LINE = "tower --p 3 --n 2 --q 9 --depth 3 --trials 4 --format json"


def test_one_parser_carries_nothing_between_lines(tmp_path, capsys):
    parser = make_parser()
    assert make_parser() is parser
    out_path = tmp_path / "report.json"
    first = parser.parse_args(shlex.split(GOOD_LINE) + ["--out", str(out_path)])
    assert first.out == str(out_path)
    assert not hasattr(parser.parse_args(shlex.split(GOOD_LINE)), "out")
    assert not hasattr(parser.parse_args(shlex.split(TOWER_LINE)), "field")
    # the same lines through main: each prints what it prints alone
    alone = {line: run_cli(shlex.split(line), capsys) for line in (GOOD_LINE, TOWER_LINE)}
    assert main(shlex.split(GOOD_LINE) + ["--out", str(out_path)]) == 0
    assert run_cli(shlex.split(GOOD_LINE), capsys) == alone[GOOD_LINE]
    assert run_cli(shlex.split(TOWER_LINE), capsys) == alone[TOWER_LINE]
    code, out = run_cli(["analyze", "--field", "Fp:2", "--bogus"], capsys)
    assert code == 2 and out.startswith("error: ")
    assert run_cli(shlex.split(GOOD_LINE), capsys) == alone[GOOD_LINE]
    # and all of them as the lines of one batch
    batch = tmp_path / "batch.txt"
    lines = [
        f"{GOOD_LINE} --out {tmp_path / 'ignored.json'}",
        GOOD_LINE,
        TOWER_LINE,
        "analyze --field Fp:2 --bogus",
        GOOD_LINE,
    ]
    batch.write_text("".join(line + "\n" for line in lines))
    code, out = run_cli(["--batch", str(batch)], capsys)
    runs = json.loads(out)["runs"]
    assert code == 2
    assert [run["exit"] for run in runs] == [0, 0, 0, 2, 0]
    expected = [alone[GOOD_LINE][1]] * 2 + [alone[TOWER_LINE][1], None, alone[GOOD_LINE][1]]
    for run, text in zip(runs, expected):
        if text is not None:
            assert run["output"] + "\n" == text
    assert not (tmp_path / "ignored.json").exists()


# -- selftest -------------------------------------------------------------------


def test_selftest_json_determinism_and_seed_independence(capsys):
    code1, out1 = run_cli(["selftest", "--format", "json", "--seed", "7"], capsys)
    code2, out2 = run_cli(["selftest", "--format", "json", "--seed", "7"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical rerun
    data = json.loads(out1)
    assert data["schema"] == "ramify/1" and data["pass"] is True
    code3, out3 = run_cli(["selftest", "--format", "json", "--seed", "8"], capsys)
    assert code3 == 0
    other = json.loads(out3)
    verdicts = [(c["id"], c["ok"]) for c in data["criteria"]]
    assert verdicts == [(c["id"], c["ok"]) for c in other["criteria"]]


def test_closed_pipe_exits_quietly():
    """A reader that leaves early (``ramify ... | head``) gets no traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramify.cli", "analyze", "--field", "Fp:2", "--f", "1+t",
         "--prec", "8", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the report is printed
    with proc.stderr:
        stderr = proc.stderr.read()
    assert proc.wait() == 0
    assert stderr == b""


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "--field", "Fp:2", "--f", "t^-4", "--prec", "8"], 0),
    (["analyze", "--field", "Fp:2", "--prec", "8"], 2),  # --f missing
])
def test_python_dash_m_matches_main(argv, expected, capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "ramify", *argv],
                          capture_output=True, text=True, env=env)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == expected and proc.stdout
