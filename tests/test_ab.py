"""The arithmetic and the file layout of tools/ab.py, on fixed inputs.
No test here starts a process: ``subprocess.run`` raises if one tries."""

import copy
import importlib.util
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
SPEC = importlib.util.spec_from_file_location("ab", PATH)
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

# ten pairs: the head is 10 higher in nine and 1 lower in the last
THROUGHPUT = [(100 + k, 110 + k) for k in range(9)] + [(109, 108)]


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a unit test of tools/ab.py started a process")

    monkeypatch.setattr(subprocess, "run", refuse)


def test_the_sides_alternate_which_runs_first():
    assert [ab.order(pair) for pair in range(3)] == [
        ("base", "head"), ("head", "base"), ("base", "head")]


def test_a_clear_gain_in_a_higher_is_better_metric():
    s = ab.compare(THROUGHPUT, "higher", 0.25)
    # base 100..109: exclusive quartiles at ranks 2.75 and 8.25
    assert (s["base_median"], s["base_q1"], s["base_q3"], s["base_iqr"]) == (
        104.5, 101.75, 107.25, 5.5)
    # head 108, 110..118
    assert s["head_median"] == 113.5
    assert s["wins"] == 9
    assert s["change"] == pytest.approx(9 / 104.5)
    assert (s["verdict"], s["gain"]) == ("within", True)
    assert s["pairs"] == [list(pair) for pair in THROUGHPUT]


def test_no_gain_without_nine_tenths_of_the_pairs_or_beyond_the_iqr():
    eight = THROUGHPUT[:8] + [(108, 107), (109, 108)]
    assert ab.compare(eight, "higher", 0.25)["gain"] is False
    # nine wins of 1, inside the base's IQR of 5.5
    small = [(100 + k, 101 + k) for k in range(9)] + [(109, 108)]
    s = ab.compare(small, "higher", 0.25)
    assert (s["wins"], s["gain"]) == (9, False)
    # one pair claims nothing, whatever it reads
    s = ab.compare([(100, 200)], "higher", 0.25)
    assert (s["base_q1"], s["base_q3"], s["base_iqr"], s["gain"]) == (100, 100, 0, False)


def test_a_lower_is_better_metric_worse_beyond_its_bound():
    s = ab.compare([(1.0, 1.3)] * 10, "lower", 0.25)
    assert s["change"] == pytest.approx(-0.3)
    assert (s["wins"], s["verdict"], s["gain"]) == (0, "worse", False)
    s = ab.compare([(1.0, 1.2)] * 10, "lower", 0.25)
    assert (s["verdict"], s["gain"]) == ("within", False)
    s = ab.compare([(1.0, 0.5)] * 10, "lower", 0.25)
    assert (s["wins"], s["change"], s["verdict"], s["gain"]) == (10, 0.5, "within", True)


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    wide = [(100, 150), (200, 150), (100, 150), (200, 150)]
    s = ab.compare(wide, "higher", 0.25)
    assert (s["base_iqr"], s["base_median"], s["verdict"]) == (100, 150, "unresolved")
    s = ab.compare([(b, 250) for b, _ in wide], "higher", 0.25)
    assert s["verdict"] == "within"


def run_result(value, correct=True):
    return {"correct": correct,
            "metrics": {"throughput_cps": {"value": value}, "peak_rss_mb": {"value": 20.0}},
            "work": {"loop_s": 14 / value, "samples": 14}}


METRICS = [
    {"name": "throughput_cps", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def side_counts(calls):
    return {"python_calls": calls, "pair_terms": 10, **{name: 2 for name in ab.KERNELS}}


def bench_file():
    runs = [{"base": run_result(b), "head": run_result(h, correct=k != 3)}
            for k, (b, h) in enumerate(THROUGHPUT)]
    side = {"ref": "HEAD", "commit": "0" * 40, "tree": "1" * 40, "worktree": False}
    base, head = side_counts(100), side_counts(90)
    return {
        "base": side, "head": dict(side, ref="working tree", worktree=True),
        "python": "3.11.7", "nproc": 2, "seconds": 20.0, "pairs": 10,
        "results": {"ferocious_fpu": {"1": ab.summarize(runs, METRICS)}},
        "counts": {"ferocious_fpu": {"1": {
            "base": base, "head": head, "ratio": ab.count_ratios(base, head)}}},
    }


def test_the_summary_of_a_workload_and_seed():
    result = bench_file()["results"]["ferocious_fpu"]["1"]
    assert result["failed_runs"] == {"base": 0, "head": 1}
    assert result["work"] == [
        {"base": {"loop_s": 14 / b, "samples": 14}, "head": {"loop_s": 14 / h, "samples": 14}}
        for b, h in THROUGHPUT]
    assert result["metrics"]["throughput_cps"] == ab.compare(THROUGHPUT, "higher", 0.25)
    rss = result["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["change"], rss["verdict"], rss["gain"]) == (0, 0, "within", False)


def test_the_schema_accepts_what_the_tool_writes_and_rejects_a_broken_file():
    ab.validate(bench_file())
    for breaks in (
        lambda doc: doc.pop("nproc"),
        lambda doc: doc["head"].pop("tree"),
        lambda doc: doc["results"].clear(),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["metrics"]["throughput_cps"].pop("wins"),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["metrics"]["peak_rss_mb"]["pairs"].pop(),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["metrics"]["peak_rss_mb"].update(
            verdict="better"),
        lambda doc: doc["results"]["ferocious_fpu"]["1"].pop("work"),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["work"].pop(),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["work"][0].pop("head"),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["work"][0]["base"].pop("samples"),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["work"][0]["base"].update(loop_s=0.0),
        lambda doc: doc["results"]["ferocious_fpu"]["1"]["work"][0]["head"].update(samples=1.5),
    ):
        doc = copy.deepcopy(bench_file())
        breaks(doc)
        with pytest.raises(ValueError):
            ab.validate(doc)


# -- work counts ------------------------------------------------------------------------


def leaf():
    pass


def kernel(pairs):
    leaf()


def three_kernel_calls():
    for _ in range(3):
        kernel([({1: 1, 2: 2}, {3: 3}), ({}, {4: 4})])


def test_the_counts_of_a_fixed_run():
    counts = ab.count_calls(three_kernel_calls, {"kernel": kernel, "gone": None}, kernel)
    # the run itself, three kernel calls and three leaf calls
    assert counts == {"python_calls": 7, "pair_terms": 3 * (2 * 1 + 0 * 1),
                      "kernel": 3, "gone": None}
    assert ab.count_calls(three_kernel_calls, {"leaf": leaf}) == {
        "python_calls": 7, "pair_terms": 0, "leaf": 3}


def test_count_ratios_are_head_over_base_and_one_when_equal():
    base = {"python_calls": 200, "pair_terms": 0, "series.dot": 0, "LElement.sigma": None}
    head = {"python_calls": 150, "pair_terms": 0, "series.dot": 5, "LElement.sigma": 4}
    assert ab.count_ratios(base, head) == {
        "python_calls": 0.75, "pair_terms": 1.0, "series.dot": None, "LElement.sigma": None}
    assert set(ab.count_ratios(base, base).values()) == {1.0, None}


def test_the_schema_checks_the_counts():
    doc = bench_file()
    ab.validate(doc)
    assert doc["counts"]["ferocious_fpu"]["1"]["ratio"]["python_calls"] == 0.9
    for breaks in (
        lambda doc: doc.pop("counts"),
        lambda doc: doc["counts"]["ferocious_fpu"].clear(),
        lambda doc: doc["counts"]["ferocious_fpu"].update(
            {"2": doc["counts"]["ferocious_fpu"]["1"]}),
        lambda doc: doc["counts"].update(tower_identity=doc["counts"]["ferocious_fpu"]),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"].pop("ratio"),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"]["base"].pop("series.dot"),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"]["head"].update(pair_terms=-1),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"]["head"].update(pair_terms=1.5),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"]["base"].update(python_calls=0),
        lambda doc: doc["counts"]["ferocious_fpu"]["1"]["ratio"].update(python_calls=1.0),
    ):
        doc = copy.deepcopy(bench_file())
        breaks(doc)
        with pytest.raises(ValueError):
            ab.validate(doc)
