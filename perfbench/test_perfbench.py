"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import oracle
import reference
import run
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def ramify():
    return child.import_ramify()


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7, passes=2)
    assert first == workloads.generate(name, 7, passes=2)
    other = workloads.generate(name, 8, passes=2)
    assert len(other) == len(first) == 2 * len(workloads.WORKLOADS[name].strata)
    for a, b in zip(first, other):
        assert a["field"] == b["field"] and a.get("prec") == b.get("prec")
        assert a["argv"] != b["argv"]


# -- oracle -------------------------------------------------------------------


def _config(name, field):
    return next(c for c in workloads.generate(name, 3) if c["field"] == field)


def _run(ramify, config):
    _, code, text = child.call(ramify, config)
    return code, text


def test_oracle_accepts_and_rejects_analyze(ramify):
    config = _config("wild_small_p", "Fq:8")
    code, text = _run(ramify, config)
    assert oracle.check(config, code, text) == []

    def corrupted(edit):
        payload = json.loads(text)
        edit(payload)
        return oracle.check(config, code, json.dumps(payload))

    n = config["expect"]["n"]

    def swan_off_by_one(p):
        p["report"]["swan"] = f"{n + 1}/1"

    def flip_pass(p):
        p["pass"] = False

    def open_different(p):
        p["report"]["different"]["bound"] = "open"

    def shifted_j(p):
        p["report"]["j_sigma"]["value"] = "0/1"

    def other_f_best(p):
        p["f_best"] = "t^-1"

    for edit in (swan_off_by_one, flip_pass, open_different, shifted_j, other_f_best):
        assert corrupted(edit), edit.__name__
    assert oracle.check(config, 3, text)


def test_oracle_accepts_and_rejects_tower(ramify):
    config = _config("tower_identity", "Fq:9")
    code, text = _run(ramify, config)
    assert oracle.check(config, code, text) == []
    payload = json.loads(text)
    payload["report"]["j_cut"]["bound"] = "closed"
    assert oracle.check(config, code, json.dumps(payload))
    payload = json.loads(text)
    payload["levels"][2]["n_i"] += 1
    assert oracle.check(config, code, json.dumps(payload))
    payload = json.loads(text)
    payload["step_identity"]["ok"] = False
    assert oracle.check(config, code, json.dumps(payload))


def test_ferocious_answers_follow_the_closed_form(ramify):
    config = _config("ferocious_fpu", "Fp(u):2")
    code, text = _run(ramify, config)
    assert oracle.check(config, code, text) == []
    assert json.loads(text)["report"]["classification"] == config["expect"]["classification"]


# -- tracer -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def op(dt):
        clock.advance(dt)

    counted = t.counter("fields.op", op)

    def inner():
        clock.advance(2)
        counted(3)
        clock.advance(1)

    inner_span = t.span("series.inner", inner)

    def outer():
        clock.advance(1)
        inner_span()
        counted(4)
        clock.advance(1)

    t.span("cli.outer", outer)()
    assert t.calls("fields.op") == 2 and t.self_time("fields.op") == 7
    assert t.self_time("series.inner") == 3
    assert t.self_time("cli.outer") == 2
    assert t.inclusive == {"series.inner": 6, "cli.outer": 12}
    # spans: (name, start, end, parent, config, self)
    assert [s[:4] for s in t.spans] == [["cli.outer", 0, 12, -1], ["series.inner", 1, 7, 0]]
    assert t.layer_self_time("fields") + t.layer_self_time("series") + t.layer_self_time("cli") == 12


def test_nested_spans_of_one_group_count_once():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    leaf = t.span("tower.a", lambda: clock.advance(2), group="tower.limits")

    def parent():
        clock.advance(1)
        leaf()

    t.span("tower.b", parent, group="tower.limits")()
    leaf()
    assert t.inclusive == {"tower.limits": 5}
    assert t.self_time("tower.a") == 4 and t.self_time("tower.b") == 1


def _snapshot(ramify):
    from ramify import extension, fields, series

    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "ramify"]
    owners += [fields.ResidueElem, fields.FieldSpec, fields.Expr,
               series.LaurentSeries, extension.LElement]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_restore_the_originals(ramify):
    from ramify import cli, fields, invariants, tower

    before = _snapshot(ramify)
    t = tracing.install_ramify(tracing.Tracer())
    try:
        assert cli.main is not before[(id(cli), "main")]
        assert tower.check_identity is not before[(id(tower), "check_identity")]
        assert invariants.check_norm_additivity is not before[(id(invariants), "check_norm_additivity")]
        assert fields.ResidueElem.__radd__ is fields.ResidueElem.__add__
        assert fields.ResidueElem.__add__ is not before[(id(fields.ResidueElem), "__add__")]
        config = _config("tower_identity", "Fq:4")
        traced = _run(ramify, config)
    finally:
        t.uninstall()
    after = _snapshot(ramify)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == _run(ramify, config)
    assert t.calls("cli.main") == 1 and t.rounds > 0 and 0 < t.accepted <= t.rounds


# -- the command --------------------------------------------------------------


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(["--workload", "tower_identity", "--seed", "2",
                       "--seconds", "1", "--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_tail_is_never_below_the_90th_percentile():
    assert run.tail(range(1, 13)) == (11, 100.0 * 11 / 12, 1)
    assert run.tail(range(1, 71)) == (63, 90.0, 7)
    assert run.tail(range(1, 201)) == (190, 95.0, 10)
    assert run.tail([5.0]) == (5.0, 100.0, 0)


def test_times_are_scaled_by_the_reference_speed():
    r = reference.REFERENCE_S
    assert reference.at_reference_speed(1.5, r) == pytest.approx(1.5)
    # at half speed the reference takes twice as long
    assert reference.at_reference_speed(3.0, 2 * r) == pytest.approx(1.5)
    assert reference.timed() > 0


def test_a_run_cut_short_counts_the_rest_as_failed():
    configs = workloads.generate("tower_identity", 1)[:3]
    attempted, failed, _, detail = run.end_to_end(configs, budget_s=0)
    assert (attempted, failed, detail["not_run"]) == (3, 2, 2)
    attempted, failed, _, detail = run.per_layer("tower_identity", 1, configs, budget_s=0)
    assert (attempted, failed, detail["not_run"]) == (3, 2, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(["--workload", "tower_identity", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
