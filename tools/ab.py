"""Paired A/B runs of the benchmark between two versions of the code.

    python3 tools/ab.py --base REF [--head REF] --out BENCH_<pr>.json \\
        [--workloads W1,W2] [--seeds 1,K] [--pairs N] [--seconds S]

Each side is ``git archive``d into its own temporary directory: ``--base``
and ``--head`` name commits, and without ``--head`` the head side is the
working tree's tracked files (``git stash create``; add new files to the
index first).  For every workload and seed the tool runs each side's
``perfbench/run.py --trace 0`` ``--pairs`` times, the base first in even
pairs and the head first in odd ones, so that a drift of the machine's
speed does not favour one side.

The JSON file it writes holds, for each workload, seed and end-to-end
metric of ``BENCHMARK.json``: the pairs as [base, head], both medians,
the base's quartiles and their distance (IQR), the pairs the head won,
the relative change of the medians, and two verdicts.  ``verdict`` is
"worse" when the head's median is worse than the base's by more than the
metric's bound, "unresolved" when the base's IQR is wider than the bound
and not every head run beats every base run, and "within" otherwise.
``gain`` is true when at least ten pairs ran, the head won at least nine
tenths of them and its median is better by more than the base's IQR.
Failed runs are counted per side.  ``work`` records, per pair and side,
how much work the run timed: ``loop_s``, the wall time of its timed loop,
and ``samples``, the configurations that loop ran, both from the detail
line ``perfbench/run.py`` writes to stderr.  A run that times a few
tenths of a second is moved by the machine's load, so these say how far
its figures can be trusted.  The file also records both commits and
trees, the Python version and the number of usable processors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
# fewer pairs than this claim no gain, whatever they read
MIN_GAIN_PAIRS = 10
SIDES = ("base", "head")


def _git(*args, cwd=ROOT, text=True):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=text,
    ).stdout


def resolve(ref):
    """(ref, commit, tree, worktree) of a side: ``ref`` names a commit, or
    is None for the working tree's tracked files on top of HEAD."""
    if ref is None:
        commit = _git("rev-parse", "HEAD^{commit}").strip()
        snapshot = _git("stash", "create").strip() or commit
        tree = _git("rev-parse", f"{snapshot}^{{tree}}").strip()
        return {"ref": "working tree", "commit": commit, "tree": tree, "worktree": True}
    commit = _git("rev-parse", f"{ref}^{{commit}}").strip()
    tree = _git("rev-parse", f"{commit}^{{tree}}").strip()
    return {"ref": ref, "commit": commit, "tree": tree, "worktree": False}


def export(tree, dest):
    """Write the files of ``tree`` into the directory ``dest``."""
    archive = _git("archive", "--format=tar", tree, text=False)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(checkout, workload, seed, seconds):
    """The result object of one untraced benchmark run in ``checkout``,
    with the work it timed under ``"work"``: ``loop_s`` and ``samples``
    from the run's detail line, the last line of its stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    result["work"] = {"loop_s": detail["wall"]["loop_s"], "samples": detail["samples"]}
    return result


def order(pair):
    """The sides of pair ``pair`` in the order they run."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values):
    """(q1, q3) of ``values`` as perfbench/spread.py takes them; both are
    the one value when there is only one."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(pairs, better, bound):
    """The summary of one metric over ``pairs`` of (base, head) values,
    where ``better`` is "higher" or "lower" and ``bound`` the relative
    worsening ``BENCHMARK.json`` allows."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "higher" else -1
    base_median, head_median = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    iqr = q3 - q1
    change = sign * (head_median - base_median) / base_median
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    if iqr / base_median > bound and not min(sign * h for h in head) > max(sign * b for b in base):
        verdict = "unresolved"
    elif change < -bound:
        verdict = "worse"
    else:
        verdict = "within"
    return {
        "pairs": [list(pair) for pair in pairs],
        "base_median": base_median,
        "head_median": head_median,
        "base_q1": q1,
        "base_q3": q3,
        "base_iqr": iqr,
        "wins": wins,
        "change": change,
        "bound": bound,
        "verdict": verdict,
        "gain": (len(pairs) >= MIN_GAIN_PAIRS and 10 * wins >= 9 * len(pairs)
                 and sign * (head_median - base_median) > iqr),
    }


def summarize(runs, metrics):
    """The per-metric summaries of one workload and seed, from ``runs``, a
    list of {side: result object} per pair, and ``metrics``, the
    ``end_to_end`` entries of ``BENCHMARK.json``."""
    out = {
        "failed_runs": {side: sum(not run[side]["correct"] for run in runs) for side in SIDES},
        "work": [{side: run[side]["work"] for side in SIDES} for run in runs],
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        pairs = [tuple(run[side]["metrics"][name]["value"] for side in SIDES) for run in runs]
        out["metrics"][name] = compare(pairs, metric["better"], metric["bound"])
    return out


METRIC_KEYS = {
    "pairs", "base_median", "head_median", "base_q1", "base_q3", "base_iqr", "wins", "change",
    "bound", "verdict", "gain",
}


def validate(doc):
    """Raise ValueError unless ``doc`` has the layout ``main`` writes."""
    def need(ok, what):
        if not ok:
            raise ValueError(f"BENCH file: {what}")

    need(set(doc) >= {"base", "head", "python", "nproc", "seconds", "pairs", "results"},
         "missing top-level keys")
    for side in SIDES:
        need(set(doc[side]) == {"ref", "commit", "tree", "worktree"}, f"bad {side} record")
    need(isinstance(doc["nproc"], int) and doc["nproc"] > 0, "nproc is not a positive int")
    need(isinstance(doc["pairs"], int) and doc["pairs"] > 0, "pairs is not a positive int")
    need(doc["results"], "no results")
    for workload, seeds in doc["results"].items():
        need(seeds, f"{workload} has no seeds")
        for seed, result in seeds.items():
            where = f"{workload} seed {seed}"
            need(set(result["failed_runs"]) == set(SIDES), f"{where}: bad failed_runs")
            need(len(result.get("work", ())) == doc["pairs"]
                 and all(set(pair) == set(SIDES) for pair in result["work"]),
                 f"{where}: bad work")
            for pair in result["work"]:
                for work in pair.values():
                    need(set(work) == {"loop_s", "samples"}
                         and isinstance(work["loop_s"], (int, float)) and work["loop_s"] > 0
                         and isinstance(work["samples"], int) and work["samples"] > 0,
                         f"{where}: bad work record {work}")
            need(result["metrics"], f"{where}: no metrics")
            for name, summary in result["metrics"].items():
                need(set(summary) == METRIC_KEYS, f"{where} {name}: bad keys")
                need(len(summary["pairs"]) == doc["pairs"]
                     and all(len(pair) == 2 for pair in summary["pairs"]),
                     f"{where} {name}: bad pairs")
                need(0 <= summary["wins"] <= doc["pairs"], f"{where} {name}: bad wins")
                need(summary["verdict"] in ("within", "worse", "unresolved"),
                     f"{where} {name}: bad verdict")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit of the base side")
    parser.add_argument("--head", help="commit of the head side (default: the working tree)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    sides = {"base": resolve(args.base), "head": resolve(args.head)}
    doc = {
        **sides,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "results": {},
    }
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        checkouts = {side: Path(tmp, side) for side in SIDES}
        for side, checkout in checkouts.items():
            checkout.mkdir()
            export(sides[side]["tree"], checkout)
        for workload in workloads:
            for seed in seeds:
                runs = []
                for pair in range(args.pairs):
                    run = {side: run_once(checkouts[side], workload, seed, args.seconds)
                           for side in order(pair)}
                    runs.append(run)
                    print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs}: "
                          + ", ".join(f"{side} {run[side]['metrics']['throughput_cps']['value']:.1f}"
                                      for side in SIDES), file=sys.stderr)
                doc["results"].setdefault(workload, {})[str(seed)] = summarize(
                    runs, spec["end_to_end"])
    validate(doc)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
