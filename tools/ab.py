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

The file also holds ``counts``: per workload and seed, one child per
side runs that seed's configurations, from the side's own
``perfbench/workloads.generate``, through ``ramify.cli.main`` under a
counting profiler (``count_calls``).  It records the Python calls in
total, the calls of each kernel in ``KERNELS``, and ``pair_terms``, the
sum of len(a) * len(b) over the pairs ``fields.dot_coeffs`` receives.
These are exact and repeat from run to run, so they resolve a change of
work that time on a busy machine cannot; ``ratio`` is head over base,
exactly 1 when both sides run the same code.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
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
# the kernels whose calls ``counts`` records: name -> (module, attribute path)
KERNELS = {
    "series.dot": ("series", "dot"),
    "fields.dot_coeffs": ("fields", "dot_coeffs"),
    "series.linear_combination": ("series", "linear_combination"),
    "LaurentSeries.inverse": ("series", "LaurentSeries.inverse"),
    "LElement.__mul__": ("extension", "LElement.__mul__"),
    "LElement.sigma": ("extension", "LElement.sigma"),
    "Expr.evaluate": ("fields", "Expr.evaluate"),
}
COUNT_KEYS = {"python_calls", "pair_terms", *KERNELS}


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


def count_calls(run, kernels, dot_coeffs=None):
    """The counts of one call of ``run()`` under a profiler that sees
    every Python call: ``python_calls`` in total, the calls of each
    function in ``kernels`` (name -> function, or None for a name the
    code lacks, counted as None), and ``pair_terms``, the sum of
    len(a) * len(b) over the (a, b) pairs each call of ``dot_coeffs``
    receives."""
    calls = collections.Counter()
    pair_terms = 0
    dot_code = getattr(dot_coeffs, "__code__", None)

    def profile(frame, event, arg):
        nonlocal pair_terms
        if event == "call":
            calls[frame.f_code] += 1
            if frame.f_code is dot_code:
                pair_terms += sum(len(a) * len(b) for a, b in frame.f_locals["pairs"])

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {
        "python_calls": sum(calls.values()),
        "pair_terms": pair_terms,
        **{name: None if fn is None else calls[fn.__code__] for name, fn in kernels.items()},
    }


def count_child(checkout, workload, seed):
    """Print, as JSON, the counts of one pass over seed ``seed``'s
    configurations of ``workload``, run by the code in ``checkout``."""
    sys.path[:0] = [str(Path(checkout, "src")), str(Path(checkout, "perfbench"))]
    import workloads

    from ramify import cli

    kernels = {}
    for name, (module, path) in KERNELS.items():
        fn = importlib.import_module(f"ramify.{module}")
        for attr in path.split("."):
            fn = getattr(fn, attr, None)
        kernels[name] = fn
    configs = workloads.generate(workload, int(seed))

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for config in configs:
                cli.main(config["argv"])

    print(json.dumps(count_calls(run, kernels, kernels["fields.dot_coeffs"])))


def run_counts(checkout, workload, seed):
    """The counts of ``count_child`` for one side, workload and seed, in a
    child with a fixed hash seed, so that nothing but the code moves them."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ab; ab.count_child(*sys.argv[2:])"
    argv = [sys.executable, "-c", code, str(ROOT / "tools"), str(checkout), workload, str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        raise RuntimeError(f"counting {workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_ratios(base, head):
    """{name: head / base} over the counts of both sides: exactly 1 where
    they are equal, zeros included, and None where a side lacks the count
    or only the base's is zero."""
    def ratio(b, h):
        if b is None or h is None:
            return None
        if b == h:
            return 1.0
        return h / b if b else None

    return {name: ratio(base[name], head[name]) for name in base}


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

    need(set(doc) >= {"base", "head", "python", "nproc", "seconds", "pairs", "results",
                      "counts"},
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
    need({w: set(seeds) for w, seeds in doc["counts"].items()}
         == {w: set(seeds) for w, seeds in doc["results"].items()},
         "counts are not one entry per workload and seed of the results")
    for workload, seeds in doc["counts"].items():
        for seed, counts in seeds.items():
            where = f"counts of {workload} seed {seed}"
            need(set(counts) == {*SIDES, "ratio"}, f"{where}: bad keys")
            for side in SIDES:
                need(set(counts[side]) == COUNT_KEYS
                     and all(v is None or (isinstance(v, int) and v >= 0)
                             for v in counts[side].values())
                     and counts[side]["python_calls"] > 0,
                     f"{where}: bad {side} counts")
            need(counts["ratio"] == count_ratios(counts["base"], counts["head"]),
                 f"{where}: ratio is not head over base")


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
        "counts": {},
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
                counts = {side: run_counts(checkouts[side], workload, seed) for side in SIDES}
                counts["ratio"] = count_ratios(counts["base"], counts["head"])
                doc["counts"].setdefault(workload, {})[str(seed)] = counts
                print(f"{workload} seed {seed} counts: python_calls ratio "
                      f"{counts['ratio']['python_calls']}", file=sys.stderr)
    validate(doc)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
