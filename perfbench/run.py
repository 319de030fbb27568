"""Benchmark of the ramify command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configurations are
generated from the seed (workloads.py) and run through
``ramify.cli.main(argv)`` in a fresh child process: a closed loop with
one client, one process and no threads.  ``--seconds`` fixes how many
passes over the workload's strata a run makes, from their nominal
length.  Every output is checked against its closed-form answer
(oracle.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up
time is the median of several fresh interpreters that import ramify and
parse every input.  Every time among them is given at the reference
speed: a fixed computation (reference.py) is timed next to each
measured interval, in the same process, and the interval is scaled by
how much slower or faster than nominal the reference ran, so that the
shared machine's changes of speed cancel out.  ``--trace 1`` runs
half as many passes traced, then an untraced replay of the same
configurations, and prints the per-layer metrics and the tracing
overhead.  Details (tail percentile, sample count, failures, plain
wall times) go to stderr; the last line of stdout is the result
object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
# A measured run that takes this many times its nominal length stops
# early, so that a much slower program cannot push a run past the time
# limit.  The configurations it did not reach count as failed.
BUDGET_FACTOR = 4.0
TRACE_DIR = ".perfbench_out"


class BenchError(Exception):
    pass


def _child_env():
    # a fixed hash seed keeps traced call counts identical between runs
    return dict(os.environ, PYTHONHASHSEED="0")


def _spawn():
    return subprocess.Popen(
        [sys.executable, str(CHILD)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
    )


def run_child(request, timeout=CHILD_TIMEOUT_S):
    proc = _spawn()
    try:
        out, _ = proc.communicate(json.dumps(request).encode(), timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode} in mode {request['mode']}")
    return json.loads(out.decode().strip().splitlines()[-1])


def time_setup(configs):
    """(seconds, reference timing): seconds from spawning a fresh
    interpreter until it has imported ramify and parsed every input of
    the workload, and the reference timing that the interpreter took
    right after."""
    payload = json.dumps({"mode": "setup", "configs": configs}).encode()
    start = time.perf_counter()
    proc = _spawn()
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        gauge = proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise BenchError(f"set-up child failed with exit code {code}")
    return elapsed, float(gauge)


def tail(latencies):
    """(value, percentile, samples beyond it): the highest order
    statistic with at least ten samples above it, but never one below
    the 90th percentile, which it would be with fewer than 100 samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(count - 10, (9 * count + 9) // 10)  # 1-based; ceil(0.9 count)
    return ordered[rank - 1], 100.0 * rank / count, count - rank


def end_to_end(configs, budget_s):
    time_setup(configs)  # unmeasured: fills the bytecode and file caches
    setup_walls, setup_gauges = zip(*(time_setup(configs) for _ in range(SETUP_REPEATS)))
    setups = list(map(reference.at_reference_speed, setup_walls, setup_gauges))
    out = run_child({"mode": "run", "configs": configs, "budget_s": budget_s})
    gauge = out["reference_s"]
    latencies = [reference.at_reference_speed(seconds, (before + after) / 2)
                 for seconds, before, after in zip(out["latencies"], gauge, gauge[1:])]
    tail_s, tail_pct, beyond = tail(latencies)
    wrong = len(out["failed_ids"])
    not_run = len(configs) - out["attempted"]
    failed = wrong + not_run
    metrics = {
        "throughput_cps": ((out["attempted"] - wrong) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
    }
    detail = {
        "samples": len(latencies),
        "configs": len(configs),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "not_run": not_run,
        "fail_frac": failed / len(configs),
        "setup_samples_s": setups,
        "wall": {
            "loop_s": out["wall_s"],
            "latency_p50_s": statistics.median(out["latencies"]),
            "setup_s": statistics.median(setup_walls),
            "reference_p50_s": statistics.median(gauge),
        },
        "problems": out["problems"],
    }
    return len(configs), failed, metrics, detail


def per_layer(name, seed, configs, budget_s):
    trace_file = f"{TRACE_DIR}/trace-{name}-{seed}.json"
    traced = run_child({"mode": "trace", "configs": configs, "trace_file": trace_file,
                        "budget_s": budget_s})
    # the replay is no slower than the traced pass, so it needs no budget
    replay = run_child({"mode": "replay", "configs": configs[:traced["attempted"]]})
    mismatched = sorted(int(k) for k, v in traced["digests"].items() if replay["digests"].get(k) != v)
    not_run = len(configs) - traced["attempted"]
    failed = len(set(traced["failed_ids"]) | set(replay["failed_ids"]) | set(mismatched)) + not_run
    metrics = {name: (value, unit) for name, (unit, value) in traced["layers"].items()}
    overhead = traced["wall_s"] - replay["wall_s"]
    metrics.update({
        "trace.configs": (traced["attempted"], "count"),
        "trace.spans": (traced["spans"], "count"),
        "trace.traced_wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (replay["wall_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_frac": (overhead / replay["wall_s"], "ratio"),
    })
    detail = {
        "trace_file": trace_file,
        "not_run": not_run,
        "outputs_differ_traced_vs_untraced": mismatched,
        "problems": traced["problems"] + replay["problems"],
    }
    return len(configs), failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ramify" / "__init__.py").is_file():
        print(f"error: no ramify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # the traced pass and its replay together take about as long as an
    # untraced run, so a traced run covers half of its passes
    passes = workload.passes(args.seconds / 2 if args.trace else args.seconds)
    configs = workloads.generate(args.workload, args.seed, passes)
    budget_s = BUDGET_FACTOR * passes * workload.pass_s
    try:
        if args.trace:
            attempted, failed, metrics, detail = per_layer(args.workload, args.seed, configs, budget_s)
        else:
            attempted, failed, metrics, detail = end_to_end(configs, budget_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
