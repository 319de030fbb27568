"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py

Runs ``run.py`` once for each of the seeds 1 to 10 on every workload of
BENCHMARK.json, one run at a time, for its ``run_seconds``, and reports
for every end-to-end metric the median, the quartiles and the spread:
the interquartile distance as a share of the median, which
BENCHMARK.json's bounds must exceed.  It summarises the same runs' plain
wall times too, before their scaling to the reference speed.  It also makes two traced runs per
workload at seed 1, checks that their call and term counts agree
exactly, and keeps the per-layer figures of the first one.  It writes
the record to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = json.loads(proc.stderr.strip().splitlines()[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1]), detail


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def summarize(values, bound=None):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out.update(bound=bound, within_third_of_bound=spread < bound / 3)
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"machine": machine(), "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, detail = bench(workload, seed, seconds, 0)
            results.append((result, detail))
            print(workload, seed, json.dumps(result["metrics"]), file=sys.stderr, flush=True)
        entry = {
            "failed": sum(r["failed"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "samples_per_run": results[0][1]["samples"],
            "tail_percentile": results[0][1]["tail_percentile"],
            "tail_samples_beyond": results[0][1]["tail_samples_beyond"],
            "metrics": {
                name: summarize([r["metrics"][name]["value"] for r, _ in results], bound)
                for name, bound in bounds.items()
            },
            # the same runs' plain wall times, before scaling to the reference speed
            "wall": {
                name: summarize([d["wall"][name] for _, d in results])
                for name in results[0][1]["wall"]
            },
        }
        first, _ = bench(workload, SEEDS[0], seconds, 1)
        second, _ = bench(workload, SEEDS[0], seconds, 1)
        counts = [k for k in first["metrics"] if k.endswith((".calls", ".terms"))]
        entry["traced"] = {
            "counts_identical": all(
                first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counts
            ),
            "correct": first["correct"] and second["correct"],
            "metrics": {k: v["value"] for k, v in first["metrics"].items()},
        }
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            print(f"{workload:16s} {name:16s} median {s['median']:.4g} spread {s['spread']:.3f}"
                  f" bound {s['bound']}", file=sys.stderr, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
