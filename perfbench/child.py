"""One child process of the benchmark.

Reads a JSON request on stdin, imports ramify from the checkout's
``src/`` and calls ``ramify.cli.main(argv)`` in-process, one
configuration at a time.  Modes:

- ``setup``: parse every input of the workload, then print ``ready``;
  the parent times this from process start.  Then print a timing of
  the reference computation, which gauges this process's speed.
- ``run``: the closed loop: a warm-up call, then every configuration
  in order, timing each call and the reference computation
  (reference.py) before and after it.
- ``trace``: the same loop traced; writes the trace file once at the end.
- ``replay``: the same pass untraced, to measure tracing overhead.

The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import oracle
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_ramify():
    sys.path.insert(0, str(SRC))
    import ramify
    import ramify.cli

    if Path(ramify.__file__).resolve().parent != SRC / "ramify":
        raise SystemExit(f"ramify was imported from {ramify.__file__}, not from {SRC}")
    return ramify


def parse_inputs(configs):
    from ramify.parsing import parse_field_spec, parse_series

    for config in configs:
        field = parse_field_spec(config["field"])
        if config["kind"] == "analyze":
            parse_series(config["f"], field, config["prec"])


def call(ramify, config):
    """(seconds, exit code, stdout text) of one CLI call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = ramify.cli.main(config["argv"])
    except (Exception, SystemExit):  # a crash is a wrong answer, not a benchmark error
        code = "exception"
        buf.write(traceback.format_exc())
    return time.perf_counter() - start, code, buf.getvalue().rstrip("\n")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Results:
    """Per-configuration outcomes: oracle verdicts and output digests."""

    def __init__(self):
        self.latencies = []
        self.failed_ids = []
        self.problems = []
        self.digests = {}

    def record(self, config, elapsed, code, text):
        problems = oracle.check(config, code, text)
        self.digests[str(config["id"])] = _digest(text)
        self.latencies.append(elapsed)
        if problems:
            self.failed_ids.append(config["id"])
            if len(self.problems) < 5:
                self.problems.append({"id": config["id"], "argv": config["argv"], "problems": problems})

    def to_json(self):
        return {
            "attempted": len(self.latencies),
            "failed_ids": self.failed_ids,
            "problems": self.problems,
            "latencies": self.latencies,
            "digests": self.digests,
        }


def timed_pass(ramify, configs, tracer=None, budget_s=None, gauge=None):
    """Run the configurations in order, one at a time, and return the
    outputs with the loop's wall time.  ``budget_s`` stops a run that
    has become far slower than its nominal length; the parent counts
    the configurations it did not reach as failed.  A ``gauge`` list
    receives the reference timings taken before the first call and
    after each one."""
    outputs = []
    start = time.perf_counter()
    if gauge is not None:
        gauge.append(reference.timed())
    for config in configs:
        if tracer is not None:
            tracer.config = config["id"]
        outputs.append((config, *call(ramify, config)))
        if gauge is not None:
            gauge.append(reference.timed())
        if budget_s is not None and time.perf_counter() - start > budget_s:
            break
    return outputs, time.perf_counter() - start


def verify(outputs, wall):
    """Check every output after the timed loop, so that neither the
    loop's wall time nor a trace includes the oracle's own work."""
    results = Results()
    for output in outputs:
        results.record(*output)
    out = results.to_json()
    out["wall_s"] = wall
    return out


def closed_loop(ramify, configs, budget_s):
    # an unmeasured warm-up call; the measured call of the same
    # configuration must reproduce its output byte for byte
    warmup = call(ramify, configs[0])
    reference.timed()  # unmeasured too, like the call above
    gauge = []
    out = verify(*timed_pass(ramify, configs, budget_s=budget_s, gauge=gauge))
    out["reference_s"] = gauge
    if out["digests"][str(configs[0]["id"])] != _digest(warmup[2]):
        out["failed_ids"] = sorted(set(out["failed_ids"]) | {configs[0]["id"]})
        out["problems"].append({"id": configs[0]["id"], "problems": ["output differs from the warm-up run"]})
    return out


def traced_pass(ramify, request):
    import tracer as tracing

    tracer = tracing.install_ramify(tracing.Tracer())
    try:
        parse_inputs(request["configs"])
        outputs, wall = timed_pass(ramify, request["configs"], tracer, request["budget_s"])
    finally:
        tracer.uninstall()
    trace_path = ROOT / request["trace_file"]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    out = verify(outputs, wall)
    out["layers"] = tracing.layer_metrics(tracer)
    out["spans"] = len(tracer.spans)
    return out


def main():
    request = json.loads(sys.stdin.read())
    ramify = import_ramify()
    mode = request["mode"]
    if mode == "setup":
        parse_inputs(request["configs"])
        print("ready", flush=True)
        print(reference.timed())
        return
    if mode == "run":
        out = closed_loop(ramify, request["configs"], request["budget_s"])
    elif mode == "trace":
        out = traced_pass(ramify, request)
    elif mode == "replay":
        out = verify(*timed_pass(ramify, request["configs"]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
