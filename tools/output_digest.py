"""Digests of the CLI's stdout and exit code over a fixed set of runs.

The runs are every configuration ``perfbench/workloads.generate`` makes
for seeds 1-3 (one pass of each workload), in JSON and in text, four
F_p(u) ``analyze`` runs that no workload covers (p = 5, and denominators
with repeated and irreducible quadratic factors), in JSON and in text,
``selftest`` in text and in JSON with ``--seed 7``, the ``heavy_tail``
runs: one F_p(u) ``analyze`` whose coefficients have a denominator of
degree 400, at seeds 0-3, in JSON (no check draws a sample, so the four
differ only in the echoed seed), and the ``low_prec``
runs: every ``analyze`` configuration of seeds 1-5, in JSON, with
``--prec`` lowered to each of ``LOW_PRECS``, the ``large_p`` runs:
three JSON ``analyze`` runs at p = 11 and 13 (``LARGE_P_RUNS``), the
largest p of the digest, where the norm's orbit chain is longest, and the
``integral`` runs: JSON ``analyze`` runs of an f with no pole
(``INTEGRAL_RUNS``), trivial and unramified over F_p, F_q and F_p(u),
which reach ``classify``'s decision on the constant residue, through
the F_p(u) linear system too, and the ``tower_trials`` runs: ``tower``
at q = 4 and 125 with ``--trials 1000`` (``TOWER_TRIAL_RUNS``), in
JSON and in text; the step identity is decided exactly, so
``--trials`` reaches only the JSON, as an echo, and the
``fpu_fractions`` runs: JSON ``analyze`` runs over F_p(u) at p = 2, 3,
5 and 7 (``FPU_FRACTION_RUNS``) whose coefficients have reducible,
repeated and shared denominators, four of them a leading coefficient
whose denominator has degree 6 or more, so that every path that puts an
F_p(u) fraction in lowest terms is pinned.  The ``low_prec`` runs
pin that a report does not depend on ``--prec``: a report reads the
exact principal part of f, so every run of one configuration prints the
same report, and only the echoed ``f``, ``f_best`` and ``precision``
differ between its nine lines.  Each run calls
``ramify.cli.main(argv)`` in this process, with ``ramify`` imported
from this checkout's ``src/``.  One line per run:

    workload seed id format exit-code sha256-of-stdout

The lines are recorded in ``tests/data/output_digests.txt``; CI reruns
this script under ``python3 -W error`` and diffs its output against
that file, so any change to what the program prints fails the build,
and so does a warning, which would otherwise go to the stderr this
script drops.  A deliberate change re-records the file:

    python3 tools/output_digest.py > tests/data/output_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import ramify.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
LOW_PREC_SEEDS = (1, 2, 3, 4, 5)
LOW_PRECS = (1, 2, 3, 4, 6, 8, 10, 12, 16)

# (field, f) of the extra F_p(u) runs, each at --prec 24 --trials 2 --seed 1.
FPU_RUNS = (
    ("Fp(u):5", "u*t^-5 + t^-2 + t"),
    ("Fp(u):5", "t^-3 + (u/(u+1)^2)*t^-1 + u*t^2"),
    ("Fp(u):2", "(u/(u+1)^2)*t^-4 + (1/(u^2+u+1))*t^-1 + t"),
    ("Fp(u):3", "(u^2/(u+1)^3)*t^-3 + (1/u)*t^-2 + t"),
)

# The heavy_tail run: an F_p(u) coefficient whose denominator has degree
# 400, at --prec 8 --trials 1 and each of HEAVY_TAIL_SEEDS.  No check
# inverts units of L any more, so each run takes about 0.01 s; the runs
# pin how such a coefficient is carried and printed.
HEAVY_TAIL = ("Fp(u):2", "(1/(u^400+1))*t^-1")
HEAVY_TAIL_SEEDS = (0, 1, 2, 3)

# (field, f, prec, trials, seed) of the large_p runs, in JSON.
LARGE_P_RUNS = (
    ("Fp:11", "t^-1", 48, 1, 1),
    ("Fp:11", "t^-2 + t", 52, 2, 3),
    ("Fp:13", "t^-1", 56, 1, 1),
)


# (field, f) of the integral runs, each at --prec 8 --trials 2 --seed 1:
# trivial and unramified residues, over F_p(u) decided by the linear
# system except u/(u+1), whose denominator is not a cube.
INTEGRAL_RUNS = (
    ("Fp:3", "t"),
    ("Fp:3", "1"),
    ("Fq:9", "w"),
    ("Fq:9", "1"),
    ("Fp(u):3", "1/u^3 + 2/u"),
    ("Fp(u):3", "1/u^3 + 1/u"),
    ("Fp(u):3", "u/(u+1)"),
    ("Fp(u):2", "1/(u^2+1) + 1/(u+1) + t"),
)

# (p, n, q) of the tower_trials runs, each at --trials 1000 --seed 1.
TOWER_TRIAL_RUNS = ((2, 3, 4), (5, 2, 125))

# (field, f) of the fpu_fractions runs, each at --prec 24 --trials 2 --seed 1.
# Denominators are reducible ((u^2+2) = (u+1)(u+2) over F_3), repeated
# ((u+1)^2*u) and shared between terms; some terms are p-th powers that
# the best form folds into a lower exponent, where they meet another term.
FPU_FRACTION_RUNS = (
    ("Fp(u):2", "(1/(u^2+u))*t^-3 + (u/(u+1)^2)*t^-1"),
    ("Fp(u):2", "(1/((u+1)^2*u))*t^-5 + (1/(u+1))*t^-2 + t"),
    ("Fp(u):2", "(u/(u^3+u))*t^-3 + (1/(u^2+1))*t^-1"),
    ("Fp(u):2", "(1/(u^2+1))*t^-4 + (1/(u^2+u))*t^-3 + (1/u)*t^-1"),
    ("Fp(u):2", "(1/(u^2+u))*t^-7 + (u/(u^2+u+1))*t^-5 + (1/(u^2+u))*t^-1 + u*t"),
    ("Fp(u):2", "(1/(u^6+u+1))*t^-3 + u*t^-1"),
    ("Fp(u):2", "(1/(u^3+u+1)^2)*t^-5 + (1/(u^3+u+1))*t^-1"),
    ("Fp(u):3", "(u/(u^2+2))*t^-4 + (1/(u^2+2))*t^-1"),
    ("Fp(u):3", "(1/((u+1)^2*u))*t^-2 + (u/(u+2))*t^-1"),
    ("Fp(u):3", "((u+1)/(u^3+2*u))*t^-5 + (1/(u^2+2))*t^-2 + t"),
    ("Fp(u):3", "(1/(u^3+2*u))*t^-6 + (u/(u^2+2))*t^-4 + (1/(u+1)^2)*t^-1"),
    ("Fp(u):3", "(1/((u^2+1)^2*(u+2)))*t^-7 + (1/(u^2+1))*t^-2"),
    ("Fp(u):3", "(1/(u^7+2*u+1))*t^-4 + (1/u)*t^-1"),
    ("Fp(u):5", "(1/(u^2+4))*t^-3 + (u/(u+1)^2)*t^-1"),
    ("Fp(u):5", "(u/((u+1)^2*u^3))*t^-6 + (1/(u^2+4))*t^-2"),
    ("Fp(u):5", "(1/(u^4+4))*t^-2 + ((u+4)/(u^2+4))*t^-1 + t"),
    ("Fp(u):5", "(1/(u^2+4)^2)*t^-4 + (1/(u^2+4))*t^-3 + (1/(u+4))*t^-1"),
    ("Fp(u):5", "(1/(u^5+4))*t^-10 + (1/u)*t^-3"),
    ("Fp(u):5", "(1/((u+1)^3*(u^2+2)))*t^-7 + (1/(u^2+2))*t^-1"),
    ("Fp(u):7", "(1/(u^2+6))*t^-3 + (1/((u+1)^2*u))*t^-1"),
    ("Fp(u):7", "(u/(u^3+6*u))*t^-8 + (1/(u^2+6))*t^-2"),
    ("Fp(u):7", "(1/(u^2+6)^2)*t^-5 + (1/(u+6))*t^-4 + (1/(u^2+6))*t^-1"),
    ("Fp(u):7", "(1/(u^7+6))*t^-14 + (1/u)*t^-2"),
    ("Fp(u):7", "((u+1)/((u^2+1)*(u+3)^2))*t^-9 + (1/(u^2+1))*t^-3 + t"),
    ("Fp(u):7", "(1/(u^6+u+3))*t^-2 + u*t^-1"),
)


def runs():
    """(workload, seed, id, format, argv) of every run, in a fixed order."""
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for config in workloads.generate(name, seed):
                argv = config["argv"]
                at = argv.index("--format") + 1
                for fmt in ("json", "text"):
                    yield name, seed, config["id"], fmt, argv[:at] + [fmt] + argv[at + 1:]
    for ident, (field, f) in enumerate(FPU_RUNS):
        argv = ["analyze", "--field", field, "--f", f, "--prec", "24", "--trials", "2", "--seed", "1"]
        for fmt in ("json", "text"):
            yield "fpu_extra", 1, ident, fmt, argv + ["--format", fmt]
    yield "selftest", "-", 0, "text", ["selftest"]
    yield "selftest", 7, 1, "json", ["selftest", "--format", "json", "--seed", "7"]
    field, f = HEAVY_TAIL
    for seed in HEAVY_TAIL_SEEDS:
        yield "heavy_tail", seed, 0, "json", [
            "analyze", "--field", field, "--f", f, "--prec", "8", "--trials", "1",
            "--seed", str(seed), "--format", "json",
        ]
    for name, workload in workloads.WORKLOADS.items():
        if workload.kind != "analyze":
            continue
        for seed in LOW_PREC_SEEDS:
            for config in workloads.generate(name, seed):
                argv = config["argv"]
                at = argv.index("--prec") + 1
                for prec in LOW_PRECS:
                    ident = f"{name}:{config['id']}:prec{prec}"
                    yield "low_prec", seed, ident, "json", argv[:at] + [str(prec)] + argv[at + 1:]
    for ident, (field, f, prec, trials, seed) in enumerate(LARGE_P_RUNS):
        yield "large_p", seed, ident, "json", [
            "analyze", "--field", field, "--f", f, "--prec", str(prec), "--trials", str(trials),
            "--seed", str(seed), "--format", "json",
        ]
    for ident, (field, f) in enumerate(INTEGRAL_RUNS):
        yield "integral", 1, ident, "json", [
            "analyze", "--field", field, "--f", f, "--prec", "8", "--trials", "2",
            "--seed", "1", "--format", "json",
        ]
    for ident, (p, n, q) in enumerate(TOWER_TRIAL_RUNS):
        argv = ["tower", "--p", str(p), "--n", str(n), "--q", str(q), "--trials", "1000", "--seed", "1"]
        for fmt in ("json", "text"):
            yield "tower_trials", 1, ident, fmt, argv + ["--format", fmt]
    for ident, (field, f) in enumerate(FPU_FRACTION_RUNS):
        yield "fpu_fractions", 1, ident, "json", [
            "analyze", "--field", field, "--f", f, "--prec", "24", "--trials", "2",
            "--seed", "1", "--format", "json",
        ]


def digest(argv):
    """(exit code, sha256 of stdout) of one CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ramify.cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main():
    for name, seed, ident, fmt, argv in runs():
        code, sha = digest(argv)
        print(name, seed, ident, fmt, code, sha)


if __name__ == "__main__":
    main()
