"""Command line front end.

Three subcommands: ``analyze`` computes the invariant bundle of one
extension of k((t)) and runs its verifiers, ``tower`` reports the
defect family, and ``selftest`` executes the acceptance grid.  Output
is human-readable text or JSON (schema key ``ramify/1``); a batch file
runs one configuration per line.

Exit codes: 0 all verifiers pass, 1 a verifier failed, 2 invalid
input, 3 insufficient precision.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys

from .errors import InsufficientPrecision, InvalidSpec, RamifyError
from .extension import ASExtension
from .fields import FieldSpec
from .invariants import build_report
from .parsing import factor_prime_power, parse_field_spec, parse_series
from .records import dumps, encode
from .selftest import DEFAULT_SEED, run_all
from .tower import (
    TowerLevel,
    TowerSpec,
    _descent,
    check_step_identity,
    principality_chain,
    tower_levels,
    tower_report,
)

SCHEMA = "ramify/1"


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors raise InvalidSpec instead of exiting, so that they
    reach the caller like every other invalid input."""

    def error(self, message):
        raise InvalidSpec(f"{self.prog}: {message}")


@functools.cache
def make_parser():
    """The argument parser, built once: parsing keeps no state in it, so
    one parser serves every call and every batch line."""
    # one --out for the top level and every subcommand, so it is read
    # before and after the subcommand; being suppressed by default, an
    # --out given in neither place leaves no attribute at all
    out = _ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS,
                     help="write the report here instead of stdout")
    parser = _ArgumentParser(
        prog="ramify",
        description="ramification invariants of Artin-Schreier extensions of k((t))",
        parents=[out],
    )
    parser.add_argument("--batch", metavar="FILE", help="run one configuration per line")
    sub = parser.add_subparsers(dest="command")

    an = sub.add_parser("analyze", parents=[out], help="invariants of one extension")
    an.add_argument("--field", required=True, help="Fp:3 | Fq:9:w^2+1 | Fp(u):3")
    an.add_argument("--f", required=True, help="defining series, e.g. 't^-4 + u*t^-2'")
    an.add_argument("--prec", type=int, default=24,
                    help="precision of the echoed f and best f (default 24); the report"
                         " reads the exact terms of exponent <= 0 of best f, not this")
    an.add_argument("--trials", type=int, default=50,
                    help="ignored: every analyze check is exact (must be at least 1)")
    an.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="ignored: every analyze check is exact (echoed in JSON)")
    an.add_argument("--format", choices=("text", "json"), default="text")

    tw = sub.add_parser("tower", parents=[out], help="the rank-1 defect family")
    tw.add_argument("--p", type=int, required=True)
    tw.add_argument("--n", type=int, required=True)
    tw.add_argument("--q", type=int, required=True, help="order of the residue field F_q")
    tw.add_argument("--depth", type=int, default=5)
    tw.add_argument("--trials", type=int, default=32,
                    help="ignored: the step identity is exact (at least 1; echoed in JSON)")
    tw.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="ignored: the step identity is exact (echoed in JSON)")
    tw.add_argument("--format", choices=("text", "json"), default="text")
    tw.add_argument("--csv", metavar="PATH", help="also write the level table as CSV")

    st = sub.add_parser("selftest", parents=[out], help="run the acceptance grid")
    st.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="ignored: every criterion is exact (echoed in JSON)")
    st.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def run_analyze(args):
    field = parse_field_spec(args.field)
    f = parse_series(args.f, field, args.prec)
    ext = ASExtension(field, f)
    if args.trials < 1:
        raise InvalidSpec("--trials must be at least 1")
    report = build_report(ext)
    if args.format == "json":
        text = dumps({
            "schema": SCHEMA,
            "command": "analyze",
            "field": args.field,
            "f": str(f),
            "f_best": str(ext.best.f_best),
            "precision": args.prec,
            "seed": args.seed,
            "report": report.to_json(),
            "pass": report.all_checks_pass(),
        })
    else:
        lines = [
            f"field:          {field!r}",
            f"f:              {f}",
            f"best f:         {ext.best.f_best}",
            f"swan:           {encode(report.swan)}",
            f"case:           {report.case.value}",
            f"classification: {report.classification.value}",
            f"e, f, defect:   {report.e}, {report.f_inertia}, {report.defect}",
        ]
        for name in ("h", "j_sigma", "i_sigma", "n_of_j", "different"):
            cut = getattr(report, name)
            if cut is not None:
                lines.append(f"{name + ':':15s} {cut!r}")
        if report.rsw is not None:
            lines.append(f"rsw:            {report.rsw!r}")
        for name, check in sorted(report.checks.items()):
            lines.append(f"check {name}: {'pass' if check.ok else 'FAIL'}")
        text = "\n".join(lines)
    code = 0 if report.all_checks_pass() else 1
    return text, code


def run_tower(args):
    p, m = factor_prime_power(args.q)
    if p != args.p:
        raise InvalidSpec(f"--q {args.q} is not a power of --p {args.p}")
    if m < 2:
        raise InvalidSpec("--q must be a proper power of p, so the constant a avoids F_p")
    field = FieldSpec.finite(p, m)
    spec = TowerSpec(field, args.n, args.depth)
    levels = tower_levels(spec)
    report = tower_report(spec)
    if args.trials < 1:
        raise InvalidSpec("trials must be at least 1")
    identity = check_step_identity(spec)
    descent = _descent(spec, levels) if args.depth >= 2 else None
    payload = {
        "schema": SCHEMA,
        "command": "tower",
        "seed": args.seed,
        "levels": [lv.to_json() for lv in levels],
        "report": report.to_json(),
        "principality": principality_chain(report),
        "step_identity": {**encode(identity), "trials": args.trials},
        "descent": None if descent is None else descent.to_json(),
        "pass": identity.ok,
    }
    if args.csv:
        rows = [TowerLevel._fields] + [d.values() for d in payload["levels"]]
        _write_file(args.csv, "".join(",".join(map(str, row)) + "\n" for row in rows))
    if args.format == "json":
        text = dumps(payload)
    else:
        lines = [
            f"tower: p={spec.p} n={spec.n} q={field.order} depth={args.depth}",
            f"v_0 = {payload['report']['v_0']}   mu = {payload['report']['mu']}",
            f"J   = {report.j_cut!r}",
            f"H   = {report.h_cut!r}",
            f"N(J)= {report.n_of_j_cut!r}",
            f"diff= {report.different_cut!r}  (inverse {report.different_inv_cut!r})",
            f"T   = {report.t_cut!r}   T' = {report.t_prime_cut!r}",
            f"best f exists: {report.best_f_exists}   J principal: {report.j_principal}",
            "levels (index, n_i, -v(f_i)):",
        ]
        for lv in levels:
            lines.append(f"  {lv.index:2d}  {lv.n_i:10d}  {lv.neg_v_f}")
        verdict = "pass" if identity.ok else f"FAIL at {identity.witness}"
        lines.append(f"step identity: {verdict} (exact, in F_{field.order}(z', y))")
        text = "\n".join(lines)
    return text, (0 if identity.ok else 1)


def run_selftest(args):
    results = run_all()
    ok = all(r.ok for r in results)
    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": "selftest",
            "seed": args.seed,
            "criteria": [r.to_json() for r in results],
            "pass": ok,
        }
        text = dumps(payload)
    else:
        lines = [r.line() for r in results]
        lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
        text = "\n".join(lines)
    return text, (0 if ok else 1)


def _dispatch(args):
    if args.command == "analyze":
        return run_analyze(args)
    if args.command == "tower":
        return run_tower(args)
    if args.command == "selftest":
        return run_selftest(args)
    raise InvalidSpec("no subcommand given (try analyze, tower or selftest)")


def _write_file(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write {path}: {exc.strerror}") from None


def run_batch(path):
    """Run each configuration line of the file through ``_run_one``; a
    failing line becomes that line's entry and the batch goes on."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise InvalidSpec(str(exc)) from None
    outputs = []
    worst = 0
    for line in lines:
        if not line or line.startswith("#"):
            continue
        text, code = _run_one(line, nested=True)
        outputs.append({"config": line, "exit": code, "output": text})
        worst = max(worst, code)
    return dumps({"schema": SCHEMA, "command": "batch", "runs": outputs}), worst


def _run_one(argv, nested=False):
    """Parse and run one command line: (text to print, exit code).  The
    text is None when ``--out`` took the report.  A nested run gets its
    batch line unsplit and ignores ``--out``.  Every deliberate error is
    a RamifyError and maps to its exit code here, argparse usage errors,
    batch lines shlex cannot split and unwritable output files included."""
    try:
        if nested:
            try:
                argv = shlex.split(argv)
            except ValueError as exc:  # e.g. an unclosed quote
                raise InvalidSpec(f"cannot split the line: {exc}") from None
        args = make_parser().parse_args(argv)
        if args.batch is None:
            text, code = _dispatch(args)
        elif nested or args.command is not None:
            raise InvalidSpec(
                "--batch FILE [--out PATH] takes no other arguments and does not nest"
            )
        else:
            text, code = run_batch(args.batch)
        out = getattr(args, "out", None)
        if out and not nested:
            _write_file(out, text + "\n")
            return None, code
        return text, code
    except InsufficientPrecision as exc:
        return f"error: {exc} (raise --prec)", 3
    except RamifyError as exc:
        return f"error: {exc}", 2


def main(argv=None):
    text, code = _run_one(sys.argv[1:] if argv is None else argv)
    if text is not None:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left early, as in `ramify ... | head`
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
