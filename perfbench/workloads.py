"""Workload definitions and the seeded configuration generator.

Each workload is a fixed cycle of *strata*: the field, pole order,
precision and trial count of one configuration.  A run makes whole
passes over the strata; the seed only draws the coefficients, the
random presentation ``h`` and the verifier seed, so every seed gives a
structurally identical workload of the same cost while no two seeds
give the same inputs.

Every analyze configuration presents ``f = f_best + (h^p - h)``, where
``f_best`` has a known pole and ``h`` has only poles.  The reduction
has to undo ``h`` exactly, and the generator knows every invariant of
``f_best`` in closed form (see oracle.py).  Nothing here imports the
program: inputs are plain text the CLI parses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Where f_best's terms sit is fixed, and F_p(u) coefficients other than
# the residue are constants: both move the cost of a configuration far
# more than the coefficient values do, so fixing them keeps every seed
# equally expensive.
TAIL_EXPONENTS = (1, 4, 9)
H_TERMS = 2  # poles of the random presentation h


@dataclass(frozen=True)
class Stratum:
    """One configuration shape of a workload's cycle."""

    field: str
    n: int = 0  # pole order of f_best (analyze only)
    prec: int = 0
    trials: int = 0
    # residue of a ferocious pole: not a p-th power, and neither is any
    # nonzero F_p multiple of it
    residue: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "analyze" or "tower"
    why: str
    strata: tuple
    pass_s: float  # nominal seconds of one untraced pass over the strata

    def passes(self, seconds):
        """Passes a run of about ``seconds`` makes.  The count, not the
        clock, ends a run, so two versions of the program are timed on
        identical configurations."""
        return max(1, round(seconds / self.pass_s))


# Every workload runs few verifier trials, so that a run has many
# samples: its median then does not jump between the cost clusters of
# its strata, and its tail latency has up to ten samples beyond it.
# Configurations at p >= 5 and over F_p(u) cost too much even at one or
# two trials to reach 100 samples.  wild_large_p has two Fp:7 strata,
# so that its tail, the 13th of 14 samples, is the second-fastest of
# four Fp:7 configurations rather than the faster of two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wild_small_p",
            "analyze",
            "series and F_q arithmetic at p = 2, 3 where the Laplace norm is cheap",
            (
                Stratum("Fp:2", 7, 32, 4),
                Stratum("Fp:3", 5, 32, 4),
                Stratum("Fq:4", 3, 32, 4),
                Stratum("Fq:8", 5, 32, 4),
                Stratum("Fq:9", 2, 32, 4),
                Stratum("Fp:2", 3, 32, 4),
                Stratum("Fp:3", 7, 32, 4),
                Stratum("Fq:4", 7, 32, 4),
                Stratum("Fq:8", 1, 32, 4),
                Stratum("Fq:9", 4, 32, 4),
            ),
            2.5,
        ),
        Workload(
            "wild_large_p",
            "analyze",
            "the O(2^p p) Laplace norm and trace_dual_cut traces at p = 5, 7",
            (
                Stratum("Fp:5", 1, 32, 1),
                Stratum("Fp:7", 1, 36, 1),
                Stratum("Fq:25", 1, 24, 1),
                Stratum("Fp:5", 2, 32, 1),
                Stratum("Fp:7", 1, 36, 1),
                Stratum("Fp:5", 4, 28, 1),
                Stratum("Fq:25", 2, 24, 1),
            ),
            12.7,
        ),
        Workload(
            "ferocious_fpu",
            "analyze",
            "F_p(u) coefficients: polynomial gcd canonicalisation and the du form",
            (
                Stratum("Fp(u):2", 4, 24, 2, "u"),
                Stratum("Fp(u):3", 3, 24, 1, "u+1"),
                Stratum("Fp(u):2", 3, 32, 2),
                Stratum("Fp(u):2", 6, 24, 2, "u^2/(u+1)"),
                Stratum("Fp(u):3", 2, 24, 1),
                Stratum("Fp(u):3", 6, 24, 1, "u"),
            ),
            1.7,
        ),
        Workload(
            "tower_identity",
            "tower",
            "F_q arithmetic in Expr.evaluate and check_identity, no series at all",
            tuple(
                Stratum(f"Fq:{q}", trials=200)
                for q in (4, 8, 9, 25, 27, 49, 64, 125)
            ),
            1.0,
        ),
    )
}

TOWER_DEPTH = 8


def prime_power(q):
    """(p, m) with q = p^m."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    while q % p == 0:
        q //= p
        m += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, m


def field_shape(spec):
    """(p, m, rational) of a field spec string: Fp:3, Fq:9 or Fp(u):3."""
    if spec.startswith("Fp(u):"):
        return int(spec[6:]), 1, True
    p, m = prime_power(int(spec.split(":")[1]))
    return p, m, False


def _poly_text(coeffs, var):
    """A polynomial over F_p, lowest degree first, as CLI literal text."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
            continue
        head = "" if c == 1 else f"{c}*"
        parts.append(head + (var if e == 1 else f"{var}^{e}"))
    return "+".join(parts)


def _random_coeff(rng, p, m, rational):
    """A random nonzero coefficient literal, parenthesised."""
    if rational:
        return f"({rng.randrange(1, p)})"
    while True:
        cs = [rng.randrange(p) for _ in range(m)]
        if any(cs):
            return f"({_poly_text(cs, 'w')})"


def _term(coef, e):
    return f"{coef}*t^{e}"


def _analyze_config(stratum, rng, ident):
    p, m, rational = field_shape(stratum.field)
    n = stratum.n
    ferocious = n % p == 0
    if ferocious and not (rational and stratum.residue):
        raise ValueError("a p-divisible pole needs a non-p-th-power residue")
    if ferocious:
        scale = rng.randrange(1, p)
        lead = f"({stratum.residue})" if scale == 1 else f"({scale}*({stratum.residue}))"
    else:
        lead = _random_coeff(rng, p, m, rational)
    best = {-n: lead}
    if n > 1:
        best[-1] = _random_coeff(rng, p, m, rational)
    for e in TAIL_EXPONENTS:
        best[e] = _random_coeff(rng, p, m, rational)
    # h has poles only, so h^p - h is absorbed completely by the
    # reduction; k = n/p is excluded because h_k^p would land on the
    # ferocious residue and stop being a p-th power there.
    choices = [k for k in range(1, n // p + 3) if not (ferocious and p * k == n)]
    h_terms = []
    for k in sorted(rng.sample(choices, H_TERMS)):
        c = _random_coeff(rng, p, m, rational)
        h_terms.append(f"{c}^{p}*t^{-p * k} - {_term(c, -k)}")
    f_best = " + ".join(_term(c, e) for e, c in sorted(best.items()))
    f = f_best + " + " + " + ".join(h_terms)
    argv = [
        "analyze", "--field", stratum.field, "--f", f,
        "--prec", str(stratum.prec), "--trials", str(stratum.trials),
        "--seed", str(rng.randrange(2 ** 31)), "--format", "json",
    ]
    return {
        "id": ident,
        "kind": "analyze",
        "argv": argv,
        "field": stratum.field,
        "f": f,
        "prec": stratum.prec,
        "expect": {
            "p": p,
            "n": n,
            "classification": "ferocious" if ferocious else "wild",
            "f_best": f_best,
        },
    }


def _tower_config(stratum, rng, ident):
    p, _, _ = field_shape(stratum.field)
    q = int(stratum.field.split(":")[1])
    valid = [n for n in range(3 if p == 2 else 1, 13) if math.gcd(n, p) == 1]
    n = rng.choice(valid)
    argv = [
        "tower", "--p", str(p), "--n", str(n), "--q", str(q),
        "--depth", str(TOWER_DEPTH), "--trials", str(stratum.trials),
        "--seed", str(rng.randrange(2 ** 31)), "--format", "json",
    ]
    return {
        "id": ident,
        "kind": "tower",
        "argv": argv,
        "field": stratum.field,
        "expect": {"p": p, "n": n, "q": q, "depth": TOWER_DEPTH, "trials": stratum.trials},
    }


def generate(name, seed, passes=1):
    """The workload's configurations for one seed: ``passes`` passes
    over the strata in a fixed order.  Only the random parts of each
    configuration depend on the seed."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    make = _analyze_config if workload.kind == "analyze" else _tower_config
    configs = []
    for _ in range(passes):
        for stratum in workload.strata:
            configs.append(make(stratum, rng, len(configs)))
    return configs
