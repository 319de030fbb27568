"""Tracing of the program's layers from outside ``src/``.

``Tracer`` replaces functions with wrappers that record either a span
(name, start, end, parent span, configuration id) or, for operations
that run millions of times per configuration, a call counter with
accumulated self time.  A wrapper's self time is its duration minus the
time its traced callees cover.  Everything stays in memory until the
caller writes ``Tracer.dump()`` out once.

``install_ramify`` wires the tracer into the program's modules: each
name is patched where its callers look it up (class attributes for
methods, every ``ramify.*`` module global that holds a function), and
``Tracer.uninstall`` puts the originals back.
"""

from __future__ import annotations

import sys
import time

# Inclusive-time groups: one figure for several spans, counting only the
# outermost activation when they nest (ideal_i_sigma calls ideal_j).
IDEALS = "invariants.ideals"
LIMITS = "tower.limits"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.frames = [0.0]  # traced time covered by callees, per open frame
        self.open = [-1]  # span index of each open span; -1 is the root
        self.spans = []  # [name, start, end, parent, config, self_s]
        self.stats = {}  # name -> [calls, self_s, terms]
        self.active = {}  # group -> open activations
        self.inclusive = {}  # group -> duration of outermost activations
        self.config = None  # id of the configuration being run
        self.identity = None  # (lhs, rhs) of the identity check in progress
        self.rounds = 0  # sampling rounds of identity checks
        self.accepted = 0  # trials those rounds accepted
        self._successes = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0])

    def counter(self, name, fn, terms=None):
        """Count calls and self time of a fine-grained operation;
        ``terms(*args)``, when given, is summed over the calls."""
        stat = self._stat(name)
        frames = self.frames
        clock = self.clock

        def wrapper(*args, **kwargs):
            if terms is not None:
                stat[2] += terms(*args)
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - frames.pop()
                frames[-1] += elapsed

        return wrapper

    def span(self, name, fn, group=None):
        """Record one span per call, plus calls, self time and the
        inclusive time of ``group`` (default: the name itself)."""
        group = group or name
        stat = self._stat(name)
        frames = self.frames
        clock = self.clock

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.open[-1], self.config, 0.0]
            self.open.append(len(self.spans))
            self.spans.append(record)
            depth = self.active.get(group, 0)
            self.active[group] = depth + 1
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                own = elapsed - frames.pop()
                frames[-1] += elapsed
                record[1], record[2], record[5] = start, end, own
                stat[0] += 1
                stat[1] += own
                self.active[group] = depth
                if depth == 0:
                    self.inclusive[group] = self.inclusive.get(group, 0.0) + elapsed
                self.open.pop()

        return wrapper

    def identity_check(self, fn):
        """Span for check_identity that also counts sampling rounds and
        accepted trials (see ``expr_evaluate``)."""
        inner = self.span("fields.check_identity", fn)

        def wrapper(lhs, rhs, *args, **kwargs):
            self.identity = (lhs, rhs)
            before = self._successes
            try:
                result = inner(lhs, rhs, *args, **kwargs)
            finally:
                self.identity = None
            # every completed round but a final failing one accepted a trial
            self.accepted += self._successes - before - (0 if result.ok else 1)
            return result

        return wrapper

    def expr_evaluate(self, fn):
        """Counter for Expr.evaluate.  Inside an identity check, each
        round evaluates the left side once at the top; a round is
        completed when the right side evaluates without a zero
        denominator."""
        inner = self.counter("fields.expr_eval", fn)

        def wrapper(expr, *args, **kwargs):
            identity = self.identity
            if identity is None:
                return inner(expr, *args, **kwargs)
            if expr is identity[0]:
                self.rounds += 1
            value = inner(expr, *args, **kwargs)
            if expr is identity[1]:
                self._successes += 1
            return value

        return wrapper

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, wrapper):
        """Replace a method and every alias of it in the class body
        (``__radd__ = __add__``)."""
        original = cls.__dict__[attr]
        for name, value in list(cls.__dict__.items()):
            if value is original:
                self._set(cls, name, wrapper)

    def patch_function(self, fn, wrapper, package="ramify"):
        """Replace a function in every module of the package that holds
        it, since ``from .x import f`` copies the name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0,))[0]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def layer_self_time(self, layer):
        return sum(s[1] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def dump(self):
        return {
            "span_fields": ["name", "start", "end", "parent", "config", "self_s"],
            "spans": self.spans,
            "stats": {name: {"calls": s[0], "self_s": s[1], "terms": s[2]}
                      for name, s in sorted(self.stats.items())},
            "inclusive_s": dict(sorted(self.inclusive.items())),
            "identity": {"rounds": self.rounds, "accepted": self.accepted},
        }


def _series_terms(a, b):
    """Nonzero-coefficient pairs a series multiply starts from."""
    other = getattr(b, "coeffs", None)
    return len(a.coeffs) * (1 if other is None else len(other))


def install_ramify(tracer):
    """Wrap the program's layer boundaries.  Returns the tracer."""
    from ramify import cli, extension, fields, invariants, parsing, series, tower

    counters = [
        (fields.ResidueElem, "__add__", "fields.add"),
        (fields.ResidueElem, "__sub__", "fields.sub"),
        (fields.ResidueElem, "__rsub__", "fields.sub"),
        (fields.ResidueElem, "__neg__", "fields.neg"),
        (fields.ResidueElem, "__mul__", "fields.mul"),
        (fields.ResidueElem, "inverse", "fields.inverse"),
        (fields.ResidueElem, "__truediv__", "fields.div"),
        (fields.ResidueElem, "__rtruediv__", "fields.div"),
        (fields.ResidueElem, "__pow__", "fields.pow"),
        (fields.FieldSpec, "__eq__", "fields.spec_eq"),
        (series.LaurentSeries, "__add__", "series.add"),
        (series.LaurentSeries, "__pow__", "series.pow"),
        (extension.LElement, "__mul__", "extension.lmul"),
        (extension.LElement, "sigma", "extension.sigma"),
        (extension.LElement, "trace", "extension.trace"),
    ]
    for cls, attr, name in counters:
        tracer.patch_method(cls, attr, tracer.counter(name, cls.__dict__[attr]))
    tracer.patch_method(
        series.LaurentSeries, "__mul__",
        tracer.counter("series.mul", series.LaurentSeries.__mul__, terms=_series_terms),
    )
    tracer.patch_method(fields.Expr, "evaluate", tracer.expr_evaluate(fields.Expr.evaluate))

    method_spans = [
        (series.LaurentSeries, "inverse", "series.inverse"),
        (extension.LElement, "norm", "extension.norm"),
        (extension.LElement, "inverse", "extension.inverse"),
    ]
    for cls, attr, name in method_spans:
        tracer.patch_method(cls, attr, tracer.span(name, cls.__dict__[attr]))

    function_spans = [
        (extension.reduce_to_best, "extension.reduce_to_best", None),
        (tower.check_step_identity, "tower.check_step_identity", None),
        (tower.tower_levels, "tower.tower_levels", LIMITS),
        (tower.tower_report, "tower.tower_report", LIMITS),
        (tower.best_f_descent, "tower.best_f_descent", LIMITS),
        (tower.principality_chain, "tower.principality_chain", None),
        (parsing.parse_field_spec, "parsing.parse_field_spec", None),
        (parsing.parse_series, "parsing.parse_series", None),
        (cli.main, "cli.main", None),
    ]
    for fn in (
        invariants.check_norm_ideal_identity,
        invariants.check_refined_swan_stability,
        invariants.check_norm_additivity,
        invariants.check_diagram_commutativity,
        invariants.check_difference_product_rules,
        invariants.trace_dual_cut,
    ):
        function_spans.append((fn, f"invariants.{fn.__name__}", None))
    for fn in (
        invariants.ideal_h,
        invariants.ideal_j,
        invariants.ideal_i_sigma,
        invariants.norm_of_j,
        invariants.different_ideal,
        invariants.refined_swan,
    ):
        function_spans.append((fn, f"invariants.{fn.__name__}", IDEALS))
    for fn, name, group in function_spans:
        tracer.patch_function(fn, tracer.span(name, fn, group))
    tracer.patch_function(fields.check_identity, tracer.identity_check(fields.check_identity))
    return tracer


# Per-layer metrics of a traced run: name -> (unit, how to read it).
def _calls(name):
    return lambda t: t.calls(name)


def _self(name):
    return lambda t: t.self_time(name)


def _inclusive(group):
    return lambda t: t.inclusive.get(group, 0.0)


def _layer(layer):
    return lambda t: t.layer_self_time(layer)


LAYER_METRICS = {
    "fields.mul.calls": ("count", _calls("fields.mul")),
    "fields.add.calls": ("count", _calls("fields.add")),
    "fields.inverse.calls": ("count", _calls("fields.inverse")),
    "fields.spec_eq.calls": ("count", _calls("fields.spec_eq")),
    "fields.self_s": ("s", _layer("fields")),
    "fields.expr_eval.calls": ("count", _calls("fields.expr_eval")),
    "fields.check_identity.s": ("s", _inclusive("fields.check_identity")),
    "fields.identity_accept_ratio": (
        "ratio", lambda t: t.accepted / t.rounds if t.rounds else 0.0
    ),
    "series.mul.calls": ("count", _calls("series.mul")),
    "series.mul.terms": ("count", lambda t: t.stats.get("series.mul", (0, 0.0, 0))[2]),
    "series.mul.self_s": ("s", _self("series.mul")),
    "series.add.calls": ("count", _calls("series.add")),
    "series.add.self_s": ("s", _self("series.add")),
    "series.inverse.calls": ("count", _calls("series.inverse")),
    "series.inverse.s": ("s", _inclusive("series.inverse")),
    "series.pow.calls": ("count", _calls("series.pow")),
    "series.self_s": ("s", _layer("series")),
    "extension.norm.calls": ("count", _calls("extension.norm")),
    "extension.norm.s": ("s", _inclusive("extension.norm")),
    "extension.lmul.calls": ("count", _calls("extension.lmul")),
    "extension.lmul.self_s": ("s", _self("extension.lmul")),
    "extension.sigma.calls": ("count", _calls("extension.sigma")),
    "extension.inverse.calls": ("count", _calls("extension.inverse")),
    "extension.inverse.s": ("s", _inclusive("extension.inverse")),
    "extension.trace.calls": ("count", _calls("extension.trace")),
    "extension.reduce_to_best.s": ("s", _inclusive("extension.reduce_to_best")),
    "extension.self_s": ("s", _layer("extension")),
    "invariants.check_norm_ideal_identity.s": (
        "s", _inclusive("invariants.check_norm_ideal_identity")
    ),
    "invariants.check_refined_swan_stability.s": (
        "s", _inclusive("invariants.check_refined_swan_stability")
    ),
    "invariants.check_norm_additivity.s": ("s", _inclusive("invariants.check_norm_additivity")),
    "invariants.check_diagram_commutativity.s": (
        "s", _inclusive("invariants.check_diagram_commutativity")
    ),
    "invariants.check_difference_product_rules.s": (
        "s", _inclusive("invariants.check_difference_product_rules")
    ),
    "invariants.trace_dual_cut.s": ("s", _inclusive("invariants.trace_dual_cut")),
    "invariants.ideals.s": ("s", _inclusive(IDEALS)),
    "invariants.self_s": ("s", _layer("invariants")),
    "tower.check_step_identity.s": ("s", _inclusive("tower.check_step_identity")),
    "tower.limits.s": ("s", _inclusive(LIMITS)),
    "tower.self_s": ("s", _layer("tower")),
    "parsing.parse_field_spec.s": ("s", _inclusive("parsing.parse_field_spec")),
    "parsing.parse_series.s": ("s", _inclusive("parsing.parse_series")),
    "cli.main.self_s": ("s", _self("cli.main")),
}


def layer_metrics(tracer):
    return {name: (unit, read(tracer)) for name, (unit, read) in LAYER_METRICS.items()}
