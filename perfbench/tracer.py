"""Spans around the engine's public functions, recorded from outside.

:meth:`Tracer.install` replaces each target with a wrapper in every
``quatpoly`` module that binds it (``oracle`` binds ``is_normal_factorfree``
at import, the package root re-exports everything) and, for methods, on
the class itself.  Each call records a span: name, start, end and the
enclosing span.  Spans stay in memory until :meth:`metrics` folds them
into per-layer figures; :meth:`uninstall` puts every original back.

Self time is a span's duration minus the durations of its child spans;
total time sums only the outermost span of a name, so recursion through
the same name is not counted twice.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

MODULES = ("quatpoly", "freealg", "oracle", "qvars", "rewrite", "syzygy", "cli")

# Per-layer metrics, in report order: (name, unit, better).  Names ending in
# ``.calls``/``.total_s``/``.self_s`` come from spans, the others from the
# counters the collectors below fill, except the three that ``run.py``
# derives (stream latencies and the tracing overhead).
PER_LAYER = [
    ("rewrite.normalize.calls", "count", "lower"),
    ("rewrite.normalize.self_s", "s", "lower"),
    ("rewrite.normalize.terms_in", "count", "lower"),
    ("rewrite.normalize.terms_out", "count", "lower"),
    ("rewrite.normalize.nonzero_out", "count", "lower"),
    ("rewrite.normalize.repeat_p50_ms", "ms", "lower"),
    ("rewrite.normalize.fresh_p50_ms", "ms", "lower"),
    ("rewrite.overlaps.calls", "count", "lower"),
    ("rewrite.overlaps.total_s", "s", "lower"),
    ("rewrite.overlaps.obstructions_out", "count", "lower"),
    ("rewrite.RuleSet.init.calls", "count", "lower"),
    ("rewrite.RuleSet.init.total_s", "s", "lower"),
    ("rewrite.RuleSet.init.rules_sq", "count", "lower"),
    ("rewrite.s_polynomial.calls", "count", "lower"),
    ("rewrite.s_polynomial.total_s", "s", "lower"),
    ("rewrite.check_groebner.total_s", "s", "lower"),
    ("rewrite.check_groebner.obstructions_checked", "count", "lower"),
    ("rewrite.complete.total_s", "s", "lower"),
    ("rewrite.complete.rules_out", "count", "lower"),
    ("rewrite.complete.useful_ratio", "ratio", "higher"),
    ("rewrite.inter_reduce.total_s", "s", "lower"),
    ("rewrite.is_normal_factorfree.calls", "count", "lower"),
    ("rewrite.is_normal_factorfree.total_s", "s", "lower"),
    ("rewrite.is_normal_structural.calls", "count", "lower"),
    ("rewrite.is_normal_structural.total_s", "s", "lower"),
    ("syzygy.gb_vector.calls", "count", "lower"),
    ("syzygy.gb_vector.total_s", "s", "lower"),
    ("syzygy.gb_vector.rules_out", "count", "lower"),
    ("syzygy.gb_multilinear.total_s", "s", "lower"),
    ("syzygy.gen_vector_syzygies.total_s", "s", "lower"),
    ("syzygy.gen_vector_syzygies.gens_out", "count", "lower"),
    ("qvars.split.calls", "count", "lower"),
    ("qvars.split.self_s", "s", "lower"),
    ("qvars.split.terms_out", "count", "lower"),
    ("qvars.normalize_q.calls", "count", "lower"),
    ("qvars.normalize_q.self_s", "s", "lower"),
    ("freealg.Polynomial.init.calls", "count", "lower"),
    ("freealg.Polynomial.init.total_s", "s", "lower"),
    ("freealg.Polynomial.mul.calls", "count", "lower"),
    ("freealg.Polynomial.mul.total_s", "s", "lower"),
    ("freealg.Scalar.mul.calls", "count", "lower"),
    ("freealg.Scalar.mul.total_s", "s", "lower"),
    ("freealg.Polynomial.str.total_s", "s", "lower"),
    ("oracle.zero_test.calls", "count", "lower"),
    ("oracle.zero_test.self_s", "s", "lower"),
    ("oracle.zero_test.trials", "count", "lower"),
    ("oracle.random_assignment.calls", "count", "lower"),
    ("oracle.random_assignment.total_s", "s", "lower"),
    ("oracle.evaluate.calls", "count", "lower"),
    ("oracle.dimension_check.calls", "count", "lower"),
    ("oracle.dimension_check.self_s", "s", "lower"),
    ("oracle.dimension_check.words", "count", "lower"),
    ("oracle.dimension_check.rank", "count", "lower"),
    ("oracle.identity_corpus.total_s", "s", "lower"),
    ("oracle.identity_corpus.items", "count", "lower"),
    ("cli.parse_expression.calls", "count", "lower"),
    ("cli.parse_expression.total_s", "s", "lower"),
    ("cli.parse_expression.chars_in", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "x", "lower"),
]

DERIVED = {
    "rewrite.normalize.repeat_p50_ms",
    "rewrite.normalize.fresh_p50_ms",
    "trace.overhead_ratio",
}


def _zero_test_trials(t, args, kw, result):
    t.count("oracle.zero_test.trials", result.trials if result.passed else result.witness_trial + 1)


def _normalize(t, args, kw, result):
    t.count("rewrite.normalize.terms_in", len(args[0].terms))
    t.count("rewrite.normalize.terms_out", len(result.terms))
    t.count("rewrite.normalize.nonzero_out", bool(result))
    # An S-polynomial normalized directly inside complete: a useful one
    # leaves a nonzero residue that becomes a new rule.
    if args[0] is t.last_spoly and t.caller_is("rewrite.complete"):
        t.count("rewrite.complete.spoly_normalized", 1)
        t.count("rewrite.complete.spoly_useful", bool(result))


def _s_polynomial(t, args, kw, result):
    t.last_spoly = result


def _ruleset_init(t, args, kw, result):
    t.count("rewrite.RuleSet.init.rules_sq", len(args[0].rules) ** 2)


def _dimension_check(t, args, kw, result):
    t.count("oracle.dimension_check.words", result.total_words)
    t.count("oracle.dimension_check.rank", result.rank)


def _sized(counter):
    def collect(t, args, kw, result):
        t.count(counter, len(result))

    return collect


# (span name, module, attribute or Class.method, collector or None)
TARGETS = [
    ("rewrite.normalize", "rewrite", "normalize", _normalize),
    ("rewrite.overlaps", "rewrite", "overlaps", _sized("rewrite.overlaps.obstructions_out")),
    ("rewrite.RuleSet.init", "rewrite", "RuleSet.__init__", _ruleset_init),
    ("rewrite.s_polynomial", "rewrite", "s_polynomial", _s_polynomial),
    (
        "rewrite.check_groebner",
        "rewrite",
        "check_groebner",
        lambda t, a, k, r: t.count("rewrite.check_groebner.obstructions_checked", r.obstructions_checked),
    ),
    ("rewrite.complete", "rewrite", "complete", _sized("rewrite.complete.rules_out")),
    ("rewrite.inter_reduce", "rewrite", "inter_reduce", None),
    ("rewrite.is_normal_factorfree", "rewrite", "is_normal_factorfree", None),
    ("rewrite.is_normal_structural", "rewrite", "is_normal_structural", None),
    ("syzygy.gb_vector", "syzygy", "gb_vector", _sized("syzygy.gb_vector.rules_out")),
    ("syzygy.gb_multilinear", "syzygy", "gb_multilinear", None),
    (
        "syzygy.gen_vector_syzygies",
        "syzygy",
        "gen_vector_syzygies",
        _sized("syzygy.gen_vector_syzygies.gens_out"),
    ),
    (
        "qvars.split",
        "qvars",
        "split",
        lambda t, a, k, r: t.count("qvars.split.terms_out", len(r.terms)),
    ),
    ("qvars.normalize_q", "qvars", "normalize_q", None),
    ("freealg.Polynomial.init", "freealg", "Polynomial.__init__", None),
    ("freealg.Polynomial.mul", "freealg", "Polynomial.__mul__", None),
    ("freealg.Scalar.mul", "freealg", "Scalar.__mul__", None),
    ("freealg.Polynomial.str", "freealg", "Polynomial.__str__", None),
    ("oracle.zero_test", "oracle", "zero_test", _zero_test_trials),
    ("oracle.random_assignment", "oracle", "random_assignment", None),
    ("oracle.evaluate", "oracle", "evaluate", None),
    ("oracle.dimension_check", "oracle", "dimension_check", _dimension_check),
    ("oracle.identity_corpus", "oracle", "identity_corpus", _sized("oracle.identity_corpus.items")),
    (
        "cli.parse_expression",
        "cli",
        "parse_expression",
        lambda t, a, k, r: t.count("cli.parse_expression.chars_in", len(a[0])),
    ),
]


def _module(short):
    return importlib.import_module("quatpoly" if short == "quatpoly" else "quatpoly." + short)


class Tracer:
    """Records spans at the wrapped functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [t[0] for t in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counters = {}
        self.last_spoly = None
        self._restore = []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def caller_is(self, name):
        """True when the innermost open span has this name."""
        return bool(self.stack) and self.names[self.span_name[self.stack[-1]]] == name

    def _wrap(self, name_id, fn, collect):
        clock, stack = self.clock, self.stack
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kw):
            idx = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(clock())
            try:
                result = fn(*args, **kw)
            finally:
                s_end[idx] = clock()
                stack.pop()
            if collect is not None:
                collect(self, args, kw, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [_module(m) for m in MODULES]
        for name_id, (_, owner, attr, collect) in enumerate(TARGETS):
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(_module(owner), cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(name_id, original, collect)
                # Aliases such as Scalar.__rmul__ = __mul__ share the span.
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        self._restore.append((cls, key, original))
                        setattr(cls, key, wrapper)
            else:
                original = getattr(_module(owner), attr)
                wrapper = self._wrap(name_id, original, collect)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    def metrics(self):
        """Per-layer figures from the recorded spans and counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_time = [0.0] * n_names
        child = [0.0] * len(self.span_start)
        names, parents = self.span_name, self.span_parent
        for i in range(len(self.span_start)):
            d = self.span_end[i] - self.span_start[i]
            p = parents[i]
            if p >= 0:
                child[p] += d
        for i in range(len(self.span_start)):
            k = names[i]
            d = self.span_end[i] - self.span_start[i]
            calls[k] += 1
            self_time[k] += d - child[i]
            p = parents[i]
            while p >= 0 and names[p] != k:
                p = parents[p]
            if p < 0:
                total[k] += d
        out = dict(self.counters)
        for k, name in enumerate(self.names):
            out[name + ".calls"] = calls[k]
            out[name + ".total_s"] = total[k]
            out[name + ".self_s"] = self_time[k]
        normalized = out.pop("rewrite.complete.spoly_normalized", 0)
        useful = out.pop("rewrite.complete.spoly_useful", 0)
        out["rewrite.complete.useful_ratio"] = useful / normalized if normalized else 0.0
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path):
        """Write every span as ``name start end parent`` (seconds from the
        first span; parent is a line index, -1 at top level)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    "%s\t%.9f\t%.9f\t%d\n"
                    % (
                        self.names[self.span_name[i]],
                        self.span_start[i] - t0,
                        self.span_end[i] - t0,
                        self.span_parent[i],
                    )
                )
