"""The benchmark's four workloads, built from a seed and gated by known answers.

Each workload has four phases:

* the constructor makes the seeded inputs that need no engine (the
  ``normal_forms`` stream); it is not timed.
* ``setup()`` builds the rule families, generator lists, corpus and inputs
  that need the engine; it is timed as part of ``setup_s``.
* ``operations()`` returns the timed phase as a list of zero-argument
  callables, one per operation; ``verdict_s`` and ``verdict_ref`` cover
  all of them.
* ``gates(outputs)`` runs outside the timed phase and returns one boolean
  per operation: True when the verdict is the known answer.  Operations
  that raised arrive here as :class:`Raised` and always fail.

The engine is reached only through its public names (``quatpoly.__all__``
plus ``cli.parse_expression``), always as module attributes, so that the
tracer's wrappers and a test's stubs are the ones called.

Why these four: ``confluence`` reads one fixed rule set through the
``rewrite.normalize`` memo, while ``completion`` uses the same layer the
other way and rebuilds rule sets constantly; ``normal_forms`` is the only
one that loads ``cli`` parsing, ``qvars.split`` and scalar arithmetic, and
mixes memo hits with misses; ``oracle_audit`` loads ``oracle`` and leaves
``rewrite`` nearly idle.  A change that speeds up one layer should show on
the workload that loads it and leave the others unchanged.
"""

from __future__ import annotations

import hashlib
import random
import time

from inputs import REFERENCE_EVERY_S, SIZES, expression_stream, reference_seconds
from quatpoly import cli, freealg, oracle, qvars, rewrite, syzygy

# The rule whose removal criterion 3's negative control detects.
DROPPED_LEAD = (3, 2, 4, 1)

# Normal-word counts of the degree-d slice: the Hilbert function of the
# quotient, a fact about the ideal rather than about any rule family.
KNOWN_DIMENSIONS = {
    (2, 4, None): 9,
    (3, 3, None): 19,
    (3, 5, None): 69,
    (2, 8, None): 25,
    (4, 4, None): 115,
    (4, 6, (1, 1, 2, 2, 3, 4)): 18,
}


class Raised:
    """An operation that raised instead of returning a verdict."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return "Raised(%r)" % (self.exc,)


def run_operations(ops):
    """The timed phase: every operation in order, with its latency; an
    operation that raises yields :class:`Raised` and the rest still run.

    The reference task runs before the first operation, after the last,
    and between operations whenever half a second of operation time has
    passed.
    Returns ``(outputs, latencies, reference)`` where ``reference[i]`` is
    the mean time of the two reference runs around operation ``i``.
    """
    outputs, latencies, before = [], [], []
    slices = [reference_seconds()]
    pending = 0.0
    for op in ops:
        before.append(len(slices) - 1)
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a raising operation is a failed verdict
            out = Raised(exc)
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
        pending += latencies[-1]
        if pending >= REFERENCE_EVERY_S:
            slices.append(reference_seconds())
            pending = 0.0
    if pending:
        slices.append(reference_seconds())
    reference = [(slices[b] + slices[b + 1]) / 2 for b in before]
    return outputs, latencies, reference


def _ok(out, gate):
    return not isinstance(out, Raised) and gate(out)


class Confluence:
    """``check_groebner`` on closed-form families plus a negative control."""

    name = "confluence"

    def __init__(self, seed, size):
        self.rng = random.Random(seed)
        self.size = SIZES[size][self.name]

    def setup(self):
        self.cases = []
        for n, d in self.size["vector"]:
            gens = syzygy.gen_vector_syzygies(n)
            self.rng.shuffle(gens)
            self.cases.append((syzygy.gb_vector(n, d), d, False, gens, True))
        for n in self.size["multilinear"]:
            gens = syzygy.gen_multilinear_syzygies(n)
            self.rng.shuffle(gens)
            self.cases.append((syzygy.gb_multilinear(n), 6, True, gens, True))
        full = syzygy.gb_multilinear(4)
        broken = rewrite.RuleSet(
            [r for r in full.rules if r.lead != DROPPED_LEAD], degree_bound=4
        )
        gens = syzygy.gen_multilinear_syzygies(4)
        self.rng.shuffle(gens)
        self.cases.append((broken, 6, True, gens, False))

    def operations(self):
        return [
            (lambda c=c: rewrite.check_groebner(c[0], c[1], multilinear=c[2], generators=c[3]))
            for c in self.cases
        ]

    def gates(self, outputs):
        verdicts = []
        for case, report in zip(self.cases, outputs):
            if case[4]:
                verdicts.append(_ok(report, lambda r: r.ok))
            else:
                verdicts.append(_ok(report, _negative_control_caught))
        return verdicts


def _negative_control_caught(report):
    leads = {p.leading_word() for p in report.generator_residues}
    return not report.ok and DROPPED_LEAD in leads


class Completion:
    """Bounded ``complete`` of the vector generators, compared with the
    closed-form lead sets."""

    name = "completion"

    def __init__(self, seed, size):
        self.rng = random.Random(seed)
        self.size = SIZES[size][self.name]

    def setup(self):
        self.cases = []
        for n, d in self.size["cases"]:
            gens = [g.element for g in syzygy.gen_vector_syzygies(n)]
            self.rng.shuffle(gens)
            self.cases.append((gens, d, set(syzygy.gb_vector(n, d).leads())))

    def operations(self):
        return [(lambda c=c: rewrite.complete(c[0], c[1])) for c in self.cases]

    def gates(self, outputs):
        return [
            _ok(out, lambda rs, want=case[2]: set(rs.leads()) == want)
            for case, out in zip(self.cases, outputs)
        ]




class NormalForms:
    """A seeded stream of text expressions: parse, normalize, print."""

    name = "normal_forms"

    def __init__(self, seed, size):
        self.seed = seed
        self.size = s = SIZES[size][self.name]
        self.texts, self.first = expression_stream(seed, s["items"], s["v"], s["q"])

    def setup(self):
        s = self.size
        self.v_base = syzygy.gb_vector(*s["v"])
        self.q_n, self.q_degree = s["q"]
        # normalize_q builds its rule family lazily; force it here.
        qvars.normalize_q(qvars.QPolynomial.variable(1), n=self.q_n, max_degree=self.q_degree)

    def _item(self, text):
        mode, value = cli.parse_expression(text)
        t0 = time.perf_counter()
        if mode == "q":
            result = qvars.normalize_q(value, n=self.q_n, max_degree=self.q_degree)
        else:
            result = rewrite.normalize(value, self.v_base)
        t1 = time.perf_counter()
        return mode, value, result, str(result), t1 - t0

    def operations(self):
        return [(lambda t=t: self._item(t)) for t in self.texts]

    def semantic_sample(self):
        """Indices of the first-seen items whose normal form is checked by
        evaluation (seeded, fixed for the stream)."""
        fresh = [i for i, f in enumerate(self.first) if f == i]
        rng = random.Random(self.seed + 1)
        return set(rng.sample(fresh, min(self.size["samples"], len(fresh))))

    def gates(self, outputs):
        sample = self.semantic_sample()
        verdicts = []
        for i, out in enumerate(outputs):
            if isinstance(out, Raised):
                verdicts.append(False)
                continue
            mode, value, result, text, _ = out
            ok = all(rewrite.is_normal_structural(w) for w in result.terms)
            first = outputs[self.first[i]]
            ok = ok and not isinstance(first, Raised) and first[3] == text
            if ok and i in sample:
                source = qvars.split(value) if mode == "q" else value
                ok = oracle.zero_test(source - result, trials=100, seed=self.seed).passed
            verdicts.append(ok)
        return verdicts

    @staticmethod
    def digest(outputs):
        h = hashlib.sha256()
        for out in outputs:
            h.update(b"!" if isinstance(out, Raised) else out[3].encode())
            h.update(b"\n")
        return h.hexdigest()


class OracleAudit:
    """``zero_test`` over the identity corpus and perturbed items, and
    three-way ``dimension_check`` counts."""

    name = "oracle_audit"

    def __init__(self, seed, size):
        self.seed = seed
        self.rng = random.Random(seed)
        self.size = SIZES[size][self.name]

    def setup(self):
        s = self.size
        corpus = [p for _, p in oracle.identity_corpus()]
        if s["corpus"] is not None:
            corpus = self.rng.sample(corpus, s["corpus"])
        self.rng.shuffle(corpus)
        perturbed = []
        for p in self.rng.sample(corpus, s["perturbed"]):
            perturbed.append(p + freealg.Polynomial.from_word(self._normal_word()))
        # (polynomial, expected to pass)
        self.zero_cases = [(p, True) for p in corpus] + [(p, False) for p in perturbed]
        self.dim_cases = []
        for n, d, ms in s["dims"]:
            gens = syzygy.gen_vector_syzygies(n)
            base = syzygy.gb_vector(n, max(3, d))
            self.dim_cases.append((n, d, gens, base, ms, KNOWN_DIMENSIONS[(n, d, ms)]))

    def _normal_word(self):
        # A normal word is a nonzero class modulo the ideal, so adding it
        # to an identity gives a polynomial that is not identically zero.
        while True:
            w = tuple(self.rng.randint(1, 6) for _ in range(self.rng.randint(1, 6)))
            if rewrite.is_normal_structural(w):
                return w

    def operations(self):
        trials, zseed = self.size["trials"], self.seed
        ops = [
            (lambda p=p: oracle.zero_test(p, trials=trials, seed=zseed))
            for p, _ in self.zero_cases
        ]
        ops += [
            (lambda c=c: oracle.dimension_check(c[0], c[1], c[2], c[3], multiset=c[4]))
            for c in self.dim_cases
        ]
        return ops

    def gates(self, outputs):
        nz = len(self.zero_cases)
        verdicts = [
            _ok(out, lambda r, want=want: r.passed == want)
            for (_, want), out in zip(self.zero_cases, outputs[:nz])
        ]
        verdicts += [
            _ok(out, lambda r, want=case[5]: r.ok and r.normal_by_rank == want)
            for case, out in zip(self.dim_cases, outputs[nz:])
        ]
        return verdicts


WORKLOADS = {w.name: w for w in (Confluence, Completion, NormalForms, OracleAudit)}
