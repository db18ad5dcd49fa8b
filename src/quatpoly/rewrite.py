"""Reduction engine: factor matching against leading words, normal forms,
structural normality predicates, overlap detection and bounded completion.

A :class:`RewriteRule` is a monic polynomial split as ``lead -> rhs``; a
:class:`RuleSet` is an immutable, canonically ordered family of such rules
whose leads are pairwise factor-free.  Normal-form computation memoizes
per-word results on the rule set, which is sound because the rewrite step
chosen for a word depends on the word alone.

A rule set indexes its leads in one dict from lead word to canonical rule
index.  Factor matching, the factor-free check and the factor-freeness of
the rule set itself all probe that dict with the factors of a word, one
lead length at a time.  The memo takes one rewrite step per word it
enters, and ``normalize`` sums the memo entries of its terms in one
accumulate loop.

An overlap's S-polynomial is read straight off the two rules' tails,
placed between the head and tail of the overlap word, with no products;
``check_groebner`` and ``complete`` pass it to ``normalize``.
``complete`` is a degree-by-degree completion: one overlap pass and one
rule set per degree.

A rule set is *closed* when it is invariant under every order-preserving
relabeling of its alphabet 1..N, N its largest lead letter: grouping the
rules by their pattern on letters 1..k (lead, tail, ``family``, relabeled
``indices`` and ``variant``), each class has exactly C(N, k) members, so
it holds the pattern on every k-subset of 1..N.  ``RuleSet`` decides this
from its rules alone.  ``normalize`` against a closed set groups the
terms by letter set, relabels each block on letters T, all <= N,
order-preservingly onto 1..|T|, normalizes it there and maps the result
back, so one memo entry serves a letter pattern on every letter set.
This is exact.  A rule that fires inside a word uses only the word's
letters.  Closure maps the rules inside T one-to-one onto the rules
inside 1..|T|, and the relabeling preserves ``_rule_key`` order, since
every rule's indices are letters of its lead.  So ``_first_match`` picks
the corresponding rule at the same offset, and even a set that is not
confluent takes the same rewrite path on the relabeled word.  A letter
outside 1..N occurs in no lead and blocks the matches across it;
relabeling it into 1..N would expose them, so a block with such a letter
is not relabeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .freealg import Polynomial, Word, word_key, word_multiset, word_str


@dataclass(frozen=True, eq=False)
class RewriteRule:
    """Rewrite ``lead`` to ``rhs``; the underlying element is ``lead - rhs``."""

    lead: Word
    rhs: Polynomial
    family: str = ""
    indices: tuple = ()
    variant: int = 0

    def __post_init__(self):
        if not self.lead:
            raise ValueError("rewrite rule with empty lead (ideal contains a unit)")
        lk = word_key(self.lead)
        lm = word_multiset(self.lead)
        for w in self.rhs.terms:
            if word_key(w) >= lk:
                raise ValueError(
                    "rule lead %s does not dominate %s" % (word_str(self.lead), word_str(w))
                )
            if word_multiset(w) != lm:
                raise ValueError(
                    "rule %s -> ... mixes letter multisets" % word_str(self.lead)
                )

    @property
    def element(self) -> Polynomial:
        return Polynomial.from_word(self.lead) - self.rhs

    @property
    def degree(self) -> int:
        return len(self.lead)

    def __repr__(self):
        return "RewriteRule(%s -> %s)" % (word_str(self.lead), self.rhs)


def _rule_key(rule: RewriteRule):
    return (len(rule.lead), rule.family, rule.indices, rule.variant, rule.lead)


def _relabel_blocks(pairs, top=None):
    """Group ``(word, coefficient)`` pairs by the set of letters of the word.

    Yields ``(letters, local)`` per block, ``letters`` its sorted letters
    and ``local`` its pairs relabeled order-preservingly onto 1..k.  A
    block already on 1..k, or with ``top`` given and a letter outside
    1..top, is yielded as is with ``letters`` None.
    """
    blocks = {}
    for w, c in pairs:
        blocks.setdefault(frozenset(w), []).append((w, c))
    for letter_set, block in blocks.items():
        letters = sorted(letter_set)
        if not letters or (letters[0] == 1 and letters[-1] == len(letters)):
            yield None, block
            continue
        if top is not None and (letters[0] < 1 or letters[-1] > top):
            yield None, block
            continue
        rank = {x: i for i, x in enumerate(letters, 1)}
        yield letters, [(tuple([rank[x] for x in w]), c) for w, c in block]


def _unlabel(letters, terms: dict) -> dict:
    """Map a word->coefficient dict on 1..k back onto ``letters``."""
    if letters is None:
        return terms
    return {tuple([letters[i - 1] for i in w]): c for w, c in terms.items()}


def _closure_top(rules, tails) -> int:
    """The largest lead letter N if the rules are closed under
    order-preserving relabeling of 1..N (see the module docstring), else 0.
    One pass over the rules."""
    classes = {}
    top = 0
    for r, tail in zip(rules, tails):
        if r.rhs.scalar_symbols():
            # A tail with symbols names symbols that the relabeling would
            # have to move as well.
            return 0
        letters = sorted(set(r.lead))
        if letters[0] < 1:
            return 0
        rank = {x: i for i, x in enumerate(letters, 1)}
        try:
            indices = tuple([rank[x] for x in r.indices])
        except KeyError:
            return 0
        local_tail = tuple([(tuple([rank[x] for x in u]), c) for u, c in tail])
        key = (tuple([rank[x] for x in r.lead]), local_tail, r.family, indices, r.variant)
        classes[key] = classes.get(key, 0) + 1
        top = max(top, letters[-1])
    # Leads are distinct, so a class has at most one member per letter
    # set; a class on k letters is full when it has C(N, k) of them.
    if all(count == math.comb(top, max(key[0])) for key, count in classes.items()):
        return top
    return 0


class RuleSet:
    """Canonically ordered rewrite rules with pairwise factor-free leads.

    ``_index`` maps each lead word to its canonical rule index and
    ``_lengths`` lists the distinct lead lengths in ascending order.
    Canonical order sorts by lead length first, so probing the factors of
    a word one length at a time and keeping the lowest index finds the
    first matching rule in canonical order.  ``_tails`` holds each rule's
    rhs as (word, coefficient) pairs.
    ``_top`` is the largest lead letter N when the set is closed under
    order-preserving relabeling of 1..N, else 0; ``normalize`` then keys
    the memo by letter pattern.

    Immutable after construction; the internal normal-form cache is a pure
    memo (idempotent writes), so sharing across threads is safe.
    """

    __slots__ = ("rules", "degree_bound", "_index", "_lengths", "_tails", "_top", "_nf_cache")

    def __init__(self, rules=(), degree_bound=None):
        rules = tuple(sorted(rules, key=_rule_key))
        index = {}
        for i, r in enumerate(rules):
            if r.lead in index:
                raise ValueError("duplicate lead %s" % word_str(r.lead))
            index[r.lead] = i
        self.rules = rules
        self.degree_bound = degree_bound
        self._index = index
        self._lengths = sorted({len(lead) for lead in index})
        # A lead's first match is itself unless it contains a shorter lead.
        for i, r in enumerate(rules):
            j, _ = _first_match(self, r.lead)
            if j != i:
                raise ValueError(
                    "lead %s contains lead %s" % (word_str(r.lead), word_str(rules[j].lead))
                )
        self._tails = tuple(r.rhs.terms.items() for r in rules)
        self._top = _closure_top(rules, self._tails)
        self._nf_cache = {}

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def leads(self) -> tuple:
        return tuple(r.lead for r in self.rules)

    def __repr__(self):
        return "RuleSet(%d rules, degree_bound=%r)" % (len(self.rules), self.degree_bound)


def find_factor(w: Word, lead: Word):
    """Leftmost offset of ``lead`` inside ``w``, or None.  The empty word
    is a factor of everything at offset 0."""
    k = len(lead)
    for p in range(len(w) - k + 1):
        if w[p : p + k] == lead:
            return p
    return None


def _first_match(base: RuleSet, w: Word):
    """``(rule index, offset)`` of the first rule in canonical order that
    occurs in ``w``, at its leftmost occurrence; None if ``w`` is normal."""
    index = base._index
    n = len(w)
    for k in base._lengths:
        if k > n:
            break
        best = None
        for p in range(n - k + 1):
            i = index.get(w[p : p + k])
            if i is not None and (best is None or i < best[0]):
                best = (i, p)
        if best is not None:
            return best
    return None


def _first_step(base: RuleSet, w: Word):
    """One rewrite of ``w`` by the first matching rule at its leftmost
    occurrence, as a list of (word, coefficient) pairs; None if normal."""
    hit = _first_match(base, w)
    if hit is None:
        return None
    return _rewrite_at(base, hit[0], w, hit[1])


def _rewrite_at(base: RuleSet, i: int, w: Word, pos: int):
    """``w`` with the lead of rule ``i`` at offset ``pos`` replaced by the
    rule's tail, as a list of (word, coefficient) pairs."""
    head, tail = w[:pos], w[pos + len(base.rules[i].lead) :]
    return [(head + u + tail, c) for u, c in base._tails[i]]


def _check_bound(base: RuleSet, degree: int):
    if base.degree_bound is not None and degree > base.degree_bound:
        raise ValueError(
            "degree %d exceeds the rule set bound %d" % (degree, base.degree_bound)
        )


def reduce_once(p: Polynomial, base: RuleSet):
    """Rewrite the highest reducible term of ``p`` once.

    Returns ``(polynomial, changed)``.  The highest term with a lead
    factor is rewritten at the leftmost occurrence of the first matching
    rule in canonical order.
    """
    _check_bound(base, p.degree())
    for w in p.terms:  # iteration is descending
        step = _first_step(base, w)
        if step is None:
            continue
        c = p.terms[w]
        data = dict(p.terms)
        del data[w]
        for u, cu in step:
            data[u] = data.get(u, 0) + c * cu
        return Polynomial(data), True
    return p, False


def _nf_word(base: RuleSet, w: Word) -> dict:
    """Fully reduced form of a single word, as a raw word->coefficient
    dict with ``int`` coefficients wherever the tails allow.  Memoized on
    the rule set.

    A word whose successors are not all cached yet keeps its rewrite step
    in ``held`` until it is revisited, so each memo miss takes exactly
    one :func:`_first_step`; the step is dropped once the word is cached.
    """
    cache = base._nf_cache
    hit = cache.get(w)
    if hit is not None:
        return hit
    stack = [w]
    held = {}
    while stack:
        u = stack[-1]
        if u in cache:
            stack.pop()
            continue
        # Successors are smaller words, so a held word comes back to the
        # top only after every successor it pushed is cached.
        step = held.pop(u, None)
        if step is None:
            step = _first_step(base, u)
            if step is None:
                cache[u] = {u: 1}
                stack.pop()
                continue
            missing = [x for x, _ in step if x not in cache]
            if missing:
                held[u] = step
                stack.extend(missing)
                continue
        cache[u] = _accumulate(base, step)
        stack.pop()
    return cache[w]


def _accumulate(base: RuleSet, pairs) -> dict:
    """The raw sum of ``c * nf(w)`` over ``(w, c)`` pairs, zeros dropped."""
    cache = base._nf_cache
    acc = {}
    for w, c in pairs:
        nf = cache.get(w)
        if nf is None:
            nf = _nf_word(base, w)
        for u, cu in nf.items():
            val = acc.get(u, 0) + c * cu
            if val:
                acc[u] = val
            elif u in acc:
                del acc[u]
    return acc


def normalize(p: Polynomial, base: RuleSet) -> Polynomial:
    """The unique fixed point of :func:`reduce_once`.

    Termination follows from the well-founded word order; every rewrite
    replaces a word by strictly smaller words of the same letter multiset.
    Against a closed rule set each letter-set block is normalized on
    1..k and mapped back (see the module docstring).
    """
    _check_bound(base, p.degree())
    if not base._top:
        return Polynomial(_accumulate(base, p.terms.items()))
    out = {}
    for letters, local in _relabel_blocks(p.terms.items(), base._top):
        out.update(_unlabel(letters, _accumulate(base, local)))
    return Polynomial(out)


def is_normal_factorfree(w: Word, base: RuleSet) -> bool:
    """True iff no rule lead occurs as a factor of ``w``."""
    _check_bound(base, len(w))
    return _first_match(base, w) is None


def _descents(w: Word):
    return [p for p in range(len(w) - 1) if w[p] > w[p + 1]]


def _normal_general(w: Word) -> bool:
    # Decompose around strict descents: each descent pair is a peak
    # followed by a bottom, the runs between are the non-descending
    # blocks.  The decomposition is forced, so one scan decides.
    ds = _descents(w)
    if not ds:
        return True
    peaks = [w[p] for p in ds]
    bottoms = [w[p + 1] for p in ds]
    if any(bottoms[i] > bottoms[i + 1] for i in range(len(bottoms) - 1)):
        return False
    if any(peaks[i] > peaks[i + 1] for i in range(len(peaks) - 1)):
        return False
    # Upper chain: blocks and peaks interleaved must be non-descending,
    # and a nonempty block must end strictly below its peak.
    chain = []
    prev_end = 0
    for p in ds:
        block = w[prev_end:p]
        if block and block[-1] >= w[p]:
            return False
        chain.extend(block)
        chain.append(w[p])
        prev_end = p + 2
    chain.extend(w[prev_end:])
    return all(chain[i] <= chain[i + 1] for i in range(len(chain) - 1))


def is_normal_structural(w: Word, mode: str = "general") -> bool:
    """Decide normality from the word shape alone.

    ``general`` accepts exactly the double-nondescending words;
    ``multilinear`` requires distinct letters, where those are the
    double-ascending words.
    """
    if mode == "multilinear":
        if len(set(w)) != len(w):
            raise ValueError("multilinear mode requires distinct letters: %s" % word_str(w))
        return _normal_general(w)
    if mode == "general":
        return _normal_general(w)
    raise ValueError("unknown mode %r" % mode)


@dataclass(frozen=True)
class Obstruction:
    """Two rule leads meeting inside one word.

    ``word[offset_a:]`` starts lead of ``rule_a`` and likewise for
    ``rule_b``; the occurrences genuinely overlap.
    """

    rule_a: int
    rule_b: int
    word: Word
    offset_a: int
    offset_b: int


@dataclass(frozen=True)
class GroebnerReport:
    """Outcome of a base check: any nonzero residues, with counts.

    ``residues`` come from overlap S-polynomials; ``generator_residues``
    from supplied ideal generators that failed to reduce to zero (a base
    can resolve every overlap yet still miss part of the ideal).
    """

    residues: tuple
    obstructions_checked: int
    max_degree: int
    generator_residues: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.residues and not self.generator_residues


def overlaps(base: RuleSet, max_degree: int):
    """All suffix-prefix overlaps among the leads whose overlap word has
    degree <= ``max_degree``, sorted by word, then rule indices and offset.

    A proper suffix of one lead is looked up in an index of proper lead
    prefixes; leads never contain one another, so no containment arises.
    """
    prefixes = {}
    for j, rj in enumerate(base.rules):
        for m in range(1, len(rj.lead)):
            prefixes.setdefault(rj.lead[:m], []).append(j)
    out = []
    for i, ri in enumerate(base.rules):
        li = ri.lead
        # suffix li[k:] meets a longer prefix of lj: li at offset 0, lj at k
        for k in range(1, len(li)):
            for j in prefixes.get(li[k:], ()):
                lj = base.rules[j].lead
                if k + len(lj) <= max_degree:
                    out.append(Obstruction(i, j, li + lj[len(li) - k :], 0, k))
    out.sort(key=lambda ob: (word_key(ob.word), ob.rule_a, ob.rule_b, ob.offset_b))
    return out


def s_polynomial(base: RuleSet, ob: Obstruction) -> Polynomial:
    """Difference of the two one-step rewrites of the overlap word, read
    off the two rules' tails with no products."""
    data = dict(_rewrite_at(base, ob.rule_a, ob.word, ob.offset_a))
    for u, c in _rewrite_at(base, ob.rule_b, ob.word, ob.offset_b):
        data[u] = data.get(u, 0) - c
    return Polynomial(data)


def generator_polys(generators) -> list:
    """The nonzero polynomials among ``generators``, which may be
    polynomials or carriers with an ``element`` (a ``GeneratorFamily``)."""
    out = []
    for g in generators:
        p = g if isinstance(g, Polynomial) else g.element
        if p:
            out.append(p)
    return out


def check_groebner(
    base: RuleSet,
    max_degree: int,
    multilinear: bool = False,
    generators=None,
) -> GroebnerReport:
    """Normalize every overlap's S-polynomial; nonzero residues are
    reported, an empty residue list certifies local confluence up to
    ``max_degree``.  With ``multilinear`` only distinct-letter overlap
    words are considered.

    When ``generators`` are supplied, each one is also reduced; a nonzero
    result lands in ``generator_residues`` and fails the report.  This
    catches a base that resolves all its overlaps but generates too small
    an ideal, which pairwise S-polynomials alone cannot see.
    """
    if base.degree_bound is not None:
        max_degree = min(max_degree, base.degree_bound)
    residues = []
    checked = 0
    for ob in overlaps(base, max_degree):
        if multilinear and len(set(ob.word)) != len(ob.word):
            continue
        checked += 1
        residue = normalize(s_polynomial(base, ob), base)
        if residue:
            residues.append((ob, residue))
    gen_residues = []
    for p in generator_polys(generators or ()):
        if p.degree() > max_degree:
            continue
        residue = normalize(p, base)
        if residue:
            gen_residues.append(residue)
    return GroebnerReport(tuple(residues), checked, max_degree, tuple(gen_residues))


def _monic(p: Polynomial) -> Polynomial:
    lc = p.leading_coeff()
    if not isinstance(lc, (int, Fraction)):
        raise ValueError("scalar coefficient involves symbols: %s" % lc)
    return p if lc == 1 else p.scale(Fraction(1) / lc)


def complete(generators, max_degree: int) -> RuleSet:
    """Bounded two-sided completion of a homogeneous generator list.

    Rules and generators are homogeneous, and an overlap word is longer
    than both of its leads, so the rules of degree ``t`` come only from
    the degree-``t`` obstructions among the rules of lower degree and the
    generators of degree ``t``.  Each degree normalizes that batch against
    the rules so far and echelonizes it on leading words; a new lead is
    normal, so it never contains an existing lead.

    The inter-reduced output is re-verified by :func:`check_groebner`
    before returning, so a returned set is genuinely locally confluent to
    the bound.  An inhomogeneous generator or one of degree above
    ``max_degree`` raises ``ValueError``.  The degree bound alone bounds
    the work: no rule is longer than ``max_degree``.
    """
    by_degree = {}
    for p in generator_polys(generators):
        if not p.is_multiset_homogeneous():
            raise ValueError("generator is not multiset-homogeneous: %s" % p)
        if p.degree() > max_degree:
            raise ValueError(
                "generator degree %d exceeds the degree bound %d" % (p.degree(), max_degree)
            )
        by_degree.setdefault(p.degree(), []).append(p)

    rules = []
    base = RuleSet(degree_bound=max_degree)
    for t in range(max_degree + 1):
        batch = [
            normalize(s_polynomial(base, ob), base)
            for ob in overlaps(base, t)
            if len(ob.word) == t
        ]
        batch += [normalize(p, base) for p in by_degree.get(t, ())]
        pivots = {}
        for p in batch:
            while p and p.leading_word() in pivots:
                p = p - pivots[p.leading_word()].scale(p.leading_coeff())
            if p:
                pivots[p.leading_word()] = _monic(p)
        if not pivots:
            continue
        rules += [RewriteRule(lead, Polynomial.from_word(lead) - p) for lead, p in pivots.items()]
        base = RuleSet(rules, degree_bound=max_degree)

    result = inter_reduce(base)
    if not check_groebner(result, max_degree).ok:
        raise RuntimeError("completion left an overlap residue at degree bound %d" % max_degree)
    # The check filled the memo of ``result``; the caller gets an empty one.
    return RuleSet(result.rules, degree_bound=max_degree)


def inter_reduce(base: RuleSet) -> RuleSet:
    """Tail-reduce every rule against the whole set; leads are untouched."""
    new_rules = [
        RewriteRule(r.lead, normalize(r.rhs, base), r.family, r.indices, r.variant)
        for r in base.rules
    ]
    return RuleSet(new_rules, degree_bound=base.degree_bound)
