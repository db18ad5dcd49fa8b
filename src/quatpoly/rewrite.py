"""Reduction engine: factor matching against leading words, normal forms,
structural normality predicates, overlap detection and bounded completion.

A :class:`RewriteRule` is a monic polynomial split as ``lead -> rhs``; a
:class:`RuleSet` is an immutable, canonically ordered family of such rules
whose leads are pairwise factor-free.  A word is rewritten at its
leftmost lead occurrence.  At most one lead starts at any offset, so the
rewrite step depends only on the word and the set of leads, and
normal-form computation memoizes per-word results on the rule set.

A rule set indexes its leads in one dict from lead word to canonical rule
index, and heads them with a second: each prefix of the shortest lead
length maps to the lengths of the leads that start with it.  Factor
matching, the factor-free check and the factor-freeness of the rule set
itself all probe the head index once at each offset of a word, left to
right, and the lead index only for the lengths it names.  The memo takes
one rewrite step per word it enters.  A normal word takes an int id as it
enters, memo entries map ids to coefficients, and ``normalize`` sums the
entries of its terms in one accumulate loop over ints, mapping the ids
back to words once per block.  The closed-form families have tails of
+-1, so their memo entries are ints, and ``normalize`` keeps its sums in
ints as well: it sums each scalar-monomial group of its input's int
numerators and divides once, by the input's denominator.  It reads its
input's terms in no particular order, so it never sorts them.

An overlap's S-polynomial is read straight off the two rules' tails,
placed between the head and tail of the overlap word, with no products
(``s_polynomial``, the reference form).  The engine normalizes the
overlap word minus rule b's rewrite of it instead: the memo sends the
word to the normal form of rule a's rewrite, and every obstruction on one
word shares that word's entry (``_normalize_by_block``).  ``complete`` is
a degree-by-degree completion: one overlap pass per degree, which tests a
pair's letters by bit mask before it forms the word, and one rule set
grown from the last by the degree's new rules (``RuleSet.grown``), whose
indexes and closure counts take only the new rules.  It skips every
overlap whose word holds a third lead between the two (the chain
criterion, ``_chain_redundant``); ``overlaps`` and ``check_groebner`` keep
every overlap.

``check_groebner``, ``complete`` and ``inter_reduce`` normalize in bulk
along one path, ``_normalize_by_block``, which gives the memo the lifetime
of one block: it groups its inputs by the letter multiset of the words the
memo will hold, relabeled as below, and normalizes each block against a
copy of the rule set with an empty memo of its own, dropped when the
block is done.  Every rule is multiset-homogeneous, so a word's normal
form holds only words of its own letter multiset and no memo entry is
read outside its block; the copies lose no reuse.  No engine routine
touches a set's own memo: only ``normalize`` and ``syzygy._normal_form`` fill it.
Every obstruction still takes a ``normalize`` call of its own, on its
residue relabeled as below, and only a nonzero normal form is mapped
back.  A polynomial whose words share one letter set and whose numerators
are all ints is normalized once per relabeling class: the polynomials
that relabel, as below, onto one polynomial on letters 1..k, over one
denominator.  ``normalize`` sums such a polynomial as one block, relabeled
or left alone, and divides by its denominator, so its normal form is the
class's normal form mapped back onto its letters; this is exact.

A rule set is *closed* when it is invariant under every order-preserving
relabeling of its alphabet 1..N, N its largest lead letter: grouping the
rules by their pattern on letters 1..k (lead and tail), each class has
exactly C(N, k) members, so it holds the pattern on every k-subset of
1..N.  ``RuleSet`` decides this from its rules alone, and ``complete``
from its generators, by one test (``_closure_top``, which a rule set keeps
as counts while it grows) that reads each rule's or generator's terms in
any order.  One map, ``_relabel``, moves words on letters T
order-preservingly onto 1..|T|, and one rule, in
``_relabel_blocks`` alone (its test is ``_stays``), decides which blocks
move: a block on letters T moves only when the set is closed and T lies
in 1..N.  ``normalize`` reduces each block there and maps it back, in
the one block pass that ``syzygy._normal_form`` runs too, with N None
and a family per block.  So one memo entry serves a letter pattern on
every letter set, and ``complete`` completes only the blocks that the
rule leaves alone.  This is exact.  A lead that occurs inside a word
uses only the word's letters.
Closure maps the rules inside T one-to-one onto the rules inside 1..|T|,
lead to lead and tail to tail, so the leftmost lead occurrence of the
relabeled word is the relabeled occurrence, at the same offset.  The
rewrite step depends on nothing else, so even a set that is not
confluent takes the same rewrite path on the relabeled word.  A letter
outside 1..N occurs in no lead and blocks the matches across it;
relabeling it into 1..N would expose them.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import threading
from collections import Counter, namedtuple
from fractions import Fraction

from .freealg import _INT, Polynomial, Scalar, Word, word_key, word_multiset, word_str

_RATIONAL = frozenset((int, Fraction))
_first, _second = operator.itemgetter(0), operator.itemgetter(1)
_set = object.__setattr__


class _Frozen:
    """Base of a record class with ``__slots__`` whose attributes cannot be
    assigned or deleted.  ``__init__`` takes the slots in order and sets
    them with ``object.__setattr__`` (``_set``); a copy or a pickle calls
    it again."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class RewriteRule(_Frozen):
    """Rewrite ``lead`` to ``rhs``; the underlying element is ``lead - rhs``.
    Rules compare by identity."""

    __slots__ = ("lead", "rhs", "family", "indices", "variant")

    def __init__(self, lead: Word, rhs: Polynomial, family="", indices=(), variant=0):
        if not lead:
            raise ValueError("rewrite rule with empty lead (ideal contains a unit)")
        lk = word_key(lead)
        lm = word_multiset(lead)
        for w in rhs._data:
            if word_key(w) >= lk:
                raise ValueError(
                    "rule lead %s does not dominate %s" % (word_str(lead), word_str(w))
                )
            if word_multiset(w) != lm:
                raise ValueError("rule %s -> ... mixes letter multisets" % word_str(lead))
        _set(self, "lead", lead)
        _set(self, "rhs", rhs)
        _set(self, "family", family)
        _set(self, "indices", indices)
        _set(self, "variant", variant)

    @property
    def element(self) -> Polynomial:
        return Polynomial.from_word(self.lead) - self.rhs

    def __repr__(self):
        return "RewriteRule(%s -> %s)" % (word_str(self.lead), self.rhs)


def _rule_key(rule: RewriteRule):
    return (len(rule.lead), rule.family, rule.indices, rule.variant, rule.lead)


def _stays(letters, top) -> bool:
    """Whether ``_relabel_blocks`` leaves a block on the sorted ``letters``
    as it is: it already lies on 1..k, or, with N = ``top``, it holds a
    letter outside 1..N."""
    return (
        not letters
        or (letters[0] == 1 and letters[-1] == len(letters))
        or (top is not None and (letters[0] < 1 or letters[-1] > top))
    )


def _relabel_blocks(pairs, top):
    """Group ``(word, coefficient)`` pairs by the set of letters of the
    word and relabel each block by the rule of the module docstring, with
    N = ``top``: 0 for a set that is not closed, None for a family closed
    on every alphabet (``syzygy._normal_form``).

    Yields ``(letters, local)`` per block, ``letters`` its sorted letters
    and ``local`` its pairs relabeled onto 1..k (``_relabel``).  A block
    left alone (``_stays``) is yielded as is with ``letters`` None.
    """
    blocks = {}
    for w, c in pairs:
        blocks.setdefault(frozenset(w), []).append((w, c))
    for letter_set, block in blocks.items():
        letters = sorted(letter_set)
        if _stays(letters, top):
            yield None, block
        else:
            yield letters, _relabel(letters, block)


def _relabel(letters, pairs) -> list:
    """Map ``(word, coefficient)`` pairs whose words lie on the sorted
    ``letters`` order-preservingly onto 1..k: the inverse of ``_unlabel``."""
    rank = {x: i for i, x in enumerate(letters, 1)}
    return [(tuple([rank[x] for x in w]), c) for w, c in pairs]


def _unlabel(letters, terms: dict) -> dict:
    """Map a word->coefficient dict on 1..k back onto ``letters``."""
    if letters is None:
        return terms
    return {tuple([letters[i - 1] for i in w]): c for w, c in terms.items()}


def _block_class(block):
    """``(lead, largest letter, class key)`` of a rule or generator
    ``block`` for ``_closure_top``, or None when the block leaves every
    family holding it not closed.

    A block is ``(word, value)`` pairs in any order, its words all of one
    length on one letter set.  Its class key is its letter count k and its
    set of pairs relabeled onto 1..k (``_relabel``).  A coefficient with
    symbols names symbols that the relabeling would have to move as well,
    and a letter below 1 lies outside every relabeling.
    """
    lead = max(map(_first, block))
    letters = sorted(set(lead))
    if (letters and letters[0] < 1) or not _RATIONAL.issuperset(map(type, map(_second, block))):
        return None
    return lead, letters[-1] if letters else 0, (len(letters), frozenset(_relabel(letters, block)))


def _full_top(top, sizes) -> int:
    """``top`` if ``sizes``, the count of classes by ``(k, members)``,
    holds a class and each class on k letters has C(``top``, k) members,
    else 0."""
    if sizes and all(n == math.comb(top, k) for k, n in sizes):
        return top
    return 0


def _closure_top(blocks) -> int:
    """The largest letter N if ``blocks`` are closed under
    order-preserving relabeling of 1..N (see the module docstring), else 0.

    ``blocks`` may be any iterable of blocks (``_block_class``), read
    once.  A block counts in its class as its leading word, so copies of
    a block count once.  A class on k letters is full when it has C(N, k)
    members, and the blocks are closed when every class is full.
    """
    top = 0
    classes = {}
    for block in blocks:
        found = _block_class(block)
        if found is None:
            return 0
        lead, last, key = found
        top = max(top, last)
        # Relabeling is one-to-one on a letter set, so two members of a
        # class with one lead are copies of one block.
        classes.setdefault(key, set()).add(lead)
    return _full_top(top, Counter((key[0], len(m)) for key, m in classes.items()))


class _Memo(dict):
    """A normal-form memo: word -> ``{id: coefficient}``, the word's raw
    normal form over the ids of normal words; ``words[id]`` is the normal
    word an id names.  Summing entries hashes ints, not word tuples.

    A normal word takes its id when it enters the memo (``intern``), under
    the memo's lock, so two threads filling one memo never give one word
    two ids or two words one id.  Every other write stores the same value
    whichever thread makes it.
    """

    __slots__ = ("words", "_lock")

    def __init__(self):
        super().__init__()
        self.words = []
        self._lock = threading.Lock()

    def intern(self, u: Word) -> dict:
        """The entry of the normal word ``u``, ``{id: 1}``, made on first use."""
        with self._lock:
            nf = self.get(u)
            if nf is None:
                nf = self[u] = {len(self.words): 1}
                self.words.append(u)
            return nf


class RuleSet:
    """Canonically ordered rewrite rules with pairwise factor-free leads.

    ``_index`` maps each lead word to its canonical rule index.  The head
    index ``_heads`` maps each prefix of length ``_head``, the shortest
    lead length, of some lead to the ascending lengths of the leads that
    start with it.  Leads are pairwise factor-free, so at most one starts
    at any offset of a word: probing each offset in turn through the head
    index, and ``_index`` only for the lengths it names, finds the
    leftmost lead occurrence.  Canonical order only numbers the rules, for
    ``overlaps`` and for output.  ``_tails`` holds each rule's tail values
    in stored order, a view of its ``_data`` when the tail is integral.
    ``_top`` is the largest lead letter N when the set is closed under
    order-preserving relabeling of 1..N, else 0: the ``top`` with which
    ``_relabel_blocks`` relabels the set's blocks.  It is decided as
    ``_closure_top`` decides it, from ``_classes``: the largest lead letter
    and how many relabeling classes (``_block_class``) on k letters have
    each member count, or None once a rule lies outside every relabeling.
    Leads are distinct, so a count is all a class needs.

    A set is built by growth (``grown``): rules whose leads are all longer
    than every lead of the set are appended, in canonical order, since
    canonical order is by length first.  A shorter lead cannot contain a
    longer one, so only the new leads need the factor-free check, the
    head length stays, and only the new rules enter the indexes.  A
    class holds leads of one length, so no new rule joins an old class:
    the new rules' classes are counted and added to the old sizes.
    ``RuleSet(rules)`` is that growth from the empty set.

    Immutable after construction apart from the normal-form memo, a
    :class:`_Memo` that holds its own ids.  Writes to it are idempotent
    and ids are handed out under the memo's lock, so sharing a set across
    threads is safe.  It lives as long as the set and holds only what
    ``normalize`` calls on the set, or ``syzygy._normal_form``, put there;
    ``check_groebner``, ``complete`` and ``inter_reduce`` use per-block
    copies, each with a fresh memo, and never touch it.
    """

    __slots__ = (
        "rules", "degree_bound", "_index", "_heads", "_head", "_tails", "_classes", "_top", "_nf_cache"
    )

    def __init__(self, rules=(), degree_bound=None):
        self.rules = ()
        self.degree_bound = degree_bound
        self._index = {}
        self._heads = {}
        self._head = 0
        self._tails = ()
        self._classes = (0, Counter())
        self._grow(rules)

    def grown(self, rules) -> RuleSet:
        """A new set: this one and ``rules``, each of whose leads must be
        longer than every lead here (else ``ValueError``)."""
        new = copy.copy(self)
        new._index, new._heads = dict(self._index), dict(self._heads)
        new._grow(rules)
        return new

    def _grow(self, rules):
        """Add ``rules`` in place (see the class docstring)."""
        rules = sorted(rules, key=_rule_key)
        longest = len(self.rules[-1].lead) if self.rules else 0
        index = self._index
        for i, r in enumerate(rules, len(self.rules)):
            if len(r.lead) <= longest:
                raise ValueError(
                    "lead %s is not longer than every lead of the set" % word_str(r.lead)
                )
            if r.lead in index:
                raise ValueError("duplicate lead %s" % word_str(r.lead))
            index[r.lead] = i
        self.rules += tuple(rules)
        if rules and not self._head:
            self._head = len(rules[0].lead)
        head = self._head
        lengths = {}
        for r in rules:
            lengths.setdefault(r.lead[:head], set()).add(len(r.lead))
        for prefix, ks in lengths.items():
            self._heads[prefix] = self._heads.get(prefix, ()) + tuple(sorted(ks))
        # Every proper factor of a lead is a factor of the lead with its
        # first or its last letter dropped.
        for r in rules:
            hit = _first_match(self, r.lead[1:]) or _first_match(self, r.lead[:-1])
            if hit is not None:
                inner = self.rules[hit[0]].lead
                raise ValueError("lead %s contains lead %s" % (word_str(r.lead), word_str(inner)))
        tails = tuple(r.rhs._items() for r in rules)
        self._tails += tails
        if self._classes is not None:
            top, sizes = self._classes
            counts = Counter()
            for r, t in zip(rules, tails):
                found = _block_class(((r.lead, 1), *t))
                if found is None:
                    self._classes = None
                    break
                _, last, key = found
                top = max(top, last)
                counts[key] += 1
            else:
                self._classes = top, sizes + Counter((k, n) for (k, _), n in counts.items())
        self._top = 0 if self._classes is None else _full_top(*self._classes)
        self._nf_cache = _Memo()

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
    """``(rule index, offset)`` of the leftmost lead occurrence in ``w``;
    None if ``w`` is normal.  Leads are pairwise factor-free, so at most
    one lead starts at any offset: the match depends only on ``w`` and
    the set of leads.  Each offset costs one head-index probe, and
    ``_index`` is probed only at offsets where some lead's head starts."""
    index = base._index
    heads = base._heads
    h = base._head
    n = len(w)
    for p in range(n - h + 1):
        lengths = heads.get(w[p : p + h])
        if lengths is not None:
            for k in lengths:
                if p + k > n:
                    break
                i = index.get(w[p : p + k])
                if i is not None:
                    return i, p
    return None


def _first_step(base: RuleSet, w: Word):
    """One rewrite of ``w`` at its leftmost lead occurrence, as a list of
    (word, coefficient) pairs; None if normal."""
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


def _check_input(p, base: RuleSet | None = None):
    # A q-word read as a v-word would pass silently for another word.
    if not isinstance(p, Polynomial):
        raise TypeError("expected a Polynomial, not %s (see qvars.split)" % type(p).__name__)
    if base is not None:
        _check_bound(base, p.degree())


def reduce_once(p: Polynomial, base: RuleSet):
    """Rewrite the highest reducible term of ``p`` once.

    Returns ``(polynomial, changed)``.  The highest term with a lead
    factor is rewritten at its leftmost lead occurrence.
    """
    _check_input(p, base)
    terms = p.terms
    for w, c in terms.items():  # iteration is descending
        step = _first_step(base, w)
        if step is not None:
            break
    else:
        return p, False
    del terms[w]
    for u, cu in step:
        terms[u] = terms.get(u, 0) + c * cu
    return Polynomial(terms), True


def _nf_word(base: RuleSet, w: Word) -> dict:
    """Fully reduced form of a word missing from the rule set's memo, as a
    raw id->coefficient dict (see :class:`_Memo`) with ``int``
    coefficients wherever the tails allow; it and every word its rewriting
    reaches enter the memo, a normal word under a new id.

    Each memo miss takes one :func:`_first_match`.  A normal word is
    interned; any other is rewritten there, inline, and pushed as a frame:
    the word, its coefficient in the frame below, its successors still to
    look up and the ``(entry, coefficient)`` pairs of those looked up.
    The top frame looks its successors up in order and stops at the first
    miss, which is matched in turn; with none left it sums its pairs into
    the memo (:func:`_accumulate`) and pops, handing its entry down.
    Successors are smaller words, so the stack descends, no word enters it
    twice, and each successor is looked up once.
    """
    cache = base._nf_cache
    get = cache.get
    rules, tails = base.rules, base._tails
    stack = []
    x, c = w, None
    while True:
        # ``x`` is a memo miss, with coefficient ``c`` in the top frame.
        hit = _first_match(base, x)
        if hit is None:
            nf = cache.intern(x)
        else:
            i, p = hit
            head, rest = x[:p], x[p + len(rules[i].lead) :]
            todo = iter([(head + v + rest, cv) for v, cv in tails[i]])
            stack.append((x, c, todo, []))
            nf = None
        while stack:
            u, cu, todo, pairs = stack[-1]
            if nf is not None:
                pairs.append((nf, c))
            for x, c in todo:
                nf = get(x)
                if nf is None:
                    break
                pairs.append((nf, c))
            else:
                nf = cache[u] = _accumulate(pairs)
                stack.pop()
                c = cu
                continue
            break
        else:
            return nf


def _accumulate(pairs) -> dict:
    """The raw sum of ``c * nf`` over ``(nf, c)`` pairs, ``nf`` a memo
    entry, keyed by the ids of the memo's normal words, zeros dropped.
    The first pair is copied, the rest are merged in."""
    pairs = iter(pairs)
    for nf, c in pairs:
        acc = dict(nf) if c == 1 else {u: c * cu for u, cu in nf.items()}
        break
    else:
        return {}
    for nf, c in pairs:
        for u, cu in nf.items():
            if u in acc:
                val = acc[u] + c * cu
                if val:
                    acc[u] = val
                else:
                    del acc[u]
            else:
                # Both factors are nonzero, and so is their product.
                acc[u] = c * cu
    return acc


def _reduce(pairs, top, choose) -> dict:
    """The raw normal form of ``(word, coefficient)`` pairs, one
    ``_relabel_blocks`` block at a time with N = ``top``, against the rule
    set ``choose(local)`` picks for it (None: normal), its ids mapped back
    to words and the words mapped back to the block's letters."""
    out = {}
    for letters, local in _relabel_blocks(pairs, top):
        base = choose(local)
        if base is None:
            terms = dict(local)
        else:
            get = base._nf_cache.get
            entries = [
                (nf if (nf := get(w)) is not None else _nf_word(base, w), c) for w, c in local
            ]
            words = base._nf_cache.words
            terms = {words[i]: c for i, c in _accumulate(entries).items()}
        out.update(_unlabel(letters, terms))
    return out


def normalize(p: Polynomial, base: RuleSet) -> Polynomial:
    """The unique fixed point of :func:`reduce_once`.

    Termination follows from the well-founded word order; every rewrite
    replaces a word by strictly smaller words of the same letter multiset.
    An input with only ``int`` numerators is summed as it is and divided
    once, by its denominator; any other is summed per scalar monomial as
    int numerators (``Polynomial._by_monomial``) and divided the same way.
    """
    _check_input(p, base)
    return _normalize(p, base._top, lambda local: base)


def _normalize(p: Polynomial, top, choose) -> Polynomial:
    """:func:`normalize`'s body, with N = ``top`` and ``choose`` (:func:`_reduce`)."""
    data = p._data
    if _INT.issuperset(map(type, data.values())):
        return Polynomial._make(_reduce(data.items(), top, choose), p._den)
    den, groups = p._by_monomial()
    images, spread = {}, []
    for mono, ints in groups.items():
        for u, c in _reduce(ints, top, choose).items():
            if type(c) is Scalar:
                # A tail with symbols leaves a scalar: spread it over ``mono``.
                spread += [(u, tuple(sorted(mono + m)), q) for m, q in c._items()]
            else:
                images.setdefault(u, {})[mono] = c
    # A spread monomial can meet another group's: sum them.
    for u, mono, q in spread:
        monos = images.setdefault(u, {})
        monos[mono] = monos.get(mono, 0) + q
    return Polynomial._from_monomials(images, den)


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


class Obstruction(namedtuple("Obstruction", "rule_a rule_b word offset_a offset_b")):
    """Two rule leads meeting inside one word.

    ``word[offset_a:]`` starts lead of ``rule_a`` and likewise for
    ``rule_b``; the occurrences genuinely overlap.
    """

    __slots__ = ()


class GroebnerReport(namedtuple(
    "GroebnerReport", "residues obstructions_checked max_degree generator_residues", defaults=((),)
)):
    """Outcome of a base check: any nonzero residues, with counts.

    ``residues`` come from overlap S-polynomials; ``generator_residues``
    from supplied ideal generators that failed to reduce to zero (a base
    can resolve every overlap yet still miss part of the ideal).
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.residues and not self.generator_residues


def overlaps(base: RuleSet, max_degree: int):
    """All suffix-prefix overlaps among the leads whose overlap word has
    degree <= ``max_degree``, sorted by word, then rule indices and offset.
    """
    # With N = 0 every block is its own representative.
    return _representative_overlaps(base, max_degree, 0)


def _representative_overlaps(base: RuleSet, max_degree: int, top):
    """The entries of ``overlaps(base, max_degree)`` whose word
    ``_relabel_blocks(..., top)`` leaves in place (``_stays``), in the
    same order; no :class:`Obstruction` is built for any other word.

    A proper suffix of one lead is looked up in an index of proper lead
    prefixes; leads never contain one another, so no containment arises.

    An overlap word's letters are those of its two leads, so with N > 0
    the test reads a bit mask per lead, letter x as bit x, and the union
    of two masks decides a pair before its word is formed: ``_stays`` runs
    once per distinct union, on the letters it names.  N = 0 leaves every
    word in place, and N > 0 comes only from a set closed on 1..N or
    generators closed there, whose letters are all at least 1.
    """
    leads = [r.lead for r in base.rules]
    prefixes = {}
    for j, lj in enumerate(leads):
        for m in range(1, len(lj)):
            prefixes.setdefault(lj[:m], []).append(j)
    if top:
        masks = [sum(1 << x for x in set(lead)) for lead in leads]
        stays = {}
    out = []
    # Leads and each prefix's list run in canonical order, shortest first,
    # and an overlap word is longer than both its leads.
    for i, li in enumerate(leads):
        n = len(li)
        if n >= max_degree:
            break
        # suffix li[k:] meets a longer prefix of lj: li at offset 0, lj at k
        for k in range(1, n):
            for j in prefixes.get(li[k:], ()):
                lj = leads[j]
                if k + len(lj) > max_degree:
                    break
                if top:
                    mask = masks[i] | masks[j]
                    keep = stays.get(mask)
                    if keep is None:
                        letters = [x for x in range(mask.bit_length()) if mask >> x & 1]
                        keep = stays[mask] = _stays(letters, top)
                    if not keep:
                        continue
                out.append(Obstruction(i, j, li + lj[n - k :], 0, k))
    out.sort(key=lambda ob: (word_key(ob.word), ob.rule_a, ob.rule_b, ob.offset_b))
    return out


def _chain_redundant(base: RuleSet, ob: Obstruction) -> bool:
    """Whether a lead of ``base`` occurs in ``ob.word`` strictly between
    rule a's lead, at offset 0, and rule b's, at ``ob.offset_b``: the
    leftmost lead occurrence in the word without its first letter, which
    rule b's own occurrence guarantees, starts before rule b's.
    ``complete`` skips such an obstruction (its docstring has the proof)."""
    return _first_match(base, ob.word[1:])[1] + 1 < ob.offset_b


def s_polynomial(base: RuleSet, ob: Obstruction) -> Polynomial:
    """Difference of the two one-step rewrites of the overlap word, read
    off the two rules' tails with no products.  The reference form of an
    overlap's residue: the engine itself normalizes the overlap word
    instead (``_normalize_by_block``), which gives the same normal form."""
    data = dict(_rewrite_at(base, ob.rule_a, ob.word, ob.offset_a))
    for u, c in _rewrite_at(base, ob.rule_b, ob.word, ob.offset_b):
        data[u] = data.get(u, 0) - c
    return Polynomial(data)


def generator_polys(generators) -> list:
    """The nonzero polynomials among ``generators``, which may be
    polynomials or carriers with an ``element`` (a ``GeneratorFamily``);
    anything else, a q-polynomial too, raises ``TypeError``."""
    out = []
    for g in generators:
        p = getattr(g, "element", g)
        if not isinstance(p, Polynomial):
            raise TypeError("a generator must be a Polynomial, not %s" % type(p).__name__)
        if p:
            out.append(p)
    return out


def _normalize_by_block(base: RuleSet, obs, polys):
    """Normalize the residue of each of ``obs``, then each of ``polys``,
    one block at a time (see the module docstring), each block against a
    copy of ``base`` with an empty memo of its own.  Yields
    ``(i, normal form)`` for the nonzero normal forms, ``i`` the position
    in ``obs`` followed by ``polys``, in no particular order.

    An obstruction's residue is its word W minus rule b's rewrite of W at
    ``offset_b``.  Rule a sits at offset 0, W's leftmost lead occurrence,
    so the memo, the linear map fixed by the leftmost rewrite step, sends
    W to the normal form of rule a's rewrite: the residue has the normal
    form of the S-polynomial, for any rule set, and every obstruction on
    W reads W's one memo entry.  Each obstruction takes a ``normalize``
    call of its own.  Rules are multiset-homogeneous, so the residue lies
    on W's letters T, and ``normalize`` would relabel it as one block: it
    is relabeled here instead, when ``_relabel_blocks`` moves T, and only
    a nonzero normal form is mapped back.

    A polynomial whose words share one letter set T and whose numerators
    are all ``int`` is keyed by its denominator and its pairs relabeled as
    ``_relabel_blocks`` relabels them (T left alone keeps its pairs), and
    each key is normalized once, mapped back onto the letters of every
    polynomial that has it.  This is exact: ``normalize`` sums such an
    input as one block, relabeled onto 1..|T| or left alone, and divides
    by the denominator, so its normal form is the key's normal form
    mapped back onto T.  Any other polynomial is normalized as it is.

    An obstruction joins the block of its word, a key or other polynomial
    that of any one of its words; a zero polynomial is skipped.  A word's
    block is its letter multiset relabeled by ``_relabel_blocks``, as the
    memo holds the word: multisets of one letter pattern share a block
    when relabeled, and a multiset left alone keeps a block of its own.
    """
    top, n = base._top, len(obs)
    # Letter multiset -> jobs: an obstruction's position, or a polynomial,
    # the positions it stands for and whether they hold its relabeled key.
    jobs = {}
    for i, ob in enumerate(obs):
        jobs.setdefault(word_multiset(ob.word), []).append(i)
    classes = {}
    for i, p in enumerate(polys, n):
        data = p._data
        if not data:
            continue
        blocks = list(_relabel_blocks(data.items(), top))
        if len(blocks) == 1 and _INT.issuperset(map(type, data.values())):
            ((_, local),) = blocks
            key = (p._den, frozenset(local))
            members = classes.get(key)
            if members is None:
                members = classes[key] = []
                job = Polynomial._raw(dict(local), p._den), members, True
                jobs.setdefault(word_multiset(local[0][0]), []).append(job)
            members.append(i)
        else:
            jobs.setdefault(word_multiset(next(iter(data))), []).append((p, (i,), False))
    by_block = {}
    for letters, local in _relabel_blocks([(m, m) for m in jobs], top):
        for key, m in local:
            by_block.setdefault(key, []).append((letters, jobs[m]))
    for block in by_block.values():
        # Rules, index and closure are shared, not rebuilt.
        local = copy.copy(base)
        local._nf_cache = _Memo()
        for letters, batch in block:
            for job in batch:
                if type(job) is int:
                    ob = obs[job]
                    pairs = [(u, -c) for u, c in _rewrite_at(base, ob.rule_b, ob.word, ob.offset_b)]
                    pairs.append((ob.word, 1))
                    if letters is not None:
                        pairs = _relabel(letters, pairs)
                    nf = normalize(Polynomial._make(dict(pairs), 1), local)
                    if nf:
                        yield job, Polynomial._raw(_unlabel(letters, nf._data), nf._den)
                    continue
                p, members, keyed = job
                nf = normalize(p, local)
                if nf and not keyed:
                    yield members[0], nf
                elif nf:
                    for i in members:
                        # Only a nonzero normal form needs the member's letters.
                        ((at, _),) = _relabel_blocks(polys[i - n]._data.items(), top)
                        yield i, Polynomial._raw(_unlabel(at, nf._data), nf._den)


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

    The obstructions and generators are normalized one block at a time,
    each block with a memo of its own (see the module docstring); a
    generator joins the block of any one of its words.  ``normalize`` is
    called once per checked obstruction and once per generator class
    (``_normalize_by_block``): generators on one letter set with int
    numerators that relabel onto one polynomial share one exact normal
    form, mapped back onto each one's letters, and any other generator
    is its own class.  Residues are reported in ``overlaps`` order,
    generator residues in generator order.  The memo of ``base`` is
    neither read nor written.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %d" % max_degree)
    if base.degree_bound is not None:
        max_degree = min(max_degree, base.degree_bound)
    obs = [
        ob
        for ob in overlaps(base, max_degree)
        if not multilinear or len(set(ob.word)) == len(ob.word)
    ]
    gens = [p for p in generator_polys(generators or ()) if p.degree() <= max_degree]
    n = len(obs)
    found = dict(_normalize_by_block(base, obs, gens))
    order = sorted(found)
    return GroebnerReport(
        tuple((obs[i], found[i]) for i in order if i < n),
        n,
        max_degree,
        tuple(found[i] for i in order if i >= n),
    )


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

    The new pivots are kept in reduced echelon form: no pivot's tail holds
    another pivot's lead.  Their tails are already normal for the rules of
    lower degree, and no longer rule fits inside a degree-``t`` word, so
    every intermediate set is the reduced base truncated at degree ``t``.
    That base is unique, whatever the generator order, so it is closed
    under relabeling whenever the generators are, and ``normalize`` keys
    its memo by letter pattern at every degree.  The set is reduced as
    built, with no ``inter_reduce`` pass.  Each degree's new leads are
    longer than every lead so far, so its set is the last one grown by
    them (``RuleSet.grown``), equal to the set built from all its rules.

    Each degree completes one block per letter pattern.  N is decided
    once, from the generators alone, by the closure test of ``RuleSet``
    (``_closure_top``, which reads each generator's terms as stored, in
    any order, and counts copies of a generator once): the largest letter
    if the generators are closed under relabeling of 1..N, else 0.
    For closed generators every intermediate set is closed too, as above,
    so a block on letters T holds the relabeled obstructions and
    generators of its representative on 1..|T|, hence, by the module
    docstring's argument, their relabeled normal forms and the relabeled
    reduced echelon pivots.  A batch therefore keeps only the obstructions
    and generators that ``_relabel_blocks(..., N)`` leaves as they are,
    those on exactly 1..k, and each new pivot is relabeled onto every
    k-subset of 1..N; each new set must be closed on 1..N again, or
    ``RuntimeError`` is raised.  With N = 0 every block is its own
    representative and every pivot is kept where it was found.

    Each batch takes the block path of the module docstring, in any
    order: the reduced echelon form is unique.  The last degree's set is
    re-verified: the overlaps that ``_relabel_blocks`` leaves in place
    under the set's own closure, N' its ``_top``, are normalized again,
    and a residue raises ``RuntimeError``.  This is exact and needs nothing
    of the generators.  The set is closed on 1..N', so it maps the leads
    inside a letter set T one-to-one onto those inside 1..|T|, at the same
    offsets: every overlap on T is the relabeled image of one on 1..|T|,
    its S-polynomial the relabeled S-polynomial, and its normal form, by
    the module docstring's argument, the relabeled normal form.  A set
    that is not closed (N' = 0) checks every overlap.  So a returned set
    is genuinely locally confluent to the bound.

    The degree loop and the final check both skip an overlap whose word
    W holds a lead occurrence strictly between rule a's lead, at offset
    0, and rule b's, at offset k (``_chain_redundant``; the chain
    criterion of Mora, TCS 1994, and Kreuzer–Xiu, ISSAC 2013).  This is
    exact.  Leads are pairwise factor-free, so no other lead starts at 0
    or ends at |W|: a third occurrence, rule m at offset p, has 0 < p < k
    and p + |lead_m| > |lead_a|.  Then (a, m) is an overlap on a proper
    prefix W_am of W and (m, b) one on a proper suffix W_mb, W = W_am·Y =
    X·W_mb, and the two rewrites of W differ by
    (r_a − r_m)(W_am)·Y + X·(r_m − r_b)(W_mb), r_i(U) the rewrite of U at
    rule i's occurrence.  Once the shorter overlaps resolve, each part
    lies in I_W, the span of the u·(lead_i − rhs_i)·v with u·lead_i·v
    below W, since deg-lex is a semigroup order: W resolves relative to
    the order.  By induction on |W|, every overlap up to the bound
    resolves if and only if those with no third lead do (Bergman's
    diamond lemma, relative form).  Relabeling moves lead occurrences
    with the word, so closure carries this to the representatives as
    above.  In the degree loop the set below degree t is confluent below
    t, so a skipped degree-t overlap resolves in the degree-t set built
    from the others.  That set is the unique reduced base truncated at t,
    so the rules, their order and their tails do not change.

    A negative ``max_degree``, an inhomogeneous generator or one of degree
    above ``max_degree`` raises ``ValueError``.  The degree bound alone
    bounds the work: no rule is longer than ``max_degree``.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %d" % max_degree)
    gens = generator_polys(generators)
    for p in gens:
        if not p.is_multiset_homogeneous():
            raise ValueError("generator is not multiset-homogeneous: %s" % p)
        if p.degree() > max_degree:
            raise ValueError(
                "generator degree %d exceeds the degree bound %d" % (p.degree(), max_degree)
            )
    top = _closure_top(p._items() for p in gens)
    by_degree = {}
    for p in gens:
        # A generator's words share one letter set.
        if _stays(sorted(set(next(iter(p._data)))), top):
            by_degree.setdefault(p.degree(), []).append(p)
    base = RuleSet(degree_bound=max_degree)
    for t in range(max_degree + 1):
        obs = [
            ob
            for ob in _representative_overlaps(base, t, top)
            if len(ob.word) == t and not _chain_redundant(base, ob)
        ]
        pivots = {}
        for _, p in _normalize_by_block(base, obs, by_degree.get(t, ())):
            while p and (lead := p.leading_word()) in pivots:
                p = p - pivots[lead].scale(p._at(lead))
            if p:
                pivots[lead] = _monic(p)
        if not pivots:
            continue
        # Back-reduce in ascending lead order: a tail holds only words
        # below its lead, and a reduced pivot's tail holds no pivot lead.
        for lead in sorted(pivots, key=word_key):
            p = pivots[lead]
            for u in [u for u in p._data if u != lead and u in pivots]:
                p = p - pivots[u].scale(p._at(u))
            pivots[lead] = p
        rules = []
        for lead, p in pivots.items():
            rhs = Polynomial.from_word(lead) - p
            k = len(set(lead))
            for letters in itertools.combinations(range(1, top + 1), k) if top else (None,):
                (word,) = _unlabel(letters, {lead: 1})
                tail = Polynomial._raw(_unlabel(letters, rhs._data), rhs._den)
                rules.append(RewriteRule(word, tail))
        base = base.grown(rules)
        if top and base._top != top:
            raise RuntimeError("completion lost relabeling closure at degree %d" % t)

    obs = [
        ob
        for ob in _representative_overlaps(base, max_degree, base._top)
        if not _chain_redundant(base, ob)
    ]
    if next(_normalize_by_block(base, obs, ()), None) is not None:
        raise RuntimeError("completion left an overlap residue at degree bound %d" % max_degree)
    return base


def inter_reduce(base: RuleSet) -> RuleSet:
    """Tail-reduce every rule against the whole set, one memo block at a
    time (see the module docstring); leads are untouched."""
    tails = dict(_normalize_by_block(base, (), [r.rhs for r in base.rules]))
    new_rules = [
        RewriteRule(r.lead, tails.get(i, Polynomial()), r.family, r.indices, r.variant)
        for i, r in enumerate(base.rules)
    ]
    return RuleSet(new_rules, degree_bound=base.degree_bound)
