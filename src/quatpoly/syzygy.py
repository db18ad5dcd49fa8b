"""Closed-form generator and rule families, parameterized by the number of
variables and a degree bound, and the normal form that needs neither.

Families are tagged V2/V3/V4 (vector generators), Q0..Q4 (quaternionic
generators over the barred alphabet), G3/Gm (multilinear rules) and
VG3sq/VGm (the extra rules needed once letters may repeat).  Rule elements
are stored scaled by two, which makes them monic with integer tails.
Every generator commutes a real element (a square, a norm or the real
part ``even`` of a word) with a letter.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .freealg import Polynomial, commutator, even
from .qvars import QPolynomial
from .rewrite import RewriteRule, RuleSet, _check_input, _Frozen, _normalize, _set, _unlabel


class GeneratorFamily(_Frozen):
    """One instantiated family element; families compare by identity."""

    __slots__ = ("family", "indices", "element", "variant", "choices")

    def __init__(self, family: str, indices: tuple, element, variant=0, choices=()):
        _set(self, "family", family)
        _set(self, "indices", indices)
        _set(self, "element", element)  # Polynomial or QPolynomial
        _set(self, "variant", variant)
        _set(self, "choices", choices)

    def __repr__(self):
        extra = "" if not self.choices else ", choices=%r" % (self.choices,)
        return "GeneratorFamily(%s%r%s)" % (self.family, self.indices, extra)


def _w(*letters) -> Polynomial:
    return Polynomial.from_word(letters)


def _generators(n: int, d: int, multilinear: bool = False):
    """The V2/V3/V4 instances of degree at most ``d`` over pairwise-distinct
    indices in 1..n; with ``multilinear`` only V3 and V4, as squared letters
    never occur there.  One letter has no relations: n = 1 gives none.

    Each family's element is built once, on the letters 1..m, and moved
    onto every index tuple by the letter map t -> idx[t - 1].  The map is
    injective, so it is a ring homomorphism of the free algebra that sends
    distinct words to distinct words: each instance is exactly the element
    built on its own indices."""
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    families = []
    if d >= 3 and not multilinear:
        families.append(("V2", commutator(_w(1, 1), _w(2)), 2))
    for m in range(3, min(d, 4) + 1):
        families.append(("V%d" % m, commutator(even(_w(*range(1, m))), _w(m)), m))
    out = []
    for family, el, m in families:
        for idx in itertools.permutations(range(1, n + 1), m):
            image = Polynomial._raw(_unlabel(idx, el._data), el._den)
            out.append(GeneratorFamily(family, idx, image))
    return out


def gen_vector_syzygies(n: int):
    """All V2/V3/V4 instances over pairwise-distinct indices in 1..n."""
    return _generators(n, 4)


def gen_multilinear_syzygies(n: int):
    """The V3 and V4 instances over pairwise-distinct indices in 1..n."""
    return _generators(n, 4, multilinear=True)


def _q(*letters) -> QPolynomial:
    return QPolynomial.from_word(letters)


def gen_quaternion_syzygies(n: int):
    """All Q0..Q4 instances over the barred alphabet, with every choice of
    plain-or-barred letter where the family leaves it free."""
    if n < 2:
        raise ValueError("need at least two quaternionic variables, got n=%d" % n)
    out = []
    rng = range(1, n + 1)
    for i in rng:
        out.append(GeneratorFamily("Q0", (i,), commutator(_q(i), _q(-i))))
    # Q1 commutes a real part with a letter, Q2 a norm.
    for family, real in (("Q1", even), ("Q2", lambda p: p * p.conjugate())):
        for i, j in itertools.permutations(rng, 2):
            for bj in (0, 1):
                el = commutator(real(_q(i)), _q(-j if bj else j))
                out.append(GeneratorFamily(family, (i, j), el, choices=(bj,)))
    for m in (3, 4):
        for idx in itertools.permutations(rng, m):
            for bits in itertools.product((0, 1), repeat=m):
                word = [-x if b else x for x, b in zip(idx, bits)]
                el = commutator(even(_q(*word[:-1])), _q(word[-1]))
                out.append(GeneratorFamily("Q%d" % m, idx, el, choices=bits))
    return out


def _rule(element: Polynomial, family: str, indices: tuple, variant: int = 0) -> RewriteRule:
    lead = element.leading_word()
    if element._at(lead) != 1:
        raise AssertionError("family element is not monic: %s" % element)
    return RewriteRule(lead, Polynomial.from_word(lead) - element, family, indices, variant)


def _g3_elements(a: int, b: int, c: int):
    """The two degree-3 bracket-commutation elements for a < b < c."""
    yield even(_w(c, b, a)) - even(_w(a, c, b)), 0
    yield even(_w(c, a, b)) - even(_w(b, c, a)), 1


def _gm_element(idx: tuple) -> Polynomial:
    """The four-term commutation element for an index tuple of length >= 4."""
    i1, i2, i3, *mid = idx
    return even(_w(i3, i2, *mid, i1)) - even(_w(i2, *mid, i1, i3))


def gb_multilinear(n: int) -> RuleSet:
    """The reduced rule family for multilinear words in n variables:
    G3 pairs over strict triples and one Gm rule per strict m-tuple,
    4 <= m <= n."""
    return _closed_form(n, n, multilinear=True)


def _vg_index_chains(n: int, m: int):
    """Index tuples for the degree-m commutation rules: i1 < i2 < i3,
    then non-descending, with a strict final step once m >= 5.

    The boundary case m = 4 keeps i3 <= i4; dropping those instances
    leaves overlap residues unresolved (the completion oracle exhibits
    one at three variables, degree four), so equality is allowed there.
    """
    for i1, i2, i3 in itertools.combinations(range(1, n + 1), 3):
        for tail in itertools.combinations_with_replacement(range(i3, n + 1), m - 3):
            if m >= 5 and tail[-1] <= tail[-2]:
                continue
            yield (i1, i2, i3) + tail


def gb_vector(n: int, max_degree: int) -> RuleSet:
    """The full rule family for words in n variables up to ``max_degree``:
    the G3 pairs and the square-swap rules once ``max_degree`` >= 3, and
    one VGm rule per admissible index chain with 4 <= m <= max_degree."""
    return _closed_form(n, max_degree)


def _closed_form(n: int, max_degree: int, multilinear: bool = False) -> RuleSet:
    """The rules of ``gb_vector(n, max_degree)``; with ``multilinear``
    only those on distinct letters, tagged G3 and Gm, up to degree
    min(n, ``max_degree``), which is then the set's degree bound."""
    if n < 1:
        raise ValueError("need n >= 1, got %d" % n)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0, got %d" % max_degree)
    if multilinear:
        max_degree = min(n, max_degree)
    rng = range(1, n + 1)
    rules = []
    if max_degree >= 3:
        for a, b, c in itertools.combinations(rng, 3):
            for el, variant in _g3_elements(a, b, c):
                rules.append(_rule(el, "G3", (a, b, c), variant))
    if max_degree >= 3 and not multilinear:
        for a, b in itertools.combinations(rng, 2):
            rules.append(_rule(commutator(_w(b, b), _w(a)), "VG3sq", (a, b), 0))
            rules.append(_rule(commutator(_w(b), _w(a, a)), "VG3sq", (a, b), 1))
    for m in range(4, max_degree + 1):
        chains = itertools.combinations(rng, m) if multilinear else _vg_index_chains(n, m)
        for idx in chains:
            rules.append(_rule(_gm_element(idx), "Gm" if multilinear else "VGm", idx))
    return RuleSet(rules, degree_bound=max_degree)


# Blocks of degree m <= 7 on k <= m letters need at most 25 families, vector or multilinear.
@lru_cache(maxsize=32)
def _family(n: int, d: int, multilinear: bool = False) -> RuleSet:
    """The closed-form rule family on letters 1..n up to degree ``d``:
    ``gb_vector(n, d)``, or with ``multilinear`` the rules of
    ``gb_multilinear(n)`` up to degree min(n, d)."""
    return _closed_form(n, d, multilinear)


def _block_family(local) -> RuleSet | None:
    """The family for a block of ``(word, coefficient)`` pairs on the
    letters 1..k, or None below degree 3: every lead has degree 3 or more.

    A block of degree m takes ``gb_vector(k, m)``: the rules of
    ``gb_vector(n, D)`` on its letters, D >= m, map onto those, up to
    rules longer than m, which never fire; so any group of its terms, a
    scalar-monomial group too, may pick its own m.  With m == k the words
    have distinct letters, and only the distinct-letter rules,
    ``gb_multilinear(k)``, fit inside them.
    """
    k = len(set(local[0][0]))
    m = max(len(w) for w, _ in local)
    return None if m < 3 else _family(k, m, m == k)


def _normal_form(p: Polynomial) -> Polynomial:
    """Normal form of ``p`` against ``gb_vector`` on any alphabet that
    holds its letters: ``rewrite``'s block pass with N None (see its
    module docstring), each block against its ``_block_family``."""
    _check_input(p)
    return _normalize(p, None, _block_family)
