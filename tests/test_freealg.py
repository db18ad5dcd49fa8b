import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatpoly.cli import parse_expression
from quatpoly.freealg import (
    Polynomial,
    Scalar,
    bracket,
    bracket3,
    cross,
    inner,
    vector_part,
    word_key,
)
from quatpoly.oracle import Assignment, I, J, Quaternion, evaluate, identity_corpus
from quatpoly.qvars import QPolynomial, qword_conjugate, qword_key

from helpers import assert_stored_canonical


def w(*letters):
    return Polynomial.from_word(letters)


def word_cmp(a, b):
    """-1, 0 or 1 as the word_key of ``a`` is below, equal to or above
    that of ``b``."""
    ka, kb = word_key(a), word_key(b)
    return (ka > kb) - (ka < kb)


def test_word_cmp_examples():
    assert word_cmp((1, 2), (2, 1)) == -1
    assert word_cmp((1, 1, 1), (2, 2)) == 1
    assert word_cmp((3, 2, 1), (3, 1, 2)) == 1
    assert word_cmp((2, 1), (2, 1)) == 0


def test_word_order_is_total():
    words = []
    for d in range(4):
        words.extend(itertools.product((1, 2, 3), repeat=d))
    for a, b in itertools.combinations(words, 2):
        assert word_cmp(a, b) == -word_cmp(b, a)
        assert (word_cmp(a, b) == 0) == (a == b)
    for a, b, c in random.Random(0).sample(list(itertools.permutations(words, 3)), 500):
        if word_cmp(a, b) <= 0 and word_cmp(b, c) <= 0:
            assert word_cmp(a, c) <= 0


def test_word_order_concat_compatible():
    sides = []
    for d in range(3):
        sides.extend(itertools.product((1, 2, 3), repeat=d))
    for d in range(1, 5):
        words = list(itertools.product((1, 2, 3), repeat=d))
        pairs = [(a, b) for a in words for b in words if a < b]
        for a, b in pairs:
            assert word_cmp(a, b) == -1
            for left in sides:
                for right in sides:
                    assert word_cmp(left + a + right, left + b + right) == -1


def test_ring_ops_examples():
    assert (w(1) + w(2)) * w(1) == w(1, 1) + w(2, 1)
    assert Polynomial.one() * w(1, 2) == w(1, 2)
    s1 = Scalar.symbol(1)
    assert w(1).scale(s1) * w(2) == Polynomial({(1, 2): s1})


def test_coefficients_lift_to_constants():
    s1 = Scalar.symbol(1)
    assert w(1) + 1 == 1 + w(1) == w(1) + Polynomial.one()
    assert 1 - w(1) == -(w(1) - 1)
    assert s1 + Fraction(1, 2) == Scalar({(1,): 1, (): Fraction(1, 2)})
    assert 2 - s1 == Scalar({(): 2, (1,): -1})
    assert w(1) + s1 == Polynomial({(1,): 1, (): s1})
    assert Polynomial.constant(s1) == s1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial({(1,): 0.5})
    with pytest.raises(TypeError):
        Scalar({(1,): 0.5})


def test_zero_pruning_and_equality():
    p = w(1, 2) - w(1, 2)
    assert not p
    assert p == Polynomial.zero()
    assert p == 0
    assert Polynomial({(): Fraction(3)}) == 3


def test_mul_associative_and_distributive_randomized():
    rng = random.Random(7)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(0, 4)
            word = tuple(rng.randint(1, 4) for _ in range(length))
            terms[word] = terms.get(word, 0) + rng.randint(-4, 4)
        return Polynomial(terms)

    for _ in range(1000):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r


def test_scalar_coefficients_commute():
    s1, s2 = Scalar.symbol(1), Scalar.symbol(2)
    p = w(1).scale(s1) * w(2).scale(s2)
    q = w(1, 2).scale(s1 * s2)
    assert p == q
    assert s1 * s2 == s2 * s1


def test_substitute_sets_symbols_and_keeps_rationals():
    # Scalar symbols are set to values only through oracle.evaluate, which
    # multiplies out the int rows of Polynomial._by_monomial.
    s1, s2 = Scalar.symbol(1), Scalar.symbol(2)
    p = Polynomial({
        (1, 2): Fraction(1, 3),
        (2,): 4,
        (1,): s1 * s2 + 1,
        (): s2 * Fraction(1, 2),
    })
    vectors = {1: I, 2: J}
    # v1*v2 = K; the coefficients take 1/3, 4, 2*3 + 1 and 3/2.
    value = evaluate(p, Assignment(vectors, {1: 2, 2: Fraction(3)}))
    assert value == Quaternion(Fraction(3, 2), 7, 4, Fraction(1, 3))
    # A symbol set to 0 drops the monomials it occurs in.
    assert evaluate(p, Assignment(vectors, {1: 0, 2: 0})) == Quaternion(0, 1, 4, Fraction(1, 3))
    rational = w(2, 1) * Fraction(1, 2) - w(1) * 3
    assert evaluate(rational, Assignment(vectors, {})) == Quaternion(0, -3, 0, Fraction(-1, 2))
    # The smallest unassigned symbol is named.
    for scalars, missing in (({1: 1}, 2), ({2: 1}, 1), ({}, 1)):
        with pytest.raises(ValueError, match="^unassigned scalar symbol s%d$" % missing):
            evaluate(p, Assignment(vectors, scalars))


def test_reversion():
    assert w(1, 2, 3).reversion() == w(3, 2, 1)
    assert w(1).reversion() == w(1)
    rng = random.Random(3)
    for _ in range(200):
        terms = {tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4))): rng.randint(1, 5)}
        p = Polynomial(terms)
        q = Polynomial({tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4))): 1})
        assert p.reversion().reversion() == p
        assert (p * q).reversion() == q.reversion() * p.reversion()


def test_bracket_matches_low_degree_definitions():
    half = Fraction(1, 2)
    assert bracket(w(1, 2)) == (w(1, 2) + w(2, 1)) * half
    assert bracket(w(1, 2, 3)) == (w(1, 2, 3) - w(3, 2, 1)) * half
    assert bracket(w(1, 2, 3, 4)) == (w(1, 2, 3, 4) + w(4, 3, 2, 1)) * half
    assert bracket(w(1)) == Polynomial.zero()
    assert vector_part(w(1)) == w(1)


def test_bracket_plus_vector_part_recovers_word():
    for d in range(7):
        for letters in itertools.product((1, 2, 3), repeat=d):
            assert bracket(w(*letters)) + vector_part(w(*letters)) == w(*letters)


def test_slot_brackets():
    v1, v2, v3 = (Polynomial.variable(i) for i in (1, 2, 3))
    assert inner(v1, v2) == bracket(w(1, 2))
    assert cross(v1, v2) == vector_part(w(1, 2))
    assert bracket3(v1, v2, v3) == bracket(w(1, 2, 3))


def test_multidegree():
    g = bracket(w(3, 2, 1)) - bracket(w(1, 3, 2))
    assert g.multidegree() == {(1, 2, 3)}
    assert (w(1, 2) + w(2, 2)).multidegree() == {(1, 2), (2, 2)}
    assert Polynomial.zero().multidegree() == set()


def test_leading_term_and_degree():
    p = w(1, 2) + w(2, 1) + Polynomial.one()
    assert p.leading_word() == (2, 1)
    assert p.degree() == 2
    assert Polynomial.zero().degree() == 0
    with pytest.raises(ValueError):
        Polynomial.zero().leading_word()


def test_formatting_canonical():
    assert str(Polynomial({(1, 2, 3): Fraction(-1, 2)})) == "-1/2*v1*v2*v3"
    assert str(Polynomial.one()) == "1"
    assert str(Polynomial.zero()) == "0"
    assert str(Polynomial.constant(Fraction(3))) == "3"
    p = w(1, 2, 3) + w(1, 3, 2) - w(2, 3, 1)
    assert str(p) == "-v2*v3*v1 + v1*v3*v2 + v1*v2*v3"
    s = Scalar({(1, 1): 1, (): 2})
    assert str(Polynomial({(1,): s})) == "(s1*s1 + 2)*v1"
    assert str(Polynomial({(2,): Scalar({(1,): Fraction(-1, 2)})})) == "-1/2*s1*v2"


def test_terms_iterate_descending():
    p = w(1, 2) + w(2, 1) + w(1) + Polynomial.one()
    assert list(p.terms) == [(2, 1), (1, 2), (1,), ()]
    assert list(p.terms) == sorted(p.terms, key=word_key, reverse=True)


# Keys and key order of each term-map class: sorted symbol monomials,
# words, and q-words over the barred alphabet.
_KEYS = {
    Scalar: (st.lists(st.integers(1, 3), max_size=3).map(lambda m: tuple(sorted(m))), word_key),
    Polynomial: (st.lists(st.integers(1, 3), max_size=4).map(tuple), word_key),
    QPolynomial: (st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), max_size=4).map(tuple), qword_key),
}
_RATIONALS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def _maps(cls):
    coeffs = _RATIONALS
    if cls is Polynomial:
        scalars = st.dictionaries(_KEYS[Scalar][0], _RATIONALS, max_size=2).map(Scalar)
        coeffs = st.one_of(_RATIONALS, scalars)
    return st.dictionaries(_KEYS[cls][0], coeffs, max_size=5).map(cls)


@st.composite
def _built_maps(draw):
    """A term map of a drawn class, built through a drawn chain of ring
    operations, conjugation and reversion."""
    cls = draw(st.sampled_from(list(_KEYS)))
    p = draw(_maps(cls))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("+", "-", "*", "scale", "conjugate", "reversion")))
        if op in ("+", "-", "*"):
            q = draw(_maps(cls))
            p = p + q if op == "+" else p - q if op == "-" else p * q
        elif op == "scale":
            p = p.scale(draw(_RATIONALS))
        elif op == "conjugate" and cls is not Scalar:
            p = p.conjugate()
        else:
            p = p.reversion()
    return cls, p


@settings(max_examples=150, deadline=None)
@given(_built_maps())
def test_terms_sort_once_on_first_ordered_read(built):
    cls, p = built
    data, order = p._data, list(p._data)
    eager = cls(dict(p._items()))
    eager.terms
    assert p == eager and eager == p
    keys = list(p.terms)
    assert keys == sorted(keys, key=_KEYS[cls][1], reverse=True)
    assert p.degree() == (len(keys[0]) if keys else 0)
    assert str(p) == str(eager)
    if cls is Polynomial and p:
        assert p.leading_word() == keys[0]
    # An ordered read builds a new dict and never rewrites the map's own.
    assert p._data is data and list(p._data) == order


def _flat(p):
    """The values of ``p`` as a plain ``{(key, symbol monomial): Fraction}``."""
    out = {}
    for k, c in p.terms.items():
        for m, q in c.terms.items() if type(c) is Scalar else [((), c)]:
            out[k, m] = Fraction(q)
    return out


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_product(cls, a, b):
    out = {}
    for (k1, m1), c1 in a.items():
        for (k2, m2), c2 in b.items():
            k = tuple(sorted(k1 + k2)) if cls is Scalar else k1 + k2
            key = (k, tuple(sorted(m1 + m2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _ref_conjugate(cls, a):
    if cls is QPolynomial:
        return {(qword_conjugate(k), m): c for (k, m), c in a.items()}
    return {(k[::-1], m): -c if len(k) % 2 else c for (k, m), c in a.items()}


def _ref_map(cls, ref):
    """``ref`` built back into a term map of ``cls`` from plain values."""
    terms = {}
    for (k, m), c in ref.items():
        terms.setdefault(k, {})[m] = c
    return cls({k: Scalar(ms) if cls is Polynomial else ms[()] for k, ms in terms.items()})


@st.composite
def _operand(draw, cls):
    """A term map of ``cls`` built from drawn values, with its reference."""
    coeffs = _RATIONALS
    if cls is Polynomial:
        coeffs = st.one_of(_RATIONALS, st.dictionaries(_KEYS[Scalar][0], _RATIONALS, max_size=2))
    raw = draw(st.dictionaries(_KEYS[cls][0], coeffs, max_size=4))
    values, ref = {}, {}
    for k, c in raw.items():
        monos = c if isinstance(c, dict) else {(): c}
        values[k] = Scalar(c) if isinstance(c, dict) else c
        ref.update({(k, m): Fraction(q) for m, q in monos.items() if q})
    return cls(values), ref


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_arithmetic_matches_a_fraction_reference(data):
    """Every operation on int numerators over one denominator gives the
    values a plain ``{key: Fraction}`` computation gives, in canonical
    form: ``_den`` >= 1, gcd 1, no zero and integral Scalar numerators."""
    cls = data.draw(st.sampled_from(list(_KEYS)))
    p, ref = data.draw(_operand(cls))
    ops = ["+", "-", "*", "scale", "reversion"]
    if cls is not Scalar:
        ops += ["conjugate", "bracket", "cross"]
    for _ in range(data.draw(st.integers(1, 4))):
        assert_stored_canonical(p)
        assert _flat(p) == ref and p == _ref_map(cls, ref)
        op = data.draw(st.sampled_from(ops))
        if op in ("+", "-", "*", "cross"):
            q, qref = data.draw(_operand(cls))
            if op == "cross":
                p = cross(p, q)
                ref = _ref_sum(_ref_product(cls, ref, qref), _ref_product(cls, qref, ref), -1)
                ref = {k: c / 2 for k, c in ref.items()}
            elif op == "*":
                p, ref = p * q, _ref_product(cls, ref, qref)
            else:
                sign = 1 if op == "+" else -1
                p, ref = (p + q if sign == 1 else p - q), _ref_sum(ref, qref, sign)
        elif op == "scale":
            c = data.draw(_RATIONALS)
            cref = {((), ()): Fraction(c)} if c else {}
            if cls is Polynomial and data.draw(st.booleans()):
                c, cref = data.draw(_operand(Scalar))
                cref = {((), m): q for (m, _), q in cref.items()}
            p, ref = p.scale(c), _ref_product(cls, ref, cref)
        elif op == "reversion":
            p = p.reversion()
            if cls is not Scalar:
                ref = {(k[::-1], m): c for (k, m), c in ref.items()}
        elif op == "conjugate":
            p, ref = p.conjugate(), _ref_conjugate(cls, ref)
        else:
            p = bracket(p)
            ref = {k: c / 2 for k, c in _ref_sum(ref, _ref_conjugate(cls, ref)).items()}
    assert_stored_canonical(p)
    assert _flat(p) == ref and p == _ref_map(cls, ref)


def test_corpus_and_parse_make_no_fraction_beyond_their_literals(monkeypatch):
    """Term-map arithmetic runs on ints: building the identity corpus
    makes only its two literals, 1/2 and 1/4, parsing makes only the
    ``a/b`` literals of the text, and printing a map over a denominator
    makes none."""
    made = []
    real = Fraction.__new__

    def counting(cls, *args, **kw):
        made.append(args)
        return real(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert len(identity_corpus()) == 356
    assert made == [(1, 2), (1, 4)]
    texts = (
        "1/2*v1*v2 - 3/4*S(v3*v2*v1) + 5/6*s1*v2*v1 - A(2/9*v1*v2*v3)"
        " + cross(1/3*v1, 2/7*v2*v3) - 7/8*s2*rev(v3*v1) + 4/6*v2",
        "1/2*q1*q2' - 3/4*S(q3*q2*q1) + 5/6*q2'*q1 - A(2/9*q1*q2*q3)"
        " + cross(1/3*q1, 2/7*q2*q3') - 7/8*rev(q3*q1') + 4/6*q2",
    )
    values = []
    for source in texts:
        made.clear()
        values.append(parse_expression(source)[1])
        assert len(made) == source.count("/")
    # A Scalar coefficient of several terms prints as a Scalar over the
    # polynomial's denominator.
    mixed = Polynomial({(2, 1): Scalar({(1,): Fraction(-3, 4), (): Fraction(-1, 4)}), (1,): 5})
    values += [mixed, Scalar({(1, 1): Fraction(2, 3), (2,): -4})]
    made.clear()
    printed = [str(value) for value in values]
    assert made == [] and all(value._den > 1 for value in values)
    assert printed[2:] == ["(-3/4*s1 - 1/4)*v2*v1 + 5*v1", "2/3*s1*s1 - 4*s2"]
