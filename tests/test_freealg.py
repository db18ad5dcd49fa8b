import itertools
import random
from fractions import Fraction

import pytest

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
    s1, s2 = Scalar.symbol(1), Scalar.symbol(2)
    p = Polynomial({
        (1, 2): Fraction(1, 3),
        (2,): 4,
        (1,): s1 * s2 + 1,
        (): s2 * Fraction(1, 2),
    })
    out = p.substitute({1: 2, 2: Fraction(3)})
    assert out.terms == {(1, 2): Fraction(1, 3), (2,): 4, (1,): 7, (): Fraction(3, 2)}
    assert [type(c) for c in out.terms.values()] == [Fraction, int, int, Fraction]
    assert not out.scalar_symbols()
    # A coefficient that evaluates to zero drops its term.
    assert p.substitute((None, 0, 0)).terms == {(1, 2): Fraction(1, 3), (2,): 4, (1,): 1}
    rational = w(2, 1) * Fraction(1, 2) - w(1) * 3
    assert rational.substitute({}).terms == rational.terms
    assert [type(c) for c in rational.substitute({}).terms.values()] == [Fraction, int]
    for values in ({1: 1}, (None, 1)):
        with pytest.raises(ValueError, match="^unassigned scalar symbol s2$"):
            p.substitute(values)


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
