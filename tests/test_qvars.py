import itertools
import random
from fractions import Fraction

import pytest

import helpers
from quatpoly.cli import parse_expression
from quatpoly.freealg import Polynomial, Scalar, bracket, vector_part
from quatpoly.oracle import evaluate, random_assignment
from quatpoly.qvars import (
    QPolynomial,
    normalize_q,
    qword_conjugate,
    split,
)
from quatpoly.syzygy import gen_quaternion_syzygies


def qw(*letters):
    return QPolynomial.from_word(letters)


def w(*letters):
    return Polynomial.from_word(letters)


def random_qword(rng, n=3, max_len=4, min_len=0):
    length = rng.randint(min_len, max_len)
    return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length))


def test_conjugation_examples():
    assert qw(1, 2).conjugate() == qw(-2, -1)
    assert qw(-1).conjugate() == qw(1)
    assert qword_conjugate(qword_conjugate((1, -2, 3))) == (1, -2, 3)
    rng = random.Random(2)
    for _ in range(100):
        p = QPolynomial({random_qword(rng): rng.randint(1, 4)})
        q = QPolynomial({random_qword(rng): rng.randint(1, 4)})
        assert p.conjugate().conjugate() == p
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_scalar_vector_parts():
    q1 = qw(1)
    half = Fraction(1, 2)
    assert bracket(q1) == (qw(1) + qw(-1)) * half
    assert vector_part(qw(1, -1)) == QPolynomial.zero()
    rng = random.Random(4)
    for _ in range(50):
        p = QPolynomial({random_qword(rng): rng.randint(-3, 3) or 1})
        assert bracket(p) + vector_part(p) == p
        assert bracket(p).conjugate() == bracket(p)


def random_split_poly(rng, n=3, max_len=5):
    """A Polynomial with fractional and Scalar coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        if rng.random() < 0.5:
            mono = tuple(rng.randint(1, n) for _ in range(rng.randint(1, 2)))
            c = Scalar({mono: c, (): Fraction(rng.randint(-3, 3), 2)})
        terms[helpers.random_word(rng, n=n, max_degree=max_len)] = c
    return Polynomial(terms)


def random_qpoly(rng):
    return QPolynomial(
        {random_qword(rng, max_len=5): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)}
    )


def test_parts_commute_with_split():
    rng = random.Random(41)
    for _ in range(100):
        q = random_qpoly(rng)
        assert split(bracket(q)) == bracket(split(q))
        assert split(vector_part(q)) == vector_part(split(q))


def test_parts_are_the_conjugation_eigenparts():
    rng = random.Random(43)
    for _ in range(100):
        for p in (random_split_poly(rng), random_qpoly(rng)):
            even, odd = bracket(p), vector_part(p)
            assert even + odd == p
            assert even.conjugate() == even
            assert odd.conjugate() == -odd
            assert p.conjugate().conjugate() == p


def test_conjugate_evaluates_to_the_quaternion_conjugate():
    rng = random.Random(47)
    for trial in range(60):
        p = random_split_poly(rng)
        a = random_assignment(3, trial)
        assert evaluate(p.conjugate(), a) == evaluate(p, a).conjugate()


def test_split_examples():
    s1 = Scalar.symbol(1)
    assert split(qw(1)) == Polynomial({(): s1, (1,): 1})
    assert split(qw(-1)) == Polynomial({(): s1, (1,): -1})
    assert split(qw(1, -1)) == Polynomial({(): s1 * s1, (1, 1): -1})
    assert split(qw(1, -1) - qw(-1, 1)) == Polynomial.zero()


def test_split_is_homomorphism():
    rng = random.Random(8)
    for _ in range(60):
        p = QPolynomial({random_qword(rng): rng.randint(1, 3)})
        q = QPolynomial({random_qword(rng): rng.randint(1, 3)})
        assert split(p * q) == split(p) * split(q)
        assert split(p + q) == split(p) + split(q)
        assert split(p.conjugate()) == split(p).conjugate()


def test_normalize_q_examples():
    assert normalize_q(qw(1)) == split(qw(1))
    for n in (2, 3):
        for g in gen_quaternion_syzygies(n):
            assert not normalize_q(g.element, n=n), g


def test_normalize_q_degree_guard():
    with pytest.raises(ValueError):
        normalize_q(qw(1, 2, 1, 2), max_degree=3)


def test_normalize_q_rejects_indices_above_n():
    with pytest.raises(ValueError):
        normalize_q(qw(3, 2, 1), n=2)
    with pytest.raises(ValueError):
        normalize_q(qw(2), n=1)


def test_split_and_normalize_q_refuse_a_v_polynomial():
    # Read as q-words, v1*v2 would pass for q1*q2.
    for call in (split, normalize_q):
        with pytest.raises(TypeError, match="expected a QPolynomial, not Polynomial"):
            call(w(1, 2))


def test_shift_invariance_exhaustive():
    # every letter commutes with the conjugation-even part of every word:
    # both commutator forms land in the ideal, checked for all q-words of
    # length <= 4 over three variables
    letters = [s * i for i in (1, 2, 3) for s in (1, -1)]
    half = Fraction(1, 2)
    for length in range(0, 5):
        for word in itertools.product(letters, repeat=length):
            p = QPolynomial.from_word(word)
            sp = bracket(p)
            for pj in (qw(1), qw(-2)):
                assert not normalize_q(pj * sp - sp * pj, n=3)
            pj = qw(3)
            lhs = bracket(pj * p) - bracket(p * pj)
            assert not normalize_q(lhs, n=3)


def test_canonical_form_separates_ideal_cosets():
    rng = random.Random(12)
    gens = gen_quaternion_syzygies(3)
    for _ in range(30):
        p = QPolynomial({random_qword(rng, max_len=3): rng.randint(-3, 3) or 1})
        g = rng.choice(gens)
        left = QPolynomial.from_word(random_qword(rng, max_len=1))
        right = QPolynomial.from_word(random_qword(rng, max_len=1))
        shifted = p + left * g.element * right
        nf_p = normalize_q(p, n=3, max_degree=6)
        nf_s = normalize_q(shifted, n=3, max_degree=6)
        assert nf_p == nf_s
        # and the difference really evaluates to zero everywhere
        diff = split(p) - split(shifted)
        for seed in range(20):
            a = random_assignment(3, seed)
            assert evaluate(diff, a) == 0


def test_normalize_q_commutes_with_conjugation():
    # the conjugation image of a canonical form is equivalent but not
    # itself canonical, so compare after one more reduction pass
    from quatpoly.rewrite import normalize
    from quatpoly.syzygy import gb_vector

    base = gb_vector(3, 4)
    rng = random.Random(19)
    for _ in range(40):
        word = random_qword(rng, max_len=4, min_len=1)
        p = QPolynomial.from_word(word)
        lhs = normalize_q(p.conjugate(), n=3, max_degree=4)
        rhs = normalize(normalize_q(p, n=3, max_degree=4).conjugate(), base)
        assert lhs == rhs


def test_qpolynomial_text_and_term_order():
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial.one()) == "1"
    assert str(qw(-1)) == "q1'"
    assert str(QPolynomial({(1, -2): Fraction(-1, 2)})) == "-1/2*q1*q2'"
    p = qw(1) + qw(-1) + qw(2) - QPolynomial.constant(3)
    assert list(p.terms) == [(2,), (-1,), (1,), ()]
    assert str(p) == "q2 + q1' + q1 - 3"
    p = qw(1, 1) + qw(1, -1) + qw(-1, 1) + qw(2, -1)
    assert list(p.terms) == [(2, -1), (-1, 1), (1, -1), (1, 1)]
    assert str(p) == "q2*q1' + q1'*q1 + q1*q1' + q1*q1"
    assert str(QPolynomial({(-3,): Fraction(2, 3), (1, 2): -1})) == "-q1*q2 + 2/3*q3'"


def test_qpolynomial_text_round_trips_through_the_parser():
    rng = random.Random(23)
    for _ in range(150):
        terms = {random_qword(rng, min_len=1): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))}
        for _ in range(rng.randint(0, 4)):
            terms[random_qword(rng)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = QPolynomial(terms)
        if not p.indices():
            continue
        mode, back = parse_expression(str(p))
        assert mode == "q"
        assert back == p
        assert str(back) == str(p)


def test_split_matches_naive_products_on_all_short_words():
    letters = [s * i for i in (1, 2, 3) for s in (1, -1)]
    for length in range(0, 5):
        for word in itertools.product(letters, repeat=length):
            p = QPolynomial.from_word(word)
            got, want = split(p), helpers.split_reference(p)
            assert got == want, word
            assert str(got) == str(want), word


def test_split_matches_naive_products_on_fractional_sums():
    rng = random.Random(31)
    for _ in range(150):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[random_qword(rng, max_len=5)] = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
        p = QPolynomial(terms)
        got, want = split(p), helpers.split_reference(p)
        assert got == want, p
        assert str(got) == str(want), p


def test_float_coefficients_rejected():
    for make in (
        lambda: QPolynomial({(1,): 0.1}),
        lambda: QPolynomial.constant(0.25),
        lambda: qw(1).scale(0.5),
        lambda: Scalar.constant(0.1),
    ):
        with pytest.raises(TypeError, match="exact rationals"):
            make()
