import itertools
import random
from fractions import Fraction

import pytest

import helpers
from quatpoly.freealg import Polynomial, Scalar, commutator, even
from quatpoly.oracle import zero_test
from quatpoly.qvars import QPolynomial, split
from quatpoly.rewrite import find_factor, normalize
from quatpoly.syzygy import (
    _generators,
    _normal_form,
    gb_multilinear,
    gb_vector,
    gen_multilinear_syzygies,
    gen_quaternion_syzygies,
    gen_vector_syzygies,
)


def w(*letters):
    return Polynomial.from_word(letters)


def qw(*letters):
    return QPolynomial.from_word(letters)


def by_family(gens):
    out = {}
    for g in gens:
        out.setdefault(g.family, []).append(g)
    return out


def test_vector_generators_small_n():
    fams = by_family(gen_vector_syzygies(2))
    assert sorted(g.indices for g in fams["V2"]) == [(1, 2), (2, 1)]
    assert "V3" not in fams  # three pairwise-distinct indices need n >= 3
    assert "V4" not in fams
    fams3 = by_family(gen_vector_syzygies(3))
    assert len(fams3["V3"]) == 6
    assert "V4" not in fams3
    fams4 = by_family(gen_vector_syzygies(4))
    assert len(fams4["V4"]) == 24


def test_vector_generator_elements():
    fams = by_family(gen_vector_syzygies(3))
    v3 = next(g for g in fams["V3"] if g.indices == (1, 2, 3))
    sym = w(1, 2) + w(2, 1)
    assert v3.element == sym * w(3) - w(3) * sym
    v2 = next(g for g in fams["V2"] if g.indices == (1, 2))
    assert v2.element == w(1, 1, 2) - w(2, 1, 1)


def test_generators_by_letter_map_equal_the_arithmetic_construction():
    # Each instance built by its own products, as the families define it.
    def arithmetic(n, d, multilinear):
        out = []
        rng = range(1, n + 1)
        if d >= 3 and not multilinear:
            for i, j in itertools.permutations(rng, 2):
                out.append(("V2", (i, j), commutator(w(i, i), w(j))))
        for m in range(3, min(d, 4) + 1):
            for idx in itertools.permutations(rng, m):
                out.append(("V%d" % m, idx, commutator(even(w(*idx[:-1])), w(idx[-1]))))
        return out

    for n in range(1, 7):
        for d in range(6):
            for multilinear in (False, True):
                got = _generators(n, d, multilinear)
                assert [(g.family, g.indices, g.element) for g in got] == arithmetic(
                    n, d, multilinear
                ), (n, d, multilinear)
                for g in got:
                    helpers.assert_stored_canonical(g.element)
                    assert (g.variant, g.choices) == (0, ())


def test_vector_generators_are_homogeneous_and_vanish():
    for g in gen_vector_syzygies(3):
        assert g.element.is_multiset_homogeneous()
        assert zero_test(g.element, trials=25, seed=1).passed


def test_generator_domain_errors():
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        gen_vector_syzygies(0)
    # One pure-imaginary letter has no relations.
    assert gen_vector_syzygies(1) == []
    with pytest.raises(ValueError):
        gen_quaternion_syzygies(1)
    # No degree floor: below degree 3 the families are empty, not errors.
    for base in (gb_multilinear(2), gb_vector(3, 2)):
        assert base.rules == () and base.degree_bound == 2


def test_multilinear_rules_n3(base_v33):
    base = gb_multilinear(3)
    assert len(base) == 2
    first = base.rules[0]
    assert first.lead == (3, 2, 1)
    assert first.rhs == w(1, 2, 3) + w(1, 3, 2) - w(2, 3, 1)


def test_multilinear_rules_n4(base_m4):
    g3 = [r for r in base_m4.rules if r.family == "G3"]
    gm = [r for r in base_m4.rules if r.family == "Gm"]
    assert len(g3) == 8 and len(gm) == 1
    g4 = gm[0]
    assert g4.lead == (3, 2, 4, 1)
    assert g4.rhs == w(3, 1, 4, 2) + w(2, 4, 1, 3) - w(1, 4, 2, 3)


def test_vector_rules_n2():
    base = gb_vector(2, 3)
    assert {(r.lead, r.rhs.leading_word()) for r in base.rules} == {
        ((2, 2, 1), (1, 2, 2)),
        ((2, 1, 1), (1, 1, 2)),
    }
    assert len(gb_vector(2, 6)) == 2  # no longer rules ever appear for n=2


def test_vector_rule_chains():
    base = gb_vector(3, 5)
    vgm = [r for r in base.rules if r.family == "VGm"]
    assert [r.indices for r in vgm] == [(1, 2, 3, 3)]  # no degree-5 chain fits n=3
    base4 = gb_vector(4, 5)
    chains5 = [r.indices for r in base4.rules if r.family == "VGm" and len(r.lead) == 5]
    assert chains5 == [(1, 2, 3, 3, 4)]


def test_vgm_lead_shape():
    for n, d in ((3, 5), (4, 6), (5, 5)):
        for r in gb_vector(n, d).rules:
            if r.family != "VGm":
                continue
            idx = r.indices
            assert r.lead == (idx[2], idx[1]) + idx[3:] + (idx[0],)


def test_rule_elements_vanish_semantically():
    for r in gb_vector(3, 5).rules:
        assert zero_test(r.element, trials=25, seed=2).passed


def test_leads_pairwise_factor_free():
    for n in range(2, 6):
        for d in range(3, 8):
            leads = gb_vector(n, d).leads()
            for a in leads:
                for b in leads:
                    if a != b:
                        assert find_factor(a, b) is None
    for n in range(3, 6):
        leads = gb_multilinear(n).leads()
        for a in leads:
            for b in leads:
                if a != b:
                    assert find_factor(a, b) is None


def test_multilinear_subset_of_vector_family():
    # gb_multilinear(n) is the distinct-letter part of gb_vector(n, n), rule
    # for rule and in order, so both normalize distinct-letter words alike.
    for n, count in zip(range(3, 8), (2, 9, 26, 62, 134)):
        ml = [(r.lead, r.rhs, r.indices, r.variant) for r in gb_multilinear(n).rules]
        distinct = [
            (r.lead, r.rhs, r.indices, r.variant)
            for r in gb_vector(n, n).rules
            if len(set(r.lead)) == len(r.lead)
        ]
        assert len(ml) == count and ml == distinct, n


def test_multilinear_generator_filter():
    gens = gen_multilinear_syzygies(4)
    assert {g.family for g in gens} == {"V3", "V4"}
    assert all(len(set(next(iter(g.element.multidegree())))) == len(g.indices) for g in gens)


def test_quaternion_generators_have_constant_index_multiset():
    # barred and plain letters of one index count together: every word of
    # an instance touches the same index multiset
    for g in gen_quaternion_syzygies(3):
        multisets = {tuple(sorted(abs(x) for x in word)) for word in g.element.terms}
        assert len(multisets) == 1, g


def test_quaternion_generators():
    gens = by_family(gen_quaternion_syzygies(2))
    q0 = next(g for g in gens["Q0"] if g.indices == (1,))
    assert q0.element == qw(1, -1) - qw(-1, 1)
    q1 = next(g for g in gens["Q1"] if g.indices == (1, 2) and g.choices == (0,))
    real = qw(1) + qw(-1)
    assert q1.element == real * qw(2) - qw(2) * real
    assert "Q3" not in gens  # needs three distinct indices
    gens3 = by_family(gen_quaternion_syzygies(3))
    assert len(gens3["Q3"]) == 6 * 8
    gens4 = by_family(gen_quaternion_syzygies(4))
    assert len(gens4["Q4"]) == 24 * 16


def _random_block_poly(rng, n, max_degree, distinct=False):
    """A few words on letters 1..n (pairwise distinct with ``distinct``),
    some sharing a letter multiset, with rational or scalar-symbol
    coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        length = rng.randint(0, max_degree)
        if distinct:
            word = rng.sample(range(1, n + 1), length)
        else:
            word = [rng.randint(1, n) for _ in range(length)]
        for _ in range(rng.randint(1, 3)):
            rng.shuffle(word)
            if rng.random() < 0.3:
                c = Scalar({(rng.randint(1, 3),): rng.randint(-3, 3), (): Fraction(1, 2)})
            else:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms[tuple(word)] = c
    return Polynomial(terms)


def test_block_normal_form_equals_the_full_alphabet_family():
    # The full-alphabet families are the reference the relabeled blocks
    # must reproduce, term for term and in print.
    rng = random.Random(7)
    vector, multilinear = gb_vector(8, 6), gb_multilinear(7)
    for _ in range(300):
        p = _random_block_poly(rng, 8, 6)
        assert str(_normal_form(p)) == str(normalize(p, vector)), p
        # The multilinear family serves only distinct-letter words.
        p = _random_block_poly(rng, 7, 6, distinct=True)
        assert str(_normal_form(p)) == str(normalize(p, multilinear)), p
    # A distinct-letter block is reduced by the multilinear family, and
    # gives the vector family's normal form up to degree 7.
    vector = gb_vector(7, 7)
    for _ in range(300):
        p = _random_block_poly(rng, 7, 7, distinct=True)
        assert str(_normal_form(p)) == str(normalize(p, vector)), p
    # The q traffic of normalize_q: a split block holds words whose degree
    # differs between scalar monomials, so each group picks its own family.
    vector = gb_vector(4, 5)
    for _ in range(200):
        q = QPolynomial({
            tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 5))):
                Fraction(rng.choice((1, -1)) * rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        })
        p = split(q)
        assert str(_normal_form(p)) == str(normalize(p, vector)), q
