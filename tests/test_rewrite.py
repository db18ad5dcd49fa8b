import hashlib
import itertools
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

import helpers
from quatpoly.cli import parse_expression
from quatpoly.freealg import Polynomial, Scalar, bracket, word_key
from quatpoly.qvars import split
from quatpoly.rewrite import (
    Obstruction,
    RewriteRule,
    RuleSet,
    _chain_redundant,
    _class_sizes,
    _first_match,
    _full_top,
    _monic,
    _representative_overlaps,
    _rewrite_at,
    _stays,
    check_groebner,
    complete,
    find_factor,
    inter_reduce,
    is_normal_factorfree,
    is_normal_structural,
    normalize,
    overlaps,
    reduce_once,
    s_polynomial,
)
from quatpoly.syzygy import (
    gb_multilinear,
    gb_vector,
    gen_multilinear_syzygies,
    gen_vector_syzygies,
)


def w(*letters):
    return Polynomial.from_word(letters)


def test_find_factor():
    assert find_factor((2, 4, 1, 3), (4, 1, 3)) == 1
    assert find_factor((1, 2, 3), (3, 2, 1)) is None
    assert find_factor((1, 2, 3), ()) == 0
    assert find_factor((1,), (1, 2)) is None
    assert find_factor((2, 1, 2, 1), (2, 1)) == 0


def test_rule_validation():
    with pytest.raises(ValueError):
        RewriteRule((), Polynomial.zero())
    with pytest.raises(ValueError):
        RewriteRule((1, 2), w(2, 1))  # rhs word not below lead
    with pytest.raises(ValueError):
        RewriteRule((2, 1), w(1, 1))  # multiset mismatch
    with pytest.raises(ValueError):
        RuleSet([RewriteRule((2, 1), w(1, 2)), RewriteRule((3, 2, 1), w(1, 2, 3))])


def test_reduce_once(base_v33):
    p, changed = reduce_once(w(3, 2, 1), base_v33)
    assert changed
    assert p == w(1, 2, 3) + w(1, 3, 2) - w(2, 3, 1)
    p, changed = reduce_once(w(1, 2, 3), base_v33)
    assert not changed and p == w(1, 2, 3)
    p, changed = reduce_once(Polynomial.zero(), base_v33)
    assert not changed and not p


def test_reduce_once_strictly_decreases(base_v45):
    rng = random.Random(11)
    for _ in range(100):
        p = helpers.random_poly(rng)
        while True:
            q, changed = reduce_once(p, base_v45)
            if not changed:
                break
            old = sorted((word_key(u) for u in p.terms), reverse=True)
            new = sorted((word_key(u) for u in q.terms), reverse=True)
            assert new < old  # multiset order drops each step
            p = q


def _reduce_once_fixed_point(p, base):
    changed = True
    while changed:
        p, changed = reduce_once(p, base)
    return p


def test_normalize_fixed_point_of_reduce_once(base_v45):
    rng = random.Random(5)
    for _ in range(60):
        p = helpers.random_poly(rng)
        assert normalize(p, base_v45) == _reduce_once_fixed_point(p, base_v45)


def test_normalize_with_symbolic_tails_is_the_fixed_point():
    # A tail with a symbol leaves scalars in the memo; a fractional or
    # symbolic input spreads each over its own scalar monomials.
    s1, s2 = Scalar.symbol(1), Scalar.symbol(2)
    single = RuleSet([RewriteRule((2, 1), s1 * w(1, 2))])
    assert normalize(Fraction(1, 2) * w(2, 1), single) == Fraction(1, 2) * s1 * w(1, 2)
    # Both scalar monomials land on v1*v2 as s1: they sum.
    mixed = w(2, 1) + s1 * w(1, 2)
    assert normalize(mixed, single) == 2 * s1 * w(1, 2)
    base = RuleSet(
        [
            RewriteRule((2, 1), (s1 + Fraction(1, 2)) * w(1, 2)),
            RewriteRule((3, 1), -s2 * w(1, 3)),
            RewriteRule((3, 2), w(2, 3)),
        ]
    )
    rng = random.Random(41)
    cases = [w(2, 1), Fraction(1, 2) * w(2, 1), mixed, s1 * w(3, 2, 1) - w(2, 1, 3)]
    cases += [helpers.random_poly(rng, n=3, max_degree=4) for _ in range(20)]
    cases += [helpers.random_poly(rng, n=3, max_degree=4).scale(Fraction(1, 3)) for _ in range(20)]
    cases += [helpers.random_scalar_poly(rng, n=3, symbols=2, max_degree=4) for _ in range(40)]
    for base_, p in [(single, p) for p in cases] + [(base, p) for p in cases]:
        assert normalize(p, base_) == _reduce_once_fixed_point(p, base_), (base_, p)


def test_normalize_examples(base_v45):
    h = w(4) * (w(3, 2, 1) - w(1, 2, 3) - w(1, 3, 2) + w(2, 3, 1))
    assert not normalize(h, base_v45)
    assert normalize(w(2, 2, 1), gb_vector(2, 3)) == w(1, 2, 2)
    h11 = w(5, 1) * (w(4, 2, 3) + w(2, 4, 3) - w(3, 4, 2) - w(3, 2, 4))
    assert not normalize(h11, gb_vector(5, 5))


def test_normalize_degree_guard(base_v33):
    with pytest.raises(ValueError):
        normalize(w(1, 2, 3, 1), base_v33)


def test_normalize_is_linear(base_v45):
    rng = random.Random(17)
    for _ in range(50):
        p = helpers.random_poly(rng)
        q = helpers.random_poly(rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert normalize(p + q, base_v45) == normalize(p, base_v45) + normalize(q, base_v45)
        assert normalize(p.scale(c), base_v45) == normalize(p, base_v45).scale(c)


def test_normalize_preserves_multigrading(base_v45):
    rng = random.Random(23)
    for _ in range(100):
        p = helpers.random_poly(rng)
        assert normalize(p, base_v45).multidegree() <= p.multidegree()


def test_confluence_random_strategies(base_v45):
    rng = random.Random(101)
    for _ in range(100):
        p = helpers.random_poly(rng)
        assert helpers.normalize_random(p, base_v45, rng) == normalize(p, base_v45)


def test_structural_predicate_examples():
    assert is_normal_structural((1, 2, 3), "multilinear")
    assert not is_normal_structural((3, 2, 4, 1), "multilinear")
    assert not is_normal_structural((2, 4, 1, 3), "multilinear")
    assert is_normal_structural((), "general")
    assert is_normal_structural((2, 1, 2, 1), "general")
    assert not is_normal_structural((2, 2, 1), "general")
    assert not is_normal_structural((3, 2, 3, 1), "general")
    with pytest.raises(ValueError):
        is_normal_structural((1, 2, 1), "multilinear")
    with pytest.raises(ValueError):
        is_normal_structural((1, 2), "nonsense")


def test_factorfree_predicate_examples(base_v46):
    assert is_normal_factorfree((1, 3, 2, 4), base_v46)
    assert not is_normal_factorfree((3, 2, 1), base_v46)
    assert is_normal_factorfree((), base_v46)


def test_predicate_equivalence_small(base_v46, base_m4):
    for d in range(6):
        for word in itertools.product((1, 2, 3, 4), repeat=d):
            assert is_normal_structural(word, "general") == is_normal_factorfree(word, base_v46)
            if len(set(word)) == len(word):
                assert is_normal_structural(word, "multilinear") == is_normal_factorfree(
                    word, base_m4
                )
    for k in range(1, 8):
        base = gb_multilinear(max(3, k))
        for word in itertools.permutations(range(1, k + 1)):
            assert is_normal_structural(word, "multilinear") == is_normal_factorfree(word, base)


def test_predicate_equivalence_five_variables():
    base = gb_vector(5, 6)
    for d in range(7):
        for word in itertools.product((1, 2, 3, 4, 5), repeat=d):
            assert is_normal_structural(word, "general") == is_normal_factorfree(word, base)


def test_obstruction_placements(base_v46):
    found = overlaps(base_v46, 6)
    assert found
    for ob in found:
        la = base_v46.rules[ob.rule_a].lead
        lb = base_v46.rules[ob.rule_b].lead
        w = ob.word
        assert w[ob.offset_a : ob.offset_a + len(la)] == la
        assert w[ob.offset_b : ob.offset_b + len(lb)] == lb
        # occurrences genuinely overlap
        assert max(ob.offset_a, ob.offset_b) < min(
            ob.offset_a + len(la), ob.offset_b + len(lb)
        )


def test_overlaps_examples():
    square_rules = gb_vector(2, 3)
    obs = overlaps(square_rules, 6)
    words = {ob.word for ob in obs}
    assert (2, 2, 1, 1) in words
    lone = RuleSet([RewriteRule((2, 1), w(1, 2))])
    assert overlaps(lone, 6) == []
    pair = RuleSet(
        [r for r in gb_vector(3, 3).rules if r.lead in ((3, 2, 1), (3, 1, 2))]
    )
    assert overlaps(pair, 5) == []


def test_s_polynomial_resolves():
    base = gb_vector(3, 4)
    obs = overlaps(base, 4)
    assert obs
    for ob in obs:
        assert not normalize(s_polynomial(base, ob), base)


def test_check_groebner_positive(base_v36):
    report = check_groebner(base_v36, 6, generators=gen_vector_syzygies(3))
    assert report.ok
    assert report.obstructions_checked > 0


def test_check_groebner_negative_control(base_m4):
    broken = RuleSet(
        [r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4
    )
    report = check_groebner(
        broken, 6, multilinear=True, generators=gen_multilinear_syzygies(4)
    )
    assert not report.ok
    leads = {p.leading_word() for p in report.generator_residues}
    assert (3, 2, 4, 1) in leads


def test_check_groebner_rejects_a_negative_degree_bound():
    # A bound below 0 checks nothing, so an ok report would be vacuous.
    with pytest.raises(ValueError, match=r"^max_degree must be >= 0, got -1$"):
        check_groebner(gb_vector(3, 3), -1)
    assert check_groebner(gb_vector(3, 3), 0).ok


def test_complete_empty():
    base = complete([], 5)
    assert len(base) == 0


def test_complete_two_variables():
    base = complete([g.element for g in gen_vector_syzygies(2)], 4)
    assert set(base.leads()) == {(2, 2, 1), (2, 1, 1)}


def test_complete_matches_closed_form():
    base = complete([g.element for g in gen_vector_syzygies(3)], 4)
    assert set(base.leads()) == set(gb_vector(3, 4).leads())


def test_complete_matches_closed_form_wider():
    for n, d in ((2, 6), (3, 6), (4, 5), (5, 4)):
        done = complete([g.element for g in gen_vector_syzygies(n)], d)
        assert set(done.leads()) == set(gb_vector(n, d).leads()), (n, d)


def _rule_map(base):
    return {r.lead: r.rhs for r in base.rules}


def test_complete_equals_the_reduced_closed_form_tails_included():
    for n, d in ((3, 6), (4, 6), (5, 5), (5, 6), (6, 5), (6, 6)):
        gens = [g.element for g in gen_vector_syzygies(n)]
        out = complete(gens, d)
        assert _rule_map(out) == _rule_map(inter_reduce(gb_vector(n, d))), (n, d)
        assert check_groebner(out, d, generators=gens).ok, (n, d)
        rules = [(r.lead, r.rhs) for r in out.rules]
        for seed in (1, 2):
            shuffled = list(gens)
            random.Random(seed).shuffle(shuffled)
            assert [(r.lead, r.rhs) for r in complete(shuffled, d).rules] == rules, (n, d, seed)


def test_complete_keeps_every_intermediate_set_closed_in_any_order(monkeypatch):
    # Each degree's set is the reduced base truncated there, whatever the
    # generator order, so the letter-pattern memo serves every degree.
    gens = [g.element for g in gen_vector_syzygies(5)]
    random.Random(3).shuffle(gens)
    built = _grown_sets(monkeypatch, gens, 6)
    out = built[-1]
    tops = [base._top for base in built if len(base)]
    assert len(tops) >= 4 and all(top == 5 for top in tops), tops
    assert out._top == 5 and out._nf_cache == {}


def _on_first_letters(letters):
    return letters == set(range(1, len(letters) + 1))


def test_complete_equals_its_run_on_generators_that_are_not_closed(monkeypatch):
    # Closed generators complete only the blocks on letters 1..k and
    # relabel their rules onto every letter set; with one generator
    # doubled the list is not closed, so every block is completed where
    # it lies.  Both must give the same rules.
    import quatpoly.rewrite as rewrite

    real_normalize = rewrite.normalize

    def run(gens, d):
        seen = []

        def recording(p, b):
            seen.append({x for u in p._data for x in u})
            return real_normalize(p, b)

        monkeypatch.setattr(rewrite, "normalize", recording)
        rules = [(r.lead, r.rhs) for r in complete(gens, d).rules]
        monkeypatch.undo()
        return rules, seen

    for n, d in ((3, 6), (4, 6), (5, 5), (5, 6), (6, 5)):
        gens = [g.element for g in gen_vector_syzygies(n)]
        # V2(1, 2) comes first and has no copy in the list.
        scaled = [gens[0].scale(2)] + gens[1:]
        shuffled = list(range(len(gens)))
        random.Random(n * d).shuffle(shuffled)
        for order in (range(len(gens)), shuffled):
            rules, seen = run([gens[i] for i in order], d)
            assert seen and all(_on_first_letters(s) for s in seen), (n, d)
            other, seen_scaled = run([scaled[i] for i in order], d)
            assert other == rules, (n, d)
            assert not all(_on_first_letters(s) for s in seen_scaled), (n, d)


def _terms_shuffled(polys, rng):
    """``polys`` rebuilt with their terms inserted in random order."""
    return [Polynomial(dict(rng.sample(list(p._items()), len(p._data)))) for p in polys]


def test_complete_decides_closure_from_its_generators(monkeypatch):
    import quatpoly.rewrite as rewrite

    class Decided(Exception):
        pass

    real = rewrite._class_sizes

    def first_test(blocks):
        # complete counts its generators' classes before it builds any
        # rule set.
        raise Decided(_full_top(real(blocks)))

    def decided(gens):
        monkeypatch.setattr(rewrite, "_class_sizes", first_test)
        with pytest.raises(Decided) as stop:
            complete(gens, 4)
        monkeypatch.undo()
        return stop.value.args[0]

    for n in (2, 3, 4):
        gens = [g.element for g in gen_vector_syzygies(n)]
        # V3 instances come in equal pairs already; add more copies.
        copies = gens + gens[::3]
        random.Random(n).shuffle(copies)
        assert decided(gens) == decided(copies) == n
        # complete reads each generator's terms as stored, in any order.
        assert decided(_terms_shuffled(gens, random.Random(n))) == n
    gens = [g.element for g in gen_vector_syzygies(3)]
    assert gens[0] == w(1, 1, 2) - w(2, 1, 1) and gens.count(gens[0]) == 1
    assert decided(gens[1:]) == 0
    assert decided([gens[0].scale(2)] + gens[1:]) == 0
    # On two letters this alone would be closed, but for its symbol.
    assert decided([parse_expression("v2*v1 - s1*v1*v2")[1]]) == 0
    on_23 = [g for g in gens if set(next(iter(g._data))) == {2, 3}]
    assert on_23 and decided(on_23) == 0
    # Every class would be full on 1..2, but letter 0 lies outside every
    # relabeling; completed where it lies, the list gives the rules of
    # its copy on letters 1..3, moved back down.
    low = [g.element for g in gen_vector_syzygies(2)] + [w(0, 0, 1) - w(1, 0, 0)]
    assert decided(low) == 0

    def shifted(p, by):
        return Polynomial({tuple(x + by for x in u): c for u, c in p._data.items()})

    up = complete([shifted(p, 1) for p in low], 6)
    assert _rule_map(complete(low, 6)) == {
        tuple(x - 1 for x in r.lead): shifted(r.rhs, -1) for r in up.rules
    }


def test_complete_hands_normalize_block_copies_only(monkeypatch):
    # Every batch is normalized one block at a time against copies of the
    # degree's set, so no set that complete builds is read or written
    # through normalize, and no memo holds more than one block.
    import quatpoly.rewrite as rewrite

    real_grown, real_normalize = rewrite.RuleSet.grown, rewrite.normalize
    real_match = rewrite._first_match

    def run(gens):
        built, seen, steps, inside = [], [], [], []

        def recording_grown(self, rules):
            base = real_grown(self, rules)
            built.append(base)
            return base

        def recording_normalize(p, b):
            inside.append(b)
            try:
                out = real_normalize(p, b)
            finally:
                inside.pop()
            seen.append((b, len(b._nf_cache)))
            return out

        def counted(b, word):
            # Inside normalize a match is a memo miss's one rewrite step;
            # outside it, the factor-free check and the chain criterion.
            if inside:
                assert b is inside[-1]
                steps.append(word)
            return real_match(b, word)

        monkeypatch.setattr(rewrite.RuleSet, "grown", recording_grown)
        monkeypatch.setattr(rewrite, "normalize", recording_normalize)
        monkeypatch.setattr(rewrite, "_first_match", counted)
        out = complete(gens, 6)
        monkeypatch.undo()
        assert out is built[-1] and len(built) >= 4
        ids = {id(base) for base in built}
        assert seen and not any(id(b) in ids for b, _ in seen)
        assert all(base._nf_cache == {} for base in built)
        # One memo shared by the blocks of each degree would reach 1,802
        # entries.  Each overlap word takes an entry of its own.
        assert max(size for _, size in seen) == 214
        # A block never reads another block's entries, no word is
        # rewritten twice within a block, and the degree loop normalizes
        # only the blocks on letters 1..k.  Normalizing every letter set
        # would add the words of the degree-3 generators off 1..k, which
        # the empty set of rules, closed on no alphabet, cannot relabel
        # onto 1..k.  The final check normalizes only the overlaps the
        # degree loop did not already find zero against the same rules
        # (3,614 steps if it normalized them all).
        assert len(steps) == 2438
        return _rule_map(out)

    gens = [g.element for g in gen_vector_syzygies(5)]
    random.Random(31).shuffle(gens)
    # The order a generator's terms are stored in changes nothing.
    assert run(gens) == run(_terms_shuffled(gens, random.Random(37)))


def test_complete_from_degree_two_generators():
    gens = [w(2, 1) - w(1, 2), w(3, 1) - w(1, 3), w(3, 2) - w(2, 3)]
    out = complete(gens, 4)
    assert _rule_map(out) == {(2, 1): w(1, 2), (3, 1): w(1, 3), (3, 2): w(2, 3)}
    # Degrees 3 and 4 add no rule; their batches went through block copies
    # of the returned set, whose own memo stays empty.
    assert out._nf_cache == {}
    assert check_groebner(out, 4, generators=gens).ok


def test_complete_echelonizes_equal_leads_within_a_degree():
    gens = [w(2, 1, 1) - w(1, 2, 1), w(2, 1, 1) - w(1, 1, 2)]
    out = complete(gens, 4)
    assert _rule_map(out) == {(2, 1, 1): w(1, 1, 2), (1, 2, 1): w(1, 1, 2)}
    assert check_groebner(out, 4, generators=gens).ok


def test_complete_raises_when_its_final_check_fails(monkeypatch):
    import quatpoly.rewrite as rewrite

    gens = [w(2, 1) - w(1, 2), w(3, 2) - w(2, 3)]
    assert (3, 1, 1, 2) in complete(gens, 4).leads()
    real = rewrite._representative_overlaps
    asked = []

    def blind_at_the_bound(base, max_degree, top):
        # complete asks for degree 4 twice: its last degree, then its
        # final check.  Hiding the first leaves v3*v1*v1*v2 unresolved.
        asked.append(max_degree)
        return [] if asked.count(4) == 1 else real(base, max_degree, top)

    monkeypatch.setattr(rewrite, "_representative_overlaps", blind_at_the_bound)
    with pytest.raises(RuntimeError, match="residue"):
        complete(gens, 4)
    assert asked.count(4) == 2


def test_complete_raises_when_a_degree_loses_closure(monkeypatch):
    import quatpoly.rewrite as rewrite

    real = rewrite.RuleSet.grown

    def unclosed_from(degree):
        def unclosed(self, rules):
            base = real(self, rules)
            if len(base.rules[-1].lead) >= degree:
                base._top = 0
            return base

        return unclosed

    gens = [g.element for g in gen_vector_syzygies(4)]
    # Degree 3 grows the empty set; degrees 4 and 5 grow a nonempty one.
    for degree in (3, 4, 5):
        monkeypatch.setattr(rewrite.RuleSet, "grown", unclosed_from(degree))
        message = "^completion lost relabeling closure at degree %d$" % degree
        with pytest.raises(RuntimeError, match=message):
            complete(gens, 5)
        monkeypatch.undo()


def _homogeneous_extras(rng, n, count):
    """``count`` random generators, each a sum of three rearrangements of
    one random word on letters 1..n."""
    out = []
    for _ in range(count):
        letters = [rng.randint(1, n) for _ in range(rng.randint(3, 5))]
        p = Polynomial()
        for _ in range(3):
            rng.shuffle(letters)
            p = p + w(*letters).scale(rng.randint(-3, 3))
        out.append(p)
    return out


def test_complete_with_its_final_check_skipping_verified_overlaps_is_unchanged():
    # The final check skips the overlaps that a degree's batch normalized
    # to zero in a letter multiset that gained no rule.  The rules, tails
    # and order stay those pinned here, and every overlap of the result,
    # not only the representatives, resolves.
    def rules_digest(base):
        return hashlib.sha256("\n".join(map(repr, base.rules)).encode()).hexdigest()

    def shuffled(gens, seed):
        gens = list(gens)
        random.Random(seed).shuffle(gens)
        return gens

    v = {n: [g.element for g in gen_vector_syzygies(n)] for n in (4, 5, 6)}
    doubled = [v[5][0].scale(2)] + v[5][1:]
    multilinear = [g.element for g in gen_multilinear_syzygies(5)]
    extras = v[4] + _homogeneous_extras(random.Random(11), 4, 3)
    cases = [
        (shuffled(v[5], 47), 6, 5, "b079f7b17d29da9651ab4b966897334a4456cfddc1d9ca2ca00affaf128775e0"),
        (shuffled(v[5], 5), 6, 5, "b079f7b17d29da9651ab4b966897334a4456cfddc1d9ca2ca00affaf128775e0"),
        (shuffled(v[6], 47), 5, 6, "675c7b08daa45763c2a290e314e37fb5bd7f4cdd00e2b51c05c2a1c17afda47c"),
        (shuffled(v[6], 5), 5, 6, "675c7b08daa45763c2a290e314e37fb5bd7f4cdd00e2b51c05c2a1c17afda47c"),
        (v[4], 6, 4, "997f38470f0c43470acd6afe41049d9da710254de31f0a3a830af5706af0711f"),
        # Not closed, so every block completes where it lies (N = 0); the
        # result is closed all the same.
        (doubled, 5, 5, "db9659973136521c37ea8d928a9e0f58fe8ca55abae0fb84b2bab5e3169a5c63"),
        (multilinear, 5, 5, "b1edc7fbbe67faf73afc573ab2c96c908d02014c393a428ba769ee989e1d271f"),
        # The extra generators leave a result closed on no alphabet.
        (extras, 6, 0, "b106cacd4ff09e13af66932161767592e8f65bdfdcadb5cfe7b2a83b8fbf91a2"),
    ]
    for gens, d, top, digest in cases:
        out = complete(gens, d)
        assert (out._top, rules_digest(out)) == (top, digest), (d, top)
        assert check_groebner(out, d).ok, (d, top)


def test_complete_final_check_normalizes_only_what_its_degree_loop_left(monkeypatch):
    import quatpoly.rewrite as rewrite

    real = rewrite._normalize_by_block

    def counted(base, obs, polys):
        batches.append(len(obs))
        return real(base, obs, polys)

    monkeypatch.setattr(rewrite, "_normalize_by_block", counted)
    # (n, d): obstructions the degree loop normalized, then those the
    # final check normalizes.  Normalizing every representative overlap
    # again would take as many as the loop at (5, 6) and (6, 5).
    for n, d, loop, final in ((5, 6, 77, 37), (6, 5, 42, 21)):
        batches = []
        gens = [g.element for g in gen_vector_syzygies(n)]
        random.Random(31).shuffle(gens)
        complete(gens, d)
        assert (sum(batches[:-1]), batches[-1]) == (loop, final), (n, d)


def test_complete_final_check_catches_a_corrupted_rule_of_the_last_degree(monkeypatch):
    # Flipping one tail coefficient of a new rule on letters 1..k, after
    # the last degree grew the set, leaves the degree loop's verdicts
    # stale: the final check must still find the residue.
    import quatpoly.rewrite as rewrite

    real = rewrite.RuleSet.grown

    def corrupting(pick):
        def grown(self, rules):
            base = real(self, rules)
            if len(base.rules[-1].lead) == 6:
                new = [
                    i
                    for i in range(len(self.rules), len(base.rules))
                    if _on_first_letters(set(base.rules[i].lead)) and base._tails[i]
                ]
                picked.append(len(new))
                i = new[pick]
                (u, c), *rest = base._tails[i]
                base._tails = base._tails[:i] + ([(u, -c), *rest],) + base._tails[i + 1 :]
            return base

        return grown

    gens = [g.element for g in gen_vector_syzygies(5)]
    for pick in range(3):
        picked = []
        monkeypatch.setattr(rewrite.RuleSet, "grown", corrupting(pick))
        with pytest.raises(RuntimeError, match="^completion left an overlap residue at degree bound 6$"):
            complete(gens, 6)
        monkeypatch.undo()
        assert picked == [3]


def _grown_sets(monkeypatch, gens, d):
    """Every set that ``complete(gens, d)`` grows, in order."""
    import quatpoly.rewrite as rewrite

    built = []
    real = rewrite.RuleSet.grown

    def recording(self, rules):
        base = real(self, rules)
        built.append(base)
        return base

    monkeypatch.setattr(rewrite.RuleSet, "grown", recording)
    try:
        out = complete(gens, d)
    finally:
        monkeypatch.undo()
    assert out is built[-1]
    return built


def _layout(base):
    """Everything a rule set derives from its rules."""
    tails = [list(t) for t in base._tails]
    return (base.rules, base._index, base._heads, base._head, tails, base._classes, base._top)


def test_a_grown_set_is_the_set_built_from_its_rules(monkeypatch):
    runs = [
        (n, d, [g.element for g in gen_vector_syzygies(n)])
        for n, d in ((3, 6), (4, 6), (5, 6), (6, 5))
    ]
    shuffled = list(runs[2][2])
    random.Random(43).shuffle(shuffled)
    runs.append((5, 6, shuffled))
    for n, d, gens in runs:
        built = _grown_sets(monkeypatch, gens, d)
        assert len(built) >= 2, (n, d)
        for base in built:
            fresh = RuleSet(base.rules, degree_bound=base.degree_bound)
            assert _layout(base) == _layout(fresh), (n, d, len(base))
            assert base._top == n, (n, d, len(base))


def test_a_grown_set_that_drops_a_class_member_is_not_closed():
    rules = gb_vector(5, 6).rules
    by_length = {t: [r for r in rules if len(r.lead) == t] for t in (3, 4, 5, 6)}
    below = RuleSet(by_length[3] + by_length[4], degree_bound=6)
    assert below._top == 5
    assert below.grown(by_length[5]).grown(by_length[6])._top == 5

    def pattern(lead):
        letters = sorted(set(lead))
        return tuple(letters.index(x) for x in lead)

    gaps = 0
    for dropped in by_length[5]:
        kept = [r for r in by_length[5] if r is not dropped]
        # Dropping a class's only member leaves no gap.
        gap = sum(pattern(r.lead) == pattern(dropped.lead) for r in by_length[5]) > 1
        gaps += gap
        grown = below.grown(kept)
        want = 0 if gap else 5
        assert grown._top == RuleSet(below.rules + tuple(kept))._top == want, dropped
        # A longer degree joins no old class, so a gap stays.
        assert grown.grown(by_length[6])._top == want, dropped
    assert gaps == 5
    # A class missing a member below the growth.
    short = RuleSet(by_length[3][1:] + by_length[4])
    assert short._top == short.grown(by_length[5])._top == 0
    # A rule outside every relabeling leaves every growth not closed.
    symbolic = RuleSet([RewriteRule((2, 1), Scalar.symbol(1) * w(1, 2))])
    grown = symbolic.grown([RewriteRule((3, 3, 3), Polynomial())])
    assert symbolic._classes is grown._classes is None
    assert symbolic._top == grown._top == 0


def test_a_set_grows_only_by_longer_leads():
    rules = gb_vector(4, 5).rules
    threes = RuleSet([r for r in rules if len(r.lead) == 3], degree_bound=5)
    fours = [r for r in rules if len(r.lead) == 4]
    before = _layout(threes)
    for batch in (
        [RewriteRule((1, 1, 1), Polynomial())],
        fours + [RewriteRule((1, 1, 1), Polynomial())],
        [r for r in rules if len(r.lead) == 3][:1],
    ):
        not_longer = r"^lead v[0-9*v]+ is not longer than every lead of the set$"
        with pytest.raises(ValueError, match=not_longer):
            threes.grown(batch)
    with pytest.raises(ValueError, match="^duplicate lead "):
        threes.grown([fours[0], RewriteRule(fours[0].lead, Polynomial())])
    # A failed growth leaves the set it started from as it was.
    assert _layout(threes) == before
    both = RuleSet(threes.rules + tuple(fours), degree_bound=5)
    assert _layout(threes.grown(fours)) == _layout(both)


def test_complete_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        complete([w(1, 2) + w(1)], 4)


def test_inter_reduce_gq_shape(base_m5):
    reduced = inter_reduce(base_m5)
    rule = next(r for r in reduced.rules if r.family == "Gm" and len(r.lead) == 5)
    assert rule.lead == (3, 2, 4, 5, 1)
    element = rule.element
    assert element.terms[(3, 1, 4, 5, 2)] == Fraction(-1)
    for word in element.terms:
        if word not in ((3, 2, 4, 5, 1), (3, 1, 4, 5, 2)):
            assert word[0] in (1, 2)


def test_inter_reduced_tails_are_normal(base_v46):
    reduced = inter_reduce(base_v46)
    for rule in reduced.rules:
        assert normalize(rule.rhs, base_v46) == rule.rhs
        # same rewrite relation: both bases give identical normal forms
    rng = random.Random(31)
    for _ in range(30):
        p = helpers.random_poly(rng, n=4, max_degree=5)
        assert normalize(p, base_v46) == normalize(p, reduced)


def test_inter_reduce_normalizes_each_tail_with_a_memo_it_drops():
    # The last set has a zero tail and a tail that reduces to zero.
    vanishing = RuleSet([RewriteRule((3, 1), w(1, 3)), RewriteRule((1, 3), Polynomial())])
    for base in (gb_vector(4, 6), gb_multilinear(5), _raw_generator_rules(3), vanishing):
        reduced = inter_reduce(base)
        assert base._nf_cache == {}
        assert [(r.lead, r.family, r.indices, r.variant) for r in reduced.rules] == [
            (r.lead, r.family, r.indices, r.variant) for r in base.rules
        ]
        fresh = [
            normalize(r.rhs, RuleSet(base.rules, degree_bound=base.degree_bound))
            for r in base.rules
        ]
        assert [r.rhs for r in reduced.rules] == fresh, base


# Reference semantics for the lead index: a scan of every rule for the lead
# with the smallest ``find_factor`` offset, and the all-pairs overlap loop
# with its containment branch.


def _rewrite(word, p, rule):
    k = len(rule.lead)
    return [(word[:p] + u + word[p + k :], c) for u, c in rule.rhs.terms.items()]


def _naive_step(base, word):
    hits = [(find_factor(word, r.lead), r) for r in base.rules]
    hits = [(p, r) for p, r in hits if p is not None]
    if not hits:
        return None
    # Leads are factor-free, so no two hits share an offset.
    p, rule = min(hits, key=lambda hit: hit[0])
    return _rewrite(word, p, rule)


def _canonical_order_match(base, word):
    # The first rule in canonical order, at its leftmost occurrence: a
    # different strategy, which must reach the same normal forms on a
    # confluent set.
    for i, rule in enumerate(base.rules):
        p = find_factor(word, rule.lead)
        if p is not None:
            return i, p
    return None


def _canonical_order_step(base, word):
    hit = _canonical_order_match(base, word)
    return None if hit is None else _rewrite(word, hit[1], base.rules[hit[0]])


def _naive_reduce_once(poly, base, step_of=_naive_step):
    for word, c in poly.terms.items():
        step = step_of(base, word)
        if step is not None:
            data = dict(poly.terms)
            del data[word]
            for u, cu in step:
                data[u] = data.get(u, 0) + c * cu
            return Polynomial(data), True
    return poly, False


def _naive_overlaps(base, max_degree):
    out = []
    for i, ri in enumerate(base.rules):
        li = ri.lead
        for j, rj in enumerate(base.rules):
            lj = rj.lead
            for k in range(1, len(li)):
                if k + len(lj) <= len(li):
                    continue
                shared = len(li) - k
                if li[k:] == lj[:shared] and k + len(lj) <= max_degree:
                    out.append(Obstruction(i, j, li + lj[shared:], 0, k))
            if i != j and len(lj) < len(li) and len(li) <= max_degree:
                for k in range(len(li) - len(lj) + 1):
                    if li[k : k + len(lj)] == lj:
                        out.append(Obstruction(i, j, li, 0, k))
    out.sort(key=lambda ob: (word_key(ob.word), ob.rule_a, ob.rule_b, ob.offset_b))
    return out


def _fractional_generators():
    return [
        w(2, 2, 1).scale(2) - w(1, 2, 2) - w(2, 1, 2),
        w(3, 2, 1).scale(3) - w(1, 2, 3) + w(2, 1, 3),
        w(2, 1, 1).scale(2) - w(1, 1, 2),
        w(3, 1, 1).scale(3) - w(1, 1, 3),
    ]


def _fractional_completion():
    base = complete(_fractional_generators(), 6)
    assert any(
        type(c) is Fraction and c.denominator != 1
        for r in base.rules
        for c in r.rhs.terms.values()
    )
    return base


def _as_dict(step):
    # A step's words are distinct, and no caller reads their order.
    return None if step is None else dict(step)


def _engine_step(base, word):
    # The engine's rewrite step: its matcher, then the rewrite there.
    hit = _first_match(base, word)
    return None if hit is None else _rewrite_at(base, hit[0], word, hit[1])


def test_first_match_and_reduce_once_match_linear_scan(base_v45, base_m4):
    broken = RuleSet([r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4)
    for base in (base_v45, base_m4, broken):
        for d in range(6):
            for word in itertools.product((1, 2, 3, 4), repeat=d):
                assert _as_dict(_engine_step(base, word)) == _as_dict(_naive_step(base, word)), word
                if d <= base.degree_bound:
                    p = Polynomial.from_word(word, 3)
                    assert reduce_once(p, base) == _naive_reduce_once(p, base), word
    rng = random.Random(43)
    for _ in range(100):
        p = helpers.random_poly(rng)
        assert reduce_once(p, base_v45) == _naive_reduce_once(p, base_v45)


def test_head_index_finds_the_leftmost_lead():
    def sorted_tail(*lead):
        rhs = Polynomial.from_word(sorted(lead))
        return RewriteRule(lead, rhs if tuple(sorted(lead)) < lead else Polynomial())

    # (rule set, alphabet, head length, head index)
    cases = [
        # Leads of lengths 3, 4 and 5 under the one head v2*v1.
        (
            RuleSet(
                [
                    sorted_tail(3, 3),
                    sorted_tail(2, 1, 1),
                    sorted_tail(2, 1, 3, 1),
                    sorted_tail(2, 1, 2, 2, 1),
                ]
            ),
            3,
            2,
            {(3, 3): (2,), (2, 1): (3, 4, 5)},
        ),
        (RuleSet([sorted_tail(3), sorted_tail(2, 1)]), 3, 1, {(3,): (1,), (2,): (2,)}),
        (RuleSet(), 2, 0, {}),
        (gb_vector(4, 6), 4, 3, None),
    ]
    rng = random.Random(59)
    for base, n, head, heads in cases:
        assert base._head == head and heads in (None, base._heads)
        for _ in range(400):
            word = tuple(rng.randint(1, n) for _ in range(rng.randint(0, base.degree_bound or 9)))
            step = _engine_step(base, word)
            assert _as_dict(step) == _as_dict(_naive_step(base, word)), (base, word)
            assert is_normal_factorfree(word, base) == (_naive_step(base, word) is None)


def test_no_engine_routine_sorts_a_term_map(monkeypatch):
    import quatpoly.freealg as freealg
    import quatpoly.qvars as qvars
    import quatpoly.syzygy as syzygy

    # Inputs are built before the count starts.
    rng = random.Random(67)
    gens = [g.element for g in gen_vector_syzygies(4)]
    polys = [helpers.random_poly(rng, max_degree=6) for _ in range(30)]
    polys += [helpers.random_scalar_poly(rng, n=4, max_degree=6) for _ in range(30)]
    q = parse_expression("S(q1*q2*q3') + 1/3*q2'*q1 - q3*q1'*q2")[1]
    sorts = []

    def counted(sort_keys):
        def sort(keys):
            sorts.append(sort_keys)
            return sort_keys(keys)

        return staticmethod(sort)

    monkeypatch.setattr(freealg._TermMap, "_sort_keys", counted(freealg._TermMap._sort_keys))
    monkeypatch.setattr(qvars.QPolynomial, "_sort_keys", counted(qvars.QPolynomial._sort_keys))
    base = gb_vector(4, 6)
    gb_multilinear(5)
    assert check_groebner(base, 6, generators=gens).ok
    assert sorted(complete(gens, 6).leads()) == sorted(base.leads())
    inter_reduce(base)
    normal = [normalize(p, base) for p in polys]
    syzygy._family.cache_clear()
    assert [syzygy._normal_form(p) for p in polys] == normal
    qvars.normalize_q(q)
    assert sorts == []


def test_overlaps_match_all_pairs():
    for base, bound in ((gb_vector(5, 6), 6), (_fractional_completion(), 6)):
        assert overlaps(base, bound) == _naive_overlaps(base, bound)


def test_representative_overlaps_are_the_overlaps_relabeling_leaves_in_place(monkeypatch):
    closed = [
        (gb_vector(3, 6), 6),
        (gb_vector(4, 6), 6),
        (gb_vector(5, 5), 5),
        (gb_multilinear(5), 5),
        (complete([g.element for g in gen_vector_syzygies(4)], 6), 6),
    ]
    for base, d in closed:
        assert base._top > 0
        every = overlaps(base, d)
        kept = [ob for ob in every if _stays(sorted(set(ob.word)), base._top)]
        assert 0 < len(kept) < len(every)
        assert _representative_overlaps(base, d, base._top) == kept
    # Every set complete grows, with the generators' N, which is its own.
    gens = [g.element for g in gen_vector_syzygies(5)]
    random.Random(47).shuffle(gens)
    for base in _grown_sets(monkeypatch, gens, 7):
        assert base._top == 5
        every = overlaps(base, 7)
        kept = [ob for ob in every if _stays(sorted(set(ob.word)), 5)]
        assert len(kept) < len(every)
        for d in range(8):
            assert _representative_overlaps(base, d, 5) == [ob for ob in kept if len(ob.word) <= d]
    # Closed on no alphabet, every block is its own representative.
    rules = gb_vector(4, 5).rules
    for base in (RuleSet(rules[1:]), _fractional_completion()):
        assert base._top == 0
        assert _representative_overlaps(base, 6, 0) == overlaps(base, 6)


def _relabeling_classes(base):
    classes = {}
    for r in base.rules:
        letters = sorted(set(r.lead))
        classes.setdefault(tuple(letters.index(x) for x in r.lead), []).append(r)
    return classes.values()


def _complete_final_check_accepts(monkeypatch, base, d):
    # complete on the rules' elements, with its degree loop shown no
    # overlap, returns their reduced echelon form: the same leads and the
    # same ideal, so the same verdict as the rules themselves.  Only its
    # final check can then find a residue.  complete asks for overlaps
    # once per degree 0..d, then once for the final check.
    import quatpoly.rewrite as rewrite

    real = rewrite._representative_overlaps
    asked = []

    def blind_degree_loop(b, t, top):
        asked.append(t)
        return real(b, t, top) if len(asked) > d + 1 else []

    monkeypatch.setattr(rewrite, "_representative_overlaps", blind_degree_loop)
    try:
        out = complete([r.element for r in base.rules], d)
    except RuntimeError as exc:
        assert "residue" in str(exc)
        return False
    finally:
        monkeypatch.undo()
        assert len(asked) == d + 2
    assert set(out.leads()) == set(base.leads())
    return True


def test_complete_final_check_agrees_with_check_groebner_on_closed_sets(monkeypatch):
    # Dropping one whole relabeling class keeps a set closed, but mostly
    # breaks its confluence; the representative check must see exactly
    # what the check of every overlap sees.
    verdicts = []
    for n, d in ((4, 5), (5, 5), (4, 6)):
        whole = gb_vector(n, d)
        for members in _relabeling_classes(whole):
            dropped = {r.lead for r in members}
            base = RuleSet([r for r in whole.rules if r.lead not in dropped], degree_bound=d)
            assert base._top == n
            ok = check_groebner(base, d).ok
            assert _complete_final_check_accepts(monkeypatch, base, d) == ok, (n, d, members)
            verdicts.append(ok)
    assert len(verdicts) == 23 and verdicts.count(False) == 21


def _random_factor_free(rng, n, lengths, tries):
    leads = []
    for _ in range(tries):
        word = helpers.random_word(rng, n, lengths[1], lengths[0])
        if all(find_factor(word, u) is None and find_factor(u, word) is None for u in leads):
            leads.append(word)
    return RuleSet([RewriteRule(u, Polynomial()) for u in leads])


def test_chain_redundant_finds_a_third_lead_between_the_two():
    rng = random.Random(5)
    cases = [
        (gb_vector(4, 6), 6),
        (gb_vector(5, 5), 5),
        (gb_multilinear(5), 5),
    ] + [(_random_factor_free(rng, 3, (2, 5), 40), 8) for _ in range(6)]
    for base, d in cases:
        leads = base.leads()
        verdicts = []
        for ob in overlaps(base, d):
            third = any(
                find_factor(ob.word[p:], u) == 0
                for u in leads
                for p in range(len(ob.word))
                if p not in (0, ob.offset_b)
            )
            assert _chain_redundant(base, ob) == third, ob
            verdicts.append(third)
        assert True in verdicts and False in verdicts


def test_complete_skipping_chain_redundant_overlaps_changes_no_rule(monkeypatch):
    # Keeping every overlap, in the degree loop and in the final check,
    # must give the same rules as skipping those with a third lead inside.
    import quatpoly.rewrite as rewrite

    real = rewrite._chain_redundant

    def run(gens, d, keep_all):
        skipped = []

        def predicate(base, ob):
            skipped.append(real(base, ob))
            return False if keep_all else skipped[-1]

        monkeypatch.setattr(rewrite, "_chain_redundant", predicate)
        rules = [(r.lead, r.rhs) for r in complete(gens, d).rules]
        monkeypatch.undo()
        return rules, skipped.count(True)

    lists = []
    for n, d in ((3, 5), (4, 6), (5, 6)):
        gens = [g.element for g in gen_vector_syzygies(n)]
        shuffled = list(gens)
        random.Random(n).shuffle(shuffled)
        # One generator doubled: not closed, so every block is completed.
        lists += [(gens, d), (shuffled, d), ([gens[0].scale(2)] + gens[1:], d)]
    # Completed to degree 6, this list has a symbol in a tail.
    symbolic = ["v3*v2*v2 + s1*v2*v3*v2", "v2*v2*v1 - v1*v2*v2", "v2*v1*v1 - v1*v1*v2"]
    lists.append(([parse_expression(text)[1] for text in symbolic], 6))
    lists.append((_fractional_generators(), 8))
    for gens, d in lists:
        pruned, skipped = run(gens, d, False)
        assert run(gens, d, True)[0] == pruned and skipped > 0, (len(gens), d)


def _canonical_order_fixed_point(p, base):
    changed = True
    while changed:
        p, changed = _naive_reduce_once(p, base, _canonical_order_step)
    return p


def test_strategy_changes_no_normal_form_and_no_verdict(base_m4, monkeypatch):
    rng = random.Random(1978)
    # (rule set, random input) on confluent sets; gb_multilinear is
    # confluent on distinct-letter words only.
    cases = [
        (gb_vector(4, 6), lambda: helpers.random_poly(rng, n=4, max_degree=6)),
        (
            gb_multilinear(5),
            lambda: Polynomial(
                {
                    tuple(rng.sample(range(1, 6), rng.randint(0, 5))): rng.randint(1, 5)
                    for _ in range(4)
                }
            ),
        ),
        (_fractional_completion(), lambda: helpers.random_poly(rng, n=3, max_degree=6)),
        (
            complete([g.element for g in gen_vector_syzygies(3)], 5),
            lambda: helpers.random_poly(rng, n=3, max_degree=5),
        ),
    ]
    for base, draw in cases:
        for _ in range(40):
            p = draw()
            assert normalize(p, base) == _canonical_order_fixed_point(p, base), (base, p)

    def verdicts():
        v45 = gb_vector(4, 5)
        square = next(r for r in v45.rules if r.family == "VG3sq")
        broken = RuleSet([r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4)
        not_closed = RuleSet([r for r in v45.rules if r is not square], degree_bound=5)
        return [
            check_groebner(broken, 6, multilinear=True, generators=gen_multilinear_syzygies(4)).ok,
            check_groebner(not_closed, 5, generators=gen_vector_syzygies(4)).ok,
        ]

    assert verdicts() == [False, False]
    # Fresh rule sets, so no memo entry of the first strategy is read.
    monkeypatch.setattr("quatpoly.rewrite._first_match", _canonical_order_match)
    assert verdicts() == [False, False]


def _assert_canonical(p):
    """int iff integral, Fraction only with a denominator above 1, and a
    Scalar only while it holds a symbol; stored as int numerators over one
    denominator in lowest terms."""
    helpers.assert_stored_canonical(p)
    for c in p.terms.values():
        if type(c) is Fraction:
            assert c.denominator > 1, p
        elif type(c) is Scalar:
            assert any(c.terms), p
        else:
            assert type(c) is int, p


def _mixed_poly(rng, n, degree):
    """A random polynomial whose coefficients are ints, Fractions and
    Scalars, some of them sharing a symbol monomial."""
    def rational():
        return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 6))))

    terms = {}
    for _ in range(rng.randint(1, 6)):
        word = helpers.random_word(rng, n, degree)
        kind = rng.randrange(3)
        if kind == 2:
            c = Scalar({tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2))): rational()
                        for _ in range(rng.randint(1, 3))})
        else:
            c = rng.randint(-4, 4) if kind == 0 else rational()
        terms[word] = terms.get(word, 0) + c
    return Polynomial(terms)


def _typed_terms(p):
    """The terms of ``p`` in order with their coefficient types, down to
    the terms of a Scalar coefficient."""
    return [
        (w, type(c), [(m, type(q), q) for m, q in c.terms.items()] if type(c) is Scalar else c)
        for w, c in p.terms.items()
    ]


def test_coefficients_take_one_canonical_form(base_v45):
    rng = random.Random(41)
    frac = _fractional_completion()
    cases = [(helpers.random_poly(rng), base_v45) for _ in range(40)]
    cases += [(helpers.random_poly(rng, n=3, max_degree=6), frac) for _ in range(40)]
    cases.append((Polynomial({(3, 2, 1): Scalar.symbol(1), (2, 2, 1): 2}), base_v45))
    outputs = [r.rhs for r in frac.rules]
    for p, base in cases:
        # bracket scales by 1/2, so an even coefficient gives an integral Fraction.
        outputs += [normalize(p, base), reduce_once(p, base)[0], bracket(p), bracket(p.scale(2))]
    for text in (
        "(s1 + 1)*v3*v2*v1 - s1*v3*v2*v1",
        "1/2*v1 + 3/2*v1 - 4/2",
        "S(s1*v1*v2) + A(2*v1*v2)",
        "q1*q1' + 1/2*q2*q1 - 1/2*q1*q2",
        "S(q1*q2') - A(q2)*q1",
    ):
        mode, value = parse_expression(text)
        outputs.append(value)
        if mode == "q":
            outputs.append(split(value))
    for out in outputs:
        _assert_canonical(out)
    # normalize on int, Fraction and Scalar coefficients mixed in one input
    # is the reduce_once fixed point, coefficient types included, against a
    # closed family, one missing a rule and a set with fractional tails.
    square = next(r for r in base_v45.rules if r.family == "VG3sq")
    not_closed = RuleSet([r for r in base_v45.rules if r is not square], degree_bound=5)
    assert base_v45._top and not not_closed._top
    for base, n, degree in ((base_v45, 5, 5), (not_closed, 5, 5), (frac, 3, 6)):
        for _ in range(40):
            p = _mixed_poly(rng, n, degree)
            out = normalize(p, base)
            assert _typed_terms(out) == _typed_terms(_reduce_once_fixed_point(p, base)), p
            _assert_canonical(out)
    # A Scalar that loses its symbol prints as its number.
    _, value = parse_expression("(s1 + 1)*v3*v2*v1 - s1*v3*v2*v1")
    assert value.terms == {(3, 2, 1): 1} and str(value) == "v3*v2*v1"
    two = Polynomial({(2, 1): Fraction(4, 2)})
    assert two == Polynomial({(2, 1): 2}) and str(two) == str(Polynomial({(2, 1): 2})) == "2*v2*v1"
    assert type(two.terms[(2, 1)]) is int
    assert Polynomial({(1,): Scalar.symbol(1) - Scalar.symbol(1) + 3}).terms == {(1,): 3}


def test_letters_above_255():
    relabel = {1: 1, 2: 2, 3: 300}

    def move(p):
        return Polynomial({tuple(relabel[x] for x in u): c for u, c in p.terms.items()})

    small = gb_vector(3, 4)
    big = RuleSet(
        [
            RewriteRule(
                tuple(relabel[x] for x in r.lead), move(r.rhs), r.family, r.indices, r.variant
            )
            for r in small.rules
        ],
        degree_bound=4,
    )
    assert move(normalize(w(3, 2, 1), small)) == normalize(w(300, 2, 1), big)
    assert not is_normal_factorfree((300, 2, 1), big)
    rng = random.Random(47)
    for _ in range(50):
        p = helpers.random_poly(rng, n=3, max_degree=4)
        assert normalize(move(p), big) == move(normalize(p, small))


def test_rule_set_rejects_duplicate_and_contained_leads():
    short = RewriteRule((2, 1), w(1, 2))
    with pytest.raises(ValueError):
        RuleSet([short, RewriteRule((2, 1), w(1, 2).scale(2))])
    for lead, rhs in (
        ((2, 1, 3), w(1, 2, 3)),
        ((3, 2, 1), w(1, 2, 3)),
        ((3, 2, 1, 3), w(1, 2, 3, 3)),
    ):
        with pytest.raises(ValueError):
            RuleSet([RewriteRule(lead, rhs), short])


def test_complete_rejects_generators_above_the_degree_bound():
    gens = [g.element for g in gen_vector_syzygies(3)]
    with pytest.raises(ValueError, match="exceeds the degree bound 2"):
        complete(gens, 2)
    with pytest.raises(ValueError):
        complete([w(2, 1, 1) - w(1, 1, 2), w(2, 2, 1, 1) - w(1, 1, 2, 2)], 3)
    assert len(complete(gens, 3)) == len(gb_vector(3, 3))


# Reference semantics for the residues: the S-polynomial as the difference
# of two products, normalized by the public normalize.


def _product_s_polynomial(base, ob):
    ra = base.rules[ob.rule_a]
    rb = base.rules[ob.rule_b]
    u = ob.word
    pa = (
        Polynomial.from_word(u[: ob.offset_a])
        * ra.rhs
        * Polynomial.from_word(u[ob.offset_a + len(ra.lead) :])
    )
    pb = (
        Polynomial.from_word(u[: ob.offset_b])
        * rb.rhs
        * Polynomial.from_word(u[ob.offset_b + len(rb.lead) :])
    )
    return pa - pb


def _raw_generator_rules(n):
    # Monic generators as rules, the first generator of each lead kept.
    rules = {}
    for g in gen_vector_syzygies(n):
        p = _monic(g.element)
        lead = p.leading_word()
        rules.setdefault(lead, RewriteRule(lead, Polynomial.from_word(lead) - p))
    return RuleSet(rules.values())


def test_residues_match_normalized_product_s_polynomials(base_m4):
    broken = RuleSet([r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4)
    # (rule set, degree bound, multilinear, obstructions, nonzero residues)
    cases = [
        (gb_vector(5, 6), 6, False, 395, 0),
        (gb_multilinear(5), 6, True, None, 0),
        (broken, 4, True, 2, 0),
        # Not confluent: how many residues are nonzero depends on the
        # rewrite strategy, but some are.
        (_raw_generator_rules(3), 5, False, 13, 1),
        (_fractional_completion(), 6, False, None, 0),
    ]
    for base, bound, multilinear, count, nonzero in cases:
        obs = overlaps(base, bound)
        if multilinear:
            obs = [ob for ob in obs if len(set(ob.word)) == len(ob.word)]
        assert obs and count in (None, len(obs)), base
        found = 0
        for ob in obs:
            product = _product_s_polynomial(base, ob)
            assert s_polynomial(base, ob) == product, ob
            residue = normalize(product, base)
            found += bool(residue)
        assert found == nonzero, base
        report = check_groebner(base, bound, multilinear=multilinear)
        assert report.obstructions_checked == len(obs)
        assert [r for _, r in report.residues] == [
            normalize(_product_s_polynomial(base, ob), base) for ob, _ in report.residues
        ]
        assert len(report.residues) == nonzero


def test_first_step_runs_once_per_memo_entry(monkeypatch):
    base = gb_vector(5, 6)
    memo = base._nf_cache
    calls = []

    def counted(b, word):
        calls.append(word)
        return _first_match(b, word)

    # Inside normalize, each memo miss takes exactly one match and one
    # rewrite step.
    monkeypatch.setattr("quatpoly.rewrite._first_match", counted)
    assert check_groebner(base, 6).ok
    # Each block has a memo of its own, and no word is rewritten twice;
    # every overlap word on letters 1..k is one of them.
    assert len(calls) == len(set(calls)) == 2246
    words = {ob.word for ob in overlaps(base, 6)}
    assert {u for u in words if set(u) == set(range(1, len(set(u)) + 1))} <= set(calls)
    # The set is closed, so every memo entry is a letter pattern on 1..k.
    assert base._top == 5
    for word in calls:
        assert set(word) == set(range(1, len(set(word)) + 1)), word
    # The blocks' memos are copies; the set's own memo is left as found.
    assert base._nf_cache is memo and memo == {}

    # A caller's normalize fills the set's own memo, one step per entry,
    # on a closed family, a set that is not closed and fractional tails.
    rng = random.Random(885)
    broken = RuleSet([r for r in gb_multilinear(4).rules if r.lead != (3, 2, 4, 1)], degree_bound=4)
    cases = [
        (gb_multilinear(7), [w(7, 6, 5, 4, 3, 2, 1)]),
        (broken, [helpers.random_poly(rng, n=4, max_degree=4) for _ in range(30)]),
        (_fractional_completion(), [helpers.random_poly(rng, n=3, max_degree=6) for _ in range(30)]),
    ]
    for base, inputs in cases:
        calls.clear()
        size = len(base._nf_cache)
        for p in inputs:
            normalize(p, base)
            assert len(calls) == len(set(calls)) == len(base._nf_cache) - size, p
        assert calls


def test_check_groebner_normalizes_each_generator_class_once(monkeypatch):
    import quatpoly.rewrite as rewrite

    real = rewrite.normalize
    calls = []

    def counted(p, b):
        calls.append(p)
        return real(p, b)

    monkeypatch.setattr(rewrite, "normalize", counted)
    gens = gen_vector_syzygies(4)
    random.Random(5).shuffle(gens)
    # One call per obstruction, and one per relabeling class of the 60
    # generators: 2 for V2, 3 for V3, whose V3(i, j, k) equals V3(j, i, k),
    # and 12 for V4 on 1..4, whose V4(i, j, k, l) is -V4(k, j, i, l): a
    # generator and its negative share a class.
    closed = gb_vector(4, 5)
    report = check_groebner(closed, 5, generators=gens)
    assert report.ok and closed._top == 4
    assert (report.obstructions_checked, len(calls)) == (83, 83 + 17)
    # The set is closed, so obstruction residues and class keys reach
    # normalize relabeled onto letters 1..k.
    assert all(set(u) == set(range(1, len(set(u)) + 1)) for p in calls for u in p._data)
    # Not closed, N = 0: only copies and negatives share a key, 12 V2,
    # 12 V3 and 12 V4.
    calls.clear()
    square = next(r for r in closed.rules if r.family == "VG3sq")
    not_closed = RuleSet([r for r in closed.rules if r is not square], degree_bound=5)
    report = check_groebner(not_closed, 5, generators=gens)
    assert not_closed._top == 0 and report.generator_residues
    assert (report.obstructions_checked, len(calls)) == (73, 73 + 36)


def test_check_groebner_keeps_a_memo_for_one_block_only(monkeypatch):
    import quatpoly.rewrite as rewrite

    base = gb_vector(5, 6)
    real = rewrite.normalize
    seen = []

    def recording(p, b):
        out = real(p, b)
        seen.append((b, len(b._nf_cache)))
        return out

    monkeypatch.setattr(rewrite, "normalize", recording)
    assert check_groebner(base, 6).ok
    monkeypatch.undo()
    assert len(seen) == 395 and all(b is not base for b, _ in seen)
    # One memo for the whole check would end with 2,246 entries.
    assert max(size for _, size in seen) == 247
    # A caller's warm memo is neither read nor changed.
    rng = random.Random(17)
    for _ in range(20):
        normalize(helpers.random_poly(rng, n=5, max_degree=6), base)
    memo = base._nf_cache
    warm = dict(memo)
    assert warm
    assert check_groebner(base, 6, generators=gen_vector_syzygies(5)).ok
    assert base._nf_cache is memo and memo == warm
    assert all(memo[word] is nf for word, nf in warm.items())


def test_threads_filling_one_memo_give_each_normal_word_one_id():
    # A slow id table widens the window between looking a normal word up
    # and handing out its id; the memo's lock must still keep one id per
    # word, or two threads' entries would name one word twice.
    class SlowIds(list):
        def __len__(self):
            time.sleep(0.0002)  # invites a thread switch while an id is handed out
            return super().__len__()

    rules = gb_vector(4, 5).rules
    rng = random.Random(61)
    polys = [helpers.random_poly(rng, n=4, max_degree=5) for _ in range(40)]
    want = [normalize(p, RuleSet(rules, degree_bound=5)) for p in polys]
    shared = RuleSet(rules, degree_bound=5)
    shared._nf_cache.words = ids = SlowIds()
    got = [[None] * len(polys) for _ in range(4)]

    def fill(k):
        for i in random.Random(k).sample(range(len(polys)), len(polys)):
            got[k][i] = normalize(polys[i], shared)

    threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4
    assert len(set(ids)) == len(list(ids))


def _flat_report(base, bound, multilinear, generators):
    # Each obstruction and generator normalized against a fresh copy of
    # the set, in order.
    if base.degree_bound is not None:
        bound = min(bound, base.degree_bound)

    def fresh():
        return RuleSet(base.rules, degree_bound=base.degree_bound)

    obs = overlaps(base, bound)
    if multilinear:
        obs = [ob for ob in obs if len(set(ob.word)) == len(ob.word)]
    residues = [(ob, normalize(s_polynomial(base, ob), fresh())) for ob in obs]
    gens = [g if isinstance(g, Polynomial) else g.element for g in generators]
    gen_residues = [normalize(p, fresh()) for p in gens if p and p.degree() <= bound]
    return (
        tuple((ob, r) for ob, r in residues if r),
        len(obs),
        bound,
        tuple(r for r in gen_residues if r),
    )


def _symbolic_tail_rules():
    # Tails with symbols and fractions, closed on no alphabet: the overlap
    # words v1*v2*v1*v1, v2*v1*v1*v2*v1 and v1*v2*v1*v2*v1 leave residues.
    s1, s2 = Scalar.symbol(1), Scalar.symbol(2)
    return RuleSet(
        [
            RewriteRule((2, 1, 1), s1 * w(1, 2, 1)),
            RewriteRule((1, 2, 1), (s2 + Fraction(1, 2)) * w(1, 1, 2)),
            RewriteRule((3, 2), (s1 + Fraction(1, 3)) * w(2, 3)),
        ],
        degree_bound=6,
    )


def test_blockwise_check_reports_what_a_flat_loop_reports(base_m4):
    broken = RuleSet([r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4)
    control = gen_multilinear_syzygies(4)
    random.Random(8).shuffle(control)
    # One whole relabeling class dropped keeps gb_vector(4, 6) closed, so
    # its residues lie on relabeled blocks too.
    v46 = gb_vector(4, 6)
    (members,) = [m for m in _relabeling_classes(v46) if (3, 2, 3, 1) in {r.lead for r in m}]
    unresolved = RuleSet([r for r in v46.rules if r not in members], degree_bound=6)
    assert unresolved._top == 4
    rng = random.Random(23)
    # Inhomogeneous extras, some above the bound and some on letters
    # outside the closed alphabet, leave generator residues in a known order.
    extras = [helpers.random_poly(rng, n=4, max_degree=5) for _ in range(12)]
    # check_groebner normalizes one key per relabeling class of generators
    # whose words share a letter set and whose numerators are ints, and
    # any other generator as it is.  Copies of one generator, its pattern
    # on other letters, inside and outside 1..4, words on two letter sets,
    # fractional coefficients and a scalar symbol all report as a flat
    # loop does, position by position.
    s1 = Scalar.symbol(1)
    pattern = w(3, 2, 1) - 2 * w(1, 3, 2) + w(1, 2, 3)
    extras += [
        pattern,
        pattern,
        w(4, 3, 2) - 2 * w(2, 4, 3) + w(2, 3, 4),
        w(4, 2, 1) - 2 * w(1, 4, 2) + w(1, 2, 4),
        w(5, 3, 1) - 2 * w(1, 5, 3) + w(1, 3, 5),
        w(3, 2, 1) + w(4, 2, 1, 1) - w(2, 2, 4),
        w(3, 2, 1) + w(4, 2, 1, 1) - w(2, 2, 4),
        Fraction(1, 3) * w(3, 2, 1) - Fraction(1, 2) * w(2, 3, 1),
        Fraction(1, 3) * w(4, 3, 2) - Fraction(1, 2) * w(3, 4, 2),
        Fraction(2, 3) * w(4, 3, 2) - w(3, 4, 2),
        s1 * w(3, 2, 1) + w(1, 2, 3),
        s1 * w(3, 2, 1) + w(1, 2, 3),
        s1 * w(4, 3, 2) + w(2, 3, 4),
    ]
    # (rule set, degree bound, multilinear, generators, obstructions,
    # overlap residues)
    cases = [
        (_raw_generator_rules(3), 5, False, gen_vector_syzygies(3) + extras, 13, 1),
        (broken, 6, True, control + extras, None, 0),
        (_fractional_completion(), 6, False, extras, None, 0),
        (unresolved, 6, False, extras, 76, 16),
        (_symbolic_tail_rules(), 6, False, extras, 4, 4),
    ]
    reports = []
    for base, bound, multilinear, gens, count, nonzero in cases:
        report = check_groebner(base, bound, multilinear=multilinear, generators=gens)
        reports.append(report)
        residues, checked, max_degree, gen_residues = _flat_report(
            base, bound, multilinear, gens
        )
        assert count in (None, checked) and len(residues) == nonzero, base
        assert report.residues == residues, base
        assert report.generator_residues == gen_residues, base
        assert (report.obstructions_checked, report.max_degree) == (checked, max_degree)
        assert len(gen_residues) >= 5, base
        assert base._nf_cache == {}
    # The negative control still names the dropped rule's lead.
    assert (3, 2, 4, 1) in {p.leading_word() for p in reports[1].generator_residues}
    # Residues on words off letters 1..k came from relabeled blocks.
    assert any(not _stays(sorted(set(ob.word)), 4) for ob, _ in reports[3].residues)


def test_relabeled_normalize_equals_the_memo_free_fixed_point(base_m4):
    v45 = gb_vector(4, 5)
    square = next(r for r in v45.rules if r.family == "VG3sq")
    # (rule set, letters drawn from 1..n, degree bound); n above the
    # largest lead letter puts inert letters in some blocks.
    cases = [
        (gb_vector(6, 6), 7, 6),
        (gb_multilinear(5), 6, 5),
        (RuleSet([r for r in base_m4.rules if r.lead != (3, 2, 4, 1)], degree_bound=4), 5, 4),
        (complete([g.element for g in gen_vector_syzygies(3)], 5), 4, 5),
        (RuleSet([r for r in v45.rules if r is not square], degree_bound=5), 5, 5),
    ]
    assert [base._top for base, _, _ in cases] == [6, 5, 4, 3, 0]
    rng = random.Random(2718)
    for base, n, degree in cases:
        for _ in range(100):
            p = helpers.random_poly(rng, n=n, max_degree=degree, max_terms=8)
            assert normalize(p, base) == _reduce_once_fixed_point(p, base), (base, p)


def test_letters_above_a_closed_alphabet_stay_inert():
    base = gb_vector(6, 7)
    assert base._top == 6
    # Relabeled onto 1..3 each would be the reducible v3*v2*v1.
    for word in ((7, 2, 1), (2, 1, 0), (2, 1, -1)):
        assert normalize(w(*word), base) == w(*word)
    assert normalize(w(6, 2, 1), base) == _reduce_once_fixed_point(w(6, 2, 1), base) != w(6, 2, 1)


def test_closure_check():
    def commutations(pairs, **kw):
        return RuleSet(RewriteRule((j, i), w(i, j), **kw) for i, j in pairs)

    pairs = list(itertools.combinations(range(1, 4), 2))
    assert commutations(pairs)._top == 3
    assert commutations(pairs[1:])._top == 0
    # Three pairs, as on 1..3, but one of them off the alphabet.
    assert commutations([(0, 3), (1, 2), (1, 3)])._top == 0
    # Family, indices and variant do not choose the rewrite step, so they
    # do not enter the closure check.
    labeled = commutations(pairs, family="C", indices=(1,))
    assert labeled._top == 3
    rng = random.Random(5)
    for _ in range(30):
        p = helpers.random_poly(rng, n=4, max_degree=4)
        assert normalize(p, labeled) == _reduce_once_fixed_point(p, labeled), p
    scalar_tail = RewriteRule((2, 1), Polynomial({(1, 2): Scalar.symbol(1)}))
    assert RuleSet([scalar_tail])._top == 0
    assert RuleSet()._top == 0
    # Tails with one numerator and different denominators are different
    # patterns.
    halves = [RewriteRule((j, i), w(i, j).scale(Fraction(1, 2))) for i, j in pairs]
    assert RuleSet(halves)._top == 3
    halves[1] = RewriteRule((3, 1), w(1, 3).scale(Fraction(1, 3)))
    assert halves[1].rhs._data == {(1, 3): 1} and RuleSet(halves)._top == 0

    # The definition, by brute force: N, the largest letter, if every
    # block on a letter set T has its pattern on every |T|-subset of 1..N.
    def brute_top(blocks):
        if any(type(c) not in (int, Fraction) for b in blocks for _, c in b):
            return 0
        present = set()
        for b in blocks:
            letters = sorted(set(b[0][0]))
            pattern = frozenset((tuple(letters.index(x) + 1 for x in u), c) for u, c in b)
            present.add((tuple(letters), pattern))
        if any(x < 1 for letters, _ in present for x in letters):
            return 0
        top = max((x for letters, _ in present for x in letters), default=0)
        closed = all(
            (subset, pattern) in present
            for letters, pattern in present
            for subset in itertools.combinations(range(1, top + 1), len(letters))
        )
        return top if closed else 0

    def blocks_of(rules):
        return [((r.lead, 1), *r.rhs._items()) for r in rules]

    def descending(blocks):
        return [tuple(sorted(b, key=lambda t: word_key(t[0]), reverse=True)) for b in blocks]

    rng = random.Random(29)

    def shuffled(blocks):
        return rng.sample([tuple(rng.sample(b, len(b))) for b in blocks], len(blocks))

    cases = []  # (blocks, expected N)
    for base in (gb_vector(3, 5), gb_vector(4, 6), gb_vector(5, 5), gb_multilinear(5)):
        rules, top = base.rules, max(map(max, base.leads()))
        big = max(_relabeling_classes(base), key=len)
        assert len(big) > 1
        cases += [
            (blocks_of(rules), top),
            (blocks_of([r for r in rules if r is not big[0]]), 0),
            (blocks_of([r for r in rules if all(r is not m for m in big)]), top),
        ]
    base = gb_vector(3, 5)
    blocks = blocks_of(base.rules)
    # A scaled copy of a rule whose class has more than one member.
    rule = next(c for c in _relabeling_classes(base) if len(c) > 1)[0]
    scaled = tuple((u, 2 * c) for u, c in blocks_of([rule])[0])
    cases += [
        # Copies, reordered once shuffled.
        (blocks + [b[::-1] for b in blocks[::3]], 3),
        (blocks + [scaled], 0),
        (blocks + [(((1, 0), 1), ((0, 1), -1))], 0),
        ([(((2, 1), 1), ((1, 2), Scalar.symbol(1)))], 0),
        ([(((2, 1), 1), ((1, 2), -1))], 2),
        ([], 0),
        ([(((), 1),)], 0),
        (blocks + [(((), 1),)], 3),
    ]
    for blocks, top in cases:
        for ordered in (descending(blocks), shuffled(blocks)):
            # Literal copies of a block count once.
            for listed in (ordered, ordered + ordered[::4]):
                assert _full_top(_class_sizes(listed)) == brute_top(listed) == top, listed


def test_a_raw_multiset_and_a_letter_pattern_get_memos_of_their_own(monkeypatch):
    import quatpoly.rewrite as rewrite

    base = gb_vector(3, 5)
    assert base._top == 3
    # Letter 4 lies above 1..3, so v4*v1 keeps its multiset (1, 4), which
    # is also the letter count of (2, 3, 3, 3, 3) in ascending order.
    polys = [w(4, 1) - w(1, 4), w(3, 3, 3, 3, 2) - w(2, 3, 3, 3, 3)]
    real = rewrite.normalize
    seen = []

    def recording(p, b):
        seen.append(b)  # the set itself: an id can be reused once it is freed
        return real(p, b)

    monkeypatch.setattr(rewrite, "normalize", recording)
    found = dict(rewrite._normalize_by_block(base, (), polys))
    monkeypatch.undo()
    assert len(seen) == 2 and seen[0] is not seen[1]
    assert found == {i: normalize(p, base) for i, p in enumerate(polys) if normalize(p, base)}


def test_the_v_engine_refuses_q_polynomials():
    from quatpoly.qvars import QPolynomial
    from quatpoly.syzygy import _normal_form, gen_quaternion_syzygies

    q = QPolynomial.variable(1) * QPolynomial.variable(2)
    base = gb_vector(2, 3)
    # Read as v-words, q1*q2 would pass for the normal word v1*v2.
    for call in (normalize, reduce_once):
        with pytest.raises(TypeError, match="QPolynomial"):
            call(q, base)
    with pytest.raises(TypeError, match="QPolynomial"):
        complete([q], 2)
    with pytest.raises(TypeError, match="QPolynomial"):
        check_groebner(base, 3, generators=[q])
    with pytest.raises(TypeError, match="QPolynomial"):
        check_groebner(base, 3, generators=gen_quaternion_syzygies(2))
    with pytest.raises(TypeError, match="int"):
        normalize(3, base)
    # Read as v-words, q1*q2' would pass for the word v1*v-2.
    with pytest.raises(TypeError, match="QPolynomial"):
        _normal_form(QPolynomial.variable(1) * QPolynomial.variable(2, barred=True))
