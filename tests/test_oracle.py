import itertools
import random
from fractions import Fraction

import pytest

import helpers
from quatpoly import oracle
from quatpoly.freealg import Polynomial, Scalar, bracket, bracket3, cross, vector_part
from quatpoly.oracle import (
    Assignment,
    I,
    J,
    K,
    ONE,
    Quaternion,
    _rank_int,
    dimension_check,
    evaluate,
    identity_corpus,
    random_assignment,
    zero_test,
)
from quatpoly.syzygy import (
    gb_multilinear,
    gb_vector,
    gen_multilinear_syzygies,
    gen_vector_syzygies,
)


def w(*letters):
    return Polynomial.from_word(letters)


def basis_assignment():
    return Assignment({1: I, 2: J, 3: K}, {})


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert I * I == Quaternion(-1)
    assert ONE * J == J
    assert (K * J) * I == ONE  # kji = 1


def test_conjugation_antihomomorphism():
    rng = random.Random(5)
    for _ in range(100):
        x = Quaternion(*(rng.randint(-5, 5) for _ in range(4)))
        y = Quaternion(*(rng.randint(-5, 5) for _ in range(4)))
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()
        assert x.conjugate().conjugate() == x


def test_assignment_requires_pure_imaginary():
    with pytest.raises(ValueError):
        Assignment({1: Quaternion(1, 1, 0, 0)}, {})


def test_evaluate_examples():
    a = basis_assignment()
    assert evaluate(bracket(w(1, 2, 3)), a) == Quaternion(-1)
    assert evaluate(w(1, 1) + Polynomial.one(), Assignment({1: I}, {})) == Quaternion(0)
    shift = bracket(w(1, 2, 3)) - bracket(w(3, 1, 2))
    assert evaluate(shift, a) == Quaternion(0)
    with pytest.raises(ValueError):
        evaluate(w(1, 2), Assignment({1: I}, {}))


def test_evaluate_is_homomorphism():
    rng = random.Random(9)
    for trial in range(50):
        a = random_assignment(4, trial)
        p = helpers.random_poly(rng, n=4, max_degree=3, max_terms=3)
        q = helpers.random_poly(rng, n=4, max_degree=3, max_terms=3)
        assert evaluate(p * q, a) == evaluate(p, a) * evaluate(q, a)
        assert evaluate(p + q, a) == evaluate(p, a) + evaluate(q, a)


def test_evaluate_scalar_symbols():
    p = Polynomial({(1,): Scalar.symbol(2)})
    a = Assignment({1: I}, {2: Fraction(3)})
    assert evaluate(p, a) == Quaternion(0, 3, 0, 0)
    with pytest.raises(ValueError, match="^unassigned scalar symbol s2$"):
        evaluate(p, Assignment({1: I}, {}))
    with pytest.raises(ValueError, match="^unassigned scalar symbol s2$"):
        evaluate(p, Assignment({1: I}, {1: Fraction(3)}))


def test_reversion_conjugation_compatibility():
    rng = random.Random(13)
    for _ in range(60):
        word = helpers.random_word(rng, n=3, max_degree=6)
        p = Polynomial.from_word(word)
        for seed in range(3):
            a = random_assignment(3, seed)
            lhs = evaluate(p.reversion(), a)
            sign = 1 if len(word) % 2 == 0 else -1
            assert lhs == evaluate(p, a).conjugate() * sign


def test_bracket_parts_land_in_real_and_imaginary():
    rng = random.Random(21)
    for _ in range(40):
        word = helpers.random_word(rng, n=3, max_degree=6)
        for seed in range(5):
            a = random_assignment(3, seed)
            assert evaluate(bracket(w(*word)), a).is_real()
            assert evaluate(vector_part(w(*word)), a).is_pure_imaginary()


def test_iota_value_at_standard_basis():
    v1, v2, v3 = (Polynomial.variable(i) for i in (1, 2, 3))
    assert evaluate(bracket3(v1, v2, v3), basis_assignment()) == Quaternion(-1)


def test_random_assignment_deterministic():
    a = random_assignment(3, 42)
    b = random_assignment(3, 42)
    assert a.vectors == b.vectors and a.scalars == b.scalars
    assert len({str(random_assignment(3, s)) for s in range(100)}) > 90
    for q in a.vectors.values():
        assert q.is_pure_imaginary() and bool(q)


def test_zero_test_examples():
    v2_instance = w(1, 1, 2) - w(2, 1, 1)
    assert zero_test(v2_instance, trials=100, seed=0).passed
    commutator = w(1, 2) - w(2, 1)
    res = zero_test(commutator, trials=100, seed=0)
    assert not res.passed
    assert res.value == evaluate(commutator, res.witness)
    assert bool(res.value)
    assert evaluate(commutator, basis_assignment()) == Quaternion(0, 0, 0, 2)  # 2k at i, j
    v1, v2 = Polynomial.variable(1), Polynomial.variable(2)
    n2 = bracket3(cross(v1, v2), v1, v2) - (
        w(1, 2, 1, 2) + w(2, 1, 2, 1) - w(1, 1, 2, 2) * 2
    ) * Fraction(1, 4)
    assert zero_test(n2, trials=100, seed=0).passed


def test_zero_test_trial_guard():
    with pytest.raises(ValueError):
        zero_test(w(1), trials=0)


def test_dimension_check_small_cases():
    rep = dimension_check(2, 3, gen_vector_syzygies(2), gb_vector(2, 3))
    assert rep.total_words == 8 and rep.rank == 2 and rep.normal_by_rank == 6
    assert rep.ok
    rep = dimension_check(
        3, 3, gen_multilinear_syzygies(3), gb_multilinear(3), multiset=(1, 2, 3)
    )
    assert rep.total_words == 6 and rep.rank == 2 and rep.normal_by_rank == 4
    assert rep.ok
    rep = dimension_check(3, 4, gen_vector_syzygies(3), gb_vector(3, 4))
    assert rep.ok


def test_dimension_check_wider_points():
    for n, d in ((2, 5), (2, 6), (3, 5), (4, 3), (4, 4)):
        rep = dimension_check(n, d, gen_vector_syzygies(n), gb_vector(n, max(3, d)))
        assert rep.ok, (n, d)
    rep = dimension_check(
        5, 5, gen_multilinear_syzygies(5), gb_multilinear(5), multiset=(1, 2, 3, 4, 5)
    )
    assert rep.ok and rep.total_words == 120 and rep.normal_by_rank == 21


def test_dimension_check_guard(monkeypatch):
    with pytest.raises(ValueError):
        dimension_check(10, 9, [], gb_vector(2, 3))

    def unbuilt(letters):
        raise AssertionError("words built for a guarded slice")

    # The guard counts the permutation words before building any.
    monkeypatch.setattr(oracle, "_arrangements", unbuilt)
    with pytest.raises(ValueError, match="479001600 permutation words"):
        dimension_check(12, 12, [], gb_vector(2, 3), multiset=tuple(range(1, 13)))


def test_corpus_contents():
    corpus = dict(identity_corpus())
    assert "eq9-line1[1,2,3]" in corpus
    assert "lemma1[1,2,3,4,5,6]" in corpus
    assert "step13[q6]" in corpus
    assert "eq14" in corpus
    step13 = corpus["step13[q6]"]
    assert step13 == w(4, 3, 5) * (
        w(6, 2, 1) - w(1, 2, 6) - w(1, 6, 2) + w(2, 6, 1)
    )
    assert len(corpus) > 300
    for name, p in corpus.items():
        assert p, name  # identically-zero instances are pruned


def test_corpus_random_spot_checks():
    rng = random.Random(3)
    corpus = identity_corpus()
    for name, p in rng.sample(corpus, 25):
        assert zero_test(p, trials=20, seed=7).passed, name


def _fraction_rank(matrix) -> int:
    """Reference rank: Gauss-Jordan elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def _random_matrix(rng, nrows, ncols, density=0.3, bound=5):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]


def _with_dependents(rng, base, extra):
    """Append zero rows, duplicates, scaled copies and integer linear
    combinations of the rows of ``base``, then shuffle."""
    rows = [list(r) for r in base]
    ncols = len(rows[0])
    for _ in range(extra):
        kind = rng.randrange(4)
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1:
            rows.append(list(rng.choice(base)))
        elif kind == 2:
            k = rng.choice((-7, -2, 3, 10**12))
            rows.append([k * x for x in rng.choice(base)])
        else:
            a, b = rng.choice(base), rng.choice(base)
            s, t = rng.randint(-9, 9), rng.randint(-9, 9)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def test_rank_int_matches_fraction_elimination():
    rng = random.Random(31)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        base = _random_matrix(rng, nrows, ncols, density=rng.choice((0.2, 0.5, 0.9)))
        matrix = _with_dependents(rng, base, rng.randint(0, 6))
        assert _rank_int(_sparse(matrix)) == _fraction_rank(matrix), (trial, matrix)


def test_rank_int_large_entries_and_blocks():
    rng = random.Random(32)
    for trial in range(40):
        # large entries: coefficient growth must stay exact
        big = _random_matrix(rng, 6, 6, density=0.8, bound=10**25)
        matrix = _with_dependents(rng, big, 4)
        assert _rank_int(_sparse(matrix)) == _fraction_rank(matrix), trial
        # block-diagonal layout: rank is the sum of the block ranks
        blocks = [_random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 0.6) for _ in range(3)]
        blocks = [_with_dependents(rng, b, 2) for b in blocks]
        width = sum(len(b[0]) for b in blocks)
        matrix, offset = [], 0
        for b in blocks:
            for row in b:
                matrix.append([0] * offset + row + [0] * (width - offset - len(row)))
            offset += len(b[0])
        rng.shuffle(matrix)
        expected = sum(_fraction_rank(b) for b in blocks)
        assert _fraction_rank(matrix) == expected
        assert _rank_int(_sparse(matrix)) == expected, trial


def test_rank_int_edge_rows():
    assert _rank_int([]) == 0
    assert _rank_int([{}, {0: 0, 3: 0}]) == 0
    assert _rank_int([{2: 5}, {2: -10}, {2: 5, 4: 1}, {4: 3}]) == 2
    rows = [{0: 2, 1: 4}, {0: 3, 1: 6}]
    assert _rank_int(rows) == 1
    assert rows == [{0: 2, 1: 4}, {0: 3, 1: 6}]  # input rows are not modified


def test_dimension_check_benchmark_ranks(base_v46):
    for n, d, rank in ((3, 5, 174), (2, 8, 231), (4, 4, 141)):
        rep = dimension_check(n, d, gen_vector_syzygies(n), gb_vector(n, max(3, d)))
        assert rep.ok and rep.rank == rank, (n, d)
    rep = dimension_check(
        4, 6, gen_vector_syzygies(4), base_v46, multiset=(1, 1, 2, 2, 3, 4)
    )
    assert rep.ok and rep.total_words == 180 and rep.rank == 162


def test_dimension_check_slices_beyond_dense_reach(base_v36, base_v45):
    cases = (
        (3, 6, base_v36, 119),
        (4, 5, base_v45, 256),
        (3, 7, gb_vector(3, 7), 189),
    )
    for n, d, base, normal in cases:
        rep = dimension_check(n, d, gen_vector_syzygies(n), base)
        assert rep.ok and rep.normal_by_rank == normal, (n, d)


def _draw(a):
    vecs = {i: (q.a, q.b, q.c, q.d) for i, q in a.vectors.items()}
    return vecs, dict(a.scalars)


def test_random_assignment_pinned_draws():
    expected = {
        (1, 0): ({1: (3, 4, -8)}, {1: -1}),
        (3, 42): (
            {1: (-6, -9, -1), 2: (-2, -2, -5), 3: (-6, 8, -7)},
            {1: 9, 2: 4, 3: -8},
        ),
        (6, 7): (
            {1: (1, -5, 3), 2: (-8, -7, 8), 3: (-6, 2, 9), 4: (-8, 7, -3), 5: (-8, -7, 4), 6: (4, -7, -2)},
            {1: -7, 2: 8, 3: 4, 4: -8, 5: 9, 6: -6},
        ),
        (2, 1000): ({1: (4, -6, 3), 2: (2, -7, 5)}, {1: -4, 2: 8}),
    }
    for (n, seed), (vecs, scals) in expected.items():
        got_vecs, got_scals = _draw(random_assignment(n, seed))
        assert got_vecs == {i: (0,) + v for i, v in vecs.items()}, (n, seed)
        assert got_scals == scals, (n, seed)
        assert all(type(x) is Fraction for x in got_scals.values())


def test_random_assignment_returns_fresh_dicts():
    a = random_assignment(3, 42)
    a.vectors[1] = Quaternion(0, 1, 1, 1)
    a.vectors.pop(2)
    a.scalars.clear()
    b = random_assignment(3, 42)
    assert b.vectors[1] == Quaternion(0, -6, -9, -1)
    assert b.vectors[2] == Quaternion(0, -2, -2, -5)
    assert b.scalars == {1: 9, 2: 4, 3: -8}
    res = zero_test(w(1, 2) - w(2, 1), seed=42, n=3)
    assert res.witness_trial == 0 and res.witness == b


def test_zero_test_pinned_witnesses():
    commutator = w(1, 2) - w(2, 1)
    cases = (
        (0, 0, "v1=(0, 3, 4, -8), v2=(0, -1, 7, 6); s1=3, s2=0", Quaternion(0, 160, -20, 50)),
        (3, 0, "v1=(0, -2, 9, 8), v2=(0, -5, 2, 6); s1=9, s2=-7", Quaternion(0, 76, -56, 82)),
    )
    for seed, trial, witness, value in cases:
        res = zero_test(commutator, seed=seed)
        assert not res.passed and res.trials == 100
        assert res.witness_trial == trial
        assert str(res.witness) == witness and res.value == value
        assert res.witness == random_assignment(2, seed + res.witness_trial)
    # (s1 + 1)*v1 vanishes at the first two draws of seed 0, where s1 = -1
    p = Polynomial({(1,): Scalar({(1,): 1, (): 1})})
    res = zero_test(p, seed=0)
    assert res.witness_trial == 2
    assert str(res.witness) == "v1=(0, -8, -7, -7); s1=2"
    assert res.value == Quaternion(0, -24, -21, -21)
    assert res.witness == random_assignment(1, 2)
    assert zero_test(p, seed=1).witness_trial == 1


def _reference_zero_test(p, trials, seed):
    """The first trial whose assignment gives ``p`` a nonzero value, as
    ``(trial, assignment, value)``, or ``None``."""
    n = max(p.variables() | p.scalar_symbols(), default=0)
    for t in range(trials):
        a = random_assignment(n, seed + t)
        value = evaluate(p, a)
        if value:
            return t, a, value
    return None


def test_symbolic_zero_test_matches_the_reference_loop():
    # zero_test evaluates integer draws scaled by a common denominator;
    # the reference evaluates each seeded assignment exactly.
    rng = random.Random(37)
    identity = w(1, 1, 2) - w(2, 1, 1)
    outcomes = set()
    for case in range(120):
        p = helpers.random_scalar_poly(rng)
        if case % 4 == 1:
            # Roots at several draws of one symbol push the witness later.
            j = Scalar.symbol(rng.randint(1, 3))
            for k in rng.sample(range(-9, 10), rng.randint(8, 16)):
                p = p * (j - k)
        elif case % 4 == 2:
            p = p * identity
        elif case % 4 == 3:
            # Values below 1 in size: only exact scaling keeps them nonzero.
            p = p * Fraction(1, 97)
        seed = rng.randint(0, 50)
        res = zero_test(p, trials=12, seed=seed)
        ref = _reference_zero_test(p, 12, seed)
        assert res.passed == (ref is None), p
        if ref is not None:
            assert (res.witness_trial, res.witness, res.value) == ref, p
        outcomes.add("pass" if ref is None else "first" if ref[0] == 0 else "later")
    assert outcomes == {"pass", "first", "later"}


def test_zero_test_rejects_letters_beyond_n():
    with pytest.raises(ValueError):
        zero_test(w(1, 3), n=2)
    with pytest.raises(ValueError):
        zero_test(Polynomial({(1,): Scalar.symbol(4)}), n=3)
    assert zero_test(w(1, 1, 2) - w(2, 1, 1), n=4).passed


def test_zero_test_rejects_letters_below_one():
    # No draw exists for these letters; read as tuple indices they would
    # alias letter n, and w(0) - w(3) would pass as an identity.
    with pytest.raises(ValueError, match="below 1"):
        zero_test(w(0) - w(3), n=3)
    with pytest.raises(ValueError, match="below 1"):
        zero_test(w(1, -1))


def test_dimension_check_is_the_sum_of_its_multiset_blocks():
    for n, d in ((3, 5), (2, 6), (4, 4)):
        gens, base = gen_vector_syzygies(n), gb_vector(n, max(3, d))
        whole = dimension_check(n, d, gens, base)
        parts = [
            dimension_check(n, d, gens, base, multiset=ms)
            for ms in itertools.combinations_with_replacement(range(1, n + 1), d)
        ]
        for field_name in ("total_words", "rank", "normal_factorfree", "normal_structural"):
            assert getattr(whole, field_name) == sum(getattr(r, field_name) for r in parts), (
                n, d, field_name,
            )
        assert whole.total_words == n**d and all(r.ok for r in parts)


def test_dimension_check_rejects_inhomogeneous_generators():
    base = gb_vector(2, 3)
    for multiset in (None, (1, 1, 2)):
        with pytest.raises(ValueError, match="multiset-homogeneous"):
            dimension_check(2, 3, [w(1, 1, 2) - w(1)], base, multiset=multiset)
