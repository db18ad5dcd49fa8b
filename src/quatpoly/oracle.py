"""Independent semantic verification: exact quaternion arithmetic, the
evaluation homomorphism, randomized zero testing, a graded rank oracle for
counting normal words, and the corpus of algebraic identities that every
claimed rule family must annihilate.

Zero testing is probabilistic evidence; reduction to the zero normal form
is the syntactic certificate.  The two routes are kept independent so each
can catch the other out.

Letters are multiplied as quaternions in one place, in two steps.
``_compile`` turns a polynomial's words, once, into a plan: the words cut
into letter pairs, a prefix trie over each word's pieces but the last, and
the words grouped by their last piece.  ``_evaluate_int`` runs the plan at
one assignment: one product per distinct piece, read from a table of piece
values when it holds them, one per trie node, and one per group, whose
coefficient-weighted prefix sum it multiplies by the group's last piece.
A zero test's table is ``_piece_table(seed)``, shared by every polynomial
tested at that seed, since a letter's draw depends on the seed alone.
Scalar symbols are set in one place
too: ``_prepare`` reads the int rows of ``Polynomial._by_monomial``, one
per symbol monomial, and ``_draw_coefficients`` multiplies them out at
given symbol values.  ``evaluate`` runs both once at an assignment's
rational values and divides by the common denominator; ``zero_test``
prepares once, runs them at each trial's cached integer draws and
reports a failing trial's own value.  ``dimension_check`` builds its
rows block by block, one block per letter multiset of the slice.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, gcd

from .freealg import (
    Polynomial,
    bracket,
    bracket3,
    commutator,
    cross,
    even,
    inner,
    vector_part,
)
from .rewrite import (
    RuleSet,
    _check_input,
    _Frozen,
    generator_polys,
    is_normal_factorfree,
    is_normal_structural,
)


class Quaternion:
    """Exact quaternion a + b*i + c*j + d*k over the rationals."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.c = Fraction(c)
        self.d = Fraction(d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.a * other, self.b * other, self.c * other, self.d * other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def is_real(self) -> bool:
        return not (self.b or self.c or self.d)

    def is_pure_imaginary(self) -> bool:
        return not self.a

    def __bool__(self):
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Quaternion(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        # A real quaternion equals its rational value, so hashes as that value.
        if self.is_real():
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "Quaternion(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)

    def __str__(self):
        return "(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)


ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


class Assignment(_Frozen):
    """Concrete values for letters: vector letters get pure-imaginary
    quaternions, scalar symbols get rationals.  Equal values compare
    equal; the dicts make it unhashable."""

    __slots__ = ("vectors", "scalars")
    __hash__ = None

    def __init__(self, vectors=None, scalars=None):
        vectors = {} if vectors is None else vectors
        for i, q in vectors.items():
            if not q.is_pure_imaginary():
                raise ValueError("vector v%d assigned a non-pure-imaginary value %s" % (i, q))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "scalars", {} if scalars is None else scalars)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.vectors, self.scalars) == (other.vectors, other.scalars)

    def __repr__(self):
        return "Assignment(vectors=%r, scalars=%r)" % (self.vectors, self.scalars)

    def __str__(self):
        vs = ", ".join(
            "v%d=%s" % (i, self.vectors[i]) for i in sorted(self.vectors)
        )
        ss = ", ".join("s%d=%s" % (i, self.scalars[i]) for i in sorted(self.scalars))
        return "; ".join(x for x in (vs, ss) if x)


def evaluate(p: Polynomial, assignment: Assignment) -> Quaternion:
    """Ring homomorphism sending each letter to its assigned value; the
    empty word maps to 1."""
    _check_input(p)
    vecs = {}
    for letter in sorted(p.variables()):
        q = assignment.vectors.get(letter)
        if q is None:
            raise ValueError("unassigned variable v%d" % letter)
        if not q.is_pure_imaginary():
            raise ValueError("vector v%d assigned a non-pure-imaginary value %s" % (letter, q))
        vecs[letter] = (q.b, q.c, q.d)
    plan, den, rows = _prepare(p)
    missing = [i for mono, _ in rows for i in mono if i not in assignment.scalars]
    if missing:
        raise ValueError("unassigned scalar symbol s%d" % min(missing))
    coeffs = _draw_coefficients(rows, len(p._data), assignment.scalars)
    return Quaternion(*[Fraction(x, den) for x in _evaluate_int(plan, coeffs, vecs, {})])


@functools.lru_cache(maxsize=1024)
def _int_assignment(n: int, seed: int):
    """The integer draw behind ``random_assignment(n, seed)``: a tuple of
    vector coordinate triples and a tuple of scalar values, letter i at
    position i for i in 1..n and ``None`` at position 0.  Cached, since
    every zero test of the same ``n`` walks the same seeds.

    The vectors are drawn first, in letter order, so letter i's vector is
    the same for every ``n >= i``: ``_piece_table`` relies on it."""
    rng = random.Random(seed)
    vectors = [None]
    for _ in range(n):
        while True:
            b, c, d = (rng.randint(-9, 9) for _ in range(3))
            if b or c or d:
                break
        vectors.append((b, c, d))
    scalars = (None,) + tuple(rng.randint(-9, 9) for _ in range(n))
    return tuple(vectors), scalars


@functools.lru_cache(maxsize=1024)
def _piece_table(seed: int) -> dict:
    """The values of letter pieces at the draws of seed ``seed``, a piece
    being a letter pair, one letter or ``()``, as ``_evaluate_int`` fills
    it: keyed by the seed alone, since a letter's vector does not depend
    on ``n`` in ``_int_assignment(n, seed)``.  A key always gets the same
    value, so the table may be shared across polynomials and threads."""
    return {}


def random_assignment(n: int, seed: int) -> Assignment:
    """Deterministic assignment: vector coordinates are integers in
    [-9, 9], redrawn if all zero; scalar symbols get integers in the same
    range."""
    vectors, scalars = _int_assignment(n, seed)
    return Assignment(
        {i: Quaternion(0, *vectors[i]) for i in range(1, n + 1)},
        {i: Fraction(scalars[i]) for i in range(1, n + 1)},
    )


class ZeroTestResult(namedtuple(
    "ZeroTestResult", "passed trials witness_trial witness value", defaults=(None, None, None)
)):
    """A zero test's verdict, true when it passed; a failing one holds its
    trial, assignment and nonzero value."""

    __slots__ = ()

    def __bool__(self):
        return self.passed


def _draw_coefficients(rows, size: int, scals) -> list:
    """The int coefficient of each word with symbol s_i set to
    ``scals[i]``, from one ``(monomial, [(word position, int), ...])``
    row per scalar monomial."""
    coeffs = [0] * size
    for mono, row in rows:
        m = 1
        for i in mono:
            m *= scals[i]
        if m:
            for k, c in row:
                coeffs[k] += c * m
    return coeffs


def _compile(words):
    """The plan ``(chunks, steps, groups)`` that evaluates ``words``.

    Each word is cut into letter pairs, the last letter alone when the
    length is odd; ``chunks`` lists the distinct pieces, the empty word
    being the piece ``()``.  Node k < len(chunks) is the value of chunk
    k; node len(chunks) + m is the product of the two nodes ``steps[m]``,
    a trie prefix times its next chunk, so words that share a prefix of
    whole pairs share its products.  The trie holds each word's pieces
    but the last: ``groups`` pairs the chunk of each distinct last piece
    with the ``(prefix node, word position)`` of the words that end in
    it, node -1 standing for the empty prefix.
    """
    cut = [[w[k : k + 2] for k in range(0, max(len(w), 1), 2)] for w in words]
    chunks = {c: i for i, c in enumerate(dict.fromkeys(c for pieces in cut for c in pieces))}
    nodes = {}  # (prefix node, chunk) -> node, numbered after the chunks
    groups = {}  # last chunk -> [(prefix node, word position), ...]
    for k, (*prefix, last) in enumerate(cut):
        node = chunks[prefix[0]] if prefix else -1
        for piece in prefix[1:]:
            node = nodes.setdefault((node, chunks[piece]), len(chunks) + len(nodes))
        groups.setdefault(chunks[last], []).append((node, k))
    return tuple(chunks), tuple(nodes), tuple((z, tuple(m)) for z, m in groups.items())


def _evaluate_int(plan, coeffs, vecs, table):
    """Sum ``coeffs[i]`` times the value of the plan's word i, with letter
    i sent to the pure-imaginary quaternion whose (i, j, k) coordinates
    are ``vecs[i]``; returns the coordinate 4-tuple.  ``table`` maps
    pieces to their values at ``vecs``: it is read first and filled with
    what it lacks.

    Compiling a plan once per polynomial and calling this once per
    assignment is the one place letters are multiplied as quaternions,
    exact for int draws and rational values alike: each distinct letter
    pair v v' = -(e . e') + e x e' once per table, then one product per
    trie node.  The words of a group share their last piece z, so their
    sum is (sum of c P) z, P a word's prefix: four multiply-adds per word
    and one product per group.
    """
    chunks, steps, groups = plan
    vals = []
    for chunk in chunks:
        v = table.get(chunk)
        if v is None:
            if len(chunk) == 2:
                e, f, g = vecs[chunk[0]]
                x, y, z = vecs[chunk[1]]
                v = (-e * x - f * y - g * z, f * z - g * y, g * x - e * z, e * y - f * x)
            elif chunk:
                v = (0, *vecs[chunk[0]])
            else:
                v = (1, 0, 0, 0)
            table[chunk] = v
        vals.append(v)
    for left, right in steps:
        a, b, c, d = vals[left]
        e, f, g, h = vals[right]
        vals.append(
            (
                a * e - b * f - c * g - d * h,
                a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f,
                a * h + b * g - c * f + d * e,
            )
        )
    vals.append((1, 0, 0, 0))  # node -1, the empty prefix
    ta = tb = tc = td = 0
    for last, members in groups:
        a = b = c = d = 0
        for node, k in members:
            cv = coeffs[k]
            if cv:
                pa, pb, pc, pd = vals[node]
                a += cv * pa
                b += cv * pb
                c += cv * pc
                d += cv * pd
        if a or b or c or d:
            e, f, g, h = vals[last]
            ta += a * e - b * f - c * g - d * h
            tb += a * f + b * e + c * h - d * g
            tc += a * g - b * h + c * e + d * f
            td += a * h + b * g - c * f + d * e
    return ta, tb, tc, td


def _prepare(p: Polynomial):
    """``(plan, den, rows)``: the plan of ``p``'s words, in ``p._data``
    order, and ``Polynomial._by_monomial``'s common denominator and int
    groups as one ``(monomial, [(word position, int), ...])`` row per
    scalar monomial; all an evaluation needs besides its values."""
    at = {w: k for k, w in enumerate(p._data)}
    den, groups = p._by_monomial()
    rows = [(mono, [(at[w], c) for w, c in pairs]) for mono, pairs in groups.items()]
    return _compile(list(at)), den, rows


def zero_test(p: Polynomial, trials: int = 100, seed: int = 0) -> ZeroTestResult:
    """Evaluate ``p`` exactly at ``trials`` seeded assignments; returns the
    first nonzero witness or a pass verdict.  Trial t uses
    ``random_assignment(top, seed + t)``, ``top`` the largest letter or
    symbol index."""
    _check_input(p)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    plan, den, rows = _prepare(p)
    symbols = {i for mono, _ in rows for i in mono}
    letters = p.variables() | symbols
    if min(letters, default=1) < 1:
        raise ValueError("letter index %d is below 1" % min(letters))
    top = max(letters, default=0)
    coeffs = None
    for t in range(trials):
        vecs, scals = _int_assignment(top, seed + t)
        if symbols or coeffs is None:
            # A symbol-free input has one row, of monomial (): drawn once.
            coeffs = _draw_coefficients(rows, len(p._data), scals)
        value = _evaluate_int(plan, coeffs, vecs, _piece_table(seed + t))
        if any(value):
            # The draws are ints, so ``value`` is exactly ``den`` times p's value.
            value = Quaternion(*[Fraction(x, den) for x in value])
            return ZeroTestResult(False, trials, t, random_assignment(top, seed + t), value)
    return ZeroTestResult(True, trials)


def _rank_int(rows) -> int:
    """Exact rank of a sparse integer matrix given as ``{col: int}`` rows.

    Each pivot row is keyed by its lowest column.  A new row is reduced
    by ``row*a - b*pivot`` (``a`` the pivot entry, ``b`` the row's own
    entry, both divided by their gcd) and then by the gcd of its entries,
    until it becomes a new pivot or vanishes.  All arithmetic is integer.
    """
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            a, b = piv[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            new = {c: v * a for c, v in row.items()}
            for c, v in piv.items():
                x = new.get(c, 0) - b * v
                if x:
                    new[c] = x
                else:
                    del new[c]
            g = gcd(*new.values())
            row = {c: v // g for c, v in new.items()} if g > 1 else new
    return len(pivots)


class DimensionReport(namedtuple(
    "DimensionReport",
    "n degree mode total_words rank normal_by_rank normal_factorfree normal_structural",
)):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.normal_by_rank == self.normal_factorfree == self.normal_structural


def _arrangements(letters: tuple) -> list:
    """The distinct orderings of the sorted tuple ``letters``, in
    lexicographic order."""
    if not letters:
        return [()]
    out = []
    for i, x in enumerate(letters):
        if i == 0 or x != letters[i - 1]:
            out += [(x,) + w for w in _arrangements(letters[:i] + letters[i + 1 :])]
    return out


# Largest word count a dimension_check slice may span.
_WORD_GUARD = 10000


def _slice(n: int, d: int, multiset: tuple | None = None):
    """The mode, alphabet and block letter multisets of the degree-``d``
    slice that ``dimension_check`` ranks, before any row is built; more
    than ``_WORD_GUARD`` words raise ``ValueError``."""
    if d < 0:
        raise ValueError("degree must be >= 0, got %d" % d)
    if multiset is None:
        if n**d > _WORD_GUARD:
            raise ValueError(
                "n^d = %d words exceeds the word-count guard %d" % (n**d, _WORD_GUARD)
            )
        alphabet = range(1, n + 1)
        return "general", alphabet, itertools.combinations_with_replacement(alphabet, d)
    multiset = tuple(sorted(multiset))
    if len(multiset) != d:
        raise ValueError("multiset size %d != degree %d" % (len(multiset), d))
    for x in multiset:
        if not 1 <= x <= n:
            raise ValueError("multiset letter %d is outside 1..%d" % (x, n))
    count = factorial(d)
    for k in Counter(multiset).values():
        count //= factorial(k)
    if count > _WORD_GUARD:
        raise ValueError(
            "%d permutation words exceeds the word-count guard %d" % (count, _WORD_GUARD)
        )
    mode = "multilinear" if len(set(multiset)) == len(multiset) else "general"
    return mode, sorted(set(multiset)), [multiset]


def dimension_check(
    n: int,
    d: int,
    generators,
    base: RuleSet,
    multiset: tuple | None = None,
) -> DimensionReport:
    """Count normal words of degree ``d`` three independent ways.

    The rank route spans the degree-``d`` slice of the two-sided ideal by
    all products left*g*right and subtracts its exact rank, by sparse
    integer elimination, from the word count; the other two routes count
    words passing the factor-free and the structural normality
    predicates.  With ``multiset`` the slice is restricted to permutation
    words of that letter multiset.  More than ``_WORD_GUARD`` words raise
    ``ValueError``.

    Every generator must be multiset-homogeneous, so each product lies in
    the block of words sharing one letter multiset: the slice is the union
    of its blocks and its rank the sum of theirs.
    """
    mode, alphabet, targets = _slice(n, d, multiset)
    gens = []
    for g in generator_polys(generators):
        if g.degree() > d:
            continue
        groups = g._by_monomial()[1]
        if groups.keys() - {()}:
            raise ValueError("generator has scalar symbols")
        mds = g.multidegree()
        if len(mds) != 1:
            raise ValueError("generator is not multiset-homogeneous")
        gens.append((next(iter(mds)), groups[()]))

    # block letter multiset -> (column of each word, rows)
    blocks = {t: ({w: i for i, w in enumerate(_arrangements(t))}, []) for t in targets}
    for gset, terms in gens:
        for rest in itertools.combinations_with_replacement(alphabet, d - len(gset)):
            block = blocks.get(tuple(sorted(gset + rest)))
            if block is None:
                continue
            col, rows = block
            perms = _arrangements(rest)
            for cut in range(len(rest) + 1):
                for perm in perms:
                    left, right = perm[:cut], perm[cut:]
                    rows.append({col[left + w + right]: c for w, c in terms})

    rank = sum(_rank_int(rows) for _, rows in blocks.values())
    words = [w for col, _ in blocks.values() for w in col]
    ff = sum(1 for w in words if is_normal_factorfree(w, base))
    st = sum(1 for w in words if is_normal_structural(w, mode))
    return DimensionReport(n, d, mode, len(words), rank, len(words) - rank, ff, st)


# ---------------------------------------------------------------------------
# identity corpus
# ---------------------------------------------------------------------------


def _index_patterns(k: int):
    """Index tuples covering coincidence patterns of k slots: every
    restricted-growth tuple when there are at most 60, otherwise the
    all-distinct tuple plus 10 random draws seeded with 0."""
    patterns = []

    def grow(prefix, mx):
        if len(patterns) > 60:
            return
        if len(prefix) == k:
            patterns.append(tuple(prefix))
            return
        for v in range(1, mx + 2):
            grow(prefix + [v], max(mx, v))

    grow([], 0)
    if len(patterns) <= 60:
        return patterns
    rng = random.Random(0)
    out = [tuple(range(1, k + 1))]
    seen = set(out)
    while len(out) < 11:
        t = tuple(rng.randint(1, k) for _ in range(k))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _perm_sign(positions) -> int:
    inv = 0
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            if positions[a] > positions[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _v(i: int) -> Polynomial:
    return Polynomial.variable(i)


def _pw(*letters) -> Polynomial:
    return Polynomial.from_word(letters)


def _expand_even_inner(w) -> Polynomial:
    """Pair the first letter with each later one, bracket the rest."""
    out = Polynomial()
    k = len(w)
    for i in range(2, k + 1):
        pair = bracket(_pw(w[0], w[i - 1]))
        rest = w[1 : i - 1] + w[i:]
        sign = 1 if i % 2 == 0 else -1
        out = out + (pair * bracket(_pw(*rest))).scale(sign)
    return out


def _expand(w, first_len: int, right) -> Polynomial:
    """Sum over the order-preserving splits of ``w`` into subsequences of
    sizes (first_len, rest) of the bracket of the first times ``right`` of
    the rest, signed by the permutation that reorders them."""
    out = Polynomial()
    k = len(w)
    for sel in itertools.combinations(range(k), first_len):
        rest = tuple(i for i in range(k) if i not in sel)
        part1 = _pw(*(w[i] for i in sel))
        part2 = _pw(*(w[i] for i in rest))
        out = out + (bracket(part1) * right(part2)).scale(_perm_sign(sel + rest))
    return out


def _random_word(rng, length: int, n: int = 6):
    return tuple(rng.randint(1, n) for _ in range(length))


def identity_corpus():
    """Named polynomials, each expected to normalize and evaluate to zero.

    The instantiations cover every index-coincidence pattern where that
    stays small and seeded random draws where it would not; instance
    families are closed under letter relabeling, so patterns exhaust the
    membership behavior.
    """
    items = []

    def add(name, p):
        if p:
            items.append((name, p))

    def tag(name, idx):
        return "%s[%s]" % (name, ",".join(str(i) for i in idx))

    half = Fraction(1, 2)

    # squared letters slide through: vi*vi commutes with vj
    for i, j in _index_patterns(2):
        add(tag("eq7", (i, j)), commutator(_pw(i, i), _pw(j)))

    # four-point expansion of a triple bracket against a fourth letter
    for i, j, k, l in _index_patterns(4):
        p = (
            bracket3(_v(i), _v(j), _v(k)) * _v(l)
            - bracket3(_v(i), _v(j), _v(l)) * _v(k)
            + bracket3(_v(i), _v(k), _v(l)) * _v(j)
            - _v(i) * bracket3(_v(j), _v(k), _v(l))
        )
        add(tag("cramer1", (i, j, k, l)), p)

    # cross/inner recombinations, plus their raw-word forms
    for i, j, k in _index_patterns(3):
        lhs = cross(cross(_v(i), _v(j)), _v(k))
        add(
            tag("eq9-line1", (i, j, k)),
            lhs - inner(_v(j), _v(k)) * _v(i) + inner(_v(i), _v(k)) * _v(j),
        )
        add(
            tag("eq9-line1-alt", (i, j, k)),
            lhs - (_pw(i, j, k) - _pw(k, i, j)) * half,
        )
    for i, j, k, l in _index_patterns(4):
        lhs = inner(cross(_v(i), _v(j)), cross(_v(k), _v(l)))
        add(
            tag("eq9-line2", (i, j, k, l)),
            lhs
            - inner(_v(i), _v(l)) * inner(_v(j), _v(k))
            + inner(_v(i), _v(k)) * inner(_v(j), _v(l)),
        )
        add(
            tag("eq9-line2-alt", (i, j, k, l)),
            lhs - bracket3(_v(i), _v(j), cross(_v(k), _v(l))),
        )
        lhs3 = cross(cross(_v(i), _v(j)), cross(_v(k), _v(l)))
        add(
            tag("eq9-line3", (i, j, k, l)),
            lhs3
            - bracket3(_v(j), _v(k), _v(l)) * _v(i)
            + bracket3(_v(i), _v(k), _v(l)) * _v(j),
        )
        add(
            tag("eq9-line3-alt", (i, j, k, l)),
            lhs3 - (_pw(i, j, k, l) - _pw(k, l, i, j)) * half,
        )

    # five-point expansion with a cross-product slot
    for i, j, k, l, m in _index_patterns(5):
        cij = cross(_v(i), _v(j))
        p = (
            bracket3(cij, _v(k), _v(l)) * _v(m)
            - bracket3(cij, _v(k), _v(m)) * _v(l)
            + bracket3(cij, _v(l), _v(m)) * _v(k)
            - bracket3(_v(k), _v(l), _v(m)) * cij
        )
        add(tag("cramer2", (i, j, k, l, m)), p)

    # graded expansions of brackets and vector parts
    for length in (4, 6):
        for idx in _index_patterns(length):
            add(tag("eq13-even-inner", idx), bracket(_pw(*idx)) - _expand_even_inner(idx))
            add(
                tag("eq13-even-vector", idx),
                vector_part(_pw(*idx)) - _expand(idx, length - 2, vector_part),
            )
    for idx in _index_patterns(3):
        add(tag("eq13-odd-vector", idx), vector_part(_pw(*idx)) - _expand(idx, 2, lambda p: p))
    for idx in _index_patterns(5):
        add(tag("eq13-odd-vector", idx), vector_part(_pw(*idx)) - _expand(idx, 4, lambda p: p))
        add(tag("eq13-odd-inner", idx), bracket(_pw(*idx)) - _expand(idx, 2, bracket))

    # the two-variable quartic witness
    q = (_pw(1, 2, 1, 2) + _pw(2, 1, 2, 1) - _pw(1, 1, 2, 2).scale(2)) * Fraction(1, 4)
    add("eq14", bracket3(cross(_v(1), _v(2)), _v(1), _v(2)) - q)

    # product of two triple brackets against a 3x3 inner-product determinant
    for idx in _index_patterns(6):
        a, b, c, d, e, f = (_v(i) for i in idx)
        lhs = bracket3(a, b, c) * bracket3(d, e, f)
        det = Polynomial()
        m = [[inner(x, y) for y in (d, e, f)] for x in (a, b, c)]
        for perm in itertools.permutations(range(3)):
            sign = _perm_sign(perm)
            det = det + (m[0][perm[0]] * m[1][perm[1]] * m[2][perm[2]]).scale(sign)
        add(tag("lemma1", idx), lhs + det)

    # shift invariance of the bracket under rotating one letter across
    rng = random.Random(0)
    for length in range(1, 6):
        for t in range(3):
            w = _random_word(rng, length)
            i = rng.randint(1, 6)
            add(
                "prop1-shift[len%d-%d]" % (length, t),
                bracket(_pw(i, *w)) - bracket(_pw(*w, i)),
            )

    # left multiple of a degree-3 rule element
    add("step3a", _pw(4) * (_pw(3, 2, 1) - _pw(1, 2, 3) - _pw(1, 3, 2) + _pw(2, 3, 1)))
    add("step3b", _pw(4) * (_pw(3, 1, 2) - _pw(2, 1, 3) - _pw(2, 3, 1) + _pw(1, 3, 2)))

    # hand-reduced case polynomials, five and six letters
    for perm in itertools.permutations((1, 2, 3)):
        s1, s2, s3 = perm
        h = _pw(5, s1) * (
            _pw(4, s2, s3) + _pw(s2, 4, s3) - _pw(s3, 4, s2) - _pw(s3, s2, 4)
        )
        add(tag("step11", perm), h)
    for q_, w_, y in ((5, 5, (4,)), (5, 4, (5,)), (6, 6, (4, 5)), (6, 5, (4, 6)), (6, 4, (5, 6))):
        sq = 1 if q_ % 2 == 0 else -1
        yr = y[::-1]
        h = _pw(w_) * (
            _pw(3, 2, *y, 1)
            + _pw(3, 1, *yr, 2).scale(sq)
            - _pw(1, *yr, 2, 3).scale(sq)
            - _pw(2, *y, 1, 3)
        )
        add("step12[q%d-w%d]" % (q_, w_), h)
    add(
        "step13[q6]",
        _pw(4, 3, 5)
        * (_pw(6, 2, 1) - _pw(1, 2, 6) - _pw(1, 6, 2) + _pw(2, 6, 1)),
    )
    add(
        "step14[q5]",
        _pw(3, 2) * (_pw(5, 1, 4) - _pw(4, 1, 5) - _pw(4, 5, 1) + _pw(1, 5, 4)),
    )
    add(
        "step15[q6]",
        _pw(3, 2, 4) * (_pw(6, 1, 5) - _pw(5, 1, 6) - _pw(5, 6, 1) + _pw(1, 6, 5)),
    )

    # a real part commutes with every word, and a commutator has no real part
    rng = random.Random(1)
    for j in range(1, 6):
        for k in range(1, 7 - j):
            for t in range(2):
                pj = _pw(*_random_word(rng, j))
                pk = _pw(*_random_word(rng, k))
                add("eq25a[j%d-k%d-%d]" % (j, k, t), commutator(even(pk), pj))
                add("eq25b[j%d-k%d-%d]" % (j, k, t), even(commutator(pj, pk)))

    # pushing a high letter across a low pair
    rng = random.Random(2)
    for a in range(4):
        for t in range(5):
            i1 = rng.randint(1, 2)
            i2 = rng.randint(1, 2)
            i3 = rng.randint(3, 6)
            body = tuple(rng.randint(3, 6) for _ in range(a))
            sa = 1 if a % 2 == 0 else -1
            lhs = _pw(i3, *body, i1, i2)
            rhs = (
                _pw(i2, *body, i1, i3)
                + _pw(i2, i3, i1, *body[::-1]).scale(sa)
                - _pw(i1, *body[::-1], i3, i2).scale(sa)
            )
            add("eq26[a%d-%d]" % (a, t), lhs - rhs)

    return items
