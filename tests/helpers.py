"""Shared test utilities: seeded random polynomials, a randomized
reduction strategy used to probe confluence, and naive references for
the q -> (s, v) split and for quaternion evaluation."""

from fractions import Fraction

from quatpoly.freealg import Polynomial, Scalar
from quatpoly.oracle import Quaternion
from quatpoly.rewrite import RuleSet


def random_poly(rng, n=4, max_degree=5, max_terms=5, coeff_range=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        w = tuple(rng.randint(1, n) for _ in range(length))
        c = 0
        while c == 0:
            c = rng.randint(-coeff_range, coeff_range)
        terms[w] = terms.get(w, 0) + c
    return Polynomial(terms)


def random_scalar_poly(rng, n=3, symbols=3, max_degree=3, max_terms=4):
    """A random polynomial whose coefficients are :class:`Scalar` values:
    up to three monomials of degree <= 2 in s1..s_symbols, each with a
    rational coefficient."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = random_word(rng, n, max_degree)
        monos = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(1, symbols) for _ in range(rng.randint(0, 2)))
            monos[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[w] = terms.get(w, 0) + Scalar(monos)
    return Polynomial(terms)


def random_word(rng, n=4, max_degree=5, min_degree=0):
    length = rng.randint(min_degree, max_degree)
    return tuple(rng.randint(1, n) for _ in range(length))


def _matches(base: RuleSet, w):
    out = []
    wb = bytes(w)
    for rule in base.rules:
        lb = bytes(rule.lead)
        start = wb.find(lb)
        while start >= 0:
            out.append((rule, start))
            start = wb.find(lb, start + 1)
    return out


def normalize_random(p, base: RuleSet, rng):
    """Reduce to a fixed point picking the rewritten term, rule and
    position at random each step."""
    terms = dict(p.terms)
    while True:
        words = list(terms)
        rng.shuffle(words)
        hit = None
        for w in words:
            found = _matches(base, w)
            if found:
                hit = (w, found[rng.randrange(len(found))])
                break
        if hit is None:
            return Polynomial(terms)
        w, (rule, pos) = hit
        c = terms.pop(w)
        for u, cu in rule.rhs.terms.items():
            nw = w[:pos] + u + w[pos + len(rule.lead) :]
            nc = terms.get(nw, 0) + c * cu
            if nc:
                terms[nw] = nc
            else:
                terms.pop(nw, None)


def split_reference(p):
    """The q -> (s, v) split by plain multiplication: every letter q_i
    becomes s_i + v_i, its conjugate s_i - v_i."""
    out = Polynomial()
    for w, c in p.terms.items():
        prod = Polynomial.constant(c)
        for x in w:
            i = abs(x)
            prod = prod * Polynomial({(): Scalar.symbol(i), (i,): 1 if x > 0 else -1})
        out = out + prod
    return out


def scalar_symbols(p):
    """The indices of the scalar symbols in ``p``'s coefficients."""
    return {i for c in p.terms.values() if isinstance(c, Scalar) for mono in c.terms for i in mono}


def evaluate_reference(p, assignment):
    """The value of ``p`` at ``assignment``: each symbol set term by term,
    each word multiplied letter by letter as :class:`Quaternion` objects."""
    total = Quaternion()
    for w, c in p.terms.items():
        if isinstance(c, Scalar):
            value = 0
            for mono, q in c.terms.items():
                for i in mono:
                    q *= assignment.scalars[i]
                value += q
            c = value
        prod = Quaternion(1)
        for letter in w:
            prod = prod * assignment.vectors[letter]
        total = total + prod * c
    return total
