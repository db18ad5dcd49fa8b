"""Free associative algebra over exact rationals.

Words are tuples of positive integers naming the vector letters v1, v2, ...
A polynomial is a finite map from words to nonzero coefficients; a
coefficient is either a ``Fraction`` or a :class:`Scalar`, a commutative
polynomial in the central symbols s1, s2, ...  Scalar symbols commute with
every letter, so they live entirely inside the coefficients.

All values are immutable after construction and every operation is a pure
function, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

Word = tuple

EMPTY_WORD: Word = ()

_HALF = Fraction(1, 2)


def word_key(w: Word):
    """Sort key realizing the degree-first, then letterwise word order."""
    return (len(w), w)


def word_cmp(a: Word, b: Word) -> int:
    """Compare two words: degree dominates, ties break letter by letter
    with the higher-index letter greater.  Returns -1, 0 or 1."""
    ka, kb = word_key(a), word_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def word_str(w: Word) -> str:
    return "*".join("v%d" % i for i in w) if w else "1"


def word_multiset(w: Word) -> tuple:
    """The multiset of letters of ``w``, as a sorted tuple."""
    return tuple(sorted(w))


class Scalar:
    """Commutative polynomial in the scalar symbols s1, s2, ...

    Monomials are keyed by sorted index tuples with multiplicity, so
    s1^2*s3 is keyed ``(1, 1, 3)`` and the constant term by ``()``.  No
    zero coefficients are stored; two equal scalars have identical term
    dictionaries and format identically.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(sorted(mono))
                if type(coeff) is not Fraction:
                    if isinstance(coeff, float):
                        raise TypeError("coefficients must be exact rationals, not float")
                    coeff = Fraction(coeff)
                if mono in data:
                    coeff = data[mono] + coeff
                if coeff:
                    data[mono] = coeff
                elif mono in data:
                    del data[mono]
        self.terms = {m: data[m] for m in sorted(data, key=word_key, reverse=True)}

    @classmethod
    def rational(cls, value) -> "Scalar":
        return cls({(): Fraction(value)})

    @classmethod
    def symbol(cls, index: int) -> "Scalar":
        if index < 1:
            raise ValueError("scalar symbol index must be >= 1")
        return cls({(index,): 1})

    def __bool__(self):
        return bool(self.terms)

    def is_rational(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        raise ValueError("scalar coefficient involves symbols: %s" % self)

    def symbols(self) -> set:
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def substitute(self, values) -> Fraction:
        """Evaluate at ``values[i]`` for each symbol index ``i``."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for i in mono:
                prod *= values[i]
            total += prod
        return total

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.rational(other)
        return None

    def __add__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        data = dict(self.terms)
        for mono, coeff in o.terms.items():
            data[mono] = data.get(mono, 0) + coeff
        return Scalar(data)

    __radd__ = __add__

    def __neg__(self):
        return Scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = Scalar._coerce(other)
        if o is None:
            return NotImplemented
        data = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = tuple(sorted(m1 + m2))
                data[mono] = data.get(mono, 0) + c1 * c2
        return Scalar(data)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        return NotImplemented

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in self.terms.items():
            body = _coeff_body(abs(coeff), ["s%d" % i for i in mono])
            pieces.append((coeff < 0, body))
        return _join_signed(pieces)

    def __repr__(self):
        return "Scalar(%s)" % self


def _coeff_body(mag: Fraction, factors) -> str:
    """Join a positive magnitude with symbol factors, omitting a unit
    coefficient unless it stands alone."""
    if mag != 1 or not factors:
        factors = [str(mag)] + list(factors)
    return "*".join(factors)


def _join_signed(pieces) -> str:
    out = []
    for i, (neg, body) in enumerate(pieces):
        if i == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(" - " + body if neg else " + " + body)
    return "".join(out)


def _as_coeff(value):
    if type(value) is Fraction or isinstance(value, Scalar):
        return value
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, not float")
    return Fraction(value)


class Polynomial:
    """Sparse polynomial of the free algebra.

    ``terms`` maps words to nonzero coefficients and iterates in
    descending word order, which keeps term scans and formatting
    deterministic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                c = _as_coeff(c)
                if w in data:
                    c = data[w] + c
                if c:
                    data[w] = c
                elif w in data:
                    del data[w]
        self.terms = {w: data[w] for w in sorted(data, key=word_key, reverse=True)}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(): 1})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls({(): c})

    @classmethod
    def from_word(cls, w, coeff=1) -> "Polynomial":
        return cls({tuple(w): coeff})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return cls({(index,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(): Fraction(other)}
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) + c
        return Polynomial(data)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) - c
        return Polynomial(data)

    def __neg__(self):
        return Polynomial({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            data = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    data[w] = data.get(w, 0) + c1 * c2
            return Polynomial(data)
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = _as_coeff(c)
        if not c:
            return Polynomial()
        return Polynomial({w: cc * c for w, cc in self.terms.items()})

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading word")
        return next(iter(self.terms))

    def leading_coeff(self):
        return self.terms[self.leading_word()]

    def degree(self) -> int:
        """Largest word length; 0 for the zero polynomial."""
        return len(self.leading_word()) if self.terms else 0

    def reversion(self) -> "Polynomial":
        """Reverse the letter order of every word; an anti-automorphism."""
        return Polynomial({w[::-1]: c for w, c in self.terms.items()})

    def multidegree(self) -> set:
        """The set of letter multisets occurring among the words."""
        return {word_multiset(w) for w in self.terms}

    def is_multiset_homogeneous(self) -> bool:
        return len(self.multidegree()) <= 1

    def variables(self) -> set:
        out = set()
        for w in self.terms:
            out.update(w)
        return out

    def scalar_symbols(self) -> set:
        out = set()
        for c in self.terms.values():
            if isinstance(c, Scalar):
                out.update(c.symbols())
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for w, c in self.terms.items():
            pieces.append(_format_term(c, w))
        return _join_signed(pieces)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _format_term(coeff, w):
    """Return ``(negative, body)`` for one term, body without sign."""
    letters = ["v%d" % i for i in w]
    if isinstance(coeff, Scalar) and coeff.is_rational():
        coeff = coeff.as_fraction()
    if isinstance(coeff, Fraction):
        return (coeff < 0, _coeff_body(abs(coeff), letters))
    if len(coeff.terms) == 1:
        (mono, q), = coeff.terms.items()
        factors = ["s%d" % i for i in mono] + letters
        return (q < 0, _coeff_body(abs(q), factors))
    body = "(%s)" % coeff
    if letters:
        body += "*" + "*".join(letters)
    return (False, body)


def add(p: Polynomial, q: Polynomial) -> Polynomial:
    return p + q


def reversion(p: Polynomial) -> Polynomial:
    return p.reversion()


def multidegree(p: Polynomial) -> set:
    return p.multidegree()


def bracket(w: Word) -> Polynomial:
    """Conjugation-even half of a word: (w + (-1)^k w reversed)/2 for a
    word of length k."""
    w = tuple(w)
    sign = _HALF if len(w) % 2 == 0 else -_HALF
    return Polynomial({w: _HALF}) + Polynomial({w[::-1]: sign})


def vector_part(w: Word) -> Polynomial:
    """Conjugation-odd half of a word; ``bracket(w) + vector_part(w)``
    recovers the word."""
    w = tuple(w)
    sign = -_HALF if len(w) % 2 == 0 else _HALF
    return Polynomial({w: _HALF}) + Polynomial({w[::-1]: sign})


def bracket_poly(p: Polynomial) -> Polynomial:
    """Linear extension of :func:`bracket` over the terms of ``p``."""
    out = Polynomial()
    for w, c in p.terms.items():
        out = out + bracket(w).scale(c)
    return out


def vector_part_poly(p: Polynomial) -> Polynomial:
    out = Polynomial()
    for w, c in p.terms.items():
        out = out + vector_part(w).scale(c)
    return out


def inner(p: Polynomial, q: Polynomial) -> Polynomial:
    """Symmetrized product (pq + qp)/2 of two vector-valued elements."""
    return (p * q + q * p) * _HALF


def cross(p: Polynomial, q: Polynomial) -> Polynomial:
    """Antisymmetrized product (pq - qp)/2 of two vector-valued elements."""
    return (p * q - q * p) * _HALF


def bracket3(p: Polynomial, q: Polynomial, r: Polynomial) -> Polynomial:
    """Three-slot bracket (pqr - rqp)/2."""
    return (p * q * r - r * q * p) * _HALF
