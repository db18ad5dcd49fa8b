"""Full quaternionic variables: the barred alphabet, conjugation, and the
splitting q_i = s_i + v_i onto the free algebra with central symbols.

A q-word letter is a signed integer: ``+i`` is the plain variable, ``-i``
its conjugate.  Canonical forms of q-polynomials are computed by splitting
into the (s, v) representation and normalizing there; the splitting is
lossless since q_i can be read back as s_i + v_i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import rewrite
from .freealg import Polynomial, Scalar

QWord = tuple

_HALF = Fraction(1, 2)


def qletter_str(x: int) -> str:
    return "q%d" % x if x > 0 else "q%d'" % -x


def qword_str(w: QWord) -> str:
    return "*".join(qletter_str(x) for x in w) if w else "1"


def _qletter_key(x: int):
    return (abs(x), 0 if x > 0 else 1)


def qword_key(w: QWord):
    return (len(w), tuple(_qletter_key(x) for x in w))


def qword_conjugate(w: QWord) -> QWord:
    """Reverse the letters and bar each one; an involution."""
    return tuple(-x for x in reversed(w))


def qword_reverse(w: QWord) -> QWord:
    """Reverse the letter order without barring."""
    return tuple(reversed(w))


class QPolynomial:
    """Sparse polynomial over the barred alphabet with rational
    coefficients; terms iterate in descending word order."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for w, c in terms.items():
                w = tuple(w)
                c = Fraction(c)
                if w in data:
                    c = data[w] + c
                if c:
                    data[w] = c
                elif w in data:
                    del data[w]
        self.terms = {w: data[w] for w in sorted(data, key=qword_key, reverse=True)}

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({(): 1})

    @classmethod
    def constant(cls, c) -> "QPolynomial":
        return cls({(): c})

    @classmethod
    def from_word(cls, w, coeff=1) -> "QPolynomial":
        return cls({tuple(w): coeff})

    @classmethod
    def variable(cls, index: int, barred: bool = False) -> "QPolynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return cls({(-index if barred else index,): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, QPolynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.terms
            return self.terms == {(): Fraction(other)}
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) + c
        return QPolynomial(data)

    def __sub__(self, other):
        if not isinstance(other, QPolynomial):
            return NotImplemented
        data = dict(self.terms)
        for w, c in other.terms.items():
            data[w] = data.get(w, 0) - c
        return QPolynomial(data)

    def __neg__(self):
        return QPolynomial({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, QPolynomial):
            data = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    data[w] = data.get(w, 0) + c1 * c2
            return QPolynomial(data)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "QPolynomial":
        c = Fraction(c)
        if not c:
            return QPolynomial()
        return QPolynomial({w: cc * c for w, cc in self.terms.items()})

    def conjugate(self) -> "QPolynomial":
        """Anti-automorphism barring every word; an involution."""
        return QPolynomial({qword_conjugate(w): c for w, c in self.terms.items()})

    def reversion(self) -> "QPolynomial":
        return QPolynomial({qword_reverse(w): c for w, c in self.terms.items()})

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def indices(self) -> set:
        out = set()
        for w in self.terms:
            out.update(abs(x) for x in w)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for w, c in self.terms.items():
            mag = abs(c)
            letters = [qletter_str(x) for x in w]
            if mag != 1 or not letters:
                letters = [str(mag)] + letters
            pieces.append((c < 0, "*".join(letters)))
        out = []
        for i, (neg, body) in enumerate(pieces):
            if i == 0:
                out.append("-" + body if neg else body)
            else:
                out.append(" - " + body if neg else " + " + body)
        return "".join(out)

    def __repr__(self):
        return "QPolynomial(%s)" % self


def qconjugate(p: QPolynomial) -> QPolynomial:
    return p.conjugate()


def scalar_part(p: QPolynomial) -> QPolynomial:
    """Conjugation-even half (p + conjugate)/2."""
    return (p + p.conjugate()) * _HALF


def vector_part_q(p: QPolynomial) -> QPolynomial:
    """Conjugation-odd half (p - conjugate)/2."""
    return (p - p.conjugate()) * _HALF


@lru_cache(maxsize=65536)
def _split_word(w: QWord) -> Polynomial:
    prod = Polynomial.one()
    for x in w:
        i = abs(x)
        letter = Polynomial({(): Scalar.symbol(i), (i,): 1 if x > 0 else -1})
        prod = prod * letter
    return prod


def split(p: QPolynomial) -> Polynomial:
    """Substitute q_i -> s_i + v_i and the barred letter -> s_i - v_i.

    A ring homomorphism onto the free algebra with central scalar
    symbols; conjugation on the q side becomes reversion composed with
    v_i -> -v_i on the image.
    """
    out = Polynomial()
    for w, c in p.terms.items():
        out = out + _split_word(w).scale(c)
    return out


def conjugation_image(p: Polynomial) -> Polynomial:
    """The split-side automorphism matching q-conjugation: reversion
    followed by negating every vector letter."""
    rev = p.reversion()
    return Polynomial({w: c if len(w) % 2 == 0 else -c for w, c in rev.terms.items()})


@lru_cache(maxsize=None)
def _vector_base(n: int, max_degree: int):
    from . import syzygy

    return syzygy.gb_vector(n, max_degree)


def normalize_q(p: QPolynomial, n: int | None = None, max_degree: int | None = None) -> Polynomial:
    """Canonical form of a q-polynomial in the (s, v) representation.

    Splits, then normalizes with the vector rule family for ``n``
    variables up to ``max_degree`` (defaults: the indices and degree of
    ``p``); an index of ``p`` above ``n`` raises ``ValueError``.  Two
    q-polynomials have equal canonical forms exactly when they differ by
    an element of the defining ideal.
    """
    top = max(p.indices(), default=0)
    if n is None:
        n = top
    elif top > n:
        raise ValueError("variable index %d exceeds n=%d" % (top, n))
    sp = split(p)
    if max_degree is None:
        max_degree = p.degree()
    elif p.degree() > max_degree:
        raise ValueError("degree %d exceeds the requested bound %d" % (p.degree(), max_degree))
    if n < 2 or max_degree < 3:
        return sp
    return rewrite.normalize(sp, _vector_base(n, max_degree))
