"""Free associative algebra over exact rationals.

Words are tuples of positive integers naming the vector letters v1, v2, ...
A polynomial is a finite map from words to nonzero coefficients.  This
module alone fixes a coefficient's form: an ``int`` when the value is
integral, a ``Fraction`` otherwise, and a :class:`Scalar`, a commutative
polynomial in the central symbols s1, s2, ..., only while it holds a
symbol.  Scalar symbols commute with every letter, so they live entirely
inside the coefficients.  ``Polynomial._by_monomial`` is the one view of
them: it hands the terms out per symbol monomial, an index tuple, scaled
to ints by one common denominator, and every caller that names, checks or
evaluates the symbols reads them there.

Conjugation reverses products and sends every vector letter to its
negative (``Polynomial.conjugate``).  ``bracket`` and ``vector_part`` are
its even and odd parts, for q-polynomials (``QPolynomial.conjugate``) too.

All values are immutable after construction, reads included, and every
operation is a pure function, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Word = tuple

_HALF = Fraction(1, 2)


def word_key(w: Word):
    """Sort key realizing the degree-first, then letterwise word order."""
    return (len(w), w)


def word_str(w: Word) -> str:
    return "*".join("v%d" % i for i in w) if w else "1"


def word_multiset(w: Word) -> tuple:
    """The multiset of letters of ``w``, as a sorted tuple."""
    return tuple(sorted(w))


def _rational(value):
    """An exact rational in canonical form: ``int`` if integral, else
    ``Fraction``."""
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("coefficients must be exact rationals, not float")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class _TermMap:
    """Sparse map from keys to nonzero coefficients, the representation
    shared by :class:`Scalar`, :class:`Polynomial` and
    ``qvars.QPolynomial``.

    Construction stores the summed, zero-free map in ``_data``, in no
    particular order, and nothing writes to it afterwards.  ``terms`` sorts
    it into a new dict in descending key order on every read, which keeps
    term scans and formatting deterministic.  Arithmetic, equality, the
    order-free queries and every routine of ``rewrite``, ``syzygy``,
    ``qvars`` and ``oracle`` read ``_data``: only printing, the CLI's
    multilinear input check and the ``rewrite.reduce_once`` reference read
    terms in order, so no rewrite routine sorts a map.

    A subclass states its key order (``_sort_keys``), its coefficient ring
    (``_ring`` lists the operand types taken as coefficients, ``_coeff``
    puts a non-``int`` one in canonical form), which operands its
    ``__mul__`` accepts, and how one term prints.  ``_set`` applies
    ``_coeff`` to every coefficient it stores, sums included, so every
    stored coefficient is in canonical form.
    """

    __slots__ = ("_data",)

    _ring = (int, Fraction)
    _coeff = staticmethod(_rational)

    def _set(self, pairs):
        """Sum ``(key, coefficient)`` pairs and drop zeros, in no order."""
        coerce = self._coeff
        data = {}
        for k, c in pairs:
            if k in data:
                c = data[k] + c
            if type(c) is not int:
                c = coerce(c)
            if c:
                data[k] = c
            elif k in data:
                del data[k]
        self._data = data

    @staticmethod
    def _sort_keys(keys):
        """``keys`` in descending ``word_key`` order, sorted with C-level
        keys: letterwise, then stably by length."""
        keys = sorted(keys, reverse=True)
        keys.sort(key=len, reverse=True)
        return keys

    @property
    def terms(self) -> dict:
        """A new dict of the terms in descending key order."""
        data = self._data
        return {k: data[k] for k in self._sort_keys(data)}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls({tuple(w): coeff})

    def _lift(self, other):
        """``other`` as a term map of this class; a coefficient becomes a
        constant, anything else ``None``."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self._ring):
            return self.constant(other)
        return None

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._data == o._data

    __hash__ = None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        data = dict(self._data)
        for k, c in o._data.items():
            data[k] = data.get(k, 0) + c
        return type(self)(data)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        data = dict(self._data)
        for k, c in o._data.items():
            data[k] = data.get(k, 0) - c
        return type(self)(data)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return type(self)({k: -c for k, c in self._data.items()})

    def _product(self, other):
        """Bilinear product joining keys by concatenation; a subclass
        whose keys need more canonicalizes them on construction."""
        data = {}
        other = other._data
        for k1, c1 in self._data.items():
            for k2, c2 in other.items():
                k = k1 + k2
                data[k] = data.get(k, 0) + c1 * c2
        return type(self)(data)

    def __rmul__(self, other):
        if isinstance(other, self._ring):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if type(c) is not int:
            c = self._coeff(c)
        if not c:
            return type(self)()
        return type(self)({k: cc * c for k, cc in self._data.items()})

    def reversion(self):
        """Reverse the letter order of every key; an anti-automorphism."""
        return type(self)({k[::-1]: c for k, c in self._data.items()})

    def degree(self) -> int:
        """Largest key length; 0 for the zero map."""
        return max(map(len, self._data), default=0)

    def _format(self, term) -> str:
        """Join ``term(key, coeff) -> (negative, body)`` over the terms."""
        if not self._data:
            return "0"
        out = []
        for k, c in self.terms.items():
            neg, body = term(k, c)
            if out:
                out.append(" - " + body if neg else " + " + body)
            else:
                out.append("-" + body if neg else body)
        return "".join(out)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


def _coeff_body(mag, factors) -> str:
    """Join a positive magnitude with symbol factors, omitting a unit
    coefficient unless it stands alone."""
    if mag != 1 or not factors:
        factors = [str(mag)] + list(factors)
    return "*".join(factors)


def _scalar_term(mono, coeff):
    return (coeff < 0, _coeff_body(abs(coeff), ["s%d" % i for i in mono]))


class Scalar(_TermMap):
    """Commutative polynomial in the scalar symbols s1, s2, ...

    Monomials are keyed by sorted index tuples with multiplicity, so
    s1^2*s3 is keyed ``(1, 1, 3)`` and the constant term by ``()``.  No
    zero coefficients are stored; two equal scalars have identical term
    dictionaries and format identically.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self._set(((tuple(sorted(m)), c) for m, c in terms.items()) if terms else ())

    @classmethod
    def symbol(cls, index: int) -> "Scalar":
        if index < 1:
            raise ValueError("scalar symbol index must be >= 1")
        return cls({(index,): 1})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self._product(other)
        if isinstance(other, self._ring):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return self._format(_scalar_term)


class Polynomial(_TermMap):
    """Sparse polynomial of the free algebra, keyed by words and
    iterating in descending word order; a coefficient is an ``int``, a
    ``Fraction`` or a :class:`Scalar` that holds a symbol."""

    __slots__ = ()

    _ring = (int, Fraction, Scalar)

    @staticmethod
    def _coeff(c):
        """A :class:`Scalar` with no symbol collapses to its number."""
        if isinstance(c, Scalar):
            return c if any(c._data) else c._data.get((), 0)
        return _rational(c)

    def __init__(self, terms=None):
        self._set(terms.items() if terms else ())

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return cls({(index,): 1})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self._product(other)
        if isinstance(other, self._ring):
            return self.scale(other)
        return NotImplemented

    def conjugate(self) -> "Polynomial":
        """Anti-automorphism sending every letter v_i to -v_i: reverse each
        word and negate it when its length is odd; an involution, and
        ``qvars.split`` carries q-conjugation onto it."""
        return Polynomial({w[::-1]: -c if len(w) % 2 else c for w, c in self._data.items()})

    def leading_word(self) -> Word:
        if not self._data:
            raise ValueError("the zero polynomial has no leading word")
        return max(self._data, key=word_key)

    def leading_coeff(self):
        return self._data[self.leading_word()]

    def multidegree(self) -> set:
        """The set of letter multisets occurring among the words."""
        return {word_multiset(w) for w in self._data}

    def is_multiset_homogeneous(self) -> bool:
        return len(self.multidegree()) <= 1

    def variables(self) -> set:
        out = set()
        for w in self._data:
            out.update(w)
        return out

    def _by_monomial(self):
        """``(den, groups)``: the terms scaled to ints by their common
        denominator ``den`` and grouped by scalar monomial, in no order,
        ``{monomial: [(word, int), ...]}``; a rational coefficient counts as
        the empty monomial ``()``."""
        groups = {}
        for w, c in self._data.items():
            if type(c) is Scalar:
                for mono, q in c._data.items():
                    groups.setdefault(mono, []).append((w, q))
            else:
                groups.setdefault((), []).append((w, c))
        den = lcm(*[c.denominator for pairs in groups.values() for _, c in pairs])
        return den, {
            mono: [(w, c.numerator * (den // c.denominator)) for w, c in pairs]
            for mono, pairs in groups.items()
        }

    @classmethod
    def _from_monomials(cls, images: dict) -> "Polynomial":
        """The polynomial with coefficient ``Scalar(monos)`` at each word of
        ``{word: {monomial: rational}}``, a monomial being a tuple of
        symbol indices in any order; a word with only ``()`` takes its
        rational."""
        return cls({
            w: monos[()] if len(monos) == 1 and () in monos else Scalar(monos)
            for w, monos in images.items()
        })

    def __str__(self):
        return self._format(_format_term)


def _format_term(w, coeff):
    """Return ``(negative, body)`` for one term, body without sign."""
    letters = ["v%d" % i for i in w]
    if not isinstance(coeff, Scalar):
        return (coeff < 0, _coeff_body(abs(coeff), letters))
    if len(coeff._data) == 1:
        (mono, q), = coeff._data.items()
        factors = ["s%d" % i for i in mono] + letters
        return (q < 0, _coeff_body(abs(q), factors))
    body = "(%s)" % coeff
    if letters:
        body += "*" + "*".join(letters)
    return (False, body)


def commutator(a, b):
    """The commutator ab - ba, in either alphabet."""
    return a * b - b * a


def even(p):
    """Twice the conjugation-even part, p + conjugate, of a ``Polynomial``
    or a ``QPolynomial``: twice the real part."""
    return p + p.conjugate()


def bracket(p):
    """Conjugation-even part (p + conjugate)/2; for a word of length k,
    (w + (-1)^k w reversed)/2."""
    return even(p).scale(_HALF)


def vector_part(p):
    """Conjugation-odd part (p - conjugate)/2; ``bracket(p) +
    vector_part(p)`` recovers ``p``."""
    return (p - p.conjugate()).scale(_HALF)


def inner(p: Polynomial, q: Polynomial) -> Polynomial:
    """Symmetrized product (pq + qp)/2 of two vector-valued elements."""
    return (p * q + q * p) * _HALF


def cross(p: Polynomial, q: Polynomial) -> Polynomial:
    """Antisymmetrized product (pq - qp)/2 of two vector-valued elements."""
    return commutator(p, q) * _HALF


def bracket3(p: Polynomial, q: Polynomial, r: Polynomial) -> Polynomial:
    """Three-slot bracket (pqr - rqp)/2."""
    return (p * q * r - r * q * p) * _HALF
