"""Free associative algebra over exact rationals.

Words are tuples of positive integers naming the vector letters v1, v2, ...
A polynomial is a finite map from words to nonzero coefficients.  This
module alone fixes a coefficient's form: an ``int`` when the value is
integral, a ``Fraction`` otherwise, and a :class:`Scalar`, a commutative
polynomial in the central symbols s1, s2, ..., only while it holds a
symbol.  A map stores them as int numerators over one denominator
(``_TermMap``), so arithmetic makes no ``Fraction``.  Scalar symbols
commute with every letter, so they live entirely inside the coefficients.
``Polynomial._by_monomial`` is the one view of them: it hands the int
numerators out per symbol monomial, an index tuple, with the map's
denominator, and every caller that names, checks or evaluates the symbols
reads them there.

Conjugation reverses products and sends every vector letter to its
negative (``Polynomial.conjugate``).  ``bracket`` and ``vector_part`` are
its even and odd parts, for q-polynomials (``QPolynomial.conjugate``) too.

All values are immutable after construction, reads included, and every
operation is a pure function, so they are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Word = tuple

_HALF = Fraction(1, 2)
_INT = frozenset((int,))


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


def _ratio(n, den):
    """The canonical value of the numerator ``n``, an ``int`` or an
    integral :class:`Scalar`, over ``den``."""
    if den == 1:
        return n
    if type(n) is int:
        return _rational(Fraction(n, den))
    return n._make(dict(n._data), den)


class _TermMap:
    """Sparse map from keys to nonzero coefficients, the representation
    shared by :class:`Scalar`, :class:`Polynomial` and
    ``qvars.QPolynomial``.

    A map stores int numerators over one denominator: ``_data`` maps each
    key to a nonzero numerator, and the value at key k is ``_data[k] /
    _den``.  A ``Polynomial`` numerator may also be a ``Scalar`` over 1
    that holds a symbol.  The form is canonical: ``_den`` >= 1, and the gcd
    of ``_den`` and every numerator, a Scalar's coefficients included, is
    1; so equality compares ``(_data, _den)``.  A sum scales both sides to
    the lcm of the denominators, a product multiplies numerators and
    denominators, and a result over more than 1 is reduced by one
    ``math.gcd`` call; an all-int map, ``_den`` 1, does no more work.

    Construction stores the summed, zero-free map in ``_data``, in no
    particular order, and nothing writes to it afterwards.  ``terms`` sorts
    the values, ``int``, ``Fraction`` or ``Scalar``, into a new dict in
    descending key order on every read, which keeps term scans
    deterministic; ``_items`` gives them in stored order, as
    ``_data.items()`` itself when ``_den`` is 1.  Arithmetic, equality and
    the order-free queries read ``_data``; of ``rewrite``, ``syzygy``,
    ``qvars``, ``oracle`` and ``cli``, a routine that reads keys reads
    ``_data``, one that reads values reads ``_items``, ``_at`` or
    ``_den``.  Only the CLI's multilinear input check and the
    ``rewrite.reduce_once`` reference read terms in order, so no rewrite
    routine sorts a map.  Printing sorts the keys of ``_data`` and prints
    each numerator over ``_den`` in lowest terms, one ``gcd`` per term,
    so it makes no ``Fraction``.

    A subclass states its key order (``_sort_keys``), its coefficient ring
    (``_ring`` lists the operand types taken as coefficients, ``_coeff``
    puts a non-``int`` one in canonical form) and how one term prints.
    """

    __slots__ = ("_data", "_den")

    _ring = (int, Fraction)
    _coeff = staticmethod(_rational)

    def __init__(self, terms=None):
        self._set(terms.items() if terms else ())

    def _set(self, pairs):
        """Sum ``(key, value)`` pairs, drop zeros and store the result in
        canonical form, in no order."""
        coerce = self._coeff
        data = {}
        whole = True
        for k, c in pairs:
            if k in data:
                c = data[k] + c
            if type(c) is not int:
                c = coerce(c)
                whole = False
            if c:
                data[k] = c
            elif k in data:
                del data[k]
        if whole:
            self._data = data
            self._den = 1
        else:
            self._store(data, 1)

    @classmethod
    def _make(cls, data, den):
        """The map of this class whose value at k is ``data[k] / den``, for
        nonzero ``int``, ``Fraction`` or ``Scalar`` values in a dict that
        it takes over."""
        new = object.__new__(cls)
        # A C-level scan: an all-int map, the usual one, runs no Python loop.
        if den == 1 and _INT.issuperset(map(type, data.values())):
            new._data = data
            new._den = 1
        else:
            new._store(data, den)
        return new

    @classmethod
    def _raw(cls, data, den):
        """The map with numerators ``data`` over ``den``, already canonical."""
        new = object.__new__(cls)
        new._data = data
        new._den = den
        return new

    def _store(self, data, den):
        """Store the nonzero values ``data``, each over ``den``, as
        numerators in lowest terms."""
        whole = _INT.issuperset(map(type, data.values()))
        if not whole:
            coerce = self._coeff
            rest = []
            for k, c in data.items():
                if type(c) is not int:
                    c = data[k] = coerce(c)
                    if type(c) is not int:
                        rest.append(c)
            scale = lcm(*[c.denominator if type(c) is Fraction else c._den for c in rest])
            if scale > 1:
                for k, c in data.items():
                    if type(c) is int:
                        data[k] = c * scale
                    elif type(c) is Fraction:
                        data[k] = c.numerator * (scale // c.denominator)
                    else:
                        f = scale // c._den
                        data[k] = c._raw({m: q * f for m, q in c._data.items()}, 1)
                den *= scale
            # A Fraction is now an int; a Scalar stays one.
            whole = all(type(c) is Fraction for c in rest)
        if den > 1:
            nums = data.values()
            if not whole:
                # A Scalar's coefficients count in the gcd.
                nums = [q for c in nums for q in ((c,) if type(c) is int else c._data.values())]
            g = gcd(den, *nums)
            if g > 1:
                den //= g
                for k, c in data.items():
                    if type(c) is int:
                        data[k] = c // g
                    else:
                        data[k] = c._raw({m: q // g for m, q in c._data.items()}, 1)
        self._data = data
        self._den = den

    @staticmethod
    def _sort_keys(keys):
        """``keys`` in descending ``word_key`` order, sorted with C-level
        keys: letterwise, then stably by length."""
        keys = sorted(keys, reverse=True)
        keys.sort(key=len, reverse=True)
        return keys

    @property
    def terms(self) -> dict:
        """A new dict of the values in descending key order."""
        data = self._data if self._den == 1 else dict(self._items())
        return {k: data[k] for k in self._sort_keys(data)}

    def _items(self):
        """The ``(key, value)`` pairs in stored order: a view of ``_data``
        when ``_den`` is 1."""
        data, den = self._data, self._den
        if den == 1:
            return data.items()
        return [(k, _ratio(c, den)) for k, c in data.items()]

    def _at(self, key):
        """The value at ``key``."""
        return _ratio(self._data[key], self._den)

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
        return self._den == o._den and self._data == o._data

    __hash__ = None

    def _sum(self, other, sign):
        """``self + sign * other`` over the lcm of the two denominators."""
        den = self._den
        if den == other._den:
            data = dict(self._data)
        else:
            den = lcm(den, other._den)
            m = den // self._den
            data = {k: c * m for k, c in self._data.items()}
            sign *= den // other._den
        scaled = sign != 1
        for k, c in other._data.items():
            if scaled:
                c = c * sign
            if k in data:
                c += data[k]
                if c:
                    data[k] = c
                else:
                    del data[k]
            else:
                data[k] = c
        return self._make(data, den)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._sum(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._sum(o, -1)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._raw({k: -c for k, c in self._data.items()}, self._den)

    def _product(self, other):
        """Bilinear product joining keys by concatenation; a subclass
        whose keys need more canonicalizes them itself."""
        data = {}
        right = other._data
        for k1, c1 in self._data.items():
            for k2, c2 in right.items():
                k = k1 + k2
                if k in data:
                    c = data[k] + c1 * c2
                    if c:
                        data[k] = c
                    else:
                        del data[k]
                else:
                    data[k] = c1 * c2
        return self._make(data, self._den * other._den)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, self._ring):
            return self.scale(other)
        return NotImplemented

    # Coefficients are central, and a map of the same class never reaches
    # the reflected call.
    __rmul__ = __mul__

    def scale(self, c):
        """The map times the coefficient ``c``: its numerator multiplies
        the numerators, its denominator ``_den``."""
        if type(c) is not int:
            c = self._coeff(c)
        if not c:
            return type(self)()
        den = self._den
        if type(c) is Fraction:
            den *= c.denominator
            c = c.numerator
        elif type(c) is not int:
            den *= c._den
            c = c._raw(c._data, 1)
        # Nonzero numerators times a nonzero one stay nonzero.
        return self._make({k: cc * c for k, cc in self._data.items()}, den)

    def reversion(self):
        """Reverse the letter order of every key; an anti-automorphism."""
        return self._raw({k[::-1]: c for k, c in self._data.items()}, self._den)

    def degree(self) -> int:
        """Largest key length; 0 for the zero map."""
        return max(map(len, self._data), default=0)

    def _format(self, term) -> str:
        """Join ``term(key, numerator, _den) -> (negative, body)`` over the
        terms in descending key order."""
        data, den = self._data, self._den
        if not data:
            return "0"
        out = []
        for k in self._sort_keys(data):
            neg, body = term(k, data[k], den)
            if out:
                out.append(" - " + body if neg else " + " + body)
            else:
                out.append("-" + body if neg else body)
        return "".join(out)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


def _coeff_body(n, den, factors) -> str:
    """Join the magnitude ``|n| / den``, in lowest terms, with symbol
    factors, omitting a unit coefficient unless it stands alone."""
    n = abs(n)
    if n != den or not factors:
        g = gcd(n, den)
        factors = ["%d/%d" % (n // g, den // g) if den > g else "%d" % (n // g), *factors]
    return "*".join(factors)


def _scalar_term(mono, n, den):
    return (n < 0, _coeff_body(n, den, ["s%d" % i for i in mono]))


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

    # The benchmark tracer wraps these names in the class's own dict.
    __mul__ = __rmul__ = _TermMap.__mul__

    def _product(self, other):
        """Monomials multiply by concatenating their index tuples, which
        ``__init__`` sorts and sums."""
        return Scalar(dict(_TermMap._product(self, other)._items()))

    def reversion(self):
        """Monomials commute: reversion is the identity."""
        return self

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
            return c if any(c._data) else _ratio(c._data.get((), 0), c._den)
        return _rational(c)

    # The benchmark tracer wraps these names in the class's own dict.
    __init__ = _TermMap.__init__
    __mul__ = _TermMap.__mul__

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return cls({(index,): 1})

    def conjugate(self) -> "Polynomial":
        """Anti-automorphism sending every letter v_i to -v_i: reverse each
        word and negate it when its length is odd; an involution, and
        ``qvars.split`` carries q-conjugation onto it."""
        return self._raw(
            {w[::-1]: -c if len(w) % 2 else c for w, c in self._data.items()}, self._den
        )

    def leading_word(self) -> Word:
        if not self._data:
            raise ValueError("the zero polynomial has no leading word")
        return max(self._data, key=word_key)

    def leading_coeff(self):
        return self._at(self.leading_word())

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
        """``(_den, groups)``: the int numerators grouped by scalar
        monomial, in no order, ``{monomial: [(word, int), ...]}``; a
        rational coefficient counts as the empty monomial ``()``."""
        groups = {}
        for w, c in self._data.items():
            if type(c) is Scalar:
                for mono, q in c._data.items():
                    groups.setdefault(mono, []).append((w, q))
            else:
                groups.setdefault((), []).append((w, c))
        return self._den, groups

    @classmethod
    def _from_monomials(cls, images: dict, den: int) -> "Polynomial":
        """The polynomial with coefficient ``Scalar(monos) / den`` at each
        word of ``{word: {monomial: rational}}``, a monomial being a tuple
        of symbol indices in any order; a word with only ``()`` takes its
        rational over ``den``."""
        data = {
            w: monos[()] if len(monos) == 1 and () in monos else Scalar(monos)
            for w, monos in images.items()
        }
        return cls._make({w: c for w, c in data.items() if c}, den)

    def __str__(self):
        return self._format(_format_term)


def _format_term(w, n, den):
    """Return ``(negative, body)`` for the term ``n / den`` at ``w``, body
    without sign."""
    letters = ["v%d" % i for i in w]
    if type(n) is int:
        return (n < 0, _coeff_body(n, den, letters))
    if len(n._data) == 1:
        (mono, q), = n._data.items()
        factors = ["s%d" % i for i in mono] + letters
        return (q < 0, _coeff_body(q, den, factors))
    body = "(%s)" % Scalar._raw(n._data, den)
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
