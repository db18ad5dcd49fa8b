"""Full quaternionic variables: the barred alphabet, conjugation, and the
splitting q_i = s_i + v_i onto the free algebra with central symbols.
The scalar and vector parts of a q-polynomial are ``freealg.bracket`` and
``freealg.vector_part``, which work on either class.

A q-word letter is a signed integer: ``+i`` is the plain variable, ``-i``
its conjugate.  Canonical forms of q-polynomials are computed by splitting
into the (s, v) representation and normalizing there; the splitting is
lossless since q_i can be read back as s_i + v_i.
"""

from __future__ import annotations

from .freealg import Polynomial, _coeff_body, _TermMap

QWord = tuple


def qletter_str(x: int) -> str:
    return "q%d" % x if x > 0 else "q%d'" % -x


def _qletter_key(x: int):
    return (abs(x), 0 if x > 0 else 1)


def qword_key(w: QWord):
    return (len(w), tuple(_qletter_key(x) for x in w))


def qword_conjugate(w: QWord) -> QWord:
    """Reverse the letters and bar each one; an involution."""
    return tuple(-x for x in reversed(w))


class QPolynomial(_TermMap):
    """Sparse polynomial over the barred alphabet with rational
    coefficients; terms iterate in descending word order."""

    __slots__ = ()

    @staticmethod
    def _sort_keys(keys):
        return sorted(keys, key=qword_key, reverse=True)

    @classmethod
    def variable(cls, index: int, barred: bool = False) -> "QPolynomial":
        if index < 1:
            raise ValueError("variable index must be >= 1")
        return cls({(-index if barred else index,): 1})

    def conjugate(self) -> "QPolynomial":
        """Anti-automorphism barring every word; an involution."""
        return self._raw({qword_conjugate(w): c for w, c in self._data.items()}, self._den)

    def indices(self) -> set:
        out = set()
        for w in self._data:
            out.update(abs(x) for x in w)
        return out

    def __str__(self):
        return self._format(_qterm)


def _qterm(w, n, den):
    return (n < 0, _coeff_body(n, den, [qletter_str(x) for x in w]))


def split(p: QPolynomial) -> Polynomial:
    """Substitute q_i -> s_i + v_i and the barred letter -> s_i - v_i.

    A ring homomorphism onto the free algebra with central scalar
    symbols that carries ``QPolynomial.conjugate`` onto
    ``Polynomial.conjugate``.  Each letter of a word of length k picks
    s_i or +-v_i, so the word expands to 2^k (vector word, scalar
    monomial) terms, gathered per vector word.
    """
    if not isinstance(p, QPolynomial):
        raise TypeError("expected a QPolynomial, not %s" % type(p).__name__)
    images = {}
    for w, c in p._data.items():
        signed = (c, -c)
        picks = [((), (), 0)]  # (vector word, scalar monomial, parity of -v_i picks)
        for x in w:
            i = abs(x)
            bar = x < 0
            picks = [
                pick
                for word, mono, odd in picks
                for pick in ((word, mono + (i,), odd), (word + (i,), mono, odd ^ bar))
            ]
        for word, mono, odd in picks:
            scalar = images.setdefault(word, {})
            k = signed[odd]
            scalar[mono] = scalar[mono] + k if mono in scalar else k
    return Polynomial._from_monomials(images, p._den)


def normalize_q(p: QPolynomial, n: int | None = None, max_degree: int | None = None) -> Polynomial:
    """Canonical form of a q-polynomial in the (s, v) representation.

    Splits, then normalizes each letter-multiset block against the vector
    rule family on its own letters, so the result depends on neither
    ``n`` nor ``max_degree``.  Both only validate: an index of ``p`` above
    ``n``, or a degree above ``max_degree``, raises ``ValueError``.  Two
    q-polynomials have equal canonical forms exactly when they differ by
    an element of the defining ideal.
    """
    from . import syzygy

    v = split(p)
    top = max(p.indices(), default=0)
    if n is not None and top > n:
        raise ValueError("variable index %d exceeds n=%d" % (top, n))
    if max_degree is not None and p.degree() > max_degree:
        raise ValueError("degree %d exceeds the requested bound %d" % (p.degree(), max_degree))
    return syzygy._normal_form(v)
