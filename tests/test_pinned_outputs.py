"""Pins of the generator families, the closed-form rule families and the
identity corpus.

Each record lists every item in order with its family, indices, choices,
variant, element text and coefficient types, so a rewrite of the
builders that changes any item, its order or how a coefficient is
stored changes the digest.  ``python tests/test_pinned_outputs.py NAME``
prints one record.
"""

import hashlib
import sys

import pytest

from quatpoly.oracle import identity_corpus
from quatpoly.syzygy import _generators, gb_multilinear, gb_vector, gen_quaternion_syzygies


def _types(p):
    return ",".join(type(c).__name__ for c in p.terms.values())


def _generator_lines(gens):
    for g in gens:
        yield "%s %r %r %d | %s | %s" % (
            g.family, g.indices, g.choices, g.variant, g.element, _types(g.element)
        )


def _rule_lines(base):
    yield "degree_bound %r" % (base.degree_bound,)
    for r in base.rules:
        yield "%s %r %d | %r -> %s | %s" % (r.family, r.indices, r.variant, r.lead, r.rhs, _types(r.rhs))


def _quaternion():
    for n in range(2, 6):
        yield "n=%d" % n
        yield from _generator_lines(gen_quaternion_syzygies(n))


def _vector():
    for n in range(2, 7):
        for d in range(7):
            for multilinear in (False, True):
                yield "n=%d d=%d multilinear=%s" % (n, d, multilinear)
                yield from _generator_lines(_generators(n, d, multilinear))


def _gb_vector():
    for n, d in ((3, 3), (4, 6), (5, 5), (6, 7)):
        yield "n=%d d=%d" % (n, d)
        yield from _rule_lines(gb_vector(n, d))


def _gb_multilinear():
    for n in range(1, 8):
        yield "n=%d" % n
        yield from _rule_lines(gb_multilinear(n))


def _corpus():
    for name, p in identity_corpus():
        yield "%s | %s | %s" % (name, p, _types(p))


RECORDS = {
    "gen_quaternion_syzygies": _quaternion,
    "_generators": _vector,
    "gb_vector": _gb_vector,
    "gb_multilinear": _gb_multilinear,
    "identity_corpus": _corpus,
}

PINS = {
    "gen_quaternion_syzygies": "df60b933dd9e0e004711f3ee4de0a6f94879e3aa7911a9400e9b03fe890c4b17",
    "_generators": "d206e71541b2364bfad1ef4b986ce1c2131e910d9de5c84a8b032067713fca91",
    "gb_vector": "d5ba240e46bc63c8472a085fa77d28496c2f00c60de5b7ba02f89066c54ec79f",
    "gb_multilinear": "5d3212dd09c9f1ba3dce6bd14e9467cfb8f95cd49ae0700220f849e50fc88b59",
    "identity_corpus": "c9cf308249945ef474303ae2a8fa4996941a411c3e57318fe416229e4d3fa328",
}


def _digest(name):
    h = hashlib.sha256()
    for line in RECORDS[name]():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_pinned_record(name):
    assert _digest(name) == PINS[name]


if __name__ == "__main__":
    for line in RECORDS[sys.argv[1]]():
        print(line)
