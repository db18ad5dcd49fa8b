"""The benchmark's engine-free parts: input sizes, the seeded expression
stream and the reference task.

``worker.py`` uses them before it imports the engine, so that neither the
stream's generation nor the reference task counts as set-up.
"""

from __future__ import annotations

import random
import re
import time

SIZES = {
    "full": {
        "confluence": {"vector": [(6, 6), (5, 7)], "multilinear": [6]},
        "completion": {"cases": [(5, 6), (6, 5)]},
        # 1300 items keep the gb_vector(6,7) memo at about 39k-41k entries
        # for every seed, clear of the dict resize at 43690, which would
        # otherwise split peak_rss_mb across seeds by 3 MB.
        "normal_forms": {"items": 1300, "v": (6, 7), "q": (5, 5), "samples": 24},
        "oracle_audit": {
            "corpus": None,
            "trials": 100,
            "perturbed": 24,
            "dims": [(3, 5, None), (2, 8, None), (4, 4, None), (4, 6, (1, 1, 2, 2, 3, 4))],
        },
    },
    "tiny": {
        "confluence": {"vector": [(3, 4)], "multilinear": [4]},
        "completion": {"cases": [(3, 4)]},
        "normal_forms": {"items": 60, "v": (4, 4), "q": (3, 3), "samples": 6},
        "oracle_audit": {
            "corpus": 30,
            "trials": 20,
            "perturbed": 4,
            "dims": [(2, 4, None), (3, 3, None)],
        },
    },
}


# The host's speed drifts by up to 1.7x in phases of seconds to minutes,
# and wall and CPU time drift together.  A fixed pure-Python task, run
# next to the timed work, tracks that speed, and dividing the work's time
# by the task's time around it cancels most of the drift.
REFERENCE_ITERATIONS = 100_000
REFERENCE_EVERY_S = 0.5
# Set-up time is reported in seconds on a host where the reference task
# takes this long, which is close to its median time on the baseline host.
REFERENCE_NOMINAL_S = 0.034


def reference_task():
    """Fixed dict-and-tuple work, the engine's kind of work without the
    engine."""
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return len(table)


def reference_seconds():
    """Wall time of one run of the reference task."""
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


# The stream's templates come from this fixed seed: which items are v- or
# q-expressions or repeats, their terms, degrees, operators and letter
# patterns.  The run's seed relabels each template's letters by an
# order-preserving map into 1..n and picks which earlier item each repeat
# copies.  Normalization is invariant under order-preserving relabeling, so
# every seed asks for nearly the same work, on different letters.
SHAPE_SEED = 20130122
# At most this many two-word factors per term, which bounds the words one
# item expands to and keeps the stream's cost from resting on a few items.
MAX_EXPANDING = 2

_LETTER = re.compile(r"([vsq])(\d+)")


def _v_factor(rng, n, budget, expand):
    """One factor of a v-expression over v1..vn and its degree, at most
    ``budget``.  Without ``expand`` the factor is a single word."""
    i, j, k = (rng.randint(1, n) for _ in range(3))
    roll = rng.random()
    if expand and budget >= 2 and roll < 0.12:
        return "cross(v%d,v%d)" % (i, j), 2
    if expand and budget >= 3 and roll < 0.22:
        return "S(v%d*v%d*v%d)" % (i, j, k), 3
    if expand and budget >= 2 and roll < 0.30:
        return "A(v%d*v%d)" % (i, j), 2
    if budget >= 2 and roll < 0.36:
        return "rev(v%d*v%d)" % (i, j), 2
    if expand and roll < 0.46:
        return "(v%d - v%d)" % (i, j), 1
    return "v%d" % i, 1


def _coeff(rng):
    return rng.choice(["", "", "", "2*", "1/2*", "3/4*", "3*"])


def v_expression(rng, n, max_degree):
    """A random expression over v1..vn (occasionally with a central
    symbol) whose every term has degree between 3 and ``max_degree``."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        target = rng.randint(3, max_degree)
        factors, degree, expanding = [], 0, 0
        while degree < target:
            text, d = _v_factor(rng, n, target - degree, expanding < MAX_EXPANDING)
            factors.append(text)
            degree += d
            expanding += text[0] in "cSA("
        if rng.random() < 0.1:
            factors.insert(0, "s%d" % rng.randint(1, n))
        terms.append(_coeff(rng) + "*".join(factors))
    return _join_terms(rng, terms)


def q_expression(rng, n, max_degree):
    """A random expression over q1..qn and their conjugates whose every
    term has degree between 2 and ``max_degree``."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        letters = [
            "q%d%s" % (rng.randint(1, n), "'" if rng.random() < 0.4 else "")
            for _ in range(rng.randint(2, max_degree))
        ]
        body = "*".join(letters)
        roll = rng.random()
        if roll < 0.15:
            body = "S(%s)" % body
        elif roll < 0.3:
            body = "A(%s)" % body
        terms.append(_coeff(rng) + body)
    return _join_terms(rng, terms)


def _join_terms(rng, terms):
    out = ("-" if rng.random() < 0.3 else "") + terms[0]
    for t in terms[1:]:
        out += (" - " if rng.random() < 0.5 else " + ") + t
    return out


def relabel(text, n, rng):
    """Map the letter indices of ``text`` into 1..n by a random
    order-preserving injection, separately for central symbols."""
    used = {}
    for kind, idx in _LETTER.findall(text):
        used.setdefault(kind == "s", set()).add(int(idx))
    new = {}
    for central, idxs in used.items():
        old = sorted(idxs)
        for a, b in zip(old, sorted(rng.sample(range(1, n + 1), len(old)))):
            new[central, a] = b
    return _LETTER.sub(lambda m: m[1] + str(new[m[1] == "s", int(m[2])]), text)


def expression_stream(seed, count, v_shape, q_shape):
    """``count`` expression texts: about 80% v-expressions over v1..vn of
    degree <= d for ``v_shape = (n, d)``, 20% q-expressions likewise for
    ``q_shape``, and about 40% exact repeats of an earlier item.
    Returns ``(texts, first)`` where ``first[i]`` is the index of the
    first occurrence of ``texts[i]``."""
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    texts, first, seen = [], [], {}
    for i in range(count):
        if i and shapes.random() < 0.4:
            text = texts[rng.randrange(i)]
        elif shapes.random() < 0.8:
            text = relabel(v_expression(shapes, *v_shape), v_shape[0], rng)
        else:
            text = relabel(q_expression(shapes, *q_shape), q_shape[0], rng)
        texts.append(text)
        first.append(seen.setdefault(text, i))
    return texts, first
