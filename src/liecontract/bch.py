"""Truncated Baker-Campbell-Hausdorff products, exact rational coefficients.

local_mult computes log(exp P exp Q) modulo parameter powers beyond the
requested order via the Dynkin series: enumerate exponent blocks
(p1, q1), ..., (pm, qm) with p_i + q_i >= 1, weight each block tuple by
(-1)^(m-1)/m * 1/(total letters) * 1/prod(p_i! q_i!), and evaluate the word
x^p1 y^q1 ... as a nested left bracket [[..[w1, w2], w3]..].  Since both
arguments vanish at 0, a word of length L only contributes from parameter
degree L on, so only words up to the requested order matter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import NonzeroConstantTerm, OrderCapExceeded
from . import linalg
from .jets import Jet, bracket_poly

DEFAULT_ORDER_CAP = 6
# the largest cap the CLI accepts: the word table costs about 3x more per order
# (1.5 s at order 10), and `star so3 --order 9 --order-cap 10` takes about 2 s
# (Python 3.11, one Xeon core)
MAX_ORDER_CAP = 10


@lru_cache(maxsize=None)
def word_coefficients(order):
    """Aggregate Dynkin coefficients by letter word, for lengths 1..order.

    Words whose first two letters agree are dropped: their left-nested
    bracket starts with [w, w] and vanishes identically.  Returned sorted by
    (length, word) for deterministic evaluation.
    """
    table = {}

    def visit(word, length, blocks, fact_prod):
        for p in range(order - length + 1):
            for q in range(order - length - p + 1):
                if p + q == 0:
                    continue
                new_word = word + "x" * p + "y" * q
                new_len = length + p + q
                new_fact = fact_prod * factorial(p) * factorial(q)
                m = blocks + 1
                coeff = Fraction((-1) ** (m - 1), m * new_len * new_fact)
                table[new_word] = table.get(new_word, Fraction(0)) + coeff
                visit(new_word, new_len, m, new_fact)

    visit("", 0, 0, 1)
    kept = {
        w: c for w, c in table.items()
        if c != 0 and not (len(w) >= 2 and w[0] == w[1])
    }
    return tuple(sorted(kept.items(), key=lambda item: (len(item[0]), item[0])))


def check_order(order, cap=None):
    """Raise OrderCapExceeded unless 1 <= order <= cap (None: ``DEFAULT_ORDER_CAP``)."""
    cap = DEFAULT_ORDER_CAP if cap is None else cap
    if order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")
    if order < 1:
        raise OrderCapExceeded("order must be at least 1")


def local_mult(alg, p: Jet, q: Jet, order: int, cap=None) -> Jet:
    """Truncated BCH product of two jets through zero."""
    check_order(order, cap)
    if not linalg.is_zero_vector(p.coeff(0)) or not linalg.is_zero_vector(q.coeff(0)):
        raise NonzeroConstantTerm("local multiplication needs curves through zero")
    trunc = order + 1
    values = {"x": p.truncated(trunc), "y": q.truncated(trunc)}
    acc = Jet.zero(alg.dim, trunc)
    for word, coeff in word_coefficients(order):
        term = _word_value(alg, word, values)
        if term.degree >= 0:
            acc = acc + term.scale(coeff)
    return acc


def _word_value(alg, word, values):
    """Left-nested bracket of ``word``'s letters, memoised by prefix in ``values``.

    ``values`` maps the letters "x" and "y" to their jets and collects every
    evaluated prefix.  A module-level function, not a closure, so the cache
    is freed as soon as the caller drops it instead of waiting for the cyclic
    collector.
    """
    cached = values.get(word)
    if cached is None:
        cached = bracket_poly(alg, _word_value(alg, word[:-1], values), values[word[-1]])
        values[word] = cached
    return cached
