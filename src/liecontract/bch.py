"""Truncated Baker-Campbell-Hausdorff products, exact rational coefficients.

local_mult computes log(exp P exp Q) modulo parameter powers beyond the
requested order via the Dynkin series: enumerate exponent blocks
(p1, q1), ..., (pm, qm) with p_i + q_i >= 1, weight each block tuple by
(-1)^(m-1)/m * 1/(total letters) * 1/prod(p_i! q_i!), and evaluate the word
x^p1 y^q1 ... as a nested left bracket [[..[w1, w2], w3]..].  Since both
arguments vanish at 0, a word of length L only contributes from parameter
degree L on, so only words up to the requested order matter.

The sum runs on integers: each word's value comes as integer numerators over
one denominator (``Jet.numerators``), and every term is brought to the least
common denominator of all words.  On exact jets every prefix value, and the
sum, is a ``Jet.from_numerators`` whose Fraction coefficients nobody reads;
values and constant terms are tested for zero on numerators, and the caller
(``ExpansionGroup.star``) makes one Fraction per entry it returns.  Float
jets (the numeric mode) come over 1 and go through the same loop, so a float
result is the sum of (integer multiple) * value, divided once by the common
denominator.  A row of exact zeros (the constant slot of a float jet) is
skipped, not multiplied.
At order 1 every coefficient is 1 and that is exactly x + y; at higher
orders it may differ in the last bit from summing float(coefficient) * value.
When one jet is exact and the other holds a float, the exact values are
rounded to floats before they meet (``linalg.floats_if_mixed``), so the
whole sum runs in floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .errors import NonzeroConstantTerm, OrderCapExceeded
from . import linalg
from .jets import Jet, bracket_poly

DEFAULT_ORDER_CAP = 6
# the largest cap the CLI accepts: the word table costs about 3x more per order
# (0.7-1.5 s at order 10, as the host's speed drifts), and
# `star so3 --order 9 --order-cap 10` takes 0.8-1.5 s, nearly all of it that
# table (Python 3.11, one Xeon core)
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
    """Truncated BCH product of two jets through zero; on exact jets, a
    ``Jet.from_numerators`` of the sum."""
    check_order(order, cap)
    if any(rows and any(rows[0]) for rows, _ in (p.numerators, q.numerators)):
        raise NonzeroConstantTerm("local multiplication needs curves through zero")
    trunc = order + 1
    values = {"x": p.truncated(trunc), "y": q.truncated(trunc)}
    words = []  # (coefficient, numerators of the word's value) for nonzero values
    for word, coeff in word_coefficients(order):
        pair = _word_value(alg, word, values).numerators
        if pair[0]:
            words.append((coeff, pair))
    # read before floats_if_mixed, which hands float values back over an int 1
    exact = all(type(den) is int for _, (_, den) in words)
    pairs = linalg.floats_if_mixed([pair for _, pair in words])
    # (numerator rows, coefficient numerator, denominator of both)
    terms = [(rows, coeff.numerator, coeff.denominator * den)
             for (coeff, _), (rows, den) in zip(words, pairs)]
    common = lcm(*(d for _, _, d in terms))
    acc = [[0] * alg.dim for _ in range(trunc)]
    for rows, num, d in terms:
        s = num * (common // d)
        for k, row in enumerate(rows):
            if any(row) or not exact and float in map(type, row):  # exact zeros add nothing
                acc[k] = [a + s * x for a, x in zip(acc[k], row)]
    if exact:
        return Jet.from_numerators(alg.dim, trunc, acc, common)
    return Jet(alg.dim, trunc, tuple(linalg.from_numerators(v, common) for v in acc))


def _word_value(alg, word, values):
    """Left-nested bracket of ``word``'s letters, memoised by prefix in ``values``.

    ``values`` maps the letters "x" and "y" to their jets and collects every
    evaluated prefix.  A zero prefix is the value of every word it starts, so
    it is stored as that value with no bracket.  A module-level function, not
    a closure, so the cache is freed as soon as the caller drops it instead of
    waiting for the cyclic collector.
    """
    cached = values.get(word)
    if cached is None:
        prefix = _word_value(alg, word[:-1], values)
        cached = prefix if prefix.degree < 0 else bracket_poly(alg, prefix, values[word[-1]])
        values[word] = cached
    return cached
