import gc
import math
import random
import timeit
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from liecontract import bch, linalg
from liecontract.algebra import LieAlgebra
from liecontract.bch import DEFAULT_ORDER_CAP, local_mult, word_coefficients
from liecontract.catalog import builtin
from liecontract.errors import NonzeroConstantTerm, OrderCapExceeded
from liecontract.jets import Jet
from references import (
    reference_dynkin_local_mult,
    reference_terms,
    reference_word_coefficients,
    through_zero,
)

F = Fraction

so3, so3_rep = builtin("so3")
heis3, heis3_rep = builtin("heis3")


def test_word_table_low_orders():
    table = dict(word_coefficients(2))
    assert table["x"] == 1
    assert table["y"] == 1
    assert table["xy"] + table["yx"] == 0
    assert table["xy"] == F(1, 2) - F(1, 4)  # aggregated across block shapes


@pytest.mark.parametrize("order", range(1, 10))
def test_word_table_matches_block_sequences(order):
    """The per-word build gives the block-sequence table, words, order and
    Fractions alike (order 10 is left out: the reference takes about 1 s)."""
    assert word_coefficients(order) == reference_word_coefficients(order)


def test_word_table_builds_fast_at_the_largest_cap():
    """At ``MAX_ORDER_CAP`` the uncached build takes milliseconds, far under
    the 0.1 s bound (best of three, against a busy host)."""
    build = word_coefficients.__wrapped__
    best = min(timeit.timeit(lambda: build(bch.MAX_ORDER_CAP), number=1) for _ in range(3))
    assert best < 0.1
    assert build(bch.MAX_ORDER_CAP) == word_coefficients(bch.MAX_ORDER_CAP)


def test_second_order_closed_form():
    # eps*c1 times eps*d1 is eps*(c1+d1) + eps^2 * [c1,d1]/2
    rng = random.Random(6)
    for _ in range(20):
        c1 = linalg.random_vector(rng, 3)
        d1 = linalg.random_vector(rng, 3)
        p = Jet(3, 3, (linalg.zero_vector(3), c1))
        q = Jet(3, 3, (linalg.zero_vector(3), d1))
        z = local_mult(so3, p, q, 2)
        assert z.coeff(1) == linalg.vec_add(c1, d1)
        assert z.coeff(2) == linalg.vec_scale(F(1, 2), so3.bracket(c1, d1))


def test_third_order_coefficients_on_so3():
    # z3 = [x,[x,y]]/12 + [y,[y,x]]/12 evaluated at x = eps*X1, y = eps*X2
    p = Jet(3, 4, [(0, 0, 0), (1, 0, 0)])
    q = Jet(3, 4, [(0, 0, 0), (0, 1, 0)])
    z = local_mult(so3, p, q, 3)
    assert z.coeff(1) == (F(1), F(1), F(0))
    assert z.coeff(2) == (F(0), F(0), F(1, 2))
    assert z.coeff(3) == (F(-1, 12), F(-1, 12), F(0))
    # cross-checked against the independent matrix route
    assert z == so3_rep.local_mult(p, q, 3)


def test_third_order_heis3_against_matrix_oracle():
    rng = random.Random(7)
    for _ in range(10):
        p = through_zero(rng, heis3, 3, 4)
        q = through_zero(rng, heis3, 3, 4)
        assert local_mult(heis3, p, q, 3) == heis3_rep.local_mult(p, q, 3)


def test_right_and_left_identity():
    rng = random.Random(8)
    zero = Jet.zero(3, 5)
    for _ in range(10):
        p = through_zero(rng, so3, 4, 5)
        assert local_mult(so3, p, zero, 4) == p
        assert local_mult(so3, zero, p, 4) == p


def test_abelian_reduces_to_addition():
    ab = builtin("abelian(4)")[0]
    rng = random.Random(9)
    for order in (1, 2, 3, 4, 5, 6):
        p = through_zero(rng, ab, order, order + 1)
        q = through_zero(rng, ab, order, order + 1)
        assert local_mult(ab, p, q, order) == p + q


def test_inverse_is_negation():
    rng = random.Random(10)
    for _ in range(10):
        p = through_zero(rng, so3, 4, 5)
        assert local_mult(so3, p, -p, 4).degree == -1


def test_degree_filtration():
    # arguments with valuations 2 and 3: the product has no degree-<2 terms
    # and its bracket corrections start at degree 5
    rng = random.Random(11)
    p = through_zero(rng, so3, 1, 7).shift(1)   # valuation 2
    q = through_zero(rng, so3, 1, 7).shift(2)   # valuation 3
    z = local_mult(so3, p, q, 6)
    for m in range(2):
        assert linalg.is_zero_vector(z.coeff(m))
    linear = p + q
    for m in range(5):
        assert z.coeff(m) == linear.coeff(m)


def test_local_mult_leaves_no_cyclic_garbage():
    rng = random.Random(12)
    p = through_zero(rng, so3, 5, 6)
    q = through_zero(rng, so3, 5, 6)
    want = local_mult(so3, p, q, 5)  # warms the word table
    gc.collect()
    gc.disable()
    try:
        assert local_mult(so3, p, q, 5) == want
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nonzero_constant_term_rejected():
    p = Jet.constant(so3.basis_vector(0), 3)
    with pytest.raises(NonzeroConstantTerm):
        local_mult(so3, p, Jet.zero(3, 3), 2)


def test_local_mult_returns_a_lazy_jet_on_exact_input():
    """Exact jets, eager or lazy, multiply into a jet that keeps the sum's
    numerators and builds its coefficients on their first read; neither
    factor's coefficients are built.  Float input gives a jet that keeps
    its values over the float 1.0, its coefficients a view as well."""
    rng = random.Random(15)
    for alg in (so3, heis3):
        p, q = (through_zero(rng, alg, 4, 5) for _ in range(2))
        lazy = Jet.from_numerators(alg.dim, 5, *p.numerators)
        z = local_mult(alg, lazy, q, 4)
        assert "coeffs" not in z.__dict__ and "coeffs" not in lazy.__dict__
        assert z.numerators == linalg.numerators(z.coeffs)
        assert "coeffs" in z.__dict__
        assert z == reference_dynkin_local_mult(alg, p, q, 4)
        with pytest.raises(NonzeroConstantTerm):
            local_mult(alg, Jet.from_numerators(alg.dim, 5, [(0, 1, 0)], 3), q, 4)
        floats = Jet(alg.dim, 5, [(0.0, 0.0, 0.0), (0.5, -0.0, 1.0)])
        z = local_mult(alg, floats, q, 4)
        assert type(z.numerators[1]) is float and "coeffs" not in z.__dict__


def test_a_zero_prefix_is_not_bracketed(monkeypatch):
    """Every word that starts with a zero prefix is zero: ``local_mult`` never
    hands ``bracket_poly`` a zero left operand, on exact or on float jets, and
    its exact sum stays that of the words bracketed one by one (the float
    bits are pinned by the star tests)."""
    left_degrees = []
    bracketed = bch.bracket_poly

    def checked(alg, p, q):
        left_degrees.append(p.degree)
        return bracketed(alg, p, q)

    monkeypatch.setattr(bch, "bracket_poly", checked)
    rng = random.Random(16)
    for alg in (so3, heis3):
        for order in range(1, 7):
            p, q = (through_zero(rng, alg, order, order + 1) for _ in range(2))
            floats = Jet(alg.dim, order + 1, [tuple(float(x) for x in c) for c in p.coeffs])
            want = reference_dynkin_local_mult(alg, p, q, order)
            assert local_mult(alg, p, q, order) == want
            got = local_mult(alg, floats, q, order)
            assert all(abs(x - y) < 1e-9 for c in range(order + 1)
                       for x, y in zip(got.coeff(c), want.coeff(c)))
    assert left_degrees and min(left_degrees) >= 0
    # heis3 at order 6 has words with a zero prefix, as [[x, y], x] is central
    values = {word: term for (word, _), (_, term) in
              zip(word_coefficients(6), reference_terms(heis3, p, q, 6))}
    assert any(word[:-1] in values and values[word[:-1]].degree < 0 for word in values)


def test_order_cap():
    zero = Jet.zero(3, 9)
    with pytest.raises(OrderCapExceeded):
        local_mult(so3, zero, zero, DEFAULT_ORDER_CAP + 1)
    assert local_mult(so3, zero, zero, DEFAULT_ORDER_CAP + 1, cap=8).degree == -1
    with pytest.raises(OrderCapExceeded):
        local_mult(so3, zero, zero, 0)


def test_matrix_oracle_agreement_high_order():
    # one deep sample per algebra at the default cap
    rng = random.Random(12)
    for name in ("so3", "heis3", "sl2"):
        alg, rep = builtin(name)
        p = through_zero(rng, alg, 6, 7)
        q = through_zero(rng, alg, 6, 7)
        assert local_mult(alg, p, q, 6) == rep.local_mult(p, q, 6)


def test_each_jet_is_scaled_to_numerators_once(monkeypatch):
    calls = {"numerators": 0, "bracket_poly": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "numerators", counted("numerators", linalg.numerators))
    monkeypatch.setattr(bch, "bracket_poly", counted("bracket_poly", bch.bracket_poly))
    rng = random.Random(13)
    p = through_zero(rng, so3, 6, 7)
    q = through_zero(rng, so3, 6, 7)
    local_mult(so3, p, q, 6)
    assert calls["bracket_poly"] > 2
    assert calls["numerators"] <= calls["bracket_poly"] + 2


def test_word_values_stay_on_numerators(monkeypatch):
    """Every word value is bracketed and summed on its numerators: local_mult
    divides only its output, at most one call per coefficient."""
    rng = random.Random(14)
    p = through_zero(rng, so3, 6, 7)
    q = through_zero(rng, so3, 6, 7)
    want = local_mult(so3, p, q, 6)
    calls = []
    from_numerators = linalg.from_numerators

    def counted(v, den):
        calls.append(v)
        return from_numerators(v, den)

    monkeypatch.setattr(linalg, "from_numerators", counted)
    got = local_mult(so3, p, q, 6)
    assert len(calls) <= 7
    assert got == want == so3_rep.local_mult(p, q, 6)


def test_exact_meets_float_in_floats():
    """An exact jet with a huge denominator and a float jet sum in floats, without overflow."""
    abelian = builtin("abelian(3)")[0]
    p = Jet(3, 4, [(0, 0, 0), (F(1, 3 ** 700), 0, 0)])
    q = Jet(3, 4, [(0, 0, 0), (0.5, 0, 0)])
    for a, b in ((p, q), (q, p)):
        for order in (1, 3):
            assert local_mult(abelian, a, b, order).coeff(1) == (0.5, 0, 0)
    p = Jet(3, 4, [(0, 0, 0), (F(1, 3 ** 700), F(1, 3), 2), (0, F(-2, 7), 0)])
    q = Jet(3, 4, [(0, 0, 0), (0.5, -1.25, 3.0), (0.0, 0.75, 0.0)])
    got = local_mult(so3, p, q, 3)
    want = reference_dynkin_local_mult(so3, p, q, 3)
    for k in range(4):
        for a, b in zip(got.coeff(k), want.coeff(k)):
            assert type(a) is type(b) and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


# rational scales of the catalogued brackets, and tensor entries with mixed
# and large denominators
SCALES = (F(1), F(1, 2), F(-3, 7))
CONSTANTS = (0, 0, 1, -1, F(1, 2), F(-2, 3), F(5, 6), F(7, 10 ** 9 + 7), F(-10 ** 20, 3 ** 13))
INTEGERS = (0, 0, 1, -1, 2, -3)
ENTRIES = (0, 0, 3, -1, F(1, 2), F(-5, 7), F(2 ** 64 + 1, 3 ** 41), F(1, 10 ** 18 + 9))
FLOATS = (0.0, -0.0, 1.0, -1.5, 0.1, 3.25, -1e-3, 2.5e-8, 123456.789)


@st.composite
def bch_algebras(draw):
    """(algebra, whether its tensor is integral)."""
    kind = draw(st.sampled_from(("lie", "antisymmetric", "integer")))
    if kind == "lie":
        base = builtin(draw(st.sampled_from(("so3", "sl2", "heis3"))))[0]
        s = draw(st.sampled_from(SCALES))
        tensor = tuple(tuple(tuple(s * x for x in row) for row in plane)
                       for plane in base.structure)
        return LieAlgebra(3, base.basis_names, tensor), s.denominator == 1
    n = draw(st.integers(1, 5))
    values = st.sampled_from(INTEGERS if kind == "integer" else CONSTANTS).map(F)
    f = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                f[a][b][c] = draw(values)
                f[b][a][c] = -f[a][b][c]
    alg = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)),
                     tuple(tuple(tuple(r) for r in plane) for plane in f))
    return alg, kind == "integer"


def bch_jet(draw, n, trunc, entries):
    """A jet through zero: random length, one coefficient in three a zero vector."""
    coeffs = [(0,) * n]
    for _ in range(draw(st.integers(0, trunc - 1))):
        zero = draw(st.sampled_from((True, False, False)))
        coeffs.append((0,) * n if zero else draw(st.tuples(*[st.sampled_from(entries)] * n)))
    return Jet(n, trunc, coeffs)


@st.composite
def bch_cases(draw):
    """(algebra, order, two exact jets, two float jets or None): float jets
    only on an algebra whose tensor is integral."""
    alg, integral = draw(bch_algebras())
    order = draw(st.integers(1, 6))
    n, trunc = alg.dim, order + 1
    exact = tuple(bch_jet(draw, n, trunc, ENTRIES) for _ in range(2))
    floats = tuple(bch_jet(draw, n, trunc, FLOATS) for _ in range(2)) if integral else None
    return alg, order, exact, floats


def component_key(p):
    return [[type(x) for x in c] for c in p.coeffs]


# [X3, X4] = X3 at order 6: the float terms of coefficient 5 cancel at X3, so it is 0.0
Z4 = (0,) * 4
CANCELLING_FLOATS = (
    LieAlgebra.from_brackets(4, ("X1", "X2", "X3", "X4"), [(2, 3, 2, 1)]), 6,
    (Jet(4, 7, (Z4, Z4, (0, 0, 1, 1))), Jet(4, 7, (Z4, (0, 0, 0, 1), (0, 0, 1, 1)))),
    (Jet(4, 7, (Z4, Z4, (0.0, 0.0, 1.0, 1.0))),
     Jet(4, 7, (Z4, (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 1.0)))))


@settings(max_examples=120, deadline=None)
@example(CANCELLING_FLOATS)
@given(bch_cases())
def test_integer_sum_matches_fraction_reference(case):
    alg, order, (p, q), floats = case
    n = alg.dim
    trunc = order + 1
    got = local_mult(alg, p, q, order)
    want = reference_dynkin_local_mult(alg, p, q, order)
    assert got == want
    assert component_key(got) == component_key(want)
    if floats is None:
        return
    # the numeric mode: floats over 1 through the same integer sum
    u, v = floats
    got = local_mult(alg, u, v, order)
    want = reference_dynkin_local_mult(alg, u, v, order)
    assert component_key(got) == component_key(want)
    if order == 1:  # every coefficient is 1: the same sums, bit for bit
        assert repr(got) == repr(want)
        return
    # the integer sum rounds where the Fraction sum rounded c * x: compare
    # within 1e-12 of the summed term sizes
    size = [[0.0] * n for _ in range(trunc)]
    for coeff, term in reference_terms(alg, u, v, order):
        for k, c in enumerate(term.coeffs):
            size[k] = [s + abs(coeff * x) for s, x in zip(size[k], c)]
    for k in range(trunc):
        for a, b, s in zip(got.coeff(k), want.coeff(k), size[k]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * s)
