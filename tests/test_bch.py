import gc
import random
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.bch import DEFAULT_ORDER_CAP, local_mult, word_coefficients
from liecontract.catalog import builtin
from liecontract.errors import NonzeroConstantTerm, OrderCapExceeded
from liecontract.jets import Jet

F = Fraction

so3, so3_rep = builtin("so3")
heis3, heis3_rep = builtin("heis3")


def through_zero(rng, alg, depth, trunc):
    return Jet(alg.dim, trunc,
               (linalg.zero_vector(alg.dim),)
               + tuple(linalg.random_vector(rng, alg.dim) for _ in range(depth)))


def test_word_table_low_orders():
    table = dict(word_coefficients(2))
    assert table["x"] == 1
    assert table["y"] == 1
    assert table["xy"] + table["yx"] == 0
    assert table["xy"] == F(1, 2) - F(1, 4)  # aggregated across block shapes


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
    p = Jet.make(3, 4, [(0, 0, 0), (1, 0, 0)])
    q = Jet.make(3, 4, [(0, 0, 0), (0, 1, 0)])
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
