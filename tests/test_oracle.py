import random
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.bch import local_mult
from liecontract.catalog import builtin
from liecontract.errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    NonzeroConstantTerm,
)
from liecontract.jets import Jet, MatrixJet
from liecontract.oracle import Representation

F = Fraction

so3, so3_rep = builtin("so3")
heis3, heis3_rep = builtin("heis3")


def through_zero(rng, alg, depth, trunc):
    return Jet(alg.dim, trunc,
               (linalg.zero_vector(alg.dim),)
               + tuple(linalg.random_vector(rng, alg.dim) for _ in range(depth)))


def test_check_catalogued_representations():
    for name in ("so3", "sl2", "heis3", "iso2", "abelian(3)"):
        alg, rep = builtin(name)
        report = rep.check()
        assert report.ok, f"{name}: {report.summary()}"


def test_check_rejects_zeroed_matrix():
    mats = list(so3_rep.mats)
    mats[2] = linalg.zero_matrix(3)
    report = Representation(so3, tuple(mats)).check()
    assert not report.ok
    assert any(v.kind == "homomorphism" for v in report.violations)


def test_check_reports_dependence():
    mats = (heis3_rep.mats[0], heis3_rep.mats[0], heis3_rep.mats[2])
    report = Representation(heis3, mats).check()
    assert any(v.kind == "independence" for v in report.violations)


def test_exp_of_zero_is_identity():
    assert so3_rep.exp_trunc(Jet.zero(3, 4), 3) == MatrixJet.identity(3, 4)


def test_exp_heis3_nilpotent():
    # the matrix of P squares to zero, so the series stops after the linear term
    p = Jet.make(3, 3, [(0, 0, 0), (1, 0, 0)])
    got = heis3_rep.exp_trunc(p, 2)
    want = MatrixJet(3, 3, (linalg.identity(3), heis3_rep.mats[0]))
    assert got == want


def test_exp_so3_quadratic_term():
    p = Jet.make(3, 3, [(0, 0, 0), (0, 0, 1)])  # eps * X3
    got = so3_rep.exp_trunc(p, 2)
    rho3 = so3_rep.mats[2]
    assert got.coeff(0) == linalg.identity(3)
    assert got.coeff(1) == rho3
    assert got.coeff(2) == linalg.mat_scale(F(1, 2), linalg.mat_mul(rho3, rho3))


def test_exp_requires_zero_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        so3_rep.exp_trunc(Jet.constant(so3.basis_vector(0), 3), 2)


def test_log_of_identity_is_zero():
    assert so3_rep.log_trunc(MatrixJet.identity(3, 4), 3).degree == -1


def test_log_requires_identity_constant_term():
    with pytest.raises(ConstantTermNotIdentity):
        so3_rep.log_trunc(MatrixJet.zero(3, 4), 3)


def test_log_heis3_linear():
    m = MatrixJet(3, 3, (linalg.identity(3), heis3_rep.mats[0]))
    got = heis3_rep.log_trunc(m, 2)
    assert got == MatrixJet(3, 3, (linalg.zero_matrix(3), heis3_rep.mats[0]))


def test_log_exp_round_trip():
    rng = random.Random(1)
    for rep in (so3_rep, heis3_rep):
        for order in (1, 2, 3, 4):
            for _ in range(8):
                p = through_zero(rng, rep.algebra, order, order + 1)
                e = rep.exp_trunc(p, order)
                back = rep.log_trunc(e, order)
                want = MatrixJet(rep.size, order + 1,
                                 tuple(rep.matrix_of(p.coeff(m))
                                       for m in range(order + 1)))
                assert back == want


def test_exp_times_exp_of_negation_is_identity():
    rng = random.Random(2)
    for rep in (so3_rep, heis3_rep):
        for _ in range(8):
            p = through_zero(rng, rep.algebra, 4, 5)
            prod = rep.exp_trunc(p, 4).matmul(rep.exp_trunc(-p, 4))
            assert prod == MatrixJet.identity(rep.size, 5)


def test_oracle_equals_direct_bch():
    rng = random.Random(3)
    for name in ("so3", "heis3", "sl2", "iso2", "abelian(3)"):
        alg, rep = builtin(name)
        for order in (1, 2, 3, 4):
            for _ in range(10):
                p = through_zero(rng, alg, order, order + 1)
                q = through_zero(rng, alg, order, order + 1)
                assert rep.local_mult(p, q, order) == \
                    local_mult(alg, p, q, order)


def test_oracle_abelian_is_addition():
    ab, rep = builtin("abelian(3)")
    rng = random.Random(4)
    p = through_zero(rng, ab, 3, 4)
    q = through_zero(rng, ab, 3, 4)
    assert rep.local_mult(p, q, 3) == p + q


def test_oracle_heis3_second_order_value():
    p = Jet.make(3, 3, [(0, 0, 0), (1, 0, 0)])  # eps * P
    q = Jet.make(3, 3, [(0, 0, 0), (0, 1, 0)])  # eps * Q
    z = heis3_rep.local_mult(p, q, 2)
    assert z.coeff(1) == (F(1), F(1), F(0))
    assert z.coeff(2) == (F(0), F(0), F(1, 2))  # half the bracket of P and Q


def test_decompose_rejects_outside_span():
    off_span = ((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(0)))
    with pytest.raises(DecompositionFailed):
        heis3_rep.decompose(off_span)


def test_non_faithful_rep_rejected_up_front():
    mats = (heis3_rep.mats[0], heis3_rep.mats[0], heis3_rep.mats[2])
    rep = Representation(heis3, mats)
    with pytest.raises(DecompositionFailed):
        rep.require_faithful()


def test_faithfulness_is_checked_once_per_representation(monkeypatch):
    checked = []
    check = Representation.check
    monkeypatch.setattr(Representation, "check", lambda rep: checked.append(rep) or check(rep))
    rng = random.Random(7)
    rep = Representation(so3, so3_rep.mats)
    for _ in range(3):
        p, q = through_zero(rng, so3, 3, 4), through_zero(rng, so3, 3, 4)
        assert rep.local_mult(p, q, 3) == local_mult(so3, p, q, 3)
    assert checked == [rep]
    broken = Representation(heis3, (heis3_rep.mats[0],) * 3)
    for _ in range(2):
        with pytest.raises(DecompositionFailed):
            broken.require_faithful()
    assert checked == [rep, broken]


def numeric_exp(matrix, tol=1e-17, max_terms=80):
    """Plain Taylor partial sums at a small numeric argument."""
    size = len(matrix)
    acc = [[float(i == j) for j in range(size)] for i in range(size)]
    term = [[float(i == j) for j in range(size)] for i in range(size)]
    for k in range(1, max_terms):
        term = [[sum(term[i][l] * float(matrix[l][j]) for l in range(size)) / k
                 for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(size):
                acc[i][j] += term[i][j]
        if max(abs(x) for row in term for x in row) < tol:
            break
    return tuple(tuple(row) for row in acc)


def numeric_product_gap(rep, p, q, z, point):
    """Max componentwise gap between exp(P) exp(Q) and exp(Z) at a numeric point."""
    def float_matrix(jet):
        value = jet.eval_at(F(point))
        return [[float(x) for x in row] for row in rep.matrix_of(value)]

    prod = linalg.mat_mul(numeric_exp(float_matrix(p)), numeric_exp(float_matrix(q)))
    via_z = numeric_exp(float_matrix(z))
    return max(abs(a - b) for ra, rb in zip(prod, via_z) for a, b in zip(ra, rb))


def test_numeric_sampling_gap_is_small():
    rng = random.Random(5)
    for _ in range(5):
        p = through_zero(rng, so3, 4, 5)
        q = through_zero(rng, so3, 4, 5)
        z = local_mult(so3, p, q, 4)
        gap = numeric_product_gap(so3_rep, p, q, z, F(1, 100))
        assert gap <= 1e-8


def test_numeric_sampling_accepts_a_float_point():
    rng = random.Random(6)
    p = through_zero(rng, so3, 4, 5)
    q = through_zero(rng, so3, 4, 5)
    z = local_mult(so3, p, q, 4)
    assert numeric_product_gap(so3_rep, p, q, z, 0.01) <= 1e-8
