import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.bch import local_mult
from liecontract.catalog import builtin
from liecontract.errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    DimensionMismatch,
    NonzeroConstantTerm,
)
from liecontract.jets import Jet, MatrixJet, _cauchy
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
    p = Jet(3, 3, [(0, 0, 0), (1, 0, 0)])
    got = heis3_rep.exp_trunc(p, 2)
    want = MatrixJet(3, 3, (linalg.identity(3), heis3_rep.mats[0]))
    assert got == want


def test_exp_so3_quadratic_term():
    p = Jet(3, 3, [(0, 0, 0), (0, 0, 1)])  # eps * X3
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
    p = Jet(3, 3, [(0, 0, 0), (1, 0, 0)])  # eps * P
    q = Jet(3, 3, [(0, 0, 0), (0, 1, 0)])  # eps * Q
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


# ----- the integer route against the Fraction loops it replaced ---------------
#
# ``exp_trunc``, ``log_trunc``, ``decompose`` and ``check`` used to multiply
# and sum Fraction matrices.  The references below are those loops, with the
# Fraction matrix product of the jets spelled out, so that nothing in them
# runs on integer numerators.

def reference_matrix_of(rep, v):
    acc = linalg.zero_matrix(rep.size)
    for c, m in zip(v, rep.mats):
        if c:
            acc = linalg.mat_add(acc, linalg.mat_scale(c, m))
    return acc


def reference_matmul(a, b):
    return MatrixJet(a.size, a.trunc, _cauchy(a.coeffs, b.coeffs, a.trunc, linalg.mat_mul,
                                              linalg.mat_add, linalg.zero_matrix(a.size)))


def reference_exp(rep, p, order):
    if not linalg.is_zero_vector(p.coeff(0)):
        raise NonzeroConstantTerm("exponential input must vanish at 0")
    trunc = order + 1
    arg = MatrixJet(rep.size, trunc, tuple(reference_matrix_of(rep, p.coeff(m))
                                           for m in range(min(p.trunc, trunc))))
    acc = power = MatrixJet.identity(rep.size, trunc)
    fact = 1
    for m in range(1, order + 1):
        power = reference_matmul(power, arg)
        if power.degree < 0:
            break
        fact *= m
        acc = acc + power.scale(F(1, fact))
    return acc


def reference_log(m, order):
    if m.coeff(0) != linalg.identity(m.size):
        raise ConstantTermNotIdentity("logarithm input must start at the identity")
    trunc = order + 1
    shifted = MatrixJet(m.size, trunc, m.coeffs[:trunc]) - MatrixJet.identity(m.size, trunc)
    acc = MatrixJet.zero(m.size, trunc)
    power = MatrixJet.identity(m.size, trunc)
    for k in range(1, order + 1):
        power = reference_matmul(power, shifted)
        if power.degree < 0:
            break
        acc = acc + power.scale(F((-1) ** (k + 1), k))
    return acc


def reference_decompose(rep, matrix):
    columns = [tuple(x for row in m for x in row) for m in rep.mats]
    [sol] = linalg.solve_in_basis(columns, [tuple(x for row in matrix for x in row)])
    if sol is None:
        raise DecompositionFailed("matrix lies outside the representation span")
    return sol


def reference_local_mult(rep, p, q, order):
    z = reference_log(reference_matmul(reference_exp(rep, p, order),
                                       reference_exp(rep, q, order)), order)
    return Jet(rep.algebra.dim, order + 1,
               tuple(reference_decompose(rep, z.coeff(m)) for m in range(order + 1)))


def reference_homomorphism_failures(rep):
    alg = rep.algebra
    return [(a, b) for a in range(alg.dim) for b in range(a + 1, alg.dim)
            if linalg.mat_sub(linalg.mat_mul(rep.mats[a], rep.mats[b]),
                              linalg.mat_mul(rep.mats[b], rep.mats[a]))
            != reference_matrix_of(rep, alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))]


def rebased_so3_rep():
    """so3's matrices conjugated by a rational P: fractional entries, still a representation."""
    p = ((F(1), F(1, 2), F(0)), (F(0), F(1), F(1, 3)), (F(2, 5), F(0), F(1)))
    pinv = linalg.invert(p)
    return Representation(so3, tuple(linalg.mat_mul(linalg.mat_mul(pinv, m), p)
                                     for m in so3_rep.mats))


REPS = [builtin(name)[1] for name in ("so3", "sl2", "heis3", "iso2")] + [rebased_so3_rep()]

fraction_st = st.fractions(-6, 6, max_denominator=7)


@st.composite
def oracle_jets(draw, dim, order):
    """A jet through zero, stored with up to ``order`` + 2 coefficients, with a
    truncation order of its own and zero coefficients anywhere, the last
    stored ones included: often fewer stored coefficients than order + 1."""
    stored = draw(st.integers(1, order + 2))
    trunc = draw(st.integers(stored, order + 3))
    coeffs = [(F(0),) * dim] + [
        draw(st.one_of(st.just((F(0),) * dim), st.tuples(*[fraction_st] * dim)))
        for _ in range(stored - 1)]
    return Jet(dim, trunc, tuple(coeffs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_matches_the_fraction_loops(data):
    rep = data.draw(st.sampled_from(REPS))
    order = data.draw(st.integers(1, 8))
    p = data.draw(oracle_jets(rep.algebra.dim, order))
    q = data.draw(oracle_jets(rep.algebra.dim, order))
    ep, eq = rep.exp_trunc(p, order), rep.exp_trunc(q, order)
    want_ep = reference_exp(rep, p, order)
    assert ep == want_ep and repr(ep.coeffs) == repr(want_ep.coeffs)
    prod, want_prod = ep.matmul(eq), reference_matmul(want_ep, reference_exp(rep, q, order))
    assert prod == want_prod and repr(prod.coeffs) == repr(want_prod.coeffs)
    z, want_z = rep.log_trunc(prod, order), reference_log(want_prod, order)
    assert z == want_z and repr(z.coeffs) == repr(want_z.coeffs)
    got, want = rep.local_mult(p, q, order), reference_local_mult(rep, p, q, order)
    assert got == want and repr(got.coeffs) == repr(want.coeffs)
    assert got == local_mult(rep.algebra, p, q, order, cap=8)


def test_trimmed_jets_keep_their_truncation_order():
    # p stores 2 coefficients at trunc 2, far below order + 1 = 6: the
    # represented argument and every power still run to degree 5
    p = Jet(3, 2, [(0, 0, 0), (1, 0, 0)])
    q = Jet(3, 7, [(0, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0)])
    for rep in REPS:
        if rep.algebra is not so3:
            continue
        got = rep.exp_trunc(q, 5)
        assert got.trunc == 6 and got == reference_exp(rep, q, 5)
        assert got.degree == reference_exp(rep, q, 5).degree == 5  # X2 is not nilpotent
        assert rep.exp_trunc(p, 5) == reference_exp(rep, p, 5)
        assert rep.local_mult(p, q, 5) == reference_local_mult(rep, p, q, 5)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decompose_matches_solve_in_basis(data):
    rep = data.draw(st.sampled_from(REPS + [Representation(heis3, (heis3_rep.mats[0],) * 2
                                                            + (heis3_rep.mats[2],))]))
    v = data.draw(st.tuples(*[fraction_st] * rep.algebra.dim))
    matrix = reference_matrix_of(rep, v)
    assert rep.matrix_of(v) == matrix and repr(rep.matrix_of(v)) == repr(matrix)
    got, want = rep.decompose(matrix), reference_decompose(rep, matrix)
    assert repr(got) == repr(want)  # on the dependent model, 0 on the repeated matrix
    # one entry bumped, solved or not: in the span or off it, as the reference finds
    i, j = data.draw(st.integers(0, rep.size - 1)), data.draw(st.integers(0, rep.size - 1))
    bumped = tuple(tuple(x + F(1, 3) if (r, c) == (i, j) else x for c, x in enumerate(row))
                   for r, row in enumerate(matrix))

    def outcome(decompose):
        try:
            return repr(decompose(bumped))
        except DecompositionFailed as err:
            return str(err)

    assert outcome(rep.decompose) == outcome(lambda m: reference_decompose(rep, m))


def test_decompose_checks_the_entries_it_does_not_solve_on():
    # a matrix that agrees with a span element on the solved entries and
    # leaves the span in another entry only
    for rep in REPS:
        _, _, rows, _, _ = rep._solver
        solved = {divmod(i, rep.size) for i in rows}
        base = reference_matrix_of(rep, (F(1, 2),) + (F(-2),) * (rep.algebra.dim - 1))
        others = [(r, c) for r in range(rep.size) for c in range(rep.size)
                  if (r, c) not in solved]
        assert others
        for r0, c0 in others:
            off = tuple(tuple(x + 1 if (r, c) == (r0, c0) else x for c, x in enumerate(row))
                        for r, row in enumerate(base))
            with pytest.raises(DecompositionFailed):
                rep.decompose(off)


def test_check_matches_the_fraction_commutators():
    rng = random.Random(11)
    cases = list(REPS)
    for rep in REPS:  # break one matrix at a time, at one entry
        for a in range(rep.algebra.dim):
            mats = list(rep.mats)
            r, c = rng.randrange(rep.size), rng.randrange(rep.size)
            mats[a] = tuple(tuple(x + F(1, 2) if (i, j) == (r, c) else x
                                  for j, x in enumerate(row)) for i, row in enumerate(mats[a]))
            cases.append(Representation(rep.algebra, tuple(mats)))
    for rep in cases:
        report = rep.check()
        alg = rep.algebra
        assert [v.location for v in report.violations if v.kind == "homomorphism"] == [
            (alg.basis_names[a], alg.basis_names[b])
            for a, b in reference_homomorphism_failures(rep)]
        assert report.checks == alg.dim * (alg.dim - 1) // 2 + alg.dim


def test_lazy_matrix_jets_copy_pickle_and_arithmetic():
    rng = random.Random(12)
    p = through_zero(rng, so3, 3, 4)
    lazy = so3_rep.exp_trunc(p, 3)
    eager = reference_exp(so3_rep, p, 3)
    assert "coeffs" not in lazy.__dict__ and lazy.degree == 3
    for twin in (copy.copy(lazy), copy.deepcopy(lazy), pickle.loads(pickle.dumps(lazy))):
        assert "coeffs" not in twin.__dict__
        assert twin.numerators == lazy.numerators
        assert twin == eager and hash(twin) == hash(eager)
    # public jet arithmetic reads the coefficients of a lazy operand
    assert repr(lazy + lazy) == repr(eager + eager)
    assert repr(lazy.scale(F(2, 3))) == repr(eager.scale(F(2, 3)))
    assert repr(lazy - eager) == repr(MatrixJet.zero(3, 4))
    assert "coeffs" in lazy.__dict__


def test_float_input_is_refused_by_the_exact_oracle():
    p = Jet(3, 3, ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0)))
    with pytest.raises(TypeError):
        so3_rep.exp_trunc(p, 2)
    with pytest.raises(TypeError):
        so3_rep.decompose(((0.0, 0.5, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.0, 0.0)))
    # a float matrix jet: matrix jets are exact-only, so it is refused at construction,
    # before any product, sum or log could run on it
    with pytest.raises(TypeError, match="a matrix jet takes exact"):
        MatrixJet(3, 3, (linalg.identity(3), ((0.0, 0.5, 0.0), (-0.5, 0.0, 0.0), (0.0,) * 3)))
    with pytest.raises(TypeError, match="a matrix jet takes exact"):
        MatrixJet(2, 2, (((0.5, 0), (0, 0)),))


def test_matrix_jets_and_the_oracle_read_exact_scalars_as_rat_does():
    """A string entry is read through rat and a bool is refused as rat refuses
    it; a float keeps the matrix jet's and the oracle's own message."""
    written = MatrixJet(2, 2, ((("1", 0), (0, "1")), (("1/2", 0), ("-3", 0))))
    exact = MatrixJet(2, 2, (((1, 0), (0, 1)), ((F(1, 2), 0), (-3, 0))))
    assert written == exact and written.numerators == exact.numerators
    for coeffs in ([((True, 0), (0, 1))], [((1, 0), (0, 1)), ((0, False), (0, 0))]):
        with pytest.raises(TypeError, match="^bool is not a scalar$"):
            MatrixJet(2, 2, coeffs)
    x = so3_rep.matrix_of((1, F(1, 2), 0))
    assert so3_rep.matrix_of(("1", "1/2", "0")) == x
    assert so3_rep.decompose(tuple(tuple(str(c) for c in row) for row in x)) == \
        so3_rep.decompose(x) == (1, F(1, 2), 0)
    with pytest.raises(TypeError, match="^bool is not a scalar$"):
        so3_rep.matrix_of((True, 0, 0))
    with pytest.raises(TypeError, match="^bool is not a scalar$"):
        so3_rep.decompose(((0, True, 0), (-1, 0, 0), (0, 0, 0)))
    for bad in (lambda: so3_rep.matrix_of((0.5, 0, 0)),
                lambda: so3_rep.decompose(((0, 0.5, 0), (-0.5, 0, 0), (0, 0, 0)))):
        with pytest.raises(TypeError) as info:
            bad()
        assert str(info.value) == "the matrix oracle takes exact (int or Fraction) input"
    with pytest.raises(TypeError) as info:
        MatrixJet(2, 1, (((0, 0), (0, 0.5)),))
    assert str(info.value) == "a matrix jet takes exact (int or Fraction) input"


def test_representation_size_is_capped():
    big = tuple(linalg.zero_matrix(33) for _ in range(3))
    with pytest.raises(DimensionMismatch, match="at most 32 x 32"):
        Representation(so3, big)
    # 32 x 32 is accepted: the adjoint size of the largest algebra
    Representation(so3, tuple(linalg.zero_matrix(32) for _ in range(3)))
