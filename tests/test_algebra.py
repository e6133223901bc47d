import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.algebra import (
    LieAlgebra, ValidationReport, span_subalgebra, split_with_complement)
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.errors import DimensionMismatch, NotASubalgebra, UnknownAlgebra

F = Fraction


@pytest.fixture(scope="module")
def so3():
    return builtin("so3")[0]


@pytest.fixture(scope="module")
def heis3():
    return builtin("heis3")[0]


def test_so3_bracket_relations(so3):
    e = so3.basis_vector
    assert so3.bracket(e(0), e(1)) == e(2)
    assert so3.bracket(e(1), e(2)) == e(0)
    assert so3.bracket(e(2), e(0)) == e(1)


def test_bracket_antisymmetry_on_random_vectors(so3):
    rng = random.Random(1)
    for _ in range(25):
        x = linalg.random_vector(rng, 3)
        y = linalg.random_vector(rng, 3)
        assert so3.bracket(x, y) == linalg.vec_neg(so3.bracket(y, x))
        assert so3.bracket(x, x) == so3.zero_vector()


def test_heis3_bilinear_expansion(heis3):
    # [2P + Q, Q] = 2[P, Q] = 2Z, expanded by hand from the single relation
    p, q = heis3.basis_vector(0), heis3.basis_vector(1)
    x = linalg.vec_add(linalg.vec_scale(F(2), p), q)
    assert heis3.bracket(x, q) == (F(0), F(0), F(2))


def test_bracket_dimension_mismatch(so3):
    with pytest.raises(DimensionMismatch):
        so3.bracket((F(1),), so3.basis_vector(0))


def test_exact_vectors_reject_floats(so3):
    with pytest.raises(TypeError):
        so3.vector([0.1, 0, 0])


def test_validate_catalogued_algebras():
    for name in ("so3", "sl2", "heis3", "iso2", "abelian(5)"):
        alg, _ = builtin(name)
        report = alg.validate()
        assert report.ok, report.summary()


def test_builtin_abelian_is_zero_tensor():
    alg, _ = builtin("abelian(4)")
    assert alg.dim == 4
    assert all(linalg.is_zero_vector(alg.structure[a][b])
               for a in range(4) for b in range(4))
    with pytest.raises(UnknownAlgebra):
        builtin("nosuchalgebra")


def test_from_brackets_completion_and_explicit_mirrors():
    # the mirror of an entry is filled in automatically...
    alg = LieAlgebra.from_brackets(2, ("A", "B"), [(0, 1, 0, 1)])
    assert alg.structure[1][0][0] == F(-1)
    # ...unless given explicitly, in which case it is stored as-is
    broken = LieAlgebra.from_brackets(2, ("A", "B"),
                                      [(0, 1, 0, 1), (1, 0, 0, 1)])
    assert broken.structure[1][0][0] == F(1)
    assert not broken.validate().ok
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, ("A", "B"), [(0, 1, 0, 1), (0, 1, 0, 2)])
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, ("A", "B"), [(0, 0, 0, 1)])


def test_validate_reports_antisymmetry_violation():
    f = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    f[0][1][2] = F(1)
    f[1][0][2] = F(1)  # should be -1
    alg = LieAlgebra(3, ("X1", "X2", "X3"),
                     tuple(tuple(tuple(r) for r in p) for p in f))
    report = alg.validate()
    kinds = {(v.kind, v.location) for v in report.violations}
    assert ("antisymmetry", (1, 2, 3)) in kinds


def brute_force_jacobi(alg):
    """Independent oracle: raw tensor sums over every index combination."""
    f = alg.structure
    n = alg.dim
    bad = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    total = sum(
                        (f[a][b][e] * f[e][c][d]
                         + f[b][c][e] * f[e][a][d]
                         + f[c][a][e] * f[e][b][d])
                        for e in range(n))
                    if total != 0:
                        bad.add(tuple(sorted((a + 1, b + 1, c + 1))))
    return bad


def test_validator_agrees_with_brute_force_jacobi():
    # solvable example: [X1,X2]=X1, [X1,X3]=X1, [X2,X3]=0
    alg = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                   [(0, 1, 0, 1), (0, 2, 0, 1)])
    expected = brute_force_jacobi(alg)
    report = alg.validate()
    got = {v.location for v in report.violations if v.kind == "jacobi"}
    assert got == expected == set()

    # genuine violation: [X1,X2]=X3, [X1,X3]=X1, [X2,X3]=0
    broken = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                      [(0, 1, 2, 1), (0, 2, 0, 1)])
    expected = brute_force_jacobi(broken)
    report = broken.validate()
    got = {v.location for v in report.violations if v.kind == "jacobi"}
    assert got == expected
    assert (1, 2, 3) in got


def reference_validate(alg):
    """The bracket-based validator: Jacobi residuals through ``bracket``."""
    report = ValidationReport()
    f = alg.structure
    n = alg.dim
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                report.checks += 1
                if f[a][b][c] + f[b][a][c] != 0:
                    report.record(
                        "antisymmetry", (a + 1, b + 1, c + 1),
                        f"f[{a + 1}][{b + 1}][{c + 1}]={f[a][b][c]} but "
                        f"f[{b + 1}][{a + 1}][{c + 1}]={f[b][a][c]}")
    for a in range(n):
        ea = alg.basis_vector(a)
        for b in range(a + 1, n):
            eb = alg.basis_vector(b)
            ab = alg.bracket(ea, eb)
            for c in range(b + 1, n):
                ec = alg.basis_vector(c)
                residual = linalg.vec_add(
                    linalg.vec_add(alg.bracket(ab, ec),
                                   alg.bracket(alg.bracket(eb, ec), ea)),
                    alg.bracket(alg.bracket(ec, ea), eb))
                report.checks += 1
                if not linalg.is_zero_vector(residual):
                    report.record(
                        "jacobi", (a + 1, b + 1, c + 1),
                        f"residual {alg.format_vector(residual)}")
    return report


coeff_st = st.sampled_from((1, -1, 2, F(1, 2), F(-3, 2)))


def direct_sum(parts):
    """Block-diagonal structure tensor of catalogued algebras."""
    algs = [builtin(name)[0] for name in parts]
    n = sum(alg.dim for alg in algs)
    f = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for alg in algs:
        for a in range(alg.dim):
            for b in range(alg.dim):
                for c in range(alg.dim):
                    f[off + a][off + b][off + c] = alg.structure[a][b][c]
        off += alg.dim
    return n, f


def rebase(f, p):
    """Structure tensor in the basis given by the columns of p."""
    n = len(p)
    pinv = linalg.invert(p)
    cols = tuple(zip(*p))
    alg = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)),
                     tuple(tuple(tuple(r) for r in plane) for plane in f))
    return [[list(linalg.mat_vec(pinv, alg.bracket(cols[a], cols[b])))
             for b in range(n)] for a in range(n)]


@st.composite
def structure_tensors(draw):
    """Lie algebras in random bases, perturbed ones, and raw random tensors."""
    kind = draw(st.sampled_from(("lie", "sparse", "dense", "mirrors")))
    if kind == "lie":
        parts = draw(st.lists(st.sampled_from(("so3", "sl2", "heis3", "iso2", "abelian(1)")),
                              min_size=1, max_size=2))
        n, f = direct_sum(parts)
        # unit lower-triangular change of basis: always invertible
        p = [[F(i == j) if j >= i else draw(st.sampled_from((0, 0, 1, -1, F(1, 2))))
              for j in range(n)] for i in range(n)]
        f = rebase(f, tuple(tuple(F(x) for x in r) for r in p))
        if n > 1 and draw(st.booleans()):  # break the Jacobi identity, keep antisymmetry
            a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
            c, x = draw(st.integers(0, n - 1)), draw(coeff_st)
            f[a][b][c] += x
            f[b][a][c] -= x
    else:
        n = draw(st.integers(1, 7))
        f = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        if kind == "dense":
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(n):
                        x = F(draw(st.sampled_from((0, 1, -1, 2, F(1, 3)))))
                        f[a][b][c], f[b][a][c] = x, -x
        else:
            index = st.integers(0, n - 1)
            for _ in range(draw(st.integers(0, 2 * n))):
                a, b, c = draw(index), draw(index), draw(index)
                x = F(draw(coeff_st))
                if kind == "sparse" and a != b:
                    f[a][b][c], f[b][a][c] = x, -x
                elif kind == "mirrors":  # any entry, diagonal and lower triangle too
                    f[a][b][c] = x
    return LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)),
                      tuple(tuple(tuple(r) for r in plane) for plane in f))


def report_key(report):
    return report.checks, [(v.kind, v.location, v.detail) for v in report.violations]


@settings(max_examples=200, deadline=None)
@given(structure_tensors())
def test_validate_matches_bracket_reference(alg):
    assert report_key(alg.validate()) == report_key(reference_validate(alg))


def test_dimension_cap():
    zero = tuple(tuple(tuple(F(0) for _ in range(33)) for _ in range(33))
                 for _ in range(33))
    with pytest.raises(DimensionMismatch):
        LieAlgebra(33, tuple(f"A{i}" for i in range(33)), zero)


def test_span_subalgebra_so3_x3(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    assert split.h_basis == (so3.basis_vector(2),)
    assert set(split.n_basis) == {so3.basis_vector(0), so3.basis_vector(1)}
    # projectors are the coordinate projections here
    assert split.proj_h == ((F(0),) * 3, (F(0),) * 3, (F(0), F(0), F(1)))


def test_span_subalgebra_rejects_non_closed(so3):
    with pytest.raises(NotASubalgebra) as info:
        span_subalgebra(so3, [so3.basis_vector(0), so3.basis_vector(1)])
    u, v, w = info.value.witness
    assert so3.bracket(u, v) == w == so3.basis_vector(2)


def test_span_subalgebra_degenerate_cases(so3):
    zero = span_subalgebra(so3, [])
    assert zero.dim_h == 0 and zero.dim_n == 3
    assert zero.proj_n == linalg.identity(3)
    full = span_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    assert full.dim_h == 3 and full.dim_n == 0
    assert full.proj_h == linalg.identity(3)


def test_span_subalgebra_prunes_dependent_input(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2),
                                  linalg.vec_scale(F(5), so3.basis_vector(2))])
    assert split.dim_h == 1


def test_projector_identities():
    rng = random.Random(4)
    for name in ("so3", "sl2", "heis3"):
        alg, _ = builtin(name)
        for vectors in subalgebra_catalog(name).values():
            split = span_subalgebra(alg, vectors)
            assert linalg.mat_add(split.proj_h, split.proj_n) == linalg.identity(alg.dim)
            assert linalg.mat_mul(split.proj_h, split.proj_h) == split.proj_h
            assert linalg.mat_mul(split.proj_n, split.proj_n) == split.proj_n
            for v in split.h_basis:
                assert split.project_h(v) == v
            for _ in range(10):
                x = linalg.random_vector(rng, alg.dim)
                assert split.contains(split.project_h(x))
                assert split.contains(x) == (split.project_h(x) == x)


def test_coset_reduce_examples(so3, heis3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    assert split.coset_reduce(so3.basis_vector(2)) == so3.zero_vector()
    x = linalg.vec_add(so3.basis_vector(0),
                       linalg.vec_scale(F(5), so3.basis_vector(2)))
    assert split.coset_reduce(x) == so3.basis_vector(0)
    hsplit = span_subalgebra(heis3, [heis3.basis_vector(2)])
    pqz = (F(1), F(1), F(1))
    assert hsplit.coset_reduce(pqz) == (F(1), F(1), F(0))


def test_coset_reduce_kernel_is_subalgebra(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    rng = random.Random(8)
    for _ in range(25):
        x = linalg.random_vector(rng, 3)
        reduced_to_zero = linalg.is_zero_vector(split.coset_reduce(x))
        assert reduced_to_zero == split.contains(x)


def test_split_with_explicit_complement(so3):
    alt = split_with_complement(
        so3, [so3.basis_vector(2)],
        [linalg.vec_add(so3.basis_vector(0), so3.basis_vector(2)), so3.basis_vector(1)])
    assert alt.dim_h == 1 and alt.dim_n == 2
    assert linalg.mat_add(alt.proj_h, alt.proj_n) == linalg.identity(3)
    with pytest.raises(DimensionMismatch):
        split_with_complement(so3, [so3.basis_vector(2)], [so3.basis_vector(2)])
