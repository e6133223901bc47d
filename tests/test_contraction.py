import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.algebra import LieAlgebra, span_subalgebra, split_with_complement
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.contraction import (
    ContractionFamily,
    contract,
    eps_bracket,
    invert_family_apply,
    iw_contract_closed_form,
    iw_family,
    transport_map,
)
from liecontract.errors import DimensionMismatch, PoleError, SingularFamily
from liecontract.jets import Jet
from liecontract.linalg import ZERO

F = Fraction

so3 = builtin("so3")[0]
sl2 = builtin("sl2")[0]
heis3 = builtin("heis3")[0]


def x3_split():
    return span_subalgebra(so3, [so3.basis_vector(2)])


def forced_plane_family():
    """The non-subalgebra span{X1,X2} pushed through the general route."""
    one, zero = F(1), F(0)
    return ContractionFamily(so3, (
        ((one, zero, zero), (zero, one, zero), (zero, zero, zero)),
        ((zero, zero, zero), (zero, zero, zero), (zero, zero, one)),
    ))


def test_iw_family_matrices():
    split = x3_split()
    fam = iw_family(split)
    assert fam.degree == 1
    assert fam.phis[0] == ((F(0),) * 3, (F(0),) * 3, (F(0), F(0), F(1)))
    assert fam.phis[1] == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0),) * 3)


def test_iw_family_degenerate_splits():
    full = span_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    fam = iw_family(full)
    assert fam.phis[0] == linalg.identity(3)
    assert linalg.is_zero_matrix(fam.phis[1])
    zero = span_subalgebra(so3, [])
    fam = iw_family(zero)
    assert linalg.is_zero_matrix(fam.phis[0])
    assert fam.phis[1] == linalg.identity(3)


def test_apply_family_rescales_complement():
    fam = iw_family(x3_split())
    x1 = Jet.constant(so3.basis_vector(0), 4)
    x3 = Jet.constant(so3.basis_vector(2), 4)
    assert fam.apply(x1) == Jet.make(3, 4, [(0, 0, 0), (1, 0, 0)])
    assert fam.apply(x3) == x3
    both = Jet.constant((F(1), F(0), F(1)), 4)
    assert fam.apply(both) == Jet.make(3, 4, [(0, 0, 1), (1, 0, 0)])


def test_invert_family_apply_fixed_component():
    fam = iw_family(x3_split())
    r = Jet.make(3, 5, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])  # eps^2 * X3
    assert invert_family_apply(fam, r, 3) == Jet.make(
        3, 4, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])


def test_invert_family_apply_identity():
    fam = ContractionFamily.identity(so3)
    rng = random.Random(2)
    r = Jet(3, 5, tuple(linalg.random_vector(rng, 3) for _ in range(4)))
    assert invert_family_apply(fam, r, 4) == r.truncated(5)


def test_invert_family_apply_pole():
    fam = forced_plane_family()
    r = Jet.constant(so3.basis_vector(2), 4)  # X3, which the family rescales
    with pytest.raises(PoleError) as info:
        invert_family_apply(fam, r, 2)
    assert info.value.valuation == -1
    assert info.value.component == 2


def test_invert_family_requires_room():
    fam = iw_family(x3_split())
    with pytest.raises(DimensionMismatch):
        invert_family_apply(fam, Jet.constant(so3.basis_vector(2), 2), 2)


def test_singular_family_rejected():
    fam = ContractionFamily(so3, (linalg.zero_matrix(3),))
    with pytest.raises(SingularFamily):
        invert_family_apply(fam, Jet.constant(so3.basis_vector(0), 3), 1)


def test_family_determinant_sampling_warns():
    # singularity is decided exactly from the determinant, when the family is
    # used: building the zero family is silent, contracting it raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = ContractionFamily(so3, (linalg.zero_matrix(3),))
    with pytest.raises(SingularFamily):
        contract(fam)


def test_family_degree_cap():
    mats = tuple(linalg.identity(3) for _ in range(10))
    with pytest.raises(DimensionMismatch):
        ContractionFamily(so3, mats)


def test_eps_bracket_so3_relations():
    fam = iw_family(x3_split())
    e = so3.basis_vector
    assert eps_bracket(fam, e(0), e(1), order=2) == Jet.make(
        3, 3, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])
    assert eps_bracket(fam, e(1), e(2), order=2) == Jet.make(3, 3, [(1, 0, 0)])
    assert eps_bracket(fam, e(2), e(0), order=2) == Jet.make(3, 3, [(0, 1, 0)])


def test_eps_bracket_heis3_valuation():
    # the center is fixed, P and Q are rescaled, so [P,Q] scales quadratically
    split = span_subalgebra(heis3, [heis3.basis_vector(2)])
    fam = iw_family(split)
    got = eps_bracket(fam, heis3.basis_vector(0), heis3.basis_vector(1), order=3)
    assert got == Jet.make(3, 4, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])


def test_contract_so3_gives_plane_motion_algebra():
    limit = contract(iw_family(x3_split()))
    iso2 = builtin("iso2")[0]
    assert limit.structure == iso2.structure
    e = limit.basis_vector
    assert limit.bracket(e(0), e(1)) == limit.zero_vector()
    assert limit.bracket(e(1), e(2)) == e(0)
    assert limit.bracket(e(2), e(0)) == e(1)


def test_contract_identity_family_is_noop():
    for alg in (so3, sl2, heis3):
        assert contract(ContractionFamily.identity(alg)).structure == alg.structure


def test_contract_heis3_center_abelianizes():
    split = span_subalgebra(heis3, [heis3.basis_vector(2)])
    limit = contract(iw_family(split))
    assert limit.structure == builtin("abelian(3)")[0].structure


def test_contract_pole_reports_pair():
    with pytest.raises(PoleError) as info:
        contract(forced_plane_family())
    assert info.value.valuation == -1
    assert info.value.pair == (0, 1)


def test_closed_form_sl2():
    split = span_subalgebra(sl2, [sl2.basis_vector(0)])  # span{H}
    limit = iw_contract_closed_form(split)
    h, e, f = limit.basis_vector(0), limit.basis_vector(1), limit.basis_vector(2)
    assert limit.bracket(h, e) == linalg.vec_scale(F(2), e)
    assert limit.bracket(h, f) == linalg.vec_scale(F(-2), f)
    assert limit.bracket(e, f) == limit.zero_vector()
    assert limit.structure == contract(iw_family(split)).structure


def test_closed_form_full_subalgebra_is_identity():
    split = span_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    assert iw_contract_closed_form(split).structure == so3.structure


def bracket_closed_basis_subsets(alg):
    """All subsets of basis vectors whose span is bracket-closed."""
    out = []
    for r in range(alg.dim + 1):
        for idxs in itertools.combinations(range(alg.dim), r):
            vectors = [alg.basis_vector(i) for i in idxs]
            brackets = [alg.bracket(u, v) for u in vectors for v in vectors]
            if all(sol is not None for sol in linalg.solve_in_basis(vectors, brackets)):
                out.append(vectors)
    return out


def test_contract_agrees_with_closed_form_everywhere():
    for alg in (so3, sl2, heis3):
        for vectors in bracket_closed_basis_subsets(alg):
            split = span_subalgebra(alg, vectors)
            assert contract(iw_family(split)).structure == \
                iw_contract_closed_form(split).structure


def test_limit_is_lie_and_complement_becomes_abelian_ideal():
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        for vectors in subalgebra_catalog(name).values():
            split = span_subalgebra(alg, vectors)
            limit = contract(iw_family(split))
            assert limit.validate().ok
            for u in split.n_basis:
                for v in split.n_basis:
                    assert limit.bracket(u, v) == limit.zero_vector()
                for a in range(alg.dim):
                    image = limit.bracket(limit.basis_vector(a), u)
                    assert linalg.is_zero_vector(split.project_h(image))


def test_eps_bracket_matches_pointwise_solve():
    rng = random.Random(14)
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        for vectors in subalgebra_catalog(name).values():
            fam = iw_family(span_subalgebra(alg, vectors))
            for _ in range(5):
                x = linalg.random_vector(rng, alg.dim)
                y = linalg.random_vector(rng, alg.dim)
                jet = eps_bracket(fam, x, y, order=2 * fam.degree)
                for point in (F(1), F(1, 2), F(-2, 3)):
                    m = linalg.mat_add(fam.phis[0], linalg.mat_scale(point, fam.phis[1]))
                    pointwise = linalg.mat_vec(
                        linalg.invert(m),
                        alg.bracket(linalg.mat_vec(m, x), linalg.mat_vec(m, y)))
                    assert jet.eval_at(point) == pointwise


def test_complement_independence_via_transport():
    cases = [
        (so3, [so3.basis_vector(2)],
         [linalg.vec_add(so3.basis_vector(0), so3.basis_vector(2)), so3.basis_vector(1)]),
        (sl2, [sl2.basis_vector(0)],
         [linalg.vec_add(sl2.basis_vector(1), sl2.basis_vector(0)), sl2.basis_vector(2)]),
        (heis3, [heis3.basis_vector(2)],
         [linalg.vec_add(heis3.basis_vector(0), heis3.basis_vector(2)), heis3.basis_vector(1)]),
    ]
    for alg, h_vectors, alt_complement in cases:
        split_a = span_subalgebra(alg, h_vectors)
        split_b = split_with_complement(alg, h_vectors, alt_complement)
        limit_a = contract(iw_family(split_a))
        limit_b = contract(iw_family(split_b))
        tau = transport_map(split_a, split_b)
        assert linalg.mat_mul(tau, linalg.invert(tau)) == linalg.identity(alg.dim)
        for a in range(alg.dim):
            for b in range(alg.dim):
                lhs = linalg.mat_vec(tau, limit_a.bracket(
                    alg.basis_vector(a), alg.basis_vector(b)))
                rhs = limit_b.bracket(
                    linalg.mat_vec(tau, alg.basis_vector(a)),
                    linalg.mat_vec(tau, alg.basis_vector(b)))
                assert lhs == rhs


def cramer_invert_family_apply(fam, r, order):
    """Reference for invert_family_apply: one determinant per component.

    Component i of the solution is det(family with column i replaced by r)
    over det(family), both computed by poly_det.
    """
    entries = fam.entry_polys()
    den = linalg.poly_det(entries)
    if not den:
        raise SingularFamily("family determinant is the zero polynomial")
    rhs = r.component_polys()
    den_val = linalg.poly_valuation(den)
    numerators = []
    worst = None
    for i in range(fam.dim):
        swapped = [row[:i] + [rhs[k]] + row[i + 1:] for k, row in enumerate(entries)]
        num = linalg.poly_det(swapped)
        numerators.append(num)
        if num:
            val = linalg.poly_valuation(num) - den_val
            if val < 0 and (worst is None or val < worst[0]):
                worst = (val, i)
    if worst is not None:
        raise PoleError("pole", valuation=worst[0], component=worst[1])
    series = [
        linalg.poly_series_div(num, den, order) if num else (ZERO,) * (order + 1)
        for num in numerators
    ]
    coeffs = tuple(tuple(series[i][m] for i in range(fam.dim)) for m in range(order + 1))
    return Jet(fam.dim, order + 1, coeffs)


def solve_outcome(solver, fam, r, order):
    try:
        return ("jet", solver(fam, r, order))
    except PoleError as err:
        return ("pole", err.valuation, err.component)
    except SingularFamily:
        return ("singular",)


small_st = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 2)))


@st.composite
def family_and_jet(draw):
    """A family of degree <= 2 and dimension 2..5, and a jet to solve for.

    ``kind`` forces a family singular at 0 (a zero row in the constant
    matrix) or singular identically (last row a multiple of the first in
    every coefficient); generic draws are often singular at 0 as well.
    """
    n = draw(st.integers(2, 5))
    degree = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(("generic", "at0", "identically")))
    mats = [[[draw(small_st) for _ in range(n)] for _ in range(n)]
            for _ in range(degree + 1)]
    if kind == "at0":
        mats[0][draw(st.integers(0, n - 1))] = [0] * n
    elif kind == "identically":
        c = draw(small_st)
        for m in mats:
            m[n - 1] = [c * x for x in m[0]]
    fam = ContractionFamily(builtin(f"abelian({n})")[0], tuple(mats))
    trunc = draw(st.integers(1, 4))
    coeffs = [[draw(small_st) for _ in range(n)] for _ in range(trunc)]
    order = draw(st.integers(0, trunc - 1))
    return fam, Jet.make(n, trunc, coeffs), order


@settings(max_examples=150, deadline=None)
@given(family_and_jet())
def test_invert_family_apply_matches_cramer(case):
    fam, r, order = case
    assert solve_outcome(invert_family_apply, fam, r, order) == \
        solve_outcome(cramer_invert_family_apply, fam, r, order)


def so_n(n):
    """so(n) on the matrices E_ij - E_ji (i < j), and the basis of so(n-1) in it."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    mats = [tuple(tuple(F((r, c) == (i, j)) - F((r, c) == (j, i)) for c in range(n))
                  for r in range(n)) for i, j in pairs]

    def coords(m):  # an antisymmetric matrix in the E_ij - E_ji basis
        return tuple(m[i][j] for i, j in pairs)

    tensor = tuple(
        tuple(coords(linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a)))
              for b in mats)
        for a in mats)
    alg = LieAlgebra(len(pairs), tuple(f"L{i + 1}{j + 1}" for i, j in pairs), tensor)
    return alg, [alg.basis_vector(a) for a, (_, j) in enumerate(pairs) if j < n - 1]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_contract_so_n_matches_closed_form(n):
    alg, sub = so_n(n)
    split = span_subalgebra(alg, sub)
    assert contract(iw_family(split)).structure == iw_contract_closed_form(split).structure
