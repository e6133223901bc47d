import itertools
import math
import os
import random
import sys
import warnings
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from liecontract import contraction, linalg
from liecontract.algebra import (
    LieAlgebra,
    SubalgebraSplit,
    span_subalgebra,
    split_with_complement,
)
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.contraction import (
    ContractionFamily,
    _rescaled_bracket,
    contract,
    eps_bracket,
    invert_family_apply,
    iw_contract_closed_form,
    iw_family,
    transport_map,
)
from liecontract.errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    NotASubalgebra,
    PoleError,
    SingularFamily,
)
from liecontract.expansion import GeneralExpansion
from liecontract.formats import load_family
from liecontract.jets import Jet, MatrixJet
from liecontract.linalg import ZERO
from references import (
    cramer_invert_family_apply,
    dense_split_along,
    poly_series_div,
    reference_bracket_tuples,
    reference_eps_bracket,
    reference_family_apply,
    reference_inverse_terms,
    reference_invert_family_apply,
    row_loop_invert_family_apply,
    so_n,
)

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
    assert reference_family_apply(fam, x1) == Jet(3, 4, [(0, 0, 0), (1, 0, 0)])
    assert reference_family_apply(fam, x3) == x3
    both = Jet.constant((F(1), F(0), F(1)), 4)
    assert reference_family_apply(fam, both) == Jet(3, 4, [(0, 0, 1), (1, 0, 0)])
    # the integer lift of X3 + eps X1 and of X2: [X3 + eps^2 X1, eps X2] = -eps X1 + eps^3 X3
    e = so3.basis_vector
    assert _rescaled_bracket(fam, (e(2), e(0)), (e(1),), 3) == Jet(
        3, 4, [(-1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 1)])


def test_invert_family_apply_fixed_component():
    fam = iw_family(x3_split())
    r = Jet(3, 5, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])  # eps^2 * X3
    assert invert_family_apply(fam, r, 3) == Jet(
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
    assert eps_bracket(fam, e(0), e(1), order=2) == Jet(
        3, 3, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])
    assert eps_bracket(fam, e(1), e(2), order=2) == Jet(3, 3, [(1, 0, 0)])
    assert eps_bracket(fam, e(2), e(0), order=2) == Jet(3, 3, [(0, 1, 0)])


def test_eps_bracket_heis3_valuation():
    # the center is fixed, P and Q are rescaled, so [P,Q] scales quadratically
    split = span_subalgebra(heis3, [heis3.basis_vector(2)])
    fam = iw_family(split)
    got = eps_bracket(fam, heis3.basis_vector(0), heis3.basis_vector(1), order=3)
    assert got == Jet(3, 4, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])


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
    for name in ("so3", "sl2", "heis3", "abelian(3)"):
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


def test_poly_series_div_against_multiplication():
    rng = random.Random(3)
    for _ in range(25):
        num = linalg.poly_trim([linalg.random_fraction(rng) for _ in range(4)])
        den = [linalg.random_fraction(rng) for _ in range(3)]
        den[0] = den[0] if den[0] != 0 else F(1)
        den = linalg.poly_trim(den)
        order = 6
        series = poly_series_div(num, den, order)
        # multiplying back must reproduce num through the requested order
        back = linalg.poly_mul(series, den)
        padded = back + (F(0),) * (order + 1)
        want = num + (F(0),) * (order + 1)
        assert padded[: order + 1] == want[: order + 1]
        # integer input gives the same Fractions
        ints = [linalg.poly_trim(int(x * 12) for x in p) for p in (num, den)]
        series = poly_series_div(*ints, order)
        assert series == poly_series_div(num, den, order)
        assert {type(x) for x in series} == {Fraction}


def test_poly_series_div_requires_regularity():
    with pytest.raises(ValueError):
        poly_series_div((F(1),), (F(0), F(1)), 3)


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
    return fam, Jet(n, trunc, coeffs), order


@settings(max_examples=150, deadline=None)
@given(family_and_jet())
def test_invert_family_apply_matches_cramer(case):
    fam, r, order = case
    assert solve_outcome(invert_family_apply, fam, r, order) == \
        solve_outcome(cramer_invert_family_apply, fam, r, order)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_contract_so_n_matches_closed_form(n):
    alg, sub = so_n(n)
    split = span_subalgebra(alg, sub)
    assert contract(iw_family(split)).structure == iw_contract_closed_form(split).structure


def exact_outcome(solve, *args):
    """A jet as the type and repr of every component, or the error it raised."""
    try:
        jet = solve(*args)
    except PoleError as err:
        return ("pole", str(err), err.valuation, err.component)
    except SingularFamily:
        return ("singular",)
    return ("jet", jet.dim, jet.trunc, [[(type(x), repr(x)) for x in c] for c in jet.coeffs])


# mixed and large denominators
FAMILY_ENTRIES = (0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 2), F(5, 6), F(7, 10 ** 9 + 7),
                  F(-10 ** 20, 3 ** 13))


@st.composite
def families(draw):
    """A family on a random algebra of dimension 1..5, two vectors and a jet.

    ``kind`` draws a generic family of degree <= 2, one singular at 0 (a
    zero row in the constant matrix), one singular identically (last row a
    multiple of the first in every coefficient), or one with a pole: it
    fixes X1 and X2, rescales the other coordinates, and [X1, X2] has a
    component along the last one.
    """
    kind = draw(st.sampled_from(("generic", "at0", "identically", "pole")))
    n = draw(st.integers(3 if kind == "pole" else 1, 5))
    value = st.sampled_from(FAMILY_ENTRIES)
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                f[a][b][c] = F(draw(value))
                f[b][a][c] = -f[a][b][c]
    if kind == "pole":
        f[0][1][n - 1] = F(draw(st.sampled_from((1, -2, F(3, 7), F(10 ** 9 + 7, 2 ** 40)))))
        f[1][0][n - 1] = -f[0][1][n - 1]
        s0, s1 = (draw(st.sampled_from((1, -1, F(1, 3), F(-5, 2), F(2 ** 40, 10 ** 9 + 7))))
                  for _ in range(2))
        mats = [[[s0 if r == c < 2 else 0 for c in range(n)] for r in range(n)],
                [[s1 if r == c >= 2 else 0 for c in range(n)] for r in range(n)]]
    else:
        mats = [[[draw(value) for _ in range(n)] for _ in range(n)]
                for _ in range(draw(st.integers(0, 2)) + 1)]
        if kind == "at0":
            mats[0][draw(st.integers(0, n - 1))] = [0] * n
        elif kind == "identically":
            c = draw(value)
            for m in mats:
                m[n - 1] = [c * x for x in m[0]]
    alg = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)),
                     tuple(tuple(tuple(row) for row in plane) for plane in f))
    fam = ContractionFamily(alg, tuple(mats))
    trunc = draw(st.integers(1, 4))
    r = Jet(n, trunc, [draw(st.tuples(*[value] * n)) for _ in range(trunc)])
    x, y = draw(family_vectors(alg)), draw(family_vectors(alg))
    return fam, x, y, r, draw(st.integers(0, trunc - 1))


def family_vectors(alg):
    """A basis vector, or a vector of family entries."""
    return st.one_of(st.sampled_from([alg.basis_vector(a) for a in range(alg.dim)]),
                     st.tuples(*[st.sampled_from(FAMILY_ENTRIES)] * alg.dim))


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(0, 3))
def test_integer_family_path_matches_fraction_reference(case, order):
    fam, x, y, r, r_order = case
    assert exact_outcome(invert_family_apply, fam, r, r_order) == \
        exact_outcome(reference_invert_family_apply, fam, r, r_order)
    assert exact_outcome(eps_bracket, fam, x, y, order) == \
        exact_outcome(reference_eps_bracket, fam, x, y, order)


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(1, 4), st.data())
def test_invert_family_apply_matches_both_references(case, order, data):
    """The cached inverse table against the Fraction adjugate and against Cramer's rule."""
    fam = case[0]
    n = fam.dim
    coeffs = st.tuples(*[st.sampled_from(FAMILY_ENTRIES)] * n)
    trunc = data.draw(st.integers(order + 1, order + 3))
    r = Jet(n, trunc, data.draw(st.lists(coeffs, min_size=1, max_size=trunc)))
    got = exact_outcome(invert_family_apply, fam, r, order)
    assert got == exact_outcome(reference_invert_family_apply, fam, r, order)
    assert got == exact_outcome(cramer_invert_family_apply, fam, r, order)


@settings(max_examples=60, deadline=None)
@given(families())
def test_invert_family_apply_builds_its_fractions_on_first_read(case):
    """The solve hands back its numerators over one denominator, as
    ``Jet.from_numerators`` keeps them, and no Fraction before a read."""
    fam, _, _, r, order = case
    try:
        w = invert_family_apply(fam, r, order)
    except (PoleError, SingularFamily):
        return
    assert "coeffs" not in w.__dict__
    assert exact_outcome(lambda: w) == exact_outcome(reference_invert_family_apply, fam, r, order)
    assert w.numerators == linalg.numerators(w.coeffs)


@settings(max_examples=60, deadline=None)
@given(families(), st.integers(0, 4), st.data())
def test_invert_family_apply_matches_the_row_loop(case, order, data):
    """The column solve gives the row loop's jet, numerators and error, by repr."""
    fam = case[0]
    coeffs = st.tuples(*[st.sampled_from(FAMILY_ENTRIES)] * fam.dim)
    trunc = data.draw(st.integers(order + 1, order + 3))
    r = Jet(fam.dim, trunc, data.draw(st.lists(coeffs, min_size=1, max_size=trunc)))

    def outcome(solve):
        try:
            jet = solve(fam, r, order)
        except (PoleError, SingularFamily) as err:
            return type(err), str(err), getattr(err, "valuation", None)
        return repr(jet.numerators), repr(jet)

    assert outcome(invert_family_apply) == outcome(row_loop_invert_family_apply)


def test_invert_family_apply_refuses_a_float_jet():
    """The solve is exact-only, as the family and the rescaled bracket are."""
    for singular in (False, True):
        fam = golden_family("so3-singular.json") if singular else iw_family(x3_split())
        with pytest.raises(TypeError) as info:
            invert_family_apply(fam, Jet(3, 3, ((0, 0, 0.5), (0, 1.5, 0))), 1)
        assert str(info.value) == "a family solve takes exact (int or Fraction) input"


def test_iw_family_refuses_a_split_holding_floats():
    """A split built from a float projector keeps floats; its family is refused
    as a float right-hand side of the solve is."""
    split = SubalgebraSplit(so3, ((0, 0, 1),), ((1, 0, 0), (0, 1, 0)),
                            ((0, 0, 0), (0, 0, 0), (0, 0, 1.0)),
                            ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    assert type(split._numerators[1]) is float
    with pytest.raises(TypeError) as info:
        iw_family(split)
    assert str(info.value) == "a rescaling family takes exact (int or Fraction) input"


def general_bracket_tuples(fam, k, xs, ys):
    """GeneralExpansion.bracket_tuples, with a pole it wraps raised as the PoleError.

    The method reads only the family and the order; a stand-in for the
    expansion lets families without a contraction, which GeneralExpansion
    refuses to build, reach it.
    """
    try:
        return GeneralExpansion.bracket_tuples(SimpleNamespace(family=fam, order=k), xs, ys)
    except InternalInvariantViolation as err:
        raise err.__cause__ from None


def tuples_outcome(bracket, *args):
    """Coefficient tuples as the type and repr of every component, or the error raised."""
    try:
        ws = bracket(*args)
    except PoleError as err:
        return ("pole", err.valuation, err.component)
    except SingularFamily:
        return ("singular",)
    return [[(type(x), repr(x)) for x in w] for w in ws]


@settings(max_examples=100, deadline=None)
@given(families(), st.integers(0, 3), st.data())
def test_bracket_tuples_matches_fraction_reference(case, k, data):
    fam = case[0]
    coeffs = st.lists(family_vectors(fam.algebra), min_size=k + 1, max_size=k + 1)
    xs, ys = data.draw(coeffs), data.draw(coeffs)
    assert tuples_outcome(general_bracket_tuples, fam, k, xs, ys) == \
        tuples_outcome(reference_bracket_tuples, fam, k, xs, ys)


def counter_of(calls):
    """A wrapper factory counting the calls of each wrapped function under its name."""
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    return counted


def test_contract_scales_and_eliminates_once_per_family(monkeypatch):
    """A family built from its matrices, as ``--family`` loads one, scales
    them once, when it is built, and eliminates once."""
    alg, sub = so_n(5)
    split = span_subalgebra(alg, sub)
    rows = [row for m in (split.proj_h, split.proj_n) for row in m]
    calls = Counter()
    counted = counter_of(calls)

    numerators = linalg.numerators

    def counted_numerators(vectors):
        # the family's own coefficient rows, as opposed to vectors and jets
        calls["scaling"] += list(vectors) == rows
        return numerators(vectors)

    monkeypatch.setattr(linalg, "numerators", counted_numerators)
    monkeypatch.setattr(linalg, "poly_adjugate", counted("adjugate", linalg.poly_adjugate))
    monkeypatch.setattr(linalg, "poly_det", counted("det", linalg.poly_det))
    monkeypatch.setattr(contraction, "_InverseSeries",
                        counted("table", contraction._InverseSeries))
    fams = [ContractionFamily(alg, (split.proj_h, split.proj_n)) for _ in range(3)]
    assert calls == {"scaling": 3}
    contract(fams[0])
    assert calls == {"scaling": 3, "adjugate": 1, "det": 1, "table": 1}
    table = fams[0]._inverse
    # higher orders extend the one table, and neither eliminate nor rebuild it
    for order in (2, 4):
        for a in range(alg.dim):
            eps_bracket(fams[0], alg.basis_vector(a), alg.basis_vector(alg.dim - 1 - a),
                        order=order)
    GeneralExpansion(fams[0], 3).bracket_tuples([alg.basis_vector(0)] * 4,
                                                [alg.basis_vector(9)] * 4)
    assert calls == {"scaling": 3, "adjugate": 1, "det": 1, "table": 1}
    assert fams[0]._inverse is table
    contract(fams[1])
    assert calls == {"scaling": 3, "adjugate": 2, "det": 2, "table": 2}
    # the general expansion lifts on the family's integer numerators, without a matrix jet
    monkeypatch.setattr(MatrixJet, "__post_init__",
                        counted("matrix jet", MatrixJet.__post_init__))
    expansion = GeneralExpansion(fams[2], 1)
    e = alg.basis_vector
    for a in range(10):
        expansion.bracket_tuples((e(a), e(9 - a)), (e(9 - a), e((a + 3) % 10)))
    assert calls == {"scaling": 3, "adjugate": 3, "det": 3, "table": 3}


def test_iw_family_contracts_without_an_elimination(monkeypatch):
    alg, sub = so_n(5)
    fams = [iw_family(span_subalgebra(alg, sub)) for _ in range(2)]
    calls = Counter()
    counted = counter_of(calls)
    monkeypatch.setattr(linalg, "poly_adjugate", counted("adjugate", linalg.poly_adjugate))
    monkeypatch.setattr(linalg, "poly_det", counted("det", linalg.poly_det))
    monkeypatch.setattr(contraction, "_InverseSeries",
                        counted("table", contraction._InverseSeries))
    contract(fams[0])
    for order in (0, 2, 4):
        for a in range(alg.dim):
            eps_bracket(fams[0], alg.basis_vector(a), alg.basis_vector(alg.dim - 1 - a),
                        order=order)
    e = alg.basis_vector
    expansion = GeneralExpansion(fams[1], 2)
    for a in range(10):
        expansion.bracket_tuples((e(a), e(9 - a), e(a)), (e(9 - a), e((a + 3) % 10), e(0)))
    assert calls == {}


def test_a_second_contract_builds_no_new_plan(monkeypatch):
    """``contract`` reads the family's order-0 plan, made by the first call;
    the second takes one lcm, for the limit's table, and none per pair."""
    for fam in (iw_family(span_subalgebra(*so_n(4))),
                golden_family("heis3-weighted.json", heis3)):
        limit = contract(fam)
        plan = fam._plans[0]
        calls = Counter()
        monkeypatch.setattr(contraction, "lcm", counter_of(calls)("lcm", math.lcm))
        assert contract(fam) == limit
        assert calls == {"lcm": 1} and list(fam._plans) == [0] and fam._plans[0] is plan
        monkeypatch.undo()


def two_dim_algebra():
    """The nonabelian 2-dimensional algebra, [X1, X2] = X2."""
    return LieAlgebra.from_brackets(2, ("X1", "X2"), [(0, 1, 1, 1)])


def catalogued_and_basis_splits():
    """Every split along a catalogued or basis-spanned subalgebra, and so(n-1) in so(n)."""
    splits = []
    for name in ("so3", "sl2", "heis3", "iso2"):
        alg = builtin(name)[0]
        for vectors in [*subalgebra_catalog(name).values(), *bracket_closed_basis_subsets(alg)]:
            splits.append(span_subalgebra(alg, vectors))
    for n in (4, 5, 6):
        splits.append(span_subalgebra(*so_n(n)))
    one = LieAlgebra.from_brackets(1, ("X1",), [])
    two = two_dim_algebra()
    splits += [span_subalgebra(one, []), span_subalgebra(one, [(1,)]),
               span_subalgebra(two, [(2, 3)]), span_subalgebra(two, [(0, 1)]),
               split_with_complement(two, [(F(1, 3), 2)], [(5, F(-1, 2))])]
    return splits


def dense_so_splits():
    rng = random.Random(20)
    return [dense_split_along(*so_n(4), rng) for _ in range(4)] + [dense_split_along(*so_n(5), rng)]


def assert_closed_form_is_the_elimination(split):
    """The Inonu-Wigner family's closed-form determinant and table are those
    that the elimination and the recurrence give, term by term and by repr,
    for every count up to dn + 4."""
    fam = iw_family(split)
    assert "_det" in fam.__dict__ and "_inverse" in fam.__dict__
    entries = fam._entries
    det, adj = linalg.poly_det(entries), linalg.poly_adjugate(entries)[1]
    assert fam._det == det and {type(c) for c in fam._det} <= {int}
    dn = linalg.poly_valuation(det)
    assert fam._inverse.valuation == dn
    for count in range(dn + 5):
        assert repr(fam._inverse.extend(count)) == \
            repr(contraction._InverseSeries(det, adj).extend(count))


@pytest.mark.parametrize("split", catalogued_and_basis_splits() + dense_so_splits())
def test_iw_inverse_in_closed_form_is_the_elimination(split):
    assert_closed_form_is_the_elimination(split)


def test_closed_form_cases_reach_every_shape():
    """The cases above hold dh = 0, dn = 0, dimensions 1 and 2, and denominators above 1."""
    splits = catalogued_and_basis_splits() + dense_so_splits()
    assert any(s.dim_h == 0 for s in splits) and any(s.dim_n == 0 for s in splits)
    assert {1, 2} <= {s.algebra.dim for s in splits}
    dens = [iw_family(s)._numerators[1] for s in dense_so_splits()]
    assert all(d > 1 for d in dens)
    # an algebra has dimension 1 at least; the closed form still matches on 0 x 0
    with pytest.raises(DimensionMismatch):
        LieAlgebra(0, (), ())
    det, table = contraction._iw_inverse((), (), 1)
    assert det == linalg.poly_det([]) and table.valuation == 0
    assert table.extend(4) == contraction._InverseSeries(det, linalg.poly_adjugate([])[1]).extend(4)


@st.composite
def dense_splits(draw):
    """A split of so3, sl2, heis3, iso2 or the 2-dimensional algebra along a
    basis-spanned subalgebra, on bases drawn from small rationals."""
    alg = draw(st.sampled_from([builtin(name)[0] for name in ("so3", "sl2", "heis3", "iso2")]
                               + [two_dim_algebra()]))
    sub = draw(st.sampled_from(bracket_closed_basis_subsets(alg)))
    try:
        return dense_split_along(alg, sub, random.Random(draw(st.integers(0, 10 ** 6))))
    except (DimensionMismatch, NotASubalgebra):  # the drawn vectors are dependent
        assume(False)


@settings(max_examples=60, deadline=None)
@given(dense_splits())
def test_iw_inverse_in_closed_form_matches_on_drawn_bases(split):
    assert_closed_form_is_the_elimination(split)


def degeneration_invariants(alg):
    """(dim [g, g], dim z(g), dim Der(g)), each read off a rank over Q from
    ``linalg.pivot_columns`` on the structure constants, whatever the basis.

    z(g) is the kernel of x -> ([x, X_b])_b.  Der(g) is the solution space of
    D [X_a, X_b] = [D X_a, X_b] + [X_a, D X_b], a < b, in the n^2 entries of D,
    D X_j = sum_i D_ij X_i: each entry has one coefficient per condition (a, b, c).
    """
    f, n = alg.structure, alg.dim
    derived = linalg.pivot_columns([f[a][b] for a in range(n) for b in range(a + 1, n)], n)
    adjoint = [tuple(x for b in range(n) for x in f[a][b]) for a in range(n)]
    conds = [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n)]
    entries = [tuple((f[a][b][j] if i == c else 0) - (f[i][b][c] if j == a else 0)
                     - (f[a][i][c] if j == b else 0) for a, b, c in conds)
               for i in range(n) for j in range(n)]
    return (len(derived), n - len(linalg.pivot_columns(adjoint, n * n)),
            n * n - len(linalg.pivot_columns(entries, len(conds))))


def degenerates(g, g0):
    """Whether g0 passes the necessary conditions for a contraction of g:
    dim [g0, g0] <= dim [g, g], dim z(g0) >= dim z(g), dim Der(g0) >= dim Der(g)."""
    (d, z, der), (d0, z0, der0) = map(degeneration_invariants, (g, g0))
    return d0 <= d and z0 >= z and der0 >= der


def test_sl2_is_no_contraction_of_heis3():
    """The invariants tell the two apart, and refuse sl2 as a limit of heis3."""
    assert degeneration_invariants(sl2) == (3, 0, 3)
    assert degeneration_invariants(heis3) == (1, 1, 6)
    assert not degenerates(heis3, sl2) and degenerates(sl2, heis3)


# so(6) > so(5) and the dense so(5) are left out: their derivation systems (225 entries
# in 1575 conditions; 100 in 450, on large rationals) take seconds each
@pytest.mark.parametrize("split", [s for s in catalogued_and_basis_splits() if s.algebra.dim <= 10]
                         + dense_so_splits()[:4])
def test_contraction_limits_pass_the_degeneration_invariants(split):
    g0 = contract(iw_family(split))
    assert degenerates(split.algebra, g0)


@settings(max_examples=40, deadline=None)
@given(dense_splits())
def test_limits_on_drawn_bases_pass_the_degeneration_invariants(split):
    assert degenerates(split.algebra, contract(iw_family(split)))


def eliminated_outcomes(fam):
    """The limit and the order-2 rescaled basis brackets, or the error each raised."""
    alg = fam.algebra
    try:
        limit = ("limit", contract(fam).structure)
    except PoleError as err:
        limit = ("pole", str(err), err.valuation, err.component, err.pair)
    except SingularFamily:
        limit = ("singular",)
    e = alg.basis_vector
    return limit, [exact_outcome(eps_bracket, fam, e(a), e(b), 2)
                   for a in range(alg.dim) for b in range(alg.dim)]


def hand_built_split(alg, proj_h, proj_n):
    """A split made directly from two projector matrices, which nothing checks."""
    proj_h, proj_n = (tuple(tuple(F(x) for x in row) for row in m) for m in (proj_h, proj_n))
    return SubalgebraSplit(alg, (), (), proj_h, proj_n)


@pytest.mark.parametrize("proj_h, proj_n", [
    # the sum is I, but P_h P_n = diag(0, 0, -2)
    ([[0, 0, 0], [0, 0, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    # the sum is I, P_h is not idempotent, and [X1, X2] = X3 has a pole
    ([[1, 1, 0], [0, 1, 0], [0, 0, 0]], [[0, -1, 0], [0, 0, 0], [0, 0, 1]]),
    # P_h P_n = 0, but the sum is not I; a pole
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 2]]),
    # P_h P_n = 0, but the sum is not I; singular
    ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    # complementary idempotents over the denominator 2, not orthogonal: the closed form
    ([[0, 0, 0], [0, 0, 0], [F(1, 2), 0, 1]], [[1, 0, 0], [0, 1, 0], [F(-1, 2), 0, 0]]),
    # complementary idempotents along a plane that is no subalgebra: the closed form, a pole
    ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
])
def test_hand_built_split_falls_back_to_the_elimination(proj_h, proj_n):
    split = hand_built_split(so3, proj_h, proj_n)
    fam = iw_family(split)
    complementary = (linalg.mat_add(split.proj_h, split.proj_n) == linalg.identity(3)
                     and linalg.is_zero_matrix(linalg.mat_mul(split.proj_h, split.proj_n)))
    assert ("_det" in fam.__dict__) == complementary
    if complementary:
        assert_closed_form_is_the_elimination(split)
    eliminated = ContractionFamily(so3, (split.proj_h, split.proj_n))
    assert eliminated_outcomes(fam) == eliminated_outcomes(eliminated)


def limit_outcome(fam, x, y, order):
    """Coefficient 0 of the rescaled bracket as the type and repr of each entry, or the error."""
    try:
        jet = eps_bracket(fam, x, y, order)
    except PoleError as err:
        return ("pole", str(err), err.valuation, err.component)
    except SingularFamily:
        return ("singular",)
    return [(type(c), repr(c)) for c in jet.coeff(0)]


@settings(max_examples=100, deadline=None)
@given(families())
def test_eps_bracket_order_0_is_the_limit(case):
    fam, x, y, _, _ = case
    got = limit_outcome(fam, x, y, 0)
    assert got == limit_outcome(fam, x, y, 1) == limit_outcome(fam, x, y, 2)
    if got[0] not in ("pole", "singular"):
        assert eps_bracket(fam, x, y, 0).trunc == 1
    with pytest.raises(DimensionMismatch):
        eps_bracket(fam, x, y, -1)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def golden_family(name, alg=so3):
    return load_family(os.path.join(GOLDEN, name), alg)


MALFORMED = [(1, 0), (1, 0, 0, 0), (1.0, 0, 0), (F(1), 0.5, 0), (True, 0, 0)]


@pytest.mark.parametrize("name", ["so3-pole.json", "so3-singular.json"])
@pytest.mark.parametrize("bad", MALFORMED)
def test_malformed_vectors_fail_before_the_family_is_read(name, bad):
    """A malformed argument is refused as such, not as the pole or the singular determinant."""
    e = so3.basis_vector
    error = DimensionMismatch if len(bad) != 3 else TypeError
    for order in (0, 1, 3):
        for x, y in ((bad, e(1)), (e(0), bad)):
            with pytest.raises(error):
                eps_bracket(golden_family(name), x, y, order)
    for k in (0, 1, 2):
        expansion = SimpleNamespace(family=golden_family(name), order=k)
        for xs, ys in (([bad] * (k + 1), [e(1)] * (k + 1)),
                       ([e(0)] * k + [bad], [e(1)] * (k + 1))):
            with pytest.raises(error):
                GeneralExpansion.bracket_tuples(expansion, xs, ys)


# refused arguments, with the type and the message of what each one raises
REFUSED = [
    ((True, 0, 0), TypeError, "bool is not a scalar"),
    ((1, False, 0), TypeError, "bool is not a scalar"),
    ((True, 0), TypeError, "bool is not a scalar"),
    ((1.0, 0, 0), TypeError, "cannot interpret 1.0 as a scalar"),
    ((F(1), 0.5, 0), TypeError, "cannot interpret 0.5 as a scalar"),
    ((0, 0, 0.0), TypeError, "cannot interpret 0.0 as a scalar"),
    ((1.0, 0), TypeError, "cannot interpret 1.0 as a scalar"),
    ((None, 0, 0), TypeError, "cannot interpret None as a scalar"),
    (("x", 0, 0), ValueError, "Invalid literal for Fraction: 'x'"),
    ((1, 0), DimensionMismatch, "coefficient count differs from dimension"),
    (("1", 0), DimensionMismatch, "coefficient count differs from dimension"),
    ((1, 0, 0, 0), DimensionMismatch, "coefficient count differs from dimension"),
]
# one vector written as ints, as Fractions and as strings; and one with halves
READ_ALIKE = [((1, 2, -3), (F(1), F(2), F(-3)), ("1", "2", "-3")),
              ((F(1, 2), 0, F(-3, 7)), (F(1, 2), F(0), F(-3, 7)), ("1/2", "0", "-3/7"))]
INPUT_FAMILIES = {"ordinary": lambda: iw_family(x3_split()),
                  "pole": lambda: golden_family("so3-pole.json"),
                  "singular": lambda: golden_family("so3-singular.json")}


def input_outcome(fn, *args):
    """The repr of what ``fn`` returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except Exception as err:  # the error is the outcome compared
        return type(err), str(err)


@pytest.mark.parametrize("name", list(INPUT_FAMILIES))
def test_eps_bracket_and_bracket_tuples_read_exact_inputs_alike(name):
    """int, Fraction and string vectors give one result; every other argument
    is refused with the same error in either slot, whatever the family."""
    fam = INPUT_FAMILIES[name]()
    e = so3.basis_vector
    for order in (0, 1, 2):
        expansion = SimpleNamespace(family=fam, order=order)

        def outcomes(v):
            return [input_outcome(eps_bracket, fam, v, e(1), order),
                    input_outcome(eps_bracket, fam, READ_ALIKE[1][0], v, order),
                    input_outcome(GeneralExpansion.bracket_tuples, expansion,
                                  [v] * (order + 1), [e(1)] * (order + 1)),
                    input_outcome(GeneralExpansion.bracket_tuples, expansion,
                                  [e(0)] * order + [READ_ALIKE[1][0]], [e(2)] * order + [v])]

        for forms in READ_ALIKE:
            got = outcomes(forms[1])
            assert all(outcomes(v) == got for v in forms)
            assert got[0] == input_outcome(reference_eps_bracket, fam, forms[1], e(1), order)
        for bad, error, message in REFUSED:
            assert outcomes(bad) == [(error, message)] * 4


def tuples_jet(bracket, fam, k, xs, ys):
    """The coefficient tuples of a bracket, read back as the jet they truncate."""
    return Jet(fam.dim, k + 1, bracket(fam, k, xs, ys))


# the splits at both extremes, a degree-2 family, a pole and a singular family
EDGE_FAMILIES = {
    "dh=0": lambda: iw_family(span_subalgebra(so3, [])),
    "dn=0": lambda: iw_family(span_subalgebra(so3, [so3.basis_vector(a) for a in range(3)])),
    "heis3-weighted": lambda: golden_family("heis3-weighted.json", heis3),
    "pole": lambda: golden_family("so3-pole.json"),
    "singular": lambda: golden_family("so3-singular.json"),
}


@pytest.mark.parametrize("name", list(EDGE_FAMILIES))
def test_edge_families_match_the_full_truncation_references(name):
    """eps_bracket and bracket_tuples against the Fraction route at the full truncation."""
    fam = EDGE_FAMILIES[name]()
    alg = fam.algebra
    # eps I: v = n and t0 = n - 1; the identity: v = t0 = 0
    if name in ("dh=0", "dn=0"):
        v, t0 = (3, 2) if name == "dh=0" else (0, 0)
        assert (fam._inverse.valuation, fam._inverse.extend(v + 1)[0][0]) == (v, t0)
    e = alg.basis_vector
    vecs = [e(a) for a in range(alg.dim)] + [(F(1, 2), F(-3), F(5, 7)), (2, 0, F(-1, 3))]
    for order in range(5):
        for x, y in itertools.product(vecs, repeat=2):
            assert exact_outcome(eps_bracket, fam, x, y, order) == \
                exact_outcome(reference_eps_bracket, fam, x, y, order)
        for shift in range(3):
            xs = [vecs[(shift + i) % len(vecs)] for i in range(order + 1)]
            ys = [vecs[(2 * shift + 3 * i + 1) % len(vecs)] for i in range(order + 1)]
            assert exact_outcome(tuples_jet, general_bracket_tuples, fam, order, xs, ys) == \
                exact_outcome(tuples_jet, reference_bracket_tuples, fam, order, xs, ys)
    outcomes = {exact_outcome(eps_bracket, fam, x, y, 1)[0]
                for x, y in itertools.product(vecs, repeat=2)}
    assert outcomes == {"pole": {"pole", "jet"}, "singular": {"singular"}}.get(name, {"jet"})


@pytest.mark.parametrize("n, products", [(4, 12), (5, 39), (6, 95)])
def test_contract_brackets_the_eps0_and_eps1_products_only(monkeypatch, n, products):
    """One rescaled bracket and one solve per pair; [N x, N y], at eps^2, is never formed."""
    alg, sub = so_n(n)
    fam = iw_family(span_subalgebra(alg, sub))
    calls = Counter()
    counted = counter_of(calls)
    monkeypatch.setattr(LieAlgebra, "_numerator_bracket",
                        counted("product", LieAlgebra._numerator_bracket))
    for name in ("eps_bracket", "invert_family_apply"):
        monkeypatch.setattr(contraction, name, counted(name, getattr(contraction, name)))
    contract(fam)
    pairs = alg.dim * (alg.dim - 1) // 2
    assert calls == {"product": products, "eps_bracket": pairs, "invert_family_apply": pairs}


@pytest.mark.parametrize("split, entries", [
    (lambda: span_subalgebra(*so_n(5)), 24),
    (lambda: span_subalgebra(*so_n(6)), 50),
    (lambda: dense_so_splits()[0], None),  # a dense basis of so(4): its table's count
], ids=["so5", "so6", "dense-so4"])
def test_contract_makes_no_fraction_before_its_structure_is_read(monkeypatch, split, entries):
    """From its unit vectors to the limit table, ``contract`` stays on integers:
    it makes no Fraction and reads no scalar through ``rat`` until the limit's
    ``structure`` is read, and an Inonu-Wigner family never builds the entry
    polynomials of an elimination."""
    split = split()
    fam = iw_family(split)
    calls = Counter()
    counted = counter_of(calls)
    rat = linalg.rat
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liecontract" and getattr(module, "rat", None) is rat:
            monkeypatch.setattr(module, "rat", counted("rat", rat))
    for name in ("__new__", "_from_coprime_ints"):  # the second makes Fractions from 3.12 on
        if name in vars(F):  # each read off the class, bound as a call through it binds it
            monkeypatch.setattr(F, name, staticmethod(counted("fraction", getattr(F, name))))
    scaled = Counter()  # the types of the entries that the rescaled bracket scales
    exact_numerators = linalg.exact_numerators

    def recorded(vectors, *args):
        scaled.update(type(x) for v in vectors for x in v)
        return exact_numerators(vectors, *args)

    monkeypatch.setattr(linalg, "exact_numerators", recorded)
    limit = contract(fam)
    assert calls == {} and "structure" not in limit.__dict__
    table = sum(len(row) for _, _, row in limit._table[1])
    assert table == (table if entries is None else entries)
    n = fam.dim
    assert scaled == {int: n * n * (n - 1)}  # two unit vectors per pair a < b
    assert "_entries" not in fam.__dict__
    structure = limit.structure
    assert calls["fraction"] > 0 and calls["rat"] == 0
    want = iw_contract_closed_form(split)
    assert limit == want and structure == want.structure


def as_columns(terms, n):
    """Terms in sparse rows, (i, ((j, x), ...)), relaid in sparse columns, ((i, x), ...)."""
    out = []
    for t, rows, den in terms:
        cols = [[] for _ in range(n)]
        for i, row in rows:
            for j, x in row:
                cols[j].append((i, x))
        out.append((t, tuple(map(tuple, cols)), den))
    return out


def so4_pole_families():
    """so(4) families fixing the span of the X_(i,m) for one m, which is not
    bracket-closed, and rescaling the rest: each limit has a pole of order one."""
    alg, _ = so_n(4)
    fixed = [[m in (i, j) for j in range(4) for i in range(j)] for m in range(4)]
    return [ContractionFamily(alg, tuple(
        tuple(tuple(F(r == c and f == keep) for c in range(alg.dim)) for r, f in enumerate(fix))
        for keep in (True, False))) for fix in fixed]


def test_inverse_table_skips_its_zero_degrees_and_keeps_its_terms():
    """``extend`` starts its sums at the lowest power of eps in the adjugate and
    gives the terms of the loop over every degree, in sparse columns."""
    families = [iw_family(s) for s in catalogued_and_basis_splits() + dense_so_splits()]
    families += so4_pole_families() + [forced_plane_family(), golden_family("so3-pole.json"),
                                       golden_family("heis3-weighted.json", heis3)]
    starts = set()
    for fam in families:
        inverse = contraction._InverseSeries(fam._det, fam._adjugate)
        count = inverse.valuation + 4
        inverse.extend(1)  # grown in two steps, as the solves grow it
        want = reference_inverse_terms(fam._det, fam._adjugate, count)
        assert inverse.extend(count) == as_columns(want, fam.dim)
        # G_t is nonzero from the adjugate's lowest power on: adj_low / d0
        assert inverse.terms[0][0] == inverse._low
        starts.add(inverse._low)
    assert {0, 1, 4} <= starts  # so(6) > so(5): degrees 0..3 skipped
    with pytest.raises(PoleError):
        contract(so4_pole_families()[0])


def taylor_brackets(fam, order):
    """mu[t][a][b], coefficient t of the rescaled bracket of X_a and X_b, read off ``eps_bracket``."""
    e, n = fam.algebra.basis_vector, fam.dim
    jets = [[eps_bracket(fam, e(a), e(b), order) for b in range(n)] for a in range(n)]
    return [[[jets[a][b].coeff(t) for b in range(n)] for a in range(n)] for t in range(order + 1)]


def deformation_residuals(mu):
    """The (t, x, y, z), x < y < z, where sum_(i+j=t) mu_i(mu_j(x, y), z) + cyclic != 0.

    mu_i(w, z) is read by linearity in w off the table.  The sum is alternating
    once each mu_t is, so the triples x < y < z cover all.
    """
    n = len(mu[0])

    def apply(i, w, z):
        return [sum((x * mu[i][c][z][k] for c, x in enumerate(w) if x), F(0)) for k in range(n)]

    out = []
    for t, (x, y, z) in itertools.product(range(len(mu)), itertools.combinations(range(n), 3)):
        total = [F(0)] * n
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for i in range(t + 1):
                total = linalg.vec_add(total, apply(i, mu[t - i][a][b], c))
        if any(total):
            out.append((t, x, y, z))
    return out


def weighted_so3_families():
    """so3 under diag(eps, eps, eps^2), and under a dense rational conjugate of it."""
    rng = random.Random(7)
    while True:
        s = tuple(tuple(linalg.random_fraction(rng, 4, 3) for _ in range(3)) for _ in range(3))
        if linalg.poly_det([[(x,) for x in row] for row in s]):
            break
    s_inv = linalg.invert(s)
    phis = [tuple(tuple(F(r == c and w[r]) for c in range(3)) for r in range(3))
            for w in ((0, 0, 0), (1, 1, 0), (0, 0, 1))]
    conj = [linalg.mat_mul(linalg.mat_mul(s, m), s_inv) for m in phis]
    return [ContractionFamily(so3, tuple(phis)), ContractionFamily(so3, tuple(conj))]


def deformation_families():
    splits = [span_subalgebra(builtin(name)[0], vectors)
              for name in ("so3", "sl2", "heis3") for vectors in subalgebra_catalog(name).values()]
    return ([iw_family(s) for s in splits] + [iw_family(span_subalgebra(*so_n(4)))]
            + [golden_family("heis3-weighted.json", heis3)] + weighted_so3_families())


def test_rescaled_brackets_solve_the_deformation_equations():
    """Jacobi for every eps, order by order: sum_(i+j=t) mu_i(mu_j(x, y), z) +
    cyclic = 0 for t <= 4, mu_t read off ``eps_bracket`` alone, on the seven
    catalogued splits, so(4) > so(3), the weighted heis3 family and so3 under
    diag(eps, eps, eps^2) and a dense conjugate of it.  Its reference is the
    Jacobi identity, which shares no code with the closed-form table or the
    solve plan that ``eps_bracket`` runs on.

    Blind spots: on the 3-dimensional Inonu-Wigner families a wrong order-1
    or order-2 entry can still solve the equations (adding 1 to the X3 entry
    of mu_2(X1, X2) on so3 > span{X3} scales mu_2, and with mu_1 = mu_3 = 0
    the equations through order 4 are homogeneous in mu_2), while on so(4) >
    so(3) each such entry is caught; and eps -> c eps maps solutions to
    solutions, so a table off by c^t in its coefficient t (mu_t -> c^t mu_t)
    passes on every family.
    """
    orders = set()
    for fam in deformation_families():
        mu = taylor_brackets(fam, 4)
        for t, table in enumerate(mu):
            for a, b in itertools.product(range(fam.dim), repeat=2):
                assert table[a][b] == linalg.vec_neg(table[b][a])
            if any(any(v) for row in table for v in row):
                orders.add(t)
        assert deformation_residuals(mu) == [], fam
    assert orders == {0, 1, 2, 3, 4}
