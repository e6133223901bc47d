import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.algebra import (
    LieAlgebra, SubalgebraSplit, span_subalgebra, split_with_complement)
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.contraction import ContractionFamily, iw_family
from liecontract.errors import DimensionMismatch, InternalInvariantViolation
from liecontract.expansion import ExpandedElement, IWExpansion
from liecontract.group import HElement, NilTuple
from liecontract.jets import (
    Jet,
    MatrixJet,
    bracket_poly,
    jet_in_filtration,
)
from liecontract.oracle import Representation
from references import copies, reference_bracket_poly, reference_iw_bracket, reference_matmul

F = Fraction

so3 = builtin("so3")[0]
heis3 = builtin("heis3")[0]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)
vec3_st = st.tuples(fractions_st, fractions_st, fractions_st)


def jet3(coeffs, trunc=6):
    return Jet(3, trunc, coeffs)


def test_zero_canonicalization():
    j = jet3([(0, 0, 0), (0, 0, 0)])
    assert j.coeffs == ()
    assert j.degree == -1
    assert j == Jet.zero(3, 6)


def test_trailing_zero_equality():
    assert jet3([(1, 0, 0), (0, 0, 0)]) == jet3([(1, 0, 0)])


def test_trunc_mismatch_is_error():
    with pytest.raises(DimensionMismatch):
        jet3([(1, 0, 0)], trunc=3) + jet3([(1, 0, 0)], trunc=4)


def test_truncation_discards_high_coefficients():
    j = Jet(3, 2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert j.coeff(2) == (F(0),) * 3
    assert j.degree == 1


def test_eval_at_horner():
    # eps*X1 + eps^2*X2 at 1 gives X1 + X2
    j = jet3([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert j.eval_at(1) == (F(1), F(1), F(0))
    assert j.eval_at(F(1, 2)) == (F(1, 2), F(1, 4), F(0))


def test_add_negate_scale_shift():
    j = jet3([(0, 0, 0), (1, 0, 0)])
    assert (j + (-j)).degree == -1
    assert j.scale(F(1, 2)) == jet3([(0, 0, 0), (F(1, 2), 0, 0)])
    assert jet3([(1, 0, 0)]).shift(2) == jet3([(0, 0, 0), (0, 0, 0), (1, 0, 0)])
    assert Jet.zero(3, 6).shift(4) == Jet.zero(3, 6)
    assert jet3([(0, 0, 0), (0, 1, 0)]).shift(1) == jet3(
        [(0, 0, 0), (0, 0, 0), (0, 1, 0)])


@settings(max_examples=40, deadline=None)
@given(vec3_st, vec3_st, st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_shift_composes(u, v, j, k):
    p = jet3([u, v], trunc=8)
    assert p.shift(j).shift(k) == p.shift(j + k)


def test_numerators_reproduce_coefficients():
    p = jet3([(0, F(1, 2), -3), (F(-2, 3), 0, F(5, 4)), (0, 0, F(7, 10 ** 12))])
    rows, den = p.numerators
    assert den == 3 * 10 ** 12
    assert all(type(x) is int for row in rows for x in row)
    assert tuple(tuple(F(x, den) for x in row) for row in rows) == p.coeffs
    assert p.numerators is p.numerators  # computed once
    floats = Jet(3, 4, ((0.0, 0.5, -1.25), (0.1, 0.0, 3.0)))
    rows, den = floats.numerators
    assert den == 1
    assert tuple(tuple(x / den for x in row) for row in rows) == floats.coeffs
    assert all(type(x) is float for row in rows for x in row)
    assert Jet.zero(3, 6).numerators == ((), 1)


int_rows_st = st.lists(st.tuples(*[st.sampled_from((0, 0, 1, -2, 6, 12, -30, 7 * 2 ** 70))] * 3),
                       max_size=5)


@settings(max_examples=200, deadline=None)
@given(int_rows_st, st.sampled_from((1, 2, 6, 12, 60, 2 ** 70, 3 ** 40)), st.integers(1, 6))
def test_jet_from_numerators_keeps_the_reduced_numerators(rows, den, trunc):
    """Jet.from_numerators hands on exactly the pair linalg.numerators would compute."""
    jet = Jet.from_numerators(3, trunc, rows, den)
    assert jet == Jet(3, trunc, tuple(tuple(F(x, den) for x in row) for row in rows))
    assert all(type(x) is F for c in jet.coeffs for x in c)
    assert jet.numerators == linalg.numerators(jet.coeffs)
    assert all(type(x) is int for row in jet.numerators[0] for x in row)


@settings(max_examples=200, deadline=None)
@given(int_rows_st, st.sampled_from((1, 2, 6, 12, 60, 2 ** 70, 3 ** 40)), st.integers(1, 6))
def test_lazy_jet_matches_the_eager_jet(rows, den, trunc):
    """A jet from numerators builds its coefficients on their first read only,
    and then agrees with the jet built from the same coefficients."""
    eager = Jet(3, trunc, tuple(tuple(F(x, den) for x in row) for row in rows))
    eager.coeffs  # a view as well: built before the count below
    built = []
    from_numerators = linalg.from_numerators

    def counted(v, d):
        built.append(v)
        return from_numerators(v, d)

    linalg.from_numerators = counted
    try:
        lazy = copies(Jet.from_numerators(3, trunc, rows, den))
        for jet in lazy:
            assert (jet.dim, jet.trunc, jet.degree) == (eager.dim, eager.trunc, eager.degree)
            assert jet.numerators == eager.numerators
        assert not built  # nothing has read the coefficients yet
        for jet in lazy:
            assert jet == eager and eager == jet
            assert hash(jet) == hash(eager)
            assert repr(jet) == repr(eager)
            assert [[type(x) for x in c] for c in jet.coeffs] == \
                [[type(x) for x in c] for c in eager.coeffs]
            assert jet.degree == eager.degree
            assert jet.coeffs is jet.coeffs  # built once
        assert len(built) == len(lazy) * len(eager.coeffs)
        # copies of a jet whose coefficients are built keep them
        for jet in copies(lazy[0])[1:]:
            assert jet.coeffs == eager.coeffs and jet.numerators == eager.numerators
        assert len(built) == len(lazy) * len(eager.coeffs)
    finally:
        linalg.from_numerators = from_numerators


def test_truncated_at_its_own_order_is_the_jet_itself():
    eager = jet3([(0, 1, 0), (F(1, 2), 0, 3), (0, 0, F(-1, 3))], trunc=4)
    assert eager.truncated(4) is eager
    lazy = Jet.from_numerators(3, 4, [(0, 6, 0), (3, 0, 18), (0, 0, -2)], 6)
    assert lazy.truncated(4) is lazy and "coeffs" not in lazy.__dict__
    assert lazy.truncated(2) == eager.truncated(2) == jet3([(0, 1, 0), (F(1, 2), 0, 3)], trunc=2)
    assert lazy.truncated(6).coeffs == eager.coeffs


def test_jet_from_numerators_checks_its_shape():
    with pytest.raises(DimensionMismatch):
        Jet.from_numerators(3, 0, [], 1)
    with pytest.raises(DimensionMismatch):
        Jet.from_numerators(3, 2, [(1, 2)], 1)
    # rows past the truncation order and trailing zero rows are dropped
    jet = Jet.from_numerators(2, 2, [(0, 0), (2, 4), (1, 1)], 6)
    assert jet.numerators == (((0, 0), (1, 2)), 3)
    assert jet.degree == 1 and jet.coeff(1) == (F(1, 3), F(2, 3))
    assert Jet.from_numerators(2, 3, [(0, 0)], 5).numerators == ((), 1)
    with pytest.raises(AttributeError):
        Jet.from_numerators(2, 3, [(1, 0)], 5).missing


def test_bracket_poly_so3_rescaled_generators():
    p = jet3([(0, 0, 0), (1, 0, 0)])  # eps*X1
    q = jet3([(0, 0, 0), (0, 1, 0)])  # eps*X2
    assert bracket_poly(so3, p, q) == jet3([(0, 0, 0), (0, 0, 0), (0, 0, 1)])


def test_bracket_poly_abelian_is_zero():
    ab = builtin("abelian(3)")[0]
    rng = random.Random(0)
    for _ in range(10):
        p = Jet(3, 5, tuple(linalg.random_vector(rng, 3) for _ in range(3)))
        q = Jet(3, 5, tuple(linalg.random_vector(rng, 3) for _ in range(3)))
        assert bracket_poly(ab, p, q).degree == -1


def test_bracket_poly_hand_convolution():
    # [X3 + eps*X1, X3] = eps*[X1, X3] = -eps*X2, expanded term by term
    p = jet3([(0, 0, 1), (1, 0, 0)])
    q = jet3([(0, 0, 1)])
    assert bracket_poly(so3, p, q) == jet3([(0, 0, 0), (0, -1, 0)])


@settings(max_examples=40, deadline=None)
@given(vec3_st, vec3_st, vec3_st, vec3_st, fractions_st)
def test_evaluation_homomorphism(u0, u1, v0, v1, point):
    # degree(p) + degree(q) < trunc, so evaluation commutes with the bracket
    p = jet3([u0, u1], trunc=4)
    q = jet3([v0, v1], trunc=4)
    lhs = bracket_poly(so3, p, q).eval_at(point)
    rhs = so3.bracket(p.eval_at(point), q.eval_at(point))
    assert lhs == rhs


def test_membership_examples():
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    assert jet_in_filtration(split, jet3([(0, 0, 1), (1, 0, 0)]), 0)
    assert not jet_in_filtration(split, jet3([(1, 0, 0)]), 0)
    # eps^2*X3 + eps^3*X1 sits at filtration level 2 (and in the larger level 1)
    p = jet3([(0, 0, 0), (0, 0, 0), (0, 0, 1), (1, 0, 0)])
    assert jet_in_filtration(split, p, 2)
    assert jet_in_filtration(split, p, 1)
    assert not jet_in_filtration(split, p, 3)
    # eps*X1 fails level 1: the linear coefficient is outside the subalgebra
    assert not jet_in_filtration(split, jet3([(0, 0, 0), (1, 0, 0)]), 1)
    assert jet_in_filtration(split, Jet.zero(3, 6), 3)
    with pytest.raises(DimensionMismatch):
        jet_in_filtration(split, jet3([(0, 0, 1)], trunc=2), 2)


def random_jet_through(split, rng, trunc=6, depth=3):
    """Random jet whose value at 0 lies in the subalgebra span."""
    alg = split.algebra
    lead = alg.zero_vector()
    for v in split.h_basis:
        lead = linalg.vec_add(lead, linalg.vec_scale(linalg.random_fraction(rng), v))
    tail = [linalg.random_vector(rng, alg.dim) for _ in range(depth)]
    return Jet(alg.dim, trunc, (lead, *tail))


def test_subalgebra_jets_closed_under_bracket():
    rng = random.Random(21)
    for name in ("so3", "sl2", "heis3"):
        alg, _ = builtin(name)
        from liecontract.catalog import subalgebra_catalog

        for vectors in subalgebra_catalog(name).values():
            split = span_subalgebra(alg, vectors)
            for _ in range(15):
                p = random_jet_through(split, rng)
                q = random_jet_through(split, rng)
                assert jet_in_filtration(split, p, 0)
                assert jet_in_filtration(split, bracket_poly(alg, p, q), 0)


def test_filtration_is_an_ideal():
    rng = random.Random(22)
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    for k in (1, 2, 3):
        for _ in range(15):
            p = random_jet_through(split, rng, trunc=8).shift(k)
            q = random_jet_through(split, rng, trunc=8)
            assert jet_in_filtration(split, p, k)
            assert jet_in_filtration(split, bracket_poly(so3, p, q), k)


def test_matrix_jet_product_truncates():
    m = MatrixJet(2, 2, (linalg.identity(2), linalg.identity(2)))
    sq = m.matmul(m)
    assert sq.coeff(0) == linalg.identity(2)
    assert sq.coeff(1) == linalg.mat_scale(F(2), linalg.identity(2))
    assert sq.degree == 1  # the quadratic term is beyond the truncation


def one_state_cases():
    """For each value type: (mutable input, the public constructor on it, the
    same value from its kept state, that state's keys, the Fraction field, a
    mutation of the input)."""
    half = F(1, 2)

    def so3_halved():
        f = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            f[a][b][c], f[b][a][c] = half, -half
        return f

    def change_tensor(f):
        f[0][1][2], f[2][2][2] = 5, 7

    def change_matrices(mats):
        mats[0][0][0], mats[1] = 9, linalg.identity(2)

    def change_rows(rows):
        rows[0][1] = 7
        rows.append([1, 1, 1])

    def change_slots(slots):
        slots[0][0], slots[1][0][1] = 9, 4

    def change_nil(slots):
        slots[0][0][1], slots[1][2] = 4, 9

    def change_projectors(mats):
        mats[0][2][0], mats[1][0] = 7, [0, 0, 0]

    # X3 and its complement X1 + X3/2, X2 in so3: P_h X1 = -X3/2, over the denominator 2
    h_basis, n_basis = ((F(0), F(0), F(1)),), ((F(1), F(0), half), (F(0), F(1), F(0)))

    plane = LieAlgebra.from_brackets(2, ("A", "B"), [])

    def projectors():
        return [[[0, 0, 0], [0, 0, 0], [-half, 0, 1]], [[1, 0, 0], [0, 1, 0], [half, 0, 0]]]

    return {
        "LieAlgebra": (
            so3_halved(), lambda f: LieAlgebra(3, ("X1", "X2", "X3"), f),
            LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                     [(0, 1, 2, half), (1, 2, 0, half), (2, 0, 1, half)]),
            ["dim", "basis_names", "_table", "_antisymmetry"], "structure", change_tensor),
        "MatrixJet": (
            [[[1, 0], [0, 1]], [[half, 0], [0, F(-3, 2)]], [[0, 0], [0, 0]]],
            lambda mats: MatrixJet(2, 3, mats),
            MatrixJet.from_numerators(2, 3, [((2, 0), (0, 2)), ((1, 0), (0, -3))], 2),
            ["size", "trunc", "numerators"], "coeffs", change_matrices),
        "Jet": (
            [[0, half, 3], [F(-2, 3), 0, 0], [0, 0, 0]], lambda rows: Jet(3, 4, rows),
            Jet.from_numerators(3, 4, [(0, 3, 18), (-4, 0, 0)], 6),
            ["dim", "trunc", "numerators"], "coeffs", change_rows),
        "HElement": (
            [[0, -1, 0], [1, 0, 0], [0, 0, half]], HElement,
            HElement._from_numerators([[0, -2, 0], [2, 0, 0], [0, 0, 1]], 2),
            ["numerators"], "ad", change_rows),
        "ExpandedElement": (
            [[half, 0, 0], [[0, 1, 0]], [0, 0, 3]],
            lambda slots: ExpandedElement(slots[0], slots[1], slots[2]),
            ExpandedElement._from_numerators([(1, 0, 0), (0, 2, 0), (0, 0, 6)], 2),
            ["numerators"], "mids", change_slots),
        "NilTuple": (
            [[[half, 0, 0]], [0, 0, 3]], lambda slots: NilTuple(slots[0], slots[1]),
            NilTuple._from_numerators([(1, 0, 0), (0, 0, 6)], 2),
            ["numerators"], "top", change_nil),
        "SubalgebraSplit": (
            projectors(), lambda mats: SubalgebraSplit(so3, h_basis, n_basis, *mats),
            without(split_with_complement(so3, h_basis, n_basis), "_inverse"),
            ["algebra", "h_basis", "n_basis", "_numerators"], "proj_h", change_projectors),
        "ContractionFamily": (
            projectors(), lambda mats: ContractionFamily(so3, mats),
            without(iw_family(split_with_complement(so3, h_basis, n_basis)), "_det", "_inverse"),
            ["algebra", "_numerators"], "phis", change_projectors),
        "Representation": (
            [[[1, 0], [0, 1]], [[half, 0], [0, F(-3, 2)]]], lambda mats: Representation(plane, mats),
            linalg.with_state(Representation, algebra=plane,
                              _numerators=((((2, 0), (0, 2)), ((1, 0), (0, -3))), 2)),
            ["algebra", "_numerators"], "mats", change_matrices),
    }


def without(value, *caches):
    """``value`` with the caches that its constructor fills dropped, as a first read
    finds them."""
    for name in caches:
        del value.__dict__[name]
    return value


def leaves(value):
    return [x for v in value for x in leaves(v)] if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("kind", list(one_state_cases()))
def test_constructors_keep_one_state(kind):
    """The public constructor keeps only the state that the constructor from
    numerators keeps, read off its input at once; the Fraction field is a view
    of that state for both, built on its first read."""
    data, build, twin, keys, field, change = one_state_cases()[kind]
    value = build(data)
    assert list(value.__dict__) == list(twin.__dict__) == keys
    change(data)  # the input is not kept
    assert value.__dict__ == twin.__dict__
    assert field not in value.__dict__ and field not in twin.__dict__
    assert repr(value) == repr(twin) and value == twin and hash(value) == hash(twin)
    view = getattr(value, field)
    assert view == getattr(twin, field) and getattr(value, field) is view  # built once
    assert {type(x) for x in leaves(view)} == {F}


def test_splits_and_families_compare_their_integer_state():
    """``==`` and ``hash`` read the integer state, not the Fraction views;
    projecting the zero vector builds no view either."""
    data, build, twin, *_ = one_state_cases()["SubalgebraSplit"]
    split = build(data)
    assert split == twin and hash(split) == hash(twin)
    other = span_subalgebra(so3, [so3.basis_vector(2)])  # P_h X1 = 0: another state
    assert split != other and split.h_basis == other.h_basis
    assert split._numerators == ((((0, 0, 0), (0, 0, 0), (-1, 0, 2)),
                                  ((2, 0, 0), (0, 2, 0), (1, 0, 0))), 2)
    for zero in ((0, 0, 0), (F(0), F(0), F(0)), (0.0, -0.0, 0.0)):
        for key in ("h", "n"):
            got = split._project(key, zero)
            assert got == (0, 0, 0) and {type(x) for x in got} == {F}
    assert "proj_h" not in split.__dict__ and "proj_n" not in split.__dict__
    with pytest.raises(DimensionMismatch):
        split._project("n", (0, 0))
    with pytest.raises(DimensionMismatch, match="projectors must be square"):
        SubalgebraSplit(so3, (), (), data[0][:2], data[1])
    fams = [ContractionFamily(so3, data), iw_family(twin)]
    assert fams[0] == fams[1] and hash(fams[0]) == hash(fams[1])
    assert fams[0] != ContractionFamily(so3, data[::-1])
    assert all("phis" not in fam.__dict__ for fam in fams)
    assert ContractionFamily(so3, data).degree == 1


def test_jets_read_exact_entries_as_rat_does():
    """A string entry is read through rat, into the jet its Fraction twin
    builds, and a bool is refused as rat refuses it."""
    written, want = Jet(3, 1, (("2", 0, 0),)), Jet(3, 1, ((F(2), 0, 0),))
    assert written == want and written.numerators == want.numerators
    q = Jet(3, 1, ((0, 3, 0),))
    assert bracket_poly(so3, written, q) == bracket_poly(so3, want, q) == jet3([(0, 0, 6)], 1)
    for coeffs in [((True, 0, 0),), ((0, 0, 0), (0, False, 1))]:
        with pytest.raises(TypeError, match="^bool is not a scalar$"):
            Jet(3, 2, coeffs)


def test_float_jets_keep_their_values():
    """A jet holding a float keeps its entries as read, over the float 1.0:
    the floats as they are (-0.0 included), any other entry through rat."""
    coeffs = ((0.1, -0.0, F(1, 3)), (0, "1/2", 2.5), (0.0, -0.0, 0))
    jet = Jet(3, 4, coeffs)
    want = ((0.1, -0.0, F(1, 3)), (F(0), F(1, 2), 2.5))
    assert jet.numerators == (want, 1.0) and type(jet.numerators[1]) is float
    assert repr(jet.coeffs) == repr(want) and jet.degree == 1
    assert repr(jet.truncated(2)) == repr(jet).replace("trunc=4", "trunc=2")


def test_matrix_jet_constructors_refuse_bad_input_alike():
    """Both constructors check the order and the shapes in one place, with one
    message each (a float is refused in ``test_oracle``)."""
    identity = ((1, 0), (0, 1))
    for size, trunc, mats, message in (
            (2, 0, [identity], "truncation order must be positive"),
            (2, -1, [], "truncation order must be positive"),
            (2, 2, [identity, ((1, 0),)], "matrix coefficient has wrong shape"),
            (2, 2, [((1, 0, 0), (0, 1, 0))], "matrix coefficient has wrong shape"),
            # a trailing zero coefficient of the wrong shape is refused, not trimmed away
            (2, 2, [identity, ((0, 0, 0),) * 3], "matrix coefficient has wrong shape"),
            (3, 1, [identity], "matrix coefficient has wrong shape")):
        with pytest.raises(DimensionMismatch, match=message):
            MatrixJet(size, trunc, mats)
        with pytest.raises(DimensionMismatch, match=message):
            MatrixJet.from_numerators(size, trunc, mats, 1)
    # coefficients from the truncation order on are dropped unread, a float among them
    assert MatrixJet(2, 1, [identity, ((0.5, 0), (0, 0))]) == MatrixJet.identity(2, 1)


# ----- the shared Cauchy product against the references' own product loops

entry_st = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2), F(-3, 4)))
ONE_IN_THREE = st.sampled_from((True, False, False))
ONE_IN_EIGHT = st.sampled_from((True,) + (False,) * 7)


def fraction_vectors(n):
    return st.tuples(*[entry_st.map(F)] * n)


def matrices(n, entries):
    return st.tuples(*[st.tuples(*[entries] * n)] * n)


def fraction_slot(draw, n):
    """A vector coefficient, the zero vector one time in three."""
    zero = linalg.zero_vector(n)
    return zero if draw(ONE_IN_THREE) else draw(fraction_vectors(n))


def sequence(draw, items, zero, most):
    """Up to ``most`` coefficients with interior zeros; empty one time in eight."""
    if draw(ONE_IN_EIGHT):
        return []
    body = [zero if draw(ONE_IN_THREE) else draw(items)
            for _ in range(draw(st.integers(0, most - 1)))]
    return body + [draw(items.filter(lambda c: c != zero))]


@st.composite
def algebras_with_splits(draw):
    """so3 and heis3 with a catalogued split, or a random tensor with a trivial one."""
    name = draw(st.sampled_from(("so3", "heis3", "random")))
    if name != "random":
        alg = builtin(name)[0]
        span = draw(st.sampled_from(list(subalgebra_catalog(name).values())))
        return alg, span_subalgebra(alg, span)
    n = draw(st.integers(1, 4))
    entries = [(a, b, c, x) for a in range(n) for b in range(a + 1, n) for c in range(n)
               for x in [draw(entry_st)] if x]
    alg = LieAlgebra.from_brackets(n, tuple(f"X{i + 1}" for i in range(n)), entries)
    whole = draw(st.booleans())
    return alg, span_subalgebra(alg, [alg.basis_vector(a) for a in range(n)] if whole else [])


@settings(max_examples=200, deadline=None)
@given(algebras_with_splits(), st.data())
def test_cauchy_product_matches_reference_loops(alg_split, data):
    alg, split = alg_split
    n = alg.dim
    draw = data.draw

    # vector jets, often truncated below their degree sum
    trunc = draw(st.integers(1, 6))
    zero = linalg.zero_vector(n)
    p = Jet(n, trunc, sequence(draw, fraction_vectors(n), zero, trunc + 1))
    q = Jet(n, trunc, sequence(draw, fraction_vectors(n), zero, trunc + 1))
    assert bracket_poly(alg, p, q) == reference_bracket_poly(alg, p, q)

    # matrix jets
    zero = linalg.zero_matrix(n)
    x = MatrixJet(n, trunc, sequence(draw, matrices(n, entry_st), zero, trunc + 1))
    y = MatrixJet(n, trunc, sequence(draw, matrices(n, entry_st), zero, trunc + 1))
    assert x.matmul(y) == reference_matmul(x, y)

    # expansion slots, with a leading slot that may leave the subalgebra
    ea = IWExpansion(split, draw(st.integers(0, 3)))
    a, b = (ExpandedElement(fraction_slot(draw, n),
                            tuple(fraction_slot(draw, n) for _ in range(ea.order)),
                            fraction_slot(draw, n)) for _ in range(2))
    try:
        expected = reference_iw_bracket(ea, a, b)
    except InternalInvariantViolation as err:
        with pytest.raises(InternalInvariantViolation, match=str(err)):
            ea.bracket(a, b)
    else:
        assert ea.bracket(a, b) == expected
