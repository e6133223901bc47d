"""The numeric mode against the loops it replaced, compared by repr.

``mat_vec``, the split projections and the checks of
``ExpansionGroup.h_element`` used to multiply exact values by floats one
product at a time, with every sum but the integer one started at the
Fraction zero.  The references (``references.py``) are those loops.  The current code must
give the same types, values and float bits (repr tells Fraction(0, 1) from
0.0, and -0.0 from 0.0) and, for ``h_element``, the same outcome and
message.  A guard counts the Fraction-to-float coercions of the numeric mode.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.algebra import LieAlgebra, span_subalgebra
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.errors import DimensionMismatch
from liecontract.group import FLOAT_TOL, QUARTER_TURN, ExpansionGroup, HElement, _rotation_ad
from references import (
    astuple,
    canonical_group,
    dense_so_split,
    reference_ad_nil,
    reference_h_compose,
    reference_h_element,
    reference_h_inverse,
    reference_mat_vec,
    reference_mult,
    so_n_rotation_ad,
)

F = Fraction


def h_element_outcome(grp, ad, tol):
    try:
        return grp.h_element(ad, tol=tol).ad
    except DimensionMismatch as err:
        return str(err)


# ----- inputs ---------------------------------------------------------------

exact_st = st.one_of(st.fractions(-5, 5, max_denominator=6),
                     st.builds(F, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 12)))
float_st = st.one_of(st.floats(-4, 4), st.floats(allow_nan=False, allow_infinity=False))
FLOAT_ZEROS = (0.0, -0.0, F(0), 0)
ENTRIES = {  # kind: (zeros, nonzero values)
    "int": (st.just(0), st.integers(-10 ** 6, 10 ** 6)),
    "exact": (st.just(F(0)), exact_st),
    # the numeric mode: floats, with the Fraction zeros it returns and int zeros
    "float": (st.sampled_from(FLOAT_ZEROS), float_st),
    # ``linalg.rounded``: floats and int zeros
    "rounded": (st.just(0), float_st),
    "mixed": (st.sampled_from(FLOAT_ZEROS), st.one_of(exact_st, float_st)),
}


def kind_vectors(kind, size, empty_support=True):
    """Vectors of one kind; one in five has empty support, when asked for."""
    zeros, values = ENTRIES[kind]
    general = st.tuples(*[st.one_of(zeros, values)] * size)
    if not empty_support:
        return general
    return st.integers(0, 4).flatmap(lambda i: st.tuples(*[zeros] * size) if i == 0 else general)


kinds_st = st.sampled_from(sorted(ENTRIES))


@st.composite
def mat_vec_cases(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    m = tuple(draw(kind_vectors(draw(kinds_st), cols, empty_support=False)) for _ in range(rows))
    return m, draw(kind_vectors(draw(kinds_st), cols))


def catalogued_and_trivial_splits():
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        whole = [alg.basis_vector(a) for a in range(alg.dim)]
        for span in ([], whole, *subalgebra_catalog(name).values()):
            yield span_subalgebra(alg, span)


SPLITS = [*catalogued_and_trivial_splits(), dense_so_split(4, 1), dense_so_split(5, 2)]


# ----- mat_vec and the projections ------------------------------------------

@settings(max_examples=400, deadline=None)
@given(mat_vec_cases())
def test_mat_vec_matches_the_reference_by_repr(case):
    m, v = case
    assert repr(linalg.mat_vec(m, v)) == repr(reference_mat_vec(m, v))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_projections_match_the_reference_by_repr(data):
    split = data.draw(st.sampled_from(SPLITS))
    x = data.draw(kind_vectors(data.draw(kinds_st), split.algebra.dim))
    want_h = reference_mat_vec(split.proj_h, x)
    want_n = reference_mat_vec(split.proj_n, x)
    assert repr(split.project_h(x)) == repr(want_h)
    assert repr(split.project_n(x)) == repr(want_n)
    assert repr(split.coset_reduce(x)) == repr(want_n)
    assert split.contains(x) == linalg.is_zero_vector(want_n)


def test_dense_splits_have_dense_projectors():
    # P_h is the identity on so(n-1)'s coordinates, and dense on the complement's
    for split in SPLITS[-2:]:
        nonzero = sum(x != 0 for row in split.proj_h for x in row)
        assert nonzero == split.dim_h * (1 + split.dim_n)


# ----- h_element ------------------------------------------------------------

def rebased_so3():
    """so3 in the basis of the columns of P, so that its constants are fractions.

    Returns the group along X3 and P: a matrix M in the catalogue basis is
    P^-1 M P in this one.
    """
    so3 = builtin("so3")[0]
    p = ((F(1), F(1, 2), F(0)), (F(0), F(1), F(1, 3)), (F(2, 5), F(0), F(1)))
    pinv = linalg.invert(p)
    cols = tuple(zip(*p))
    tensor = tuple(tuple(linalg.mat_vec(pinv, so3.bracket(cols[a], cols[b])) for b in range(3))
                   for a in range(3))
    alg = LieAlgebra(3, ("Y1", "Y2", "Y3"), tensor)
    split = span_subalgebra(alg, [linalg.mat_vec(pinv, so3.basis_vector(2))])
    return ExpansionGroup(split, 0), p


I3 = linalg.identity(3)
# (group, P): P takes so3 matrices into the group's basis; None off so3
GROUPS = [(canonical_group("so3", 0), I3), rebased_so3(), (canonical_group("sl2", 0), None),
          (canonical_group("heis3", 0), None), (ExpansionGroup(dense_so_split(4, 3), 0), None)]


def cayley_x1(t):
    """The exact rotation about X1 with tan(angle / 2) = t: it moves span{X3}."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return ((F(1), F(0), F(0)), (F(0), c, -s), (F(0), s, c))


def conjugate(p, m):
    """P^-1 m P, in floats wherever m holds one."""
    return linalg.mat_mul(linalg.mat_mul(linalg.invert(p), m), p)


@st.composite
def h_cases(draw):
    """Rotations, quarter turns, tilts off the subalgebra, zero and random matrices,
    some perturbed by about tol at one entry."""
    grp, p = draw(st.sampled_from(GROUPS))
    n = grp.algebra.dim
    tol = draw(st.sampled_from((FLOAT_TOL, 1e-9, 1e-6)))
    kinds = ["identity", "zero", "random"] + (["rotation", "quarter", "tilt"] if p else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        ad = linalg.identity(n)
    elif kind == "zero":
        ad = linalg.zero_matrix(n)
    elif kind == "random":
        ad = tuple(draw(kind_vectors(draw(kinds_st), n, empty_support=False)) for _ in range(n))
    elif kind == "rotation":
        ad = conjugate(p, _rotation_ad(draw(st.floats(0, 2 * math.pi))))
    elif kind == "quarter":
        ad = conjugate(p, linalg.mat_mul(QUARTER_TURN, QUARTER_TURN)
                       if draw(st.booleans()) else QUARTER_TURN)
    else:
        ad = conjugate(p, cayley_x1(draw(st.fractions(-3, 3, max_denominator=5))))
    if draw(st.booleans()):
        ad = tuple(tuple(float(x) for x in row) for row in ad)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = tol * draw(st.sampled_from((-10, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2, 10)))
        ad = tuple(tuple(x + delta if (r, c) == (i, j) else x for c, x in enumerate(row))
                   for r, row in enumerate(ad))
    return grp, ad, tol


@settings(max_examples=400, deadline=None)
@given(h_cases())
def test_h_element_matches_the_reference(case):
    grp, ad, tol = case
    assert repr(h_element_outcome(grp, ad, tol)) == repr(reference_h_element(grp, ad, tol))


def test_h_element_reference_cases_reach_every_outcome():
    grp, p = GROUPS[1]
    rotation = conjugate(p, _rotation_ad(0.7))
    bumped = tuple(tuple(x + 2e-9 if (r, c) == (0, 0) else x for c, x in enumerate(row))
                   for r, row in enumerate(rotation))
    cases = {
        "accepted": (rotation, 1e-9),
        "matrix is not a bracket automorphism at pair (Y1, Y2)": (bumped, 1e-9),
        "matrix does not preserve the subalgebra": (conjugate(p, cayley_x1(F(1, 2))), 1e-9),
        "adjoint matrix is singular": (linalg.zero_matrix(3), 1e-9),
    }
    for want, (ad, tol) in cases.items():
        got = h_element_outcome(grp, ad, tol)
        assert repr(got) == repr(reference_h_element(grp, ad, tol))
        assert (got if isinstance(got, str) else "accepted") == want
    # the same bump within a looser tolerance passes
    assert not isinstance(h_element_outcome(grp, bumped, 1e-6), str)


def test_basis_brackets_match_the_structure_route():
    """The basis brackets read off the integer table equal the rows of the
    dense tensor and their floats over the rows' common denominator, bit for bit."""
    for grp in [g for g, _ in GROUPS] + [ExpansionGroup(split, 0) for split in SPLITS]:
        alg = grp.algebra
        pairs = [(a, b) for a in range(alg.dim) for b in range(a + 1, alg.dim)]
        rows = [alg.structure[a][b] for a, b in pairs]
        floats = linalg.rounded(*linalg.numerators(rows))
        want = tuple((a, b, row, f) for (a, b), row, f in zip(pairs, rows, floats))
        assert repr(grp._basis_brackets) == repr(want)


# ----- the exact group law on integer numerators ------------------------------
#
# Exact h_element checks, h_compose, h_inverse and ad_nil run on the integer
# numerators N / delta of the adjoint matrix.  ``reference_h_element`` is the
# Fraction route of the checks; ``reference_h_compose``, ``reference_h_inverse``
# and ``reference_ad_nil`` are the Fraction loops of the other three.

def cayley_x3(t):
    """The exact rotation about X3 with tan(angle / 2) = t: it keeps span{X3}."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return ((c, -s, F(0)), (s, c, F(0)), (F(0), F(0), F(1)))


def exact_automorphism(index, t):
    """An exact automorphism of GROUPS[index] that keeps its subalgebra, for t != 0."""
    grp, p = GROUPS[index]
    if p is not None:
        return conjugate(p, cayley_x3(t))
    if grp.algebra.basis_names == ("H", "E", "F"):  # the torus: scales E and F reciprocally
        return ((F(1), F(0), F(0)), (F(0), t * t, F(0)), (F(0), F(0), 1 / (t * t)))
    if grp.algebra.basis_names == ("P", "Q", "Z"):  # GL(2) on P, Q and det on the centre
        return ((t, F(1), F(0)), (F(-1), t, F(0)), (t / 2, 1 - t, t * t + 1))
    return so_n_rotation_ad(4, t)


nonzero_st = st.fractions(-3, 3, max_denominator=5).filter(bool)


@st.composite
def exact_matrices(draw, index):
    """Exact matrices for GROUPS[index]: automorphisms (accepted), tilts off
    the subalgebra, zero and random matrices, some bumped at one entry, with
    integral entries given as ints or as Fractions."""
    grp, p = GROUPS[index]
    n = grp.algebra.dim
    kind = draw(st.sampled_from(["automorphism"] * 3 + ["zero", "random"]
                                + (["tilt"] if p else [])))
    if kind == "automorphism":
        ad = exact_automorphism(index, draw(nonzero_st))
    elif kind == "tilt":
        ad = conjugate(p, cayley_x1(draw(nonzero_st)))
    elif kind == "zero":
        ad = linalg.zero_matrix(n)
    else:
        ad = tuple(draw(kind_vectors(draw(st.sampled_from(("int", "exact"))), n,
                                     empty_support=False)) for _ in range(n))
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        ad = tuple(tuple(x + F(1, 7) if (r, c) == (i, j) else x for c, x in enumerate(row))
                   for r, row in enumerate(ad))
    ints = draw(st.booleans())
    return tuple(tuple(int(x) if ints and x == int(x) else x for x in row) for row in ad)


def outcome(f, *args):
    """f(*args), or the message of the DimensionMismatch or ValueError it raises."""
    try:
        return f(*args)
    except (DimensionMismatch, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def law_outcomes(grp, h1, h2, a):
    """h_compose, h_inverse and ad_nil, each against its reference, as repr pairs."""
    return [
        (repr(outcome(lambda: grp.h_compose(h1, h2).ad)),
         repr(outcome(reference_h_compose, h1, h2))),
        (repr(outcome(lambda: grp.h_inverse(h1).ad)), repr(outcome(reference_h_inverse, h1))),
        (repr(outcome(lambda: astuple(grp.ad_nil(h1, a)))), repr(reference_ad_nil(grp, h1, a))),
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_group_law_matches_the_fraction_loops(data):
    index = data.draw(st.integers(0, len(GROUPS) - 1))
    base, _ = GROUPS[index]
    n = base.algebra.dim
    grp = ExpansionGroup(base.split, data.draw(st.integers(0, 2)))
    ad1, ad2 = data.draw(exact_matrices(index)), data.draw(exact_matrices(index))
    for ad in (ad1, ad2):
        assert repr(h_element_outcome(grp, ad, FLOAT_TOL)) == repr(reference_h_element(grp, ad, 0))
    kind = data.draw(st.sampled_from(("int", "exact", "exact", "float")))
    a = grp.nil([data.draw(kind_vectors(kind, n)) for _ in range(grp.order)],
                data.draw(kind_vectors(kind, n)))
    # elements built by the user keep only their numerators, as h_element's do
    users = [HElement(tuple(tuple(linalg.rat(x) for x in row) for row in ad)) for ad in (ad1, ad2)]
    assert list(users[0].__dict__) == ["numerators"]
    for got, want in law_outcomes(grp, *users, a):
        assert got == want
    if any(isinstance(h_element_outcome(grp, ad, FLOAT_TOL), str) for ad in (ad1, ad2)):
        return
    h1, h2 = grp.h_element(ad1), grp.h_element(ad2)
    composed, inverse = grp.h_compose(h1, h2), grp.h_inverse(h1)
    for h in (h1, h2, composed, inverse):
        assert h.__dict__["numerators"] == linalg.numerators(h.ad)
    for got, want in law_outcomes(grp, h1, h2, a) + law_outcomes(grp, composed, inverse, a):
        assert got == want
    for twin in (copy.copy(composed), pickle.loads(pickle.dumps(composed))):
        assert twin == composed and repr(twin) == repr(composed)
        assert twin.__dict__["numerators"] == composed.numerators
        assert repr(grp.h_compose(twin, h2)) == repr(grp.h_compose(composed, h2))


def test_exact_group_law_reaches_every_outcome():
    """The exact cases above include each rejection, on rebased so3 (table
    denominator D != 1) and on the dense so(4) split."""
    grp, p = GROUPS[1]
    assert grp.algebra._table[0] != 1
    rotation = exact_automorphism(1, F(1, 2))
    bumped = tuple(tuple(x + F(1, 7) if (r, c) == (0, 0) else x for c, x in enumerate(row))
                   for r, row in enumerate(rotation))
    cases = {
        "accepted": rotation,
        "matrix is not a bracket automorphism at pair (Y1, Y2)": bumped,
        "matrix does not preserve the subalgebra": conjugate(p, cayley_x1(F(1, 2))),
        "adjoint matrix is singular": linalg.zero_matrix(3),
    }
    for want, ad in cases.items():
        got = h_element_outcome(grp, ad, FLOAT_TOL)
        assert repr(got) == repr(reference_h_element(grp, ad, 0))
        assert (got if isinstance(got, str) else "accepted") == want
    dense, _ = GROUPS[4]
    h = dense.h_element(exact_automorphism(4, F(2, 3)))
    assert any(x.denominator > 1 for row in h.ad for x in row)
    assert h_element_outcome(dense, so_n_rotation_ad(4, F(2, 3))[::-1], FLOAT_TOL) == (
        "matrix is not a bracket automorphism at pair (L12, L13)")


def test_elements_keep_their_values_and_read_strings():
    """``HElement(...)`` reads a string entry through rat, into the element its
    Fraction twin builds; a float matrix keeps its entries as read, over the
    float 1.0, the floats as they are and any other entry through rat."""
    grp, _ = GROUPS[0]
    written = HElement((("0", "-1", 0), ("1", 0, "0"), (0, 0, "1")))
    assert written == HElement(QUARTER_TURN) and written.numerators == (
        ((0, -1, 0), (1, 0, 0), (0, 0, 1)), 1)
    assert repr(grp.h_element(written.ad)) == repr(grp.h_element(QUARTER_TURN))
    rotation = ((0.6, -0.8, 0), (0.8, 0.6, -0.0), ("0", 0.0, 1.0))
    want = ((0.6, -0.8, F(0)), (0.8, 0.6, -0.0), (F(0), 0.0, 1.0))
    for h in (HElement(rotation), grp.h_element(rotation)):
        assert h.numerators == (want, 1.0) and type(h.numerators[1]) is float
        assert repr(h.ad) == repr(want)
    with pytest.raises(TypeError, match="^bool is not a scalar$"):
        HElement(((True, 0), (0, 1)))


def test_float_h_inverse_and_group_inverse():
    """A float element is inverted by ``linalg.invert`` of its matrix, bit for
    bit, and an element times its inverse is the identity within FLOAT_TOL,
    at orders 0 and 1."""
    so3 = builtin("so3")[0]
    identity = linalg.identity(3)
    rng = random.Random(31)
    for k in (0, 1):
        grp = ExpansionGroup(span_subalgebra(so3, [so3.basis_vector(2)]), k)
        for _ in range(20):
            h = grp.h_element(_rotation_ad(rng.uniform(0, 2 * math.pi)), tol=1e-9)
            assert type(h.numerators[1]) is float
            assert repr(grp.h_inverse(h).ad) == repr(linalg.invert(h.ad))
            nil = grp.nil([tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(k)],
                          (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0))
            g = grp.element(h, nil)
            e = grp.mult(g, grp.inverse(g))
            assert all(abs(x - y) <= FLOAT_TOL
                       for row, want in zip(e.h.ad, identity) for x, y in zip(row, want))
            assert all(abs(x) <= FLOAT_TOL for slot in (*e.nil.mids, e.nil.top) for x in slot)


# ----- the float order-0 product ---------------------------------------------

def test_float_order_0_mult_runs_no_fraction_product(monkeypatch):
    """The exact zero constant slot of the lifted tuples is skipped, not
    multiplied: a float ``mult`` makes no Fraction product, and its result
    matches the reference by repr, signed zeros included."""
    so3 = builtin("so3")[0]
    grp = ExpansionGroup(span_subalgebra(so3, [so3.basis_vector(2)]), 0)
    rng = random.Random(2025)

    def top():
        return tuple(rng.choice((0.0, -0.0, rng.uniform(-2, 2))) for _ in range(2)) + (
            rng.choice((0.0, -0.0)),)

    samples = [tuple(grp.element(grp.h_element(_rotation_ad(rng.uniform(0, 2 * math.pi)),
                                               tol=1e-9), grp.nil((), top()))
                     for _ in range(2)) for _ in range(200)]
    grp.mult(*samples[0])  # warms the word table
    products = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)

        def counting(self, other, real=real):
            products.append(1)
            return real(self, other)

        monkeypatch.setattr(Fraction, name, counting)
    got = [grp.mult(g1, g2) for g1, g2 in samples]
    monkeypatch.undo()
    assert not products
    for (g1, g2), g in zip(samples, got):
        assert repr((g.h.ad, g.nil.top)) == repr(reference_mult(grp, g1, g2))


# ----- the coercion guard ---------------------------------------------------

def test_numeric_mode_coerces_few_fractions(monkeypatch):
    """Fraction-to-float coercions over 100 warmed float samples of the so3 example.

    Each sample is two float ``h_element`` and one ``mult``, as in
    ``so3_example(0)``.  Multiplying the exact projectors, structure constants
    and zero sums by floats one product at a time took 12 200 coercions; the
    bound is a tenth of that.
    """
    so3 = builtin("so3")[0]
    grp = ExpansionGroup(span_subalgebra(so3, [so3.basis_vector(2)]), 0)
    rng = random.Random(2024)

    def sample():
        h1 = grp.h_element(_rotation_ad(rng.uniform(0, 2 * math.pi)), tol=1e-9)
        h2 = grp.h_element(_rotation_ad(rng.uniform(0, 2 * math.pi)), tol=1e-9)
        t1 = (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        t2 = (rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0)
        grp.mult(grp.element(h1, grp.nil((), t1)), grp.element(h2, grp.nil((), t2)))

    for _ in range(10):
        sample()
    calls = []
    to_float = Fraction.__float__

    def counting(self):
        calls.append(1)
        return to_float(self)

    monkeypatch.setattr(Fraction, "__float__", counting)
    assert float(F(1, 3)) == 1 / 3 and len(calls) == 1  # the counter sees coercions
    calls.clear()
    for _ in range(100):
        sample()
    monkeypatch.undo()
    assert len(calls) <= 1220
