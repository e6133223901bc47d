"""The integer bracket kernel against the Fraction loops it replaced.

``bracket``, ``bracket_poly``, ``IWExpansion.bracket``, ``structure_algebra``
and the Jacobi sweep of ``validate`` run on integer numerators over one
common denominator.  The references (``references.py``) are the same loops on
the Fraction tensor, as they read before the integer table, with a truncated
product of their own in place of ``jets._cauchy``; they must give the same
values, component types included, and on integer tensors the same floats bit
for bit.  ``coords`` reads coordinates off the split's inverse;
``reference_coords`` is the general solve against the flattened basis that it
replaced.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.algebra import LieAlgebra, span_subalgebra, split_with_complement
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.errors import DimensionMismatch, InternalInvariantViolation
from liecontract.expansion import ExpandedElement, IWExpansion
from liecontract.jets import Jet, bracket_poly
from references import (
    copies,
    dense_so_split,
    reference_bracket,
    reference_bracket_poly,
    reference_coords,
    reference_iw_bracket,
    reference_names,
    reference_structure_algebra,
    reference_validate_on_rows,
    report_key,
    so_n,
)

F = Fraction
ZERO = F(0)


def exact_key(v):
    """Type and repr of every component: equal keys mean equal bits for floats."""
    return [(type(x), repr(x)) for x in v]


def jet_key(p):
    return p.dim, p.trunc, [exact_key(c) for c in p.coeffs]


def element_key(el):
    return [exact_key(s) for s in el.slots]


# non-integer constants with mixed and large denominators
CONSTANTS = (0, 0, 0, 1, -1, 2, F(1, 2), F(-2, 3), F(5, 6), F(7, 10 ** 9 + 7),
             F(-10 ** 20, 3 ** 13))
INTEGERS = (0, 0, 1, -1, 2, -3)
SCALES = (F(1), F(1, 2), F(-3, 7), F(10 ** 9 + 7, 2 ** 40))
# zero as a Fraction and as an int, ints, and large denominators
ENTRIES = (ZERO, 0, 3, -1, F(1, 2), F(-5, 7), F(2 ** 64 + 1, 3 ** 41), F(1, 10 ** 18 + 9))
FLOATS = (0.0, -0.0, 1.0, -1.5, 0.1, 3.25, -1e-3, 2.5e-8, 123456.789)


@st.composite
def algebras_with_spans(draw):
    """(algebra, candidate subalgebra spans, whether the tensor is integral)."""
    kind = draw(st.sampled_from(("lie", "antisymmetric", "raw", "integer")))
    if kind == "lie":  # a catalogued algebra with its bracket scaled by a rational
        name = draw(st.sampled_from(("so3", "sl2", "heis3")))
        base = builtin(name)[0]
        s = draw(st.sampled_from(SCALES))
        tensor = tuple(tuple(tuple(s * x for x in row) for row in plane)
                       for plane in base.structure)
        alg = LieAlgebra(3, base.basis_names, tensor)
        assert repr(alg.structure) == repr(tensor)  # the references read the input tensor
        return alg, list(subalgebra_catalog(name).values()), s.denominator == 1
    n = draw(st.integers(1, 5))
    values = st.sampled_from(INTEGERS if kind == "integer" else CONSTANTS).map(F)
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                f[a][b][c] = draw(values)
                f[b][a][c] = -f[a][b][c]
    if kind == "raw":  # broken antisymmetry: diagonal and lower triangle drawn freely
        for a in range(n):
            for b in range(a + 1):
                for c in range(n):
                    f[a][b][c] = draw(values)
    tensor = tuple(tuple(tuple(r) for r in plane) for plane in f)
    alg = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)), tensor)
    assert repr(alg.structure) == repr(tensor)
    return alg, [[], [alg.basis_vector(a) for a in range(n)]], kind == "integer"


def entry_vectors(n, entries=ENTRIES):
    return st.tuples(*[st.sampled_from(entries)] * n)


def entry_slot(draw, n, entries=ENTRIES):
    """A vector, one time in three a zero one (of ints or of Fractions)."""
    if draw(st.sampled_from((True, False, False))):
        return draw(st.sampled_from(((0,) * n, linalg.zero_vector(n))))
    return draw(entry_vectors(n, entries))


@settings(max_examples=200, deadline=None)
@given(algebras_with_spans(), st.data())
def test_integer_kernel_matches_fraction_reference(case, data):
    alg, spans, integral = case
    n = alg.dim
    draw = data.draw

    x, y = draw(entry_vectors(n)), draw(entry_vectors(n))
    assert exact_key(alg.bracket(x, y)) == exact_key(reference_bracket(alg, x, y))
    if integral:  # the numeric mode: floats through the integer table, bit for bit
        u, v = draw(entry_vectors(n, FLOATS)), draw(entry_vectors(n, FLOATS))
        assert exact_key(alg.bracket(u, v)) == exact_key(reference_bracket(alg, u, v))

    trunc = draw(st.integers(1, 5))
    entries = FLOATS if integral and draw(st.booleans()) else ENTRIES
    p, q = (Jet(n, trunc, [entry_slot(draw, n, entries)
                           for _ in range(draw(st.integers(0, 6)))]) for _ in range(2))
    assert jet_key(bracket_poly(alg, p, q)) == jet_key(reference_bracket_poly(alg, p, q))

    ea = IWExpansion(span_subalgebra(alg, draw(st.sampled_from(spans))), draw(st.integers(0, 3)))
    entries = FLOATS if integral and draw(st.booleans()) else ENTRIES
    slots = [(entry_slot(draw, n, entries),
              tuple(entry_slot(draw, n, entries) for _ in range(ea.order)),
              entry_slot(draw, n, entries)) for _ in range(2)]
    floats = [any(type(x) is float for x in chain(s[0], *s[1], s[2])) for s in slots]
    for s, has_float in zip(slots, floats):
        if has_float:  # expansion elements are exact-only: a float slot is refused at construction
            with pytest.raises(TypeError, match="an expansion element takes exact"):
                ExpandedElement(*s)
    if not any(floats):
        a, b = (ExpandedElement(*s) for s in slots)
        try:
            expected = reference_iw_bracket(ea, a, b)
        except InternalInvariantViolation as err:
            with pytest.raises(InternalInvariantViolation, match=str(err)):
                ea.bracket(a, b)
        else:
            got = ea.bracket(a, b)
            assert element_key(got) == element_key(expected)
            assert got.numerators == linalg.numerators(got.slots)

    assert report_key(alg.validate()) == report_key(reference_validate_on_rows(alg))


def test_sparse_jacobi_sweep_matches_the_per_triple_sweep():
    """``validate`` sums each nonzero product [[X_x, X_y], X_z] into the
    residual of its sorted triple; the per-triple sweep is the reference.

    In the broken algebras below the one nonzero product has z below x,
    between x and y (where it enters with the sign -1) or above y; the other
    cases cover a triple whose products cancel (so3), dimensions with no
    triple, an abelian algebra, and violations found out of (a, b, c) order.
    """
    names = tuple(f"X{i + 1}" for i in range(4))
    cases = []
    for x, y, z, d in ((1, 2, 0, 3), (0, 2, 1, 3), (0, 1, 2, 3), (1, 3, 2, 0)):
        # [X_x, X_y] = 2 X_d and [X_d, X_z] = X_d: one nonzero product, one violation
        alg = LieAlgebra.from_brackets(4, names, [(x, y, d, 2), (d, z, d, 1)])
        [violation] = reference_validate_on_rows(alg).violations
        assert violation.location == tuple(sorted((x + 1, y + 1, z + 1)))
        cases.append(alg)
    cases += [builtin(name)[0] for name in ("so3", "sl2", "heis3", "abelian(4)")]
    cases += [LieAlgebra.from_brackets(1, ("X1",), []),
              LieAlgebra.from_brackets(2, ("X1", "X2"), [(0, 1, 1, F(1, 2))])]
    # nine violations, whose residuals the sweep reaches out of (a, b, c) order
    cases.append(LieAlgebra.from_brackets(5, names + ("X5",), [
        (3, 4, 0, 1), (0, 1, 1, F(2, 3)), (0, 2, 4, -1), (1, 2, 3, 5), (2, 4, 2, 1),
        (0, 4, 3, F(1, 7)), (1, 3, 0, 2)]))
    for alg in cases:
        want = reference_validate_on_rows(alg)
        assert report_key(alg.validate()) == report_key(want), alg.structure
    assert [v.location for v in want.violations] == sorted(v.location for v in want.violations)
    assert len(want.violations) == 9
    so3 = builtin("so3")[0]
    assert report_key(so3.validate()) == (19, [])


def test_exact_meets_float_in_floats():
    """An exact operand with a huge denominator meets a float operand in floats.

    It is rounded to floats first, as the Fraction loop rounds each product,
    instead of reaching the float as a numerator near 3**700 and overflowing.
    """
    so3 = builtin("so3")[0]
    x, y = (F(1, 3 ** 700), 1, 2), (0.5, 1.5, -2.0)
    for u, v in ((x, y), (y, x)):
        assert exact_key(so3.bracket(u, v)) == exact_key(reference_bracket(so3, u, v))
    p, q = Jet(3, 3, [x, (F(2, 3), F(1, 3 ** 700), 0)]), Jet(3, 3, [y, (0.0, 1.0, 0.25)])
    for a, b in ((p, q), (q, p)):
        assert jet_key(bracket_poly(so3, a, b)) == jet_key(reference_bracket_poly(so3, a, b))


int_slots = st.tuples(*[st.sampled_from((0, 0, 1, -2, 6, 12, -30, 7 * 2 ** 70))] * 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(int_slots, min_size=2, max_size=6),
       st.sampled_from((1, 2, 6, 12, 60, 2 ** 70, 3 ** 40)))
def test_lazy_element_matches_the_eager_element(rows, den):
    """An element from numerators builds its slots on their first read only,
    and then agrees with the element built from the same slots."""
    slots = [tuple(F(x, den) for x in row) for row in rows]
    eager = ExpandedElement(slots[0], tuple(slots[1:-1]), slots[-1])
    eager.slots  # views as well: built before the count below
    built = []
    from_numerators = linalg.from_numerators

    def counted(v, d):
        built.append(v)
        return from_numerators(v, d)

    linalg.from_numerators = counted
    try:
        lazy = copies(ExpandedElement._from_numerators(rows, den))
        for el in lazy:
            assert el.numerators == linalg.numerators(eager.slots)
            assert all(type(x) is int for row in el.numerators[0] for x in row)
        assert not built  # nothing has read the slots yet
        for el in lazy:
            assert el == eager and eager == el
            assert hash(el) == hash(eager)
            assert repr(el) == repr(eager)
            assert [[type(x) for x in s] for s in el.slots] == \
                [[type(x) for x in s] for s in eager.slots]
            assert el.mids is el.mids  # built once
        assert len(built) == len(lazy) * len(rows)
        # copies of an element whose slots are built keep them
        for el in copies(lazy[0])[1:]:
            assert el.slots == eager.slots and el.numerators == lazy[0].numerators
        assert len(built) == len(lazy) * len(rows)
    finally:
        linalg.from_numerators = from_numerators


def structure_cases():
    """(label, split, order): the splits whose structure algebra is pinned."""
    cases = []
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        for label, span in subalgebra_catalog(name).items():
            cases += [(f"{name} {label}", span_subalgebra(alg, span), k) for k in range(5)]
    for n, orders in ((4, (0, 1, 2, 3)), (5, (0, 1)), (6, (0, 1))):
        alg, sub = so_n(n)
        cases += [(f"so({n})", span_subalgebra(alg, sub), k) for k in orders]
    cases += [(f"dense so(4) seed {seed}", dense_so_split(4, seed), k)
              for seed in range(3) for k in (0, 1)]
    cases += [("dense so(4) seed 0", dense_so_split(4, 0), 2),
              ("dense so(5) seed 2", dense_so_split(5, 2), 1)]
    # the span of (1, 2, 0): a split whose inverse has the denominator 2
    x1_2x2 = span_subalgebra(builtin("so3")[0], [(1, 2, 0)])
    cases += [("so3 span[(1, 2, 0)]", x1_2x2, k) for k in range(5)]
    abelian = builtin("abelian(1)")[0]
    cases += [(f"abelian(1) span{span}", span_subalgebra(abelian, span), k)
              for span in ([], [abelian.basis_vector(0)]) for k in range(3)]
    # subalgebras spanned by a multiple of a basis vector, which keeps an h name
    for name, span in (("so3", [(0, 0, F(1, 2))]), ("sl2", [(2, 0, 0)])):
        cases += [(f"{name} span{span}", span_subalgebra(builtin(name)[0], span), k)
                  for k in range(3)]
    return cases


@cache
def coords_cases():
    """``structure_cases`` plus catalogued splits given dense complements."""
    rng = random.Random(7)
    cases = structure_cases()
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        whole = [alg.basis_vector(a) for a in range(alg.dim)]
        for label, span in [("span[]", []), ("whole", whole), *subalgebra_catalog(name).items()]:
            h = span_subalgebra(alg, span).h_basis
            while True:
                try:
                    split = split_with_complement(alg, h, [
                        linalg.random_vector(rng, alg.dim) for _ in range(alg.dim - len(h))])
                    break
                except DimensionMismatch:
                    continue
            cases += [(f"{name} {label} dense complement", split, k) for k in range(3)]
    return cases


def combination(draw, basis, n):
    """A combination of ``basis`` with coefficients drawn from ENTRIES."""
    out = linalg.zero_vector(n)
    for v in basis:
        out = linalg.vec_add(out, linalg.vec_scale(draw(st.sampled_from(ENTRIES)), v))
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coords_matches_the_solve_it_replaces(data):
    """Coordinates read off the split's inverse equal those of one general
    solve against the flattened basis, on leading slots that leave the
    subalgebra and top slots with an h-part too."""
    draw = data.draw
    label, split, k = draw(st.sampled_from(coords_cases()))
    ea = IWExpansion(split, k)
    n = ea.algebra.dim
    escape = st.sampled_from((False, False, False, True))
    els = []
    for _ in range(draw(st.integers(1, 3))):
        a0 = combination(draw, split.h_basis, n)
        if draw(escape):
            a0 = linalg.vec_add(a0, draw(entry_vectors(n)))
        top = combination(draw, split.n_basis, n)
        if draw(escape):
            top = linalg.vec_add(top, combination(draw, split.h_basis, n))
        els.append(ExpandedElement(a0, tuple(entry_slot(draw, n) for _ in range(k)), top))
    try:
        expected = reference_coords(ea, els)
    except InternalInvariantViolation as err:
        with pytest.raises(InternalInvariantViolation, match=str(err)):
            ea.coords(els)
    else:
        assert repr(ea.coords(els)) == repr(expected), label


def test_structure_algebra_matches_the_fraction_route(monkeypatch):
    """The structure algebra brackets as elements only the outer pairs
    [h@0, h@0] and [h@0, n@(k+1)] and one top pair per nonzero bracket of
    basis vectors; every pair whose levels sum past k + 1 brackets to zero,
    and the algebra equals the reference, which brackets every pair."""
    calls = []
    bracket = IWExpansion.bracket

    def counted(self, a, b):
        calls.append(None)
        return bracket(self, a, b)

    monkeypatch.setattr(IWExpansion, "bracket", counted)
    for label, split, k in structure_cases():
        ea = IWExpansion(split, k)
        named = ea.basis_elements()
        assert [name for name, _ in named] == reference_names(ea), label
        for _, el in named:  # built directly, as ``element`` builds them
            assert element_key(el) == element_key(ea.element(el.a0, el.mids, el.top)), label
        # the level of a basis element is its one nonzero slot
        levels = [next(l for l, s in enumerate(el.slots) if any(s)) for _, el in named]
        m = len(named)
        skipped = [(i, j) for i in range(m) for j in range(i + 1, m)
                   if levels[i] + levels[j] > k + 1]
        outer = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if levels[i] == 0 and levels[j] in (0, k + 1)]
        alg = ea.algebra
        tops = [(a, b) for a in range(alg.dim) for b in range(a + 1, alg.dim)
                if k and any(alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))]
        calls.clear()
        got = ea.structure_algebra()
        assert len(calls) == len(outer) + len(tops), label
        for i, j in skipped:
            assert ea.is_zero(ea.bracket(named[i][1], named[j][1])), label
        want = reference_structure_algebra(ea)
        assert got.basis_names == want.basis_names, label
        assert repr(got.structure) == repr(want.structure), label


def test_coords_rejects_a_leading_slot_outside_the_subalgebra():
    so3 = builtin("so3")[0]
    ea = IWExpansion(span_subalgebra(so3, [so3.basis_vector(2)]), 1)
    inside = ea.basis_elements()[0][1]
    zero, x = (ZERO,) * 3, (F(1, 3), ZERO, F(2))
    el = ExpandedElement(x, (zero,), zero)
    for els in ([el], [inside, el], [el, inside]):
        with pytest.raises(InternalInvariantViolation, match="outside the expansion basis"):
            ea.coords(els)
    # with the leading slot in the subalgebra and the top one reduced, it is solved
    el = ExpandedElement((ZERO, ZERO, x[2]), (x,), (x[0], x[1], ZERO))
    assert ea.coords([el]) == [(x[2], *x, x[0], x[1])]
    # a float element is refused at construction, inside the span or not
    zero, x = (0.0,) * 3, (0.5, 0.0, 2.0)
    for slots in ((x, (zero,), zero), ((0.0, 0.0, x[2]), (x,), (x[0], x[1], 0.0))):
        with pytest.raises(TypeError, match="an expansion element takes exact"):
            ExpandedElement(*slots)


def test_coords_refuses_float_middle_slots():
    """Float middle slots never reach a coordinate: expansion elements are
    exact-only, so the constructor refuses them with a TypeError before
    ``coords`` or ``bracket`` could read them, also on a split whose inverse
    has a denominator d > 1."""
    ea = IWExpansion(dense_so_split(4, 0), 2)
    n = ea.algebra.dim
    assert ea.split._inverse[1] > 1
    zero = (0.0,) * n
    with pytest.raises(TypeError, match="an expansion element takes exact"):
        ExpandedElement(zero, (FLOATS[-n:], FLOATS[:n]), zero)
