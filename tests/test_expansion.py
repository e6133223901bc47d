import copy
import pickle
import random
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.algebra import LieAlgebra, span_subalgebra
from liecontract.catalog import builtin, canonical_split_vectors, subalgebra_catalog
from liecontract.contraction import ContractionFamily, contract, iw_family
from liecontract.errors import DimensionMismatch
from liecontract.expansion import ExpandedElement, GeneralExpansion, IWExpansion
from liecontract.formats import algebra_to_dict
from test_algebra import reference_tensor
from test_numeric_mode import dense_split

F = Fraction

so3 = builtin("so3")[0]
heis3 = builtin("heis3")[0]
sl2 = builtin("sl2")[0]


def expansion(alg, vectors, k):
    return IWExpansion(span_subalgebra(alg, vectors), k)


def so3_x3(k):
    return expansion(so3, [so3.basis_vector(2)], k)


def test_dimension_formula():
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        for vectors in subalgebra_catalog(name).values():
            for k in range(4):
                ea = expansion(alg, vectors, k)
                assert ea.dimension == (k + 1) * alg.dim
                assert len(ea.basis_elements()) == ea.dimension


def test_element_validation():
    ea = so3_x3(1)
    with pytest.raises(DimensionMismatch):
        ea.element(so3.basis_vector(0), [so3.zero_vector()])  # X1 is not in span{X3}
    with pytest.raises(DimensionMismatch):
        ea.element(so3.basis_vector(2), [])  # one middle slot expected
    el = ea.element(so3.basis_vector(2), [so3.basis_vector(0)],
                    (F(1), F(2), F(7)))
    assert el.top == (F(1), F(2), F(0))  # canonical representative


def test_bracket_order0_hand_value():
    # [(X3, X1+span), (0, X2+span)] = (0, -X1+span) from [X3, X2] = -X1
    ea = so3_x3(0)
    a = ea.element(so3.basis_vector(2), [], so3.basis_vector(0))
    b = ea.element(so3.zero_vector(), [], so3.basis_vector(1))
    got = ea.bracket(a, b)
    assert got.a0 == so3.zero_vector()
    assert got.top == (F(-1), F(0), F(0))


def test_bracket_antisymmetry_and_order0_abelianization():
    ea = so3_x3(0)
    rng = random.Random(1)
    for _ in range(15):
        a = ea.random_element(rng)
        assert ea.is_zero(ea.bracket(a, a))
    # complement classes multiply to zero at order 0
    a = ea.element(so3.zero_vector(), [], so3.basis_vector(0))
    b = ea.element(so3.zero_vector(), [], so3.basis_vector(1))
    assert ea.is_zero(ea.bracket(a, b))


def test_order0_isomorphism_spot_value():
    ea = so3_x3(0)
    limit = contract(iw_family(ea.split))
    lhs = ea.from_contraction(limit.bracket(so3.basis_vector(1), so3.basis_vector(2)))
    rhs = ea.bracket(ea.from_contraction(so3.basis_vector(1)),
                     ea.from_contraction(so3.basis_vector(2)))
    assert lhs == rhs
    assert lhs.a0 == so3.zero_vector() and lhs.top == so3.basis_vector(0)


def test_order0_isomorphism_random():
    rng = random.Random(2)
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        ea = IWExpansion(split, 0)
        limit = contract(iw_family(split))
        for _ in range(25):
            x = linalg.random_vector(rng, alg.dim)
            y = linalg.random_vector(rng, alg.dim)
            assert ea.from_contraction(limit.bracket(x, y)) == \
                ea.bracket(ea.from_contraction(x), ea.from_contraction(y))
            assert ea.to_contraction(ea.from_contraction(x)) == x
        for _ in range(10):
            el = ea.random_element(rng)
            assert ea.from_contraction(ea.to_contraction(el)) == el


def test_psi_bar_requires_order0():
    with pytest.raises(DimensionMismatch):
        so3_x3(1).from_contraction(so3.basis_vector(0))


def test_psi_bar_of_zero_is_zero():
    ea = so3_x3(0)
    assert ea.is_zero(ea.from_contraction(so3.zero_vector()))


def test_top_slot_well_defined():
    rng = random.Random(3)
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        for k in (0, 1, 2):
            ea = IWExpansion(split, k)
            for _ in range(10):
                a = ea.random_element(rng)
                b = ea.random_element(rng)
                shift = split.h_basis[0]
                a_moved = ea.element(a.a0, a.mids,
                                     linalg.vec_add(a.top, shift))
                assert a_moved == a
                assert ea.bracket(a_moved, b) == ea.bracket(a, b)


def test_filtration_grading():
    ea = so3_x3(3)
    rng = random.Random(4)
    # (0, j) pairs are the ideal property of the level-j filtration
    for (i, j) in ((0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)):
        for _ in range(5):
            a = ea.random_element(rng)
            b = ea.random_element(rng)
            zero = so3.zero_vector()
            slots_a = list(a.slots)
            slots_b = list(b.slots)
            for lvl in range(i):
                slots_a[lvl] = zero
            for lvl in range(j):
                slots_b[lvl] = zero
            a = ea.element(slots_a[0], slots_a[1:-1], slots_a[-1])
            b = ea.element(slots_b[0], slots_b[1:-1], slots_b[-1])
            result = ea.bracket(a, b)
            for lvl in range(min(i + j, ea.order + 2)):
                assert linalg.is_zero_vector(result.slots[lvl])


def test_jacobi_exhaustive_catalogue():
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        for vectors in subalgebra_catalog(name).values():
            for k in range(3):
                report = expansion(alg, vectors, k).structure_algebra().validate()
                assert report.ok, f"{name} k={k}: {report.summary()}"


def test_jacobi_random_mode():
    ea = so3_x3(2)
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (ea.random_element(rng) for _ in range(3))
        cyclic = [ea.bracket(ea.bracket(x, y), z) for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        slots = [linalg.vec_add(linalg.vec_add(u, v), w) for u, v, w in zip(*(t.slots for t in cyclic))]
        assert ea.is_zero(ExpandedElement(slots[0], tuple(slots[1:-1]), slots[-1]))


def test_corrupted_tensor_fails_validation():
    ea = so3_x3(1)
    emitted = ea.structure_algebra()
    tensor = [[[c for c in row] for row in plane] for plane in emitted.structure]
    tensor[0][1][0] += 1  # break one entry
    broken = LieAlgebra(emitted.dim, emitted.basis_names,
                        tuple(tuple(tuple(r) for r in p) for p in tensor))
    assert not broken.validate().ok


def test_structure_algebra_names_are_level_tagged():
    names = so3_x3(1).structure_algebra().basis_names
    assert names == ("X3@0", "X1@1", "X2@1", "X3@1", "X1@2", "X2@2")


def test_structure_algebra_past_the_dimension_cap_fails_before_its_basis():
    """so3 at order 10 has dimension 33: refused with the algebra's own cap
    message before the basis (quadratic in the order) is built."""
    for k in (10, 400):
        ea = so3_x3(k)
        with pytest.raises(DimensionMismatch, match=r"dimension must be in 1\.\.32"):
            ea.structure_algebra()
        assert "_basis" not in ea.__dict__
    assert so3_x3(9).structure_algebra().dim == 30


def test_structure_algebra_runs_no_elimination(monkeypatch):
    ea = so3_x3(2)
    m = len(ea.basis_elements())  # the basis is built, once per expansion
    ea.split._inverse  # kept by the split from its projectors
    # levels 0, 1, 1, 1, 2, 2, 2, 3, 3: 20 of the 36 pairs have a level sum of
    # at most 3; 5 of them are read as elements: [X3@0, X1@3], [X3@0, X2@3]
    # and one top pair per bracket [X1, X2], [X1, X3], [X2, X3]
    levels = [next(l for l, s in enumerate(el.slots) if any(s)) for _, el in ea.basis_elements()]
    graded = [(i, j) for i in range(m) for j in range(i + 1, m) if levels[i] + levels[j] <= 3]
    assert len(graded) == 20 and m * (m - 1) // 2 == 36
    calls = {"eliminate": 0, "vectors": 0}
    eliminate, from_numerators = linalg._eliminate, linalg.from_numerators

    def counted_eliminate(*args, **kwargs):
        calls["eliminate"] += 1
        return eliminate(*args, **kwargs)

    def counted_from_numerators(v, den):
        calls["vectors"] += 1
        return from_numerators(v, den)

    monkeypatch.setattr(linalg, "_eliminate", counted_eliminate)
    monkeypatch.setattr(linalg, "from_numerators", counted_from_numerators)
    ea.structure_algebra()
    # no elimination, and one vector of Fractions per pair read as an element: its coordinates
    assert calls == {"eliminate": 0, "vectors": 5}


def truncation_images(split, small):
    """The images in the order-k algebra ``small`` of the order-(k+1) basis.

    h@0 and X@1..k map to themselves, X_a@(k+1) to the n-part of X_a at the
    top, solved against the split's basis, and n@(k+2) to 0.
    """
    alg, dh = split.algebra, split.dim_h
    top = small.dim - split.dim_n
    basis = list(split.h_basis) + list(split.n_basis)
    parts = linalg.solve_in_basis(basis, [alg.basis_vector(a) for a in range(alg.dim)])
    return ([small.basis_vector(i) for i in range(top)]
            + [(F(0),) * top + tuple(part[dh:]) for part in parts]
            + [small.zero_vector()] * split.dim_n)


def test_truncation_to_a_lower_order_is_a_homomorphism():
    """Truncating order k + 1 to order k commutes with the emitted brackets:
    the top level is read modulo the subalgebra, and level k + 2 drops."""
    splits = [(f"{name} {label}", span_subalgebra(builtin(name)[0], vectors))
              for name in ("so3", "sl2", "heis3")
              for label, vectors in subalgebra_catalog(name).items()]
    splits.append(("dense so(4)", dense_split(4, 0)))
    for label, split in splits:
        for k in range(4):
            small = IWExpansion(split, k).structure_algebra()
            big = IWExpansion(split, k + 1).structure_algebra()
            images = truncation_images(split, small)
            top = small.dim - split.dim_n
            assert big.basis_names[:top] == small.basis_names[:top], label

            def image(v):
                out = small.zero_vector()
                for x, w in zip(v, images):
                    if x:
                        out = linalg.vec_add(out, linalg.vec_scale(x, w))
                return out

            for i in range(big.dim):
                for j in range(i + 1, big.dim):
                    want = image(big.bracket(big.basis_vector(i), big.basis_vector(j)))
                    assert small.bracket(images[i], images[j]) == want, (label, k, i, j)


def test_emitted_algebra_is_validated_without_its_dense_tensor():
    """Emitting, validating and writing out an expansion builds no dense
    tensor; its first read gives the tensor of the emitted entries."""
    cases = [(name, vectors) for name in ("so3", "sl2", "heis3")
             for vectors in subalgebra_catalog(name).values()]
    for name, vectors in cases:
        split = span_subalgebra(builtin(name)[0], vectors)
        for k in range(3):
            ea = IWExpansion(split, k)
            alg = ea.structure_algebra()
            assert alg.validate().ok
            payload = algebra_to_dict(alg)
            assert "structure" not in alg.__dict__
            named = ea.basis_elements()
            m = len(named)
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            sols = ea.coords([ea.bracket(named[i][1], named[j][1]) for i, j in pairs])
            entries = [(i, j, c, x) for (i, j), sol in zip(pairs, sols)
                       for c, x in enumerate(sol) if x]
            want = LieAlgebra(m, alg.basis_names, reference_tensor(m, entries))
            assert payload == algebra_to_dict(want)
            lazy = [alg, copy.copy(alg), pickle.loads(pickle.dumps(alg))]
            assert all("structure" not in x.__dict__ for x in lazy)
            for x in lazy:
                assert x == want and hash(x) == hash(want)
                assert repr(x.structure) == repr(want.structure)


def element_to_tuple(ea, el):
    """Inverse of ``tuple_to_element``: X_m = P_h(slot m) + P_n(slot m+1)."""
    ph, pn = ea.split.project_h, ea.split.project_n
    return tuple(linalg.vec_add(ph(el.slots[m]), pn(el.slots[m + 1])) for m in range(ea.order + 1))


def test_tuple_transport_round_trip():
    rng = random.Random(6)
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        for k in range(4):
            ea = IWExpansion(split, k)
            for _ in range(10):
                xs = tuple(linalg.random_vector(rng, alg.dim) for _ in range(k + 1))
                assert element_to_tuple(ea, ea.tuple_to_element(xs)) == xs
                el = ea.random_element(rng)
                assert ea.tuple_to_element(element_to_tuple(ea, el)) == el


def test_general_expansion_identity_family_is_convolution():
    fam = ContractionFamily.identity(so3)
    rng = random.Random(7)
    for k in (0, 1, 2):
        gen = GeneralExpansion(fam, k)
        for _ in range(10):
            xs = [linalg.random_vector(rng, 3) for _ in range(k + 1)]
            ys = [linalg.random_vector(rng, 3) for _ in range(k + 1)]
            got = gen.bracket_tuples(xs, ys)
            want = []
            for m in range(k + 1):
                acc = so3.zero_vector()
                for i in range(m + 1):
                    acc = linalg.vec_add(acc, so3.bracket(xs[i], ys[m - i]))
                want.append(acc)
            assert got == tuple(want)


def test_general_expansion_abelian_base_is_zero():
    ab = builtin("abelian(3)")[0]
    fam = ContractionFamily.identity(ab)
    gen = GeneralExpansion(fam, 2)
    rng = random.Random(8)
    xs = [linalg.random_vector(rng, 3) for _ in range(3)]
    ys = [linalg.random_vector(rng, 3) for _ in range(3)]
    assert gen.bracket_tuples(xs, ys) == (ab.zero_vector(),) * 3


def test_general_matches_iw_through_transport():
    rng = random.Random(9)
    for name in ("so3", "sl2", "heis3"):
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        for k in range(4):
            ea = IWExpansion(split, k)
            gen = GeneralExpansion(iw_family(split), k)
            for _ in range(10):
                xs = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                ys = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                lhs = ea.tuple_to_element(gen.bracket_tuples(xs, ys))
                rhs = ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
                assert lhs == rhs


def test_elements_read_exact_scalars_as_rat_does():
    """A string slot entry is read through rat, a bool is refused as rat
    refuses it, and a float keeps the element's own message."""
    half = ExpandedElement((F(1, 2), 0, 0), ((1, 0, F(-2, 3)),), (0, 0, 3))
    written = ExpandedElement(("1/2", "0", 0), (("1", 0, "-2/3"),), (0, 0, "3"))
    assert written == half and hash(written) == hash(half)
    assert written.numerators == half.numerators == (((3, 0, 0), (6, 0, -4), (0, 0, 18)), 6)
    assert written.slots == ((F(1, 2), 0, 0), (1, 0, F(-2, 3)), (0, 0, 3))
    assert {type(x) for slot in written.slots for x in slot} == {F}
    for a0, mids, top in [((0, 0, True), (), (0, 0, 0)), ((0, 0, 0), ((False, 0, 1),), (0, 0, 0))]:
        with pytest.raises(TypeError, match="^bool is not a scalar$"):
            ExpandedElement(a0, mids, top)
    with pytest.raises(TypeError) as info:
        ExpandedElement((0, 0, 0), (), (0.5, 0, 0))
    assert str(info.value) == "an expansion element takes exact (int or Fraction) input"


def test_elements_that_do_not_fit_are_refused():
    """Slots of unequal length are refused at construction; an element whose
    slot count or slot length does not fit the expansion is refused by
    ``bracket`` and ``coords``, instead of being truncated or overrun."""
    so3 = builtin("so3")[0]
    exp = IWExpansion(span_subalgebra(so3, [(0, 0, 1)]), 0)
    with pytest.raises(DimensionMismatch, match="coefficient count differs from dimension"):
        ExpandedElement((0, 0, 1), (), (1, 0))
    with pytest.raises(DimensionMismatch, match="coefficient count differs from dimension"):
        ExpandedElement((0, 0, 1), ((1, 0, 0, 0),), (1, 0, 0))
    good = exp.element((0, 0, 1))
    for bad in (ExpandedElement((0, 0, 1, 5), (), (1, 0, 0, 7)),  # wider slots
                ExpandedElement((0, 0), (), (1, 0)),  # narrower slots
                ExpandedElement((0, 0, 1), ((1, 0, 0),), (0, 0, 0))):  # a slot too many
        for call in (lambda: exp.bracket(good, bad), lambda: exp.bracket(bad, good),
                     lambda: exp.coords([good, bad])):
            with pytest.raises(DimensionMismatch,
                               match="^an element of this expansion has 2 slots of length 3$"):
                call()
    assert exp.coords([good]) == [(1, 0, 0)]  # X3@0, the first basis element
