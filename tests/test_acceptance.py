"""Acceptance suite: one test per criterion, exact tolerances, stated runtimes.

Each test prints a PASS line on success (visible with ``pytest -s`` or in the
captured output); every assertion is exact rational equality unless a float
tolerance is explicitly part of the criterion.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.algebra import span_subalgebra
from liecontract.bch import local_mult
from liecontract.catalog import builtin, canonical_split_vectors, subalgebra_catalog
from liecontract.contraction import ContractionFamily, contract, eps_bracket, iw_family
from liecontract.errors import NotASubalgebra, PoleError
from liecontract.expansion import GeneralExpansion, IWExpansion
from liecontract.group import QUARTER_TURN, ExpansionGroup, so3_example
from liecontract.jets import Jet

F = Fraction

ALGEBRAS = ("so3", "sl2", "heis3")


def report(number, description):
    print(f"ACCEPTANCE {number}: PASS - {description}")


def canonical_group(name, k):
    alg = builtin(name)[0]
    return ExpansionGroup(span_subalgebra(alg, canonical_split_vectors(name)), k)


def random_nil(grp, rng):
    return grp.nil([linalg.random_vector(rng, grp.algebra.dim) for _ in range(grp.order)],
                   linalg.random_vector(rng, grp.algebra.dim))


def exact_h_elements(name, grp, rng):
    if name == "so3":
        turn = grp.h_element(QUARTER_TURN)
        return [grp.identity_h(), turn, grp.h_compose(turn, turn)]
    if name == "sl2":
        lam = F(rng.randint(1, 4), rng.randint(1, 4))
        return [grp.identity_h(),
                grp.h_element(((F(1), F(0), F(0)),
                               (F(0), lam, F(0)),
                               (F(0), F(0), 1 / lam)))]
    a = linalg.random_fraction(rng)
    return [grp.identity_h(),
            grp.h_element(((F(1), F(0), F(0)),
                           (F(0), F(1), F(0)),
                           (a, F(0), F(1))))]


def test_criterion_1_contraction_of_rotations():
    start = time.monotonic()
    so3 = builtin("so3")[0]
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    limit = contract(iw_family(split))
    iso2 = builtin("iso2")[0]
    assert limit.structure == iso2.structure
    e = limit.basis_vector
    assert limit.bracket(e(0), e(1)) == limit.zero_vector()
    assert limit.bracket(e(1), e(2)) == e(0)
    assert limit.bracket(e(2), e(0)) == e(1)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "rotation algebra contracts exactly to the plane-motion algebra "
              f"({elapsed:.3f}s)")


def test_criterion_2_rescaled_bracket_relations():
    so3 = builtin("so3")[0]
    fam = iw_family(span_subalgebra(so3, [so3.basis_vector(2)]))
    e = so3.basis_vector
    assert eps_bracket(fam, e(0), e(1), order=2) == Jet(
        3, 3, [(0, 0, 0), (0, 0, 0), (0, 0, 1)])
    assert eps_bracket(fam, e(1), e(2), order=2) == Jet(3, 3, [(1, 0, 0)])
    assert eps_bracket(fam, e(2), e(0), order=2) == Jet(3, 3, [(0, 1, 0)])
    report(2, "rescaled bracket relations hold as exact jets")


def test_criterion_3_order1_star_closed_form():
    start = time.monotonic()
    rng = random.Random(1003)
    half = F(1, 2)
    for name in ALGEBRAS:
        grp = canonical_group(name, 1)
        alg, split = grp.algebra, grp.split
        for _ in range(100):
            a = random_nil(grp, rng)
            b = random_nil(grp, rng)
            got = grp.star(a, b)
            want_mid = linalg.vec_add(a.mids[0], b.mids[0])
            want_top = split.coset_reduce(linalg.vec_add(
                linalg.vec_add(a.top, b.top),
                linalg.vec_scale(half, alg.bracket(a.mids[0], b.mids[0]))))
            assert got.mids[0] == want_mid and got.top == want_top
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    report(3, "order-1 star equals its closed form on 100 random inputs per "
              f"algebra ({elapsed:.3f}s)")


def test_criterion_4_order0_group_is_plane_motion_group():
    result = so3_example(0, seed=1004, float_samples=1000)
    assert all(c.passed for c in result.checks), "exact quarter-turn samples"
    fs = result.float_summary
    assert fs["samples"] == 1000
    assert fs["passed"] and float(fs["max_deviation"]) <= 1e-12
    report(4, "order-0 group law matches plane-motion composition "
              f"(exact quarter turns; {fs['samples']} float samples within 1e-12)")


def test_criterion_5_order1_group_closed_form():
    result = so3_example(1, seed=1005, rational_samples=100)
    assert len(result.checks) == 102 and all(c.passed for c in result.checks)
    report(5, "order-1 star matches the cross-product closed form "
              "(2 special + 100 random exact samples)")


def test_criterion_6_order0_isomorphism():
    rng = random.Random(1006)
    for name in ALGEBRAS:
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        limit = contract(iw_family(split))
        ea = IWExpansion(split, 0)
        assert ea.dimension == alg.dim
        for a, b in itertools.combinations(range(alg.dim), 2):
            x, y = alg.basis_vector(a), alg.basis_vector(b)
            assert ea.from_contraction(limit.bracket(x, y)) == \
                ea.bracket(ea.from_contraction(x), ea.from_contraction(y))
        for _ in range(50):
            x = linalg.random_vector(rng, alg.dim)
            y = linalg.random_vector(rng, alg.dim)
            assert ea.from_contraction(limit.bracket(x, y)) == \
                ea.bracket(ea.from_contraction(x), ea.from_contraction(y))
            assert ea.to_contraction(ea.from_contraction(x)) == x
            el = ea.random_element(rng)
            assert ea.from_contraction(ea.to_contraction(el)) == el
    report(6, "order-0 expansion is bijectively bracket-isomorphic to the "
              "contraction for all three catalogued splits")


def test_criterion_7_expanded_jacobi():
    start = time.monotonic()
    combos = 0
    for name in ALGEBRAS:
        alg = builtin(name)[0]
        for label, vectors in subalgebra_catalog(name).items():
            split = span_subalgebra(alg, vectors)
            for k in range(4):
                rep = IWExpansion(split, k).structure_algebra().validate()
                assert rep.ok, f"{name}/{label}/k={k}: {rep.summary()}"
                combos += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    report(7, f"Jacobi holds exactly on {combos} expansions "
              f"(3 algebras, all catalogued subalgebras, orders 0..3, {elapsed:.3f}s)")


def test_criterion_8_group_axioms():
    rng = random.Random(1008)
    triples_per_algebra = 200
    orders = (0, 1, 2, 3, 4)
    for name in ALGEBRAS:
        done = 0
        for k in orders:
            grp = canonical_group(name, k)
            hs = exact_h_elements(name, grp, rng)
            zero = grp.zero_nil()
            for _ in range(triples_per_algebra // len(orders)):
                a, b, c = (random_nil(grp, rng) for _ in range(3))
                assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))
                assert grp.star(a, zero) == a and grp.star(zero, a) == a
                assert grp.nil_is_zero(grp.star(a, grp.nil_negate(a)))
                assert grp.nil_is_zero(grp.star(grp.nil_negate(a), a))
                g1 = grp.element(hs[rng.randrange(len(hs))], a)
                g2 = grp.element(hs[rng.randrange(len(hs))], b)
                g3 = grp.element(hs[rng.randrange(len(hs))], c)
                left = grp.mult(grp.mult(g1, g2), g3)
                right = grp.mult(g1, grp.mult(g2, g3))
                assert left.h.ad == right.h.ad and left.nil == right.nil
                gi = grp.inverse(g1)
                for x, y in ((g1, gi), (gi, g1)):
                    prod = grp.mult(x, y)
                    assert prod.h.ad == linalg.identity(grp.algebra.dim)
                    assert grp.nil_is_zero(prod.nil)
                done += 1
        assert done == triples_per_algebra
    report(8, "star and semidirect group axioms hold exactly "
              "(orders up to 4, 200 random triples per algebra)")


def test_criterion_9_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(1009)
    for name in ("so3", "heis3"):
        alg, rep = builtin(name)
        for order in (1, 2, 3, 4):
            for _ in range(50):
                p = Jet(alg.dim, order + 1,
                        (linalg.zero_vector(alg.dim),)
                        + tuple(linalg.random_vector(rng, alg.dim)
                                for _ in range(order)))
                q = Jet(alg.dim, order + 1,
                        (linalg.zero_vector(alg.dim),)
                        + tuple(linalg.random_vector(rng, alg.dim)
                                for _ in range(order)))
                assert local_mult(alg, p, q, order) == \
                    rep.local_mult(p, q, order)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    report(9, "BCH product equals the matrix oracle exactly "
              f"(orders 1..4, 50 samples each, {elapsed:.3f}s)")


def test_criterion_10_pole_detection():
    so3 = builtin("so3")[0]
    with pytest.raises(NotASubalgebra):
        span_subalgebra(so3, [so3.basis_vector(0), so3.basis_vector(1)])
    one, zero = F(1), F(0)
    forced = ContractionFamily(so3, (
        ((one, zero, zero), (zero, one, zero), (zero, zero, zero)),
        ((zero, zero, zero), (zero, zero, zero), (zero, zero, one)),
    ))
    with pytest.raises(PoleError) as info:
        contract(forced)
    assert info.value.valuation == -1
    report(10, "non-closed split is rejected up front and the forced family "
               "yields a pole of valuation -1")


def test_criterion_11_cross_construction_agreement():
    rng = random.Random(1011)
    for name in ALGEBRAS:
        alg = builtin(name)[0]
        split = span_subalgebra(alg, canonical_split_vectors(name))
        for k in range(4):
            ea = IWExpansion(split, k)
            gen = GeneralExpansion(iw_family(split), k)
            for _ in range(25):
                xs = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                ys = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                lhs = ea.tuple_to_element(gen.bracket_tuples(xs, ys))
                rhs = ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
                assert lhs == rhs
    report(11, "general-family bracket agrees with the split-coordinate "
               "bracket through the exact transport (100 samples per algebra, "
               "orders 0..3)")
