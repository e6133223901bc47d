"""Whole-pipeline runs on algebras beyond the built-in catalogue."""

import importlib
import importlib.util
import pathlib
import random
from fractions import Fraction

from liecontract import linalg
from liecontract.algebra import LieAlgebra, span_subalgebra
from liecontract.catalog import builtin
from liecontract.contraction import contract, iw_contract_closed_form, iw_family
from liecontract.expansion import GeneralExpansion, IWExpansion
from liecontract.group import ExpansionGroup

F = Fraction


def oscillator():
    """Central extension of the plane-motion algebra: N rotates P and Q into
    each other, P and Q bracket to the central Z."""
    return LieAlgebra.from_brackets(4, ("N", "P", "Q", "Z"), [
        (0, 1, 2, 1),    # [N, P] = Q
        (0, 2, 1, -1),   # [N, Q] = -P
        (1, 2, 3, 1),    # [P, Q] = Z
    ])


def rotations_plus_heisenberg():
    """Direct sum of the rotation algebra and the Heisenberg algebra."""
    return LieAlgebra.from_brackets(6, ("X1", "X2", "X3", "P", "Q", "Z"), [
        (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
        (3, 4, 5, 1),
    ])


def random_nil(grp, rng):
    return grp.nil([linalg.random_vector(rng, grp.algebra.dim) for _ in range(grp.order)],
                   linalg.random_vector(rng, grp.algebra.dim))


def test_oscillator_is_valid():
    assert oscillator().validate().ok


def test_oscillator_contraction_along_center_and_rotation():
    alg = oscillator()
    # span{N, Z} is a two-dimensional abelian subalgebra
    split = span_subalgebra(alg, [alg.basis_vector(0), alg.basis_vector(3)])
    limit = contract(iw_family(split))
    assert limit.structure == iw_contract_closed_form(split).structure
    n, p, q, z = (limit.basis_vector(i) for i in range(4))
    assert limit.bracket(p, q) == limit.zero_vector()   # central charge dies
    assert limit.bracket(n, p) == q                     # rotation action survives
    assert limit.bracket(n, q) == linalg.vec_neg(p)
    assert limit.bracket(n, z) == limit.zero_vector()
    assert limit.validate().ok


def test_oscillator_expansion_and_group():
    alg = oscillator()
    split = span_subalgebra(alg, [alg.basis_vector(0), alg.basis_vector(3)])
    rng = random.Random(31)
    for k in (0, 1, 2):
        ea = IWExpansion(split, k)
        assert ea.jacobi_report(mode="exhaustive").ok
        gen = GeneralExpansion(iw_family(split), k)
        for _ in range(5):
            xs = [linalg.random_vector(rng, 4) for _ in range(k + 1)]
            ys = [linalg.random_vector(rng, 4) for _ in range(k + 1)]
            assert ea.tuple_to_element(gen.bracket_tuples(xs, ys)) == \
                ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
        grp = ExpansionGroup(split, k)
        for _ in range(3):
            a, b, c = (random_nil(grp, rng) for _ in range(3))
            assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))
            assert grp.nil_is_zero(grp.star(a, grp.nil_negate(a)))


def test_direct_sum_contracts_factorwise():
    alg = rotations_plus_heisenberg()
    assert alg.validate().ok
    split = span_subalgebra(alg, [alg.basis_vector(2), alg.basis_vector(5)])
    limit = contract(iw_family(split))
    assert limit.structure == iw_contract_closed_form(split).structure
    # the rotation block contracts to the plane-motion algebra...
    iso2 = builtin("iso2")[0]
    for a in range(3):
        for b in range(3):
            assert limit.structure[a][b][:3] == iso2.structure[a][b]
            assert all(x == 0 for x in limit.structure[a][b][3:])
    # ...and the Heisenberg block abelianizes
    for a in range(3, 6):
        for b in range(3, 6):
            assert linalg.is_zero_vector(limit.structure[a][b])


def test_direct_sum_star_associativity():
    alg = rotations_plus_heisenberg()
    split = span_subalgebra(alg, [alg.basis_vector(2), alg.basis_vector(5)])
    grp = ExpansionGroup(split, 2)
    rng = random.Random(32)
    for _ in range(3):
        a, b, c = (random_nil(grp, rng) for _ in range(3))
        assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))


def test_degenerate_splits_full_and_zero():
    alg = builtin("so3")[0]
    rng = random.Random(33)
    for vectors in ([alg.basis_vector(i) for i in range(3)], []):
        split = span_subalgebra(alg, vectors)
        g0 = contract(iw_family(split))
        ea0 = IWExpansion(split, 0)
        for _ in range(10):
            x = linalg.random_vector(rng, 3)
            y = linalg.random_vector(rng, 3)
            assert ea0.from_contraction(g0.bracket(x, y)) == \
                ea0.bracket(ea0.from_contraction(x), ea0.from_contraction(y))
        for k in (0, 1, 2):
            ea = IWExpansion(split, k)
            assert ea.dimension == (k + 1) * 3
            assert ea.jacobi_report(mode="exhaustive").ok
            grp = ExpansionGroup(split, k)
            a, b, c = (random_nil(grp, rng) for _ in range(3))
            assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))


def test_benchmark_trace_targets_resolve():
    # a traced benchmark run wraps each (module, attr) of bench/spans.py by name
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"liecontract.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
