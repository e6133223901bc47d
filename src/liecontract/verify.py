"""Seeded verification battery behind the ``verify`` CLI command.

Each check exercises one of the library's guaranteed identities on the
catalogued algebras; all arithmetic is exact and every check is
deterministic for a fixed (seed, trials) pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import span_subalgebra
from .bch import local_mult
from .catalog import builtin, canonical_split_vectors, subalgebra_catalog
from .contraction import (
    ContractionFamily,
    contract,
    eps_bracket,
    iw_contract_closed_form,
    iw_family,
)
from .errors import NotASubalgebra, PoleError
from .expansion import GeneralExpansion, IWExpansion
from .group import ExpansionGroup
from .jets import Jet
from . import linalg


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _nil_random(grp, rng):
    return grp.nil(
        [linalg.random_vector(rng, grp.algebra.dim) for _ in range(grp.order)],
        linalg.random_vector(rng, grp.algebra.dim))


def run_verify(seed=0, trials=25):
    """Run the full identity battery; returns a list of CheckResult."""
    results = []
    rng = random.Random(seed)

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, ok, detail))

    def algebras_valid():
        bad = []
        for name in ("so3", "sl2", "heis3", "iso2", "abelian(4)"):
            alg, rep = builtin(name)
            if not alg.validate().ok:
                bad.append(name)
            if rep is not None and not rep.check().ok:
                bad.append(name + " (representation)")
        return not bad, ", ".join(bad)

    check("catalogued algebras and representations are valid", algebras_valid)

    def contraction_matches():
        so3, _ = builtin("so3")
        split = span_subalgebra(so3, [so3.basis_vector(2)])
        limit = contract(iw_family(split))
        iso2, _ = builtin("iso2")
        # the bases are named apart, so the tables are compared
        if (limit._table, limit._antisymmetry) == (iso2._table, iso2._antisymmetry):
            return True, ""
        e, names = so3.basis_vector, so3.basis_names
        return False, next(f"[{names[a]}, {names[b]}]" for a in range(3) for b in range(a + 1, 3)
                           if limit.bracket(e(a), e(b)) != iso2.bracket(e(a), e(b)))

    check("rotation algebra contracts to the plane-motion algebra", contraction_matches)

    def closed_form_agrees():
        bad = []
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            for label, vectors in subalgebra_catalog(name).items():
                split = span_subalgebra(alg, vectors)
                if contract(iw_family(split)) != iw_contract_closed_form(split):
                    bad.append(f"{name}/{label}")
        return not bad, ", ".join(bad)

    check("limit tensor agrees with the closed form on every catalogued split",
          closed_form_agrees)

    def rescaled_relations():
        so3, _ = builtin("so3")
        split = span_subalgebra(so3, [so3.basis_vector(2)])
        fam = iw_family(split)
        e = so3.basis_vector
        bad = []
        for a, b, want in ((0, 1, [(0, 0, 0), (0, 0, 0), (0, 0, 1)]),
                           (1, 2, [(1, 0, 0)]), (2, 0, [(0, 1, 0)])):
            if eps_bracket(fam, e(a), e(b), order=2) != Jet(3, 3, want):
                bad.append(f"[{so3.basis_names[a]}, {so3.basis_names[b]}]")
        return not bad, ", ".join(bad)

    check("rescaled bracket relations of the rotation algebra", rescaled_relations)

    def order_zero_isomorphism():
        bad = []
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            split = span_subalgebra(alg, canonical_split_vectors(name))
            limit = contract(iw_family(split))
            ea = IWExpansion(split, 0)
            for _ in range(trials):
                x = linalg.random_vector(rng, alg.dim)
                y = linalg.random_vector(rng, alg.dim)
                lhs = ea.from_contraction(limit.bracket(x, y))
                rhs = ea.bracket(ea.from_contraction(x), ea.from_contraction(y))
                if lhs != rhs or ea.to_contraction(ea.from_contraction(x)) != x:
                    bad.append(name)
                    break
        return not bad, ", ".join(bad)

    check("order-0 expansion is isomorphic to the contraction", order_zero_isomorphism)

    def expanded_jacobi():
        bad = []
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            for label, vectors in subalgebra_catalog(name).items():
                for k in range(3):
                    ea = IWExpansion(span_subalgebra(alg, vectors), k)
                    if not ea.structure_algebra().validate().ok:
                        bad.append(f"{name}/{label}/k={k}")
        return not bad, ", ".join(bad)

    check("expanded algebras satisfy the Jacobi identity (orders 0..2)",
          expanded_jacobi)

    def star_closed_form():
        bad = []
        half = Fraction(1, 2)
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            split = span_subalgebra(alg, canonical_split_vectors(name))
            grp = ExpansionGroup(split, 1)
            for _ in range(trials):
                c1, d1 = linalg.random_vector(rng, alg.dim), linalg.random_vector(rng, alg.dim)
                c2, d2 = linalg.random_vector(rng, alg.dim), linalg.random_vector(rng, alg.dim)
                got = grp.star(grp.nil([c1], c2), grp.nil([d1], d2))
                want_top = split.coset_reduce(linalg.vec_add(
                    linalg.vec_add(split.coset_reduce(c2), split.coset_reduce(d2)),
                    linalg.vec_scale(half, alg.bracket(c1, d1))))
                if got.mids[0] != linalg.vec_add(c1, d1) or got.top != want_top:
                    bad.append(name)
                    break
        return not bad, ", ".join(bad)

    check("order-1 star product matches its closed form", star_closed_form)

    def group_axioms():
        bad = []
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            split = span_subalgebra(alg, canonical_split_vectors(name))
            for k in range(3):
                grp = ExpansionGroup(split, k)
                for _ in range(max(3, trials // 5)):
                    a, b, c = (_nil_random(grp, rng) for _ in range(3))
                    if grp.star(grp.star(a, b), c) != grp.star(a, grp.star(b, c)):
                        bad.append(f"{name}/k={k}/associativity")
                        break
                    if not grp.nil_is_zero(grp.star(a, grp.nil_negate(a))):
                        bad.append(f"{name}/k={k}/inverse")
                        break
        return not bad, ", ".join(bad)

    check("star product is associative with inverses (orders 0..2)", group_axioms)

    def oracle_equality():
        bad = []
        for name in ("so3", "heis3"):
            alg, rep = builtin(name)
            for order in (2, 3):
                for _ in range(max(3, trials // 5)):
                    p = Jet(alg.dim, order + 1,
                            (linalg.zero_vector(alg.dim),)
                            + tuple(linalg.random_vector(rng, alg.dim) for _ in range(order)))
                    q = Jet(alg.dim, order + 1,
                            (linalg.zero_vector(alg.dim),)
                            + tuple(linalg.random_vector(rng, alg.dim) for _ in range(order)))
                    if local_mult(alg, p, q, order) != rep.local_mult(p, q, order):
                        bad.append(f"{name}/order={order}")
                        break
        return not bad, ", ".join(bad)

    check("BCH product equals the matrix-model oracle", oracle_equality)

    def pole_detection():
        so3, _ = builtin("so3")
        try:
            span_subalgebra(so3, [so3.basis_vector(0), so3.basis_vector(1)])
            return False, "split construction accepted a non-subalgebra"
        except NotASubalgebra:
            pass
        one, zero = Fraction(1), Fraction(0)
        fam = ContractionFamily(so3, (
            ((one, zero, zero), (zero, one, zero), (zero, zero, zero)),
            ((zero, zero, zero), (zero, zero, zero), (zero, zero, one)),
        ))
        try:
            contract(fam)
            return False, "no pole raised"
        except PoleError as err:
            return err.valuation == -1, f"valuation {err.valuation}"

    check("non-subalgebra split is rejected and poles are detected", pole_detection)

    def cross_construction():
        bad = []
        for name in ("so3", "sl2", "heis3"):
            alg, _ = builtin(name)
            split = span_subalgebra(alg, canonical_split_vectors(name))
            for k in range(3):
                ea = IWExpansion(split, k)
                gen = GeneralExpansion(iw_family(split), k)
                for _ in range(max(3, trials // 5)):
                    xs = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                    ys = [linalg.random_vector(rng, alg.dim) for _ in range(k + 1)]
                    lhs = ea.tuple_to_element(gen.bracket_tuples(xs, ys))
                    rhs = ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
                    if lhs != rhs:
                        bad.append(f"{name}/k={k}")
                        break
        return not bad, ", ".join(bad)

    check("general-family bracket transports onto the split-coordinate bracket",
          cross_construction)

    return results
