import hashlib
import json
import math
import os
import random
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.algebra import span_subalgebra
from liecontract.catalog import builtin
from liecontract.errors import DimensionMismatch
from liecontract.group import (
    QUARTER_TURN,
    ExpansionGroup,
    _rotation_ad,
    so3_example,
)
from liecontract.jets import Jet
from liecontract.oracle import Representation
from references import astuple, canonical_group, random_nil, so_n, so_n_matrices, so_n_rotation_ad

F = Fraction

so3 = builtin("so3")[0]
sl2 = builtin("sl2")[0]
heis3 = builtin("heis3")[0]


def h_elements_lambda_to_5(name, grp, rng):
    """Exact automorphisms keeping the canonical subalgebra: so3's quarter
    turns, sl2's torus element at lambda = a/b (a, b drawn from 1..5) and a
    unipotent one of heis3."""
    if name == "so3":
        turn = grp.h_element(QUARTER_TURN)
        return [grp.identity_h(), turn, grp.h_compose(turn, turn)]
    if name == "sl2":
        # the torus action: fixes H, scales E and F reciprocally
        lam = F(rng.randint(1, 5), rng.randint(1, 5))
        return [grp.identity_h(),
                grp.h_element(((F(1), F(0), F(0)),
                               (F(0), lam, F(0)),
                               (F(0), F(0), 1 / lam)))]
    # heis3: unipotent automorphisms fixing the center
    a = linalg.random_fraction(rng)
    return [grp.identity_h(),
            grp.h_element(((F(1), F(0), F(0)),
                           (F(0), F(1), F(0)),
                           (a, F(0), F(1))))]


def test_star_k1_closed_form_specific():
    grp = canonical_group("so3", 1)
    c1, c2 = (F(1), F(0), F(0)), (F(0), F(1), F(0))
    d1, d2 = (F(0), F(1), F(0)), (F(1), F(0), F(0))
    got = grp.star(grp.nil([c1], c2), grp.nil([d1], d2))
    # [c1, d1] = X3, which the coset reduction kills
    assert got.mids[0] == (F(1), F(1), F(0))
    assert got.top == (F(1), F(1), F(0))


def test_star_k1_closed_form_random():
    rng = random.Random(1)
    for name in ("so3", "sl2", "heis3"):
        grp = canonical_group(name, 1)
        alg = grp.algebra
        for _ in range(30):
            a = random_nil(grp, rng)
            b = random_nil(grp, rng)
            got = grp.star(a, b)
            want_top = grp.split.coset_reduce(linalg.vec_add(
                linalg.vec_add(a.top, b.top),
                linalg.vec_scale(F(1, 2), alg.bracket(a.mids[0], b.mids[0]))))
            assert got.mids[0] == linalg.vec_add(a.mids[0], b.mids[0])
            assert got.top == want_top


def test_star_k0_is_coset_addition():
    rng = random.Random(2)
    grp = canonical_group("so3", 0)
    for _ in range(20):
        a, b = random_nil(grp, rng), random_nil(grp, rng)
        assert grp.star(a, b).top == linalg.vec_add(a.top, b.top)


def test_star_identity_and_inverse():
    rng = random.Random(3)
    for name in ("so3", "sl2", "heis3"):
        for k in (0, 1, 2, 3):
            grp = canonical_group(name, k)
            zero = grp.zero_nil()
            for _ in range(5):
                a = random_nil(grp, rng)
                assert grp.star(a, zero) == a
                assert grp.star(zero, a) == a
                assert grp.nil_is_zero(grp.star(a, grp.nil_negate(a)))
                assert grp.nil_is_zero(grp.star(grp.nil_negate(a), a))


def test_star_associativity():
    rng = random.Random(4)
    for name in ("so3", "sl2", "heis3"):
        for k in (0, 1, 2, 3, 4):
            grp = canonical_group(name, k)
            for _ in range(3):
                a, b, c = (random_nil(grp, rng) for _ in range(3))
                assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))


def test_h_element_validation():
    grp = canonical_group("so3", 1)
    with pytest.raises(DimensionMismatch):
        # reflection through a plane flips orientation: not a bracket automorphism
        grp.h_element(((F(-1), F(0), F(0)),
                       (F(0), F(1), F(0)),
                       (F(0), F(0), F(1))))
    with pytest.raises(DimensionMismatch):
        # rotation about the first axis moves span{X3}
        grp.h_element(((F(1), F(0), F(0)),
                       (F(0), F(0), F(-1)),
                       (F(0), F(1), F(0))))
    # the zero matrix is a bracket endomorphism that maps span{X3} into itself
    for zero in (((F(0),) * 3,) * 3, ((0.0,) * 3,) * 3):
        with pytest.raises(DimensionMismatch, match="singular"):
            grp.h_element(zero)


def test_ad_action_is_homomorphism_on_slots():
    rng = random.Random(5)
    for name in ("so3", "sl2", "heis3"):
        grp = canonical_group(name, 2)
        hs = h_elements_lambda_to_5(name, grp, rng)
        for h1 in hs:
            for h2 in hs:
                composed = grp.h_compose(h1, h2)
                for _ in range(5):
                    a = random_nil(grp, rng)
                    assert grp.ad_nil(composed, a) == \
                        grp.ad_nil(h1, grp.ad_nil(h2, a))


def test_ad_equivariance_of_star():
    rng = random.Random(6)
    for name in ("so3", "sl2", "heis3"):
        for k in (0, 1, 2):
            grp = canonical_group(name, k)
            for h in h_elements_lambda_to_5(name, grp, rng):
                for _ in range(5):
                    a, b = random_nil(grp, rng), random_nil(grp, rng)
                    assert grp.ad_nil(h, grp.star(a, b)) == \
                        grp.star(grp.ad_nil(h, a), grp.ad_nil(h, b))


def test_group_identities():
    grp = canonical_group("so3", 1)
    e = grp.identity()
    assert grp.mult(e, e).nil == e.nil and grp.mult(e, e).h.ad == e.h.ad


def test_pure_h_times_pure_nil():
    rng = random.Random(7)
    grp = canonical_group("so3", 1)
    h = grp.h_element(QUARTER_TURN)
    b = random_nil(grp, rng)
    got = grp.mult(grp.element(h, grp.zero_nil()),
                   grp.element(grp.identity_h(), b))
    assert got.h.ad == QUARTER_TURN
    assert got.nil == grp.ad_nil(h, b)


def test_quarter_turn_rotates_coset():
    grp = canonical_group("so3", 0)
    h = grp.h_element(QUARTER_TURN)
    b = grp.nil([], so3.basis_vector(0))
    got = grp.mult(grp.element(h, grp.zero_nil()),
                   grp.element(grp.identity_h(), b))
    assert got.nil.top == so3.basis_vector(1)


def test_group_inverse_forms():
    rng = random.Random(8)
    grp = canonical_group("so3", 2)
    a = random_nil(grp, rng)
    inv = grp.inverse(grp.element(grp.identity_h(), a))
    assert inv.nil == grp.nil_negate(a)
    h = grp.h_element(QUARTER_TURN)
    inv = grp.inverse(grp.element(h, grp.zero_nil()))
    assert inv.h.ad == linalg.invert(QUARTER_TURN)
    assert grp.nil_is_zero(inv.nil)


def test_group_inverse_two_sided():
    rng = random.Random(9)
    for name in ("so3", "sl2", "heis3"):
        for k in (0, 1, 2, 3):
            grp = canonical_group(name, k)
            hs = h_elements_lambda_to_5(name, grp, rng)
            for _ in range(5):
                g = grp.element(hs[rng.randrange(len(hs))], random_nil(grp, rng))
                gi = grp.inverse(g)
                for left, right in ((g, gi), (gi, g)):
                    prod = grp.mult(left, right)
                    assert prod.h.ad == linalg.identity(grp.algebra.dim)
                    assert grp.nil_is_zero(prod.nil)


def test_semidirect_associativity():
    rng = random.Random(10)
    for name in ("so3", "sl2", "heis3"):
        for k in (0, 1, 2, 3):
            grp = canonical_group(name, k)
            hs = h_elements_lambda_to_5(name, grp, rng)
            for _ in range(3):
                gs = [grp.element(hs[rng.randrange(len(hs))], random_nil(grp, rng))
                      for _ in range(3)]
                left = grp.mult(grp.mult(gs[0], gs[1]), gs[2])
                right = grp.mult(gs[0], grp.mult(gs[1], gs[2]))
                assert left.h.ad == right.h.ad and left.nil == right.nil


def test_group_mult_matches_matrix_realization():
    """Independent group-level oracle on the rotation algebra.

    Realize (h, nil) as the matrix jet exp(sum eps^l rho(c_l)) * R(h) in the
    defining representation (where the adjoint and defining matrices agree),
    multiply the realizations as matrix jets, split off the constant part,
    and decompose the logarithm back into coefficients.  The result must
    match group multiplication slot by slot, with the last coefficient
    agreeing modulo the subalgebra.
    """
    from liecontract.jets import MatrixJet

    so3_alg, rep = builtin("so3")
    rng = random.Random(11)
    for k in (0, 1, 2):
        grp = ExpansionGroup(span_subalgebra(so3_alg, [so3_alg.basis_vector(2)]), k)
        trunc = k + 2
        turn = grp.h_element(QUARTER_TURN)
        hs = [grp.identity_h(), turn, grp.h_compose(turn, turn)]

        def realize(g):
            body = rep.exp_trunc(grp._lift(g.nil), k + 1)
            return body.matmul(MatrixJet(3, trunc, (g.h.ad,)))

        for _ in range(8):
            g1 = grp.element(hs[rng.randrange(3)], random_nil(grp, rng))
            g2 = grp.element(hs[rng.randrange(3)], random_nil(grp, rng))
            product = realize(g1).matmul(realize(g2))
            got = grp.mult(g1, g2)
            assert product.coeff(0) == got.h.ad
            unrotated = product.matmul(
                MatrixJet(3, trunc, (linalg.invert(product.coeff(0)),)))
            z = rep.log_trunc(unrotated, k + 1)
            coeffs = [rep.decompose(z.coeff(m)) for m in range(1, k + 2)]
            assert tuple(coeffs[:k]) == got.nil.mids
            assert grp.split.coset_reduce(coeffs[k]) == got.nil.top


def test_group_mult_matches_matrix_realization_heis3():
    """Same group-level oracle where adjoint and defining matrices differ.

    Subgroup elements are unipotent matrices exp(rho(v)) for v in span{P, Z};
    their adjoint action is recovered by conjugating the basis matrices and
    decomposing, so the whole (ad, defining) pair comes from the matrix side.
    The test keeps each defining matrix beside its element, and recovers the
    product's adjoint from the realized product the same way, so ``h_compose``
    is checked against the matrix side too.
    """
    from liecontract.jets import MatrixJet

    alg, rep = builtin("heis3")
    rng = random.Random(12)

    def adjoint(defining):
        inv = linalg.invert(defining)
        cols = [rep.decompose(linalg.mat_mul(defining,
                                             linalg.mat_mul(rep.mats[i], inv)))
                for i in range(3)]
        return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))

    def subgroup_element(grp, a, c):
        defining = linalg.mat_add(
            linalg.identity(3),
            linalg.mat_add(linalg.mat_scale(a, rep.mats[0]),
                           linalg.mat_scale(c, rep.mats[2])))
        return grp.h_element(adjoint(defining)), defining

    for k in (0, 1, 2):
        grp = ExpansionGroup(span_subalgebra(alg, [alg.basis_vector(2)]), k)
        trunc = k + 2

        def realize(g, defining):
            body = rep.exp_trunc(grp._lift(g.nil), k + 1)
            return body.matmul(MatrixJet(3, trunc, (defining,)))

        for _ in range(8):
            h1, d1 = subgroup_element(grp, linalg.random_fraction(rng),
                                      linalg.random_fraction(rng))
            g1 = grp.element(h1, random_nil(grp, rng))
            h2, d2 = subgroup_element(grp, linalg.random_fraction(rng),
                                      linalg.random_fraction(rng))
            g2 = grp.element(h2, random_nil(grp, rng))
            product = realize(g1, d1).matmul(realize(g2, d2))
            got = grp.mult(g1, g2)
            assert product.coeff(0) == linalg.mat_mul(d1, d2)
            assert got.h.ad == adjoint(product.coeff(0))
            unrotated = product.matmul(
                MatrixJet(3, trunc, (linalg.invert(product.coeff(0)),)))
            z = rep.log_trunc(unrotated, k + 1)
            coeffs = [rep.decompose(z.coeff(m)) for m in range(1, k + 2)]
            assert tuple(coeffs[:k]) == got.nil.mids
            assert grp.split.coset_reduce(coeffs[k]) == got.nil.top


def test_float_mode_rotation_matches_exact_at_quarter_turn():
    grp = canonical_group("so3", 0)
    h_float = grp.h_element(_rotation_ad(math.pi / 2), tol=1e-9)
    h_exact = grp.h_element(QUARTER_TURN)
    t = (0.25, -1.5, 0.0)
    moved_f = grp.ad_nil(h_float, grp.nil([], t))
    moved_e = grp.ad_nil(h_exact, grp.nil([], t))
    assert all(abs(a - b) <= 1e-12 for a, b in zip(moved_f.top, moved_e.top))


def test_so3_example_order0():
    report = so3_example(0, float_samples=200)
    assert report.passed
    assert report.float_summary["samples"] == 200
    assert float(report.float_summary["max_deviation"]) <= 1e-12


def test_so3_example_order1():
    report = so3_example(1, rational_samples=40)
    assert report.passed
    assert len(report.checks) == 42  # two special cases plus the random samples


def test_so3_example_rejects_other_orders():
    with pytest.raises(DimensionMismatch):
        so3_example(2)


# ----- the star product on integer numerators --------------------------------

STAR_CASES = [(name, k) for name in ("so3", "sl2", "heis3") for k in range(6)] + [
    ("so4", k) for k in (1, 2, 3)]
STAR_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "star.json")


def star_setting(name, k):
    """(group, matrix oracle, exact automorphisms keeping the subalgebra) of a STAR_CASES entry;
    so4 is so(4) split along its so(3)."""
    if name == "so4":
        alg, sub = so_n(4)
        grp = ExpansionGroup(span_subalgebra(alg, sub), k)
        return (grp, Representation(alg, so_n_matrices(4)),
                [grp.identity_h(), grp.h_element(so_n_rotation_ad(4, F(1, 2)))])
    grp = canonical_group(name, k)
    return grp, builtin(name)[1], h_elements_lambda_to_5(name, grp, random.Random(k))


def oracle_star(grp, rep, a, b):
    """The star product through exp and log of the lifted tuples in the matrix model."""
    k, n = grp.order, grp.algebra.dim
    p, q = (Jet(n, k + 2, (linalg.zero_vector(n), *x.mids, x.top)) for x in (a, b))
    z = rep.local_mult(p, q, k + 1)
    return tuple(z.coeff(m) for m in range(1, k + 1)), grp.split.coset_reduce(z.coeff(k + 1))


def star_samples(name, k):
    """Seeded exact star and mult outputs of a STAR_CASES entry, each beside the oracle's."""
    grp, rep, hs = star_setting(name, k)
    rng = random.Random(f"star/{name}/{k}")
    out = []
    for i in range(4):
        a, b = random_nil(grp, rng), random_nil(grp, rng)
        out.append((astuple(grp.star(a, b)), oracle_star(grp, rep, a, b)))
        h1, h2 = hs[i % len(hs)], hs[-1]
        g = grp.mult(grp.element(h1, a), grp.element(h2, b))
        moved = grp.nil([linalg.mat_vec(h1.ad, m) for m in b.mids], linalg.mat_vec(h1.ad, b.top))
        out.append(((g.h.ad, g.nil.mids, g.nil.top),
                    (linalg.mat_mul(h1.ad, h2.ad), *oracle_star(grp, rep, a, moved))))
    return out


def numeric_star_samples(name, k):
    """Seeded numeric-mode star outputs: float tuples with signed zeros, and
    an exact tuple against a float one, either way round."""
    grp = star_setting(name, k)[0]
    n = grp.algebra.dim
    rng = random.Random(f"numeric star/{name}/{k}")

    def floats():
        return tuple(rng.choice((0.0, -0.0, rng.uniform(-2, 2), rng.uniform(-2, 2)))
                     for _ in range(n))

    def float_nil():
        return grp.nil([floats() for _ in range(k)], floats())

    pairs = [(float_nil(), float_nil()) for _ in range(2)]
    pairs += [(random_nil(grp, rng), float_nil()), (float_nil(), random_nil(grp, rng))]
    return [astuple(grp.star(a, b)) for a, b in pairs]


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def recorded_star_values():
    with open(STAR_GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, k", STAR_CASES)
def test_exact_star_and_mult_match_the_oracle_and_the_recorded_values(name, k):
    """Exact ``star`` and ``mult`` equal the matrix-oracle route, and their
    repr is the one recorded before the product ran on numerators."""
    samples = star_samples(name, k)
    for got, want in samples:
        assert got == want
    assert digest([got for got, _ in samples]) == recorded_star_values()["exact"][f"{name}-k{k}"]


@pytest.mark.parametrize("name, k", STAR_CASES)
def test_numeric_star_keeps_its_bits(name, k):
    """Numeric-mode ``star`` gives the recorded values, float bits and Fraction zeros included."""
    got = numeric_star_samples(name, k)
    assert repr(got) == recorded_star_values()["numeric"][f"{name}-k{k}"]


@pytest.mark.parametrize("name, k", STAR_CASES)
def test_exact_star_makes_one_fraction_per_output_entry(monkeypatch, name, k):
    """An exact ``star`` builds no checked Jet and divides k + 1 vectors: the
    k mids and the reduced top."""
    grp = star_setting(name, k)[0]
    rng = random.Random(f"star pin/{name}/{k}")
    pairs = [(random_nil(grp, rng), random_nil(grp, rng)) for _ in range(3)]
    grp.star(*pairs[0])  # warms the word table and the split's projector forms
    want = [grp.star(a, b) for a, b in pairs]
    calls = {"__post_init__": 0, "from_numerators": 0}
    post_init, from_numerators = Jet.__post_init__, linalg.from_numerators

    def checked(jet):
        calls["__post_init__"] += 1
        post_init(jet)

    def divided(v, den):
        calls["from_numerators"] += 1
        return from_numerators(v, den)

    monkeypatch.setattr(Jet, "__post_init__", checked)
    monkeypatch.setattr(linalg, "from_numerators", divided)
    for (a, b), w in zip(pairs, want):
        calls.update(dict.fromkeys(calls, 0))
        got = grp.star(a, b)
        assert calls == {"__post_init__": 0, "from_numerators": k + 1}
        assert got == w
