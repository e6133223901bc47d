import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import algebra as algebra_module, linalg
from liecontract.algebra import (
    LieAlgebra, SubalgebraSplit, _split, span_subalgebra, split_with_complement)
from liecontract.catalog import builtin, subalgebra_catalog
from liecontract.errors import DimensionMismatch, NotASubalgebra, UnknownAlgebra
from liecontract.verify import run_verify
from references import (
    reference_antisymmetry,
    reference_projectors,
    reference_table,
    reference_tensor,
    reference_validate_through_bracket,
    report_key,
    so_n,
)

F = Fraction


@pytest.fixture(scope="module")
def so3():
    return builtin("so3")[0]


@pytest.fixture(scope="module")
def heis3():
    return builtin("heis3")[0]


def test_so3_bracket_relations(so3):
    e = so3.basis_vector
    assert so3.bracket(e(0), e(1)) == e(2)
    assert so3.bracket(e(1), e(2)) == e(0)
    assert so3.bracket(e(2), e(0)) == e(1)


def test_bracket_antisymmetry_on_random_vectors(so3):
    rng = random.Random(1)
    for _ in range(25):
        x = linalg.random_vector(rng, 3)
        y = linalg.random_vector(rng, 3)
        assert so3.bracket(x, y) == linalg.vec_neg(so3.bracket(y, x))
        assert so3.bracket(x, x) == so3.zero_vector()


def test_heis3_bilinear_expansion(heis3):
    # [2P + Q, Q] = 2[P, Q] = 2Z, expanded by hand from the single relation
    p, q = heis3.basis_vector(0), heis3.basis_vector(1)
    x = linalg.vec_add(linalg.vec_scale(F(2), p), q)
    assert heis3.bracket(x, q) == (F(0), F(0), F(2))


def test_bracket_dimension_mismatch(so3):
    with pytest.raises(DimensionMismatch):
        so3.bracket((F(1),), so3.basis_vector(0))


def test_exact_vectors_reject_floats(so3):
    with pytest.raises(TypeError):
        so3.vector([0.1, 0, 0])


def test_validate_catalogued_algebras():
    for name in ("so3", "sl2", "heis3", "iso2", "abelian(5)"):
        alg, _ = builtin(name)
        report = alg.validate()
        assert report.ok, report.summary()


def test_builtin_abelian_is_zero_tensor():
    alg, _ = builtin("abelian(4)")
    assert alg.dim == 4
    assert all(linalg.is_zero_vector(alg.structure[a][b])
               for a in range(4) for b in range(4))
    with pytest.raises(UnknownAlgebra):
        builtin("nosuchalgebra")


def test_from_brackets_completion_and_explicit_mirrors():
    # the mirror of an entry is filled in automatically...
    alg = LieAlgebra.from_brackets(2, ("A", "B"), [(0, 1, 0, 1)])
    assert alg.structure[1][0][0] == F(-1)
    # ...unless given explicitly, in which case it is stored as-is
    broken = LieAlgebra.from_brackets(2, ("A", "B"),
                                      [(0, 1, 0, 1), (1, 0, 0, 1)])
    assert broken.structure[1][0][0] == F(1)
    assert not broken.validate().ok
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, ("A", "B"), [(0, 1, 0, 1), (0, 1, 0, 2)])
    with pytest.raises(DimensionMismatch):
        LieAlgebra.from_brackets(2, ("A", "B"), [(0, 0, 0, 1)])


def test_validate_reports_antisymmetry_violation():
    f = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    f[0][1][2] = F(1)
    f[1][0][2] = F(1)  # should be -1
    alg = LieAlgebra(3, ("X1", "X2", "X3"),
                     tuple(tuple(tuple(r) for r in p) for p in f))
    report = alg.validate()
    kinds = {(v.kind, v.location) for v in report.violations}
    assert ("antisymmetry", (1, 2, 3)) in kinds


def brute_force_jacobi(alg):
    """Independent oracle: raw tensor sums over every index combination."""
    f = alg.structure
    n = alg.dim
    bad = set()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    total = sum(
                        (f[a][b][e] * f[e][c][d]
                         + f[b][c][e] * f[e][a][d]
                         + f[c][a][e] * f[e][b][d])
                        for e in range(n))
                    if total != 0:
                        bad.add(tuple(sorted((a + 1, b + 1, c + 1))))
    return bad


def test_validator_agrees_with_brute_force_jacobi():
    # solvable example: [X1,X2]=X1, [X1,X3]=X1, [X2,X3]=0
    alg = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                   [(0, 1, 0, 1), (0, 2, 0, 1)])
    expected = brute_force_jacobi(alg)
    report = alg.validate()
    got = {v.location for v in report.violations if v.kind == "jacobi"}
    assert got == expected == set()

    # genuine violation: [X1,X2]=X3, [X1,X3]=X1, [X2,X3]=0
    broken = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                      [(0, 1, 2, 1), (0, 2, 0, 1)])
    expected = brute_force_jacobi(broken)
    report = broken.validate()
    got = {v.location for v in report.violations if v.kind == "jacobi"}
    assert got == expected
    assert (1, 2, 3) in got


coeff_st = st.sampled_from((1, -1, 2, F(1, 2), F(-3, 2)))


def direct_sum(parts):
    """Block-diagonal structure tensor of catalogued algebras."""
    algs = [builtin(name)[0] for name in parts]
    n = sum(alg.dim for alg in algs)
    f = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for alg in algs:
        for a in range(alg.dim):
            for b in range(alg.dim):
                for c in range(alg.dim):
                    f[off + a][off + b][off + c] = alg.structure[a][b][c]
        off += alg.dim
    return n, f


def rebase(f, p):
    """Structure tensor in the basis given by the columns of p."""
    n = len(p)
    pinv = linalg.invert(p)
    cols = tuple(zip(*p))
    alg = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)),
                     tuple(tuple(tuple(r) for r in plane) for plane in f))
    return [[list(linalg.mat_vec(pinv, alg.bracket(cols[a], cols[b])))
             for b in range(n)] for a in range(n)]


@st.composite
def structure_tensors(draw):
    """Lie algebras in random bases, perturbed ones, and raw random tensors."""
    kind = draw(st.sampled_from(("lie", "sparse", "dense", "mirrors")))
    if kind == "lie":
        parts = draw(st.lists(st.sampled_from(("so3", "sl2", "heis3", "iso2", "abelian(1)")),
                              min_size=1, max_size=2))
        n, f = direct_sum(parts)
        # unit lower-triangular change of basis: always invertible
        p = [[F(i == j) if j >= i else draw(st.sampled_from((0, 0, 1, -1, F(1, 2))))
              for j in range(n)] for i in range(n)]
        f = rebase(f, tuple(tuple(F(x) for x in r) for r in p))
        if n > 1 and draw(st.booleans()):  # break the Jacobi identity, keep antisymmetry
            a, b = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                        unique=True)))
            c, x = draw(st.integers(0, n - 1)), draw(coeff_st)
            f[a][b][c] += x
            f[b][a][c] -= x
    else:
        n = draw(st.integers(1, 7))
        f = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        if kind == "dense":
            for a in range(n):
                for b in range(a + 1, n):
                    for c in range(n):
                        x = F(draw(st.sampled_from((0, 1, -1, 2, F(1, 3)))))
                        f[a][b][c], f[b][a][c] = x, -x
        else:
            index = st.integers(0, n - 1)
            for _ in range(draw(st.integers(0, 2 * n))):
                a, b, c = draw(index), draw(index), draw(index)
                x = F(draw(coeff_st))
                if kind == "sparse" and a != b:
                    f[a][b][c], f[b][a][c] = x, -x
                elif kind == "mirrors":  # any entry, diagonal and lower triangle too
                    f[a][b][c] = x
    return exact_tensor(f)


def exact_tensor(f):
    """The tensor f in nested tuples, each entry read through ``rat``."""
    return tuple(tuple(tuple(map(linalg.rat, row)) for row in plane) for plane in f)


@st.composite
def sparse_entries(draw, f):
    """``from_brackets`` entries of a tensor with a zero diagonal, in a drawn order.

    An antisymmetric pair comes as its upper entry, its lower entry or both
    (a zero pair also not at all, or as explicit zeros); any other pair as
    both entries, an explicit zero mirror among them.  Some entries repeat.
    """
    n = len(f)
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                x, y = f[a][b][c], f[b][a][c]
                given = ("both",) if x + y != 0 else ("upper", "lower", "both") + ("none",) * (x == 0)
                given = draw(st.sampled_from(given))
                if given in ("upper", "both"):
                    entries.append((a, b, c, x))
                if given in ("lower", "both"):
                    entries.append((b, a, c, y))
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=2))
    return draw(st.permutations(entries))


@st.composite
def algebras_with_tensors(draw):
    """(algebra, the tensor through the dense constructor, the tensor): half
    of the ``structure_tensors`` with a zero diagonal go through
    ``from_brackets``.  Neither constructor keeps the tensor, so the
    references read it, not ``structure``, which is rebuilt from the
    table they check."""
    f = draw(structure_tensors())
    n = len(f)
    dense = LieAlgebra(n, tuple(f"X{i + 1}" for i in range(n)), f)
    if draw(st.booleans()) and not any(f[a][a][c] for a in range(n) for c in range(n)):
        entries = draw(sparse_entries(f))
        alg = LieAlgebra.from_brackets(n, dense.basis_names, entries)
        assert repr(reference_tensor(n, entries)) == repr(f)
        return alg, dense, f
    return dense, dense, f


@settings(max_examples=300, deadline=None)
@given(algebras_with_tensors())
def test_validate_matches_bracket_reference(case):
    alg, dense, f = case
    assert report_key(alg.validate()) == report_key(reference_validate_through_bracket(dense, f))
    assert alg._table == dense._table  # the rows that bracket and validate read, in order
    # both constructors derive what the dense scans of the tensor find, in
    # order and type, and ``structure`` rebuilds the tensor from them
    for x in (alg, dense):
        assert repr(x._table) == repr(reference_table(f))
        assert repr(x._antisymmetry) == repr(reference_antisymmetry(f))
        assert repr(x.structure) == repr(f)
    assert alg == dense and hash(alg) == hash(dense)


@st.composite
def built(draw, f):
    """The tensor f through either constructor, as nested lists or list
    entries, its basis names a tuple or a list, each entry written as a
    Fraction, a string ("0" for a zero) or, if integral, an int.  Sometimes
    one zero entry, wherever it stands, is first written as 0.0: both
    constructors refuse it, whatever its mirror."""
    n = len(f)
    rng = draw(st.randoms(use_true_random=False))
    names = draw(st.sampled_from((tuple, list)))(f"X{i + 1}" for i in range(n))
    if draw(st.booleans()) and not any(f[a][a][c] for a in range(n) for c in range(n)):
        make, entries = LieAlgebra.from_brackets, [list(e) for e in draw(sparse_entries(f))]
        slots = [(entry, 3) for entry in entries]
    else:
        make, entries = LieAlgebra, [[list(row) for row in plane] for plane in f]
        slots = [(row, c) for plane in entries for row in plane for c in range(n)]
    zeros = [(row, i) for row, i in slots if row[i] == 0]
    for row, i in slots:
        x = row[i]
        row[i] = rng.choice([x, str(x)] + [int(x)] * (x.denominator == 1))
    if zeros and draw(st.booleans()):
        row, i = zeros[draw(st.integers(0, len(zeros) - 1))]
        row[i], written = 0.0, row[i]
        with pytest.raises(TypeError, match="cannot interpret 0.0 as a scalar"):
            make(n, names, entries)
        row[i] = written
    return make(n, names, entries)


@st.composite
def algebra_pairs(draw):
    """Two algebras whose tensors differ in at most one entry, which may be
    set to its old value, to minus its mirror or onto the diagonal."""
    *_, f = draw(algebras_with_tensors())
    n = len(f)
    f = [[list(row) for row in plane] for plane in f]
    g = copy.deepcopy(f)
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        g[a][b][c] = draw(st.sampled_from((F(0), F(1), F(-1), F(1, 2), f[a][b][c], -f[b][a][c])))
    return f, g, draw(built(f)), draw(built(g))


@settings(max_examples=300, deadline=None)
@given(algebra_pairs())
def test_equality_and_hash_agree_with_the_dense_tensors(case):
    """``==`` and ``hash`` read the integer table and the entries that break
    antisymmetry; they agree with comparing the input tensors, broken and
    explicit zero mirrors, diagonal entries and int entries included.
    Neither constructor keeps its input: the basis names are a tuple, and
    ``structure`` is the input tensor as Fractions in nested tuples, whatever
    the entries were written as."""
    f, g, p, q = case
    for alg, tensor in ((p, f), (q, g)):
        assert "structure" not in alg.__dict__ and type(alg.basis_names) is tuple
        assert repr(alg.structure) == repr(exact_tensor(tensor))
    same = f == g
    assert (p == q) == same and (p != q) == (not same)
    if same:
        assert hash(p) == hash(q)
    assert p == p and hash(p) == hash(copy.copy(p))


def test_equality_hash_and_verify_never_build_the_dense_tensor(monkeypatch):
    """Comparing, hashing and the whole ``verify`` battery leave the dense
    tensor of every ``from_brackets`` algebra unbuilt."""
    made, from_brackets = [], LieAlgebra.from_brackets.__func__

    def recording(cls, *args):
        made.append(from_brackets(cls, *args))
        return made[-1]

    monkeypatch.setattr(LieAlgebra, "from_brackets", classmethod(recording))
    names = ("X1", "X2", "X3")
    p = LieAlgebra.from_brackets(3, names, [(0, 1, 2, 1), (1, 2, 0, F(1, 2))])
    q = LieAlgebra.from_brackets(3, names, [(2, 1, 0, F(-1, 2)), (1, 0, 2, -1)])
    r = LieAlgebra.from_brackets(3, names, [(0, 1, 2, 1), (1, 0, 2, 0)])  # a broken mirror
    assert p == q and hash(p) == hash(q) and p != r and r != q
    assert p != LieAlgebra.from_brackets(3, ("Y1", "Y2", "Y3"), [(0, 1, 2, 1), (1, 2, 0, F(1, 2))])
    assert {p, q, r} == {p, r}
    assert all(result.passed for result in run_verify(trials=2))
    assert len(made) > 20
    assert all("structure" not in alg.__dict__ for alg in made)
    # the same comparison against a dense algebra builds no tensor for the sparse side
    dense = LieAlgebra(3, names, algebra_module._dense(3, p._table, p._antisymmetry))
    assert dense == p and hash(dense) == hash(p) and "structure" not in p.__dict__


def test_dense_constructor_refuses_a_float_entry():
    """A float entry is refused at construction wherever it stands, in the
    upper triangle, as a mirror or on the diagonal, a zero one too, however
    its mirror is written."""
    for x, (a, b, c), mirror in product((0.5, 0.0), ((0, 1, 0), (1, 0, 1), (1, 1, 0)),
                                        (0, "0", F(0))):
        f = [[[F(0)] * 2 for _ in range(2)] for _ in range(2)]
        f[0][1][1], f[1][0][1] = F(1), F(-1)
        f[b][a][c] = f[b][a][c] or mirror
        f[a][b][c] = x
        with pytest.raises(TypeError, match=f"cannot interpret {x}"):
            LieAlgebra(2, ("X1", "X2"), tuple(tuple(map(tuple, plane)) for plane in f))


def test_dense_constructor_keeps_no_copy_of_its_input():
    """The dense constructor keeps what ``from_brackets`` keeps: mutating its
    input afterwards changes neither ``structure`` nor ``bracket``."""
    names = ["X1", "X2", "X3"]
    f = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # so3
        f[a][b][c], f[b][a][c] = 1, -1
    alg = LieAlgebra(3, names, f)
    twin = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"),
                                    [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])
    assert list(alg.__dict__) == list(twin.__dict__) == ["dim", "basis_names", "_table",
                                                         "_antisymmetry"]
    want = repr(twin.structure)
    f[0][1][2], f[2][2][2] = 5, 7
    names[0] = "Y"
    assert repr(alg.structure) == want and alg.basis_names == ("X1", "X2", "X3")
    assert alg.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert alg == twin and hash(alg) == hash(twin)
    assert alg.structure is alg.structure  # built once


def test_from_brackets_defers_the_dense_tensor():
    """An algebra from ``from_brackets`` validates without its dense tensor;
    the first read builds the tensor once, and copies stay lazy until then."""
    entries = [(0, 1, 2, 1), (2, 0, 1, F(1, 2)), (1, 2, 0, 3), (2, 1, 0, 0), (0, 1, 2, 1)]
    tensor = reference_tensor(3, entries)
    want = LieAlgebra(3, ("X1", "X2", "X3"), tensor)
    alg = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"), entries)
    report = alg.validate()
    assert report_key(report) == report_key(reference_validate_through_bracket(want, tensor))
    assert [v.detail for v in report.violations][0] == "f[2][3][1]=3 but f[3][2][1]=0"
    assert alg._table == want._table
    assert "structure" not in alg.__dict__
    for lazy in (alg, copy.copy(alg), pickle.loads(pickle.dumps(alg))):
        assert "structure" not in lazy.__dict__
        assert lazy == want and hash(lazy) == hash(want)
        assert repr(lazy.structure) == repr(want.structure)
        assert lazy.structure is lazy.structure  # built once


def test_so8_sized_dense_tensor_validates_like_the_reference():
    alg, _ = so_n(8)
    assert alg.dim == 28
    report = alg.validate()
    assert report.ok and report.checks == 28 * 28 * 29 // 2 + 28 * 27 * 26 // 6
    assert report_key(report) == report_key(reference_validate_through_bracket(alg, alg.structure))
    entries = [(a, b, c, x) for a in range(28) for b in range(a + 1, 28)
               for c, x in enumerate(alg.structure[a][b]) if x]
    sparse = LieAlgebra.from_brackets(28, alg.basis_names, entries)
    assert report_key(sparse.validate()) == report_key(report)
    assert sparse._table == alg._table and "structure" not in sparse.__dict__
    assert sparse.structure == alg.structure
    f = [[list(row) for row in plane] for plane in alg.structure]
    f[3][20][27] += 1  # its mirror left as it is: antisymmetry and Jacobi break
    broken = LieAlgebra(28, alg.basis_names, tuple(tuple(map(tuple, p)) for p in f))
    report = broken.validate()
    assert not report.ok
    assert report_key(report) == report_key(reference_validate_through_bracket(broken, f))


def test_dimension_cap():
    zero = tuple(tuple(tuple(F(0) for _ in range(33)) for _ in range(33))
                 for _ in range(33))
    with pytest.raises(DimensionMismatch):
        LieAlgebra(33, tuple(f"A{i}" for i in range(33)), zero)
    names = tuple(f"A{i}" for i in range(33))
    for dim, entries in ((33, []), (33, [(0, 32, 1, 1)]), (0, []), (10 ** 9, [])):
        with pytest.raises(DimensionMismatch, match="dimension must be in 1..32"):
            LieAlgebra.from_brackets(dim, names, entries)
    with pytest.raises(DimensionMismatch, match="basis name count"):
        LieAlgebra.from_brackets(32, names, [])


def test_span_subalgebra_so3_x3(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    assert split.h_basis == (so3.basis_vector(2),)
    assert set(split.n_basis) == {so3.basis_vector(0), so3.basis_vector(1)}
    # projectors are the coordinate projections here
    assert split.proj_h == ((F(0),) * 3, (F(0),) * 3, (F(0), F(0), F(1)))


def test_span_subalgebra_rejects_non_closed(so3):
    with pytest.raises(NotASubalgebra) as info:
        span_subalgebra(so3, [so3.basis_vector(0), so3.basis_vector(1)])
    u, v, w = info.value.witness
    assert so3.bracket(u, v) == w == so3.basis_vector(2)


def test_span_subalgebra_degenerate_cases(so3):
    zero = span_subalgebra(so3, [])
    assert zero.dim_h == 0 and zero.dim_n == 3
    assert zero.proj_n == linalg.identity(3)
    full = span_subalgebra(so3, [so3.basis_vector(i) for i in range(3)])
    assert full.dim_h == 3 and full.dim_n == 0
    assert full.proj_h == linalg.identity(3)


def test_span_subalgebra_prunes_dependent_input(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2),
                                  linalg.vec_scale(F(5), so3.basis_vector(2))])
    assert split.dim_h == 1


def test_projector_identities():
    rng = random.Random(4)
    for name in ("so3", "sl2", "heis3"):
        alg, _ = builtin(name)
        whole = [alg.basis_vector(a) for a in range(alg.dim)]
        dense = [(F(1), F(-2, 3), F(0)), (F(0), F(1), F(5, 7)), (F(3), F(0), F(1, 2))]
        splits = [span_subalgebra(alg, vectors)
                  for vectors in [[], whole, *subalgebra_catalog(name).values()]]
        splits += [split_with_complement(alg, [], dense), split_with_complement(alg, dense, [])]
        for split in splits:
            assert repr((split.proj_h, split.proj_n)) == repr(reference_projectors(split))
            assert linalg.mat_add(split.proj_h, split.proj_n) == linalg.identity(alg.dim)
            assert linalg.mat_mul(split.proj_h, split.proj_h) == split.proj_h
            assert linalg.mat_mul(split.proj_n, split.proj_n) == split.proj_n
            for v in split.h_basis:
                assert split.project_h(v) == v
            for _ in range(10):
                x = linalg.random_vector(rng, alg.dim)
                assert split.contains(split.project_h(x))
                assert split.contains(x) == (split.project_h(x) == x)


def product_projectors(n, h_basis, n_basis):
    """P_h as the matrix product of the h columns of B and the first dh rows of B^-1."""
    inv = linalg.invert(tuple(zip(*h_basis, *n_basis)))
    if h_basis:
        proj_h = linalg.mat_mul(tuple(zip(*h_basis)), inv[:len(h_basis)])
    else:
        proj_h = linalg.zero_matrix(n)
    return proj_h, linalg.mat_sub(linalg.identity(n), proj_h)


def test_projectors_match_the_matrix_product_bit_for_bit():
    """Exact bases give the product's projectors, by repr, and the inverse of
    the base change that the split keeps; float and mixed bases are refused,
    as every split constructor but the public one refuses them."""
    rng = random.Random(12)
    entries = (0, 0, 1, -1, F(1, 3), F(-5, 2), F(7, 10 ** 9 + 7), 0.0, -0.0, 0.1, -2.5, 1e-300)
    for trial in range(600):
        n = rng.randint(1, 5)
        mode = trial % 3  # exact, float, mixed
        cols = [[F(rng.choice(entries[:7])) if mode == 0 or (mode == 2 and rng.random() < 0.5)
                 else float(rng.choice(entries)) for _ in range(n)] for _ in range(n)]
        dh = rng.randint(0, n)
        args = (n, tuple(map(tuple, cols[:dh])), tuple(map(tuple, cols[dh:])))
        alg = builtin(f"abelian({n})")[0]
        if any(type(x) is float for col in cols for x in col):
            with pytest.raises(TypeError, match="as a scalar"):
                split_with_complement(alg, *args[1:])
            continue
        try:
            want = product_projectors(*args)
        except ValueError:
            with pytest.raises(DimensionMismatch):
                split_with_complement(alg, *args[1:])
            continue
        split = split_with_complement(alg, *args[1:])
        assert repr((split.proj_h, split.proj_n)) == repr(want)
        inv = [[0] * n for _ in range(n)]  # the exact inverse kept for the split, column by column
        columns, d = split._inverse
        for j, column in enumerate(columns):
            for r, x in column:
                inv[r][j] = x
        assert repr(tuple(linalg.from_numerators(row, d) for row in inv)) == \
            repr(linalg.invert(tuple(zip(*args[1], *args[2]))))


def fraction_projector_split(alg, h_basis, n_basis):
    """``_split`` as it was before the split kept integer projectors: the same
    integer sums, made into Fraction projectors (floats in the float mode),
    and the inverse of the base change, column by column."""
    n = alg.dim
    rows, den = linalg.numerators(tuple(zip(*h_basis, *n_basis)))
    inv, d = linalg.invert_numerators(rows, den)
    den = (1 if type(den) is float else den) * d
    ph = []
    for row in rows:
        support = [(l, b) for l, b in enumerate(row[:len(h_basis)]) if b]
        ph.append([sum((inv[l][k] * b for l, b in support), 0) for k in range(n)])
    proj_h = tuple(linalg.from_numerators(row, den) for row in ph)
    proj_n = tuple(linalg.from_numerators([(den if i == k else 0) - x for k, x in enumerate(row)],
                                          den) for i, row in enumerate(ph))
    inverse = (tuple(tuple((r, row[j]) for r, row in enumerate(inv) if row[j])
                     for j in range(n)), d)
    return proj_h, proj_n, inverse


SPLIT_ENTRIES = (0, 0, 1, -1, F(1, 3), F(-5, 2), F(7, 10 ** 9 + 7), 0.0, -0.0, 0.1, -2.5, 1e-300)


@st.composite
def drawn_bases(draw):
    """(n, h columns, n columns) of a base change on exact, float or mixed entries."""
    n = draw(st.integers(1, 5))
    mode = draw(st.sampled_from(("exact", "float", "mixed")))
    exact = st.sampled_from(SPLIT_ENTRIES[:7]).map(F)
    floats = st.sampled_from(SPLIT_ENTRIES).map(float)
    entry = {"exact": exact, "float": floats, "mixed": st.one_of(exact, floats)}[mode]
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    dh = draw(st.integers(0, n))
    return n, tuple(cols[:dh]), tuple(cols[dh:])


@settings(max_examples=150, deadline=None)
@given(drawn_bases())
def test_split_matches_the_fraction_projector_reference(basis):
    """An exact split's projector views and inverse equal those of the Fraction
    route by repr; its state is what the public constructor keeps from them.
    The public constructor, the one that takes a float basis, inverts its
    base change to the Fraction route's inverse, floats included."""
    n, h_basis, n_basis = basis
    alg = builtin(f"abelian({n})")[0]
    exact = not any(type(x) is float for v in (*h_basis, *n_basis) for x in v)
    try:
        want = fraction_projector_split(alg, h_basis, n_basis)
    except ValueError:
        if exact:
            with pytest.raises(DimensionMismatch):
                split_with_complement(alg, h_basis, n_basis)
        return
    public = SubalgebraSplit(alg, h_basis, n_basis, *want[:2])
    assert repr(public._inverse) == repr(want[2])
    if not exact:
        return
    split = split_with_complement(alg, h_basis, n_basis)
    assert "proj_h" not in split.__dict__ and "proj_n" not in split.__dict__
    assert repr((split.proj_h, split.proj_n, split._inverse)) == repr(want)
    assert repr(public._numerators) == repr(split._numerators)
    assert public == split and hash(public) == hash(split)


def test_coset_reduce_examples(so3, heis3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    assert split.coset_reduce(so3.basis_vector(2)) == so3.zero_vector()
    x = linalg.vec_add(so3.basis_vector(0),
                       linalg.vec_scale(F(5), so3.basis_vector(2)))
    assert split.coset_reduce(x) == so3.basis_vector(0)
    hsplit = span_subalgebra(heis3, [heis3.basis_vector(2)])
    pqz = (F(1), F(1), F(1))
    assert hsplit.coset_reduce(pqz) == (F(1), F(1), F(0))


def test_coset_reduce_kernel_is_subalgebra(so3):
    split = span_subalgebra(so3, [so3.basis_vector(2)])
    rng = random.Random(8)
    for _ in range(25):
        x = linalg.random_vector(rng, 3)
        reduced_to_zero = linalg.is_zero_vector(split.coset_reduce(x))
        assert reduced_to_zero == split.contains(x)


def test_split_with_explicit_complement(so3):
    alt = split_with_complement(
        so3, [so3.basis_vector(2)],
        [linalg.vec_add(so3.basis_vector(0), so3.basis_vector(2)), so3.basis_vector(1)])
    assert alt.dim_h == 1 and alt.dim_n == 2
    assert linalg.mat_add(alt.proj_h, alt.proj_n) == linalg.identity(3)
    with pytest.raises(DimensionMismatch):
        split_with_complement(so3, [so3.basis_vector(2)], [so3.basis_vector(2)])


def pivot_search_split(alg, vectors, complement=None):
    """``span_subalgebra`` (no complement) or ``split_with_complement`` as they
    ran before one elimination served both: a pivot search, the closure
    check, and a second elimination to invert the base change."""
    rows, den = linalg.exact_numerators([*vectors, *(complement or ())], alg.dim)
    n, k = alg.dim, len(vectors)
    cols = list(rows)
    if complement is None:
        cols += [tuple(den if i == j else 0 for j in range(n)) for i in range(n)]
    pivots = linalg.pivot_columns(cols, n)
    h = [cols[j] for j in pivots if j < k]
    algebra_module._closure_check(alg, h, den)
    if complement is None:
        n_basis = [alg.basis_vector(j - k) for j in pivots if j >= k]
    elif len(pivots) - len(h) != len(rows) - k:
        raise DimensionMismatch("complement vectors are not independent of the subalgebra")
    elif len(pivots) != n:
        raise DimensionMismatch("subalgebra and complement do not span the algebra")
    else:
        n_basis = linalg.vectors_of((rows[k:], den))
    basis = [cols[j] for j in pivots]
    return _split(alg, linalg.vectors_of((h, den)), n_basis, (basis, den),
                  linalg.invert_numerators(tuple(zip(*basis)), den))


def split_outcome(make, *args):
    """The split's inverse, state and projectors by repr, or the error it raised,
    with the number of eliminations it ran."""
    calls = []
    eliminate = linalg._eliminate

    def counted(*a, **kw):
        calls.append(1)
        return eliminate(*a, **kw)

    linalg._eliminate = counted
    try:
        split = make(*args)
        got = repr((split._inverse, split._numerators, split.proj_h, split.proj_n))
    except (DimensionMismatch, NotASubalgebra) as err:
        got = (type(err), str(err))
    finally:
        linalg._eliminate = eliminate
    return got, len(calls)


def edge_split_inputs():
    so3 = builtin("so3")[0]
    heis3 = builtin("heis3")[0]
    so4, sub = so_n(4)
    e = so3.basis_vector
    spans = [(so3, []), (so3, [(0, 0, 0)]), (so3, [e(2), e(2)]), (so3, [e(0), e(1), e(2)]),
             (so3, [(F(1, 2), 0, F(-1, 3))]), (so3, [e(0), e(1)]), (heis3, [(0, F(2, 3), 1), e(2)]),
             (so4, sub)]
    complements = [(so3, [e(2)], [e(2)]), (so3, [e(2)], [e(0)]), (so3, [e(2)], [e(0), e(0)]),
                   (so3, [e(2)], [(1, 0, F(1, 2)), e(1)]), (so3, [e(2), e(2)], [e(0), e(1)]),
                   (so3, [e(0), e(1)], [e(2)]), (so3, [], [e(0), e(1), e(2)])]
    return spans, complements


def test_a_split_inverts_its_base_change_in_its_pivot_search():
    """One elimination finds the pivots and inverts the base change: the split,
    its inverse and every error are those of a pivot search followed by an
    inversion, with one elimination fewer (two per split, one when the span is
    empty and the closure check solves nothing)."""
    spans, complements = edge_split_inputs()
    cases = [(span_subalgebra, alg, vectors) for alg, vectors in spans]
    cases += [(split_with_complement, *args) for args in complements]
    refusals = set()
    for make, alg, *args in cases:
        got, calls = split_outcome(make, alg, *args)
        want, before = split_outcome(pivot_search_split, alg, *args)
        assert got == want, args
        if isinstance(got, str):  # a split was made
            assert calls == before - 1 == (2 if any(map(any, args[0])) else 1), args
        else:  # refused before the base change was inverted
            assert calls == before, args
            refusals.add(got[0] if got[0] is NotASubalgebra else got)
    assert refusals == {NotASubalgebra, (
        DimensionMismatch, "complement vectors are not independent of the subalgebra"), (
        DimensionMismatch, "subalgebra and complement do not span the algebra")}
