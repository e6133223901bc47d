import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liecontract import linalg
from liecontract.errors import DimensionMismatch, InternalInvariantViolation

F = Fraction

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_rat_coercion():
    assert linalg.rat(3) == F(3)
    assert linalg.rat("2/7") == F(2, 7)
    assert linalg.rat(F(1, 2)) == F(1, 2)
    with pytest.raises(TypeError):
        linalg.rat(0.5)
    with pytest.raises(TypeError):
        linalg.rat(True)
    with pytest.raises(TypeError):
        linalg.rat(None)


def test_vector_ops():
    u = linalg.as_vector([1, "1/2", -3])
    v = linalg.as_vector([0, 2, 1])
    assert linalg.vec_add(u, v) == (F(1), F(5, 2), F(-2))
    assert linalg.vec_sub(u, u) == linalg.zero_vector(3)
    assert linalg.vec_scale(F(2), v) == (F(0), F(4), F(2))
    with pytest.raises(DimensionMismatch):
        linalg.vec_add(u, (F(1),))


def test_matrix_ops():
    a = linalg.as_matrix([[1, 2], [3, 4]])
    b = linalg.as_matrix([[0, 1], [1, 0]])
    assert linalg.mat_mul(a, b) == ((F(2), F(1)), (F(4), F(3)))
    assert linalg.mat_vec(a, (F(1), F(1))) == (F(3), F(7))
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix([[1, 2], [3]])


def laplace(m):
    """Reference determinant: Laplace expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * laplace(minor)
    return total


def poly_eval(p, x):
    """Reference value of a coefficient-tuple polynomial at x (Horner)."""
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def test_invert_round_trip():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 5)
        while True:
            m = tuple(linalg.random_vector(rng, n) for _ in range(n))
            if laplace(m) != 0:
                break
        assert linalg.mat_mul(m, linalg.invert(m)) == linalg.identity(n)
    # the MAX_DIM scale: a dense 28 x 28 matrix with denominators up to 50
    rng = random.Random(28)
    m = tuple(tuple(F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(28))
              for _ in range(28))
    inverse = linalg.invert(m)
    assert linalg.mat_mul(m, inverse) == linalg.mat_mul(inverse, m) == linalg.identity(28)


def test_det_matches_cofactor_expansion():
    # constant polynomials: poly_det is the scalar determinant
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = tuple(linalg.random_vector(rng, n) for _ in range(n))
        d = linalg.poly_det([[(x,) for x in row] for row in m])
        assert d == linalg.poly_trim((laplace(m),))


def test_echelon_basis_membership():
    vectors = [(F(1), F(1), F(0)), (F(2), F(2), F(0)), (F(0), F(1), F(1))]
    assert linalg.pivot_columns(vectors, 3) == [0, 2]
    basis = [vectors[0], vectors[2]]
    assert linalg.solve_in_basis(basis, [(F(1), F(2), F(1))]) == [(F(1), F(1))]
    assert linalg.solve_in_basis(basis, [(F(0), F(0), F(1))]) == [None]
    with pytest.raises(DimensionMismatch):
        linalg.pivot_columns([(F(1), F(0))], 3)


def test_solve_in_basis():
    cols = [(F(1), F(0), F(1)), (F(0), F(1), F(1))]
    assert linalg.solve_in_basis(cols, [(F(2), F(3), F(5)), (F(0), F(0), F(1))]) == \
        [(F(2), F(3)), None]
    assert linalg.solve_in_basis(cols, []) == []


# ----- references: the elimination loops that pivot_columns and -------------
# ----- solve_in_basis replaced, kept to check the shared routine ------------

class EchelonBasis:
    """Incremental reduced row echelon form; add returns True when independent."""

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # (pivot column, reduced row) pairs, pivot normalized to 1

    def _reduce(self, v):
        v = list(v)
        for piv, row in self.rows:
            c = v[piv]
            if c:
                for j in range(self.dim):
                    v[j] -= c * row[j]
        return v

    def add(self, v):
        red = self._reduce(v)
        piv = next((j for j, x in enumerate(red) if x != 0), None)
        if piv is None:
            return False
        inv = red[piv]
        red = [x / inv for x in red]
        for _, row in self.rows:
            c = row[piv]
            if c:
                for j in range(self.dim):
                    row[j] -= c * red[j]
        self.rows.append((piv, red))
        return True


def reference_solve_in_basis(columns, rhs):
    """Single right-hand-side Gauss-Jordan solve; None if inconsistent."""
    m = len(rhs)
    n = len(columns)
    aug = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [F(0)] * n
    for idx, c in enumerate(pivots):
        x[c] = aug[idx][n]
    return tuple(x)


@st.composite
def column_systems(draw):
    """Random columns with forced zero and dependent ones, plus right-hand sides."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(fractions_st, min_size=dim, max_size=dim).map(tuple)
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("free", "free", "zero", "dependent")))
        if kind == "zero":
            columns.append((F(0),) * dim)
        elif kind == "dependent" and columns:
            a, b = draw(fractions_st), draw(fractions_st)
            u, v = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
            columns.append(tuple(a * x + b * y for x, y in zip(u, v)))
        else:
            columns.append(draw(vec))
    rhss = []
    for _ in range(draw(st.integers(0, 4))):
        if columns and draw(st.booleans()):
            coeffs = draw(st.lists(fractions_st, min_size=len(columns),
                                   max_size=len(columns)))
            rhss.append(tuple(sum((c * col[i] for c, col in zip(coeffs, columns)), F(0))
                              for i in range(dim)))
        else:
            rhss.append(draw(vec))
    square = (columns + [draw(vec) for _ in range(dim)])[:dim]
    return dim, columns, rhss, tuple(zip(*square))


@settings(max_examples=100, deadline=None)
@given(column_systems())
def test_gauss_jordan_matches_references(system):
    dim, columns, rhss, m = system
    eb = EchelonBasis(dim)
    assert linalg.pivot_columns(columns, dim) == [j for j, c in enumerate(columns) if eb.add(c)]
    assert linalg.solve_in_basis(columns, rhss) == \
        [reference_solve_in_basis(columns, b) for b in rhss]
    if laplace(m) == 0:
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.invert(m)
    else:
        assert linalg.mat_mul(linalg.invert(m), m) == linalg.identity(dim)


def test_float_invert_follows_the_reference_pivots():
    # floats make every pivot choice and operation order visible in the bits
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = tuple(tuple(rng.uniform(-2, 2) if rng.random() < 0.8 else 0.0
                        for _ in range(n)) for _ in range(n))
        cols = list(zip(*m))
        want = [reference_solve_in_basis(cols, linalg.basis_vector(n, j)) for j in range(n)]
        if any(w is None for w in want):
            continue
        assert linalg.invert(m) == tuple(zip(*want))
    # every entry point on the same kind of matrices, with exact entries mixed
    # in on odd t; zero columns make each set rank-deficient in a way that no
    # rounding hides from EchelonBasis, which eliminates in another order;
    # repr tells -0.0 from 0.0 and a Fraction from a float
    for t in range(300):
        n = rng.randint(1, 5)

        def entry():
            u = rng.random()
            if u < 0.2:
                return 0.0
            if t % 2 and u < 0.5:
                return F(rng.randint(-4, 4), rng.randint(1, 5))
            return rng.uniform(-2, 2)

        m = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        cols = list(zip(*m))
        for _ in range(2):
            cols.insert(rng.randint(0, len(cols)), (0.0,) * n)
        eb = EchelonBasis(n)
        assert linalg.pivot_columns(cols, n) == [j for j, c in enumerate(cols) if eb.add(c)]
        rhss = [linalg.basis_vector(n, j) for j in range(n)] + [tuple(entry() for _ in range(n))]
        assert repr(linalg.solve_in_basis(cols, rhss)) == \
            repr([reference_solve_in_basis(cols, b) for b in rhss])
        want = [reference_solve_in_basis(list(zip(*m)), b) for b in rhss[:n]]
        if any(w is None for w in want):
            with pytest.raises(ValueError, match="singular matrix"):
                linalg.invert(m)
        else:
            assert repr(linalg.invert(m)) == repr(tuple(zip(*want)))


def test_integer_input_gives_fractions():
    # int entries are exact too: true division used to turn them into floats
    k = 2 ** 53 + 1  # k and 3 k round to floats that no longer differ by a factor 3
    assert linalg.pivot_columns([(1, 3), (k, 3 * k), (0, 1)], 2) == [0, 2]
    inverse = linalg.invert(((1, 2), (3, 4)))
    assert inverse == ((F(-2), F(1)), (F(3, 2), F(-1, 2)))
    sols = linalg.solve_in_basis([(1, 3), (0, k)], [(1, 3 + k), (0, 1)])
    assert sols == [(F(1), F(1)), (F(0), F(1, k))]
    assert {type(x) for v in inverse + tuple(sols) for x in v} == {Fraction}


dense_fraction_st = st.builds(F, st.integers(-50, 50), st.integers(1, 50))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(dense_fraction_st, min_size=n, max_size=n), min_size=n + 1, max_size=n + 1)))
def test_integer_elimination_matches_the_fraction_reference(rows):
    m, rhs = tuple(map(tuple, rows[:-1])), tuple(rows[-1])
    n = len(m)
    cols = list(zip(*m))
    rhss = [rhs] + [linalg.basis_vector(n, j) for j in range(n)]
    want = [reference_solve_in_basis(cols, b) for b in rhss]
    assert repr(linalg.solve_in_basis(cols, rhss)) == repr(want)
    if any(w is None for w in want):
        with pytest.raises(ValueError, match="singular matrix"):
            linalg.invert(m)
    else:
        assert repr(linalg.invert(m)) == repr(tuple(zip(*want[1:])))


def test_integer_division_is_checked():
    assert linalg._divexact(-12, 4) == -3
    with pytest.raises(InternalInvariantViolation):
        linalg._divexact(7, 2)


def test_poly_basics():
    p = (F(1), F(2))          # 1 + 2t
    q = (F(0), F(0), F(3))    # 3t^2
    assert linalg.poly_mul(p, q) == (F(0), F(0), F(3), F(6))
    assert linalg.poly_add(p, linalg.poly_neg(p)) == ()
    assert linalg.poly_valuation(q) == 2
    assert linalg.poly_valuation(()) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(fractions_st, max_size=5), st.lists(fractions_st, min_size=1, max_size=4))
def test_poly_divexact_inverts_mul(ps, qs):
    p = linalg.poly_trim(ps)
    q = linalg.poly_trim(qs)
    if not q:
        return
    assert linalg.poly_divexact(linalg.poly_mul(p, q), q) == p


def test_poly_divexact_rejects_inexact():
    with pytest.raises(InternalInvariantViolation):
        linalg.poly_divexact((F(1), F(1)), (F(0), F(1)))


def test_poly_det_matches_scalar_det_at_points():
    # independent oracle: evaluate the polynomial matrix at scalar points
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 3)
        entries = [[linalg.poly_trim([linalg.random_fraction(rng) for _ in range(3)])
                    for _ in range(n)] for _ in range(n)]
        dp = linalg.poly_det(entries)
        for point in (F(0), F(1), F(-1), F(1, 2), F(3)):
            scalar = tuple(
                tuple(poly_eval(entries[i][j], point) for j in range(n))
                for i in range(n))
            assert poly_eval(dp, point) == laplace(scalar)


def poly_mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ()
            for k in range(n):
                acc = linalg.poly_add(acc, linalg.poly_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


poly_st = st.lists(st.sampled_from((0, 0, 1, -1, 2, F(1, 2), F(-2, 3))), max_size=3).map(
    lambda cs: linalg.poly_trim(F(c) for c in cs))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(poly_st, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_poly_adjugate_is_adjugate(rows):
    n = len(rows)
    d, adj = linalg.poly_adjugate(rows)
    assert d == linalg.poly_det(rows)
    if not d:
        assert adj is None
        return
    scalar = tuple(tuple(d if i == j else () for j in range(n)) for i in range(n))
    assert poly_mat_mul(adj, rows) == scalar
    assert poly_mat_mul(rows, adj) == scalar


int_poly_st = st.lists(st.integers(-4, 4), max_size=3).map(linalg.poly_trim)


def coefficient_types(polys):
    return {type(c) for p in polys for c in p}


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(int_poly_st, min_size=n, max_size=n), min_size=n, max_size=n)),
    int_poly_st)
def test_integer_polynomials_stay_integral(rows, num):
    """Over Z[eps] the poly helpers give the Fraction results, with int coefficients."""
    frac_rows = [[tuple(F(c) for c in p) for p in row] for row in rows]
    d, adj = linalg.poly_adjugate(rows)
    fd, fadj = linalg.poly_adjugate(frac_rows)
    assert d == fd == linalg.poly_det(rows) == linalg.poly_det(frac_rows)
    assert coefficient_types([d, linalg.poly_det(rows)]) <= {int}
    assert coefficient_types([fd]) <= {Fraction}
    if not d:
        assert adj is None and fadj is None
        return
    assert adj == fadj
    assert coefficient_types(p for row in adj for p in row) <= {int}
    assert coefficient_types(p for row in fadj for p in row) <= {Fraction}
    for p in (num, linalg.poly_mul(num, d)):
        quotient = linalg.poly_divexact(linalg.poly_mul(p, d), d)
        assert quotient == p and coefficient_types([quotient]) <= {int}


@pytest.mark.parametrize("num, den", [((1, 1), (0, 1)), ((2, 1), (2,)), ((3,), (2,)),
                                      ((1, 3, 3), (1, 2))])
def test_poly_divexact_rejects_quotients_outside_the_integers(num, den):
    with pytest.raises(InternalInvariantViolation):
        linalg.poly_divexact(num, den)


def test_poly_adjugate_needs_row_swaps():
    # zero leading entry forces a pivot swap, so the permutation sign matters
    t = (F(0), F(1))
    rows = [[(), (F(1),), ()], [t, (), ()], [(), (), (F(2),)]]
    d, adj = linalg.poly_adjugate(rows)
    assert d == (F(0), F(-2))
    assert poly_mat_mul(adj, rows) == tuple(
        tuple(d if i == j else () for j in range(3)) for i in range(3))
    # the 0 x 0 matrix: determinant 1, empty adjugate
    assert linalg.poly_det([]) == (1,)
    assert linalg.poly_adjugate([]) == ((1,), ())


def dense_mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), F(0)) for row in m)


@st.composite
def matrix_vector_pairs(draw):
    """Exact, float or int-led mixed matrix and vector, with forced zero coefficients in v.

    An int-led mixed matrix starts each row with an int and mixes ints,
    Fractions and floats after it; its vector starts with an int too.
    """
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("exact", "float", "mixed")))
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    lead = None
    if kind == "exact":
        scalar = fractions_st
        zero = st.just(F(0))
    elif kind == "float":
        scalar = floats
        zero = st.sampled_from((0.0, -0.0))
    else:
        scalar = st.one_of(st.integers(-5, 5), fractions_st, floats)
        zero = st.sampled_from((0, F(0), 0.0, -0.0))
        lead = st.integers(-2, 2)
    entry = st.one_of(zero, scalar)
    m = tuple(tuple(draw(scalar if lead is None else lead if j == 0 else entry)
                    for j in range(cols)) for _ in range(rows))
    v = tuple(draw(entry if lead is None or j else lead) for j in range(cols))
    return m, v, kind


@settings(max_examples=200, deadline=None)
@given(matrix_vector_pairs())
def test_mat_vec_matches_dense_sum(case):
    m, v, kind = case
    got = linalg.mat_vec(m, v)
    assert len(got) == len(m)
    want = dense_mat_vec(m, v)
    if kind != "mixed":
        assert got == want
    else:  # a float zero of v turns the dense sum to floats, where the support's may stay exact
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-6) for a, b in zip(got, want))
    # the sum is integral exactly when every factor it reads is an int: v, and
    # m's columns on the support of v (all of m for an empty support)
    support = [j for j, b in enumerate(v) if b]
    read = [row[j] for row in m for j in support] if support else [x for row in m for x in row]
    integer = all(type(x) is int for x in (*v, *read))
    assert all((type(x) is int) == integer for x in got)


def test_mat_vec_path_reads_every_factor():
    # an int-led row and vector holding a float: Fraction zeros, not int zeros
    assert repr(linalg.mat_vec(((0, 1.5),), (0, 0.0))) == repr((F(0, 1),))
    assert repr(linalg.mat_vec(((0, 1.5),), (0, 0))) == repr((F(0, 1),))
    assert repr(linalg.mat_vec(((0, F(1, 2)),), (1, 2))) == repr((F(1),))
    assert repr(linalg.mat_vec(((2, F(1, 2)),), (1, 0))) == repr((2,))
    assert repr(linalg.mat_vec(((2, 1),), (0, 0))) == repr((0,))


def dense_mat_mul(a, b):
    """The product loop before the zero skip: every term of every dot product."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in bt) for row in a)


@st.composite
def matrix_pairs(draw):
    """Exact or float factors; the left one has forced zeros (±0.0 for floats)."""
    rows, inner, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        scalar = fractions_st
        zero = st.just(F(0))
    else:
        scalar = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        zero = st.sampled_from((0.0, -0.0))
    a = tuple(tuple(draw(st.one_of(zero, scalar)) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(st.one_of(zero, scalar)) for _ in range(cols)) for _ in range(inner))
    return a, b


@settings(max_examples=150, deadline=None)
@given(matrix_pairs())
def test_mat_mul_matches_dense_sum(case):
    a, b = case
    got = linalg.mat_mul(a, b)
    assert len(got) == len(a) and all(len(row) == len(b[0]) for row in got)
    assert got == dense_mat_mul(a, b)
