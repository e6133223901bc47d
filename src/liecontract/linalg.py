"""Exact linear algebra over the rationals, plus polynomial helpers.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  ``rat``
rejects floats, so exact constructors never silently compute in floating
point; the arithmetic helpers still accept float entries, which the numeric
mode of the group layer passes in on purpose.  Polynomials in the formal parameter are coefficient tuples
(lowest degree first) with trailing zeros trimmed; the empty tuple is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, InternalInvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value):
    """Coerce ints, strings and Fractions to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def as_vector(values):
    return tuple(rat(v) for v in values)


def as_matrix(rows):
    mat = tuple(as_vector(row) for row in rows)
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise DimensionMismatch("ragged matrix")
    return mat


def zero_vector(n):
    return (ZERO,) * n


def basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n):
    return tuple(basis_vector(n, i) for i in range(n))


def zero_matrix(rows, cols=None):
    cols = rows if cols is None else cols
    return tuple((ZERO,) * cols for _ in range(rows))


def is_zero_vector(v):
    return all(x == 0 for x in v)


def is_zero_matrix(m):
    return all(is_zero_vector(row) for row in m)


def vec_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths differ")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def vec_neg(v):
    return tuple(-x for x in v)


def mat_vec(m, v):
    if m and len(m[0]) != len(v):
        raise DimensionMismatch("matrix and vector shapes differ")
    support = [(j, b) for j, b in enumerate(v) if b]
    return tuple(sum((row[j] * b for j, b in support), ZERO) for row in m)


def mat_mul(a, b):
    """Matrix product; each row of the result sums over the support of a's row only."""
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix shapes differ")
    bt = tuple(zip(*b)) if b else ()
    return tuple(mat_vec(bt, row) for row in a)


def numerators(vectors):
    """Integer numerators of a sequence of vectors over one common denominator.

    Returns (rows, den), rows a list of integer lists, with
    vectors[i][j] == rows[i][j] / den and den the least common denominator.
    A sequence holding a float comes back as it is over 1, so the numeric mode
    runs through the same integer loops in floating point.
    """
    try:
        den = lcm(*{x.denominator for v in vectors for x in v})
    except AttributeError:
        return list(vectors), 1
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def from_numerators(v, den):
    """The vector v / den: Fractions for integer entries, plain division for floats."""
    return tuple((Fraction(n, den) if n else ZERO) if type(n) is int else n / den for n in v)


def mat_add(a, b):
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_scale(c, m):
    return tuple(vec_scale(c, row) for row in m)


def _gauss_jordan(aug, ncols):
    """Gauss-Jordan elimination of columns 0..ncols-1 of ``aug``, in place.

    ``aug`` is a list of row lists; the columns past ncols are carried along.
    Each column's pivot is its first nonzero entry at or below the current
    row; the pivot row is scaled to a leading 1 and the column is cleared in
    every other row.  Returns the pivot columns in order: row i then leads
    with a 1 in column pivots[i], and the rows past len(pivots) are zero in
    the first ncols columns.  The field loop of this module: ``pivot_columns``,
    ``solve_in_basis`` and ``invert`` are all built on it.
    """
    m = len(aug)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
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
    return pivots


def pivot_columns(vectors, dim):
    """Indices of the first-come linearly independent subset of ``vectors``.

    Index j is returned exactly when vectors[j] is not in the span of
    vectors[0..j-1].
    """
    if any(len(v) != dim for v in vectors):
        raise DimensionMismatch("vector length differs from ambient dimension")
    return _gauss_jordan([[v[i] for v in vectors] for i in range(dim)], len(vectors))


def invert(m):
    """Exact inverse of a square rational matrix; ValueError if singular."""
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    if len(_gauss_jordan(aug, n)) < n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in aug)


def solve_in_basis(columns, rhss):
    """Solve sum_j x_j columns[j] = rhs exactly, for every rhs in ``rhss``.

    One elimination serves all right-hand sides.  Returns a list with one
    coefficient tuple per right-hand side, or None where that system is
    inconsistent.  Intended for independent columns, where each solution is
    unique.
    """
    rhss = list(rhss)
    if not rhss:
        return []
    n = len(columns)
    aug = [[col[i] for col in columns] + [b[i] for b in rhss] for i in range(len(rhss[0]))]
    pivots = _gauss_jordan(aug, n)
    rest = aug[len(pivots):]
    out = []
    for k in range(n, n + len(rhss)):
        if any(row[k] != 0 for row in rest):
            out.append(None)
            continue
        x = [ZERO] * n
        for i, c in enumerate(pivots):
            x[c] = aug[i][k]
        out.append(tuple(x))
    return out


# ---------------------------------------------------------------------------
# univariate polynomials over the rationals
# ---------------------------------------------------------------------------

def poly_trim(p):
    p = tuple(p)
    end = len(p)
    while end and p[end - 1] == 0:
        end -= 1
    return p[:end]


def poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_neg(p):
    return tuple(-c for c in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return poly_trim(out)


def poly_valuation(p):
    """Index of the lowest nonzero coefficient; None for the zero polynomial."""
    for i, c in enumerate(p):
        if c != 0:
            return i
    return None


def poly_divexact(num, den):
    """Exact quotient num / den in the polynomial ring; fails loudly otherwise."""
    den = poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(poly_trim(num))
    if not num:
        return ()
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        raise InternalInvariantViolation("inexact polynomial division")
    q = [ZERO] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = c / lead
            q[i - dd] = f
            for j, dj in enumerate(den):
                num[i - dd + j] -= f * dj
    if any(c != 0 for c in num):
        raise InternalInvariantViolation("inexact polynomial division")
    return poly_trim(q)


def poly_series_div(num, den, order):
    """Taylor coefficients 0..order of num/den, which must be regular at 0.

    The caller guarantees valuation(num) >= valuation(den) (or num == 0).
    """
    den = poly_trim(den)
    v = poly_valuation(den)
    if v is None:
        raise ZeroDivisionError("series division by zero")
    num = poly_trim(num)
    if not num:
        return (ZERO,) * (order + 1)
    if poly_valuation(num) < v:
        raise ValueError("quotient is not regular at 0")
    ns = num[v:]
    ds = den[v:]
    d0 = ds[0]
    out = []
    for m in range(order + 1):
        acc = ns[m] if m < len(ns) else ZERO
        for j in range(m):
            step = m - j
            if step < len(ds) and ds[step]:
                acc -= out[j] * ds[step]
        out.append(acc / d0)
    return tuple(out)


def _bareiss(work, n):
    """Fraction-free (Bareiss) forward elimination of columns 0..n-1, in place.

    ``work`` holds n rows of trimmed polynomials, each at least n wide; the
    columns past n are carried along.  Returns the sign of the row permutation,
    or 0 when a column has no pivot, i.e. the leading n x n block has zero
    determinant.  On success the block is upper triangular and its last
    diagonal entry is the determinant of the row-permuted block.  Every
    division is exact (Bareiss 1968); poly_divexact fails loudly otherwise.
    """
    sign = 1
    prev = (ONE,)
    for k in range(n):
        piv = next((r for r in range(k, n) if work[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            work[k], work[piv] = work[piv], work[k]
            sign = -sign
        row_k = work[k]
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = work[i]
            f = row_i[k]
            for j in range(k + 1, len(row_i)):
                num = poly_sub(poly_mul(pk, row_i[j]), poly_mul(f, row_k[j]))
                row_i[j] = poly_divexact(num, prev)
            row_i[k] = ()
        prev = pk
    return sign


def poly_det(rows):
    """Determinant of a square matrix of polynomials (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return (ONE,)
    work = [[poly_trim(p) for p in row] for row in rows]
    sign = _bareiss(work, n)
    if not sign:
        return ()
    d = work[n - 1][n - 1]
    return poly_neg(d) if sign < 0 else d


def poly_adjugate(rows):
    """Determinant and adjugate of a square polynomial matrix, in one elimination.

    Eliminates [rows | I], then back-substitutes U Y = d B, where U and B are
    the two halves after elimination and d is the determinant of the permuted
    matrix.  Y is (up to the permutation sign) the adjugate, a polynomial
    matrix, so each division by a diagonal entry of U is exact and
    poly_divexact raises InternalInvariantViolation if one is not.  Returns
    (det, adj) with adj * rows == rows * adj == det * I; adj is None when det
    is the zero polynomial.
    """
    n = len(rows)
    work = [[poly_trim(p) for p in row] + [(ONE,) if j == i else () for j in range(n)]
            for i, row in enumerate(rows)]
    sign = _bareiss(work, n)
    if not sign:
        return (), None
    d = work[n - 1][n - 1]
    y = [None] * n
    for i in range(n - 1, -1, -1):
        row = work[i]
        out = []
        for c in range(n):
            acc = poly_mul(d, row[n + c])
            for j in range(i + 1, n):
                if row[j] and y[j][c]:
                    acc = poly_sub(acc, poly_mul(row[j], y[j][c]))
            out.append(poly_divexact(acc, row[i]))
        y[i] = out
    if sign < 0:
        return poly_neg(d), tuple(tuple(poly_neg(p) for p in r) for r in y)
    return d, tuple(tuple(r) for r in y)


# ---------------------------------------------------------------------------
# deterministic random sampling helpers
# ---------------------------------------------------------------------------

def random_fraction(rng, max_num=6, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_vector(rng, dim, max_num=6, max_den=4):
    return tuple(random_fraction(rng, max_num, max_den) for _ in range(dim))
