"""Exact linear algebra over the rationals, plus polynomial helpers.

Vectors are tuples of Fractions, matrices are tuples of row tuples.  ``rat``
rejects floats, so exact constructors never silently compute in floating
point, and caps the size of a string literal before parsing it; the
arithmetic helpers still accept float entries, which the numeric mode of the
group layer passes in on purpose, and ``scalar``, the reader of jets,
subgroup elements and group slots, lets a float through as it is.
``exact_numerators`` scales exact input to integer numerators in one checked
pass, int and Fraction entries as they are and any other through ``rat``, so
the rescaled bracket, expansion elements, matrix jets, rescaling families
and the oracle read a scalar as ``rat`` reads it; ``vectors_of`` turns a
numerators pair back into vectors, the views of the value types that keep
only their numerators, and ``lowest_terms`` reduces a pair that a product or
an inverse made.
Polynomials in the formal parameter are coefficient tuples (lowest degree
first) with trailing zeros trimmed; the empty tuple is zero.

Every elimination is one fraction-free Gauss-Jordan loop, ``_eliminate``,
parameterised by the ring's multiply, subtract, exact divide and one.
``pivot_columns``, ``solve_in_basis`` and ``invert`` run it over Z on the
integer numerators of their input (see ``numerators``) and divide each
output entry once (``pivots_and_inverse``, behind ``invert_numerators``,
also inverts the pivot columns, handing the integer inverse over before that
division); float input runs it with unit pivots; ``poly_det`` and
``poly_adjugate`` run it over Z[eps].
``mat_vec`` and the polynomial helpers stay integral on integer input too,
and ``poly_divexact`` checks the remainder.  On Fraction input the results
stay Fractions, with every zero a Fraction zero.

Exact values meet floats rounded once: ``rounded`` turns integer numerators
over a denominator into floats, n / den rounded as float(Fraction) rounds
it, and callers that meet floats again and again (``floats_if_mixed``, the
split projectors, the group's structure constants) keep the rounded copy.
``mat_vec`` sums float products in floats from 0.0, left to right, which
gives the bits of a sum from the Fraction zero; where no product reaches an
entry, it is a Fraction zero, in the numeric mode too.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import DimensionMismatch, InternalInvariantViolation

ZERO = Fraction(0)
ONE = Fraction(1)
_INT = {int}
_EXACT = {int, Fraction}

# caps on a string literal, because parsing "1e10000000" alone takes seconds
MAX_LITERAL_LENGTH = 1000
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def rat(value):
    """Coerce ints, strings and Fractions to Fraction; floats are rejected.

    A string longer than ``MAX_LITERAL_LENGTH`` characters, or with a decimal
    exponent above ``MAX_EXPONENT`` in absolute value, is a ValueError, raised
    before it is parsed.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_LITERAL_LENGTH:
            raise ValueError(f"rational literal of {len(value)} characters "
                             f"is longer than {MAX_LITERAL_LENGTH}")
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent outside -{MAX_EXPONENT}..{MAX_EXPONENT}")
        return Fraction(text)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def scalar(value):
    """An entry of a jet, a subgroup element or a group slot: a float as it
    is, for the numeric mode, and any other value through ``rat``."""
    return value if isinstance(value, float) else rat(value)


def as_vector(values):
    return tuple(rat(v) for v in values)


def zero_vector(n):
    return (ZERO,) * n


def basis_vector(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity(n):
    return tuple(basis_vector(n, i) for i in range(n))


def zero_matrix(n):
    return tuple((ZERO,) * n for _ in range(n))


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
    """The product m v, summed over the support of v only.

    An integer vector (numerators) times a matrix whose columns on the
    support of v hold integers sums from int 0 and stays integral: the
    choice reads every entry of v and the type of every product (all of m
    when the support is empty).  When every product is a float (each
    entry of the support of v is a float, or each entry of m is), each
    exact factor is rounded once and every row is summed left to right from
    0.0: the bits that a sum from ZERO gives, as ZERO + p is 0.0 + p.  Any
    other product sums from ZERO, so exact input stays exact and mixed input
    meets floats as Fractions do.  An empty support gives int zeros on
    integer input and Fraction zeros (ZERO) otherwise, float input included.
    """
    if m and len(m[0]) != len(v):
        raise DimensionMismatch("matrix and vector shapes differ")
    support = [(j, b) for j, b in enumerate(v) if b]
    if m and v and type(v[0]) is int and {*map(type, v)} == _INT:
        if support:
            out = tuple(sum((row[j] * b for j, b in support), 0) for row in m)
            if {*map(type, out)} == _INT:  # every product read was int * int
                return out
        elif {type(x) for row in m for x in row} == _INT:
            return (0,) * len(m)
    if not support:
        return (ZERO,) * len(m)
    if (all(type(b) is float for _, b in support)
            or all(type(x) is float for row in m for x in row)):
        support = [(j, b if type(b) is float else float(b)) for j, b in support]
        out = []
        for row in m:  # a loop, not sum(), which compensates float sums from Python 3.12 on
            acc = 0.0
            for j, b in support:
                acc += row[j] * b
            out.append(acc)
        return tuple(out)
    return tuple(sum((row[j] * b for j, b in support), ZERO) for row in m)


def column_product(cols, x, out=None):
    """The square matrix with sparse columns cols applied to the integer vector x.

    Column j holds its nonzero entries as (row, entry) pairs; the product
    visits the support of x only, and is added into the list ``out`` (zeros
    if none is given), which is returned.
    """
    out = [0] * len(cols) if out is None else out
    for j, c in enumerate(x):
        if c:
            for i, a in cols[j]:
                out[i] += a * c
    return out


def mat_mul(a, b):
    """Matrix product; each row of the result sums over the support of a's row only."""
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix shapes differ")
    bt = tuple(zip(*b)) if b else ()
    return tuple(mat_vec(bt, row) for row in a)


def numerators(vectors):
    """Integer numerators of a sequence of vectors over one common denominator.

    Returns (rows, den), rows a tuple of integer tuples, with
    vectors[i][j] == rows[i][j] / den and den the least common denominator.
    A sequence holding a float comes back as it is over the float 1.0, so the
    numeric mode runs through the same integer loops in floating point; the
    float denominator marks it for ``floats_if_mixed``.
    """
    try:
        den = lcm(*{x.denominator for v in vectors for x in v})
    except AttributeError:
        return tuple(vectors), 1.0
    return tuple([tuple([x.numerator * (den // x.denominator) for x in v])
                  for v in vectors]), den


def exact_numerators(vectors, dim=None, what=None):
    """``numerators`` of exact vectors, every entry checked on the way.

    int and Fraction entries are read as they are.  When any other entry is
    there, the vectors are read through ``rat`` in turn, which reads a
    string and refuses a bool or a float; a float is refused with
    ``exact``'s message instead when ``what`` names the caller.  With
    ``dim`` given, a vector of another length is a DimensionMismatch, raised
    after its entries are read.  Integer vectors come back as they are, over 1.
    """
    vectors = [tuple(v) for v in vectors]
    types = {type(x) for v in vectors for x in v}
    read = not types <= _EXACT
    if read and what is not None and float in types:
        raise _inexact(what)
    for i, v in enumerate(vectors):
        if read:
            vectors[i] = v = tuple([rat(x) for x in v])
        if dim is not None and len(v) != dim:
            raise DimensionMismatch("coefficient count differs from dimension")
    if types <= _INT:
        return tuple(vectors), 1
    return numerators(vectors)


def matrix_numerators(mats, what=None):
    """``exact_numerators`` of a sequence of matrices: (the integer matrices, den).

    One common denominator serves every entry of every matrix; a float entry
    is refused, with ``what`` naming the caller as ``exact_numerators`` says.
    """
    rows, den = exact_numerators([row for m in mats for row in m], what=what)
    rows = iter(rows)
    return tuple(tuple(next(rows) for _ in m) for m in mats), den


def lowest_terms(rows, den):
    """The pair rows / den, integer rows over den != 0, in lowest terms with den > 0.

    Both are divided by the gcd of den and every entry, taken with the sign
    of den.
    """
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        return tuple([tuple([x // g for x in row]) for row in rows]), den // g
    return tuple(map(tuple, rows)), den


def exact(pair, what):
    """A ``numerators`` pair (rows, den) as it is; a TypeError if it holds a float (den 1.0).

    The matrix oracle and the family solve check a jet's numerators with it;
    ``what`` names the refusing side, and ``exact_numerators`` refuses a
    float with the same message.
    """
    if type(pair[1]) is float:
        raise _inexact(what)
    return pair


def _inexact(what):
    return TypeError(f"{what} takes exact (int or Fraction) input")


def rounded(rows, den, zero=0):
    """The rows rows / den rounded to floats, entry by entry.

    Each nonzero entry is n / den, rounded once, as float(Fraction) rounds
    it; a zero becomes ``zero``, the int 0 or 0.0, either of which meets a
    float as ZERO does.
    """
    return tuple(tuple(x / den if x else zero for x in row) for row in rows)


def floats_if_mixed(pairs):
    """``numerators`` pairs (rows, den) made ready to meet in one product or sum.

    Every pair comes back over an int denominator.  When some of the pairs
    hold a float (den 1.0) and the others are exact, each exact pair is
    ``rounded`` to floats over 1: the arithmetic then runs in floats, as a
    loop on Fractions runs it, and a large exact numerator never meets a
    float.
    """
    floats = [type(den) is float for _, den in pairs]
    if True not in floats:
        return pairs
    return [(rows, 1) if f else (rounded(rows, den), 1)
            for (rows, den), f in zip(pairs, floats)]


def from_numerators(v, den):
    """The vector v / den: Fractions for integer entries, plain division for floats."""
    return tuple((Fraction(n, den) if n else ZERO) if type(n) is int else n / den for n in v)


def vectors_of(pair):
    """The vectors whose ``numerators`` are ``pair``: the rows over den, or,
    over the float 1.0, the rows as they are."""
    rows, den = pair
    if type(den) is float:
        return tuple(rows)
    return tuple(from_numerators(v, den) for v in rows)


def matrices_of(pair):
    """The matrices whose numerators are ``pair``: (mats, den), one denominator for all."""
    return tuple(vectors_of((m, pair[1])) for m in pair[0])


def with_state(cls, **state):
    """An object of ``cls`` whose ``__dict__`` is ``state``, made without a constructor."""
    obj = cls.__new__(cls)
    obj.__dict__.update(state)
    return obj


def deferred(obj, name, fields, source, build):
    """``__getattr__`` for the fields of an object that are built on their first read.

    Such an object holds ``source`` in its ``__dict__`` in place of
    ``fields``.  The first read of any of them stores ``build(source value)``,
    the values of all ``fields`` in order, so it runs once.  Any other name,
    and any object without ``source``, is an AttributeError, as ``copy`` and
    ``pickle`` expect when they probe for ``__setstate__``.
    """
    state = obj.__dict__
    if name not in fields or source not in state:
        raise AttributeError(name)
    state.update(zip(fields, build(state[source])))
    return state[name]


def mat_add(a, b):
    return tuple(vec_add(ra, rb) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def mat_scale(c, m):
    return tuple(vec_scale(c, row) for row in m)


def _divexact(a, b):
    """The quotient a / b of two ints; InternalInvariantViolation unless it is exact."""
    q, r = divmod(a, b)
    if r:
        raise InternalInvariantViolation("inexact integer division")
    return q


def _eliminate(rows, ncols, mul, sub, div, one, unit=False):
    """Fraction-free Gauss-Jordan elimination of columns 0..ncols-1 of ``rows``, in place.

    ``rows`` holds equally long row lists over the ring of ``mul``, ``sub``,
    the exact ``div`` and ``one``; the columns past ncols are carried along.
    The pivot p of column c is its first nonzero entry at or below row r.
    With prev the previous pivot (one at first), every other row becomes
    (p row_i - f row_r) / prev past column c, f its entry in column c; no
    later step reads column c or an earlier one, so those are left as they
    stand.  A row with f = 0 would come back unchanged when p == prev, and is
    skipped.  Each division is exact (Bareiss 1968), and ``div`` checks it.
    ``unit`` (the float mode) divides the pivot row by p first, so that
    p = prev = one and each update is row_i - f row_r, bit for bit.

    Returns (pivots, d, sign): row i leads in column pivots[i], the rows past
    len(pivots) vanish on the first ncols columns, and every row's carried
    columns are d times the reduced ones, d the last pivot.  d is the leading
    minor of the row-permuted matrix on the pivot columns, and sign that of
    the permutation: a square block of full rank has determinant sign * d.
    """
    pivots = []
    prev = one
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        row_r = rows[r]
        p = row_r[c]
        if unit:
            row_r[c:] = [div(x, p) for x in row_r[c:]]
            p = one
        tail = row_r[c + 1:]
        for i, row_i in enumerate(rows):
            f = row_i[c]
            if i == r or (not f and p == prev):
                continue
            # where b = 0 the update is p a; the float mode still computes a - f b
            # there, since its signed zeros and its exact entries depend on it
            new = [sub(mul(p, a), mul(f, b)) if b or unit else mul(p, a)
                   for a, b in zip(row_i[c + 1:], tail)]
            row_i[c + 1:] = new if prev == one else [div(x, prev) if x else x for x in new]
        pivots.append(c)
        prev = p
    return pivots, prev, sign


def _eliminate_numerators(rows, ncols, den):
    """(pivots, d) of ``_eliminate`` over Z on ``numerators`` rows, or in the float mode (den 1.0)."""
    unit = type(den) is float
    div = operator.truediv if unit else _divexact
    return _eliminate(rows, ncols, operator.mul, operator.sub, div, 1, unit)[:2]


def pivot_columns(vectors, dim):
    """Indices of the first-come linearly independent subset of ``vectors``.

    Index j is returned exactly when vectors[j] is not in the span of
    vectors[0..j-1].
    """
    if any(len(v) != dim for v in vectors):
        raise DimensionMismatch("vector length differs from ambient dimension")
    rows, den = numerators(vectors)
    return _eliminate_numerators([[v[i] for v in rows] for i in range(dim)], len(rows), den)[0]


def pivots_and_inverse(cols, den, dim):
    """(``pivot_columns`` of cols, (inv, d)), cols ``numerators`` over den, in one elimination.

    Eliminates [cols | den I] (the float mode, den 1.0, pairs cols with the
    exact identity).  A column without a pivot makes no row operation, so
    if the pivot columns are dim, the right half ends as d times their inverse."""
    one, zero = (ONE, ZERO) if type(den) is float else (den, 0)
    aug = [[v[i] for v in cols] + [one if i == j else zero for j in range(dim)] for i in range(dim)]
    pivots, d = _eliminate_numerators(aug, len(cols), den)
    return pivots, ([row[len(cols):] for row in aug], d)


def invert_numerators(rows, den):
    """(inv, d) with m^-1 = inv / d, for (rows, den) = ``numerators(m)``; ValueError if singular."""
    pivots, inverse = pivots_and_inverse(tuple(zip(*rows)), den, len(rows))
    if len(pivots) < len(rows):
        raise ValueError("singular matrix")
    return inverse


def invert(m):
    """Exact inverse of a square rational matrix; ValueError if singular."""
    inv, d = invert_numerators(*numerators(m))
    return tuple(from_numerators(row, d) for row in inv)


def solve_in_basis(columns, rhss):
    """Solve sum_j x_j columns[j] = rhs exactly, for every rhs in ``rhss``.

    One elimination of [columns | rhss], on their numerators, serves all
    right-hand sides.  Returns a list with one coefficient tuple per
    right-hand side, or None where that system is inconsistent.  Intended
    for independent columns, where each solution is unique.
    """
    if not rhss:
        return []
    n = len(columns)
    rows, den = numerators(list(columns) + list(rhss))
    aug = [[v[i] for v in rows] for i in range(len(rows[0]))]
    pivots, d = _eliminate_numerators(aug, n, den)
    lead = dict(zip(pivots, aug))  # pivot column -> the row leading there
    rest = aug[len(pivots):]
    return [None if any(row[k] for row in rest)
            else from_numerators([lead[c][k] if c in lead else 0 for c in range(n)], d)
            for k in range(n, len(rows))]


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
    if p and q:  # the zero polynomial (), frequent in an elimination, needs no trim
        p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    zero = 0 if type(p[-1]) is int and type(q[-1]) is int else ZERO
    out = [zero] * (len(p) + len(q) - 1)
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
    """Exact quotient num / den in the polynomial ring; fails loudly otherwise.

    Over the integers (an int coefficient over an int leading coefficient)
    each quotient coefficient is a floor division; a step that does not
    divide leaves its remainder in place, so the one remainder check at the
    end rejects any quotient outside Z[eps] as well as any polynomial
    remainder, with InternalInvariantViolation.
    """
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
    integral = type(lead) is int
    q = [0 if integral and type(num[-1]) is int else ZERO] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = c // lead if integral and type(c) is int else c / lead
            q[i - dd] = f
            for j, dj in enumerate(den):
                num[i - dd + j] -= f * dj
    if any(c != 0 for c in num):
        raise InternalInvariantViolation("inexact polynomial division")
    return poly_trim(q)


def poly_det(rows):
    """Determinant of a square matrix of polynomials (fraction-free elimination)."""
    n = len(rows)
    work = [[poly_trim(p) for p in row] for row in rows]
    pivots, d, sign = _eliminate(work, n, poly_mul, poly_sub, poly_divexact, (1,))
    if len(pivots) < n:
        return ()
    return d if sign > 0 else poly_neg(d)


def poly_adjugate(rows):
    """Determinant and adjugate of a square polynomial matrix, in one elimination.

    Eliminates [rows | I], I made of the int 1 on integer polynomials (which
    stay integral) and of ONE otherwise.  The right half ends as d rows^-1 and
    det = sign * d, so adj is sign times the right half.  Returns (det, adj)
    with adj * rows == rows * adj == det * I; adj is None when det is zero.
    """
    n = len(rows)
    work = [[poly_trim(p) for p in row] for row in rows]
    one = (1,) if all(type(c) is int for row in work for p in row for c in p) else (ONE,)
    for i, row in enumerate(work):
        row.extend(one if j == i else () for j in range(n))
    pivots, d, sign = _eliminate(work, n, poly_mul, poly_sub, poly_divexact, one)
    if len(pivots) < n:
        return (), None
    if sign < 0:
        return poly_neg(d), tuple(tuple(poly_neg(p) for p in row[n:]) for row in work)
    return d, tuple(tuple(row[n:]) for row in work)


# ---------------------------------------------------------------------------
# deterministic random sampling helpers
# ---------------------------------------------------------------------------

def random_fraction(rng, max_num=6, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_vector(rng, dim, max_num=6, max_den=4):
    return tuple(random_fraction(rng, max_num, max_den) for _ in range(dim))
