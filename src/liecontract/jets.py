"""Truncated polynomials in a formal parameter, the stand-in for curve germs.

A Jet stores algebra-valued coefficients, index = power of the parameter,
discarded silently from degree ``trunc`` on; a MatrixJet does the same with
square matrix coefficients.  Truncation mismatches between operands are
errors, because the truncation order is part of the value.  Both are one
truncated series, ``_Series``, which writes the members they share once:
the ``coeffs`` view, ``zero``, ``degree``, ``coeff``, the compatibility
check, ``+``, ``-`` and ``scale``.  Each subclass names its shape field, its
coefficient operations (``linalg``'s ``vec_*`` or ``mat_*``) and its
shape-mismatch message as class attributes, and keeps its own constructors;
``Jet`` adds ``constant``, negation, ``shift``, ``truncated`` and
``eval_at``, and ``MatrixJet`` adds ``identity`` and ``matmul``.

One truncated Cauchy product, ``_cauchy``, serves vector jets (the bracket),
matrix jets (the matrix product of the oracle), the slot tuples of an
expansion and the contraction family's lift of a polynomial (integer
coefficient matrices acting on integer numerators): it works on plain
coefficient sequences, skips zero coefficients and stores a lone product of
a degree as it is, with no sum from zero.  The bracket
convolution, ``bracket_numerators``, runs it on integers: it takes each
coefficient sequence as integer numerators over one denominator, and the
algebra's integer bracket table does the products.

Both jet types hold one state, however built: ``numerators``, the
coefficients as integer rows (matrices) over one reduced denominator, which
``from_numerators`` checks, trims and reduces, and which the public
constructor reads its coefficients into once, keeping nothing else.  So
``coeffs`` is always a view, built from ``numerators`` on its first read,
and a jet that is only bracketed, multiplied or summed never makes a
Fraction.  ``bracket_poly`` on exact jets returns such a jet, so a chain of
brackets (the BCH word prefixes, the rescaled bracket) runs on integers
throughout, and ``truncated`` at a jet's own order returns the jet itself.
Vector jets also carry the group's numeric mode: ``Jet(...)`` reads each
entry as ``linalg.scalar`` does, a float as it is and any other through
``rat`` (a string is read, a bool refused), and a jet holding a float keeps
its entries as read over the float 1.0, which ``from_numerators`` keeps as
it is.  On such a jet ``bracket_poly`` runs the same convolution in floats
and divides each coefficient at once.  Matrix jets serve the exact matrix
oracle only: ``MatrixJet(...)`` reads each entry as ``rat`` does, refusing a
bool or a float with a TypeError, and ``matmul`` convolves the integer
matrices (``matmul_numerators``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from math import gcd

from .errors import DimensionMismatch
from . import linalg
from .linalg import rat


def _vec_add(u, v):
    """u + v for two vectors of one length, which the vector convolutions guarantee."""
    return tuple(map(operator.add, u, v))


def _cauchy(p, q, trunc, mul, add, zero, nonzero):
    """The first ``trunc`` coefficients of the product of two coefficient sequences.

    Coefficient m sums ``mul(p[i], q[m - i])`` over increasing i, a lone
    product stored as it is; pairs with a factor that ``nonzero`` rejects are
    skipped, so a degree that no pair reaches holds ``zero`` itself.  Each
    caller knows the shape of its coefficients and passes the zero test that
    fits it: ``any`` for vectors, a test on every row for matrices.
    """
    out = [zero] * trunc
    q = [(j, b) for j, b in enumerate(q[:trunc]) if nonzero(b)]
    for i, a in enumerate(p[:trunc]):
        if not nonzero(a):
            continue
        for j, b in q:
            if i + j >= trunc:
                break
            c = mul(a, b)
            out[i + j] = c if out[i + j] is zero else add(out[i + j], c)
    return out


def bracket_numerators(alg, p, q, trunc):
    """The first ``trunc`` coefficients of the bracket of two vector coefficient sequences.

    ``p`` and ``q`` come as ``linalg.numerators`` pairs (rows, den); when
    one of them holds a float, both run in floats (``linalg.floats_if_mixed``).
    Returns the bracket as such a pair, not reduced.
    """
    (p, dp), (q, dq) = linalg.floats_if_mixed([p, q])
    out = _cauchy(p, q, trunc, alg._numerator_bracket, _vec_add, (0,) * alg.dim, any)
    return out, dp * dq * alg._table[0]


def _trim(coeffs, is_zero):
    end = len(coeffs)
    while end and is_zero(coeffs[end - 1]):
        end -= 1
    return tuple(coeffs[:end])


class _Series:
    """What both jet types share: a truncated series of coefficients of one shape.

    A subclass is a frozen dataclass (shape field, ``trunc``, ``coeffs``) that
    keeps ``numerators`` and names, as class attributes, its shape field
    (``_shape``), its coefficient operations (``_add``, ``_scale``, ``_zero``
    of the shape, ``_view`` of a numerators pair) and its shape-mismatch
    message (``_mismatch``).
    """

    def __getattr__(self, name):
        """Build ``coeffs``, which neither constructor keeps, once, on its first read."""
        return linalg.deferred(self, name, ("coeffs",), "numerators",
                               lambda pair: (self._view(pair),))

    @classmethod
    def zero(cls, shape, trunc):
        return cls(shape, trunc, ())

    @property
    def degree(self):
        """Largest stored nonzero degree, or -1 for the zero jet."""
        return len(self.numerators[0]) - 1

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero(getattr(self, self._shape))

    def _check_compatible(self, other):
        if getattr(self, self._shape) != getattr(other, self._shape):
            raise DimensionMismatch(self._mismatch)
        if self.trunc != other.trunc:
            raise DimensionMismatch("jet truncation orders differ")

    def __add__(self, other):
        self._check_compatible(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return type(self)(getattr(self, self._shape), self.trunc,
                          tuple(self._add(self.coeff(k), other.coeff(k)) for k in range(n)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = rat(c)
        return type(self)(getattr(self, self._shape), self.trunc,
                          tuple(self._scale(c, v) for v in self.coeffs))


@dataclass(frozen=True)
class Jet(_Series):
    """Vector-valued truncated polynomial; zero is the empty coefficient tuple."""

    dim: int
    trunc: int
    coeffs: tuple  # a view of ``numerators``, built on its first read

    _shape, _mismatch = "dim", "jet dimensions differ"
    _add, _scale = staticmethod(linalg.vec_add), staticmethod(linalg.vec_scale)
    _zero, _view = staticmethod(linalg.zero_vector), staticmethod(linalg.vectors_of)

    def __post_init__(self):
        # keep what ``from_numerators`` keeps, each entry read as ``linalg.scalar`` reads it
        rows = [tuple(map(linalg.scalar, c)) for c in self.__dict__.pop("coeffs")[: self.trunc]]
        self.__dict__.update(vars(self.from_numerators(self.dim, self.trunc,
                                                       *linalg.numerators(rows))))

    @classmethod
    def from_numerators(cls, dim, trunc, rows, den):
        """The jet with coefficients rows[k] / den, for integer rows and den > 0.

        The pair, reduced by the gcd of den and every entry, becomes the
        jet's ``numerators`` as it is; it equals ``linalg.numerators`` of the
        coefficients, so the coefficients are never scaled back.  The
        coefficients themselves are built on their first read (see
        ``__getattr__``), so a jet that is only bracketed or summed on its
        numerators never makes a Fraction.  A pair over the float 1.0, the
        ``linalg.numerators`` of vectors holding a float, is kept as it is:
        its rows are the coefficients, and its gcd is never taken.
        """
        if trunc < 1:
            raise DimensionMismatch("truncation order must be positive")
        kept, end, g = [], 0, den  # one pass: check, convert, find the trim point and the gcd
        for v in map(tuple, rows[:trunc]):
            if len(v) != dim:
                raise DimensionMismatch("coefficient length differs from jet dimension")
            kept.append(v)
            if any(v):
                end, g = len(kept), g if g == 1 else gcd(g, *v)
        rows = kept[:end]
        if g > 1:
            rows, den = [tuple([x // g for x in v]) for v in rows], den // g
        return linalg.with_state(cls, dim=dim, trunc=trunc, numerators=(tuple(rows), den))

    @classmethod
    def constant(cls, vector, trunc):
        return cls(len(vector), trunc, (tuple(vector),))

    def __neg__(self):
        return self.scale(-1)

    def shift(self, k):
        """Multiply by the k-th power of the parameter, truncating silently."""
        if k < 0:
            raise DimensionMismatch("shift must be by a nonnegative power")
        padded = (linalg.zero_vector(self.dim),) * k + self.coeffs
        return Jet(self.dim, self.trunc, padded)

    def truncated(self, trunc):
        """Same jet viewed at a different truncation order; at its own order, the jet itself."""
        if trunc == self.trunc:
            return self
        return Jet.from_numerators(self.dim, trunc, *self.numerators)

    def eval_at(self, point):
        """Horner evaluation using the stored coefficients only."""
        point = rat(point)
        acc = linalg.zero_vector(self.dim)
        for c in reversed(self.coeffs):
            acc = linalg.vec_add(linalg.vec_scale(point, acc), c)
        return acc


def bracket_poly(alg, p, q):
    """Coefficient-wise bracket of jets: the Cauchy convolution."""
    p._check_compatible(q)
    if alg.dim != p.dim:
        raise DimensionMismatch("jet dimension differs from algebra dimension")
    trunc, p, q = p.trunc, p.numerators, q.numerators
    out, den = bracket_numerators(alg, p, q, trunc)
    if type(p[1]) is float or type(q[1]) is float:  # the numeric mode: floats, divided now
        return Jet(alg.dim, trunc, [linalg.from_numerators(v, den) for v in out])
    return Jet.from_numerators(alg.dim, trunc, out, den)


def jet_in_filtration(split, p, k):
    """Whether the first k coefficients vanish and the k-th lies in the subalgebra."""
    if k >= p.trunc:
        raise DimensionMismatch("filtration level must stay below the truncation order")
    if any(not linalg.is_zero_vector(p.coeff(i)) for i in range(k)):
        return False
    return split.contains(p.coeff(k))


def _int_mat_mul(a, b):
    """The product of two integer matrices, dense."""
    bt = tuple(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in bt]) for row in a])


def _mat_add(a, b):
    """a + b for two matrices of one shape."""
    return tuple(map(_vec_add, a, b))


def matmul_numerators(p, q, trunc, size):
    """The first ``trunc`` coefficients of the product of two integer matrix sequences."""
    return _cauchy(p, q, trunc, _int_mat_mul, _mat_add, ((0,) * size,) * size,
                   lambda m: any(map(any, m)))


@dataclass(frozen=True)
class MatrixJet(_Series):
    """Square-matrix-valued truncated polynomial with exact coefficients."""

    size: int
    trunc: int
    coeffs: tuple  # a view of ``numerators``, built on its first read

    _shape, _mismatch = "size", "matrix jet sizes differ"
    _add, _scale = staticmethod(linalg.mat_add), staticmethod(linalg.mat_scale)
    _zero, _view = staticmethod(linalg.zero_matrix), staticmethod(linalg.matrices_of)

    def __post_init__(self):
        # keep what ``from_numerators`` keeps, after the check it skips: each entry exact
        pair = linalg.matrix_numerators(self.__dict__.pop("coeffs")[: self.trunc], "a matrix jet")
        self.__dict__.update(vars(self.from_numerators(self.size, self.trunc, *pair)))

    @classmethod
    def from_numerators(cls, size, trunc, mats, den):
        """The jet with coefficients mats[k] / den, for integer matrices and den > 0.

        As in ``Jet.from_numerators``, the pair reduced by the gcd of den and
        every entry becomes the jet's ``numerators``, and the Fraction
        coefficients are built on their first read (see ``__getattr__``);
        the order and the shapes below it are checked here, for both.
        """
        if trunc < 1:
            raise DimensionMismatch("truncation order must be positive")
        mats = [tuple(map(tuple, m)) for m in mats[:trunc]]
        if any(len(m) != size or any(len(row) != size for row in m) for m in mats):
            raise DimensionMismatch("matrix coefficient has wrong shape")
        mats = _trim(mats, lambda m: not any(map(any, m)))
        g = gcd(den, *chain.from_iterable(chain.from_iterable(mats)))
        if g > 1:
            mats = tuple([tuple([tuple([x // g for x in row]) for row in m]) for m in mats])
            den //= g
        return linalg.with_state(cls, size=size, trunc=trunc, numerators=(mats, den))

    @classmethod
    def identity(cls, size, trunc):
        return cls(size, trunc, (linalg.identity(size),))

    def matmul(self, other):
        """The truncated product: the integer numerators convolved, in a
        jet that keeps the product's numerators."""
        self._check_compatible(other)
        (p, dp), (q, dq) = self.numerators, other.numerators
        return MatrixJet.from_numerators(
            self.size, self.trunc, matmul_numerators(p, q, self.trunc, self.size), dp * dq)
