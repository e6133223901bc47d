"""Independent oracle: truncated matrix exponentials and logarithms.

A Representation carries one matrix per basis vector.  Because every input
curve vanishes at 0, each matrix factor raises the parameter degree, so the
exponential and logarithm series terminate at the truncation order and both
maps are exact finite sums.  Decomposing the logarithm of a product back into
the representation basis yields a second, bracket-free route to the local
multiplication, used to cross-check the BCH evaluation.

The route runs on integers.  A representation scales its basis matrices to
integer matrices over one denominator once; the exponential and the
logarithm sum their integer matrix powers over one common denominator and
return matrix jets that build their Fraction coefficients only when read;
the product of the two exponentials convolves integer matrices; and
``decompose`` solves on a square block of the basis matrices, inverted once
per representation, and checks the whole residual.  The oracle is exact: a
float input is a TypeError, from ``linalg.exact_numerators``, the check that
matrix jets and expansion elements share, or from ``linalg.exact`` on a jet.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import factorial, lcm

from .algebra import MAX_DIM, LieAlgebra, ValidationReport
from .errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    DimensionMismatch,
    NonzeroConstantTerm,
)
from . import linalg
from .jets import Jet, MatrixJet, matmul_numerators
from .linalg import as_matrix

_ORACLE = "the matrix oracle"


def _power_sum(base, weights, trunc, size):
    """sum_k weights[k] base^k, k = 0, 1, ..., as ``trunc`` integer matrices.

    ``base`` is an integer matrix sequence with a zero constant term, so
    base^k vanishes below degree k; the sum stops at the first power that
    vanishes altogether.
    """
    zero = ((0,) * size,) * size
    acc = [zero] * trunc
    acc[0] = tuple(tuple(weights[0] if i == j else 0 for j in range(size)) for i in range(size))
    power = base
    for k in range(1, len(weights)):
        if k > 1:
            power = matmul_numerators(power, base, trunc, size)
        nonzero = [m for m, c in enumerate(power) if any(map(any, c))]
        if not nonzero:
            break
        w = weights[k]
        for m in nonzero:
            acc[m] = tuple(tuple(x + w * y for x, y in zip(r, s))
                           for r, s in zip(acc[m], power[m]))
    return acc


@dataclass(frozen=True)
class Representation:
    """Faithful matrix model: one square matrix per basis vector, of size at most ``MAX_DIM``."""

    algebra: LieAlgebra
    mats: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.mats)
        if len(mats) != self.algebra.dim:
            raise DimensionMismatch("need one matrix per basis vector")
        size = len(mats[0])
        if size == 0:
            raise DimensionMismatch("representation matrices must not be empty")
        if size > MAX_DIM:
            raise DimensionMismatch(
                f"representation matrices must be at most {MAX_DIM} x {MAX_DIM}")
        for m in mats:
            if len(m) != size or any(len(row) != size for row in m):
                raise DimensionMismatch("representation matrices must share a square shape")
        object.__setattr__(self, "mats", mats)

    @property
    def size(self):
        return len(self.mats[0])

    @cached_property
    def _numerators(self):
        """The basis matrices as (integer matrices, e), one common denominator e."""
        return linalg.matrix_numerators(self.mats)

    def _integer_matrix(self, v):
        """sum_a v[a] M_a over the integer basis matrices M_a, for a numerator vector v."""
        terms = [(c, m) for c, m in zip(v, self._numerators[0]) if c]
        return tuple(tuple(sum(c * m[i][j] for c, m in terms) for j in range(self.size))
                     for i in range(self.size))

    def matrix_of(self, v):
        """Matrix of an algebra vector (linearity over the basis matrices)."""
        [v], den = linalg.exact_numerators([v], what=_ORACLE)
        den *= self._numerators[1]
        return tuple(linalg.from_numerators(row, den) for row in self._integer_matrix(v))

    @cached_property
    def _solver(self):
        """What ``decompose`` solves with, built once: (pivots, block, rows, inv, d).

        ``pivots`` are the first-come independent basis matrices, the
        columns that ``linalg.solve_in_basis`` solves for; ``block`` holds
        their integer matrices flattened, one row per matrix entry; ``rows``
        is a first-come set of entries on which they are independent, and
        inv / d the inverse of that square part of ``block``.
        """
        n = self.size ** 2
        flat = [tuple(x for row in m for x in row) for m in self._numerators[0]]
        pivots = linalg.pivot_columns(flat, n)
        block = [tuple(flat[j][i] for j in pivots) for i in range(n)]
        rows = linalg.pivot_columns(block, len(pivots))
        inv, d = linalg.invert_numerators([block[i] for i in rows], 1)
        return pivots, block, rows, inv, d

    def check(self) -> ValidationReport:
        """Exact homomorphism and linear-independence report.

        Each commutator is formed on the integer basis matrices and compared
        with the image of the bracket read off the algebra's integer table.
        """
        alg = self.algebra
        report = ValidationReport()
        mats, e = self._numerators
        den = alg._table[0]
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                ab, ba = linalg.mat_mul(mats[a], mats[b]), linalg.mat_mul(mats[b], mats[a])
                # [M_a, M_b] / e^2 against (sum_c f_abc M_c) / (D e)
                image = self._integer_matrix(alg._row_vector(a, b))
                report.checks += 1
                if any(den * (x - y) != e * z for r1, r2, r3 in zip(ab, ba, image)
                       for x, y, z in zip(r1, r2, r3)):
                    report.record(
                        "homomorphism", (alg.basis_names[a], alg.basis_names[b]),
                        "commutator differs from the bracket image")
        pivots = set(self._solver[0])
        for a in range(alg.dim):
            report.checks += 1
            if a not in pivots:
                report.record("independence", (alg.basis_names[a],),
                              "matrix depends linearly on the previous ones")
        return report

    @cached_property
    def _faithful_report(self):
        return self.check()

    def require_faithful(self):
        """Raise DecompositionFailed unless ``check`` passes; checked once per instance."""
        report = self._faithful_report
        if not report.ok:
            raise DecompositionFailed("representation rejected: " + report.summary())

    def decompose(self, matrix):
        """Exact coefficients of a matrix in the span of the basis matrices.

        The solution of ``linalg.solve_in_basis``: the independent basis
        matrices take the coefficients, the others 0.  They are solved on the
        cached square block, and the whole residual is checked.
        """
        flat = tuple(x for row in matrix for x in row)
        if len(flat) != self.size ** 2:
            raise DimensionMismatch("matrix shape differs from the representation size")
        [b], den = linalg.exact_numerators([flat], what=_ORACLE)
        pivots, block, rows, inv, d = self._solver
        rhs = [b[i] for i in rows]
        y = [sum(map(operator.mul, r, rhs)) for r in inv]
        if any(sum(map(operator.mul, r, y)) != d * x for r, x in zip(block, b)):
            raise DecompositionFailed("matrix lies outside the representation span")
        # M = block / e, so the coefficients of b / den are e y / (d den)
        e = self._numerators[1]
        out = [0] * self.algebra.dim
        for j, x in zip(pivots, y):
            out[j] = e * x
        return linalg.from_numerators(out, d * den)

    def exp_trunc(self, p: Jet, order: int) -> MatrixJet:
        """Truncated exponential of the represented jet; exact finite sum.

        With A = A' / d the represented jet on integers, the sum of the
        powers A^k / k! runs over the one denominator order! d^order.
        """
        rows, dp = linalg.exact(p.numerators, _ORACLE)
        if rows and any(rows[0]):
            raise NonzeroConstantTerm("exponential input must vanish at 0")
        if p.dim != self.algebra.dim:
            raise DimensionMismatch("jet dimension differs from algebra dimension")
        trunc = order + 1
        arg = [self._integer_matrix(v) for v in rows[:trunc]]
        d = dp * self._numerators[1]
        top = factorial(order)
        weights = [top // factorial(k) * d ** (order - k) for k in range(order + 1)]
        powers = _power_sum(arg, weights, trunc, self.size)
        return MatrixJet.from_numerators(self.size, trunc, powers, top * d ** order)

    def log_trunc(self, m: MatrixJet, order: int) -> MatrixJet:
        """Truncated logarithm of a matrix jet with identity constant term.

        With m = I + S' / e on integers, the sum of the powers (-1)^(k+1)
        S^k / k runs over the one denominator lcm(1..order) e^order.
        """
        rows, e = m.numerators
        if not rows or rows[0] != tuple(tuple(e if i == j else 0 for j in range(m.size))
                                        for i in range(m.size)):
            raise ConstantTermNotIdentity("logarithm input must start at the identity")
        trunc = order + 1
        zero = ((0,) * m.size,) * m.size
        shifted = [zero, *rows[1:trunc]]
        top = lcm(*range(1, order + 1))
        weights = [0] + [(-1) ** (k + 1) * (top // k) * e ** (order - k)
                         for k in range(1, order + 1)]
        powers = _power_sum(shifted, weights, trunc, m.size)
        return MatrixJet.from_numerators(m.size, trunc, powers, top * e ** order)

    def local_mult(self, p: Jet, q: Jet, order: int) -> Jet:
        """Oracle route: log of the product of exponentials, decomposed."""
        self.require_faithful()
        ep = self.exp_trunc(p, order)
        eq = self.exp_trunc(q, order)
        z = self.log_trunc(ep.matmul(eq), order)
        coeffs = tuple(self.decompose(z.coeff(m)) for m in range(order + 1))
        return Jet(self.algebra.dim, order + 1, coeffs)
