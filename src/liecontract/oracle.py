"""Independent oracle: truncated matrix exponentials and logarithms.

A Representation carries one matrix per basis vector.  Because every input
curve vanishes at 0, each matrix factor raises the parameter degree, so the
exponential and logarithm series terminate at the truncation order and both
maps are exact finite sums.  Decomposing the logarithm of a product back into
the representation basis yields a second, bracket-free route to the local
multiplication, used to cross-check the BCH evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import LieAlgebra, ValidationReport
from .errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    DimensionMismatch,
    NonzeroConstantTerm,
)
from . import linalg
from .jets import Jet, MatrixJet
from .linalg import as_matrix


@dataclass(frozen=True)
class Representation:
    """Faithful matrix model: one square matrix per basis vector."""

    algebra: LieAlgebra
    mats: tuple

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.mats)
        if len(mats) != self.algebra.dim:
            raise DimensionMismatch("need one matrix per basis vector")
        size = len(mats[0])
        if size == 0:
            raise DimensionMismatch("representation matrices must not be empty")
        for m in mats:
            if len(m) != size or any(len(row) != size for row in m):
                raise DimensionMismatch("representation matrices must share a square shape")
        object.__setattr__(self, "mats", mats)

    @property
    def size(self):
        return len(self.mats[0])

    def matrix_of(self, v):
        """Matrix of an algebra vector (linearity over the basis matrices)."""
        acc = linalg.zero_matrix(self.size)
        for c, m in zip(v, self.mats):
            if c:
                acc = linalg.mat_add(acc, linalg.mat_scale(c, m))
        return acc

    @cached_property
    def _columns(self):
        return [tuple(x for row in m for x in row) for m in self.mats]

    def check(self) -> ValidationReport:
        """Exact homomorphism and linear-independence report."""
        alg = self.algebra
        report = ValidationReport()
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                commutator = linalg.mat_sub(
                    linalg.mat_mul(self.mats[a], self.mats[b]),
                    linalg.mat_mul(self.mats[b], self.mats[a]))
                expected = self.matrix_of(alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))
                report.checks += 1
                if commutator != expected:
                    report.record(
                        "homomorphism", (alg.basis_names[a], alg.basis_names[b]),
                        "commutator differs from the bracket image")
        pivots = set(linalg.pivot_columns(self._columns, self.size ** 2))
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
        """Exact coefficients of a matrix in the span of the basis matrices."""
        flat = tuple(x for row in matrix for x in row)
        [sol] = linalg.solve_in_basis(self._columns, [flat])
        if sol is None:
            raise DecompositionFailed("matrix lies outside the representation span")
        return sol

    def exp_trunc(self, p: Jet, order: int) -> MatrixJet:
        """Truncated exponential of the represented jet; exact finite sum."""
        if not linalg.is_zero_vector(p.coeff(0)):
            raise NonzeroConstantTerm("exponential input must vanish at 0")
        if p.dim != self.algebra.dim:
            raise DimensionMismatch("jet dimension differs from algebra dimension")
        trunc = order + 1
        arg = MatrixJet(self.size, trunc,
                        tuple(self.matrix_of(p.coeff(m)) for m in range(min(p.trunc, trunc))))
        acc = MatrixJet.identity(self.size, trunc)
        power = MatrixJet.identity(self.size, trunc)
        fact = 1
        for m in range(1, order + 1):
            power = power.matmul(arg)
            if power.degree < 0:
                break
            fact *= m
            acc = acc + power.scale(Fraction(1, fact))
        return acc

    def log_trunc(self, m: MatrixJet, order: int) -> MatrixJet:
        """Truncated logarithm of a matrix jet with identity constant term."""
        if m.coeff(0) != linalg.identity(m.size):
            raise ConstantTermNotIdentity("logarithm input must start at the identity")
        trunc = order + 1
        shifted = MatrixJet(m.size, trunc, m.coeffs[:trunc]) - MatrixJet.identity(m.size, trunc)
        acc = MatrixJet.zero(m.size, trunc)
        power = MatrixJet.identity(m.size, trunc)
        for k in range(1, order + 1):
            power = power.matmul(shifted)
            if power.degree < 0:
                break
            acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
        return acc

    def local_mult(self, p: Jet, q: Jet, order: int) -> Jet:
        """Oracle route: log of the product of exponentials, decomposed."""
        self.require_faithful()
        ep = self.exp_trunc(p, order)
        eq = self.exp_trunc(q, order)
        z = self.log_trunc(ep.matmul(eq), order)
        coeffs = tuple(self.decompose(z.coeff(m)) for m in range(order + 1))
        return Jet(self.algebra.dim, order + 1, coeffs)

