"""Rescaling families, the rescaled bracket, and contraction limits.

A ContractionFamily is a matrix polynomial in the formal parameter.  Applying
its pointwise inverse is done exactly over the field of rational functions.
Each family computes its determinant and adjugate once, by fraction-free
elimination, and caches both; every later solve is one polynomial
matrix-vector product (adjugate times right-hand side) over the determinant.
The back substitution that builds the adjugate divides exactly, and an
inexact division raises InternalInvariantViolation, so the cached adjugate
checks itself.  The valuation at 0 of each component is read off exactly; a
negative valuation certifies that the limit does not exist and surfaces as
PoleError.  A determinant that is the zero polynomial raises SingularFamily.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, SubalgebraSplit
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    PoleError,
    SingularFamily,
)
from . import linalg
from .jets import Jet, MatrixJet, bracket_poly
from .linalg import ZERO, as_matrix

MAX_FAMILY_DEGREE = 8


@dataclass(frozen=True)
class ContractionFamily:
    """Sum of matrix coefficients phis[j] times the j-th parameter power."""

    algebra: LieAlgebra
    phis: tuple

    def __post_init__(self):
        phis = tuple(as_matrix(m) for m in self.phis)
        if not phis:
            raise DimensionMismatch("family needs at least one matrix coefficient")
        n = self.algebra.dim
        for m in phis:
            if len(m) != n or any(len(row) != n for row in m):
                raise DimensionMismatch("family matrices must be square of the algebra dimension")
        if len(phis) - 1 > MAX_FAMILY_DEGREE:
            raise DimensionMismatch(f"family degree capped at {MAX_FAMILY_DEGREE}")
        object.__setattr__(self, "phis", phis)

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def degree(self):
        return len(self.phis) - 1

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, (linalg.identity(algebra.dim),))

    def matrix_at(self, point):
        acc = linalg.zero_matrix(self.dim)
        for m in reversed(self.phis):
            acc = linalg.mat_add(linalg.mat_scale(point, acc), m)
        return acc

    def apply(self, p):
        """Pointwise application to a jet: polynomial product, truncated."""
        return MatrixJet(self.dim, p.trunc, self.phis).apply(p)

    def entry_polys(self):
        n = self.dim
        return [
            [linalg.poly_trim(tuple(m[i][j] for m in self.phis)) for j in range(n)]
            for i in range(n)
        ]

    @property
    def det_poly(self):
        cached = self.__dict__.get("_det_poly")
        if cached is None:
            cached = linalg.poly_det(self.entry_polys())
            object.__setattr__(self, "_det_poly", cached)
        return cached

    @property
    def adjugate(self):
        """Adjugate of the family matrix, computed once; needs det_poly != 0."""
        cached = self.__dict__.get("_adjugate")
        if cached is None:
            _, cached = linalg.poly_adjugate(self.entry_polys())
            object.__setattr__(self, "_adjugate", cached)
        return cached


def iw_family(split: SubalgebraSplit) -> ContractionFamily:
    """Family fixing the subalgebra and rescaling the complement linearly."""
    return ContractionFamily(split.algebra, (split.proj_h, split.proj_n))


def invert_family_apply(fam: ContractionFamily, r: Jet, order: int) -> Jet:
    """Solve family * w = r over rational functions; return the jet of w.

    The stored coefficients of r are taken as the exact polynomial.  If any
    component of w has a pole at 0, raises PoleError carrying the most
    negative valuation; if the family determinant vanishes identically,
    raises SingularFamily.
    """
    if fam.dim != r.dim:
        raise DimensionMismatch("jet dimension differs from family dimension")
    if order >= r.trunc:
        raise DimensionMismatch("requested order must stay below the jet truncation")
    den = fam.det_poly
    if not den:
        raise SingularFamily("family determinant is the zero polynomial")
    rhs = r.component_polys()
    den_val = linalg.poly_valuation(den)
    numerators = []
    worst = None  # (valuation, component)
    for i, adj_row in enumerate(fam.adjugate):
        num = ()
        for a, b in zip(adj_row, rhs):
            if a and b:
                num = linalg.poly_add(num, linalg.poly_mul(a, b))
        numerators.append(num)
        if num:
            val = linalg.poly_valuation(num) - den_val
            if val < 0 and (worst is None or val < worst[0]):
                worst = (val, i)
    if worst is not None:
        val, comp = worst
        raise PoleError(
            f"component {fam.algebra.basis_names[comp]} has valuation {val} at 0",
            valuation=val, component=comp)
    series = [
        linalg.poly_series_div(num, den, order) if num else (ZERO,) * (order + 1)
        for num in numerators
    ]
    coeffs = tuple(tuple(series[i][m] for i in range(fam.dim)) for m in range(order + 1))
    return Jet(fam.dim, order + 1, coeffs)


def eps_bracket(fam: ContractionFamily, x, y, order: int = 1) -> Jet:
    """Jet of the rescaled bracket of two algebra vectors."""
    if order < 1:
        raise DimensionMismatch("order must be at least 1")
    trunc = max(2 * fam.degree, order) + 1
    jx = Jet.constant(fam.algebra.vector(x), trunc)
    jy = Jet.constant(fam.algebra.vector(y), trunc)
    r = bracket_poly(fam.algebra, fam.apply(jx), fam.apply(jy))
    return invert_family_apply(fam, r, order)


def contract(fam: ContractionFamily) -> LieAlgebra:
    """Limit algebra of the rescaled bracket at parameter 0.

    Raises PoleError (annotated with the basis pair) if any pair is singular;
    the output is validated exactly and a failure there is a bug.
    """
    alg = fam.algebra
    n = alg.dim
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            try:
                limit = eps_bracket(fam, alg.basis_vector(a), alg.basis_vector(b), order=1)
            except PoleError as err:
                raise PoleError(
                    f"bracket of {alg.basis_names[a]}, {alg.basis_names[b]}: {err}",
                    valuation=err.valuation, component=err.component,
                    pair=(a, b)) from None
            c0 = limit.coeff(0)
            f[a][b] = list(c0)
            f[b][a] = [-v for v in c0]
    tensor = tuple(tuple(tuple(row) for row in plane) for plane in f)
    out = LieAlgebra(n, alg.basis_names, tensor)
    report = out.validate()
    if not report.ok:
        raise InternalInvariantViolation(
            "contraction limit failed validation: " + report.summary())
    return out


def iw_contract_closed_form(split: SubalgebraSplit) -> LieAlgebra:
    """Contraction along a subalgebra split without parameter machinery.

    The limit bracket of X and Y is the bracket of their subalgebra parts
    plus the complement projection of the cross terms.
    """
    alg = split.algebra
    n = alg.dim
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    hs = [split.project_h(alg.basis_vector(a)) for a in range(n)]
    ns = [split.project_n(alg.basis_vector(a)) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            cross = linalg.vec_add(alg.bracket(hs[a], ns[b]), alg.bracket(ns[a], hs[b]))
            limit = linalg.vec_add(alg.bracket(hs[a], hs[b]), split.project_n(cross))
            f[a][b] = list(limit)
            f[b][a] = [-v for v in limit]
    tensor = tuple(tuple(tuple(row) for row in plane) for plane in f)
    return LieAlgebra(n, alg.basis_names, tensor)


def transport_map(split_a: SubalgebraSplit, split_b: SubalgebraSplit):
    """Exact base-change matrix between contractions along two complements.

    For splits sharing the same subalgebra, x -> x + P_h(a) x - P_h(b) x is a
    bracket isomorphism from the contraction along split_a's complement to
    the one along split_b's complement.
    """
    return linalg.mat_add(split_a.proj_h, split_b.proj_n)
