"""Rescaling families, the rescaled bracket, and contraction limits.

A ContractionFamily is a matrix polynomial in the formal parameter.  Applying
its pointwise inverse is done exactly over the field of rational functions.
A family holds one state, however built: its coefficient matrices as integer
numerators over one reduced denominator D (``_numerators``), of which
``phis`` is a view, built on its first read.  The public constructor reads
exact matrices once (``as_matrix`` refuses floats); ``iw_family`` takes the
split's projector numerators as they are, checks on the integers that they
are complementary idempotents, and writes the determinant and adjugate of
the numerator family in closed form.  Any other family computes both once,
by the fraction-free Gauss-Jordan elimination of linalg over Z[eps] on the
n^2 entry polynomials, built for that elimination alone; it divides exactly
and checks every remainder, so the cached adjugate checks itself.

From them the family builds, once and on demand, the Taylor coefficients G_t
of eps^v times its inverse, eps^v the largest power of the parameter dividing
the determinant: the adjugate times a fraction-free reciprocal of the
determinant's cofactor, each G_t an integer matrix over one denominator, kept
in sparse columns.  A higher order extends the table; nothing is rebuilt.  A
solve applies the columns of each G_t over the support of the right-hand
side's integer numerators (``linalg.column_product``), a truncated
convolution handed back as integer numerators over one denominator in a
``Jet.from_numerators``.  A nonzero coefficient below eps^v certifies that
the limit does not exist and surfaces as PoleError; a zero determinant
raises SingularFamily.

The rescaled bracket scales its two arguments, vectors (the contraction) or
polynomials (the general expansion), to integer numerators in one checked
pass (``linalg.exact_numerators``: int and Fraction entries as they are, a
string through ``rat``), lifts them through the family's integer matrices,
kept as sparse columns, by the jets module's one truncated Cauchy product,
and brackets the lifts on numerators for the solve.  Lift and bracket stop at
the last coefficient the solve reads: with G_t0 the first nonzero term of the
table (t0 <= v, as a polynomial family has no inverse divisible by eps),
coefficient v + order - t0.  For an Inonu-Wigner limit that is eps^1, so
[N x, N y] is never formed.  ``contract`` passes integer unit vectors and
hands the integer rows of the limit, over the lcm of their denominators, to
``LieAlgebra._from_table``: no Fraction is made until ``structure`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm

from .algebra import LieAlgebra, SubalgebraSplit
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    PoleError,
    SingularFamily,
)
from . import linalg
from .jets import Jet, _cauchy, _vec_add, bracket_numerators
from .linalg import as_matrix

MAX_FAMILY_DEGREE = 8


@dataclass(frozen=True)
class ContractionFamily:
    """Sum of matrix coefficients phis[j] times the j-th parameter power."""

    algebra: LieAlgebra
    phis: tuple = field(compare=False)  # a view of ``_numerators``, built on its first read
    _numerators: tuple = field(init=False, repr=False)

    def __post_init__(self):
        phis = tuple(as_matrix(m) for m in self.__dict__.pop("phis"))
        if not phis:
            raise DimensionMismatch("family needs at least one matrix coefficient")
        n = self.algebra.dim
        for m in phis:
            if len(m) != n or any(len(row) != n for row in m):
                raise DimensionMismatch("family matrices must be square of the algebra dimension")
        if len(phis) - 1 > MAX_FAMILY_DEGREE:
            raise DimensionMismatch(f"family degree capped at {MAX_FAMILY_DEGREE}")
        self.__dict__["_numerators"] = linalg.matrix_numerators(phis)

    def __getattr__(self, name):
        """Build ``phis``, which neither constructor keeps, once, on its first read."""
        return linalg.deferred(self, name, ("phis",), "_numerators",
                               lambda pair: (linalg.matrices_of(pair),))

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def degree(self):
        return len(self._numerators[0]) - 1

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, (linalg.identity(algebra.dim),))

    @cached_property
    def _entries(self):
        """entries[i][j], D times entry (i, j) of the family, an integer
        polynomial: what an elimination reads."""
        n, mats = self.dim, self._numerators[0]
        return [[linalg.poly_trim(tuple(m[i][j] for m in mats)) for j in range(n)]
                for i in range(n)]

    @cached_property
    def _columns(self):
        """The integer coefficient matrices as sparse columns, column j holding (i, x) per x != 0."""
        return [tuple(tuple((i, row[j]) for i, row in enumerate(m) if row[j])
                      for j in range(self.dim)) for m in self._numerators[0]]

    @cached_property
    def _det(self):
        """Determinant of the numerator family, an integer polynomial."""
        return linalg.poly_det(self._entries)

    @cached_property
    def _adjugate(self):
        """Adjugate of the numerator family, computed once; needs _det != 0."""
        return linalg.poly_adjugate(self._entries)[1]

    @cached_property
    def _inverse(self):
        """Taylor table of eps^v times the numerator family's inverse; needs _det != 0."""
        return _InverseSeries(self._det, self._adjugate)

    def _table(self, order):
        """(v, terms): the inverse table through G_(v+order); raises SingularFamily if det = 0."""
        if not self._det:
            raise SingularFamily("family determinant is the zero polynomial")
        v = self._inverse.valuation
        return v, self._inverse.extend(v + order + 1)


class _InverseSeries:
    """Taylor coefficients G_t of eps^v A^-1, for A a square integer polynomial matrix.

    With det A = eps^v dt(eps) and d0 = dt(0) != 0, eps^v A^-1 = adj(A) / dt.
    The reciprocal of dt is fraction-free: 1/dt = sum_m beta_m eps^m / d0**(m+1)
    with beta_0 = 1 and beta_m = -sum_{j>=1} dt_j beta_(m-j) d0**(j-1), so G_t
    is the integer matrix N_t = sum_s adj_s beta_(t-s) d0**s over d0**(t+1).
    ``terms`` holds each nonzero G_t as (t, cols, den), reduced by the gcd of
    its entries and den, with cols its sparse columns ((i, x), ...), as
    ``linalg.column_product`` reads them; ``extend`` grows it, so each
    coefficient is computed once.  G_t is zero below the lowest power of eps
    in adj(A) (dn - 1 for an Inonu-Wigner family), and ``extend`` forms no
    sum there.
    """

    def __init__(self, det, adj):
        self.valuation = linalg.poly_valuation(det)
        self._dt = det[self.valuation:]
        self._columns = [[(i, p) for i, p in enumerate(col) if p] for col in zip(*adj)]
        self._low = min((linalg.poly_valuation(p) for row in adj for p in row if any(p)), default=0)
        self._beta = []
        self._powers = [1]  # powers of d0
        self.terms = []

    def extend(self, count):
        """Grow the table to G_0 .. G_(count-1); returns ``terms``."""
        dt, beta, powers = self._dt, self._beta, self._powers
        while len(powers) <= count:
            powers.append(powers[-1] * dt[0])
        for t in range(len(beta), count):
            beta.append(-sum(dt[j] * beta[t - j] * powers[j - 1]
                             for j in range(1, min(t, len(dt) - 1) + 1)) if t else 1)
            if t < self._low:
                continue
            # (s, beta_(t-s) d0**s) for the nonzero beta only: one pair when dt is constant
            factors = [(t - k, b * powers[t - k]) for k, b in enumerate(beta) if b]
            cols = [[(i, x) for i, p in column
                     for x in [sum(p[s] * f for s, f in factors if s < len(p))] if x]
                    for column in self._columns]
            if any(cols):
                den = powers[t + 1]
                g = gcd(den, *(x for col in cols for _, x in col))
                self.terms.append((t, tuple(tuple((i, x // g) for i, x in col) for col in cols),
                                   den // g))
        return self.terms


def iw_family(split: SubalgebraSplit) -> ContractionFamily:
    """Family fixing the subalgebra and rescaling the complement linearly.

    Its determinant and adjugate come in closed form, checked exactly, when
    the split's projectors are complementary idempotents; otherwise the
    family eliminates as any other does.  The public constructor refuses a
    split that holds floats.
    """
    (h, nmat), den = split._numerators
    if type(den) is float:
        return ContractionFamily(split.algebra, (split.proj_h, split.proj_n))
    fam = linalg.with_state(ContractionFamily, algebra=split.algebra, _numerators=((h, nmat), den))
    closed = _iw_det_adjugate(h, nmat, den)
    if closed is not None:
        # fills the cached_properties, as their first reads would
        fam.__dict__["_det"], fam.__dict__["_adjugate"] = closed
    return fam


def _iw_det_adjugate(h, nmat, den):
    """(det, adj) of the numerator family h + eps nmat, or None if the check fails.

    h and nmat are the integer numerators of P_h and P_n over den.  When
    h + nmat = den I and h nmat = 0, P_h and P_n are complementary
    idempotents, dn = tr P_n is the rank of P_n, and the family's inverse is
    (P_h + P_n / eps) / den.  So det = den^n eps^dn and
    adj = den^(n-2) (eps^(dn-1) nmat + eps^dn h); for n < 2 the idempotents
    are 0 or 1 and den is 1.
    """
    n = len(h)
    scaled_identity = tuple(tuple(den if i == j else 0 for j in range(n)) for i in range(n))
    nrows = [tuple((j, y) for j, y in enumerate(row) if y) for row in nmat]  # sparse rows
    if (linalg.mat_add(h, nmat) != scaled_identity
            or any(any(linalg.column_product(nrows, row)) for row in h)):  # row i of h nmat
        return None
    dn = sum(nmat[i][i] for i in range(n)) // den
    s = den ** max(n - 2, 0)

    def entry(x, y):
        head = (0,) * (dn - 1) + (s * y,) if dn else ()
        return linalg.poly_trim(head + (s * x,))

    adj = tuple(tuple(entry(x, y) for x, y in zip(hrow, nrow)) for hrow, nrow in zip(h, nmat))
    return (0,) * dn + (den ** n,), adj


def invert_family_apply(fam: ContractionFamily, r: Jet, order: int) -> Jet:
    """Solve family * w = r over rational functions; return the jet of w.

    The stored coefficients of r are taken as the exact polynomial.  If any
    component of w has a pole at 0, raises PoleError carrying the most
    negative valuation and the first component reaching it; if the family
    determinant vanishes identically, raises SingularFamily.

    With D the family's denominator and R / r_den the numerators of r,
    eps^v w = D (G R) / r_den, so coefficient m of G R, a convolution of the
    family's Taylor table with R, is coefficient m - v of w.  It starts at m =
    t0, the first nonzero term of the table: below it every sum is empty.
    Each term adds its columns, times D common / den, into coefficient m,
    common the lcm of the denominators of the terms read.
    The coefficients come back over one common denominator in a
    ``Jet.from_numerators``, so no Fraction is made before a read.  The solve
    is exact-only: a jet r holding a float is a TypeError.
    """
    if fam.dim != r.dim:
        raise DimensionMismatch("jet dimension differs from family dimension")
    if order >= r.trunc:
        raise DimensionMismatch("requested order must stay below the jet truncation")
    rows, r_den = linalg.exact(r.numerators, "a family solve")
    v, terms = fam._table(order)
    scale = fam._numerators[1]
    common = lcm(*(den for t, _, den in terms if t <= v + order))
    coeffs = []  # D times the numerators of coefficient m - v, over common * r_den
    for m in range(terms[0][0], v + order + 1):
        acc = [0] * fam.dim
        for t, cols, den in terms:
            if t > m:
                break
            if m - t < len(rows):
                f = scale * (common // den)
                x = rows[m - t]
                linalg.column_product(cols, x if f == 1 else [f * c for c in x], acc)
        if m < v:
            comp = next((i for i, c in enumerate(acc) if c), None)
            if comp is not None:
                raise PoleError(
                    f"component {fam.algebra.basis_names[comp]} has valuation {m - v} at 0",
                    valuation=m - v, component=comp)
        else:
            coeffs.append(acc)
    return Jet.from_numerators(fam.dim, order + 1, coeffs, common * r_den)


def _rescaled_bracket(fam: ContractionFamily, xs, ys, order: int) -> Jet:
    """Jet of the family's inverse applied to the bracket of two lifted polynomials.

    xs and ys are the coefficient tuples of polynomials in the parameter;
    both are checked and scaled to integer numerators in one pass
    (``linalg.exact_numerators``) before the family's table is read.  Each
    is lifted column by column through the family's integer coefficient
    matrices, the two lifts are bracketed on numerators, and the result is
    solved back exactly, its numerators handed over as they are.  Lift and
    bracket are truncated after coefficient v + order - t0, the last one the
    solve reads, or after the bracket's degree if that comes first.
    """
    args = [linalg.exact_numerators(vs, fam.dim) for vs in (xs, ys)]
    v, terms = fam._table(order)
    trunc = min(max(2 * (len(xs) - 1 + fam.degree), order), v + order - terms[0][0]) + 1
    den = fam._numerators[1]
    # (rows, den): the coefficients of the family applied to xs and to ys
    lifts = [(_cauchy(fam._columns, rows, trunc, linalg.column_product, _vec_add, (0,) * fam.dim),
              den * v_den) for rows, v_den in args]
    r = Jet.from_numerators(fam.dim, trunc, *bracket_numerators(fam.algebra, *lifts, trunc))
    return invert_family_apply(fam, r, order)


def eps_bracket(fam: ContractionFamily, x, y, order: int = 1) -> Jet:
    """Jet of the rescaled bracket of two algebra vectors; order 0 is the limit alone."""
    if order < 0:
        raise DimensionMismatch("order must be nonnegative")
    return _rescaled_bracket(fam, (x,), (y,), order)


def contract(fam: ContractionFamily) -> LieAlgebra:
    """Limit algebra of the rescaled bracket at parameter 0.

    Raises PoleError (annotated with the basis pair) if any pair is singular;
    the output is validated exactly and a failure there is a bug.
    """
    alg = fam.algebra
    n = alg.dim
    basis = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    limits = []  # (a, b, the numerators of the limit of [X_a, X_b], their denominator)
    for a in range(n):
        for b in range(a + 1, n):
            try:
                limit = eps_bracket(fam, basis[a], basis[b], order=0)
            except PoleError as err:
                raise PoleError(
                    f"bracket of {alg.basis_names[a]}, {alg.basis_names[b]}: {err}",
                    valuation=err.valuation, component=err.component,
                    pair=(a, b)) from None
            rows, den = limit.numerators
            if rows:
                limits.append((a, b, rows[0], den))
    common = lcm(*(den for *_, den in limits))
    out = LieAlgebra._from_table(n, alg.basis_names, (common, tuple(
        (a, b, tuple((c, x * (common // den)) for c, x in enumerate(row) if x))
        for a, b, row, den in limits)))
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
    entries = []
    hs = [split.project_h(alg.basis_vector(a)) for a in range(n)]
    ns = [split.project_n(alg.basis_vector(a)) for a in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            cross = linalg.vec_add(alg.bracket(hs[a], ns[b]), alg.bracket(ns[a], hs[b]))
            limit = linalg.vec_add(alg.bracket(hs[a], hs[b]), split.project_n(cross))
            entries += [(a, b, c, v) for c, v in enumerate(limit) if v]
    return LieAlgebra.from_brackets(n, alg.basis_names, entries)


def transport_map(split_a: SubalgebraSplit, split_b: SubalgebraSplit):
    """Exact base-change matrix between contractions along two complements.

    For splits sharing the same subalgebra, x -> x + P_h(a) x - P_h(b) x is a
    bracket isomorphism from the contraction along split_a's complement to
    the one along split_b's complement.
    """
    return linalg.mat_add(split_a.proj_h, split_b.proj_n)
