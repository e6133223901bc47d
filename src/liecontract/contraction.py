"""Rescaling families, the rescaled bracket, and contraction limits.

A ContractionFamily is a matrix polynomial in the formal parameter.  Applying
its pointwise inverse is done exactly over the field of rational functions.
A family holds one state, however built: its coefficient matrices as integer
numerators over one reduced denominator D (``_numerators``), of which
``phis`` is a view, built on its first read.  The public constructor reads
its matrices once (``linalg.matrix_numerators``, which refuses a float with
a TypeError).

The inverse table holds the Taylor coefficients G_t of eps^v times the
family's inverse, eps^v the largest power of the parameter dividing the
determinant, each an integer matrix over one denominator in sparse columns.
``iw_family`` checks on the integers that the split's projector numerators
H and N over D are complementary idempotents and writes it in closed form:
P_h + eps P_n has the inverse P_h + P_n / eps, so G_(dn-1) = N / D^2 and
G_dn = H / D^2 are all, and the determinant is D^n eps^dn.  Any other
family eliminates once over Z[eps] (linalg's fraction-free loop on the n^2
entry polynomials, every remainder checked) for its determinant and
adjugate, and extends its table on demand: the adjugate times a
fraction-free reciprocal of the determinant's cofactor.  A solve reads the
family's plan for its order, made once: the terms it needs, their columns
scaled to one common denominator.  It applies them over the support of the
right-hand side's integer numerators (``linalg.column_product``) and hands
the truncated convolution back in a ``Jet.from_numerators``.  A nonzero
coefficient below eps^v certifies that the limit does not exist and
surfaces as PoleError; a zero determinant raises SingularFamily.

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

MAX_FAMILY_DEGREE = 8
_FAMILY = "a rescaling family"


@dataclass(frozen=True)
class ContractionFamily:
    """Sum of matrix coefficients phis[j] times the j-th parameter power."""

    algebra: LieAlgebra
    phis: tuple = field(compare=False)  # a view of ``_numerators``, built on its first read
    _numerators: tuple = field(init=False, repr=False)

    def __post_init__(self):
        phis = tuple(self.__dict__.pop("phis"))
        if not phis:
            raise DimensionMismatch("family needs at least one matrix coefficient")
        n = self.algebra.dim
        for m in phis:
            if len(m) != n or any(len(row) != n for row in m):
                raise DimensionMismatch("family matrices must be square of the algebra dimension")
        if len(phis) - 1 > MAX_FAMILY_DEGREE:
            raise DimensionMismatch(f"family degree capped at {MAX_FAMILY_DEGREE}")
        self.__dict__["_numerators"] = linalg.matrix_numerators(phis, _FAMILY)

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
        """(v, t0, terms, common), the solve plan through G_(v+order), made once per order:
        (t, G_t's columns times D common / den_t) for each term, t0 the first t and common
        the lcm of the den_t.  Raises SingularFamily if det = 0."""
        plans = self.__dict__.setdefault("_plans", {})
        if order not in plans:
            if not self._det:
                raise SingularFamily("family determinant is the zero polynomial")
            v = self._inverse.valuation
            terms = self._inverse.extend(v + order + 1)
            common = lcm(*(den for _, _, den in terms))
            scale = self._numerators[1] * common
            plans[order] = v, terms[0][0], [
                (t, [tuple((i, scale // den * x) for i, x in col) for col in cols])
                for t, cols, den in terms], common
        return plans[order]


class _InverseSeries:
    """Taylor coefficients G_t of eps^v A^-1, for A a square integer polynomial matrix.

    With det A = eps^v dt(eps) and d0 = dt(0) != 0, eps^v A^-1 = adj(A) / dt.
    The reciprocal of dt is fraction-free: 1/dt = sum_m beta_m eps^m / d0**(m+1)
    with beta_0 = 1 and beta_m = -sum_{j>=1} dt_j beta_(m-j) d0**(j-1), so G_t
    is the integer matrix N_t = sum_s adj_s beta_(t-s) d0**s over d0**(t+1).
    ``terms`` holds each nonzero G_t as (t, cols, den), reduced by the gcd of
    its entries and den (``_term``), with cols its sparse columns ((i, x),
    ...), as ``linalg.column_product`` reads them; ``extend`` grows it, so
    each coefficient is computed once.  G_t is zero below the lowest power of
    eps in adj(A), and ``extend`` forms no sum there.
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
        """Grow the table to G_0 .. G_(count-1); returns the terms with t < count."""
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
                self.terms.append(_term(t, cols, powers[t + 1]))
        return [term for term in self.terms if term[0] < count]


@dataclass(frozen=True)
class _ClosedSeries:
    """The ``_InverseSeries`` of a family whose eps^v A^-1 is a polynomial: every term known."""

    valuation: int
    terms: tuple

    def extend(self, count):
        return [term for term in self.terms if term[0] < count]


def _term(t, cols, den):
    """The table term G_t = cols / den, reduced by the gcd of den and its entries."""
    g = gcd(den, *(x for col in cols for _, x in col))
    return t, tuple(tuple((i, x // g) for i, x in col) for col in cols), den // g


def iw_family(split: SubalgebraSplit) -> ContractionFamily:
    """Family fixing the subalgebra and rescaling the complement linearly.

    Its determinant and inverse table come in closed form, checked exactly,
    when the split's projectors are complementary idempotents; otherwise the
    family eliminates as any other does.  A split that holds floats is
    refused with a TypeError (``linalg.exact``), as a family solve refuses a
    float right-hand side.
    """
    (h, nmat), den = linalg.exact(split._numerators, _FAMILY)
    fam = linalg.with_state(ContractionFamily, algebra=split.algebra, _numerators=((h, nmat), den))
    closed = _iw_inverse(h, nmat, den)
    if closed is not None:
        # fills the cached_properties, as their first reads would
        fam.__dict__["_det"], fam.__dict__["_inverse"] = closed
    return fam


def _iw_inverse(h, nmat, den):
    """(det, inverse table) of the numerator family h + eps nmat, or None if the check fails.

    h and nmat are the integer numerators of P_h and P_n over den.  When
    h + nmat = den I and h nmat = 0, P_h and P_n are complementary
    idempotents, dn = tr P_n is the rank of P_n, and h + eps nmat has the
    inverse (h + nmat / eps) / den^2: det = den^n eps^dn, and the nonzero
    ones of G_(dn-1) = nmat / den^2 and G_dn = h / den^2 are the whole table.
    """
    n = len(h)
    scaled_identity = tuple(tuple(den if i == j else 0 for j in range(n)) for i in range(n))
    nrows = [tuple((j, y) for j, y in enumerate(row) if y) for row in nmat]  # sparse rows
    if (linalg.mat_add(h, nmat) != scaled_identity
            or any(any(linalg.column_product(nrows, row)) for row in h)):  # row i of h nmat
        return None
    dn = sum(nmat[i][i] for i in range(n)) // den
    cols = [[tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*m)] for m in (nmat, h)]
    return (0,) * dn + (den ** n,), _ClosedSeries(dn, tuple(
        _term(t, c, den * den) for t, c in zip((dn - 1, dn), cols) if any(c)))


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
    Each term adds its columns, which the family's plan for this order keeps
    times D common / den (``ContractionFamily._table``), into coefficient m.
    The coefficients come back over one common denominator in a
    ``Jet.from_numerators``, so no Fraction is made before a read.  The solve
    is exact-only: a jet r holding a float is a TypeError.
    """
    if fam.dim != r.dim:
        raise DimensionMismatch("jet dimension differs from family dimension")
    if order >= r.trunc:
        raise DimensionMismatch("requested order must stay below the jet truncation")
    rows, r_den = linalg.exact(r.numerators, "a family solve")
    v, t0, terms, common = fam._table(order)
    coeffs = []  # D times the numerators of coefficient m - v, over common * r_den
    for m in range(t0, v + order + 1):
        acc = [0] * fam.dim
        for t, cols in terms:
            if t > m:
                break
            if m - t < len(rows):
                linalg.column_product(cols, rows[m - t], acc)
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
    v, t0, _, _ = fam._table(order)
    trunc = min(max(2 * (len(xs) - 1 + fam.degree), order), v + order - t0) + 1
    den = fam._numerators[1]
    # (rows, den): the coefficients of the family applied to xs and to ys
    lifts = [(_cauchy(fam._columns, rows, trunc, linalg.column_product, _vec_add,
                      (0,) * fam.dim, any), den * v_den) for rows, v_den in args]
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
