"""Finite-dimensional Lie algebras with exact rational structure constants.

A LieAlgebra holds the structure constants f[a][b][c] defined by
[X_a, X_b] = sum_c f[a][b][c] X_c.  Antisymmetry and the Jacobi identity are
not enforced at construction time: ``validate`` produces an exact report, so
deliberately broken tensors can be represented and diagnosed.

Brackets run on integers.  Each algebra caches one table: the nonzero rows
f[a][b] with a < b as integer numerators over one common denominator D.
``bracket`` scales its two arguments to integer numerators over one
denominator, runs the pair loop on ints and builds one Fraction per output
component; the jet convolution and the Jacobi sweep of ``validate`` read the
same table, the sweep walking only the nonzero nested products [[X_x, X_y],
X_z] rather than every triple, through the table's rows indexed by basis
vector (``_rows_by_index``), which the expansion's emit reads too.  An
algebra given a dense tensor derives the table from it; ``from_brackets``
fills the table straight from its sparse entries, together with the explicit
mirror entries that break antisymmetry, and builds the dense tensor
``structure`` only when something first reads it.  ``validate`` reads the
table and those entries, never the dense tensor.

A subalgebra split keeps each projector as integer numerators over one
denominator, and a copy rounded once to floats.  An exact vector is
projected in one integer product with one Fraction per entry; a float vector
(the numeric mode) meets the rounded copy, with the float bits that the
exact projector gives when it is rounded at each product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import DimensionMismatch, NotASubalgebra
from . import linalg
from .linalg import ZERO, as_vector, rat

MAX_DIM = 32


@dataclass
class Violation:
    kind: str
    location: tuple
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.location}: {self.detail}"


@dataclass
class ValidationReport:
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    def record(self, kind, location, detail):
        self.violations.append(Violation(kind, location, detail))

    def summary(self):
        if self.ok:
            return f"valid ({self.checks} checks)"
        lines = [f"{len(self.violations)} violation(s) in {self.checks} checks:"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _format_vector(names, v):
    parts = []
    for name, c in zip(names, v):
        if c == 0:
            continue
        parts.append(f"{c}*{name}" if c != 1 else name)
    return " + ".join(parts) if parts else "0"


def _check_size(dim, basis_names):
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be in 1..{MAX_DIM}")
    if len(basis_names) != dim:
        raise DimensionMismatch("basis name count differs from dimension")


def _dense(n, table, mirrors):
    """The tensor f[a][b][c] with upper triangle ``table``, completed antisymmetrically
    except at the ``mirrors`` (a, b, c, f[a][b][c], f[b][a][c])."""
    den, rows = table
    f = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a, b, row in rows:
        for c, x in row:
            f[a][b][c] = value = Fraction(x, den)
            f[b][a][c] = -value
    for a, b, c, x, y in mirrors:
        f[a][b][c], f[b][a][c] = x, y
    return tuple(tuple(tuple(row) for row in plane) for plane in f)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple
    structure: tuple  # structure[a][b][c], all Fractions; from_brackets builds it on first read

    def __post_init__(self):
        _check_size(self.dim, self.basis_names)
        if len(self.structure) != self.dim or any(
            len(plane) != self.dim or any(len(row) != self.dim for row in plane)
            for plane in self.structure
        ):
            raise DimensionMismatch("structure tensor has wrong shape")

    @classmethod
    def from_brackets(cls, dim, basis_names, entries):
        """Build from sparse entries (a, b, c, coeff), zero-based, a != b.

        The antisymmetric completion f[b][a][c] = -f[a][b][c] fills in pairs
        without an explicit mirror entry.  Explicit mirror entries are stored
        as given, so deliberately broken tensors remain representable and are
        caught by ``validate`` instead of being rejected here.

        The entries fill ``_table`` and ``_antisymmetry`` directly, with no
        pass over the dense tensor; ``structure`` is built on its first read
        (see ``__getattr__``), so an algebra that is only bracketed,
        validated or written out never builds it.
        """
        explicit = {}
        for a, b, c, coeff in entries:
            coeff = rat(coeff)
            if not (0 <= a < dim and 0 <= b < dim and 0 <= c < dim):
                raise DimensionMismatch(f"bracket entry ({a},{b},{c}) out of range")
            if a == b:
                raise DimensionMismatch(f"diagonal bracket entry ({a},{a},{c})")
            key = (a, b, c)
            if key in explicit and explicit[key] != coeff:
                raise DimensionMismatch(f"conflicting entries for {key}")
            explicit[key] = coeff
        _check_size(dim, basis_names)
        upper = {}  # (a, b), a < b: {c: f[a][b][c]} over the nonzero entries
        mirrors = []
        for (a, b, c), coeff in explicit.items():
            mirror = explicit.get((b, a, c))
            if a < b:
                if mirror is not None and coeff + mirror != 0:
                    mirrors.append((a, b, c, coeff, mirror))
            elif mirror is None:
                a, b, coeff = b, a, -coeff
            else:  # the upper entry of the pair is explicit too
                continue
            if coeff:
                upper.setdefault((a, b), {})[c] = coeff
        den = lcm(*(f.denominator for row in upper.values() for f in row.values()))
        table = tuple((a, b, tuple((c, row[c].numerator * (den // row[c].denominator))
                                   for c in sorted(row)))
                      for (a, b), row in sorted(upper.items()))
        alg = cls.__new__(cls)
        # fills the cached_properties below, as their first reads would
        alg.__dict__.update(dim=dim, basis_names=tuple(basis_names), _table=(den, table),
                            _antisymmetry=tuple(sorted(mirrors)))
        return alg

    def __getattr__(self, name):
        """Build ``structure`` of an algebra made by ``from_brackets``, once, on its first read."""
        return linalg.deferred(self, name, ("structure",), "_table",
                               lambda table: (_dense(self.dim, table, self._antisymmetry),))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis_names={self.basis_names!r})"

    @cached_property
    def _table(self):
        """The nonzero rows f[a][b], a < b, as integers over one denominator.

        Returns (den, rows) with rows = ((a, b, ((c, n), ...)), ...) in (a, b)
        order, c ascending, and f[a][b][c] = n / den, den being the least
        common denominator of the upper triangle.  The lower triangle is never
        read.
        """
        upper = [(a, b, [(c, f) for c, f in enumerate(self.structure[a][b]) if f != 0])
                 for a in range(self.dim) for b in range(a + 1, self.dim)]
        den = lcm(*(f.denominator for _, _, row in upper for _, f in row))
        rows = tuple((a, b, tuple((c, f.numerator * (den // f.denominator)) for c, f in row))
                     for a, b, row in upper if row)
        return den, rows

    @cached_property
    def _rows_by_index(self):
        """For each basis index d, the nonzero rows [X_d, X_z] as (z, ((c, n), ...)).

        They are read off ``_table`` with the sign of the order, as
        ``bracket`` sees them, over the table's denominator.
        """
        rows = [[] for _ in range(self.dim)]
        for a, b, row in self._table[1]:
            rows[a].append((b, row))
            rows[b].append((a, tuple((c, -x) for c, x in row)))
        return tuple(map(tuple, rows))

    @cached_property
    def _antisymmetry(self):
        """The entries that break antisymmetry: (a, b, c, f[a][b][c], f[b][a][c])
        for b >= a with a nonzero sum, in (a, b, c) order.

        An algebra from a dense tensor finds them in one pass over it; one
        from ``from_brackets`` can only break antisymmetry at explicit mirror
        entries, and is given them at construction.
        """
        f = self.structure
        n = self.dim
        return tuple((a, b, c, f[a][b][c], f[b][a][c])
                     for a in range(n) for b in range(a, n) for c in range(n)
                     if (f[a][b][c] or f[b][a][c]) and f[a][b][c] + f[b][a][c] != 0)

    def zero_vector(self):
        return linalg.zero_vector(self.dim)

    def basis_vector(self, a):
        return linalg.basis_vector(self.dim, a)

    def vector(self, values):
        v = as_vector(values)
        if len(v) != self.dim:
            raise DimensionMismatch("coefficient count differs from dimension")
        return v

    def bracket(self, x, y):
        """Exact bracket of two coefficient vectors.

        Both vectors are scaled to numerators together.  When either holds a
        float (the numeric mode of the group layer) both run through the same
        loop as they are, so an exact entry meets a float as a Fraction does.
        A component that some nonzero product reaches then comes back a float
        (0.0 where the products cancel); any other is a Fraction zero:
        [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)] on so3 is
        (Fraction(0, 1), Fraction(0, 1), 1.0).
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length differs from algebra dimension")
        [x, y], den = linalg.numerators([x, y])
        if type(den) is float:  # the numeric mode, over 1
            den = 1
        return linalg.from_numerators(self._numerator_bracket(x, y), den * den * self._table[0])

    def _numerator_bracket(self, x, y):
        """D [x, y] as a list, for numerator vectors x and y and D = ``_table[0]``."""
        acc = [0] * self.dim
        for a, b, row in self._table[1]:
            t = x[a] * y[b] - x[b] * y[a]
            if t:
                for c, f in row:
                    acc[c] += t * f
        return acc

    def format_vector(self, v):
        return _format_vector(self.basis_names, v)

    def validate(self):
        """Exact antisymmetry and Jacobi report over all index combinations.

        The report counts n n(n+1)/2 antisymmetry checks (the pairs
        f[a][b][c], f[b][a][c] with b >= a) and C(n, 3) Jacobi triples, but
        reads only the entries that break antisymmetry (``_antisymmetry``)
        and the nonzero structure constants.  The Jacobi residuals are summed
        on the integer table over the nonzero products only: each nonzero
        entry u of a row [X_x, X_y] meets each nonzero row [X_d, X_z] and adds
        into the residual of the triple {x, y, z}, so a triple none of whose
        brackets nest to a nonzero product is never visited.  A residual
        becomes Fractions only when it is reported, in (a, b, c) order.
        """
        n = self.dim
        report = ValidationReport(checks=n * n * (n + 1) // 2 + n * (n - 1) * (n - 2) // 6)
        for a, b, c, x, y in self._antisymmetry:
            report.record("antisymmetry", (a + 1, b + 1, c + 1),
                          f"f[{a + 1}][{b + 1}][{c + 1}]={x} but f[{b + 1}][{a + 1}][{c + 1}]={y}")
        # The residual of a < b < c is the sum of u [X_d, X_z] over the cyclic
        # terms [[X_x, X_y], X_z] = sum_d u X_d, over den**2; written with
        # x < y, the term (c, a, b) is minus that of (a, c, b), so a term
        # takes the sign -1 exactly when x < z < y.
        den, table = self._table
        nbr = self._rows_by_index
        residuals = {}
        for x, y, row in table:
            for d, u in row:
                for z, bracket in nbr[d]:
                    if z < x:
                        key, s = (z, x, y), u
                    elif z > y:
                        key, s = (x, y, z), u
                    elif x < z < y:
                        key, s = (x, z, y), -u
                    else:  # z is x or y: no triple
                        continue
                    residual = residuals.setdefault(key, {})
                    for e, v in bracket:
                        residual[e] = residual.get(e, 0) + s * v
        for key in sorted(residuals):
            residual = residuals[key]
            if any(residual.values()):
                vec = tuple(Fraction(residual.get(e, 0), den * den) for e in range(n))
                report.record("jacobi", tuple(i + 1 for i in key),
                              f"residual {self.format_vector(vec)}")
        return report


@dataclass(frozen=True)
class SubalgebraSplit:
    """A subalgebra with a chosen vector space complement and exact projectors."""

    algebra: LieAlgebra
    h_basis: tuple
    n_basis: tuple
    proj_h: tuple
    proj_n: tuple

    @property
    def dim_h(self):
        return len(self.h_basis)

    @property
    def dim_n(self):
        return len(self.n_basis)

    @cached_property
    def _projector_forms(self):
        """Each projector exact, as integer numerators over one denominator, and as floats.

        Maps "h" and "n" to (proj, rows, den, floats): proj is rows / den,
        and floats is ``linalg.rounded(rows, den)`` with 0.0 for zeros, each
        entry rounded once: a float matrix, never taken for an integer one.
        """
        forms = {}
        for key, proj in (("h", self.proj_h), ("n", self.proj_n)):
            rows, den = linalg.numerators(proj)
            forms[key] = (proj, rows, den, linalg.rounded(rows, den, zero=0.0))
        return forms

    def _project(self, key, x):
        """The projector ``key`` times x.

        Exact x runs one integer product and makes one Fraction per entry.
        Float x (every nonzero entry a float) meets the rounded projector;
        the floats are those of the exact projector, rounded at each product.
        Mixed x meets the exact projector, as a loop on Fractions does.
        """
        proj, rows, den, floats = self._projector_forms[key]
        if not any(x):  # the zero vector: Fraction zeros, with no numerators to form
            return linalg.mat_vec(proj, x)
        [v], vden = linalg.numerators([x])
        if type(vden) is int:
            return linalg.from_numerators(linalg.mat_vec(rows, v), den * vden)
        return linalg.mat_vec(floats if all(type(b) is float for b in x if b) else proj, x)

    @cached_property
    def _inverse(self):
        """(columns, d): B^-1 = inv / d for B = [h_basis | n_basis], column j of
        inv as its nonzero (row, entry) pairs; rows below dim_h are h-coordinates."""
        return _split(self.algebra, self.h_basis, self.n_basis)._inverse

    def project_h(self, x):
        return self._project("h", x)

    def project_n(self, x):
        return self._project("n", x)

    def coset_reduce(self, x):
        """Canonical representative of x modulo the subalgebra."""
        return self.project_n(x)

    def contains(self, x):
        """Exact membership of x in the subalgebra span."""
        return linalg.is_zero_vector(self.project_n(x))


def _split(alg, h_basis, n_basis):
    """The split along h_basis with complement n_basis, and its exact projectors.

    P_h = (h columns of B)(first dh rows of B^-1), B the base change, and
    P_n = 1 - P_h come from integers: B's h-column numerators times the rows
    of d B^-1 that the elimination leaves, over one denominator, one Fraction
    per entry.  The float mode runs the same sums on the values, over 1.  The
    split keeps d B^-1, column by column, and d as ``_inverse``.
    """
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
    split = SubalgebraSplit(alg, tuple(h_basis), tuple(n_basis), proj_h, proj_n)
    # fills the cached_property, as its first read would
    split.__dict__["_inverse"] = (
        tuple(tuple((r, row[j]) for r, row in enumerate(inv) if row[j]) for j in range(n)), d)
    return split


def _closure_check(alg, h_basis):
    pairs = [(u, v, alg.bracket(u, v)) for i, u in enumerate(h_basis) for v in h_basis[i:]]
    sols = linalg.solve_in_basis(h_basis, [w for _, _, w in pairs])
    for (u, v, w), sol in zip(pairs, sols):
        if sol is None:
            raise NotASubalgebra(
                f"bracket [{alg.format_vector(u)}, {alg.format_vector(v)}] = "
                f"{alg.format_vector(w)} leaves the span",
                witness=(u, v, w))


def span_subalgebra(alg, vectors):
    """Split the algebra along the span of ``vectors``.

    The span must be bracket-closed; linearly dependent input is pruned.  The
    complement is picked by greedy pivoting of the standard basis vectors in
    index order, so it always consists of standard basis vectors.
    """
    vectors = [alg.vector(v) for v in vectors]
    cols = vectors + [alg.basis_vector(i) for i in range(alg.dim)]
    pivots = linalg.pivot_columns(cols, alg.dim)
    h_basis = [cols[j] for j in pivots if j < len(vectors)]
    n_basis = [cols[j] for j in pivots if j >= len(vectors)]
    _closure_check(alg, h_basis)
    return _split(alg, h_basis, n_basis)


def split_with_complement(alg, h_vectors, n_vectors):
    """Like span_subalgebra but with an explicitly chosen complement."""
    h_vectors = [alg.vector(v) for v in h_vectors]
    n_basis = [alg.vector(v) for v in n_vectors]
    pivots = linalg.pivot_columns(h_vectors + n_basis, alg.dim)
    h_basis = [h_vectors[j] for j in pivots if j < len(h_vectors)]
    _closure_check(alg, h_basis)
    if len(pivots) - len(h_basis) != len(n_basis):
        raise DimensionMismatch("complement vectors are not independent of the subalgebra")
    if len(pivots) != alg.dim:
        raise DimensionMismatch("subalgebra and complement do not span the algebra")
    return _split(alg, h_basis, n_basis)
