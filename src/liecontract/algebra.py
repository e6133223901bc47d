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
vector (``_rows_by_index``), which the expansion's emit reads too.  Both
constructors derive the table in one routine (``_sparse``), together with the
entries that break antisymmetry: the dense one from the nonzero entries of
its tensor, ``from_brackets`` from its sparse entries; neither keeps its
input, so the dense tensor ``structure`` of Fractions is a view, built when
something first reads it.  ``validate``, equality and hashing read the table
and those entries, never the dense tensor.

A subalgebra split holds one state, however built: its projectors P_h and
P_n as integer rows over one reduced denominator (``_numerators``), of which
``proj_h`` and ``proj_n`` are views, built on their first read.
``span_subalgebra`` and ``split_with_complement`` read their vectors once
into numerators and run on them the closure brackets and one pivot search,
which inverts the base change too.  An exact vector is projected in one
integer product with one Fraction per entry; a float vector (the numeric
mode) meets a copy of the projector rounded once to floats, with the float
bits that the exact projector gives when it is rounded at each product.
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


def _check_dim(dim):
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be in 1..{MAX_DIM}")


def _check_size(dim, basis_names):
    _check_dim(dim)
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


def _sparse(explicit):
    """(``_table``, ``_antisymmetry``) of the entries {(a, b, c): f[a][b][c]}.

    An entry without an explicit mirror f[b][a][c] is completed
    antisymmetrically.  The table holds the nonzero f[a][b][c] with a < b as
    integer numerators over the least common denominator den of the upper
    triangle: (den, ((a, b, ((c, n), ...)), ...)), in (a, b) order, c
    ascending, f[a][b][c] = n / den.  The entries that break antisymmetry,
    diagonal ones included, are (a, b, c, f[a][b][c], f[b][a][c]) for b >= a
    with a nonzero sum, in (a, b, c) order; they never enter the table.
    """
    upper = {}  # (a, b), a < b: {c: f[a][b][c]} over the nonzero entries
    mirrors = []
    for (a, b, c), x in explicit.items():
        y = explicit.get((b, a, c))
        if a > b:
            if y is not None:  # the upper entry of the pair is explicit too
                continue
            a, b, x = b, a, -x
        elif y is not None and x + y != 0:
            mirrors.append((a, b, c, x, y))
        if x and a != b:
            upper.setdefault((a, b), {})[c] = x
    den = lcm(*(f.denominator for row in upper.values() for f in row.values()))
    table = tuple((a, b, tuple((c, row[c].numerator * (den // row[c].denominator))
                               for c in sorted(row)))
                  for (a, b), row in sorted(upper.items()))
    return (den, table), tuple(sorted(mirrors))


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple
    structure: tuple = field(compare=False)  # f[a][b][c] as Fractions: a view of ``_table``
    # the state that ``==`` and ``hash`` compare, and that ``_dense`` reads
    _table: tuple = field(init=False)
    _antisymmetry: tuple = field(init=False)

    def __post_init__(self):
        _check_size(self.dim, self.basis_names)
        state, n = self.__dict__, self.dim
        f = state.pop("structure")
        if len(f) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                              for plane in f):
            raise DimensionMismatch("structure tensor has wrong shape")
        state["basis_names"] = tuple(self.basis_names)
        f = [[[rat(x) for x in row] for row in plane] for plane in f]
        state["_table"], state["_antisymmetry"] = _sparse(
            {(a, b, c): f[a][b][c] for a in range(n) for b in range(n) for c in range(n)
             if f[a][b][c] or f[b][a][c]})

    @classmethod
    def from_brackets(cls, dim, basis_names, entries):
        """Build from sparse entries (a, b, c, coeff), zero-based, a != b.

        The antisymmetric completion f[b][a][c] = -f[a][b][c] fills in pairs
        without an explicit mirror entry.  Explicit mirror entries are stored
        as given, so deliberately broken tensors remain representable and are
        caught by ``validate`` instead of being rejected here.

        The entries fill ``_table`` and ``_antisymmetry`` (``_sparse``), with
        no pass over the dense tensor; ``structure`` is built on its first read
        (see ``__getattr__``), so an algebra that is only bracketed,
        validated, compared or written out never builds it.
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
        return cls._from_table(dim, basis_names, *_sparse(explicit))

    @classmethod
    def _from_table(cls, dim, basis_names, table, antisymmetry=()):
        """The algebra whose state is the ``table`` and ``antisymmetry`` of ``_sparse``."""
        return linalg.with_state(cls, dim=dim, basis_names=tuple(basis_names), _table=table,
                                 _antisymmetry=antisymmetry)

    def __getattr__(self, name):
        """Build ``structure``, which neither constructor keeps, once, on its first read."""
        return linalg.deferred(self, name, ("structure",), "_table",
                               lambda table: (_dense(self.dim, table, self._antisymmetry),))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis_names={self.basis_names!r})"

    @cached_property
    def _rows(self):
        """{(a, b): the nonzero (c, n) of ``_table``'s row [X_a, X_b]} for a < b;
        the pairs that bracket to zero are absent."""
        return {(a, b): row for a, b, row in self._table[1]}

    def _row_vector(self, a, b):
        """The numerators of [X_a, X_b], a < b, over ``_table[0]``, as a dense list."""
        v = [0] * self.dim
        for c, x in self._rows.get((a, b), ()):
            v[c] = x
        return v

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
    proj_h: tuple = field(compare=False)  # proj_h, proj_n: views of ``_numerators``
    proj_n: tuple = field(compare=False)
    _numerators: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # keep what ``_split`` keeps, each entry read as ``linalg.scalar`` reads it
        n, mats = self.algebra.dim, [self.__dict__.pop(key) for key in ("proj_h", "proj_n")]
        if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
            raise DimensionMismatch("projectors must be square of the algebra dimension")
        rows, den = linalg.numerators([tuple(map(linalg.scalar, row)) for m in mats for row in m])
        self.__dict__["_numerators"] = ((rows[:n], rows[n:]), den)

    def __getattr__(self, name):
        """Build ``proj_h`` and ``proj_n``, which neither constructor keeps, on a first read."""
        return linalg.deferred(self, name, ("proj_h", "proj_n"), "_numerators", linalg.matrices_of)

    @property
    def dim_h(self):
        return len(self.h_basis)

    @property
    def dim_n(self):
        return len(self.n_basis)

    @cached_property
    def _projector_forms(self):
        """Each projector as integer numerators over one denominator, and as floats.

        Maps "h" and "n" to (rows, den, floats): rows / den is the projector,
        as ``_numerators`` holds it, and floats is ``linalg.rounded(rows,
        den)`` with 0.0 for zeros, each entry rounded once: a float matrix,
        never taken for an integer one.
        """
        mats, den = self._numerators
        return {key: (rows, den, linalg.rounded(rows, den, zero=0.0))
                for key, rows in zip("hn", mats)}

    def _project(self, key, x):
        """The projector ``key`` times x.

        Exact x runs one integer product and makes one Fraction per entry.
        Float x (every nonzero entry a float) meets the rounded projector;
        the floats are those of the exact projector, rounded at each product.
        Mixed x meets the exact projector, as a loop on Fractions does.
        """
        rows, den, floats = self._projector_forms[key]
        if not any(x):  # Fraction zeros, as mat_vec gives them on a float matrix
            return linalg.mat_vec(floats, x)
        [v], vden = linalg.numerators([x])
        if type(vden) is int:
            return linalg.from_numerators(linalg.mat_vec(rows, v), den * vden)
        numeric = all(type(b) is float for b in x if b)
        return linalg.mat_vec(floats if numeric else getattr(self, "proj_" + key), x)

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


def _split(alg, h_basis, n_basis, cols=None, inverse=None):
    """The split along h_basis with complement n_basis, and its exact projectors.

    ``cols`` is (columns, den), the numerators of h_basis and n_basis in
    turn, and ``inverse`` (d B^-1, d), B the base change, when the caller's
    pivot search has them.  P_h = (h columns of B)(first dh rows of B^-1)
    and P_n = 1 - P_h come from integers: B's h-column numerators times the
    rows of d B^-1, kept over one reduced denominator.  The float mode runs
    the same sums on the values, over 1.  The split keeps d B^-1, column by
    column, and d as ``_inverse``.
    """
    n, dh = alg.dim, len(h_basis)
    cols, den = cols or linalg.numerators([*h_basis, *n_basis])
    rows = tuple(zip(*cols))
    inv, d = inverse or linalg.invert_numerators(rows, den)
    ph = []
    for row in rows:
        support = [(l, b) for l, b in enumerate(row[:dh]) if b]
        ph.append([sum((inv[l][k] * b for l, b in support), 0) for k in range(n)])
    if type(den) is float:  # the float mode: the same sums on the values, over 1
        pn = [[int(i == k) - x for k, x in enumerate(row)] for i, row in enumerate(ph)]
        split = SubalgebraSplit(alg, tuple(h_basis), tuple(n_basis), *(
            [linalg.from_numerators(row, 1) for row in m] for m in (ph, pn)))
    else:  # over den d less its gcd with P_h, which P_n = den d - P_h shares; den > 0
        ph, den = linalg.lowest_terms(ph, den * d)
        pn = tuple(tuple((den if i == k else 0) - x for k, x in enumerate(row))
                   for i, row in enumerate(ph))
        split = linalg.with_state(SubalgebraSplit, algebra=alg, h_basis=tuple(h_basis),
                                  n_basis=tuple(n_basis), _numerators=((ph, pn), den))
    # fills the cached_property, as its first read would
    split.__dict__["_inverse"] = (
        tuple(tuple((r, row[j]) for r, row in enumerate(inv) if row[j]) for j in range(n)), d)
    return split


def _closure_check(alg, rows, den):
    """Refuse the span of the integer rows, over den, unless it is bracket-closed;
    a pair u <= v brackets on numerators, to den**2 [u, v]."""
    pairs = [(u, v, alg.bracket(u, v)) for i, u in enumerate(rows) for v in rows[i:]]
    sols = linalg.solve_in_basis(rows, [w for _, _, w in pairs])
    for (u, v, _), sol in zip(pairs, sols):
        if sol is None:
            u, v = linalg.vectors_of(((u, v), den))
            w = alg.bracket(u, v)
            raise NotASubalgebra(
                f"bracket [{alg.format_vector(u)}, {alg.format_vector(v)}] = "
                f"{alg.format_vector(w)} leaves the span",
                witness=(u, v, w))


def span_subalgebra(alg, vectors):
    """Split the algebra along the span of ``vectors``.

    The span must be bracket-closed; linearly dependent input is pruned.  The
    complement is picked by greedy pivoting of the standard basis vectors in
    index order, so it always consists of standard basis vectors.  The pivot
    search inverts the base change too (``linalg.pivots_and_inverse``).
    """
    rows, den = linalg.exact_numerators(vectors, alg.dim)
    n, k = alg.dim, len(rows)
    cols = [*rows, *(tuple(den if i == j else 0 for j in range(n)) for i in range(n))]
    pivots, inverse = linalg.pivots_and_inverse(cols, den, n)
    h = [cols[j] for j in pivots if j < k]
    _closure_check(alg, h, den)
    n_basis = [alg.basis_vector(j - k) for j in pivots if j >= k]
    return _split(alg, linalg.vectors_of((h, den)), n_basis, ([cols[j] for j in pivots], den),
                  inverse)


def split_with_complement(alg, h_vectors, n_vectors):
    """Like span_subalgebra but with an explicitly chosen complement."""
    h_vectors = list(h_vectors)
    rows, den = linalg.exact_numerators([*h_vectors, *n_vectors], alg.dim)
    k = len(h_vectors)
    pivots, inverse = linalg.pivots_and_inverse(rows, den, alg.dim)
    h = [rows[j] for j in pivots if j < k]
    _closure_check(alg, h, den)
    if len(pivots) - len(h) != len(rows) - k:
        raise DimensionMismatch("complement vectors are not independent of the subalgebra")
    if len(pivots) != alg.dim:
        raise DimensionMismatch("subalgebra and complement do not span the algebra")
    return _split(alg, linalg.vectors_of((h, den)), linalg.vectors_of((rows[k:], den)),
                  ([rows[j] for j in pivots], den), inverse)
