"""Independent routes the tests check the library against, and the shared builders.

This module holds no tests.  A test module imports its helpers from here and
from ``liecontract``, never from another test module.  Most references are the
loops a faster route replaced, on ``Fraction``s; each must give the route's
values (and, where a test compares them, its types, float bits and errors).

The route map: each ``src`` route, its reference here, and every ``src`` name
the reference calls, so any code a reference shares with the route it checks
is listed in one place.  Every reference also uses the value types it reads
and builds (``Jet``, ``MatrixJet``, ``ExpandedElement``, ``LieAlgebra``,
``ValidationReport``, the error classes) and ``linalg``'s exact vector and
matrix arithmetic (``zero_vector``, ``zero_matrix``, ``identity``,
``vec_add``, ``vec_scale``, ``is_zero_vector``, ``mat_add``, ``mat_sub``,
``mat_mul``, ``mat_scale``, ``mat_vec``, ``invert``, ``rat``); those are
named below only where the route under check is one of them.

Brackets and validation (``test_kernel``, ``test_jets``, ``test_algebra``):

- ``LieAlgebra.bracket``: ``reference_bracket``, the loop on the ``Fraction``
  rows of ``structure``; no ``src`` routine.
- ``jets._cauchy`` on the bracket (``bracket_numerators``):
  ``truncated_bracket``, a degree-by-degree loop of its own over
  ``reference_bracket``; no ``src`` routine.
- ``bracket_poly``: ``reference_bracket_poly``, ``truncated_bracket`` on the
  coefficients; ``Jet._check_compatible``, which ``jets._Series`` writes once
  for both jet types.
- ``IWExpansion.bracket``: ``reference_iw_bracket``, the same product on the
  slots; ``SubalgebraSplit.contains`` and ``coset_reduce``.
- ``IWExpansion.coords``: ``reference_coords``, one general solve;
  ``IWExpansion.basis_elements``, ``linalg.solve_in_basis``.
- ``IWExpansion.structure_algebra``: ``reference_structure_algebra``, every
  pair through ``reference_iw_bracket`` and ``reference_coords``;
  ``LieAlgebra.from_brackets``.  Its basis names: ``reference_names``.
- ``LieAlgebra.validate``: ``reference_validate_on_rows``, the sweep on the
  ``Fraction`` rows; ``LieAlgebra.format_vector``.  And
  ``reference_validate_through_bracket``, antisymmetry on the input tensor and
  Jacobi through ``LieAlgebra.bracket`` (the table route it checks is
  ``validate``'s own sweep, not the bracket); ``format_vector``.
- ``LieAlgebra`` constructors: ``reference_tensor`` (the dense tensor of
  ``from_brackets`` entries), ``reference_table`` and
  ``reference_antisymmetry`` (the dense scans for ``_table`` and
  ``_antisymmetry``); no ``src`` name.
- ``SubalgebraSplit`` projectors: ``reference_projectors``, B S B^-1;
  ``linalg.invert``.
- ``linalg.solve_in_basis``: ``reference_solve_in_basis``, one Gauss-Jordan
  solve per right-hand side; no ``src`` name.

Truncated BCH and the matrix oracle (``test_bch``, ``test_oracle``):

- ``bch.word_coefficients``: ``reference_word_coefficients``, the block
  sequences enumerated; no ``src`` name.
- ``bch.local_mult``: ``reference_dynkin_local_mult``, the Dynkin sum on
  ``Fraction`` coefficients, degree by degree (``reference_terms``);
  ``bch.word_coefficients``, ``Jet.truncated``.  Its brackets are
  ``reference_bracket_poly``.
- ``Representation.exp_trunc``, ``log_trunc``, ``decompose``,
  ``local_mult``, ``check``: ``reference_exp``, ``reference_log``,
  ``reference_decompose``, ``reference_exp_log_local_mult``,
  ``reference_homomorphism_failures``, on ``Fraction`` matrices through
  ``reference_matrix_of``; ``Representation.mats``, the view of the integer
  state that the routes read (``linalg.matrices_of``), ``MatrixJet``
  ``identity`` and the ``jets._Series`` members that ``Jet`` shares, ``+``,
  ``-``, ``scale`` and ``zero``, ``linalg.solve_in_basis``, and for the
  failures ``LieAlgebra.bracket``.
- ``MatrixJet.matmul``: ``reference_matmul``, a degree-by-degree loop;
  ``MatrixJet._check_compatible`` (a ``jets._Series`` member).

Contraction families (``test_contraction``):

- ``ContractionFamily`` lift: ``reference_family_apply``, the polynomial
  product on ``phis``; no ``src`` routine.
- ``invert_family_apply``: ``reference_invert_family_apply``, the
  ``Fraction`` adjugate and series division (``reference_series_div``);
  ``linalg.poly_adjugate``, ``poly_add``, ``poly_mul``, ``poly_trim``,
  ``poly_valuation``.  ``cramer_invert_family_apply``, one determinant per
  component (``poly_series_div``); ``linalg.poly_det``, ``poly_trim``,
  ``poly_valuation``, ``from_numerators``.  ``row_loop_invert_family_apply``,
  the sparse-row table (``reference_inverse_terms``) summed row by row;
  ``ContractionFamily._det``, ``_adjugate`` and ``_numerators``,
  ``Jet.numerators`` and ``from_numerators``, ``linalg.exact``.
- ``contraction._InverseSeries.extend``: ``reference_inverse_terms``, every
  adjugate entry summed at every degree; ``linalg.poly_valuation``.
- ``eps_bracket`` and ``GeneralExpansion.bracket_tuples``:
  ``reference_eps_bracket`` and ``reference_bracket_tuples``, through
  ``reference_rescaled_bracket`` (the lift, ``reference_bracket_poly`` and the
  ``Fraction`` solve); ``Jet.coeff`` (a ``jets._Series`` member).

The group's numeric and exact modes (``test_numeric_mode``):

- ``linalg.mat_vec`` and the split projections: ``reference_mat_vec``, every
  sum but the integer one from the ``Fraction`` zero; no ``src`` routine.
- ``ExpansionGroup.h_element``: ``reference_h_element``, the checks on
  ``Fraction``s and floats; ``LieAlgebra.bracket``, ``linalg.pivot_columns``.
- ``h_compose``, ``h_inverse``, ``ad_nil``: ``reference_h_compose``,
  ``reference_h_inverse``, ``reference_ad_nil``, on ``HElement.ad``;
  ``linalg.invert``, ``SubalgebraSplit.coset_reduce``.
- ``ExpansionGroup.mult`` at order 0: ``reference_mult``, through
  ``reference_mat_vec`` and ``proj_n``; no ``src`` routine.

Shared builders: ``so_n``, ``so_n_matrices``, ``so_n_rotation_ad``,
``dense_so_split`` (so(n-1) in so(n) on seeded dense bases),
``dense_split_along`` (a split along given vectors on dense bases),
``canonical_group``, ``random_nil``, ``through_zero``, ``astuple``,
``report_key`` and ``copies``.  They build inputs through ``builtin``,
``canonical_split_vectors``, ``span_subalgebra``, ``split_with_complement``,
``ExpansionGroup`` and its ``nil``, and ``linalg.random_vector`` and
``random_fraction``.
"""

import copy
import math
import pickle
import random
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import lcm

from liecontract import linalg
from liecontract.algebra import LieAlgebra, ValidationReport, span_subalgebra, split_with_complement
from liecontract.bch import word_coefficients
from liecontract.catalog import builtin, canonical_split_vectors
from liecontract.errors import (
    ConstantTermNotIdentity,
    DecompositionFailed,
    DimensionMismatch,
    InternalInvariantViolation,
    NonzeroConstantTerm,
    NotASubalgebra,
    PoleError,
    SingularFamily,
)
from liecontract.expansion import ExpandedElement
from liecontract.group import ExpansionGroup
from liecontract.jets import Jet, MatrixJet

F = Fraction
ZERO = F(0)


# ----- shared builders ---------------------------------------------------------

def so_n_matrices(n):
    """The matrices E_ij - E_ji (i < j) of so(n), ordered by j, then i."""
    return [tuple(tuple(F((r, c) == (i, j)) - F((r, c) == (j, i)) for c in range(n))
                  for r in range(n)) for j in range(n) for i in range(j)]


def so_n(n):
    """so(n) on the matrices E_ij - E_ji (i < j), and the basis vectors of its so(n-1)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    mats = so_n_matrices(n)
    tensor = tuple(tuple(tuple(d[i][j] for i, j in pairs)
                         for d in (linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))
                                   for b in mats))
                   for a in mats)
    alg = LieAlgebra(len(pairs), tuple(f"L{i + 1}{j + 1}" for i, j in pairs), tensor)
    return alg, [alg.basis_vector(a) for a, (_, j) in enumerate(pairs) if j < n - 1]


def so_n_rotation_ad(n, t):
    """The adjoint action on ``so_n(n)`` of the Cayley rotation R in the (0, 1)
    plane: L maps to R L R^T, which keeps so(n-1)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    r = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    r[0][0] = r[1][1] = (1 - t * t) / (1 + t * t)
    r[1][0] = 2 * t / (1 + t * t)
    r[0][1] = -r[1][0]
    cols = []
    for i, j in pairs:
        m = [[F(0)] * n for _ in range(n)]
        m[i][j], m[j][i] = F(1), F(-1)
        rm = linalg.mat_mul(linalg.mat_mul(r, m), tuple(zip(*r)))
        cols.append([rm[a][b] for a, b in pairs])
    return tuple(zip(*cols))


def dense_so_split(n, seed):
    """so(n-1) in so(n), spanned by dense combinations and given a dense complement."""
    alg, sub = so_n(n)
    rng = random.Random(seed)
    while True:
        h = [tuple(sum((linalg.random_fraction(rng) * v[i] for v in sub), F(0))
                   for i in range(alg.dim)) for _ in sub]
        comp = [linalg.random_vector(rng, alg.dim) for _ in range(alg.dim - len(sub))]
        try:
            return split_with_complement(alg, h, comp)
        except (DimensionMismatch, NotASubalgebra):
            continue


def dense_split_along(alg, sub, rng):
    """The split along span(sub), on seeded dense rational bases of both parts."""
    def draw():
        return linalg.random_fraction(rng, max_num=5, max_den=5)

    h = [tuple(sum((draw() * x for x in col), F(0)) for col in zip(*sub)) for _ in sub]
    rest = [tuple(draw() for _ in range(alg.dim)) for _ in range(alg.dim - len(sub))]
    return split_with_complement(alg, h, rest)


def canonical_group(name, k):
    """The order-k group of a catalogued algebra along its canonical subalgebra."""
    alg = builtin(name)[0]
    return ExpansionGroup(span_subalgebra(alg, canonical_split_vectors(name)), k)


def random_nil(grp, rng):
    return grp.nil([linalg.random_vector(rng, grp.algebra.dim) for _ in range(grp.order)],
                   linalg.random_vector(rng, grp.algebra.dim))


def through_zero(rng, alg, depth, trunc):
    return Jet(alg.dim, trunc,
               (linalg.zero_vector(alg.dim),)
               + tuple(linalg.random_vector(rng, alg.dim) for _ in range(depth)))


def astuple(nil):
    return nil.mids, nil.top


def report_key(report):
    return report.checks, [(v.kind, v.location, v.detail) for v in report.violations]


def copies(value):
    """The value, a shallow copy and a pickle round trip of it."""
    return [value, copy.copy(value), pickle.loads(pickle.dumps(value))]


# ----- brackets, expansion brackets and validation ----------------------------

def fraction_rows(alg):
    """Nonzero rows f[a][b], a < b, of the Fraction tensor: (a, b, ((c, coeff), ...))."""
    out = []
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            row = [(c, f) for c, f in enumerate(alg.structure[a][b]) if f != 0]
            if row:
                out.append((a, b, tuple(row)))
    return out


def reference_bracket(alg, x, y):
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionMismatch("vector length differs from algebra dimension")
    acc = [ZERO] * alg.dim
    for a, b, row in fraction_rows(alg):
        t = x[a] * y[b] - x[b] * y[a]
        if t:
            for c, f in row:
                acc[c] += t * f
    return tuple(acc)


def truncated_bracket(alg, p, q, trunc):
    """The first ``trunc`` coefficients of the bracket of two vector sequences.

    Coefficient m sums ``reference_bracket(p[i], q[m - i])`` in increasing i
    over the pairs of nonzero vectors; a lone bracket is kept as it is, and a
    degree that no pair reaches holds the Fraction zero vector.
    """
    out = []
    for m in range(trunc):
        terms = [reference_bracket(alg, p[i], q[m - i]) for i in range(m + 1)
                 if i < len(p) and m - i < len(q) and any(p[i]) and any(q[m - i])]
        out.append(reduce(linalg.vec_add, terms) if terms else linalg.zero_vector(alg.dim))
    return out


def reference_bracket_poly(alg, p, q):
    p._check_compatible(q)
    if alg.dim != p.dim:
        raise DimensionMismatch("jet dimension differs from algebra dimension")
    return Jet(alg.dim, p.trunc, truncated_bracket(alg, p.coeffs, q.coeffs, p.trunc))


def reference_iw_bracket(ea, a, b):
    k = ea.order
    out = truncated_bracket(ea.algebra, a.slots, b.slots, k + 2)
    if not ea.split.contains(out[0]):
        raise InternalInvariantViolation("leading bracket slot escaped the subalgebra")
    return ExpandedElement(
        out[0], tuple(out[1: k + 1]), ea.split.coset_reduce(out[k + 1]))


def reference_coords(ea, els):
    """``coords`` as it ran before the split's inverse: one ``solve_in_basis``
    of the flattened slots against the flattened basis elements."""
    columns = [tuple(chain.from_iterable(el.slots)) for _, el in ea.basis_elements()]
    sols = linalg.solve_in_basis(columns, [tuple(chain.from_iterable(el.slots)) for el in els])
    if None in sols:
        raise InternalInvariantViolation("element outside the expansion basis span")
    return sols


def reference_structure_algebra(ea):
    """``structure_algebra`` as it ran before the integer route and the
    closed form: every pair bracketed as Fraction elements, and
    ``reference_coords``."""
    named = ea.basis_elements()
    m = len(named)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    sols = reference_coords(ea, [reference_iw_bracket(ea, named[i][1], named[j][1])
                                 for i, j in pairs])
    entries = [(i, j, c, x) for (i, j), sol in zip(pairs, sols) for c, x in enumerate(sol) if x]
    return LieAlgebra.from_brackets(m, tuple(name for name, _ in named), entries)


def reference_names(ea):
    """The level-tagged names, an h or n vector named after the basis vector it equals."""
    alg, k = ea.algebra, ea.order

    def tag(vector, level, fallback, index):
        for a in range(alg.dim):
            if vector == alg.basis_vector(a):
                return f"{alg.basis_names[a]}@{level}"
        return f"{fallback}{index + 1}@{level}"

    return ([tag(v, 0, "h", i) for i, v in enumerate(ea.split.h_basis)]
            + [f"{name}@{level}" for level in range(1, k + 1) for name in alg.basis_names]
            + [tag(v, k + 1, "n", i) for i, v in enumerate(ea.split.n_basis)])


def reference_validate_on_rows(alg):
    """The validator on the Fraction rows: antisymmetry of ``structure`` and
    the Jacobi residual of every triple a < b < c, summed over the rows."""
    report = ValidationReport()
    f = alg.structure
    n = alg.dim
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                report.checks += 1
                if (f[a][b][c] or f[b][a][c]) and f[a][b][c] + f[b][a][c] != 0:
                    report.record(
                        "antisymmetry", (a + 1, b + 1, c + 1),
                        f"f[{a + 1}][{b + 1}][{c + 1}]={f[a][b][c]} but "
                        f"f[{b + 1}][{a + 1}][{c + 1}]={f[b][a][c]}")
    rows = [[()] * n for _ in range(n)]
    for a, b, row in fraction_rows(alg):
        rows[a][b] = row
        rows[b][a] = tuple((c, -x) for c, x in row)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                residual = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for d, u in rows[x][y]:
                        for e, v in rows[d][z]:
                            residual[e] = residual.get(e, ZERO) + u * v
                report.checks += 1
                if any(residual.values()):
                    vec = tuple(residual.get(e, ZERO) for e in range(n))
                    report.record(
                        "jacobi", (a + 1, b + 1, c + 1),
                        f"residual {alg.format_vector(vec)}")
    return report


def reference_validate_through_bracket(alg, f):
    """The bracket-based validator: the antisymmetry of the tensor f that alg
    was built from, read as given, and Jacobi residuals through ``bracket``."""
    report = ValidationReport()
    n = alg.dim
    for a in range(n):
        for b in range(a, n):
            for c in range(n):
                report.checks += 1
                if f[a][b][c] + f[b][a][c] != 0:
                    report.record(
                        "antisymmetry", (a + 1, b + 1, c + 1),
                        f"f[{a + 1}][{b + 1}][{c + 1}]={f[a][b][c]} but "
                        f"f[{b + 1}][{a + 1}][{c + 1}]={f[b][a][c]}")
    for a in range(n):
        ea = alg.basis_vector(a)
        for b in range(a + 1, n):
            eb = alg.basis_vector(b)
            ab = alg.bracket(ea, eb)
            for c in range(b + 1, n):
                ec = alg.basis_vector(c)
                residual = linalg.vec_add(
                    linalg.vec_add(alg.bracket(ab, ec),
                                   alg.bracket(alg.bracket(eb, ec), ea)),
                    alg.bracket(alg.bracket(ec, ea), eb))
                report.checks += 1
                if not linalg.is_zero_vector(residual):
                    report.record(
                        "jacobi", (a + 1, b + 1, c + 1),
                        f"residual {alg.format_vector(residual)}")
    return report


def reference_tensor(dim, entries):
    """The dense tensor of ``from_brackets`` entries: each explicit entry as
    given, the mirror of every other one completed antisymmetrically."""
    explicit = {(a, b, c): F(x) for a, b, c, x in entries}
    f = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b, c), x in explicit.items():
        f[a][b][c] = x
    for (a, b, c), x in explicit.items():
        if (b, a, c) not in explicit:
            f[b][a][c] = -x
    return tuple(tuple(tuple(row) for row in plane) for plane in f)


def reference_table(tensor):
    """The dense scan for ``_table``: the nonzero f[a][b], a < b, as integers
    over the least common denominator of the upper triangle."""
    n = len(tensor)
    upper = [(a, b, [(c, f) for c, f in enumerate(tensor[a][b]) if f != 0])
             for a in range(n) for b in range(a + 1, n)]
    den = lcm(*(f.denominator for _, _, row in upper for _, f in row))
    rows = tuple((a, b, tuple((c, f.numerator * (den // f.denominator)) for c, f in row))
                 for a, b, row in upper if row)
    return den, rows


def reference_antisymmetry(f):
    """The dense scan for ``_antisymmetry``: (a, b, c, f[a][b][c], f[b][a][c])
    for b >= a with a nonzero sum, diagonal entries included."""
    n = len(f)
    return tuple((a, b, c, f[a][b][c], f[b][a][c])
                 for a in range(n) for b in range(a, n) for c in range(n)
                 if (f[a][b][c] or f[b][a][c]) and f[a][b][c] + f[b][a][c] != 0)


def reference_projectors(split):
    """P_h = B S B^-1 with S selecting the subalgebra coordinates, B the base change."""
    n = split.algebra.dim
    cols = split.h_basis + split.n_basis
    base_change = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    dh = split.dim_h
    sel_h = tuple(tuple(F(int(i == j and i < dh)) for j in range(n)) for i in range(n))
    proj_h = linalg.mat_mul(linalg.mat_mul(base_change, sel_h), linalg.invert(base_change))
    return proj_h, linalg.mat_sub(linalg.identity(n), proj_h)


def reference_solve_in_basis(columns, rhs):
    """Single right-hand-side Gauss-Jordan solve; None if inconsistent."""
    m = len(rhs)
    n = len(columns)
    aug = [[columns[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
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
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [F(0)] * n
    for idx, c in enumerate(pivots):
        x[c] = aug[idx][n]
    return tuple(x)


# ----- truncated BCH and the matrix oracle --------------------------------------

def reference_word_coefficients(order):
    """The Dynkin word table by enumerating block sequences: every sequence
    x^p1 y^q1 ... x^pm y^qm (p_i + q_i >= 1) of at most ``order`` letters adds
    (-1)^(m-1) / (m * letters * prod(p_i! q_i!)) to its word.  Dropped and
    sorted as ``word_coefficients`` drops and sorts."""
    table = {}

    def visit(word, length, blocks, fact_prod):
        for p in range(order - length + 1):
            for q in range(order - length - p + 1):
                if p + q == 0:
                    continue
                new_word = word + "x" * p + "y" * q
                new_len = length + p + q
                new_fact = fact_prod * math.factorial(p) * math.factorial(q)
                m = blocks + 1
                table[new_word] = (table.get(new_word, F(0))
                                   + F((-1) ** (m - 1), m * new_len * new_fact))
                visit(new_word, new_len, m, new_fact)

    visit("", 0, 0, 1)
    kept = {w: c for w, c in table.items() if c != 0 and not (len(w) >= 2 and w[0] == w[1])}
    return tuple(sorted(kept.items(), key=lambda item: (len(item[0]), item[0])))


def reference_terms(alg, p, q, order):
    """(coefficient, value) of every Dynkin word through ``order``, prefixes memoised."""
    trunc = order + 1
    values = {"x": p.truncated(trunc), "y": q.truncated(trunc)}

    def value(word):
        if word not in values:
            values[word] = reference_bracket_poly(alg, value(word[:-1]), values[word[-1]])
        return values[word]

    return [(coeff, value(word)) for word, coeff in word_coefficients(order)]


def reference_dynkin_local_mult(alg, p, q, order):
    """The Dynkin sum on Fraction coefficients, degree by degree, in word order.

    Every degree holds its running sum until the last word, so a float
    component that some term reaches stays a float, 0.0 where the terms
    cancel, as ``LieAlgebra.bracket`` leaves it.  A running sum of jets would
    lose it: ``Jet`` keeps no zero top coefficient, so a top degree that
    cancels to floats 0.0 becomes Fraction zeros when a later word reaches
    past it.
    """
    acc = [linalg.zero_vector(alg.dim)] * (order + 1)
    for coeff, term in reference_terms(alg, p, q, order):
        for k, c in enumerate(term.coeffs):
            acc[k] = linalg.vec_add(acc[k], linalg.vec_scale(coeff, c))
    return Jet(alg.dim, order + 1, acc)


def reference_matrix_of(rep, v):
    acc = linalg.zero_matrix(rep.size)
    for c, m in zip(v, rep.mats):
        if c:
            acc = linalg.mat_add(acc, linalg.mat_scale(c, m))
    return acc


def reference_matmul(x, y):
    x._check_compatible(y)
    top = min(x.trunc - 1, x.degree + y.degree)
    if x.degree < 0 or y.degree < 0:
        return MatrixJet.zero(x.size, x.trunc)
    coeffs = []
    for m in range(top + 1):
        acc = linalg.zero_matrix(x.size)
        for i in range(max(0, m - y.degree), min(m, x.degree) + 1):
            acc = linalg.mat_add(acc, linalg.mat_mul(x.coeffs[i], y.coeffs[m - i]))
        coeffs.append(acc)
    return MatrixJet(x.size, x.trunc, tuple(coeffs))


def reference_exp(rep, p, order):
    if not linalg.is_zero_vector(p.coeff(0)):
        raise NonzeroConstantTerm("exponential input must vanish at 0")
    trunc = order + 1
    arg = MatrixJet(rep.size, trunc, tuple(reference_matrix_of(rep, p.coeff(m))
                                           for m in range(min(p.trunc, trunc))))
    acc = power = MatrixJet.identity(rep.size, trunc)
    fact = 1
    for m in range(1, order + 1):
        power = reference_matmul(power, arg)
        if power.degree < 0:
            break
        fact *= m
        acc = acc + power.scale(F(1, fact))
    return acc


def reference_log(m, order):
    if m.coeff(0) != linalg.identity(m.size):
        raise ConstantTermNotIdentity("logarithm input must start at the identity")
    trunc = order + 1
    shifted = MatrixJet(m.size, trunc, m.coeffs[:trunc]) - MatrixJet.identity(m.size, trunc)
    acc = MatrixJet.zero(m.size, trunc)
    power = MatrixJet.identity(m.size, trunc)
    for k in range(1, order + 1):
        power = reference_matmul(power, shifted)
        if power.degree < 0:
            break
        acc = acc + power.scale(F((-1) ** (k + 1), k))
    return acc


def reference_decompose(rep, matrix):
    columns = [tuple(x for row in m for x in row) for m in rep.mats]
    [sol] = linalg.solve_in_basis(columns, [tuple(x for row in matrix for x in row)])
    if sol is None:
        raise DecompositionFailed("matrix lies outside the representation span")
    return sol


def reference_exp_log_local_mult(rep, p, q, order):
    """The product log(exp(P) exp(Q)) on Fraction matrix jets, read back as a vector jet."""
    z = reference_log(reference_matmul(reference_exp(rep, p, order),
                                       reference_exp(rep, q, order)), order)
    return Jet(rep.algebra.dim, order + 1,
               tuple(reference_decompose(rep, z.coeff(m)) for m in range(order + 1)))


def reference_homomorphism_failures(rep):
    alg = rep.algebra
    return [(a, b) for a in range(alg.dim) for b in range(a + 1, alg.dim)
            if linalg.mat_sub(linalg.mat_mul(rep.mats[a], rep.mats[b]),
                              linalg.mat_mul(rep.mats[b], rep.mats[a]))
            != reference_matrix_of(rep, alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))]


# ----- contraction families ------------------------------------------------------

def entry_polys(fam):
    """The family's matrix of entry polynomials, on Fractions."""
    n = fam.dim
    return [[linalg.poly_trim(tuple(m[i][j] for m in fam.phis)) for j in range(n)]
            for i in range(n)]


def component_polys(r):
    """Per-coordinate coefficient tuples of a jet, trailing zeros trimmed."""
    return tuple(linalg.poly_trim(tuple(c[i] for c in r.coeffs)) for i in range(r.dim))


def pole_error(fam, valuation, component):
    """The PoleError invert_family_apply raises for this valuation and component."""
    return PoleError(f"component {fam.algebra.basis_names[component]} has valuation "
                     f"{valuation} at 0", valuation=valuation, component=component)


def reference_family_apply(fam, p):
    """The family applied to a jet on Fractions: the polynomial product, truncated."""
    coeffs = [linalg.zero_vector(p.dim) for _ in range(p.trunc)]
    for i, m in enumerate(fam.phis):
        for j, v in enumerate(p.coeffs):
            if i + j < p.trunc:
                coeffs[i + j] = linalg.vec_add(coeffs[i + j], linalg.mat_vec(m, v))
    return Jet(p.dim, p.trunc, tuple(coeffs))


def reference_series_div(num, den, order):
    """Taylor coefficients of num/den by the Fraction recurrence, one division per step."""
    den, num = linalg.poly_trim(den), linalg.poly_trim(num)
    if not num:
        return (ZERO,) * (order + 1)
    v = linalg.poly_valuation(den)
    ns, ds = num[v:], den[v:]
    out = []
    for m in range(order + 1):
        acc = ns[m] if m < len(ns) else ZERO
        for j in range(m):
            step = m - j
            if step < len(ds) and ds[step]:
                acc -= out[j] * ds[step]
        out.append(acc / ds[0])
    return tuple(out)


def reference_invert_family_apply(fam, r, order):
    """invert_family_apply on Fractions, as it ran before the family scaled to integers.

    The adjugate of the Fraction entry polynomials, the right-hand side's
    Fraction component polynomials and a Fraction series division.
    """
    den, adj = linalg.poly_adjugate(entry_polys(fam))
    if not den:
        raise SingularFamily("family determinant is the zero polynomial")
    rhs = component_polys(r)
    den_val = linalg.poly_valuation(den)
    numerators = []
    worst = None
    for i, adj_row in enumerate(adj):
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
        raise pole_error(fam, *worst)
    series = [reference_series_div(num, den, order) for num in numerators]
    coeffs = tuple(tuple(series[i][m] for i in range(fam.dim)) for m in range(order + 1))
    return Jet(fam.dim, order + 1, coeffs)


def poly_series_div(num, den, order):
    """Taylor coefficients 0..order of num/den, which must be regular at 0.

    The caller guarantees valuation(num) >= valuation(den) (or num == 0).
    The recurrence is fraction-free: with d0 the lowest coefficient of den,
    c_m = d0**(m+1) times coefficient m satisfies
    c_m = d0**m num_m - sum_{j<m} c_j d0**(m-1-j) den_(m-j), so integer input
    stays integral and each coefficient is divided once, at the end, by
    ``from_numerators`` (a Fraction for integers).
    """
    den = linalg.poly_trim(den)
    v = linalg.poly_valuation(den)
    if v is None:
        raise ZeroDivisionError("series division by zero")
    num = linalg.poly_trim(num)
    if not num:
        return (ZERO,) * (order + 1)
    if linalg.poly_valuation(num) < v:
        raise ValueError("quotient is not regular at 0")
    ns = num[v:]
    ds = den[v:]
    powers = [1]  # powers of d0
    for _ in range(order + 1):
        powers.append(powers[-1] * ds[0])
    c = []
    for m in range(order + 1):
        acc = ns[m] * powers[m] if m < len(ns) else 0
        for j in range(m):
            step = m - j
            if step < len(ds) and ds[step] and c[j]:
                acc -= c[j] * powers[step - 1] * ds[step]
        c.append(acc)
    return linalg.from_numerators([x * powers[order - m] for m, x in enumerate(c)],
                                  powers[order + 1])


def cramer_invert_family_apply(fam, r, order):
    """Reference for invert_family_apply: one determinant per component.

    Component i of the solution is det(family with column i replaced by r)
    over det(family), both computed by poly_det.
    """
    entries = entry_polys(fam)
    den = linalg.poly_det(entries)
    if not den:
        raise SingularFamily("family determinant is the zero polynomial")
    rhs = component_polys(r)
    den_val = linalg.poly_valuation(den)
    numerators = []
    worst = None
    for i in range(fam.dim):
        swapped = [row[:i] + [rhs[k]] + row[i + 1:] for k, row in enumerate(entries)]
        num = linalg.poly_det(swapped)
        numerators.append(num)
        if num:
            val = linalg.poly_valuation(num) - den_val
            if val < 0 and (worst is None or val < worst[0]):
                worst = (val, i)
    if worst is not None:
        raise pole_error(fam, *worst)
    series = [
        poly_series_div(num, den, order) if num else (ZERO,) * (order + 1)
        for num in numerators
    ]
    coeffs = tuple(tuple(series[i][m] for i in range(fam.dim)) for m in range(order + 1))
    return Jet(fam.dim, order + 1, coeffs)


def reference_inverse_terms(det, adj, count):
    """``_InverseSeries.extend(count)`` as it was: every degree sums every adjugate entry."""
    dt = det[linalg.poly_valuation(det):]
    powers = [dt[0] ** m for m in range(count + 1)]
    beta, terms = [], []
    for t in range(count):
        beta.append(-sum(dt[j] * beta[t - j] * powers[j - 1]
                         for j in range(1, min(t, len(dt) - 1) + 1)) if t else 1)
        factors = [(t - k, b * powers[t - k]) for k, b in enumerate(beta) if b]
        rows = []
        for i, adj_row in enumerate(adj):
            row = [(j, x) for j, x in enumerate(
                sum(p[s] * f for s, f in factors if s < len(p)) for p in adj_row) if x]
            if row:
                rows.append((i, row))
        if rows:
            den = powers[t + 1]
            g = math.gcd(den, *(x for _, row in rows for _, x in row))
            terms.append((t, tuple((i, tuple((j, x // g) for j, x in row)) for i, row in rows),
                          den // g))
    return terms


def row_loop_invert_family_apply(fam, r, order):
    """``invert_family_apply`` as it ran before the table kept sparse columns:
    each G_t in sparse rows (``reference_inverse_terms``), a generator sum per row."""
    rows, r_den = linalg.exact(r.numerators, "a family solve")
    if not fam._det:
        raise SingularFamily("family determinant is the zero polynomial")
    v = linalg.poly_valuation(fam._det)
    terms = reference_inverse_terms(fam._det, fam._adjugate, v + order + 1)
    scale = fam._numerators[1]
    common = math.lcm(*(den for t, _, den in terms if t <= v + order))
    coeffs = []
    for m in range(terms[0][0], v + order + 1):
        acc = [0] * fam.dim
        for t, mat, den in terms:
            if t <= m < t + len(rows) and any(rows[m - t]):
                f, x = common // den, rows[m - t]
                for i, row in mat:
                    acc[i] += f * sum(a * x[j] for j, a in row)
        if m < v:
            comp = next((i for i, c in enumerate(acc) if c), None)
            if comp is not None:
                raise PoleError(
                    f"component {fam.algebra.basis_names[comp]} has valuation {m - v} at 0",
                    valuation=m - v, component=comp)
        else:
            coeffs.append([scale * c for c in acc])
    return Jet.from_numerators(fam.dim, order + 1, coeffs, common * r_den)


def reference_rescaled_bracket(fam, xs, ys, order):
    """The rescaled bracket of two polynomials through the Fraction lift and bracket."""
    trunc = max(2 * (len(xs) - 1 + fam.degree), order) + 1
    jx, jy = (reference_family_apply(fam, Jet(fam.dim, trunc, vs)) for vs in (xs, ys))
    return reference_invert_family_apply(fam, reference_bracket_poly(fam.algebra, jx, jy), order)


def reference_eps_bracket(fam, x, y, order):
    return reference_rescaled_bracket(fam, (x,), (y,), order)


def reference_bracket_tuples(fam, k, xs, ys):
    w = reference_rescaled_bracket(fam, xs, ys, k)
    return tuple(w.coeff(m) for m in range(k + 1))


# ----- the group's numeric and exact modes ---------------------------------------

def reference_mat_vec(m, v):
    """mat_vec as it was: every sum but the integer one starts at the Fraction zero.

    The sum is integral when v and every entry of m that it reads (all of m
    for an empty support) are ints.
    """
    if m and len(m[0]) != len(v):
        raise DimensionMismatch("matrix and vector shapes differ")
    support = [(j, b) for j, b in enumerate(v) if b]
    read = [row[j] for row in m for j, _ in support] if support else [x for row in m for x in row]
    zero = 0 if m and v and all(type(x) is int for x in (*v, *read)) else F(0)
    return tuple(sum((row[j] * b for j, b in support), zero) for row in m)


def reference_h_element(grp, ad, tol):
    """h_element's checks as they were: the validated matrix, or the rejection message."""
    alg = grp.algebra
    n = alg.dim
    ad = tuple(tuple(x if isinstance(x, float) else linalg.rat(x) for x in row) for row in ad)
    check_tol = tol if any(isinstance(x, float) for row in ad for x in row) else 0

    def close(u, v):
        return all(abs(a - b) <= check_tol for a, b in zip(u, v))

    cols = list(zip(*ad))
    for a in range(n):
        for b in range(a + 1, n):
            lhs = reference_mat_vec(ad, alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))
            if not close(lhs, alg.bracket(cols[a], cols[b])):
                return (f"matrix is not a bracket automorphism at pair "
                        f"({alg.basis_names[a]}, {alg.basis_names[b]})")
    for v in grp.split.h_basis:
        image = reference_mat_vec(grp.split.proj_n, reference_mat_vec(ad, v))
        if not close(image, linalg.zero_vector(n)):
            return "matrix does not preserve the subalgebra"
    if len(linalg.pivot_columns(cols, n)) < n:
        return "adjoint matrix is singular"
    return ad


def reference_h_compose(h1, h2):
    return linalg.mat_mul(h1.ad, h2.ad)


def reference_h_inverse(h):
    return linalg.invert(h.ad)


def reference_ad_nil(grp, h, a):
    mids = tuple(linalg.mat_vec(h.ad, m) for m in a.mids)
    return mids, grp.split.coset_reduce(linalg.mat_vec(h.ad, a.top))


def reference_mult(grp, g1, g2):
    """``mult`` at order 0 as it was: the adjoint product and the moved, reduced
    tops by ``reference_mat_vec``, the tops summed from the Fraction zero."""
    h1, h2 = g1.h.ad, g2.h.ad
    ad = tuple(reference_mat_vec(tuple(zip(*h2)), row) for row in h1)
    proj = grp.split.proj_n
    moved = reference_mat_vec(proj, reference_mat_vec(h1, g2.nil.top))
    return ad, reference_mat_vec(proj, tuple(F(0) + x + y for x, y in zip(g1.nil.top, moved)))
