"""Order-k expansions of a Lie algebra along a contraction.

The subalgebra-split case stores elements in the coordinates used by the
group layer: a value in the subalgebra, k free middle coefficients, and a
canonical coset representative on top.  Its structure constants run on
integers from start to finish.  An element holds one state, however built:
its slots as integer numerators over one denominator
(``ExpandedElement.numerators``), which the constructor reads its slots into
once; the slots are views, built when something first reads them, as the
group's tuples keep theirs (``linalg._Slots``).  The bracket checks that
both elements fit the expansion (k + 2 slots of the algebra's dimension),
convolves their pairs on the algebra's integer table, tests the leading slot
on the split's integer projector, and reduces the top slot with
``SubalgebraSplit._reduce_top``, the reduction of the group law; the element
it returns keeps the reduced numerators.  The level-tagged basis is made
from numerators too, and it is graded: the bracket of levels l and l' lies
in level l + l', dropped past k + 1.
``structure_algebra`` emits that closed form.  Its middle levels are the
algebra's integer table, shifted, and no element is bracketed for them; only
the outer levels, level 0 read in h-coordinates and level k + 1 in
n-coordinates modulo h, go through the element bracket and ``coords``, once
per distinct pair.  The basis is also block-triangular, so ``coords`` solves
nothing: it reads the outer slots through the split's integer inverse and
takes the middle slots as they stand, one Fraction per output coordinate.
Expansion elements are exact: the constructor reads a string entry through
``rat``, refuses a bool or a float with a TypeError and slots of unequal
length with a DimensionMismatch.

The general-family case works in plain coefficient tuples: its bracket is
the contraction's rescaled bracket on polynomials, one integer lift through
the family's coefficient matrices, a bracket on numerators and an exact
solve back.  An exact transport identifies the two pictures when the family
comes from a split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import LieAlgebra, SubalgebraSplit, _check_dim
from .contraction import ContractionFamily, _rescaled_bracket, contract
from .errors import DimensionMismatch, InternalInvariantViolation, PoleError
from . import linalg
from .jets import bracket_numerators

_MISFIT = "an element of this expansion has {} slots of length {}"


@dataclass(frozen=True)
class ExpandedElement(linalg._Slots):
    """Subalgebra value, k middle coefficients, canonical coset top slot.

    ``numerators`` holds the slots as integer numerators over one common
    denominator, the one state of an element however it is built; the slots
    are views of it, built on their first read (``linalg._Slots``).  The
    constructor reads each entry as ``linalg.exact_numerators`` reads it: a
    string through ``rat``, while a bool or a float is a TypeError, and slots
    of unequal length are a DimensionMismatch.
    """

    a0: tuple  # the slots: views of ``numerators``, built on their first read
    mids: tuple
    top: tuple

    _fields, _cut = ("a0", "mids", "top"), staticmethod(lambda v: (v[0], v[1:-1], v[-1]))

    def __post_init__(self):
        a0, mids, top = map(self.__dict__.pop, self._fields)
        self.__dict__["numerators"] = linalg.exact_numerators(
            [a0, *mids, top], len(a0), what="an expansion element")

    @property
    def slots(self):
        return (self.a0,) + self.mids + (self.top,)


class IWExpansion:
    """Order-k expansion along a subalgebra split."""

    def __init__(self, split: SubalgebraSplit, order: int):
        if order < 0:
            raise DimensionMismatch("expansion order must be nonnegative")
        self.split = split
        self.algebra = split.algebra
        self.order = order

    @property
    def dimension(self):
        return (self.order + 1) * self.algebra.dim

    def element(self, a0, mids=(), top=None) -> ExpandedElement:
        """Build an element; the top slot may be any coset representative."""
        n = self.algebra.dim
        a0 = self.algebra.vector(a0)
        if not self.split.contains(a0):
            raise DimensionMismatch("leading slot must lie in the subalgebra")
        mids = tuple(self.algebra.vector(m) for m in mids)
        if len(mids) != self.order:
            raise DimensionMismatch(f"expected {self.order} middle slots, got {len(mids)}")
        top = linalg.zero_vector(n) if top is None else self.algebra.vector(top)
        return ExpandedElement(a0, mids, self.split.coset_reduce(top))

    def is_zero(self, a):
        return all(linalg.is_zero_vector(s) for s in a.slots)

    def bracket(self, a: ExpandedElement, b: ExpandedElement) -> ExpandedElement:
        """Convolution bracket with the top slot reduced modulo the subalgebra.

        It runs on numerators: with P the complement projector's numerators,
        the leading slot must satisfy P x = 0, and the split reduces the top
        slot (``SubalgebraSplit._reduce_top``).  An element without k + 2
        slots of the algebra's dimension is refused.
        """
        k, n = self.order, self.algebra.dim
        (p, dp), (q, dq) = a.numerators, b.numerators
        # the constructor gives every slot one length, so the first slot stands for all
        if not len(p) == len(q) == k + 2 or not len(p[0]) == len(q[0]) == n:
            raise DimensionMismatch(_MISFIT.format(k + 2, n))
        out, den = bracket_numerators(self.algebra, (p, dp), (q, dq), k + 2)
        # a zero slot (int zeros) projects to itself: mat_vec would scan P to tell
        if any(out[0]) and any(linalg.mat_vec(self.split._projector_forms["n"][0], out[0])):
            raise InternalInvariantViolation("leading bracket slot escaped the subalgebra")
        return linalg.with_state(ExpandedElement, numerators=self.split._reduce_top(out, den))

    # ----- order-0 identification with the contraction -----------------

    def from_contraction(self, x) -> ExpandedElement:
        """Split an algebra vector into the order-0 element it represents."""
        if self.order != 0:
            raise DimensionMismatch("contraction identification needs order 0")
        x = self.algebra.vector(x)
        return ExpandedElement(
            self.split.project_h(x), (), self.split.project_n(x))

    def to_contraction(self, el: ExpandedElement):
        if self.order != 0:
            raise DimensionMismatch("contraction identification needs order 0")
        return linalg.vec_add(el.a0, el.top)

    # ----- transport to and from plain coefficient tuples ---------------

    def tuple_to_element(self, xs) -> ExpandedElement:
        """Coordinates of the lift of a coefficient tuple through the split family."""
        k = self.order
        xs = tuple(self.algebra.vector(x) for x in xs)
        if len(xs) != k + 1:
            raise DimensionMismatch(f"expected {k + 1} coefficients, got {len(xs)}")
        ph, pn = self.split.project_h, self.split.project_n
        a0 = ph(xs[0])
        mids = tuple(
            linalg.vec_add(ph(xs[m]), pn(xs[m - 1])) for m in range(1, k + 1))
        return ExpandedElement(a0, mids, pn(xs[k]))

    # ----- basis, coordinates, emitted structure constants --------------

    @cached_property
    def _basis(self):
        """The level-tagged basis: (name, element) pairs, h@0, g@1..k, n@(k+1).

        Each element is made from numerators: the numerators of an h or n
        vector of the split in slot 0 or k+1, and a unit row over 1 in slot
        1..k.  An h or n vector that is the unit vector of X_a is named after
        X_a; any other is h<i> or n<i>.
        """
        names = self.algebra.basis_names
        n, k = self.algebra.dim, self.order

        def element(level, row, den=1):
            rows = [(0,) * n] * (k + 2)
            rows[level] = row
            return ExpandedElement._from_numerators(rows, den)

        def tagged(vectors, level, fallback):
            out = []
            for i, v in enumerate(vectors):
                [row], den = linalg.numerators([v])
                support = [a for a, x in enumerate(row) if x]
                unit = den == 1 and len(support) == 1 and row[support[0]] == 1
                name = names[support[0]] if unit else f"{fallback}{i + 1}"
                out.append((f"{name}@{level}", element(level, row, den)))
            return out

        units = [tuple(int(a == b) for b in range(n)) for a in range(n)]
        return (tagged(self.split.h_basis, 0, "h")
                + [(f"{names[a]}@{level}", element(level, units[a]))
                   for level in range(1, k + 1) for a in range(n)]
                + tagged(self.split.n_basis, k + 1, "n"))

    def basis_elements(self):
        """Basis of the expansion with level-tagged names."""
        return list(self._basis)

    def coords(self, els):
        """Coordinates of each element in the level-tagged basis, with no solve.

        With B^-1 = inv / d the split's inverse, the leading slot's numerators
        over e give its h-coordinates through the first dh rows of inv, the
        middle slots are coordinates as they stand, and the top slot gives
        its n-coordinates through the last dn rows: one vector over d e.  An
        element without k + 2 slots of the algebra's dimension is refused.
        """
        columns, d = self.split._inverse
        dh, k, n = self.split.dim_h, self.order, self.algebra.dim
        out = []
        for el in els:
            (a0, *mids, top), e = el.numerators
            if len(mids) != k or len(a0) != n:
                raise DimensionMismatch(_MISFIT.format(k + 2, n))
            y0, yk = linalg.column_product(columns, a0), linalg.column_product(columns, top)
            if any(y0[dh:]) or any(yk[:dh]):
                raise InternalInvariantViolation("element outside the expansion basis span")
            out.append(linalg.from_numerators(
                (*y0[:dh], *(x * d for v in mids for x in v), *yk[dh:]), d * e))
        return out

    def structure_algebra(self) -> LieAlgebra:
        """The expansion as a plain algebra on the level-tagged basis.

        It emits the closed form [x@i, y@j] = [x, y]@(i + j), dropped past
        level k + 1.  The middle levels need no element bracket: [X_a@i, X_b@j]
        with i + j <= k is the table row (a, b) at level i + j, and
        [h@0, X_a@l] is [h, X_a] at level l, ad(h) taken once per h vector
        over the table rows that hold its support.  The outer levels are read
        as elements, through ``bracket`` and one ``coords`` call: [h@0, h@0],
        [h@0, n@(k+1)], and the top level i + j = k + 1 once per nonzero
        table row (a, b), as (X_a@1, X_b@k), whose coordinates every (i, j)
        on that level shares.  Every other pair brackets to zero.
        """
        _check_dim(self.dimension)  # refused before the basis is built
        named = self._basis
        m, k, n, dh = len(named), self.order, self.algebra.dim, self.split.dim_h
        den, table = self.algebra._table

        def at(a, level):  # the index of X_a@level, 1 <= level <= k
            return dh + (level - 1) * n + a

        entries = []  # (i, j, c, coefficient); from_brackets mirrors those with i > j
        for a, b, row in table:
            values = [(c, Fraction(x, den)) for c, x in row]
            for i in range(1, k):
                for j in range(1, k + 1 - i):
                    entries += [(at(a, i), at(b, j), at(c, i + j), x) for c, x in values]
        if k:
            rows_of = self.algebra._rows_by_index
            for r in range(dh):
                (h, *_), hden = named[r][1].numerators
                ad = {}  # (a, c): the numerator of [h, X_a] at c, over hden den
                for b, x in enumerate(h):
                    if x:
                        for a, row in rows_of[b]:
                            for c, f in row:
                                ad[a, c] = ad.get((a, c), 0) + x * f
                values = [(a, c, Fraction(x, hden * den)) for (a, c), x in ad.items() if x]
                for level in range(1, k + 1):
                    entries += [(r, at(a, level), at(c, level), x) for a, c, x in values]
        outer = ([(i, j) for i in range(dh) for j in range(i + 1, dh)]
                 + [(i, j) for i in range(dh) for j in range(dh + k * n, m)])
        tops = [(at(a, 1), at(b, k)) for a, b, _ in table] if k else []
        sols = self.coords([self.bracket(named[i][1], named[j][1]) for i, j in outer + tops])
        for (i, j), sol in zip(outer, sols):
            entries += [(i, j, c, x) for c, x in enumerate(sol) if x]
        for (a, b, _), sol in zip(table, sols[len(outer):]):
            values = [(c, x) for c, x in enumerate(sol) if x]
            for i in range(1, k + 1):
                entries += [(at(a, i), at(b, k + 1 - i), c, x) for c, x in values]
        return LieAlgebra.from_brackets(m, tuple(name for name, _ in named), entries)

    def random_element(self, rng) -> ExpandedElement:
        alg = self.algebra
        a0 = alg.zero_vector()
        for v in self.split.h_basis:
            a0 = linalg.vec_add(a0, linalg.vec_scale(linalg.random_fraction(rng), v))
        mids = tuple(linalg.random_vector(rng, alg.dim) for _ in range(self.order))
        return self.element(a0, mids, linalg.random_vector(rng, alg.dim))


class GeneralExpansion:
    """Order-k expansion along an arbitrary polynomial family.

    Elements are coefficient tuples (X_0, ..., X_k); the bracket lifts them
    through the family, brackets pointwise, and solves back exactly.  The
    contraction must exist, which is verified once at construction.
    """

    def __init__(self, family: ContractionFamily, order: int):
        if order < 0:
            raise DimensionMismatch("expansion order must be nonnegative")
        self.family = family
        self.algebra = family.algebra
        self.order = order
        self.contracted = contract(family)

    @property
    def dimension(self):
        return (self.order + 1) * self.algebra.dim

    def bracket_tuples(self, xs, ys):
        k = self.order
        xs, ys = tuple(xs), tuple(ys)
        for vs in (xs, ys):
            if len(vs) != k + 1:
                raise DimensionMismatch(f"expected {k + 1} coefficients, got {len(vs)}")
        try:
            w = _rescaled_bracket(self.family, xs, ys, k)
        except PoleError as err:
            raise InternalInvariantViolation(
                f"existing contraction produced a pole: {err}") from err
        return tuple(w.coeff(m) for m in range(k + 1))
