"""Order-k expansions of a Lie algebra along a contraction.

The subalgebra-split case stores elements in the coordinates used by the
group layer: a value in the subalgebra, k free middle coefficients, and a
canonical coset representative on top.  The general-family case works in
plain coefficient tuples, lifted through the family and solved back exactly;
an exact transport identifies the two pictures when the family comes from a
split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, SubalgebraSplit
from .contraction import ContractionFamily, contract, invert_family_apply
from .errors import DimensionMismatch, InternalInvariantViolation, PoleError
from . import linalg
from .jets import Jet, bracket_poly, bracket_series


@dataclass(frozen=True)
class ExpandedElement:
    """Subalgebra value, k middle coefficients, canonical coset top slot."""

    a0: tuple
    mids: tuple
    top: tuple

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
        """Convolution bracket with the top slot reduced modulo the subalgebra."""
        k = self.order
        out = bracket_series(self.algebra, a.slots, b.slots, k + 2)
        if not self.split.contains(out[0]):
            raise InternalInvariantViolation("leading bracket slot escaped the subalgebra")
        return ExpandedElement(
            out[0], tuple(out[1: k + 1]), self.split.coset_reduce(out[k + 1]))

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

    def basis_elements(self):
        """Basis of the expansion with level-tagged names."""
        alg = self.algebra
        split = self.split
        k = self.order
        named = []

        def tag(vector, level, fallback, index):
            for a in range(alg.dim):
                if vector == alg.basis_vector(a):
                    return f"{alg.basis_names[a]}@{level}"
            return f"{fallback}{index + 1}@{level}"

        for i, v in enumerate(split.h_basis):
            named.append((tag(v, 0, "h", i), self.element(v, [alg.zero_vector()] * k)))
        for level in range(1, k + 1):
            for a in range(alg.dim):
                mids = [alg.zero_vector()] * k
                mids[level - 1] = alg.basis_vector(a)
                named.append((f"{alg.basis_names[a]}@{level}",
                              self.element(alg.zero_vector(), mids)))
        for i, v in enumerate(split.n_basis):
            named.append((tag(v, k + 1, "n", i),
                          self.element(alg.zero_vector(), [alg.zero_vector()] * k, v)))
        return named

    def _flatten(self, el):
        flat = []
        for s in el.slots:
            flat.extend(s)
        return tuple(flat)

    def coords(self, els):
        """Coordinates of each element in the level-tagged basis, in one solve."""
        columns = [self._flatten(e) for _, e in self.basis_elements()]
        sols = linalg.solve_in_basis(columns, [self._flatten(el) for el in els])
        if any(sol is None for sol in sols):
            raise InternalInvariantViolation("element outside the expansion basis span")
        return sols

    def structure_algebra(self) -> LieAlgebra:
        """The expansion as a plain algebra on the level-tagged basis."""
        named = self.basis_elements()
        m = len(named)
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        sols = self.coords([self.bracket(named[i][1], named[j][1]) for i, j in pairs])
        entries = [(i, j, c, x) for (i, j), coords in zip(pairs, sols)
                   for c, x in enumerate(coords) if x]
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

    def lift(self, xs) -> Jet:
        """The family applied to the polynomial with coefficients xs."""
        k = self.order
        xs = tuple(self.algebra.vector(x) for x in xs)
        if len(xs) != k + 1:
            raise DimensionMismatch(f"expected {k + 1} coefficients, got {len(xs)}")
        trunc = 2 * (k + self.family.degree) + 1
        return self.family.apply(Jet(self.algebra.dim, trunc, xs))

    def bracket_tuples(self, xs, ys):
        r = bracket_poly(self.algebra, self.lift(xs), self.lift(ys))
        try:
            w = invert_family_apply(self.family, r, self.order)
        except PoleError as err:
            raise InternalInvariantViolation(
                f"existing contraction produced a pole: {err}") from err
        return tuple(w.coeff(m) for m in range(self.order + 1))
