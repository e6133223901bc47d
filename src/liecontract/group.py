"""The expansion group: a subgroup part acting on a truncated-BCH nilpotent part.

Group elements pair an automorphism (the stored adjoint matrix of a subgroup
element) with a nilpotent tuple of k middle coefficients and a coset top
slot.  Multiplication is (h1, a) (h2, b) = (h1 h2, a star Ad_{h1} b), where
star lifts the tuples to polynomials through zero, multiplies them with the
truncated BCH product, and reads the first k+1 coefficients back, reducing
the last one modulo the subalgebra.  Rational data stays exact; matrices with
float entries are accepted and validated against a small tolerance.

The group law runs on integers.  A subgroup element and a nilpotent tuple
each hold one state, however built (``linalg._Slots``): the adjoint matrix,
or the slots mids then top, as integer numerators N over one reduced
denominator delta (``numerators``); ``ad``, ``mids`` and ``top`` are views
of it, built on their first read, and ``==`` compares those views.
``HElement(...)`` and ``NilTuple(...)`` read each entry as ``linalg.scalar``
does, as ``nil`` does: a float as it is and any other through ``rat``; a
value holding a float is kept as read, over the float 1.0.  ``h_element``
checks the numerators against the algebra's integer table, the split's
integer projector and one elimination of N.  ``h_compose``, ``h_inverse``,
``ad_nil``, ``star`` and ``nil_negate`` take numerators and return a value
that keeps its own, so an exact ``mult`` or ``inverse`` makes no Fraction
until a slot or a matrix is read, and then one per nonzero entry.  The top
slot of a product or a moved tuple is reduced on the split's integer
projector by ``SubalgebraSplit._reduce_top``, the reduction that the
expansion bracket makes.

In the numeric mode exact data meets floats rounded once: ``h_element``
reads [X_a, X_b] off the structure constants, rounded once per group, and
the split's projectors are rounded once per split.  The results have the
bits and types of the exact values rounded at each product, Fraction zeros
included.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import SubalgebraSplit
from .bch import local_mult
from .errors import DimensionMismatch
from . import linalg
from .jets import Jet

FLOAT_TOL = 1e-12


_NOT_AUTOMORPHISM = "matrix is not a bracket automorphism at pair ({}, {})"
_NOT_PRESERVED = "matrix does not preserve the subalgebra"
_SINGULAR = "adjoint matrix is singular"


def _close(u, v, tol):
    """|a - b| <= tol entrywise.

    A zero side is not subtracted (|a - 0| is |a|, and two zeros compare as
    the int 0), so a float never meets one of the Fraction zeros that the
    numeric mode returns.
    """
    return all(abs(a - b if a and b else a or b or 0) <= tol for a, b in zip(u, v))


def _read(vectors):
    """``linalg.numerators`` of the vectors, each entry read as ``linalg.scalar`` reads it."""
    return linalg.numerators([tuple(map(linalg.scalar, v)) for v in vectors])


@dataclass(frozen=True)
class NilTuple(linalg._Slots):
    """k middle coefficients plus a canonical coset representative.

    It keeps ``_read`` of its slots, mids then top, and nothing else; the
    slots are views (``linalg._Slots``), so ``==`` and ``hash`` compare
    values, and an exact tuple equals a float tuple of the same value.
    """

    mids: tuple  # the slots: views of ``numerators``, built on their first read
    top: tuple

    _fields, _cut = ("mids", "top"), staticmethod(lambda v: (v[:-1], v[-1]))

    def __post_init__(self):
        mids, top = map(self.__dict__.pop, self._fields)
        self.__dict__["numerators"] = _read([*mids, top])


@dataclass(frozen=True)
class HElement(linalg._Slots):
    """Subgroup element stored through its adjoint matrix.

    It keeps ``_read`` of the matrix's rows; ``ad`` is their view
    (``linalg._Slots``), one Fraction per entry, and ``_from_numerators``
    keeps a pair that equals ``linalg.numerators(ad)``.
    """

    ad: tuple  # a view of ``numerators``, built on its first read

    _fields, _cut = ("ad",), staticmethod(lambda v: (v,))

    def __post_init__(self):
        self.__dict__["numerators"] = _read(self.__dict__.pop("ad"))


@dataclass(frozen=True)
class GroupElement:
    h: HElement
    nil: NilTuple


class ExpansionGroup:
    """Order-k expansion group over a subalgebra split."""

    def __init__(self, split: SubalgebraSplit, order: int, order_cap=None):
        if order < 0:
            raise DimensionMismatch("group order must be nonnegative")
        self.split = split
        self.algebra = split.algebra
        self.order = order
        self.order_cap = order_cap

    # ----- nilpotent part ------------------------------------------------

    def nil(self, mids, top=None) -> NilTuple:
        n = self.algebra.dim
        mids = tuple(tuple(linalg.scalar(x) for x in m) for m in mids)
        if len(mids) != self.order:
            raise DimensionMismatch(f"expected {self.order} middle slots, got {len(mids)}")
        if any(len(m) != n for m in mids):
            raise DimensionMismatch("middle slot length differs from algebra dimension")
        if top is None:
            top = linalg.zero_vector(n)
        top = tuple(linalg.scalar(x) for x in top)
        if len(top) != n:
            raise DimensionMismatch("top slot length differs from algebra dimension")
        return self._tuple_of([*mids, top], 1.0)

    def _tuple_of(self, rows, den):
        """The NilTuple of the slots rows / den, the top slot reduced modulo
        the subalgebra: on integers for integer rows
        (``SubalgebraSplit._reduce_top``).  Over the float 1.0 the rows are
        the slots' values, as ``nil`` and the numeric mode hand them over:
        the top goes through ``coset_reduce``, and the tuple keeps
        ``linalg.numerators`` of the result, exact when it holds no float."""
        if type(den) is float:
            slots = [*rows[:-1], self.split.coset_reduce(rows[-1])]
            return linalg.with_state(NilTuple, numerators=linalg.numerators(slots))
        return linalg.with_state(NilTuple, numerators=self.split._reduce_top(rows, den))

    def zero_nil(self) -> NilTuple:
        return self.nil([linalg.zero_vector(self.algebra.dim)] * self.order)

    def nil_negate(self, a: NilTuple) -> NilTuple:
        rows, den = a.numerators
        return linalg.with_state(NilTuple, numerators=(tuple(map(linalg.vec_neg, rows)), den))

    def nil_is_zero(self, a: NilTuple):
        return not any(map(any, a.numerators[0]))

    def _lift(self, a: NilTuple) -> Jet:
        """The polynomial through zero with coefficients a.mids, a.top: the tuple's numerators."""
        n = self.algebra.dim
        rows, den = a.numerators
        return Jet.from_numerators(n, self.order + 2, ((0,) * n, *rows), den)

    def star(self, a: NilTuple, b: NilTuple) -> NilTuple:
        """Truncated-BCH product on nilpotent tuples; on integers for exact tuples."""
        k = self.order
        z = local_mult(self.algebra, self._lift(a), self._lift(b), k + 1, cap=self.order_cap)
        rows, den = z.numerators
        if type(den) is float:
            return self._tuple_of([z.coeff(m) for m in range(1, k + 2)], den)
        rows += ((0,) * self.algebra.dim,) * (k + 2 - len(rows))
        return self._tuple_of(rows[1:], den)

    # ----- subgroup part -------------------------------------------------

    @cached_property
    def _basis_brackets(self):
        """(a, b, [X_a, X_b], the same rounded to floats) for a < b, zero rows included.

        The brackets are the rows of the algebra's integer table over its
        denominator D, with no read of the dense tensor; the floats are
        ``linalg.rounded`` over D.
        """
        alg = self.algebra
        den = alg._table[0]
        out = []
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                v = alg._row_vector(a, b)
                out.append((a, b, linalg.from_numerators(v, den), linalg.rounded([v], den)[0]))
        return tuple(out)

    def h_element(self, ad, tol=FLOAT_TOL) -> HElement:
        """Validate and wrap an adjoint matrix.

        The matrix must be a bracket automorphism, must preserve the
        subalgebra and must be invertible; the first two checks are exact for
        rational entries and use ``tol`` componentwise for float entries, and
        the third is one ``linalg.pivot_columns`` rank test for either kind.
        Rational entries are checked on the integer numerators N / delta that
        the element keeps; a matrix holding a float is kept as it is, over
        the float denominator 1.0.
        """
        n = self.algebra.dim
        h = HElement(ad)
        rows, den = h.numerators
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch("adjoint matrix must be square of the algebra dimension")
        if type(den) is float:
            self._check_numeric(rows, tol)
        else:
            self._check_exact(rows, den)
        if len(linalg.pivot_columns(list(zip(*rows)), n)) < n:
            raise DimensionMismatch(_SINGULAR)
        return h

    def _check_numeric(self, ad, tol):
        """``h_element``'s first two checks on a matrix holding a float, within ``tol``."""
        alg = self.algebra
        floats = all(type(x) is float for row in ad for x in row)
        cols = list(zip(*ad))
        for a, b, row, rounded in self._basis_brackets:
            lhs = linalg.mat_vec(ad, rounded if floats else row)
            rhs = alg.bracket(cols[a], cols[b])
            if not _close(lhs, rhs, tol):
                raise DimensionMismatch(
                    _NOT_AUTOMORPHISM.format(alg.basis_names[a], alg.basis_names[b]))
        for v in self.split.h_basis:
            image = self.split.project_n(linalg.mat_vec(ad, v))
            if not all(abs(x) <= tol for x in image):
                raise DimensionMismatch(_NOT_PRESERVED)

    def _check_exact(self, rows, den):
        """``h_element``'s first two checks on ad = rows / den, in integers.

        [ad X_a, ad X_b] = ad [X_a, X_b] is delta (N f_ab) = [N e_a, N e_b]
        on numerators (both sides times delta^2 D); the subalgebra is kept
        when the complement projector kills N v for each of its basis
        vectors v.
        """
        alg = self.algebra
        n = alg.dim
        brackets = alg._rows
        cols = list(zip(*rows))
        for a in range(n):
            for b in range(a + 1, n):
                lhs = [0] * n
                for c, f in brackets.get((a, b), ()):
                    for i, x in enumerate(cols[c]):
                        lhs[i] += den * f * x
                if lhs != alg._numerator_bracket(cols[a], cols[b]):
                    raise DimensionMismatch(
                        _NOT_AUTOMORPHISM.format(alg.basis_names[a], alg.basis_names[b]))
        pn = self.split._projector_forms["n"][0]
        for v in linalg.numerators(self.split.h_basis)[0]:
            if any(linalg.mat_vec(pn, linalg.mat_vec(rows, v))):
                raise DimensionMismatch(_NOT_PRESERVED)

    def identity_h(self) -> HElement:
        return HElement(linalg.identity(self.algebra.dim))

    def h_compose(self, h1: HElement, h2: HElement) -> HElement:
        """The product h1 h2: on exact elements, the product of the integer
        numerators, which the result keeps."""
        (r1, d1), (r2, d2) = h1.numerators, h2.numerators
        if type(d1) is float or type(d2) is float:
            return HElement(linalg.mat_mul(h1.ad, h2.ad))
        return HElement._from_numerators(linalg.mat_mul(r1, r2), d1 * d2)

    def h_inverse(self, h: HElement) -> HElement:
        rows, den = h.numerators
        if type(den) is float:
            return HElement(linalg.invert(h.ad))
        return HElement._from_numerators(*linalg.invert_numerators(rows, den))

    def ad_nil(self, h: HElement, a: NilTuple) -> NilTuple:
        """Slotwise adjoint action, reducing the top slot.

        Exact h and a run on integers: N times the numerators of every slot,
        reduced as ``_tuple_of`` reduces them, and the tuple it returns keeps
        the numerators.
        """
        rows, den = h.numerators
        slots, sden = a.numerators
        if type(den) is float or type(sden) is float:
            moved = [linalg.mat_vec(h.ad, v) for v in linalg.vectors_of((slots, sden))]
            return self._tuple_of(moved, 1.0)
        return self._tuple_of([linalg.mat_vec(rows, v) for v in slots], den * sden)

    # ----- full group law --------------------------------------------------

    def element(self, h: HElement, nil: NilTuple) -> GroupElement:
        return GroupElement(h, nil)

    def identity(self) -> GroupElement:
        return GroupElement(self.identity_h(), self.zero_nil())

    def mult(self, g1: GroupElement, g2: GroupElement) -> GroupElement:
        return GroupElement(
            self.h_compose(g1.h, g2.h),
            self.star(g1.nil, self.ad_nil(g1.h, g2.nil)))

    def inverse(self, g: GroupElement) -> GroupElement:
        hinv = self.h_inverse(g.h)
        return GroupElement(hinv, self.ad_nil(hinv, self.nil_negate(g.nil)))


# ---------------------------------------------------------------------------
# the rotation-group example at orders 0 and 1
# ---------------------------------------------------------------------------

@dataclass
class ExampleCheck:
    description: str
    passed: bool


@dataclass
class ExampleReport:
    order: int
    checks: list
    float_summary: dict = None

    @property
    def passed(self):
        ok = all(c.passed for c in self.checks)
        if self.float_summary is not None:
            ok = ok and self.float_summary["passed"]
        return ok

    def as_dict(self):
        out = {
            "order": self.order,
            "passed": self.passed,
            "checks": [{"description": c.description, "passed": c.passed}
                       for c in self.checks],
        }
        if self.float_summary is not None:
            out["float_mode"] = dict(self.float_summary)
        return out


QUARTER_TURN = (
    (Fraction(0), Fraction(-1), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def _rotation_ad(angle):
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


def _plane_compose(rot1, t1, rot2, t2):
    """Euclidean-plane composition (R, t) (R', t') = (R R', t + R t')."""
    return linalg.mat_mul(rot1, rot2), linalg.vec_add(t1, linalg.mat_vec(rot1, t2))


def _plane_block(ad):
    return tuple(tuple(row[:2]) for row in ad[:2])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def so3_example(order, seed=2024, float_samples=1000, rational_samples=100) -> ExampleReport:
    """Check the expansion group of the rotation algebra against closed forms.

    Order 0 compares group multiplication with direct Euclidean-plane
    composition: exactly at quarter turns, within ``FLOAT_TOL`` on float samples.
    Order 1 compares the star product with its cross-product closed form on
    random rational tuples.
    """
    from .catalog import builtin

    if order not in (0, 1):
        raise DimensionMismatch("the example is built for orders 0 and 1")
    alg, _ = builtin("so3")
    from .algebra import span_subalgebra

    split = span_subalgebra(alg, [alg.basis_vector(2)])
    grp = ExpansionGroup(split, order)
    rng = random.Random(seed)
    checks = []
    float_summary = None

    if order == 0:
        turns = [linalg.identity(3)]
        for _ in range(3):
            turns.append(linalg.mat_mul(QUARTER_TURN, turns[-1]))
        samples = [(1, 0, (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))]
        for _ in range(24):
            samples.append((
                rng.randrange(4), rng.randrange(4),
                (linalg.random_fraction(rng), linalg.random_fraction(rng)),
                (linalg.random_fraction(rng), linalg.random_fraction(rng))))
        for idx, (i1, i2, t1, t2) in enumerate(samples):
            h1 = grp.h_element(turns[i1])
            h2 = grp.h_element(turns[i2])
            g = grp.mult(
                grp.element(h1, grp.nil((), (*t1, Fraction(0)))),
                grp.element(h2, grp.nil((), (*t2, Fraction(0)))))
            rot, t = _plane_compose(_plane_block(turns[i1]), t1,
                                    _plane_block(turns[i2]), t2)
            ok = (_plane_block(g.h.ad) == rot and g.nil.top[:2] == t
                  and g.nil.top[2] == 0)
            checks.append(ExampleCheck(
                f"quarter-turn sample {idx}: group law matches plane composition", ok))
        max_dev = 0.0
        for _ in range(float_samples):
            a1, a2 = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            t1 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            t2 = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            h1 = grp.h_element(_rotation_ad(a1), tol=1e-9)
            h2 = grp.h_element(_rotation_ad(a2), tol=1e-9)
            g = grp.mult(
                grp.element(h1, grp.nil((), (*t1, 0.0))),
                grp.element(h2, grp.nil((), (*t2, 0.0))))
            rot, t = _plane_compose(_plane_block(h1.ad), t1, _plane_block(h2.ad), t2)
            for got, want in zip(g.nil.top[:2], t):
                max_dev = max(max_dev, abs(got - want))
            for row_got, row_want in zip(_plane_block(g.h.ad), rot):
                for got, want in zip(row_got, row_want):
                    max_dev = max(max_dev, abs(got - want))
        float_summary = {
            "samples": float_samples,
            "tolerance": repr(FLOAT_TOL),
            "max_deviation": repr(max_dev),
            "passed": max_dev <= FLOAT_TOL,
        }
    else:
        special = [
            ((Fraction(1), Fraction(0), Fraction(0)),
             (Fraction(0), Fraction(1), Fraction(0))),
            ((Fraction(0), Fraction(0), Fraction(1)),
             (Fraction(1), Fraction(0), Fraction(0))),
        ]
        cases = special + [
            (linalg.random_vector(rng, 3), linalg.random_vector(rng, 3))
            for _ in range(rational_samples)
        ]
        for idx, (v, v_hat) in enumerate(cases):
            w = (linalg.random_fraction(rng), linalg.random_fraction(rng), Fraction(0))
            w_hat = (linalg.random_fraction(rng), linalg.random_fraction(rng), Fraction(0))
            got = grp.star(grp.nil((v,), w), grp.nil((v_hat,), w_hat))
            half_cross = linalg.vec_scale(Fraction(1, 2), _cross(v, v_hat))
            want_top = (w[0] + w_hat[0] + half_cross[0],
                        w[1] + w_hat[1] + half_cross[1],
                        Fraction(0))
            ok = got.mids[0] == linalg.vec_add(v, v_hat) and got.top == want_top
            label = ("closed-form special case" if idx < len(special)
                     else "closed-form random sample")
            checks.append(ExampleCheck(f"{label} {idx}: star matches cross-product form", ok))
    return ExampleReport(order, checks, float_summary)
