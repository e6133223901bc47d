"""Built-in algebras with exact constants and faithful matrix models.

One table holds each catalogued algebra: its basis names, its brackets
(a, b, c, f) for [X_a, X_b] = f X_c, its defining matrices, its named proper
subalgebra spans and its canonical split, both as basis indices.  ``builtin``
builds the algebra and its representation from it; ``subalgebra_catalog``
and ``canonical_split_vectors`` read basis vectors off it and build neither.
"""

from __future__ import annotations

import re

from .algebra import LieAlgebra
from .errors import UnknownAlgebra
from . import linalg
from .oracle import Representation

BUILTIN_NAMES = ("so3", "sl2", "heis3", "iso2", "abelian(n)")

_ABELIAN = re.compile(r"abelian\((\d+)\)\Z")

# name: (basis names, brackets, defining matrices, named spans, canonical split or None)
_TABLE = {
    "so3": (("X1", "X2", "X3"),
            ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)),  # [X1, X2] = X3 and cyclic
            (((0, 0, 0), (0, 0, -1), (0, 1, 0)),
             ((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
             ((0, -1, 0), (1, 0, 0), (0, 0, 0))),
            {"span{X3}": (2,)}, (2,)),
    "sl2": (("H", "E", "F"),
            ((0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)),  # [H, E] = 2E, [H, F] = -2F, [E, F] = H
            (((1, 0), (0, -1)),
             ((0, 1), (0, 0)),
             ((0, 0), (1, 0))),
            {"span{H}": (0,), "span{E}": (1,), "span{H,E}": (0, 1)}, (0,)),
    "heis3": (("P", "Q", "Z"),
              ((0, 1, 2, 1),),  # [P, Q] = Z
              (((0, 1, 0), (0, 0, 0), (0, 0, 0)),
               ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
               ((0, 0, 1), (0, 0, 0), (0, 0, 0))),
              {"span{Z}": (2,), "span{P}": (0,), "span{P,Z}": (0, 2)}, (2,)),
    "iso2": (("Y1", "Y2", "Y3"),
             ((1, 2, 0, 1), (2, 0, 1, 1)),  # [Y2, Y3] = Y1, [Y3, Y1] = Y2
             (((0, 0, 1), (0, 0, 0), (0, 0, 0)),
              ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
              ((0, -1, 0), (1, 0, 0), (0, 0, 0))),
             {"span{Y3}": (2,), "span{Y1,Y2}": (0, 1)}, None),
}


def _entry(name):
    """The table row of ``name``; abelian(n), for 1 <= n <= 32, is made here."""
    match = _ABELIAN.match(name)
    if match:
        n = int(match.group(1))
        if not 1 <= n <= 32:
            raise UnknownAlgebra(f"abelian dimension {n} out of range")
        mats = tuple(tuple(tuple(int(i == j == a) for j in range(n)) for i in range(n))
                     for a in range(n))
        return tuple(f"A{i + 1}" for i in range(n)), (), mats, {"zero": ()}, None
    if name not in _TABLE:
        raise UnknownAlgebra(
            f"unknown algebra {name!r}; catalogue: {', '.join(BUILTIN_NAMES)}")
    return _TABLE[name]


def _vectors(names, indices):
    return [linalg.basis_vector(len(names), i) for i in indices]


def builtin(name):
    """Catalogued algebra plus its faithful matrix model."""
    names, brackets, mats, _, _ = _entry(name)
    alg = LieAlgebra.from_brackets(len(names), names, brackets)
    return alg, Representation(alg, mats)


def subalgebra_catalog(name):
    """Named proper subalgebra spans used by the verification sweeps."""
    names, _, _, spans, _ = _entry(name)
    return {label: _vectors(names, span) for label, span in spans.items()}


def canonical_split_vectors(name):
    """The subalgebra used in the worked examples for each catalogued algebra."""
    names, _, _, _, split = _entry(name)
    if split is None:
        raise UnknownAlgebra(f"no canonical split for {name!r}")
    return _vectors(names, split)
