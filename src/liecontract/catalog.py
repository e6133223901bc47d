"""Built-in algebras with exact constants and faithful matrix models."""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import LieAlgebra
from .errors import UnknownAlgebra
from .oracle import Representation

BUILTIN_NAMES = ("so3", "sl2", "heis3", "iso2", "abelian(n)")

_ABELIAN = re.compile(r"abelian\((\d+)\)\Z")


def _so3():
    alg = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"), [
        (0, 1, 2, 1),   # [X1, X2] = X3
        (1, 2, 0, 1),   # [X2, X3] = X1
        (2, 0, 1, 1),   # [X3, X1] = X2
    ])
    rep = Representation(alg, (
        ((0, 0, 0), (0, 0, -1), (0, 1, 0)),
        ((0, 0, 1), (0, 0, 0), (-1, 0, 0)),
        ((0, -1, 0), (1, 0, 0), (0, 0, 0)),
    ))
    return alg, rep


def _sl2():
    alg = LieAlgebra.from_brackets(3, ("H", "E", "F"), [
        (0, 1, 1, 2),    # [H, E] = 2E
        (0, 2, 2, -2),   # [H, F] = -2F
        (1, 2, 0, 1),    # [E, F] = H
    ])
    rep = Representation(alg, (
        ((1, 0), (0, -1)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
    ))
    return alg, rep


def _heis3():
    alg = LieAlgebra.from_brackets(3, ("P", "Q", "Z"), [
        (0, 1, 2, 1),   # [P, Q] = Z
    ])
    rep = Representation(alg, (
        ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    ))
    return alg, rep


def _iso2():
    alg = LieAlgebra.from_brackets(3, ("Y1", "Y2", "Y3"), [
        (1, 2, 0, 1),   # [Y2, Y3] = Y1
        (2, 0, 1, 1),   # [Y3, Y1] = Y2
    ])
    rep = Representation(alg, (
        ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
        ((0, -1, 0), (1, 0, 0), (0, 0, 0)),
    ))
    return alg, rep


def _abelian(n):
    alg = LieAlgebra.from_brackets(n, tuple(f"A{i + 1}" for i in range(n)), [])
    mats = tuple(
        tuple(tuple(Fraction(int(i == j == a)) for j in range(n)) for i in range(n))
        for a in range(n))
    return alg, Representation(alg, mats)


def builtin(name):
    """Catalogued algebra plus its faithful matrix model."""
    match = _ABELIAN.match(name)
    if match:
        n = int(match.group(1))
        if not 1 <= n <= 32:
            raise UnknownAlgebra(f"abelian dimension {n} out of range")
        return _abelian(n)
    factories = {"so3": _so3, "sl2": _sl2, "heis3": _heis3, "iso2": _iso2}
    if name not in factories:
        raise UnknownAlgebra(
            f"unknown algebra {name!r}; catalogue: {', '.join(BUILTIN_NAMES)}")
    return factories[name]()


def subalgebra_catalog(name):
    """Named proper subalgebra spans used by the verification sweeps."""
    alg, _ = builtin(name)
    e = alg.basis_vector
    if name == "so3":
        return {"span{X3}": [e(2)]}
    if name == "sl2":
        return {
            "span{H}": [e(0)],
            "span{E}": [e(1)],
            "span{H,E}": [e(0), e(1)],
        }
    if name == "heis3":
        return {
            "span{Z}": [e(2)],
            "span{P}": [e(0)],
            "span{P,Z}": [e(0), e(2)],
        }
    if name == "iso2":
        return {"span{Y3}": [e(2)], "span{Y1,Y2}": [e(0), e(1)]}
    return {"zero": []}


def canonical_split_vectors(name):
    """The subalgebra used in the worked examples for each catalogued algebra."""
    alg, _ = builtin(name)
    picks = {"so3": [alg.basis_vector(2)],   # X3
             "sl2": [alg.basis_vector(0)],   # H
             "heis3": [alg.basis_vector(2)]}  # Z
    if name not in picks:
        raise UnknownAlgebra(f"no canonical split for {name!r}")
    return picks[name]
