"""File formats and CLI literals.

Algebra files are JSON with fields ``dim``, ``basis`` and sparse ``brackets``
entries ``[a, b, c, "p/q"]`` (one-based indices, only a < b required; the
antisymmetric completion is applied on load).  Subalgebra files are JSON
lists of rational coefficient vectors, family files carry ``{"phis":
[matrix, ...]}``, representation files map basis names to square matrices.
A file whose shapes do not fit the algebra is a SpecFormatError.
Machine-readable output always serializes rationals as "p/q" strings and is
byte-stable for fixed inputs.  A rational literal, in a file or on the
command line, is at most ``MAX_LITERAL_LENGTH`` characters long and its
decimal exponent is at most ``MAX_EXPONENT`` in absolute value, because
parsing "1e10000000" alone takes seconds.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .algebra import LieAlgebra, span_subalgebra
from .contraction import ContractionFamily
from .errors import DimensionMismatch, SpecFormatError
from .oracle import Representation


MAX_LITERAL_LENGTH = 1000
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def parse_rational(value):
    if isinstance(value, bool):
        raise SpecFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_LITERAL_LENGTH:
            raise SpecFormatError(
                f"rational literal of {len(value)} characters is longer than {MAX_LITERAL_LENGTH}")
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
            raise SpecFormatError(f"bad rational literal {value!r}: "
                                  f"exponent outside -{MAX_EXPONENT}..{MAX_EXPONENT}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            raise SpecFormatError(f"bad rational literal {value!r}: {err}") from None
    raise SpecFormatError(f"not a rational: {value!r} (floats are not accepted)")


def format_rational(value):
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise FileNotFoundError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise SpecFormatError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from None
    except UnicodeDecodeError as err:
        raise SpecFormatError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    except ValueError as err:  # an integer too long to convert
        raise SpecFormatError(f"{path}: {err}") from None


def algebra_from_dict(data):
    if not isinstance(data, dict):
        raise SpecFormatError("algebra spec must be a JSON object")
    try:
        dim = data["dim"]
        basis = data["basis"]
        brackets = data["brackets"]
    except KeyError as err:
        raise SpecFormatError(f"algebra spec missing field {err}") from None
    if not isinstance(dim, int) or dim < 1:
        raise SpecFormatError("field 'dim' must be a positive integer")
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise SpecFormatError("field 'basis' must list one name per dimension")
    if len(set(basis)) != dim:
        raise SpecFormatError("basis names must be unique")
    if not isinstance(brackets, list):
        raise SpecFormatError("field 'brackets' must be a list of [a, b, c, coeff] entries")
    entries = []
    for idx, entry in enumerate(brackets):
        if not isinstance(entry, list) or len(entry) != 4:
            raise SpecFormatError(f"brackets[{idx}] must be [a, b, c, coeff]")
        a, b, c, coeff = entry
        for label, value in (("a", a), ("b", b), ("c", c)):
            if not isinstance(value, int) or not 1 <= value <= dim:
                raise SpecFormatError(
                    f"brackets[{idx}]: index {label}={value!r} out of 1..{dim}")
        entries.append((a - 1, b - 1, c - 1, parse_rational(coeff)))
    try:
        return LieAlgebra.from_brackets(dim, tuple(basis), entries)
    except Exception as err:
        raise SpecFormatError(f"inconsistent bracket entries: {err}") from None


def algebra_to_dict(alg):
    """The nonzero f[a][b][c], a < b, read off the algebra's integer table."""
    den, rows = alg._table
    brackets = [[a + 1, b + 1, c + 1, format_rational(Fraction(x, den))]
                for a, b, row in rows for c, x in row]
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def load_algebra(path):
    return algebra_from_dict(_load_json(path))


def _vector_list(data, what):
    if not isinstance(data, list):
        raise SpecFormatError(f"{what} must be a JSON list of coefficient vectors")
    out = []
    for idx, row in enumerate(data):
        if not isinstance(row, list):
            raise SpecFormatError(f"{what}[{idx}] must be a list of rationals")
        out.append(tuple(parse_rational(x) for x in row))
    return out


def load_subalgebra(path):
    return _vector_list(_load_json(path), "subalgebra spec")


def load_split(path, alg):
    """Split ``alg`` along the span of the vectors in a subalgebra file."""
    vectors = load_subalgebra(path)
    try:
        return span_subalgebra(alg, vectors)
    except DimensionMismatch as err:
        raise SpecFormatError(f"subalgebra spec: {err}") from None


def _matrix_from(data, what):
    rows = _vector_list(data, what)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise SpecFormatError(f"{what} is ragged")
    return tuple(rows)


def load_family(path, alg):
    data = _load_json(path)
    if not isinstance(data, dict) or "phis" not in data:
        raise SpecFormatError("family spec must be an object with field 'phis'")
    if not isinstance(data["phis"], list):
        raise SpecFormatError("field 'phis' must be a list of matrices")
    phis = [_matrix_from(m, f"phis[{i}]") for i, m in enumerate(data["phis"])]
    try:
        return ContractionFamily(alg, tuple(phis))
    except DimensionMismatch as err:
        raise SpecFormatError(f"family spec: {err}") from None


def load_representation(path, alg):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecFormatError("representation spec must map basis names to matrices")
    mats = []
    for name in alg.basis_names:
        if name not in data:
            raise SpecFormatError(f"representation spec missing basis name {name!r}")
        mats.append(_matrix_from(data[name], f"matrix for {name}"))
    try:
        return Representation(alg, tuple(mats))
    except DimensionMismatch as err:
        raise SpecFormatError(f"representation spec: {err}") from None


def parse_vector_literal(text, dim=None):
    vec = tuple(parse_rational(part) for part in text.split(","))
    if dim is not None and len(vec) != dim:
        raise SpecFormatError(f"vector literal {text!r} has {len(vec)} entries, need {dim}")
    return vec


def parse_jet_literal(text, dim=None):
    """Jet literal "[v0; v1; ...]": vectors by increasing parameter power."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise SpecFormatError("jet literal must be wrapped in brackets")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    return tuple(parse_vector_literal(part, dim) for part in inner.split(";"))


def parse_tuple_literal(text, dim=None):
    """Semicolon-separated vectors; the last one is the coset representative."""
    parts = [part for part in text.split(";") if part.strip()]
    if not parts:
        raise SpecFormatError("empty tuple literal")
    return tuple(parse_vector_literal(part, dim) for part in parts)


def parse_matrix_literal(text, dim=None):
    rows = parse_tuple_literal(text, dim)
    if any(len(r) != len(rows[0]) for r in rows):
        raise SpecFormatError("matrix literal is ragged")
    if dim is not None and len(rows) != dim:
        raise SpecFormatError(f"matrix literal {text!r} has {len(rows)} rows, need {dim}")
    return rows


def vector_to_strings(v):
    return [format_rational(x) for x in v]


def machine_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)
