import json
from fractions import Fraction

import pytest

from liecontract import formats
from liecontract.catalog import builtin
from liecontract.errors import SpecFormatError

F = Fraction


def test_parse_rational():
    assert formats.parse_rational("3/4") == F(3, 4)
    assert formats.parse_rational(" -2 ") == F(-2)
    assert formats.parse_rational(5) == F(5)
    with pytest.raises(SpecFormatError):
        formats.parse_rational("1/0")
    with pytest.raises(SpecFormatError):
        formats.parse_rational(0.5)
    with pytest.raises(SpecFormatError):
        formats.parse_rational(True)


def test_format_rational_always_explicit():
    assert formats.format_rational(F(2)) == "2/1"
    assert formats.format_rational(F(-1, 2)) == "-1/2"


def test_algebra_round_trip(tmp_path):
    for name in ("so3", "sl2", "heis3", "iso2"):
        alg = builtin(name)[0]
        path = tmp_path / f"{name}.alg"
        path.write_text(formats.machine_dumps(formats.algebra_to_dict(alg)))
        loaded = formats.load_algebra(path)
        assert loaded.structure == alg.structure
        assert loaded.basis_names == alg.basis_names


def test_antisymmetric_completion_on_load():
    data = {"dim": 3, "basis": ["P", "Q", "Z"], "brackets": [[1, 2, 3, "1"]]}
    alg = formats.algebra_from_dict(data)
    assert alg.structure[1][0][2] == F(-1)


def test_algebra_spec_diagnostics():
    with pytest.raises(SpecFormatError, match="missing field"):
        formats.algebra_from_dict({"dim": 2, "basis": ["a", "b"]})
    with pytest.raises(SpecFormatError, match="out of 1..2"):
        formats.algebra_from_dict(
            {"dim": 2, "basis": ["a", "b"], "brackets": [[1, 3, 1, "1"]]})
    with pytest.raises(SpecFormatError, match="unique"):
        formats.algebra_from_dict(
            {"dim": 2, "basis": ["a", "a"], "brackets": []})
    with pytest.raises(SpecFormatError, match="one name per dimension"):
        formats.algebra_from_dict(
            {"dim": 3, "basis": ["a", "b"], "brackets": []})


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.alg"
    path.write_text("{\n  \"dim\": 3,\n")
    with pytest.raises(SpecFormatError, match="line"):
        formats.load_algebra(path)


def test_subalgebra_and_family_files(tmp_path):
    sub = tmp_path / "h.sub"
    sub.write_text(json.dumps([["0", "0", "1"]]))
    vectors = formats.load_subalgebra(sub)
    assert vectors == [(F(0), F(0), F(1))]

    alg = builtin("so3")[0]
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps({"phis": [
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
    ]}))
    fam = formats.load_family(fam_path, alg)
    assert fam.degree == 1
    assert fam.phis[0][2][2] == F(1)


def test_representation_file(tmp_path):
    alg = builtin("heis3")[0]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({
        "P": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        "Q": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        "Z": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
    }))
    rep = formats.load_representation(path, alg)
    assert rep.check().ok
    path.write_text(json.dumps({"P": [["0"]]}))
    with pytest.raises(SpecFormatError, match="missing basis name"):
        formats.load_representation(path, alg)


def test_jet_literal():
    coeffs = formats.parse_jet_literal("[1,0,0; 0,1/2,0]", dim=3)
    assert coeffs == ((F(1), F(0), F(0)), (F(0), F(1, 2), F(0)))
    assert formats.parse_jet_literal("[]") == ()
    with pytest.raises(SpecFormatError):
        formats.parse_jet_literal("1,2,3")
    with pytest.raises(SpecFormatError):
        formats.parse_jet_literal("[1,2]", dim=3)


def test_tuple_and_matrix_literals():
    vs = formats.parse_tuple_literal("1,0,0; 0,1,0")
    assert vs == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    m = formats.parse_matrix_literal("0,-1,0; 1,0,0; 0,0,1")
    assert m[0] == (F(0), F(-1), F(0))
    with pytest.raises(SpecFormatError):
        formats.parse_matrix_literal("1,2; 3")
    with pytest.raises(SpecFormatError, match="has 2 rows, need 3"):
        formats.parse_matrix_literal("1,0,0; 0,1,0", 3)
    with pytest.raises(SpecFormatError):
        formats.parse_tuple_literal("  ")


def test_machine_dumps_deterministic():
    payload = {"b": [1, 2], "a": {"y": "2/1", "x": "1/2"}}
    assert formats.machine_dumps(payload) == formats.machine_dumps(
        json.loads(json.dumps(payload)))
