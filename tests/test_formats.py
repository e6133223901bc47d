import json
from fractions import Fraction

import pytest

from liecontract import formats
from liecontract.algebra import LieAlgebra
from liecontract.catalog import builtin
from liecontract.cli import main
from liecontract.errors import SpecFormatError

F = Fraction
SO3 = {"dim": 3, "basis": ["X1", "X2", "X3"],
       "brackets": [[1, 2, 3, "1"], [2, 3, 1, "1"], [3, 1, 2, "1"]]}


def with_bracket(entry):
    """A two-dimensional algebra spec whose one bracket entry is ``entry``."""
    return {"dim": 2, "basis": ["a", "b"], "brackets": [entry]}


# a spec file, the command run with the file's path last, and its SpecFormatError message
SPEC_REFUSALS = {
    "algebra-not-object": ([1, 2], ["validate"], "algebra spec must be a JSON object"),
    "dim-bool": ({"dim": True, "basis": ["a"], "brackets": []}, ["validate"],
                 "field 'dim' must be an integer in 1..32"),
    "dim-above-cap": ({"dim": 33, "basis": [f"a{i}" for i in range(33)], "brackets": []},
                      ["validate"], "field 'dim' must be an integer in 1..32"),
    "bracket-entry-shape": (with_bracket([1, 2, 2]), ["validate"],
                            "brackets[0] must be [a, b, c, coeff]"),
    "bracket-index-bool": (with_bracket([True, 2, 2, "1"]), ["validate"],
                           "brackets[0]: index a=True out of 1..2"),
    "bracket-diagonal": (with_bracket([1, 1, 2, "1"]), ["validate"],
                         "inconsistent bracket entries: diagonal bracket entry (0,0,1)"),
    "literal-exponent": (with_bracket([1, 2, 2, "1e10000000"]), ["validate"],
                         "bad rational literal '1e10000000': exponent outside -1000..1000"),
    "literal-length": (with_bracket([1, 2, 2, "1" * 1001]), ["validate"],
                       "rational literal of 1001 characters is longer than 1000"),
    "literal-invalid": (with_bracket([1, 2, 2, " x"]), ["validate"],
                        "bad rational literal ' x': Invalid literal for Fraction: 'x'"),
    "subalgebra-not-list": ({"v": [0, 0, 1]}, ["contract", "so3", "--subalgebra"],
                            "subalgebra spec must be a JSON list of coefficient vectors"),
    "subalgebra-row": ([5], ["contract", "so3", "--subalgebra"],
                       "subalgebra spec[0] must be a list of rationals"),
    "family-ragged": ({"phis": [[["1", "0", "0"], ["0"], ["0", "0", "1"]]]},
                      ["contract", "so3", "--family"], "phis[0] is ragged"),
    "family-not-object": ([1], ["contract", "so3", "--family"],
                          "family spec must be an object with field 'phis'"),
    "representation-not-object": ([1], ["oracle", "so3", "--order", "1", "--rep"],
                                  "representation spec must map basis names to matrices"),
    "oracle-without-rep": (SO3, ["oracle", "--order", "1"],
                           "no representation available; pass --rep"),
}


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


@pytest.mark.parametrize("name", list(SPEC_REFUSALS))
def test_spec_files_are_refused_with_their_message(tmp_path, capsys, name):
    spec, args, message = SPEC_REFUSALS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main([*args, str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"SpecFormatError: {message}\n")


def test_a_library_fault_in_an_algebra_file_exits_3(tmp_path, monkeypatch, capsys):
    """Only a DimensionMismatch of the bracket entries is a spec error."""
    def broken(*args):
        raise ZeroDivisionError("broken")

    monkeypatch.setattr(LieAlgebra, "from_brackets", broken)
    path = tmp_path / "so3.alg"
    path.write_text(json.dumps(SO3))
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err == "ZeroDivisionError: broken\n"


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
