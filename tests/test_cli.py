import json
import time

import pytest

from liecontract import bch, cli, formats, linalg
from liecontract.catalog import builtin
from liecontract.cli import MAX_TRIALS, main
from liecontract.errors import InternalInvariantViolation
from liecontract.expansion import IWExpansion

SO3 = {"dim": 3, "basis": ["X1", "X2", "X3"],
       "brackets": [[1, 2, 3, "1"], [2, 3, 1, "1"], [3, 1, 2, "1"]]}
BROKEN = {"dim": 3, "basis": ["X1", "X2", "X3"],
          "brackets": [[1, 2, 3, "1"], [2, 3, 1, "1"], [3, 1, 2, "1"]]}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "so3.alg").write_text(json.dumps(SO3))
    (tmp_path / "x3.sub").write_text(json.dumps([["0", "0", "1"]]))
    (tmp_path / "x1x2.sub").write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"]]))
    (tmp_path / "plane.fam").write_text(json.dumps({"phis": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],
    ]}))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_validate_ok(workdir, capsys):
    assert run(["validate", workdir / "so3.alg"]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_antisymmetry(tmp_path, capsys):
    # explicit mirror entries are stored as given, so the violation survives
    # loading and the validator prints the witness
    bad = {"dim": 3, "basis": ["X1", "X2", "X3"],
           "brackets": [[1, 2, 3, "1"], [2, 1, 3, "1"]]}
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(bad))
    assert run(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "antisymmetry at (1, 2, 3)" in out


def test_validate_broken_jacobi(tmp_path, capsys):
    bad = {"dim": 3, "basis": ["X1", "X2", "X3"],
           "brackets": [[1, 2, 3, "1"], [1, 3, 1, "1"]]}
    path = tmp_path / "bad.alg"
    path.write_text(json.dumps(bad))
    assert run(["validate", path]) == 1
    assert "jacobi" in capsys.readouterr().out


def test_validate_missing_file(tmp_path, capsys):
    assert run(["validate", tmp_path / "nope.alg"]) == 2


def test_contract_builtin_and_file(workdir, capsys):
    assert run(["contract", "so3", "--subalgebra", workdir / "x3.sub"]) == 0
    out_builtin = capsys.readouterr().out
    assert run(["contract", workdir / "so3.alg",
                "--subalgebra", workdir / "x3.sub"]) == 0
    assert capsys.readouterr().out == out_builtin
    assert "[X2, X3] = X1" in out_builtin


def test_contract_non_subalgebra_exits_1(workdir, capsys):
    assert run(["contract", "so3", "--subalgebra", workdir / "x1x2.sub"]) == 1
    assert "NotASubalgebra" in capsys.readouterr().err


def test_contract_forced_family_reports_pole(workdir, capsys):
    assert run(["--format", "machine", "contract", "so3",
                "--family", workdir / "plane.fam"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"]["name"] == "PoleError"
    assert payload["error"]["valuation"] == -1


def test_contract_machine_output_matches_builtin(workdir, capsys):
    assert run(["--format", "machine", "contract", "so3",
                "--subalgebra", workdir / "x3.sub", "--order", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    iso2 = builtin("iso2")[0]
    loaded = formats.algebra_from_dict(payload["algebra"])
    assert loaded.structure == iso2.structure
    rescaled = payload["report"]["eps_brackets"]["[X1,X2]"]
    assert rescaled[2] == ["0/1", "0/1", "1/1"]


def test_machine_output_is_byte_identical(workdir, capsys):
    args = ["--format", "machine", "verify", "--seed", "3", "--trials", "4"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_expand_emit_constants_round_trip(workdir, capsys):
    out_path = workdir / "expanded.alg"
    assert run(["expand", "so3", "--subalgebra", workdir / "x3.sub",
                "--order", "2", "--emit-constants", "--out", out_path]) == 0
    assert run(["validate", out_path]) == 0
    loaded = formats.load_algebra(out_path)
    assert loaded.dim == 9


def test_expand_out_write_failure_is_usage_error(workdir, capsys):
    assert run(["expand", "so3", "--subalgebra", workdir / "x3.sub", "--order", "1",
                "--emit-constants", "--out", workdir]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IsADirectoryError: ")
    assert captured.err.count("\n") == 1


def test_expand_builds_structure_algebra_once(workdir, monkeypatch, capsys):
    calls = []
    build = IWExpansion.structure_algebra

    def structure_algebra(self):
        calls.append(self.order)
        return build(self)

    monkeypatch.setattr(IWExpansion, "structure_algebra", structure_algebra)
    assert run(["expand", "so3", "--subalgebra", workdir / "x3.sub", "--order", "2"]) == 0
    assert calls == [2]


def test_expand_summary(workdir, capsys):
    assert run(["expand", "so3", "--subalgebra", workdir / "x3.sub",
                "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "dimension 6" in out and "jacobi: holds exactly" in out


def test_star_command(workdir, capsys):
    assert run(["star", "so3", "--subalgebra", workdir / "x3.sub",
                "--order", "1", "--a", "1,0,0; 0,1,0", "--b", "0,1,0; 0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "coefficient 1: X1 + X2" in out
    assert "coset representative: X2" in out


def test_star_wrong_arity_is_usage_error(workdir, capsys):
    assert run(["star", "so3", "--subalgebra", workdir / "x3.sub",
                "--order", "1", "--a", "1,0,0", "--b", "0,1,0"]) == 2


def test_group_mult_command(workdir, capsys):
    assert run(["--format", "machine", "group-mult", "so3",
                "--subalgebra", workdir / "x3.sub", "--order", "0",
                "--h1", "0,-1,0; 1,0,0; 0,0,1", "--a", "0,0,0",
                "--h2", "1,0,0; 0,1,0; 0,0,1", "--b", "1,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the quarter turn moves the first coset direction onto the second
    assert payload["report"]["nil"]["top"] == ["0/1", "1/1", "0/1"]


def test_group_mult_singular_matrix_is_rejected(workdir, capsys):
    assert run(["group-mult", "so3", "--subalgebra", workdir / "x3.sub", "--order", "0",
                "--h1", "0,0,0; 0,0,0; 0,0,0", "--a", "0,0,0",
                "--h2", "1,0,0; 0,1,0; 0,0,1", "--b", "1,0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "DimensionMismatch: adjoint matrix is singular\n"


def test_oracle_command(workdir, capsys):
    assert run(["oracle", "so3", "--order", "3", "--trials", "5",
                "--seed", "1"]) == 0
    assert "5 exact agreements" in capsys.readouterr().out


def test_oracle_with_rep_file(tmp_path, capsys):
    (tmp_path / "heis3.rep").write_text(json.dumps({
        "P": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        "Q": [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
        "Z": [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
    }))
    assert run(["oracle", "heis3", "--rep", tmp_path / "heis3.rep",
                "--order", "2", "--trials", "4", "--seed", "2"]) == 0


def test_oracle_rep_above_the_size_cap_is_a_usage_error(tmp_path, capsys):
    # 33 x 33 matrices: one above MAX_DIM, the adjoint size of the largest algebra
    block = [["0"] * 33 for _ in range(33)]
    (tmp_path / "big.rep").write_text(json.dumps({"X1": block, "X2": block, "X3": block}))
    assert run(["oracle", "so3", "--rep", tmp_path / "big.rep", "--order", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("SpecFormatError: representation spec: representation "
                            "matrices must be at most 32 x 32\n")


def test_oracle_explicit_jets(capsys):
    assert run(["--format", "machine", "oracle", "heis3", "--order", "2",
                "--p", "[0,0,0; 1,0,0]", "--q", "[0,0,0; 0,1,0]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["mismatches"] == 0
    # eps*(P+Q) + eps^2 * Z/2
    assert payload["report"]["product"] == [
        ["0/1", "0/1", "0/1"], ["1/1", "1/1", "0/1"], ["0/1", "0/1", "1/2"]]
    assert run(["oracle", "heis3", "--order", "2", "--p", "[0,0,0; 1,0,0]"]) == 2


def test_order_cap_flag(tmp_path, capsys):
    (tmp_path / "ab.alg").write_text(json.dumps(
        {"dim": 2, "basis": ["A1", "A2"], "brackets": []}))
    (tmp_path / "zero.sub").write_text(json.dumps([]))
    tuple_lit = "; ".join(["1,0"] * 7)
    base = ["star", tmp_path / "ab.alg", "--subalgebra", tmp_path / "zero.sub",
            "--order", "6", "--a", tuple_lit, "--b", tuple_lit]
    assert run(base) == 1  # order 7 exceeds the default cap of 6
    assert "OrderCapExceeded" in capsys.readouterr().err
    assert run(["--order-cap", "8"] + base) == 0


def test_oracle_order_above_cap_fails_before_drawing(monkeypatch, capsys):
    drawn = []
    draw = linalg.random_vector

    def random_vector(*args):
        drawn.append(args)
        return draw(*args)

    monkeypatch.setattr(linalg, "random_vector", random_vector)
    start = time.perf_counter()
    assert run(["oracle", "so3", "--order", "20000", "--trials", "25"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "OrderCapExceeded: order 20000 exceeds cap 6\n"
    assert drawn == []
    assert run(["oracle", "so3", "--order", "2", "--trials", "1"]) == 0
    assert len(drawn) == 4


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_oracle_order_0_is_a_usage_error(fmt, capsys):
    assert run(["--format", fmt, "oracle", "so3", "--order", "0", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle order must be at least 1\n"


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_oracle_jet_with_a_constant_term_is_a_usage_error(fmt, monkeypatch, capsys):
    """A --p or --q literal must vanish at 0; one that does not is refused
    before either local multiplication runs."""
    from liecontract.oracle import Representation

    calls = []
    monkeypatch.setattr(bch, "local_mult", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(Representation, "local_mult", lambda *args: calls.append(args))
    for flag, p, q in (("--p", "[1,0,0;0,1,0]", "[0,0,0;1,0,0]"),
                       ("--q", "[0,0,0;0,1,0]", "[0,0,1]")):
        assert run(["--format", fmt, "oracle", "so3", "--order", "2",
                    "--p", p, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"SpecFormatError: {flag} must vanish at 0: its constant term is nonzero\n")
    assert calls == []


def test_example_command(capsys):
    assert run(["example", "so3", "--order", "1"]) == 0
    assert "example passed" in capsys.readouterr().out
    assert run(["example", "sl2", "--order", "0"]) == 2


def test_verify_command(capsys):
    assert run(["verify", "--seed", "5", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out


def test_unknown_algebra_is_usage_error(capsys):
    assert run(["contract", "nope", "--subalgebra", "also-nope"]) == 2


def test_usage_error_exit_code():
    assert run(["contract"]) == 2


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise InternalInvariantViolation("identity failed")

    monkeypatch.setitem(cli.HANDLERS, "verify", broken)
    for fmt in ("text", "machine"):
        assert run(["--format", fmt, "verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "InternalInvariantViolation: identity failed\n"


@pytest.mark.parametrize("args", [
    ["contract", "so3", "--subalgebra", "x3.sub", "--order", "3000000"],
    ["contract", "so3", "--subalgebra", "x3.sub", "--order", "33"],
    ["expand", "so3", "--subalgebra", "x3.sub", "--order", "3000000"],
    ["expand", "so3", "--subalgebra", "x3.sub", "--order", "32"],
    ["expand", "so3.alg", "--subalgebra", "x3.sub", "--order", "10", "--emit-constants"],
    ["oracle", "so3", "--order", "2", "--trials", "10000000"],
    ["verify", "--trials", str(MAX_TRIALS + 1)],
    ["--order-cap", "0", "oracle", "so3", "--order", "1", "--trials", "1"],
    ["--order-cap", str(bch.MAX_ORDER_CAP + 1), "oracle", "so3", "--order", "1", "--trials", "1"],
])
def test_oversized_order_and_trials_are_usage_errors(workdir, capsys, args):
    args = [workdir / a if a.endswith((".sub", ".alg")) else a for a in args]
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("args", [
    ["star", "so3", "--subalgebra", "x3.sub", "--order", "0",
     "--a", "1e10000000,0,0", "--b", "0,0,0"],
    ["star", "so3", "--subalgebra", "x3.sub", "--order", "0",
     "--a", "1" * (formats.MAX_LITERAL_LENGTH + 1) + ",0,0", "--b", "0,0,0"],
    ["group-mult", "so3", "--subalgebra", "x3.sub", "--order", "0",
     "--h1", "1e-1_000_000,0,0; 0,1,0; 0,0,1", "--a", "0,0,0",
     "--h2", "1,0,0; 0,1,0; 0,0,1", "--b", "0,0,0"],
    ["validate", "huge.alg"],
    *[[*fmt, "group-mult", "so3", "--subalgebra", "x3.sub", "--order", "0",
       "--h1", "1,0,0; 0,1,0", "--a", "0,0,0", "--h2", "1,0,0; 0,1,0; 0,0,1", "--b", "0,0,0"]
      for fmt in ([], ["--format", "machine"])],
])
def test_oversized_rational_literals_are_usage_errors(workdir, capsys, args):
    huge = dict(SO3, brackets=[[1, 2, 3, "1E+10000000"]] + SO3["brackets"][1:])
    (workdir / "huge.alg").write_text(json.dumps(huge))
    args = [workdir / a if a.endswith((".sub", ".alg")) else a for a in args]
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("SpecFormatError: ")


RAGGED_REP = {"X1": [["0", "0", "0"], ["0", "0", "-1"], ["0", "1", "0"]],
              "X2": [["0", "1"], ["-1", "0"]],
              "X3": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]}


@pytest.mark.parametrize("name, spec, args", [
    ("bad.alg", {"dim": 3, "basis": ["X1", "X2", "X3"], "brackets": 5}, ["validate"]),
    ("long.sub", [["0", "0", "0", "1"]], ["contract", "so3", "--subalgebra"]),
    ("small.fam", {"phis": [[["1", "0"], ["0", "1"]]]}, ["contract", "so3", "--family"]),
    ("scalar.fam", {"phis": 5}, ["contract", "so3", "--family"]),
    ("empty.fam", {"phis": []}, ["contract", "so3", "--family"]),
    ("ragged.rep", RAGGED_REP, ["oracle", "so3", "--order", "2", "--rep"]),
    ("empty.rep", {"X1": [], "X2": [], "X3": []}, ["oracle", "so3", "--order", "2", "--rep"]),
    pytest.param("bad.json", b"\xff\xfe", ["validate"], id="bad.json-spec7-args7"),
    pytest.param("huge.alg", b'{"dim": 1, "basis": ["A"], "brackets": [[1, 1, 1, ' + b"1" * 5000
                 + b"]]}", ["validate"], id="huge.alg"),
])
def test_malformed_spec_files_are_usage_errors(tmp_path, capsys, name, spec, args):
    path = tmp_path / name
    path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
    assert run(args + [path]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("SpecFormatError: ")
    assert "Traceback" not in captured.err
