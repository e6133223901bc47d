import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liecontract import bch, cli, formats, linalg, verify
from liecontract.algebra import LieAlgebra, ValidationReport, Violation
from liecontract.catalog import builtin
from liecontract.cli import MAX_TRIALS, main
from liecontract.errors import InternalInvariantViolation, PoleError
from liecontract.expansion import GeneralExpansion, IWExpansion
from liecontract.group import ExpansionGroup
from liecontract.oracle import Representation

SO3 = {"dim": 3, "basis": ["X1", "X2", "X3"],
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


def test_oracle_explicit_jets(monkeypatch, capsys):
    original = bch.local_mult
    assert run(["--format", "machine", "oracle", "heis3", "--order", "2",
                "--p", "[0,0,0; 1,0,0]", "--q", "[0,0,0; 0,1,0]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["mismatches"] == 0
    # eps*(P+Q) + eps^2 * Z/2
    assert payload["report"]["product"] == [
        ["0/1", "0/1", "0/1"], ["1/1", "1/1", "0/1"], ["0/1", "0/1", "1/2"]]
    assert run(["oracle", "heis3", "--order", "2", "--p", "[0,0,0; 1,0,0]"]) == 2
    # a BCH route that swaps its factors gives -Z/2 at eps^2: one mismatch
    monkeypatch.setattr(bch, "local_mult", lambda alg, p, q, order, cap: original(alg, q, p, order))
    capsys.readouterr()
    assert run(["oracle", "heis3", "--order", "2",
                "--p", "[0,0,0; 1,0,0]", "--q", "[0,0,0; 0,1,0]"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "1 trials at order 2: 0 exact agreements, 1 mismatches")


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


@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_oracle_jet_literal_past_the_order_is_a_usage_error(fmt, monkeypatch, capsys):
    """A --p or --q literal with more than order + 1 vectors is refused, not
    cut at the order, before either local multiplication runs."""
    from liecontract.oracle import Representation

    calls = []
    monkeypatch.setattr(bch, "local_mult", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(Representation, "local_mult", lambda *args: calls.append(args))
    for order, p, q, err in (
            ("1", "[0,0,0;1,0,0;0,1,0;0,0,1]", "[0,0,0;0,1,0]", "--p has 4 vectors; order 1"),
            ("1", "[0,0,0;1,0,0]", "[0,0,0;0,1,0;0,0,0]", "--q has 3 vectors; order 1"),
            ("2", "[0,0,0;1,0,0;0,0,0;0,0,1]", "[0,0,0]", "--p has 4 vectors; order 2")):
        assert run(["--format", fmt, "oracle", "so3", "--order", order, "--p", p, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        trunc = int(order) + 1
        assert captured.err == f"SpecFormatError: {err} takes at most {trunc}\n"
    assert calls == []
    # order + 1 vectors, the last one zero, are accepted
    monkeypatch.undo()
    assert run(["--format", fmt, "oracle", "so3", "--order", "2",
                "--p", "[0,0,0;1,0,0;0,0,0]", "--q", "[0,0,0;0,1,0]"]) == 0


def test_example_command(capsys):
    assert run(["example", "so3", "--order", "1"]) == 0
    assert "example passed" in capsys.readouterr().out
    assert run(["example", "sl2", "--order", "0"]) == 2


def test_verify_command(capsys):
    assert run(["verify", "--seed", "5", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out


def within(check, original, broken):
    """``original``, except that a call made directly from ``run_verify``'s
    inner function ``check`` returns ``broken(original, *args)``."""
    def patched(*args, **kwargs):
        if sys._getframe(1).f_code.co_name == check:
            return broken(original, *args, **kwargs)
        return original(*args, **kwargs)
    return patched


def failed_report(original, *args):
    return ValidationReport(1, [Violation("jacobi", (0, 1, 2), "1")])


def raise_pole(original, *args):
    raise PoleError("pole", -2, 0)


# [X1, X2] = X3, [X1, X3] = X1 breaks the Jacobi identity, so it is no limit either
NOT_LIE = LieAlgebra.from_brackets(3, ("X1", "X2", "X3"), [(0, 1, 2, 1), (0, 2, 0, 1)])

# the check's reported name, its inner function, the (owner, name) patched
# within it, what the patched call returns, and the detail the check reports
VERIFY_BREAKS = {
    "validate": (
        "catalogued algebras and representations are valid", "algebras_valid",
        (LieAlgebra, "validate"), failed_report,
        "so3, sl2, heis3, iso2, abelian(4)"),
    "representation": (
        "catalogued algebras and representations are valid", "algebras_valid",
        (Representation, "check"), failed_report,
        "so3 (representation), sl2 (representation), heis3 (representation), "
        "iso2 (representation), abelian(4) (representation)"),
    "contraction": (
        "rotation algebra contracts to the plane-motion algebra", "contraction_matches",
        (verify, "contract"), lambda original, fam: fam.algebra, "[X1, X2]"),
    "closed-form": (
        "limit tensor agrees with the closed form on every catalogued split",
        "closed_form_agrees", (verify, "iw_contract_closed_form"),
        lambda original, split: NOT_LIE,
        "so3/span{X3}, sl2/span{H}, sl2/span{E}, sl2/span{H,E}, "
        "heis3/span{Z}, heis3/span{P}, heis3/span{P,Z}"),
    "rescaled": (
        "rescaled bracket relations of the rotation algebra", "rescaled_relations",
        (verify, "eps_bracket"), lambda original, fam, x, y, order: original(fam, y, x, order),
        "[X1, X2], [X2, X3], [X3, X1]"),
    "order-zero": (
        "order-0 expansion is isomorphic to the contraction", "order_zero_isomorphism",
        (IWExpansion, "from_contraction"),
        lambda original, ea, x: original(ea, linalg.vec_scale(2, x)), "so3, sl2, heis3"),
    "jacobi": (
        "expanded algebras satisfy the Jacobi identity (orders 0..2)", "expanded_jacobi",
        (IWExpansion, "structure_algebra"), lambda original, ea: NOT_LIE,
        ", ".join(f"{alg}/{label}/k={k}" for alg, labels in (
            ("so3", ["span{X3}"]), ("sl2", ["span{H}", "span{E}", "span{H,E}"]),
            ("heis3", ["span{Z}", "span{P}", "span{P,Z}"]))
            for label in labels for k in range(3))),
    "star": (
        "order-1 star product matches its closed form", "star_closed_form",
        (ExpansionGroup, "star"), lambda original, grp, a, b: original(grp, a, a),
        "so3, sl2, heis3"),
    "associativity": (
        "star product is associative with inverses (orders 0..2)", "group_axioms",
        (ExpansionGroup, "star"),
        lambda original, grp, a, b: original(grp, a, original(grp, b, b)),
        ", ".join(f"{alg}/k={k}/associativity"
                  for alg in ("so3", "sl2", "heis3") for k in range(3))),
    "inverse": (
        "star product is associative with inverses (orders 0..2)", "group_axioms",
        (ExpansionGroup, "nil_negate"), lambda original, grp, a: a,
        ", ".join(f"{alg}/k={k}/inverse" for alg in ("so3", "sl2", "heis3") for k in range(3))),
    "oracle": (
        "BCH product equals the matrix-model oracle", "oracle_equality",
        (verify, "local_mult"), lambda original, alg, p, q, order: original(alg, q, p, order),
        "so3/order=2, so3/order=3, heis3/order=2, heis3/order=3"),
    "non-subalgebra": (
        "non-subalgebra split is rejected and poles are detected", "pole_detection",
        (verify, "span_subalgebra"), lambda original, alg, vectors: None,
        "split construction accepted a non-subalgebra"),
    "no-pole": (
        "non-subalgebra split is rejected and poles are detected", "pole_detection",
        (verify, "contract"), lambda original, fam: fam.algebra, "no pole raised"),
    "valuation": (
        "non-subalgebra split is rejected and poles are detected", "pole_detection",
        (verify, "contract"), raise_pole, "valuation -2"),
    "cross": (
        "general-family bracket transports onto the split-coordinate bracket",
        "cross_construction", (GeneralExpansion, "bracket_tuples"),
        lambda original, gen, xs, ys: tuple(xs),
        ", ".join(f"{alg}/k={k}" for alg in ("so3", "sl2", "heis3") for k in range(3))),
    "raises": (
        "rescaled bracket relations of the rotation algebra", "rescaled_relations",
        (verify, "eps_bracket"), lambda original, fam, x, y, order: 1 // 0,
        "raised ZeroDivisionError: integer division or modulo by zero"),
}


@pytest.mark.parametrize("case", list(VERIFY_BREAKS))
def test_verify_reports_a_broken_identity(monkeypatch, capsys, case):
    """With one library call broken inside one check, that check alone fails
    with its detail; a check that raises reports the error and the battery
    runs on.  The text report shows the detail after the failed check's name."""
    name, check, (owner, attr), broken, detail = VERIFY_BREAKS[case]
    monkeypatch.setattr(owner, attr, within(check, getattr(owner, attr), broken))
    results = verify.run_verify(seed=5, trials=4)
    assert len(results) == 11
    assert [(r.name, r.detail) for r in results if not r.passed] == [(name, detail)]
    assert run(["verify", "--seed", "5", "--trials", "4"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert failed == [f"FAIL {name} ({detail})"]


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
    # below the range: a negative order, no trials
    ["contract", "so3", "--subalgebra", "x3.sub", "--order", "-1"],
    ["expand", "so3", "--subalgebra", "x3.sub", "--order", "-2"],
    ["verify", "--trials", "0"],
    ["oracle", "so3", "--order", "2", "--trials", "0"],
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


def test_cli_imports_only_the_standard_library():
    """``import liecontract.cli`` and every other submodule of the package, in a
    fresh interpreter, loads no module from outside the standard library and
    the package.  Only the modules that appear with the imports count: site
    hooks may load others before them."""
    code = ("import importlib, pkgutil, sys; before = set(sys.modules); "
            "import liecontract.cli, liecontract; "
            "[importlib.import_module('liecontract.' + m.name) "
            "for m in pkgutil.iter_modules(liecontract.__path__)]; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "liecontract.cli" in loaded
    assert "liecontract.verify" in loaded
    foreign = [name for name in loaded
               if name.partition(".")[0] not in sys.stdlib_module_names | {"liecontract"}]
    assert foreign == []


# the package's submodules
LIBRARY = {"algebra", "bch", "catalog", "cli", "contraction", "errors", "expansion",
           "formats", "group", "jets", "linalg", "oracle", "verify"}


# command -> (its arguments on the golden spec files, modules it must not load)
COMMAND_MODULES = {
    "validate": (["so5.json"],
                 {"catalog", "contraction", "expansion", "group", "oracle", "verify"}),
    "contract": (["so3", "--subalgebra", "so3-x3.json", "--order", "1"],
                 {"expansion", "group", "verify"}),
    "star": (["so3", "--subalgebra", "so3-x3.json", "--order", "1",
              "--a=1,0,0;0,0,1", "--b=0,1,0;0,0,1"],
             {"contraction", "expansion", "verify"}),
    "group-mult": (["so3", "--subalgebra", "so3-x3.json", "--order", "1",
                    "--h1=1,0,0;0,1,0;0,0,1", "--a=1,0,0;0,0,1",
                    "--h2=1,0,0;0,1,0;0,0,1", "--b=0,1,0;0,0,1"],
                   {"contraction", "expansion", "verify"}),
    "oracle": (["so3", "--order", "3", "--trials", "2"],
               {"contraction", "expansion", "group", "verify"}),
    "verify": (["--trials", "1"], set()),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_each_command_loads_only_the_modules_it_runs(command):
    """A command run in a fresh interpreter on the golden spec files exits 0
    and loads none of the library modules its work does not need; ``verify``,
    which runs everything, loads every module."""
    args, absent = COMMAND_MODULES[command]
    code = ("import sys; from liecontract.cli import main; code = main(sys.argv[1:]); "
            "print(' '.join(n for n in sys.modules if n.startswith('liecontract')), "
            "file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, command, *args], env=env,
                          capture_output=True, text=True, cwd=Path(__file__).parent / "golden")
    assert done.returncode == 0, done.stderr
    loaded = {name.partition(".")[2] for name in done.stderr.split()} - {""}
    assert loaded <= LIBRARY
    assert loaded & absent == set()
    if command == "verify":
        assert loaded == LIBRARY
