"""CLI output, pinned byte for byte against a recorded file.

Each case runs ``main`` in-process on the spec files in tests/golden and
compares its exit code, stdout and stderr with tests/golden/cli.json.  A case
runs in machine format unless its argv starts with its own ``--format``.  After
a deliberate change of the output, record the file again with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review its diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from liecontract.cli import entrypoint, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    **{f"contract-{alg}-order{k}": ["contract", alg, "--subalgebra", sub, "--order", str(k)]
       for alg, sub in (("so3", "so3-x3.json"), ("sl2", "sl2-h.json"),
                        ("heis3", "heis3-z.json"))
       for k in (1, 2, 3)},
    "contract-so5": ["contract", "so5.json", "--subalgebra", "so5-so4.json"],
    "contract-so5-order2": ["contract", "so5.json", "--subalgebra", "so5-so4.json",
                            "--order", "2"],
    "contract-heis3-weighted-order3": ["contract", "heis3", "--family", "heis3-weighted.json",
                                       "--order", "3"],
    # past the two bracket coefficients an order-0 limit reads
    "contract-so5-order4": ["contract", "so5.json", "--subalgebra", "so5-so4.json",
                            "--order", "4"],
    "contract-heis3-weighted-order4": ["contract", "heis3", "--family", "heis3-weighted.json",
                                       "--order", "4"],
    **{f"contract-{alg.removesuffix('.json')}-text": ["--format", "text", "contract", alg, *rest]
       for alg, rest in (("so3", ["--subalgebra", "so3-x3.json", "--order", "2"]),
                         ("heis3", ["--subalgebra", "heis3-z.json"]),
                         ("so5.json", ["--subalgebra", "so5-so4.json", "--order", "1"]))},
    "contract-heis3-weighted-text": ["--format", "text", "contract", "heis3", "--family",
                                     "heis3-weighted.json", "--order", "2"],
    # the span of (1, 2, 0): projectors over the denominator 2
    "contract-so3-x1-2x2-order2": ["contract", "so3", "--subalgebra", "so3-x1-2x2.json",
                                   "--order", "2"],
    "contract-so3-x1-2x2-text": ["--format", "text", "contract", "so3", "--subalgebra",
                                 "so3-x1-2x2.json", "--order", "1"],
    "contract-so3-pole": ["contract", "so3", "--family", "so3-pole.json"],
    "contract-so3-singular": ["contract", "so3", "--family", "so3-singular.json"],
    **{f"expand-{alg.removesuffix('.json')}-order{k}-constants": [
        "expand", alg, "--subalgebra", sub, "--order", str(k), "--emit-constants"]
       for alg, sub, k in (("so3", "so3-x3.json", 2), ("sl2", "sl2-h.json", 3),
                           ("sl2", "sl2-h.json", 4), ("heis3", "heis3-z.json", 4),
                           ("so5.json", "so5-so4.json", 1))},
    # the span of (1, 2, 0): the top level read through a split inverse over 2
    "expand-so3-x1-2x2-order3-constants": ["expand", "so3", "--subalgebra", "so3-x1-2x2.json",
                                           "--order", "3", "--emit-constants"],
    # the machine payloads of validate and of expand without --emit-constants
    "validate-so5": ["validate", "so5.json"],
    "validate-broken-jacobi": ["validate", "broken-jacobi.json"],
    "expand-so3-order2": ["expand", "so3", "--subalgebra", "so3-x3.json", "--order", "2"],
    "verify-seed3": ["verify", "--seed", "3", "--trials", "10"],
    "verify-default-seed": ["verify"],
    **{f"example-so3-order{k}{suffix}": [*fmt, "example", "so3", "--order", str(k)]
       for k in (0, 1) for suffix, fmt in (("", ()), ("-text", ("--format", "text")))},
    "oracle-so3-order6": ["oracle", "so3", "--order", "6", "--trials", "5", "--seed", "342"],
    # the star and group-mult literals of the cli-session benchmark at seed 101
    "star-so3-order5": [
        "star", "so3", "--subalgebra", "so3-x3.json", "--order", "5",
        "--a=3/2,-1/1,6/1;-2/1,3/4,-3/4;-6/1,-3/4,-4/1;2/1,2/1,4/3;-1/2,-1/1,-1/2;-5/4,-5/2,-5/1",
        "--b=-3/1,3/1,3/1;1/4,-5/1,-5/1;1/2,-3/4,1/1;5/4,-1/2,3/1;-5/1,-5/2,-1/3;1/2,5/1,-3/4"],
    "group-mult-so3-order2": [
        "group-mult", "so3", "--subalgebra", "so3-x3.json", "--order", "2",
        "--h1=-4/5,-3/5,0/1;3/5,-4/5,0/1;0/1,0/1,1/1",
        "--a=-1/3,1/1,3/4;3/2,-1/2,-1/1;-3/2,-5/2,-2/1",
        "--h2=0/1,-1/1,0/1;1/1,0/1,0/1;0/1,0/1,1/1",
        "--b=5/3,3/1,-1/2;6/1,2/1,1/2;-5/3,-1/2,-1/2"],
    **{f"star-{alg}-order5": [
        "star", alg, "--subalgebra", sub, "--order", "5",
        "--a=1/2,-1/1,2/1;0/1,3/4,-3/4;-2/1,1/3,-1/1;2/1,0/1,4/3;-1/2,-1/1,5/2;-5/4,1/2,-1/1",
        "--b=-3/1,1/1,1/2;1/4,-1/1,0/1;1/2,-3/4,1/1;5/4,-1/2,3/1;-2/1,-5/2,-1/3;1/2,2/1,-3/4"]
       for alg, sub in (("sl2", "sl2-h.json"), ("heis3", "heis3-z.json"))},
    # a star of order k runs the BCH product at order k + 1: order 7 under cap 8
    # reaches the cap, order 8 exceeds it
    **{f"star-so3-order{k}-cap8": [
        "--order-cap", "8", "star", "so3", "--subalgebra", "so3-x3.json", "--order", str(k),
        "--a=" + ";".join(["1/2,-1/1,2/1", "0/1,3/4,-3/4", "-2/1,1/3,-1/1", "2/1,0/1,4/3",
                           "-1/2,-1/1,5/2", "-5/4,1/2,-1/1", "1/3,0/1,2/1", "-1/1,1/5,0/1",
                           "3/2,-2/3,1/1"][:k + 1]),
        "--b=" + ";".join(["-3/1,1/1,1/2", "1/4,-1/1,0/1", "1/2,-3/4,1/1", "5/4,-1/2,3/1",
                           "-2/1,-5/2,-1/3", "1/2,2/1,-3/4", "0/1,1/1,-1/2", "2/3,0/1,1/4",
                           "-1/1,1/2,5/3"][:k + 1])]
       for k in (7, 8)},
    # the matrix oracle at the cap, on jet literals stored shorter than the
    # truncation order, and on a representation with fractional matrices
    "oracle-sl2-order8-cap8": ["--order-cap", "8", "oracle", "sl2", "--order", "8",
                               "--trials", "3", "--seed", "17"],
    "oracle-heis3-trimmed-literals": ["oracle", "heis3", "--order", "5",
                                      "--p=[0,0,0; 1,-2,0; 0,0,0]", "--q=[0,0,0; 0,1/2,3]"],
    "oracle-so3-rebased-rep": ["oracle", "so3", "--rep", "so3-rep-rebased.json", "--order", "4",
                               "--trials", "3", "--seed", "8"],
    "group-mult-so3-order2-text": [
        "--format", "text", "group-mult", "so3", "--subalgebra", "so3-x3.json", "--order", "2",
        "--h1=-4/5,-3/5,0/1;3/5,-4/5,0/1;0/1,0/1,1/1",
        "--a=-1/3,1/1,3/4;3/2,-1/2,-1/1;-3/2,-5/2,-2/1",
        "--h2=0/1,-1/1,0/1;1/1,0/1,0/1;0/1,0/1,1/1",
        "--b=5/3,3/1,-1/2;6/1,2/1,1/2;-5/3,-1/2,-1/2"],
    # the span of (1, 2, 0) in so3, whose complement projector has the denominator
    # 2: star and the group law reduce the top slot over 2 times their denominator;
    # h1 turns about (1, 2, 0) by arccos(2/3), h2 by a half turn
    "star-so3-x1-2x2-order2": [
        "star", "so3", "--subalgebra", "so3-x1-2x2.json", "--order", "2",
        "--a=1/2,-1/3,2/1;3/4,0/1,-5/2;-1/6,2/5,1/1",
        "--b=-2/3,1/1,1/4;1/5,-3/2,2/1;3/1,-1/4,1/3"],
    "group-mult-so3-x1-2x2-order2": [
        "group-mult", "so3", "--subalgebra", "so3-x1-2x2.json", "--order", "2",
        "--h1=11/15,2/15,2/3;2/15,14/15,-1/3;-2/3,1/3,2/3",
        "--a=1/2,-1/3,2/1;3/4,0/1,-5/2;-1/6,2/5,1/1",
        "--h2=-3/5,4/5,0/1;4/5,3/5,0/1;0/1,0/1,-1/1",
        "--b=-2/3,1/1,1/4;1/5,-3/2,2/1;3/1,-1/4,1/3"],
    # a rotation about X1 moves X3 out of the subalgebra, and this one is not
    # even orthogonal: the automorphism check rejects it first
    "group-mult-so3-not-automorphism": [
        "group-mult", "so3", "--subalgebra", "so3-x3.json", "--order", "1",
        "--h1=1/1,0/1,0/1;0/1,1/2,0/1;0/1,0/1,1/1",
        "--a=1/1,0/1,0/1;0/1,1/1,0/1",
        "--h2=1/1,0/1,0/1;0/1,1/1,0/1;0/1,0/1,1/1",
        "--b=0/1,1/1,0/1;1/1,0/1,0/1"],
}


def run_case(args):
    """(exit code, stdout, stderr) of the command, run from tests/golden."""
    if args[0] != "--format":
        args = ["--format", "machine", *args]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def recorded():
    with open(os.path.join(GOLDEN, "cli.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_the_recording(name):
    assert run_case(CASES[name]) == recorded()[name]


def test_every_recording_has_a_case():
    assert sorted(recorded()) == sorted(CASES)


def test_console_script_prints_what_main_prints(monkeypatch, capsys):
    """``entrypoint``, the installed ``liecontract`` script, reads ``sys.argv``
    and exits with ``main``'s code, after the stdout ``main`` gives."""
    args = ["--format", "machine", *CASES["validate-so5"]]
    want = run_case(args)
    monkeypatch.setattr(sys, "argv", ["liecontract", *args])
    monkeypatch.chdir(GOLDEN)
    with pytest.raises(SystemExit) as info:
        entrypoint()
    assert info.value.code == want["exit"] == 0
    assert capsys.readouterr().out == want["stdout"]


if __name__ == "__main__":
    with open(os.path.join(GOLDEN, "cli.json"), "w", encoding="utf-8") as fh:
        json.dump({name: run_case(args) for name, args in sorted(CASES.items())}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
