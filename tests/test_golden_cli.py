"""Machine-format CLI output, pinned byte for byte against a recorded file.

Each case runs ``main`` in-process on the spec files in tests/golden and
compares its exit code, stdout and stderr with tests/golden/cli.json.  After
a deliberate change of the output, record the file again with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review its diff.
"""

import contextlib
import io
import json
import os

import pytest

from liecontract.cli import main

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
    "contract-so3-pole": ["contract", "so3", "--family", "so3-pole.json"],
    "contract-so3-singular": ["contract", "so3", "--family", "so3-singular.json"],
    "expand-sl2-order3-constants": ["expand", "sl2", "--subalgebra", "sl2-h.json",
                                    "--order", "3", "--emit-constants"],
    "verify-seed3": ["verify", "--seed", "3", "--trials", "10"],
}


def run_case(args):
    """(exit code, stdout, stderr) of the machine-format command, run from tests/golden."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", "machine", *args])
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


if __name__ == "__main__":
    with open(os.path.join(GOLDEN, "cli.json"), "w", encoding="utf-8") as fh:
        json.dump({name: run_case(args) for name, args in sorted(CASES.items())}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
