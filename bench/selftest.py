"""Self-tests of the benchmark itself (not of liecontract).

Run from the repository root, all or some by name:

    python3 bench/selftest.py
    python3 bench/selftest.py test_trace_counts_repeat

or with pytest: ``python3 -m pytest bench/selftest.py``.  The trace test runs
every workload twice with tracing on and takes several minutes.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import liecontract as lc  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# per-layer metrics that must be nonzero on the workload whose end-to-end
# numbers they are expected to move
SHOULD_MOVE = {
    "contract-scaling": [
        "contraction.invert_family_apply.calls", "contraction.invert_family_apply.self_s",
        "contraction.eps_bracket.calls", "linalg.poly_det.calls", "linalg.poly_det.self_s",
        "linalg.poly_det.distinct_ratio",
    ],
    "expand-validate": [
        "algebra.LieAlgebra.validate.self_s", "linalg.solve_in_basis.calls",
        "linalg.solve_in_basis.self_s", "linalg.solve_in_basis.distinct_columns_ratio",
        "expansion.IWExpansion.bracket.calls", "expansion.IWExpansion.bracket.self_s",
        "expansion.IWExpansion.coords.calls", "expansion.IWExpansion.coords.self_s",
        "expansion.IWExpansion.structure_algebra.self_s",
        "expansion.GeneralExpansion.bracket_tuples.calls",
        "expansion.GeneralExpansion.bracket_tuples.self_s",
    ],
    "star-bch": [
        "bch.local_mult.calls", "bch.local_mult.self_s", "bch.word_coefficients.total_s",
        "jets.bracket_poly.calls", "jets.bracket_poly.self_s", "jets.bracket_poly.zero_ratio",
        "group.ExpansionGroup.star.calls", "group.ExpansionGroup.star.self_s",
        "group.ExpansionGroup.mult.calls", "group.ExpansionGroup.mult.self_s",
        "group.ExpansionGroup.h_element.calls", "group.ExpansionGroup.h_element.self_s",
    ],
    "cli-session": [
        "oracle.Representation.local_mult.calls", "oracle.Representation.local_mult.self_s",
        "oracle.Representation.decompose.calls", "oracle.Representation.decompose.self_s",
        "oracle.Representation.check.calls", "oracle.Representation.check.self_s",
        "jets.MatrixJet.matmul.calls", "jets.MatrixJet.matmul.self_s",
        "verify.run_verify.total_s", "formats.machine_dumps.self_s", "cli.import_s",
    ],
}
EVERY_WORKLOAD = ["algebra.LieAlgebra.bracket.calls", "algebra.LieAlgebra.bracket.self_s",
                  "algebra.LieAlgebra.bracket.zero_ratio"]


def _scratch():
    """A fresh directory under bench/out, where the benchmark keeps its files."""
    os.makedirs(run.OUT, exist_ok=True)
    return tempfile.mkdtemp(dir=run.OUT)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed_layers(proc):
    """Every per-layer metric from the printed lines of a traced run."""
    names = {name for name, _ in spans.LAYER_METRICS}
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in names:
            out[parts[0]] = float(parts[1])
    return out


def test_generated_inputs_are_valid():
    rng = random.Random(5)
    cases = [gen.so_case(lc, n) for n in (3, 4, 5, 6)]
    cases += [gen.dense_so_case(lc, n, rng) for n in (4, 5)]
    cases += [gen.catalogue_case(lc, n) for n in ("so3", "sl2", "heis3")]
    for case in cases:
        assert case.algebra.validate().ok, case.label
        assert case.rep.check().ok, case.label
        split = lc.span_subalgebra(case.algebra, case.split_vectors)
        assert split.dim_h == len(case.split_vectors)
    assert gen.so_case(lc, 3).algebra.structure == lc.builtin("so3")[0].structure
    so4 = cases[1]
    for _ in range(4):
        _, phis = gen.pole_family_phis(rng)
        try:
            lc.contract(lc.ContractionFamily(so4.algebra, phis))
        except lc.PoleError as err:
            assert err.valuation == -1
        else:
            raise AssertionError("the pole family contracted")
    workdir = _scratch()
    try:
        paths, _ = gen.write_specs(workdir)
        from liecontract import formats

        alg = formats.load_algebra(paths["so5_alg"])
        assert alg.validate().ok
        lc.span_subalgebra(alg, formats.load_subalgebra(paths["so5_sub"]))
    finally:
        shutil.rmtree(workdir)


def test_refkernel_never_imports_liecontract():
    path = os.path.join(BENCH, "refkernel.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] in ("fractions", "__future__") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            assert node.module in ("fractions", "__future__"), node.module
    probe = ("import sys; sys.path.insert(0, %r); import refkernel; refkernel.run(); "
             "assert not [m for m in sys.modules if m.startswith('liecontract')]" % BENCH)
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=60)


def test_wrong_outputs_count_as_failed():
    workload = workloads.StarBCH()
    workload.setup(lc, 3, None)
    workload.ops = workload.ops[:6]
    good_run = workload.ops[0].run

    def wrong():
        out = good_run()
        return dataclasses.replace(out, top=tuple(x + 1 for x in out.top))

    def crash():
        raise ValueError("deliberate")

    workload.ops[0].run = wrong
    workload.ops[1].run = crash
    records = run.run_pass(workload, refclock.RefClock(), 1e9, max_reps=2)
    failed, _ = run.check_records(workload, records)
    assert failed == 4  # two reps of the wrong op and of the crashing op
    cli = workloads.CLISession()
    cli.warm = {"verify": (0, b'{"report": {"ok": true}}', False)}
    op = cli._cli_op("verify", [], lambda r: r["report"]["ok"] is True)
    assert op.check((0, b'{"report": {"ok": true}}', False))[0]
    assert not op.check((1, b'{"report": {"ok": true}}', False))[0]
    assert not op.check((0, b'{"report": {"ok": true}}', True))[0]
    assert not op.check((0, b'{"report": {"ok": false}}', False))[0]


def test_wrong_expansion_tensor_counts_as_failed():
    case = gen.catalogue_case(lc, "so3")
    split = lc.span_subalgebra(case.algebra, case.split_vectors)
    workload = workloads.ExpandValidate()
    good = [workloads.ExpandValidate._validate_op(lc, "so3", split, k, 1) for k in (0, 1)]

    def abelian(op):
        ok, checks, structure = op.run()
        m = len(structure)
        return ok, checks, tuple(tuple((gen.ZERO,) * m for _ in range(m)) for _ in range(m))

    def top_level_dropped(op):
        ok, checks, structure = op.run()
        keep = len(structure) - split.dim_n
        return ok, checks, tuple(tuple(row[:keep] + (gen.ZERO,) * (len(row) - keep)
                                       for row in plane) for plane in structure)

    wrong = []
    for op in good:
        for make in (abelian, top_level_dropped):
            wrong.append(dataclasses.replace(op, run=lambda op=op, make=make: make(op)))
    workload.ops = good + wrong
    records = run.run_pass(workload, refclock.RefClock(), 1e9, max_reps=1)
    assert all(r.error is None for r in records)
    failed, checked = run.check_records(workload, records)
    assert failed == len(wrong) and sorted(checked) == [0, 1]


def test_missing_source_fails():
    scratch = _scratch()
    try:
        shutil.copytree(BENCH, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        proc = _bench("--workload", "star-bch", "--seed", 1, "--seconds", 1, "--trace", 0,
                      cwd=scratch)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(scratch)


def test_trace_counts_repeat():
    for workload in workloads.WORKLOADS:
        procs = [_bench("--workload", workload, "--seed", 11, "--seconds", 1, "--trace", 1)
                 for _ in range(2)]
        first, second = (_result(p) for p in procs)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, (workload, result)
        calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
        again = {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
        assert calls and calls == again, workload
        printed = _printed_layers(procs[0])
        assert len(printed) == len(spans.LAYER_METRICS), workload
        for name in SHOULD_MOVE[workload] + EVERY_WORKLOAD:
            assert printed[name] > 0, (workload, name)
        assert first["metrics"]["trace_overhead_ratio"]["value"] > 0


if __name__ == "__main__":
    chosen = sys.argv[1:] or [n for n in dir() if n.startswith("test_")]
    failures = 0
    for name in chosen:
        try:
            globals()[name]()
            print(f"PASS {name}")
        except Exception as err:  # report every test, then fail overall
            failures += 1
            print(f"FAIL {name}: {type(err).__name__}: {err}")
    sys.exit(1 if failures else 0)
