"""Whole-pipeline runs on algebras beyond the built-in catalogue."""

import ast
import importlib
import importlib.util
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from liecontract import linalg
from liecontract.algebra import LieAlgebra, ValidationReport, Violation, span_subalgebra
from liecontract.catalog import builtin, canonical_split_vectors
from liecontract.contraction import (
    ContractionFamily,
    contract,
    invert_family_apply,
    iw_contract_closed_form,
    iw_family,
)
from liecontract.errors import DimensionMismatch, InternalInvariantViolation, UnknownAlgebra
from liecontract.expansion import ExpandedElement, GeneralExpansion, IWExpansion
from liecontract.group import ExpansionGroup
from liecontract.jets import Jet, MatrixJet, bracket_poly
from liecontract.oracle import Representation
from references import random_nil

F = Fraction


def oscillator():
    """Central extension of the plane-motion algebra: N rotates P and Q into
    each other, P and Q bracket to the central Z."""
    return LieAlgebra.from_brackets(4, ("N", "P", "Q", "Z"), [
        (0, 1, 2, 1),    # [N, P] = Q
        (0, 2, 1, -1),   # [N, Q] = -P
        (1, 2, 3, 1),    # [P, Q] = Z
    ])


def rotations_plus_heisenberg():
    """Direct sum of the rotation algebra and the Heisenberg algebra."""
    return LieAlgebra.from_brackets(6, ("X1", "X2", "X3", "P", "Q", "Z"), [
        (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
        (3, 4, 5, 1),
    ])


def test_oscillator_is_valid():
    assert oscillator().validate().ok


def test_oscillator_contraction_along_center_and_rotation():
    alg = oscillator()
    # span{N, Z} is a two-dimensional abelian subalgebra
    split = span_subalgebra(alg, [alg.basis_vector(0), alg.basis_vector(3)])
    limit = contract(iw_family(split))
    assert limit.structure == iw_contract_closed_form(split).structure
    n, p, q, z = (limit.basis_vector(i) for i in range(4))
    assert limit.bracket(p, q) == limit.zero_vector()   # central charge dies
    assert limit.bracket(n, p) == q                     # rotation action survives
    assert limit.bracket(n, q) == linalg.vec_neg(p)
    assert limit.bracket(n, z) == limit.zero_vector()
    assert limit.validate().ok


def test_oscillator_expansion_and_group():
    alg = oscillator()
    split = span_subalgebra(alg, [alg.basis_vector(0), alg.basis_vector(3)])
    rng = random.Random(31)
    for k in (0, 1, 2):
        ea = IWExpansion(split, k)
        assert ea.structure_algebra().validate().ok
        gen = GeneralExpansion(iw_family(split), k)
        for _ in range(5):
            xs = [linalg.random_vector(rng, 4) for _ in range(k + 1)]
            ys = [linalg.random_vector(rng, 4) for _ in range(k + 1)]
            assert ea.tuple_to_element(gen.bracket_tuples(xs, ys)) == \
                ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
        grp = ExpansionGroup(split, k)
        for _ in range(3):
            a, b, c = (random_nil(grp, rng) for _ in range(3))
            assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))
            assert grp.nil_is_zero(grp.star(a, grp.nil_negate(a)))


def test_direct_sum_contracts_factorwise():
    alg = rotations_plus_heisenberg()
    assert alg.validate().ok
    split = span_subalgebra(alg, [alg.basis_vector(2), alg.basis_vector(5)])
    limit = contract(iw_family(split))
    assert limit.structure == iw_contract_closed_form(split).structure
    # the rotation block contracts to the plane-motion algebra...
    iso2 = builtin("iso2")[0]
    for a in range(3):
        for b in range(3):
            assert limit.structure[a][b][:3] == iso2.structure[a][b]
            assert all(x == 0 for x in limit.structure[a][b][3:])
    # ...and the Heisenberg block abelianizes
    for a in range(3, 6):
        for b in range(3, 6):
            assert linalg.is_zero_vector(limit.structure[a][b])


def test_direct_sum_star_associativity():
    alg = rotations_plus_heisenberg()
    split = span_subalgebra(alg, [alg.basis_vector(2), alg.basis_vector(5)])
    grp = ExpansionGroup(split, 2)
    rng = random.Random(32)
    for _ in range(3):
        a, b, c = (random_nil(grp, rng) for _ in range(3))
        assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))


def test_degenerate_splits_full_and_zero():
    alg = builtin("so3")[0]
    rng = random.Random(33)
    for vectors in ([alg.basis_vector(i) for i in range(3)], []):
        split = span_subalgebra(alg, vectors)
        g0 = contract(iw_family(split))
        ea0 = IWExpansion(split, 0)
        for _ in range(10):
            x = linalg.random_vector(rng, 3)
            y = linalg.random_vector(rng, 3)
            assert ea0.from_contraction(g0.bracket(x, y)) == \
                ea0.bracket(ea0.from_contraction(x), ea0.from_contraction(y))
        for k in (0, 1, 2):
            ea = IWExpansion(split, k)
            assert ea.dimension == (k + 1) * 3
            assert ea.structure_algebra().validate().ok
            grp = ExpansionGroup(split, k)
            a, b, c = (random_nil(grp, rng) for _ in range(3))
            assert grp.star(grp.star(a, b), c) == grp.star(a, grp.star(b, c))


def so3_x3_split():
    so3 = builtin("so3")[0]
    return span_subalgebra(so3, [so3.basis_vector(2)])


def contract_with_failing_validation():
    """``contract`` on so3 along X3, with every validation of an algebra failing."""
    report = ValidationReport(1, [Violation("jacobi", (0, 1, 2), "1")])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LieAlgebra, "validate", lambda alg: report)
        contract(iw_family(so3_x3_split()))


SO3_FLOAT_MATRICES = [((0, 0, 0), (0, 0, -1.0), (0, 1, 0))] * 3

# the call, the message of what it raises, and its type when that is not DimensionMismatch
REFUSALS = {
    "group-order": (lambda: ExpansionGroup(so3_x3_split(), -1),
                    "group order must be nonnegative"),
    "iw-expansion-order": (lambda: IWExpansion(so3_x3_split(), -1),
                           "expansion order must be nonnegative"),
    "general-expansion-order": (
        lambda: GeneralExpansion(ContractionFamily.identity(builtin("so3")[0]), -1),
        "expansion order must be nonnegative"),
    "nil-middle-count": (lambda: ExpansionGroup(so3_x3_split(), 2).nil([(0, 0, 0)], (1, 0, 0)),
                         "expected 2 middle slots, got 1"),
    "nil-middle-length": (lambda: ExpansionGroup(so3_x3_split(), 1).nil([(0, 0)], (1, 0, 0)),
                          "middle slot length differs from algebra dimension"),
    "nil-top-length": (lambda: ExpansionGroup(so3_x3_split(), 1).nil([(0, 0, 0)], (1, 0)),
                       "top slot length differs from algebra dimension"),
    "h-element-not-square": (
        lambda: ExpansionGroup(so3_x3_split(), 0).h_element(((1, 0, 0), (0, 1, 0))),
        "adjoint matrix must be square of the algebra dimension"),
    "family-solve-dimension": (
        lambda: invert_family_apply(iw_family(so3_x3_split()), Jet(2, 3, [(0, 1)]), 1),
        "jet dimension differs from family dimension"),
    "representation-count": (
        lambda: Representation(builtin("so3")[0], builtin("so3")[1].mats[:2]),
        "need one matrix per basis vector"),
    "jet-dimensions": (lambda: Jet(2, 3, [(0, 1)]) + Jet(3, 3, [(0, 0, 1)]),
                       "jet dimensions differ"),
    "jet-shift": (lambda: Jet(2, 3, [(0, 1)]).shift(-1),
                  "shift must be by a nonnegative power"),
    "bracket-poly-dimension": (
        lambda: bracket_poly(builtin("so3")[0], Jet(2, 3, [(0, 1)]), Jet(2, 3, [(1, 0)])),
        "jet dimension differs from algebra dimension"),
    "matrix-jet-sizes": (lambda: MatrixJet.identity(2, 3) + MatrixJet.identity(3, 3),
                         "matrix jet sizes differ"),
    "matrix-jet-orders": (lambda: MatrixJet.identity(2, 3).matmul(MatrixJet.identity(2, 4)),
                          "jet truncation orders differ"),
    "decompose-shape": (lambda: builtin("so3")[1].decompose(((1, 0), (0, 1))),
                        "matrix shape differs from the representation size"),
    "exp-trunc-dimension": (lambda: builtin("so3")[1].exp_trunc(Jet(2, 3, [(0, 0), (1, 0)]), 2),
                            "jet dimension differs from algebra dimension"),
    "to-contraction-order": (
        lambda: IWExpansion(so3_x3_split(), 1).to_contraction(
            ExpandedElement((0, 0, 1), ((0, 0, 0),), (0, 0, 0))),
        "contraction identification needs order 0"),
    "tuple-to-element-count": (
        lambda: IWExpansion(so3_x3_split(), 1).tuple_to_element([(1, 0, 0)]),
        "expected 2 coefficients, got 1"),
    "bracket-tuples-count": (
        lambda: GeneralExpansion(iw_family(so3_x3_split()), 1).bracket_tuples(
            [(1, 0, 0)], [(0, 1, 0), (0, 0, 1)]),
        "expected 2 coefficients, got 1"),
    "structure-tensor-shape": (lambda: LieAlgebra(2, ("A", "B"), (((0, 0), (0, 0)),)),
                               "structure tensor has wrong shape"),
    "bracket-entry-range": (lambda: LieAlgebra.from_brackets(2, ("A", "B"), [(0, 1, 2, 1)]),
                            "bracket entry (0,1,2) out of range"),
    "vector-length": (lambda: builtin("so3")[0].vector((1, 0)),
                      "coefficient count differs from dimension"),
    "vec-sub-lengths": (lambda: linalg.vec_sub((1,), (1, 2)), "vector lengths differ"),
    "mat-mul-shapes": (lambda: linalg.mat_mul(((1, 2),), ((1, 2),)), "matrix shapes differ"),
    # a string literal is capped before it is parsed, which would take seconds
    "jet-literal-exponent": (lambda: Jet(1, 1, [("1e10000000",)]),
                             "exponent outside -1000..1000", ValueError),
    "bracket-literal-exponent": (
        lambda: LieAlgebra.from_brackets(2, ("a", "b"), [(0, 1, 1, "1e10000000")]),
        "exponent outside -1000..1000", ValueError),
    "jet-literal-length": (lambda: Jet(1, 1, [("1" * 1001,)]),
                           "rational literal of 1001 characters is longer than 1000", ValueError),
    "family-float": (lambda: ContractionFamily(builtin("so3")[0], SO3_FLOAT_MATRICES[:1]),
                     "a rescaling family takes exact (int or Fraction) input", TypeError),
    "representation-float": (
        lambda: Representation(builtin("so3")[0], SO3_FLOAT_MATRICES),
        "the matrix oracle takes exact (int or Fraction) input", TypeError),
    "abelian-dimension": (lambda: builtin("abelian(33)"), "abelian dimension 33 out of range",
                          UnknownAlgebra),
    "canonical-split": (lambda: canonical_split_vectors("iso2"), "no canonical split for 'iso2'",
                        UnknownAlgebra),
    "poly-divexact-zero": (lambda: linalg.poly_divexact((1,), (0,)),
                           "polynomial division by zero", ZeroDivisionError),
    "poly-divexact-degree": (lambda: linalg.poly_divexact((1,), (0, 1)),
                             "inexact polynomial division", InternalInvariantViolation),
    "contract-validation": (contract_with_failing_validation,
                            "contraction limit failed validation: 1 violation(s) in 1 checks:\n"
                            "  jacobi at (0, 1, 2): 1", InternalInvariantViolation),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_constructors_refuse_arguments_that_do_not_fit(name):
    call, message, error = (*REFUSALS[name], DimensionMismatch)[:3]
    start = time.perf_counter()
    with pytest.raises(error) as info:
        call()
    assert time.perf_counter() - start < 1.0
    assert type(info.value) is error and str(info.value) == message


def test_readme_quickstart_runs(capsys):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(readme), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_benchmark_trace_targets_resolve():
    # a traced benchmark run wraps each (module, attr) of bench/spans.py by name
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"liecontract.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_layer_pins_move_in_one_traced_batch(tmp_path, monkeypatch):
    """The pin check of bench/selftest.py's trace test, in process: after one
    traced set-up and one batch at its seed 11, every per-layer metric that it
    pins as nonzero on contract-scaling, star-bch and expand-validate is
    nonzero.  cli-session runs CLI subprocesses; only the trace test reaches it."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    selftest, spans, workloads = map(importlib.import_module, ("selftest", "spans", "workloads"))
    import liecontract

    for name in ("contract-scaling", "star-bch", "expand-validate"):
        tracer = spans.Tracer(time.perf_counter)
        tracer.install()
        try:
            workload = workloads.WORKLOADS[name]()
            workload.setup(liecontract, 11, str(tmp_path))
            for op in workload.ops:
                op.run()
        finally:
            tracer.restore()
        metrics = spans.layer_metrics(tracer.stats)
        pins = selftest.SHOULD_MOVE[name] + selftest.EVERY_WORKLOAD
        assert [pin for pin in pins if not metrics[pin] > 0] == [], name


def test_test_modules_share_helpers_through_references_only():
    """A test module imports no other test module, only ``references``;
    ``references`` holds no test; and no helper function or class is defined
    in two modules of the test directory."""
    tests = pathlib.Path(__file__).parent
    local = {path.stem for path in tests.glob("*.py")}
    homes = {}
    for path in sorted(tests.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] if not node.level else ["."]
            else:
                continue
            for name in names:
                assert name not in local - {"references"} and name != ".", (path.name, name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if path.stem == "references":
                    assert not node.name.startswith("test"), node.name
                if not node.name.startswith("test_"):
                    homes.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in homes.items() if len(files) > 1} == {}


def test_package_exports_match_all():
    """The package's name table lists exactly ``__all__``; each name resolves
    to the very object its home module defines; a fresh ``import liecontract``
    loads no submodule and its ``dir`` lists every name; an unknown name
    raises AttributeError; and ``__init__`` binds no public name outside
    ``__all__``."""
    import liecontract

    assert set(liecontract._HOMES) == set(liecontract.__all__) - {"__version__"}
    assert len(set(liecontract.__all__)) == len(liecontract.__all__)
    for name, home in liecontract._HOMES.items():
        module = importlib.import_module(f"liecontract.{home}")
        assert getattr(liecontract, name) is getattr(module, name), name
    code = ("import sys, liecontract; "
            "print(sorted(set(liecontract.__all__) - set(dir(liecontract)))); "
            "print(sorted(n for n in sys.modules if n.startswith('liecontract.')))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(liecontract.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout
    assert fresh == "[]\n[]\n"
    with pytest.raises(AttributeError):
        liecontract.no_such_name
    path = pathlib.Path(liecontract.__file__)
    bound = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert sorted(n for n in bound - set(liecontract.__all__) if not n.startswith("_")) == []
