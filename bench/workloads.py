"""The four benchmark workloads.

Each workload builds, in ``setup``, a fixed batch of ops from the seed.  An op
has a ``run`` (timed) and a ``check`` (untimed) that verifies the output
through a route independent of the code path being timed.  ``slot`` groups
ops of the same shape; the workload's ``largest`` slot is its scaling end.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen


@dataclass
class Op:
    label: str
    slot: str
    run: Callable
    check: Callable  # output -> (ok, detail)
    inner: int = 1  # calls per batch; their median is the op's time in the batch


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _split(lc, case):
    return lc.span_subalgebra(case.algebra, case.split_vectors)


def _oracle_star(case, split, a_mids, a_top, b_mids, b_top, k):
    """Star product through the matrix oracle: exp/log of the lifted tuples."""
    from liecontract.jets import Jet

    d = case.algebra.dim
    zero = case.algebra.zero_vector()
    p = Jet(d, k + 2, (zero,) + tuple(a_mids) + (tuple(a_top),))
    q = Jet(d, k + 2, (zero,) + tuple(b_mids) + (tuple(b_top),))
    z = case.rep.local_mult(p, q, k + 1)
    return tuple(z.coeff(m) for m in range(1, k + 1)), split.coset_reduce(z.coeff(k + 1))


# ---------------------------------------------------------------------------

class ContractScaling:
    """span_subalgebra -> iw_family -> contract along so(n-1) in so(n), n = 4, 5, 6.

    Sparse so(4), so(5), so(6); twelve seeded dense bases of so(4) and one of
    so(5); four seeded families with a pole of order one.  Every op builds its
    own split and family, so a per-family cache is paid inside the op.
    """

    name = "contract-scaling"
    largest = "so6"
    min_reps = 1
    subprocess = False

    def setup(self, lc, seed, workdir):
        rng = _rng(self.name, seed)
        cases = [gen.so_case(lc, n) for n in (4, 5, 6)]
        cases += [gen.dense_so_case(lc, 4, rng) for _ in range(12)]
        cases.append(gen.dense_so_case(lc, 5, rng))
        so4 = cases[0]
        poles = [gen.pole_family_phis(rng) for _ in range(4)]
        for case in cases:  # fills the algebra's sparse bracket table
            case.algebra.bracket(case.algebra.basis_vector(0), case.algebra.basis_vector(1))
        self.ops = [self._contract_op(lc, c) for c in cases]
        self.ops += [self._pole_op(lc, so4, m, phis) for m, phis in poles]

    @staticmethod
    def _contract_op(lc, case):
        def run():
            return lc.contract(lc.iw_family(_split(lc, case)))

        def check(out):
            want = lc.iw_contract_closed_form(_split(lc, case))
            return out.structure == want.structure, "limit differs from the closed form"

        return Op(case.label, case.label, run, check)

    @staticmethod
    def _pole_op(lc, case, m, phis):
        def run():
            try:
                lc.contract(lc.ContractionFamily(case.algebra, phis))
            except lc.PoleError as err:
                return ("PoleError", err.valuation)
            return ("no pole", None)

        def check(out):
            return out == ("PoleError", -1), f"expected a pole of valuation -1, got {out}"

        return Op(f"pole-fixing-{m}", "pole", run, check)


# ---------------------------------------------------------------------------

class StarBCH:
    """ExpansionGroup.star on so3, sl2, heis3 at k = 1..5 and so(4) > so(3) at k = 1..3.

    Eight star ops per (algebra, k) plus sixteen full ``mult`` ops (one op in
    ten) whose exact rational adjoint matrices go through ``h_element``.
    Groups are built in setup, as a user multiplies many elements in one group.
    """

    name = "star-bch"
    largest = "so3-k5"
    min_reps = 1
    subprocess = False
    STARS_PER_SLOT = 8
    MULTS_PER_ORDER = 2
    MULT_ORDERS = {"so3": (2, 4), "sl2": (2, 4), "heis3": (2, 4), "so4": (1, 3)}

    def setup(self, lc, seed, workdir):
        rng = _rng(self.name, seed)
        cases = [gen.catalogue_case(lc, n) for n in ("so3", "sl2", "heis3")]
        cases.append(gen.so_case(lc, 4))
        self.ops = []
        for case in cases:
            split = _split(lc, case)
            d = case.algebra.dim
            orders = range(1, 6) if d == 3 else range(1, 4)
            for k in orders:
                grp = lc.ExpansionGroup(split, k)
                slot = f"{case.label}-k{k}"
                for i in range(self.STARS_PER_SLOT):
                    a = grp.nil([gen.random_vector(rng, d) for _ in range(k)],
                                gen.random_vector(rng, d))
                    b = grp.nil([gen.random_vector(rng, d) for _ in range(k)],
                                gen.random_vector(rng, d))
                    if i == 0:
                        grp.star(a, b)  # warm-up: word table and sparse brackets
                    self.ops.append(self._star_op(case, split, grp, slot, a, b))
                for _ in range(self.MULTS_PER_ORDER if k in self.MULT_ORDERS[case.label] else 0):
                    ad1, ad2 = gen.group_elements(case, rng, 2)
                    a = grp.nil([gen.random_vector(rng, d) for _ in range(k)],
                                gen.random_vector(rng, d))
                    b = grp.nil([gen.random_vector(rng, d) for _ in range(k)],
                                gen.random_vector(rng, d))
                    self.ops.append(self._mult_op(case, split, grp, slot, ad1, ad2, a, b))

    @staticmethod
    def _star_op(case, split, grp, slot, a, b):
        def run():
            return grp.star(a, b)

        def check(out):
            mids, top = _oracle_star(case, split, a.mids, a.top, b.mids, b.top, grp.order)
            return out.mids == mids and out.top == top, "star differs from the matrix oracle"

        return Op(f"star-{slot}", slot, run, check)

    @staticmethod
    def _mult_op(case, split, grp, slot, ad1, ad2, a, b):
        def run():
            g1 = grp.element(grp.h_element(ad1), a)
            g2 = grp.element(grp.h_element(ad2), b)
            return grp.mult(g1, g2)

        def check(out):
            b_mids = [gen.mat_vec(ad1, m) for m in b.mids]
            mids, top = _oracle_star(case, split, a.mids, a.top, b_mids,
                                     gen.mat_vec(ad1, b.top), grp.order)
            ok = (out.h.ad == gen.mat_mul(ad1, ad2)
                  and out.nil.mids == mids and out.nil.top == top)
            return ok, "mult differs from the matrix oracle"

        return Op(f"mult-{slot}", slot, run, check)


# ---------------------------------------------------------------------------

class ExpandValidate:
    """IWExpansion(split, k).structure_algebra().validate() plus general-family brackets.

    so(4) at k = 0..2, so(5) at k = 1, a seeded dense so(4) at k = 1 and every
    catalogued sl2/heis3 split at k = 0..4; then seeded
    GeneralExpansion.bracket_tuples samples on so3, sl2, heis3 (k = 1..3) and
    so(4) (k = 1, 2), checked against IWExpansion through tuple_to_element.
    Each expansion's structure tensor is checked against one built level by
    level from the base tensor (gen.expansion_tensor) and, at k = 0, against
    the closed-form contraction.
    """

    name = "expand-validate"
    largest = "so5-k1"
    min_reps = 1
    subprocess = False
    SAMPLES = 2
    # Calls per batch by expansion dimension: the big ops allow one or two
    # batches per run, so ops of a few milliseconds are repeated inside the
    # batch to get a steady median (the host's speed jitters on that scale),
    # and so is the largest case, whose single call would carry its noise
    # straight into largest_ref.
    INNER = {3: 8, 6: 8, 9: 4, 12: 2}
    TUPLES_INNER = 8
    LARGEST_INNER = 3

    def setup(self, lc, seed, workdir):
        rng = _rng(self.name, seed)
        so4, so5 = gen.so_case(lc, 4), gen.so_case(lc, 5)
        dense = gen.dense_so_case(lc, 4, rng)
        jobs = [(so4.label, _split(lc, so4), k) for k in range(3)]
        jobs.append((so5.label, _split(lc, so5), 1))
        jobs.append((dense.label, _split(lc, dense), 1))
        for name in ("sl2", "heis3"):
            alg, _ = lc.builtin(name)
            for label, vectors in lc.subalgebra_catalog(name).items():
                split = lc.span_subalgebra(alg, vectors)
                jobs += [(f"{name}-{label}", split, k) for k in range(5)]
        for _, split, _ in jobs:
            split.algebra.bracket(split.algebra.basis_vector(0), split.algebra.basis_vector(0))
        self.ops = []
        for label, split, k in jobs:
            if f"{label}-k{k}" == self.largest:
                inner = self.LARGEST_INNER
            elif split.algebra.dim == 3:
                inner = self.INNER.get(3 * (k + 1), 1)
            else:
                inner = 1
            self.ops.append(self._validate_op(lc, label, split, k, inner))
        families = [(gen.catalogue_case(lc, n), range(1, 4)) for n in ("so3", "sl2", "heis3")]
        families.append((so4, range(1, 3)))
        for case, orders in families:
            split = _split(lc, case)
            d = case.algebra.dim
            for k in orders:
                general = lc.GeneralExpansion(lc.iw_family(split), k)
                for _ in range(self.SAMPLES):
                    xs = [gen.random_vector(rng, d) for _ in range(k + 1)]
                    ys = [gen.random_vector(rng, d) for _ in range(k + 1)]
                    self.ops.append(self._tuples_op(lc, case.label, split, general, xs, ys))

    @staticmethod
    def _validate_op(lc, label, split, k, inner):
        d = split.algebra.dim * (k + 1)

        def run():
            alg = lc.IWExpansion(split, k).structure_algebra()
            report = alg.validate()
            return report.ok, report.checks, alg.structure

        def check(out):
            ok, checks, structure = out
            # d * d(d+1)/2 antisymmetry checks and C(d, 3) Jacobi triples
            want = (True, d * d * (d + 1) // 2 + d * (d - 1) * (d - 2) // 6)
            if (ok, checks) != want:
                return False, f"validate returned {(ok, checks)}, expected {want}"
            tensor = gen.expansion_tensor(split.algebra.structure, split.h_basis,
                                          split.n_basis, k)
            if structure != tensor:
                return False, "structure tensor differs from the level-by-level expansion"
            if k == 0:
                closed = lc.iw_contract_closed_form(split).structure
                if gen.rebase_tensor(closed, split.h_basis + split.n_basis) != tensor:
                    return False, "order-0 expansion differs from the closed-form contraction"
            return True, ""

        return Op(f"expand-{label}-k{k}", f"{label}-k{k}", run, check, inner)

    @staticmethod
    def _tuples_op(lc, label, split, general, xs, ys):
        k = general.order

        def run():
            return general.bracket_tuples(xs, ys)

        def check(out):
            ea = lc.IWExpansion(split, k)
            want = ea.bracket(ea.tuple_to_element(xs), ea.tuple_to_element(ys))
            return ea.tuple_to_element(out) == want, "general bracket differs from IWExpansion"

        return Op(f"tuples-{label}-k{k}", f"tuples-{label}-k{k}", run, check,
                  ExpandValidate.TUPLES_INNER)


# ---------------------------------------------------------------------------

def _literal(vectors):
    return ";".join(",".join(f"{x.numerator}/{x.denominator}" for x in v) for v in vectors)


def _bracket_table(payload_algebra):
    return {(a, b, c): Fraction(x) for a, b, c, x in payload_algebra["brackets"]}


def _structure_table(alg):
    return {(a + 1, b + 1, c + 1): alg.structure[a][b][c]
            for a in range(alg.dim) for b in range(a + 1, alg.dim) for c in range(alg.dim)
            if alg.structure[a][b][c]}


class CLISession:
    """A fixed script of fresh ``liecontract.cli --format machine`` processes.

    Each call runs through cli_probe.py, which behaves as ``python -m
    liecontract.cli`` and samples the reference kernel inside the call.  The
    only workload that measures ``cli``, ``formats``, ``verify`` and
    ``oracle``; each call pays the interpreter start and the import.
    """

    name = "cli-session"
    largest = "contract-so5"
    min_reps = 2
    subprocess = True

    def __init__(self):
        self.clock = None  # the runner's RefClock while a timed pass runs
        self.traced = False
        self.reports = []  # probe reports of traced calls

    def setup(self, lc, seed, workdir):
        rng = _rng(self.name, seed)
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = {k: v for k, v in os.environ.items() if k != "LIECONTRACT_ORDER_CAP"}
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")
        self.workdir = workdir
        paths, (so5_names, so5_tensor, so5_split) = gen.write_specs(workdir)
        so3 = gen.catalogue_case(lc, "so3")
        so3_split = _split(lc, so3)

        def nil_vectors(k):
            return [gen.random_vector(rng, 3) for _ in range(k + 1)]

        star_a, star_b = nil_vectors(5), nil_vectors(5)
        gm_a, gm_b = nil_vectors(2), nil_vectors(2)
        ad1, ad2 = gen.group_elements(so3, rng, 2)
        so5 = lc.LieAlgebra(len(so5_names), so5_names, so5_tensor)
        sub3 = paths["so3_sub"]
        script = [
            ("verify", ["verify", "--seed", str(rng.randrange(1000))]),
            ("example-0", ["example", "so3", "--order", "0"]),
            ("example-1", ["example", "so3", "--order", "1"]),
            ("oracle", ["oracle", "so3", "--order", "6", "--trials", "5",
                        "--seed", str(rng.randrange(1000))]),
            ("expand", ["expand", "so3", "--subalgebra", sub3, "--order", "2"]),
            ("contract-so3", ["contract", "so3", "--subalgebra", sub3, "--order", "3"]),
            ("star", ["star", "so3", "--subalgebra", sub3, "--order", "5",
                      f"--a={_literal(star_a)}", f"--b={_literal(star_b)}"]),
            ("group-mult", ["group-mult", "so3", "--subalgebra", sub3, "--order", "2",
                            f"--h1={_literal(ad1)}", f"--a={_literal(gm_a)}",
                            f"--h2={_literal(ad2)}", f"--b={_literal(gm_b)}"]),
            ("validate-so5", ["validate", paths["so5_alg"]]),
            ("contract-so5", ["contract", paths["so5_alg"], "--subalgebra", paths["so5_sub"]]),
        ]
        field_checks = {
            "verify": lambda r: r["report"]["ok"] is True,
            "example-0": lambda r: r["report"]["passed"] is True,
            "example-1": lambda r: r["report"]["passed"] is True,
            "oracle": lambda r: r["report"]["mismatches"] == 0,
            "expand": lambda r: r["report"]["jacobi_ok"] is True,
            "validate-so5": lambda r: r["report"]["ok"] is True,
            "contract-so3": lambda r: _bracket_table(r["algebra"]) == _structure_table(
                lc.iw_contract_closed_form(so3_split)),
            "contract-so5": lambda r: _bracket_table(r["algebra"]) == _structure_table(
                lc.iw_contract_closed_form(lc.span_subalgebra(so5, so5_split))),
            "star": lambda r: self._nil_matches(
                r["report"]["result"], _oracle_star(so3, so3_split, star_a[:-1], star_a[-1],
                                                    star_b[:-1], star_b[-1], 5)),
            "group-mult": lambda r: (
                [[Fraction(x) for x in row] for row in r["report"]["h"]]
                == [list(row) for row in gen.mat_mul(ad1, ad2)]
                and self._nil_matches(r["report"]["nil"], _oracle_star(
                    so3, so3_split, gm_a[:-1], gm_a[-1],
                    [gen.mat_vec(ad1, v) for v in gm_b[:-1]], gen.mat_vec(ad1, gm_b[-1]), 2))),
        }
        self.warm = {}
        self.ops = []
        for label, argv in script:
            self.warm[label] = self._call(argv)  # warm-up run: the byte-exact reference
            self.ops.append(self._cli_op(label, argv, field_checks[label]))

    @staticmethod
    def _nil_matches(payload, want):
        mids, top = want
        got_mids = tuple(tuple(Fraction(x) for x in m) for m in payload["mids"])
        return got_mids == mids and tuple(Fraction(x) for x in payload["top"]) == top

    def _call(self, argv):
        """One fresh CLI process through cli_probe.py; returns (code, stdout, traceback).

        The probe's reference samples join the runner's clock, so the call is
        normalised by the CPU speed measured while it ran.
        """
        report = os.path.join(self.workdir, "probe.json.gz")
        cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                            "cli_probe.py"),
               report, "1" if self.traced else "0", "--format", "machine", *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              timeout=170, check=False)
        start = time.perf_counter()
        with gzip.open(report, "rt", encoding="utf-8") as fh:
            payload = json.load(fh)
        os.remove(report)
        if self.traced:
            self.reports.append(payload)
        if self.clock is not None:
            self.clock.absorb(payload["times"], payload["durations"],
                              payload["hidden"] + time.perf_counter() - start)
        return proc.returncode, proc.stdout, b"Traceback" in proc.stderr

    def _cli_op(self, label, argv, field_check):
        def run():
            return self._call(argv)

        def check(out):
            code, stdout, traceback = out
            if code != 0 or traceback:
                return False, f"exit code {code}, traceback printed: {traceback}"
            if out != self.warm[label]:
                return False, "machine output differs from the warm-up run"
            try:
                ok = field_check(json.loads(stdout))
            except (ValueError, KeyError, TypeError) as err:
                return False, f"unreadable output: {err}"
            return ok, "reported fields or values are wrong"

        return Op(label, label, run, check)


WORKLOADS = {w.name: w for w in (ContractScaling, StarBCH, ExpandValidate, CLISession)}
