"""Command-line front end.

Exit codes: 0 on success, 1 for domain failures (a pole, a rejected
subalgebra, a failed validation), 2 for usage and input errors (including a
file that cannot be read or written), 3 for any other exception, which
signals a bug.  Machine mode emits deterministic JSON with rationals as
"p/q" strings.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bch, formats
from .algebra import MAX_DIM
from .catalog import BUILTIN_NAMES, builtin
from .contraction import contract, eps_bracket, iw_family
from .errors import LieContractError, PoleError, SpecFormatError, UnknownAlgebra
from .expansion import IWExpansion
from .group import ExpansionGroup, so3_example
from .jets import Jet
from . import linalg
from .verify import run_verify

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_TRIALS = 1000


def _emit(payload, fmt, stream=None):
    if fmt == "machine":
        stream = sys.stdout if stream is None else stream
        stream.write(formats.machine_dumps(payload) + "\n")


def _resolve_algebra(token):
    """A catalogue name, or a path to an algebra spec file."""
    try:
        return builtin(token)
    except UnknownAlgebra:
        pass
    if os.path.exists(token):
        return formats.load_algebra(token), None
    raise UnknownAlgebra(
        f"{token!r} is neither a catalogued algebra ({', '.join(BUILTIN_NAMES)}) "
        f"nor an existing file")


def _format_jet(alg, jet):
    if jet.degree < 0:
        return "0"
    parts = []
    for k, coeff in enumerate(jet.coeffs):
        if linalg.is_zero_vector(coeff):
            continue
        body = alg.format_vector(coeff)
        if k == 0:
            parts.append(body)
        else:
            power = "eps" if k == 1 else f"eps^{k}"
            parts.append(f"{power}*({body})")
    return " + ".join(parts)


def _jet_payload(jet):
    return [formats.vector_to_strings(jet.coeff(k)) for k in range(len(jet.coeffs))]


def _nil_payload(nil):
    return {
        "mids": [formats.vector_to_strings(m) for m in nil.mids],
        "top": formats.vector_to_strings(nil.top),
    }


def cmd_validate(args):
    alg = formats.load_algebra(args.algebra)
    report = alg.validate()
    if args.format == "machine":
        _emit({
            "command": "validate",
            "algebra": formats.algebra_to_dict(alg),
            "report": {
                "checks": report.checks,
                "ok": report.ok,
                "violations": [
                    {"kind": v.kind, "location": list(v.location), "detail": v.detail}
                    for v in report.violations
                ],
            },
        }, args.format)
    else:
        print(report.summary())
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_contract(args):
    alg, _ = _resolve_algebra(args.algebra)
    if args.subalgebra:
        fam = iw_family(formats.load_split(args.subalgebra, alg))
    else:
        fam = formats.load_family(args.family, alg)
    limit = contract(fam)
    eps_block = {}
    if args.order:
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                jet = eps_bracket(fam, alg.basis_vector(a), alg.basis_vector(b),
                                  order=args.order)
                eps_block[f"[{alg.basis_names[a]},{alg.basis_names[b]}]"] = jet
    if args.format == "machine":
        payload = {
            "command": "contract",
            "algebra": formats.algebra_to_dict(limit),
            "report": {"order": args.order or 0},
        }
        if eps_block:
            payload["report"]["eps_brackets"] = {
                key: _jet_payload(jet) for key, jet in eps_block.items()
            }
        _emit(payload, args.format)
    else:
        print("contraction limit:")
        den, rows = limit._table
        for a, b, row in rows:
            v = [0] * limit.dim
            for c, x in row:
                v[c] = x
            print(f"  [{limit.basis_names[a]}, {limit.basis_names[b]}] = "
                  f"{limit.format_vector(linalg.from_numerators(v, den))}")
        if not rows:
            print("  (abelian)")
        for key, jet in eps_block.items():
            print(f"  {key}_eps = {_format_jet(alg, jet)}")
    return EXIT_OK


def cmd_expand(args):
    alg, _ = _resolve_algebra(args.algebra)
    ea = IWExpansion(formats.load_split(args.subalgebra, alg), args.order)
    if ea.dimension > MAX_DIM:
        print(f"error: expansion dimension {ea.dimension} (order + 1 times {alg.dim}) "
              f"must be at most {MAX_DIM}", file=sys.stderr)
        return EXIT_USAGE
    expanded = ea.structure_algebra()
    if args.emit_constants:
        payload = formats.algebra_to_dict(expanded)
        text = formats.machine_dumps(payload) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    report = expanded.validate()
    if args.format == "machine":
        _emit({
            "command": "expand",
            "report": {
                "order": args.order,
                "dimension": ea.dimension,
                "basis": list(expanded.basis_names),
                "jacobi_ok": report.ok,
            },
        }, args.format)
    else:
        print(f"expansion of order {args.order}: dimension {ea.dimension}")
        print("  basis: " + ", ".join(expanded.basis_names))
        print("  jacobi: " + ("holds exactly" if report.ok else report.summary()))
    return EXIT_OK if report.ok else EXIT_DOMAIN


def _parse_nil(grp, text):
    vectors = formats.parse_tuple_literal(text, grp.algebra.dim)
    if len(vectors) != grp.order + 1:
        raise SpecFormatError(
            f"tuple needs {grp.order + 1} vectors for order {grp.order}, "
            f"got {len(vectors)}")
    return grp.nil(vectors[:-1], vectors[-1])


def cmd_star(args):
    alg, _ = _resolve_algebra(args.algebra)
    grp = ExpansionGroup(formats.load_split(args.subalgebra, alg), args.order,
                         order_cap=args.order_cap)
    result = grp.star(_parse_nil(grp, args.a), _parse_nil(grp, args.b))
    if args.format == "machine":
        _emit({"command": "star", "report": {"result": _nil_payload(result)}}, args.format)
    else:
        for i, m in enumerate(result.mids, start=1):
            print(f"coefficient {i}: {alg.format_vector(m)}")
        print(f"coset representative: {alg.format_vector(result.top)}")
    return EXIT_OK


def cmd_group_mult(args):
    alg, _ = _resolve_algebra(args.algebra)
    grp = ExpansionGroup(formats.load_split(args.subalgebra, alg), args.order,
                         order_cap=args.order_cap)
    h1 = grp.h_element(formats.parse_matrix_literal(args.h1, alg.dim))
    h2 = grp.h_element(formats.parse_matrix_literal(args.h2, alg.dim))
    g = grp.mult(grp.element(h1, _parse_nil(grp, args.a)),
                 grp.element(h2, _parse_nil(grp, args.b)))
    if args.format == "machine":
        _emit({
            "command": "group-mult",
            "report": {
                "h": [formats.vector_to_strings(row) for row in g.h.ad],
                "nil": _nil_payload(g.nil),
            },
        }, args.format)
    else:
        print("subgroup part (adjoint matrix):")
        for row in g.h.ad:
            print("  " + "  ".join(str(x) for x in row))
        for i, m in enumerate(g.nil.mids, start=1):
            print(f"coefficient {i}: {alg.format_vector(m)}")
        print(f"coset representative: {alg.format_vector(g.nil.top)}")
    return EXIT_OK


def cmd_oracle(args):
    import random

    alg, rep = _resolve_algebra(args.algebra)
    if args.rep:
        rep = formats.load_representation(args.rep, alg)
    if rep is None:
        raise SpecFormatError("no representation available; pass --rep")
    rep.require_faithful()
    if (args.p is None) != (args.q is None):
        raise SpecFormatError("pass both --p and --q, or neither")
    bch.check_order(args.order, args.order_cap)
    if args.p is not None:
        trunc = args.order + 1
        pairs = [(Jet(alg.dim, trunc, formats.parse_jet_literal(args.p, alg.dim)),
                  Jet(alg.dim, trunc, formats.parse_jet_literal(args.q, alg.dim)))]
        for flag, jet in zip(("--p", "--q"), pairs[0]):
            if any(jet.coeff(0)):
                raise SpecFormatError(f"{flag} must vanish at 0: its constant term is nonzero")
    else:
        rng = random.Random(args.seed)
        pairs = []
        for _ in range(args.trials):
            coeffs = (linalg.zero_vector(alg.dim),) + tuple(
                linalg.random_vector(rng, alg.dim) for _ in range(args.order))
            p = Jet(alg.dim, args.order + 1, coeffs)
            coeffs = (linalg.zero_vector(alg.dim),) + tuple(
                linalg.random_vector(rng, alg.dim) for _ in range(args.order))
            pairs.append((p, Jet(alg.dim, args.order + 1, coeffs)))
    mismatches = 0
    last = None
    for p, q in pairs:
        direct = bch.local_mult(alg, p, q, args.order, cap=args.order_cap)
        via_matrices = rep.local_mult(p, q, args.order)
        last = direct
        if direct != via_matrices:
            mismatches += 1
    if args.format == "machine":
        payload = {
            "command": "oracle",
            "report": {
                "order": args.order,
                "trials": len(pairs),
                "seed": args.seed,
                "mismatches": mismatches,
            },
        }
        if args.p is not None:
            payload["report"]["product"] = _jet_payload(last)
        _emit(payload, args.format)
    else:
        if args.p is not None:
            print(f"product: {_format_jet(alg, last)}")
        print(f"{len(pairs)} trials at order {args.order}: "
              f"{len(pairs) - mismatches} exact agreements, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_DOMAIN


def cmd_example(args):
    if args.name != "so3":
        raise UnknownAlgebra("the worked example is available for so3")
    report = so3_example(args.order, seed=args.seed)
    if args.format == "machine":
        _emit({"command": "example", "report": report.as_dict()}, args.format)
    else:
        for chk in report.checks:
            print(("PASS " if chk.passed else "FAIL ") + chk.description)
        if report.float_summary is not None:
            fs = report.float_summary
            print(("PASS " if fs["passed"] else "FAIL ")
                  + f"float mode: {fs['samples']} samples within {fs['tolerance']}")
        print("example " + ("passed" if report.passed else "failed"))
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_verify(args):
    results = run_verify(seed=args.seed, trials=args.trials)
    if args.format == "machine":
        _emit({
            "command": "verify",
            "report": {
                "seed": args.seed,
                "trials": args.trials,
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "ok": all(r.passed for r in results),
            },
        }, args.format)
    else:
        for r in results:
            line = ("PASS " if r.passed else "FAIL ") + r.name
            if r.detail and not r.passed:
                line += f" ({r.detail})"
            print(line)
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liecontract",
        description="Exact Lie algebra contractions, expansions, and expansion groups")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--order-cap", type=int, default=bch.DEFAULT_ORDER_CAP,
                        help="override the BCH truncation cap "
                             f"(default {bch.DEFAULT_ORDER_CAP}, at most {bch.MAX_ORDER_CAP})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an algebra spec file")
    p.add_argument("algebra")

    p = sub.add_parser("contract", help="contraction limit along a split or family")
    p.add_argument("algebra")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--subalgebra")
    grp.add_argument("--family")
    p.add_argument("--order", type=int, default=0,
                   help="also report rescaled basis brackets to this order")

    p = sub.add_parser("expand", help="order-k expansion along a split")
    p.add_argument("algebra")
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--emit-constants", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("star", help="truncated-BCH product of two tuples")
    p.add_argument("algebra")
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("group-mult", help="multiply two expansion-group elements")
    p.add_argument("algebra")
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--h1", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--h2", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("oracle", help="compare the BCH product with the matrix model")
    p.add_argument("algebra")
    p.add_argument("--rep")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", help='jet literal "[v0; v1; ...]" for the left factor')
    p.add_argument("--q", help='jet literal for the right factor')

    p = sub.add_parser("example", help="worked rotation-group example")
    p.add_argument("name")
    p.add_argument("--order", type=int, choices=(0, 1), required=True)
    p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("verify", help="run the full identity battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)

    return parser


HANDLERS = {
    "validate": cmd_validate,
    "contract": cmd_contract,
    "expand": cmd_expand,
    "star": cmd_star,
    "group-mult": cmd_group_mult,
    "oracle": cmd_oracle,
    "example": cmd_example,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    order = getattr(args, "order", 0)
    trials = getattr(args, "trials", 1)
    if order < 0:
        print("error: order must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "oracle" and order < 1:
        print("error: oracle order must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.command in ("contract", "expand") and order > MAX_DIM:
        print(f"error: order must be at most {MAX_DIM}", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.order_cap <= bch.MAX_ORDER_CAP:
        print(f"error: order cap must be between 1 and {bch.MAX_ORDER_CAP}", file=sys.stderr)
        return EXIT_USAGE
    if trials < 1:
        print("error: trials must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if trials > MAX_TRIALS:
        print(f"error: trials must be at most {MAX_TRIALS}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return HANDLERS[args.command](args)
    except (SpecFormatError, UnknownAlgebra, OSError) as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_USAGE
    except LieContractError as err:
        if args.format == "machine":
            block = {"name": type(err).__name__, "message": str(err)}
            if isinstance(err, PoleError):
                block["valuation"] = err.valuation
                block["component"] = err.component
            _emit({"command": args.command, "error": block}, args.format)
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
