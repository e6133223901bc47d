"""Span tracing of liecontract entry points, installed from outside the library.

``Tracer.install`` replaces each entry point in TARGETS by a wrapper that
records a span (name, start, end, parent span) and per-name counters.  A
function is replaced in every liecontract module namespace that binds it
(``bracket_poly`` is bound in ``jets``, ``bch``, ``contraction``,
``expansion`` and the package itself); a method is replaced on its class.
``restore`` puts every original back.  Spans stay in memory until ``dump``.

Self time is a span's duration minus the durations of its direct child spans.
Time the tracer spends on its own bookkeeping (hashing arguments for the
``distinct`` ratios) is excluded from every span.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array

# (module, attribute or Class.method, extra statistic)
TARGETS = (
    ("contraction", "invert_family_apply", None),
    ("contraction", "eps_bracket", None),
    ("linalg", "poly_det", "distinct"),
    ("linalg", "solve_in_basis", "distinct"),
    ("algebra", "LieAlgebra.validate", None),
    ("algebra", "LieAlgebra.bracket", "zero_vector"),
    ("expansion", "IWExpansion.bracket", None),
    ("expansion", "IWExpansion.coords", None),
    ("expansion", "IWExpansion.structure_algebra", None),
    ("expansion", "GeneralExpansion.bracket_tuples", None),
    ("bch", "local_mult", None),
    ("bch", "word_coefficients", None),
    ("jets", "bracket_poly", "zero_jet"),
    ("jets", "MatrixJet.matmul", None),
    ("group", "ExpansionGroup.star", None),
    ("group", "ExpansionGroup.mult", None),
    ("group", "ExpansionGroup.h_element", None),
    ("oracle", "Representation.local_mult", None),
    ("oracle", "Representation.decompose", None),
    ("oracle", "Representation.check", None),
    ("verify", "run_verify", None),
    ("formats", "machine_dumps", None),
)

# the per-layer metrics reported by a traced run, with their units
LAYER_METRICS = (
    ("contraction.invert_family_apply.calls", "count"),
    ("contraction.invert_family_apply.self_s", "s"),
    ("contraction.eps_bracket.calls", "count"),
    ("linalg.poly_det.calls", "count"),
    ("linalg.poly_det.self_s", "s"),
    ("linalg.poly_det.distinct_ratio", "ratio"),
    ("algebra.LieAlgebra.validate.self_s", "s"),
    ("linalg.solve_in_basis.calls", "count"),
    ("linalg.solve_in_basis.self_s", "s"),
    ("linalg.solve_in_basis.distinct_columns_ratio", "ratio"),
    ("expansion.IWExpansion.bracket.calls", "count"),
    ("expansion.IWExpansion.bracket.self_s", "s"),
    ("expansion.IWExpansion.coords.calls", "count"),
    ("expansion.IWExpansion.coords.self_s", "s"),
    ("expansion.IWExpansion.structure_algebra.self_s", "s"),
    ("expansion.GeneralExpansion.bracket_tuples.calls", "count"),
    ("expansion.GeneralExpansion.bracket_tuples.self_s", "s"),
    ("bch.local_mult.calls", "count"),
    ("bch.local_mult.self_s", "s"),
    ("bch.word_coefficients.total_s", "s"),
    ("jets.bracket_poly.calls", "count"),
    ("jets.bracket_poly.self_s", "s"),
    ("jets.bracket_poly.zero_ratio", "ratio"),
    ("group.ExpansionGroup.star.calls", "count"),
    ("group.ExpansionGroup.star.self_s", "s"),
    ("group.ExpansionGroup.mult.calls", "count"),
    ("group.ExpansionGroup.mult.self_s", "s"),
    ("group.ExpansionGroup.h_element.calls", "count"),
    ("group.ExpansionGroup.h_element.self_s", "s"),
    ("algebra.LieAlgebra.bracket.calls", "count"),
    ("algebra.LieAlgebra.bracket.self_s", "s"),
    ("algebra.LieAlgebra.bracket.zero_ratio", "ratio"),
    ("oracle.Representation.local_mult.calls", "count"),
    ("oracle.Representation.local_mult.self_s", "s"),
    ("oracle.Representation.decompose.calls", "count"),
    ("oracle.Representation.decompose.self_s", "s"),
    ("oracle.Representation.check.calls", "count"),
    ("oracle.Representation.check.self_s", "s"),
    ("jets.MatrixJet.matmul.calls", "count"),
    ("jets.MatrixJet.matmul.self_s", "s"),
    ("verify.run_verify.total_s", "s"),
    ("formats.machine_dumps.self_s", "s"),
    ("cli.import_s", "s"),
)


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "marked", "keys", "merged_distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost spans only, so recursion is not double counted
        self.depth = 0
        self.marked = 0  # zero results, for the zero ratios
        self.keys = set()  # distinct arguments, for the distinct ratios
        self.merged_distinct = 0

    @property
    def distinct(self):
        return len(self.keys) + self.merged_distinct

    def as_dict(self):
        return {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s,
                "marked": self.marked, "distinct": self.distinct}

    def merge(self, other):
        """Add the exported counters of another process (distinct counts add too)."""
        self.calls += other["calls"]
        self.self_s += other["self_s"]
        self.total_s += other["total_s"]
        self.marked += other["marked"]
        self.merged_distinct += other["distinct"]


def _freeze(value):
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class Tracer:
    """Records spans around TARGETS; ``clock`` is the time source in seconds."""

    def __init__(self, clock):
        self._clock = clock
        self.bookkeeping = 0.0
        self.stats = {}
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._child = []
        self._patches = []

    def now(self):
        return self._clock() - self.bookkeeping

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
            self.names.append(name)
        return self.stats[name]

    def _wrap(self, name, fn, extra):
        stat = self.stat(name)
        name_id = self.names.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if extra == "distinct":
                t = tracer._clock()
                arg = args[0] if args else next(iter(kwargs.values()))
                stat.keys.add(_freeze(arg))
                tracer.bookkeeping += tracer._clock() - t
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            start = tracer.now()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            stat.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                tracer._stack.pop()
                child = tracer._child.pop()
                dur = end - start
                tracer.span_end[idx] = end
                stat.calls += 1
                stat.self_s += dur - child
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dur
                if tracer._child:
                    tracer._child[-1] += dur
            if extra == "zero_vector" and not any(result):
                stat.marked += 1
            elif extra == "zero_jet" and result.degree < 0:
                stat.marked += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"liecontract.{module_name}")
        package = [m for n, m in sys.modules.items()
                   if n == "liecontract" or n.startswith("liecontract.")]
        for module_name, attr, extra in TARGETS:
            module = sys.modules[f"liecontract.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original, extra))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, extra)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def export(self):
        """Counters and spans as plain data (spans: name id, parent, start, end)."""
        return {
            "names": self.names,
            "stats": {n: s.as_dict() for n, s in self.stats.items()},
            "spans": [self.span_name.tolist(), self.span_parent.tolist(),
                      self.span_start.tolist(), self.span_end.tolist()],
        }


def dump(path, payload):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(payload, fh)


def layer_metrics(stats, import_s=0.0):
    """The LAYER_METRICS values from merged ``Stat`` objects (idle layers read 0)."""
    def get(name):
        return stats.get(name) or Stat()

    out = {}
    for metric, _ in LAYER_METRICS:
        if metric == "cli.import_s":
            out[metric] = import_s
            continue
        name, field = metric.rsplit(".", 1)
        st = get(name)
        if field == "calls":
            out[metric] = st.calls
        elif field == "self_s":
            out[metric] = st.self_s
        elif field == "total_s":
            out[metric] = st.total_s
        elif field == "zero_ratio":
            out[metric] = st.marked / st.calls if st.calls else 0.0
        else:  # distinct_ratio, distinct_columns_ratio
            out[metric] = st.distinct / st.calls if st.calls else 0.0
    return out
