"""liecontract benchmark: one workload per run, drift-normalised timings.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: contract-scaling, star-bch, expand-validate, cli-session (see
bench/README.md).  The library is imported from ``src/`` next to this
directory; without it the run fails.

Timings in ``*_ref`` units are wall time divided by the duration of the fixed
kernel in refkernel.py, sampled by a refclock.RefClock while ops run (a
SIGALRM handler runs the kernel and its time is subtracted from the op) and
between CLI calls.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of one traced batch.  Human-readable lines come first;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# In-process workloads set up twice before the timed pass and three more
# times after it (on fresh instances), so the median spans the run's drift;
# cli-session sets up once, because its warm-up is a whole CLI session.
SETUPS_BEFORE, SETUPS_AFTER = 2, 3
# setup_s is set-up time in ref units times this fixed kernel duration: the
# seconds a set-up takes on a core that runs the kernel in 2 ms (a fast core
# of a current x86 server), whatever the host's speed during the run
REF_SECONDS = 2e-3
TAIL_BEYOND = 10


@dataclasses.dataclass
class Record:
    op: int
    rep: int
    start: float
    end: float
    seconds: float
    output: object  # kept for an op's first call only
    error: str = None
    same: bool = None  # later calls: whether the output equals the first call's
    ref: float = 0.0  # seconds / kernel duration


def canonical(value):
    """Comparable form of an output that does not depend on class identity."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def purge_library():
    for name in [n for n in sys.modules if n == "liecontract" or n.startswith("liecontract.")]:
        del sys.modules[name]


def import_library():
    lc = importlib.import_module("liecontract")
    if not os.path.abspath(lc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"liecontract imported from {lc.__file__}, not from {SRC}")
    return lc


def timed_setup(workload, seed, workdir, clock, tracer=None):
    """Fresh import, input generation, spec files and warm-up.

    Returns (start, end, seconds); the kernel samples taken meanwhile are
    excluded from the seconds.
    """
    purge_library()
    with clock.ticking(enabled=not workload.subprocess):
        workload.clock = clock
        start, vstart = time.perf_counter(), clock.vnow()
        import_library()
        if tracer is not None:
            tracer.install()
        workload.setup(importlib.import_module("liecontract"), seed, workdir)
        vend, end = clock.vnow(), time.perf_counter()
        workload.clock = None
    return start, end, vend - vstart


def run_pass(workload, clock, budget, max_reps=None):
    """Whole batches until the next one would end past ``budget`` seconds."""
    records = []
    first = {}
    begin = time.perf_counter()
    rep = 0
    rounds = max(op.inner for op in workload.ops)
    workload.clock = clock
    with clock.ticking(enabled=not workload.subprocess):
        while True:
            rep_start = time.perf_counter()
            # an op called several times per batch is called once per round,
            # so its calls meet the host at different moments
            for round_ in range(rounds):
                for index, op in enumerate(workload.ops):
                    if round_ >= op.inner:
                        continue
                    if workload.subprocess:
                        clock.sample()
                        clock.sample()
                    start, vstart = time.perf_counter(), clock.vnow()
                    error = output = None
                    try:
                        output = op.run()
                    except Exception:  # counted as a failed op, the run goes on
                        error = traceback.format_exc()
                    vend, end = clock.vnow(), time.perf_counter()
                    record = Record(index, rep, start, end, vend - vstart, output, error)
                    if error is None and index in first:
                        # compare now and drop the output, so memory does not
                        # grow with the number of batches
                        record.same, record.output = canonical(output) == first[index], None
                    elif error is None:
                        first[index] = canonical(output)
                    records.append(record)
            rep += 1
            rep_seconds = time.perf_counter() - rep_start
            if max_reps is not None and rep >= max_reps:
                break
            if rep >= workload.min_reps and time.perf_counter() - begin + rep_seconds > budget:
                break
    workload.clock = None
    for r in records:
        r.ref = r.seconds / clock.unit(r.start, r.end)
    return records


def check_records(workload, records, reference=None):
    """Count failed ops.  An op's first call goes through its independent check
    (or, given ``reference``, must equal that canonical output); later calls
    must equal the first.  Returns the count and the checked first outputs."""
    failed = 0
    checked = {}
    first_ok = {}
    for r in records:
        op = workload.ops[r.op]
        if r.error is not None:
            ok, detail = False, r.error
        elif r.same is not None:
            ok = r.same and first_ok[r.op]
            detail = "output differs from the op's first call, or that one failed"
        elif reference is not None:
            ok = canonical(r.output) == reference.get(r.op)
            detail = "traced output differs from the untraced one"
            first_ok[r.op] = ok
        else:
            try:
                ok, detail = op.check(r.output)
            except Exception:  # a crashing check is a failed op
                ok, detail = False, traceback.format_exc()
            first_ok[r.op] = ok
            if ok:
                checked[r.op] = canonical(r.output)
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"FAILED {op.label} (rep {r.rep}): {str(detail).strip()}", file=sys.stderr)
    return failed, checked


def summarise(workload, records):
    def med(values):
        return statistics.median(values)

    # an op's time in a batch is the median of its calls there; its time in
    # the run is the median over all its calls
    cells, by_op = {}, {}
    for r in records:
        cells.setdefault((r.rep, r.op), []).append(r)
        by_op.setdefault(r.op, []).append(r)
    reps = sorted({r.rep for r in records})
    largest = {i for i, op in enumerate(workload.ops) if op.slot == workload.largest}

    def per_rep(field, ops=None):
        """Median over batches of the summed op times (of ``ops``, default all)."""
        totals = dict.fromkeys(reps, 0.0)
        for (rep, op), rs in cells.items():
            if ops is None or op in ops:
                totals[rep] += med([getattr(r, field) for r in rs])
        return med(list(totals.values()))

    batch_ref, batch_s = per_rep("ref"), per_rep("seconds")
    largest_ref, largest_s = per_rep("ref", largest), per_rep("seconds", largest)
    op_ref = [med([r.ref for r in rs]) for rs in by_op.values()]
    op_s = [med([r.seconds for r in rs]) for rs in by_op.values()]
    # fixed per workload: the highest percentile that has TAIL_BEYOND op samples
    # beyond it in a run of the minimum number of batches
    n_min = len(workload.ops) * workload.min_reps
    tail = n_min - TAIL_BEYOND

    def tail_quantile(values):  # the tail / n_min quantile
        return statistics.quantiles(values, n=n_min, method="inclusive")[tail - 1]

    return {
        "batch_ref": batch_ref, "batch_s": batch_s,
        "op_p50_ref": med(op_ref), "op_p50_s": med(op_s),
        "op_tail_ref": tail_quantile(op_ref), "op_tail_s": tail_quantile(op_s),
        "tail_percentile": tail / n_min * 100, "calls": len(records),
        "largest_ref": largest_ref, "largest_s": largest_s, "reps": len(reps),
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.subprocess else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


def traced_pass(workload, seed, workdir, clock, trace_path):
    """One traced batch; returns (records, merged stats, import seconds)."""
    if workload.subprocess:
        workload.traced, workload.reports = True, []
        try:
            records = run_pass(workload, clock, 0, max_reps=1)
        finally:
            workload.traced = False
        stats = {}
        for report in workload.reports:
            for name, values in report["stats"].items():
                stats.setdefault(name, spans.Stat()).merge(values)
        spans.dump(trace_path, {"calls": workload.reports})
        return records, stats, sum(r["import_s"] for r in workload.reports)
    tracer = spans.Tracer(clock.vnow)
    try:
        timed_setup(workload, seed, workdir, clock, tracer)
        records = run_pass(workload, clock, 0, max_reps=1)
    finally:
        tracer.restore()
    spans.dump(trace_path, tracer.export())
    return records, tracer.stats, 0.0


def pin_to_one_cpu():
    """Run this process and its children on one CPU.

    Parallel CPUs of a shared host can run at different effective speeds; on
    one CPU the reference kernel and the ops (and CLI children) see the same.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liecontract", "__init__.py")):
        print(f"error: the library source {SRC}/liecontract is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    print(f"pinned to CPU {pin_to_one_cpu()}")
    workload = workloads.WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_metrics(kind, values):
    """The JSON metrics: the names and units BENCHMARK.json lists under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def measure(workload, args, workdir):
    clock = refclock.RefClock()
    before = 1 if workload.subprocess else SETUPS_BEFORE
    setups = [timed_setup(workload, args.seed, workdir, clock) for _ in range(before)]
    budget = args.seconds / 2 if args.trace else args.seconds
    records = run_pass(workload, clock, budget)
    # read before the checks, whose oracle routes would otherwise count too
    rss = peak_rss_mb(workload)
    failed, checked = check_records(workload, records)
    summary = summarise(workload, records)
    attempted = len(records)
    print(f"workload {workload.name}, seed {args.seed}: {len(workload.ops)} ops per batch, "
          f"{summary['reps']} batches, {attempted} ops, {failed} failed, "
          f"kernel median {statistics.median(clock.durations) * 1e3:.3f} ms "
          f"over {len(clock.durations)} samples")
    if args.trace:
        trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json.gz")
        traced, stats, import_s = traced_pass(workload, args.seed, workdir, clock, trace_path)
        traced_failed, _ = check_records(workload, traced, reference=checked)
        attempted += len(traced)
        failed += traced_failed
        overhead = summarise(workload, traced)["batch_ref"] / summary["batch_ref"]
        values = spans.layer_metrics(stats, import_s)
        values["trace_overhead_ratio"] = overhead
        units = dict(spans.LAYER_METRICS, trace_overhead_ratio="ratio")
        for name, value in values.items():
            span = name.rsplit(".", 1)[0]
            base = ""
            if name.endswith("_ratio") and name != "trace_overhead_ratio":
                calls = stats[span].calls if span in stats else 0
                base = f"  (base: {calls} calls)"
            print(f"{name:52s} {value:.6g} {units[name]}{base}")
        metrics = result_metrics("per_layer", values)
        print(f"trace_overhead_ratio base: untraced batch_ref {summary['batch_ref']:.6g}; "
              f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        raw = {"batch_ref": summary["batch_s"], "op_p50_ref": summary["op_p50_s"],
               "op_tail_ref": summary["op_tail_s"], "largest_ref": summary["largest_s"]}
        if not workload.subprocess and not args.trace:
            setups += [timed_setup(type(workload)(), args.seed, workdir, clock)
                       for _ in range(SETUPS_AFTER)]
        setup_ref = statistics.median([sec / clock.unit(a, b) for a, b, sec in setups])
        raw["setup_s"] = statistics.median([sec for _, _, sec in setups])
        values = {
            "setup_s": setup_ref * REF_SECONDS,
            "batch_ref": summary["batch_ref"],
            "op_p50_ref": summary["op_p50_ref"],
            "op_tail_ref": summary["op_tail_ref"],
            "largest_ref": summary["largest_ref"],
            "peak_rss_mb": rss,
        }
        metrics = result_metrics("end_to_end", values)
        for name, entry in metrics.items():
            extra = f"   raw {raw[name]:.6g} s" if name in raw else ""
            print(f"{name:14s} {entry['value']:.6g} {entry['unit']}{extra}")
        print(f"op_p50_ref and op_tail_ref (p{summary['tail_percentile']:.4g}) are taken over "
              f"the {len(workload.ops)} per-op times (medians of {summary['calls']} calls); "
              f"largest case: {workload.largest}; "
              f"set-ups: {', '.join(f'{sec:.4g}' for _, _, sec in setups)} s raw; "
              f"setup_s is {setup_ref:.6g} ref at {REF_SECONDS * 1e3:.4g} ms per ref")
        print(f"failed_ops_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
