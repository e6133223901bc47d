"""Run one liecontract CLI call with reference-kernel sampling, optionally traced.

Usage: python bench/cli_probe.py REPORT_PATH TRACE CLI_ARGUMENTS...

Equivalent to ``python -m liecontract.cli CLI_ARGUMENTS...`` (same stdout,
same exit code), plus: a refclock.RefClock samples the reference kernel
while the call runs, so the caller can normalise the call's wall time by the
CPU speed during the call itself.  With TRACE = 1 the tracer is
installed after the import.  The samples, the time they took, the import time
and (traced) the counters and spans go to REPORT_PATH as gzipped JSON.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import refclock  # noqa: E402
import spans  # noqa: E402


def main():
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    clock = refclock.RefClock()
    payload = {}
    try:
        with clock.ticking(edge=0):
            start = clock.vnow()
            import liecontract.cli as cli
            payload["import_s"] = clock.vnow() - start
            tracer = spans.Tracer(clock.vnow) if traced else None
            if tracer is not None:
                tracer.install()
            try:
                code = cli.main(argv)
            finally:
                if tracer is not None:
                    tracer.restore()
                    payload.update(tracer.export())
    finally:
        sys.stdout.flush()
        payload.update(times=clock.times, durations=clock.durations, hidden=clock.hidden)
        spans.dump(report_path, payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
