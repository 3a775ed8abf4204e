"""One sample of a workload, in a fresh interpreter.

run.py starts this script once per sample, so that every sample pays the
cold start a CLI invocation pays.  It draws the plan from the seed, imports
knpair from ``src/``, sets up every field of the plan, answers the queries
one at a time, checks every answer outside the timed region and prints one
JSON line.  Its times are scaled to a reference host speed (hostspeed.py);
the raw ones are kept as ``raw_*``.  With ``--trace 1`` it also installs the
per-layer wrappers.  With ``--setup-only`` it stops after the setup.

    python3 benchmarks/child.py --workload scan --seed 1 --t0 <time.monotonic()> --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
MAX_FAILURES_SHOWN = 5


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before the parent started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after the setup")
    args = ap.parse_args()

    import hostspeed
    import workloads

    meter = hostspeed.Meter()
    meter.block()
    plan = workloads.draw(args.workload, args.seed)
    sys.path.insert(0, str(SRC_DIR))
    t_import = time.perf_counter()
    for module in plan.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t_import

    tracer = None
    span = workloads.no_span
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span

    state = workloads.State()
    workloads.setup(plan, state, span, between=meter.piece)
    raw_setup_s = time.monotonic() - args.t0 - meter.piece_s()
    setup_s = raw_setup_s * meter.scale()
    if args.setup_only:
        print(json.dumps({"trace": 0, "setup_only": True, "setup_s": setup_s, "raw_setup_s": raw_setup_s,
                          "import_s": import_s, "attempted": 0, "failed": 0, "failures": []}))
        return

    first = len(meter.pieces)
    if not args.trace:  # no pieces inside the traced layers' self times
        meter.ticks_on()
    wall0 = time.perf_counter()
    served = workloads.serve(plan, state, span, between=meter.piece)
    meter.ticks_off()
    times = meter.gaps(first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failures = []
    for i, (query, answer) in enumerate(zip(plan.queries, served.answers)):
        problem = served.errors.get(i) or workloads.check(query, answer)
        if problem:
            failures.append(problem)

    record = {
        "trace": args.trace,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "import_s": import_s,
        **times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.queries),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        # span times in seconds from the first query
        record["spans"] = [[sid, name, start - wall0, end - wall0, parent, query]
                           for sid, name, start, end, parent, query in tracer.spans]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
