"""The knpair benchmark.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

Runs one workload (or ``all`` of them in turn) for about ``--seconds``
seconds.  Each sample is a fresh child process (child.py) that sets up the
seed's fields and answers the seed's queries one at a time: a closed loop
with one client and no extra threads.  Samples run back to back, and a new
one starts only while it is expected to end before the time is up.

With ``--trace 0`` it reports the end-to-end metrics, as the median over
the samples.  Times are scaled to a reference host speed (hostspeed.py); the
report also gives the raw medians.  With ``--trace 1`` samples alternate
between untraced and traced, and it reports the per-layer metrics of the
traced ones plus the tracing overhead.  Every answer is checked.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Run
records, spans included, go to benchmarks/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_PKG = ROOT / "src" / "knpair"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; no sample may start past this point.
HARD_LIMIT_S = 170.0
# share of an untraced run given to set-ups alone
SETUP_SHARE = 0.1

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"count": (".calls", "search.scanned"), "1/s": ("search.scan_rate",),
                   "ratio": (".distinct_ratio", ".found_ratio")}


def per_layer_unit(name: str) -> str:
    for unit, suffixes in PER_LAYER_UNITS.items():
        if name.endswith(suffixes):
            return unit
    return "s"


def run_stamp() -> dict:
    """What a result needs to be judged: code, interpreter, libraries, machine load."""
    digest = hashlib.sha256()
    for path in sorted(SRC_PKG.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
        commit = proc.stdout.strip() or None

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def run_child(workload: str, seed: int, trace: int, timeout: float, setup_only: bool = False) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0), "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "error": f"sample exceeded {timeout:.0f} s", "duration_s": time.monotonic() - t0}
    duration = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"trace": trace, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "duration_s": duration}
    record = json.loads(lines[-1])
    record["duration_s"] = duration
    return record


def run_samples(workload: str, seed: int, seconds: float, trace: int, attempted_per_sample: int) -> list[dict]:
    """Samples back to back until the next one would end after ``seconds``.

    An untraced run spends its first SETUP_SHARE of ``seconds`` on set-ups
    alone, so that ``setup_s`` is the median of more set-ups than there are
    samples.
    """
    start = time.monotonic()
    kinds = (0, 1) if trace else (0,)
    records: list[dict] = []
    while not trace:
        records.append(run_child(workload, seed, 0, HARD_LIMIT_S, setup_only=True))
        if "error" in records[-1] or time.monotonic() - start + records[-1]["duration_s"] > SETUP_SHARE * seconds:
            break
    last: dict[int, float] = {}
    i = 0
    while not records or "error" not in records[-1]:
        kind = kinds[i % len(kinds)]
        elapsed = time.monotonic() - start
        records.append(run_child(workload, seed, kind, HARD_LIMIT_S - elapsed))
        last[kind] = records[-1]["duration_s"]
        if "error" in records[-1]:
            break
        i += 1
        kind = kinds[i % len(kinds)]
        expected = last.get(kind, last[kinds[0]])
        ends_at = time.monotonic() - start + expected
        if ends_at > HARD_LIMIT_S or (ends_at > seconds and i >= len(kinds)):
            break
    for r in records:
        if "error" in r:
            r.update(attempted=attempted_per_sample, failed=attempted_per_sample, failures=[r["error"]])
    return records


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def determinism_problems(workload: str, seed: int, stamp: dict, traced: list[dict]) -> list[str]:
    """Counts must repeat exactly: between the traced samples of this run and
    against the last traced run of the same code, workload and seed."""
    counts = [tracing.deterministic_counts(r["layers"]) for r in traced]
    problems = [f"traced sample {i} counts differ from sample 0"
                for i, c in enumerate(counts) if c != counts[0]]
    if not counts:
        return problems
    path = OUT_DIR / f"counts-{workload}-seed{seed}-{stamp['src_sha256'][:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = sorted(k for k in set(earlier) | set(counts[0]) if earlier.get(k) != counts[0].get(k))
        if diff:
            problems.append(f"counts differ from the earlier run in {path.name}: {', '.join(diff[:8])}")
    else:
        path.write_text(json.dumps(counts[0], indent=1, sort_keys=True))
    return problems


def summarize(workload: str, seed: int, seconds: float, trace: int) -> dict:
    stamp = run_stamp()
    plan = workloads.draw(workload, seed)
    records = run_samples(workload, seed, seconds, trace, len(plan.queries))
    ok = [r for r in records if "error" not in r]
    setups = [r for r in ok if not r["trace"]]
    plain = [r for r in setups if "setup_only" not in r]
    traced = [r for r in ok if r["trace"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [msg for r in records for msg in r["failures"]]
    metrics: dict[str, dict] = {}
    if not trace and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median(setups if name == "setup_s" else plain, name), "unit": unit}
    if trace and plain and traced:
        # counts repeat exactly (determinism_problems checks it); times are medians
        counts = tracing.deterministic_counts(traced[0]["layers"])
        for name in traced[0]["layers"]:
            value = counts[name] if name in counts else statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
        metrics["knpair.import_s"] = {"value": _median(ok, "import_s"), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": _median(traced, "wall_s") - _median(plain, "wall_s"),
                                       "unit": "s"}
        problems += determinism_problems(workload, seed, stamp, traced)
    complete = (not trace and bool(plain)) or (bool(trace) and bool(plain) and bool(traced))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "stamp": stamp,
        "queries_per_sample": len(plan.queries), "samples": records, "problems": problems,
        "result": {
            "correct": complete and failed == 0 and not problems and len(ok) == len(records),
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def report_lines(summary: dict) -> list[str]:
    res = summary["result"]
    samples = [r for r in summary["samples"] if "error" not in r]
    setups = [r for r in samples if not r["trace"]]
    plain = [r for r in setups if "setup_only" not in r]
    lines = [f"knpair benchmark: workload={summary['workload']} seed={summary['seed']} "
             f"seconds={summary['seconds']} trace={summary['trace']}",
             f"stamp: {json.dumps(summary['stamp'], sort_keys=True)}",
             f"samples: {len(summary['samples'])} ({sum(1 for r in samples if r['trace'])} traced, "
             f"{len(setups) - len(plain)} set-up only), {summary['queries_per_sample']} queries each"]
    for name, unit in END_TO_END.items():
        if plain:
            pool = setups if name == "setup_s" else plain
            vals = [r[name] for r in pool]
            raw = f", raw {statistics.median(r['raw_' + name] for r in pool):.4f}" if unit == "s" else ""
            lines.append(f"  {name:<14} {statistics.median(vals):12.4f} {unit:<5} median of {len(vals)}"
                         f" (min {min(vals):.4f}, max {max(vals):.4f}{raw})")
    rate = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    lines.append(f"  {'error_rate':<14} {rate:12.4f} {'1':<5} {res['failed']} of {res['attempted']} queries")
    if summary["trace"]:
        for name, m in sorted(res["metrics"].items()):
            lines.append(f"  {name:<36} {m['value']:16.6f} {m['unit']}")
    lines += [f"  problem: {msg}" for msg in summary["problems"][:10]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC_PKG / "__init__.py").is_file():
        print(f"error: knpair sources not found at {SRC_PKG.relative_to(ROOT)}/", file=sys.stderr)
        return 2
    if not workloads.POOLS_FILE.is_file():
        print(f"error: query pools not found at {workloads.POOLS_FILE.relative_to(ROOT)}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so that no sample pays the compiler
    if not compileall.compile_dir(str(SRC_PKG), quiet=1):
        print("error: knpair sources do not compile", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        summary = summarize(name, args.seed, args.seconds, args.trace)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
        print("\n".join(report_lines(summary)), flush=True)
        summaries.append(summary)
    if len(summaries) == 1:
        final = summaries[0]["result"]
    else:
        final = {
            "correct": all(s["result"]["correct"] for s in summaries),
            "attempted": sum(s["result"]["attempted"] for s in summaries),
            "failed": sum(s["result"]["failed"] for s in summaries),
            "metrics": {f"{s['workload']}.{k}": v for s in summaries for k, v in s["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
