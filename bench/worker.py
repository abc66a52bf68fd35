"""One fresh interpreter running one workload in one thread.

Started by run.py, never by hand.  It imports ffkakeya, builds the
workload's inputs (set-up), prepares the inputs that come from the
reference code (untimed), runs one cold pass over the cases, then warm
passes until --seconds are used up, checking every output.  Times are
reported scaled to the reference speed (see calibrate.py); the raw ones go
to the result file too.  Its only standard output is one JSON line at the
end; with --probe it stops right after set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def now() -> float:
    """System-wide monotonic clock, comparable with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(cases, ctx, cal) -> tuple[list[float], float, list[tuple[str, str]]]:
    """Time each case's call, then check its output outside the timing.
    A calibration sample runs before each case; the returned scale is the
    reference time over their median."""
    ctx.state.clear()
    gc.collect()
    times, samples, failures = [], [], []
    for case in cases:
        samples.append(cal.sample())
        with ctx.tracer.span(f"case.{case.name}"):
            t0 = time.perf_counter()
            try:
                out, err = case.run(), None
            except Exception as exc:  # a failing call is a failed operation
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = case.check(out)
            except Exception as exc:  # so is a check the output breaks
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((case.name, err))
        del out
    return times, cal.reference_s / statistics.median(samples), failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent

    t0 = time.perf_counter()
    import ffkakeya as fk
    import_s = time.perf_counter() - t0
    if Path(fk.__file__).resolve().parent != root / "src" / "ffkakeya":
        sys.exit(f"ffkakeya imported from {fk.__file__}, not from the checkout")

    import calibrate
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
    ctx = workloads.Ctx(fk, args.seed, tracer, root)
    try:
        cases = workloads.WORKLOADS[args.workload](ctx)
        ready_at = now()
        if args.trace:
            tracer.mark()
        cal = calibrate.Calibration()
        setup_scale = cal.scale()
        if args.probe:
            print(json.dumps({"ready_at": ready_at, "setup_scale": setup_scale}), flush=True)
            return 0
        for prepare in ctx.prepare:
            prepare()
        return measure(args, ctx, cases, cal, tracer, import_s, ready_at, setup_scale)
    finally:
        for stop in ctx.cleanup:
            stop()


def measure(args, ctx, cases, cal, tracer, import_s, ready_at, setup_scale) -> int:
    cold, cold_scale, failures = run_pass(cases, ctx, cal)
    warm = [[] for _ in cases]  # scaled times
    warm_raw = [[] for _ in cases]
    windows = []  # (first span, end span, scalar calls, scalar seconds) per warm pass
    start = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer.enabled else 0
        calls0, secs0 = (tracer.scalar_calls, tracer.scalar_s) if tracer.enabled else (0, 0.0)
        p0 = time.perf_counter()
        times, scale, fails = run_pass(cases, ctx, cal)
        last = time.perf_counter() - p0
        failures += fails
        for i, t in enumerate(times):
            warm[i].append(t * scale)
            warm_raw[i].append(t)
        if tracer.enabled:
            windows.append((lo, len(tracer.spans), tracer.scalar_calls - calls0,
                            tracer.scalar_s - secs0))
        if time.perf_counter() - start + last > args.seconds:
            break
    for name, err in failures[:10]:
        print(f"FAIL {args.workload} {name}: {err}", file=sys.stderr)
    medians = [statistics.median(w) for w in warm]
    result = {
        "ready_at": ready_at,
        "setup_scale": setup_scale,
        "import_s": import_s,
        "cold_s": sum(cold) * cold_scale,
        "warm_s": sum(medians),
        "cold_raw_s": sum(cold),
        "warm_raw_s": sum(statistics.median(w) for w in warm_raw),
        "peak_rss_mb": (ctx.peak_rss_kb
                        or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
        "attempted": len(cases) * (1 + len(warm[0])),
        "failed": len(failures),
        "passes": len(warm[0]),
        "cases": {c.name: {"cold_s": t * cold_scale, "warm_median_s": m, "warm_s": w,
                           "warm_raw_s": r}
                  for c, t, m, w, r in zip(cases, cold, medians, warm, warm_raw)},
    }
    if tracer.enabled:
        result["per_layer"] = tracer.layer_metrics(windows)
        result["per_layer"]["cli.import_ms"] = 1e3 * import_s
        spans_file = Path(args.out_dir) / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "tag"], "passes": windows,
             "spans": tracer.spans}, default=str))
        result["spans_file"] = str(spans_file)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
