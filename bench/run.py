"""Benchmark for ffkakeya: one workload per run, checked outputs, medians.

    python3 bench/run.py --workload spherical --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Workloads: spherical, exhaustive, fields, cli (see bench/README.md).

--trace 0 runs WORKERS measuring workers, each after a set-up-only worker,
and gives each measuring worker an equal share of the seconds.  It prints:
  setup_s      median time from starting a fresh interpreter to ready (import
               ffkakeya and build the inputs) over all those starts;
  cold_s       sum over cases of each case's median over the measuring
               workers' first passes;
  warm_s       sum over cases of each case's median over all warm passes;
  peak_rss_mb  median over the measuring workers of their peak RSS (for cli:
               of their largest ffkakeya process).
Every time is scaled to the reference speed by a calibration loop timed in
the same worker (bench/calibrate.py), so that the drift of a shared machine
does not move the metrics.
--trace 1 runs an untraced and a traced worker, half the seconds each,
prints the per-layer metrics of the traced one and writes
bench_out/trace-<workload>.json with the tracing overhead (traced warm_s
minus untraced warm_s) and the spans.

Every worker is a fresh interpreter started one at a time, single-threaded.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("spherical", "exhaustive", "fields", "cli")
WORKERS = 3         # measuring workers per run, each after a set-up-only one
RUN_LIMIT_S = 170   # the whole run, set-up and workers included

E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "field.tables_ext_ms": "ms", "field.tables_prime_ms": "ms",
    "field.table_alloc_mb": "MB", "field.table_mb": "MB",
    "field.scalar_ops_per_s": "1/s",
    "geometry.norm_profile_ms": "ms", "geometry.points_per_s": "1/s",
    "geometry.sum_profile_calls": "count",
    "geometry.sphere_points_ms": "ms", "geometry.hypersphere_points_ms": "ms",
    "geometry.count_bruteforce_ms": "ms",
    "constructions.radius_spherical_ms": "ms", "constructions.center_spherical_ms": "ms",
    "constructions.hypersphere_union_ms": "ms", "constructions.circular_ms": "ms",
    "constructions.self_ms": "ms",
    "verification.witness_ms": "ms", "verification.exhaustive_ms": "ms",
    "verification.scan_pairs": "count", "verification.scan_pairs_per_s": "1/s",
    "verification.intersection_lemma_ms": "ms", "verification.cover_ms": "ms",
    "search.greedy_ms": "ms", "search.exact_ms": "ms", "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "cli.import_ms": "ms", "cli.invocation_ms": "ms", "cli.output_bytes": "bytes",
}


def now() -> float:
    """System-wide monotonic clock, comparable with the worker's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.deadline = now() + RUN_LIMIT_S
        self.out_dir = root / "bench_out"
        self.out_dir.mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def worker(self, seconds: float = 0.0, trace: int = 0, probe: bool = False) -> dict:
        """Start one worker, wait for it, return its JSON with setup_s."""
        argv = [sys.executable, str(self.root / "bench" / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--out-dir", str(self.out_dir)]
        if probe:
            argv.append("--probe")
        started = now()
        with subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - now()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise SystemExit(f"bench: worker overran the {RUN_LIMIT_S} s run limit")
        if proc.returncode != 0:
            raise SystemExit(f"bench: worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_raw_s"] = result["ready_at"] - started
        result["setup_s"] = result["setup_raw_s"] * result["setup_scale"]
        return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ffkakeya" / "__init__.py").is_file():
        print("bench: no src/ffkakeya here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, args)
    if args.trace:
        plain = runner.worker(args.seconds / 2)
        traced = runner.worker(args.seconds / 2, trace=1)
        workers = [plain, traced]
        metrics = {k: {"value": traced["per_layer"][k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        overhead = traced["warm_s"] - plain["warm_s"]
        print(f"bench: tracing overhead on {args.workload}: {overhead:+.4f} s warm_s "
              f"({traced['warm_s']:.4f} traced, {plain['warm_s']:.4f} untraced)",
              file=sys.stderr)
        (runner.out_dir / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "overhead_warm_s": overhead, "traced_warm_s": traced["warm_s"],
            "untraced_warm_s": plain["warm_s"], "per_layer": traced["per_layer"],
            "spans_file": traced["spans_file"]}, indent=1))
    else:
        setups, workers = [], []
        for _ in range(WORKERS):
            setups.append(runner.worker(probe=True)["setup_s"])
            workers.append(runner.worker(args.seconds / WORKERS))
        cold, warm = {}, {}
        for w in workers:
            for name, case in w["cases"].items():
                cold.setdefault(name, []).append(case["cold_s"])
                warm.setdefault(name, []).extend(case["warm_s"])
        values = {
            "setup_s": statistics.median(setups + [w["setup_s"] for w in workers]),
            "cold_s": sum(statistics.median(t) for t in cold.values()),
            "warm_s": sum(statistics.median(t) for t in warm.values()),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    (runner.out_dir / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "workers": workers}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
