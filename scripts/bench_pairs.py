"""Alternating parent/change runs of bench/run.py, summarised into one file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --seeds 301-310 --workloads spherical,exhaustive,fields,cli \
        --pairs spherical=10 --out BENCH_14.json

Each checkout runs its own bench/run.py from its own root, with the run
length of BENCHMARK.json.  Pair i runs the parent first when i is even and
the change first when it is odd, so drift of a shared machine falls on
both sides alike.  A workload runs as many pairs as --pairs gives it (one
by default), on the first seeds of --seeds, and then TRACED_PAIRS traced
pairs (fewer when --seeds has fewer seeds), in the same alternating order
on the first seeds, for its per-layer metrics.

For each workload and each end-to-end metric the file holds every run, the
median and quartiles of each side, the pairs the change won (better by the
metric's direction, ties counting for neither) and whether the claim rule
holds: wins in at least nine tenths of the pairs, and medians further apart
than the parent's quartiles.  Each run also keeps each case's cold and
warm median, read from its bench_out/result-<workload>-<seed>-0.json, and
for each side the file holds each case's median and quartiles over the
runs, so a change can be traced to the cases that moved; its moved list
names each case whose change-side warm median lies outside the parent-side
warm quartiles, with both medians.  For each
per-layer metric it holds every traced value of each side, with their
median and quartiles, so a per-layer change can be told from the spread
of unchanged code.

Each run records its bytecode state under "bytecode": whether
PYTHONDONTWRITEBYTECODE is set and whether its checkout held a bytecode
cache of the package (src/ffkakeya/__pycache__/*.pyc) when it started.  A
process without the cache spends several times as long importing the
package, so each workload lists under bytecode_mismatch every pair, traced
or not, whose two sides started in different states.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

TRACED_PAIRS = 3  # traced pairs per workload, enough for a median and quartiles


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bytecode_state(root: Path) -> dict:
    return {"dont_write": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
            "cached": any((root / "src" / "ffkakeya" / "__pycache__").glob("*.pyc"))}


def run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    bytecode = bytecode_state(root)
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"], "bytecode": bytecode,
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    if not trace:
        out["cases"] = case_medians(root / "bench_out" / f"result-{workload}-{seed}-0.json")
    return out


def case_medians(path: Path) -> dict:
    """Each case's cold and warm median in one run, as bench/run.py sums
    them into cold_s and warm_s: the median of the measuring workers' first
    passes, and of all their warm passes."""
    cases: dict = {}
    for worker in json.loads(path.read_text())["workers"]:
        for name, case in worker["cases"].items():
            times = cases.setdefault(name, {"cold_s": [], "warm_s": []})
            times["cold_s"].append(case["cold_s"])
            times["warm_s"].extend(case["warm_s"])
    return {name: {k: statistics.median(v) for k, v in times.items()}
            for name, times in cases.items()}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def pair_runs(roots: dict, workload: str, seeds: list[int], seconds: float,
              trace: int) -> dict:
    """One run per side and seed, the parent first on even pair indices."""
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run(roots[side], workload, seed, seconds, trace))
            print(f"{workload} seed {seed} {side}{' traced' if trace else ''}: "
                  f"{runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    return runs


def summarise_trace(runs: dict) -> dict:
    """Every traced metric of each side: its values, median and quartiles."""
    return {side: {name: {**spread([r["metrics"][name] for r in side_runs]),
                          "values": [r["metrics"][name] for r in side_runs]}
                   for name in side_runs[0]["metrics"]}
            for side, side_runs in runs.items()}


def summarise_cases(runs: dict) -> dict:
    """Each case's cold and warm medians over the runs of each side."""
    return {side: {name: {k: spread([r["cases"][name][k] for r in side_runs])
                          for k in ("cold_s", "warm_s")}
                   for name in side_runs[0]["cases"]}
            for side, side_runs in runs.items()}


def moved_cases(cases: dict) -> list:
    """The cases whose change-side warm median lies outside the parent-side
    warm quartiles, with both medians, from summarise_cases."""
    moved = []
    for name, parent in sorted(cases["parent"].items()):
        if name not in cases["change"]:
            continue
        warm, change = parent["warm_s"], cases["change"][name]["warm_s"]["median"]
        if not warm["q1"] <= change <= warm["q3"]:
            moved.append({"case": name, "parent_warm_s": warm["median"], "change_warm_s": change})
    return moved


def bytecode_mismatch(runs: dict, traced: bool) -> list:
    """The pairs whose two sides started in different bytecode states."""
    return [{"seed": p["seed"], "traced": traced, "parent": p["bytecode"],
             "change": c["bytecode"]}
            for p, c in zip(runs["parent"], runs["change"]) if p["bytecode"] != c["bytecode"]]


def summarise(spec: dict, runs: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        parent, change = spread(sides["parent"]), spread(sides["change"])
        gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        holds = wins * 10 >= 9 * len(sides["parent"]) and gap > parent["q3"] - parent["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": parent, "change": change, "pairs": len(sides["parent"]),
            "change_wins": wins,
            "gain_holds": holds,
            "change_vs_parent": change["median"] / parent["median"] - 1,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    ap.add_argument("--seeds", required=True, help="seeds, e.g. 301-310 or 5,7,9")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--pairs", default="", help="pairs per workload, e.g. spherical=10")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    pairs = {w: int(k) for w, _, k in (p.partition("=") for p in args.pairs.split(",") if p)}
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        count = pairs.get(workload, 1)
        if count > len(seeds):
            raise SystemExit(f"{workload}: {count} pairs need {count} seeds")
        runs = pair_runs(roots, workload, seeds[:count], spec["run_seconds"], 0)
        traced = pair_runs(roots, workload, seeds[:TRACED_PAIRS], spec["run_seconds"], 1)
        cases = summarise_cases(runs)
        report["workloads"][workload] = {
            "seeds": seeds[:count], "runs": runs, "summary": summarise(spec, runs),
            "cases": cases, "moved": moved_cases(cases),
            "bytecode_mismatch": bytecode_mismatch(runs, False) + bytecode_mismatch(traced, True),
            "trace": {"seeds": seeds[:TRACED_PAIRS], **summarise_trace(traced)},
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
