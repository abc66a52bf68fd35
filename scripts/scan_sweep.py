"""Alternating parent/change timings of the two exhaustive scans, of the
exhaustive verifiers, of the prime circle cover, of the two spherical
constructions and of witnesses given by entries, by size.

    python3 scripts/scan_sweep.py --parent ../parent --change . --out sweep.json
    python3 scripts/scan_sweep.py --parent . --change . --sizes mask/7^4 --out sweep.json
    python3 scripts/scan_sweep.py --parent ../parent --change . --sizes verify/11^4 --out sweep.json
    python3 scripts/scan_sweep.py --parent ../parent --change . --sizes circle/4093 --out sweep.json
    python3 scripts/scan_sweep.py --parent ../parent --change . --sizes sphere/31^4 --out sweep.json
    python3 scripts/scan_sweep.py --parent ../parent --change . \
        --sizes given/circle/1000003,given/sphere/31^4 --out sweep.json

Each size runs verification._complement_hit_counts (mask/q^n, on a seeded
random mask, about half of F_q^n), verify_radius_kakeya and
verify_center_kakeya with no witness and no budget limit (verify/q^n, on
the same mask), verification._level_hit_counts (level/q^n, on the
radius_spherical set), circular_prime(p, "radius")
(circle/p, its witness built and checked), radius_spherical and
center_spherical of F_q^n (sphere/q^n, both witnesses built and checked),
or KakeyaWitness(kind, dict(entries)) and witness_valid for the entries
of the witness of circular_prime(p, "radius") (given/circle/p) or of
radius_spherical of F_q^n, checked on a copy of its set given by its mask
(given/sphere/q^n), of one checkout in a fresh process, which imports the
package from that checkout's src/.  A process times one first call,
which builds the per-field tables the scan caches, then at least CALLS
calls and as many more as fit in SECONDS.  Each of the --rounds rounds
runs both sides, the parent first in even rounds and the change first in
odd ones, so drift of a shared machine falls on both sides alike.

For each size and side the file holds every call's time, their median and
minimum, each process's first call (first_s), and the sha256 of the
counts (shape, dtype and bytes; a mask scan's as the (q^n, q) array in
rank order, whatever view of it the scan returns), of the two verdicts'
JSON, or of the results' JSON (json.dumps of the list of their
to_json_dict(), sort_keys=True; a given witness's with its verdict), with
the file the package was loaded from; per size it
holds speed, the parent's minimum over the change's (above 1 means the
change is faster), and whether both sides counted, or wrote, the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = ["mask/7^4", "mask/11^4", "mask/7^6", "mask/13^5", "mask/27^4",
         "verify/7^4", "verify/11^4", "verify/7^6", "verify/13^5",
         "level/31^4", "level/27^4", "level/101^3", "circle/4093", "sphere/31^4",
         "given/circle/100003", "given/sphere/31^4"]
CALLS = 3  # least timed calls per process
SECONDS = 0.5  # least timed seconds per process


def parse_size(name: str) -> tuple[str, int, int]:
    kind, _, power = name.rpartition("/")
    q, _, n = power.partition("^")
    if kind in ("circle", "given/circle") and q.isdigit() and not n:
        return kind, int(q), 1
    if kind not in ("mask", "verify", "level", "sphere", "given/sphere") or not (
            q.isdigit() and n.isdigit()):
        raise SystemExit(f"size {name!r} is not mask/q^n, verify/q^n, level/q^n, circle/p, "
                         "sphere/q^n, given/circle/p or given/sphere/q^n")
    return kind, int(q), int(n)


def worker(name: str) -> None:
    """Time one scan, pair of verifiers, cover, pair of constructions or
    given witness check of the package on sys.path and print one JSON line."""
    import numpy as np

    import ffkakeya as fk
    from ffkakeya import verification

    kind, q, n = parse_size(name)
    field = None if kind.endswith("circle") else fk.make_field(*fk.prime_power_decompose(q))
    if kind in ("mask", "verify"):  # a seeded random mask, about half of F_q^n
        points = fk.PointSet(field, n, np.random.default_rng(q * 100 + n).random(q ** n) < 0.5)
    if kind.startswith("given/"):
        res = (fk.circular_prime(q, "radius") if kind == "given/circle"
               else fk.radius_spherical(field, n))
        points = fk.PointSet(res.field, res.n, res.points.mask.copy())
        witness_kind, entries = res.witness.kind, res.witness.entries

        def call():
            given = fk.KakeyaWitness(witness_kind, dict(entries))
            return given, fk.witness_valid(res.field, points, given)

        def digest_of(checked):
            given, valid = checked
            return hashlib.sha256(json.dumps([given.to_json_dict(), valid],
                                             sort_keys=True).encode())
    elif kind in ("circle", "sphere"):
        def call():
            if kind == "circle":
                return [fk.circular_prime(q, "radius")]
            return [fk.radius_spherical(field, n), fk.center_spherical(field, n)]

        def digest_of(results):
            return hashlib.sha256(json.dumps([res.to_json_dict() for res in results],
                                             sort_keys=True).encode())
    elif kind == "verify":
        def call():
            return [fk.verify_radius_kakeya(points, budget=1 << 62),
                    fk.verify_center_kakeya(points, budget=1 << 62)]

        def digest_of(verdicts):
            return hashlib.sha256(json.dumps(verdicts).encode())
    else:
        if kind == "mask":
            scan = verification._complement_hit_counts
        else:
            points = fk.radius_spherical(field, n).points
            scan = verification._level_hit_counts

        def call():
            return scan(points, 1 << 62)

        def digest_of(counts):
            if kind == "mask":  # (a_(n-1), r, .., a_0), or already (q^n, q): r last, rank order
                counts = np.moveaxis(counts, 1, -1).reshape(q ** n, q)
            counts = np.ascontiguousarray(counts)
            return hashlib.sha256(f"{counts.shape} {counts.dtype}".encode() + counts.tobytes())
    t0 = time.perf_counter()
    out = call()
    first = time.perf_counter() - t0
    digest = digest_of(out)
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < CALLS or time.perf_counter() - start < SECONDS:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    print(json.dumps({"first": first, "times": times, "sha256": digest.hexdigest(),
                      "package": fk.__file__}))


def run(root: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", name]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--sizes", default=",".join(SIZES),
                    help="comma-separated mask/q^n, verify/q^n, level/q^n, circle/p, "
                         "sphere/q^n, given/circle/p and given/sphere/q^n "
                         "(default: all sixteen)")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--worker", metavar="SIZE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    sizes = [s for s in args.sizes.split(",") if s]
    for name in sizes:
        parse_size(name)
    report = {"parent": str(args.parent), "change": str(args.change), "rounds": args.rounds,
              "calls": CALLS, "seconds": SECONDS, "sizes": {}}
    for name in sizes:
        runs: dict = {"parent": [], "change": []}
        for i in range(args.rounds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(getattr(args, side), name))
        entry = {}
        for side, results in runs.items():
            times = [t for r in results for t in r["times"]]
            entry[side] = {"median_s": statistics.median(times), "min_s": min(times),
                           "times_s": times, "first_s": [r["first"] for r in results],
                           "sha256": results[0]["sha256"],
                           "package": results[0]["package"]}
        entry["speed"] = entry["parent"]["min_s"] / entry["change"]["min_s"]
        entry["same_counts"] = len({r["sha256"] for rs in runs.values() for r in rs}) == 1
        report["sizes"][name] = entry
        print(f"{name}: parent {entry['parent']['min_s'] * 1e3:.2f} ms, change "
              f"{entry['change']['min_s'] * 1e3:.2f} ms (min), speed {entry['speed']:.2f}x, "
              f"first call parent {min(entry['parent']['first_s']) * 1e3:.2f} ms, change "
              f"{min(entry['change']['first_s']) * 1e3:.2f} ms (min), "
              f"same counts {entry['same_counts']}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(e["same_counts"] for e in report["sizes"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
