"""The four workloads: their set-up and their cases.

A workload's setup(ctx) builds the inputs that are not under test and
returns its cases in pass order.  Set-up is timed, so it runs the program
only; inputs that the reference code derives go to ctx.prepare, which the
worker runs after set-up, untimed.  Each case runs one library call (or one
CLI process) and checks its output with the reference code in oracles.py.
A case may read what an earlier case of the same pass left in ctx.state.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles as orc
from tracing import TAG

NO_BUDGET = 10 ** 15  # the benchmark sizes its cases itself


@dataclass
class Case:
    """One operation.  check returns None or why the output is wrong."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


class Ctx:
    """What the cases of one worker share: the library, seeded randomness,
    the tracer, cached reference fields and spaces, untimed preparation
    steps and per-pass state."""

    def __init__(self, fk, seed: int, tracer, root: Path):
        self.fk = fk
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer
        self.root = root
        self.state: dict = {}
        self.prepare: list[Callable[[], None]] = []  # run after set-up, untimed
        self.cleanup: list[Callable[[], None]] = []  # run when the worker ends
        self.peak_rss_kb: int | None = None  # set when a child's peak is the metric
        self._refs: dict = {}
        self._spaces: dict = {}

    def ref(self, p: int, k: int = 1) -> orc.RefField:
        if (p, k) not in self._refs:
            self._refs[p, k] = orc.RefField(p, k, self.fk.make_field(p, k).modulus)
        return self._refs[p, k]

    def space(self, p: int, k: int, n: int) -> orc.RefSpace:
        if (p, k, n) not in self._spaces:
            self._spaces[p, k, n] = orc.RefSpace(self.ref(p, k), n)
        return self._spaces[p, k, n]

    def nonsquare(self, p: int, k: int = 1) -> int:
        ref = self.ref(p, k)
        return int(self.rng.choice(np.flatnonzero(ref.chi(np.arange(ref.q)) == -1)))

    def keep(self, name: str, fn: Callable[[], object]) -> Callable[[], object]:
        """Run fn and leave its output for later cases of the pass."""
        def run():
            self.state[name] = out = fn()
            return out
        return run


def _expect(value, want) -> str | None:
    return None if value == want else f"got {value!r}, expected {want!r}"


def _tag(p: int, k: int, n: int | None = None) -> str:
    q = f"{p}" if k == 1 else f"{p}^{k}"
    return q if n is None else f"{q},{n}"


# ---- spherical: constructions and witness checks, n >= 3 ----

SPHERICAL_SPACES = [(31, 1, 4), (13, 1, 5), (7, 1, 7), (3, 3, 4), (3, 2, 6)]
HYPERSPHERE_SPACES = [(7, 1, 4), (3, 2, 4), (5, 1, 5)]


def setup_spherical(ctx: Ctx) -> list[Case]:
    fk, cases = ctx.fk, []
    for p, k, n in SPHERICAL_SPACES:
        field, tag, r = fk.make_field(p, k), _tag(p, k, n), ctx.nonsquare(p, k)
        q = field.q
        coeffs = tuple(int(c) for c in ctx.rng.integers(1, q, size=n))
        rhs = int(ctx.rng.integers(0, q))
        eq = fk.DiagonalEq(coeffs, rhs)
        radius, center = f"radius_spherical/{tag}", f"center_spherical/{tag}"
        cases += [
            Case(radius, ctx.keep(radius, lambda f=field, n=n: fk.radius_spherical(f, n)),
                 lambda res, p=p, k=k, n=n: orc.check_radius_spherical(
                     res, ctx.ref(p, k), ctx.space(p, k, n))),
            Case(center, ctx.keep(center, lambda f=field, n=n, r=r: fk.center_spherical(f, n, r)),
                 lambda res, p=p, k=k, n=n, r=r: orc.check_center_spherical(
                     res, ctx.ref(p, k), ctx.space(p, k, n), r)),
            Case(f"verify_radius_witness/{tag}",
                 lambda key=radius: fk.verify_radius_kakeya(
                     ctx.state[key].points, ctx.state[key].witness),
                 lambda verdict: _expect(verdict, True)),
            Case(f"verify_center_witness/{tag}",
                 lambda key=center: fk.verify_center_kakeya(
                     ctx.state[key].points, ctx.state[key].witness),
                 lambda verdict: _expect(verdict, True)),
            Case(f"count_bruteforce/{tag}",
                 lambda f=field, eq=eq: fk.diagonal_count_bruteforce(f, eq),
                 lambda got, p=p, k=k, c=coeffs, b=rhs: _expect(
                     got, orc.count_closed(ctx.ref(p, k), c, b))),
            Case(f"count_closed/{tag}",
                 lambda f=field, eq=eq: fk.diagonal_count_closed(f, eq),
                 lambda got, p=p, k=k, c=coeffs, b=rhs: _expect(
                     got, orc.count_closed(ctx.ref(p, k), c, b))),
        ]
    for p, k, n in HYPERSPHERE_SPACES:
        field, tag = fk.make_field(p, k), _tag(p, k, n)
        union = f"hypersphere_union/{tag}"
        cases += [
            Case(union, ctx.keep(union, lambda f=field, n=n: fk.hypersphere_union(f, n)),
                 lambda res, p=p, k=k, n=n: orc.check_hypersphere_union(
                     res, ctx.ref(p, k), ctx.space(p, k, n))),
            Case(f"witness_hypersphere/{tag}",
                 lambda f=field, key=union: fk.witness_valid(
                     f, ctx.state[key].points, ctx.state[key].witness),
                 lambda verdict: _expect(verdict, True)),
        ]
    return cases


# ---- exhaustive: certificate-free scans ----

# (p, k, n, properties whose constructed set must verify, properties whose
# scan of a random set below the lower bound must fail); sized so that one
# pass takes about 4 s here
EXHAUSTIVE_SPACES = [(7, 1, 4, ("radius", "center"), ("radius", "center")),
                     (5, 1, 5, ("radius",), ("center",)),
                     (3, 2, 4, ("radius",), ())]
ONE_RADIUS_MISSING = (7, 1, 4)
LEMMA_SPACES = [(7, 1, 3), (3, 1, 5), (5, 1, 3)]


def setup_exhaustive(ctx: Ctx) -> list[Case]:
    fk, cases = ctx.fk, []
    verify = {"radius": fk.verify_radius_kakeya, "center": fk.verify_center_kakeya}
    genuine: dict = {}  # case name -> why its constructed set is not genuine
    one_missing: dict = {}  # case name -> the set with one radius missing

    def check_genuine(name: str, prop: str, res, p: int, k: int, n: int, r: int):
        ref, space = ctx.ref(p, k), ctx.space(p, k, n)
        genuine[name] = (orc.check_radius_spherical(res, ref, space) if prop == "radius"
                         else orc.check_center_spherical(res, ref, space, r))

    def remove_radius(name: str, res, p: int, k: int, n: int, r_gone: int):
        # the radius set less every sphere of one radius, found by the
        # reference scan, keeping the witness spheres of the other radii:
        # exactly that radius is missing
        space = ctx.space(p, k, n)
        keep = np.zeros(space.size, dtype=bool)
        for s, spec in res.witness.entries.items():
            if s != r_gone:
                keep[space.sphere(spec.center, s)] = True
        kept = orc.without_radius(space, res.points.mask, r_gone, keep, ctx.rng)
        one_missing[name] = fk.PointSet(res.field, n, kept)

    for p, k, n, props, below_props in EXHAUSTIVE_SPACES:
        field, tag = fk.make_field(p, k), _tag(p, k, n)
        r = ctx.nonsquare(p, k)
        for prop in props:
            res = (fk.radius_spherical(field, n) if prop == "radius"
                   else fk.center_spherical(field, n, r))
            if prop == "radius":
                res_radius = res
            name = f"exhaustive_{prop}/{tag}"
            ctx.prepare.append(functools.partial(check_genuine, name, prop, res, p, k, n, r))
            cases.append(Case(
                name,
                lambda v=verify[prop], pts=res.points: v(pts, budget=NO_BUDGET),
                # a set that passes the reference checks must verify
                lambda verdict, name=name: genuine[name] or _expect(verdict, True)))
        if below_props:
            # below the lower bound no set holds q - 1 distinct spheres
            size = math.ceil(orc.spherical_lower_bound(field.q, n)) - 1
            subset = fk.PointSet.from_ranks(
                field, n, ctx.rng.choice(field.q ** n, size=size, replace=False))
        for prop in below_props:
            cases.append(Case(
                f"exhaustive_{prop}_below/{tag}",
                lambda v=verify[prop], pts=subset: v(pts, budget=NO_BUDGET),
                lambda verdict: _expect(verdict, False)))
        if (p, k, n) == ONE_RADIUS_MISSING:
            name = f"exhaustive_radius_one_missing/{tag}"
            r_gone = int(ctx.rng.integers(1, field.q))
            ctx.prepare.append(functools.partial(remove_radius, name, res_radius, p, k, n, r_gone))
            cases.append(Case(
                name,
                lambda name=name: verify["radius"](one_missing[name], budget=NO_BUDGET),
                lambda verdict: _expect(verdict, False)))
    for p, k, n in LEMMA_SPACES:
        field = fk.make_field(p, k)
        cases.append(Case(
            f"intersection_lemma/{_tag(p, k, n)}",
            lambda f=field, n=n: fk.verify_intersection_lemma(f, n, budget=NO_BUDGET),
            lambda got, p=p, k=k, n=n: _expect(
                got, orc.max_sphere_intersection(ctx.space(p, k, n)))
            or (None if got <= orc.intersection_bound(p ** k, n)
                else "above the intersection lemma bound")))
    return cases


# ---- fields: table builds and the n = 1 paths ----

# the prime 4093 builds its add and sub tables in circular_prime, once per
# worker, so cold_s pays for them
TABLE_FIELDS = [(3, 5), (7, 3), (5, 4), (3, 6), (47, 2), (1009, 1)]


def _build_tables(fk, p: int, k: int) -> dict:
    field = fk.Fq(p, k)  # a fresh instance: every table is built again
    return {name: getattr(field, name) for name in
            ("add_table", "sub_table", "mul_table", "neg_arr", "inv_arr",
             "sq_arr", "char_arr")}


def setup_fields(ctx: Ctx) -> list[Case]:
    fk, cases = ctx.fk, []
    for p, k in TABLE_FIELDS:
        cases.append(Case(f"tables/{_tag(p, k)}", lambda p=p, k=k: _build_tables(fk, p, k),
                          lambda tables, p=p, k=k: orc.check_tables(tables, ctx.ref(p, k))))
    circular = [
        ("circular_prime", 4093, 1, "radius", lambda v: fk.circular_prime(4093, v)),
        ("circular_prime", 4093, 1, "center", lambda v: fk.circular_prime(4093, v)),
        ("circular_square", 3, 6, "radius", lambda v: fk.circular_square(fk.make_field(3, 6), v)),
        ("circular_square", 3, 6, "center", lambda v: fk.circular_square(fk.make_field(3, 6), v)),
        ("circular_odd_power", 3, 5, "center",
         lambda v: fk.circular_odd_power(fk.make_field(3, 5), v)),
        ("circular_odd_power", 7, 3, "radius",
         lambda v: fk.circular_odd_power(fk.make_field(7, 3), v)),
    ]
    cover_fn = {"radius": fk.diff_cover, "center": fk.sum_cover}
    for name, p, k, variant, build in circular:
        key = f"{name}/{_tag(p, k)}/{variant}"
        cases.append(Case(key, ctx.keep(key, lambda b=build, v=variant: b(v)),
                          lambda res, p=p, k=k, v=variant: orc.check_circular(res, ctx.ref(p, k), v)))
        if name == "circular_odd_power":
            continue
        # the cover itself, then the cover less one seeded element
        drop = int(ctx.rng.integers(1 << 30))
        cover = f"{cover_fn[variant].__name__}/{_tag(p, k)}"
        cases += [
            Case(cover, lambda key=key, fn=cover_fn[variant], p=p, k=k:
                 fn(fk.make_field(p, k), ctx.state[key].points.ranks()),
                 lambda verdict: _expect(verdict, True)),
            Case(f"{cover}/less_one", lambda key=key, fn=cover_fn[variant], p=p, k=k, d=drop:
                 fn(fk.make_field(p, k), np.delete(ctx.state[key].points.ranks(),
                                                   d % ctx.state[key].size)),
                 lambda verdict, key=key, p=p, k=k, v=variant, d=drop: _expect(
                     verdict, orc.covers(ctx.ref(p, k), np.delete(
                         ctx.state[key].points.ranks(), d % ctx.state[key].size), v))),
        ]
    # extension fields beside primes of about the same size: greedy runs
    # the scalar Fq.add/sub, digit loops on extension fields
    for p, k, kind in [(7, 3, "radius"), (337, 1, "radius"), (3, 5, "center"),
                       (241, 1, "center")]:
        cases.append(Case(f"greedy/{_tag(p, k)}/{kind}",
                          lambda p=p, k=k, kind=kind: fk.greedy_circular(fk.make_field(p, k), kind),
                          lambda out, p=p, k=k, kind=kind:
                              orc.check_search(out, ctx.ref(p, k), kind, False)))
    for p, k in [(3, 2), (11, 1), (13, 1)]:
        for kind in ("radius", "center"):
            cases.append(Case(
                f"exact/{_tag(p, k)}/{kind}",
                lambda p=p, k=k, kind=kind: fk.minimal_circular_exact(fk.make_field(p, k), kind),
                lambda out, p=p, k=k, kind=kind: orc.check_search(out, ctx.ref(p, k), kind, True)))
    return cases


# ---- cli: one ffkakeya process at a time ----

def setup_cli(ctx: Ctx) -> list[Case]:
    fk = ctx.fk
    work = ctx.root / "bench_out" / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    ctx.cleanup.append(lambda: shutil.rmtree(work, ignore_errors=True))
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    spawner = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawner.py"))],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                               env=env)

    def stop_spawner():
        spawner.stdin.close()
        spawner.wait(timeout=60)
    ctx.cleanup.append(stop_spawner)
    r9 = ctx.nonsquare(3, 2)
    radius7 = fk.radius_spherical(fk.make_field(7), 4).to_json_dict()
    center5 = fk.center_spherical(fk.make_field(5), 4).to_json_dict()
    center9 = fk.center_spherical(fk.make_field(3, 2), 3, r9).to_json_dict()
    cover101 = fk.circular_prime(101, "radius").to_json_dict()
    circ13 = fk.circular_prime(13, "center").to_json_dict()
    hyper = {q: fk.hypersphere_union(fk.make_field(q), 3).size for q in (3, 5)}
    inputs = {"radius7.json": radius7, "center5.json": center5, "cover101.json": cover101}
    for name, data in inputs.items():
        (work / name).write_text(json.dumps(data))
    coeffs = [int(c) for c in ctx.rng.integers(1, 9, size=4)]
    rhs = int(ctx.rng.integers(0, 9))

    def call(*args, out_file: str | None = None):
        """One ffkakeya process; returns (exit code, parsed output)."""
        argv = [sys.executable, "-m", "ffkakeya", *map(str, args)]
        target = work / "out" / out_file if out_file else None
        if target:
            argv += ["--out", str(target)]
        with ctx.tracer.span("cli.invocation") as span:
            spawner.stdin.write(json.dumps(argv) + "\n")
            spawner.stdin.flush()
            proc = json.loads(spawner.stdout.readline())
        ctx.peak_rss_kb = proc["maxrss_kb"]
        text = target.read_text() if target else proc["stdout"]
        span[TAG] = len(proc["stdout"].encode()) + (target.stat().st_size if target else 0)
        if proc["returncode"] != 0:
            return proc["returncode"], proc["stderr"].strip().splitlines()[-1:]
        return 0, (text if out_file and out_file.endswith(".csv") else json.loads(text))

    def ok(check):
        def wrapped(result):
            code, out = result
            return f"exit {code}: {out}" if code != 0 else check(out)
        return wrapped

    def report_ok(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        got = {int(r["q"]): (int(r["size"]), r["boundMet"], r["witnessValid"]) for r in rows}
        want = {q: (size, "true", "true") for q, size in hyper.items()}
        if len(rows) != len(hyper):
            return f"{len(rows)} rows"
        if any(got[q][0] > orc.hypersphere_union_bound(q, 3) for q in got):
            return "size above the hyper-sphere union bound"
        return _expect(got, want)

    def verdict_ok(out):
        return _expect(out["verdict"], True)

    bound94 = orc.spherical_lower_bound(9, 4)
    exact_p = 11
    return [
        Case("construct/radius-spherical/7,4",
             lambda: call("construct", "--p", 7, "--n", 4, "--which", "radius-spherical",
                          out_file="radius7.json"),
             ok(lambda out: _expect(out, radius7))),
        Case("construct/center-spherical/3^2,3",
             lambda: call("construct", "--p", 3, "--k", 2, "--n", 3,
                          "--which", "center-spherical", "--r", r9),
             ok(lambda out: _expect(out, center9))),
        Case("construct/circular-prime/13",
             lambda: call("construct", "--p", 13, "--which", "circular-prime",
                          "--variant", "center"),
             ok(lambda out: _expect(out, circ13))),
        Case("report/hypersphere-union",
             lambda: call("report", "--which", "hypersphere-union", "--q-list", "3,5",
                          "--n-list", "3", out_file="hyper.csv"),
             ok(report_ok)),
        Case("verify/radius/witness",
             lambda: call("verify", "--file", work / "radius7.json", "--property", "radius",
                          "--mode", "witness"),
             ok(lambda out: verdict_ok(out) or _expect(out["witnessValid"], True))),
        Case("verify/center/exhaustive",
             lambda: call("verify", "--file", work / "center5.json", "--property", "center",
                          "--mode", "exhaustive"),
             ok(lambda out: verdict_ok(out) or _expect(out["exhaustiveValid"], True))),
        Case("verify/diff-cover",
             lambda: call("verify", "--file", work / "cover101.json",
                          "--property", "diff-cover"),
             ok(verdict_ok)),
        Case("count/both",
             lambda: call("count", "--p", 3, "--k", 2, "--coeffs", ",".join(map(str, coeffs)),
                          "--rhs", rhs, "--method", "both"),
             ok(lambda out: _expect((out["agree"], out["closed"]),
                                    (True, orc.count_closed(ctx.ref(3, 2), coeffs, rhs))))),
        Case("bound/9,4",
             lambda: call("bound", "--q", 9, "--n", 4),
             ok(lambda out: _expect((out["value"], out["ceiling"]),
                                    (str(bound94), math.ceil(bound94))))),
        Case(f"search/exact/{exact_p}",
             lambda: call("search", "--p", exact_p, "--kind", "center", "--method", "exact"),
             ok(lambda out: orc.check_search(SimpleNamespace(
                 q=out["q"], kind=out["kind"], certified=out["certified"],
                 size=out["minimalSize"], example=out["exampleSet"],
                 nodes=out["nodesExplored"]), ctx.ref(exact_p), "center", True))),
    ]


WORKLOADS = {
    "spherical": setup_spherical,
    "exhaustive": setup_exhaustive,
    "fields": setup_fields,
    "cli": setup_cli,
}
