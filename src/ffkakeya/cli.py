"""Command-line front end.

Subcommands: construct, verify, count, bound, search, report.  All output
is deterministic (sorted JSON keys, fixed CSV columns, no timestamps) and
exact (integers, or rationals rendered as num/den).  Exit codes: 0 success
or verdict true, 1 verdict false, 2 usage error, 3 budget or size cap.

Each --which name is its builder's name in constructions with dashes for
underscores (radius-spherical runs constructions.radius_spherical).  A
circular builder takes the field (p for circular-prime) and the variant,
a spherical one the field and n (and r for center-spherical).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from importlib import import_module
from pathlib import Path

from .errors import BudgetExceededError, KakeyaError, SizeCapError, UsageError
from .exact import (
    DEFAULT_BUDGET,
    DEFAULT_NODE_BUDGET,
    EXACT_LIMIT,
    VARIANTS,
    circular_lower_bounds,
    exact_str,
    prime_power_decompose,
    spherical_kakeya_lower_bound,
)

# Each subcommand imports the modules it runs: `bound`, `count --method closed`
# and `search --method exact` load no numpy, and `count` no constructions.

SPHERICAL = ("radius-spherical", "center-spherical", "hypersphere-union")
CIRCULAR = ("circular-prime", "circular-square", "circular-odd-power")

CSV_COLUMNS = ["q", "p", "k", "n", "construction", "variant", "size",
               "mainTerm1", "mainTerm2", "mainTerm3",
               "bound", "boundMet", "witnessValid"]


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(out_path, text: str) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _result_row(res) -> list[str]:
    terms = ([exact_str(t) for t in res.main_terms] + ["", "", ""])[:3]
    return [str(res.field.q), str(res.field.p), str(res.field.k), str(res.n),
            res.name, res.variant or "", str(res.size), *terms,
            exact_str(res.bound), str(res.bound_met).lower(),
            str(res.witness_valid).lower()]


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _circular_minima(q: int) -> dict:
    return dict(zip(("diffCoverMin", "sumCoverMin"), circular_lower_bounds(q)))


def _build_construction(which, p, k, n, variant, r):
    from .field import make_field

    # not `from . import constructions`: that asks the package's __getattr__,
    # which binds every public name and so imports every module
    build = getattr(import_module(".constructions", __package__), which.replace("-", "_"))
    if which in CIRCULAR:
        if n not in (None, 1):
            raise UsageError(f"{which} is one-dimensional; omit --n or pass 1")
        if which != "circular-prime":
            return build(make_field(p, k), variant)
        if k != 1:
            raise UsageError("circular-prime needs k = 1")
        return build(p, variant)
    if n is None:
        raise UsageError(f"{which} needs --n")
    field = make_field(p, k)
    return build(field, n, r) if which == "center-spherical" else build(field, n)


def _cmd_construct(args) -> int:
    res = _build_construction(args.which, args.p, args.k, args.n, args.variant, args.r)
    _write(args.out, _dumps(res.to_json_dict()) if args.format == "json"
           else _csv_text([_result_row(res)]))
    return 0


def _load_set_file(path):
    from .geometry import PointSet
    from .verification import witness_from_json_dict

    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or not isinstance(data.get("ranks"), list):
        raise UsageError(f"{path} is not a point set file")
    points = PointSet.from_json_dict(data, f"set file {path}")
    witness = (witness_from_json_dict(data["witness"], points.field, points.n)
               if "witness" in data else None)
    return points, witness


def _cmd_verify(args) -> int:
    from .verification import (
        diff_cover,
        sum_cover,
        verify_center_kakeya,
        verify_radius_kakeya,
        witness_valid,
    )

    points, witness = _load_set_file(args.file)
    prop, mode, field = args.property, args.mode, points.field
    key = "witnessValid"
    if prop in ("diff-cover", "sum-cover"):
        if points.n != 1:
            raise UsageError(f"{prop} applies to one-dimensional sets")
        cover = diff_cover if prop == "diff-cover" else sum_cover
        verdict, key = cover(field, points.ranks()), None
    elif witness is None and "witness" in (prop, mode):
        raise UsageError("witness mode needs a witness in the file")
    elif prop == "witness":  # stored witness, whatever its kind
        verdict = witness_valid(field, points, witness)
    else:
        verify = verify_radius_kakeya if prop == "radius" else verify_center_kakeya
        if mode == "witness":
            verdict = verify(points, witness)
        else:
            verdict, key = verify(points, budget=args.budget), "exhaustiveValid"
    out = {"q": field.q, "p": field.p, "k": field.k, "n": points.n, "property": prop,
           "mode": mode, "size": points.size, "verdict": verdict}
    if key:
        out[key] = verdict
    if points.n >= 2:
        report = spherical_kakeya_lower_bound(field.q, points.n)
        out["lowerBound"] = exact_str(report.value)
        out["meetsLowerBound"] = points.size >= report.value
    else:
        out.update(_circular_minima(field.q))
    _write(args.out, _dumps(out))
    return 0 if verdict else 1


def _field(p: int, k: int, scalar: bool):
    """F_(p^k): the numpy-free ScalarField for scalar answers, else an Fq."""
    if scalar:
        from .scalar import ScalarField
        return ScalarField(p, k)
    from .field import make_field
    return make_field(p, k)


def _cmd_count(args) -> int:
    from .scalar import DiagonalEq, diagonal_count_closed

    coeffs = tuple(int(x) for x in args.coeffs.split(",") if x.strip())
    if args.n is not None and args.n != len(coeffs):
        raise UsageError("--n does not match the number of coefficients")
    field = _field(args.p, args.k, args.method == "closed")
    eq = DiagonalEq(coeffs, args.rhs)
    out = {"q": field.q, "p": field.p, "k": field.k, "n": len(coeffs),
           "coeffs": list(coeffs), "rhs": args.rhs}
    if args.method in ("closed", "both"):
        out["closed"] = diagonal_count_closed(field, eq)
    if args.method in ("bruteforce", "both"):
        from .geometry import diagonal_count_bruteforce
        out["bruteforce"] = diagonal_count_bruteforce(field, eq)
    if args.method == "both":
        out["agree"] = out["closed"] == out["bruteforce"]
    _write(args.out, _dumps(out))
    return 0 if out.get("agree", True) else 1


def _cmd_bound(args) -> int:
    if args.n == 1:
        out = {"q": args.q, "n": 1, **_circular_minima(args.q)}
    else:
        report = spherical_kakeya_lower_bound(args.q, args.n)
        out = {"q": args.q, "n": args.n, "branch": report.branch,
               "value": exact_str(report.value), "ceiling": report.ceiling}
    _write(args.out, _dumps(out))
    return 0


def _cmd_search(args) -> int:
    from .search import greedy_circular, minimal_circular_exact

    field = _field(args.p, args.k, args.method == "exact")
    if args.method == "exact":
        outcome = minimal_circular_exact(field, args.kind, limit=args.limit,
                                         node_budget=args.node_budget)
    else:
        outcome = greedy_circular(field, args.kind, node_budget=args.node_budget)
    _write(args.out, _dumps(outcome.to_json_dict()))
    return 0


def _cmd_report(args) -> int:
    qs = sorted({int(x) for x in args.q_list.split(",") if x.strip()})
    ns = sorted({int(x) for x in args.n_list.split(",") if x.strip()})
    if args.which in CIRCULAR:
        cells = [(None, v) for v in (VARIANTS if args.variant == "both" else [args.variant])]
    else:
        cells = [(n, None) for n in ns]
    rows = []
    for q in qs:
        p, k = prime_power_decompose(q)  # even a q with no cells is checked
        rows += (_result_row(_build_construction(args.which, p, k, n, variant, args.r))
                 for n, variant in cells)
    _write(args.out, _csv_text(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffkakeya",
        description="Spherical and circular Kakeya sets over odd finite fields")
    sub = parser.add_subparsers(dest="command", required=True)
    field_args = argparse.ArgumentParser(add_help=False)
    field_args.add_argument("--p", type=int, required=True)
    field_args.add_argument("--k", type=int, default=1)

    c = sub.add_parser("construct", parents=[field_args], help="build a Kakeya set")
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--which", required=True, choices=SPHERICAL + CIRCULAR)
    c.add_argument("--variant", choices=VARIANTS, default="radius")
    c.add_argument("--r", type=int, default=None,
                   help="nonsquare radius rank for center-spherical")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(handler=_cmd_construct)

    v = sub.add_parser("verify", help="verify a saved point set")
    v.add_argument("--file", required=True)
    v.add_argument("--property", required=True,
                   choices=("radius", "center", "diff-cover", "sum-cover", "witness"))
    v.add_argument("--mode", choices=("witness", "exhaustive"), default="exhaustive")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("count", parents=[field_args],
                       help="count diagonal equation solutions")
    t.add_argument("--n", type=int, default=None)
    t.add_argument("--coeffs", required=True,
                   help="comma-separated coefficient ranks")
    t.add_argument("--rhs", type=int, required=True)
    t.add_argument("--method", choices=("closed", "bruteforce", "both"),
                   default="both")
    t.set_defaults(handler=_cmd_count)

    b = sub.add_parser("bound", help="exact size bounds")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.set_defaults(handler=_cmd_bound)

    s = sub.add_parser("search", parents=[field_args], help="minimal circular covers")
    s.add_argument("--kind", required=True, choices=VARIANTS)
    s.add_argument("--method", choices=("exact", "greedy"), default="exact")
    s.add_argument("--limit", type=int, default=EXACT_LIMIT,
                   help="largest q for --method exact; greedy ignores it")
    s.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    s.set_defaults(handler=_cmd_search)

    r = sub.add_parser("report", help="sweep constructions into a CSV table")
    r.add_argument("--which", required=True, choices=SPHERICAL + CIRCULAR)
    r.add_argument("--q-list", default="", help="comma-separated prime powers")
    r.add_argument("--n-list", default="", help="comma-separated dimensions")
    r.add_argument("--variant", choices=VARIANTS + ("both",), default="both")
    r.add_argument("--r", type=int, default=None)
    r.set_defaults(handler=_cmd_report)

    for command in sub.choices.values():
        command.add_argument("--out", default=None)
    return parser


def _check_work_bounds(args) -> None:
    """A negative work bound is malformed input, not a bound exceeded."""
    for name in ("budget", "node_budget", "limit"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_work_bounds(args)
        return args.handler(args)
    except (BudgetExceededError, SizeCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size within the caps whose arrays do not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except (KakeyaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
