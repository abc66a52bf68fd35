"""Constructions of spherical and circular Kakeya sets.

Spherical (n >= 2): a union of one sphere per radius whose size is about
half the space, a set of about half the space containing spheres of one
fixed nonsquare radius around q collinear centers, and a union of
hyper-spheres inside the null quadric ||x|| = 0 of size about q^(n-1).

Circular (n = 1): a circle of radius r around a is the pair {a+r, a-r},
so a set contains circles of every radius iff K - K = F_q, and circles
around centers with every first (only) coordinate iff K (+) K = F_q with
distinct summands.  Three small covers are built: one for prime q, one
for square q from a subfield pair, and one for odd prime powers
q = p^(2m+1) from two digit blocks.

Saved witnesses are written from each entry's fields and read back into
the entry type that their kind names in verification.WITNESS_KINDS.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from math import isqrt

import numpy as np

from .errors import (
    BadDimensionError,
    NotANonsquareError,
    NotASquareFieldError,
    UsageError,
    WrongDegreeError,
)
from .exact import (
    VARIANT_RADIUS,
    VARIANTS,
    circular_lower_bounds,
    exact_str,
    spherical_kakeya_lower_bound,
)
from .field import Fq, make_field
from .geometry import (  # noqa: F401 (CircleSpec re-exported)
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    is_rank,
    json_int,
    json_point,
    level_order,
    origin_norm_profile,
    point_unrank,
    space_size,
)
from .verification import WITNESS_KINDS, witness_valid


@dataclass(frozen=True)
class KakeyaWitness:
    """Coverage certificate: one certified object per parameter value.

    kind is a key of verification.WITNESS_KINDS, which names the type of
    the entries; entries map the parameter (a radius or a center
    coordinate) to the covering object."""

    kind: str
    entries: dict


@dataclass
class ConstructionResult:
    field: Fq
    n: int
    name: str
    variant: str | None
    points: PointSet
    witness: KakeyaWitness
    size: int
    main_terms: tuple[Fraction, ...]
    bound: Fraction
    bound_is_lower: bool
    bound_met: bool
    witness_valid: bool
    accounting: dict = dc_field(default_factory=dict)

    def to_json_dict(self, include_points: bool = True,
                     include_witness: bool = True) -> dict:
        out = {
            "q": self.field.q,
            "p": self.field.p,
            "k": self.field.k,
            "n": self.n,
            "construction": self.name,
            "variant": self.variant or "",
            "size": self.size,
            "predictedMainTerms": [exact_str(t) for t in self.main_terms],
            "boundValue": exact_str(self.bound),
            "boundIsLower": self.bound_is_lower,
            "boundMet": self.bound_met,
            "witnessValid": self.witness_valid,
            "accounting": dict(sorted(self.accounting.items())),
        }
        if include_points:
            out["ranks"] = [int(r) for r in self.points.ranks()]
        if include_witness:
            out["witness"] = {
                "kind": self.witness.kind,
                "entries": {str(k): _spec_to_dict(v)
                            for k, v in sorted(self.witness.entries.items())},
            }
        return out


def _spec_to_dict(spec) -> dict:
    """The fields of a witness entry by name, each point as a list of ranks."""
    values = ((f.name, getattr(spec, f.name)) for f in fields(spec))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


def _spec_from_dict(data, where: str, spec_type: type, field: Fq | None,
                    n: int | None):
    """The entry of spec_type stored in data, which must hold the type's
    fields and no other key: a list of n ranks for each field the type
    holds as a tuple (a point), one rank for each other field."""
    names = [f.name for f in fields(spec_type)]
    extra = [key for key in data if key not in names] if isinstance(data, dict) else []
    if extra:
        raise UsageError(f"{where} has {extra[0]!r}, which a {spec_type.__name__} has not")
    return spec_type(**{
        f.name: (json_point(data, f.name, where, field, n) if "tuple" in str(f.type)
                 else json_int(data, f.name, where, field))
        for f in fields(spec_type)})


def witness_from_json_dict(data, field: Fq | None = None,
                           n: int | None = None) -> KakeyaWitness:
    """Parse a stored witness into entries of the type its kind names.
    With the field (and dimension) of its set, every rank must lie in
    [0, q) and every point have length n.  An unknown kind, an entry not of
    that type, missing keys and bad ranks raise UsageError."""
    if not isinstance(data, dict) or not isinstance(data.get("entries"), dict):
        raise UsageError("witness has no 'entries' object")
    kind = data.get("kind")
    if not isinstance(kind, str):
        raise UsageError("witness has no 'kind' string")
    if kind not in WITNESS_KINDS:
        raise UsageError(f"witness kind {kind!r} is not one of {', '.join(WITNESS_KINDS)}")
    spec_type = WITNESS_KINDS[kind][0]
    entries = {}
    for key, value in data["entries"].items():
        where = f"witness entry {key}"
        try:
            param = int(key)
        except ValueError:
            raise UsageError(f"{where}: key is not an integer") from None
        if field is not None and not is_rank(field, param):
            raise UsageError(f"{where}: key rank outside [0, {field.q})")
        entries[param] = _spec_from_dict(value, where, spec_type, field, n)
    return KakeyaWitness(kind, entries)


# ---- spherical constructions ----

def radius_spherical(field: Fq, n: int) -> ConstructionResult:
    """Union over r in F_q^* of the sphere of radius r centered at
    (r, 0, ..., 0), i.e. the solution sets of (x_0 - r)^2 + ||t|| = r.

    Any two of these spheres meet only in the hyperplane where the first
    coordinate is (r + s - 1)/2, and no three share a point, so the union
    size equals sum of sphere sizes minus half the ordered pairwise
    intersection total.  Both sums come from the multiplicity m(x), the
    number of spheres through x: sum m and sum m(m - 1).

    Fibres.  Whether (x_0, t) lies on the sphere of radius r depends only
    on x_0 and v = ||t||, so m(x_0, t) = M[||t||, x_0] with

        M[v, x_0] = #{r in F_q^* : (x_0 - r)^2 + v = r}.

    Those r are the roots of r^2 - (2 x_0 + 1) r + x_0^2 + v, whose
    discriminant is 4 x_0 + 1 - 4 v, and r = 0 is a root iff v = -x_0^2, so

        M[v, x_0] = 1 + chi(4 x_0 + 1 - 4 v) - [v = -x_0^2]:

    one q x q sum and one gather of the character, by blocks of rows, and
    one scatter of q entries.  The set is the union of the fibre levels
    where M > 0, and with L_v = #{t : ||t|| = v} the level sizes, sum m =
    sum_(v, x_0) L_v M[v, x_0]; M <= 2, so sum m(m - 1) = 2 sum_v L_v
    #{x_0 : M[v, x_0] = 2}.  Nothing of size q^n is counted.
    """
    if n < 2:
        raise BadDimensionError("radius construction needs dimension >= 2")
    q = field.q
    space_size(field, n)
    field.require_array((q, q))  # M, and the level table of the set
    tail = (0,) * (n - 1)
    entries = {r: SphereSpec((r,) + tail, r) for r in field.units()}
    _, offsets = level_order(field, n - 1)
    level_sizes = np.diff(offsets).astype(np.int64)
    x0 = np.arange(q)
    two = field.add_arrays(x0, x0)
    four = field.add_arrays(two, two)  # 4 x_0, and 4 v down the column
    minus_four_v, four_x0_plus_one = field.neg_arr[four][:, None], field.add_arrays(four, 1)
    # int8, filled by blocks of at most 2^18 discriminants, so the int64
    # sums stay a few MB whatever q is
    multiplicity = np.empty((q, q), dtype=np.int8)
    rows = max(1, (1 << 18) // q)
    for lo in range(0, q, rows):
        disc = field.add_arrays(minus_four_v[lo:lo + rows], four_x0_plus_one)
        np.add(field.char_arr[disc], 1, out=multiplicity[lo:lo + rows])
    multiplicity[field.neg_arr[field.sq_arr], x0] -= 1
    twice = np.count_nonzero(multiplicity == 2, axis=1)
    singles = int(level_sizes @ (np.count_nonzero(multiplicity, axis=1) + twice))
    pairs_ordered = 2 * int(level_sizes @ twice)
    points = PointSet.from_levels(field, n, multiplicity > 0)
    size = points.size
    witness = KakeyaWitness("radius", entries)
    report = spherical_kakeya_lower_bound(q, n)
    return ConstructionResult(
        field=field, n=n, name="radius-spherical", variant=None,
        points=points, witness=witness, size=size,
        main_terms=(Fraction(q ** n, 2), Fraction(q ** (n - 1), 2),
                    Fraction(-(q ** (n - 2)))),
        bound=report.value, bound_is_lower=True,
        bound_met=size >= report.value,
        witness_valid=witness_valid(field, points, witness),
        accounting={
            "sumSphereSizes": singles,
            "sumPairwiseIntersectionsOrdered": pairs_ordered,
            "inclusionExclusionSize": singles - pairs_ordered // 2,
        })


def center_spherical(field: Fq, n: int, r: int | None = None) -> ConstructionResult:
    """All points (x, y) such that r - ||y|| is a square (zero included),
    for one fixed nonsquare radius r.

    The set contains the sphere of radius r around (a, 0, ..., 0) for
    every a in F_q, so every first coordinate occurs as a sphere center.
    """
    if n < 2:
        raise BadDimensionError("center construction needs dimension >= 2")
    q = field.q
    space_size(field, n)
    field.require_array((q, q))  # the level table of the set
    if r is None:
        r = field.smallest_nonsquare()
    if not is_rank(field, r):
        raise UsageError(f"radius rank {r!r} outside [0, {q})")
    if field.char(r) != -1:
        raise NotANonsquareError(f"rank {r} is not a nonsquare in F_{q}")
    # (x, y) is in the set iff r - ||y|| is a square: one flag per level
    square_gap = field.char_arr[field.sub_arrays(r, np.arange(q))] >= 0
    points = PointSet.from_levels(field, n, np.broadcast_to(square_gap[:, None], (q, q)))
    size = points.size
    tail = (0,) * (n - 1)
    witness = KakeyaWitness(
        "center-coordinate",
        {a: SphereSpec((a,) + tail, r) for a in field.elements()})
    if n >= 5:
        main_terms = (Fraction(q ** n, 2), Fraction(q ** (n - 1), 2))
    else:
        main_terms = (Fraction(q ** n, 2),)
    gap = size - sum(main_terms)
    report = spherical_kakeya_lower_bound(q, n)
    accounting = {
        "fixedNonsquareRadius": r,
        "gapVsMainTerms": exact_str(gap),
    }
    if n >= 5:
        accounting["errorConstantTimesQtoNminus2"] = exact_str(
            Fraction(abs(gap)) / q ** (n - 2))
    return ConstructionResult(
        field=field, n=n, name="center-spherical", variant=None,
        points=points, witness=witness, size=size, main_terms=main_terms,
        bound=report.value, bound_is_lower=True,
        bound_met=size >= report.value,
        witness_valid=witness_valid(field, points, witness),
        accounting=accounting)


def hypersphere_union(field: Fq, n: int) -> ConstructionResult:
    """Union over all a with ||a|| != 0 of the hyper-sphere H_a with center
    a, direction a and radius -||a||, which is exactly the null quadric
    minus the origin, {x != 0 : ||x|| = 0}.

    Proof.  x lies on H_a iff a.x = ||a|| and ||x - a|| = -||a||.  Since
    ||x - a|| = ||x|| - 2 a.x + ||a||, a point of H_a has ||x|| =
    -||a|| + 2||a|| - ||a|| = 0, and x != 0 because a.x = ||a|| != 0.
    Conversely, let x != 0 with ||x|| = 0, pick w with w.x != 0 (a unit
    vector at a nonzero coordinate of x) and set a = c x + w with
    c = (w.x - ||w||) / (2 w.x).  Then a.x = c||x|| + w.x = w.x and
    ||a|| = c^2 ||x|| + 2c w.x + ||w|| = w.x, so ||a|| = a.x != 0 and
    ||x - a|| = 0 - 2||a|| + ||a|| = -||a||: x lies on H_a.

    So the set is read off the cached origin norm profile, and
    objectsUsed = #{a : ||a|| != 0}.  The size is at most
    q^(n-1) + q^(n//2) - q^((n-1)//2).

    The witness certifies radius r by H_a for the least rank a of the
    sphere S_(-r)(0).  Every element of F_q is a sum of two squares, so for
    n >= 3 every level {t : ||t|| = v} of F_q^(n-1) is nonempty, and the
    least rank of S_v(0) has its last (most significant) coordinate 0: it
    is the least rank of level v of F_q^(n-1), the first entry of that
    level in the stable level_order, read with no sphere gathered.
    """
    if n < 3:
        raise BadDimensionError("hyper-sphere union needs dimension >= 3")
    q = field.q
    space = space_size(field, n)
    norms = origin_norm_profile(field, n)
    union = norms == 0
    union[0] = False
    points = PointSet._adopt(field, n, union)
    size = points.size
    null_size = size + 1
    order, offsets = level_order(field, n - 1)
    entries = {}
    for r in field.units():
        vec = point_unrank(field, n, int(order[offsets[field.neg(r)]]))
        entries[r] = HypersphereSpec(vec, vec, r)
    witness = KakeyaWitness("hypersphere", entries)
    bound = q ** (n - 1) + q ** (n // 2) - q ** ((n - 1) // 2)
    return ConstructionResult(
        field=field, n=n, name="hypersphere-union", variant=None,
        points=points, witness=witness, size=size,
        main_terms=(Fraction(q ** (n - 1)),),
        bound=Fraction(bound), bound_is_lower=False,
        bound_met=size <= bound,
        witness_valid=witness_valid(field, points, witness),
        accounting={
            "objectsUsed": space - null_size,
            "nullQuadricSize": null_size,
            "allPointsNormZero": bool(np.all(norms[union] == 0)),
        })


# ---- circular constructions ----

def _circular_witness(field: Fq, ks: list[int], variant: str) -> KakeyaWitness:
    """Deterministic circle certificates from a covering set: the first
    pair (x1, x2) in row-major rank order with x1 - x2 = 2r certifies
    radius r by the circle around x1 - r; the first pair of distinct
    elements with x1 + x2 = 2a certifies center a with radius x1 - a."""
    k = np.asarray(ks, dtype=np.int64)
    if variant == VARIANT_RADIUS:
        kind, params = "circular-radius", np.arange(1, field.q, dtype=np.int64)
        values = field.sub_arrays(k[:, None], k[None, :])
    else:
        kind, params = "circular-center", np.arange(field.q, dtype=np.int64)
        values = field.add_arrays(k[:, None], k[None, :])
        np.fill_diagonal(values, -1)
    found, first = np.unique(values, return_index=True)
    targets = field.add_arrays(params, params)
    pos = np.minimum(np.searchsorted(found, targets), found.size - 1)
    missing = found[pos] != targets
    if missing.any():
        raise RuntimeError(f"no pair certifies {variant} {params[missing.argmax()]}")
    x1 = k[first[pos] // k.size]
    shifted = field.sub_arrays(x1, params)  # the center x1 - r, or the radius x1 - a
    circles = [CircleSpec(int(a), int(r)) for a, r in
               (zip(shifted, params) if variant == VARIANT_RADIUS else zip(params, shifted))]
    return KakeyaWitness(kind, dict(zip(params.tolist(), circles)))


def _circular_result(field: Fq, name: str, variant: str, ks,
                     nominal: int, accounting: dict) -> ConstructionResult:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    ks = sorted(ks)
    points = PointSet.from_ranks(field, 1, ks)
    size = points.size
    witness = _circular_witness(field, ks, variant)
    lower = circular_lower_bounds(field.q)[0 if variant == VARIANT_RADIUS else 1]
    # sqrt(q) <= size < 6 sqrt(q), in exact integer arithmetic
    met = lower <= size and field.q <= size * size < 36 * field.q
    accounting = dict(accounting)
    accounting["nominalSize"] = nominal
    return ConstructionResult(
        field=field, n=1, name=name, variant=variant,
        points=points, witness=witness, size=size,
        main_terms=(Fraction(nominal),),
        bound=Fraction(lower), bound_is_lower=True,
        bound_met=met,
        witness_valid=witness_valid(field, points, witness),
        accounting=accounting)


def circular_prime(p: int, variant: str = VARIANT_RADIUS) -> ConstructionResult:
    """Cover of F_p (p prime) of size at most 2*floor(sqrt(p)) + 1:
    the interval {0, ..., floor(sqrt(p))} joined with the multiples
    {i * ceil(sqrt(p))} (negated for the radius variant)."""
    field = make_field(p, 1)
    fl = isqrt(p)
    ce = fl + 1
    base = set(range(fl + 1))
    k0 = {(i * ce) % p for i in range(1, fl + 1)}
    if variant == VARIANT_RADIUS:
        ks = base | {(-x) % p for x in k0}
    else:
        ks = base | k0
    return _circular_result(
        field, "circular-prime", variant, ks, 2 * fl + 1,
        {"floorSqrt": fl, "ceilSqrt": ce})


def circular_square(field: Fq, variant: str = VARIANT_RADIUS) -> ConstructionResult:
    """Cover of F_q, q = r^2, of size exactly 2r - 1: the subfield F_r
    joined with t * F_r for the canonical generator t."""
    if field.k % 2:
        raise NotASquareFieldError(f"q = {field.q} is not a perfect square")
    r = field.p ** (field.k // 2)
    sub_ranks = [x for x in field.elements() if field.pow(x, r) == x]
    if len(sub_ranks) != r:
        raise RuntimeError("subfield enumeration failed")
    alpha = field.p  # rank of t
    ks = set(sub_ranks) | {field.mul(alpha, x) for x in sub_ranks}
    if len(ks) != 2 * r - 1:
        raise RuntimeError("subfield blocks overlap beyond zero")
    return _circular_result(
        field, "circular-square", variant, ks, 2 * r - 1,
        {"subfieldOrder": r, "generatorRank": alpha})


def circular_odd_power(field: Fq, variant: str = VARIANT_RADIUS) -> ConstructionResult:
    """Cover of F_q, q = p^(2m+1) with m >= 1, of size (2 p^m - 1) |K_p|:
    two digit blocks over the prime-field cover K_p, one spanning the
    generator powers 1..m, the other spanning m+1..2m."""
    if field.k < 3 or field.k % 2 == 0:
        raise WrongDegreeError(f"q = {field.q} is not an odd power p^(2m+1), m >= 1")
    p = field.p
    m = (field.k - 1) // 2
    kp = circular_prime(p, variant)
    kp_ranks = [int(x) for x in kp.points.ranks()]
    pm = p ** m
    k1 = {a0 + p * t for a0 in kp_ranks for t in range(pm)}
    k2 = {a0 + p ** (m + 1) * t for a0 in kp_ranks for t in range(pm)}
    ks = k1 | k2
    expected = (2 * pm - 1) * len(kp_ranks)
    if len(ks) != expected:
        raise RuntimeError("digit blocks overlap beyond the prime cover")
    return _circular_result(
        field, "circular-odd-power", variant, ks, expected,
        {"m": m, "primeCoverSize": len(kp_ranks), "blockWidth": pm})
