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

Each construction hands its set, witness, main terms, bound and
accounting to one builder, _result, which computes the figures a
ConstructionResult reports: its size, whether the size meets the bound,
and whether the witness holds.  A result writes the set's keys
(PointSet.to_json_dict), those figures, and its witness, whose record and
codec verification owns.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
from .geometry import (
    PointSet,
    level_order,
    level_sizes,
    origin_norm_profile,
    space_size,
)
from .scalar import valid_ranks
from .verification import KakeyaWitness, witness_valid


@dataclass
class ConstructionResult:
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

    @property
    def field(self) -> Fq:
        return self.points.field

    @property
    def n(self) -> int:
        return self.points.n

    def to_json_dict(self) -> dict:
        return {
            **self.points.to_json_dict(),
            "construction": self.name,
            "variant": self.variant or "",
            "size": self.size,
            "predictedMainTerms": [exact_str(t) for t in self.main_terms],
            "boundValue": exact_str(self.bound),
            "boundIsLower": self.bound_is_lower,
            "boundMet": self.bound_met,
            "witnessValid": self.witness_valid,
            "accounting": dict(sorted(self.accounting.items())),
            "witness": self.witness.to_json_dict(),
        }


def _result(name: str, variant: str | None, points: PointSet, witness: KakeyaWitness,
            main_terms: tuple[Fraction, ...], bound: Fraction, bound_is_lower: bool,
            accounting: dict) -> ConstructionResult:
    """The one maker of a ConstructionResult: its size is points.size, and
    the bound is met by a size at least a lower bound or at most an upper
    one; an n = 1 cover must also have sqrt(q) <= size < 6 sqrt(q), tested
    in exact integers.  The witness is checked here, eagerly."""
    field, size = points.field, points.size
    met = size >= bound if bound_is_lower else size <= bound
    if points.n == 1:
        met = met and field.q <= size * size < 36 * field.q
    return ConstructionResult(name, variant, points, witness, size, main_terms, bound,
                              bound_is_lower, met, witness_valid(field, points, witness),
                              accounting)


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
    spheres = np.zeros((n + 2, q - 1), dtype=np.int64)  # S_r(r, 0, ..., 0) as columns
    spheres[[0, 1, -1]] = np.arange(1, q)
    sizes = level_sizes(field, n - 1)
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
    singles = int(sizes @ (np.count_nonzero(multiplicity, axis=1) + twice))
    pairs_ordered = 2 * int(sizes @ twice)
    return _result(
        "radius-spherical", None, PointSet.from_levels(field, n, multiplicity > 0),
        KakeyaWitness._adopt("radius", spheres),
        (Fraction(q ** n, 2), Fraction(q ** (n - 1), 2), Fraction(-(q ** (n - 2)))),
        spherical_kakeya_lower_bound(q, n).value, True,
        {
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
    if not valid_ranks([r], q):
        raise UsageError(f"radius rank {r!r} outside [0, {q})")
    r = int(r)  # the JSON accounting takes Python ints
    if field.char(r) != -1:
        raise NotANonsquareError(f"rank {r} is not a nonsquare in F_{q}")
    # (x, y) is in the set iff r - ||y|| is a square: one flag per level
    square_gap = field.char_arr[field.sub_arrays(r, np.arange(q))] >= 0
    points = PointSet.from_levels(field, n, np.broadcast_to(square_gap[:, None], (q, q)))
    spheres = np.zeros((n + 2, q), dtype=np.int64)  # S_r(a, 0, ..., 0) as columns
    spheres[:2], spheres[-1] = np.arange(q), r
    witness = KakeyaWitness._adopt("center-coordinate", spheres)
    if n >= 5:
        main_terms = (Fraction(q ** n, 2), Fraction(q ** (n - 1), 2))
    else:
        main_terms = (Fraction(q ** n, 2),)
    gap = points.size - sum(main_terms)
    accounting = {
        "fixedNonsquareRadius": r,
        "gapVsMainTerms": exact_str(gap),
    }
    if n >= 5:
        accounting["errorConstantTimesQtoNminus2"] = exact_str(
            Fraction(abs(gap)) / q ** (n - 2))
    return _result("center-spherical", None, points, witness, main_terms,
                   spherical_kakeya_lower_bound(q, n).value, True, accounting)


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

    So the set is read off the cached origin norm profile, objectsUsed =
    #{a : ||a|| != 0}, and allPointsNormZero is true by construction: it
    stays in the accounting so the output is unchanged, and checks
    nothing.  The size is at most q^(n-1) + q^(n//2) - q^((n-1)//2).

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
    null_size = points.size + 1
    order, offsets = level_order(field, n - 1)
    # ranks below q^(n-1) from level_order, unranked with no rank check
    digits = order[offsets[field.neg_arr[1:]]] // q ** np.arange(n)[:, None] % q
    units = np.arange(1, q)[None]
    witness = KakeyaWitness._adopt("hypersphere", np.concatenate([units, digits, digits, units]))
    return _result(
        "hypersphere-union", None, points, witness, (Fraction(q ** (n - 1)),),
        Fraction(q ** (n - 1) + q ** (n // 2) - q ** ((n - 1) // 2)), False,
        {
            "objectsUsed": space - null_size,
            "nullQuadricSize": null_size,
            "allPointsNormZero": True,  # by construction
        })


# ---- circular constructions ----

def _circular_witness(field: Fq, ks: list[int], variant: str) -> KakeyaWitness:
    """Deterministic circle certificates from a covering set: the first
    pair (x1, x2) in row-major rank order with x1 - x2 = 2r certifies
    radius r by the circle around x1 - r; the first pair of distinct
    elements with x1 + x2 = 2a certifies center a with radius x1 - a.

    The first pair of every value is np.minimum.at of the flat pair
    indices, by blocks of rows of about 2^18 pairs so that the values,
    their indices and the field op's temporaries stay a few MB whatever
    |K| is, the diagonal sent to the spare slot q, and the witness is its
    int64 columns (param, centre, radius), filled in once first is dropped."""
    q, k, radius = field.q, np.asarray(ks, dtype=np.int64), variant == VARIANT_RADIUS
    kind, op, free = (("circular-radius", field.sub_arrays, 1) if radius  # centre x1 - r
                      else ("circular-center", field.add_arrays, 2))  # radius x1 - a
    first = np.full(q + 1, k.size ** 2, dtype=np.int64)
    block = max(1, (1 << 18) // k.size)
    for lo in range(0, k.size, block):
        values = op(k[lo:lo + block, None], k)
        if not radius:
            np.fill_diagonal(values[:, lo:], q)
        np.minimum.at(first, values.ravel(), np.arange(lo * k.size, lo * k.size + values.size))
    params = np.arange(radius, q, dtype=np.int64)
    pair = first[field.add_arrays(params, params)]
    del first
    missing = pair == k.size ** 2
    if missing.any():
        raise RuntimeError(f"no pair certifies {variant} {params[missing.argmax()]}")
    columns = np.repeat(params[None], 3, axis=0)
    del params
    k.take(np.floor_divide(pair, k.size, out=pair), out=columns[free], mode="clip")
    del pair
    columns[free] = field.sub_arrays(columns[free], columns[0])
    return KakeyaWitness._adopt(kind, columns)


def _circular_result(field: Fq, name: str, variant: str, ks,
                     nominal: int, accounting: dict) -> ConstructionResult:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    ks = sorted(ks)
    lower = circular_lower_bounds(field.q)[0 if variant == VARIANT_RADIUS else 1]
    return _result(name, variant, PointSet.from_ranks(field, 1, ks),
                   _circular_witness(field, ks, variant), (Fraction(nominal),),
                   Fraction(lower), True, {**accounting, "nominalSize": nominal})


def _prime_cover(p: int, variant: str) -> set[int]:
    """The interval {0, ..., floor(sqrt(p))} joined with the multiples
    {i * ceil(sqrt(p))} (negated for the radius variant), as ranks of F_p."""
    fl = isqrt(p)
    k0 = {i * (fl + 1) % p for i in range(1, fl + 1)}
    return set(range(fl + 1)) | ({-x % p for x in k0} if variant == VARIANT_RADIUS else k0)


def circular_prime(p: int, variant: str = VARIANT_RADIUS) -> ConstructionResult:
    """The cover _prime_cover of F_p (p prime), of size at most
    2*floor(sqrt(p)) + 1."""
    field, fl = make_field(p, 1), isqrt(p)
    return _circular_result(
        field, "circular-prime", variant, _prime_cover(p, variant), 2 * fl + 1,
        {"floorSqrt": fl, "ceilSqrt": fl + 1})


def circular_square(field: Fq, variant: str = VARIANT_RADIUS) -> ConstructionResult:
    """Cover of F_q, q = r^2, of size exactly 2r - 1: the subfield F_r
    joined with t * F_r for the canonical generator t.  F_r is 0 and the
    powers of h = g^((q-1)/(r-1)), g primitive, whose order is r - 1; t is
    not in F_r, so the two blocks meet only in 0.  Both rows of powers,
    from 1 and from t, are filled by Fq._fill_powers, so no exp/log pair
    is built."""
    if field.k % 2:
        raise NotASquareFieldError(f"q = {field.q} is not a perfect square")
    r = field.p ** (field.k // 2)
    h = field.pow(field.primitive, (field.q - 1) // (r - 1))
    alpha = field.p  # rank of t
    powers = np.empty((2, r - 1), dtype=np.int64)
    powers[:, 0] = 1, alpha
    field._fill_powers(h, powers)
    ks = {0, *powers.ravel().tolist()}
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
    kp_ranks = _prime_cover(p, variant)
    pm = p ** m
    ks = {a0 + step * t for step in (p, p ** (m + 1)) for a0 in kp_ranks for t in range(pm)}
    expected = (2 * pm - 1) * len(kp_ranks)
    if len(ks) != expected:
        raise RuntimeError("digit blocks overlap beyond the prime cover")
    return _circular_result(
        field, "circular-odd-power", variant, ks, expected,
        {"m": m, "primeCoverSize": len(kp_ranks), "blockWidth": pm})
