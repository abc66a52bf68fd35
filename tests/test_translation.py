"""Spheres as translates of the cached origin profile, checked against the
full-enumeration paths they replaced.

Each oracle below is the earlier implementation, kept here verbatim in
spirit: a fresh norm profile per sphere, the rescan of the origin profile
and its n-dim translate per sphere, the per-center hyper-sphere loop,
pairwise sphere masks, the q^n multiplicity scatter and the per-radius
q x q multiplicity loop of the radius construction, the per-sphere and
per-hyper-sphere gathers of the witness check, the q^n masks of the two spherical
constructions, the all-pairs intersection scan, the (0, c) pair scan of
the intersection lemma, the dense-table circle certificates and the
(center, non-member) pair scan of the exhaustive verifiers.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import norm, norm_profile, sum_profile, traced_peak
from ffkakeya import (
    BadDimensionError,
    BudgetExceededError,
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    center_spherical,
    circular_odd_power,
    circular_prime,
    circular_square,
    hypersphere_points,
    hypersphere_ranks,
    hypersphere_union,
    make_field,
    origin_norm_profile,
    point_rank,
    point_unrank,
    prime_power_decompose,
    radius_spherical,
    sphere_points,
    sphere_ranks,
    translate,
    verify_center_kakeya,
    verify_intersection_lemma,
    verify_radius_kakeya,
    witness_valid,
)
from ffkakeya.constructions import ConstructionResult, KakeyaWitness
from ffkakeya.exact import DEFAULT_BUDGET, exact_str, spherical_kakeya_lower_bound
from ffkakeya.geometry import (
    _fibres,
    _norm_class_representatives,
    fibre_level_table,
    is_point,
    level_order,
    origin_sphere_ranks,
    space_size,
)
from ffkakeya.verification import _complement_hit_counts


def field_of(q):
    return make_field(*prime_power_decompose(q))


# ---- oracles: the replaced full-enumeration paths ----

def norm_profile_at(field, n, center):
    """Rank of ||x - center|| for every point rank x, by a fresh full
    enumeration."""
    if len(center) != n:
        raise ValueError("center length mismatch")
    return sum_profile(field, [field.sq_arr[field.sub_table[:, c]] for c in center])


def old_origin_sphere_ranks(field, n, radius):
    """S_r(0) by a rescan of the whole q^n origin profile."""
    return np.flatnonzero(origin_norm_profile(field, n) == radius)


def old_sphere_ranks(field, sphere):
    """S_r(a) as the n-dim translate a + S_r(0) of the rescan."""
    n = len(sphere.center)
    return translate(field, n, old_origin_sphere_ranks(field, n, sphere.radius),
                     sphere.center)


def old_hypersphere_union(field, n):
    """One sum_profile per center a with ||a|| != 0."""
    space = space_size(field, n)
    add, sub, mul = field.add_table, field.sub_table, field.mul_table
    two = field.add(1, 1)
    norms = norm_profile(field, n)
    union = np.zeros(space, dtype=bool)
    objects = 0
    for a_rank in range(1, space):
        na = int(norms[a_rank])
        if na == 0:
            continue
        a = point_unrank(field, n, a_rank)
        ax = sum_profile(field, [mul[c] for c in a])
        lhs = sub[add[norms, na], mul[two][ax]]
        union |= (lhs == field.neg(na)) & (ax == na)
        objects += 1
    return union, objects


def old_radius_accounting(field, n):
    """Union, sum of sizes and ordered pairwise intersections from one held
    mask per radius."""
    tail = (0,) * (n - 1)
    masks = {r: norm_profile_at(field, n, (r,) + tail) == r for r in field.units()}
    union = np.zeros(field.q ** n, dtype=bool)
    singles = 0
    for m in masks.values():
        union |= m
        singles += int(np.count_nonzero(m))
    units = list(field.units())
    pairs = 0
    for i, r in enumerate(units):
        for s in units[i + 1:]:
            pairs += 2 * int(np.count_nonzero(masks[r] & masks[s]))
    return union, singles, pairs


def old_radius_scatter(field, n):
    """Union, sum of sizes and ordered pairwise intersections from a q^n
    multiplicity array, one scatter of each gathered sphere."""
    q = field.q
    multiplicity = np.zeros(q ** n, dtype=np.min_scalar_type(q - 1))
    for r in field.units():
        multiplicity[sphere_ranks(field, SphereSpec((r,) + (0,) * (n - 1), r))] += 1
    m = np.arange(q)
    counts = np.bincount(multiplicity, minlength=q)  # points of each multiplicity
    return multiplicity > 0, int(counts @ m), int(counts @ (m * (m - 1)))


def loop_radius_multiplicity(field, n):
    """Union, sum of sizes and ordered pairwise intersections from the q x q
    multiplicity M[||t||, x_0], one length-q update per radius: sphere r
    adds 1 at (r - (x_0 - r)^2, x_0) for every x_0, and raising an entry
    of M from m to m + 1 adds 2m ordered pairs."""
    q = field.q
    _, offsets = level_order(field, n - 1)
    level_sizes = np.diff(offsets).astype(np.int64)
    x0 = np.arange(q)
    multiplicity = np.zeros((q, q), dtype=np.int64)
    singles = pairs = 0
    for r in field.units():
        levels = field.sub_arrays(r, field.sq_arr[field.sub_arrays(x0, r)])
        before, sizes = multiplicity[levels, x0], level_sizes[levels]
        singles += int(sizes.sum())
        pairs += 2 * int(sizes @ before)
        multiplicity[levels, x0] = before + 1
    assert multiplicity.max() <= 2  # a quadratic in r has at most two roots
    return (multiplicity > 0)[origin_norm_profile(field, n - 1)].ravel(), singles, pairs


def mask_radius_spherical(field, n):
    """radius_spherical with its set gathered into a q^n mask through the
    origin norm profile of F_q^(n-1)."""
    q = field.q
    tail = (0,) * (n - 1)
    entries = {r: SphereSpec((r,) + tail, r) for r in field.units()}
    _, offsets = level_order(field, n - 1)
    level_sizes = np.diff(offsets).astype(np.int64)
    x0 = np.arange(q)
    two = field.add_arrays(x0, x0)
    four = field.add_arrays(two, two)
    multiplicity = 1 + field.char_arr[field.add_arrays(field.neg_arr[four][:, None],
                                                       field.add_arrays(four, 1))]
    multiplicity[field.neg_arr[field.sq_arr], x0] -= 1
    twice = np.count_nonzero(multiplicity == 2, axis=1)
    singles = int(level_sizes @ (np.count_nonzero(multiplicity, axis=1) + twice))
    pairs_ordered = 2 * int(level_sizes @ twice)
    mask = (multiplicity > 0)[origin_norm_profile(field, n - 1)].ravel()
    points = PointSet._adopt(field, n, mask)
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


def mask_center_spherical(field, n):
    """center_spherical at the least nonsquare radius, with its set
    gathered into a q^n mask, one flag per level repeated q times."""
    q = field.q
    r = field.smallest_nonsquare()
    square_gap = field.char_arr[field.sub_arrays(r, np.arange(q))] >= 0
    mask = np.repeat(square_gap[origin_norm_profile(field, n - 1)], q)
    points = PointSet._adopt(field, n, mask)
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


def gathered_witness_valid(field, points, witness):
    """The sphere-kind witness check by one gather per sphere (entries
    assumed well formed)."""
    want = field.elements() if witness.kind == "center-coordinate" else field.units()
    if set(witness.entries) != set(want):
        return False
    for key, spec in witness.entries.items():
        if (spec.center[0] if witness.kind == "center-coordinate" else spec.radius) != key:
            return False
        if not points.mask[sphere_ranks(field, spec)].all():
            return False
    return True


def old_intersection_lemma(field, n):
    """Every pair of centers, every pair of radii: space^3 / 2 work."""
    q = field.q
    space = space_size(field, n)
    m = np.stack([norm_profile_at(field, n, point_unrank(field, n, a))
                  for a in range(space)]).astype(np.int64)
    best = 0
    for i in range(space - 1):
        joint = m[i][None, :] * q + m[i + 1:]
        joint += np.arange(joint.shape[0], dtype=np.int64)[:, None] * q * q
        counts = np.bincount(joint.reshape(-1), minlength=joint.shape[0] * q * q)
        best = max(best, int(counts.reshape(-1, q, q)[:, 1:, 1:].max()))
    return best


def pair_scan_intersection_lemma(field, n: int, *,
                                 budget: int = DEFAULT_BUDGET) -> int:
    """Maximum intersection size over all pairs of distinct spheres in
    F_q^n, by exhaustive scan over all center differences and radii.

    S_r(a) and S_s(b) meet in the translate by a of S_r(0) and S_s(b - a),
    so the pairs centred at 0 and at c != 0 cover every pair: about
    space^2 work.  Same-center pairs with different radii are disjoint.
    The maximum never exceeds q^(n-2) + q^((n-1)//2).
    """
    if n < 2:
        raise BadDimensionError("sphere pairs need dimension >= 2")
    q = field.q
    space = space_size(field, n)
    estimate = space * space
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    norms = origin_norm_profile(field, n).astype(np.int64)
    steps = q ** np.arange(n, dtype=np.int64)
    xdig = np.arange(space, dtype=np.int64)[:, None] // steps % q
    sub = field.sub_arrays(np.arange(q)[:, None], np.arange(q))  # once, not per chunk
    best = 0
    qq = q * q
    chunk = max(1, 1_000_000 // space)
    for lo in range(1, space, chunk):
        centers = np.arange(lo, min(space, lo + chunk), dtype=np.int64)
        cdig = centers[:, None] // steps % q
        # rank of x - c for every center c of the chunk and every point x
        shifted = np.zeros((centers.size, space), dtype=np.int64)
        for i in range(n):
            shifted += sub[xdig[None, :, i], cdig[:, i, None]] * steps[i]
        joint = norms[None, :] * q + norms[shifted]
        joint += np.arange(centers.size, dtype=np.int64)[:, None] * qq
        counts = np.bincount(joint.reshape(-1), minlength=centers.size * qq)
        best = max(best, int(counts.reshape(-1, q, q)[:, 1:, 1:].max()))
    return best


def old_circular_witness(field, ks, variant):
    """First matching pair by np.argwhere over the dense q x q tables."""
    two = field.add(1, 1)
    half = field.inv(two)
    entries = {}
    if variant == "radius":
        diffs = field.sub_table[np.ix_(ks, ks)]
        for r in field.units():
            x1, x2 = (ks[i] for i in np.argwhere(diffs == field.mul(two, r))[0])
            entries[r] = (field.mul(half, field.add(x1, x2)), r)
        return entries
    sums = field.add_table[np.ix_(ks, ks)].copy()
    np.fill_diagonal(sums, -1)
    for a in field.elements():
        x1, x2 = (ks[i] for i in np.argwhere(sums == field.mul(two, a))[0])
        entries[a] = (a, field.mul(half, field.sub(x1, x2)))
    return entries


def old_complement_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[a, v] = number of points outside the set at norm-distance v from
    center rank a.  A sphere S_v(a) lies inside the set iff G[a, v] == 0.

    Every (center, non-member) pair is summed coordinate by coordinate
    through flat gathers from the raveled (c - a)^2 and addition tables,
    in int16 while q^2 < 2^15 (each index c * q + a stays below q^2)."""
    field = points.field
    q = field.q
    n = points.n
    space = space_size(field, n)
    comp = np.flatnonzero(~points.mask)
    estimate = space * max(int(comp.size), 1)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    dt = np.int16 if q * q < 2 ** 15 else np.int32
    sq_sub = field.sq_arr[field.sub_table].astype(dt).ravel()  # [c * q + a] = (c - a)^2
    add = field.add_table.astype(dt).ravel()                    # [x * q + y] = x + y
    steps = q ** np.arange(n, dtype=np.int64)
    cdig = ((comp[:, None] // steps[None, :]) % q).astype(dt)
    out = np.zeros((space, q), dtype=np.int64)
    if comp.size == 0:
        return out
    chunk = max(1, 4_000_000 // int(comp.size))
    centers = np.arange(space, dtype=np.int64)
    for lo in range(0, space, chunk):
        hi = min(space, lo + chunk)
        adig = ((centers[lo:hi, None] // steps[None, :]) % q).astype(dt)
        acc = np.zeros((hi - lo, comp.size), dtype=dt)
        for i in range(n):
            acc = add.take(acc * q + sq_sub.take(cdig[:, i] * q + adig[:, i, None]))
        flat = acc + (np.arange(hi - lo, dtype=np.int64)[:, None] * q)
        counts = np.bincount(flat.reshape(-1), minlength=(hi - lo) * q)
        out[lo:hi] = counts.reshape(hi - lo, q)
    return out


# ---- (a) gathered spheres ----

@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_gathered_spheres_equal_a_fresh_profile(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q * 10 + n)
    centers = [(0,) * n] + [tuple(int(c) for c in rng.integers(0, q, size=n))
                            for _ in range(2)]
    for center in centers:
        values = norm_profile_at(field, n, center)
        for r in field.units():
            got = sphere_points(field, SphereSpec(center, r))
            assert np.array_equal(got.mask, values == r), (center, r)


@pytest.mark.parametrize("q,n", [(3, 3), (5, 3), (9, 3), (7, 4)])
def test_gathered_hyperspheres_equal_two_fresh_profiles(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q + n)
    for _ in range(4):
        center = tuple(int(c) for c in rng.integers(0, q, size=n))
        direction = tuple(int(c) for c in rng.integers(0, q, size=n))
        if not any(direction):
            continue
        r = int(rng.integers(1, q))
        norms = norm_profile_at(field, n, center)
        dots = sum_profile(field, [field.mul_table[d][field.sub_table[:, c]]
                                   for d, c in zip(direction, center)])
        got = hypersphere_points(field, HypersphereSpec(center, direction, r))
        assert np.array_equal(got.mask, (norms == r) & (dots == 0))


# ---- (b) hyper-sphere union in closed form ----

@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 5, 7, 9) for n in (3, 4)] + [(3, 5)])
def test_hypersphere_union_closed_form_equals_per_center_loop(q, n):
    field = field_of(q)
    union, objects = old_hypersphere_union(field, n)
    res = hypersphere_union(field, n)
    assert np.array_equal(res.points.mask, union)
    assert res.accounting["objectsUsed"] == objects
    assert res.size == res.accounting["nullQuadricSize"] - 1


# ---- (c) radius accounting from the multiplicity ----

@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_radius_accounting_equals_pairwise_masks(q, n):
    field = field_of(q)
    union, singles, pairs = old_radius_accounting(field, n)
    res = radius_spherical(field, n)
    assert np.array_equal(res.points.mask, union)
    assert res.accounting["sumSphereSizes"] == singles
    assert res.accounting["sumPairwiseIntersectionsOrdered"] == pairs
    assert res.accounting["inclusionExclusionSize"] == res.size


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_radius_fibre_table_equals_the_multiplicity_scatter(q, n):
    field = field_of(q)
    union, singles, pairs = old_radius_scatter(field, n)
    res = radius_spherical(field, n)
    assert np.array_equal(res.points.mask, union)
    assert res.accounting["sumSphereSizes"] == singles
    assert res.accounting["sumPairwiseIntersectionsOrdered"] == pairs
    assert res.accounting["inclusionExclusionSize"] == res.size


@pytest.mark.parametrize("q,n", [(3, 2), (3, 6), (5, 3), (7, 4), (9, 6), (11, 3), (13, 2),
                                 (25, 3), (27, 3), (81, 2), (125, 2), (243, 2), (1009, 2)])
def test_radius_discriminant_equals_the_per_radius_loop(q, n):
    field = field_of(q)
    union, singles, pairs = loop_radius_multiplicity(field, n)
    res = radius_spherical(field, n)
    assert np.array_equal(res.points.mask, union)
    assert res.accounting["sumSphereSizes"] == singles
    assert res.accounting["sumPairwiseIntersectionsOrdered"] == pairs
    assert res.accounting["inclusionExclusionSize"] == res.size


# ---- (d) witness checks from the fibre-level table ----

@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (9, 2), (7, 3), (25, 2), (27, 3), (5, 4)])
def test_fibre_level_table_is_the_levelwise_all(q, n):
    field = field_of(q)
    profile = origin_norm_profile(field, n - 1)
    rng = np.random.default_rng(q * 7 + n)
    full = PointSet.full(field, n).mask
    for mask in (full, rng.random(q ** n) < 0.97, radius_spherical(field, n).points.mask):
        rows = mask.reshape(-1, q)
        want = np.array([[rows[profile == v, x0].all() for x0 in range(q)]
                         for v in range(q)])
        assert np.array_equal(fibre_level_table(field, n, mask), want)


# ---- (d') level-built sets against their q^n masks ----

LEVEL_SWEEP = [(q, n) for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
               for n in range(2, 13) if q ** n <= 10 ** 6]


@pytest.mark.parametrize("q,n", LEVEL_SWEEP)
def test_level_built_constructions_equal_the_mask_oracles(q, n):
    field = field_of(q)
    built = [(radius_spherical(field, n), mask_radius_spherical(field, n)),
             (center_spherical(field, n), mask_center_spherical(field, n))]
    for res, want in built:
        points = res.points
        assert points._mask is None, res.name  # nothing so far formed the mask
        assert res.size == points.size == want.size == int(np.count_nonzero(want.points.mask))
        assert np.array_equal(points.level_table(),
                              fibre_level_table(field, n, want.points.mask))
        assert points._mask is None, res.name
        assert np.array_equal(points.mask, want.points.mask)
        assert not points.mask.flags.writeable and not points.level_table().flags.writeable
        assert np.array_equal(points.ranks(), want.points.ranks())
        assert res.accounting == want.accounting
        assert json.dumps(res.to_json_dict()) == json.dumps(want.to_json_dict())
        assert res.witness_valid and want.witness_valid
        assert witness_valid(field, want.points, res.witness)
    # set operations on level-built sets agree with mask-built copies
    rng = np.random.default_rng(q * 31 + n)
    level = [res.points for res, _ in built] + [PointSet.from_levels(
        field, n, rng.random((q, q)) < 0.5)]
    copies = [PointSet(field, n, points.mask) for points in level]
    for a, ac in zip(level, copies):
        assert a == ac and ac == a and len(a) == len(ac)
        assert a.complement() == ac.complement()
        for b, bc in zip(level, copies):
            assert (a | b) == (ac | bc) and (a & b) == (ac & bc)
            assert a.issubset(b) == ac.issubset(bc) and (a == b) == (ac == bc)
        for rank in rng.integers(0, q ** n, size=20):
            point = point_unrank(field, n, int(rank))
            assert (point in a) == (point in ac) == bool(ac.mask[rank])


def test_level_table_rows_of_empty_levels_read_true():
    # F_3^1 holds no t with ||t|| = 2, a nonsquare, so level 2 of F_3^2 is empty
    field = make_field(3)
    points = PointSet.from_levels(field, 2, np.zeros((3, 3), dtype=bool))
    assert points.size == 0 and not points.mask.any()
    assert points.level_table().tolist() == [[False] * 3, [False] * 3, [True] * 3]
    assert np.array_equal(points.level_table(), fibre_level_table(field, 2, points.mask))
    with pytest.raises(ValueError, match="shape"):
        PointSet.from_levels(field, 2, np.zeros((3, 4), dtype=bool))


def sweep_witnesses(field, n):
    """Both constructions, a radius witness and a center witness whose
    spheres all have nonzero tails, and a mix of zero and nonzero tails;
    each with the union of its spheres as the set."""
    q = field.q
    rng = np.random.default_rng(q * 100 + n)

    def center(first, zero_tail):
        tail = (0,) * (n - 1) if zero_tail else tuple(int(c) for c in rng.integers(1, q, n - 1))
        return (first,) + tail

    out = [(res.points, res.witness) for res in (radius_spherical(field, n),
                                                 center_spherical(field, n))]
    for tails in ("nonzero", "mixed"):
        zero = (lambda i: False) if tails == "nonzero" else (lambda i: i % 2 == 0)
        radius = {r: SphereSpec(center(int(rng.integers(0, q)), zero(r)), r)
                  for r in field.units()}
        centers = {a: SphereSpec(center(a, zero(a)), int(rng.integers(1, q)))
                   for a in field.elements()}
        for kind, entries in (("radius", radius), ("center-coordinate", centers)):
            mask = np.zeros(q ** n, dtype=bool)
            for spec in entries.values():
                mask[sphere_ranks(field, spec)] = True
            out.append((PointSet(field, n, mask), KakeyaWitness(kind, entries)))
    return out


WITNESS_SWEEP = [(q, n) for q in (3, 5, 7, 9, 25, 27) for n in (2, 3, 4) if q ** n <= 20_000]


@pytest.mark.parametrize("q,n", WITNESS_SWEEP)
def test_table_witness_check_equals_the_gathers(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q + 10 * n)
    for points, witness in sweep_witnesses(field, n):
        assert witness_valid(field, points, witness)
        assert gathered_witness_valid(field, points, witness)
        assert witness_valid(field, PointSet.full(field, n), witness)
        assert not witness_valid(field, PointSet.empty(field, n), witness)
        random = PointSet(field, n, points.mask | (rng.random(q ** n) < 0.5))
        random = PointSet(field, n, random.mask & (rng.random(q ** n) < 0.9))
        assert (witness_valid(field, random, witness)
                == gathered_witness_valid(field, random, witness))


@pytest.mark.parametrize("q,n", WITNESS_SWEEP)
def test_every_sphere_missing_one_point_is_rejected(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q * 3 + n)
    for points, witness in sweep_witnesses(field, n):
        for key, spec in witness.entries.items():
            ranks = sphere_ranks(field, spec)
            # every point of a small sphere, else its first, last and a random one
            picks = ranks if ranks.size <= 8 else ranks[[0, -1, int(rng.integers(ranks.size))]]
            for rank in picks:
                mask = points.mask.copy()
                mask[rank] = False
                holed = PointSet(field, n, mask)
                assert not witness_valid(field, holed, witness), (witness.kind, key, rank)
                assert not gathered_witness_valid(field, holed, witness)


# ---- (e) intersection lemma: all pairs, pairs centred at 0, norm classes ----

@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 5, 7, 9, 11) for n in (2, 3, 4)
                                 if q ** n <= 125])
def test_intersection_lemma_equals_all_pairs_scan(q, n):
    field = field_of(q)
    assert verify_intersection_lemma(field, n) == old_intersection_lemma(field, n)


LEMMA_SWEEP = [(q, n) for q in (3, 5, 7, 9, 11, 13, 25, 27) for n in range(2, 8)
               if q ** (2 * n) <= 10 ** 7]


@pytest.mark.parametrize("q,n", LEMMA_SWEEP)
def test_norm_class_scan_equals_the_pair_scan(q, n):
    field = field_of(q)
    assert verify_intersection_lemma(field, n) == pair_scan_intersection_lemma(field, n)


def test_one_representative_per_norm_class():
    for q, n in LEMMA_SWEEP:
        field = field_of(q)
        norms = origin_norm_profile(field, n)
        reps = [point_rank(field, c) for c in _norm_class_representatives(field, n)]
        assert 0 not in reps and reps == sorted(set(reps), key=lambda c: norms[c])
        # the least nonzero rank of every norm that a nonzero point takes
        want = {int(v): int(np.flatnonzero(norms[1:] == v)[0]) + 1
                for v in np.unique(norms[1:])}
        assert {int(norms[c]): c for c in reps} == want, (q, n)


# ---- exhaustive scans by the coordinate recurrence ----

def scan_sets(field, n):
    """The empty and full sets, a seeded half-random set and both
    constructions."""
    half = np.random.default_rng(field.q * 10 + n).random(space_size(field, n)) < 0.5
    return {"empty": PointSet.empty(field, n), "full": PointSet.full(field, n),
            "half": PointSet(field, n, half), "radius": radius_spherical(field, n).points,
            "center": center_spherical(field, n).points}


def without_radius(points, counts, r):
    """The set less every sphere of radius r that it holds (counts[a, r] == 0),
    so that it holds none: removing points makes no new sphere."""
    field, n = points.field, points.n
    mask = points.mask.copy()
    for a in np.flatnonzero(counts[:, r] == 0):
        mask[sphere_ranks(field, SphereSpec(point_unrank(field, n, int(a)), r))] = False
    return PointSet(field, n, mask)


@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 5, 7, 9, 11, 25, 27) for n in (2, 3, 4)
                                 if q ** n <= 15_000] + [(3, 5), (5, 5)])
def test_exhaustive_scan_equals_the_pair_scan(q, n):
    field = field_of(q)
    sets = scan_sets(field, n)
    radius_counts = old_complement_hit_counts(sets["radius"], 10 ** 12)
    sets["one radius missing"] = without_radius(sets["radius"], radius_counts, q // 2)
    first = np.arange(q ** n) % q
    for name, points in sets.items():
        want = (radius_counts if name == "radius"
                else old_complement_hit_counts(points, 10 ** 12))
        assert np.array_equal(_complement_hit_counts(points, 10 ** 12), want), name
        found = want[:, 1:] == 0
        radius_ok = bool(found.any(axis=0).all())
        center_ok = set(first[found.any(axis=1)].tolist()) == set(field.elements())
        assert verify_radius_kakeya(points) == radius_ok, name
        assert verify_center_kakeya(points) == center_ok, name
    assert not verify_radius_kakeya(sets["one radius missing"])


# ---- circle certificates without dense tables ----

def covering_sets(q):
    field = field_of(q)
    if field.k == 1:
        return [circular_prime(q, v) for v in ("radius", "center")]
    if field.k % 2 == 0:
        return [circular_square(field, v) for v in ("radius", "center")]
    return [circular_odd_power(field, v) for v in ("radius", "center")]


def odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1, 2):
        try:
            prime_power_decompose(q)
        except ValueError:
            continue
        out.append(q)
    return out


@pytest.mark.parametrize("q", odd_prime_powers(243))
def test_circle_certificates_equal_the_argwhere_pairs(q):
    for res in covering_sets(q):
        ks = [int(x) for x in res.points.ranks()]
        want = old_circular_witness(res.field, ks, res.variant)
        got = {key: (spec.center, spec.radius) for key, spec in res.witness.entries.items()}
        assert got == want, (q, res.variant)


# ---- the origin profile and translate ----

def test_origin_profile_is_cached_compact_and_read_only():
    field = make_field(7)
    values = origin_norm_profile(field, 3)
    assert values is origin_norm_profile(field, 3)
    assert values.dtype == np.uint8 and not values.flags.writeable
    assert np.array_equal(values, norm_profile(field, 3))
    assert origin_norm_profile(make_field(257), 1).dtype == np.uint16


PROFILE_SWEEP = [(q, n) for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)
                 for n in range(5) if q ** n <= 10 ** 6] + [(3, 12), (7, 6)]


@pytest.mark.parametrize("q,n", PROFILE_SWEEP)
def test_origin_profile_equals_the_enumeration(q, n):
    field = field_of(q)
    want = norm_profile(field, n).astype(np.min_scalar_type(q - 1))
    got = origin_norm_profile(field, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_origin_profile_gathers_in_small_blocks():
    # one take made an int64 index of the whole F_3^12 profile, 4.25 MB, to
    # gather the 1.6 MB profile of F_3^13; blocks of 2^16 entries hold a
    # few hundred KB beside the result
    field = make_field(3)
    want = norm_profile(field, 13).astype(np.uint8)
    origin_norm_profile(field, 12)
    got = []
    peak = traced_peak(lambda: got.append(origin_norm_profile.__wrapped__(field, 13)))
    assert got[0].dtype == want.dtype and np.array_equal(got[0], want)
    assert peak < 3 ** 13 + 2 ** 19, peak


def test_origin_profile_caches_every_lower_dimension_read_only():
    field = make_field(29)
    origin_norm_profile(field, 3)
    for m in range(4):
        hits = origin_norm_profile.cache_info().hits
        profile = origin_norm_profile(field, m)
        assert origin_norm_profile.cache_info().hits == hits + 1, m
        assert not profile.flags.writeable
        with pytest.raises(ValueError):
            profile[0] = 1


SPHERE_SWEEP = [(q, n, None) for q in (3, 5, 7, 9, 11, 25, 27, 31) for n in (2, 3, 4)] + [
    (3, 5, None), (5, 5, None), (13, 5, (1, 2, 6, 12)), (7, 7, (1, 3, 6))]


def sweep_radii(field, radii):
    return field.units() if radii is None else radii


@pytest.mark.parametrize("q,n,radii", SPHERE_SWEEP)
def test_fibred_spheres_equal_the_translate_of_the_rescan(q, n, radii):
    field = field_of(q)
    rng = np.random.default_rng(q * 100 + n)
    tail = tuple(int(c) for c in rng.integers(1, q, size=n - 1))
    centers = [(0,) * n, (q - 1,) + (0,) * (n - 1), (0,) + tail,
               tuple(int(c) for c in rng.integers(0, q, size=n))]
    for r in sweep_radii(field, radii):
        for center in centers:
            sphere = SphereSpec(center, r)
            got = sphere_ranks(field, sphere)
            assert got.dtype == np.int64
            assert np.array_equal(np.sort(got), np.sort(old_sphere_ranks(field, sphere))), \
                (center, r)


@pytest.mark.parametrize("q,n,radii", SPHERE_SWEEP + [(3, 1, None), (9, 1, None), (31, 1, None)])
def test_origin_spheres_equal_the_rescan_element_for_element(q, n, radii):
    field = field_of(q)
    for r in sweep_radii(field, radii):
        assert np.array_equal(origin_sphere_ranks(field, n, r),
                              old_origin_sphere_ranks(field, n, r)), r


@pytest.mark.parametrize("q,m", [(3, 1), (9, 2), (31, 3), (13, 4)])
def test_level_order_is_cached_read_only_and_int32(q, m):
    field = field_of(q)
    order, offsets = level_order(field, m)
    assert level_order(field, m)[0] is order
    assert order.dtype == np.int32 and order.shape == (q ** m,)
    assert offsets.shape == (q + 1,) and offsets[0] == 0 and offsets[-1] == q ** m
    assert not order.flags.writeable and not offsets.flags.writeable
    profile = origin_norm_profile(field, m)
    for v in range(q):
        assert np.array_equal(order[offsets[v]:offsets[v + 1]], np.flatnonzero(profile == v))


def test_fibres_scale_in_64_bits():
    # past 2^31 points q * t overflows int32, the dtype of the level order
    field = make_field(5)
    order, offsets = level_order(field, 2)
    want = []
    for y in range(5):
        v = field.sub(1, field.mul(y, y))
        want += [y + 2 ** 33 * int(t) for t in order[offsets[v]:offsets[v + 1]]]
    got = _fibres(field, 2, 1, np.arange(5), 2 ** 33)
    assert got.tolist() == want


def test_centred_profile_oracle_matches_the_scalar_norm():
    field = field_of(9)
    center = (1, 3)
    prof = norm_profile_at(field, 2, center)
    for r in range(81):
        vec = point_unrank(field, 2, r)
        assert prof[r] == norm(field, tuple(field.sub(x, c) for x, c in zip(vec, center)))


def test_origin_sphere_ranks_ascend_and_partition_the_nonzero_norms():
    field = make_field(5)
    parts = [origin_sphere_ranks(field, 3, r) for r in field.units()]
    for part in parts:
        assert np.all(np.diff(part) > 0)
    assert np.array_equal(np.sort(np.concatenate(parts)),
                          np.flatnonzero(norm_profile(field, 3) != 0))


def test_translate_is_digitwise_addition():
    field = field_of(9)
    rng = np.random.default_rng(3)
    ranks = rng.integers(0, 9 ** 3, size=50)
    center = (4, 0, 7)
    got = translate(field, 3, ranks, center)
    for y, x in zip(ranks, got):
        want = tuple(field.add(a, c) for a, c in zip(point_unrank(field, 3, int(y)), center))
        assert int(x) == point_rank(field, want)


@pytest.mark.parametrize("center", [(-1, 0, 0), (7, 0, 0), (0, 0), (0, 0, 0, 0),
                                    (1.0, 0, 0), (True, 0, 0)])
def test_translate_rejects_points_outside_the_space(center):
    field = make_field(7)
    assert not is_point(field, 3, center)
    with pytest.raises(ValueError):
        translate(field, 3, [0, 1], center)


# ---- the dense-table expressions that add_arrays and mul_arrays replaced ----

def table_origin_norm_profile(field, n):
    """The profile recursion over add_table: row y is y^2 + v gathered at
    the (n-1)-dim profile."""
    dtype = np.min_scalar_type(field.q - 1)
    if n == 0:
        return np.zeros(1, dtype=dtype)
    levels = field.add_table.astype(dtype)[field.sq_arr]
    return levels.take(table_origin_norm_profile(field, n - 1), axis=1).ravel()


def table_translate(field, n, ranks, center):
    """center + y, one digit at a time, from columns of add_table."""
    q = field.q
    ranks = np.asarray(ranks, dtype=np.int64)
    out = ranks.copy()
    step = 1
    for c in center:
        if c:
            shift = (field.add_table[:, c] - np.arange(q)).astype(np.int64) * step
            out += shift[ranks // step % q]
        step *= q
    return out


def table_hypersphere_ranks(field, h):
    """center + {y in S_r(0) : d.y = 0}, d.y folded one coordinate at a
    time over add_table and rows of mul_table."""
    n = len(h.center)
    y = origin_sphere_ranks(field, n, h.radius)
    dots = np.zeros(y.shape, dtype=np.int32)
    step = 1
    for d in h.direction:
        dots = field.add_table[dots, field.mul_table[d][y // step % field.q]]
        step *= field.q
    return table_translate(field, n, y[dots == 0], h.center)


ODD_PRIME_POWERS_27 = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)


@pytest.mark.parametrize("q,n", PROFILE_SWEEP)
def test_origin_profile_equals_the_table_recursion(q, n):
    field = field_of(q)
    want = table_origin_norm_profile(field, n)
    got = origin_norm_profile(field, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_27)
def test_translate_equals_the_table_form(q):
    field = field_of(q)
    rng = np.random.default_rng(q)
    for n in (1, 2, 3, 4):
        ranks = rng.integers(0, q ** n, size=300)
        for center in [(0,) * n, (q - 1,) * n, tuple(int(c) for c in rng.integers(0, q, size=n))]:
            assert np.array_equal(translate(field, n, ranks, center),
                                  table_translate(field, n, ranks, center)), (n, center)


@pytest.mark.parametrize("q,n", [(q, n) for q in ODD_PRIME_POWERS_27 for n in (3, 4)])
def test_hyperspheres_equal_the_table_fold(q, n):
    field = field_of(q)
    rng = np.random.default_rng(7 * q + n)
    # a nonzero direction of norm 0: d is then on its own hyperplane d.y = 0
    isotropic = next(v for v in (point_unrank(field, n, a) for a in range(1, q ** n))
                     if norm(field, v) == 0)
    directions = [isotropic, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (q - 1,),
                  tuple(int(c) for c in rng.integers(1, q, size=n))]
    points = 0
    for d in directions:
        for r in (1, int(rng.integers(1, q))):
            center = tuple(int(c) for c in rng.integers(0, q, size=n))
            h = HypersphereSpec(center, d, r)
            got = hypersphere_ranks(field, h)
            assert np.array_equal(got, table_hypersphere_ranks(field, h)), (d, r)
            points += got.size
    assert points  # some of them are empty: an isotropic d at n = 3, r of one class


@pytest.mark.parametrize("radius", [-6, 7, 99])
def test_out_of_range_radius_is_rejected(radius):
    with pytest.raises(ValueError):
        sphere_ranks(make_field(7), SphereSpec((0, 0, 0), radius))


# ---- witnesses with ranks outside [0, q) never verify ----

@pytest.mark.parametrize("center", [(-6, 0, 0, 0), (99, 0, 0, 0), (1, 0, 0)])
def test_radius_witness_with_bad_center_is_false(center):
    field = make_field(7)
    res = radius_spherical(field, 4)
    entries = dict(res.witness.entries)
    entries[1] = SphereSpec(center, 1)
    assert not witness_valid(field, res.points, KakeyaWitness("radius", entries))


@pytest.mark.parametrize("radius", [-1, 99])
def test_center_witness_with_bad_radius_is_false(radius):
    field = make_field(5)
    res = center_spherical(field, 3)
    entries = dict(res.witness.entries)
    entries[0] = SphereSpec(entries[0].center, radius)
    assert not witness_valid(field, res.points,
                             KakeyaWitness("center-coordinate", entries))


def test_hypersphere_witness_with_bad_direction_is_false():
    field = make_field(5)
    res = hypersphere_union(field, 3)
    entries = dict(res.witness.entries)
    spec = entries[1]
    entries[1] = HypersphereSpec(spec.center, (-4, 0, 0), 1)
    assert not witness_valid(field, res.points, KakeyaWitness("hypersphere", entries))


@pytest.mark.parametrize("center", [1, 6])
def test_circle_witness_needs_both_points_in_the_set(center):
    # the circle of radius 1 around 1 is {2, 0}, around 6 it is {0, 5}:
    # either way one point is the missing 0
    field = make_field(7)
    points = PointSet.from_ranks(field, 1, range(1, 7))
    entries = {r: CircleSpec(2 if r in (3, 4) else 3, r) for r in field.units()}
    assert witness_valid(field, points, KakeyaWitness("circular-radius", entries))
    entries[1] = CircleSpec(center, 1)
    assert not witness_valid(field, points, KakeyaWitness("circular-radius", entries))


@pytest.mark.parametrize("kind,key,circle", [
    ("circular-radius", 1, CircleSpec(99, 1)),
    ("circular-radius", 1, CircleSpec(-6, 1)),
    ("circular-center", 1, CircleSpec(1, 99)),
    ("circular-center", 1, CircleSpec(1, -6)),
])
def test_circle_witness_with_bad_ranks_is_false(kind, key, circle):
    field = make_field(7)
    keys = field.units() if kind == "circular-radius" else field.elements()
    entries = {a: CircleSpec(a, 1) if kind == "circular-center" else CircleSpec(0, a)
               for a in keys}
    full = PointSet.full(field, 1)
    assert witness_valid(field, full, KakeyaWitness(kind, entries))
    entries[key] = circle
    assert not witness_valid(field, full, KakeyaWitness(kind, entries))


# ---- hyper-sphere witnesses: the cone check against the gathers ----

def gathered_hyperspheres_inside(field, points, hyperspheres):
    """The hyper-sphere containment check by one gather per entry."""
    n, mask = points.n, points.mask
    return (all(is_point(field, n, h.center) and is_point(field, n, h.direction)
                for h in hyperspheres)
            and all(mask[hypersphere_ranks(field, h)].all() for h in hyperspheres))


def gathered_hypersphere_witness_valid(field, points, witness):
    """The hyper-sphere witness check by one gather per entry (entries
    assumed well formed)."""
    return (set(witness.entries) == set(field.units())
            and all(h.radius == key for key, h in witness.entries.items())
            and gathered_hyperspheres_inside(field, points, list(witness.entries.values())))


def hypersphere_cases(field, n):
    """(set, witness, the verdict it must get or None) over the union's own
    witness, entries with center == direction and a wrong radius, and
    witnesses that mix cone entries with random hyper-spheres."""
    q = field.q
    rng = np.random.default_rng(q * 13 + n)
    res = hypersphere_union(field, n)
    entries, null = res.witness.entries, res.points.mask
    witness = res.witness

    def holed(mask, ranks):
        out = mask.copy()
        out[ranks[rng.integers(ranks.size)]] = False
        return out

    own = np.zeros(q ** n, dtype=bool)
    for h in entries.values():
        own[hypersphere_ranks(field, h)] = True
    assert not (own & ~null).any()  # the witness's own union lies in N*
    cases = [(null, witness, True),
             (holed(null, hypersphere_ranks(field, entries[int(rng.integers(1, q))])),
              witness, False),
             (own, witness, True)]  # N* less some points: every entry gathered
    # center == direction at the right key, but radius != -||center||: the
    # cone entry of another radius, and an isotropic center
    isotropic = point_unrank(field, n, int(np.flatnonzero(null)[0]))
    wrong = dict(entries)
    wrong[1] = HypersphereSpec(entries[q - 1].center, entries[q - 1].center, 1)
    wrong[q - 1] = HypersphereSpec(isotropic, isotropic, q - 1)
    # random hyper-spheres at every other key, cone entries at the rest
    mixed = dict(entries)
    for r in list(field.units())[::2]:
        direction = tuple(int(c) for c in rng.integers(0, q, size=n))
        direction = direction if any(direction) else (1,) + direction[1:]
        mixed[r] = HypersphereSpec(tuple(int(c) for c in rng.integers(0, q, size=n)),
                                   direction, r)
    for changed in (wrong, mixed):
        changed = KakeyaWitness("hypersphere", changed)
        extra = np.zeros(q ** n, dtype=bool)
        for h in changed.entries.values():
            if h not in entries.values():
                extra[hypersphere_ranks(field, h)] = True
        cases += [(null, changed, None), (null | extra, changed, True),
                  (own | extra, changed, True)]
        others = np.flatnonzero(extra & ~null)
        if others.size:
            cases.append((holed(null | extra, others), changed, False))
    return cases


HYPERSPHERE_SWEEP = [(q, n) for q in ODD_PRIME_POWERS_27 for n in range(3, 11)
                     if q ** n <= 10 ** 5]


@pytest.mark.parametrize("q,n", HYPERSPHERE_SWEEP)
def test_cone_check_equals_the_gathers(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q + 7 * n)
    level_built = radius_spherical(field, n).points
    for mask, witness, verdict in hypersphere_cases(field, n):
        points = PointSet(field, n, mask)
        random = PointSet(field, n, mask & (rng.random(q ** n) < 0.99))
        for candidate in (points, random, level_built,
                          PointSet.full(field, n), PointSet.empty(field, n)):
            want = gathered_hypersphere_witness_valid(field, candidate, witness)
            assert witness_valid(field, candidate, witness) == want
        if verdict is not None:
            assert witness_valid(field, points, witness) == verdict


@pytest.mark.parametrize("q,n", HYPERSPHERE_SWEEP + [(49, 3), (81, 3), (125, 3)])
def test_hypersphere_witness_is_the_first_rank_of_each_sphere(q, n):
    field = field_of(q)
    for r, h in hypersphere_union(field, n).witness.entries.items():
        assert h.center == h.direction and h.radius == r
        assert point_rank(field, h.center) == origin_sphere_ranks(field, n, field.neg(r))[0]
