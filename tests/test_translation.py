"""Spheres as translates of the cached origin profile, checked against the
full-enumeration paths they replaced.

Each oracle below is the earlier implementation, kept here verbatim in
spirit: a fresh norm profile per sphere, the rescan of the origin profile
and its n-dim translate per sphere, the per-center hyper-sphere loop,
pairwise sphere masks, the q^n multiplicity scatter and the per-radius
q x q multiplicity loop of the radius construction, the per-sphere and
per-hyper-sphere gathers of the witness check, the q^n masks of the two spherical
constructions, the level table read off a mask (fibre_level_table), the
all-pairs intersection scan, the (0, c) pair scan of the intersection
lemma and its scan of one center per norm class (now the oracle of the
closed-form joint norm counts), the gathered sphere
intersection, the dense-table circle certificates, the (center,
non-member) pair scan of the exhaustive verifiers, the coordinate
recurrence with the centre axis in the middle that the exhaustive scan
used before its rows-last kernel, and the witness check one entry and
one coordinate at a time.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    hypersphere_points,
    is_point,
    is_rank,
    norm,
    norm_profile,
    sphere_points,
    sum_profile,
    traced_peak,
)
from ffkakeya import (
    BadDimensionError,
    BudgetExceededError,
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SizeCapError,
    SphereSpec,
    center_spherical,
    circular_odd_power,
    circular_prime,
    circular_square,
    hypersphere_ranks,
    hypersphere_union,
    intersection_lemma_bound,
    make_field,
    origin_norm_profile,
    point_rank,
    point_unrank,
    prime_power_decompose,
    radius_spherical,
    sphere_intersection_size,
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
    _sphere_block,
    joint_norm_counts,
    level_order,
    point_ranks,
    space_size,
)
from ffkakeya.verification import (
    _add_square,
    _complement_hit_counts,
    _level_hit_counts,
    _square_rows,
)


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
        name="radius-spherical", variant=None,
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
        name="center-spherical", variant=None,
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


def per_entry_witness_valid(field, points, witness):
    """The witness check one entry and one coordinate at a time: is_rank
    and the key per entry, is_point per center, point_rank and neg per
    cone entry, the on-axis spheres of a level-built set by table lookups
    and one gather per other sphere."""
    kinds = {
        "radius": (SphereSpec, field.units, lambda s: s.radius),
        "center-coordinate": (SphereSpec, field.elements, lambda s: s.center[0]),
        "hypersphere": (HypersphereSpec, field.units, lambda s: s.radius),
        "circular-radius": (CircleSpec, field.units, lambda s: s.radius),
        "circular-center": (CircleSpec, field.elements, lambda s: s.center),
    }
    if witness.kind not in kinds:
        return False
    spec_type, keys, param = kinds[witness.kind]
    entries = witness.entries
    if set(entries) != set(keys()):
        return False
    for key, spec in entries.items():
        if not (isinstance(spec, spec_type) and is_rank(field, spec.radius) and spec.radius
                and param(spec) == key):
            return False
    inside = {SphereSpec: per_entry_spheres_inside,
              HypersphereSpec: per_entry_hyperspheres_inside,
              CircleSpec: per_entry_circles_inside}[spec_type]
    return inside(field, points, list(entries.values()))


def per_entry_spheres_inside(field, points, spheres):
    if not all(is_point(field, points.n, s.center) for s in spheres):
        return False
    table = points.level_table()
    if table is not None:
        on_axis = np.array([(s.center[0], s.radius) for s in spheres if not any(s.center[1:])],
                           dtype=np.int64).reshape(-1, 2)
        step, y0 = max(1, (1 << 18) // field.q), np.arange(field.q)
        for i in range(0, len(on_axis), step):
            a0, r = on_axis[i:i + step].T[:, :, None]
            flat = field.sub_arrays(r, field.sq_arr) * field.q + field.add_arrays(a0, y0)
            if not table.ravel()[flat].all():
                return False
        spheres = [s for s in spheres if any(s.center[1:])]
    return all(points.mask[sphere_ranks(field, s)].all() for s in spheres)


def per_entry_hyperspheres_inside(field, points, hyperspheres):
    n, mask = points.n, points.mask
    if not all(is_point(field, n, h.center) and is_point(field, n, h.direction)
               for h in hyperspheres):
        return False
    norms = origin_norm_profile(field, n)
    cone = [h.center == h.direction
            and h.radius == field.neg(int(norms[point_rank(field, h.center)]))
            for h in hyperspheres]
    if any(cone) and (mask[1:] | (norms[1:] != 0)).all():
        hyperspheres = [h for h, is_cone in zip(hyperspheres, cone) if not is_cone]
    return all(mask[hypersphere_ranks(field, h)].all() for h in hyperspheres)


def per_entry_circles_inside(field, points, circles):
    if points.n != 1 or not all(is_rank(field, c.center) for c in circles):
        return False
    a, r = np.array([(c.center, c.radius) for c in circles], dtype=np.int64).T
    return bool(points.mask[field.add_arrays(a, r)].all()
                and points.mask[field.sub_arrays(a, r)].all())


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


def norm_class_representatives(field, n: int) -> list[tuple[int, ...]]:
    """The least nonzero point of each nonempty norm class of F_q^n, read
    from level_order: at most q points, one per orbit of the orthogonal
    group O of the norm form on the nonzero vectors (Witt's theorem, see
    geometry.joint_norm_counts)."""
    order, offsets = level_order(field, n)
    starts = offsets[:-1] + (np.arange(field.q) == 0)  # the origin heads level 0
    return [point_unrank(field, n, int(order[i])) for i in starts[starts < offsets[1:]]]


def class_scan_joint_counts(field, n: int) -> np.ndarray:
    """The per-class body of the former verify_intersection_lemma: the
    joint (||x||, ||x - c||) counted over F_q^n by one translate and one
    bincount, for c = 0 and for one c per norm class."""
    q = field.q
    space = space_size(field, n)
    norms = origin_norm_profile(field, n).astype(np.int64)
    joint = []
    for c in [(0,) * n] + norm_class_representatives(field, n):
        shifted = translate(field, n, np.arange(space), [field.neg(v) for v in c])  # x - c
        counts = np.bincount(norms * q + norms[shifted], minlength=q * q)
        joint.append(counts.reshape(q, q))
    return np.stack(joint)


def fibre_level_table(field, n, mask):
    """The former PointSet.level_table of a set given by its mask: H[v, x0],
    whether every point (x0, t) with ||t|| = v lies in the set, empty
    levels True, by one gather of the rows t of mask.reshape(-1, q) into
    level order and one reduction per nonempty level."""
    q = field.q
    order, offsets = level_order(field, n - 1)
    full = offsets[:-1] < offsets[1:]
    table = np.ones((q, q), dtype=bool)
    # reduceat would return a row, not True, for an empty level
    table[full] = np.logical_and.reduceat(mask.reshape(-1, q).take(order, axis=0),
                                          offsets[:-1][full], axis=0)
    return table


def gathered_intersection_size(field, s1, s2) -> int:
    """The former sphere_intersection_size: one sphere gathered at the
    mask of the other."""
    return int(np.count_nonzero(sphere_points(field, s1).mask[sphere_ranks(field, s2)]))


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


def old_add_square(field, acc: np.ndarray) -> np.ndarray:
    """out[b, a, r] = sum_y acc[b, a + y, r - y^2] for acc of shape (B, q, q),
    in acc.dtype: gathers of about 2^20 single entries, each indexing a
    block of centres a and a block of rows b."""
    q = field.q
    y = np.arange(q)
    drop = field.sub_arrays(y, field.sq_arr[:, None])  # [y, r]: r - y^2
    rows = acc.reshape(len(acc), q * q)
    out = np.empty(acc.shape, dtype=acc.dtype)
    block = max(1, (1 << 20) // q ** 2)
    for lo in range(0, q, block):
        flat = field.add_arrays(y[lo:lo + block, None], y)[:, :, None] * q + drop  # [a, y, r]
        step = max(1, (1 << 20) // flat.size)
        for i in range(0, len(acc), step):
            out[i:i + step, lo:lo + block] = rows[i:i + step, flat].sum(axis=2, dtype=acc.dtype)
    return out


def old_recurrence_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[a, v] = #{x not in the set : ||x - a|| = v} by the coordinate
    recurrence with the partial norm last: acc has one axis per coordinate
    and a last axis for the partial norm, and each step turns the
    coordinate axis next to it from point digits into centre digits
    (old_add_square) and moves it to the front."""
    field, n, q = points.field, points.n, points.field.q
    space = space_size(field, n)
    estimate = n * q ** (n + 2)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    acc = np.zeros((q,) * n + (q,), dtype=np.min_scalar_type(space))
    acc[..., 0] = (~points.mask).reshape((q,) * n)
    for _ in range(n):
        acc = np.moveaxis(old_add_square(field, acc.reshape(-1, q, q)).reshape(acc.shape), -2, 0)
    return acc.reshape(space, q)


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


@pytest.mark.parametrize("q,n", [(3, 2), (5, 3), (9, 4), (7, 5), (25, 3)])
def test_level_built_sets_sort_no_profile(q, n):
    # level sizes come from the closed form, and witnesses from table lookups
    field = field_of(q)
    level_order.cache_clear()
    points = PointSet.from_levels(field, n, np.ones((q, q), dtype=bool))
    assert points.size == q ** n
    for res in (radius_spherical(field, n), center_spherical(field, n)):
        assert res.witness_valid and res.points.level_built
    assert level_order.cache_info().currsize == 0


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


@pytest.mark.parametrize("q,n", WITNESS_SWEEP)
def test_a_witness_level_flipped_in_the_table_is_rejected(q, n):
    # one cell (r - y_0^2, a_0 + y_0) of the witness sphere S_r(a_0, 0, ..., 0)
    # of a level-built set, at a nonempty level, flipped in its table
    field = field_of(q)
    rng = np.random.default_rng(q * 5 + n)
    nonempty = np.diff(level_order(field, n - 1)[1]) > 0
    y0 = np.arange(q)
    for res in (radius_spherical(field, n), center_spherical(field, n)):
        for spec in res.witness.entries.values():
            levels = field.sub_arrays(spec.radius, field.sq_arr)
            y = int(rng.choice(y0[nonempty[levels]]))
            table = res.points.level_table().copy()
            cell = int(levels[y]), field.add(spec.center[0], y)
            assert table[cell]
            table[cell] = False
            holed = PointSet.from_levels(field, n, table)
            assert holed.size < res.size
            assert not witness_valid(field, holed, res.witness), (res.name, spec)
            assert not witness_valid(field, PointSet(field, n, holed.mask), res.witness)
    # spheres off the first axis are gathered at the mask of a level-built set
    holed = np.ones((q, q), dtype=bool)
    holed[int(rng.integers(q)), int(rng.integers(q))] = False
    for table in (np.ones((q, q), dtype=bool), holed):
        points = PointSet.from_levels(field, n, table)
        for _, witness in sweep_witnesses(field, n):
            assert (witness_valid(field, points, witness)
                    == gathered_witness_valid(field, points, witness))


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
        reps = [point_rank(field, c) for c in norm_class_representatives(field, n)]
        assert 0 not in reps and reps == sorted(set(reps), key=lambda c: norms[c])
        # the least nonzero rank of every norm that a nonzero point takes
        want = {int(v): int(np.flatnonzero(norms[1:] == v)[0]) + 1
                for v in np.unique(norms[1:])}
        assert {int(norms[c]): c for c in reps} == want, (q, n)


# ---- joint norm counts in closed form, one per Witt class ----

JOINT_SWEEP = [(q, m) for q in (3, 5, 7, 9, 11, 13, 25, 27) for m in range(1, 6)
               if q ** m <= 3 * 10 ** 5]


@pytest.mark.parametrize("q,m", JOINT_SWEEP)
def test_joint_counts_equal_the_class_scan(q, m):
    field = field_of(q)
    joint = joint_norm_counts(field, m)
    assert joint.dtype == np.int64
    assert np.array_equal(joint, class_scan_joint_counts(field, m))


def test_lemma_maximum_against_its_bound_inside_the_point_cap():
    # it meets q^(n-2) + q^((n-1)//2) except at q = 3, where it falls short
    # by 3^(n/2 - 1) whenever 4 divides n (3, 27, 243, ... at n = 4, 8, 12)
    for q in (3, 5, 7, 9, 11, 13):
        field = field_of(q)
        for n in range(2, 41):
            if q ** n > 2 ** 40:
                break
            short = 3 ** (n // 2 - 1) if q == 3 and n % 4 == 0 else 0
            best = verify_intersection_lemma(field, n)
            assert best == intersection_lemma_bound(q, n) - short, (q, n)
    assert verify_intersection_lemma(make_field(11), 4) == 132
    with pytest.raises(SizeCapError):
        verify_intersection_lemma(make_field(3), 26)


@pytest.mark.parametrize("q,n", [(q, n) for q in (3, 5, 7, 9, 13, 25, 27) for n in (2, 3, 4)
                                 if q ** n <= 20_000])
def test_sphere_intersection_is_one_joint_count(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q * 7 + n)
    for c in [(0,) * n] + norm_class_representatives(field, n):
        for _ in range(4):
            a = tuple(int(x) for x in rng.integers(0, q, n))
            b = tuple(field.add(x, y) for x, y in zip(a, c))
            s1, s2 = (SphereSpec(center, int(r))
                      for center, r in zip((a, b), rng.integers(1, q, 2)))
            if s1 != s2:
                assert (sphere_intersection_size(field, s1, s2)
                        == gathered_intersection_size(field, s1, s2)), (s1, s2)
    for bad in (SphereSpec((q,) + (0,) * (n - 1), 1), SphereSpec((0,) * n, q)):
        with pytest.raises(ValueError):
            sphere_intersection_size(field, SphereSpec((0,) * n, 1), bad)
    # past the point cap: just past it, and past int64
    for big in (next(m for m in range(n, 41) if q ** m > 2 ** 40), 40):
        with pytest.raises(SizeCapError):
            sphere_intersection_size(field, SphereSpec((0,) * big, 1),
                                     SphereSpec((1,) + (0,) * (big - 1), 1))


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


@pytest.mark.parametrize("q", [3, 9, 25, 27, 103, 211])
@pytest.mark.parametrize("dtype", ["recurrence", np.int64])
def test_add_square_equals_its_definition(q, dtype):
    # out[a, r, t] = sum_y acc[a + y, r - y^2, t] by scalar field ops, on
    # counts of at most q (in the recurrence's dtype for q^2 points, which
    # holds every sum) or 2^40; the second t is chosen so that the q^2 rows
    # (a, r) go in about 2.5 blocks of 2^16 // t rows, the last one short:
    # 32 rows of t = 2023 at q = 9 (81 = 32 + 32 + 17), 4096 of t = 16 at
    # q = 103 and 16384 of t = 4 at q = 211
    field = field_of(q)
    if dtype == "recurrence":
        dtype, top = np.min_scalar_type(q ** 2), q
    else:
        top = 1 << 40
    rows = _square_rows(field)
    assert rows.shape == (q, q * q) and rows.dtype == np.min_scalar_type(q * q - 1)
    rng = np.random.default_rng(q)
    # t = 1 takes every row of every y in one gather while q^3 <= 2^16
    for t in (1, -(-5 * (1 << 16) // (2 * q * q))):
        acc = rng.integers(0, top + 1, (q, q, t)).astype(dtype)
        want = np.zeros_like(acc)
        for y in range(q):
            shift = [field.add(a, y) for a in range(q)]
            drop = [field.sub(r, field.mul(y, y)) for r in range(q)]
            want += acc[shift][:, drop]
        got = _add_square(acc, rows)
        assert got.dtype == acc.dtype and got.shape == acc.shape
        assert np.array_equal(got, want), t
        # trailing axes read as one, a non-contiguous view of acc too
        split = _add_square(acc.reshape(q, q, 1, t)[:, :, :, ::-1], rows)
        assert np.array_equal(split, want[:, :, ::-1]), t


def test_add_square_memory_is_bounded_by_its_blocks():
    # the row index takes 2 q^3 bytes (19 MB at q = 211); one (q, q, q)
    # int64 index and the gather of every y at once would take about 75 MB
    # and 300 MB, and blocks of 2^16 cells keep each gather near 0.5 MB
    field = field_of(211)
    acc = np.random.default_rng(211).integers(0, 1 << 40, (211, 211, 4))
    assert traced_peak(lambda: _add_square(acc, _square_rows(field))) < 32 << 20


def verdicts_from_counts(field, counts):
    """The radius and centre verdicts read from G: some sphere of every
    radius, and some sphere centred at every first coordinate (rank a mod q)."""
    found = counts[:, 1:] == 0
    first = np.arange(len(counts)) % field.q
    return (bool(found.any(axis=0).all()),
            set(first[found.any(axis=1)].tolist()) == set(field.elements()))


RECURRENCE_SWEEP = [(13, 4), (27, 3), (7, 5), (9, 5), (3, 5), (3, 6), (9, 3), (27, 2), (5, 7)]


@pytest.mark.parametrize("q,n", RECURRENCE_SWEEP)
def test_exhaustive_scan_equals_the_old_recurrence(q, n):
    # past the pair scan's reach, and at the dtype edges of G: q^n = 243
    # (uint8), 729 (uint16, three ways) and 5^7 (uint32); complements of
    # density 0, about 3 %, 1/2 and 1
    field = field_of(q)
    dtype = np.min_scalar_type(q ** n)
    rng = np.random.default_rng(q * 1000 + n)
    for density in (0, 0.03, 0.5, 1):
        points = PointSet(field, n, rng.random(q ** n) >= density)
        want = old_recurrence_hit_counts(points, 10 ** 12)
        got = _complement_hit_counts(points, 10 ** 12)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape == (q ** n, q)
        assert np.array_equal(got, want), density
        radius_ok, center_ok = verdicts_from_counts(field, want)
        assert verify_radius_kakeya(points) == radius_ok, density
        assert verify_center_kakeya(points) == center_ok, density


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
        got = _complement_hit_counts(points, 10 ** 12)
        assert got.dtype == np.min_scalar_type(q ** n) and np.array_equal(got, want), name
        assert np.array_equal(got, old_recurrence_hit_counts(points, 10 ** 12)), name
        found = want[:, 1:] == 0
        radius_ok = bool(found.any(axis=0).all())
        center_ok = set(first[found.any(axis=1)].tolist()) == set(field.elements())
        assert verify_radius_kakeya(points) == radius_ok, name
        assert verify_center_kakeya(points) == center_ok, name
    assert not verify_radius_kakeya(sets["one radius missing"])


def level_scan_sets(field, n):
    """The radius and center sets, two seeded random level-built sets, and
    each of the four with one cell of a nonempty level flipped."""
    q = field.q
    rng = np.random.default_rng(q * 100 + n)
    sets = [radius_spherical(field, n).points, center_spherical(field, n).points]
    sets += [PointSet.from_levels(field, n, rng.random((q, q)) < p) for p in (0.5, 0.9)]
    nonempty = np.flatnonzero(np.diff(level_order(field, n - 1)[1]))
    for points in list(sets):
        table = points.level_table().copy()
        v, x0 = int(rng.choice(nonempty)), int(rng.integers(q))
        table[v, x0] = not table[v, x0]
        sets.append(PointSet.from_levels(field, n, table))
    return sets


LEVEL_SCAN_SWEEP = [(q, n) for q in (3, 5, 7, 9, 11, 25, 27) for n in range(2, 6)
                    if n * q ** (n + 2) <= 2 * 10 ** 7]


@pytest.mark.parametrize("q,n", LEVEL_SCAN_SWEEP)
def test_level_scan_equals_the_recurrence_at_class_representatives(q, n):
    field = field_of(q)
    tails = [0] + [point_rank(field, c) for c in norm_class_representatives(field, n - 1)]
    for points in level_scan_sets(field, n):
        hits = _level_hit_counts(points, 10 ** 12)
        radius_ok, center_ok = verify_radius_kakeya(points), verify_center_kakeya(points)
        # the verifiers scan every level-built set by classes, with no q^n mask
        assert points.level_built and points._mask is None
        copy = PointSet(field, n, points.mask)
        want = _complement_hit_counts(copy, 10 ** 12).reshape(-1, q, q)
        assert np.array_equal(hits, want[tails])
        assert radius_ok == verify_radius_kakeya(copy)
        assert center_ok == verify_center_kakeya(copy)


def test_a_mask_set_with_a_cached_level_table_takes_the_recurrence():
    # spheres centred off the first axis: a radius set that is no union of
    # levels, so its level table (levels wholly inside) holds no such sphere
    for q, n in [(3, 3), (5, 3), (7, 3), (5, 4)]:
        field = make_field(q)
        center = (0, 1) + (0,) * (n - 2)
        points = PointSet.from_ranks(field, n, np.concatenate(
            [sphere_ranks(field, SphereSpec(center, r)) for r in field.units()]))
        assert not points.level_built and points.level_table() is None
        table = fibre_level_table(field, n, points.mask)
        assert verify_radius_kakeya(points)
        assert not verify_radius_kakeya(PointSet.from_levels(field, n, table))


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


def test_origin_profile_builds_its_level_table_in_row_blocks():
    # the q x q table of y^2 + v was built in int64 and then cast: at
    # q = 4099 a 256 MB peak for the 32 MB uint16 profile of F_q^2
    field = make_field(4099)
    origin_norm_profile(field, 1)
    got = []
    peak = traced_peak(lambda: got.append(origin_norm_profile.__wrapped__(field, 2)))
    squares = np.arange(field.q, dtype=np.int64) ** 2 % field.q
    want = (squares[:, None] + squares) % field.q  # [x_1, x_0], rank x_0 + q x_1
    assert got[0].dtype == np.uint16 and np.array_equal(got[0], want.ravel())
    assert peak <= 2 * got[0].nbytes, peak


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


def sorted_origin_sphere_ranks(field, n, radius):
    """S_r(0) from the fibres over the first coordinate, sorted."""
    return np.sort(sphere_ranks(field, SphereSpec((0,) * n, radius)))


@pytest.mark.parametrize("q,n,radii", SPHERE_SWEEP)
def test_origin_spheres_equal_the_rescan_element_for_element(q, n, radii):
    field = field_of(q)
    for r in sweep_radii(field, radii):
        assert np.array_equal(sorted_origin_sphere_ranks(field, n, r),
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


def test_origin_spheres_partition_the_nonzero_norms():
    field = make_field(5)
    parts = [sorted_origin_sphere_ranks(field, 3, r) for r in field.units()]
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


@pytest.mark.parametrize("ranks", [[100], [-1], [0, 25], np.array([24, 25]), [1.0], [True],
                                   np.array([0.5])])
def test_translate_rejects_ranks_outside_the_space(ranks):
    # translate(F_5, 2, [100], (1, 0)) returned [101], a rank outside F_5^2
    with pytest.raises(ValueError, match="out of range|must be integers"):
        translate(make_field(5), 2, ranks, (1, 0))


def test_translate_leaves_its_input_ranks_as_they_are():
    ranks = np.arange(25)
    assert translate(make_field(5), 2, ranks, (1, 2)).tolist() != ranks.tolist()
    assert ranks.tolist() == list(range(25))


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
    y = sorted_origin_sphere_ranks(field, n, h.radius)
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
            assert np.array_equal(np.sort(got), np.sort(table_hypersphere_ranks(field, h))), \
                (d, r)
            points += got.size
    assert points  # some of them are empty: an isotropic d at n = 3, r of one class


@pytest.mark.parametrize("radius", [-6, 7, 99])
def test_out_of_range_radius_is_rejected(radius):
    with pytest.raises(ValueError):
        sphere_ranks(make_field(7), SphereSpec((0, 0, 0), radius))


# ---- witness checks in array passes against the per-entry checker ----

def forced(spec, **changes):
    """A copy of spec with changes that its constructor may reject:
    _replace builds the named tuple without the constructor's checks."""
    return spec._replace(**changes)


def spec_mutations(spec, q):
    """(spec with one change, whether it still certifies): one rank
    replaced by a bool, an np.int64, an np.uint8, a float, -1, q or 2^70
    (only the numpy integers of the same value certify); a point one
    coordinate too long or too short; a zero radius."""
    out = [(forced(spec, radius=0), False)]
    for name in ("center", "direction", "radius"):
        if not hasattr(spec, name):
            continue
        value = getattr(spec, name)
        if isinstance(value, tuple):
            out += [(forced(spec, **{name: value + (0,)}), False),
                    (forced(spec, **{name: value[:-1]}), False)]
            positions = range(len(value))
        else:
            positions = [None]
        for i in positions:
            v = value if i is None else value[i]
            for bad in (True, np.int64(v), np.uint8(v), float(v), -1, q, 2 ** 70):
                new = bad if i is None else value[:i] + (bad,) + value[i + 1:]
                out.append((forced(spec, **{name: new}), type(bad) in (np.int64, np.uint8)))
    return out


def witness_mutations(field, witness):
    """(mutated witness, whether it still certifies): every spec mutation
    at the first and last key, an entry of another type or a tuple there,
    two entries swapped, and an entry moved to the key q."""
    entries, q = witness.entries, field.q
    keys = sorted(entries)
    other = CircleSpec(1, 1) if not isinstance(entries[keys[0]], CircleSpec) else \
        SphereSpec((1, 1), 1)
    out = []
    for key in (keys[0], keys[-1]):
        for spec, valid in spec_mutations(entries[key], q) + [(other, False), ((key, 1), False)]:
            out.append(({**entries, key: spec}, valid))
    swapped = dict(entries)
    swapped[keys[0]], swapped[keys[1]] = entries[keys[1]], entries[keys[0]]
    moved = dict(entries)
    moved[q] = moved.pop(keys[-1])
    out += [(swapped, False), (moved, False)]
    return [(KakeyaWitness(witness.kind, changed), valid) for changed, valid in out]


def five_kind_cases():
    """(field, set, genuine witness) for each of the five kinds; the
    spherical kinds on their level-built sets and on mask copies."""
    field = make_field(7)
    cases = []
    for res in (radius_spherical(field, 3), center_spherical(field, 3)):
        cases += [(field, res.points, res.witness),
                  (field, PointSet(field, 3, res.points.mask), res.witness)]
    res = hypersphere_union(make_field(5), 3)
    cases.append((res.field, res.points, res.witness))
    for variant in ("radius", "center"):
        res = circular_prime(13, variant)
        cases.append((res.field, res.points, res.witness))
    return cases


def test_mutated_witnesses_get_the_per_entry_verdicts():
    # bool ranks are rejected and numpy integer ranks accepted; floats,
    # ranks -1, q and 2^70, points of the wrong length, a zero radius, a
    # wrong key and an entry of the wrong type are rejected, by both checks
    kinds = set()
    for field, points, witness in five_kind_cases():
        kinds.add(witness.kind)
        assert witness_valid(field, points, witness) is True
        assert per_entry_witness_valid(field, points, witness)
        for mutant, valid in witness_mutations(field, witness):
            assert bool(per_entry_witness_valid(field, points, mutant)) is valid
            assert witness_valid(field, points, mutant) is valid, mutant.entries
    assert len(kinds) == 5
    # cone entries at the largest rank of each norm, in np.uint8 coordinates:
    # the last one's rank term 6 * 7^2 passes 255 and must not wrap
    res = hypersphere_union(make_field(7), 3)
    norms = origin_norm_profile(res.field, 3)
    entries = {}
    for r in res.field.units():
        a = tuple(map(np.uint8, point_unrank(
            res.field, 3, int(np.flatnonzero(norms == res.field.neg(r))[-1]))))
        entries[r] = HypersphereSpec(a, a, r)
    assert all(h.center[2] == 6 for h in entries.values())
    assert witness_valid(res.field, res.points, KakeyaWitness("hypersphere", entries)) is True


@pytest.mark.parametrize("q,n", [(3, 2), (7, 3), (9, 4), (31, 4), (5, 7)])
def test_point_ranks_equal_point_rank(q, n):
    field = field_of(q)
    rng = np.random.default_rng(q * 17 + n)
    points = [tuple(int(c) for c in rng.integers(0, q, size=n)) for _ in range(20)]
    points.append(tuple(map(np.uint8, points[0])))  # numpy scalars rank as ints
    want = [sum(int(v) * q ** i for i, v in enumerate(point)) for point in points]
    assert point_ranks(field, n, [c for point in points for c in point]) == want
    assert [point_rank(field, point) for point in points] == want


MASK_GATHER_SWEEP = WITNESS_SWEEP + [(31, 4), (101, 3)]


@pytest.mark.parametrize("q,n", MASK_GATHER_SWEEP)
def test_batched_sphere_gather_equals_the_per_sphere_gather(q, n):
    # mask copies of both constructions, whole and with one point removed:
    # a point of a witness sphere (the last one, in the last block of the
    # gather past q^n = 31^4) or a random point of the set
    field = field_of(q)
    rng = np.random.default_rng(q * 11 + n)
    for res in (radius_spherical(field, n), center_spherical(field, n)):
        masked = PointSet(field, n, res.points.mask)
        assert witness_valid(field, masked, res.witness)
        assert gathered_witness_valid(field, masked, res.witness)
        spheres = list(res.witness.entries.values())
        some = spheres[int(rng.integers(len(spheres)))]
        for rank in (int(rng.choice(sphere_ranks(field, spheres[-1]))),
                     int(rng.choice(sphere_ranks(field, some))),
                     int(rng.choice(res.points.ranks()))):
            mask = res.points.mask.copy()
            mask[rank] = False
            holed = PointSet(field, n, mask)
            want = gathered_witness_valid(field, holed, res.witness)
            assert witness_valid(field, holed, res.witness) == want
            assert per_entry_witness_valid(field, holed, res.witness) == want


@pytest.mark.parametrize("q,n", [(3, 3), (9, 3), (31, 4), (7, 5)])
def test_sphere_block_equals_the_spheres_one_by_one(q, n):
    # off-axis centers, so every tail digit is shifted, each by its own sphere
    field = field_of(q)
    rng = np.random.default_rng(q + n)
    centers, radii = rng.integers(0, q, size=(12, n)), rng.integers(1, q, size=12)
    specs = [SphereSpec(tuple(map(int, c)), int(r)) for c, r in zip(centers, radii)]
    got = _sphere_block(field, centers, radii)
    assert got.tolist() == np.concatenate([sphere_ranks(field, s) for s in specs]).tolist()
    for s in specs:
        assert np.array_equal(np.sort(sphere_ranks(field, s)), np.sort(old_sphere_ranks(field, s)))


@pytest.mark.parametrize("q,n", [(7, 3), (31, 4)])
def test_off_axis_witness_on_a_mask_set_over_several_blocks(q, n):
    # 31^4 gathers 8 spheres a block: the 30 radii take four blocks
    field = field_of(q)
    rng = np.random.default_rng(5 * q + n)
    entries = {r: SphereSpec(tuple(int(c) for c in rng.integers(0, q, size=n)), r)
               for r in field.units()}
    witness = KakeyaWitness("radius", entries)
    mask = np.zeros(q ** n, dtype=bool)
    for s in entries.values():
        mask[old_sphere_ranks(field, s)] = True
    assert witness_valid(field, PointSet(field, n, mask), witness) is True
    for s in (entries[1], entries[q - 1]):  # in the first and the last block
        holed = mask.copy()
        holed[int(rng.choice(old_sphere_ranks(field, s)))] = False
        points = PointSet(field, n, holed)
        assert not gathered_witness_valid(field, points, witness)
        assert witness_valid(field, points, witness) is False


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
        first = sorted_origin_sphere_ranks(field, n, field.neg(r))[0]
        assert point_rank(field, h.center) == first
