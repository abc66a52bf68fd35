"""Verifiers and exact bounds for spherical and circular Kakeya sets.

A radius-spherical Kakeya set contains a sphere of every nonzero radius; a
center-spherical Kakeya set contains, for every a1 in F_q, a sphere whose
center has first coordinate a1.  The one-dimensional analogues are the
difference cover K - K = F_q and the restricted sum cover K (+) K = F_q
(sums of two distinct elements).

Witness mode checks a certificate against the set through one table of
its kinds, WITNESS_KINDS, which the reader of saved witnesses also reads;
exhaustive mode needs none: it counts the points outside every candidate
sphere, exactly, in about n * q^(n+2) steps whatever the set holds,
within a work budget.
The intersection-lemma scan takes one center per norm class, in about
n * q^(n+1) steps.
The size lower bounds live in exact, which needs no numpy; they are
re-exported here.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .errors import BadDimensionError, BudgetExceededError
from .exact import (  # noqa: F401 (re-exported)
    DEFAULT_BUDGET,
    BoundReport,
    circular_lower_bounds,
    exact_str,
    spherical_kakeya_lower_bound,
)
from .field import Fq
from .geometry import (
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    _norm_class_representatives,
    hypersphere_ranks,
    is_point,
    is_rank,
    origin_norm_profile,
    point_rank,
    space_size,
    sphere_ranks,
    translate,
)

# ---- witness checking ----

def _spheres_inside(field: Fq, points: PointSet, spheres: list) -> bool:
    """Both spherical constructions certify with spheres centred at
    (a_0, 0, ..., 0), which are unions of whole levels of the fibres:

        S_r(a_0, 0, ..., 0) = {(a_0 + y_0, t) : y_0 in F_q, ||t|| = r - y_0^2},

    so such a sphere lies inside the set iff H[r - y_0^2, a_0 + y_0] holds
    for every y_0, with H = points.level_table().  They are checked by q
    lookups each into the one q x q table, in blocks of at most 2^18
    lookups up to the first that fails; other spheres are gathered."""
    if not all(is_point(field, points.n, s.center) for s in spheres):
        return False
    on_axis = np.array([(s.center[0], s.radius) for s in spheres if not any(s.center[1:])],
                       dtype=np.int64).reshape(-1, 2)
    step, y0 = max(1, (1 << 18) // field.q), np.arange(field.q)
    for i in range(0, len(on_axis), step):
        a0, r = on_axis[i:i + step].T[:, :, None]
        flat = field.sub_arrays(r, field.sq_arr) * field.q + field.add_arrays(a0, y0)
        if not points.level_table().ravel()[flat].all():
            return False
    return all(points.mask[sphere_ranks(field, s)].all() for s in spheres if any(s.center[1:]))


def _hyperspheres_inside(field: Fq, points: PointSet, hyperspheres: list) -> bool:
    """The hyper-sphere union certifies with cone entries: center a equal
    to the direction and radius -||a|| != 0.  Such an H_a lies in the null
    quadric less the origin, N* = {x != 0 : ||x|| = 0} (the proof is in
    constructions.hypersphere_union), so when the set holds all of N*,
    which one pass over the origin norm profile tells, every cone entry
    lies inside it.  Other entries, and cone entries when that pass fails
    (N* inside the set is sufficient, not necessary), are gathered."""
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


def _circles_inside(field: Fq, points: PointSet, circles: list) -> bool:
    """Both points a + r and a - r of every circle, in one gather each."""
    if points.n != 1 or not all(is_rank(field, c.center) for c in circles):
        return False
    a, r = np.array([(c.center, c.radius) for c in circles], dtype=np.int64).T
    return bool(points.mask[field.add_arrays(a, r)].all()
                and points.mask[field.sub_arrays(a, r)].all())


# kind -> (entry type, key set, the parameter of an entry that its key names)
WITNESS_KINDS = {
    "radius": (SphereSpec, Fq.units, attrgetter("radius")),
    "center-coordinate": (SphereSpec, Fq.elements, lambda s: s.center[0]),
    "hypersphere": (HypersphereSpec, Fq.units, attrgetter("radius")),
    "circular-radius": (CircleSpec, Fq.units, attrgetter("radius")),
    "circular-center": (CircleSpec, Fq.elements, attrgetter("center")),
}
# entry type -> whether its entries lie in F_q^n (circles in F_q) and in the set
_INSIDE = {SphereSpec: _spheres_inside, HypersphereSpec: _hyperspheres_inside,
           CircleSpec: _circles_inside}


def witness_valid(field: Fq, points: PointSet, witness) -> bool:
    """Check a coverage certificate against a point set.

    Its kind names in WITNESS_KINDS the type of the entries and the key
    set, which must be exact: all of F_q^* or all of F_q.  Every entry must
    be of that type, made of element ranks in [0, q) with a nonzero radius,
    certify the parameter its key names, and lie inside the set.  Returns
    False on any mismatch, an unknown kind included, instead of raising.
    """
    if witness.kind not in WITNESS_KINDS:
        return False
    spec_type, keys, param = WITNESS_KINDS[witness.kind]
    entries = witness.entries
    if set(entries) != set(keys(field)):
        return False
    for key, spec in entries.items():
        if not (isinstance(spec, spec_type) and is_rank(field, spec.radius) and spec.radius
                and param(spec) == key):
            return False
    return _INSIDE[spec_type](field, points, list(entries.values()))


# ---- exhaustive sphere scans ----

def _complement_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[a, v] = #{x not in the set : ||x - a|| = v}; the sphere S_v(a)
    lies inside the set iff G[a, v] == 0.

    ||x - a|| sums one square per coordinate, so G is built one coordinate
    at a time in exact integers.  acc has one axis per coordinate and a
    last axis for the partial norm; step i turns axis i from the point
    digit x_i into the center digit a_i, adding (x_i - a_i)^2 to the
    partial norm.  About n * q^(n+2) work and q^(n+1) counts of memory,
    whatever the set holds.
    """
    field, n = points.field, points.n
    q = field.q
    space = space_size(field, n)
    estimate = n * q ** (n + 2)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    sq, x = field.sq_arr, np.arange(q)
    add, sub = field.add_arrays(x[:, None], x), field.sub_arrays(x[:, None], x)  # not per loop
    # C-order axes, most significant digit first, as the final reshape reads
    acc = np.zeros((q,) * n + (q,), dtype=np.min_scalar_type(space))
    acc[..., 0] = (~points.mask).reshape((q,) * n)
    squares = np.flatnonzero(np.bincount(sq, minlength=q))
    for axis in range(n):
        nxt = np.zeros_like(acc)
        for t in squares:
            part = sum(acc.take(add[:, y], axis=axis) for y in np.flatnonzero(sq == t))
            nxt += part[..., sub[:, t]] if t else part
        acc = nxt
    return acc.reshape(space, q)


def verify_radius_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the set contains a sphere of every radius in F_q^*.

    With a witness, checks the certificate; otherwise counts the points
    outside every sphere exhaustively (about n * q^(n+2) work)."""
    if points.n < 2:
        raise BadDimensionError("spherical verification needs dimension >= 2")
    if witness is not None:
        return witness.kind == "radius" and witness_valid(points.field, points, witness)
    hits = _complement_hit_counts(points, budget)
    return bool((hits[:, 1:] == 0).any(axis=0).all())


def verify_center_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff for every a1 in F_q the set contains a sphere (of some
    nonzero radius) whose center has first coordinate a1.  Checks a witness
    as the radius verifier does, or else counts exhaustively in the same way."""
    if points.n < 2:
        raise BadDimensionError("spherical verification needs dimension >= 2")
    field = points.field
    if witness is not None:
        return witness.kind == "center-coordinate" and witness_valid(field, points, witness)
    hits = _complement_hit_counts(points, budget)
    ok_center = (hits[:, 1:] == 0).any(axis=1)
    # center rank a = a_1 + q * (the rest), so column a_1 of the reshape
    return bool(ok_center.reshape(-1, field.q).any(axis=0).all())


def verify_intersection_lemma(field: Fq, n: int, *,
                              budget: int = DEFAULT_BUDGET) -> int:
    """Maximum intersection size over all pairs of distinct spheres in
    F_q^n, by one scan per norm class of the center difference.

    S_r(a) and S_s(b) meet in the translate by a of S_r(0) and S_s(b - a),
    and same-center pairs with different radii are disjoint, so the pairs
    centred at 0 and at c != 0 cover every pair.  By Witt's theorem (see
    _norm_class_representatives) |S_r(0) & S_s(c)| depends only on ||c||:
    one count of the joint (||x||, ||x - c||) per norm class, at most q of
    them, about n * q^(n+1) work.  The maximum never exceeds
    q^(n-2) + q^((n-1)//2).
    """
    if n < 2:
        raise BadDimensionError("sphere pairs need dimension >= 2")
    q = field.q
    space = space_size(field, n)
    estimate = n * q ** (n + 1)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    norms = origin_norm_profile(field, n).astype(np.int64)
    best = 0
    for c in _norm_class_representatives(field, n):
        shifted = translate(field, n, np.arange(space), [field.neg(v) for v in c])  # x - c
        counts = np.bincount(norms * q + norms[shifted], minlength=q * q)
        best = max(best, int(counts.reshape(q, q)[1:, 1:].max()))
    return best


def intersection_lemma_bound(q: int, n: int) -> int:
    if n < 2:
        raise BadDimensionError("sphere pairs need dimension >= 2")
    return q ** (n - 2) + q ** ((n - 1) // 2)


# ---- one-dimensional covers ----

def _clean_ranks(field: Fq, elems) -> np.ndarray:
    """The distinct ranks of elems, sorted; ValueError for non-integer or
    out-of-range ranks.  It sorts the ranks given, so a small set in a
    large field costs nothing of order q."""
    idx = np.asarray(elems if isinstance(elems, np.ndarray) else list(elems))
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"ranks must be integers, got dtype {idx.dtype}")
    if idx.size and not (0 <= idx.min() and idx.max() < field.q):
        raise ValueError("element rank out of range")
    ks = np.sort(idx.astype(np.int64).ravel())
    return ks[np.concatenate(([True], ks[1:] != ks[:-1]))] if ks.size else ks


def diff_cover(field: Fq, elems) -> bool:
    """True iff K - K = F_q."""
    k = _clean_ranks(field, elems)
    if k.size * (k.size - 1) + 1 < field.q:  # too few differences
        return False
    diffs = field.sub_arrays(k[:, None], k[None, :])
    return bool(np.bincount(diffs.ravel(), minlength=field.q).all())


def sum_cover(field: Fq, elems) -> bool:
    """True iff K (+) K = F_q, sums of two distinct elements only."""
    k = _clean_ranks(field, elems)
    if k.size * (k.size - 1) < 2 * field.q:  # too few pairs
        return False
    sums = field.add_arrays(k[:, None], k[None, :])
    return bool(np.bincount(sums[~np.eye(k.size, dtype=bool)], minlength=field.q).all())
