"""Verifiers and exact bounds for spherical and circular Kakeya sets.

A radius-spherical Kakeya set contains a sphere of every nonzero radius; a
center-spherical Kakeya set contains, for every a1 in F_q, a sphere whose
center has first coordinate a1.  The one-dimensional analogues are the
difference cover K - K = F_q and the restricted sum cover K (+) K = F_q
(sums of two distinct elements).

Witness mode checks a certificate (a KakeyaWitness) against the set
through one table of its kinds, WITNESS_KINDS, in a fixed number of
C-level passes over its entries (map, set, min, max, compress), with no
Python call per entry or per coordinate: geometry's batch validators (one
issubclass test per distinct type, one min and one max over all ranks),
one map for the keys and one for the on-axis spheres.  numpy arrays carry
only the lookups into the level table of a level-built set and geometry's
gathers at a mask, a block of spheres a gather; small witnesses, checked
once each, spend their time in these passes more than in the arithmetic.
Exhaustive mode needs none: within a work budget it counts exactly the
points outside every candidate sphere, adding a squared coordinate by one
gather, out[a, r] = sum_y X[a + y, r - y^2] (_add_square): once after a
product of the level table and the joint norm counts per Witt class
(geometry.joint_norm_counts) for a set built by PointSet.from_levels, in
about (q + 1) q^3 steps, and once per coordinate, in about n * q^(n+2)
steps, for any other set.  The intersection-lemma maximum is read from
the joint norm counts of F_q^n.  The size lower bounds live in exact,
which needs no numpy.

The witness record and its codec live here, next to WITNESS_KINDS: each
entry is written field by field and read back into the type its kind
names, so a process that only verifies a saved set loads no construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import and_, attrgetter, eq, itemgetter, not_

import numpy as np

from .errors import BadDimensionError, BudgetExceededError, UsageError
from .exact import DEFAULT_BUDGET
from .field import Fq
from .geometry import (
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    _sphere_block,
    checked_ranks,
    hypersphere_ranks,
    joint_norm_counts,
    json_int,
    json_point,
    origin_norm_profile,
    point_coordinates,
    point_ranks,
    space_size,
)
from .scalar import valid_ranks

# ---- witness checking ----

def _fields(specs: list, name: str) -> list:
    """Field name of every entry, by one map."""
    return list(map(attrgetter(name), specs))


def _spheres_inside(field: Fq, points: PointSet, spheres: list, radii: list) -> bool:
    """Both spherical constructions certify with spheres centred at
    (a_0, 0, ..., 0), which are unions of whole levels of the fibres:

        S_r(a_0, 0, ..., 0) = {(a_0 + y_0, t) : y_0 in F_q, ||t|| = r - y_0^2},

    so such a sphere lies inside a level-built set iff H[r - y_0^2, a_0 + y_0]
    holds for every y_0, with H = points.level_table().  They are checked
    by q lookups each into the one q x q table, in blocks of at most 2^18
    lookups up to the first that fails.  Every other sphere, and every
    sphere of a set given by its mask, is gathered at the mask, a block of
    spheres of about 2^18 points a gather (geometry._sphere_block)."""
    centers = _fields(spheres, "center")
    if point_coordinates(field, points.n, centers) is None:
        return False
    table = points.level_table()
    if table is not None:
        on_axis = list(map(not_, map(any, map(itemgetter(slice(1, None)), centers))))
        a0, r = np.array([list(compress(map(itemgetter(0), centers), on_axis)),
                          list(compress(radii, on_axis))], dtype=np.int64)[:, :, None]
        step, y0 = max(1, (1 << 18) // field.q), np.arange(field.q)
        for i in range(0, len(a0), step):
            flat = (field.sub_arrays(r[i:i + step], field.sq_arr) * field.q
                    + field.add_arrays(a0[i:i + step], y0))
            if not table.ravel()[flat].all():
                return False
        centers = list(compress(centers, map(not_, on_axis)))
        radii = list(compress(radii, map(not_, on_axis)))
    if not centers:
        return True
    centers = np.array(list(chain.from_iterable(centers)), dtype=np.int64).reshape(-1, points.n)
    radii = np.array(radii, dtype=np.int64)
    block = max(1, (1 << 18) // field.q ** (points.n - 1))
    return all(points.mask[_sphere_block(field, centers[i:i + block], radii[i:i + block])].all()
               for i in range(0, len(centers), block))


def _hyperspheres_inside(field: Fq, points: PointSet, hyperspheres: list,
                         radii: list) -> bool:
    """The hyper-sphere union certifies with cone entries: center a equal
    to the direction and radius -||a|| != 0.  Such an H_a lies in the null
    quadric less the origin, N* = {x != 0 : ||x|| = 0} (the proof is in
    constructions.hypersphere_union), so when the set holds all of N*,
    which one pass over the origin norm profile tells, every cone entry
    lies inside it.  The cone entries are told by the point ranks of all
    centers (point_ranks) read in that profile.  Other entries, and cone
    entries when that pass fails (N* inside the set is sufficient, not
    necessary), are gathered."""
    n = points.n
    centers, directions = _fields(hyperspheres, "center"), _fields(hyperspheres, "direction")
    flat = point_coordinates(field, n, centers + directions)
    if flat is None:
        return False
    mask, norms = points.mask, origin_norm_profile(field, n)
    ranks = point_ranks(field, n, flat[:n * len(centers)])
    negs = map(field.neg_arr.item, map(norms.item, ranks))
    cone = list(map(and_, map(eq, centers, directions), map(eq, radii, negs)))
    if any(cone) and (mask[1:] | (norms[1:] != 0)).all():
        hyperspheres = list(compress(hyperspheres, map(not_, cone)))
    return all(mask[hypersphere_ranks(field, h)].all() for h in hyperspheres)


def _circles_inside(field: Fq, points: PointSet, circles: list, radii: list) -> bool:
    """Both points a + r and a - r of every circle, in one gather each."""
    centers = _fields(circles, "center")
    if points.n != 1 or not valid_ranks(centers, field.q):
        return False
    a, r = np.array([centers, radii], dtype=np.int64)
    return bool(points.mask[field.add_arrays(a, r)].all()
                and points.mask[field.sub_arrays(a, r)].all())


# kind -> (entry type, key set, the parameters that the keys of a list of
# entries name, in its order)
WITNESS_KINDS = {
    "radius": (SphereSpec, Fq.units, lambda specs: _fields(specs, "radius")),
    "center-coordinate": (SphereSpec, Fq.elements,
                          lambda specs: list(map(itemgetter(0), _fields(specs, "center")))),
    "hypersphere": (HypersphereSpec, Fq.units, lambda specs: _fields(specs, "radius")),
    "circular-radius": (CircleSpec, Fq.units, lambda specs: _fields(specs, "radius")),
    "circular-center": (CircleSpec, Fq.elements, lambda specs: _fields(specs, "center")),
}
# entry type -> whether its entries, given with their radii, lie in F_q^n
# (circles in F_q) and in the set
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
    spec_type, keys, params = WITNESS_KINDS[witness.kind]
    entries = witness.entries
    specs = list(entries.values())
    if not (entries.keys() == set(keys(field))
            and all(issubclass(t, spec_type) for t in set(map(type, specs)))):
        return False
    radii = _fields(specs, "radius")
    if not (valid_ranks(radii, field.q, low=1) and params(specs) == list(entries)):
        return False
    return _INSIDE[spec_type](field, points, specs, radii)


# ---- saved witnesses ----

@dataclass(frozen=True)
class KakeyaWitness:
    """Coverage certificate: one certified object per parameter value.

    kind is a key of WITNESS_KINDS, which names the type of the entries;
    entries map the parameter (a radius or a center coordinate) to the
    covering object."""

    kind: str
    entries: dict

    def to_json_dict(self) -> dict:
        """The fields of each entry by name, each point as a list of ranks."""
        return {"kind": self.kind, "entries": {
            str(k): {name: list(v) if isinstance(v, tuple) else v
                     for name, v in spec._asdict().items()}
            for k, spec in sorted(self.entries.items())}}


def _spec_from_dict(data, where: str, spec_type: type, field: Fq | None,
                    n: int | None):
    """The entry of spec_type stored in data, which must hold the type's
    fields and no other key: a list of n ranks for each field the type
    holds as a tuple (a point), one rank for each other field, as the
    annotations of its named-tuple base give them."""
    types = spec_type.__base__.__annotations__
    extra = [key for key in data if key not in types] if isinstance(data, dict) else []
    if extra:
        raise UsageError(f"{where} has {extra[0]!r}, which a {spec_type.__name__} has not")
    return spec_type(**{
        name: (json_point(data, name, where, field, n) if types[name] is tuple
               else json_int(data, name, where, field))
        for name in spec_type._fields})


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
        if field is not None and not 0 <= param < field.q:
            raise UsageError(f"{where}: key rank outside [0, {field.q})")
        entries[param] = _spec_from_dict(value, where, spec_type, field, n)
    return KakeyaWitness(kind, entries)


# ---- exhaustive sphere scans ----

def _add_square(field: Fq, acc: np.ndarray) -> np.ndarray:
    """out[b, a, r] = sum_y acc[b, a + y, r - y^2] for acc of shape (B, q, q):
    one squared coordinate added to a partial norm r, summed in acc.dtype,
    which holds q^n (each sum counts points of F_q^n).  Each gather of
    about 2^20 entries indexes a block of centres a and a block of rows b
    and is written into one preallocated output."""
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


def _complement_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[a, v] = #{x not in the set : ||x - a|| = v}; the sphere S_v(a)
    lies inside the set iff G[a, v] == 0.

    ||x - a|| sums one square per coordinate, so G is built one coordinate
    at a time in exact integers.  acc has one axis per coordinate and a
    last axis for the partial norm; each step turns the coordinate axis
    next to it from point digits x_i into center digits a_i by _add_square
    and moves it to the front.  About n * q^(n+2) work and q^(n+1) counts
    of memory, whatever the set holds."""
    field, n, q = points.field, points.n, points.field.q
    space = space_size(field, n)
    estimate = n * q ** (n + 2)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    # C-order axes, most significant digit first, as the final reshape reads
    acc = np.zeros((q,) * n + (q,), dtype=np.min_scalar_type(space))
    acc[..., 0] = (~points.mask).reshape((q,) * n)
    for _ in range(n):  # after n steps the axes are back in order
        acc = np.moveaxis(_add_square(field, acc.reshape(-1, q, q)).reshape(acc.shape), -2, 0)
    return acc.reshape(space, q)


def _level_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[i, a_0, r] = #{x not in the set : ||x - a|| = r} for the centers
    a = (a_0, a') of a level-built set with a' in class i of the
    joint_norm_counts J of F_q^(n-1); G depends on a' only through it.
    The points outside are the levels (a_0 + y, t) with not H[||t||, a_0 + y]
    (H the level table), at norm-distance y^2 + ||t - a'||, so

        G[i, a_0, r] = sum_y M[i, a_0 + y, r - y^2],  M[i] = (not H)^T J[i],

    one _add_square: about (q + 1) q^3 work whatever n is, and no q^n mask."""
    field, q = points.field, points.field.q
    estimate = (q + 1) * q ** 3
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    joint = joint_norm_counts(field, points.n - 1)
    return _add_square(field, np.matmul((~points.level_table()).T.astype(np.int64), joint))


def _verify_spherical(points: PointSet, witness, kind: str, axis: tuple, budget: int) -> bool:
    """The body of both verifiers: the witness of this kind, or else the
    scan.  found[g, a_0, r - 1]: some S_r(a), a = (a_0, a'), lies inside the
    set for an a' in group g, a nonempty class of a' (_level_hit_counts) for
    a level-built set, else one a' (center rank a_0 + q * rank(a'))."""
    if points.n < 2:
        raise BadDimensionError("spherical verification needs dimension >= 2")
    if witness is not None:
        return witness.kind == kind and witness_valid(points.field, points, witness)
    q = points.field.q
    hits = (_level_hit_counts(points, budget) if points.level_built
            else _complement_hit_counts(points, budget).reshape(-1, q, q))
    found = hits[..., 1:] == 0
    return bool(found.any(axis=axis).all())


def verify_radius_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the set contains a sphere of every radius in F_q^*.

    With a witness, checks the certificate; otherwise counts the points
    outside every sphere exhaustively (_verify_spherical)."""
    return _verify_spherical(points, witness, "radius", (0, 1), budget)


def verify_center_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff for every a1 in F_q the set contains a sphere (of some
    nonzero radius) whose center has first coordinate a1.  Checks a witness
    as the radius verifier does, or else counts exhaustively in the same way."""
    return _verify_spherical(points, witness, "center-coordinate", (0, 2), budget)


def verify_intersection_lemma(field: Fq, n: int, *,
                              budget: int = DEFAULT_BUDGET) -> int:
    """Maximum intersection size over all pairs of distinct spheres in
    F_q^n: |S_r(a) & S_s(b)| = J_(b-a)(r, s) of joint_norm_counts, and
    same-center pairs are disjoint, so it is the maximum of J over the
    classes c != 0 and r, s != 0, in about (q + 1) q^2 steps.  It never
    exceeds q^(n-2) + q^((n-1)//2).  Observed, not proved: it equals that
    bound for q = 5, 7, 9, 11, 13 and n = 2..12 wherever q^n <= 2^40, and
    for q = 3 at every such n but 4, 8 and 12, where it falls short by
    3^(n/2 - 1)."""
    if n < 2:
        raise BadDimensionError("sphere pairs need dimension >= 2")
    q = field.q
    space_size(field, n)
    estimate = (q + 1) * q ** 2
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    return int(joint_norm_counts(field, n)[1:, 1:, 1:].max())


def intersection_lemma_bound(q: int, n: int) -> int:
    if n < 2:
        raise BadDimensionError("sphere pairs need dimension >= 2")
    return q ** (n - 2) + q ** ((n - 1) // 2)


# ---- one-dimensional covers ----

def _clean_ranks(field: Fq, elems) -> np.ndarray:
    """The distinct ranks of elems, sorted; ValueError for non-integer or
    out-of-range ranks (checked_ranks).  It sorts the ranks given, so a
    small set in a large field costs nothing of order q."""
    ks = np.sort(checked_ranks(elems, field.q, "element rank").ravel())
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
