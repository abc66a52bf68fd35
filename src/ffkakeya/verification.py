"""Verifiers and exact bounds for spherical and circular Kakeya sets.

A radius-spherical Kakeya set contains a sphere of every nonzero radius; a
center-spherical Kakeya set contains, for every a1 in F_q, a sphere whose
center has first coordinate a1.  The one-dimensional analogues are the
difference cover K - K = F_q and the restricted sum cover K (+) K = F_q
(sums of two distinct elements).

Witness mode checks a certificate (a KakeyaWitness) against the set
through one table of its kinds, WITNESS_KINDS, on int64 columns for every
kind: a row param, the n digit rows of the center (and of the direction,
for hyper-spheres) and a row radius, formed once when a witness is made,
by a construction or from entries.  One row count, one min and max and
one comparison of the params with the keys then hold for every kind, and
one inside test per entry type: two gathers for circles; for spheres, q
lookups per sphere into the level table of a level-built set when every
center lies on the first axis, and geometry's gathers at the mask
otherwise, a block of spheres a gather; for hyper-spheres, one pass over
the null quadric for the cone entries and a gather for the others.
Exhaustive mode needs none: within a work budget it counts exactly the
points outside every candidate sphere, adding a squared coordinate by
whole-row gathers, out[a, r, :] = sum_y X[a + y, r - y^2, :]
(_add_square), with the row index of (y, a, r) built once per field and
cached (_square_rows): once after a product of the level table and the
cached joint norm counts per Witt class (geometry.joint_norm_counts) for
a set built by PointSet.from_levels, in about (q + 1) q^3 steps, and once
per coordinate, in about n * q^(n+2) steps, for any other set.  A verdict
is one least count over the view of the counts that either scan leaves,
per radius r != 0 or per first coordinate of the centre, 0 at each.
The intersection-lemma maximum is read from the joint norm counts of
F_q^n.  The size lower bounds live in exact, which needs no numpy.

The witness record and its codec live here, next to WITNESS_KINDS: each
entry is written field by field from the columns and read back into the
type its kind names, so a process that only verifies a saved set loads no
construction.
"""

from __future__ import annotations

import functools
from dataclasses import FrozenInstanceError
from types import MappingProxyType

import numpy as np

from .errors import BadDimensionError, BudgetExceededError, UsageError
from .exact import DEFAULT_BUDGET
from .field import Fq
from .geometry import (
    CircleSpec,
    HypersphereSpec,
    PointSet,
    SphereSpec,
    _read_only,
    _sphere_block,
    checked_ranks,
    hypersphere_ranks,
    joint_norm_counts,
    json_int,
    json_point,
    origin_norm_profile,
    space_size,
)
from .scalar import valid_ranks

# ---- witness checking ----

def _circles_inside(field: Fq, points: PointSet, centers: np.ndarray, radii: np.ndarray) -> bool:
    """Both points a + r and a - r of every circle lie in the set, in one
    gather each."""
    mask = points.mask
    return bool(mask[field.add_arrays(centers[0], radii)].all()
                and mask[field.sub_arrays(centers[0], radii)].all())


def _spheres_inside(field: Fq, points: PointSet, centers: np.ndarray, radii: np.ndarray) -> bool:
    """Both spherical constructions certify with spheres centred at
    (a_0, 0, ..., 0), which are unions of whole levels of the fibres:

        S_r(a_0, 0, ..., 0) = {(a_0 + y_0, t) : y_0 in F_q, ||t|| = r - y_0^2},

    so such a sphere lies inside a level-built set iff H[r - y_0^2, a_0 + y_0]
    holds for every y_0, with H = points.level_table().  A witness of such
    spheres alone (centers, its n digit rows, are 0 past the first) is
    checked by q lookups per sphere into the one q x q table, in blocks of
    at most 2^18 lookups up to the first that fails.  Any other witness,
    and every witness of a set given by its mask, is gathered at the mask,
    a block of spheres of about 2^18 points a gather (geometry._sphere_block)."""
    table = points.level_table()
    if table is not None and not centers[1:].any():
        a0, r, y0 = centers[0][:, None], radii[:, None], np.arange(field.q)
        step = max(1, (1 << 18) // field.q)
        return all(table[field.sub_arrays(r[i:i + step], field.sq_arr),
                         field.add_arrays(a0[i:i + step], y0)].all()
                   for i in range(0, radii.size, step))
    block = max(1, (1 << 18) // field.q ** (points.n - 1))
    return all(points.mask[_sphere_block(field, centers[:, i:i + block].T,
                                         radii[i:i + block])].all()
               for i in range(0, radii.size, block))


def _hyperspheres_inside(field: Fq, points: PointSet, digits: np.ndarray,
                         radii: np.ndarray) -> bool:
    """The hyper-sphere union certifies with cone entries: center a equal
    to the direction and radius -||a|| != 0.  Such an H_a lies in the null
    quadric less the origin, N* = {x != 0 : ||x|| = 0} (the proof is in
    constructions.hypersphere_union), so when the set holds all of N*,
    which one pass over the origin norm profile tells, every cone entry
    lies inside it.  digits holds the n center digit rows, then the n
    direction rows; the cone entries are told by the norms of the center
    ranks, read in that profile.  Other entries, and cone entries when that
    pass fails (N* inside the set is sufficient, not necessary), are
    gathered."""
    n, mask = points.n, points.mask
    norms = origin_norm_profile(field, n)
    centers = digits[:n]
    cone = ((centers == digits[n:]).all(axis=0)
            & (radii == field.neg_arr[norms[field.q ** np.arange(n) @ centers]]))
    if cone.any() and (mask[1:] | (norms[1:] != 0)).all():
        if cone.all():
            return True
        digits, radii = digits[:, ~cone], radii[~cone]
    return all(mask[hypersphere_ranks(field, HypersphereSpec._make((h[:n], h[n:], r)))].all()
               for h, r in zip(map(tuple, digits.T.tolist()), radii.tolist()))


# kind -> (entry type, key set, the row of its columns that a param certifies)
WITNESS_KINDS = {
    "radius": (SphereSpec, Fq.units, -1),
    "center-coordinate": (SphereSpec, Fq.elements, 1),
    "hypersphere": (HypersphereSpec, Fq.units, -1),
    "circular-radius": (CircleSpec, Fq.units, -1),
    "circular-center": (CircleSpec, Fq.elements, 1),
}
# entry type -> whether its objects, given by the digit rows of their
# points and their radii, lie in the set
_INSIDE = {SphereSpec: _spheres_inside, HypersphereSpec: _hyperspheres_inside,
           CircleSpec: _circles_inside}


def witness_valid(field: Fq, points: PointSet, witness) -> bool:
    """Check a coverage certificate against a point set.

    Its kind names in WITNESS_KINDS the type of the entries and the key
    set, which must be exact: all of F_q^* or all of F_q.  Every entry must
    be of that type, made of element ranks in [0, q) with a nonzero radius,
    certify the parameter its key names, and lie inside the set.  Every
    witness is checked on its int64 columns alone, None failing: one row
    count per type (n + 2, or 2n + 2 for hyper-spheres), n = 1 for circles
    and n >= 2 otherwise, then one min, max and comparison over all of
    them and one inside test per type.  Returns False on any mismatch, an
    unknown kind included, instead of raising.
    """
    columns = witness.columns
    if witness.kind not in WITNESS_KINDS or columns is None:
        return False
    spec_type, keys, row = WITNESS_KINDS[witness.kind]
    q, n, keys = field.q, points.n, keys(field)
    param, radii = columns[0], columns[-1]
    if not (columns.shape == ((len(spec_type._fields) - 1) * n + 2, len(keys))
            and (n == 1) == (spec_type is CircleSpec) and columns.min() >= 0
            and columns.max() < q and radii.min() > 0 and (param == columns[row]).all()):
        return False
    seen = np.zeros(q, dtype=bool)
    seen[param] = True
    return bool(seen[keys.start:].all()) and _INSIDE[spec_type](field, points, columns[1:-1], radii)


# ---- saved witnesses ----

def _entry_columns(kind: str, entries) -> np.ndarray | None:
    """The columns of a witness given by entries, in the layout of a
    constructed one: the keys, then each field of the kind's entry type in
    order, a point as its digit rows and a rank as one row, sorted by key.
    None for an unknown kind, and unless every entry is of that type (one
    issubclass test per distinct type), every point a tuple or list, all of
    one length, and every key and rank an int64 integer (valid_ranks);
    witness_valid checks the ranks against q and the length against n."""
    specs, spec_type = list(entries.values()), WITNESS_KINDS.get(kind, (None,))[0]
    if not (specs and spec_type and all(issubclass(t, spec_type) for t in set(map(type, specs)))):
        return None
    rows, types, lengths = [list(entries)], spec_type.__base__.__annotations__, set()
    for name, values in zip(spec_type._fields, zip(*specs)):
        if types[name] is not tuple:
            rows.append(values)
        elif all(issubclass(t, (tuple, list)) for t in set(map(type, values))):
            lengths.update(map(len, values))
            rows += zip(*values)
        else:
            return None
    if len(lengths) > 1 or not all(valid_ranks(r, 1 << 63, -1 << 63) for r in rows):
        return None
    columns = np.array(rows, dtype=np.int64)
    return _read_only(columns[:, np.argsort(columns[0], kind="stable")])


class KakeyaWitness:
    """Coverage certificate: one certified object per parameter value.

    kind is a key of WITNESS_KINDS, which names the type of the entries;
    entries map the parameter (a radius or a center coordinate) to the
    covering object.  Every witness is checked and written from its
    columns: a read-only int64 array, sorted by param, of the rows param,
    the n digits of the center, the n digits of the direction
    (hyper-spheres only) and radius, so (n + 2, m) for spheres and circles
    (n = 1) and (2n + 2, m) for hyper-spheres, built by a construction or
    formed from the entries given (_entry_columns).  Entries that form none
    are kept as a read-only copy; otherwise entries, a read-only mapping,
    are formed from the columns on first read.  Immutable, and equal to any
    witness of the same kind and entries: of the same columns, if both have."""

    __slots__ = ("kind", "_entries", "columns")

    def __init__(self, kind: str, entries) -> None:
        columns = _entry_columns(kind, entries)
        self._bind(kind, None if columns is not None else MappingProxyType(dict(entries)), columns)

    @classmethod
    def _adopt(cls, kind: str, columns: np.ndarray) -> "KakeyaWitness":
        """The witness of a fresh int64 column array, taken over without a
        copy and made read-only; no other reference to it may write to it."""
        witness = cls.__new__(cls)
        witness._bind(kind, None, _read_only(columns))
        return witness

    def _bind(self, kind: str, entries, columns) -> None:
        for name, value in (("kind", kind), ("_entries", entries), ("columns", columns)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _column_fields(self, point) -> tuple:
        """The entry type, the params and, per field of the type, its
        values read off the columns: a point as point(its digits)."""
        spec_type = WITNESS_KINDS[self.kind][0]
        param, *rows = self.columns.tolist()
        n = (len(rows) - 1) // (len(spec_type._fields) - 1)  # 1 for a circle
        fields, types = [], spec_type.__base__.__annotations__
        for name in spec_type._fields:
            if types[name] is tuple:
                fields.append(map(point, zip(*rows[:n])))
                rows = rows[n:]
            else:
                fields.append(rows.pop(0))
        return spec_type, param, fields

    @property
    def entries(self):
        if self._entries is None:
            spec_type, param, fields = self._column_fields(tuple)
            object.__setattr__(self, "_entries", MappingProxyType(
                dict(zip(param, map(spec_type._make, zip(*fields))))))
        return self._entries

    def __eq__(self, other):
        if not isinstance(other, KakeyaWitness):
            return NotImplemented
        if self.columns is None or other.columns is None:
            return self.kind == other.kind and self.entries == other.entries
        return self.kind == other.kind and np.array_equal(self.columns, other.columns)

    __hash__ = None

    def __repr__(self) -> str:
        return f"KakeyaWitness(kind={self.kind!r}, entries={self.entries!r})"

    def __reduce__(self):
        if self.columns is None:
            return KakeyaWitness, (self.kind, dict(self._entries))
        return KakeyaWitness._adopt, (self.kind, self.columns.copy())

    def to_json_dict(self) -> dict:
        """The fields of each entry by name, each point as a list of ranks,
        written from the columns; ValueError for a witness with none."""
        if self.columns is None:
            raise ValueError(f"a {self.kind!r} witness with no columns has no JSON form")
        spec_type, param, fields = self._column_fields(list)
        entries = [{} for _ in param]
        for name, values in zip(spec_type._fields, fields):
            for entry, value in zip(entries, values):
                entry[name] = value
        return {"kind": self.kind, "entries": dict(zip(map(str, param), entries))}


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

@functools.lru_cache(maxsize=None)
def _square_rows(field: Fq) -> np.ndarray:
    """rows[y, a * q + r] = (a + y) * q + (r - y^2), the row of an acc of
    shape (q, q, ...) that _add_square adds for y into out[a, r], in the
    least dtype that holds q^2 - 1: q^3 entries, 2q^3 bytes while q < 256,
    never more than the acc of either scan.  Cached per field, read-only."""
    q = field.q
    y = np.arange(q)
    dtype = np.min_scalar_type(q * q - 1)
    shift = field.add_arrays(y[:, None], y).astype(dtype) * dtype.type(q)  # [y, a]: (a + y) q
    drop = field.sub_arrays(y, field.sq_arr[:, None]).astype(dtype)  # [y, r]: r - y^2
    return _read_only(np.add(shift[:, :, None], drop[:, None, :]).reshape(q, q * q))


def _add_square(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[a, r, t] = sum_y acc[a + y, r - y^2, t] for acc of shape
    (q, q, ...), every trailing axis read as one contiguous axis t, and
    rows = _square_rows(field): one squared coordinate added to a partial
    norm r, summed in acc.dtype, which holds q^n (each sum counts points
    of F_q^n).  Each out[a, r] adds q whole rows of acc, one per y, in
    blocks of about 2^16 cells: per y, one gather of the block's rows into
    a buffer and one contiguous add, both in cache.  Returns shape
    (q, q, t)."""
    q = len(rows)
    flat = np.ascontiguousarray(acc).reshape(q * q, -1)
    out = np.empty_like(flat)
    block = max(1, (1 << 16) // flat.shape[1])
    buf = np.empty_like(out[:block])
    for lo in range(0, q * q, block):
        part = out[lo:lo + block]
        take = buf[:len(part)]
        flat.take(rows[0, lo:lo + block], axis=0, out=part, mode="clip")
        for y in range(1, q):
            part += flat.take(rows[y, lo:lo + block], axis=0, out=take, mode="clip")
    return out.reshape(q, q, -1)


def _complement_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[a, v] = #{x not in the set : ||x - a|| = v}; the sphere S_v(a)
    lies inside the set iff G[a, v] == 0.

    ||x - a|| sums one square per coordinate, so G is built one coordinate
    at a time in exact integers, from the mask's most significant digit:
    acc leads with the coordinate to turn next and the partial norm r, the
    others one trailing axis, and each step copies it contiguous, freeing
    the last step's counts, then turns point digits x_i into centre digits
    a_i by _add_square.  G is the last step's view (a_(n-1), r, a_(n-2) ..
    a_1, a_0) for centre rank sum a_i q^i, the first coordinate last, and
    transpose(0, 2, 3, 1) in rank order.  About n * q^(n+2) work and two
    arrays of q^(n+1) counts, whatever the set holds."""
    field, n, q = points.field, points.n, points.field.q
    estimate = n * q ** (n + 2)
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    acc = np.zeros((q, q, q ** (n - 1)), dtype=np.min_scalar_type(space_size(field, n)))
    acc[:, 0] = (~points.mask).reshape(q, -1)
    rows = _square_rows(field)
    for _ in range(n):  # (a_i, r, x_(i-1), rest) -> (x_(i-1), r, rest, a_i), a view
        acc = np.ascontiguousarray(acc)
        acc = _add_square(acc, rows).reshape(q, q, q, -1).transpose(2, 1, 3, 0)
    return acc


def _level_hit_counts(points: PointSet, budget: int) -> np.ndarray:
    """G[i, a_0, r] = #{x not in the set : ||x - a|| = r} for the centers
    a = (a_0, a') of a level-built set with a' in class i of the
    joint_norm_counts J of F_q^(n-1); G depends on a' only through it.
    The points outside are the levels (a_0 + y, t) with not H[||t||, a_0 + y]
    (H the level table), at norm-distance y^2 + ||t - a'||, so

        G[i, a_0, r] = sum_y M[a_0 + y, r - y^2, i],  M[., ., i] = (not H)^T J[i],

    one _add_square on M, written by the product in (a_0, w, class) order,
    and returned as a view in (class, a_0, r) order: about (q + 1) q^3 work
    whatever n is, and no q^n mask."""
    field, q = points.field, points.field.q
    estimate = (q + 1) * q ** 3
    if estimate > budget:
        raise BudgetExceededError(estimate, budget)
    joint = joint_norm_counts(field, points.n - 1)
    outside = np.empty((q, q, len(joint)), dtype=np.int64)  # M in (a_0, w, class) order
    np.matmul((~points.level_table()).T.astype(np.int64), joint, out=outside.transpose(2, 0, 1))
    return _add_square(outside, _square_rows(field)).transpose(2, 0, 1)


def _verify_spherical(points: PointSet, witness, kind: str, axes: tuple, budget: int) -> bool:
    """The body of both verifiers: the witness of this kind, or else the
    scan's view of G, (a', r, a'', a_0) or (class, r, 1, a_0).  S_r(a) lies
    in the set iff G[a, r] == 0, so it passes iff the least count of
    G[:, 1:] over axes is 0 at each r, or at each first coordinate a_0."""
    if points.n < 2:
        raise BadDimensionError("spherical verification needs dimension >= 2")
    if witness is not None:
        return witness.kind == kind and witness_valid(points.field, points, witness)
    hits = (_complement_hit_counts(points, budget) if not points.level_built
            else _level_hit_counts(points, budget).transpose(0, 2, 1)[:, :, None])
    return not hits[:, 1:].min(axis=axes).any()


def verify_radius_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the set contains a sphere of every radius in F_q^*.

    With a witness, checks the certificate; otherwise counts the points
    outside every sphere exhaustively (_verify_spherical)."""
    return _verify_spherical(points, witness, "radius", (0, 2, 3), budget)


def verify_center_kakeya(points: PointSet, witness=None, *,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True iff for every a1 in F_q the set contains a sphere (of some
    nonzero radius) whose center has first coordinate a1.  Checks a witness
    as the radius verifier does, or else counts exhaustively in the same way."""
    return _verify_spherical(points, witness, "center-coordinate", (0, 1, 2), budget)


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
    small set in a large field costs nothing of order q.  Not np.unique,
    which imports numpy.ma on its first call."""
    ks = np.sort(checked_ranks(elems, field.q, "element rank").ravel())
    return ks[np.diff(ks, prepend=-1) != 0]


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
