"""Points, spheres and exact solution counting over F_q^n.

A point of F_q^n is a tuple of n element ranks.  The rank of a point is

    rank(x) = sum_i rank(x_i) * q**i

(the first coordinate is the least significant digit), a bijection between
[0, q^n) and F_q^n that every dense point set uses as its index.

The norm of a vector is the sum of its squared coordinates, with no square
root anywhere.  A sphere of radius r in F_q^* around a center a is the
solution set of ||x - a|| = r; a hyper-sphere additionally restricts x to
the affine hyperplane through a orthogonal to a direction d.

Every object here is a level set of the norm form, and its one source is
origin_norm_profile: the norm of every point of F_q^n, cached per (q, n)
and built from the (n-1)-dim profile by one q x q table of y^2 + v.

The norm form is translation-covariant and a sum over coordinates, so a
sphere splits into fibres over its first coordinate (see sphere_ranks):
one cached level order of the (n-1)-dim origin norm profile, 4 bytes per
point of F_q^(n-1), gives every sphere in O(q + |sphere|) steps with no
scan of F_q^n.  Hyper-spheres are translates of level sets of S_r(0).

A sphere centred at (a_0, 0, ..., 0), the only kind both spherical
constructions use, is a union of whole fibre levels {(x_0, t) : ||t|| = v}.
So one q x q table per point set, its level_table, says which levels lie
inside it, and each such sphere is checked by q lookups into it.  The sets
of both constructions are unions of whole levels too, built from that
table alone by PointSet.from_levels.

Diagonal quadrics a_1 x_1^2 + ... + a_n x_n^2 = b are counted two ways:
by the classical closed form, and directly, for every b at once, by a
recurrence over partial sums that adds one coordinate at a time from the
number of square roots of each element, in O(n q^2) steps with no
enumeration of F_q^n (diagonal_counts_by_rhs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    IdenticalSpheresError,
    SizeCapError,
    UsageError,
    ZeroCoefficientError,
    ZeroDirectionError,
    ZeroRadiusError,
)
from .field import Fq, make_field

POINT_CAP = 1 << 40  # largest supported q^n


def space_size(field: Fq, n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise BadDimensionError(f"dimension must be a positive integer, got {n}")
    # q >= 3, so n > 40 is past the cap: reject it before forming q^n
    if n > 40 or field.q ** n > POINT_CAP:
        raise SizeCapError(f"q^n = {field.q}^{n} exceeds the point cap 2^40")
    return field.q ** n


def point_rank(field: Fq, vec) -> int:
    rank = 0
    for i, v in enumerate(vec):
        if not 0 <= v < field.q:
            raise ValueError(f"coordinate rank {v} outside [0, {field.q})")
        rank += v * field.q ** i
    return rank


def point_unrank(field: Fq, n: int, rank: int) -> tuple[int, ...]:
    q = field.q
    if not 0 <= rank < q ** n:
        raise ValueError(f"point rank {rank} outside [0, {q}^{n})")
    return tuple((rank // q ** i) % q for i in range(n))


# ---- geometric object descriptors ----

@dataclass(frozen=True)
class SphereSpec:
    """||x - center|| = radius, with radius in F_q^* and dimension >= 2."""

    center: tuple[int, ...]
    radius: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if len(self.center) < 2:
            raise BadDimensionError("spheres need dimension >= 2")
        if self.radius == 0:
            raise ZeroRadiusError("sphere radius must be nonzero")


@dataclass(frozen=True)
class HypersphereSpec:
    """||x - center|| = radius and direction . (x - center) = 0."""

    center: tuple[int, ...]
    direction: tuple[int, ...]
    radius: int

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "direction", tuple(self.direction))
        if len(self.center) < 2:
            raise BadDimensionError("hyper-spheres need dimension >= 2")
        if len(self.direction) != len(self.center):
            raise ValueError("center and direction length mismatch")
        if not any(self.direction):
            raise ZeroDirectionError("direction must be nonzero")
        if self.radius == 0:
            raise ZeroRadiusError("hyper-sphere radius must be nonzero")


@dataclass(frozen=True)
class CircleSpec:
    """One-dimensional circle (x - center)^2 = radius^2, the point pair
    {center + radius, center - radius}."""

    center: int
    radius: int

    def __post_init__(self):
        if self.radius == 0:
            raise ZeroRadiusError("circle radius must be nonzero")


@dataclass(frozen=True)
class DiagonalEq:
    """a_1 x_1^2 + ... + a_n x_n^2 = rhs with every a_i nonzero."""

    coeffs: tuple[int, ...]
    rhs: int

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise BadDimensionError("at least one coefficient required")
        if any(c == 0 for c in self.coeffs):
            raise ZeroCoefficientError("diagonal coefficients must be nonzero")


# ---- dense point sets ----

class PointSet:
    """Membership set over the ranked points of F_q^n, immutable after
    construction.  A set from from_levels keeps a q x q level table and
    its size, and forms its q^n mask only when something reads it, once;
    union, intersection and equality are exact operations on the masks.
    """

    __slots__ = ("field", "n", "_mask", "_table", "_size")

    def __init__(self, field: Fq, n: int, mask):
        self._bind(field, n, np.array(mask, dtype=bool, copy=True))

    @classmethod
    def _adopt(cls, field: Fq, n: int, mask, table=None, size=None) -> "PointSet":
        """The set of a fresh bool mask, or of a level table and its size,
        taken over without a copy and made read-only; no other reference to
        them may write to them."""
        points = cls.__new__(cls)
        points._bind(field, n, mask, table, size)
        return points

    def _bind(self, field: Fq, n: int, mask, table=None, size=None) -> None:
        if mask is not None and mask.shape != (space_size(field, n),):
            raise ValueError(f"mask must have shape ({field.q ** n},)")
        self.field, self.n, self._size = field, n, size
        self._mask, self._table = (a if a is None else _read_only(a) for a in (mask, table))

    @classmethod
    def from_levels(cls, field: Fq, n: int, table) -> "PointSet":
        """The union of the fibre levels {(x_0, t) : ||t|| = v} of F_q^n with
        table[v, x_0] true, of size sum_v L_v #{x_0 : table[v, x_0]} with L_v
        the level sizes of level_order(n - 1); empty levels are stored True."""
        space_size(field, n)
        table = np.array(table, dtype=bool, copy=True)
        if table.shape != (field.q, field.q):
            raise ValueError(f"level table must have shape ({field.q}, {field.q})")
        level_sizes = np.diff(level_order(field, n - 1)[1])
        table[level_sizes == 0] = True
        size = sum(s * c for s, c in zip(level_sizes.tolist(), table.sum(axis=1).tolist()))
        return cls._adopt(field, n, None, table, size)

    @classmethod
    def empty(cls, field: Fq, n: int) -> "PointSet":
        return cls._adopt(field, n, np.zeros(space_size(field, n), dtype=bool))

    @classmethod
    def full(cls, field: Fq, n: int) -> "PointSet":
        return cls._adopt(field, n, np.ones(space_size(field, n), dtype=bool))

    @classmethod
    def from_ranks(cls, field: Fq, n: int, ranks) -> "PointSet":
        size = space_size(field, n)
        mask = np.zeros(size, dtype=bool)
        idx = np.asarray(ranks if isinstance(ranks, np.ndarray) else list(ranks))
        if idx.size:
            if idx.dtype.kind not in "iu":
                raise ValueError(f"ranks must be integers, got dtype {idx.dtype}")
            if idx.min() < 0 or idx.max() >= size:
                raise ValueError("rank out of range")
            mask[idx] = True
        return cls._adopt(field, n, mask)

    @property
    def mask(self) -> np.ndarray:
        """The read-only bool rank mask; row t of mask.reshape(-1, q) is
        row ||t|| of the level table, for a set built from one."""
        if self._mask is None:
            self._mask = _read_only(
                self._table[origin_norm_profile(self.field, self.n - 1)].ravel())
        return self._mask

    def level_table(self) -> np.ndarray:
        """The read-only fibre_level_table of the set: stored for a
        level-built set, computed from the mask once otherwise."""
        if self._table is None:
            self._table = _read_only(fibre_level_table(self.field, self.n, self._mask))
        return self._table

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = int(np.count_nonzero(self._mask))
        return self._size

    def __len__(self) -> int:
        return self.size

    def ranks(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, point) -> bool:
        if not is_point(self.field, self.n, point):
            raise ValueError(f"{point!r} is not a point of F_{self.field.q}^{self.n}")
        return bool(self.mask[point_rank(self.field, point)])

    def _check_same_space(self, other: "PointSet") -> None:
        if self.field != other.field or self.n != other.n:
            raise ValueError("point sets live in different spaces")

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet._adopt(self.field, self.n, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet._adopt(self.field, self.n, self.mask & other.mask)

    def complement(self) -> "PointSet":
        return PointSet._adopt(self.field, self.n, ~self.mask)

    def issubset(self, other: "PointSet") -> bool:
        self._check_same_space(other)
        return bool(np.all(~self.mask | other.mask))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and bool(np.array_equal(self.mask, other.mask)))

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, n={self.n}, size={self.size})"

    def to_json_dict(self) -> dict:
        return {
            "q": self.field.q,
            "p": self.field.p,
            "k": self.field.k,
            "n": self.n,
            "ranks": [int(r) for r in self.ranks()],
        }

    @classmethod
    def from_json_dict(cls, data, where: str = "point set") -> "PointSet":
        """The set to_json_dict wrote: integers p and n, k (1 if absent), q
        (if present, equal to p^k) and a list of integer ranks, or else a
        UsageError that names what is wrong, after where."""
        ranks = _json_value(data, "ranks", where)
        field = make_field(json_int(data, "p", where),
                           json_int(data, "k", where) if "k" in data else 1)
        if "q" in data and json_int(data, "q", where) != field.q:
            raise UsageError("q in file does not match p^k")
        n = json_int(data, "n", where)
        if not (isinstance(ranks, list)
                and all(isinstance(r, int) and not isinstance(r, bool) for r in ranks)):
            raise UsageError(f"{where}: ranks must be integers")
        return cls.from_ranks(field, n, ranks)


# ---- diagonal equation counting ----

def _check_equation(field: Fq, eq: DiagonalEq) -> None:
    if not all(is_rank(field, v) for v in eq.coeffs + (eq.rhs,)):
        raise ValueError(f"equation ranks must lie in [0, {field.q}): {eq}")


def diagonal_counts_by_rhs(field: Fq, coeffs) -> np.ndarray:
    """Solution counts of a_1 x_1^2 + ... + a_n x_n^2 = b for every rhs b
    at once, exact in int64 (q^n <= POINT_CAP), by a recurrence over the
    partial sums, one coordinate at a time:

        N_j[w] = #{(x_1, ..., x_j) : a_1 x_1^2 + ... + a_j x_j^2 = w},
        N_j[w] = sum_v h_j[v] N_(j-1)[w - v],   N_1 = h_1,

    with h_j[v] = #{x : a_j x^2 = v} = 1 + chi(a_j) chi(v): the number of
    square roots of v / a_j, so h_j[0] = 1.  Each step gathers N_(j-1) at
    w - v for the q (q + 1) / 2 pairs with h_j[v] != 0 and takes one
    matrix-vector product, so the work is O(n q^2) steps and O(q^2) bytes,
    never O(q^n).  h_j depends only on the square class of a_j, so at most
    two index matrices are built.

    Only the number of square roots of an element enters, never a
    character sum, so agreement with diagonal_count_closed, whose classical
    formula rests on Gauss sums, remains an independent check of it."""
    eq = DiagonalEq(tuple(coeffs), 0)
    _check_equation(field, eq)
    chi = field.char_arr.astype(np.int64)
    space_size(field, len(eq.coeffs))
    counts = 1 + chi[eq.coeffs[0]] * chi
    gathers = {}  # square class of a_j -> (w - v for each w and v, h_j[v])
    for c in eq.coeffs[1:]:
        if chi[c] not in gathers:
            h = 1 + chi[c] * chi
            v = np.flatnonzero(h)
            gathers[chi[c]] = (field.sub_arrays(np.arange(field.q)[:, None], v), h[v])
        index, weights = gathers[chi[c]]
        counts = counts[index] @ weights
    return counts


def diagonal_count_bruteforce(field: Fq, eq: DiagonalEq) -> int:
    """Exact number of solutions by direct counting: the rhs entry of
    diagonal_counts_by_rhs, which counts the points of F_q^n coordinate by
    coordinate without enumerating them."""
    _check_equation(field, eq)
    return int(diagonal_counts_by_rhs(field, eq.coeffs)[eq.rhs])


def diagonal_count_closed(field: Fq, eq: DiagonalEq) -> int:
    """Exact solution count from the classical closed form for diagonal
    quadrics: q^(n-1) plus a character correction of magnitude q^((n-1)//2)
    for nonzero rhs, and (q-1) * q^(n/2-1) (n even) or zero (n odd) for
    rhs = 0."""
    _check_equation(field, eq)
    q = field.q
    n = len(eq.coeffs)
    delta = 1
    for c in eq.coeffs:
        delta = field.mul(delta, c)
    minus_one = field.neg(1)
    if n % 2 == 0:
        sign = field.pow(minus_one, n // 2)
        eta = field.char(field.mul(sign, delta))
        v = q - 1 if eq.rhs == 0 else -1
        return q ** (n - 1) + v * q ** (n // 2 - 1) * eta
    if eq.rhs == 0:
        return q ** (n - 1)
    sign = field.pow(minus_one, (n - 1) // 2)
    eta = field.char(field.mul(field.mul(sign, eq.rhs), delta))
    return q ** (n - 1) + q ** ((n - 1) // 2) * eta


# ---- spheres and hyper-spheres, from the origin profile and its levels ----

def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def origin_norm_profile(field: Fq, n: int) -> np.ndarray:
    """Rank of ||x|| for every point rank x of F_q^n, in the smallest
    unsigned dtype that holds a rank; F_q^0 is the point 0.  The last
    coordinate y is the most significant digit and ||(t, y)|| = y^2 + ||t||,
    so row y of the profile is the row y^2 + v, for v up to the largest
    norm in F_q^(n-1), gathered at the (n-1)-dim profile in blocks of at
    most 2^16 entries, so the int64 index numpy makes of each block stays
    small.  Built through this cache; cached per (field, n), read-only."""
    dtype = np.min_scalar_type(field.q - 1)
    if n == 0:
        return _read_only(np.zeros(1, dtype=dtype))
    space_size(field, n)
    lower = origin_norm_profile(field, n - 1)
    levels = field.add_arrays(field.sq_arr[:, None], np.arange(int(lower.max()) + 1))
    levels = levels.astype(dtype)
    values = np.empty((field.q, lower.size), dtype=dtype)
    step = max(1, (1 << 16) // field.q)
    for lo in range(0, lower.size, step):
        values[:, lo:lo + step] = levels.take(lower[lo:lo + step], axis=1)
    return _read_only(values.ravel())


def is_rank(field: Fq, v) -> bool:
    """Whether v is an element rank of the field: an integer in [0, q)."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and 0 <= v < field.q)


def json_int(data, key, where: str, field: Fq | None = None) -> int:
    """data[key] as an integer, and an element rank of the field if one is
    given; UsageError naming what is missing or wrong otherwise."""
    return _json_rank(_json_value(data, key, where), f"{where} {key!r}", field)


def json_point(data, key, where: str, field: Fq | None = None,
               n: int | None = None) -> tuple[int, ...]:
    """data[key] as a list of integers, n of them if n is given, each
    checked as json_int checks one."""
    vec = _json_value(data, key, where)
    if not isinstance(vec, list) or (n is not None and len(vec) != n):
        raise UsageError(f"{where} {key!r} must be a list of {n or 'some'} ranks")
    return tuple(_json_rank(v, f"{where} {key!r}", field) for v in vec)


def _json_value(data, key, where: str):
    if not isinstance(data, dict) or key not in data:
        raise UsageError(f"{where} has no {key!r}")
    return data[key]


def _json_rank(value, what: str, field: Fq | None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    if field is not None and not is_rank(field, value):
        raise UsageError(f"{what} rank {value} outside [0, {field.q})")
    return value


def is_point(field: Fq, n: int, vec) -> bool:
    """Whether vec is a point of F_q^n: n element ranks, each in [0, q)."""
    return (isinstance(vec, (tuple, list)) and len(vec) == n
            and all(is_rank(field, v) for v in vec))


@functools.lru_cache(maxsize=None)
def level_order(field: Fq, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, offsets): the point ranks of F_q^m sorted stably by norm, so
    order[offsets[v]:offsets[v + 1]] is the level {t : ||t|| = v}, ascending
    (F_q^0 is the point 0).  Cached per (field, m), read-only, and int32
    below 2^31 points: 4 bytes per point of F_q^m."""
    profile = origin_norm_profile(field, m)
    order = np.argsort(profile, kind="stable")
    order = order.astype(np.int32 if order.size < 2 ** 31 else np.int64)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(profile, minlength=field.q))))
    return _read_only(order), _read_only(offsets)


def _norm_class_representatives(field: Fq, n: int) -> list[tuple[int, ...]]:
    """The least nonzero point of each nonempty norm class of F_q^n, read
    from level_order: at most q points, one per orbit of the orthogonal
    group O of the norm form on the nonzero vectors.

    Witt's extension theorem: in a nondegenerate quadratic space of odd
    characteristic, an isometry between two subspaces extends to one of
    the whole space.  For nonzero u, v with ||u|| = ||v||, a u -> a v is an
    isometry of the line <u> onto <v>, isotropic or not, so some g in O has
    g u = v.  Each g is linear, so it fixes 0 and ||g x - g c|| = ||x - c||:
    it maps S_r(0) & S_s(c) onto S_r(0) & S_s(g c).  So |S_r(0) & S_s(c)|
    depends only on ||c|| for c != 0."""
    order, offsets = level_order(field, n)
    starts = offsets[:-1] + (np.arange(field.q) == 0)  # the origin heads level 0
    return [point_unrank(field, n, int(order[i])) for i in starts[starts < offsets[1:]]]


def _fibres(field: Fq, m: int, radius, heads, scale: int) -> np.ndarray:
    """heads[y] + scale * t for every point (y, t) of F_q x F_q^m with
    y^2 + ||t|| = radius: fibre by fibre in order of y, t ascending within
    a fibre, in O(q + |sphere|) steps and few temporaries."""
    if not (is_rank(field, radius) and radius):
        raise ValueError(f"radius rank {radius!r} outside [1, {field.q})")
    order, offsets = level_order(field, m)
    levels = field.sub_arrays(radius, field.sq_arr)  # fibre y is level r - y^2
    sizes = offsets[levels + 1] - offsets[levels]
    # index into order minus output position, constant within a fibre
    out = np.repeat(offsets[levels] - np.cumsum(sizes) + sizes, sizes)
    out += np.arange(out.size)
    np.multiply(order[out], scale, out=out, dtype=np.int64)  # no int32 overflow
    out += np.repeat(heads, sizes)
    return out


def fibre_level_table(field: Fq, n: int, mask) -> np.ndarray:
    """H[v, x0]: whether every point (x0, t) of F_q x F_q^(n-1) with
    ||t|| = v lies in the set of the boolean rank mask; empty levels read
    True.  Row t of mask.reshape(-1, q) is the line {(x0, t) : x0 in F_q},
    so one gather puts the rows in level order and one reduction per
    nonempty level gives the table, in O(q^n) steps and q^n bytes."""
    q = field.q
    order, offsets = level_order(field, n - 1)
    full = offsets[:-1] < offsets[1:]
    table = np.ones((q, q), dtype=bool)
    # consecutive nonempty starts bound each level: the empty ones between
    # them hold no rows, and reduceat would return a row, not True, for them
    table[full] = np.logical_and.reduceat(mask.reshape(-1, q).take(order, axis=0),
                                          offsets[:-1][full], axis=0)
    return table


def origin_sphere_ranks(field: Fq, n: int, radius: int) -> np.ndarray:
    """Ranks of S_r(0) = {y : ||y|| = r}, ascending, for r in F_q^*: fibred
    over the last coordinate, whose digit is the most significant."""
    return _fibres(field, n - 1, radius, np.arange(field.q) * field.q ** (n - 1), 1)


def translate(field: Fq, n: int, ranks, center) -> np.ndarray:
    """Ranks of center + y for each point rank y, one digit at a time."""
    center = tuple(center)
    if not is_point(field, n, center):
        raise ValueError(f"center {center} is not a point of F_{field.q}^{n}")
    q, x = field.q, np.arange(field.q)
    ranks = np.asarray(ranks, dtype=np.int64)
    out = ranks.copy()
    step = 1
    for c in center:
        if c:  # a zero coordinate leaves its digit as it is
            out += ((field.add_arrays(x, c) - x) * step)[ranks // step % q]
        step *= q
    return out


def sphere_ranks(field: Fq, sphere: SphereSpec) -> np.ndarray:
    """Point ranks of S_r(a), fibred over the first coordinate: with the
    tail a' = (a_1, ..., a_(n-1)) and L_v the levels of level_order(n - 1),

        S_r(a) = {(a_0 + y_0) + q (a' + t) : y_0 in F_q, t in L_(r - y_0^2)},

    in O(q + |S_r(a)|) steps; the tail digits are translated only when
    a' != 0."""
    n, q = len(sphere.center), field.q
    if not is_point(field, n, sphere.center):
        raise ValueError(f"center {sphere.center} is not a point of F_{q}^{n}")
    ranks = _fibres(field, n - 1, sphere.radius,
                    field.add_arrays(sphere.center[0], np.arange(q)), q)
    if any(sphere.center[1:]):
        ranks = translate(field, n, ranks, (0,) + sphere.center[1:])
    return ranks


def hypersphere_ranks(field: Fq, h: HypersphereSpec) -> np.ndarray:
    """Point ranks of a hyper-sphere, as center + {y in S_r(0) : d.y = 0}."""
    n, q = len(h.center), field.q
    if not is_point(field, n, h.direction):
        raise ValueError(f"direction {h.direction} is not a point of F_{q}^{n}")
    y = origin_sphere_ranks(field, n, h.radius)
    rows = field.mul_arrays(np.array(h.direction)[:, None], np.arange(q))  # [i, a]: d_i a
    dots = np.zeros(y.shape, dtype=np.int64)
    step = 1
    for i, d in enumerate(h.direction):
        if d:  # a zero coordinate of d adds nothing to d.y
            dots = field.add_arrays(dots, rows[i][y // step % q])
        step *= q
    return translate(field, n, y[dots == 0], h.center)


def sphere_points(field: Fq, sphere: SphereSpec) -> PointSet:
    return PointSet.from_ranks(field, len(sphere.center), sphere_ranks(field, sphere))


def hypersphere_points(field: Fq, h: HypersphereSpec) -> PointSet:
    return PointSet.from_ranks(field, len(h.center), hypersphere_ranks(field, h))


def sphere_intersection_size(field: Fq, s1: SphereSpec, s2: SphereSpec) -> int:
    """Number of common points of two distinct spheres.

    Two spheres with the same center and different radii are disjoint; any
    two distinct spheres meet in at most q^(n-2) + q^((n-1)//2) points.
    """
    if s1 == s2:
        raise IdenticalSpheresError("spheres are identical")
    if len(s1.center) != len(s2.center):
        raise ValueError("dimension mismatch")
    return int(np.count_nonzero(sphere_points(field, s1).mask[sphere_ranks(field, s2)]))


def sum_two_squares_covers(field: Fq) -> bool:
    """Whether every element of F_q^* is a sum of two squares."""
    sq = field.sq_arr
    mask = np.zeros(field.q, dtype=bool)
    mask[field.add_arrays(sq[:, None], sq[None, :])] = True
    return bool(mask[1:].all())
