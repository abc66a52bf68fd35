"""Points, spheres and exact solution counting over F_q^n.

A point of F_q^n is a tuple of n element ranks.  The rank of a point is

    rank(x) = sum_i rank(x_i) * q**i

(the first coordinate is the least significant digit), a bijection between
[0, q^n) and F_q^n that every dense point set uses as its index.

The norm of a vector is the sum of its squared coordinates, with no square
root anywhere.  A sphere of radius r in F_q^* around a center a is the
solution set of ||x - a|| = r; a hyper-sphere additionally restricts x to
the affine hyperplane through a orthogonal to a direction d.

The norm form is translation-covariant: the sphere S_r(a) is the translate
a + S_r(0).  So one cached origin norm profile per (field, n) gives every
sphere and hyper-sphere by a gather of its level set and a digit-wise
translate of point ranks, with no full enumeration per object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    IdenticalSpheresError,
    SizeCapError,
    ZeroCoefficientError,
    ZeroDirectionError,
    ZeroRadiusError,
)
from .field import Fq, make_field

POINT_CAP = 1 << 40  # largest supported q^n


def space_size(field: Fq, n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise BadDimensionError(f"dimension must be a positive integer, got {n}")
    size = field.q ** n
    if size > POINT_CAP:
        raise SizeCapError(f"q^n = {field.q}^{n} exceeds the point cap 2^40")
    return size


def point_rank(field: Fq, vec) -> int:
    rank = 0
    for i, v in enumerate(vec):
        if not 0 <= v < field.q:
            raise ValueError(f"coordinate rank {v} outside [0, {field.q})")
        rank += v * field.q ** i
    return rank


def point_unrank(field: Fq, n: int, rank: int) -> tuple[int, ...]:
    q = field.q
    return tuple((rank // q ** i) % q for i in range(n))


def norm(field: Fq, vec) -> int:
    """Sum of squared coordinates."""
    acc = 0
    for v in vec:
        acc = field.add(acc, field.mul(v, v))
    return acc


def dot(field: Fq, u, v) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


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
    """Dense membership set over the ranked points of F_q^n.

    Immutable after construction; union and intersection are exact set
    operations on the underlying boolean mask.
    """

    __slots__ = ("field", "n", "mask")

    def __init__(self, field: Fq, n: int, mask):
        size = space_size(field, n)
        arr = np.array(mask, dtype=bool, copy=True)
        if arr.shape != (size,):
            raise ValueError(f"mask must have shape ({size},)")
        arr.setflags(write=False)
        self.field = field
        self.n = n
        self.mask = arr

    @classmethod
    def empty(cls, field: Fq, n: int) -> "PointSet":
        return cls(field, n, np.zeros(space_size(field, n), dtype=bool))

    @classmethod
    def full(cls, field: Fq, n: int) -> "PointSet":
        return cls(field, n, np.ones(space_size(field, n), dtype=bool))

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
        return cls(field, n, mask)

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __len__(self) -> int:
        return self.size

    def ranks(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, point) -> bool:
        return bool(self.mask[point_rank(self.field, point)])

    def _check_same_space(self, other: "PointSet") -> None:
        if self.field != other.field or self.n != other.n:
            raise ValueError("point sets live in different spaces")

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.field, self.n, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.field, self.n, self.mask & other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.field, self.n, ~self.mask)

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
    def from_json_dict(cls, data: dict) -> "PointSet":
        for key in ("p", "k", "q", "n", "ranks"):
            if key not in data:
                raise ValueError(f"point set has no {key!r}")
        field = make_field(int(data["p"]), int(data["k"]))
        if field.q != int(data["q"]):
            raise ValueError("q does not match p^k")
        return cls.from_ranks(field, int(data["n"]), data["ranks"])


# ---- vectorized evaluation over the whole space ----

def sum_profile(field: Fq, term_tables) -> np.ndarray:
    """Field-sum of per-coordinate terms, for every point of F_q^n at once.

    term_tables[i][v] is the rank of the term contributed by coordinate i
    taking the value of rank v.  The result array maps every point rank to
    the rank of the sum of its coordinate terms; it is a full enumeration
    of all q^n points, evaluated one coordinate digit at a time.
    """
    add = field.add_table
    acc = np.zeros(1, dtype=np.int32)
    for table in term_tables:
        t = np.asarray(table, dtype=np.int32)
        if t.shape != (field.q,):
            raise ValueError("term table must have one entry per element")
        acc = add[t[:, None], acc[None, :]].reshape(-1)
    return acc


def norm_profile(field: Fq, n: int, center=None) -> np.ndarray:
    """Rank of ||x - center|| for every point rank x of F_q^n."""
    space_size(field, n)
    sq = field.sq_arr
    if center is None:
        tables = [sq] * n
    else:
        if len(center) != n:
            raise ValueError("center length mismatch")
        sub = field.sub_table
        tables = [sq[sub[:, c]] for c in center]
    return sum_profile(field, tables)


# ---- diagonal equation counting ----

def diagonal_count_bruteforce(field: Fq, eq: DiagonalEq) -> int:
    """Exact number of solutions by full enumeration of F_q^n."""
    values = sum_profile(
        field, [field.mul_table[c][field.sq_arr] for c in eq.coeffs])
    return int(np.count_nonzero(values == eq.rhs))


def diagonal_counts_by_rhs(field: Fq, coeffs) -> np.ndarray:
    """Solution counts of a diagonal equation for every rhs at once,
    by one full enumeration of F_q^n."""
    eq = DiagonalEq(tuple(coeffs), 0)
    values = sum_profile(
        field, [field.mul_table[c][field.sq_arr] for c in eq.coeffs])
    return np.bincount(values, minlength=field.q).astype(np.int64)


def diagonal_count_closed(field: Fq, eq: DiagonalEq) -> int:
    """Exact solution count from the classical closed form for diagonal
    quadrics: q^(n-1) plus a character correction of magnitude q^((n-1)//2)
    for nonzero rhs, and (q-1) * q^(n/2-1) (n even) or zero (n odd) for
    rhs = 0."""
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


# ---- spheres and hyper-spheres, by translation of the origin profile ----

@functools.lru_cache(maxsize=None)
def origin_norm_profile(field: Fq, n: int) -> np.ndarray:
    """Rank of ||x|| for every point rank x of F_q^n, in the smallest
    unsigned dtype that holds a rank.  Cached per (field, n), read-only."""
    values = norm_profile(field, n).astype(np.min_scalar_type(field.q - 1))
    values.setflags(write=False)
    return values


def is_rank(field: Fq, v) -> bool:
    """Whether v is an element rank of the field: an integer in [0, q)."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and 0 <= v < field.q)


def is_point(field: Fq, n: int, vec) -> bool:
    """Whether vec is a point of F_q^n: n element ranks, each in [0, q)."""
    return (isinstance(vec, (tuple, list)) and len(vec) == n
            and all(is_rank(field, v) for v in vec))


def origin_sphere_ranks(field: Fq, n: int, radius: int) -> np.ndarray:
    """Ranks of S_r(0) = {y : ||y|| = r}, ascending, for r in F_q^*."""
    if not (is_rank(field, radius) and radius):
        raise ValueError(f"radius rank {radius!r} outside [1, {field.q})")
    return np.flatnonzero(origin_norm_profile(field, n) == radius)


def translate(field: Fq, n: int, ranks, center) -> np.ndarray:
    """Ranks of center + y for each point rank y, one digit at a time."""
    center = tuple(center)
    if not is_point(field, n, center):
        raise ValueError(f"center {center} is not a point of F_{field.q}^{n}")
    q = field.q
    ranks = np.asarray(ranks, dtype=np.int64)
    out = ranks.copy()
    step = 1
    for c in center:
        if c:  # a zero coordinate leaves its digit as it is
            shift = (field.add_table[:, c] - np.arange(q)).astype(np.int64) * step
            out += shift[ranks // step % q]
        step *= q
    return out


def sphere_ranks(field: Fq, sphere: SphereSpec) -> np.ndarray:
    """Point ranks of a sphere, as the translate center + S_r(0)."""
    n = len(sphere.center)
    return translate(field, n, origin_sphere_ranks(field, n, sphere.radius),
                     sphere.center)


def hypersphere_ranks(field: Fq, h: HypersphereSpec) -> np.ndarray:
    """Point ranks of a hyper-sphere, as center + {y in S_r(0) : d.y = 0}."""
    n = len(h.center)
    if not is_point(field, n, h.direction):
        raise ValueError(f"direction {h.direction} is not a point of F_{field.q}^{n}")
    y = origin_sphere_ranks(field, n, h.radius)
    dots = np.zeros(y.shape, dtype=np.int32)
    step = 1
    for d in h.direction:
        dots = field.add_table[dots, field.mul_table[d][y // step % field.q]]
        step *= field.q
    return translate(field, n, y[dots == 0], h.center)


def sphere_points(field: Fq, sphere: SphereSpec) -> PointSet:
    return PointSet.from_ranks(field, len(sphere.center), sphere_ranks(field, sphere))


def hypersphere_points(field: Fq, h: HypersphereSpec) -> PointSet:
    return PointSet.from_ranks(field, len(h.center), hypersphere_ranks(field, h))


def canonical_direction(field: Fq, direction) -> tuple[int, ...]:
    """Scale a nonzero direction so its first nonzero coordinate is 1;
    proportional directions give the same hyper-sphere."""
    direction = tuple(direction)
    for d in direction:
        if d:
            s = field.inv(d)
            return tuple(field.mul(s, c) for c in direction)
    raise ZeroDirectionError("direction must be nonzero")


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
    attained = np.unique(field.add_table[sq[:, None], sq[None, :]])
    mask = np.zeros(field.q, dtype=bool)
    mask[attained] = True
    return bool(mask[1:].all())
