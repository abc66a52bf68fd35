"""Points, spheres and exact solution counting over F_q^n.

A point of F_q^n is a tuple of n element ranks.  The rank of a point is

    rank(x) = sum_i rank(x_i) * q**i

(the first coordinate is the least significant digit), a bijection between
[0, q^n) and F_q^n that every dense point set uses as its index; point_ranks
computes it; scalar.valid_ranks and point_coordinates check ranks and points.

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
scan of F_q^n, a block of spheres a gather (_sphere_block).
Hyper-spheres are translates of level sets of S_r(0).

A sphere centred at (a_0, 0, ..., 0), the only kind both spherical
constructions use, is a union of whole fibre levels {(x_0, t) : ||t|| = v},
and so is the set of either construction: PointSet.from_levels builds it
from a q x q table of the levels it holds, sized by the closed form
(level_sizes), and keeps that table, its level_table, where each such
sphere is checked by q lookups.

Diagonal quadrics a_1 x_1^2 + ... + a_n x_n^2 = b are counted two ways:
by the classical closed form (in scalar), and directly, for every b at once, by a
recurrence over partial sums that adds one coordinate at a time from the
number of square roots of each element, in O(n q^2) steps with no
enumeration of F_q^n (diagonal_counts_by_rhs).  The closed form also
gives #{t : ||t|| = v, ||t - c|| = w} for every class of c under the
orthogonal group (joint_norm_counts), so sphere intersections, and the
scans of level-built sets, need no enumeration either.
"""

from __future__ import annotations

import functools
from itertools import chain, repeat
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .errors import (
    BadDimensionError,
    IdenticalSpheresError,
    SizeCapError,
    UsageError,
    ZeroDirectionError,
    ZeroRadiusError,
)
from .field import Fq, make_field
from .scalar import DiagonalEq, _check_equation, _quadric_counts, valid_ranks

POINT_CAP = 1 << 40  # largest supported q^n


def space_size(field: Fq, n: int) -> int:
    if not isinstance(n, int) or n < 1:
        raise BadDimensionError(f"dimension must be a positive integer, got {n}")
    # q >= 3, so n > 40 is past the cap: reject it before forming q^n
    if n > 40 or field.q ** n > POINT_CAP:
        raise SizeCapError(f"q^n = {field.q}^{n} exceeds the point cap 2^40")
    return field.q ** n


def point_rank(field: Fq, vec) -> int:
    vec = list(vec)
    if not valid_ranks(vec, field.q):  # name the first coordinate that is no rank
        v = next(v for v in vec if not valid_ranks([v], field.q))
        raise ValueError(f"coordinate rank {v} outside [0, {field.q})")
    return point_ranks(field, len(vec), vec)[0] if vec else 0


def point_unrank(field: Fq, n: int, rank: int) -> tuple[int, ...]:
    q = field.q
    if not valid_ranks([rank], q ** n):
        raise ValueError(f"point rank {rank} outside [0, {q}^{n})")
    return tuple((int(rank) // q ** i) % q for i in range(n))


def point_coordinates(field: Fq, n: int, vecs: list) -> list | None:
    """The coordinates of vecs in one list if every vec is a point of
    F_q^n, a tuple or list of n element ranks, else None."""
    if not (all(issubclass(t, (tuple, list)) for t in set(map(type, vecs)))
            and set(map(len, vecs)) <= {n}):
        return None
    flat = list(chain.from_iterable(vecs))
    return flat if valid_ranks(flat, field.q) else None


def point_ranks(field: Fq, n: int, flat: list) -> list:
    """The rank of each point whose n coordinates follow one another in flat,
    one map per coordinate index, in Python ints (numpy scalars could wrap)."""
    flat = list(map(int, flat))
    ranks = flat[0::n]
    for i in range(1, n):
        ranks = list(map(add, ranks, map(mul, flat[i::n], repeat(field.q ** i))))
    return ranks


# ---- geometric object descriptors ----

# Witness entries are named tuples: _make and _replace skip the checks of the constructors

class SphereSpec(NamedTuple("SphereSpec", [("center", tuple), ("radius", int)])):
    """||x - center|| = radius, with radius in F_q^* and dimension >= 2."""

    __slots__ = ()

    def __new__(cls, center, radius):
        center = tuple(center)
        if len(center) < 2:
            raise BadDimensionError("spheres need dimension >= 2")
        if radius == 0:
            raise ZeroRadiusError("sphere radius must be nonzero")
        return super().__new__(cls, center, radius)


class HypersphereSpec(NamedTuple("HypersphereSpec", [("center", tuple), ("direction", tuple),
                                                     ("radius", int)])):
    """||x - center|| = radius and direction . (x - center) = 0."""

    __slots__ = ()

    def __new__(cls, center, direction, radius):
        center, direction = tuple(center), tuple(direction)
        if len(center) < 2:
            raise BadDimensionError("hyper-spheres need dimension >= 2")
        if len(direction) != len(center):
            raise ValueError("center and direction length mismatch")
        if not any(direction):
            raise ZeroDirectionError("direction must be nonzero")
        if radius == 0:
            raise ZeroRadiusError("hyper-sphere radius must be nonzero")
        return super().__new__(cls, center, direction, radius)


class CircleSpec(NamedTuple("CircleSpec", [("center", int), ("radius", int)])):
    """One-dimensional circle (x - center)^2 = radius^2, the point pair
    {center + radius, center - radius}."""

    __slots__ = ()

    def __new__(cls, center, radius):
        if radius == 0:
            raise ZeroRadiusError("circle radius must be nonzero")
        return super().__new__(cls, center, radius)


# ---- dense point sets ----

class PointSet:
    """Membership set over the ranked points of F_q^n, immutable after
    construction.  A set from from_levels is level_built: it keeps the
    q x q level table it was built from and its size, and forms its q^n
    mask only when something reads it, once; any other set is its mask.
    Union, intersection and equality are exact operations on the masks."""

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
        = level_sizes(n - 1); empty levels are stored True."""
        space_size(field, n)
        table = np.array(table, dtype=bool, copy=True)
        if table.shape != (field.q, field.q):
            raise ValueError(f"level table must have shape ({field.q}, {field.q})")
        sizes = level_sizes(field, n - 1)
        table[sizes == 0] = True
        return cls._adopt(field, n, None, table, int(sizes @ np.count_nonzero(table, axis=1)))

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
        mask[checked_ranks(ranks, size)] = True
        return cls._adopt(field, n, mask)

    @property
    def mask(self) -> np.ndarray:
        """The read-only bool rank mask; row t of mask.reshape(-1, q) is
        row ||t|| of the level table, for a set built from one."""
        if self._mask is None:
            self._mask = _read_only(
                self._table[origin_norm_profile(self.field, self.n - 1)].ravel())
        return self._mask

    @property
    def level_built(self) -> bool:
        return self._table is not None

    def level_table(self) -> np.ndarray | None:
        """The read-only table the set was built from by from_levels, or
        None for a set given by its mask."""
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
        flat = point_coordinates(self.field, self.n, [point])
        if flat is None:
            raise ValueError(f"{point!r} is not a point of F_{self.field.q}^{self.n}")
        return bool(self.mask[point_ranks(self.field, self.n, flat)[0]])

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
    norm in F_q^(n-1), gathered at the (n-1)-dim profile.  The table is
    built in the profile dtype by row blocks, each gathered in blocks, of
    at most about 2^16 entries, so it and numpy's int64 index stay small.
    Built through this cache; cached per (field, n), read-only."""
    dtype = np.min_scalar_type(field.q - 1)
    if n == 0:
        return _read_only(np.zeros(1, dtype=dtype))
    space_size(field, n)
    lower = origin_norm_profile(field, n - 1)
    width = int(lower.max()) + 1
    values = np.empty((field.q, lower.size), dtype=dtype)
    rows = max(1, (1 << 16) // width)
    for y in range(0, field.q, rows):
        levels = field.add_arrays(field.sq_arr[y:y + rows, None], np.arange(width)).astype(dtype)
        step = max(1, (1 << 16) // len(levels))
        for lo in range(0, lower.size, step):
            values[y:y + rows, lo:lo + step] = levels.take(lower[lo:lo + step], axis=1)
    return _read_only(values.ravel())


def checked_ranks(ranks, top: int, what: str = "rank") -> np.ndarray:
    """ranks (an array or any iterable) in int64, each in [0, top); else
    ValueError for a non-integer dtype, or naming what is out of range."""
    idx = np.asarray(ranks if isinstance(ranks, np.ndarray) else list(ranks))
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"ranks must be integers, got dtype {idx.dtype}")
    if idx.size and not (0 <= idx.min() and idx.max() < top):
        raise ValueError(f"{what} out of range")
    return idx.astype(np.int64, copy=False)


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
    if field is not None and not 0 <= value < field.q:
        raise UsageError(f"{what} rank {value} outside [0, {field.q})")
    return value


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


def _joint_counts(field: Fq, m: int, gamma, v, w) -> np.ndarray:
    """J_c(v, w) of joint_norm_counts for any c != 0 of norm gamma, over
    broadcast rank arrays: gamma a scalar 0 (c isotropic) or nonzero."""
    q, chi = field.q, field.char_arr.astype(np.int64)
    if np.ndim(gamma) == 0 and gamma == 0:
        return np.where(np.equal(v, w), q * _quadric_counts(q, m - 2, chi[field.neg(1)], chi[v]),
                        q ** (m - 2))
    four = field.mul(field.add(1, 1), field.add(1, 1))
    s = field.add_arrays(field.sub_arrays(v, w), gamma)  # 2 lambda gamma
    z = field.sub_arrays(field.mul_arrays(field.mul_arrays(four, gamma), v), field.sq_arr[s])
    return _quadric_counts(q, m - 1, chi[gamma], chi[gamma] * chi[z])


def level_sizes(field: Fq, m: int) -> np.ndarray:
    """L_v = #{t in F_q^m : ||t|| = v} for every v, in int64, from the
    closed form (_quadric_counts); F_q^0 is the point 0."""
    return _quadric_counts(field.q, m, 1, field.char_arr.astype(np.int64))


def joint_norm_counts(field: Fq, m: int) -> np.ndarray:
    """J[i, v, w] = #{t in F_q^m : ||t|| = v, ||t - c_i|| = w} in int64, for
    c_0 = 0 and one c_i per nonempty norm class of nonzero vectors, by norm
    (isotropic first): at most q + 1 closed-form q x q slices, O(q^3) steps.

    J_c depends only on the class of c: by Witt's theorem c -> c' (equal
    norms) extends to a linear isometry of F_q^m.  By ||t - c|| = ||t|| -
    2 t.c + ||c||, with N_D of _quadric_counts:
    - c = 0: J = [v = w] N_(1^m)(v).
    - ||c|| = gamma != 0: t = lambda c + u with u in c^perp (dimension
      m - 1, discriminant gamma), so lambda = (v + gamma - w) / (2 gamma)
      and J = N_D(x), x = v - lambda^2 gamma, D of m - 1 coefficients of
      product gamma; chi(x) = chi(gamma z), z = 4 gamma v - (2 lambda gamma)^2.
    - c != 0 isotropic, in a hyperbolic plane <c, d> (||d|| = 0, c.d = 1)
      whose complement has dimension m - 2 and discriminant -1: with
      t = alpha c + beta d + u, beta = (v - w) / 2 and ||t|| =
      2 alpha beta + ||u||, so J = q^(m-2) if v != w (alpha fixed by u),
      and q N_(1^(m-3), -1)(v) if v = w (alpha free).
    Nonzero isotropic vectors exist iff N_(1^m)(0) > 1."""
    space_size(field, m)
    v = np.arange(field.q)
    levels = level_sizes(field, m)
    gammas = np.flatnonzero(levels - (v == 0))  # norms of nonzero vectors
    slices = [np.diag(levels)[None]]
    if gammas[0] == 0:
        slices.append(_joint_counts(field, m, 0, v[:, None], v)[None])
    slices.append(_joint_counts(field, m, gammas[gammas > 0][:, None, None], v[:, None], v))
    return np.concatenate(slices)


def _fibres(field: Fq, m: int, radius, heads, scale: int) -> np.ndarray:
    """heads[y] + scale * t for every point (y, t) of F_q x F_q^m with
    y^2 + ||t|| = radius: fibre by fibre in order of y, t ascending within
    a fibre, in O(q + |sphere|) steps and few temporaries.  For a column of
    radii, each with its row of heads, the spheres one after another; unchecked."""
    order, offsets = level_order(field, m)
    levels = field.sub_arrays(radius, field.sq_arr).ravel()  # fibre y is level r - y^2
    sizes = offsets[levels + 1] - offsets[levels]
    # index into order minus output position, constant within a fibre
    out = np.repeat(offsets[levels] - np.cumsum(sizes) + sizes, sizes)
    out += np.arange(out.size)
    np.multiply(order[out], scale, out=out, dtype=np.int64)  # no int32 overflow
    out += np.repeat(np.ravel(heads), sizes)
    return out


def _add_digits(field: Fq, ranks: np.ndarray, centers: np.ndarray, owner, first: int) -> None:
    """Add in place to each rank the row of centers (B, n) that owns it,
    digit by digit from digit first on, by a B x q table of the shifts
    (c_i + x - x) q^i read at (row, x_i): flat at owner + x_i, with owner q
    times the row.  A digit that is 0 in every row is skipped."""
    q, x = field.q, np.arange(field.q)
    step = q ** first
    for digit in centers.T[first:]:
        if digit.any():
            at = ranks // step
            at %= q
            at += owner
            ranks += ((field.add_arrays(digit[:, None], x) - x) * step).ravel()[at]
        step *= q


def translate(field: Fq, n: int, ranks, center) -> np.ndarray:
    """Ranks of center + y for each point rank y of F_q^n, one digit at a time."""
    center = tuple(center)
    if point_coordinates(field, n, [center]) is None:
        raise ValueError(f"center {center} is not a point of F_{field.q}^{n}")
    out = checked_ranks(ranks, field.q ** n).copy()
    _add_digits(field, out, np.array([center], dtype=np.int64), 0, 0)
    return out


def _sphere_block(field: Fq, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Point ranks of the spheres of radii (B,) around centers (B, n), one
    after another in the order of sphere_ranks, unchecked: the fibres over
    the first coordinate (_fibres), then the tails of the centers added."""
    q, n = field.q, centers.shape[1]
    radii = radii[:, None]
    ranks = _fibres(field, n - 1, radii, field.add_arrays(centers[:, :1], np.arange(q)), q)
    if centers[:, 1:].any():
        owner = 0  # q times the sphere that owns each point; 0 for one sphere
        if len(centers) > 1:
            sizes = np.diff(level_order(field, n - 1)[1])  # level sizes of F_q^(n-1)
            owned = sizes[field.sub_arrays(radii, field.sq_arr)].sum(axis=1)  # points a sphere
            owner = np.repeat(np.arange(0, q * len(centers), q), owned)
        _add_digits(field, ranks, centers, owner, 1)
    return ranks


def sphere_ranks(field: Fq, sphere: SphereSpec) -> np.ndarray:
    """Point ranks of S_r(a), fibred over the first coordinate: with the
    tail a' = (a_1, ..., a_(n-1)) and L_v the levels of level_order(n - 1),

        S_r(a) = {(a_0 + y_0) + q (a' + t) : y_0 in F_q, t in L_(r - y_0^2)},

    in O(q + |S_r(a)|) steps: _sphere_block of one sphere, which shifts the
    tail digits only when a' != 0."""
    n, q = len(sphere.center), field.q
    center = point_coordinates(field, n, [sphere.center])
    if center is None:
        raise ValueError(f"center {sphere.center} is not a point of F_{q}^{n}")
    if not valid_ranks([sphere.radius], q, low=1):
        raise ValueError(f"radius rank {sphere.radius!r} outside [1, {q})")
    return _sphere_block(field, np.array([center], dtype=np.int64),
                         np.array([sphere.radius], dtype=np.int64))


def hypersphere_ranks(field: Fq, h: HypersphereSpec) -> np.ndarray:
    """Point ranks of a hyper-sphere, as center + {y in S_r(0) : d.y = 0}."""
    n, q = len(h.center), field.q
    if point_coordinates(field, n, [h.direction]) is None:
        raise ValueError(f"direction {h.direction} is not a point of F_{q}^{n}")
    y = sphere_ranks(field, SphereSpec((0,) * n, h.radius))
    rows = field.mul_arrays(np.array(h.direction)[:, None], np.arange(q))  # [i, a]: d_i a
    dots = np.zeros(y.shape, dtype=np.int64)
    step = 1
    for i, d in enumerate(h.direction):
        if d:  # a zero coordinate of d adds nothing to d.y
            dots = field.add_arrays(dots, rows[i][y // step % q])
        step *= q
    return translate(field, n, y[dots == 0], h.center)


def sphere_intersection_size(field: Fq, s1: SphereSpec, s2: SphereSpec) -> int:
    """Number of common points of two distinct spheres, |S_r(a) & S_s(a + c)|
    = J_c(r, s) of joint_norm_counts, for the class of c alone: 0 for c = 0,
    and at most q^(n-2) + q^((n-1)//2) for any two distinct spheres."""
    if s1 == s2:
        raise IdenticalSpheresError("spheres are identical")
    n = len(s1.center)
    if len(s2.center) != n:
        raise ValueError("dimension mismatch")
    space_size(field, n)
    if not (point_coordinates(field, n, [s1.center, s2.center]) is not None
            and valid_ranks([s1.radius, s2.radius], field.q)):
        raise ValueError(f"{s1}, {s2}: not spheres of F_{field.q}^{n}")
    c = field.sub_arrays(s2.center, s1.center).tolist()
    if not any(c):
        return 0
    gamma = functools.reduce(field.add, (field.mul(x, x) for x in c))
    return int(_joint_counts(field, n, gamma, s1.radius, s2.radius))
