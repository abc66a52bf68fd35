"""Reference arithmetic and formulas that check ffkakeya's outputs.

Nothing here imports ffkakeya: every check recomputes the expected value
with its own arithmetic, or tests a property the method must have.

* Prime fields use plain modular arithmetic; the quadratic character is
  the Legendre symbol by Euler's criterion, a^((p-1)/2) mod p.
* Extension fields F_(p^k) add digit-wise mod p on the base-p digits of a
  rank.  They multiply by polynomial products reduced modulo the field's
  modulus, which is first checked to be monic, of degree k and
  irreducible.  Those products build an exp/log table from a primitive
  element, so table checks take one gather instead of a product per entry.
* Counts of solutions of c_1 x_1^2 + ... + c_n x_n^2 = b use the
  character-sum closed forms (Lidl and Niederreiter, Theorems 6.26 and
  6.27).
* Sizes are checked against the paper's lower bounds, recomputed here.

Every check returns None when the output is right and a one-line reason
when it is wrong.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import isqrt

import numpy as np

# Checks work in slices so that their own arrays stay small next to the
# program's: the worker's peak RSS is reported as the program's.
TABLE_ROWS = 64      # rows of a q x q table compared at a time
POINT_CHUNK = 1 << 16  # points of F_q^n evaluated at a time


def _is_odd_prime(m: int) -> bool:
    if m < 3 or m % 2 == 0:
        return False
    return all(m % d for d in range(3, isqrt(m) + 1, 2))


def _prime_factors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _poly_mod(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """Remainder of a by the monic m over F_p, padded to len(m) - 1."""
    a = list(a)
    deg = len(m) - 1
    for top in range(len(a) - 1, deg - 1, -1):
        c = a[top] % p
        if c:
            for j in range(deg + 1):
                a[top - deg + j] = (a[top - deg + j] - c * m[j]) % p
    a = [x % p for x in a[:deg]]
    return a + [0] * (deg - len(a))


def ceil_sqrt(m: int) -> int:
    s = isqrt(m)
    return s if s * s == m else s + 1


class RefField:
    """F_q with q = p^k, on integer ranks whose base-p digits (least
    significant first) are polynomial coefficients."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not _is_odd_prime(p) or k < 1:
            raise ValueError(f"not an odd prime power: {p}^{k}")
        self.p, self.k, self.q = p, k, p ** k
        self.pw = p ** np.arange(k, dtype=np.int64)
        self.dig = np.ascontiguousarray(  # base-p digits of every rank
            (np.arange(self.q)[:, None] // self.pw) % p)
        if k > 1:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus {modulus} is not monic of degree {k}")
            if not self._irreducible(modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = modulus
        self.exp, self.log = self._exp_log()

    def _irreducible(self, m: tuple[int, ...]) -> bool:
        p = self.p
        for d in range(1, self.k // 2 + 1):
            for low in itertools.product(range(p), repeat=d):
                if not any(_poly_mod(list(m), low + (1,), p)):
                    return False
        return True

    def _coeffs(self, a: int) -> list[int]:
        return [(a // self.p ** i) % self.p for i in range(self.k)]

    def mul_scalar(self, a: int, b: int) -> int:
        """Product of two ranks as polynomials modulo the field modulus."""
        if self.k == 1:
            return a * b % self.p
        ca, cb = self._coeffs(a), self._coeffs(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(ca):
            for j, y in enumerate(cb):
                prod[i + j] += x * y
        rem = _poly_mod(prod, self.modulus, self.p)
        return sum(c * self.p ** i for i, c in enumerate(rem))

    def pow_scalar(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul_scalar(result, a)
            a = self.mul_scalar(a, a)
            e >>= 1
        return result

    def _exp_log(self):
        q = self.q
        factors = _prime_factors(q - 1)
        g = next(g for g in range(2, q)
                 if all(self.pow_scalar(g, (q - 1) // r) != 1 for r in factors))
        exp = [1]
        for _ in range(q - 2):
            exp.append(self.mul_scalar(exp[-1], g))
        exp = np.array(exp, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        if np.count_nonzero(log >= 0) != q - 1:
            raise ValueError(f"rank {g} does not generate F_{q}^*")
        return exp, log

    # ---- vectorized arithmetic on rank arrays ----

    def _digitwise(self, a, b, sign: int):
        """Digit-wise a + sign * b mod p, one base-p digit at a time."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = 0
        for i in range(self.k):
            d = self.dig[:, i]
            out = out + (d[a] + sign * d[b]) % self.p * int(self.pw[i])
        return out

    def add(self, a, b):
        if self.k == 1:
            return (np.asarray(a, dtype=np.int64) + b) % self.p
        return self._digitwise(a, b, 1)

    def sub(self, a, b):
        if self.k == 1:
            return (np.asarray(a, dtype=np.int64) - b) % self.p
        return self._digitwise(a, b, -1)

    def neg(self, a):
        return self.sub(0, a)

    def mul(self, a, b):
        if self.k == 1:
            return np.asarray(a, dtype=np.int64) * b % self.p
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        out = self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        return np.where(a == 0, -1, self.exp[(-self.log[a]) % (self.q - 1)])

    def chi(self, a):
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares,
        0 at zero.  Euler's criterion a^((p-1)/2) mod p on prime fields;
        the parity of the discrete log on extension fields."""
        return self._chi[np.asarray(a, dtype=np.int64)]

    @functools.cached_property
    def _chi(self) -> np.ndarray:
        if self.k == 1:
            e = np.array([pow(x, (self.p - 1) // 2, self.p) for x in range(self.p)])
            return np.where(e == 1, 1, np.where(e == 0, 0, -1))
        return np.where(self.log < 0, 0, np.where(self.log % 2 == 0, 1, -1))


# ---- field tables ----

def check_tables(tables: dict, ref: RefField) -> str | None:
    """Every dense table against the reference arithmetic, plus
    mul[a, inv[a]] = 1 and chi = +1 exactly on the (q-1)/2 nonzero
    squares."""
    q = ref.q
    full = {"add_table": ref.add, "sub_table": ref.sub, "mul_table": ref.mul}
    for name, fn in full.items():
        table = np.asarray(tables[name])
        if table.shape != (q, q):
            return f"{name} has shape {table.shape}"
        cols = np.arange(q, dtype=np.int64)[None, :]
        for lo in range(0, q, TABLE_ROWS):
            rows = np.arange(lo, min(q, lo + TABLE_ROWS), dtype=np.int64)[:, None]
            if not np.array_equal(table[lo:lo + TABLE_ROWS], fn(rows, cols)):
                return f"{name} differs from the reference in rows {lo}.."
    units = np.arange(1, q)
    elems = np.arange(q)
    if not np.array_equal(tables["neg_arr"], ref.neg(elems)):
        return "neg_arr differs from the reference"
    if not np.array_equal(tables["sq_arr"], ref.mul(elems, elems)):
        return "sq_arr differs from the reference"
    inv = np.asarray(tables["inv_arr"])
    if inv[0] != -1 or not np.array_equal(inv, ref.inv(elems)):
        return "inv_arr differs from the reference"
    if not np.all(ref.mul(units, inv[1:]) == 1):
        return "mul[a, inv[a]] != 1"
    char = np.asarray(tables["char_arr"])
    squares = np.zeros(q, dtype=bool)
    squares[ref.mul(units, units)] = True
    if np.count_nonzero(squares) != (q - 1) // 2:
        return "reference squares miscounted"
    if char[0] != 0 or not np.array_equal(char[1:] == 1, squares[1:]) \
            or not np.all(np.abs(char[1:]) == 1):
        return "char_arr is not +1 exactly on the nonzero squares"
    if not np.array_equal(char, ref.chi(elems)):
        return "char_arr disagrees with Euler's criterion"
    return None


# ---- points of F_q^n ----

class RefSpace:
    """F_q^n with rank(x) = sum x_i q^i, first coordinate least significant.
    Field elements (coordinates, norms) are stored in the smallest unsigned
    type that holds q - 1, ranks as int64."""

    def __init__(self, ref: RefField, n: int):
        self.n, self.q = n, ref.q
        self.size = ref.q ** n
        self.qpw = ref.q ** np.arange(n, dtype=np.int64)
        self.dtype = np.min_scalar_type(ref.q - 1)
        elems = np.arange(ref.q)
        # the reference arithmetic of small fields, tabulated once
        self.add_t = ref.add(elems[:, None], elems[None, :]).astype(self.dtype)
        self.sub_t = ref.sub(elems[:, None], elems[None, :]).astype(self.dtype)
        self.mul_t = ref.mul(elems[:, None], elems[None, :]).astype(self.dtype)
        sq = self.mul_t[elems, elems]
        self.norms = np.empty(self.size, dtype=self.dtype)  # ||x|| for every rank x
        for lo in range(0, self.size, POINT_CHUNK):
            c = self.coords(np.arange(lo, min(self.size, lo + POINT_CHUNK)))
            acc = np.zeros(len(c), dtype=self.dtype)
            for i in range(n):
                acc = self.add_t[acc, sq[c[:, i]]]
            self.norms[lo:lo + POINT_CHUNK] = acc

    def coords(self, ranks) -> np.ndarray:
        """Coordinates of each rank, one column at a time."""
        ranks = np.asarray(ranks, dtype=np.int64)
        out = np.empty(ranks.shape + (self.n,), dtype=self.dtype)
        for i in range(self.n):
            out[..., i] = ranks // self.qpw[i] % self.q
        return out

    def rank(self, coords) -> np.ndarray:
        out = np.zeros(coords.shape[:-1], dtype=np.int64)
        for i in range(self.n):
            out += coords[..., i] * self.qpw[i]  # the int64 scalar widens
        return out

    def translate(self, ranks, center) -> np.ndarray:
        """Ranks of center + y for each rank y, coordinate by coordinate."""
        c = self.coords(ranks)
        return self.rank(self.add_t[c, np.asarray(center, dtype=np.int64)])

    def sphere(self, center, radius) -> np.ndarray:
        """Ranks of ||x - center|| = radius, as center + S_radius(0)."""
        return self.translate(np.flatnonzero(self.norms == radius), center)

    def hypersphere(self, center, direction, radius) -> np.ndarray:
        """Ranks of ||x - a|| = r with d . (x - a) = 0, as a + {y : ||y|| = r,
        d . y = 0}."""
        y = np.flatnonzero(self.norms == radius)
        c = self.coords(y)
        dots = np.zeros(len(y), dtype=np.int64)
        for i, d in enumerate(direction):
            dots = self.add_t[dots, self.mul_t[c[:, i], d]]
        return self.translate(y[dots == 0], center)


def count_closed(ref: RefField, coeffs, rhs: int) -> int:
    """Solutions of sum c_i x_i^2 = rhs in F_q^n from the closed forms."""
    q, n = ref.q, len(coeffs)
    delta = 1
    for c in coeffs:
        delta = ref.mul_scalar(delta, int(c))
    sign = 1 if (n // 2) % 2 == 0 else int(ref.neg(1))
    if n % 2 == 0:
        eta = int(ref.chi(ref.mul_scalar(sign, delta)))
        v = q - 1 if rhs == 0 else -1
        return q ** (n - 1) + v * q ** (n // 2 - 1) * eta
    if rhs == 0:
        return q ** (n - 1)
    eta = int(ref.chi(ref.mul_scalar(ref.mul_scalar(sign, rhs), delta)))
    return q ** (n - 1) + q ** ((n - 1) // 2) * eta


def spherical_lower_bound(q: int, n: int) -> Fraction:
    """The paper's lower bound on a set holding q - 1 spheres of distinct
    radii (n >= 4), or the (q-1)/2-sphere bound for n in {2, 3}."""
    if n >= 4:
        e = (n - 1) // 2
        return (Fraction(q ** n + q ** (n - 1) - q ** (e + 2) + q ** (e + 1), 2)
                - q ** (n - 2))
    return Fraction(q ** n - q ** (n - 2), 4)


def intersection_bound(q: int, n: int) -> int:
    """Two distinct spheres of F_q^n share at most this many points."""
    return q ** (n - 2) + q ** ((n - 1) // 2)


def hypersphere_union_bound(q: int, n: int) -> int:
    return q ** (n - 1) + q ** (n // 2) - q ** ((n - 1) // 2)


def sphere_centers_inside(space: RefSpace, mask, radius: int) -> np.ndarray:
    """Every center a with S_radius(a) inside the set, by a full scan."""
    ys = space.coords(np.flatnonzero(space.norms == radius))
    found = []
    for a in range(space.size):
        pts = space.rank(space.add_t[ys, space.coords([a])[0]])
        if mask[pts].all():
            found.append(a)
    return np.array(found, dtype=np.int64)


def without_radius(space: RefSpace, mask, radius: int, keep, rng) -> np.ndarray:
    """The set less one random point, outside keep, of each sphere of this
    radius inside it, until the scan finds none of the radius left."""
    mask = mask.copy()
    while len(centers := sphere_centers_inside(space, mask, radius)):
        pts = space.sphere(space.coords([centers[0]])[0], radius)
        mask[rng.choice(pts[~keep[pts]])] = False
    return mask


def max_sphere_intersection(space: RefSpace) -> int:
    """Largest intersection of two distinct spheres.  S_r(a) meets S_s(b)
    in a translate of S_r(0) and S_s(b - a), and same-center spheres are
    disjoint, so pairs (0, c) with c != 0 are enough."""
    q, norms = space.q, space.norms
    all_y = space.coords(np.arange(space.size))
    best = 0
    for c in range(1, space.size):
        shifted = space.rank(space.sub_t[all_y, space.coords([c])[0]])
        joint = np.bincount(norms.astype(np.int64) * q + norms[shifted], minlength=q * q)
        best = max(best, int(joint.reshape(q, q)[1:, 1:].max()))
    return best


# ---- constructions ----

def _check_spheres_inside(space: RefSpace, mask, spheres) -> str | None:
    """spheres yields (key, ranks) one at a time, so only one is held."""
    for key, pts in spheres:
        if not np.all(mask[pts]):
            return f"witness object for {key} leaves the set"
    return None


def _bound_fields(res, bound: Fraction, lower: bool) -> str | None:
    if Fraction(res.bound) != bound or res.bound_is_lower != lower:
        return f"bound {res.bound} != {bound}"
    met = res.size >= bound if lower else res.size <= bound
    if not met or not res.bound_met:
        return f"size {res.size} does not meet bound {bound}"
    if not res.witness_valid:
        return "witness reported invalid"
    return None


def check_radius_spherical(res, ref: RefField, space: RefSpace) -> str | None:
    """The set is exactly the union of its witness spheres, one of every
    nonzero radius, and its size meets the lower bound."""
    mask = res.points.mask
    if mask.shape != (space.size,) or res.size != int(np.count_nonzero(mask)):
        return "mask shape or size mismatch"
    entries = res.witness.entries
    if res.witness.kind != "radius" or set(entries) != set(range(1, ref.q)):
        return "witness keys are not the nonzero radii"
    union = np.zeros(space.size, dtype=bool)
    for r, spec in entries.items():
        if spec.radius != r or len(spec.center) != space.n:
            return f"witness for radius {r} has the wrong radius or dimension"
        union[space.sphere(spec.center, r)] = True
    if not np.array_equal(union, mask):
        return "set differs from the union of its witness spheres"
    return _bound_fields(res, spherical_lower_bound(ref.q, space.n), True)


def center_spherical_size(ref: RefField, n: int, r: int) -> int:
    """q * sum over b with chi(r - b) >= 0 of N_(n-1)(b), from closed counts."""
    total = 0
    for b in range(ref.q):
        if ref.chi(ref.sub(r, b)) >= 0:
            total += count_closed(ref, (1,) * (n - 1), b)
    return ref.q * total


def check_center_spherical(res, ref: RefField, space: RefSpace, r: int) -> str | None:
    """Membership is chi(r - ||y||) >= 0 on the last n - 1 coordinates;
    the size matches the closed counts; the q witness spheres of radius r
    centered at (a, 0, ..., 0) lie inside."""
    q, n = ref.q, space.n
    mask = res.points.mask
    if mask.shape != (space.size,) or res.size != int(np.count_nonzero(mask)):
        return "mask shape or size mismatch"
    if ref.chi(r) != -1 or res.accounting.get("fixedNonsquareRadius") != r:
        return f"radius {r} is not the requested nonsquare"
    tail_norms = space.norms[::q] if n > 1 else np.zeros(1, dtype=np.int64)
    # rank = x_1 + q * (rank of y): the tail rank is rank // q, and the
    # norms of the ranks divisible by q are the norms of their tails
    expected = np.repeat(ref.chi(ref.sub(r, tail_norms)) >= 0, q)
    if not np.array_equal(mask, expected):
        return "membership differs from chi(r - ||y||) >= 0"
    if res.size != center_spherical_size(ref, n, r):
        return "size differs from the closed counts"
    entries = res.witness.entries
    if res.witness.kind != "center-coordinate" or set(entries) != set(range(q)):
        return "witness keys are not the first coordinates"
    for a, spec in entries.items():
        if spec.center[0] != a or spec.radius == 0 or len(spec.center) != n:
            return f"witness for coordinate {a} is malformed"
    bad = _check_spheres_inside(space, mask, (
        (a, space.sphere(spec.center, spec.radius)) for a, spec in entries.items()))
    if bad:
        return bad
    return _bound_fields(res, spherical_lower_bound(q, n), True)


def check_hypersphere_union(res, ref: RefField, space: RefSpace) -> str | None:
    """Inside the null quadric ||x|| = 0, within the stated upper bound,
    and holding its witness hyper-spheres of every nonzero radius."""
    mask = res.points.mask
    if mask.shape != (space.size,) or res.size != int(np.count_nonzero(mask)):
        return "mask shape or size mismatch"
    if res.size == 0 or np.any(space.norms[mask] != 0):
        return "set leaves the null quadric ||x|| = 0"
    entries = res.witness.entries
    if res.witness.kind != "hypersphere" or set(entries) != set(range(1, ref.q)):
        return "witness keys are not the nonzero radii"
    for r, spec in entries.items():
        if spec.radius != r or len(spec.center) != space.n or not any(spec.direction):
            return f"witness for radius {r} is malformed"
    bad = _check_spheres_inside(space, mask, (
        (r, space.hypersphere(spec.center, spec.direction, r))
        for r, spec in entries.items()))
    if bad:
        return bad
    return _bound_fields(res, Fraction(hypersphere_union_bound(ref.q, space.n)), False)


# ---- one-dimensional covers ----

def covers(ref: RefField, elems, kind: str) -> bool:
    """K - K = F_q for kind 'radius'; K (+) K = F_q, sums of distinct
    elements, for kind 'center'."""
    ks = np.array(sorted(set(int(x) for x in elems)), dtype=np.int64)
    if kind == "radius":
        got = ref.sub(ks[:, None], ks[None, :])
    else:
        got = ref.add(ks[:, None], ks[None, :])[~np.eye(len(ks), dtype=bool)]
    return np.unique(got).size == ref.q


def circular_lower_bound(q: int, kind: str) -> int:
    return ceil_sqrt(q) if kind == "radius" else ceil_sqrt(2 * q)


def check_circular(res, ref: RefField, kind: str) -> str | None:
    """The set covers, meets its lower bound, and every circle
    {a + r, a - r} of its witness lies inside."""
    ks = [int(x) for x in res.points.ranks()]
    if len(ks) != res.size or not covers(ref, ks, kind):
        return f"set is not a {kind} cover"
    lower = circular_lower_bound(ref.q, kind)
    if res.size < lower or Fraction(res.bound) != lower:
        return f"size {res.size} or bound {res.bound} vs lower bound {lower}"
    mask = res.points.mask
    want = set(range(1, ref.q)) if kind == "radius" else set(range(ref.q))
    if set(res.witness.entries) != want:
        return "witness keys are wrong"
    for key, circle in res.witness.entries.items():
        a, r = circle.center, circle.radius
        if r == 0 or (kind == "radius" and r != key) or (kind == "center" and a != key):
            return f"witness circle for {key} is malformed"
        if not (mask[int(ref.add(a, r))] and mask[int(ref.sub(a, r))]):
            return f"witness circle for {key} leaves the set"
    if not res.witness_valid:
        return "witness reported invalid"
    return None


def no_cover_of_size(ref: RefField, kind: str, size: int) -> bool:
    """True iff no subset of F_q of this size covers, by plain enumeration
    over bitmasks of the values each pair reaches."""
    q = ref.q
    full = (1 << q) - 1
    pair = [[0] * q for _ in range(q)]
    for x in range(q):
        for y in range(q):
            if kind == "radius":
                pair[x][y] = 1 << int(ref.sub(x, y))
            elif x != y:
                pair[x][y] = 1 << int(ref.add(x, y))
    for combo in itertools.combinations(range(q), size):
        reach = 0
        for x in combo:
            for y in combo:
                reach |= pair[x][y]
        if reach == full:
            return False
    return True


def check_search(outcome, ref: RefField, kind: str, certified: bool) -> str | None:
    """The example covers and meets the lower bound; a certified minimum
    has no cover one size below it."""
    ex = list(outcome.example)
    if outcome.q != ref.q or outcome.kind != kind or outcome.certified != certified:
        return "outcome header is wrong"
    if len(set(ex)) != outcome.size or not covers(ref, ex, kind):
        return "example set is not a cover of the reported size"
    if outcome.size < circular_lower_bound(ref.q, kind) or outcome.nodes < 1:
        return "size below the lower bound, or no nodes explored"
    if certified and not no_cover_of_size(ref, kind, outcome.size - 1):
        return f"a {kind} cover of size {outcome.size - 1} exists"
    return None
