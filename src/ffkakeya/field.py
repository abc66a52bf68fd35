"""Arithmetic and canonical enumeration for F_q, q = p^k with p an odd prime.

Field elements are plain integers.  The *rank* of an element is an integer
in [0, q); the base-p digits of the rank, least significant digit first,
are the coefficients of the residue polynomial in the generator t:

    a_0 + a_1*t + ... + a_{k-1}*t^(k-1)   <->   a_0 + a_1*p + ... + a_{k-1}*p^(k-1)

Rank 0 is the zero element and rank 1 the one element; for k > 1 rank p is
the generator t itself.  For k = 1 the rank is simply the least nonnegative
residue mod p.  Every enumeration loop, the "smallest nonsquare" choice and
all set serialization rely on this rank order.

Extension fields reduce modulo the lexicographically smallest monic
irreducible polynomial of degree k over F_p, comparing coefficient tuples
constant term first, so two independent builds of the same (p, k) agree
element by element.
"""

from __future__ import annotations

import functools
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import NonOddPrimeError, SizeCapError

FIELD_CAP = 1 << 63  # largest accepted q = p^k
TABLE_CAP = 4096     # largest q with dense q x q operation tables

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for all 64-bit inputs."""
    if m < 2:
        return False
    for w in _MR_WITNESSES:
        if m % w == 0:
            return m == w
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q as p^k with p an odd prime, or raise NonOddPrimeError."""
    if not isinstance(q, int) or q < 3:
        raise NonOddPrimeError(f"{q} is not an odd prime power >= 3")
    if q % 2 == 0:
        raise NonOddPrimeError(f"{q} is even")
    p = None
    d = 3
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 2
    if p is None:
        return q, 1
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NonOddPrimeError(f"{q} is not a prime power")
    return p, k


# ---- polynomial helpers over F_p (coefficient lists, constant term first) ----

def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, trailing zeros stripped."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Trial division of the monic polynomial f by every monic divisor
    candidate of degree at most deg(f)//2."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p ** d):
            g = [(code // p ** i) % p for i in range(d)] + [1]
            if not _poly_rem(f, g, p):
                return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidate low coefficients (c_0, ..., c_{k-1}) are compared constant
    term first, so the scan fixes c_0 outermost.
    """
    for code in range(p ** k):
        low = [(code // p ** (k - 1 - i)) % p for i in range(k)]
        f = low + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class Fq:
    """The finite field with q = p^k elements, p an odd prime.

    All operations take and return element ranks (plain ints).  Dense
    numpy operation tables are built lazily for vectorized callers and
    require q <= TABLE_CAP; the scalar methods work for any supported q.
    Instances are immutable; use make_field() for a cached instance.
    """

    zero = 0
    one = 1

    def __init__(self, p: int, k: int = 1):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be a positive integer, got {k}")
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise NonOddPrimeError(f"{p} is not an odd prime")
        q = p ** k
        if q > FIELD_CAP:
            raise SizeCapError(f"q = {p}^{k} exceeds the field size cap 2^63")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = smallest_irreducible(p, k) if k > 1 else None
        if k > 1:
            self._reduction = self._tpower_digits()

    def _tpower_digits(self) -> list[tuple[int, ...]]:
        """Digits of t^e mod modulus for e = k .. 2k-2."""
        p, k, m = self.p, self.k, self.modulus
        top = [(-m[i]) % p for i in range(k)]  # t^k
        rows = [tuple(top)]
        cur = top
        for _ in range(k - 2):
            shifted = [0] + cur[:-1]
            carry = cur[-1]
            nxt = [(shifted[i] + carry * top[i]) % p for i in range(k)]
            rows.append(tuple(nxt))
            cur = nxt
        return rows

    # ---- element codecs ----

    def element_to_coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of the rank, constant term first, length k."""
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.k))

    def coeffs_to_element(self, coeffs) -> int:
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        rank = 0
        for i, c in enumerate(coeffs):
            if not 0 <= c < self.p:
                raise ValueError(f"coefficient {c} outside [0, {self.p})")
            rank += c * self.p ** i
        return rank

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    # ---- scalar arithmetic on ranks ----

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        rank = 0
        for i in range(self.k):
            step = p ** i
            rank += ((a // step + b // step) % p) * step
        return rank

    def sub(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a - b) % self.p
        p = self.p
        rank = 0
        for i in range(self.k):
            step = p ** i
            rank += ((a // step - b // step) % p) * step
        return rank

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        p, k = self.p, self.k
        ca = self.element_to_coeffs(a)
        cb = self.element_to_coeffs(b)
        full = [0] * (2 * k - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    full[i + j] += x * y
        out = [c % p for c in full[:k]]
        for e in range(k, 2 * k - 1):
            c = full[e] % p
            if c:
                row = self._reduction[e - k]
                for d in range(k):
                    out[d] = (out[d] + c * row[d]) % p
        return self.coeffs_to_element(out)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # ---- elementwise arithmetic on rank arrays, for any q ----

    def add_arrays(self, a, b) -> np.ndarray:
        """Elementwise a + b of broadcastable rank arrays, digit by digit;
        needs no dense table."""
        return self._digitwise(a, b, 1)

    def sub_arrays(self, a, b) -> np.ndarray:
        """Elementwise a - b of broadcastable rank arrays, digit by digit."""
        return self._digitwise(a, b, -1)

    def _digitwise(self, a, b, sign: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.k == 1:
            return (a + sign * b) % self.p
        p = self.p
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        step = 1
        for _ in range(self.k):
            out += (a // step + sign * (b // step)) % p * step
            step *= p
        return out

    # ---- quadratic character ----

    def char(self, a: int) -> int:
        """Quadratic character: x^((q-1)/2) mapped to {-1, 0, +1}."""
        if a == 0:
            return 0
        if self.q <= TABLE_CAP:
            return int(self.char_arr[a])
        v = self.pow(a, (self.q - 1) // 2)
        return 1 if v == 1 else -1

    def smallest_nonsquare(self) -> int:
        """The nonsquare of least rank."""
        for a in self.units():
            if self.char(a) == -1:
                return a
        raise RuntimeError("no nonsquare found")  # unreachable for odd q >= 3

    # ---- dense operation tables (vectorized callers) ----

    def _require_tables(self) -> None:
        if self.q > TABLE_CAP:
            raise SizeCapError(
                f"q = {self.q} exceeds the dense-table cap {TABLE_CAP}")

    @cached_property
    def _digits(self) -> np.ndarray:
        self._require_tables()
        ranks = np.arange(self.q, dtype=np.int32)
        steps = self.p ** np.arange(self.k, dtype=np.int64)
        return ((ranks[:, None] // steps[None, :]) % self.p).astype(np.int32)

    @cached_property
    def _pvec(self) -> np.ndarray:
        return (self.p ** np.arange(self.k, dtype=np.int64)).astype(np.int32)

    @cached_property
    def add_table(self) -> np.ndarray:
        d = self._digits
        summed = (d[:, None, :] + d[None, :, :]) % self.p
        return (summed @ self._pvec).astype(np.int32)

    @cached_property
    def sub_table(self) -> np.ndarray:
        d = self._digits
        diff = (d[:, None, :] - d[None, :, :]) % self.p
        return (diff @ self._pvec).astype(np.int32)

    @cached_property
    def neg_arr(self) -> np.ndarray:
        return self.sub_table[0].copy()

    @cached_property
    def mul_table(self) -> np.ndarray:
        self._require_tables()
        q, p, k = self.q, self.p, self.k
        if k == 1:
            a = np.arange(q, dtype=np.int64)
            return ((a[:, None] * a[None, :]) % p).astype(np.int32)
        d = self._digits.astype(np.int64)
        conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                conv[:, :, i + j] += np.multiply.outer(d[:, i], d[:, j])
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        for e in range(k):
            red[e, e] = 1
        for e in range(k, 2 * k - 1):
            red[e] = self._reduction[e - k]
        digits = (conv.reshape(q * q, 2 * k - 1) @ red) % p
        return (digits @ self._pvec.astype(np.int64)).reshape(q, q).astype(np.int32)

    @cached_property
    def inv_arr(self) -> np.ndarray:
        """inv_arr[0] is the sentinel -1; 0 is not invertible."""
        inv = (self.mul_table == 1).argmax(axis=1).astype(np.int32)
        inv[0] = -1
        return inv

    @cached_property
    def sq_arr(self) -> np.ndarray:
        return np.diagonal(self.mul_table).copy()

    @cached_property
    def char_arr(self) -> np.ndarray:
        mul = self.mul_table
        e = (self.q - 1) // 2
        result = np.ones(self.q, dtype=np.int32)
        base = np.arange(self.q, dtype=np.int32)
        while e:
            if e & 1:
                result = mul[result, base]
            base = mul[base, base]
            e >>= 1
        minus_one = int(self.neg_arr[1])
        out = np.where(result == 1, 1, np.where(result == minus_one, -1, 0))
        return out.astype(np.int8)

    # ---- identity ----

    def __repr__(self) -> str:
        if self.k == 1:
            return f"Fq({self.p})"
        terms = []
        for i, c in enumerate(self.modulus):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                terms.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return f"Fq({self.q}, modulus={' + '.join(terms)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> Fq:
    """Cached constructor for F_(p^k)."""
    return Fq(p, k)


def ceil_sqrt(m: int) -> int:
    """Exact ceiling of the square root of a nonnegative integer."""
    if m < 0:
        raise ValueError("negative input")
    if m == 0:
        return 0
    return isqrt(m - 1) + 1
