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

Multiplication is read from one pair of length-q arrays per field, built
lazily while they fit in LOG_CAP_BYTES (12 bytes per element, so q up to
about 5.6 million): exp[i] = g^i for the primitive element g of least
rank, and its inverse log.  inv_arr, sq_arr, char_arr (4q bytes each)
and mul_table are gathers from them, and so are the scalar mul, inv, pow
and char of extension fields up to the byte cap; beyond it the scalar ops
multiply the digit polynomials modulo the modulus.  One polynomial
product, _poly_mulmod, and its power _poly_powmod serve those ops, the
build of the logs and Rabin's irreducibility test alike.  Which g is used
changes no output: only the tables and values derived from exp and log
are visible; mul_arrays is a gather from them too.  add_arrays and
sub_arrays add rank arrays for any q, and every other module adds through
them: a chunk of c base-p digits of both operands indexes one cached
p^c x p^c table of digitwise sums (at most CHUNK_ENTRIES entries), and an
outer sum gathers whole rows of it.  The three, and the dense q x q
tables add_table, sub_table and mul_table, refuse an array of more than
ARRAY_CAP elements before allocating it.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonOddPrimeError, SizeCapError
from .exact import ceil_sqrt, is_prime, prime_power_decompose  # noqa: F401 (re-exported)

FIELD_CAP = 1 << 63  # largest accepted q = p^k
LOG_CAP_BYTES = 64 << 20  # largest exp/log pair, 12 bytes per element
ARRAY_CAP = 1 << 26  # most elements in one rank array or dense table (512 MB of int64)
CHUNK_ENTRIES = 1 << 16  # most entries in one digit-chunk table of add/sub_arrays


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


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a * b modulo the monic polynomial f."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_rem([c % p for c in prod], f, p)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo the monic polynomial f, for e >= 0, by square-and-multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, f, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, f, p)
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A greatest common divisor of a and b, by Euclid's algorithm."""
    while b:
        inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_rem(a, [c * inv % p for c in b], p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for the monic polynomial f of degree k over F_p: f is
    irreducible iff t^(p^k) = t mod f and gcd(t^(p^(k/l)) - t, f) = 1 for
    every prime l dividing k.  A common factor with t^(p^j) - t for any
    j < k has degree dividing j, so it proves f reducible: testing every
    j <= k/2 as well rejects a candidate with a factor of degree d after
    d powers.

    x -> x^p is F_p-linear on F_p[t]/(f), since c^p = c for c in F_p, so
    (sum_i c_i t^i)^p = sum_i c_i t^(ip).  t^p is taken by square-and-
    multiply; a candidate that survives j = 1 then gets the k rows t^(ip)
    in k - 1 products, and each further power takes k^2 steps.  About
    k^3 + k^2 log p steps in all, where trial division by every candidate
    of degree up to k/2 takes about p^(k/2)."""
    k = len(f) - 1
    t = _poly_rem([0, 1], f, p)
    gcd_at = set(range(1, k // 2 + 1)) | {k // ell for ell in _prime_factors(k)}
    tp = x = _poly_powmod(t, p, f, p)
    frobenius = [[1]]  # row i of frobenius: t^(ip) mod f
    for j in range(1, k + 1):  # x = t^(p^j) mod f
        if j > 1:
            while len(frobenius) < k:  # once, for a candidate that survives j = 1
                frobenius.append(_poly_mulmod(frobenius[-1], tp, f, p))
            acc = [0] * k
            for c, row in zip(x, frobenius):
                if c:
                    acc = [a + c * r for a, r in zip_longest(acc, row, fillvalue=0)]
            x = [a % p for a in acc]
            while x and x[-1] == 0:
                x.pop()
        if j < k and j in gcd_at:
            diff = [(a - b) % p for a, b in zip_longest(x, t, fillvalue=0)]
            while diff and diff[-1] == 0:
                diff.pop()
            if len(_poly_gcd(f, diff, p)) != 1:
                return False
    return x == t


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidate low coefficients (c_0, ..., c_{k-1}) are compared constant
    term first, so the scan fixes c_0 outermost.  For k >= 2 the codes
    below p^(k-1) are exactly the candidates with c_0 = 0, each divisible
    by t, so the scan starts at p^(k-1).  Each candidate takes Rabin's
    test, which is exact, so the modulus is the one trial division finds.
    """
    for code in range(p ** (k - 1) if k > 1 else 0, p ** k):
        low = [(code // p ** (k - 1 - i)) % p for i in range(k)]
        f = low + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


class Fq:
    """The finite field with q = p^k elements, p an odd prime.

    All operations take and return element ranks (plain ints).  The
    exp/log arrays and the length-q arrays gathered from them are built
    lazily while 12q bytes fit LOG_CAP_BYTES; the rank-array operations
    and the dense q x q tables form at most ARRAY_CAP elements, so the
    tables need q <= 8192.  Up to the byte cap the scalar mul, inv, pow
    and char read the logs, and beyond it they fall back to polynomial
    arithmetic, so the scalar methods work for any supported q.
    Instances are immutable; use make_field() for a cached instance.
    """

    zero = 0
    one = 1

    def __init__(self, p: int, k: int = 1):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be a positive integer, got {k}")
        if not isinstance(p, int) or p == 2 or not is_prime(p):
            raise NonOddPrimeError(f"{p} is not an odd prime")
        if k >= 40 or p ** k > FIELD_CAP:  # p >= 3: past it for k >= 40, tested before p^k
            raise SizeCapError(f"q = {p}^{k} exceeds the field size cap 2^63")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = smallest_irreducible(p, k) if k > 1 else None

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
        if not self._logs_fit:
            return self._poly_mul(a, b)
        if a == 0 or b == 0:
            return 0
        exp, log = self._logs
        return int(exp[log[a] + log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        if not self._logs_fit:
            return self._poly_pow(a, e)
        if a == 0:
            return 0 if e else 1
        exp, log = self._logs
        return int(exp[int(log[a]) * e % (self.q - 1)])

    # ---- polynomial arithmetic: beyond LOG_CAP_BYTES, and to build the logs ----

    def _poly_mul(self, a: int, b: int) -> int:
        """a * b by the product of the digit polynomials modulo the modulus.
        It never reads the logs, which are built with it."""
        if self.k == 1:
            return a * b % self.p
        return self.coeffs_to_element(_poly_mulmod(
            self.element_to_coeffs(a), self.element_to_coeffs(b), self.modulus, self.p))

    def _poly_pow(self, a: int, e: int) -> int:
        """a^e for e >= 0 by square-and-multiply of the digit polynomial."""
        if self.k == 1:
            return pow(a, e, self.p)
        return self.coeffs_to_element(_poly_powmod(
            self.element_to_coeffs(a), e, self.modulus, self.p))

    # ---- elementwise arithmetic on rank arrays ----

    def add_arrays(self, a, b) -> np.ndarray:
        """Elementwise a + b of broadcastable rank arrays, for any q."""
        return self._digitwise(a, b, 1)

    def sub_arrays(self, a, b) -> np.ndarray:
        """Elementwise a - b of broadcastable rank arrays, for any q."""
        return self._digitwise(a, b, -1)

    def mul_arrays(self, a, b) -> np.ndarray:
        """Elementwise a * b of broadcastable rank arrays, read from the logs."""
        a, b = self._operands(a, b)
        exp, log = self._logs
        return np.where((a == 0) | (b == 0), 0, exp[log[a] + log[b]].astype(np.int64))

    def require_array(self, shape) -> None:
        """Raise SizeCapError, before anything is allocated, when an array of
        this shape holds more than ARRAY_CAP elements."""
        size = math.prod(shape)
        if size > ARRAY_CAP:
            raise SizeCapError(f"an array of {size} elements of F_{self.q} "
                               f"exceeds the array cap {ARRAY_CAP}")

    def _operands(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """a and b as int64 arrays, once their broadcast fits ARRAY_CAP."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.size * b.size > ARRAY_CAP:  # the broadcast has at most a.size * b.size
            self.require_array(np.broadcast_shapes(a.shape, b.shape))
        return a, b

    @cached_property
    def _chunks(self) -> tuple[int, dict[int, np.ndarray] | None]:
        """(m, tables) for _digitwise: m = p^c for c base-p digits per chunk,
        the fewest chunks whose m x m tables keep within CHUNK_ENTRIES, and
        tables[sign] the table of x + sign * y, digit by digit, for x, y < m.
        tables is None, and a chunk one digit, when p^2 exceeds CHUNK_ENTRIES."""
        p, k = self.p, self.k
        widest = 0
        while widest < k and p ** (2 * widest + 2) <= CHUNK_ENTRIES:
            widest += 1
        if widest == 0:
            return p, None
        c = -(-k // -(-k // widest))  # ceil(k / number of chunks)
        return p ** c, {sign: self._digit_table(sign, c).astype(np.int64) for sign in (1, -1)}

    def _digitwise(self, a, b, sign: int) -> np.ndarray:
        """a + sign * b one chunk of digits at a time: the chunks of the two
        operands index the table of _chunks, and an outer sum (a column
        against a row) gathers whole rows of it."""
        a, b = self._operands(a, b)
        if self.k == 1:
            return (a + sign * b) % self.p
        m, tables = self._chunks
        outer = a.ndim == 2 and a.shape[1] == 1 and b.ndim in (1, 2) and b.size == b.shape[-1]
        out = None
        step = 1
        while step < self.q:
            x, y = a // step % m, b // step % m
            if tables is None:
                part = (x + sign * y) % m
            elif outer:
                part = tables[sign][x[:, 0]].take(y.ravel(), axis=1)
            else:
                part = tables[sign][x, y]
            if out is None:
                out = part
            else:
                part *= step
                out += part
            step *= m
        return out

    # ---- quadratic character ----

    def char(self, a: int) -> int:
        """Quadratic character: x^((q-1)/2) mapped to {-1, 0, +1}."""
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == 1 else -1

    def smallest_nonsquare(self) -> int:
        """The nonsquare of least rank; half the units are nonsquares."""
        return next(a for a in self.units() if self.char(a) == -1)

    # ---- length-q arrays and dense q x q tables (vectorized callers) ----

    @property
    def _logs_fit(self) -> bool:
        """Whether the exp/log pair, 12 bytes per element, fits LOG_CAP_BYTES."""
        return 12 * self.q <= LOG_CAP_BYTES

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) with exp[i] = g^i for 0 <= i < 2(q-1), g the primitive
        element of least rank, and log[exp[i]] = i for i < q-1.  exp is
        twice the group order long, so exp[log[a] + log[b]] needs no mod.
        log[0] is 0: every caller handles the zero element itself."""
        if not self._logs_fit:
            raise SizeCapError(f"q = {self.q} exceeds the exp/log cap of "
                               f"{LOG_CAP_BYTES >> 20} MB")
        p, k = self.p, self.k
        order = self.q - 1
        # x generates the unit group iff x^(order/l) != 1 for each prime l | order
        factors = _prime_factors(order)
        g = next(x for x in range(1, self.q)
                 if all(self._poly_pow(x, order // ell) != 1 for ell in factors))
        exp = np.empty(2 * order, dtype=np.int32)
        exp[0] = 1
        # doubling, exp[m:2m] = exp[:m] * g^m: multiplication by g^m is
        # F_p-linear on digit vectors, row i of its matrix the digits of g^m t^i
        pvec = p ** np.arange(k)
        m, gm = 1, g
        while m < exp.size:
            rows = np.array([self.element_to_coeffs(self._poly_mul(gm, p ** i))
                             for i in range(k)], dtype=np.int64)
            # in chunks, so the digit matrices stay small whatever q is
            for lo in range(0, min(m, exp.size - m), 1 << 16):
                block = exp[lo:min(m, exp.size - m, lo + (1 << 16))]
                digits = block[:, None] // pvec % p
                exp[m + lo:m + lo + block.size] = digits @ rows % p @ pvec
            m, gm = 2 * m, self._poly_mul(gm, gm)
        log = np.zeros(self.q, dtype=np.int32)
        log[exp[:order]] = np.arange(order, dtype=np.int32)
        return exp, log

    def _digit_table(self, sign: int, digits: int) -> np.ndarray:
        """The p^digits square table of a + sign * b, one digit at a time:
        with a = a_i p^i + a_lo, the table for digits 0..i is the broadcast
        sum of the p x p digit table times p^i and the table for digits below i."""
        p = self.p
        x = np.arange(p, dtype=np.int32)
        digit = (x[:, None] + sign * x[None, :]) % p
        out = np.zeros((1, 1), dtype=np.int32)
        for i in range(digits):
            m = p ** i
            out = ((digit * m)[:, None, :, None] + out[None, :, None, :]).reshape(p * m, p * m)
        return out

    @cached_property
    def add_table(self) -> np.ndarray:
        self.require_array((self.q, self.q))
        return self._digit_table(1, self.k)

    @cached_property
    def sub_table(self) -> np.ndarray:
        self.require_array((self.q, self.q))
        return self._digit_table(-1, self.k)

    @cached_property
    def neg_arr(self) -> np.ndarray:
        return self.sub_arrays(0, np.arange(self.q)).astype(np.int32)

    @cached_property
    def mul_table(self) -> np.ndarray:
        self.require_array((self.q, self.q))
        exp, log = self._logs
        # row a in log order is the window exp[log a : log a + q], gathered
        # into the one table by blocks of about 2^16 entries
        windows = sliding_window_view(exp, self.q)
        out = np.empty((self.q, self.q), dtype=exp.dtype)
        rows = max(1, (1 << 16) // self.q)
        for lo in range(0, self.q, rows):
            np.take(windows[log[lo:lo + rows]], log, axis=1, out=out[lo:lo + rows])
        out[0, :] = 0
        out[:, 0] = 0
        return out

    @cached_property
    def inv_arr(self) -> np.ndarray:
        """inv_arr[0] is the sentinel -1; 0 is not invertible."""
        exp, log = self._logs
        inv = exp[-log % (self.q - 1)]
        inv[0] = -1
        return inv

    @cached_property
    def sq_arr(self) -> np.ndarray:
        exp, log = self._logs
        sq = exp[2 * log]
        sq[0] = 0
        return sq

    @cached_property
    def char_arr(self) -> np.ndarray:
        """g^i is a square exactly when i is even."""
        _, log = self._logs
        chi = (1 - 2 * (log & 1)).astype(np.int8)
        chi[0] = 0
        return chi

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

