"""Exact integer and rational results that need no arrays.

Primality and prime-power decomposition, exact square roots, the
rendering of rationals, the lower bounds on the size of spherical and
circular Kakeya sets, and the constants the command-line parser needs.
Nothing here imports numpy, so a process that only computes a bound
never loads it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import count

from .errors import BadDimensionError, NonOddPrimeError, SizeCapError

DEFAULT_BUDGET = 100_000_000
EXACT_LIMIT = 13  # largest q the exact cover search takes by default
DEFAULT_NODE_BUDGET = 100_000_000
DIGIT_CAP = 4300  # most decimal digits in an exact bound, Python's default str limit
_DIGIT_LIMIT = 10 ** DIGIT_CAP  # the least numerator past the cap, formed once

VARIANT_RADIUS = "radius"
VARIANT_CENTER = "center"
VARIANTS = (VARIANT_RADIUS, VARIANT_CENTER)

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


def _integer_root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method in exact integers from
    above: from 2^ceil(bits / k), or, for m of 2k bits or more, from the
    root of m's top half plus one, shifted back, which leaves few steps."""
    s = m.bit_length() // (2 * k)
    x = (_integer_root(m >> k * s, k) + 1) << s if s else 1 << -(-m.bit_length() // k)
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y
    return x


def _may_be_power(m: int, ell: int) -> bool:
    """False only if m is no perfect ell-th power, for a prime ell: for
    the least prime r = 1 (mod 2 ell), m = x^ell gives m^((r - 1)/ell) =
    x^(r - 1), which is 0 or 1 mod r.  A non-power passes about once in
    ell tries, so a number of thousands of digits takes few integer roots."""
    r = next(r for r in count(2 * ell + 1, 2 * ell) if is_prime(r))
    return pow(m % r, (r - 1) // ell, r) <= 1


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q as p^k with p an odd prime, or raise NonOddPrimeError.

    A prime q below 2^64 answers by one test.  Otherwise q = b^k with b no
    perfect power, by exact l-th roots for prime l alone, each l tried
    until it fails while 3^l <= b (a root of a composite degree is a root
    of a root), and taken only where _may_be_power lets it; then q is a
    prime power iff b is prime.  A composite verdict of is_prime is exact
    at every size, but it vouches for a prime only below 2^64: a b past
    that raises SizeCapError before any test."""
    if not isinstance(q, int) or q < 3:
        raise NonOddPrimeError(f"{q} is not an odd prime power >= 3")
    if q % 2 == 0:
        raise NonOddPrimeError(f"{q} is even")
    if not q >> 64 and is_prime(q):  # the common case takes no root
        return q, 1
    p, k, ell = q, 1, 2
    while 3 ** ell <= p:
        if _may_be_power(p, ell) and (root := _integer_root(p, ell)) ** ell == p:
            p, k = root, k * ell
        else:
            ell = next(m for m in count(ell + 1) if is_prime(m))
    if p >> 64:
        raise SizeCapError(f"{p} is past 2^64, where primality is not certified")
    if k == 1 or not is_prime(p):  # at k = 1, q < 2^64 failed the test above
        raise NonOddPrimeError(f"{q} is not a prime power")
    return p, k


def ceil_sqrt(m: int) -> int:
    """Exact ceiling of the square root of a nonnegative integer."""
    if m < 0:
        raise ValueError("negative input")
    return math.isqrt(m - 1) + 1 if m else 0


def exact_str(value) -> str:
    """Render an exact integer or rational; halves appear as 'num/2'."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# ---- lower bounds ----

class BoundReport(namedtuple("BoundReport", "q n branch value")):
    """An exact lower bound: the value and which branch of the bound gave
    it.  Immutable, compared and hashed by its fields.  A named tuple
    rather than a dataclass, so that computing a bound imports neither
    dataclasses nor inspect."""

    __slots__ = ()

    @property
    def ceiling(self) -> int:
        return math.ceil(self.value)


def spherical_kakeya_lower_bound(q: int, n: int) -> BoundReport:
    """Exact lower bound for the size of any set containing q - 1 spheres
    of distinct radii (n >= 4), or (q-1)/2 such spheres (n in {2, 3}).

    The value can be a half-integer; callers wanting a point count take
    the ceiling.  A value of more than DIGIT_CAP decimal digits raises
    SizeCapError, at once, before q^n is formed, when q^n > 16^DIGIT_CAP.
    """
    prime_power_decompose(q)
    if not isinstance(n, int) or n < 2:
        raise BadDimensionError(f"bound needs dimension >= 2, got {n}")
    too_large = SizeCapError(f"the bound at q^n = {q}^{n} exceeds {DIGIT_CAP} digits")
    # the value exceeds q^n / 5, so past q^n = 16^DIGIT_CAP it has too many digits
    if (q.bit_length() - 1) * n > 4 * DIGIT_CAP:
        raise too_large
    if n >= 4:
        e = (n - 1) // 2
        # q^n/2 + q^(n-1)/2 - q^(n-2) - q^(e+2)/2 + q^(e+1)/2 over one denominator
        value = Fraction(q ** n + q ** (n - 1) - 2 * q ** (n - 2) - q ** (e + 2) + q ** (e + 1), 2)
        branch = "n>=4"
    else:
        value, branch = Fraction(q ** n - q ** (n - 2), 4), "n in {2,3}"
    if value.numerator >= _DIGIT_LIMIT:
        raise too_large
    return BoundReport(q, n, branch, value)


def circular_lower_bounds(q: int) -> tuple[int, int]:
    """(ceil(sqrt(q)), ceil(sqrt(2q))): minimum sizes for difference and
    restricted-sum covers of F_q."""
    prime_power_decompose(q)
    return ceil_sqrt(q), ceil_sqrt(2 * q)
