"""Scalar arithmetic in F_q, q = p^k with p an odd prime, with no arrays.

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

ScalarField has the scalar ops alone: add and sub digit by digit, and
mul, pow, inv and char by products of digit polynomials modulo the
modulus, by the one product _poly_mulmod that Ben-Or's test uses too.
field.Fq subclasses it with rank arrays, and reads its mul and pow from
exp/log arrays.  Nothing here, the closed count of a diagonal quadric
and the rank validator included, imports numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import zip_longest
from numbers import Integral
from operator import index

from .errors import BadDimensionError, NonOddPrimeError, SizeCapError, ZeroCoefficientError
from .exact import is_prime

FIELD_CAP = 1 << 63  # largest accepted q = p^k


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
    """Ben-Or's test for the monic f of degree k over F_p: f is reducible
    iff gcd(t^(p^j) - t, f) != 1 for some j <= k/2, since t^(p^j) - t is
    the product of the monic irreducibles of degree dividing j.  A factor
    of degree d rejects f after d powers, where trial division by every
    candidate of degree up to k/2 takes about p^(k/2) steps."""
    t = x = _poly_rem([0, 1], f, p)
    for _ in range((len(f) - 1) // 2):  # x = t^(p^j) mod f for j = 1, 2, ...
        x = _poly_powmod(x, p, f, p)
        diff = _poly_rem([(a - b) % p for a, b in zip_longest(x, t, fillvalue=0)], f, p)
        if len(_poly_gcd(f, diff, p)) != 1:  # diff has no trailing zeros, as _poly_gcd needs
            return False
    return True


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidate low coefficients (c_0, ..., c_{k-1}) are compared constant
    term first, so the scan fixes c_0 outermost.  For k >= 2 the codes
    below p^(k-1) are exactly the candidates with c_0 = 0, each divisible
    by t, so the scan starts at p^(k-1).  Each candidate takes Ben-Or's
    test, which is exact, so the modulus is the one trial division finds.
    """
    for code in range(p ** (k - 1) if k > 1 else 0, p ** k):
        low = [(code // p ** (k - 1 - i)) % p for i in range(k)]
        f = low + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise RuntimeError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class ScalarField:
    """F_q for scalar answers: every op takes and returns element ranks
    (plain ints), for any supported q.  Immutable, and equal to the same
    field, an Fq too."""

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

    # the scalar ops read their operands as Python ints, so narrow numpy
    # integers (a uint8, an int16 table entry) do not wrap
    def add(self, a: int, b: int) -> int:
        a, b = index(a), index(b)
        if self.k == 1:
            return (a + b) % self.p
        return self._digitwise_scalar(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        a, b = index(a), index(b)
        if self.k == 1:
            return (a - b) % self.p
        return self._digitwise_scalar(a, b, -1)

    def _digitwise_scalar(self, a: int, b: int, sign: int) -> int:
        """a + sign * b one base-p digit at a time, for k > 1."""
        p, rank, step = self.p, 0, 1
        for _ in range(self.k):
            rank += (a // step + sign * (b // step)) % p * step
            step *= p
        return rank

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        """a * b by the product of the digit polynomials modulo the modulus."""
        a, b = index(a), index(b)
        if self.k == 1:
            return a * b % self.p
        return self.coeffs_to_element(_poly_mulmod(
            self.element_to_coeffs(a), self.element_to_coeffs(b), self.modulus, self.p))

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply of the digit polynomial."""
        a, e = index(a), index(e)  # Python ints: pow(a, e, p) takes no numpy integer
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.k == 1:
            return pow(a, e, self.p)
        return self.coeffs_to_element(_poly_powmod(
            self.element_to_coeffs(a), e, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    def char(self, a: int) -> int:
        """a^((q-1)/2) mapped to {-1, 0, +1}, by polynomial products on an
        Fq too, which then builds no exp/log pair."""
        if a == 0:
            return 0
        return 1 if ScalarField.pow(self, a, (self.q - 1) // 2) == 1 else -1

    def smallest_nonsquare(self) -> int:
        """The nonsquare of least rank; half the units are nonsquares."""
        return next(a for a in self.units() if self.char(a) == -1)

    # ---- identity ----

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.k == 1:
            return f"{name}({self.p})"
        terms = []
        for i, c in enumerate(self.modulus):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else str(c) + "*"
                terms.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return f"{name}({self.q}, modulus={' + '.join(terms)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))


def valid_ranks(values: list, top: int, low: int = 0) -> bool:
    """Whether every value is an integer (not a bool; numpy's are Integral)
    in [low, top), an element rank for top = q: one issubclass test per
    distinct type, then one pass each of min and max."""
    return (all(issubclass(t, Integral) and not issubclass(t, bool)
                for t in set(map(type, values)))
            and (not values or bool(low <= min(values) and max(values) < top)))


# ---- diagonal quadrics: the closed form ----

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


def _check_equation(field: ScalarField, eq: DiagonalEq) -> None:
    if not valid_ranks([*eq.coeffs, eq.rhs], field.q):
        raise ValueError(f"equation ranks must lie in [0, {field.q}): {eq}")


def diagonal_count_closed(field: ScalarField, eq: DiagonalEq) -> int:
    """Exact solution count from the classical closed form for diagonal
    quadrics (_quadric_counts), in Python integers at any size, by
    polynomial products on an Fq too, so it builds no exp/log pair."""
    _check_equation(field, eq)
    delta = functools.reduce(functools.partial(ScalarField.mul, field), eq.coeffs)
    return _quadric_counts(field.q, len(eq.coeffs), field.char(delta), field.char(eq.rhs))


def _quadric_counts(q: int, d: int, eta_delta, eta_x):
    """Solutions of a diagonal quadric of d nonzero coefficients of product
    delta at rhs x, from chi(delta) and chi(x) alone: q^(d-1) plus a
    correction of magnitude q^((d-1)//2) for x != 0, and (q-1) q^(d/2-1)
    (d even) or 0 (d odd) for x = 0, signed by chi((-1)^(d//2) delta);
    d = 0 gives [x = 0].  Exact in Python ints, broadcast over int64 arrays."""
    if d == 0:
        return 1 - abs(eta_x)
    eta = (-1) ** ((q - 1) // 2 * (d // 2)) * eta_delta
    if d % 2 == 0:
        return q ** (d - 1) + (q * (1 - abs(eta_x)) - 1) * q ** (d // 2 - 1) * eta
    return q ** (d - 1) + q ** (d // 2) * eta * eta_x
