"""Field layer: moduli, arithmetic tables, quadratic character.

Reference values here are either computed by the independent scalar
oracles below or asserted directly when trivial.  The dense-table builders
that the exp/log tables replaced are kept below as the oracle for them,
and so are the one-expression exp/log product table, the oracle of its
row blocks, the broadcast digit table, the oracle of the row-built
Fq._digit_table, the reduction-row product, the oracle of
ScalarField.mul, the exp/log builder that searched for g from rank 1 and
made polynomial products at every doubling step, the oracle of Fq._logs,
the search for g one candidate at a time, the oracle of Fq.primitive, and
Euler's criterion a^((q-1)/2) by ScalarField.pow, the oracle of char.
"""

import hashlib
import math
import warnings
from itertools import zip_longest

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import traced_peak
import ffkakeya.exact as exact_module
import ffkakeya.field as field_module
import ffkakeya.scalar as scalar_module
from ffkakeya import (
    Fq,
    KakeyaError,
    NonOddPrimeError,
    ScalarField,
    SizeCapError,
    ceil_sqrt,
    make_field,
    prime_power_decompose,
    smallest_irreducible,
)
from ffkakeya.exact import is_prime
from ffkakeya.field import ARRAY_CAP, CHUNK_ENTRIES, LOG_CAP_BYTES, TABLE_DTYPE
from ffkakeya.scalar import FIELD_CAP

ODD_PRIME_POWERS_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]
DENSE_TABLES = ("add_table", "sub_table", "mul_table")


def ref_mul(field, a, b):
    """Schoolbook polynomial product reduced by the stored modulus."""
    p, k = field.p, field.k
    if k == 1:
        return (a * b) % p
    da = [(a // p**i) % p for i in range(k)]
    db = [(b // p**i) % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    mod = field.modulus
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(k):
                prod[d - k + i] = (prod[d - k + i] - c * mod[i]) % p
    return sum(prod[i] * p**i for i in range(k))


def _odd_prime_powers_up_to(bound):
    out = []
    for q in range(3, bound + 1, 2):
        try:
            prime_power_decompose(q)
        except NonOddPrimeError:
            continue
        out.append(q)
    return out


def trial_division_irreducible(f, p):
    """The replaced irreducibility test: trial division of the monic f by
    every monic candidate divisor of degree at most deg(f)//2."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p ** d):
            g = [(code // p ** i) % p for i in range(d)] + [1]
            if not scalar_module._poly_rem(f, g, p):
                return False
    return True


def rabin_irreducible(f, p):
    """The replaced irreducibility test, Rabin's with a Frobenius-row matrix:
    f is irreducible iff t^(p^k) = t mod f and gcd(t^(p^(k/l)) - t, f) = 1
    for every prime l dividing k, with every j <= k/2 tested as well."""
    k = len(f) - 1
    t = scalar_module._poly_rem([0, 1], f, p)
    gcd_at = set(range(1, k // 2 + 1)) | {k // ell for ell in field_module._prime_factors(k)}
    tp = x = scalar_module._poly_powmod(t, p, f, p)
    frobenius = [[1]]  # row i of frobenius: t^(ip) mod f
    for j in range(1, k + 1):  # x = t^(p^j) mod f
        if j > 1:
            while len(frobenius) < k:  # once, for a candidate that survives j = 1
                frobenius.append(scalar_module._poly_mulmod(frobenius[-1], tp, f, p))
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
            if len(scalar_module._poly_gcd(f, diff, p)) != 1:
                return False
    return x == t


def full_scan_irreducible(p, k):
    """The modulus search from code 0, candidates with c_0 = 0 included,
    each tested by trial division."""
    for code in range(p ** k):
        f = [(code // p ** (k - 1 - i)) % p for i in range(k)] + [1]
        if trial_division_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible found")


# ---- oracles: the table builders replaced by exp/log gathers ----

def _old_digits(field):
    ranks = np.arange(field.q, dtype=np.int32)
    steps = field.p ** np.arange(field.k, dtype=np.int64)
    return ((ranks[:, None] // steps[None, :]) % field.p).astype(np.int32)


def _old_pvec(field):
    return (field.p ** np.arange(field.k, dtype=np.int64)).astype(np.int32)


def old_add_table(field):
    """The q x q x k digit tensor, summed digit by digit."""
    d = _old_digits(field)
    summed = (d[:, None, :] + d[None, :, :]) % field.p
    return (summed @ _old_pvec(field)).astype(np.int32)


def old_sub_table(field):
    d = _old_digits(field)
    diff = (d[:, None, :] - d[None, :, :]) % field.p
    return (diff @ _old_pvec(field)).astype(np.int32)


def broadcast_digit_table(field, sign, digits):
    """The p^digits square table of a + sign * b, one digit at a time:
    with a = a_i p^i + a_lo, the table for digits 0..i is the 4-D broadcast
    sum of the p x p digit table times p^i and the table for digits below i."""
    p = field.p
    x = np.arange(p, dtype=np.int32)
    digit = (x[:, None] + sign * x[None, :]) % p
    out = np.zeros((1, 1), dtype=np.int32)
    for i in range(digits):
        m = p ** i
        out = ((digit * m)[:, None, :, None] + out[None, :, None, :]).reshape(p * m, p * m)
    return out


def reduction_rows(field):
    """Digits of t^e mod the modulus for e = k .. 2k-2, each the previous
    row times t."""
    p, k, m = field.p, field.k, field.modulus
    top = [(-m[i]) % p for i in range(k)]  # t^k
    rows = [top]
    for _ in range(k - 2):
        cur = rows[-1]
        rows.append([((cur[i - 1] if i else 0) + cur[-1] * top[i]) % p for i in range(k)])
    return rows


def reduction_row_mul(field, a, b):
    """The replaced scalar product: the schoolbook product of the digit
    polynomials, its digits k .. 2k-2 folded back by the reduction rows."""
    p, k = field.p, field.k
    if k == 1:
        return a * b % p
    ca, cb = field.element_to_coeffs(a), field.element_to_coeffs(b)
    full = [0] * (2 * k - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            full[i + j] += x * y
    out = full[:k]
    for row, c in zip(reduction_rows(field), full[k:]):
        out = [o + c * r for o, r in zip(out, row)]
    return field.coeffs_to_element([o % p for o in out])


def window_mul_table(field):
    """The exp/log table as one expression: the windows of exp at the logs
    of the rows, then a take along the columns, two q x q arrays at once."""
    exp, log = field._logs
    out = np.take(sliding_window_view(exp, field.q)[log], log, axis=1)
    out[0, :] = 0
    out[:, 0] = 0
    return out


def old_mul_table(field):
    """The q x q x (2k-1) convolution tensor of digit products, reduced by
    the rows t^k .. t^(2k-2) mod the modulus."""
    q, p, k = field.q, field.p, field.k
    if k == 1:
        a = np.arange(q, dtype=np.int64)
        return ((a[:, None] * a[None, :]) % p).astype(np.int32)
    d = _old_digits(field).astype(np.int64)
    conv = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            conv[:, :, i + j] += np.multiply.outer(d[:, i], d[:, j])
    red = np.zeros((2 * k - 1, k), dtype=np.int64)
    for e in range(k):
        red[e, e] = 1
    red[k:] = reduction_rows(field)
    digits = (conv.reshape(q * q, 2 * k - 1) @ red) % p
    return (digits @ _old_pvec(field).astype(np.int64)).reshape(q, q).astype(np.int32)


def old_inv_arr(mul):
    """The column of the 1 in each row of the multiplication table."""
    inv = (mul == 1).argmax(axis=1).astype(np.int32)
    inv[0] = -1
    return inv


def old_char_arr(field, mul, neg):
    """x^((q-1)/2) by square-and-multiply over the multiplication table."""
    e = (field.q - 1) // 2
    result = np.ones(field.q, dtype=np.int32)
    base = np.arange(field.q, dtype=np.int32)
    while e:
        if e & 1:
            result = mul[result, base]
        base = mul[base, base]
        e >>= 1
    minus_one = int(neg[1])
    out = np.where(result == 1, 1, np.where(result == minus_one, -1, 0))
    return out.astype(np.int8)


def scalar_primitive(field):
    """The replaced search for g: each candidate from rank p (1 when
    k = 1) tested on its own, x^(order/l) by square-and-multiply of its
    digit polynomial."""
    order = field.q - 1
    factors = field_module._prime_factors(order)
    return next(x for x in range(field.p if field.k > 1 else 1, field.q)
                if all(ScalarField.pow(field, x, order // ell) != 1 for ell in factors))


def old_logs(field):
    """The replaced exp/log builder: the primitive element searched from
    rank 1, and each doubling step's matrix rows made by k polynomial
    products, with one more product for the next power of g."""
    p, k, q = field.p, field.k, field.q
    order = q - 1
    factors = field_module._prime_factors(order)
    g = next(x for x in range(1, q)
             if all(ScalarField.pow(field, x, order // ell) != 1 for ell in factors))
    exp = np.empty(2 * order, dtype=np.int32)
    exp[0] = 1
    pvec = p ** np.arange(k)
    m, gm = 1, g
    while m < exp.size:
        rows = np.array([field.element_to_coeffs(ScalarField.mul(field, gm, p ** i))
                         for i in range(k)], dtype=np.int64)
        for lo in range(0, min(m, exp.size - m), 1 << 16):
            block = exp[lo:min(m, exp.size - m, lo + (1 << 16))]
            digits = block[:, None] // pvec % p
            exp[m + lo:m + lo + block.size] = digits @ rows % p @ pvec
        m, gm = 2 * m, ScalarField.mul(field, gm, gm)
    log = np.zeros(q, dtype=np.int32)
    log[exp[:order]] = np.arange(order, dtype=np.int32)
    return exp, log


def ref_has_root(coeffs, p):
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
               for x in range(p))


def old_prime_power_decompose(q):
    """The decomposition before prime exponents: the first exact k-th root
    that is_prime passes, for k = 1, 2, ... while 3^k <= q, refused past
    2^64 only once Miller-Rabin has passed it."""
    if not isinstance(q, int) or q < 3:
        raise NonOddPrimeError(f"{q} is not an odd prime power >= 3")
    if q % 2 == 0:
        raise NonOddPrimeError(f"{q} is even")
    k = 1
    while 3 ** k <= q:
        p = exact_module._integer_root(q, k)
        if p ** k == q and is_prime(p):
            if p >> 64:
                raise SizeCapError(f"{p} is past 2^64, where primality is not certified")
            return p, k
        k += 1
    raise NonOddPrimeError(f"{q} is not a prime power")


def decomposition(decompose, q):
    """The answer, or the class and message of the error."""
    try:
        return decompose(q)
    except KakeyaError as exc:
        return type(exc), str(exc)


def below_2_to_the_64():
    """Every q below 5000, primes and their powers at the edges of 2^64,
    perfect powers of composites, products of primes near 2^32, and seeded
    random odd q and random perfect powers below 2^64."""
    rng = np.random.default_rng(64)
    edge_primes = [p for top in (2 ** 64, 2 ** 32, 2642246, 65536, 7132, 2 ** 10)
                   for p in list(filter(is_prime, range(top - 1, top - 400, -2)))[:8]]
    qs = list(range(-2, 5000)) + [2 ** 64 - 1, 2 ** 64 - 59, 3 ** 40, 3 ** 40 - 2, 5 ** 27]
    qs += [p ** k for p in edge_primes for k in range(1, 64) if p ** k < 2 ** 64]
    qs += [b ** k for b in (15, 45, 105, 3 * 7 ** 2, 4095) for k in range(2, 41) if b ** k < 2 ** 64]
    qs += [4294967291 * 4294967279, 4294967291 ** 2 - 2, 2147483647 ** 2 * 3]
    qs += [int(x) | 1 for x in rng.integers(1 << 40, (1 << 63) - 1, 2000, dtype=np.int64)]
    bases = rng.integers(3, 200, 400)
    qs += [int(b) ** int(e) for b, e in zip(bases, rng.integers(2, 41, 400)) if int(b) ** int(e) < 2 ** 64]
    return qs


class TestPrimePowerDecompose:
    def test_equals_the_old_decomposition_below_2_to_the_64(self):
        qs = below_2_to_the_64()
        assert len(qs) > 7000 and max(qs) < 2 ** 64
        for q in qs:
            assert (decomposition(prime_power_decompose, q)
                    == decomposition(old_prime_power_decompose, q)), q
        assert prime_power_decompose(3 ** 5000) == (3, 5000)
        assert prime_power_decompose(4294967291 ** 2) == (4294967291, 2)

    @pytest.mark.parametrize("q", [10 ** 4299 + 7, 2 ** 11213 - 1, 3 ** 5000 * 5,
                                   (2 ** 64 + 13) ** 3],
                             ids=["composite", "prime", "smooth", "cube"])
    def test_huge_q_takes_few_roots_and_no_test_past_2_to_the_64(self, q, monkeypatch):
        # where the old loop took thousands of roots and a Miller-Rabin test
        # of q: 9 s for the composite and 38 s for the Mersenne prime
        roots, tested = [], []
        root, prime = exact_module._integer_root, exact_module.is_prime
        monkeypatch.setattr(exact_module, "_integer_root",
                            lambda m, k: roots.append(k) or root(m, k))
        monkeypatch.setattr(exact_module, "is_prime", lambda m: tested.append(m) or prime(m))
        with pytest.raises(SizeCapError, match="past 2\\^64"):
            prime_power_decompose(q)
        assert len(roots) < 64 and max(tested) < 2 ** 64

    def test_primes_and_powers(self):
        assert prime_power_decompose(3) == (3, 1)
        assert prime_power_decompose(27) == (3, 3)
        assert prime_power_decompose(121) == (11, 2)
        assert prime_power_decompose(343) == (7, 3)

    @pytest.mark.parametrize("bad", [1, 2, 4, 6, 8, 12, 15, 16, 100])
    def test_rejects_non_odd_prime_powers(self, bad):
        with pytest.raises(NonOddPrimeError):
            prime_power_decompose(bad)

    def test_large_powers_and_primes(self):
        assert prime_power_decompose(3 ** 39) == (3, 39)
        assert prime_power_decompose(3 ** 100) == (3, 100)
        assert prime_power_decompose(1000000000000000003) == (1000000000000000003, 1)
        assert prime_power_decompose(2147483647 ** 2) == (2147483647, 2)

    def test_product_of_two_primes_near_2_to_the_31(self):
        with pytest.raises(NonOddPrimeError, match="is not a prime power"):
            prime_power_decompose(2147483629 * 2147483647)

    @pytest.mark.parametrize("q", [2 ** 64 + 13, (2 ** 64 + 13) ** 3])
    def test_primes_past_2_to_the_64_are_not_vouched_for(self, q):
        with pytest.raises(SizeCapError):
            prime_power_decompose(q)

    @pytest.mark.parametrize("k", [40, 10 ** 9])
    def test_degree_past_the_field_cap_is_rejected_before_p_to_the_k(self, k):
        with pytest.raises(SizeCapError):
            Fq(3, k)


class TestModulus:
    def test_f9_modulus_frozen(self):
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_f27_modulus_frozen(self):
        assert make_field(3, 3).modulus == (1, 0, 2, 1)

    @pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (11, 2)])
    def test_modulus_is_lexicographically_first_irreducible(self, p, k):
        mod = smallest_irreducible(p, k)
        assert len(mod) == k + 1 and mod[-1] == 1
        assert not ref_has_root(mod, p)
        # everything strictly earlier in the (c0, ..., c_{k-1}) order has a root,
        # which for degree 2 and 3 is the whole story; degree > 3 not asserted here
        if k <= 3:
            body = mod[:-1]
            for code in range(sum(c * p**(k - 1 - i) for i, c in enumerate(body))):
                cand = tuple((code // p**(k - 1 - i)) % p for i in range(k)) + (1,)
                assert ref_has_root(cand, p), cand

    @pytest.mark.parametrize("p,k", [
        (p, k) for q in _odd_prime_powers_up_to(3 ** 10)
        for p, k in [prime_power_decompose(q)] if k >= 2])
    def test_search_skipping_c0_zero_equals_the_full_scan(self, p, k):
        assert smallest_irreducible(p, k) == full_scan_irreducible(p, k)

    @pytest.mark.parametrize("p,kmax", [(3, 6), (5, 4), (7, 3), (11, 3), (13, 2)])
    def test_rabin_test_equals_trial_division_on_every_monic(self, p, kmax):
        # both the Ben-Or test of the field and the Rabin oracle it replaced
        for k in range(1, kmax + 1):
            for code in range(p ** k):
                f = [(code // p ** i) % p for i in range(k)] + [1]
                want = trial_division_irreducible(f, p)
                assert scalar_module._is_irreducible(f, p) == want, f
                assert rabin_irreducible(f, p) == want, f

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_ben_or_equals_rabin_on_every_candidate_of_the_search(self, p):
        # every degree k >= 2 with p^k <= 2^63: 1872 candidates over the five p
        k = 2
        while p ** k <= FIELD_CAP:
            mod = smallest_irreducible(p, k)
            for code in range(p ** (k - 1), p ** k):
                f = [(code // p ** (k - 1 - i)) % p for i in range(k)] + [1]
                verdict = scalar_module._is_irreducible(f, p)
                assert verdict == rabin_irreducible(f, p), (k, f)
                if verdict:
                    break
            assert tuple(f) == mod
            k += 1

    def test_degree_20_modulus_is_found_fast(self):
        # the first irreducible by trial division, which took 2.6 s to find it
        want = (1,) + (0,) * 16 + (1, 0, 2, 1)
        assert smallest_irreducible(3, 20) == want

    def test_prime_field_has_no_modulus(self):
        assert make_field(7).modulus is None

    def test_moduli_up_to_3_10_are_frozen(self):
        digest = hashlib.sha256()
        for q in _odd_prime_powers_up_to(3 ** 10):
            p, k = prime_power_decompose(q)
            if k >= 2:
                digest.update(repr((p, k, smallest_irreducible(p, k))).encode())
        assert digest.hexdigest() == (
            "a48d70c0f575737d6164a5cf8d5e0683c33947bdb57fa1c972176331fa89f7de")


class TestPolynomialProduct:
    """ScalarField.mul and pow, the rank wrappers over the one polynomial
    product, against the reduction-row product they replaced."""

    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(243))
    def test_poly_mul_equals_the_reduction_rows_on_all_pairs(self, q):
        f = Fq(*prime_power_decompose(q))
        got = np.array([[ScalarField.mul(f, a, b) for b in f.elements()] for a in f.elements()])
        assert np.array_equal(got, old_mul_table(f))

    def test_poly_mul_and_pow_equal_the_reduction_rows_at_3_15(self):
        f = Fq(3, 15)
        rng = np.random.default_rng(315)
        for a, b in rng.integers(0, f.q, size=(500, 2)).tolist():
            assert ScalarField.mul(f, a, b) == reduction_row_mul(f, a, b), (a, b)
        for a, e in zip(rng.integers(0, f.q, size=20).tolist(), (0, 1, 2, 3, 7, 8, 242) * 3):
            want = 1
            for _ in range(e):
                want = reduction_row_mul(f, want, a)
            assert ScalarField.pow(f, a, e) == want, (a, e)
        assert "_logs" not in vars(f)

    def test_powmod_is_repeated_mulmod(self):
        f, p = [2, 0, 1, 1], 3  # t^3 + t^2 + 2 over F_3
        a = [1, 2, 1]
        want = [1]
        for e in range(30):
            assert scalar_module._poly_powmod(a, e, f, p) == want, e
            want = scalar_module._poly_mulmod(want, a, f, p)


class TestConstruction:
    def test_rejects_even_and_composite(self):
        with pytest.raises(NonOddPrimeError):
            Fq(2)
        with pytest.raises(NonOddPrimeError):
            Fq(2, 3)
        with pytest.raises(NonOddPrimeError):
            Fq(9)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            Fq(3, 0)

    def test_rejects_oversized_field(self):
        with pytest.raises(SizeCapError):
            Fq(3, 64)

    def test_size_cap_is_a_kakeya_error_and_overflow(self):
        try:
            Fq(3, 64)
        except SizeCapError as exc:
            assert isinstance(exc, KakeyaError)
            assert isinstance(exc, OverflowError)

    def test_make_field_caches(self):
        assert make_field(5) is make_field(5)
        assert make_field(3, 2) is not make_field(3, 3)


class TestScalarArithmetic:
    @pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
    def test_mul_matches_reference(self, p, k):
        f = make_field(p, k)
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == ref_mul(f, a, b), (a, b)

    def test_generator_rank_is_p(self):
        f9 = make_field(3, 2)
        assert f9.element_to_coeffs(3) == (0, 1)
        # t * t = -1 under t^2 + 1
        assert f9.mul(3, 3) == f9.neg(1) == 2

    @pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3)])
    def test_add_sub_neg(self, p, k):
        f = make_field(p, k)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0
            for b in f.elements():
                assert f.sub(f.add(a, b), b) == a

    @pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2)])
    def test_inverse(self, p, k):
        f = make_field(p, k)
        for a in f.units():
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_pow(self):
        f = make_field(3, 2)
        for a in f.units():
            assert f.pow(a, 8) == 1  # unit group has order q - 1
            acc = 1
            for e in range(9):
                assert f.pow(a, e) == acc
                acc = f.mul(acc, a)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0

    @pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", [np.int64, np.uint8])
    def test_numpy_integer_operands_give_python_int_answers(self, p, k, kind):
        """pow(a, e, p) at k = 1 takes no numpy integer; every rank check
        accepts one, so pow, inv and char read their operands as ints."""
        f = make_field(p, k)
        for a in f.elements():
            got = (f.pow(kind(a), kind(5)), f.pow(kind(a), -1) if a else None,
                   f.inv(kind(a)) if a else None, f.char(kind(a)))
            assert got == (f.pow(a, 5), f.pow(a, -1) if a else None,
                           f.inv(a) if a else None, f.char(a)), a
            assert all(type(v) is int for v in got if v is not None)
        with pytest.raises(TypeError):
            f.pow(1.5, 2)

    @pytest.mark.parametrize("p,k", [(1009, 1), (47, 2)])
    def test_table_entries_fed_back_give_python_int_answers(self, p, k):
        """Dense-table entries are TABLE_DTYPE scalars; add, sub and mul
        read them as ints, so a product past 2^15 does not wrap."""
        f = Fq(p, k)
        rng = np.random.default_rng(f.q)
        a, b = rng.integers(0, f.q, size=(2, 100))
        a[:2], b[:2] = f.q - 1, [f.q - 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in DENSE_TABLES:
                table = getattr(f, name)
                for x, y in zip(table[a, b], table[b, a]):
                    assert x.dtype == TABLE_DTYPE
                    got = (f.add(x, y), f.sub(x, y), f.mul(x, y))
                    want = (f.add(int(x), int(y)), f.sub(int(x), int(y)),
                            ref_mul(f, int(x), int(y)))
                    assert got == want and all(type(v) is int for v in got), (name, x, y)

    @pytest.mark.parametrize("p,k", [(251, 1), (3, 5)])
    def test_narrow_numpy_operands_do_not_wrap(self, p, k):
        f = make_field(p, k)
        u8 = np.uint8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if f.q == 251:  # each wrapped, with a RuntimeWarning, to 64, 44 and 4
                assert (f.mul(u8(200), u8(200)), f.add(u8(200), u8(100)),
                        f.sub(u8(1), u8(2))) == (91, 49, 250)
            for x, y in np.random.default_rng(f.q).integers(0, f.q, size=(200, 2)):
                got = (f.add(u8(x), u8(y)), f.sub(u8(x), u8(y)), f.mul(u8(x), u8(y)),
                       f.neg(u8(x)))
                want = (f.add(int(x), int(y)), f.sub(int(x), int(y)), f.mul(int(x), int(y)),
                        f.neg(int(x)))
                assert got == want and all(type(v) is int for v in got), (x, y)

    @pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2)])
    def test_coeff_codec_round_trip(self, p, k):
        f = make_field(p, k)
        for a in f.elements():
            cs = f.element_to_coeffs(a)
            assert len(cs) == k
            assert f.coeffs_to_element(cs) == a


class TestScalarFieldAgreesWithFq:
    """The numpy-free ScalarField against make_field's Fq: the scalar ops,
    which an Fq inherits, and the arrays of the Fq where they can be built
    (not past LOG_CAP_BYTES, at 3^15)."""

    @staticmethod
    def agree(p, k, pairs):
        s, f = ScalarField(p, k), make_field(p, k)
        assert type(s) is ScalarField and s == f and s.modulus == f.modulus
        a, b = np.array(pairs).T
        want = {"add": f.add_arrays(a, b), "sub": f.sub_arrays(a, b)}
        if f._logs_fit:
            want["mul"] = f.mul_arrays(a, b)
            assert s.smallest_nonsquare() == np.flatnonzero(f.char_arr == -1)[0]
        for name, arr in want.items():
            got = [getattr(s, name)(x, y) for x, y in pairs]
            assert got == arr.tolist() == [getattr(f, name)(x, y) for x, y in pairs], name
        assert s.smallest_nonsquare() == f.smallest_nonsquare()
        for x, y in pairs:  # exponents from -q/2 to q/2, and past q - 1
            for e in (y - s.q // 2, y + s.q):
                if x or e >= 0:
                    assert s.pow(x, e) == f.pow(x, e), (x, e)
        for x in sorted(set(a.tolist())):
            assert s.neg(x) == f.neg(x) == f.sub_arrays(0, x)
            assert s.char(x) == (f.char_arr[x] if f._logs_fit else f.char(x)), x
            if x:
                assert s.inv(x) == f.inv(x) == (f.inv_arr[x] if f._logs_fit else f.inv(x))

    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(81))
    def test_every_pair_up_to_81(self, q):
        p, k = prime_power_decompose(q)
        self.agree(p, k, [(x, y) for x in range(q) for y in range(q)])

    @pytest.mark.parametrize("p,k", [(3, 7), (5, 5), (47, 2), (1009, 1), (4093, 1), (3, 15)])
    def test_sampled_pairs(self, p, k):
        pairs = np.random.default_rng(p ** k).integers(0, p ** k, size=(300, 2)).tolist()
        self.agree(p, k, [(0, 0), (1, p ** k - 1)] + pairs)

    def test_past_the_log_byte_cap(self):
        f = make_field(3, 15)
        assert not f._logs_fit and "_logs" not in vars(f)


class TestRanksOutsideTheField:
    """Every scalar op refuses a rank outside [0, q) with one ValueError, on
    ScalarField and on Fq, read from the logs (3^6) or by polynomial
    products (3^15, past LOG_CAP_BYTES).  Unchecked, the digit loops kept
    k digits of such a rank and the log tables raised IndexError."""

    @pytest.mark.parametrize("build", [ScalarField, make_field])
    @pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (3, 6), (3, 15)])
    def test_every_op_refuses_a_rank_outside(self, build, p, k):
        f = build(p, k)
        q = f.q
        for bad in (q, q + 5, 2 * q, -1, np.int64(q), np.min_scalar_type(q).type(q)):
            calls = [("add", bad, 0), ("add", 0, bad), ("sub", bad, 1), ("sub", 1, bad),
                     ("mul", bad, 1), ("mul", 1, bad), ("pow", bad, 2), ("pow", bad, -1),
                     ("char", bad), ("neg", bad), ("inv", bad)]
            for name, *args in calls:
                with pytest.raises(ValueError, match=rf"^element rank {bad} outside \[0, {q}\)$"):
                    getattr(f, name)(*args)
        # the edges of [0, q) still answer
        assert f.add(q - 1, f.neg(q - 1)) == f.sub(0, 0) == f.mul(0, q - 1) == f.char(0) == 0
        assert f.pow(q - 1, q - 1) == f.mul(1, 1) == 1

    def test_the_cases_that_answered(self):
        # on F_3^6 these answered -1, 0 and 0; on F_9 mul raised IndexError
        for f in (ScalarField(3, 6), make_field(3, 6)):
            for call in (lambda: f.char(729), lambda: f.mul(729, 1), lambda: f.add(729, 0)):
                with pytest.raises(ValueError, match=r"^element rank 729 outside \[0, 729\)$"):
                    call()
        with pytest.raises(ValueError, match=r"^element rank 9 outside \[0, 9\)$"):
            make_field(3, 2).mul(9, 1)


class TestTables:
    @pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3), (5, 2)])
    def test_tables_match_scalar_ops(self, p, k):
        f = make_field(p, k)
        q = f.q
        for a in range(q):
            for b in range(q):
                assert f.add_table[a, b] == f.add(a, b)
                assert f.sub_table[a, b] == f.sub(a, b)
                assert f.mul_table[a, b] == ref_mul(f, a, b)
        for a in range(q):
            assert f.neg_arr[a] == f.neg(a)
            assert f.sq_arr[a] == ref_mul(f, a, a)
            if a:
                assert ref_mul(f, a, int(f.inv_arr[a])) == 1
        assert f.inv_arr[0] == -1

    @pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3), (5, 2), (7, 3)])
    def test_array_arithmetic_matches_tables(self, p, k):
        f = make_field(p, k)
        a = np.arange(f.q)
        assert np.array_equal(f.add_arrays(a[:, None], a[None, :]), f.add_table)
        assert np.array_equal(f.sub_arrays(a[:, None], a[None, :]), f.sub_table)

    def test_array_arithmetic_needs_no_tables(self):
        f = Fq(10007)
        assert f.sub_arrays([3, 10006], [5, 1]).tolist() == [10005, 10005]
        assert f.add_arrays(10006, 2) == 1
        assert "add_table" not in vars(f) and "sub_table" not in vars(f)

    # one chunk (27, 5^2), two equal chunks (3^6, 5^4), chunks of 4 and 3 digits (3^7)
    @pytest.mark.parametrize("p,k", [(3, 3), (5, 2), (3, 6), (3, 7), (5, 4)])
    def test_chunked_arithmetic_matches_tables_in_every_shape(self, p, k):
        f = Fq(p, k)
        m, _ = f._chunks
        assert m * m <= CHUNK_ENTRIES
        add, sub = f.add_table, f.sub_table
        rng = np.random.default_rng(f.q)
        a, b = rng.integers(0, f.q, size=(2, 300))
        col, row = a[:40, None], b[None, :50]
        for got, want in [
            (f.add_arrays(a, b), add[a, b]),                  # elementwise
            (f.sub_arrays(col, row), sub[col, row]),          # outer: a column, a row
            (f.sub_arrays(col, b[:50]), sub[col, b[:50]]),    # outer: a column, a vector
            (f.add_arrays(a[:6].reshape(2, 3), b[:3]), add[a[:6].reshape(2, 3), b[:3]]),
            (f.add_arrays(col[:5], row[:, :1]), add[col[:5], row[:, :1]]),
            (f.sub_arrays(7, a), sub[7, a]),
        ]:
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_digits_too_wide_for_a_chunk_table(self):
        f = Fq(257, 2)  # p^2 > CHUNK_ENTRIES: one digit at a time, mod p
        assert f._chunks == (257, None)
        rng = np.random.default_rng(257)
        a, b = rng.integers(0, f.q, size=(2, 200)).tolist()
        assert f.add_arrays(a, b).tolist() == [f.add(x, y) for x, y in zip(a, b)]
        assert f.sub_arrays(np.array(a)[:, None], b)[3].tolist() == [f.sub(a[3], y) for y in b]

    @pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3), (7, 2)])
    def test_mul_arrays_matches_the_table(self, p, k):
        f = Fq(p, k)
        a = np.arange(f.q)
        assert np.array_equal(f.mul_arrays(a[:, None], a), f.mul_table)
        assert f.mul_arrays(3, a).tolist() == f.mul_table[3].tolist()
        assert f.mul_arrays(0, 4) == 0 and f.mul_arrays(1, 4) == 4

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 4), (47, 2), (257, 1), (1009, 1),
                                     (3, 7)])
    def test_mul_table_by_row_blocks_equals_the_window_expression(self, p, k):
        f = Fq(p, k)
        got, want = f.mul_table, window_mul_table(f)  # want is int32, as exp is
        assert got.dtype == TABLE_DTYPE and np.array_equal(got, want)

    def test_mul_table_peak_is_one_table(self):
        # the window expression held two q x q int32 arrays, 36 MB at 3^7
        f = Fq(3, 7)
        f._logs
        peak = traced_peak(lambda: f.mul_table)
        assert peak < f.mul_table.nbytes + 2 * 2 ** 20, peak

    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(729) + [1009, 47 ** 2, 257, 3 ** 7])
    def test_row_built_digit_table_equals_the_broadcast(self, q):
        f = Fq(*prime_power_decompose(q))
        for sign in (1, -1):
            got, want = f._digit_table(sign, f.k), broadcast_digit_table(f, sign, f.k)
            assert got.dtype == TABLE_DTYPE and np.array_equal(got, want), sign

    # every width _chunks picks: 1..5 digits for p = 3, 1..3 for 5, 1..2 for
    # 7..13, 1 for 17..251, alone or as one of several chunks
    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 7), (5, 1),
                                     (5, 2), (5, 3), (5, 4), (7, 1), (7, 3), (11, 2),
                                     (13, 2), (17, 2), (251, 2)])
    def test_chunk_tables_equal_the_broadcast(self, p, k):
        f = Fq(p, k)
        m, tables = f._chunks
        c = next(c for c in range(1, k + 1) if p ** c == m)
        for sign in (1, -1):
            got, want = f._digit_table(sign, c), broadcast_digit_table(f, sign, c)
            assert got.dtype == TABLE_DTYPE and np.array_equal(got, want), sign
            assert tables[sign].dtype == np.int64 and np.array_equal(tables[sign], want), sign

    @pytest.mark.parametrize("p,k", [(1009, 1), (47, 2)])
    def test_sub_table_is_add_table_at_the_negatives(self, p, k):
        f = Fq(p, k)
        assert np.array_equal(f.sub_table, f.add_table[:, f.neg_arr])

    @pytest.mark.parametrize("p,k", [(1009, 1), (47, 2)])
    @pytest.mark.parametrize("name", ["add_table", "sub_table"])
    def test_digit_table_peak_is_one_table(self, p, k, name):
        # the broadcast build took an int32 % over all p^2 entries and two
        # more full passes, 7.8 MB above the table at 1009
        f = Fq(p, k)
        peak = traced_peak(lambda: getattr(f, name))
        assert peak < getattr(f, name).nbytes + 2 ** 20, peak

    def test_table_dtype_holds_every_rank_of_a_dense_table(self):
        # a dense table exists only for q <= isqrt(ARRAY_CAP); raising the
        # cap past what TABLE_DTYPE holds fails here instead of wrapping
        assert np.iinfo(TABLE_DTYPE).max >= math.isqrt(ARRAY_CAP) - 1
        f = Fq(3, 2)
        assert all(getattr(f, name).dtype == TABLE_DTYPE for name in DENSE_TABLES)

    def test_array_cap_is_checked_before_allocating(self):
        f = Fq(3, 2)
        f.require_array((ARRAY_CAP,))
        with pytest.raises(SizeCapError, match="array cap"):
            f.require_array((1 << 13, (ARRAY_CAP >> 13) + 1))
        big = np.zeros(1 << 14, dtype=np.int64)  # a 2^28-element outer sum
        for op in (f.add_arrays, f.sub_arrays, f.mul_arrays, Fq(10007).add_arrays):
            with pytest.raises(SizeCapError, match="array cap"):
                op(big[:, None], big)

    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(729))
    def test_tables_equal_the_replaced_builders(self, q):
        f = Fq(*prime_power_decompose(q))
        mul, sub = old_mul_table(f), old_sub_table(f)
        want = {
            "add_table": old_add_table(f),
            "sub_table": sub,
            "mul_table": mul,
            "neg_arr": sub[0].copy(),
            "inv_arr": old_inv_arr(mul),
            "sq_arr": np.diagonal(mul).copy(),
            "char_arr": old_char_arr(f, mul, sub[0]),
        }
        for name, ref in want.items():  # every oracle is int32 but char_arr's int8
            got = getattr(f, name)
            assert got.dtype == (TABLE_DTYPE if name in DENSE_TABLES else ref.dtype), name
            assert np.array_equal(got, ref), name

    @pytest.mark.parametrize("p,k", [(4093, 1), (3, 7), (4099, 1), (3, 8)])
    def test_length_q_answers_build_no_dense_table(self, p, k):
        f = Fq(p, k)
        for name in ("char_arr", "inv_arr", "sq_arr", "neg_arr"):
            assert getattr(f, name).shape == (f.q,)
        assert f.char(5) in (-1, 1)
        f.smallest_nonsquare()
        assert not {"add_table", "sub_table", "mul_table"} & set(vars(f))

    @pytest.mark.parametrize("p,k", [(3, 2), (3, 5), (7, 3), (5, 4)])
    def test_scalar_ops_from_logs_equal_the_polynomial_ones(self, p, k):
        # the arrays read from the logs against the polynomial scalar ops
        f = Fq(p, k)
        q, g = f.q, f.primitive
        exp = f._logs[0]
        assert exp[:q - 1].tolist() == [f.pow(g, i) for i in range(q - 1)]
        assert np.array_equal(exp[q - 1:], exp[:q - 1])
        assert f.inv_arr[1:].tolist() == [f.inv(a) for a in f.units()]
        pairs = np.random.default_rng(q).integers(0, q, size=(200, 2))
        want = [ref_mul(f, a, b) for a, b in pairs.tolist()]
        assert [f.mul(a, b) for a, b in pairs.tolist()] == want
        assert f.mul_arrays(pairs[:, 0], pairs[:, 1]).tolist() == want

    def test_scalar_ops_beyond_the_table_cap(self):
        f = Fq(3, 8)
        rng = np.random.default_rng(8)
        for a, b in rng.integers(1, f.q, size=(20, 2)).tolist():
            assert f.mul(a, b) == ref_mul(f, a, b)
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.q - 1) == 1
        assert f.mul(0, 5) == 0 and f.pow(0, 0) == 1
        with pytest.raises(SizeCapError, match="array cap"):
            Fq(3, 9).mul_table
        # the length-q arrays are bounded by the log byte cap, not the array cap
        assert [f.char(a) for a in range(60)] == f.char_arr[:60].tolist()

    def test_scalar_ops_past_the_table_cap_build_no_logs(self):
        f = Fq(3, 9)
        assert f.q ** 2 > ARRAY_CAP and 12 * f.q <= LOG_CAP_BYTES
        rng = np.random.default_rng(38)
        for a, b in rng.integers(0, f.q, size=(300, 2)).tolist():
            assert f.mul(a, b) == ScalarField.mul(f, a, b)
            for e in (0, 1, 81, (f.q - 1) // 2, f.q - 2, 2 * f.q + 3):
                assert f.pow(a, e) == ScalarField.pow(f, a, e), (a, e)
            if a:
                assert f.inv(a) == ScalarField.pow(f, a, f.q - 2)
                assert f.char(a) == (1 if ScalarField.pow(f, a, (f.q - 1) // 2) == 1 else -1)
        assert "_logs" not in vars(f)
        assert not {"add_table", "sub_table", "mul_table", "char_arr"} & set(vars(f))

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 4), (47, 2), (1009, 1), (3, 5), (5, 7)])
    def test_logs_equal_the_replaced_builder(self, p, k):
        # 5^7: exp has 156248 entries, past the 2^16-entry blocks
        f = Fq(p, k)
        for got, want in zip(f._logs, old_logs(f)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_primitive_is_the_least_rank_generator(self):
        assert Fq(5, 4).primitive == 30 and Fq(47, 2).primitive == 49
        assert Fq(3, 2).primitive == 4 and Fq(7).primitive == 3

    # 5^4 tests 25 candidates, so three batches of 8, 16 and 32
    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(729) + [1009, 47 ** 2, 3 ** 7, 5 ** 5,
                                                                  7 ** 4, 3 ** 8])
    def test_primitive_equals_the_scalar_search(self, q):
        f = Fq(*prime_power_decompose(q))
        assert f.primitive == scalar_primitive(f)

    # 3037000493^2 < 2^63, but 2 * 3037000492^2 is not: sums in Python ints
    @pytest.mark.parametrize("p,k", [(3, 1), (1009, 1), (3, 2), (5, 4), (3, 7), (47, 2),
                                     (3037000493, 2)])
    def test_mul_matrices_equal_the_polynomial_products(self, p, k):
        f = Fq(p, k)
        xs = [0, 1, p % f.q, f.q - 1, *np.random.default_rng(p).integers(0, f.q, 20).tolist()]
        mats = f._mul_matrices(xs)
        assert mats.dtype == (np.int64 if p < 2 ** 31 else object)
        for x, mat in zip(xs, mats):
            want = [list(f.element_to_coeffs(ScalarField.mul(f, x, p ** i))) for i in range(k)]
            assert [[int(v) for v in row] for row in mat] == want, x

    @pytest.mark.parametrize("p,k", [(3, 5), (7, 3), (5, 4), (3, 6), (47, 2)])
    def test_logs_polynomial_products_are_pinned(self, monkeypatch, p, k):
        # the builder that searched from rank 1 and made k + 1 products per
        # doubling step made 101, 214, 549, 146 and 697; the one that tested
        # candidates for g by polynomial powers, and made k products for the
        # matrix of g, 23, 75, 450, 49 and 62
        f, count = Fq(p, k), [0]  # the modulus search multiplies polynomials too
        mulmod = scalar_module._poly_mulmod

        def counted(*args):
            count[0] += 1
            return mulmod(*args)
        monkeypatch.setattr(scalar_module, "_poly_mulmod", counted)
        f._logs
        assert count[0] == 0

    def test_neg_arr_needs_no_chunk_table(self, monkeypatch):
        f = Fq(3, 5)
        assert f.neg_arr.dtype == np.int32
        assert "_chunks" not in vars(f)
        assert np.array_equal(f.neg_arr, f.sub_arrays(0, np.arange(f.q)))
        monkeypatch.setattr(field_module, "ARRAY_CAP", 3 ** 7 - 1)
        with pytest.raises(SizeCapError, match="array cap"):
            Fq(3, 7).neg_arr

    def test_scalar_ops_past_the_log_byte_cap_multiply_polynomials(self, monkeypatch):
        monkeypatch.setattr(field_module, "LOG_CAP_BYTES", 12 * 3 ** 8 - 1)
        f = Fq(3, 8)
        with pytest.raises(SizeCapError):
            f._logs
        rng = np.random.default_rng(8)
        for a, b in rng.integers(1, f.q, size=(20, 2)).tolist():
            assert f.mul(a, b) == ref_mul(f, a, b)
            assert f.mul(a, f.inv(a)) == 1
        assert f.char(f.smallest_nonsquare()) == -1

    @pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3)])
    def test_field_axioms(self, p, k):
        f = make_field(p, k)
        q = f.q
        A, M = f.add_table, f.mul_table
        assert np.array_equal(A, A.T)
        assert np.array_equal(M, M.T)
        assert np.array_equal(A[0], np.arange(q))
        assert np.array_equal(M[1], np.arange(q))
        assert np.array_equal(M[0], np.zeros(q, dtype=M.dtype))
        # associativity: (a op b) op c == a op (b op c)
        assert np.array_equal(A[A], A[:, A])
        assert np.array_equal(M[M], M[:, M])
        # distributivity, one scalar slice at a time
        for a in range(q):
            assert np.array_equal(M[a][A], A[np.ix_(M[a], M[a])])


class TestQuadraticCharacter:
    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
    def test_multiplicative(self, q):
        f = make_field(*prime_power_decompose(q))
        chi = f.char_arr
        assert chi[0] == 0
        assert np.array_equal(chi[f.mul_table], np.multiply.outer(chi, chi))

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49 + [81])
    def test_matches_square_image(self, q):
        f = make_field(*prime_power_decompose(q))
        squares = {int(f.sq_arr[x]) for x in f.units()}
        assert len(squares) == (q - 1) // 2
        for x in f.elements():
            want = 0 if x == 0 else (1 if x in squares else -1)
            assert f.char(x) == want
            assert int(f.char_arr[x]) == want

    def test_f9_squares_frozen(self):
        f9 = make_field(3, 2)
        squares = sorted({int(f9.sq_arr[x]) for x in range(9)})
        assert squares == [0, 1, 2, 3, 6]
        assert f9.smallest_nonsquare() == 4

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_49)
    def test_smallest_nonsquare_by_enumeration(self, q):
        f = make_field(*prime_power_decompose(q))
        first = next(x for x in f.elements() if f.char(x) == -1)
        assert f.smallest_nonsquare() == first

    @staticmethod
    def euler(f, a):
        """chi(a) = a^((q-1)/2) by polynomial products."""
        return 0 if a == 0 else (1 if ScalarField.pow(f, a, (f.q - 1) // 2) == 1 else -1)

    @pytest.mark.parametrize("q", [9, 27, 81, 243, 729, 25, 125, 625, 49, 343, 121, 169])
    def test_norm_character_is_euler_on_every_element(self, q):
        p, k = prime_power_decompose(q)
        want = [self.euler(ScalarField(p, k), a) for a in range(q)]
        for f in (ScalarField(p, k), make_field(p, k)):
            assert [f.char(a) for a in range(q)] == want, type(f)

    @pytest.mark.parametrize("k", [14, 15])  # 3^15 is past LOG_CAP_BYTES
    def test_norm_character_is_euler_on_sampled_elements(self, k):
        sample = np.random.default_rng(k).integers(1, 3 ** k, size=40).tolist()
        for f in (ScalarField(3, k), make_field(3, k)):
            assert [f.char(a) for a in sample] == [self.euler(f, a) for a in sample]
        assert "_logs" not in vars(make_field(3, k))

    def test_minus_one_character_by_congruence(self):
        # chi(-1) = 1 iff q = 1 mod 4
        for q in ODD_PRIME_POWERS_49:
            f = make_field(*prime_power_decompose(q))
            assert f.char(f.neg(1)) == (1 if q % 4 == 1 else -1)


class TestCeilSqrt:
    def test_small_values(self):
        assert ceil_sqrt(1) == 1
        assert ceil_sqrt(2) == 2
        assert ceil_sqrt(4) == 2
        assert ceil_sqrt(5) == 3
        assert ceil_sqrt(49) == 7
        assert ceil_sqrt(50) == 8

    def test_defining_property(self):
        for m in range(1, 500):
            s = ceil_sqrt(m)
            assert (s - 1) ** 2 < m <= s * s
