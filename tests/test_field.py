"""Field layer: moduli, arithmetic tables, quadratic character.

Reference values here are either computed by the independent scalar
oracles below or asserted directly when trivial.  The dense-table builders
that the exp/log tables replaced are kept below as the oracle for them,
and so are the one-expression exp/log product table, the oracle of its
row blocks, and the reduction-row product, the oracle of Fq._poly_mul.
"""

import hashlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import traced_peak
import ffkakeya.field as field_module
from ffkakeya import (
    Fq,
    KakeyaError,
    NonOddPrimeError,
    SizeCapError,
    ceil_sqrt,
    make_field,
    prime_power_decompose,
    smallest_irreducible,
)
from ffkakeya.field import ARRAY_CAP, CHUNK_ENTRIES, LOG_CAP_BYTES

ODD_PRIME_POWERS_49 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49]


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
            if not field_module._poly_rem(f, g, p):
                return False
    return True


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


def ref_has_root(coeffs, p):
    return any(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
               for x in range(p))


class TestPrimePowerDecompose:
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
        for k in range(1, kmax + 1):
            for code in range(p ** k):
                f = [(code // p ** i) % p for i in range(k)] + [1]
                assert field_module._is_irreducible(f, p) == trial_division_irreducible(f, p), f

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
    """Fq._poly_mul and _poly_pow, the rank wrappers over the one polynomial
    product, against the reduction-row product they replaced."""

    @pytest.mark.parametrize("q", _odd_prime_powers_up_to(243))
    def test_poly_mul_equals_the_reduction_rows_on_all_pairs(self, q):
        f = Fq(*prime_power_decompose(q))
        got = np.array([[f._poly_mul(a, b) for b in f.elements()] for a in f.elements()])
        assert np.array_equal(got, old_mul_table(f))

    def test_poly_mul_and_pow_equal_the_reduction_rows_at_3_15(self):
        f = Fq(3, 15)
        rng = np.random.default_rng(315)
        for a, b in rng.integers(0, f.q, size=(500, 2)).tolist():
            assert f._poly_mul(a, b) == reduction_row_mul(f, a, b), (a, b)
        for a, e in zip(rng.integers(0, f.q, size=20).tolist(), (0, 1, 2, 3, 7, 8, 242) * 3):
            want = 1
            for _ in range(e):
                want = reduction_row_mul(f, want, a)
            assert f._poly_pow(a, e) == want, (a, e)
        assert "_logs" not in vars(f)

    def test_powmod_is_repeated_mulmod(self):
        f, p = [2, 0, 1, 1], 3  # t^3 + t^2 + 2 over F_3
        a = [1, 2, 1]
        want = [1]
        for e in range(30):
            assert field_module._poly_powmod(a, e, f, p) == want, e
            want = field_module._poly_mulmod(want, a, f, p)


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

    @pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2)])
    def test_coeff_codec_round_trip(self, p, k):
        f = make_field(p, k)
        for a in f.elements():
            cs = f.element_to_coeffs(a)
            assert len(cs) == k
            assert f.coeffs_to_element(cs) == a


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

    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 4), (47, 2), (257, 1), (1009, 1)])
    def test_mul_table_by_row_blocks_equals_the_window_expression(self, p, k):
        f = Fq(p, k)
        got, want = f.mul_table, window_mul_table(f)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_mul_table_peak_is_one_table(self):
        # the window expression held two q x q int32 arrays, 36 MB at 3^7
        f = Fq(3, 7)
        f._logs
        peak = traced_peak(lambda: f.mul_table)
        assert peak < f.mul_table.nbytes + 2 * 2 ** 20, peak

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
        for name, ref in want.items():
            got = getattr(f, name)
            assert got.dtype == ref.dtype, name
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
        f = Fq(p, k)
        q = f.q
        for a in f.elements():
            for e in (0, 1, 2, (q - 1) // 2, q - 1, 3 * q + 5):
                assert f.pow(a, e) == f._poly_pow(a, e), (a, e)
            if a:
                assert f.inv(a) == f._poly_pow(a, q - 2)
        rng = np.random.default_rng(q)
        for a, b in rng.integers(0, q, size=(200, 2)).tolist():
            assert f.mul(a, b) == ref_mul(f, a, b) == f._poly_mul(a, b)

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

    def test_scalar_ops_past_the_table_cap_read_the_logs(self):
        f = Fq(3, 9)
        assert f.q ** 2 > ARRAY_CAP and 12 * f.q <= LOG_CAP_BYTES
        rng = np.random.default_rng(38)
        for a, b in rng.integers(0, f.q, size=(300, 2)).tolist():
            assert f.mul(a, b) == f._poly_mul(a, b)
            for e in (0, 1, 81, (f.q - 1) // 2, f.q - 2, 2 * f.q + 3):
                assert f.pow(a, e) == f._poly_pow(a, e), (a, e)
            if a:
                assert f.inv(a) == f._poly_pow(a, f.q - 2)
                assert f.char(a) == (1 if f._poly_pow(a, (f.q - 1) // 2) == 1 else -1)
        assert "_logs" in vars(f)
        assert not {"add_table", "sub_table", "mul_table", "char_arr"} & set(vars(f))

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
