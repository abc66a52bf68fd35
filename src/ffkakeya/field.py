"""Rank arrays and tables for F_q, q = p^k with p an odd prime.

Fq is scalar.ScalarField, whose module fixes the rank order and the
modulus and owns the scalar ops, plus the arrays that vectorized callers
read.  Fq overrides no scalar op: every scalar answer is ScalarField's,
and only the arrays read the logs.

Array multiplication is read from one pair of length-q arrays per field,
built lazily while they fit in LOG_CAP_BYTES (12 bytes per element, so q
up to about 5.6 million): exp[i] = g^i for the primitive element g of
least rank (Fq.primitive), and its inverse log.  exp is filled by
_fill_powers, which doubles a row of powers with the digit matrix of
g^m, squared each step; circular_square lists the subfield by it too.
The digit matrices of multiplication (_mul_matrices) also test a batch
of candidates for g at once.  inv_arr and sq_arr (int32, 4q bytes each),
char_arr (int8), mul_table and mul_arrays are gathers from exp and log.
Which g is used changes no output: only the tables and values derived
from exp and log are visible.  add_arrays and sub_arrays add rank
arrays for any q, and every other module adds through them: a chunk of c
base-p digits of both operands indexes one cached p^c x p^c table of
digitwise sums (at most CHUNK_ENTRIES entries), and an outer sum gathers
whole rows of it.  Those chunk tables and the dense q x q add_table and
sub_table come from one builder, _digit_table, which works by whole rows:
the p x p digit table is copied from windows of a cycle of the digits,
and each further digit adds one repeated row to a block of rows.
mul_table gathers windows of exp into the one table by row blocks.  The
three array ops and the three dense tables refuse an array of more than
ARRAY_CAP elements before allocating it, so a dense table exists only for
q <= 8192 and holds ranks below 8192: its entries are TABLE_DTYPE (int16,
2q^2 bytes a table).
"""

from __future__ import annotations

import functools
import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import SizeCapError
from .scalar import ScalarField

LOG_CAP_BYTES = 64 << 20  # largest exp/log pair, 12 bytes per element
ARRAY_CAP = 1 << 26  # most elements in one rank array or dense table (512 MB of int64)
CHUNK_ENTRIES = 1 << 16  # most entries in one digit-chunk table of add/sub_arrays
# dtype of the dense q x q tables: ARRAY_CAP lets them exist only for
# q <= isqrt(ARRAY_CAP) = 8192, so every entry is a rank below 8192
TABLE_DTYPE = np.int16


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


class Fq(ScalarField):
    """F_q with rank arrays and tables for vectorized callers.  The dense
    q x q tables need q <= 8192 (ARRAY_CAP); the scalar methods work for
    any supported q.  Use make_field() for a cached instance."""

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

    # ---- length-q arrays and dense q x q tables (vectorized callers) ----

    @property
    def _logs_fit(self) -> bool:
        """Whether the exp/log pair, 12 bytes per element, fits LOG_CAP_BYTES."""
        return 12 * self.q <= LOG_CAP_BYTES

    @cached_property
    def primitive(self) -> int:
        """The least rank x with x^(order/l) != 1 for each prime l | order,
        a generator of the unit group: from rank p when k > 1, since each
        element of F_p has order dividing p - 1 < q - 1.  For k > 1 the
        candidates are tested in batches, 8 and then twice as many each
        time: the digit matrices of x, x^2, x^4, ... of the whole batch
        are squared together, and each exponent order/l multiplies its
        digit row of x^(order/l) by the squares of its set bits."""
        p, k, order = self.p, self.k, self.q - 1
        exps = [order // ell for ell in _prime_factors(order)]
        if k == 1:
            return next(x for x in range(1, p) if all(pow(x, e, p) != 1 for e in exps))
        lo, size = p, 8
        while True:
            xs = np.arange(lo, min(lo + size, self.q))
            squares = self._mul_matrices(xs)
            powers = np.zeros((xs.size, len(exps), k), dtype=squares.dtype)
            powers[..., 0] = 1  # the digits of 1
            for j in range(max(exps).bit_length()):
                if j:
                    squares = squares @ squares % p
                bits = [i for i, e in enumerate(exps) if e >> j & 1]
                if bits:
                    powers[:, bits] = powers[:, bits] @ squares % p
            is_one = (powers[..., 0] == 1) & ~powers[..., 1:].any(axis=2)
            hit = np.flatnonzero(~is_one.any(axis=1))
            if hit.size:
                return int(xs[hit[0]])
            lo, size = lo + size, 2 * size

    def _mul_matrices(self, xs) -> np.ndarray:
        """The k x k digit matrix of multiplication by each rank of xs: row
        i holds the digits of x t^i, so a row of digits times it is the
        product by x.  It is the sum over the digits x_j of x_j times the
        matrix of t^j, a power of the companion matrix of the modulus.  A
        sum of k products of digits is exact in int64 while k (p-1)^2 <
        2^63, so for every p below 2^31, and taken in Python ints past it."""
        p, k = self.p, self.k
        dtype = np.int64 if k * (p - 1) ** 2 < 1 << 63 else object
        powers = [np.eye(k, dtype=dtype)]
        if k > 1:
            shift = np.eye(k, k, 1, dtype=dtype)  # row i: the digits of t^(i+1)
            shift[-1] = [-c % p for c in self.modulus[:-1]]
            for _ in range(k - 1):
                powers.append(powers[-1] @ shift % p)
        digits = np.asarray(xs).astype(dtype)[:, None] // p ** np.arange(k) % p
        return (digits @ np.stack(powers).reshape(k, k * k) % p).reshape(-1, k, k)

    def _fill_powers(self, x: int, out: np.ndarray) -> None:
        """Set out[..., i] = out[..., 0] * x^i in place along the last axis.
        It doubles, out[..., m:2m] = out[..., :m] * x^m, by the k x k matrix
        of multiplication by x^m on digit vectors (row i the digits of
        x^m t^i), squared for x^(2m), so no step takes a polynomial product."""
        p, n = self.p, out.shape[-1]
        pvec = p ** np.arange(self.k)
        rows = self._mul_matrices([x])[0]
        m = 1
        while m < n:
            # in chunks, so the digit matrices stay small whatever q is
            for lo in range(0, min(m, n - m), 1 << 16):
                block = out[..., lo:min(m, n - m, lo + (1 << 16))]
                digits = block[..., None] // pvec % p
                out[..., m + lo:m + lo + block.shape[-1]] = digits @ rows % p @ pvec
            m, rows = 2 * m, rows @ rows % p

    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) with exp[i] = g^i for 0 <= i < 2(q-1), g = primitive,
        and log[exp[i]] = i for i < q-1.  exp is twice the group order
        long, so exp[log[a] + log[b]] needs no mod.  log[0] is 0: every
        caller handles the zero element itself."""
        if not self._logs_fit:
            raise SizeCapError(f"q = {self.q} exceeds the exp/log cap of "
                               f"{LOG_CAP_BYTES >> 20} MB")
        order = self.q - 1
        exp = np.empty(2 * order, dtype=np.int32)
        exp[0] = 1
        self._fill_powers(self.primitive, exp)
        log = np.zeros(self.q, dtype=np.int32)
        log[exp[:order]] = np.arange(order, dtype=np.int32)
        return exp, log

    def _digit_table(self, sign: int, digits: int) -> np.ndarray:
        """The p^digits square table of a + sign * b, TABLE_DTYPE, built by whole
        rows.  Row a of the p x p digit table is the window at a of the
        cycle 0, 1, ..., p-1, 0, ..., p-1 for sums, and the window at a + 1
        reversed for differences.  With m = p^i, the rows with digit i zero
        add the table for the digits below i to row 0 of the digit table
        times m; the block of each other digit a_i adds to them the row
        (digit[a_i] - digit[0]) * m, each entry repeated m times, several
        blocks a call while their rows fit in about 2^14 entries."""
        p = self.p
        cycle = np.arange(2 * p, dtype=TABLE_DTYPE) % p
        # the p + 1 windows of length p, the last ending at 2p - 1; the checks
        # of sliding_window_view cost more than a small chunk table
        windows = as_strided(cycle, (p + 1, p), cycle.strides * 2)
        digit = (windows[:p] if sign == 1 else windows[1:, ::-1]).copy()
        out = digit
        for i in range(1, digits):
            m, low = p ** i, out
            out = np.empty((p * m, p * m), dtype=TABLE_DTYPE)
            first = out[:m]
            np.add(low[:, None, :], (digit[0] * m)[None, :, None], out=first.reshape(m, p, m))
            shift = (digit - digit[0]) * m
            step = max(1, (1 << 14) // (p * m))
            for lo in range(1, p, step):
                hi = min(lo + step, p)
                np.add(first, np.repeat(shift[lo:hi, None, :], m, axis=2),
                       out=out[lo * m:hi * m].reshape(hi - lo, m, p * m))
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
        """-a for every rank a, int32, one base-p digit negated a pass."""
        self.require_array((self.q,))
        ranks, p = np.arange(self.q, dtype=np.int32), self.p
        return sum(-(ranks // p ** i) % p * p ** i for i in range(self.k))

    @cached_property
    def mul_table(self) -> np.ndarray:
        self.require_array((self.q, self.q))
        exp, log = self._logs
        # row a in log order is the window exp[log a : log a + q], gathered
        # from a TABLE_DTYPE copy of exp into the one table by blocks of
        # about 2^16 entries.  Every log is below q - 1, so mode="wrap"
        # never wraps an index; unlike the default "raise" it writes into
        # out without a buffer.
        windows = sliding_window_view(exp.astype(TABLE_DTYPE), self.q)
        out = np.empty((self.q, self.q), dtype=TABLE_DTYPE)
        rows = max(1, (1 << 16) // self.q)
        for lo in range(0, self.q, rows):
            np.take(windows[log[lo:lo + rows]], log, axis=1, out=out[lo:lo + rows], mode="wrap")
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


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> Fq:
    """Cached constructor for F_(p^k)."""
    return Fq(p, k)

