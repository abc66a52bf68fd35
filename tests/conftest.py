"""Shared pytest wiring and oracles for the suite.

The acceptance tests record one verdict line per criterion; this hook
replays them in the terminal summary so they are visible even under
output capture.  One hypothesis profile is loaded for every run: it draws
the same examples each time and keeps no example database.  Hypothesis's
other files (a cache of the constants it reads from the source) go to a
temporary directory removed when the session ends, so no run writes
.hypothesis/ and no implicit cleanup warns at exit (CI runs with -W error).
"""

import itertools
import tempfile
import tracemalloc

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from ffkakeya import PointSet, diff_cover, hypersphere_ranks, sphere_ranks, sum_cover

acceptance_lines = []

settings.register_profile("ffkakeya", derandomize=True, deadline=None, database=None)
settings.load_profile("ffkakeya")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)


def is_rank(field, v) -> bool:
    """Whether v is an element rank of the field, an integer in [0, q): the
    one-value check that scalar.valid_ranks replaced."""
    return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
            and 0 <= v < field.q)


def is_point(field, n: int, vec) -> bool:
    """Whether vec is a point of F_q^n, a tuple or list of n element ranks:
    the one-value check that geometry.point_coordinates replaced."""
    return (isinstance(vec, (tuple, list)) and len(vec) == n
            and all(is_rank(field, v) for v in vec))


def norm(field, vec) -> int:
    """Sum of squared coordinates, one scalar field operation at a time."""
    acc = 0
    for v in vec:
        acc = field.add(acc, field.mul(v, v))
    return acc


def sum_profile(field, term_tables) -> np.ndarray:
    """Field-sum of per-coordinate terms, for every point of F_q^n at once.

    term_tables[i][v] is the rank of the term contributed by coordinate i
    taking the value of rank v.  The result maps every point rank to the
    rank of the sum of its coordinate terms, by a full enumeration of all
    q^n points, one coordinate digit at a time: the enumeration oracle of
    the profile layer."""
    add = field.add_table
    acc = np.zeros(1, dtype=np.int32)
    for table in term_tables:
        t = np.asarray(table, dtype=np.int32)
        if t.shape != (field.q,):
            raise ValueError("term table must have one entry per element")
        acc = add[t[:, None], acc[None, :]].reshape(-1)
    return acc


def norm_profile(field, n: int) -> np.ndarray:
    """Rank of ||x|| for every point rank x of F_q^n, by enumeration: the
    oracle of origin_norm_profile."""
    return sum_profile(field, [field.sq_arr] * n)


def sphere_points(field, sphere) -> PointSet:
    """The sphere as a point set of F_q^n, from its gathered ranks."""
    return PointSet.from_ranks(field, len(sphere.center), sphere_ranks(field, sphere))


def hypersphere_points(field, h) -> PointSet:
    """The hyper-sphere as a point set of F_q^n, from its gathered ranks."""
    return PointSet.from_ranks(field, len(h.center), hypersphere_ranks(field, h))


def unique_sum_two_squares_covers(field) -> bool:
    """Whether every element of F_q^* is a sum of two squares, by np.unique
    over the dense addition table: always so for odd q, since {x^2} and
    {a - y^2} each have (q + 1) / 2 elements and so meet."""
    sq = field.sq_arr
    attained = np.unique(field.add_table[sq[:, None], sq[None, :]])
    return set(range(1, field.q)) <= set(attained.tolist())


def exhaustive_cover_exists(field, kind: str, size: int) -> bool:
    """Whether any subset of the given size covers, by plain enumeration of
    all subsets with no normalization and no pruning: the oracle for the
    certified minimum of the exact search."""
    predicate = diff_cover if kind == "radius" else sum_cover
    return any(predicate(field, combo)
               for combo in itertools.combinations(range(field.q), size))


def enumerated_counts_by_rhs(field, coeffs):
    """Solution counts of sum a_i x_i^2 = b for every rhs b, by evaluating
    the form at every point of F_q^n through sum_profile and rows of
    mul_table and taking a histogram: the oracle for the partial-sum
    recurrence of diagonal_counts_by_rhs."""
    values = sum_profile(field, [field.mul_table[c][field.sq_arr] for c in coeffs])
    return np.bincount(values, minlength=field.q).astype(np.int64)


def traced_peak(fn) -> int:
    """Bytes that fn's Python and numpy allocations held at their peak,
    above what was held when it was called, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()
