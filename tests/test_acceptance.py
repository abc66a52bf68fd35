"""Acceptance suite.

Nine criteria, one test each, each printing a single
"[acceptance] criterion N (label): PASS|FAIL" line (visible with -s,
or in captured output otherwise).  Run as:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import itertools
import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import conftest

from ffkakeya import (
    DiagonalEq,
    PointSet,
    center_spherical,
    circular_lower_bounds,
    circular_odd_power,
    circular_prime,
    circular_square,
    diagonal_count_closed,
    diagonal_counts_by_rhs,
    diff_cover,
    greedy_circular,
    hypersphere_union,
    intersection_lemma_bound,
    make_field,
    minimal_circular_exact,
    prime_power_decompose,
    radius_spherical,
    sphere_intersection_size,
    spherical_kakeya_lower_bound,
    sum_cover,
    verify_center_kakeya,
    verify_intersection_lemma,
    verify_radius_kakeya,
    witness_valid,
)
from ffkakeya.exact import ceil_sqrt

SWEEP_Q = [3, 5, 7, 9, 11, 13, 25, 27]
SWEEP_N = [1, 2, 3, 4]
RANDOM_VECTORS_PER_CASE = 50
PRIMES_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
             53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
ODD_PRIME_POWERS_81 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41,
                       43, 47, 49, 53, 59, 61, 67, 71, 73, 79, 81]


def _report(line):
    print(line)
    conftest.acceptance_lines.append(line)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(f"[acceptance] criterion {num} ({label}): FAIL")
                raise
            _report(f"[acceptance] criterion {num} ({label}): PASS")
        return wrapper
    return deco


@pytest.fixture(scope="session")
def counting_sweep():
    """Every (q, n, coeffs, rhs, closed, enumerated, recurrence) record in
    the sweep: all-ones plus 50 seeded random nonzero coefficient vectors
    per case.  enumerated evaluates the form at every point of F_q^n;
    recurrence is the library's diagonal_counts_by_rhs."""
    records = []
    rng = np.random.default_rng(20260821)
    for q in SWEEP_Q:
        field = make_field(*prime_power_decompose(q))
        for n in SWEEP_N:
            vecs = [(1,) * n]
            for _ in range(RANDOM_VECTORS_PER_CASE):
                vecs.append(tuple(int(x) for x in rng.integers(1, q, size=n)))
            for coeffs in vecs:
                brute = conftest.enumerated_counts_by_rhs(field, coeffs)
                recurrence = diagonal_counts_by_rhs(field, coeffs)
                for rhs in range(q):
                    closed = diagonal_count_closed(field, DiagonalEq(coeffs, rhs))
                    records.append((q, n, coeffs, rhs, closed, int(brute[rhs]),
                                    int(recurrence[rhs])))
    return records


@criterion(1, "closed counting formulas match exhaustive enumeration")
def test_criterion_1_counting(counting_sweep):
    expected = (RANDOM_VECTORS_PER_CASE + 1) * sum(SWEEP_Q) * len(SWEEP_N)
    assert len(counting_sweep) == expected
    for q, n, coeffs, rhs, closed, brute, recurrence in counting_sweep:
        assert closed == brute, (q, n, coeffs, rhs, closed, brute)
        assert recurrence == brute, (q, n, coeffs, rhs, recurrence, brute)


@criterion(2, "sphere size deviation from q^(n-1) has the exact magnitude")
def test_criterion_2_magnitude(counting_sweep):
    for q, n, coeffs, rhs, closed, *_ in counting_sweep:
        main = q ** (n - 1)
        if rhs != 0:
            want = q ** ((n - 1) // 2)
        else:
            want = q ** (n // 2) - q ** ((n - 1) // 2)
        assert abs(closed - main) == want, (q, n, coeffs, rhs, closed)


@criterion(3, "distinct spheres never meet in more than q^(n-2) + q^((n-1)//2) points")
def test_criterion_3_intersection_lemma():
    for q, n in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        field = make_field(*prime_power_decompose(q))
        worst = verify_intersection_lemma(field, n)
        assert worst <= intersection_lemma_bound(q, n), (q, n, worst)
        # same center, different radius: always disjoint
        from ffkakeya import SphereSpec
        for r1, r2 in itertools.combinations(field.units(), 2):
            s1 = SphereSpec((0,) * n, r1)
            s2 = SphereSpec((0,) * n, r2)
            assert sphere_intersection_size(field, s1, s2) == 0


@criterion(4, "radius-spherical set contains a sphere of every radius and meets the bound")
def test_criterion_4_radius_construction():
    for q in (3, 5, 7, 9):
        field = make_field(*prime_power_decompose(q))
        for n in (2, 3, 4):
            res = radius_spherical(field, n)
            assert res.witness_valid
            assert witness_valid(field, res.points, res.witness)
            assert verify_radius_kakeya(res.points, res.witness)
            assert verify_radius_kakeya(res.points)  # exhaustive, no witness
            acct = res.accounting
            assert res.size == acct["sumSphereSizes"] - acct["sumPairwiseIntersectionsOrdered"] // 2
            masks = {r: conftest.sphere_points(field, spec)
                     for r, spec in res.witness.entries.items()}
            for a, b, c in itertools.combinations(field.units(), 3):
                assert (masks[a] & masks[b] & masks[c]).size == 0
            assert res.bound_met
            assert res.size >= spherical_kakeya_lower_bound(q, n).value


@criterion(5, "center-spherical set holds a sphere around every first coordinate at the predicted size")
def test_criterion_5_center_construction():
    constants = {}
    for q in (5, 7, 9, 11):
        field = make_field(*prime_power_decompose(q))
        for n in (3, 4, 5):
            res = center_spherical(field, n)
            assert res.witness_valid
            assert res.bound_met
            assert verify_center_kakeya(res.points, res.witness)
            if q ** n <= 15_000:
                assert verify_center_kakeya(res.points)
            if n == 5:
                main = Fraction(q**5 + q**4, 2)
                gap = abs(res.size - main)
                assert gap <= 5 * q**3, (q, gap)
                constants[q] = Fraction(gap, q**3)
    # the error stays a bounded multiple of q^(n-2)
    assert max(constants.values()) <= 5


@criterion(6, "hypersphere union stays inside the null quadric under the upper bound")
def test_criterion_6_hypersphere_union():
    for q in (3, 5, 7):
        field = make_field(*prime_power_decompose(q))
        for n in (3, 4):
            res = hypersphere_union(field, n)
            assert res.witness_valid
            norms = conftest.norm_profile(field, n)
            assert not norms[res.points.mask].any()
            bound = q ** (n - 1) + q ** (n // 2) - q ** ((n - 1) // 2)
            assert res.size <= bound
            assert res.bound_met and not res.bound_is_lower
    for q in ODD_PRIME_POWERS_81:
        field = make_field(*prime_power_decompose(q))
        assert conftest.unique_sum_two_squares_covers(field)


@criterion(7, "circular constructions cover all radii/centers at sqrt-scale size")
def test_criterion_7_circular():
    for p in PRIMES_97:
        field = make_field(p)
        for variant, cover in (("radius", diff_cover), ("center", sum_cover)):
            res = circular_prime(p, variant)
            ks = [int(x) for x in res.points.ranks()]
            assert cover(field, ks), (p, variant)
            assert res.size <= 2 * math.isqrt(p) + 1
            assert res.size * res.size >= p
            assert res.size * res.size < 36 * p
            assert res.witness_valid and res.bound_met
    for q in (9, 25, 49, 81):
        field = make_field(*prime_power_decompose(q))
        for variant, cover in (("radius", diff_cover), ("center", sum_cover)):
            res = circular_square(field, variant)
            assert res.size == 2 * ceil_sqrt(q) - 1
            assert cover(field, [int(x) for x in res.points.ranks()])
            assert res.witness_valid and res.bound_met
    for q in (27, 125):
        p, k = prime_power_decompose(q)
        field = make_field(p, k)
        m = (k - 1) // 2
        for variant, cover in (("radius", diff_cover), ("center", sum_cover)):
            res = circular_odd_power(field, variant)
            assert res.size == (2 * p**m - 1) * res.accounting["primeCoverSize"]
            assert (res.size - 2 * p**m) ** 2 < 16 * q
            assert cover(field, [int(x) for x in res.points.ranks()])
            assert res.witness_valid and res.bound_met


@criterion(8, "exact minimal cover sizes are certified by unpruned enumeration")
def test_criterion_8_search():
    for q in (3, 5, 7, 9, 11, 13):
        field = make_field(*prime_power_decompose(q))
        dmin, smin = circular_lower_bounds(q)
        for kind, cover, lower in (("radius", diff_cover, dmin),
                                   ("center", sum_cover, smin)):
            out = minimal_circular_exact(field, kind)
            assert out.certified
            assert out.size >= lower
            assert cover(field, list(out.example))
            assert conftest.exhaustive_cover_exists(field, kind, out.size)
            assert not conftest.exhaustive_cover_exists(field, kind, out.size - 1)
            greedy = greedy_circular(field, kind)
            assert greedy.size >= out.size
            assert cover(field, list(greedy.example))


@criterion(9, "command line produces deterministic verifiable artifacts")
def test_criterion_9_cli(tmp_path):
    cmd = [sys.executable, "-m", "ffkakeya"]

    def run(*args):
        return subprocess.run(cmd + list(args), capture_output=True, text=True)

    saved = tmp_path / "set.json"
    a = run("construct", "--p", "5", "--n", "3", "--which", "radius-spherical",
            "--out", str(saved))
    assert a.returncode == 0
    first = saved.read_bytes()
    assert run("construct", "--p", "5", "--n", "3", "--which", "radius-spherical",
               "--out", str(saved)).returncode == 0
    assert saved.read_bytes() == first

    v = run("verify", "--file", str(saved), "--property", "radius", "--mode", "witness")
    assert v.returncode == 0 and json.loads(v.stdout)["verdict"] is True
    v = run("verify", "--file", str(saved), "--property", "radius")
    assert v.returncode == 0

    data = json.loads(saved.read_text())
    data["ranks"] = data["ranks"][: len(data["ranks"]) // 2]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert run("verify", "--file", str(broken), "--property", "radius").returncode == 1

    assert run("construct", "--p", "2", "--n", "2",
               "--which", "radius-spherical").returncode == 2
    assert run("verify", "--file", str(saved), "--property", "radius",
               "--budget", "3").returncode == 3

    c = run("count", "--p", "3", "--k", "3", "--coeffs", "1,1", "--rhs", "0")
    assert c.returncode == 0 and json.loads(c.stdout)["agree"] is True

    r1 = run("report", "--which", "circular-prime", "--q-list", "3,5,7,11,13")
    r2 = run("report", "--which", "circular-prime", "--q-list", "3,5,7,11,13")
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    assert len(r1.stdout.splitlines()) == 11

    s = run("search", "--p", "13", "--kind", "center")
    assert s.returncode == 0 and json.loads(s.stdout)["certified"] is True
