"""Bounds, exhaustive verification, witness checking, one-dimensional covers."""

import itertools
import json
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import norm, traced_peak, unique_sum_two_squares_covers
from ffkakeya import (
    BadDimensionError,
    BudgetExceededError,
    CircleSpec,
    HypersphereSpec,
    KakeyaWitness,
    NonOddPrimeError,
    PointSet,
    SizeCapError,
    SphereSpec,
    center_spherical,
    circular_lower_bounds,
    circular_odd_power,
    circular_prime,
    circular_square,
    diff_cover,
    exact_str,
    hypersphere_ranks,
    hypersphere_union,
    intersection_lemma_bound,
    make_field,
    point_rank,
    point_unrank,
    prime_power_decompose,
    radius_spherical,
    sphere_ranks,
    spherical_kakeya_lower_bound,
    sum_cover,
    verify_center_kakeya,
    verify_intersection_lemma,
    verify_radius_kakeya,
    witness_from_json_dict,
    witness_valid,
)
from ffkakeya.exact import DEFAULT_BUDGET
from ffkakeya.geometry import space_size
from ffkakeya.verification import _clean_ranks


def ref_sphere_ranks(field, center, radius, n):
    out = set()
    for point in itertools.product(field.elements(), repeat=n):
        diff = tuple(field.sub(x, c) for x, c in zip(point, center))
        if norm(field, diff) == radius:
            out.add(point_rank(field, point))
    return out


def ref_verify_radius(field, points):
    n = points.n
    ranks = set(int(r) for r in points.ranks())
    for radius in field.units():
        hit = False
        for crank in range(space_size(field, n)):
            center = point_unrank(field, n, crank)
            if ref_sphere_ranks(field, center, radius, n) <= ranks:
                hit = True
                break
        if not hit:
            return False
    return True


def ref_verify_center(field, points):
    n = points.n
    ranks = set(int(r) for r in points.ranks())
    seen_first = set()
    for crank in range(space_size(field, n)):
        center = point_unrank(field, n, crank)
        if any(ref_sphere_ranks(field, center, radius, n) <= ranks
               for radius in field.units()):
            seen_first.add(center[0])
    return seen_first == set(field.elements())


def five_term_bound(q, n):
    """The spherical lower bound as a sum of Fractions, term by term."""
    if n < 4:
        return Fraction(q ** n - q ** (n - 2), 4)
    e = (n - 1) // 2
    return (Fraction(q ** n, 2) + Fraction(q ** (n - 1), 2) - q ** (n - 2)
            - Fraction(q ** (e + 2), 2) + Fraction(q ** (e + 1), 2))


class TestLowerBound:
    @pytest.mark.parametrize("q,n,value", [
        (3, 2, 2), (5, 2, 6), (3, 3, 6), (7, 2, 12), (7, 3, 84),
        (3, 4, 36), (5, 4, 300), (7, 4, 1176), (9, 4, 3240),
    ])
    def test_frozen_values(self, q, n, value):
        report = spherical_kakeya_lower_bound(q, n)
        assert report.value == value
        assert report.ceiling == value

    def test_branches(self):
        assert spherical_kakeya_lower_bound(5, 2).branch == "n in {2,3}"
        assert spherical_kakeya_lower_bound(5, 3).branch == "n in {2,3}"
        assert spherical_kakeya_lower_bound(5, 4).branch == "n>=4"
        assert spherical_kakeya_lower_bound(5, 7).branch == "n>=4"

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 31])
    def test_one_fraction_equals_the_five_term_sum(self, q):
        for n in range(2, 41):
            assert spherical_kakeya_lower_bound(q, n).value == five_term_bound(q, n), n

    def test_formula_shape_for_high_dimension(self):
        for q in (3, 5, 9):
            for n in (4, 5, 6, 7):
                e = (n - 1) // 2
                want = (Fraction(q**n, 2) + Fraction(q**(n - 1), 2) - q**(n - 2)
                        - Fraction(q**(e + 2), 2) + Fraction(q**(e + 1), 2))
                assert spherical_kakeya_lower_bound(q, n).value == want

    def test_report_is_an_immutable_value(self):
        report = spherical_kakeya_lower_bound(9, 4)
        same = spherical_kakeya_lower_bound(9, 4)
        assert report == same and hash(report) == hash(same)
        assert report != spherical_kakeya_lower_bound(9, 3)
        assert len({report, same, spherical_kakeya_lower_bound(9, 3)}) == 2
        assert repr(report) == ("BoundReport(q=9, n=4, branch='n>=4', "
                                "value=Fraction(3240, 1))")
        assert pickle.loads(pickle.dumps(report)) == report
        with pytest.raises(AttributeError):
            report.value = Fraction(1)
        with pytest.raises(AttributeError):
            del report.q
        with pytest.raises(AttributeError):
            report.extra = 1
        assert report.value == 3240 and report.ceiling == 3240

    def test_validation(self):
        with pytest.raises(NonOddPrimeError):
            spherical_kakeya_lower_bound(15, 2)
        with pytest.raises(BadDimensionError):
            spherical_kakeya_lower_bound(5, 1)

    @pytest.mark.parametrize("q,last", [
        (3, 9012), (5, 6152), (7, 5088), (9, 4506), (11, 4129), (13, 3860),
        (25, 3076), (27, 3004), (31, 2883), (4093, 1190),
    ])
    def test_digit_cap_is_on_the_value(self, q, last):
        # at (5, 6152) q^n already has 4301 digits and the value 4300
        def numerator(n):
            e = (n - 1) // 2
            return (q**n + q**(n - 1) - 2 * q**(n - 2) - q**(e + 2) + q**(e + 1)) // 2

        assert numerator(last) < 10 ** 4300 <= numerator(last + 1)
        assert spherical_kakeya_lower_bound(q, last).value == numerator(last)
        assert numerator(last) == five_term_bound(q, last)
        with pytest.raises(SizeCapError, match="exceeds 4300 digits"):
            spherical_kakeya_lower_bound(q, last + 1)

    def test_digit_cap_rejects_a_huge_n_before_forming_q_to_the_n(self):
        with pytest.raises(SizeCapError, match=r"3\^1000000000 exceeds"):
            spherical_kakeya_lower_bound(3, 10 ** 9)

    def test_value_is_always_an_integer_here(self):
        for q in (3, 5, 7, 9, 11):
            for n in range(2, 8):
                v = spherical_kakeya_lower_bound(q, n).value
                assert v.denominator == 1


class TestCircularLowerBounds:
    @pytest.mark.parametrize("q,want", [
        (3, (2, 3)), (5, (3, 4)), (7, (3, 4)), (9, (3, 5)),
        (25, (5, 8)), (49, (7, 10)), (81, (9, 13)),
    ])
    def test_frozen(self, q, want):
        assert circular_lower_bounds(q) == want


class TestExactStr:
    def test_rendering(self):
        assert exact_str(Fraction(5, 2)) == "5/2"
        assert exact_str(Fraction(4, 2)) == "2"
        assert exact_str(Fraction(-5, 2)) == "-5/2"
        assert exact_str(Fraction(0)) == "0"
        assert exact_str(7) == "7"


class TestExhaustiveAgainstReference:
    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
    def test_random_sets_agree_with_scalar_reference(self, q, n):
        f = make_field(*prime_power_decompose(q))
        space = space_size(f, n)
        rng = np.random.default_rng(100 * q + n)
        for density in (0.55, 0.8, 0.95):
            for _ in range(8):
                mask = rng.random(space) < density
                points = PointSet(f, n, mask)
                assert verify_radius_kakeya(points) == ref_verify_radius(f, points)
                assert verify_center_kakeya(points) == ref_verify_center(f, points)

    def test_empty_and_full(self):
        f = make_field(3)
        assert not verify_radius_kakeya(PointSet.empty(f, 2))
        assert not verify_center_kakeya(PointSet.empty(f, 2))
        assert verify_radius_kakeya(PointSet.full(f, 2))
        assert verify_center_kakeya(PointSet.full(f, 2))

    def test_dimension_guard(self):
        f = make_field(3)
        with pytest.raises(BadDimensionError):
            verify_radius_kakeya(PointSet.empty(f, 1))

    @pytest.mark.parametrize("q,n", [(7, 2), (11, 2), (9, 2), (3, 3), (7, 3), (9, 3), (5, 4)])
    def test_center_verdict_reads_the_first_coordinate(self, q, n):
        # one sphere per a in F_q, of radius a mod (q - 1) + 1, centred at a
        # on coordinate axis j: the centres' first coordinates cover F_q
        # only for j = 0 and their last only for j = n - 1, so a centre
        # verdict read off any other axis of the scan's counts fails one of
        # the two.  Spheres inside are told one by one, by sphere_ranks.
        f = make_field(*prime_power_decompose(q))
        centers, firsts = [point_unrank(f, n, c) for c in range(q ** n)], {}
        for j in range(n):
            points = PointSet.from_ranks(f, n, np.concatenate([
                sphere_ranks(f, SphereSpec(tuple(a if i == j else 0 for i in range(n)),
                                           a % (q - 1) + 1)) for a in f.elements()]))
            inside = [(center, r) for center in centers for r in f.units()
                      if points.mask[sphere_ranks(f, SphereSpec(center, r))].all()]
            firsts[j] = {center[0] for center, _ in inside} == set(f.elements())
            assert verify_center_kakeya(points) == firsts[j], j
            assert verify_radius_kakeya(points) == ({r for _, r in inside} == set(f.units())), j
        assert firsts[0] and not firsts[n - 1]

    @pytest.mark.parametrize("q,n", [(11, 4), (7, 5)])
    def test_scan_memory_is_two_count_arrays(self, q, n):
        # a mask scan step holds the last step's counts and its own,
        # q^(n+1) counts each, and _add_square's buffer of 2^16 counts
        # (under one array here); a step that also held a contiguous copy
        # of the last counts, or a copy of G to read the verdict from, goes
        # past three arrays
        f = make_field(q)
        points = PointSet(f, n, np.random.default_rng(q * 100 + n).random(q ** n) < 0.5)
        counts = q ** (n + 1) * np.min_scalar_type(q ** n).itemsize
        for verify in (verify_radius_kakeya, verify_center_kakeya):
            verify(points)  # caches the row index of F_q
            peak = traced_peak(lambda: verify(points))
            assert peak < 3 * counts, (verify.__name__, peak, counts)


def _small_spaces():
    """Every (q, n) with q an odd prime power, n >= 2, q^n <= 3^6."""
    out = []
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        n = 2
        while q**n <= 729:
            out.append((q, n))
            n += 1
    return out


class TestWitnessAgainstExhaustive:
    @pytest.mark.parametrize("q,n", _small_spaces())
    def test_radius_construction_verifies_both_ways(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        assert verify_radius_kakeya(res.points, res.witness)
        assert verify_radius_kakeya(res.points)

    @pytest.mark.parametrize("q,n", _small_spaces())
    def test_center_construction_verifies_both_ways(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = center_spherical(f, n)
        assert verify_center_kakeya(res.points, res.witness)
        assert verify_center_kakeya(res.points)

    def test_wrong_witness_kind_fails(self):
        f = make_field(3)
        res = radius_spherical(f, 2)
        relabeled = KakeyaWitness("center-coordinate", dict(res.witness.entries))
        assert not verify_radius_kakeya(res.points, relabeled)

    def test_missing_entry_fails(self):
        f = make_field(5)
        res = radius_spherical(f, 2)
        entries = dict(res.witness.entries)
        del entries[2]
        assert not witness_valid(f, res.points, KakeyaWitness("radius", entries))

    def test_uncontained_sphere_fails(self):
        f = make_field(5)
        res = radius_spherical(f, 2)
        assert not witness_valid(f, PointSet.empty(f, 2), res.witness)

    def test_mislabeled_radius_key_fails(self):
        f = make_field(5)
        res = radius_spherical(f, 2)
        entries = dict(res.witness.entries)
        entries[1], entries[2] = entries[2], entries[1]
        assert not witness_valid(f, res.points, KakeyaWitness("radius", entries))

    def test_lookup_memory_is_bounded(self):
        # one lookup for all q - 1 radii at once holds (q - 1) x q int64
        # index arrays, 100 MB at q = 2053; blocks of 2^18 lookups hold a
        # few MB, and the mask-built copy adds its q^n-byte table gather
        f = make_field(2053)
        res = radius_spherical(f, 2)
        for points in (res.points, PointSet(f, 2, res.points.mask)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert witness_valid(f, points, res.witness)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 24 * 2 ** 20, peak


# each kind: the type of its entries, and whether its keys are centers
# (all of F_q) or radii (all of F_q^*)
KINDS = {
    "radius": (SphereSpec, "radius"),
    "center-coordinate": (SphereSpec, "center"),
    "hypersphere": (HypersphereSpec, "radius"),
    "circular-radius": (CircleSpec, "radius"),
    "circular-center": (CircleSpec, "center"),
}
GENUINE = {
    "radius": lambda: radius_spherical(make_field(5), 3),
    "center-coordinate": lambda: center_spherical(make_field(5), 3),
    "hypersphere": lambda: hypersphere_union(make_field(5), 3),
    "circular-radius": lambda: circular_prime(13, "radius"),
    "circular-center": lambda: circular_prime(13, "center"),
}


def keyed_entries(field, kind, spec_type):
    """One entry of spec_type per key of the kind, each certifying its key:
    centred at the key on the first axis for center kinds, of radius key
    otherwise.  Circles live in F_q, spheres and hyper-spheres in F_q^3."""
    by_center = KINDS[kind][1] == "center"

    def entry(key):
        a, r = (key, 1) if by_center else (0, key)
        if spec_type is CircleSpec:
            return CircleSpec(a, r)
        if spec_type is SphereSpec:
            return SphereSpec((a, 0, 0), r)
        return HypersphereSpec((a, 0, 0), (1, 0, 0), r)
    return {key: entry(key) for key in (field.elements() if by_center else field.units())}


def object_ranks(field, spec):
    if isinstance(spec, CircleSpec):
        return [field.add(spec.center, spec.radius), field.sub(spec.center, spec.radius)]
    if isinstance(spec, HypersphereSpec):
        return hypersphere_ranks(field, spec)
    return sphere_ranks(field, spec)


class TestWitnessKinds:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("spec_type", [SphereSpec, HypersphereSpec, CircleSpec])
    def test_every_kind_against_every_entry_type(self, kind, spec_type):
        field = make_field(5)
        witness = KakeyaWitness(kind, keyed_entries(field, kind, spec_type))
        n = 1 if spec_type is CircleSpec else 3
        fits = spec_type is KINDS[kind][0]
        assert witness_valid(field, PointSet.full(field, n), witness) == fits
        assert not witness_valid(field, PointSet.empty(field, n), witness)
        # circles are one-dimensional, spheres are not
        assert not witness_valid(field, PointSet.full(field, 4 - n), witness)
        unknown = KakeyaWitness("bogus", witness.entries)
        assert not witness_valid(field, PointSet.full(field, n), unknown)

    @pytest.mark.parametrize("kind", KINDS)
    def test_genuine_witness_missing_one_point(self, kind):
        res = GENUINE[kind]()
        field, points, witness = res.field, res.points, res.witness
        assert witness.kind == kind and witness_valid(field, points, witness)
        for other in KINDS.keys() - {kind}:
            assert not witness_valid(field, points, KakeyaWitness(other, witness.entries))
        for key, spec in witness.entries.items():
            ranks = object_ranks(field, spec)
            mask = points.mask.copy()
            mask[ranks[key % len(ranks)]] = False
            assert not witness_valid(field, PointSet(field, points.n, mask), witness), key


class TestMonotonicity:
    @pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2)])
    def test_adding_points_never_breaks_a_true_verdict(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        assert verify_radius_kakeya(res.points)
        rng = np.random.default_rng(17 * q + n)
        space = space_size(f, n)
        for _ in range(5):
            extra = rng.random(space) < 0.3
            bigger = PointSet(f, n, res.points.mask | extra)
            assert verify_radius_kakeya(bigger)
        resc = center_spherical(f, n)
        assert verify_center_kakeya(resc.points)
        for _ in range(5):
            extra = rng.random(space) < 0.3
            bigger = PointSet(f, n, resc.points.mask | extra)
            assert verify_center_kakeya(bigger)


class TestAffineInvariance:
    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
    def test_scaled_translated_image_still_verifies(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        rng = np.random.default_rng(q + n)
        space = space_size(f, n)
        for _ in range(4):
            c = int(rng.integers(1, f.q))
            t = tuple(int(x) for x in rng.integers(0, f.q, size=n))
            mask = np.zeros(space, dtype=bool)
            for rank in res.points.ranks():
                vec = point_unrank(f, n, int(rank))
                img = tuple(f.add(f.mul(c, x), ti) for x, ti in zip(vec, t))
                mask[point_rank(f, img)] = True
            assert verify_radius_kakeya(PointSet(f, n, mask))


class TestBudgets:
    def test_estimate_and_threshold(self):
        f = make_field(5)
        empty = PointSet.empty(f, 2)
        with pytest.raises(BudgetExceededError) as info:
            verify_radius_kakeya(empty, budget=1249)
        assert info.value.estimate == 1250  # n * q^(n+2)
        assert info.value.budget == 1249
        assert not verify_radius_kakeya(empty, budget=1250)

    def test_level_built_estimate_and_threshold(self):
        # a set from from_levels is scanned by classes, (q + 1) q^3 for any n
        f = make_field(5)
        for n in (2, 3, 5):
            points = radius_spherical(f, n).points
            with pytest.raises(BudgetExceededError) as info:
                verify_radius_kakeya(points, budget=749)
            assert info.value.estimate == 750  # (q + 1) q^3
            assert info.value.budget == 749
            assert verify_radius_kakeya(points, budget=750)
            assert not verify_center_kakeya(points, budget=750)
            assert points._mask is None  # the q^n mask was never formed

    def test_lemma_budget(self):
        f = make_field(3)
        with pytest.raises(BudgetExceededError):
            verify_intersection_lemma(f, 2, budget=10)
        f = make_field(5)
        with pytest.raises(BudgetExceededError) as info:
            verify_intersection_lemma(f, 3, budget=149)
        assert info.value.estimate == 6 * 5 ** 2  # (q + 1) q^2, the joint norm counts
        assert info.value.budget == 149
        assert verify_intersection_lemma(f, 3, budget=150) == 10


class TestIntersectionLemma:
    @pytest.mark.parametrize("q,n,observed", [(3, 2, 2), (3, 3, 6), (5, 2, 2), (5, 3, 10)])
    def test_scan_stays_below_bound(self, q, n, observed):
        f = make_field(*prime_power_decompose(q))
        best = verify_intersection_lemma(f, n)
        assert best == observed
        assert best <= intersection_lemma_bound(q, n)

    def test_11_to_the_4_under_the_default_budget(self):
        # the (0, c) pair scan needed 11^8 steps here, past DEFAULT_BUDGET
        assert 4 * 11 ** 5 <= DEFAULT_BUDGET < 11 ** 8
        best = verify_intersection_lemma(make_field(11), 4)
        assert best == 132 == intersection_lemma_bound(11, 4)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_maximum_against_the_bound(self, q):
        # observed: the bound is reached except at q = 3, n = 4, 8, 12
        f = make_field(*prime_power_decompose(q))
        for n in range(2, 13):
            if q ** n > 1 << 40:
                break
            shortfall = 3 ** (n // 2 - 1) if q == 3 and n % 4 == 0 else 0
            assert verify_intersection_lemma(f, n) == intersection_lemma_bound(q, n) - shortfall

    def test_bound_values(self):
        assert intersection_lemma_bound(3, 2) == 1 + 1
        assert intersection_lemma_bound(5, 3) == 5 + 5
        assert intersection_lemma_bound(7, 4) == 49 + 7


class TestOneDimensionalCovers:
    def test_diff_cover_cases(self):
        f = make_field(3)
        assert diff_cover(f, [0, 1])
        assert not diff_cover(f, [0])
        assert not diff_cover(f, [])
        assert diff_cover(f, [0, 0, 1])  # duplicates collapse

    def test_diff_cover_rejects_non_integer_ranks(self):
        # read as {0, 1}, [0.2, 1.9] would cover F_3
        with pytest.raises(ValueError):
            diff_cover(make_field(3), [0.2, 1.9])

    def test_sum_cover_cases(self):
        f = make_field(3)
        assert not sum_cover(f, [0, 1])
        assert sum_cover(f, [0, 1, 2])
        assert not sum_cover(f, [1])
        assert not sum_cover(f, [])

    def test_sum_cover_rejects_non_integer_ranks(self):
        # read as {0, 1, 2}, [0.5, 1.5, 2.5] would cover F_3
        with pytest.raises(ValueError):
            sum_cover(make_field(3), [0.5, 1.5, 2.5])

    def test_against_scalar_definition(self):
        f = make_field(7)
        rng = np.random.default_rng(3)
        for _ in range(40):
            size = int(rng.integers(0, 6))
            ks = sorted({int(x) for x in rng.integers(0, 7, size=size)})
            diffs = {f.sub(a, b) for a in ks for b in ks}
            sums = {f.add(a, b) for a, b in itertools.combinations(ks, 2)}
            assert diff_cover(f, ks) == (diffs == set(range(7)))
            assert sum_cover(f, ks) == (sums == set(range(7)))

    @pytest.mark.parametrize("q", [7, 9, 13])
    def test_affine_invariance_of_both_covers(self, q):
        f = make_field(*prime_power_decompose(q))
        rng = np.random.default_rng(q)
        for _ in range(25):
            size = int(rng.integers(0, q))
            ks = sorted({int(x) for x in rng.integers(0, q, size=size)})
            lam = int(rng.integers(1, q))
            c = int(rng.integers(0, q))
            image = [f.add(f.mul(lam, x), c) for x in ks]
            assert diff_cover(f, ks) == diff_cover(f, image)
            assert sum_cover(f, ks) == sum_cover(f, image)


# ---- oracles: the np.unique paths replaced by sorts and boolean marks ----

def unique_clean_ranks(field, elems):
    idx = np.asarray(elems if isinstance(elems, np.ndarray) else list(elems))
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"ranks must be integers, got dtype {idx.dtype}")
    ks = np.unique(idx).astype(np.int64)
    if ks.size and not (0 <= ks[0] and ks[-1] < field.q):
        raise ValueError("element rank out of range")
    return ks


def unique_diff_cover(field, elems):
    k = unique_clean_ranks(field, elems)
    return bool(k.size) and np.unique(field.sub_arrays(k[:, None], k[None, :])).size == field.q


def unique_sum_cover(field, elems):
    k = unique_clean_ranks(field, elems)
    if k.size < 2:
        return False
    sums = field.add_arrays(k[:, None], k[None, :])
    return np.unique(sums[~np.eye(k.size, dtype=bool)]).size == field.q


class TestMarksEqualUnique:
    @pytest.mark.parametrize("q", [3, 7, 9, 25, 27, 101])
    def test_ranks_and_covers(self, q):
        f = make_field(*prime_power_decompose(q))
        rng = np.random.default_rng(q)
        for trial in range(60):
            raw = rng.integers(0, q, size=int(rng.integers(0, 2 * q)))
            if trial % 3 == 1:
                raw = raw.astype(np.uint8 if q < 256 else np.int32)
            elems = raw.reshape(-1, 2) if trial % 4 == 2 and raw.size % 2 == 0 else raw
            got = _clean_ranks(f, elems)
            assert got.dtype == np.int64
            assert np.array_equal(got, unique_clean_ranks(f, elems))
            for ks in (elems, raw.tolist()):
                assert diff_cover(f, ks) == unique_diff_cover(f, ks)
                assert sum_cover(f, ks) == unique_sum_cover(f, ks)

    def test_small_set_in_a_large_field_allocates_nothing_of_order_q(self):
        f = make_field(1_000_000_007)
        ks = [10 ** 9, 0, 5, 1, 5]
        assert _clean_ranks(f, ks).tolist() == [0, 1, 5, 10 ** 9]
        assert not diff_cover(f, ks) and not sum_cover(f, ks)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 25, 27, 49, 81, 125])
    def test_sum_two_squares(self, q):
        f = make_field(*prime_power_decompose(q))
        assert unique_sum_two_squares_covers(f)

    @pytest.mark.parametrize("elems", [
        [-1, 0], [0, 7], [7], [3, -2, 9], np.array([0, 7], dtype=np.uint8),
        [0.5, 1.0], np.array([1.0, 2.0]), [True, False],
    ], ids=["negative", "q", "only-q", "both", "uint8-q", "float", "float-array", "bool"])
    def test_same_errors(self, elems):
        f = make_field(7)
        with pytest.raises(ValueError) as want:
            unique_clean_ranks(f, elems)
        for fn in (_clean_ranks, diff_cover, sum_cover):
            with pytest.raises(ValueError) as got:
                fn(f, elems)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


class TestHypersphereWitnessPath:
    def test_witness_valid_for_union(self):
        f = make_field(5)
        res = hypersphere_union(f, 3)
        assert witness_valid(f, res.points, res.witness)
        entries = dict(res.witness.entries)
        del entries[1]
        assert not witness_valid(f, res.points, KakeyaWitness("hypersphere", entries))


# ---- circle witnesses: columns, entries and JSON agree ----

CIRCLE_QS = [3, 5, 7, 11, 13, 101, 3 ** 2, 3 ** 4, 3 ** 3, 5 ** 3, 7 ** 3]


def circular_build(q):
    """The circular construction that applies at q, as variant -> result."""
    p, k = prime_power_decompose(q)
    if k == 1:
        return lambda v: circular_prime(p, v)
    build = circular_square if k % 2 == 0 else circular_odd_power
    return lambda v: build(make_field(p, k), v)


def as_entries(kind, columns):
    """The witness of plain dict entries that the columns (param, centre,
    radius) spell; a param repeated keeps its last entry."""
    return KakeyaWitness(kind, {key: CircleSpec._make((a, r))
                                for key, a, r in zip(*columns.tolist())})


def circle_tampers(field, points, kind, columns):
    """(name, tampered columns) for single changes that no cover survives:
    a key dropped or repeated, an entry copied under another key, the free
    field moved off the set, a zero radius, each field at rank q and -1,
    and the certified field changed."""
    q, certified = field.q, 2 if kind == "circular-radius" else 1
    free, mask, last = 3 - certified, points.mask, columns.shape[1] - 1

    def changed(column, row, value):
        out = columns.copy()
        out[row, column] = value
        return out

    out = [("drop", np.delete(columns, last, axis=1)),
           ("repeat key", changed(0, slice(None), columns[:, last])),
           ("copied entry", changed(0, slice(1, None), columns[1:, last])),
           ("zero radius", changed(0, 2, 0)),
           ("certified changed", changed(0, certified, columns[certified, last]))]
    out += [(f"row {row} at {value}", changed(i, row, value))
            for row in range(3) for value in (q, -1) for i in (0, last)]
    for x in field.elements():  # the free field of entry 0 moved off the set
        a, r = (x, columns[2, 0]) if free == 1 else (columns[1, 0], x)
        if r and not (mask[field.add(a, r)] and mask[field.sub(a, r)]):
            out.append(("off the set", changed(0, free, x)))
            break
    return out


@pytest.mark.parametrize("q", CIRCLE_QS)
@pytest.mark.parametrize("variant", ["radius", "center"])
def test_circle_witness_forms_agree_and_every_tamper_fails(q, variant):
    res = circular_build(q)(variant)
    field, points, witness = res.field, res.points, res.witness
    kind, columns = witness.kind, witness.columns
    assert not columns.flags.writeable and columns.dtype == np.int64
    assert (np.diff(columns[0]) > 0).all()  # sorted by param
    json_dict = witness.to_json_dict()
    plain = KakeyaWitness(kind, dict(witness.entries))
    loaded = witness_from_json_dict(json_dict, field, 1)
    for form in (witness, plain, loaded, pickle.loads(pickle.dumps(witness))):
        assert form == witness and form.to_json_dict() == json_dict
        assert witness_valid(field, points, form) is True
    assert witness.entries == plain.entries == dict(witness.entries)
    with pytest.raises(TypeError):
        witness.entries[0] = witness.entries[1]
    tampers = circle_tampers(field, points, kind, columns)
    assert {"off the set"} < {name for name, _ in tampers} or points.size == field.q
    for name, tampered in tampers:
        for form in (KakeyaWitness._adopt(kind, tampered), as_entries(kind, tampered)):
            assert witness_valid(field, points, form) is False, name
    entries = dict(witness.entries)
    for wrong in (tuple(entries[columns[0, 0]]), SphereSpec((0, 0), 1)):  # not a CircleSpec
        tampered = KakeyaWitness(kind, {**entries, int(columns[0, 0]): wrong})
        assert witness_valid(field, points, tampered) is False
    other = "circular-center" if kind == "circular-radius" else "circular-radius"
    for wrong in (other, "radius", "center-coordinate", "hypersphere", "bogus"):
        for form in (KakeyaWitness._adopt(wrong, columns.copy()),
                     KakeyaWitness(wrong, dict(witness.entries))):
            assert witness_valid(field, points, form) is False, wrong


# ---- sphere and hyper-sphere witnesses: formed late, written in the same bytes ----

def entries_built(res):
    """The witness of a spherical construction as entries, built one
    entry at a time from the construction's definition."""
    field, n, q = res.field, res.n, res.field.q
    tail = (0,) * (n - 1)
    if res.name == "radius-spherical":
        return KakeyaWitness("radius", {r: SphereSpec((r,) + tail, r) for r in field.units()})
    if res.name == "center-spherical":
        r = res.accounting["fixedNonsquareRadius"]
        return KakeyaWitness("center-coordinate",
                             {a: SphereSpec((a,) + tail, r) for a in field.elements()})
    norms = [norm(field, point_unrank(field, n, x)) for x in range(q ** n)]
    first = {r: point_unrank(field, n, norms.index(field.neg(r))) for r in field.units()}
    return KakeyaWitness("hypersphere", {r: HypersphereSpec(a, a, r) for r, a in first.items()})


SPHERE_BUILDS = {
    "radius 7^4": lambda: radius_spherical(make_field(7), 4),
    "radius 9^2": lambda: radius_spherical(make_field(3, 2), 2),
    "center 5^5": lambda: center_spherical(make_field(5), 5),
    "center 9^4": lambda: center_spherical(make_field(3, 2), 4),
    "hypersphere 7^4": lambda: hypersphere_union(make_field(7), 4),
    "hypersphere 9^4": lambda: hypersphere_union(make_field(3, 2), 4),
    "hypersphere 5^5": lambda: hypersphere_union(make_field(5), 5),
}


@pytest.mark.parametrize("build", SPHERE_BUILDS)
def test_sphere_column_witness_writes_the_bytes_of_its_entries(build):
    res = SPHERE_BUILDS[build]()
    witness, given = res.witness, entries_built(res)
    assert np.array_equal(given.columns, witness.columns)
    assert json.dumps(witness.to_json_dict()) == json.dumps(given.to_json_dict())
    assert witness == given and given == witness
    assert witness_from_json_dict(witness.to_json_dict(), res.field, res.n) == witness


@pytest.mark.parametrize("build", SPHERE_BUILDS)
def test_no_sphere_object_until_entries_are_read(monkeypatch, build):
    made = []
    for spec_type in (SphereSpec, HypersphereSpec):
        make, new = spec_type._make, spec_type.__new__
        monkeypatch.setattr(spec_type, "_make", classmethod(
            lambda cls, it, make=make: made.append(1) or make(it)))
        monkeypatch.setattr(spec_type, "__new__", lambda cls, *a, new=new, **kw: made.append(1)
                            or new(cls, *a, **kw))
    res = SPHERE_BUILDS[build]()
    witness = res.witness
    assert res.witness_valid and witness_valid(res.field, res.points, witness)
    json_dict = witness.to_json_dict()
    copied = pickle.loads(pickle.dumps(witness))
    assert made == [] and copied.columns is not None
    assert np.array_equal(copied.columns, witness.columns) and not copied.columns.flags.writeable
    entries = witness.entries
    assert len(made) == len(entries) and witness.entries is entries
    with pytest.raises(TypeError):
        entries[1] = entries[2]
    assert copied == witness and witness == KakeyaWitness(witness.kind, dict(entries))
    assert pickle.loads(pickle.dumps(KakeyaWitness(witness.kind, dict(entries)))) == witness
    assert witness_from_json_dict(json_dict, res.field, res.n) == witness


# ---- a witness given by entries: its columns formed once, at construction ----

GIVEN_SWEEP = {**SPHERE_BUILDS, **{f"circular-{variant} {q}": lambda q=q, v=variant:
                                   circular_build(q)(v)
                                   for q in CIRCLE_QS for variant in ("radius", "center")}}


def old_entries_json(kind, entries) -> dict:
    """The JSON of a witness written entry by entry from the entries it was
    given, each field by name and each point as a list, sorted by key: how
    such a witness was written before every witness held columns."""
    return {"kind": kind, "entries": {
        str(k): {name: list(v) if isinstance(v, tuple) else v
                 for name, v in spec._asdict().items()}
        for k, spec in sorted(entries.items())}}


@pytest.mark.parametrize("case", GIVEN_SWEEP)
def test_given_witness_holds_the_columns_of_the_constructed_one(case):
    res = GIVEN_SWEEP[case]()
    witness = res.witness
    text = json.dumps(witness.to_json_dict())
    for entries in (dict(witness.entries), dict(reversed(witness.entries.items()))):
        given = KakeyaWitness(witness.kind, entries)
        assert np.array_equal(given.columns, witness.columns), case
        assert given.columns.dtype == np.int64 and not given.columns.flags.writeable
        assert json.dumps(given.to_json_dict()) == json.dumps(
            old_entries_json(witness.kind, entries)) == text
        assert given == witness and witness_valid(res.field, res.points, given) is True
        with pytest.raises(TypeError):
            given.entries[int(witness.columns[0, 0])] = witness.entries[int(witness.columns[0, 1])]


@pytest.mark.parametrize("kind", KINDS)
def test_given_witness_keeps_the_entries_it_was_given(kind):
    res = GENUINE[kind]()
    field, points = res.field, res.points
    entries = dict(res.witness.entries)
    given = KakeyaWitness(kind, entries)
    first, second = sorted(entries)[:2]
    entries[first] = entries[second]  # certifies the wrong param
    assert not witness_valid(field, points, KakeyaWitness(kind, entries))
    del entries[second]
    assert given.entries == res.witness.entries and given == res.witness
    assert witness_valid(field, points, given) is True
    with pytest.raises(TypeError):
        given.entries[first] = entries[first]
    assert witness_valid(field, points, given) is True
    assert np.array_equal(given.columns, res.witness.columns)


@pytest.mark.parametrize("case", GIVEN_SWEEP)
def test_column_witnesses_compare_by_their_columns_alone(case):
    # two witnesses with columns are equal iff kind and columns are, and
    # comparing them forms no entries on either side
    res = GIVEN_SWEEP[case]()
    kind, columns = res.witness.kind, res.witness.columns
    given = KakeyaWitness(kind, dict(res.witness.entries))
    assert given == res.witness and res.witness == given
    first, second = (KakeyaWitness._adopt(kind, columns.copy()) for _ in range(2))
    assert first == second and second == first and given == first and first == given
    for row in range(len(columns)):
        tampered = columns.copy()
        tampered[row, 0] += 1
        assert first != KakeyaWitness._adopt(kind, tampered), (case, row)
    other = "radius" if kind != "radius" else "center-coordinate"
    assert first != KakeyaWitness._adopt(other, columns.copy())
    assert first._entries is None and second._entries is None and given._entries is None


def test_numpy_int_ranks_are_written_as_plain_ints():
    res = radius_spherical(make_field(5), 3)
    given = KakeyaWitness("radius", {
        np.int64(k): SphereSpec(tuple(map(np.int32, spec.center)), np.int16(spec.radius))
        for k, spec in res.witness.entries.items()})
    assert witness_valid(res.field, res.points, given) is True
    assert json.dumps(given.to_json_dict()) == json.dumps(res.witness.to_json_dict())


def test_a_witness_without_columns_is_not_written():
    res = radius_spherical(make_field(5), 3)
    entries = dict(res.witness.entries)
    ragged = {**entries, 1: SphereSpec._make(((1, 0), 1))}
    for kind, given in (("bogus", entries), ("circular-radius", entries), ("radius", {}),
                        ("radius", ragged), ("radius", {**entries, 1: True}),
                        ("radius", {**entries, 5.0: entries[1]})):
        witness = KakeyaWitness(kind, given)
        assert witness.columns is None and witness.entries == given
        assert not witness_valid(res.field, res.points, witness)
        with pytest.raises(ValueError, match="no columns"):
            witness.to_json_dict()
        assert pickle.loads(pickle.dumps(witness)) == witness
