"""The explicit constructions: spherical (radius, center, hypersphere)
and circular (prime, square, odd prime power)."""

import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    hypersphere_points,
    norm,
    norm_profile,
    sphere_points,
    traced_peak,
    unique_sum_two_squares_covers,
)
from ffkakeya import (
    BadDimensionError,
    CircleSpec,
    Fq,
    HypersphereSpec,
    NonOddPrimeError,
    NotANonsquareError,
    NotASquareFieldError,
    PointSet,
    ScalarField,
    SphereSpec,
    UsageError,
    WrongDegreeError,
    center_spherical,
    circular_lower_bounds,
    circular_odd_power,
    circular_prime,
    circular_square,
    diff_cover,
    hypersphere_union,
    make_field,
    point_unrank,
    prime_power_decompose,
    radius_spherical,
    sum_cover,
    verify_center_kakeya,
    verify_intersection_lemma,
    verify_radius_kakeya,
    witness_from_json_dict,
    witness_valid,
)
from ffkakeya.constructions import _circular_witness, _result
from ffkakeya.exact import ceil_sqrt, is_prime
from ffkakeya.geometry import joint_norm_counts, level_order, origin_norm_profile, space_size
from ffkakeya.verification import _square_rows
from test_translation import per_entry_witness_valid

PRIMES_47 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
DENSE_TABLES = {"add_table", "sub_table", "mul_table"}


def clear_geometry_caches():
    """The profile caches are keyed by field equality, so a fresh field
    equal to a cached one would reuse work done with the cached one."""
    origin_norm_profile.cache_clear()
    level_order.cache_clear()
    joint_norm_counts.cache_clear()
    _square_rows.cache_clear()


class TestRadiusSpherical:
    @pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (9, 2)])
    def test_witness_and_union_structure(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        assert res.witness.kind == "radius"
        assert set(res.witness.entries) == set(f.units())
        rebuilt = PointSet.empty(f, n)
        for r, spec in res.witness.entries.items():
            assert spec.radius == r
            assert spec.center == (r,) + (0,) * (n - 1)
            rebuilt = rebuilt | sphere_points(f, spec)
        assert rebuilt == res.points
        assert res.witness_valid
        assert witness_valid(f, res.points, res.witness)

    @pytest.mark.parametrize("q,n,size", [(3, 2, 6), (3, 4, 42), (5, 4, 345),
                                          (7, 4, 1316), (9, 4, 3555)])
    def test_frozen_sizes(self, q, n, size):
        f = make_field(*prime_power_decompose(q))
        assert radius_spherical(f, n).size == size

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (7, 2)])
    def test_inclusion_exclusion_identity(self, q, n):
        res = radius_spherical(make_field(*prime_power_decompose(q)), n)
        acct = res.accounting
        singles = acct["sumSphereSizes"]
        ordered = acct["sumPairwiseIntersectionsOrdered"]
        assert acct["inclusionExclusionSize"] == singles - ordered // 2
        assert res.size == acct["inclusionExclusionSize"]

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (7, 2)])
    def test_pairwise_intersections_live_on_the_expected_hyperplane(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        half = f.inv(f.add(1, 1))
        for r, s in itertools.combinations(f.units(), 2):
            plane_x = f.mul(half, f.sub(f.add(r, s), 1))
            both = sphere_points(f, res.witness.entries[r]) & sphere_points(f, res.witness.entries[s])
            for rank in both.ranks():
                assert point_unrank(f, n, int(rank))[0] == plane_x

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (5, 3), (7, 2), (9, 2)])
    def test_triple_intersections_empty(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = radius_spherical(f, n)
        masks = {r: sphere_points(f, spec) for r, spec in res.witness.entries.items()}
        for r, s, t in itertools.combinations(f.units(), 3):
            assert (masks[r] & masks[s] & masks[t]).size == 0

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_meets_lower_bound_in_dimension_four(self, q):
        res = radius_spherical(make_field(*prime_power_decompose(q)), 4)
        assert res.bound_is_lower and res.bound_met

    def test_rejects_dimension_one(self):
        with pytest.raises(BadDimensionError):
            radius_spherical(make_field(3), 1)

    def test_multiplicity_memory_is_bounded(self):
        # the q x q discriminant in int64, beside the int64 temporary of its
        # prime-field sum, took 65 MB at q = 2053; blocks of 2^18 entries
        # leave the int8 table, the level table and the witness check's blocks
        f = Fq(2053)
        f._logs
        peak = traced_peak(lambda: radius_spherical(f, 2))
        assert peak < 32 * 2 ** 20, peak


class TestCenterSpherical:
    @pytest.mark.parametrize("q,n", [(5, 3), (5, 4), (7, 3), (9, 3), (11, 3)])
    def test_membership_rule_scalar_recheck(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = center_spherical(f, n)
        r = res.accounting["fixedNonsquareRadius"]
        assert f.char(r) == -1
        mask = np.zeros(space_size(f, n), dtype=bool)
        for rank in range(space_size(f, n)):
            vec = point_unrank(f, n, rank)
            tail = vec[1:]
            val = f.sub(r, norm(f, tail))
            mask[rank] = f.char(val) >= 0
        assert np.array_equal(mask, res.points.mask)

    @pytest.mark.parametrize("q,n", [(5, 3), (7, 3), (5, 5), (7, 4)])
    def test_witness_covers_every_first_coordinate(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = center_spherical(f, n)
        assert res.witness.kind == "center-coordinate"
        assert set(res.witness.entries) == set(f.elements())
        for c, spec in res.witness.entries.items():
            assert spec.center[0] == c
            assert sphere_points(f, spec).issubset(res.points)
        assert res.witness_valid

    def test_explicit_radius_must_be_a_nonsquare(self):
        f = make_field(5)
        with pytest.raises(NotANonsquareError):
            center_spherical(f, 3, r=1)
        with pytest.raises(NotANonsquareError):
            center_spherical(f, 3, r=0)
        res = center_spherical(f, 3, r=3)
        assert res.accounting["fixedNonsquareRadius"] == 3

    @pytest.mark.parametrize("r", [99, 7, -1, -4, 3.0, True])
    def test_radius_that_is_not_a_rank_raises(self, r):
        # -1 would wrap to the nonsquare rank 6 and build a set whose
        # witness the loader rejects; 99 would index past the tables
        with pytest.raises(ValueError, match="outside"):
            center_spherical(make_field(7), 3, r=r)

    @pytest.mark.parametrize("q", [5, 7, 9, 11])
    def test_five_dimensional_gap_is_small(self, q):
        res = center_spherical(make_field(*prime_power_decompose(q)), 5)
        main = (q**5 + q**4) // 2
        assert abs(res.size - main) <= 5 * q**3

    def test_rejects_dimension_one(self):
        with pytest.raises(BadDimensionError):
            center_spherical(make_field(5), 1)

    def test_plane_case_still_carries_a_valid_witness(self):
        res = center_spherical(make_field(5), 2)
        assert res.witness_valid

    def test_builds_no_dense_subtraction_table(self):
        for p, k in [(7, 1), (3, 2), (3, 3)]:
            clear_geometry_caches()
            field = Fq(p, k)  # a fresh instance: make_field's may hold tables already
            res = center_spherical(field, 3)
            assert not DENSE_TABLES & set(vars(field)), field
            assert res.witness_valid
            assert res.to_json_dict() == center_spherical(make_field(p, k), 3).to_json_dict()


class TestHypersphereUnion:
    @pytest.mark.parametrize("q,n", [(3, 3), (5, 3), (3, 4), (7, 3)])
    def test_equals_definitional_union(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = hypersphere_union(f, n)
        union = PointSet.empty(f, n)
        used = 0
        for a_rank in range(1, space_size(f, n)):
            a = point_unrank(f, n, a_rank)
            na = norm(f, a)
            if na == 0:
                continue
            used += 1
            h = HypersphereSpec(center=a, direction=a, radius=f.neg(na))
            union = union | hypersphere_points(f, h)
        assert union == res.points
        assert res.accounting["objectsUsed"] == used

    @pytest.mark.parametrize("q,n", [(3, 3), (5, 3), (3, 4), (5, 4), (7, 3), (7, 4)])
    def test_inside_null_quadric_and_below_upper_bound(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = hypersphere_union(f, n)
        norms = norm_profile(f, n)
        assert not norms[res.points.mask].any()
        assert res.accounting["allPointsNormZero"]
        assert res.accounting["nullQuadricSize"] == int((norms == 0).sum())
        bound = q ** (n - 1) + q ** (n // 2) - q ** ((n - 1) // 2)
        assert not res.bound_is_lower
        assert res.size <= bound and res.bound_met

    @pytest.mark.parametrize("q,n", [(3, 3), (5, 3), (3, 4)])
    def test_witness_radii_are_the_units(self, q, n):
        f = make_field(*prime_power_decompose(q))
        res = hypersphere_union(f, n)
        assert res.witness.kind == "hypersphere"
        assert set(res.witness.entries) == set(f.units())
        for r, spec in res.witness.entries.items():
            assert spec.radius == r
            assert hypersphere_points(f, spec).issubset(res.points)
        assert res.witness_valid

    def test_rejects_dimension_below_three(self):
        with pytest.raises(BadDimensionError):
            hypersphere_union(make_field(3), 2)


class TestCircularPrime:
    def test_frozen_small_primes(self):
        assert sorted(circular_prime(5).points.ranks().tolist()) == [0, 1, 2, 4]
        assert sorted(circular_prime(7).points.ranks().tolist()) == [0, 1, 2, 4]
        assert sorted(circular_prime(3).points.ranks().tolist()) == [0, 1]

    @pytest.mark.parametrize("p", PRIMES_47)
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_cover_and_size(self, p, variant):
        f = make_field(p)
        res = circular_prime(p, variant)
        ks = [int(x) for x in res.points.ranks()]
        cover = diff_cover(f, ks) if variant == "radius" else sum_cover(f, ks)
        assert cover
        assert res.size <= 2 * int(p**0.5) + 1 + 1  # nominal bound plus rounding slack
        assert res.size <= res.accounting["nominalSize"]
        assert res.witness_valid and res.bound_met
        lower = circular_lower_bounds(p)[0 if variant == "radius" else 1]
        assert res.size >= lower

    def test_rejects_non_prime(self):
        with pytest.raises(NonOddPrimeError):
            circular_prime(9)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            circular_prime(5, "sideways")


class TestCircularSquare:
    @pytest.mark.parametrize("q", [9, 25, 49, 81, 121, 169])
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_size_and_cover(self, q, variant):
        f = make_field(*prime_power_decompose(q))
        res = circular_square(f, variant)
        root = ceil_sqrt(q)
        assert root * root == q
        assert res.size == 2 * root - 1
        ks = [int(x) for x in res.points.ranks()]
        cover = diff_cover(f, ks) if variant == "radius" else sum_cover(f, ks)
        assert cover and res.witness_valid and res.bound_met

    def test_past_the_table_cap(self):
        # q = 3^8, past the old dense-table cap: the subfield scan reads the exp/log arrays
        f = make_field(3, 8)
        sub = [x for x in f.elements() if ScalarField.pow(f, x, 81) == x]
        want = sorted(set(sub) | {ScalarField.mul(f, 3, x) for x in sub})
        for variant, covers in (("radius", diff_cover), ("center", sum_cover)):
            res = circular_square(f, variant)
            assert res.points.ranks().tolist() == want
            assert res.size == 161 and covers(f, want) and res.witness_valid

    @pytest.mark.parametrize("q", sorted(p ** k for p in range(3, 82, 2) if is_prime(p)
                                         for k in range(2, 9, 2) if p ** k <= 3 ** 8))
    def test_subfield_equals_the_fixed_points_of_frobenius(self, q):
        # F_r, r^2 = q, read from the powers of g^((q-1)/(r-1)), against the
        # enumeration {x : x^r = x} it replaced
        f = make_field(*prime_power_decompose(q))
        r = ceil_sqrt(q)
        sub = [x for x in f.elements() if f.pow(x, r) == x]
        want = sorted(set(sub) | {f.mul(f.p, x) for x in sub})
        assert circular_square(f).points.ranks().tolist() == want

    def test_scalar_powers_per_call_do_not_grow_with_q(self, monkeypatch):
        counts, power = [], Fq.pow

        def counted(self, a, e):
            counts[-1] += 1
            return power(self, a, e)
        monkeypatch.setattr(Fq, "pow", counted)
        for p, k in ((3, 2), (3, 6), (3, 8), (5, 4)):
            counts.append(0)
            circular_square(make_field(p, k))
        assert counts == [1] * 4, counts

    def test_frozen_f9_set(self):
        # subfield F_3 = {0, 1, 2} plus its multiples by the generator
        res = circular_square(make_field(3, 2))
        assert sorted(res.points.ranks().tolist()) == [0, 1, 2, 3, 6]

    def test_rejects_odd_degree(self):
        with pytest.raises(NotASquareFieldError):
            circular_square(make_field(3, 3))
        with pytest.raises(NotASquareFieldError):
            circular_square(make_field(5))


class TestCircularOddPower:
    @pytest.mark.parametrize("q", [27, 125, 343])
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_size_formula_and_cover(self, q, variant):
        p, k = prime_power_decompose(q)
        f = make_field(p, k)
        res = circular_odd_power(f, variant)
        m = res.accounting["m"]
        assert k == 2 * m + 1
        kp_size = res.accounting["primeCoverSize"]
        assert res.size == (2 * p**m - 1) * kp_size
        assert (res.size - 2 * p**m) ** 2 < 16 * q
        ks = [int(x) for x in res.points.ranks()]
        cover = diff_cover(f, ks) if variant == "radius" else sum_cover(f, ks)
        assert cover and res.witness_valid and res.bound_met

    def test_frozen_f27_sizes(self):
        f = make_field(3, 3)
        assert circular_odd_power(f, "radius").size == 10
        assert circular_odd_power(f, "center").size == 15

    def test_rejects_wrong_degrees(self):
        with pytest.raises(WrongDegreeError):
            circular_odd_power(make_field(3, 2))
        with pytest.raises(WrongDegreeError):
            circular_odd_power(make_field(5, 1))


class TestCircularWindow:
    @pytest.mark.parametrize("build,args", [
        (circular_prime, (13, "radius")),
        (circular_prime, (47, "center")),
        (circular_square, (make_field(5, 2), "radius")),
        (circular_square, (make_field(3, 4), "center")),
        (circular_odd_power, (make_field(3, 3), "radius")),
        (circular_odd_power, (make_field(5, 3), "center")),
    ])
    def test_size_sits_in_the_sqrt_window(self, build, args):
        res = build(*args)
        q = res.field.q
        assert res.size * res.size >= q
        assert res.size * res.size < 36 * q
        assert res.bound_met


class TestCircularWitnesses:
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_entries_are_realized_circles(self, variant):
        f = make_field(13)
        res = circular_prime(13, variant)
        kind = "circular-radius" if variant == "radius" else "circular-center"
        assert res.witness.kind == kind
        keys = set(res.witness.entries)
        assert keys == (set(f.units()) if variant == "radius" else set(f.elements()))
        for key, spec in res.witness.entries.items():
            lo = f.sub(spec.center, spec.radius)
            hi = f.add(spec.center, spec.radius)
            assert res.points.mask[lo] and res.points.mask[hi]
            if variant == "radius":
                assert spec.radius == key
            else:
                assert spec.center == key

    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_result_at_100003_keeps_under_4_mib(self, variant):
        # the witness is three int64 columns of q entries, 2.3 MiB; one
        # CircleSpec per circle in a dict kept about 17 MiB
        circular_prime(100003, variant)  # per-field caches are not the result's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = circular_prime(100003, variant)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert res.witness_valid and kept < 4 * 2 ** 20, kept

    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_no_circle_object_until_entries_are_read(self, monkeypatch, variant):
        made = []
        make, new = CircleSpec._make, CircleSpec.__new__
        monkeypatch.setattr(CircleSpec, "_make",
                            classmethod(lambda cls, it: made.append(1) or make(it)))
        monkeypatch.setattr(CircleSpec, "__new__",
                            lambda cls, *a: made.append(1) or new(cls, *a))
        res = circular_prime(101, variant)
        witness = res.witness
        assert res.witness_valid and witness_valid(res.field, res.points, witness)
        witness.to_json_dict()
        assert made == [] and witness.columns.shape == (3, len(witness.columns[0]))
        entries = witness.entries
        assert len(made) == len(entries) and witness.entries is entries
        assert entries == {int(k): (v["center"], v["radius"])
                           for k, v in witness.to_json_dict()["entries"].items()}


# the six constructions over prime and extension fields, both variants
# where they apply
BUILDS = {
    "radius 7^3": lambda: radius_spherical(make_field(7), 3),
    "radius 9^2": lambda: radius_spherical(make_field(3, 2), 2),
    "center 5^4": lambda: center_spherical(make_field(5), 4),
    "center 9^5": lambda: center_spherical(make_field(3, 2), 5),
    "hypersphere 7^3": lambda: hypersphere_union(make_field(7), 3),
    "hypersphere 9^4": lambda: hypersphere_union(make_field(3, 2), 4),
    **{f"{name} {variant}": lambda b=build, v=variant: b(v)
       for name, build in (("prime 13", lambda v: circular_prime(13, v)),
                           ("square 5^2", lambda v: circular_square(make_field(5, 2), v)),
                           ("square 3^4", lambda v: circular_square(make_field(3, 4), v)),
                           ("odd power 3^3", lambda v: circular_odd_power(make_field(3, 3), v)),
                           ("odd power 5^3", lambda v: circular_odd_power(make_field(5, 3), v)))
       for variant in ("radius", "center")},
}


def bound_rule(size: int, q: int, bound, bound_is_lower: bool, circular: bool) -> bool:
    """At least a lower bound or at most an upper one; a circular cover
    also claims sqrt(q) <= size < 6 sqrt(q)."""
    met = size >= bound if bound_is_lower else size <= bound
    return met and (not circular or q <= size * size < 36 * q)


class TestResultBuilder:
    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS)
    def test_figures_are_recomputed_from_the_set_and_witness(self, build):
        res = build()
        assert res.size == res.points.size
        assert res.bound_met is bound_rule(res.size, res.field.q, res.bound, res.bound_is_lower,
                                           res.name.startswith("circular-"))
        assert res.bound_met
        assert res.witness_valid is bool(per_entry_witness_valid(res.field, res.points,
                                                                 res.witness)) is True

    @pytest.mark.parametrize("bound_is_lower", [True, False])
    def test_a_bound_is_met_on_its_side_only(self, bound_is_lower):
        res = hypersphere_union(make_field(5), 3)
        for bound in (res.size - 1, res.size, res.size + 1):
            got = _result(res.name, None, res.points, res.witness, res.main_terms,
                          Fraction(bound), bound_is_lower, {})
            assert got.bound_met is ((bound <= res.size) if bound_is_lower
                                     else (bound >= res.size))

    @pytest.mark.parametrize("q", [13, 37, 41])
    def test_a_cover_outside_the_sqrt_window_misses_the_bound(self, q):
        # all of F_q meets the lower bound, but q^2 >= 36 q once q >= 36
        f = make_field(q)
        witness = _circular_witness(f, list(range(q)), "radius")
        got = _result("circular-prime", "radius", PointSet.full(f, 1), witness,
                      (Fraction(q),), Fraction(ceil_sqrt(q)), True, {})
        assert got.witness_valid and got.size == q
        assert got.bound_met is (q < 36)
        # {0, 1} is below sqrt(q) for q > 4: not met even under a bound of 1
        pair = _result("circular-prime", "radius", PointSet.from_ranks(f, 1, [0, 1]), witness,
                       (Fraction(2),), Fraction(1), True, {})
        assert not pair.bound_met and not pair.witness_valid

    @pytest.mark.parametrize("p,k", [(3, 3), (3, 5), (5, 3), (7, 3)])
    @pytest.mark.parametrize("variant", ["radius", "center"])
    def test_odd_power_prime_block_is_the_prime_cover(self, monkeypatch, p, k, variant):
        ranks = circular_odd_power(make_field(p, k), variant).points.ranks()
        expected = circular_prime(p, variant).points.ranks()
        assert np.array_equal(ranks[ranks < p], expected)

        def no_prime_result(*args):
            raise AssertionError("circular_odd_power built a circular_prime result")
        monkeypatch.setattr("ffkakeya.constructions.circular_prime", no_prime_result)
        assert np.array_equal(circular_odd_power(make_field(p, k), variant).points.ranks(), ranks)

    @pytest.mark.parametrize("p,k,n", [(3, 1, 3), (5, 1, 3), (7, 1, 4), (3, 2, 3), (3, 2, 4),
                                       (5, 1, 5)])
    def test_hypersphere_centers_are_the_least_ranks_of_the_levels(self, p, k, n):
        f = make_field(p, k)
        res = hypersphere_union(f, n)
        least = {}
        for rank in range(f.q ** (n - 1)):
            least.setdefault(norm(f, point_unrank(f, n - 1, rank)), rank)
        for r, spec in res.witness.entries.items():
            center = point_unrank(f, n, least[f.neg(r)])
            assert spec.center == spec.direction == center
            assert all(type(c) is int for c in spec.center)


class TestResultSerialization:
    def test_json_dict_shape(self):
        res = radius_spherical(make_field(5), 2)
        d = res.to_json_dict()
        assert d["q"] == 5 and d["n"] == 2
        assert d["construction"] == "radius-spherical"
        assert d["size"] == len(d["ranks"]) == res.size
        assert d["boundMet"] is True and d["witnessValid"] is True
        assert d["predictedMainTerms"] == ["25/2", "5/2", "-1"]
        w = witness_from_json_dict(d["witness"])
        assert w == res.witness

    def test_witness_round_trip_all_kinds(self):
        cases = [
            radius_spherical(make_field(3), 2),
            center_spherical(make_field(5), 3),
            hypersphere_union(make_field(3), 3),
            circular_prime(7, "radius"),
            circular_prime(7, "center"),
        ]
        for res in cases:
            d = res.to_json_dict()
            w = witness_from_json_dict(d["witness"])
            assert w == res.witness
            f = res.field
            assert witness_valid(f, res.points, w)


    def test_constructions_build_entries_of_their_types(self):
        for res, spec_type in ((center_spherical(make_field(5), 3), SphereSpec),
                               (hypersphere_union(make_field(5), 3), HypersphereSpec),
                               (circular_prime(13, "radius"), CircleSpec)):
            assert {type(v) for v in res.witness.entries.values()} == {spec_type}

    def test_witness_points_are_json_lists(self):
        for res in (radius_spherical(make_field(3), 2), hypersphere_union(make_field(3), 3),
                    circular_prime(7, "center")):
            d = res.to_json_dict()
            assert json.loads(json.dumps(d)) == d
            for entry in d["witness"]["entries"].values():
                assert all(type(v) in (int, list) for v in entry.values())


# each entry type as a saved witness stores it, in F_5^3 (circles in F_5)
ENTRIES = {
    SphereSpec: ({"center": [1, 0, 0], "radius": 1}, SphereSpec((1, 0, 0), 1)),
    HypersphereSpec: ({"center": [1, 0, 0], "direction": [1, 0, 0], "radius": 1},
                      HypersphereSpec((1, 0, 0), (1, 0, 0), 1)),
    CircleSpec: ({"center": 1, "radius": 1}, CircleSpec(1, 1)),
}
KIND_TYPES = {"radius": SphereSpec, "center-coordinate": SphereSpec,
              "hypersphere": HypersphereSpec, "circular-radius": CircleSpec,
              "circular-center": CircleSpec}


class TestWitnessReader:
    @pytest.mark.parametrize("kind", KIND_TYPES)
    @pytest.mark.parametrize("spec_type", ENTRIES)
    def test_builds_the_type_its_kind_names(self, kind, spec_type):
        stored, spec = ENTRIES[spec_type]
        data = {"kind": kind, "entries": {"1": stored}}
        for args in ((make_field(5), 1 if spec_type is CircleSpec else 3), ()):
            if KIND_TYPES[kind] is spec_type:
                assert witness_from_json_dict(data, *args).entries == {1: spec}
            else:
                with pytest.raises(UsageError):
                    witness_from_json_dict(data, *args)

    @pytest.mark.parametrize("kind", ["bogus", "", "Radius", "circular"])
    def test_unknown_kind(self, kind):
        data = {"kind": kind, "entries": {"1": ENTRIES[SphereSpec][0]}}
        with pytest.raises(UsageError, match="witness kind"):
            witness_from_json_dict(data, make_field(5), 3)

    def test_entry_with_a_key_its_type_has_not(self):
        entry = dict(ENTRIES[SphereSpec][0], note=1)
        with pytest.raises(UsageError, match="'note'"):
            witness_from_json_dict({"kind": "radius", "entries": {"1": entry}})


def test_constructed_point_sets_are_read_only():
    f = make_field(3)
    for res in (radius_spherical(f, 3), center_spherical(f, 3),
                hypersphere_union(f, 3), circular_prime(7, "radius")):
        with pytest.raises(ValueError):
            res.points.mask[0] = not res.points.mask[0]


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (3, 3)])
def test_constructions_and_verifiers_build_no_dense_table(p, k):
    clear_geometry_caches()
    field = Fq(p, k)  # a fresh instance: make_field's may hold tables already
    results = [radius_spherical(field, 2), center_spherical(field, 2),
               radius_spherical(field, 3), center_spherical(field, 3),
               hypersphere_union(field, 3)]
    if k == 2:
        results += [circular_square(field, v) for v in ("radius", "center")]
    if k == 3:
        results += [circular_odd_power(field, v) for v in ("radius", "center")]
    for res in results:
        assert res.witness_valid and not DENSE_TABLES & set(vars(field)), res.name
        assert witness_valid(field, res.points, res.witness)
        if res.n > 1:
            radius = verify_radius_kakeya(res.points, budget=10 ** 9)
            center = verify_center_kakeya(res.points, budget=10 ** 9)
            assert {"radius-spherical": radius, "center-spherical": center}.get(res.name, True)
        else:
            (diff_cover if res.variant == "radius" else sum_cover)(field, res.points.ranks())
        assert not DENSE_TABLES & set(vars(field)), res.name
    assert verify_intersection_lemma(field, 2) == 2  # two circles meet in at most 2 points
    assert not DENSE_TABLES & set(vars(field))
    assert unique_sum_two_squares_covers(field)  # the oracle reads the dense table
