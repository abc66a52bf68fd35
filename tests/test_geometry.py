"""Point spaces, spheres, and diagonal equation counting.

The scalar loops in this file are deliberately naive; they are the
reference the vectorized library code is checked against.
"""

import itertools

import numpy as np
import pytest

from conftest import (
    enumerated_counts_by_rhs,
    hypersphere_points,
    norm,
    norm_profile,
    sphere_points,
    unique_sum_two_squares_covers,
)
from ffkakeya import (
    BadDimensionError,
    CircleSpec,
    DiagonalEq,
    Fq,
    HypersphereSpec,
    IdenticalSpheresError,
    PointSet,
    ScalarField,
    SizeCapError,
    SphereSpec,
    UsageError,
    ZeroCoefficientError,
    ZeroDirectionError,
    ZeroRadiusError,
    diagonal_count_bruteforce,
    diagonal_count_closed,
    diagonal_counts_by_rhs,
    make_field,
    point_rank,
    point_unrank,
    prime_power_decompose,
    radius_spherical,
    sphere_intersection_size,
)
from ffkakeya.geometry import POINT_CAP, space_size

ODD_PRIME_POWERS_27 = [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27]


def dot(field, u, v):
    """Scalar dot product of two points."""
    if len(u) != len(v):
        raise ValueError("length mismatch")
    acc = 0
    for a, b in zip(u, v):
        acc = field.add(acc, field.mul(a, b))
    return acc


def canonical_direction(field, direction):
    """Scale a nonzero direction so its first nonzero coordinate is 1;
    proportional directions give the same hyper-sphere."""
    direction = tuple(direction)
    for d in direction:
        if d:
            s = field.inv(d)
            return tuple(field.mul(s, c) for c in direction)
    raise ZeroDirectionError("direction must be nonzero")


def ref_diagonal_count(field, coeffs, rhs):
    """Triple-nested scalar count, no numpy."""
    n = len(coeffs)
    total = 0
    for point in itertools.product(field.elements(), repeat=n):
        acc = 0
        for c, x in zip(coeffs, point):
            acc = field.add(acc, field.mul(c, field.mul(x, x)))
        if acc == rhs:
            total += 1
    return total


def ref_sphere(field, center, radius, n):
    pts = set()
    for point in itertools.product(field.elements(), repeat=n):
        diff = tuple(field.sub(x, c) for x, c in zip(point, center))
        if norm(field, diff) == radius:
            pts.add(point_rank(field, point))
    return pts


class TestRanks:
    @pytest.mark.parametrize("p,k,n", [(5, 1, 3), (3, 2, 2), (3, 1, 4)])
    def test_rank_unrank_bijection(self, p, k, n):
        f = make_field(p, k)
        seen = set()
        for r in range(space_size(f, n)):
            vec = point_unrank(f, n, r)
            assert len(vec) == n
            assert point_rank(f, vec) == r
            seen.add(vec)
        assert len(seen) == f.q ** n

    @pytest.mark.parametrize("rank", [-1, 9, 100])
    def test_unrank_rejects_ranks_outside_the_space(self, rank):
        with pytest.raises(ValueError, match="outside"):
            point_unrank(make_field(3), 2, rank)

    def test_first_coordinate_is_least_significant(self):
        f = make_field(5)
        assert point_rank(f, (2, 0, 0)) == 2
        assert point_rank(f, (0, 3, 0)) == 15
        assert point_unrank(f, 3, 17) == (2, 3, 0)

    @pytest.mark.parametrize("vec,bad", [((1.5, 0), "1.5"), ((True, 2), "True"), (("1", 0), "1"),
                                         ((0, np.True_), "True"), ((None, 0), "None"),
                                         (((1,), 0), r"\(1,\)")])
    def test_rank_rejects_coordinates_that_are_no_integers(self, vec, bad):
        # (1.5, 0) ranked as 1, (True, 2) as 11, and ("1", 0) raised TypeError
        with pytest.raises(ValueError, match=rf"^coordinate rank {bad} outside \[0, 5\)$"):
            point_rank(make_field(5), vec)

    @pytest.mark.parametrize("vec,bad", [((5, 0), 5), ((0, -1), -1), ((2 ** 70,), 2 ** 70),
                                         ((np.uint8(9), 0), 9), ((1, 7, 9), 7)])
    def test_rank_keeps_its_out_of_range_message(self, vec, bad):
        with pytest.raises(ValueError, match=rf"^coordinate rank {bad} outside \[0, 5\)$"):
            point_rank(make_field(5), vec)

    @pytest.mark.parametrize("rank", [2.5, 2.0, True, np.True_, "7", None, [7]])
    def test_unrank_takes_integer_ranks_only(self, rank):
        # 2.5 gave (2.0, 0.0) and True gave (1, 0)
        with pytest.raises(ValueError, match=r"outside \[0, 5\^2\)"):
            point_unrank(make_field(5), 2, rank)

    @pytest.mark.parametrize("rank", [7, np.int64(7), np.uint8(7)])
    def test_unrank_returns_python_ints(self, rank):
        vec = point_unrank(make_field(5), 2, rank)
        assert vec == (2, 1) and all(type(v) is int for v in vec)

    def test_numpy_scalar_coordinates_rank_in_python_ints(self):
        # 5^4 = 625 does not fit a uint8: in the coordinate's own type it raised
        assert point_rank(make_field(5), (np.uint8(4),) * 7) == 5 ** 7 - 1
        assert point_rank(make_field(5), (np.int64(4),) * 7) == 5 ** 7 - 1

    def test_membership_of_numpy_scalar_points_equals_python_ints(self):
        f = make_field(5)
        points = radius_spherical(f, 4).points
        members = points.ranks()[-200:].tolist()
        outside = np.flatnonzero(~points.mask)[-50:].tolist()
        for r in members + outside:
            point = point_unrank(f, 4, r)
            want = r in members
            assert (point in points) is want
            for kind in (np.uint8, np.int64):
                assert (tuple(map(kind, point)) in points) is want, (kind, point)

    def test_space_size_guards(self):
        f = make_field(3)
        with pytest.raises(BadDimensionError):
            space_size(f, 0)
        with pytest.raises(SizeCapError):
            space_size(f, 100)

    @pytest.mark.parametrize("n", [26, 41, 10 ** 9, 10 ** 100])
    def test_space_size_rejects_huge_n_at_once(self, n):
        with pytest.raises(SizeCapError, match=rf"^q\^n = 3\^{n} exceeds the point cap 2\^40$"):
            space_size(make_field(3), n)


class TestSpecValidation:
    def test_sphere_needs_dimension_two(self):
        with pytest.raises(BadDimensionError):
            SphereSpec(center=(1,), radius=1)

    def test_sphere_rejects_zero_radius(self):
        with pytest.raises(ZeroRadiusError):
            SphereSpec(center=(0, 0), radius=0)

    def test_hypersphere_rejects_zero_direction(self):
        with pytest.raises(ZeroDirectionError):
            HypersphereSpec(center=(0, 0, 0), radius=1, direction=(0, 0, 0))

    def test_hypersphere_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            HypersphereSpec(center=(0, 0, 0), radius=1, direction=(1, 0))

    def test_entries_are_immutable_named_tuples(self):
        sphere = SphereSpec([1, 0], 2)
        assert sphere == ((1, 0), 2) and sphere.center == (1, 0)
        assert HypersphereSpec([1, 0], [0, 1], 2) == ((1, 0), (0, 1), 2)
        assert CircleSpec(3, 1) == (3, 1) and CircleSpec(3, 1)._asdict() == {
            "center": 3, "radius": 1}
        with pytest.raises(AttributeError):
            sphere.radius = 3
        with pytest.raises(AttributeError):
            sphere.note = 1
        # _make and _replace build without the checks of the constructor
        assert SphereSpec._make(((1, 0), 0)).radius == 0
        assert type(sphere._replace(center=(1,))) is SphereSpec

    def test_diagonal_eq_rejects_zero_coefficient(self):
        with pytest.raises(ZeroCoefficientError):
            DiagonalEq((1, 0, 1), 1)

    def test_diagonal_eq_rejects_empty(self):
        with pytest.raises(BadDimensionError):
            DiagonalEq((), 1)


class TestCounting:
    @pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_bruteforce_matches_scalar_reference(self, p, k):
        f = make_field(p, k)
        rng = np.random.default_rng(7 * p + k)
        for n in (1, 2, 3):
            vecs = [(1,) * n, tuple(int(x) for x in rng.integers(1, f.q, size=n))]
            for coeffs in vecs:
                for rhs in range(f.q):
                    eq = DiagonalEq(coeffs, rhs)
                    assert diagonal_count_bruteforce(f, eq) == ref_diagonal_count(f, coeffs, rhs)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
    def test_closed_matches_bruteforce(self, q):
        f = make_field(*prime_power_decompose(q))
        rng = np.random.default_rng(q)
        for n in (1, 2, 3, 4):
            vecs = [(1,) * n] + [
                tuple(int(x) for x in rng.integers(1, q, size=n)) for _ in range(3)
            ]
            for coeffs in vecs:
                for rhs in range(q):
                    eq = DiagonalEq(coeffs, rhs)
                    assert diagonal_count_closed(f, eq) == diagonal_count_bruteforce(f, eq), (coeffs, rhs)

    def test_counts_by_rhs_partition_the_space(self):
        f = make_field(5)
        counts = diagonal_counts_by_rhs(f, (1, 2, 3))
        assert counts.sum() == 125
        for rhs in range(5):
            assert counts[rhs] == diagonal_count_bruteforce(f, DiagonalEq((1, 2, 3), rhs))

    def test_frozen_plane_circle_counts(self):
        # x^2 + y^2 = b over F_3: 4 points for b != 0, 1 point for b = 0
        f = make_field(3)
        assert diagonal_count_closed(f, DiagonalEq((1, 1), 1)) == 4
        assert diagonal_count_closed(f, DiagonalEq((1, 1), 2)) == 4
        assert diagonal_count_bruteforce(f, DiagonalEq((1, 1), 0)) == 1

    def test_frozen_four_dim_counts(self):
        # over F_5: sphere sizes 120 (b nonzero) and 145 (b zero)
        f = make_field(5)
        assert diagonal_count_closed(f, DiagonalEq((1, 1, 1, 1), 1)) == 120
        assert diagonal_count_closed(f, DiagonalEq((1, 1, 1, 1), 0)) == 145

    def test_closed_count_builds_no_logs(self):
        # F_3^14: the exp/log pair would take 57 MB and seconds, for two
        # products and two characters, which polynomial products take
        f = make_field(3, 14)
        assert diagonal_count_closed(f, DiagonalEq((1, 1, 2), 1)) == 22876797237930
        assert "_logs" not in vars(f)
        assert diagonal_count_closed(ScalarField(3, 14), DiagonalEq((1, 1, 2), 1)) == \
            22876797237930

    @pytest.mark.parametrize("rhs", [9, -1, 1.0])
    def test_non_rank_rhs_raises(self, rhs):
        # numpy would wrap -1 to rank 6; 9 would count no solutions
        f = make_field(7)
        for count in (diagonal_count_bruteforce, diagonal_count_closed):
            with pytest.raises(ValueError, match="ranks"):
                count(f, DiagonalEq((1, 2), rhs))

    @pytest.mark.parametrize("coeff", [9, -6, True])
    def test_non_rank_coefficient_raises(self, coeff):
        f = make_field(7)
        for count in (diagonal_count_bruteforce, diagonal_count_closed):
            with pytest.raises(ValueError, match="ranks"):
                count(f, DiagonalEq((1, coeff), 1))
        with pytest.raises(ValueError, match="ranks"):
            diagonal_counts_by_rhs(f, (1, coeff))


class TestCountRecurrence:
    """diagonal_counts_by_rhs against the enumeration of every point, and
    against the closed form where no enumeration can reach."""

    @pytest.mark.parametrize("q", ODD_PRIME_POWERS_27)
    def test_equals_the_enumeration(self, q):
        f = make_field(*prime_power_decompose(q))
        rng = np.random.default_rng(1000 + q)
        for n in range(1, 6):
            if q ** n > 10 ** 6:
                break
            vecs = [(1,) * n] + [tuple(int(x) for x in rng.integers(1, q, size=n))
                                 for _ in range(4)]
            for coeffs in vecs:
                got = diagonal_counts_by_rhs(f, coeffs)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, enumerated_counts_by_rhs(f, coeffs),
                                              err_msg=str((q, coeffs)))

    @pytest.mark.parametrize("p,k,n", [(3, 1, 20), (31, 1, 8), (3, 7, 3)])
    def test_matches_the_closed_form_beyond_the_enumeration(self, p, k, n):
        f = make_field(p, k)
        rng = np.random.default_rng(p * n + k)
        for coeffs in [(1,) * n, tuple(int(x) for x in rng.integers(1, f.q, size=n))]:
            counts = diagonal_counts_by_rhs(f, coeffs)
            assert counts.sum() == f.q ** n
            for rhs in range(f.q):
                assert counts[rhs] == diagonal_count_closed(f, DiagonalEq(coeffs, rhs))

    def test_builds_no_dense_table(self):
        for p, k in [(7, 1), (3, 2), (3, 3)]:
            field = Fq(p, k)  # a fresh instance: make_field's may hold tables already
            eq = DiagonalEq((1, 2, 5), 4)
            assert diagonal_count_bruteforce(field, eq) == diagonal_count_closed(field, eq)
            assert not {"add_table", "sub_table", "mul_table"} & set(vars(field)), field

    def test_point_cap(self):
        f = make_field(3)
        assert 3 ** 25 <= POINT_CAP < 3 ** 26
        assert diagonal_count_bruteforce(f, DiagonalEq((1,) * 25, 0)) == 3 ** 24
        with pytest.raises(SizeCapError, match="point cap"):
            diagonal_count_bruteforce(f, DiagonalEq((1,) * 26, 0))

    def test_table_cap(self):
        # q = 4099, past the old dense-table cap: the recurrence reads length-q arrays only
        f = Fq(4099)
        counts = diagonal_counts_by_rhs(f, (1, 2))
        assert counts.tolist() == [diagonal_count_closed(f, DiagonalEq((1, 2), rhs))
                                   for rhs in range(f.q)]
        assert not {"add_table", "sub_table", "mul_table"} & set(vars(f))


class TestSpheres:
    def test_frozen_unit_circle_f5(self):
        f = make_field(5)
        s = sphere_points(f, SphereSpec(center=(0, 0), radius=1))
        assert sorted(int(r) for r in s.ranks()) == [1, 4, 5, 20]

    def test_frozen_translated_circle_f5(self):
        f = make_field(5)
        s = sphere_points(f, SphereSpec(center=(1, 1), radius=1))
        assert sorted(int(r) for r in s.ranks()) == [1, 5, 7, 11]

    @pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2)])
    def test_matches_scalar_reference_all_centers(self, q, n):
        f = make_field(*prime_power_decompose(q))
        for center_rank in range(space_size(f, n)):
            center = point_unrank(f, n, center_rank)
            for radius in f.units():
                s = sphere_points(f, SphereSpec(center=center, radius=radius))
                assert set(int(r) for r in s.ranks()) == ref_sphere(f, center, radius, n)

    @pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
    def test_translation_invariance_of_size(self, q, n):
        f = make_field(*prime_power_decompose(q))
        for radius in f.units():
            base = sphere_points(f, SphereSpec(center=(0,) * n, radius=radius)).size
            assert base == diagonal_count_closed(f, DiagonalEq((1,) * n, radius))
            for center_rank in range(space_size(f, n)):
                center = point_unrank(f, n, center_rank)
                assert sphere_points(f, SphereSpec(center=center, radius=radius)).size == base

    def test_norm_profile_matches_norm(self):
        f = make_field(3, 2)
        prof = norm_profile(f, 2)
        for r in range(81):
            assert prof[r] == norm(f, point_unrank(f, 2, r))

    def test_rejects_radius_outside_field(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            sphere_points(f, SphereSpec(center=(0, 0), radius=5))


class TestSphereIntersections:
    def test_identical_spheres_rejected(self):
        f = make_field(5)
        s = SphereSpec(center=(0, 0), radius=1)
        with pytest.raises(IdenticalSpheresError):
            sphere_intersection_size(f, s, s)

    def test_same_center_distinct_radii_disjoint(self):
        for q, n in [(3, 2), (5, 2), (3, 3), (7, 2)]:
            f = make_field(*prime_power_decompose(q))
            for r1 in f.units():
                for r2 in f.units():
                    if r1 == r2:
                        continue
                    s1 = SphereSpec(center=(0,) * n, radius=r1)
                    s2 = SphereSpec(center=(0,) * n, radius=r2)
                    assert sphere_intersection_size(f, s1, s2) == 0

    def test_matches_mask_intersection(self):
        f = make_field(5)
        rng = np.random.default_rng(11)
        for _ in range(30):
            c1 = tuple(int(x) for x in rng.integers(0, 5, size=2))
            c2 = tuple(int(x) for x in rng.integers(0, 5, size=2))
            r1 = int(rng.integers(1, 5))
            r2 = int(rng.integers(1, 5))
            s1 = SphereSpec(center=c1, radius=r1)
            s2 = SphereSpec(center=c2, radius=r2)
            if s1 == s2:
                continue
            want = (sphere_points(f, s1) & sphere_points(f, s2)).size
            assert sphere_intersection_size(f, s1, s2) == want

    def test_dimension_mismatch_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            sphere_intersection_size(
                f,
                SphereSpec(center=(0, 0), radius=1),
                SphereSpec(center=(0, 0, 0), radius=2),
            )


class TestHyperspheres:
    def test_frozen_f3_example(self):
        # direction (1,0,0) pins x = 0, leaving y^2 + z^2 = 1
        f = make_field(3)
        h = HypersphereSpec(center=(0, 0, 0), radius=1, direction=(1, 0, 0))
        pts = hypersphere_points(f, h)
        assert sorted(int(r) for r in pts.ranks()) == [3, 6, 9, 18]

    def test_matches_scalar_reference(self):
        f = make_field(5)
        h = HypersphereSpec(center=(1, 2, 0), radius=2, direction=(1, 1, 0))
        got = set(int(r) for r in hypersphere_points(f, h).ranks())
        want = set()
        for point in itertools.product(range(5), repeat=3):
            diff = tuple(f.sub(x, c) for x, c in zip(point, h.center))
            if norm(f, diff) == h.radius and dot(f, h.direction, diff) == 0:
                want.add(point_rank(f, point))
        assert got == want

    def test_canonical_direction_scales_first_unit(self):
        f = make_field(5)
        assert canonical_direction(f, (2, 4, 0)) == (1, 2, 0)
        assert canonical_direction(f, (0, 3, 1)) == (0, 1, 2)
        assert canonical_direction(f, (1, 0, 0)) == (1, 0, 0)
        for d in ((2, 4, 0), (0, 3, 1), (3, 1, 4)):
            h = HypersphereSpec(center=(1, 2, 0), radius=3, direction=d)
            scaled = HypersphereSpec(h.center, canonical_direction(f, d), h.radius)
            assert hypersphere_points(f, h) == hypersphere_points(f, scaled)


class TestSumTwoSquares:
    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81])
    def test_every_element_is_a_sum_of_two_squares(self, q):
        f = make_field(*prime_power_decompose(q))
        assert unique_sum_two_squares_covers(f)
        # scalar cross-check
        sums = {f.add(f.mul(a, a), f.mul(b, b)) for a in f.elements() for b in f.elements()}
        assert sums == set(f.elements())


class TestPointSet:
    def test_set_ops_match_python_sets(self):
        f = make_field(3)
        a = PointSet.from_ranks(f, 2, [0, 1, 4, 7])
        b = PointSet.from_ranks(f, 2, [1, 2, 7, 8])
        assert set((a | b).ranks().tolist()) == {0, 1, 2, 4, 7, 8}
        assert set((a & b).ranks().tolist()) == {1, 7}
        assert set(a.complement().ranks().tolist()) == {2, 3, 5, 6, 8}
        assert (a & b).issubset(a)
        assert not a.issubset(b)
        assert a.size == 4 and len(b) == 4

    def test_membership_by_point(self):
        f = make_field(3)
        a = PointSet.from_ranks(f, 2, [5])
        assert (2, 1) in a
        assert (1, 2) not in a

    @pytest.mark.parametrize("point", [(1,), (1, 0, 0), (True, 0), (0, 0, 1), (1.0, 0),
                                       (3, 0), (-1, 0), [1, 0, 0], "10", 1, None])
    def test_membership_rejects_non_points(self, point):
        a = PointSet.from_ranks(make_field(3), 2, [1])
        with pytest.raises(ValueError, match="not a point"):
            point in a

    def test_membership_takes_tuples_lists_and_numpy_integers(self):
        a = PointSet.from_ranks(make_field(3), 2, [1])
        assert (1, 0) in a and [1, 0] in a and (np.int64(1), np.uint8(0)) in a
        assert (0, 1) not in a

    def test_mask_is_immutable(self):
        f = make_field(3)
        a = PointSet.from_ranks(f, 2, [1, 5])
        for s in (a, PointSet.empty(f, 2), PointSet.full(f, 2), a | a, a & a,
                  a.complement(), PointSet(f, 2, a.mask)):
            with pytest.raises(ValueError):
                s.mask[0] = True

    def test_constructor_copies_the_mask(self):
        f = make_field(3)
        mask = np.zeros(9, dtype=bool)
        mask[4] = True
        a = PointSet(f, 2, mask)
        mask[:] = True
        assert mask.flags.writeable
        assert a.ranks().tolist() == [4]

    def test_json_round_trip(self):
        f = make_field(3, 2)
        a = PointSet.from_ranks(f, 2, [0, 17, 80])
        d = a.to_json_dict()
        assert d == {"q": 9, "p": 3, "k": 2, "n": 2, "ranks": [0, 17, 80]}
        assert PointSet.from_json_dict(d) == a

    def test_json_rejects_inconsistent_q(self):
        with pytest.raises(ValueError):
            PointSet.from_json_dict({"q": 10, "p": 3, "k": 2, "n": 1, "ranks": []})

    def test_from_ranks_rejects_out_of_range(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            PointSet.from_ranks(f, 2, [9])

    @pytest.mark.parametrize("ranks", [[1.7, 2.2], [1.0], np.array([1.5]), [True, False]])
    def test_from_ranks_rejects_non_integers(self, ranks):
        with pytest.raises(ValueError, match="integers"):
            PointSet.from_ranks(make_field(7), 1, ranks)

    def test_from_ranks_takes_integer_arrays_and_empty_lists(self):
        f = make_field(7)
        for ranks in (np.array([1, 2], dtype=np.uint8), np.array([1, 2]), [1, 2]):
            assert PointSet.from_ranks(f, 1, ranks).ranks().tolist() == [1, 2]
        assert PointSet.from_ranks(f, 1, []).size == 0

    @pytest.mark.parametrize("key", ["p", "n", "ranks"])
    def test_json_names_a_missing_key(self, key):
        d = PointSet.from_ranks(make_field(3), 2, [1]).to_json_dict()
        del d[key]
        with pytest.raises(ValueError, match=repr(key)):
            PointSet.from_json_dict(d)

    def test_json_defaults_k_to_one_and_takes_q_as_optional(self):
        # the rules of the command line's set files, which this loader reads
        a = PointSet.from_ranks(make_field(7), 2, [1, 30])
        for key in ("k", "q"):
            d = a.to_json_dict()
            del d[key]
            assert PointSet.from_json_dict(d) == a
        d = PointSet.from_ranks(make_field(3, 2), 2, [1]).to_json_dict()
        del d["k"]
        with pytest.raises(UsageError, match="q in file does not match p\\^k"):
            PointSet.from_json_dict(d)

    @pytest.mark.parametrize("key,value", [
        ("p", 7.9), ("n", 2.5), ("p", "7"), ("k", True), ("q", 49.0), ("ranks", [1, True]),
        ("ranks", [1.0]), ("ranks", "1"),
    ])
    def test_json_names_a_key_that_is_not_an_integer(self, key, value):
        # the command line's loader rejects each of these too
        d = PointSet.from_ranks(make_field(7), 2, [1]).to_json_dict()
        d[key] = value
        message = "ranks must be integers" if key == "ranks" else repr(key)
        with pytest.raises(UsageError, match=message):
            PointSet.from_json_dict(d)

    def test_eq_and_spaces(self):
        f = make_field(3)
        g = make_field(5)
        a = PointSet.from_ranks(f, 2, [1])
        assert a == PointSet.from_ranks(f, 2, [1])
        assert a != PointSet.from_ranks(f, 1, [1])
        with pytest.raises(ValueError):
            a | PointSet.from_ranks(g, 2, [1])
