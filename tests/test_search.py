"""Minimal one-dimensional cover search: exact DFS, certification, greedy.

greedy_circular keeps one gain counter per element and updates it by the
values each step covers.  Two greedies it replaced are kept below as its
oracles, and every oracle returns an equal SearchOutcome (size, example
and nodes):
- the scalar greedy, one bitmask of cover values per candidate, for
  q <= 1009;
- the sort-based greedy, which re-stacks its q x |K| value table and
  re-sorts every candidate row at each step, for q up to 4093.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import exhaustive_cover_exists
from ffkakeya import (
    BudgetExceededError,
    SizeCapError,
    circular_lower_bounds,
    diff_cover,
    greedy_circular,
    make_field,
    minimal_circular_exact,
    prime_power_decompose,
    sum_cover,
)
from ffkakeya.field import ARRAY_CAP
from ffkakeya.search import SearchOutcome

SMALL_Q = [3, 5, 7, 9, 11, 13]


def _cover_fn(kind):
    return diff_cover if kind == "radius" else sum_cover


# ---- oracle: the scalar greedy, one bitmask of cover values per candidate ----

def old_new_bits(field, kind, x, chosen):
    bits = 0
    if kind == "radius":
        bits |= 1  # x - x
        for y in chosen:
            bits |= (1 << field.sub(x, y)) | (1 << field.sub(y, x))
    else:
        for y in chosen:
            bits |= 1 << field.add(x, y)
    return bits


def old_greedy_circular(field, kind):
    q = field.q
    full = (1 << q) - 1
    chosen = []
    member = [False] * q
    covered = 0
    nodes = 0
    while covered != full:
        best_x = -1
        best_gain = -1
        for x in range(q):
            if member[x]:
                continue
            nodes += 1
            gain = bin(old_new_bits(field, kind, x, chosen) & ~covered).count("1")
            if gain > best_gain:
                best_gain = gain
                best_x = x
        covered |= old_new_bits(field, kind, best_x, chosen)
        chosen.append(best_x)
        member[best_x] = True
    return SearchOutcome(q, kind, len(chosen), tuple(sorted(chosen)), nodes, False)


# ---- oracle: the sort-based greedy, one row of cover values per candidate ----

def sorted_greedy_circular(field, kind):
    """Row x of the value table holds the cover values x would add, so a
    candidate's gain is the number of distinct uncovered values in its
    sorted row.  O(q * |K|) memory and O(q * |K|^2 * log |K|) time."""
    q = field.q
    ranks = np.arange(q, dtype=np.int64)
    table = np.zeros((q, 1 if kind == "radius" else 0), dtype=np.int64)
    covered = np.zeros(q, dtype=bool)
    member = np.zeros(q, dtype=bool)
    chosen = []
    nodes = 0
    while not covered.all():
        candidates = np.flatnonzero(~member)
        nodes += candidates.size
        values = np.sort(table[candidates], axis=1)
        new = ~covered[values]
        new[:, 1:] &= values[:, 1:] != values[:, :-1]
        best = int(candidates[np.argmax(new.sum(axis=1))])
        covered[table[best]] = True
        member[best] = True
        chosen.append(best)
        if kind == "radius":
            cols = [field.sub_arrays(ranks, best), field.sub_arrays(best, ranks)]
        else:
            cols = [field.add_arrays(ranks, best)]
        table = np.column_stack([table, *cols])
    return SearchOutcome(q, kind, len(chosen), tuple(sorted(chosen)), nodes, False)


class TestExactSearch:
    def test_frozen_tiny_minima(self):
        f3 = make_field(3)
        assert minimal_circular_exact(f3, "radius").size == 2
        assert minimal_circular_exact(f3, "center").size == 3

    def test_frozen_perfect_difference_set(self):
        # q = 7 admits a 3-element difference cover
        out = minimal_circular_exact(make_field(7), "radius")
        assert out.size == 3
        assert out.example == (0, 1, 3)

    @pytest.mark.parametrize("q", SMALL_Q)
    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_result_covers_and_respects_lower_bound(self, q, kind):
        f = make_field(*prime_power_decompose(q))
        out = minimal_circular_exact(f, kind)
        assert out.certified
        assert out.q == q and out.kind == kind
        assert len(out.example) == out.size
        assert _cover_fn(kind)(f, list(out.example))
        dmin, smin = circular_lower_bounds(q)
        assert out.size >= (dmin if kind == "radius" else smin)

    @pytest.mark.parametrize("q", SMALL_Q)
    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_minimum_certified_by_unpruned_enumeration(self, q, kind):
        f = make_field(*prime_power_decompose(q))
        out = minimal_circular_exact(f, kind)
        assert exhaustive_cover_exists(f, kind, out.size)
        assert not exhaustive_cover_exists(f, kind, out.size - 1)

    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_deterministic(self, kind):
        f = make_field(11)
        a = minimal_circular_exact(f, kind)
        b = minimal_circular_exact(f, kind)
        assert a == b

    def test_normalization_keeps_zero_and_one(self):
        for q in SMALL_Q:
            f = make_field(*prime_power_decompose(q))
            out = minimal_circular_exact(f, "radius")
            assert out.example[0] == 0
            if out.size >= 2:
                assert out.example[1] == 1

    def test_limit_guard(self):
        with pytest.raises(BudgetExceededError):
            minimal_circular_exact(make_field(17), "radius")
        out = minimal_circular_exact(make_field(17), "radius", limit=17)
        assert out.certified and out.size >= circular_lower_bounds(17)[0]

    def test_node_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            minimal_circular_exact(make_field(13), "center", node_budget=3)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            minimal_circular_exact(make_field(5), "sideways")

    def test_never_beats_the_explicit_constructions(self):
        from ffkakeya import circular_prime, circular_square
        for p in (3, 5, 7, 11, 13):
            out = minimal_circular_exact(make_field(p), "radius")
            assert out.size <= circular_prime(p, "radius").size
        out = minimal_circular_exact(make_field(3, 2), "radius")
        assert out.size <= circular_square(make_field(3, 2), "radius").size


class TestGreedy:
    @pytest.mark.parametrize("q", SMALL_Q)
    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_never_beats_exact_and_always_covers(self, q, kind):
        f = make_field(*prime_power_decompose(q))
        greedy = greedy_circular(f, kind)
        exact = minimal_circular_exact(f, kind)
        assert not greedy.certified
        assert _cover_fn(kind)(f, list(greedy.example))
        assert greedy.size >= exact.size

    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_scales_past_the_exact_limit(self, kind):
        f = make_field(5, 2)
        out = greedy_circular(f, kind)
        assert _cover_fn(kind)(f, list(out.example))
        dmin, smin = circular_lower_bounds(25)
        assert out.size >= (dmin if kind == "radius" else smin)

    def test_bracketed_by_lower_bound_and_construction_at_q25(self):
        from ffkakeya import circular_square
        f = make_field(5, 2)
        out = greedy_circular(f, "radius")
        assert circular_lower_bounds(25)[0] <= out.size
        assert out.size <= circular_square(f, "radius").size

    def test_deterministic(self):
        f = make_field(13)
        assert greedy_circular(f, "radius") == greedy_circular(f, "radius")

    @pytest.mark.parametrize(
        "q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 125, 241, 243, 337, 343, 729, 1009])
    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_equals_the_scalar_greedy(self, q, kind):
        f = make_field(*prime_power_decompose(q))
        assert greedy_circular(f, kind) == old_greedy_circular(f, kind)

    @pytest.mark.parametrize("q", [2187, 2401, 4093])
    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_equals_the_sort_based_greedy(self, q, kind):
        f = make_field(*prime_power_decompose(q))
        assert greedy_circular(f, kind) == sorted_greedy_circular(f, kind)

    @pytest.mark.parametrize("kind", ["radius", "center"])
    def test_node_budget_guard(self, kind):
        f = make_field(13)
        nodes = greedy_circular(f, kind).nodes
        assert greedy_circular(f, kind, node_budget=nodes).nodes == nodes
        with pytest.raises(BudgetExceededError) as info:
            greedy_circular(f, kind, node_budget=nodes - 1)
        assert info.value.estimate == nodes  # the last step, not a partial one
        assert info.value.budget == nodes - 1
        with pytest.raises(BudgetExceededError) as info:
            greedy_circular(f, kind, node_budget=12)
        assert info.value.estimate == 13  # the first step has q candidates

    def test_refuses_a_q_past_the_array_cap_at_once(self):
        f = make_field(ARRAY_CAP + 15)  # a prime
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                greedy_circular(f, "center")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_memory_at_q10007(self):
        # the sort-based greedy's value table peaked at about 100 MB here
        f = make_field(10007)
        tracemalloc.start()
        try:
            out = greedy_circular(f, "radius")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert diff_cover(f, list(out.example))


class TestOutcomeSerialization:
    def test_exact_json_uses_minimal_size(self):
        out = minimal_circular_exact(make_field(7), "radius")
        d = out.to_json_dict()
        assert d["minimalSize"] == 3
        assert d["certified"] is True
        assert d["exampleSet"] == [0, 1, 3]
        assert "foundSize" not in d

    def test_greedy_json_uses_found_size(self):
        out = greedy_circular(make_field(7), "radius")
        d = out.to_json_dict()
        assert d["certified"] is False
        assert "foundSize" in d and "minimalSize" not in d
