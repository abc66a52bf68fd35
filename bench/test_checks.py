"""Each reference check accepts the library's output and rejects it once
corrupted: one flipped mask bit, one element dropped from a cover, two
table entries swapped.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ffkakeya as fk  # noqa: E402
import oracles as orc  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import Case  # noqa: E402


def ref_for(field) -> orc.RefField:
    return orc.RefField(field.p, field.k, field.modulus)


def flipped(res, rank: int):
    """The result with one membership bit flipped and its size updated."""
    mask = res.points.mask.copy()
    mask[rank] = not mask[rank]
    points = fk.PointSet(res.field, res.n, mask)
    return dataclasses.replace(res, points=points, size=points.size)


@pytest.mark.parametrize("p,k,n", [(7, 1, 4), (3, 2, 4), (5, 1, 3)])
def test_radius_spherical_check_rejects_a_flipped_bit(p, k, n):
    field = fk.make_field(p, k)
    res = fk.radius_spherical(field, n)
    ref, space = ref_for(field), orc.RefSpace(ref_for(field), n)
    assert orc.check_radius_spherical(res, ref, space) is None
    inside = int(res.points.ranks()[len(res.points.ranks()) // 2])
    outside = int(np.flatnonzero(~res.points.mask)[0])
    assert orc.check_radius_spherical(flipped(res, inside), ref, space) is not None
    assert orc.check_radius_spherical(flipped(res, outside), ref, space) is not None


@pytest.mark.parametrize("p,k,n", [(7, 1, 4), (3, 2, 4), (3, 1, 5)])
def test_center_spherical_check_rejects_a_flipped_bit(p, k, n):
    field = fk.make_field(p, k)
    res = fk.center_spherical(field, n)
    r = res.accounting["fixedNonsquareRadius"]
    ref, space = ref_for(field), orc.RefSpace(ref_for(field), n)
    assert orc.check_center_spherical(res, ref, space, r) is None
    for rank in (int(res.points.ranks()[-1]), int(np.flatnonzero(~res.points.mask)[-1])):
        assert orc.check_center_spherical(flipped(res, rank), ref, space, r) is not None


@pytest.mark.parametrize("p,k,n", [(5, 1, 4), (3, 2, 3)])
def test_hypersphere_union_check_rejects_a_flipped_bit(p, k, n):
    field = fk.make_field(p, k)
    res = fk.hypersphere_union(field, n)
    ref, space = ref_for(field), orc.RefSpace(ref_for(field), n)
    assert orc.check_hypersphere_union(res, ref, space) is None
    spec = res.witness.entries[1]
    on_witness = int(space.hypersphere(spec.center, spec.direction, 1)[0])
    off_quadric = int(np.flatnonzero(space.norms != 0)[0])
    for rank in (on_witness, off_quadric):
        assert orc.check_hypersphere_union(flipped(res, rank), ref, space) is not None


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
@pytest.mark.parametrize("name", ["add_table", "sub_table", "mul_table"])
def test_table_check_rejects_two_swapped_entries(p, k, name):
    field = fk.Fq(p, k)
    tables = {t: getattr(field, t).copy() for t in
              ("add_table", "sub_table", "mul_table", "neg_arr", "inv_arr",
               "sq_arr", "char_arr")}
    ref = ref_for(field)
    assert orc.check_tables(tables, ref) is None
    table = tables[name]
    # two entries of one row holding different values
    row = 1
    j = int(np.flatnonzero(table[row] != table[row, 0])[0])
    table[row, 0], table[row, j] = table[row, j], table[row, 0]
    assert orc.check_tables(tables, ref) is not None


@pytest.mark.parametrize("name", ["neg_arr", "inv_arr", "sq_arr", "char_arr"])
def test_vector_check_rejects_two_swapped_entries(name):
    field = fk.Fq(3, 3)
    tables = {t: getattr(field, t).copy() for t in
              ("add_table", "sub_table", "mul_table", "neg_arr", "inv_arr",
               "sq_arr", "char_arr")}
    vec = tables[name]
    i, j = 1, int(np.flatnonzero(vec != vec[1])[-1])
    vec[i], vec[j] = vec[j], vec[i]
    assert orc.check_tables(tables, ref_for(field)) is not None


@pytest.mark.parametrize("build,p,k,variant", [
    (lambda v: fk.circular_prime(13, v), 13, 1, "radius"),
    (lambda v: fk.circular_prime(101, v), 101, 1, "center"),
    (lambda v: fk.circular_square(fk.make_field(3, 4), v), 3, 4, "radius"),
    (lambda v: fk.circular_odd_power(fk.make_field(3, 3), v), 3, 3, "center"),
])
def test_circular_check_rejects_a_dropped_element(build, p, k, variant):
    res = build(variant)
    ref = ref_for(fk.make_field(p, k))
    assert orc.check_circular(res, ref, variant) is None
    for x in res.points.ranks():
        assert orc.check_circular(flipped(res, int(x)), ref, variant) is not None


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (13, 1)])
@pytest.mark.parametrize("kind", ["radius", "center"])
def test_search_check_rejects_a_dropped_element(p, k, kind):
    field = fk.make_field(p, k)
    ref = ref_for(field)
    out = fk.minimal_circular_exact(field, kind)
    assert orc.check_search(out, ref, kind, True) is None
    for drop in range(out.size):
        short = out.example[:drop] + out.example[drop + 1:]
        bad = dataclasses.replace(out, example=short, size=out.size - 1)
        assert orc.check_search(bad, ref, kind, True) is not None
    greedy = fk.greedy_circular(field, kind)
    assert orc.check_search(greedy, ref, kind, False) is None


def test_search_check_rejects_a_minimum_that_is_not_minimal():
    field = fk.make_field(13)
    ref = ref_for(field)
    out = fk.minimal_circular_exact(field, "radius")
    padded = tuple(sorted(set(out.example) | {12}))
    assert orc.covers(ref, padded, "radius")
    bad = dataclasses.replace(out, example=padded, size=len(padded))
    assert orc.check_search(bad, ref, "radius", True) is not None


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (7, 1), (5, 2), (3, 3)])
def test_closed_counts_match_a_convolution_of_value_histograms(p, k):
    """For every coefficient vector up to n = 4 and every rhs, the closed
    form equals the additive convolution of the histograms of c x^2."""
    ref = ref_for(fk.make_field(p, k))
    q = ref.q
    elems = np.arange(q)
    add = ref.add(elems[:, None], elems[None, :])
    for n in (1, 2, 3, 4):
        for coeffs in itertools.product(range(1, q), repeat=n):
            if coeffs != tuple(sorted(coeffs)) or len(set(coeffs)) > 2:
                continue
            hist = np.zeros(q, dtype=np.int64)
            hist[0] = 1
            for c in coeffs:
                values = ref.mul(c, ref.mul(elems, elems))
                nxt = np.zeros(q, dtype=np.int64)
                np.add.at(nxt, add[np.arange(q)[:, None], values[None, :]],
                          np.repeat(hist[:, None], q, axis=1))
                hist = nxt
            assert [orc.count_closed(ref, coeffs, b) for b in range(q)] == hist.tolist()


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_extension_character_is_euler_criterion(p, k):
    ref = ref_for(fk.make_field(p, k))
    euler = [ref.pow_scalar(a, (ref.q - 1) // 2) for a in range(1, ref.q)]
    want = [1 if v == 1 else -1 for v in euler]
    assert ref.chi(np.arange(1, ref.q)).tolist() == want
    assert int(ref.neg(1)) in euler  # -1 = a^((q-1)/2) for nonsquares


def test_reference_rejects_a_reducible_modulus():
    with pytest.raises(ValueError):
        orc.RefField(3, 2, (2, 0, 1))  # t^2 + 2 = (t + 1)(t + 2) over F_3


@pytest.mark.parametrize("p,k,n", [(3, 1, 3), (5, 1, 3), (3, 2, 3), (3, 1, 4)])
def test_intersection_maximum_is_within_the_lemma_bound(p, k, n):
    field = fk.make_field(p, k)
    got = orc.max_sphere_intersection(orc.RefSpace(ref_for(field), n))
    assert 0 < got <= orc.intersection_bound(field.q, n)
    assert got == fk.verify_intersection_lemma(field, n, budget=10 ** 9)


def test_every_output_is_checked():
    """A pass checks each output, also after the same case passed before."""
    outputs = iter([True, True, False])
    case = Case("c", lambda: next(outputs), lambda v: None if v is True else "wrong")
    ctx = SimpleNamespace(state={}, tracer=tracing.NullTracer())
    cal = SimpleNamespace(sample=lambda: 0.01, reference_s=0.01)
    for expect_failures in (0, 0, 1):
        _, _, failures = worker.run_pass([case], ctx, cal)
        assert len(failures) == expect_failures


def test_a_scan_of_a_set_that_fails_its_construction_check_fails(monkeypatch):
    """A verdict True on a constructed set counts only if the set passed the
    reference checks; otherwise the scan fails with their reason."""
    ctx = workloads.Ctx(fk, 1, tracing.NullTracer(), HERE.parent)
    cases = {c.name: c for c in workloads.setup_exhaustive(ctx)}
    monkeypatch.setattr(orc, "check_radius_spherical", lambda *args: "not genuine")
    for prepare in ctx.prepare:
        if prepare.func.__name__ == "check_genuine":
            prepare()
    assert cases["exhaustive_radius/7,4"].check(True) == "not genuine"
    assert cases["exhaustive_center/7,4"].check(True) is None
    assert cases["exhaustive_center/7,4"].check(False) is not None


@pytest.mark.parametrize("radius", [1, 3, 6])
def test_one_radius_missing_set_lacks_exactly_that_radius(radius):
    field = fk.make_field(7)
    res = fk.radius_spherical(field, 4)
    space = orc.RefSpace(ref_for(field), 4)
    keep = np.zeros(space.size, dtype=bool)
    for s, spec in res.witness.entries.items():
        if s != radius:
            keep[space.sphere(spec.center, s)] = True
    kept = orc.without_radius(space, res.points.mask, radius, keep,
                              np.random.default_rng(radius))
    for s in range(1, 7):
        assert (len(orc.sphere_centers_inside(space, kept, s)) == 0) == (s == radius)
    assert not fk.verify_radius_kakeya(fk.PointSet(field, 4, kept))
